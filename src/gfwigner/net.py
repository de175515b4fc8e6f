"""Quantum nets: ray generators, ray states, the squeezing operator U_w
(its gate list, galois.u_omega_gates, is re-exported here), covariant net
construction, the sign function f, and MUB generation.

A net is encoded by one sign vector per striation: the ray of striation
lambda is assigned the joint eigenstate of its n generators G_k with
eigenvalues eps_k, the pauli.StabilizerGroup QuantumNet.ray(lambda).  The
sign function f is the union of the rays' groups: f(beta) is the sign of
T_beta in the group of the ray through beta.  Everything else (line states,
phase-space point operators) follows from translation covariance.

Covariant nets are derived on the same sign data, for any n <= 16: U_w
permutes translations, U_w T(a, b) U_w^dagger = +-T(a M, b M~^-1).  A net
is only its signs: a net file's "mode" says whether they are covariant.
U_w's matrix is a dense realisation that nets do not need; dense matrices
are built only when a caller asks for them: A(0) is one Pauli sum,
N^-2 sum_beta f(beta) T_beta over the flat f vector.  States are tuples of
Python complex: a ray state is read off its group (StabilizerGroup.state),
and each striation's N line states, its mutually unbiased basis, are its
entries moved and signed.  numpy and json load only where they are used.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, islice
from numbers import Integral
from typing import TYPE_CHECKING

from .errors import FieldMismatch, MalformedInput
from .galois import GF2Field, read_field_header
from .galois import u_omega_gates  # noqa: F401  (re-exported beside u_omega_matrix)
from .pauli import (
    _I_POW,
    PauliTranslation,
    StabilizerGroup,
    _basis_order,
    basis_index,
    dense_dim,
    fix_phase,
    pauli_sum,
    ray_walk,
    translation,
    walsh_hadamard,
)
from .phasespace import (
    BinaryPoint,
    HORIZONTAL,
    Line,
    PhasePoint,
    VERTICAL,
    _direction,
    _no_striation,
    from_binary,
    label_of_line,
    ray_through,
    striation,
    striation_labels,
)

if TYPE_CHECKING:
    import numpy as np


def ray_generators(field: GF2Field, label) -> tuple[PauliTranslation, ...]:
    """The n generators of one ray's class: the first n points of its walk,
    T(1 M^k, 1 M~^(k+j)) for the diagonal ray j, X strings for h, Z for v."""
    points = islice(ray_walk(field, label), field.n)
    return tuple(translation(field.n, a, b) for a, b in points)


# -- squeezing operator -------------------------------------------------------


def u_omega_matrix(field: GF2Field) -> np.ndarray:
    """Dense U_w as the basis permutation |bits> -> |bits . M>."""
    import numpy as np

    n = field.n
    N = dense_dim(n)
    U = np.zeros((N, N), dtype=complex)
    for bits in range(N):
        U[basis_index(field.apply_m(bits), n), basis_index(bits, n)] = 1
    return U


def conjugate_by_u_omega(field: GF2Field, t: PauliTranslation) -> PauliTranslation:
    """U_w t U_w^dagger on labels: U_w maps X^a to X^(a M) and Z^b to
    Z^(b M~^-1) with no phase, so i^s X^a Z^b keeps its i^s."""
    return PauliTranslation(t.n, field.apply_m(t.a), field.apply_mt_inv(t.b), t.s)


def _is_sign(e) -> bool:
    return isinstance(e, Integral) and not isinstance(e, bool) and e in (1, -1)


def _checked_signs(field: GF2Field, signs: dict) -> dict:
    """One tuple of n signs +1 or -1 per striation, in striation order."""
    labels = striation_labels(field)
    unknown = [k for k in signs if k not in labels]
    if unknown:
        raise _no_striation(field, unknown[0])
    out = {}
    for label in labels:
        eps = signs.get(label)
        if not (isinstance(eps, (list, tuple)) and len(eps) == field.n
                and all(map(_is_sign, eps))):
            raise MalformedInput(f"sign vector for striation {label} must be "
                                 f"{field.n} entries +1 or -1, got {eps!r}")
        out[label] = tuple(eps)
    return out


# -- the quantum net -----------------------------------------------------------


class QuantumNet:
    """Line-to-state assignment, encoded by per-striation sign vectors alone.

    The derived sign function f maps every nonzero phase-space point beta to
    the eigenvalue of T_beta on the state assigned to the ray through beta.
    f is computed exactly from the sign vectors, one ray member per point,
    so it works symbolically at any supported n.
    """

    def __init__(self, field: GF2Field, signs: dict):
        self.field = field
        self.signs = _checked_signs(field, signs)
        self._rays = {}
        self._f_vector = None
        self._bases = {}
        self._a0 = None

    # -- ray data ----------------------------------------------------------

    def ray(self, label) -> StabilizerGroup:
        """The stabilizer group of the ray's state: its generators, signed by
        the striation's sign vector.  A label that is not a striation of the
        field raises MalformedInput."""
        if label not in self._rays:
            if label not in self.signs:
                raise _no_striation(self.field, label)
            self._rays[label] = StabilizerGroup(
                self.field, ray_generators(self.field, label), self.signs[label])
        return self._rays[label]

    def ray_state(self, label) -> tuple[complex, ...]:
        """The ray's state, read off its group; basis(label) keeps it as row 0."""
        return self.ray(label).state()

    def basis(self, label) -> tuple[tuple[complex, ...], ...]:
        """The striation's N line states as a tuple of rows in line order: the
        ray state v, then line c at row 1 + log c, v moved by T(a, b) for
        the line's displacement (it sends i^(a.b) (-1)^(b.x) v[index x] to
        index(x ^ a)) and phase-fixed.  On the vertical v is a |y>, which
        (c, 0) moves; elsewhere v has no zero entry, which (0, c / b) signs."""
        if label not in self._bases:
            field = self.field
            index, v = _basis_order(field.n), self.ray_state(label)
            plus, minus = [_I_POW[0] * z for z in v], [_I_POW[2] * z for z in v]
            ds = [line_displacement(field, line) for line in striation(field, label).lines[1:]]
            if label == VERTICAL:  # every row's phase factor is that of +v[y]
                fixed = fix_phase(plus)
                rows = [tuple(fixed[k ^ index[d.q]] for k in range(field.N)) for d in ds]
            else:  # every row starts with +v[0]: one factor, two products per entry
                fixed, signs = fix_phase(plus + minus), _parities(field.n)
                pairs = list(zip(fixed[:field.N], fixed[field.N:]))
                rows = [tuple(map(tuple.__getitem__, pairs, signs[index[field.p_to_bits(d.p)]]))
                        for d in ds]
            self._bases[label] = (v, *rows)
        return self._bases[label]

    # -- the sign function f -------------------------------------------------

    def f(self, beta: BinaryPoint) -> int:
        """T_beta's eigenvalue (+-1) on its ray's state: the member at x = q
        (p on v; ray_walk).  Raises FieldMismatch for a point of another n
        or with bits beyond n."""
        n = self.field.n
        if beta.n != n or (beta.qbits | beta.pbits) >> n:
            raise FieldMismatch(f"point {beta} is not on the n = {n} grid")
        if beta.is_origin:
            return 1
        point = from_binary(self.field, beta)
        label = ray_through(self.field, point)
        return self.ray(label).at(point.p if label == VERTICAL else point.q)

    def f_table(self) -> dict[tuple[int, int], int]:
        """f on every nonzero point, exact +-1 integers: the union of the
        rays' elements without the origin."""
        table = {}
        for label in striation_labels(self.field):
            table.update(self.ray(label).elements)
        del table[(0, 0)]
        return table

    def f_vector(self) -> tuple[int, ...]:
        """f at every (qbits << n) | pbits, f(0) = 1: dense Pauli sums' input."""
        if self._f_vector is None:
            n, N = self.field.n, dense_dim(self.field.n)
            f = [1] * (N * N)
            for (a, b), sign in self.f_table().items():
                f[(a << n) | b] = sign
            self._f_vector = tuple(f)
        return self._f_vector

    def _f_json(self) -> dict[str, int]:
        """f keyed by "qbits,pbits" strings, each element's bits rendered once."""
        N, f = self.field.N, self.f_table()
        bits = [self.field.bits_str(x) for x in range(N)]
        return {f"{bits[q]},{bits[p]}": f[q, p] for q in range(N) for p in range(N) if q or p}

    # -- phase-space point operators -----------------------------------------

    def a0_matrix(self) -> np.ndarray:
        """A(0) = N^-2 sum_beta f(beta) T_beta = N^-1 (sum_lambda P_lambda - I)."""
        if self._a0 is None:
            N = self.field.N
            self._a0 = pauli_sum(self.field.n, self.f_vector()) / (N * N)
        return self._a0

    def fingerprint(self) -> str:
        parts = [f"{label}:{''.join('+' if s > 0 else '-' for s in eps)}"
                 for label, eps in self.signs.items()]
        return f"n={self.field.n};poly={self.field.poly:#x};" + ",".join(parts)

    def to_json(self) -> str:
        """The net as JSON, "mode" "covariant" exactly when the diagonal
        signs are those derived from the h, v and 0 signs (_covariant_signs)."""
        import json

        field = self.field
        payload = {
            "n": field.n,
            "poly": field.poly_str(),
            "mode": "covariant" if _covariant_signs(field, self.signs) == self.signs
            else "independent",
            "signs": {str(k): list(v) for k, v in self.signs.items()},
            "f": self._f_json(),
        }
        return json.dumps(payload, indent=2)


def net_from_json(text: str) -> QuantumNet:
    """Load a QuantumNet.to_json net, else raise a GfwignerError: "signs" is
    keyed by str(label), a "covariant" net's diagonal signs are derived from
    its h, v and 0 signs, and "f" must match the signs."""
    field, payload = read_field_header(text, "net JSON", signs=dict)
    labels = {str(label): label for label in striation_labels(field)}
    if unknown := [key for key in payload["signs"] if key not in labels]:
        raise MalformedInput(f"net JSON striation key {unknown[0]!r} is not one of "
                             f"{', '.join(labels)}")
    net = QuantumNet(field, {labels[key]: eps for key, eps in payload["signs"].items()})
    mode = payload.get("mode", "independent")
    if mode != "independent" and (mode != "covariant"
                                  or _covariant_signs(field, net.signs) != net.signs):
        raise MalformedInput('net JSON "mode" must be "independent", or "covariant" with the '
                             f"diagonal signs derived from the h, v and 0 signs; got {mode!r}")
    if "f" in payload and payload["f"] != net._f_json():
        raise MalformedInput('net JSON "f" table disagrees with its signs')
    return net


def all_plus_signs(field: GF2Field) -> dict:
    return {label: (1,) * field.n for label in striation_labels(field)}


def _covariant_signs(field: GF2Field, signs: dict) -> dict:
    """Checked signs with every diagonal ray's but 0's derived by the squeezing
    covariance P(lambda - 2) = U_w P(lambda) U_w^dagger: ray lambda's
    generators, pushed through U_w on labels, fix its image with the same
    signs eps_k; pushed generator k has q = w^(k+1), so the image's generator
    j is at w^(j-1).  At n = 1 ray 0 is the only diagonal ray."""
    base, order = dict(signs), field.order
    coords = [field.pow_omega(j - 1) for j in range(field.n)]
    lam = 0
    for _ in range(order - 1):
        pushed = [conjugate_by_u_omega(field, g) for g in ray_generators(field, lam)]
        image = StabilizerGroup(field, pushed, base[lam])
        lam = (lam - 2) % order
        base[lam] = tuple(map(image.at, coords))
    return base


def build_net(field: GF2Field, mode: str = "independent", signs: dict | None = None) -> QuantumNet:
    """Build a quantum net.

    independent: one sign vector per striation (missing entries default to
    all +1).  covariant: sign vectors for h, v and lambda = 0 only, the
    other diagonal rays' derived from them (_covariant_signs).  Any other
    mode or label, or a vector that is not n signs, raises MalformedInput.
    """
    if mode not in ("independent", "covariant"):
        raise MalformedInput(f'net mode must be "independent" or "covariant", got {mode!r}')
    signs = signs or {}
    if mode == "covariant" and set(signs) - {HORIZONTAL, VERTICAL, 0}:
        raise MalformedInput("a covariant net takes sign vectors for h, v and 0 "
                             f"only; got {', '.join(map(str, signs))}")
    signs = _checked_signs(field, {**all_plus_signs(field), **signs})
    return QuantumNet(field, _covariant_signs(field, signs) if mode == "covariant" else signs)


# -- MUB states ----------------------------------------------------------------


def line_displacement(field: GF2Field, line: Line) -> PhasePoint:
    """Lexicographically smallest d with a d_q + b d_p = c (maps ray to line):
    0 prints first and d_p = c / b is unique, so d = (0, c / b), or (c, 0)
    when b = 0 (a = 1 on a normalised line)."""
    if line.b:
        return PhasePoint(0, field.mul(line.c, field.inv(line.b)))
    return PhasePoint(line.c, 0)


def line_state(net: QuantumNet, line: Line) -> tuple[complex, ...]:
    """State assigned to a line: the translated ray state, phase-fixed; row
    0 of its striation's basis when c = 0, else row 1 + log c.  A line must
    be in the normalised form that striation() gives, with a, b and c field
    elements; any other raises MalformedInput."""
    field = net.field
    if isinstance(line, Line) and all(0 <= k < field.N for k in (line.a, line.b, line.c)):
        label = label_of_line(field, line)
        if (line.a, line.b) == _direction(field, label):
            return net.basis(label)[1 + field.log(line.c) if line.c else 0]
    raise MalformedInput(f"{line} is not a normalised line of the n = {field.n} grid")


def mub_bases(net: QuantumNet) -> dict:
    """The N + 1 bases: striation label -> net.basis(label), N rows whose
    row i is line i's state (line order: ray first)."""
    return {label: net.basis(label) for label in striation_labels(net.field)}


@cache
def _parities(n: int) -> tuple[tuple[int, ...], ...]:
    """parity(m & k) for k = 0..N-1, one tuple per mask m."""
    return tuple(tuple((m & k).bit_count() & 1 for k in range(1 << n)) for m in range(1 << n))


def mub_overlap_report(bases: dict) -> dict:
    """Worst deviations from orthonormality within each basis and from
    |<u|v>|^2 = 1/N across bases, measured on the ray states (row 0 of each
    basis) and the translation law, not on each emitted row (verify's
    line_projectors checks those).  Off the vertical, a basis is the
    Z-translates of its ray state u: two give the N values |WHT(conj(u) v)|^2,
    and its Gram matrix is WHT(|u|^2).  The vertical ray state w is a |y>: its
    overlaps are |u_k|^2 |w_y|^2, its X-translates' Gram WHT(|WHT(w)|^2 / N)."""
    rays = {label: list(map(complex, rows[0])) for label, rows in bases.items()}
    w = rays.pop(VERTICAL)
    N, top = len(w), max(map(abs, w)) ** 2
    gram = max(max(abs(s[0] - 1), *map(abs, s[1:])) for s in map(walsh_hadamard, [
        [abs(z) ** 2 / N for z in walsh_hadamard(w)],
        *([abs(z) ** 2 for z in u] for u in rays.values())]))
    cross = max(abs(abs(z) ** 2 * top - 1 / N) for u in rays.values() for z in u)
    for u, v in combinations(rays.values(), 2):
        s = list(map(abs, walsh_hadamard(map(complex.__mul__, map(complex.conjugate, u), v))))
        cross = max(cross, max(s) ** 2 - 1 / N, 1 / N - min(s) ** 2)
    return {"max_gram_deviation": gram, "max_cross_overlap_deviation": cross}
