"""Quantum nets: ray walks and generators, ray states, the squeezing
operator U_w (its gate list, galois.u_omega_gates, is re-exported here),
covariant net construction, the sign function f, and MUB generation.

A net is encoded by one sign vector per striation: the ray of striation
lambda is assigned the joint eigenstate of its n generators G_k with
eigenvalues eps_k, the pauli.StabilizerGroup QuantumNet.ray(lambda).  The
sign function f is the union of the rays' groups: f(beta) is the sign of
T_beta in the group of the ray through beta, and QuantumNet.f_vector walks
the groups once for f at every point.  Everything else (line states,
phase-space point operators) follows from translation covariance.

Covariant nets are derived on the same sign data, for any n <= 16: U_w
permutes translations, U_w T(a, b) U_w^dagger = +-T(a M, b M~^-1).  A net
is only its signs: a net file's "mode" says whether they are covariant.
U_w's matrix is a dense realisation that nets do not need; dense matrices
are built only when a caller asks for them (refused above the dense cap
first): A(0) is one Pauli sum, N^-2 sum_beta f(beta) T_beta over the flat
f vector.  States are tuples of Python complex: a ray state is read off
its group (StabilizerGroup.state), and each striation's N line states, its
mutually unbiased basis, are its entries moved and signed.  numpy and json
load only where they are used.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from itertools import combinations, islice, product
from operator import index
from typing import TYPE_CHECKING

from .errors import MalformedInput
from .galois import GF2Field, read_field_header
from .galois import u_omega_gates  # noqa: F401  (re-exported beside u_omega_matrix)
from .pauli import (
    PauliTranslation,
    StabilizerGroup,
    _basis_order,
    basis_index,
    dense_dim,
    fix_phase,
    pauli_sum,
    walsh_hadamard,
)
from .phasespace import (
    BinaryPoint,
    HORIZONTAL,
    Line,
    PhasePoint,
    VERTICAL,
    from_binary,
    label_of_line,
    need_label,
    ray_through,
    striation,
    striation_labels,
)

if TYPE_CHECKING:
    import numpy as np


def ray_walk(field: GF2Field, label):
    """The (a, b) labels of one striation's class, lazily: from (1, 0) for h,
    (0, 1) for v or (1, 1 M~^lambda) for ray lambda, by steps (a M, b M~).
    The first n points generate the ray; the first N - 1 are the class.
    Point k has q = w^k (p = w^k on v), so a ray's member at generator
    coordinates x has q = x: x is its qbits, or bits_to_p(pbits) on v.
    need_label reads the label on the first step."""
    label = need_label(field, label)
    a, b = ((1, 0) if label == HORIZONTAL else (0, 1) if label == VERTICAL
            else (1, field.p_to_bits(field.pow_omega(label))))
    while True:
        yield a, b
        a, b = field.apply_m(a), field.apply_mt(b)


def ray_generators(field: GF2Field, label) -> tuple[PauliTranslation, ...]:
    """The n generators of one ray's class: the first n points of its walk,
    T(1 M^k, 1 M~^(k+j)) for the diagonal ray j, X strings for h, Z for v:
    each the canonical translation(n, a, b)."""
    points = islice(ray_walk(field, label), field.n)
    return tuple(PauliTranslation(field.n, a, b, (a & b).bit_count()) for a, b in points)


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
    """e is +1 or -1 as an int that is not a bool, read by operator.index
    (errors.int_below's rule): numpy's ints pass, 1.0 and numpy's bools not."""
    try:
        return not isinstance(e, bool) and index(e) in (1, -1)
    except TypeError:
        return False


def _labelled(field: GF2Field, signs) -> dict:
    """signs, a mapping of sign vectors, keyed by need_label; anything else
    raises MalformedInput."""
    if not isinstance(signs, Mapping):
        raise MalformedInput("signs must map striation labels to sign vectors, "
                             f"got {type(signs).__name__}")
    return {need_label(field, label): eps for label, eps in signs.items()}


def _checked_signs(field: GF2Field, signs) -> dict:
    """One tuple of n signs +1 or -1 per striation, in striation order (keys by _labelled)."""
    signs = _labelled(field, signs)
    for label in striation_labels(field):
        eps = signs.get(label)
        if not (isinstance(eps, (list, tuple)) and len(eps) == field.n
                and all(map(_is_sign, eps))):
            raise MalformedInput(f"sign vector for striation {label} must be "
                                 f"{field.n} entries +1 or -1, got {eps!r}")
    return {label: tuple(signs[label]) for label in striation_labels(field)}


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
        field raises MalformedInput (need_label)."""
        label = need_label(self.field, label)
        if label not in self._rays:
            self._rays[label] = StabilizerGroup(
                self.field, ray_generators(self.field, label), self.signs[label])
        return self._rays[label]

    def ray_state(self, label) -> tuple[complex, ...]:
        """The ray's state, read off its group; basis(label) keeps it as row 0."""
        return self.ray(label).state()

    def basis(self, label) -> tuple[tuple[complex, ...], ...]:
        """The striation's N line states as a tuple of rows in line order: the
        ray state v, then line c at row 1 + log c, v moved by T(a, b) for the
        line's displacement (pauli.translate's rule) and phase-fixed.  On the
        vertical v is a |y>, which (c, 0) moves; elsewhere v has no zero entry,
        and (0, c / b) signs it."""
        label = need_label(self.field, label)
        if label not in self._bases:
            field = self.field
            index, v = _basis_order(field.n), self.ray_state(label)
            plus, minus = [(1 + 0j) * z for z in v], [(-1 + 0j) * z for z in v]
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
        (p on v; ray_walk).  need_point (by from_binary) raises MalformedInput
        for a value that is not a point, FieldMismatch for one of another n.
        The label ray_through computes is never a bool, so it reads the ray
        cache without need_label."""
        point = from_binary(self.field, beta)
        if beta.is_origin:
            return 1
        label = ray_through(self.field, point)
        ray = self._rays.get(label) or self.ray(label)
        return ray.at(point.p if label == VERTICAL else point.q)

    def f_vector(self) -> tuple[int, ...]:
        """f at every point (qbits << n) | pbits, exact +-1 integers with
        f(0) = 1: the union of the rays' elements, walked once per net."""
        if self._f_vector is None:
            n = self.field.n
            f = [1] * (1 << 2 * n)
            for label in self.signs:
                for (a, b), sign in self.ray(label).elements.items():
                    f[(a << n) | b] = sign
            self._f_vector = tuple(f)
        return self._f_vector

    def _f_json(self) -> dict[str, int]:
        """f_vector but f(0), keyed by "qbits,pbits", each bits string made once."""
        bits = [self.field.bits_str(x) for x in range(self.field.N)]
        keys = islice(product(bits, repeat=2), 1, None)
        return {f"{q},{p}": f for (q, p), f in zip(keys, self.f_vector()[1:])}

    # -- phase-space point operators -----------------------------------------

    def a0_matrix(self) -> tuple[tuple[complex, ...], ...]:
        """A(0) = N^-2 sum_beta f(beta) T_beta = N^-1 (sum_lambda P_lambda - I),
        as N rows of Python complex (one pauli_sum; np.asarray makes them an
        array), computed once per net; refused above the dense cap."""
        if self._a0 is None:
            dense_dim(self.field.n)
            self._a0 = pauli_sum(self.field.n, [f / self.field.N ** 2 for f in self.f_vector()])
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
                             f"{HORIZONTAL!r}, {VERTICAL!r} and '0' to '{field.order - 1}'")
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
    # the labels read before the defaults: True would land on striation 1
    signs = _labelled(field, {} if signs is None else signs)
    if mode == "covariant" and set(signs) - {HORIZONTAL, VERTICAL, 0}:
        raise MalformedInput("a covariant net takes sign vectors for h, v and 0 "
                             f"only; got {', '.join(map(str, signs))}")
    signs = {**all_plus_signs(field), **signs}
    if mode == "covariant":  # the derivation reads checked signs
        signs = _covariant_signs(field, _checked_signs(field, signs))
    return QuantumNet(field, signs)


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
    elements; any other raises MalformedInput (label_of_line)."""
    field = net.field
    return net.basis(label_of_line(field, line))[1 + field.log(line.c) if line.c else 0]


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
