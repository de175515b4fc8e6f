"""Quantum nets: ray generators, ray states, the squeezing circuit U_w,
covariant net construction, the sign function f, and MUB generation.

A net is encoded by one sign vector per striation: the ray of striation
lambda is assigned the joint eigenstate of its n generators G_k with
eigenvalues eps_k.  Everything else (line states, the f table, phase-space
point operators) follows from translation covariance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionTooLarge,
    MalformedInput,
    NonCommutingGenerators,
    SingularBasis,
)
from .galois import GF2Field, field_new
from .pauli import (
    DENSE_MAX_QUBITS,
    PauliTranslation,
    class_points,
    commutes,
    compose,
    to_matrix,
    translation,
    translation_for,
)
from .phasespace import (
    BinaryPoint,
    HORIZONTAL,
    Line,
    PhasePoint,
    Striation,
    VERTICAL,
    all_striations,
    from_binary,
    ray_through,
    striation_labels,
    to_binary,
)

ATOL = 1e-10


def basis_index(bits: int, n: int) -> int:
    """Computational-basis index of |bits>: qubit 0 is the leftmost factor."""
    return sum(((bits >> i) & 1) << (n - 1 - i) for i in range(n))


def index_bits(idx: int, n: int) -> int:
    return sum(((idx >> (n - 1 - i)) & 1) << i for i in range(n))


@dataclass(frozen=True)
class RayGenerators:
    striation_label: object
    gens: tuple[PauliTranslation, ...]


def ray_generators(field: GF2Field, label) -> RayGenerators:
    """The n generators of the commuting class of one ray.

    For the diagonal ray lambda = j these are T(1 M^k, 1 M~^(k+j)); the
    horizontal and vertical rays use pure X and pure Z strings.
    """
    n = field.n
    gens = []
    a, b = 1, 1
    if label == HORIZONTAL:
        for _ in range(n):
            gens.append(translation(n, a, 0))
            a = field.apply_m(a)
    elif label == VERTICAL:
        for _ in range(n):
            gens.append(translation(n, 0, b))
            b = field.apply_mt(b)
    else:
        for _ in range(int(label)):
            b = field.apply_mt(b)
        for _ in range(n):
            gens.append(translation(n, a, b))
            a, b = field.apply_m(a), field.apply_mt(b)
    return RayGenerators(label, tuple(gens))


# -- squeezing operator -------------------------------------------------------


def u_omega_gates(field: GF2Field) -> list[tuple[str, int, int]]:
    """Gate list for U_w in application order (first gate acts first).

    The circuit realizes the classical map bits -> bits . M on computational
    basis labels: a cyclic shift of the qubits followed by CNOTs from qubit 0
    controlled by the polynomial coefficients.
    """
    n = field.n
    gates = [("swap", 0, j) for j in range(1, n)]
    gates += [("cnot", 0, j) for j in range(1, n) if field.poly >> j & 1]
    return gates


def u_omega_matrix(field: GF2Field) -> np.ndarray:
    """Dense U_w as the basis permutation |bits> -> |bits . M>."""
    n = field.n
    if n > DENSE_MAX_QUBITS:
        raise DimensionTooLarge(f"dense U_w capped at {DENSE_MAX_QUBITS} qubits")
    N = 1 << n
    U = np.zeros((N, N), dtype=complex)
    for bits in range(N):
        U[basis_index(field.apply_m(bits), n), basis_index(bits, n)] = 1
    return U


def gate_matrix(gate: tuple[str, int, int], n: int) -> np.ndarray:
    """Dense matrix of a single swap/cnot gate on n qubits."""
    name, i, j = gate
    N = 1 << n
    G = np.zeros((N, N), dtype=complex)
    for bits in range(N):
        xi, xj = bits >> i & 1, bits >> j & 1
        if name == "swap":
            out = bits & ~((1 << i) | (1 << j)) | (xj << i) | (xi << j)
        elif name == "cnot":
            out = bits ^ (xi << j)
        else:
            raise ValueError(f"unknown gate {name!r}")
        G[basis_index(out, n), basis_index(bits, n)] = 1
    return G


def u_omega_from_gates(field: GF2Field) -> np.ndarray:
    U = np.eye(1 << field.n, dtype=complex)
    for gate in u_omega_gates(field):
        U = gate_matrix(gate, field.n) @ U
    return U


# -- linear algebra over GF(2) for generator decomposition --------------------


def _decompose(points: list[tuple[int, int]], target: tuple[int, int], n: int) -> int:
    """Solve sum_k x_k (a_k, b_k) = target over GF(2); returns the mask x."""
    rhs = target[0] | (target[1] << n)
    basis = {}  # lowest set bit -> (reduced column, combination mask)
    for k, (a, b) in enumerate(points):
        col, mask = a | (b << n), 1 << k
        while col:
            low = col & -col
            if low not in basis:
                basis[low] = (col, mask)
                break
            col ^= basis[low][0]
            mask ^= basis[low][1]
    sol, r = 0, rhs
    while r:
        low = r & -r
        if low not in basis:
            raise SingularBasis("target not in the span of the generators")
        r ^= basis[low][0]
        sol ^= basis[low][1]
    return sol


# -- the quantum net -----------------------------------------------------------


class QuantumNet:
    """Line-to-state assignment, encoded by per-striation sign vectors.

    The derived sign function f maps every nonzero phase-space point beta to
    the eigenvalue of T_beta on the state assigned to the ray through beta.
    f is computed exactly from the sign vectors by decomposing T_beta over
    the ray generators, so it works symbolically at any supported n.
    """

    def __init__(self, field: GF2Field, signs: dict, mode: str = "independent"):
        self.field = field
        self.mode = mode
        self.signs = {label: tuple(signs[label]) for label in striation_labels(field)}
        for label, eps in self.signs.items():
            if len(eps) != field.n or set(eps) - {1, -1}:
                raise ValueError(f"bad sign vector for striation {label}: {eps}")
        self._f_cache = {}
        self._proj_cache = {}
        self._a0 = None

    # -- ray data ----------------------------------------------------------

    def generators(self, label) -> RayGenerators:
        return ray_generators(self.field, label)

    def ray_projector(self, label) -> np.ndarray:
        if label not in self._proj_cache:
            gens = self.generators(label)
            self._proj_cache[label] = ray_projector(gens, self.signs[label])
        return self._proj_cache[label]

    def ray_state(self, label) -> np.ndarray:
        return projector_to_state(self.ray_projector(label))

    # -- the sign function f -------------------------------------------------

    def f(self, beta: BinaryPoint) -> int:
        """Eigenvalue of T_beta on the state of the ray through beta (+-1)."""
        if beta.is_origin:
            return 1
        key = (beta.qbits, beta.pbits)
        if key not in self._f_cache:
            self._f_cache[key] = self._f_exact(beta)
        return self._f_cache[key]

    def _f_exact(self, beta: BinaryPoint) -> int:
        field = self.field
        label = ray_through(field, from_binary(field, beta))
        gens = self.generators(label).gens
        points = [(g.a, g.b) for g in gens]
        x = _decompose(points, (beta.qbits, beta.pbits), field.n)
        prod = PauliTranslation(field.n, 0, 0, 0)
        sign = 1
        for k, g in enumerate(gens):
            if x >> k & 1:
                prod = compose(prod, g)
                sign *= self.signs[label][k]
        # prod = i^t T_beta with t in {0, 2}; the state's T_beta eigenvalue
        # is the generator sign product corrected by that phase.
        t = prod.phase_vs_canonical
        if t % 2:
            raise NonCommutingGenerators("ray member product has an odd phase")
        return sign * (1 if t == 0 else -1)

    def f_table(self) -> dict[tuple[int, int], int]:
        """f on every nonzero point; exact +-1 integers."""
        field = self.field
        out = {}
        for qbits in range(field.N):
            for pbits in range(field.N):
                if qbits or pbits:
                    out[(qbits, pbits)] = self.f(BinaryPoint(qbits, pbits, field.n))
        return out

    # -- phase-space point operators -----------------------------------------

    def a0_matrix(self) -> np.ndarray:
        if self._a0 is None:
            N = self.field.N
            total = sum(self.ray_projector(lb) for lb in striation_labels(self.field))
            self._a0 = (total - np.eye(N)) / N
        return self._a0

    def fingerprint(self) -> str:
        parts = [f"{label}:{''.join('+' if s > 0 else '-' for s in eps)}"
                 for label, eps in self.signs.items()]
        return f"n={self.field.n};poly={self.field.poly:#x};" + ",".join(parts)

    def to_json(self) -> str:
        field = self.field
        payload = {
            "n": field.n,
            "poly": field.bits_str(field.poly & (field.N - 1)) + "1",
            "mode": self.mode,
            "signs": {str(k): list(v) for k, v in self.signs.items()},
            "f": {
                f"{field.bits_str(q)},{field.bits_str(p)}": v
                for (q, p), v in sorted(self.f_table().items())
            },
        }
        return json.dumps(payload, indent=2)


def net_from_json(text: str) -> QuantumNet:
    payload = json.loads(text)
    if not (
        isinstance(payload, dict)
        and {"n", "poly", "signs"} <= payload.keys()
        and isinstance(payload["signs"], dict)
    ):
        raise MalformedInput('net JSON needs "n", "poly" and a "signs" object')
    n = payload["n"]
    poly = int(payload["poly"][::-1], 2)
    field = field_new(n, poly)
    signs = {}
    for key, eps in payload["signs"].items():
        label = key if key in (HORIZONTAL, VERTICAL) else int(key)
        signs[label] = tuple(eps)
    labels = striation_labels(field)
    if set(signs) != set(labels):
        raise MalformedInput(
            f"net JSON needs one sign vector per striation "
            f"{', '.join(map(str, labels))}; got {', '.join(map(str, signs))}"
        )
    return QuantumNet(field, signs, payload.get("mode", "independent"))


def ray_projector(gens: RayGenerators, signs) -> np.ndarray:
    """P = 2^-n prod_k (I + eps_k G_k); rank-one by construction."""
    n = gens.gens[0].n
    if n > DENSE_MAX_QUBITS:
        raise DimensionTooLarge(f"dense projectors capped at {DENSE_MAX_QUBITS} qubits")
    for i, g in enumerate(gens.gens):
        for h in gens.gens[i + 1:]:
            if not commutes(g, h):
                raise NonCommutingGenerators(f"{g} and {h} do not commute")
    P = np.eye(1 << n, dtype=complex)
    for eps, g in zip(signs, gens.gens):
        P = P @ (np.eye(1 << n) + eps * to_matrix(g)) / 2
    return P


def projector_to_state(P: np.ndarray, atol: float = ATOL) -> np.ndarray:
    """Unit vector spanning a rank-one projector, first nonzero entry made
    real positive."""
    col = int(np.argmax(np.abs(np.diag(P))))
    v = P[:, col]
    norm = np.linalg.norm(v)
    if norm < atol:
        raise SingularBasis("projector is numerically zero")
    v = v / norm
    return fix_phase(v, atol)


def fix_phase(v: np.ndarray, atol: float = ATOL) -> np.ndarray:
    idx = int(np.argmax(np.abs(v) > atol))
    return v * (abs(v[idx]) / v[idx])


def all_plus_signs(field: GF2Field) -> dict:
    return {label: (1,) * field.n for label in striation_labels(field)}


def build_net(field: GF2Field, mode: str = "independent", signs: dict | None = None) -> QuantumNet:
    """Build a quantum net.

    independent: one sign vector per striation (missing entries default to
    all +1).  covariant: sign vectors for h, v and lambda = 0 are taken as
    given; the remaining diagonal rays are derived from the squeezing
    covariance P(u_w lambda) = U_w P(lambda) U_w^dagger.
    """
    base = all_plus_signs(field)
    if signs:
        base.update({k: tuple(v) for k, v in signs.items()})
    if mode == "independent":
        return QuantumNet(field, base, mode)
    if mode != "covariant":
        raise ValueError(f"mode must be 'independent' or 'covariant', got {mode!r}")
    if field.n > DENSE_MAX_QUBITS:
        raise DimensionTooLarge("covariant construction needs dense matrices")
    U = u_omega_matrix(field)
    order = field.order
    lam = 0
    P = ray_projector(ray_generators(field, 0), base[0])
    for _ in range(order - 1):
        nxt = (lam - 2) % order
        P = U @ P @ U.conj().T
        gens = ray_generators(field, nxt)
        eps = []
        for g in gens.gens:
            val = float(np.trace(to_matrix(g) @ P).real)
            if abs(abs(val) - 1) > ATOL:
                raise NonCommutingGenerators(
                    f"derived ray {nxt} state is not a generator eigenstate"
                )
            eps.append(1 if val > 0 else -1)
        base[nxt] = tuple(eps)
        lam = nxt
    return QuantumNet(field, base, "covariant")


# -- MUB states ----------------------------------------------------------------


@dataclass(frozen=True)
class MubState:
    striation_label: object
    line: Line
    vector: np.ndarray


@lru_cache(maxsize=None)
def _lex_order(field: GF2Field) -> tuple[int, ...]:
    """Field elements sorted by their printed bit string (bit 0 first)."""
    return tuple(sorted(field.elements(), key=field.bits_str))


def line_displacement(field: GF2Field, line: Line) -> PhasePoint:
    """Lexicographically smallest d with a d_q + b d_p = c (maps ray to line)."""
    for dq in _lex_order(field):
        for dp in _lex_order(field):
            if field.mul(line.a, dq) ^ field.mul(line.b, dp) == line.c:
                return PhasePoint(dq, dp)
    raise SingularBasis("no displacement reaches the line")  # unreachable


def line_state(net: QuantumNet, line: Line) -> np.ndarray:
    """State assigned to a line: the translated ray state, phase-fixed."""
    from .phasespace import label_of_line

    field = net.field
    label = label_of_line(field, line)
    ray_vec = net.ray_state(label)
    d = line_displacement(field, line)
    if d.q == 0 and d.p == 0:
        return ray_vec
    T = to_matrix(translation_for(to_binary(field, d)))
    return fix_phase(T @ ray_vec)


def mub_states(net: QuantumNet) -> list[MubState]:
    """All N + 1 bases, one per striation, N states each."""
    out = []
    for st in all_striations(net.field):
        for line in st.lines:
            out.append(MubState(st.label, line, line_state(net, line)))
    return out


def mub_bases(net: QuantumNet) -> dict:
    """Striation label -> list of N state vectors (line order: ray first)."""
    bases = {}
    for ms in mub_states(net):
        bases.setdefault(ms.striation_label, []).append(ms.vector)
    return bases
