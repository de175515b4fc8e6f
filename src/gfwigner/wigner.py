"""Discrete Wigner functions on the GF(2^n) phase space.

Two routes are provided and cross-checked in the tests:

* a dense route: phase-space point operators A(alpha) built from a quantum
  net, with W(alpha) = Tr(rho A(alpha)) / reconstruction / expectation values
  computed with numpy;
* an exact route for stabilizer states: the closed form
  W(alpha) = N^-2 sum_{beta in S} f(beta) g(beta) (-1)^<alpha,beta>.
  The sum over S for all N^2 points at once is one integer symplectic
  Walsh-Hadamard transform, O(N^2 log N), with one denominator N^2, so the
  grid stays rational; a GHZ grid at n = 8 takes well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np

from .errors import (
    DimensionTooLarge,
    FieldMismatch,
    InconsistentStabilizer,
    InvalidDensityMatrix,
    NonCommutingGenerators,
)
from .galois import GF2Field
from .net import QuantumNet, basis_index
from .pauli import (
    DENSE_MAX_QUBITS,
    PauliTranslation,
    commutes,
    compose,
    to_matrix,
    translation,
    translation_for,
)
from .phasespace import BinaryPoint, axis_index, grid_axis, wedge

ATOL = 1e-10

GRID_MAX_QUBITS = 8


def all_points(field: GF2Field):
    """Iterate over all N^2 binary phase-space points."""
    for qbits in range(field.N):
        for pbits in range(field.N):
            yield BinaryPoint(qbits, pbits, field.n)


def check_density_matrix(rho: np.ndarray, n: int, atol: float = 1e-8) -> np.ndarray:
    """Validate shape, hermiticity, unit trace and positivity."""
    N = 1 << n
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (N, N):
        raise InvalidDensityMatrix(f"expected shape ({N}, {N}), got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=atol):
        raise InvalidDensityMatrix("matrix is not hermitian")
    if abs(np.trace(rho) - 1) > atol:
        raise InvalidDensityMatrix("trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise InvalidDensityMatrix("matrix has a negative eigenvalue")
    return rho


def state_density(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


@dataclass
class WignerGrid:
    """Wigner values on the N x N grid, keyed by binary coordinates.

    exact=True marks grids whose values are Fractions (stabilizer route);
    dense grids hold floats.
    """

    field: GF2Field
    values: dict
    exact: bool = False

    def value(self, point: BinaryPoint):
        return self.values[(point.qbits, point.pbits)]

    def total(self):
        return sum(self.values.values())

    def as_array(self) -> np.ndarray:
        """Array indexed [q_axis][p_axis] with axis order 0, 1, w, w^2, ..."""
        field = self.field
        out = np.zeros((field.N, field.N))
        for (qb, pb), val in self.values.items():
            q, p = qb, field.bits_to_p(pb)
            out[axis_index(field, q), axis_index(field, p)] = float(val)
        return out

    def line_sum(self, line) -> float:
        from .phasespace import to_binary

        total = 0
        for pt in line.points(self.field):
            bp = to_binary(self.field, pt)
            total += self.values[(bp.qbits, bp.pbits)]
        return total


# -- dense route ----------------------------------------------------------------


def point_operator(net: QuantumNet, alpha: BinaryPoint) -> np.ndarray:
    """A(alpha) = T_alpha A(0) T_alpha^dagger."""
    A0 = net.a0_matrix()
    if alpha.is_origin:
        return A0
    T = to_matrix(translation_for(alpha))
    return T @ A0 @ T.conj().T


def point_operator_sum(net: QuantumNet, alpha: BinaryPoint) -> np.ndarray:
    """Independent route: A(alpha) = N^-2 sum_beta f(beta) (-1)^<alpha,beta> T_beta."""
    field = net.field
    N = field.N
    A = np.zeros((N, N), dtype=complex)
    for beta in all_points(field):
        sign = net.f(beta) * (-1) ** wedge(alpha, beta)
        A += sign * to_matrix(translation_for(beta))
    return A / (N * N)


def wigner_of(net: QuantumNet, rho: np.ndarray) -> WignerGrid:
    """W(alpha) = Tr(rho A(alpha)) for every phase-space point."""
    field = net.field
    rho = check_density_matrix(rho, field.n)
    values = {}
    for alpha in all_points(field):
        w = np.trace(rho @ point_operator(net, alpha))
        if abs(w.imag) > 1e-8:
            raise InvalidDensityMatrix(f"complex Wigner value {w} at {alpha}")
        values[(alpha.qbits, alpha.pbits)] = float(w.real)
    return WignerGrid(field, values)


def reconstruct(net: QuantumNet, grid: WignerGrid) -> np.ndarray:
    """rho = N sum_alpha W(alpha) A(alpha)."""
    field = net.field
    if grid.field != field:
        raise FieldMismatch("grid and net use different fields")
    N = field.N
    rho = np.zeros((N, N), dtype=complex)
    for (qb, pb), w in grid.values.items():
        rho += float(w) * point_operator(net, BinaryPoint(qb, pb, field.n))
    return N * rho


def expectation_translation(net: QuantumNet, grid: WignerGrid, beta: BinaryPoint):
    """<T_beta> = f(beta) sum_alpha W(alpha) (-1)^<alpha,beta>."""
    field = net.field
    total = 0
    for (qb, pb), w in grid.values.items():
        total += w * (-1) ** wedge(BinaryPoint(qb, pb, field.n), beta)
    return net.f(beta) * total


def translation_from_points(net: QuantumNet, beta: BinaryPoint) -> np.ndarray:
    """T_beta = f(beta) sum_alpha A(alpha) (-1)^<alpha,beta> (dense check)."""
    field = net.field
    N = field.N
    T = np.zeros((N, N), dtype=complex)
    for alpha in all_points(field):
        T += point_operator(net, alpha) * (-1) ** wedge(alpha, beta)
    return net.f(beta) * T


def _symplectic_transform(v: np.ndarray, n: int) -> np.ndarray:
    """H[alpha] = sum_beta v[beta] (-1)^<alpha,beta> over all N^2 points.

    Arrays are flat and indexed by (qbits << n) | pbits.  Swapping the q and
    p halves of beta's index turns the symplectic form into a plain dot
    product, so H is one fast Walsh-Hadamard transform of the swapped vector.
    Integer arrays (int64, or object arrays of Python ints) give exact sums.
    """
    N = 1 << n
    x = v.reshape(N, N).T.reshape(-1)
    h = 1
    while h < x.size:
        pairs = x.reshape(-1, 2, h)
        x = np.stack(
            (pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1
        ).reshape(-1)
        h *= 2
    return x


def purity_identity_residual(net: QuantumNet, grid: WignerGrid) -> float | Fraction:
    """Max residual of |sum_a W(a)(-1)^<a,b>|^2 = N sum_a W(a)W(a+b) over b.

    Zero (up to rounding) iff the grid is the Wigner function of a pure state.
    Every hat W(b) is one symplectic transform of W, and every
    autocorrelation sum_a W(a)W(a+b) is the transform of hat W^2 over N^2.
    An exact grid is scaled to integer numerators over a common denominator
    D and gives an exact Fraction; a dense grid gives a float.
    """
    field = grid.field
    n, N = field.n, field.N
    vals = [grid.values[(qb, pb)] for qb in range(N) for pb in range(N)]
    if grid.exact:
        # Python ints, not int64: numerators over an arbitrary common
        # denominator D can overflow 64 bits once squared and summed.
        D = lcm(*(w.denominator for w in vals))
        nums = [w.numerator * (D // w.denominator) for w in vals]
        hat = _symplectic_transform(np.array(nums, dtype=object), n)
        sq = hat * hat
        resid = np.abs(sq - N * (_symplectic_transform(sq, n) // (N * N)))
        return Fraction(int(resid.max()), D * D)
    hat = _symplectic_transform(np.array(vals, dtype=float), n)
    sq = hat * hat
    resid = np.abs(sq - N * _symplectic_transform(sq, n) / (N * N))
    return float(resid.max())


# -- exact stabilizer route ------------------------------------------------------


@dataclass(frozen=True)
class StabilizerElement:
    point: BinaryPoint
    sign: int  # g(beta): the group element is g(beta) T_beta


class StabilizerGroup:
    """A maximal stabilizer group: 2^n commuting signed translations.

    Elements are stored as (point, sign) with sign g(beta) = +-1 such that
    g(beta) T_beta stabilizes the (unique) joint +1 eigenstate.
    """

    def __init__(self, field: GF2Field, elements: dict):
        self.field = field
        self.elements = elements  # (qbits, pbits) -> sign

    @classmethod
    def from_generators(cls, field: GF2Field, gens: list[tuple[PauliTranslation, int]]):
        """Expand n signed generators into the full group.

        Each generator is (T, sign) meaning sign * T is a stabilizer.  Raises
        if a sign is not +1 or -1, if generators do not commute, are
        dependent, or -I lands in the group.
        """
        n = field.n
        if len(gens) != n:
            raise InconsistentStabilizer(f"need {n} generators, got {len(gens)}")
        for g, sg in gens:
            if isinstance(sg, bool) or sg not in (1, -1):
                raise InconsistentStabilizer(
                    f"sign of {g} must be +1 or -1, got {sg!r}"
                )
        for (g, _), (h, _) in combinations(gens, 2):
            if not commutes(g, h):
                raise NonCommutingGenerators(f"{g} and {h} do not commute")
        elements = {(0, 0): 1}
        for g, sg in gens:
            if g.a == 0 and g.b == 0:
                raise InconsistentStabilizer(f"identity generator {g}")
            t = g.phase_vs_canonical
            if t % 2:
                raise InconsistentStabilizer(f"non-hermitian generator {g}")
            sg = int(sg) * (1 if t == 0 else -1)  # sign relative to canonical T
            new = {}
            for (qb, pb), sign in elements.items():
                prod = compose(translation(n, qb, pb), translation(n, g.a, g.b))
                key = (prod.a, prod.b)
                if key in elements or key in new:
                    raise InconsistentStabilizer("generators are dependent")
                t = prod.phase_vs_canonical
                if t % 2:
                    raise InconsistentStabilizer("group member has an odd phase")
                new[key] = sign * sg * (1 if t == 0 else -1)
            elements.update(new)
        return cls(field, elements)

    def g(self, beta: BinaryPoint) -> int:
        return self.elements[(beta.qbits, beta.pbits)]

    def points(self):
        n = self.field.n
        return [BinaryPoint(qb, pb, n) for (qb, pb) in self.elements]

    def projector(self) -> np.ndarray:
        """Dense rank-one projector sum of the group (small n only)."""
        n = self.field.n
        if n > DENSE_MAX_QUBITS:
            raise DimensionTooLarge(f"dense projectors capped at {DENSE_MAX_QUBITS}")
        N = 1 << n
        P = np.zeros((N, N), dtype=complex)
        for (qb, pb), sign in self.elements.items():
            P += sign * to_matrix(translation(n, qb, pb))
        return P / N


def stabilizer_wigner_value(
    net: QuantumNet, group: StabilizerGroup, alpha: BinaryPoint
) -> Fraction:
    """Exact W(alpha) = N^-2 sum_{beta in S} f(beta) g(beta) (-1)^<alpha,beta>."""
    field = net.field
    if group.field != field:
        raise FieldMismatch("group and net use different fields")
    total = 0
    for beta in group.points():
        total += net.f(beta) * group.g(beta) * (-1) ** wedge(alpha, beta)
    return Fraction(total, field.N * field.N)


def stabilizer_wigner(net: QuantumNet, group: StabilizerGroup) -> WignerGrid:
    """Exact Wigner grid of a stabilizer state (grid size caps at 2^8 axes).

    One integer symplectic transform of f(beta) g(beta) on S gives the
    numerators of all N^2 values over the common denominator N^2.
    """
    field = net.field
    if group.field != field:
        raise FieldMismatch("group and net use different fields")
    if field.n > GRID_MAX_QUBITS:
        raise DimensionTooLarge(
            f"full grids capped at {GRID_MAX_QUBITS} qubits; "
            "use stabilizer_wigner_value for single points"
        )
    n, N = field.n, field.N
    v = np.zeros(N * N, dtype=np.int64)
    for beta in group.points():
        v[(beta.qbits << n) | beta.pbits] = net.f(beta) * group.g(beta)
    nums = _symplectic_transform(v, n).tolist()
    frac = {k: Fraction(k, N * N) for k in set(nums)}  # at most 2N + 1 values
    values = {
        (qb, pb): frac[nums[(qb << n) | pb]] for qb in range(N) for pb in range(N)
    }
    return WignerGrid(field, values, exact=True)


def all_stabilizer_groups(field: GF2Field) -> list[frozenset]:
    """All maximal isotropic subspaces of the phase space, as frozensets of
    (qbits, pbits) pairs.  Brute force; intended for small n."""
    n, N = field.n, field.N
    nonzero = [
        BinaryPoint(qb, pb, n)
        for qb in range(N)
        for pb in range(N)
        if qb or pb
    ]
    found = set()
    for combo in combinations(nonzero, n):
        if any(
            wedge(a, b)
            for a, b in combinations(combo, 2)
        ):
            continue
        span = {(0, 0)}
        for pt in combo:
            span |= {(qb ^ pt.qbits, pb ^ pt.pbits) for (qb, pb) in span}
        if len(span) == N:
            found.add(frozenset(span))
    return sorted(found, key=sorted)
