"""Discrete Wigner functions on the GF(2^n) phase space.

A grid is N^2 values in one flat sequence indexed by (qbits << n) | pbits:
a float64 array for dense grids, integer numerators over grid.den for
exact ones.  Display order is one permutation of it (display_rows, or
display_index as an array); grid.values is a {(qbits, pbits): value} dict
built on request.

Two routes are provided and cross-checked in the tests:

* a dense route: W(alpha) = Tr(rho A(alpha)) with the phase-space point
  operators A(alpha) = T_alpha A(0) T_alpha^dagger built from a quantum net.
  T_alpha is a signed permutation of the basis, so A(alpha) is A(0) with
  its indices moved (r -> r ^ index[qbits]) and signed (sigma_b[r]
  sigma_b[r'], sigma_b[r] = (-1)^popcount(b & index[r])): one gather of
  A(0) per qbits row and one +-1 outer product per point, no matrix
  product.  Each W(alpha) is still the trace of the full BLAS product
  rho @ A(alpha): its summation order fixes the float noise of cells that
  are zero up to rounding, whose sign the exported ascii shading shows, so
  a cheaper trace (or the transform of chi(beta) = Tr(rho T_beta)) waits
  until the exported digests no longer depend on that noise;
* an exact route for stabilizer states: the closed form
  W(alpha) = N^-2 sum_{beta in S} f(beta) g(beta) (-1)^<alpha,beta>.
  f and g are the same kind of sign: f(beta) is the sign of T_beta in the
  group of the net's ray through beta, g(beta) its sign in the state's
  group S, and both groups are pauli.StabilizerGroup.  S is spanned by n
  generators g_k, so with beta(x) = sum_k x_k g_k the sign
  (-1)^<alpha,beta(x)> is (-1)^(x . s(alpha)), s(alpha)_k = <alpha, g_k>
  the syndrome of alpha.  The whole grid is therefore one N-point integer
  Walsh-Hadamard transform of c[x] = f(beta(x)) g(beta(x)), read off at
  each point's syndrome: O(N log N + N^2) in plain Python ints, with one
  denominator N^2, so the grid stays rational and needs no numpy.

The symplectic transform inverts a grid of either kind: with
hat W(beta) = sum_alpha W(alpha) (-1)^<alpha,beta>, <T_beta> is
f(beta) hat W(beta) (exact on exact grids) and
rho = N^-1 sum_beta f(beta) hat W(beta) T_beta, one Pauli sum
(pauli.pauli_sum), as is a stabilizer projector N^-1 sum_{beta in S}
g(beta) T_beta.  A grid caches hat W, so it is not changed after it is
built.

numpy is imported only inside the functions that build arrays, and
fractions only where a Fraction is made, so an exact grid is computed and
exported without either.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from math import lcm
from typing import TYPE_CHECKING

from .errors import DimensionTooLarge, FieldMismatch, InvalidDensityMatrix
from .galois import GF2Field
from .net import QuantumNet
from .pauli import (
    INPUT_ATOL,
    StabilizerGroup,
    _dense_tables,
    pauli_sum,
    translation_for,
    walsh_hadamard,
    walsh_hadamard_list,
)
from .phasespace import BinaryPoint, grid_axis, wedge

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

GRID_MAX_QUBITS = 8


def all_points(field: GF2Field):
    """Iterate over all N^2 binary phase-space points."""
    for qbits in range(field.N):
        for pbits in range(field.N):
            yield BinaryPoint(qbits, pbits, field.n)


def check_density_matrix(rho: np.ndarray, n: int) -> np.ndarray:
    """Validate shape, finiteness, hermiticity, unit trace and positivity (to INPUT_ATOL)."""
    import numpy as np

    N, atol = 1 << n, INPUT_ATOL
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (N, N) or not np.isfinite(rho).all():
        raise InvalidDensityMatrix(f"need finite entries and shape ({N}, {N}), got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, rtol=0, atol=atol):
        raise InvalidDensityMatrix("matrix is not hermitian")
    if abs(np.trace(rho) - 1) > atol:
        raise InvalidDensityMatrix("trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise InvalidDensityMatrix("matrix has a negative eigenvalue")
    return rho


def state_density(vec: np.ndarray) -> np.ndarray:
    import numpy as np

    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def display_rows(field: GF2Field) -> list[list[int]]:
    """Flat grid indices (qbits << n) | pbits as a grid is printed: rows are
    p descending, columns q ascending, both along axis = grid_axis(field)."""
    axis = grid_axis(field)
    return [[(q << field.n) | pb for q in axis]
            for pb in map(field.p_to_bits, reversed(axis))]


def display_index(field: GF2Field) -> np.ndarray:
    """Flat grid indices (qbits << n) | pbits in display order: entry [i, j]
    is the point with q = axis[i] and p = axis[j], axis = grid_axis(field)."""
    import numpy as np

    return np.array(display_rows(field))[::-1].T


def symmetry_orbits(group: StabilizerGroup, cells) -> list[list[int]]:
    """The orbit of each flat index i in cells under translation by the
    group's members: i ^ ((a << n) | b) for every (a, b) in the group.

    Point operators are translation covariant, A(alpha + beta) =
    T_beta A(alpha) T_beta^dagger, and T_beta rho T_beta^dagger = rho for
    every member beta of a state's stabilizer group, so on every net the
    state's Wigner function is constant on each orbit.
    """
    n = group.field.n
    shifts = [(a << n) | b for a, b in group.elements]
    return [[i ^ s for s in shifts] for i in cells]


def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den), importing fractions (and decimal) on first use."""
    from fractions import Fraction

    return Fraction(num, den)


class WignerGrid:
    """Wigner values on the N x N grid: flat[(qbits << n) | pbits].

    A dense grid holds a float64 array (den None); an exact grid, integer
    numerators over den (N^2 on the stabilizer route), making a Fraction only
    for a value asked for.  A grid is not changed after it is built: its
    transform hat is computed once and cached.
    """

    def __init__(self, field: GF2Field, flat: tuple[int, ...] | np.ndarray,
                 den: int | None = None):
        self.field = field
        self.flat = flat
        self.den = den
        self.exact = den is not None

    @classmethod
    def from_rationals(cls, field: GF2Field, values) -> WignerGrid:
        """The exact grid of rational values (Fractions or ints) by flat
        index, over their least common denominator."""
        den = lcm(*(v.denominator for v in values))
        return cls(field, tuple(v.numerator * (den // v.denominator) for v in values), den)

    def _at(self, i: int):
        """The value at flat index i: a Fraction, or a Python float."""
        return _fraction(self.flat[i], self.den) if self.exact else self.flat.item(i)

    @property
    def values(self) -> dict:
        """A {(qbits, pbits): value} dict, built on each access."""
        N = self.field.N
        return dict(zip(product(range(N), repeat=2), map(self._at, range(N * N))))

    def value(self, point: BinaryPoint):
        return self._at((point.qbits << self.field.n) | point.pbits)

    @cached_property
    def hat(self) -> tuple[np.ndarray, int]:
        """hat W = the symplectic transform of the grid, over a denominator D:
        an exact grid's numerators over den as Python ints (squared and
        summed, they can pass 64 bits), or a dense grid's floats over 1."""
        if not self.exact:
            return _symplectic_transform(self.flat, self.field.n), 1
        import numpy as np

        return _symplectic_transform(np.array(self.flat, dtype=object), self.field.n), self.den

    def as_array(self) -> np.ndarray:
        """Array indexed [q_axis][p_axis] with axis order 0, 1, w, w^2, ..."""
        import numpy as np

        flat = [k / self.den for k in self.flat] if self.exact else self.flat
        return np.asarray(flat, dtype=float)[display_index(self.field)]

    def line_sum(self, line) -> float:
        field, total = self.field, 0
        for pt in line.points(field):
            total += self._at((pt.q << field.n) | field.p_to_bits(pt.p))
        return total


# -- dense route ----------------------------------------------------------------


def _row_operators(net: QuantumNet, qbits: int, pbits=None):
    """A(alpha) for the points alpha = (qbits, b), b in pbits (default all N,
    in order), one at a time.

    T(a, b) is the signed permutation r -> r ^ index[a] with signs
    sigma_b[r] = (-1)^popcount(b & index[r]) (and a phase i^(a.b) that
    cancels between T and T^dagger), r the basis index.  So
    A(alpha)[r, r'] = sigma_b[r] sigma_b[r'] A(0)[r ^ index[a], r' ^ index[a]]:
    one gather of A(0) per row, one real +-1 outer product per point.  The
    values are those of T A(0) T^dagger exactly, up to the sign of zeros.
    """
    import numpy as np

    x, index, popcount = _dense_tables(net.field.n)
    moved = x ^ index[qbits]
    A = net.a0_matrix()[np.ix_(moved, moved)]
    for b in x if pbits is None else pbits:
        sigma = 1 - 2 * (popcount[b & index] & 1)
        yield A * np.outer(sigma, sigma)


def point_operator(net: QuantumNet, alpha: BinaryPoint) -> np.ndarray:
    """A(alpha) = T_alpha A(0) T_alpha^dagger, as A(0) moved and signed."""
    (A,) = _row_operators(net, alpha.qbits, [alpha.pbits])
    return A


def wigner_of(net: QuantumNet, rho: np.ndarray) -> WignerGrid:
    """W(alpha) = Tr(rho A(alpha)) for every phase-space point.

    Each trace is read off the full product rho @ A(alpha): its BLAS
    summation order fixes the float noise of cells that are zero up to
    rounding, whose signs the exported grids show.
    """
    import numpy as np

    field = net.field
    rho = check_density_matrix(rho, field.n)
    flat = np.empty(field.N * field.N)
    for qbits in range(field.N):
        for pbits, A in enumerate(_row_operators(net, qbits)):
            w = np.trace(rho @ A)
            if abs(w.imag) > INPUT_ATOL:
                alpha = BinaryPoint(qbits, pbits, field.n)
                raise InvalidDensityMatrix(f"complex Wigner value {w} at {alpha}")
            flat[(qbits << field.n) | pbits] = w.real
    return WignerGrid(field, flat)


def reconstruct(net: QuantumNet, grid: WignerGrid) -> np.ndarray:
    """rho = N^-1 sum_beta f(beta) hat W(beta) T_beta, hat W = grid.hat."""
    field = net.field
    if grid.field != field:
        raise FieldMismatch("grid and net use different fields")
    hat, D = grid.hat
    return pauli_sum(field.n, net.f_vector() * (hat / D).astype(float)) / field.N


def expectation_translation(net: QuantumNet, grid: WignerGrid, beta: BinaryPoint):
    """<T_beta> = f(beta) hat W(beta): a Fraction on exact grids."""
    field = net.field
    if grid.field != field or beta.n != field.n:
        raise FieldMismatch("grid, net and point use different fields")
    hat, D = grid.hat
    value = net.f(beta) * hat[(beta.qbits << field.n) | beta.pbits]
    return _fraction(value, D) if grid.exact else float(value)


def _symplectic_transform(v: np.ndarray, n: int) -> np.ndarray:
    """H[alpha] = sum_beta v[beta] (-1)^<alpha,beta> over all N^2 points.

    Arrays are flat and indexed by (qbits << n) | pbits.  Swapping the q and
    p halves of beta's index turns the symplectic form into a plain dot
    product, so H is one fast Walsh-Hadamard transform of the swapped vector.
    Integer arrays (int64, or object arrays of Python ints) give exact sums.
    """
    N = 1 << n
    return walsh_hadamard(v.reshape(N, N).T.reshape(-1))


def purity_identity_residual(net: QuantumNet, grid: WignerGrid) -> float | Fraction:
    """Max residual of |sum_a W(a)(-1)^<a,b>|^2 = N sum_a W(a)W(a+b) over b.

    Zero (up to rounding) iff the grid is the Wigner function of a pure state.
    Every hat W(b) is one symplectic transform of W, and every
    autocorrelation sum_a W(a)W(a+b) is the transform of hat W^2 over N^2.
    An exact grid gives an exact Fraction; a dense grid gives a float.
    """
    import numpy as np

    n, N = grid.field.n, grid.field.N
    hat, D = grid.hat
    sq = hat * hat
    if grid.exact:
        resid = np.abs(sq - N * (_symplectic_transform(sq, n) // (N * N)))
        return _fraction(int(resid.max()), D * D)
    resid = np.abs(sq - N * _symplectic_transform(sq, n) / (N * N))
    return float(resid.max())


# -- exact stabilizer route ------------------------------------------------------


def stabilizer_wigner_value(
    net: QuantumNet, group: StabilizerGroup, alpha: BinaryPoint
) -> Fraction:
    """Exact W(alpha) = N^-2 sum_{beta in S} f(beta) g(beta) (-1)^<alpha,beta>."""
    field = net.field
    if group.field != field:
        raise FieldMismatch("group and net use different fields")
    total = 0
    for (qb, pb), g in group.elements.items():
        beta = BinaryPoint(qb, pb, field.n)
        total += net.f(beta) * g * (-1) ** wedge(alpha, beta)
    return _fraction(total, field.N * field.N)


def stabilizer_wigner(net: QuantumNet, group: StabilizerGroup) -> WignerGrid:
    """Exact Wigner grid of a stabilizer state (grid size caps at 2^8 axes).

    One N-point integer Walsh-Hadamard transform of c[x] = f(beta(x))
    g(beta(x)) over the generator coordinates x gives every numerator over
    the common denominator N^2; the point alpha reads it at its syndrome
    s(alpha)_k = <alpha, g_k>.
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
    # the group's elements come in Gray-code order: step i is x = i ^ (i >> 1)
    c = [0] * N
    for i, ((qb, pb), g) in enumerate(group.elements.items()):
        c[i ^ (i >> 1)] = net.f(BinaryPoint(qb, pb, n)) * g
    c = walsh_hadamard_list(c)
    # s(alpha)_k = <alpha, g_k> is the parity of i & w_k, for i the flat
    # index of alpha and w_k = (b_k << n) | a_k: one XOR doubling of the
    # table per bit j of i
    w = [(g.b << n) | g.a for g in group.gens]
    syndrome = [0]
    for j in range(2 * n):
        m = sum((wk >> j & 1) << k for k, wk in enumerate(w))
        syndrome += [s ^ m for s in syndrome]
    return WignerGrid(field, tuple(map(c.__getitem__, syndrome)), N * N)


def all_stabilizer_groups(field: GF2Field) -> list[frozenset]:
    """All maximal isotropic subspaces of the phase space, as frozensets of
    (qbits, pbits) pairs.  Brute force; intended for small n."""
    nonzero = [pt for pt in all_points(field) if not pt.is_origin]
    found = set()
    for combo in combinations(nonzero, field.n):
        if any(wedge(a, b) for a, b in combinations(combo, 2)):
            continue
        span = StabilizerGroup(field, map(translation_for, combo), [1] * field.n).elements
        if len(span) == field.N:
            found.add(frozenset(span))
    return sorted(found, key=sorted)
