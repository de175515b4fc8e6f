"""Discrete Wigner functions on the GF(2^n) phase space.

A grid is N^2 values in one flat tuple indexed by (qbits << n) | pbits:
Python floats for dense grids, integer numerators over grid.den for exact
ones.  Display order is one permutation of it (display_rows); grid.values
is a {(qbits, pbits): value} dict built on request.

Two routes are provided and cross-checked in the tests:

* a dense route: W(alpha) = Tr(rho A(alpha)) with the phase-space point
  operators A(alpha) = N^-2 sum_beta f(beta) (-1)^<alpha,beta> T_beta of a
  quantum net, so W is N^-2 times one symplectic transform of f(beta)
  chi(beta), chi(beta) = Tr(rho T_beta) the characteristic function.
  T(a, b) is a signed permutation of the basis, so chi(a, .) is one
  N-point Walsh-Hadamard transform of the entries rho[idx x][idx(x ^ a)]
  (pauli.pauli_coefficients, pauli_sum's inverse): O(N^2 log N) in plain
  Python complex numbers, with the input check (a Cholesky factorisation)
  the only O(N^3) step.  point_operator builds one A(alpha) as an array,
  one pauli_sum of its coefficients; the meanking_phi1 preset's per-point
  traces of rho @ A(alpha) are apps._meanking_phi1_grid.  `verify` checks
  the point operators through chi of A(0) in plain Python: their traces
  Tr(A(alpha) A(beta)) are one transform of chi^2, their sum over a ray R
  is the stabilizer projector of R's n generators, which check the ray
  state, and their sum over d + R is that moved by T_d, so each other
  line state is checked against the ray state's translate;
* an exact route for stabilizer states: the closed form
  W(alpha) = N^-2 sum_{beta in S} f(beta) g(beta) (-1)^<alpha,beta>.
  f and g are the same kind of sign: f(beta) is the sign of T_beta in the
  group of the net's ray through beta, g(beta) its sign in the state's
  group S, and both groups are pauli.StabilizerGroup.  S is spanned by n
  generators g_k, so with beta(x) = sum_k x_k g_k the sign
  (-1)^<alpha,beta(x)> is (-1)^(x . s(alpha)), s(alpha)_k = <alpha, g_k>
  the syndrome of alpha.  The whole grid is therefore one N-point integer
  Walsh-Hadamard transform of c[x] = f(beta(x)) g(beta(x)), read off at
  each point's syndrome, a table that S keeps (StabilizerGroup.syndromes)
  for every net: O(N log N + N^2) in plain Python ints, with one
  denominator N^2, so the grid stays rational and needs no numpy.

The symplectic transform inverts a grid of either kind: with
hat W(beta) = sum_alpha W(alpha) (-1)^<alpha,beta>, <T_beta> is
f(beta) hat W(beta) (exact on exact grids) and
rho = N^-1 sum_beta f(beta) hat W(beta) T_beta, one Pauli sum
(pauli.pauli_sum, N rows of Python complex), as are A(0) and a stabilizer
projector N^-1 sum_{beta in S} g(beta) T_beta.  A grid caches hat W, so it
is not changed after it is built.  hat W is one pauli.walsh_hadamard of the
grid's tuple, so a grid file is read and transformed without numpy.

A state vector is a tuple of Python complex numbers, and state_density
makes |v><v| / <v|v> as rows of them; a caller's density or state vector
is read by errors.need_numbers.  numpy is imported only inside the
functions that return arrays (point_operator, as_array), and fractions only
where a Fraction is made, so an exact grid, a dense grid of a density
given as rows of numbers (the mean king's among them), and its
reconstruction, are computed and exported without either.
"""

from __future__ import annotations

from cmath import isfinite
from functools import cached_property
from itertools import combinations, product
from math import inf, lcm, sqrt
from operator import mul
from typing import TYPE_CHECKING

from .errors import InvalidDensityMatrix, need_bits, need_field, need_length, need_numbers
from .galois import GF2Field, power_ordering
from .net import QuantumNet
from .pauli import (
    INPUT_ATOL,
    StabilizerGroup,
    dense_dim,
    pauli_coefficients,
    pauli_sum,
    translation_for,
    walsh_hadamard,
)
from .phasespace import BinaryPoint, from_binary, label_of_line, need_grid, wedge

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np


def all_points(field: GF2Field):
    """Iterate over all N^2 binary phase-space points."""
    for qbits in range(field.N):
        for pbits in range(field.N):
            yield BinaryPoint(qbits, pbits, field.n)


def _complex_rows(rho, N: int) -> list[list[complex]]:
    """rho (an array, or a list or tuple of N rows of N numbers, each row read
    by errors.need_numbers) as N lists of Python complex numbers; anything
    else raises InvalidDensityMatrix."""
    rows = rho.tolist() if hasattr(rho, "tolist") else rho
    shape = f"need finite entries and shape ({N}, {N})"
    if not isinstance(rows, (list, tuple)):
        raise InvalidDensityMatrix(f"{shape}, got a {type(rows).__name__}")
    rows = [need_numbers(row, f"{shape}; each row", InvalidDensityMatrix) for row in rows]
    lengths = sorted(set(map(len, rows)))
    if len(rows) != N or lengths != [N]:
        got = f"({len(rows)}, {lengths[0]})" if len(lengths) == 1 else f"rows of lengths {lengths}"
        raise InvalidDensityMatrix(f"{shape}, got {got}")
    if not all(all(map(isfinite, row)) for row in rows):
        raise InvalidDensityMatrix(f"{shape}, got a non-finite entry")
    return rows


def _checked_rows(rho, n: int) -> list[list[complex]]:
    """rho as rows of Python complex (_complex_rows), if it is a finite N x N
    matrix, hermitian with unit trace and positive to INPUT_ATOL; else
    InvalidDensityMatrix.  Positive means rho + INPUT_ATOL I has a Cholesky
    factor: a pivot that is not > 0 (nan included) refuses it (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10).  O(N^3 / 6)
    complex products in plain Python, no numpy."""
    need_bits(n)
    N, atol = 1 << n, INPUT_ATOL
    rows = _complex_rows(rho, N)
    if any(abs(row[j] - rows[j][i].conjugate()) > atol
           for i, row in enumerate(rows) for j in range(i + 1)):
        raise InvalidDensityMatrix("matrix is not hermitian")
    if abs(sum(row[i] for i, row in enumerate(rows)) - 1) > atol:
        raise InvalidDensityMatrix("trace is not 1")
    lower, conj = [], []  # rows of the factor L, and of its conjugate
    for i, row in enumerate(rows):
        li, ci = [], []
        for j in range(i):  # L[i][j] = (A[i][j] - sum_k<j L[i][k] conj(L[j][k])) / L[j][j]
            z = (row[j] - sum(map(mul, li, conj[j]))) / lower[j][j]
            li.append(z)
            ci.append(z.conjugate())
        s = row[i].real + atol - sum(map(mul, li, ci)).real
        if not s > 0:
            raise InvalidDensityMatrix("matrix has a negative eigenvalue")
        li.append(sqrt(s))
        ci.append(li[i])
        lower.append(li)
        conj.append(ci)
    return rows


def check_density_matrix(rho, n: int):
    """rho itself, if _checked_rows accepts it; else InvalidDensityMatrix."""
    _checked_rows(rho, n)
    return rho


def state_density(vec) -> list[list[complex]]:
    """|v><v| / <v|v> as N rows of Python complex, u conj(w) / <v|v> with
    <v|v> the sum of re^2 + im^2, v any sequence of numbers (need_numbers):
    InvalidDensityMatrix unless it has a finite nonzero norm."""
    v = need_numbers(vec, "state vector", InvalidDensityMatrix)
    norm2 = sum(z.real * z.real + z.imag * z.imag for z in v)
    if not 0 < norm2 < inf:
        raise InvalidDensityMatrix(f"state vector needs a finite nonzero norm, got {sqrt(norm2)}")
    return [[u * w.conjugate() / norm2 for w in v] for u in v]


def display_rows(field: GF2Field) -> list[list[int]]:
    """Flat grid indices (qbits << n) | pbits as a grid is printed: rows are
    p descending, columns q ascending, both along axis = power_ordering(field)."""
    axis = power_ordering(field)
    return [[(q << field.n) | pb for q in axis]
            for pb in map(field.p_to_bits, reversed(axis))]


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

    flat is a tuple: of Python floats for a dense grid (den None), or of
    integer numerators over den (N^2 on the stabilizer route) for an exact
    one, which makes a Fraction only for a value asked for.  A grid is not
    changed after it is built: its transform hat is computed once and cached.
    """

    def __init__(self, field: GF2Field, flat: tuple, den: int | None = None):
        self.field = field
        self.flat = need_length(flat, field.N * field.N, f"a grid at n = {field.n}")
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
        return _fraction(self.flat[i], self.den) if self.exact else self.flat[i]

    @property
    def values(self) -> dict:
        """A {(qbits, pbits): value} dict, built on each access."""
        N = self.field.N
        return dict(zip(product(range(N), repeat=2), map(self._at, range(N * N))))

    def value(self, point: BinaryPoint):
        """The value at point; off the grid, the error from_binary raises."""
        from_binary(self.field, point)
        return self._at((point.qbits << self.field.n) | point.pbits)

    @cached_property
    def hat(self) -> tuple[list, int]:
        """hat W = the symplectic transform of the grid, over a denominator D:
        an exact grid's numerators over den as Python ints, or a dense
        grid's floats over 1."""
        return _symplectic_transform(self.flat, self.field.n), self.den or 1

    def as_array(self) -> np.ndarray:
        """Array indexed [q_axis][p_axis] with axis order 0, 1, w, w^2, ...:
        display_rows turned so that entry [i, j] has q = axis[i], p = axis[j]."""
        import numpy as np

        flat = [k / self.den for k in self.flat] if self.exact else self.flat
        return np.asarray(flat, dtype=float)[np.array(display_rows(self.field))[::-1].T]

    def line_sum(self, line) -> float:
        """The sum over a normalised line; any other raises MalformedInput."""
        field, total = self.field, 0
        label_of_line(field, line)
        for pt in line.points(field):
            total += self._at((pt.q << field.n) | field.p_to_bits(pt.p))
        return total


# -- dense route ----------------------------------------------------------------


def point_operator(net: QuantumNet, alpha: BinaryPoint) -> np.ndarray:
    """A(alpha) = N^-2 sum_beta f(beta) (-1)^<alpha,beta> T_beta as an array,
    one pauli_sum: <alpha,beta> is the parity of beta's flat index masked by
    (pbits << n) | qbits.  A point off the net's grid raises MalformedInput
    or FieldMismatch (from_binary), a net above the dense cap
    DimensionTooLarge."""
    import numpy as np

    field = net.field
    from_binary(field, alpha)
    n, scale = field.n, dense_dim(field.n) ** 2
    mask = (alpha.pbits << n) | alpha.qbits
    return np.asarray(pauli_sum(n, [(-f if (i & mask).bit_count() & 1 else f) / scale
                                    for i, f in enumerate(net.f_vector())]))


def wigner_of(net: QuantumNet, rho) -> WignerGrid:
    """W(alpha) = Tr(rho A(alpha)) for every phase-space point, rho an array
    or rows of numbers, read and checked once (_checked_rows) after the dense
    cap: N^-2 times the symplectic transform of f chi, in plain Python.  An
    imaginary part beyond INPUT_ATOL raises InvalidDensityMatrix naming its point."""
    field = need_field(net=net)
    n, scale = field.n, dense_dim(field.n) ** 2
    chi = pauli_coefficients(_checked_rows(rho, n), n)
    hat = _symplectic_transform(list(map(mul, net.f_vector(), chi)), n)
    for i, h in enumerate(hat):
        if abs(h.imag / scale) > INPUT_ATOL:
            alpha = BinaryPoint(i >> n, i & (field.N - 1), n)
            raise InvalidDensityMatrix(f"complex Wigner value {h / scale} at {alpha}")
    return WignerGrid(field, tuple(h.real / scale for h in hat))


def reconstruct(net: QuantumNet, grid: WignerGrid) -> tuple[tuple[complex, ...], ...]:
    """rho = N^-1 sum_beta f(beta) hat W(beta) T_beta, hat W = grid.hat, as N
    rows of Python complex (one pauli_sum; np.asarray makes them an array)."""
    field = need_field(grid=grid, net=net)
    hat, D = grid.hat
    return pauli_sum(field.n, [f * (h / D) / field.N for f, h in zip(net.f_vector(), hat)])


def expectation_translation(net: QuantumNet, grid: WignerGrid, beta: BinaryPoint):
    """<T_beta> = f(beta) hat W(beta): a Fraction on exact grids."""
    field = need_field(grid=grid, net=net)
    hat, D = grid.hat
    value = net.f(beta) * hat[(beta.qbits << field.n) | beta.pbits]
    return _fraction(value, D) if grid.exact else float(value)


def _symplectic_transform(v, n: int) -> list:
    """H[alpha] = sum_beta v[beta] (-1)^<alpha,beta> over all N^2 points.

    Sequences are flat and indexed by (qbits << n) | pbits.  Swapping the q
    and p halves of beta's index (v[(p << n) | q] at (q << n) | p) turns the
    symplectic form into a plain dot product, so H is one fast Walsh-Hadamard
    transform of the swapped sequence; Python ints give exact sums.
    """
    N = 1 << n
    return walsh_hadamard([x for q in range(N) for x in v[q::N]])


def purity_identity_residual(net: QuantumNet, grid: WignerGrid) -> float | Fraction:
    """Max residual of |sum_a W(a)(-1)^<a,b>|^2 = N sum_a W(a)W(a+b) over b.

    Zero (up to rounding) iff the grid is the Wigner function of a pure state.
    Every hat W(b) is one symplectic transform of W, and every
    autocorrelation sum_a W(a)W(a+b) is the transform of hat W^2 over N^2.
    An exact grid gives an exact Fraction; a dense grid gives a float.
    """
    field = need_field(grid=grid, net=net)
    n, N = field.n, field.N
    hat, D = grid.hat
    sq = [h * h for h in hat]
    auto = _symplectic_transform(sq, n)
    if grid.exact:
        return _fraction(max(abs(s - N * (t // (N * N))) for s, t in zip(sq, auto)), D * D)
    return max(abs(s - N * t / (N * N)) for s, t in zip(sq, auto))


# -- exact stabilizer route ------------------------------------------------------


def stabilizer_wigner_value(
    net: QuantumNet, group: StabilizerGroup, alpha: BinaryPoint
) -> Fraction:
    """Exact W(alpha) = N^-2 sum_{beta in S} f(beta) g(beta) (-1)^<alpha,beta>."""
    field = need_field(group=group, net=net)
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
    s(alpha)_k = <alpha, g_k>, from the table group.syndromes, which the
    group builds once and keeps for every net it is read on.
    """
    field = need_field(group=group, net=net)
    need_grid(field.n, "; use stabilizer_wigner_value for single points")
    n, N = field.n, field.N
    # the group's elements come in Gray-code order: step i is x = i ^ (i >> 1)
    c = [0] * N
    for i, ((qb, pb), g) in enumerate(group.elements.items()):
        c[i ^ (i >> 1)] = net.f(BinaryPoint(qb, pb, n)) * g
    c = walsh_hadamard(c)
    return WignerGrid(field, tuple(map(c.__getitem__, group.syndromes)), N * N)


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
