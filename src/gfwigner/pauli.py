"""Translation operators i^s X^a Z^b with exact Z4 phase tracking, signed
stabilizer groups, and their dense realisation.

a and b are n-bit masks (bit i acts on qubit i; qubit 0 is the leftmost
Kronecker factor).  The phase exponent s counts powers of i in front of the
plain product X^a Z^b, where each factor X^(a_i) Z^(b_i) carries no phase of
its own.  The canonical translation for a phase-space point has
s = popcount(a & b) mod 4, which makes it hermitian and unitary.

A StabilizerGroup is n commuting signed translations and their span, with
the sign of each canonical member: the state of a net's ray and a
stabilizer state are both one.  Its members are walked as (a, b, s) ints
(Aaronson and Gottesman, PRA 70, 052328).  Striations are net's (ray_walk).

Every dense operator of the package is built here, as a Pauli sum
sum_beta c(beta) T_beta in N rows of Python complex: one walsh_hadamard
over b for each a, the package's one (plain Python) Walsh-Hadamard
transform, which grids and MUB overlaps use too; its inverse,
pauli_coefficients (chi(beta) = Tr(M T_beta)), is the package's one reader
of dense operators.  A group's state is one
column of its projector's sum, read straight off the members with no N x N
array (a stabilizer state's amplitudes follow from its group: Dehaene and
De Moor, PRA 68, 042318).  A state is a tuple of Python complex, which
translate moves; numpy is imported only in the functions that return arrays.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from itertools import combinations
from operator import add, mul, sub
from typing import TYPE_CHECKING

from .errors import (DimensionMismatch, DimensionTooLarge, InconsistentStabilizer,
                     MalformedInput, NonCommutingGenerators, need_bits, need_length, need_text)
from .galois import GF2Field
from .phasespace import BinaryPoint, Record

if TYPE_CHECKING:
    import numpy as np

DENSE_MAX_QUBITS = 6

# The tolerance policy: every float comparison in the package uses one of
# these two absolute tolerances.
IDENTITY_ATOL = 1e-10
"""For identities the package computes: orthonormality, reconstruction,
purity, norms and probabilities of its own states."""
INPUT_ATOL = 1e-8
"""For outside input (a density matrix, a measurement basis) and values
derived from it, such as the imaginary part of a Wigner value.  A density
matrix is positive to this tolerance when rho + INPUT_ATOL I has a Cholesky
factor, which in exact arithmetic means every eigenvalue exceeds -INPUT_ATOL;
for an eigenvalue within rounding of -INPUT_ATOL the factorisation and a
symmetric eigensolver (numpy's eigvalsh) can decide differently."""

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)

_set = object.__setattr__


class PauliTranslation(Record):
    """i^s X^a Z^b on n qubits; s is stored mod 4.  a and b must be n-bit
    masks (else MalformedInput)."""

    __slots__ = ("n", "a", "b", "s")

    def __init__(self, n: int, a: int, b: int, s: int = 0):
        # plain in-range ints pass at once (walks and products build many);
        # need_bits decides the rest
        if not (type(n) is type(a) is type(b) is int and 0 <= n
                and 0 <= a < 1 << n and 0 <= b < 1 << n):
            need_bits(n, a=a, b=b)
        _set(self, "n", n)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "s", s % 4)

    @property
    def phase_vs_canonical(self) -> int:
        """k with self = i^k T(a, b), T canonical."""
        return (self.s - (self.a & self.b).bit_count()) % 4

    def __str__(self):
        return format_pauli(self)


def translation(n: int, a: int, b: int) -> PauliTranslation:
    """The canonical (hermitian, unitary) translation T(a, b); a and b must be
    n-bit masks (else MalformedInput)."""
    return PauliTranslation(n, a, b, (a & b).bit_count() % 4)


def translation_for(point: BinaryPoint) -> PauliTranslation:
    """T for a phase-space point: i^(a.b) X^qbits Z^pbits."""
    return translation(point.n, point.qbits, point.pbits)


def compose(t1: PauliTranslation, t2: PauliTranslation) -> PauliTranslation:
    """Exact operator product; the full phase is carried in s."""
    if t1.n != t2.n:
        raise DimensionMismatch(f"{t1.n} vs {t2.n} qubits")
    # Z^b1 X^a2 = (-1)^(b1.a2) X^a2 Z^b1
    s = t1.s + t2.s + 2 * (t1.b & t2.a).bit_count()
    return PauliTranslation(t1.n, t1.a ^ t2.a, t1.b ^ t2.b, s % 4)


def commutes(t1: PauliTranslation, t2: PauliTranslation) -> bool:
    if t1.n != t2.n:
        raise DimensionMismatch(f"{t1.n} vs {t2.n} qubits")
    return ((t1.b & t2.a).bit_count() + (t1.a & t2.b).bit_count()) % 2 == 0


# -- dense realisation -------------------------------------------------------


def basis_index(bits: int, n: int) -> int:
    """Computational-basis index of |bits>: qubit 0 is the leftmost factor."""
    return sum(((bits >> i) & 1) << (n - 1 - i) for i in range(n))


def dense_dim(n: int) -> int:
    """N = 2^n, the side of a dense operator on n qubits; capped."""
    if n > DENSE_MAX_QUBITS:
        raise DimensionTooLarge(f"dense realization capped at {DENSE_MAX_QUBITS} qubits")
    return 1 << n


@cache
def _basis_order(n: int) -> tuple[int, ...]:
    """The basis index of x = 0..N-1, a bit reversal: index(x ^ a) = index(x) ^ index(a)."""
    return tuple(basis_index(x, n) for x in range(dense_dim(n)))


def walsh_hadamard(values) -> list:
    """H[y] = sum_x v[x] (-1)^(x.y) for one sequence of length 2^k,
    unnormalised, so ints and Fractions sum exactly: k passes of (2j, 2j + 1)
    into j and j + N/2, each output the same sums in the same order as the
    in-place butterfly over h = 1, 2, 4, ..."""
    c = list(values)
    for _ in range(len(c).bit_length() - 1):
        even, odd = c[::2], c[1::2]
        c = [*map(add, even, odd), *map(sub, even, odd)]
    return c


def to_matrix(t: PauliTranslation) -> np.ndarray:
    """The signed permutation |x> -> i^s (-1)^(b.x) |x ^ a>, an array."""
    import numpy as np

    index = _basis_order(t.n)
    rows = [[0j] * len(index) for _ in index]
    for x, c in enumerate(index):
        rows[index[x ^ t.a]][c] = _I_POW[(t.s + 2 * (t.b & x).bit_count()) % 4]
    return np.asarray(rows)


def translate(t: PauliTranslation, v) -> tuple[complex, ...]:
    """T v for a state tuple v: i^s (-1)^(b.x) v[index x] at index(x ^ a), as
    to_matrix writes it; index is its own inverse, so entry k takes x = index k ^ a."""
    index = _basis_order(t.n)
    return tuple(_I_POW[(t.s + 2 * (t.b & x).bit_count()) % 4] * v[index[x]]
                 for x in (y ^ t.a for y in index))


def unphase(z: complex) -> complex:
    """abs(z) / z as numpy divides: Smith's method, times 1 / denominator.
    z = 0 has no phase and raises MalformedInput."""
    if not z:
        raise MalformedInput("a zero amplitude has no phase to fix")
    h = abs(z)
    if abs(z.real) >= abs(z.imag):
        rat = z.imag / z.real
        scl = 1.0 / (z.real + z.imag * rat)
        return complex((h + 0.0 * rat) * scl, (0.0 - h * rat) * scl)
    rat = z.real / z.imag
    scl = 1.0 / (z.imag + z.real * rat)
    return complex((h * rat + 0.0) * scl, (0.0 * rat - h) * scl)


def _phase_factor(v) -> complex:
    """unphase of v's first entry above IDENTITY_ATOL (else of v[0])."""
    if not len(v):
        raise MalformedInput("an empty vector has no phase to fix")
    return unphase(next((z for z in v if abs(z) > IDENTITY_ATOL), v[0]))


def fix_phase(v) -> tuple[complex, ...]:
    """v times _phase_factor(v), a tuple: numpy's product bit for bit on
    real or imaginary entries (on others numpy may use FMA)."""
    return tuple(map(_phase_factor(v).__mul__, v))


@cache
def _i_powers(n: int) -> tuple[tuple[complex, ...], ...]:
    """i^(a.b) for b = 0..N-1, one tuple per a."""
    return tuple(tuple(_I_POW[(a & b).bit_count() % 4] for b in range(1 << n))
                 for a in range(1 << n))


def pauli_sum(n: int, coeffs) -> tuple[tuple[complex, ...], ...]:
    """sum_beta coeffs[(a << n) | b] T(a, b) over the canonical T, as N rows
    of Python complex (np.asarray makes them an array).  Column x of T(a, b)
    holds i^(a.b) (-1)^(b.x) in row x ^ a, so entry (x ^ a, x) of the sum is
    the transform over b of coeffs i^(a.b) at x: one walsh_hadamard per a,
    scattered to basis indices.  coeffs must have N^2 entries, an array's in
    row-major order whatever its shape (else MalformedInput)."""
    need_bits(n)
    if hasattr(coeffs, "reshape"):  # an array: its entries as Python numbers
        coeffs = coeffs.reshape(-1).tolist()
    need_length(coeffs, 1 << 2 * n, f"pauli_sum at n = {n}")
    index = _basis_order(n)
    N = len(index)
    rows = [[0j] * N for _ in range(N)]
    for a, phases in enumerate(_i_powers(n)):
        shift = index[a]
        for r, h in zip(index, walsh_hadamard(map(mul, coeffs[a * N:(a + 1) * N], phases))):
            rows[r ^ shift][r] = h
    return tuple(map(tuple, rows))


def pauli_coefficients(rows, n: int) -> list[complex]:
    """chi(a, b) = Tr(M T(a, b)) at every flat index (a << n) | b, M given as N
    rows of N numbers (unchecked): pauli_sum's inverse, pauli_sum(n, chi) = N M.
    Column x of T(a, b) holds i^(a.b) (-1)^(b.x) in row x ^ a, so chi(a, .) is
    i^(a.b) times the transform of d_a[x] = M[idx x][idx x ^ idx a], as
    idx(x ^ a) = idx x ^ idx a: one gather and one N-point transform per a."""
    index, chi = _basis_order(n), []
    for a, phases in enumerate(_i_powers(n)):
        shift = index[a]
        chi += map(mul, walsh_hadamard([rows[r][r ^ shift] for r in index]), phases)
    return chi


# -- signed stabilizer groups --------------------------------------------------


def _canonical_sign(a: int, b: int, s: int) -> int:
    """Eigenvalue of the canonical T(a, b) on a state that the group member
    i^s X^a Z^b stabilizes."""
    # i^s X^a Z^b = i^t T with t in {0, 2}: a product of commuting hermitians
    t = (s - (a & b).bit_count()) % 4
    if t % 2:
        raise NonCommutingGenerators("group member product has an odd phase")
    return 1 - t


class StabilizerGroup:
    """Commuting translations gens with signs: sign_k gens_k stabilizes the
    state, for a ray of a net (its n generators and the striation's sign
    vector) or a stabilizer state.

    elements maps each (qbits, pbits) of the span to the sign g(beta) of the
    canonical T_beta in the group; at(x) reads one member by its generator
    coordinates without expanding the group.
    """

    def __init__(self, field: GF2Field, gens, signs):
        self.field = field
        self.gens = tuple(gens)
        self.signs = tuple(signs)

    @classmethod
    def from_generators(cls, field: GF2Field, gens: list[tuple[PauliTranslation, int]]):
        """The group of n signed generators (T, sign), sign * T a stabilizer.

        Raises if a sign is not +1 or -1, if generators do not commute, are
        not hermitian, are dependent (the identity included), or -I lands in
        the group.
        """
        n = field.n
        if len(gens) != n:
            raise InconsistentStabilizer(f"need {n} generators, got {len(gens)}")
        for g, sg in gens:
            if g.n != n:
                raise DimensionMismatch(f"generator {g} acts on {g.n} qubits, not {n}")
            if isinstance(sg, bool) or sg not in (1, -1):
                raise InconsistentStabilizer(f"sign of {g} must be +1 or -1, got {sg!r}")
        for (g, _), (h, _) in combinations(gens, 2):
            if not commutes(g, h):
                raise NonCommutingGenerators(f"{g} and {h} do not commute")
        for g, _ in gens:
            if g.phase_vs_canonical % 2:
                raise InconsistentStabilizer(f"non-hermitian generator {g}")
        group = cls(field, [g for g, _ in gens], [int(sg) for _, sg in gens])
        if len(group.elements) != field.N:
            raise InconsistentStabilizer("generators are dependent or include the identity")
        return group

    @cached_property
    def elements(self) -> dict[tuple[int, int], int]:
        """g on the whole span, the origin first, in Gray-code order: the
        i-th member is the product i^s X^a Z^b of the stabilizers k with bit k
        set in x = i ^ (i >> 1), and a step by sign_k gens_k adds
        s_k + 2 popcount(b & a_k) to s, as Z^b X^a_k = (-1)^(b.a_k) X^a_k Z^b."""
        words = [(g.a, g.b, g.s + 1 - sg) for g, sg in zip(self.gens, self.signs)]  # -1 = i^2
        a = b = s = 0
        out = {(0, 0): 1}
        for i in range(1, 1 << len(words)):
            ak, bk, sk = words[(i & -i).bit_length() - 1]
            a, b, s = a ^ ak, b ^ bk, s + sk + 2 * (b & ak).bit_count()
            out[(a, b)] = _canonical_sign(a, b, s)
        return out

    def at(self, x: int) -> int:
        """g at generator coordinates x: the canonical sign of the product of
        the stabilizers sign_k gens_k over the set bits k of x."""
        a = b = s = 0
        for k, (g, sg) in enumerate(zip(self.gens, self.signs)):
            if x >> k & 1:
                a, b, s = a ^ g.a, b ^ g.b, s + g.s + 1 - sg + 2 * (b & g.a).bit_count()
        return _canonical_sign(a, b, s)

    def state(self) -> tuple[complex, ...]:
        """The group's state, first nonzero entry real positive, read off
        the members with no N x N projector.  The projector's column at |y>
        holds, at |y ^ a>, N^-1 times the sum of g i^(a.b) (-1)^(b.y) over
        the members (a, b) with that a (see pauli_sum), so its diagonal is
        the transform of the a = 0 members' signs.  The column taken is the
        first, by basis index, where the diagonal is largest, summed exactly
        and scaled as numpy did (times 1 / norm): the same bits."""
        index, N = _basis_order(self.field.n), self.field.N
        diag = walsh_hadamard([self.elements.get((0, b), 0) for b in range(N)])
        y = max(index, key=list(map(abs, diag)).__getitem__)
        parts = [[0] * N, [0] * N]  # real and imaginary
        for (a, b), g in self.elements.items():
            phase = ((a & b).bit_count() + 2 * (b & y).bit_count() + 1 - g) % 4  # -1 = i^2
            parts[phase & 1][index[a ^ y]] += 1 - (phase & 2)
        scale = 1.0 / math.sqrt(sum(x * x for x in parts[0] + parts[1]) / (N * N))
        return fix_phase([complex(re / N * scale, im / N * scale) for re, im in zip(*parts)])

    def projector(self) -> np.ndarray:
        """Dense rank-one projector N^-1 sum_{beta in S} g(beta) T_beta, an array."""
        import numpy as np

        n, N = self.field.n, dense_dim(self.field.n)
        g = [0] * (N * N)
        for (qb, pb), sign in self.elements.items():
            g[(qb << n) | pb] = sign
        return np.asarray(pauli_sum(n, g)) / N


# -- textual Pauli-string format ---------------------------------------------

_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_AB = {v: k for k, v in _LETTER.items()}
_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_VALUE = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


def format_pauli(t: PauliTranslation) -> str:
    """E.g. "+XXI" or "-iYZX": sign/i prefix, one letter per qubit."""
    # X^a Z^b = (-i)^(a.b) * letterwise product, since XZ = -iY.
    phase = (t.s - (t.a & t.b).bit_count()) % 4
    letters = "".join(
        _LETTER[(t.a >> i & 1, t.b >> i & 1)] for i in range(t.n)
    )
    return _PREFIX[phase] + letters


def parse_pauli(text: str) -> PauliTranslation:
    s = need_text(text, "a Pauli string").strip()
    phase = 0
    for prefix in ("-i", "+i", "-", "+", "i"):
        if s.startswith(prefix):
            phase = _PREFIX_VALUE[prefix]
            s = s[len(prefix):]
            break
    if not s or set(s) - set("IXYZ"):
        raise MalformedInput(f"bad Pauli string {text!r}")
    a = b = 0
    for i, ch in enumerate(s):
        ai, bi = _AB[ch]
        a |= ai << i
        b |= bi << i
    return PauliTranslation(len(s), a, b, (phase + (a & b).bit_count()) % 4)
