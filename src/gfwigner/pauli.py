"""Translation operators i^s X^a Z^b with exact Z4 phase tracking, and
their dense realisation.

a and b are n-bit masks (bit i acts on qubit i; qubit 0 is the leftmost
Kronecker factor).  The phase exponent s counts powers of i in front of the
plain product X^a Z^b, where each factor X^(a_i) Z^(b_i) carries no phase of
its own.  The canonical translation for a phase-space point has
s = popcount(a & b) mod 4, which makes it hermitian and unitary.

Every dense operator of the package is built here, as a Pauli sum
sum_beta c(beta) T_beta: one Walsh-Hadamard transform over b for each a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge
from .galois import GF2Field
from .phasespace import HORIZONTAL, VERTICAL, BinaryPoint

DENSE_MAX_QUBITS = 6

_I_POW = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class PauliTranslation:
    n: int
    a: int
    b: int
    s: int = 0

    def __post_init__(self):
        object.__setattr__(self, "s", self.s % 4)

    @property
    def phase_vs_canonical(self) -> int:
        """k with self = i^k T(a, b), T canonical."""
        return (self.s - (self.a & self.b).bit_count()) % 4

    def __str__(self):
        return format_pauli(self)


def translation(n: int, a: int, b: int) -> PauliTranslation:
    """The canonical (hermitian, unitary) translation T(a, b)."""
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
def _dense_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x = 0..N-1, the basis index of each x and popcount(x)."""
    x = np.arange(dense_dim(n))
    return x, np.array([basis_index(b, n) for b in x]), sum((x >> i) & 1 for i in range(n))


def walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """H[..., y] = sum_x v[..., x] (-1)^(x.y) along the last axis (of length
    2^k); unnormalised, so int64 and object arrays of ints sum exactly."""
    shape, h = v.shape, 1
    while h < shape[-1]:
        lo, hi = np.moveaxis(v.reshape(*shape[:-1], -1, 2, h), -2, 0)
        v = np.stack((lo + hi, lo - hi), axis=-2).reshape(shape)
        h *= 2
    return v


def to_matrix(t: PauliTranslation) -> np.ndarray:
    """The signed permutation |x> -> i^s (-1)^(b.x) |x ^ a>."""
    x, index, popcount = _dense_tables(t.n)
    out = np.zeros((x.size, x.size), dtype=complex)
    out[index[x ^ t.a], index] = _I_POW[(t.s + 2 * popcount[t.b & x]) % 4]
    return out


def pauli_sum(n: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_beta coeffs[(a << n) | b] T(a, b) over the canonical T.  Column x
    of T(a, b) holds i^(a.b) (-1)^(b.x) in row x ^ a, so entry (x ^ a, x) of
    the sum is the Walsh-Hadamard transform over b of coeffs i^(a.b) at x."""
    x, index, popcount = _dense_tables(n)
    terms = np.reshape(coeffs, (x.size, x.size)) * _I_POW[popcount[x[:, None] & x] % 4]
    out = np.empty((x.size, x.size), dtype=complex)
    out[index[x[:, None] ^ x], index] = walsh_hadamard(terms)
    return out


@dataclass(frozen=True)
class CommutingClass:
    """One of the N + 1 maximal commuting sets of translations."""

    striation_label: object
    members: tuple[PauliTranslation, ...]  # N - 1 nontrivial operators


def ray_walk(field: GF2Field, label):
    """The (a, b) labels of one striation's class, lazily: from (1, 0) for h,
    (0, 1) for v or (1, 1 M~^lambda) for ray lambda, by steps (a M, b M~).
    The first n points generate the ray; the first N - 1 are the class."""
    if label == HORIZONTAL:
        a, b = 1, 0
    elif label == VERTICAL:
        a, b = 0, 1
    else:
        a, b = 1, field.p_to_bits(field.pow_omega(int(label)))
    while True:
        yield a, b
        a, b = field.apply_m(a), field.apply_mt(b)


def class_points(field: GF2Field, label) -> list[tuple[int, int]]:
    """(a, b) pairs of the nontrivial members for one striation."""
    return list(islice(ray_walk(field, label), field.order))


def commuting_classes(field: GF2Field) -> list[CommutingClass]:
    """Partition of the N^2 - 1 nontrivial translations into N + 1 classes."""
    from .phasespace import striation_labels

    classes = []
    for label in striation_labels(field):
        members = tuple(
            translation(field.n, a, b) for a, b in class_points(field, label)
        )
        classes.append(CommutingClass(label, members))
    return classes


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
    s = text.strip()
    phase = 0
    for prefix in ("-i", "+i", "-", "+", "i"):
        if s.startswith(prefix):
            phase = _PREFIX_VALUE[prefix]
            s = s[len(prefix):]
            break
    if not s or set(s) - set("IXYZ"):
        raise ValueError(f"bad Pauli string {text!r}")
    a = b = 0
    for i, ch in enumerate(s):
        ai, bi = _AB[ch]
        a |= ai << i
        b |= bi << i
    return PauliTranslation(len(s), a, b, (phase + (a & b).bit_count()) % 4)
