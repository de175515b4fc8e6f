"""Geometry of the N x N phase-space grid over GF(2^n).

Points carry field-element coordinates (q, p).  A point also has a binary
form: q expanded in the canonical basis, p expanded in the rescaled dual
basis (see galois.GF2Field.p_to_bits).  Lines are the solution sets of
a q + b p = c and are stored normalized so the leading nonzero coefficient
is 1.
"""

from __future__ import annotations

from operator import attrgetter, index

from .errors import DimensionTooLarge, FieldMismatch, MalformedInput, int_below, need_bits
from .galois import GF2Field, power_ordering

HORIZONTAL = "h"
VERTICAL = "v"
GRID_MAX_QUBITS = 8

_set = object.__setattr__  # how Record.__init__ sets the fields


class Record:
    """Base of the immutable value types (points, lines, striations, Pauli
    translations).  A subclass names its fields in __slots__, and
    Record(*values) sets them in that order; a wrong count raises TypeError.
    Records are equal, and hash alike, when type and fields are; assignment
    raises AttributeError; repr reads like a dataclass's,
    BinaryPoint(qbits=1, pbits=2, n=3)."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields as a tuple: every record has at least two
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} values")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash((type(self), self._values(self)))

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PhasePoint(Record):
    __slots__ = ("q", "p")


class BinaryPoint(Record):
    """A phase-space point in binary coordinates (qbits canonical, pbits dual),
    both n-bit masks (else MalformedInput)."""

    __slots__ = ("qbits", "pbits", "n")

    def __init__(self, qbits: int, pbits: int, n: int, /):
        # plain in-range ints pass at once (grids build N^2); need_bits
        # decides the rest
        if not (type(qbits) is type(pbits) is type(n) is int and 0 <= n
                and 0 <= qbits < 1 << n and 0 <= pbits < 1 << n):
            need_bits(n, qbits=qbits, pbits=pbits)
        _set(self, "qbits", qbits)
        _set(self, "pbits", pbits)
        _set(self, "n", n)

    @property
    def is_origin(self) -> bool:
        return self.qbits == 0 and self.pbits == 0


def need_point(point, n: int) -> BinaryPoint:
    """point, if it is a BinaryPoint (else MalformedInput) of n qubits (else
    FieldMismatch); a BinaryPoint checks its own bits as it is built."""
    if not isinstance(point, BinaryPoint):
        raise MalformedInput(f"{point!r} is not a BinaryPoint")
    if point.n != n:
        raise FieldMismatch(f"point {point} is not on the n = {n} grid")
    return point


def _coordinates(field: GF2Field, point) -> tuple[int, int]:
    """point's (q, p), if it is a PhasePoint (else MalformedInput) whose
    coordinates are elements of the field (need_bits)."""
    if not isinstance(point, PhasePoint):
        raise MalformedInput(f"{point!r} is not a PhasePoint")
    q, p = point.q, point.p
    # plain in-range ints pass at once (f reads one point per call);
    # need_bits decides the rest
    if not (type(q) is type(p) is int and 0 <= q < field.N and 0 <= p < field.N):
        need_bits(field.n, q=q, p=p)
    return q, p


def to_binary(field: GF2Field, point: PhasePoint) -> BinaryPoint:
    """The point's binary form; _coordinates reads the point."""
    q, p = _coordinates(field, point)
    return BinaryPoint(q, field.p_to_bits(p), field.n)


def from_binary(field: GF2Field, point: BinaryPoint) -> PhasePoint:
    """The point's field coordinates; need_point checks it."""
    need_point(point, field.n)
    return PhasePoint(point.qbits, field.bits_to_p(point.pbits))


class Line(Record):
    """The set {(q, p): a q + b p = c}, with (a, b) != (0, 0) and leading
    nonzero coefficient normalized to 1."""

    __slots__ = ("a", "b", "c")

    def points(self, field: GF2Field) -> list[PhasePoint]:
        if self.a != 0:
            # q = a^-1 (c + b p), parametrized by p
            ainv = field.inv(self.a)
            return [
                PhasePoint(field.mul(ainv, self.c ^ field.mul(self.b, p)), p)
                for p in field.elements()
            ]
        binv = field.inv(self.b)
        return [PhasePoint(q, field.mul(binv, self.c)) for q in field.elements()]


class Striation(Record):
    """N parallel lines covering the grid; label 'h', 'v' or the slope
    exponent of the ray p = w^label q.  The ray comes first."""

    __slots__ = ("label", "lines")

    @property
    def ray(self) -> Line:
        return self.lines[0]


def _direction(field: GF2Field, label) -> tuple[int, int]:
    """Normalized (a, b) of the striation: h is p=0, v is q=0, slope j is
    p = w^j q, i.e. w^j q + p = 0 scaled to (1, w^-j)."""
    if label == HORIZONTAL:
        return 0, 1
    if label == VERTICAL:
        return 1, 0
    return 1, field.pow_omega(-label)


def striation_labels(field: GF2Field) -> list:
    return [HORIZONTAL, VERTICAL] + list(range(field.order))


def need_label(field: GF2Field, label):
    """label, if it is h, v or an int from 0 to N - 2 that is not a bool (read
    by operator.index, as need_bits reads one; returned as a plain int); else
    MalformedInput, naming the N + 1 labels by their range, not one by one."""
    if isinstance(label, str) and label in (HORIZONTAL, VERTICAL):
        return label
    if not int_below(label, field.order):
        raise MalformedInput(f"no striation {label!r} at n = {field.n}; the labels are "
                             f"{HORIZONTAL!r}, {VERTICAL!r} and the ints 0 to {field.order - 1}")
    return index(label)


def striation(field: GF2Field, label) -> Striation:
    label = need_label(field, label)
    a, b = _direction(field, label)
    return Striation(label, tuple(Line(a, b, c) for c in power_ordering(field)))


def all_striations(field: GF2Field) -> list[Striation]:
    """All N + 1 striations; every line of the grid appears exactly once."""
    return [striation(field, label) for label in striation_labels(field)]


def label_of_line(field: GF2Field, line: Line):
    """The striation label of a line in the normalised form that striation()
    gives, with a, b and c field elements; any other raises MalformedInput."""
    if isinstance(line, Line):
        need_bits(field.n, a=line.a, b=line.b, c=line.c)
        label = (HORIZONTAL if line.a == 0 else VERTICAL if line.b == 0
                 else -field.log(line.b) % field.order)  # (1, w^-j): slope j
        if (line.a, line.b) == _direction(field, label):
            return label
    raise MalformedInput(f"{line} is not a normalised line of the n = {field.n} grid")


def ray_through(field: GF2Field, point: PhasePoint):
    """Striation label of the ray through a nonzero point; _coordinates reads
    the point."""
    q, p = _coordinates(field, point)
    if q == 0 and p == 0:
        raise MalformedInput("every ray passes through the origin")
    if p == 0:
        return HORIZONTAL
    if q == 0:
        return VERTICAL
    return (field.log(p) - field.log(q)) % field.order


def wedge(alpha: BinaryPoint, beta: BinaryPoint) -> int:
    """The symplectic exponent (q_a . p_b - q_b . p_a) mod 2; need_point checks both."""
    need_point(beta, need_point(alpha, getattr(alpha, "n", None)).n)
    return ((alpha.qbits & beta.pbits).bit_count()
            ^ (beta.qbits & alpha.pbits).bit_count()) & 1


def need_grid(n: int, hint: str = "") -> None:
    """DimensionTooLarge above GRID_MAX_QUBITS: a full grid has 2^(2n) points."""
    if n > GRID_MAX_QUBITS:
        raise DimensionTooLarge(f"full grids capped at {GRID_MAX_QUBITS} qubits{hint}")
