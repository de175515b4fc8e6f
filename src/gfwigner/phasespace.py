"""Geometry of the N x N phase-space grid over GF(2^n).

Points carry field-element coordinates (q, p).  A point also has a binary
form: q expanded in the canonical basis, p expanded in the rescaled dual
basis (see galois.GF2Field.p_to_bits).  Lines are the solution sets of
a q + b p = c and are stored normalized so the leading nonzero coefficient
is 1.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import FieldMismatch, MalformedInput
from .galois import GF2Field, power_ordering

HORIZONTAL = "h"
VERTICAL = "v"

_set = object.__setattr__  # how a Record's own __init__ sets its fields


class Record:
    """Base of the immutable value types (points, lines, striations, Pauli
    translations).  A subclass names its fields in __slots__ and sets them
    in its own positional __init__ with object.__setattr__.  Records are
    equal, and hash alike, when type and fields are; assignment raises
    AttributeError; repr reads like a dataclass's, BinaryPoint(qbits=1,
    pbits=2, n=3)."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields as a tuple: every record has at least two
        cls._values = attrgetter(*cls.__slots__)

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

    def __init__(self, q: int, p: int):
        _set(self, "q", q)
        _set(self, "p", p)


class BinaryPoint(Record):
    """A phase-space point in binary coordinates (qbits canonical, pbits dual)."""

    __slots__ = ("qbits", "pbits", "n")

    def __init__(self, qbits: int, pbits: int, n: int):
        _set(self, "qbits", qbits)
        _set(self, "pbits", pbits)
        _set(self, "n", n)

    @property
    def is_origin(self) -> bool:
        return self.qbits == 0 and self.pbits == 0


def to_binary(field: GF2Field, point: PhasePoint) -> BinaryPoint:
    return BinaryPoint(point.q, field.p_to_bits(point.p), field.n)


def from_binary(field: GF2Field, point: BinaryPoint) -> PhasePoint:
    return PhasePoint(point.qbits, field.bits_to_p(point.pbits))


class Line(Record):
    """The set {(q, p): a q + b p = c}, with (a, b) != (0, 0) and leading
    nonzero coefficient normalized to 1."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

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

    def __init__(self, label, lines: tuple[Line, ...]):
        _set(self, "label", label)
        _set(self, "lines", lines)

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
    if label not in range(field.order):
        raise _no_striation(field, label)
    return 1, field.pow_omega(-int(label))


def striation_labels(field: GF2Field) -> list:
    return [HORIZONTAL, VERTICAL] + list(range(field.order))


def _no_striation(field: GF2Field, label) -> MalformedInput:
    """The error for a label that is not one of striation_labels(field), named
    by their range, not listed: there are N + 1 of them."""
    return MalformedInput(f"no striation {label!r} at n = {field.n}; the labels are "
                          f"{HORIZONTAL!r}, {VERTICAL!r} and the ints 0 to {field.order - 1}")


def striation(field: GF2Field, label) -> Striation:
    a, b = _direction(field, label)
    return Striation(label, tuple(Line(a, b, c) for c in grid_axis(field)))


def all_striations(field: GF2Field) -> list[Striation]:
    """All N + 1 striations; every line of the grid appears exactly once."""
    return [striation(field, label) for label in striation_labels(field)]


def label_of_line(field: GF2Field, line: Line):
    if line.a == 0:
        return HORIZONTAL
    if line.b == 0:
        return VERTICAL
    # normalized form (1, w^-j): slope j
    return (-field.log(line.b)) % field.order


def ray_through(field: GF2Field, point: PhasePoint):
    """Striation label of the ray containing a nonzero point."""
    if point.q == 0 and point.p == 0:
        raise MalformedInput("every ray passes through the origin")
    if point.p == 0:
        return HORIZONTAL
    if point.q == 0:
        return VERTICAL
    return (field.log(point.p) - field.log(point.q)) % field.order


def wedge(alpha: BinaryPoint, beta: BinaryPoint) -> int:
    """The symplectic exponent (q_a . p_b - q_b . p_a) mod 2."""
    if alpha.n != beta.n:
        raise FieldMismatch("points live in different fields")
    return ((alpha.qbits & beta.pbits).bit_count()
            ^ (beta.qbits & alpha.pbits).bit_count()) & 1


def grid_axis(field: GF2Field) -> list[int]:
    """Axis labels in power ordering: 0, 1, w, w^2, ..."""
    return power_ordering(field)
