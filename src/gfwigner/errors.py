"""Exception hierarchy shared across the package, and the validators that its
library entry points share to raise it for bad input.  need_numbers is the
one reader of numbers from outside the package: a density matrix's or state
vector's entries, an encoded state's amplitudes, a measurement basis and a
state file's "density"."""

from math import inf, sqrt
from operator import index


class GfwignerError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(GfwignerError):
    """Polynomial bit vector has the wrong length for the requested degree."""


class NonPrimitivePolynomial(GfwignerError):
    """The companion matrix does not have multiplicative order 2^n - 1."""


class FieldMismatch(GfwignerError):
    """Operands belong to different field constructions."""


class SingularBasis(GfwignerError):
    """The given field elements are not linearly independent over GF(2)."""


class DimensionMismatch(GfwignerError):
    """Pauli translations act on different numbers of qubits."""


class DimensionTooLarge(GfwignerError):
    """Dense matrix realization requested beyond the supported qubit count."""


class NonCommutingGenerators(GfwignerError):
    """Ray generators failed the pairwise commutation check."""


class InvalidDensityMatrix(GfwignerError):
    """Matrix is not hermitian, unit trace and positive semidefinite."""


class InconsistentStabilizer(GfwignerError):
    """Eigenvalue assignment is not multiplicative on the stabilizer group."""


class AmbiguousInference(GfwignerError):
    """A retrodiction branch is consistent with more than one king outcome."""


class MalformedInput(GfwignerError):
    """Input names an unknown preset or label, or lacks a required entry."""


# -- the shared input validators of the library entry points -------------------


def need_text(value, what: str) -> str:
    """value, if it is a str; else MalformedInput naming what."""
    if not isinstance(value, str):
        raise MalformedInput(f"{what} must be a string, got {type(value).__name__}")
    return value


def need_length(seq, length: int, what: str):
    """seq, if it has length entries; else (no len() included) MalformedInput."""
    try:
        got = len(seq)
    except TypeError:
        got = f"a value of type {type(seq).__name__}"
    if got != length:
        raise MalformedInput(f"{what} needs {length} entries, got {got}")
    return seq


def need_numbers(entries, what: str, error=MalformedInput) -> list[complex]:
    """entries as Python complex numbers, 0j + z, if each is a numbers.Number
    (Python's or numpy's, such as numpy scalars, which pass through complex
    first) within float range and no bool, which 0j + z would read as 0 or 1;
    else error, "<what> needs numbers: <why>"."""
    try:
        if other := set(map(type, entries)) - {float, complex, int}:
            from numbers import Number

            for t in other:
                if t is bool or not issubclass(t, Number):
                    raise TypeError(f"a {t.__name__} is not a number")
            entries = list(map(complex, entries))
        return [0j + z for z in entries]
    except (TypeError, OverflowError) as exc:
        raise error(f"{what} needs numbers: {exc}") from None


def need_norm(values, what: str) -> float:
    """sqrt(sum |z|^2) over values, if it is finite and nonzero; else (an
    overflow or a NaN included) MalformedInput naming what."""
    try:
        norm = sqrt(sum(abs(z) ** 2 for z in values))
    except OverflowError:
        norm = inf
    if not 0 < norm < inf:
        raise MalformedInput(f"{what} needs a finite nonzero norm, got {norm}")
    return norm


def int_below(value, bound) -> bool:
    """value is an int from 0 to bound - 1 and not a bool: need_bits' and need_label's rule."""
    try:
        return not isinstance(value, bool) and 0 <= index(value) < bound
    except TypeError:
        return False


def need_bits(n: int, **masks) -> None:
    """MalformedInput unless n is an int >= 0 and each named mask an int from
    0 to 2^n - 1 (none of them a bool): n bits, or a field element of GF(2^n)
    by its canonical bits.  For entry points, not for the loops behind them."""
    if not int_below(n, inf):
        raise MalformedInput(f"n = {n!r} is not an int >= 0")
    for name, value in masks.items():
        if not int_below(value, 1 << n):
            raise MalformedInput(f"{name} = {value!r} is not an int from 0 to {(1 << n) - 1}")


def need_field(**parts):
    """The field the named parts (a net, grid or group) share: MalformedInput
    names a part with none, such as None, and FieldMismatch parts that differ."""
    for name, part in parts.items():
        if getattr(part, "field", None) is None:
            raise MalformedInput(f"{name} must have a field, got {type(part).__name__}")
    first, *rest = (part.field for part in parts.values())
    if any(field != first for field in rest):
        raise FieldMismatch(f"{' and '.join(parts)} use different fields")
    return first
