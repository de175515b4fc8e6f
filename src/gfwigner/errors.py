"""Exception hierarchy shared across the package."""


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
