"""Discrete Wigner functions on the GF(2^n) phase space of n qubits.

Field arithmetic, phase-space geometry, translation operators with exact
phases, quantum nets / mutually unbiased bases, and discrete Wigner functions
with both a dense route and an exact closed form for stabilizer states.

The namespace is lazy (PEP 562): `import gfwigner` loads no submodule, and
the first use of a public name imports the submodule that defines it.  No
submodule imports numpy when it is loaded: it is imported inside the
functions that build arrays, so numpy is loaded only by a call that needs
arrays.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AmbiguousInference",
        "DegreeMismatch",
        "DimensionMismatch",
        "DimensionTooLarge",
        "FieldMismatch",
        "GfwignerError",
        "InconsistentStabilizer",
        "InvalidDensityMatrix",
        "MalformedInput",
        "NonCommutingGenerators",
        "NonPrimitivePolynomial",
        "SingularBasis",
    ),
    "galois": (
        "GF2Field",
        "PRIMITIVE_POLYS",
        "dual_basis",
        "field_new",
        "power_ordering",
        "u_omega_gates",
    ),
    "net": (
        "QuantumNet",
        "all_plus_signs",
        "build_net",
        "line_state",
        "mub_bases",
        "net_from_json",
        "ray_generators",
        "u_omega_matrix",
    ),
    "pauli": (
        "DENSE_MAX_QUBITS",
        "IDENTITY_ATOL",
        "INPUT_ATOL",
        "PauliTranslation",
        "commutes",
        "compose",
        "format_pauli",
        "parse_pauli",
        "pauli_sum",
        "to_matrix",
        "translation",
        "translation_for",
    ),
    "phasespace": (
        "BinaryPoint",
        "HORIZONTAL",
        "Line",
        "PhasePoint",
        "Striation",
        "VERTICAL",
        "all_striations",
        "from_binary",
        "ray_through",
        "striation",
        "striation_labels",
        "to_binary",
        "wedge",
    ),
    "wigner": (
        "StabilizerGroup",
        "WignerGrid",
        "all_stabilizer_groups",
        "check_density_matrix",
        "expectation_translation",
        "point_operator",
        "purity_identity_residual",
        "reconstruct",
        "stabilizer_wigner",
        "stabilizer_wigner_value",
        "state_density",
        "wigner_of",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {"apps", "cli", "errors", "galois", "net", "pauli", "phasespace", "wigner"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
