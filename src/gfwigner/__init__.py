"""Discrete Wigner functions on the GF(2^n) phase space of n qubits.

Field arithmetic, phase-space geometry, translation operators with exact
phases, quantum nets / mutually unbiased bases, and discrete Wigner functions
with both a dense route and an exact closed form for stabilizer states.
"""

from .errors import (
    AmbiguousInference,
    DegreeMismatch,
    DimensionMismatch,
    DimensionTooLarge,
    FieldMismatch,
    GfwignerError,
    InconsistentStabilizer,
    InvalidDensityMatrix,
    MalformedInput,
    NonCommutingGenerators,
    NonPrimitivePolynomial,
    SingularBasis,
)
from .galois import GF2Field, PRIMITIVE_POLYS, dual_basis, field_new, power_ordering
from .net import (
    MubState,
    QuantumNet,
    all_plus_signs,
    build_net,
    line_state,
    mub_bases,
    mub_states,
    net_from_json,
    ray_generators,
    u_omega_gates,
    u_omega_matrix,
)
from .pauli import (
    DENSE_MAX_QUBITS,
    IDENTITY_ATOL,
    INPUT_ATOL,
    PauliTranslation,
    commutes,
    compose,
    format_pauli,
    parse_pauli,
    pauli_sum,
    to_matrix,
    translation,
    translation_for,
)
from .phasespace import (
    BinaryPoint,
    HORIZONTAL,
    Line,
    PhasePoint,
    Striation,
    VERTICAL,
    all_striations,
    from_binary,
    make_line,
    ray_through,
    striation,
    striation_labels,
    to_binary,
    wedge,
    wedge_field_form,
)
from .wigner import (
    StabilizerGroup,
    WignerGrid,
    all_stabilizer_groups,
    check_density_matrix,
    expectation_translation,
    point_operator,
    purity_identity_residual,
    reconstruct,
    stabilizer_wigner,
    stabilizer_wigner_value,
    state_density,
    wigner_of,
)

__version__ = "0.1.0"
