"""Worked applications of the discrete phase space: Bell states (n = 2), the
three-qubit phase-error code (n = 3), and the mean king retrodiction problem
(n = 2).

Every result is produced by two independent routes where possible: exact
rational arithmetic via the stabilizer closed form, and dense numerics via the
point operators.  The application-specific constants are solved from first
principles rather than hard-coded: the Bell orbits and the code's eight slots
are the orbits of the paper's representatives under the state's stabilizer
group (wigner.symmetry_orbits), and the code's parameter system is solved in
closed form.

numpy is imported only inside the functions that build arrays (the dense
Bell, encoded and mean king states and the retrodiction game), so the Bell
survey, the code's logical grids and its solution family run in plain
Python.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .errors import AmbiguousInference, FieldMismatch, InconsistentStabilizer, MalformedInput
from .galois import GF2Field, field_new
from .net import (
    QuantumNet,
    all_plus_signs,
    build_net,
    line_state,
)
from .pauli import (
    IDENTITY_ATOL,
    INPUT_ATOL,
    PauliTranslation,
    fix_phase,
    to_matrix,
    translation,
    translation_for,
    walsh_hadamard,
)
from .phasespace import (
    HORIZONTAL,
    PhasePoint,
    VERTICAL,
    striation,
    to_binary,
)
from .wigner import (
    StabilizerGroup,
    WignerGrid,
    state_density,
    stabilizer_wigner,
    symmetry_orbits,
    wigner_of,
)

if TYPE_CHECKING:
    import numpy as np

# -- Bell states (n = 2) ---------------------------------------------------------

BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

# eigenvalues of (X0 X1, Z0 Z1) for each Bell state
_BELL_SIGNS = {
    "phi_plus": (1, 1),
    "phi_minus": (-1, 1),
    "psi_plus": (1, -1),
    "psi_minus": (-1, -1),
}


def bell_field() -> GF2Field:
    return field_new(2)


def bell_translations(field: GF2Field) -> tuple[PauliTranslation, PauliTranslation]:
    """The two commuting translations X0 X1 and Z0 Z1 stabilizing Bell states."""
    w2 = field.pow_omega(2)
    return (
        translation_for(to_binary(field, PhasePoint(w2, 0))),
        translation_for(to_binary(field, PhasePoint(0, w2))),
    )


def bell_state(label: str) -> np.ndarray:
    """Dense Bell state vector (qubit 0 is the leftmost tensor factor): the
    state of its stabilizer group, first nonzero entry real positive."""
    import numpy as np

    return np.asarray(bell_stabilizer(bell_field(), label).state())


def bell_stabilizer(field: GF2Field, label: str) -> StabilizerGroup:
    if label not in _BELL_SIGNS:
        raise MalformedInput(
            f"unknown Bell state {label!r}; expected one of {', '.join(BELL_LABELS)}"
        )
    xx, zz = bell_translations(field)
    s1, s2 = _BELL_SIGNS[label]
    return StabilizerGroup.from_generators(field, [(xx, s1), (zz, s2)])


def bell_orbits(field: GF2Field) -> dict[str, list[int]]:
    """The four orbits of the grid under the symmetry group {I, XX, ZZ, YY}
    that all four Bell states share, as flat indices (qbits << n) | pbits:
    the parameters a, b, c and d, with representatives (0, 0), (1, 0),
    (0, 1) and (1, 1)."""
    cells = [(q << field.n) | pb for q, pb in ((0, 0), (1, 0), (0, 1), (1, 1))]
    return dict(zip("abcd", symmetry_orbits(bell_stabilizer(field, "phi_plus"), cells)))


def bell_symmetric_nets(field: GF2Field):
    """The 4^3 nets compatible with the Bell symmetries: the horizontal and
    vertical sign vectors are fixed to all-+1, the three diagonal striations
    range over all sign choices."""
    for s0, s1, s2 in product(product((1, -1), repeat=2), repeat=3):
        signs = all_plus_signs(field) | {0: s0, 1: s1, 2: s2}
        yield QuantumNet(field, signs)


def _slot_values(grid: WignerGrid, slots: dict[str, list[int]]) -> dict:
    """The grid's value on each named set of flat indices; it must be
    constant on every set."""
    params = {}
    for name, cells in slots.items():
        vals = set(map(grid._at, cells))
        if len(vals) != 1:
            raise InconsistentStabilizer(f"grid not constant on slot {name}")
        params[name] = vals.pop()
    return params


def bell_parameters(net: QuantumNet, label: str) -> tuple[Fraction, ...]:
    """Exact orbit values (a, b, c, d) of one Bell state's Wigner function."""
    field = net.field
    grid = stabilizer_wigner(net, bell_stabilizer(field, label))
    return tuple(_slot_values(grid, bell_orbits(field)).values())


def classify_bell_parameters(params) -> str:
    """'concentrated' for {1/4, 0, 0, 0}, 'spread' for {1/8, 1/8, 1/8, -1/8}."""
    key = tuple(sorted(params, reverse=True))
    if key == (Fraction(1, 4), 0, 0, 0):
        return "concentrated"
    if key == (Fraction(1, 8),) * 3 + (Fraction(-1, 8),):
        return "spread"
    raise InconsistentStabilizer(f"unexpected Bell pattern {params}")


def bell_survey(field: GF2Field | None = None) -> dict:
    """Classify the Bell-state Wigner functions over all 64 symmetric nets.

    Checks, for every net and Bell state: constancy on orbits, the linear
    system a+b+c+d = 1/4 with the eigenvalue conditions, and the
    orthogonality constraint ab + cd = 0.  Returns the pattern counts.
    """
    field = field or bell_field()
    groups = {label: bell_stabilizer(field, label) for label in BELL_LABELS}
    orbits = bell_orbits(field)
    counts = {"concentrated": 0, "spread": 0}
    for net in bell_symmetric_nets(field):
        for label, group in groups.items():
            a, b, c, d = _slot_values(stabilizer_wigner(net, group), orbits).values()
            if a + b + c + d != Fraction(1, 4):
                raise InconsistentStabilizer("normalization violated")
            s1, s2 = _BELL_SIGNS[label]
            if a + b - c - d != Fraction(s1, 4) or a + c - b - d != Fraction(s2, 4):
                raise InconsistentStabilizer("eigenvalue conditions violated")
            if a * b + c * d != 0:
                raise InconsistentStabilizer("orthogonality condition violated")
            counts[classify_bell_parameters((a, b, c, d))] += 1
    return counts


# -- three-qubit phase-error code (n = 3) -----------------------------------------


def qec_field() -> GF2Field:
    return field_new(3)


def qec_net(field: GF2Field | None = None) -> QuantumNet:
    """The covariant net assigning Z_1 |lambda_0> to the main diagonal ray,
    where |lambda_0> is the all-+1 eigenstate of the ray generators."""
    return build_net(field or qec_field(), "covariant", {0: (1, -1, 1)})


def qec_stabilizer_generators(field: GF2Field):
    """(S1, S2, Z_L): two X-string stabilizer generators at horizontal
    displacements w^6 and w^5, and the logical Z string at p = w^3: the
    paper's +IXX, +XXI, +ZZZ on qec_field() only, so any other field (where
    it is another code) raises FieldMismatch; see logical_group."""
    if field != qec_field():
        raise FieldMismatch(f"the generator layout holds on {qec_field()} only, not {field}")
    s1 = translation_for(to_binary(field, PhasePoint(field.pow_omega(6), 0)))
    s2 = translation_for(to_binary(field, PhasePoint(field.pow_omega(5), 0)))
    zl = translation_for(to_binary(field, PhasePoint(0, field.pow_omega(3))))
    return s1, s2, zl


def logical_group(field: GF2Field, which: int) -> StabilizerGroup:
    """Stabilizer group of |0_L> (which = 0) or |1_L> (which = 1) on field.

    The generators are the paper's +IXX, +XXI, +ZZZ: placed at w^6, w^5 and
    w^3 of qec_field(), where that layout holds, then carried as the same
    Pauli strings into field, since translations do not depend on the
    polynomial."""
    s1, s2, zl = qec_stabilizer_generators(qec_field())
    return StabilizerGroup.from_generators(
        field, [(s1, 1), (s2, 1), (zl, 1 if which == 0 else -1)]
    )


def logical_state(field: GF2Field, which: int) -> np.ndarray:
    """Dense logical basis vector; |1_L> = X_L |0_L> with X_L = X0 X1 X2."""
    import numpy as np

    v0 = np.asarray(logical_group(field, 0).state())
    if which == 0:
        return v0
    return to_matrix(translation(field.n, (1 << field.n) - 1, 0)) @ v0


def encode(field: GF2Field, alpha: complex, beta: complex) -> np.ndarray:
    """Encoded state alpha |0_L> + beta |1_L>, normalized."""
    import numpy as np

    v = alpha * logical_state(field, 0) + beta * logical_state(field, 1)
    return v / np.linalg.norm(v)


def qec_slots(field: GF2Field) -> dict[str, list[int]]:
    """Parameter letter -> the 8 flat grid indices (qbits << n) | pbits
    sharing its value: the orbits under |0_L>'s stabilizer group of the
    paper's representatives a (0, 0), b (1, 0), c (0, w^5), d (1, w^5),
    e (0, 1), f (1, 1), g (0, w) and h (1, w), taken in qec_field()'s binary
    coordinates, where logical_group places the paper's strings."""
    paper = qec_field()
    ps = [paper.p_to_bits(p) for p in (0, paper.pow_omega(5), 1, paper.pow_omega(1))]
    cells = [(q << paper.n) | pb for pb in ps for q in (0, 1)]
    return dict(zip("abcdefgh", symmetry_orbits(logical_group(field, 0), cells)))


def grid_parameters(field: GF2Field, grid: WignerGrid) -> dict[str, object]:
    """Extract the eight slot parameters from a logical-state grid, checking
    that the grid is constant on every slot."""
    return _slot_values(grid, qec_slots(field))


def grid_from_parameters(field: GF2Field, params: dict) -> WignerGrid:
    """Build the 8 x 8 grid realizing given slot parameters."""
    flat = [None] * (field.N * field.N)
    for letter, cells in qec_slots(field).items():
        for i in cells:
            flat[i] = params[letter]
    return WignerGrid.from_rationals(field, flat)


def code_solution_family() -> list[dict[str, Fraction]]:
    """Exactly solve the self-consistency system for logical-state grids.

    The constraints are: normalization, eigenvalue +1 of S1, S2 and Z_L,
    orthogonality of the grids translated by the correctable errors Z0, Z1,
    Z2, purity, and non-negativity of all line sums.  The last condition
    forces b = 1/8 - a, d = -c, f = -e, h = -g, after which the system is

        a + c + e + g = 1/8,
        2ae + 2cg = e/8,    2ac + 2eg = c/8,    2ag + 2ce = g/8,
        c^2 + e^2 + g^2 = a/8 - a^2.

    On the Klein group Z_2^2, with x = (a, c, e, g) at 00, 01, 10, 11, this
    is x * x = x/8 (convolution) and sum(x) = 1/8.  The Walsh-Hadamard
    transform turns the convolution into a pointwise product, so each
    transform value is 0 or 1/8, and the first is sum(x) = 1/8.  That leaves
    eight solutions x = H(xhat)/4, all exact.
    """
    family = []
    for rest in product((0, Fraction(1, 8)), repeat=3):
        a, c, e, g = (x / 4 for x in walsh_hadamard([Fraction(1, 8), *rest]))
        family.append({"a": a, "c": c, "e": e, "g": g,
                       "b": Fraction(1, 8) - a, "d": -c, "f": -e, "h": -g})
    family.sort(key=lambda p: (p["a"], p["c"], p["e"], p["g"]))
    return family


def covariant_code_solutions(field: GF2Field | None = None) -> list[dict]:
    """Parameter sets of |0_L> realized by the eight covariant nets (the
    h/v-standard nets with free main-diagonal signs); four are distinct."""
    field = field or qec_field()
    grp, slots = logical_group(field, 0), qec_slots(field)
    seen = {}
    for sg in product((1, -1), repeat=field.n):
        net = build_net(field, "covariant", {0: sg})
        params = _slot_values(stabilizer_wigner(net, grp), slots)
        seen[tuple(params[k] for k in "abcdefgh")] = params
    return [seen[k] for k in sorted(seen)]


def logical_f_functions(alpha: complex, beta: complex) -> tuple[float, ...]:
    """The four real functions determining the Wigner function of a general
    encoded state alpha |0_L> + beta |1_L| in the q = 0 column."""
    import numpy as np

    aa, bb = abs(alpha) ** 2, abs(beta) ** 2
    cross = alpha * np.conj(beta)
    f1 = (aa + 3 * bb + (2 + 1j) * cross + (2 - 1j) * np.conj(cross)) / 32
    f2 = (aa - bb + 1j * (cross - np.conj(cross))) / 32
    f3 = (aa - bb - 1j * (cross - np.conj(cross))) / 32
    f4 = (aa + 3 * bb - (2 + 1j) * cross - (2 - 1j) * np.conj(cross)) / 32
    return tuple(float(v.real) for v in (f1, f2, f3, f4))


def logical_first_columns(field: GF2Field, alpha: complex, beta: complex) -> dict:
    """Closed-form Wigner values on the columns q = 0 and q = 1 (preset net).

    The q = 0 column is given by f1..f4 of (alpha, beta); the q = 1 column by
    the same functions with the arguments swapped.  Rows map to function
    indices as p = 0 -> f1, p = w^3 -> f4, p in {1, w^4, w^5} -> f2 and
    p in {w, w^2, w^6} -> f3.  The remaining columns follow from the S1, S2
    symmetry (every q-class member repeats its class column).  A field
    other than qec_field() raises FieldMismatch: no row layout fits there.
    """
    if field != qec_field():
        raise FieldMismatch(f"the closed form holds on {qec_field()} only, not {field}")
    w = field.pow_omega
    row_fn = {0: 0, w(3): 3}
    row_fn |= {p: 1 for p in (w(0), w(4), w(5))}
    row_fn |= {p: 2 for p in (w(1), w(2), w(6))}
    out = {}
    for q, fs in ((0, logical_f_functions(alpha, beta)),
                  (1, logical_f_functions(beta, alpha))):
        for p, idx in row_fn.items():
            out[(q, field.p_to_bits(p))] = fs[idx]
    return out


def encoded_wigner(net: QuantumNet, alpha: complex, beta: complex) -> WignerGrid:
    """Dense Wigner grid of the encoded state alpha |0_L> + beta |1_L>."""
    return wigner_of(net, state_density(encode(net.field, alpha, beta)))


# -- the mean king problem (n = 2) -------------------------------------------------


def mean_king_net(field: GF2Field | None = None) -> QuantumNet:
    """The covariant net of the retrodiction protocol: vertical lines carry
    computational states, horizontal lines X-basis states, and the main
    diagonal the Y-basis state |01>_y."""
    return build_net(field or bell_field(), "covariant", {0: (1, -1)})


# striation label per announced observable
KING_STRIATIONS = {"z": VERTICAL, "x": HORIZONTAL, "y": 0}


def king_lines(field: GF2Field, observable: str):
    """The two lines of the observable's striation supporting |Phi_+>;
    returned as (line_1, line_2) = (offset w^2, through the origin)."""
    st = striation(field, KING_STRIATIONS[observable])
    w2 = field.pow_omega(2)
    one = next(line for line in st.lines if line.c == w2)
    two = next(line for line in st.lines if line.c == 0)
    return one, two


def mean_king_basis(net: QuantumNet) -> list[np.ndarray]:
    """The orthonormal basis [phi_1..phi_4] measured by the physicist.

    phi_1 is the state orthogonal to the three line states h_1, v_1 and d_1;
    the rest are its translates under Z0 Z1, Y0 Y1 and X0 X1.
    """
    import numpy as np

    field = net.field
    ortho = [line_state(net, king_lines(field, o)[0]) for o in ("x", "z", "y")]
    _, sv, vh = np.linalg.svd(np.array(ortho).conj())
    if sv[-1] < IDENTITY_ATOL:
        raise AmbiguousInference("the three line states are linearly dependent")
    phi1 = fix_phase(vh[-1].conj())
    w2 = field.pow_omega(2)
    displacements = [(0, w2), (w2, w2), (w2, 0)]
    basis = [phi1]
    for dq, dp in displacements:
        T = to_matrix(translation_for(to_binary(field, PhasePoint(dq, dp))))
        basis.append(fix_phase(T @ phi1))
    return basis


def mean_king_grid(net: QuantumNet) -> WignerGrid:
    """Dense Wigner grid of phi_1."""
    return wigner_of(net, state_density(mean_king_basis(net)[0]))


def mean_king_line_sums(net: QuantumNet) -> dict:
    """Sums of W(phi_1) along every line, keyed by (observable, line index):
    index 1 is the line whose state is orthogonal to phi_1 (sum 0), index 2
    the other support line of |Phi_+> (sum 1/2), 3 and 4 the rest (sum 1/4)."""
    field = net.field
    grid = mean_king_grid(net)
    w2 = field.pow_omega(2)
    sums = {}
    for obs in ("x", "z", "y"):
        st = striation(field, KING_STRIATIONS[obs])
        order = {w2: 1, 0: 2}
        rest = iter((3, 4))
        for line in st.lines:
            idx = order.get(line.c) or next(rest)
            sums[(obs, idx)] = grid.line_sum(line)
    return sums


def infer_king_outcome(net: QuantumNet, basis: list[np.ndarray], result: int,
                       observable: str) -> int:
    """Retrodict the king's outcome from the physicist's measurement result.

    The outcome is the support line (1 or 2) of the announced observable whose
    line state is *not* orthogonal to basis[result].  Raises
    AmbiguousInference unless exactly one line qualifies.
    """
    import numpy as np

    field = net.field
    phi = basis[result]
    consistent = [
        idx
        for idx, line in enumerate(king_lines(field, observable), start=1)
        if abs(np.vdot(line_state(net, line), phi)) > INPUT_ATOL
    ]
    if len(consistent) != 1:
        raise AmbiguousInference(
            f"{len(consistent)} outcomes consistent with result {result}"
        )
    return consistent[0]


def mean_king_simulate(net: QuantumNet, basis: list[np.ndarray] | None = None) -> float:
    """Play every branch of the protocol exhaustively; return the success
    probability of the retrodiction (1.0 for the phi basis)."""
    import numpy as np

    field = net.field
    basis = basis if basis is not None else mean_king_basis(net)
    initial = bell_state("phi_plus")
    success = 0.0
    for observable in ("x", "y", "z"):
        for idx, line in enumerate(king_lines(field, observable), start=1):
            ls = line_state(net, line)
            p_line = abs(np.vdot(ls, initial)) ** 2
            if p_line < IDENTITY_ATOL:
                continue
            for result, phi in enumerate(basis):
                p_result = abs(np.vdot(phi, ls)) ** 2
                if p_result < IDENTITY_ATOL:
                    continue
                guess = infer_king_outcome(net, basis, result, observable)
                if guess == idx:
                    success += p_line * p_result / 3
    return success
