"""Worked applications of the discrete phase space: Bell states (n = 2), the
three-qubit phase-error code (n = 3), and the mean king retrodiction problem
(n = 2).

Every result is produced by two independent routes where possible: exact
rational arithmetic via the stabilizer closed form, and dense numerics via the
characteristic function (wigner.wigner_of).  The application-specific constants are solved from first
principles rather than hard-coded: the Bell orbits and the code's eight slots
are the orbits of the paper's representatives under the state's stabilizer
group (wigner.symmetry_orbits), and the code's parameter system is solved in
closed form.  The Bell survey reads its exact grids as integer numerators
over 16, and fractions is imported only by code_solution_family, the one
function here that makes a Fraction.

State vectors are tuples of Python complex numbers, as in every module,
and a caller's amplitudes (encode, logical_f_functions) and measurement
basis (mean_king_simulate) are read by errors.need_numbers.
The mean king is exact: phi_1 is a vector of Gaussian-integer cofactors of
three line states, pauli.translate moves it to the rest of the basis, and
its grid is a dyadic density through wigner.wigner_of.  numpy is imported by
_meanking_phi1_grid alone, the whole route of the meanking_phi1 preset
(an SVD phi_1 and per-point traces), whose float noise that preset
prints.  The retrodiction reads one table of |<line|phi_r>| per announced
observable, in plain Python, and refuses a basis that is not four
orthonormal 4-vectors.
"""

from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING

from .errors import (AmbiguousInference, FieldMismatch, InconsistentStabilizer, MalformedInput,
                     need_field, need_length, need_norm, need_numbers)
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
    parse_pauli,
    translate,
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
    from fractions import Fraction

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


def _slot_entries(grid: WignerGrid, slots: dict[str, list[int]]) -> dict:
    """The grid's flat entry on each named set of flat indices (a numerator
    over grid.den on an exact grid); it must be constant on every set."""
    entries = {}
    for name, cells in slots.items():
        values = set(map(grid.flat.__getitem__, cells))
        if len(values) != 1:
            raise InconsistentStabilizer(f"grid not constant on slot {name}")
        (entries[name],) = values
    return entries


def _slot_values(grid: WignerGrid, slots: dict[str, list[int]]) -> dict:
    """The grid's value on each named set (_slot_entries): a Fraction on an
    exact grid."""
    return {name: grid._at(slots[name][0]) for name in _slot_entries(grid, slots)}


def bell_parameters(net: QuantumNet, label: str) -> tuple[Fraction, ...]:
    """Exact orbit values (a, b, c, d) of one Bell state's Wigner function."""
    field = net.field
    grid = stabilizer_wigner(net, bell_stabilizer(field, label))
    return tuple(_slot_values(grid, bell_orbits(field)).values())


def _bell_pattern(sixteenths) -> str:
    """The pattern of four orbit values given in sixteenths: 'concentrated'
    for {4, 0, 0, 0}, 'spread' for {2, 2, 2, -2}."""
    key = sorted(sixteenths, reverse=True)
    if key == [4, 0, 0, 0]:
        return "concentrated"
    if key == [2, 2, 2, -2]:
        return "spread"
    raise InconsistentStabilizer(
        f"unexpected Bell pattern ({', '.join(map(str, sixteenths))}) / 16")


def classify_bell_parameters(params) -> str:
    """'concentrated' for {1/4, 0, 0, 0}, 'spread' for {1/8, 1/8, 1/8, -1/8}:
    _bell_pattern of the values times 16."""
    return _bell_pattern([16 * p for p in params])


def bell_survey(field: GF2Field | None = None) -> dict:
    """Classify the Bell-state Wigner functions over all 64 symmetric nets.

    Every grid's flat entries are integer numerators over N^2 = 16, and the
    checks read them as they are, with no Fraction: for every net and Bell
    state, constancy on the four orbits (a, b, c, d), a+b+c+d = 4 (the
    normalisation 1/4), the eigenvalue conditions a+b-c-d = 4 s_1 and
    a+c-b-d = 4 s_2, and the orthogonality constraint ab + cd = 0; then
    _bell_pattern.  Returns the pattern counts.
    """
    field = field or bell_field()
    groups = {label: bell_stabilizer(field, label) for label in BELL_LABELS}
    orbits = bell_orbits(field)
    counts = {"concentrated": 0, "spread": 0}
    for net in bell_symmetric_nets(field):
        for label, group in groups.items():
            a, b, c, d = _slot_entries(stabilizer_wigner(net, group), orbits).values()
            if a + b + c + d != 4:
                raise InconsistentStabilizer("normalization violated")
            s1, s2 = _BELL_SIGNS[label]
            if a + b - c - d != 4 * s1 or a + c - b - d != 4 * s2:
                raise InconsistentStabilizer("eigenvalue conditions violated")
            if a * b + c * d != 0:
                raise InconsistentStabilizer("orthogonality condition violated")
            counts[_bell_pattern((a, b, c, d))] += 1
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


def logical_state(field: GF2Field, which: int) -> tuple[complex, ...]:
    """Logical basis vector; |1_L> = X_L |0_L> with X_L = X0 X1 X2, which
    complements every bit: |0_L> in reverse basis order."""
    v0 = logical_group(field, 0).state()
    return v0 if which == 0 else v0[::-1]


_ENCODED = "an encoded state alpha |0_L> + beta |1_L>"


def encode(field: GF2Field, alpha: complex, beta: complex) -> tuple[complex, ...]:
    """Encoded state alpha |0_L> + beta |1_L>, normalized; MalformedInput
    unless alpha and beta are numbers (errors.need_numbers) and the state
    has a finite nonzero norm (errors.need_norm)."""
    alpha, beta = need_numbers((alpha, beta), _ENCODED)
    v0 = logical_state(field, 0)
    v = [alpha * z0 + beta * z1 for z0, z1 in zip(v0, v0[::-1])]
    norm = need_norm(v, _ENCODED)
    return tuple(complex(z.real / norm, z.imag / norm) for z in v)


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
    from fractions import Fraction

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
    encoded state alpha |0_L> + beta |1_L| in the q = 0 column; MalformedInput
    unless alpha and beta are numbers with a finite nonzero norm (errors.need_norm)."""
    alpha, beta = need_numbers((alpha, beta), _ENCODED)
    need_norm((alpha, beta), _ENCODED)
    aa, bb = abs(alpha) ** 2, abs(beta) ** 2
    cross = alpha * beta.conjugate()
    f1 = (aa + 3 * bb + (2 + 1j) * cross + (2 - 1j) * cross.conjugate()) / 32
    f2 = (aa - bb + 1j * (cross - cross.conjugate())) / 32
    f3 = (aa - bb - 1j * (cross - cross.conjugate())) / 32
    f4 = (aa + 3 * bb - (2 + 1j) * cross - (2 - 1j) * cross.conjugate()) / 32
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
    returned as (line_1, line_2) = (offset w^2, through the origin), from
    places 3 and 0 of the striation (line c != 0 is at 1 + log c)."""
    lines = striation(field, KING_STRIATIONS[observable]).lines
    return lines[3], lines[0]


def _det3(rows, cols) -> complex:
    """The determinant of the three rows restricted to the three columns cols."""
    (a, b, c), (d, e, f), (g, h, i) = ([row[k] for k in cols] for row in rows)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _king_vector(net: QuantumNet) -> tuple[complex, ...]:
    """x, phi_1 up to norm and phase: the signed 3 x 3 cofactors of the
    conjugated line states h_1, v_1 and d_1, each first divided by its
    largest-modulus entry, which leaves entries in {0, +-1, +-i}.  So x has
    Gaussian-integer entries, exact as Python complex; <u|x> is a 4 x 4
    determinant with a repeated row, exactly 0 for each of the three states
    u; and x = 0 exactly when they are linearly dependent, which raises
    AmbiguousInference.  A net on another field than bell_field() raises
    FieldMismatch."""
    field = need_field(net=net)
    if field != bell_field():
        raise FieldMismatch(f"the mean king is played on {bell_field()} only, not {field}")
    rows = []
    for observable in ("x", "z", "y"):
        u = line_state(net, king_lines(field, observable)[0])
        top = max(u, key=abs)
        rows.append([(z / top).conjugate() for z in u])
    x = tuple((-1) ** j * _det3(rows, [k for k in range(4) if k != j]) for j in range(4))
    if not any(x):
        raise AmbiguousInference("the three line states are linearly dependent")
    return x


def mean_king_basis(net: QuantumNet) -> list[tuple[complex, ...]]:
    """The orthonormal basis [phi_1..phi_4] measured by the physicist, as
    tuples: phi_1 is the state orthogonal to the line states h_1, v_1 and
    d_1, the rest its translates under Z0 Z1, Y0 Y1 and X0 X1.  The exact
    vector x (_king_vector) and its translates are each phase-fixed, then
    divided by |x|.  AmbiguousInference unless they are orthonormal to
    IDENTITY_ATOL (on some nets phi_1 is a Bell state the translates keep)."""
    x = _king_vector(net)
    norm = math.sqrt(_inner(x, x).real)
    basis = [tuple(z / norm for z in fix_phase(v)) for v in (
        x, *(translate(parse_pauli(s), x) for s in ("ZZ", "YY", "XX")))]
    if not _orthonormal(basis, IDENTITY_ATOL):
        raise AmbiguousInference("phi_1 and its translates are not an orthonormal basis")
    return basis


def mean_king_grid(net: QuantumNet) -> WignerGrid:
    """Dense Wigner grid of phi_1: rho = state_density(x) (_king_vector).
    On mean_king_net <x|x> = 8, so every entry of rho is dyadic and every
    cell exactly a multiple of 1/16."""
    return wigner_of(net, state_density(_king_vector(net)))


def _meanking_phi1_grid(net: QuantumNet) -> WignerGrid:
    """The meanking_phi1 preset's grid by its frozen numpy route, whose
    float noise (8 of 16 cells on the default net) the printed shades and
    the golden digest record: numpy's SVD phi_1 on mean_king_net (fixed
    line states), phase-fixed, normalised, rho = np.outer, and each cell
    Tr(rho @ A(alpha)) on net.  It goes, with its own imports, with the
    preset (ROADMAP direction 1).  Another field raises FieldMismatch first."""
    field = need_field(net=net)
    if field != bell_field():
        raise FieldMismatch("meanking_phi1 needs --n 2")
    import numpy as np

    from .errors import InvalidDensityMatrix
    from .pauli import _phase_factor
    from .wigner import all_points, check_density_matrix, point_operator

    king = mean_king_net(field)
    ortho = [line_state(king, king_lines(field, o)[0]) for o in ("x", "z", "y")]
    v = np.linalg.svd(np.array(ortho).conj())[2][-1].conj()
    v = v * _phase_factor(v)
    v = v / np.linalg.norm(v)
    rho = check_density_matrix(np.outer(v, v.conj()), field.n)
    flat = []
    for alpha in all_points(field):  # by flat index
        w = np.trace(rho @ point_operator(net, alpha))
        if abs(w.imag) > INPUT_ATOL:
            raise InvalidDensityMatrix(f"complex Wigner value {w} at {alpha}")
        flat.append(float(w.real))
    return WignerGrid(field, tuple(flat))


def mean_king_line_sums(net: QuantumNet) -> dict:
    """Sums of W(phi_1) along every line, keyed by (observable, line index):
    index 1 is the line whose state is orthogonal to phi_1 (sum 0), index 2
    the other support line of |Phi_+> (sum 1/2), 3 and 4 the rest (sum 1/4)."""
    field = net.field
    grid = mean_king_grid(net)
    sums = {}
    for obs in ("x", "z", "y"):
        support = king_lines(field, obs)
        rest = [ln for ln in striation(field, KING_STRIATIONS[obs]).lines if ln not in support]
        for idx, line in enumerate((*support, *rest), start=1):
            sums[(obs, idx)] = grid.line_sum(line)
    return sums


def _inner(u, v) -> complex:
    """<u|v> of two sequences of numbers."""
    return sum(a.conjugate() * b for a, b in zip(u, v))


def _orthonormal(basis, atol: float) -> bool:
    """Whether each entry of basis's Gram matrix is within atol of I's."""
    return all(abs(_inner(u, v) - (i == j)) <= atol
               for i, u in enumerate(basis) for j, v in enumerate(basis))


def _measurement_basis(basis) -> list[list[complex]]:
    """basis as 4 rows of 4 Python complex numbers (errors.need_numbers), if
    it reads as that and its Gram matrix is within INPUT_ATOL of I; else
    MalformedInput."""
    what = "a mean king basis"
    rows = [need_numbers(v, what) for v in need_length(basis, 4, what)]
    if list(map(len, rows)) == [4] * 4 and _orthonormal(rows, INPUT_ATOL):
        return rows
    raise MalformedInput(f"{what} is 4 orthonormal vectors of 4 complex numbers")


def mean_king_simulate(net: QuantumNet, basis=None) -> float:
    """Play every branch of the protocol exhaustively; return the success
    probability of the retrodiction (1.0 for the phi basis).  Per observable
    one table holds |<line|phi_r>| for its two support lines (king_lines):
    result r names the line not orthogonal to phi_r, and AmbiguousInference
    is raised unless a result that can occur names exactly one, or unless
    the two lines' probabilities sum to 1 within IDENTITY_ATOL.  A basis
    that is not 4 orthonormal 4-vectors raises MalformedInput."""
    field = need_field(net=net)
    basis = mean_king_basis(net) if basis is None else _measurement_basis(basis)
    initial = bell_stabilizer(field, "phi_plus").state()
    success = 0.0
    for observable in ("x", "y", "z"):
        states = [line_state(net, line) for line in king_lines(field, observable)]
        p_lines = [abs(_inner(ls, initial)) ** 2 for ls in states]
        if abs(sum(p_lines) - 1) > IDENTITY_ATOL:
            raise AmbiguousInference(f"|Phi_+> is off the two lines of observable {observable}")
        table = [[abs(_inner(phi, ls)) for phi in basis] for ls in states]
        for idx, (p_line, row) in enumerate(zip(p_lines, table)):
            for result, overlap in enumerate(row):
                if p_line < IDENTITY_ATOL or overlap ** 2 < IDENTITY_ATOL:
                    continue  # a branch that cannot occur
                consistent = [k for k, t in enumerate(table) if t[result] > INPUT_ATOL]
                if consistent != [idx]:
                    raise AmbiguousInference(
                        f"{len(consistent)} outcomes consistent with result {result}")
                success += p_line * overlap ** 2 / 3
    return success
