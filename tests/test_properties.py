"""Property tests: the fast routes against the per-point and dense references.

States are random graph states (generator i is X_i or Y_i times Z on each
neighbour of i) with random signs; nets are random independent sign vectors,
or covariant nets derived from random h, v and 0 sign vectors.  Each n >= 3
is drawn with its default polynomial or one other primitive one.
"""

import json
import math
import random
from fractions import Fraction
from functools import reduce
from operator import xor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from gfwigner import apps
from gfwigner.cli import check_rows, export_grid, import_grid
from gfwigner.errors import (DimensionTooLarge, GfwignerError, MalformedInput,
                             NonCommutingGenerators)
from gfwigner.galois import PRIMITIVE_POLYS, field_new
from gfwigner.net import (QuantumNet, build_net, conjugate_by_u_omega, line_state, mub_bases,
                          mub_overlap_report, net_from_json)
from gfwigner.pauli import (
    IDENTITY_ATOL,
    PauliTranslation,
    commutes,
    compose,
    parse_pauli,
    pauli_sum,
    to_matrix,
    translate,
    translation,
)
from gfwigner.phasespace import (BinaryPoint, HORIZONTAL, VERTICAL, all_striations, from_binary,
                                  ray_through, striation_labels, wedge)
from gfwigner.wigner import (
    StabilizerGroup,
    WignerGrid,
    all_points,
    expectation_translation,
    point_operator,
    purity_identity_residual,
    reconstruct,
    stabilizer_wigner,
    stabilizer_wigner_value,
    symmetry_orbits,
    wigner_of,
)
from oracles import (
    a0_from_projectors,
    class_points,
    covariant_signs_dense,
    covariant_signs_solve,
    export_grid_cells,
    grid_rows,
    group_elements_compose,
    group_sign_compose,
    mub_bases_per_line,
    mub_overlap_report_dense,
    pauli_sum_dense,
    point_operator_conjugation,
    projector_to_state,
    purity_identity_residual_loop,
    ray_projector,
    solve_gf2,
    stabilizer_elements_doubling,
    stabilizer_projector_loop,
    stabilizer_wigner_transform,
    to_matrix_kron,
    wigner_of_chi,
    wigner_of_loop,
)

PROPERTY = settings(max_examples=10, deadline=None)


def other_primitive_poly(n: int) -> int:
    """The smallest primitive polynomial of degree n other than the default."""
    for poly in range((1 << n) | 1, 1 << (n + 1), 2):
        if poly == PRIMITIVE_POLYS[n]:
            continue
        try:
            field_new(n, poly)
        except GfwignerError:
            continue
        return poly
    raise AssertionError(f"no second primitive polynomial of degree {n}")


OTHER_POLY = {n: other_primitive_poly(n) for n in range(3, 11)}


@st.composite
def fields(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    poly = draw(st.sampled_from([None, OTHER_POLY[n]])) if n >= 3 else None
    return field_new(n, poly)


@st.composite
def graph_states(draw, field):
    n = field.n
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = draw(st.booleans())
    gens = []
    for i in range(n):
        b = sum(1 << j for j in range(n) if adj[i][j])
        if draw(st.booleans()):
            b |= 1 << i  # Y_i in place of X_i
        gens.append((translation(n, 1 << i, b), draw(st.sampled_from((1, -1)))))
    return StabilizerGroup.from_generators(field, gens)


def sign_vectors(n):
    return st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(tuple)


@st.composite
def independent_nets(draw, field):
    signs = {label: draw(sign_vectors(field.n)) for label in striation_labels(field)}
    return QuantumNet(field, signs)


@st.composite
def covariant_nets(draw, field):
    seeds = {label: draw(sign_vectors(field.n)) for label in ("h", "v", 0)}
    return build_net(field, "covariant", seeds)


def nets(field):
    """An independent net, or a covariant one from drawn h, v and 0 signs."""
    return st.one_of(independent_nets(field), covariant_nets(field))


@st.composite
def densities(draw, field):
    """rho = G G^dagger / Tr, G a complex Gaussian N x rank, rank drawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, field.N))
    g = rng.normal(size=(field.N, rank)) + 1j * rng.normal(size=(field.N, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def check_grid_against_closed_form(data, field):
    net = data.draw(independent_nets(field))
    group = data.draw(graph_states(field))
    grid = stabilizer_wigner(net, group)
    assert grid.exact
    for alpha in all_points(field):
        got = grid.value(alpha)
        assert isinstance(got, Fraction)
        assert got == stabilizer_wigner_value(net, group, alpha)


@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_stabilizer_grid_equals_pointwise_closed_form(data):
    check_grid_against_closed_form(data, data.draw(fields(5)))


@settings(PROPERTY, max_examples=1)
@given(st.data())
def test_stabilizer_grid_equals_pointwise_closed_form_n6(data):
    # one example: the pointwise reference costs N^3 terms, about 1 s at n = 6
    check_grid_against_closed_form(data, data.draw(fields(6, min_n=6)))


@PROPERTY
@given(st.data())
def test_purity_residual_exact_grids_match_loop(data):
    # n <= 3: the Fraction reference loop costs N^4 terms, about 0.7 s at n = 4
    field = data.draw(fields(3))
    net = data.draw(independent_nets(field))
    pure = stabilizer_wigner(net, data.draw(graph_states(field)))
    other = stabilizer_wigner(net, data.draw(graph_states(field)))
    weight = Fraction(data.draw(st.integers(0, 6)), 6)
    mixed = WignerGrid.from_rationals(field, [
        weight * u + (1 - weight) * v
        for u, v in zip(pure.values.values(), other.values.values())])
    got = purity_identity_residual(net, mixed)
    assert isinstance(got, Fraction)
    assert got == purity_identity_residual_loop(mixed)
    assert purity_identity_residual(net, pure) == 0


@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@PROPERTY
@given(st.data())
def test_point_operator_equals_the_conjugation(net_kind, data):
    # A(alpha), one Pauli sum, equals T A(0) T^dagger by dense products, on one
    # drawn row of N points (up to the sign of zeros, which array_equal
    # ignores)
    field = data.draw(fields(6))
    net = data.draw(net_kind(field))
    qbits = data.draw(st.integers(0, field.N - 1))
    for pbits in range(field.N):
        alpha = BinaryPoint(qbits, pbits, field.n)
        assert np.array_equal(point_operator(net, alpha), point_operator_conjugation(net, alpha))


def line_projectors_row(net):
    """verify's wigner.line_projectors row, on net in place of the covariant
    net that check_rows builds."""
    with mock.patch("gfwigner.net.build_net", lambda field, mode: net):
        return {name: check for _, name, check in check_rows(net.field)}[
            "wigner.line_projectors"]


@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@PROPERTY
@given(st.data())
def test_line_projectors_row_catches_swapped_rows_and_a_perturbed_chi(net_kind, data):
    # the row checks each line state against its ray's n generators: it
    # passes on a net's own bases, fails on two rows of one striation
    # swapped, and fails when N chi on one ray member is off by 1e-6
    field = data.draw(fields(5))
    net = data.draw(net_kind(field))
    row = line_projectors_row(net)
    row()
    label = data.draw(st.sampled_from(striation_labels(field)))
    i, j = sorted(data.draw(st.lists(st.integers(0, field.N - 1), min_size=2, max_size=2,
                                     unique=True)))
    rows = list(net.basis(label))
    rows[i], rows[j] = rows[j], rows[i]
    basis = net.basis
    with mock.patch.object(net, "basis", lambda lab: tuple(rows) if lab == label else basis(lab)):
        with pytest.raises(AssertionError, match=f"^line {i} of striation {label}: its sum is off "):
            row()
    # N chi(beta) + 1e-6 is Tr(A T_beta) for A = A(0) + 1e-6 N^-2 T_beta
    beta = data.draw(st.integers(1, field.N ** 2 - 1))
    bump = pauli_sum(field.n, [1e-6 / field.N ** 2 * (k == beta) for k in range(field.N ** 2)])
    a0 = tuple(tuple(map(complex.__add__, r, s)) for r, s in zip(net.a0_matrix(), bump))
    with mock.patch.object(net, "a0_matrix", lambda: a0):
        with pytest.raises(AssertionError, match="N chi on its ray is off its group's signs by") as e:
            row()
    assert abs(float(str(e.value).rsplit(" ", 1)[1]) - 1e-6) < 1e-12


# wigner_of (through chi) and the per-point loop Tr(rho A(alpha)) both sum in
# float64, in different orders: over 600 Ginibre draws at n = 1..5, where
# |W| <= 1/2, they differed by at most 2.2e-16, one unit in the last place of
# the largest values
CHI_LOOP_ATOL = 1e-15


@PROPERTY
@given(st.data())
def test_wigner_of_equals_the_chi_oracle_bit_for_bit(data):
    # the exported float text follows the bits of the chi route, signed zeros
    # included (basis states have exact zeros), for an array or rows of
    # Python complex numbers, and for a rho hermitian only to 1e-13, as a
    # file may hold; the loop agrees within CHI_LOOP_ATOL, so each cell it
    # puts beyond that bound keeps its sign
    field = data.draw(fields(5))
    net = data.draw(nets(field))
    rho = data.draw(densities(field) | st.integers(0, field.N - 1).map(
        lambda k: np.diag(np.eye(field.N, dtype=complex)[k])))
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rho = rho + 1e-13 * (rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape))
    grid = wigner_of(net, rho.tolist() if data.draw(st.booleans()) else rho)
    got = np.array(grid.flat)
    oracle = np.array(wigner_of_chi(net, rho).flat)
    assert np.array_equal(got.view(np.int64), oracle.view(np.int64))
    want = np.array(wigner_of_loop(net, rho).flat)
    assert np.abs(got - want).max() <= CHI_LOOP_ATOL
    big = np.abs(want) > CHI_LOOP_ATOL
    assert np.array_equal(np.sign(got[big]), np.sign(want[big]))


@PROPERTY
@given(st.data())
def test_purity_residual_dense_grids_match_loop(data):
    field = data.draw(fields(4))
    net = data.draw(independent_nets(field))
    rho = data.draw(densities(field))
    grid = wigner_of(net, rho)
    got = purity_identity_residual(net, grid)
    assert abs(got - purity_identity_residual_loop(grid)) < 1e-12
    if np.linalg.matrix_rank(rho) == 1:
        assert got < 1e-12


@PROPERTY
@given(st.data())
def test_reconstruct_inverts_wigner_of(data):
    field = data.draw(fields(5))
    net = data.draw(independent_nets(field))
    rho = data.draw(densities(field))
    assert np.abs(reconstruct(net, wigner_of(net, rho)) - rho).max() < 1e-10


@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@PROPERTY
@given(st.data())
def test_line_sums_equal_line_state_probabilities(net_kind, data):
    # the sum of W over a line is <psi|rho|psi> for the state psi that the
    # net assigns to the line, the vectors that `mub` exports
    field = data.draw(fields(4))
    net = data.draw(net_kind(field))
    rho = data.draw(densities(field))
    grid = wigner_of(net, rho)
    for striation in all_striations(field):
        for line in striation.lines:
            psi = np.asarray(line_state(net, line))
            assert abs(grid.line_sum(line) - (psi.conj() @ rho @ psi).real) < IDENTITY_ATOL


@PROPERTY
@given(st.data())
def test_expectation_translation_equals_trace(data):
    field = data.draw(fields(5))
    net = data.draw(independent_nets(field))
    rho = data.draw(densities(field))
    grid = wigner_of(net, rho)
    for beta in all_points(field):
        direct = np.trace(rho @ to_matrix(translation(field.n, beta.qbits, beta.pbits)))
        assert abs(expectation_translation(net, grid, beta) - direct.real) < 1e-10


@PROPERTY
@given(st.data())
def test_expectation_translation_on_stabilizer_grids_is_exact_g(data):
    # <T_beta> = g(beta) on S and 0 off S, as exact Fractions
    field = data.draw(fields(5))
    net = data.draw(independent_nets(field))
    group = data.draw(graph_states(field))
    grid = stabilizer_wigner(net, group)
    for beta in all_points(field):
        got = expectation_translation(net, grid, beta)
        assert isinstance(got, Fraction)
        assert got == group.elements.get((beta.qbits, beta.pbits), 0)


def axis_position(field, x: int) -> int:
    """Position of x on a displayed axis 0, 1, w, w^2, ..."""
    return 0 if x == 0 else field.log(x) + 1


@PROPERTY
@given(st.data())
def test_displayed_grids_agree_with_per_point_placement(data):
    field = data.draw(fields(5))
    N = field.N
    if data.draw(st.booleans()):
        net = data.draw(independent_nets(field))
        grid = stabilizer_wigner(net, data.draw(graph_states(field)))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grid = WignerGrid(field, rng.normal(size=N * N) / N)
    arr, rows = grid.as_array(), grid_rows(grid)
    back = import_grid(export_grid(grid, "json"))
    assert back.exact == grid.exact
    for alpha in all_points(field):
        value = grid.value(alpha)
        i = axis_position(field, alpha.qbits)
        j = axis_position(field, field.bits_to_p(alpha.pbits))
        assert arr[i, j] == float(value)
        assert rows[N - 1 - j][i] == value
        if grid.exact:
            assert back.value(alpha) == value
        else:
            assert abs(back.value(alpha) - value) < 1e-11


def test_ghz_grid_n8_is_normalised_pure_and_on_the_lattice():
    field = field_new(8)
    net = QuantumNet(field, {label: (1,) * 8 for label in striation_labels(field)})
    gens = [parse_pauli("+" + "X" * 8)] + [
        parse_pauli("+" + "I" * k + "ZZ" + "I" * (6 - k)) for k in range(7)
    ]
    grid = stabilizer_wigner(
        net, StabilizerGroup.from_generators(field, [(g, 1) for g in gens]))
    N = field.N
    values = list(grid.values.values())
    assert len(values) == N * N
    assert all(N * N % v.denominator == 0 for v in values)  # in (1/N^2) Z
    nums = [v.numerator * (N * N // v.denominator) for v in values]
    assert sum(nums) == N * N  # sum W = 1
    assert sum(x * x for x in nums) == N**3  # N sum W^2 = 1


def check_covariant_signs_against_dense(data, field):
    signs = {label: data.draw(sign_vectors(field.n)) for label in ("h", "v", 0)}
    assert build_net(field, "covariant", signs).signs == \
        covariant_signs_dense(field, signs)


@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_covariant_signs_equal_dense_conjugation(data):
    check_covariant_signs_against_dense(data, data.draw(fields(5)))


@settings(PROPERTY, max_examples=2)
@given(st.data())
def test_covariant_signs_equal_dense_conjugation_n6(data):
    # the dense oracle conjugates 62 projectors of size 64 x 64
    check_covariant_signs_against_dense(data, data.draw(fields(6, min_n=6)))


@settings(PROPERTY, max_examples=4)
@given(st.data())
def test_covariant_net_is_covariant_in_symbols(data):
    """f(U beta) = sigma(beta) f(beta), where U_w T_beta U_w^dagger =
    sigma(beta) T_(U beta), for a derived net beyond the dense range.

    h and v keep all +1 signs, the only ones U_w leaves invariant.  n = 7, 8
    check every nonzero beta through the whole f vector; n = 9, 10 check
    every point of h, v and three drawn diagonal rays, point by point.
    """
    field = data.draw(fields(10, min_n=7))
    net = build_net(field, "covariant", {0: data.draw(sign_vectors(field.n))})
    if field.n <= 8:
        f = net.f_vector()
        points = [(i >> field.n, i & (field.N - 1)) for i in range(1, len(f))]
        assert len(f) == field.N ** 2 and f[0] == 1
    else:
        rays = ["h", "v"] + data.draw(st.lists(
            st.integers(0, field.order - 1), min_size=3, max_size=3, unique=True))
        points = [pt for label in rays for pt in class_points(field, label)]
    for a, b in points:
        pushed = conjugate_by_u_omega(field, translation(field.n, a, b))
        sigma = 1 if pushed.phase_vs_canonical == 0 else -1
        beta = BinaryPoint(a, b, field.n)
        image = BinaryPoint(pushed.a, pushed.b, field.n)
        assert net.f(image) == sigma * net.f(beta)


@PROPERTY
@given(st.data())
def test_f_table_walk_equals_pointwise_f(data):
    # f_vector walks the rays' elements once; f reads one ray member per point
    field = data.draw(fields(6))
    net = data.draw(independent_nets(field))
    table = net.f_vector()
    assert len(table) == field.N * field.N and table[0] == 1
    assert net.f_vector() is table  # built once per net
    fresh = QuantumNet(field, net.signs)
    for i, value in enumerate(table):
        assert fresh.f(BinaryPoint(i >> field.n, i & (field.N - 1), field.n)) == value


# n = 1..5, each n >= 3 on its default polynomial and one other
FIELD_SPECS = [(n, None) for n in range(1, 6)] + [(n, OTHER_POLY[n]) for n in range(3, 6)]


@pytest.mark.parametrize("n, poly", FIELD_SPECS, ids=repr)
@settings(PROPERTY, max_examples=4)
@given(st.data())
def test_syndrome_table_is_the_wedge_with_each_generator(n, poly, data):
    # bit k of the table at alpha's flat index is <alpha, g_k>, for a graph
    # state's group and for a ray's; the table is built once per group, and
    # stabilizer_wigner reads the group's own
    field = field_new(n, poly)
    net = data.draw(nets(field))
    for group in (data.draw(graph_states(field)), net.ray(data.draw(st.sampled_from(
            striation_labels(field))))):
        table = group.syndromes
        assert group.syndromes is table and len(table) == field.N ** 2
        gens = [BinaryPoint(g.a, g.b, n) for g in group.gens]
        for alpha in all_points(field):
            want = sum(wedge(alpha, g) << k for k, g in enumerate(gens))
            assert table[(alpha.qbits << n) | alpha.pbits] == want
    fresh = StabilizerGroup(field, group.gens, group.signs)
    stabilizer_wigner(net, fresh)
    assert fresh.__dict__["syndromes"] == table


def test_syndrome_table_is_refused_above_the_grid_cap():
    field = field_new(9)
    group = StabilizerGroup(field, [translation(9, 1 << k, 0) for k in range(9)], [1] * 9)
    with pytest.raises(DimensionTooLarge):
        group.syndromes


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@settings(PROPERTY, max_examples=2)
@given(st.data())
def test_f_equals_the_per_point_ray_reference(n, net_kind, data):
    # f reads the label ray_through computes from the ray cache; the
    # reference asks ray (need_label) for the label of each point, on a
    # net of its own, so neither warms the other's cache
    field = data.draw(fields(n, min_n=n))
    net = data.draw(net_kind(field))
    reference = QuantumNet(field, net.signs)
    for alpha in all_points(field):
        if alpha.is_origin:
            want = 1
        else:
            point = from_binary(field, alpha)
            label = ray_through(field, point)
            want = reference.ray(label).at(point.p if label == VERTICAL else point.q)
        assert net.f(alpha) == want
    assert net.f_vector() == reference.f_vector()


@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_every_net_round_trips_through_json(data):
    """The signs read back are the signs written, for any net, at n = 1..4
    and on x^3 + x + 1.  "mode" says covariant exactly when the diagonal
    signs are those derived from the h, v and 0 signs (every n = 1 net, and
    every drawn covariant net), and a false covariant claim is refused."""
    field = data.draw(st.sampled_from([*map(field_new, range(1, 5)), field_new(3, 0b1011)]))
    net = data.draw(nets(field))
    seeds = {label: net.signs[label] for label in (HORIZONTAL, VERTICAL, 0)}
    covariant = build_net(field, "covariant", seeds).signs == net.signs
    payload = json.loads(net.to_json())
    assert payload["mode"] == ("covariant" if covariant else "independent")
    assert net_from_json(net.to_json()).signs == net.signs
    if field.n > 1:
        payload["mode"] = "covariant"
        if covariant:
            payload["signs"]["1"][0] *= -1
        del payload["f"]
        with pytest.raises(MalformedInput, match='"mode" must be'):
            net_from_json(json.dumps(payload))


@settings(PROPERTY, max_examples=30)
@given(st.data())
def test_to_matrix_equals_kron(data):
    n = data.draw(st.integers(1, 6))
    a, b = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    t = PauliTranslation(n, a, b, data.draw(st.integers(0, 3)))
    assert np.array_equal(to_matrix(t), to_matrix_kron(t))


@settings(PROPERTY, max_examples=30)
@given(st.data())
def test_translate_equals_the_dense_product(data):
    # T v moved entry by entry equals the signed permutation matrix times v:
    # each entry is one product with a unit phase, exact on finite entries
    # (array_equal ignores the sign of zeros)
    n = data.draw(st.integers(1, 6))
    a, b = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    t = PauliTranslation(n, a, b, data.draw(st.integers(0, 3)))
    parts = st.floats(-1e6, 1e6, allow_nan=False)
    v = tuple(complex(data.draw(parts), data.draw(parts)) for _ in range(1 << n))
    assert np.array_equal(translate(t, v), to_matrix(t) @ np.array(v))


@PROPERTY
@given(st.data())
def test_pauli_sum_equals_the_sum_of_dense_translations(data):
    n = data.draw(st.integers(1, 6))
    N = 1 << n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=N * N) + 1j * rng.normal(size=N * N)
    want = sum(c[(a << n) | b] * to_matrix(translation(n, a, b))
               for a in range(N) for b in range(N))
    assert np.abs(pauli_sum(n, c) - want).max() < 1e-12


@PROPERTY
@given(st.data())
def test_pauli_sum_rows_are_the_numpy_scatter_bit_for_bit(data):
    # N rows of Python complex, for ints, floats or complex numbers given as
    # a list or an array, each entry the bits the array route stored
    n = data.draw(st.integers(1, 5))
    N = 1 << n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    c = data.draw(st.sampled_from([
        rng.integers(-1, 2, size=N * N).tolist(), rng.normal(size=N * N).tolist(),
        rng.normal(size=N * N) + 1j * rng.normal(size=N * N)]))
    rows = pauli_sum(n, c)
    assert type(rows) is tuple and len(rows) == N
    assert all(type(row) is tuple and all(type(z) is complex for z in row) for row in rows)
    want = pauli_sum_dense(n, c)
    assert np.array_equal(np.asarray(rows).view(np.int64), want.view(np.int64))


@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_ray_projectors_and_a0_equal_the_projector_products(data):
    # exact: every entry is a dyadic rational times a unit phase
    field = data.draw(fields(6))
    net = data.draw(nets(field))
    products = []
    for label in striation_labels(field):
        products.append(ray_projector(net.ray(label).gens, net.signs[label]))
        assert np.array_equal(net.ray(label).projector(), products[-1])
    assert np.array_equal(np.asarray(net.a0_matrix()), a0_from_projectors(products))


@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_stabilizer_projector_equals_the_element_loop(data):
    group = data.draw(graph_states(data.draw(fields(6))))
    assert np.array_equal(group.projector(), stabilizer_projector_loop(group))


@settings(PROPERTY, max_examples=20)
@given(st.data())
def test_group_walk_and_at_equal_the_doubling_loop(data):
    # the i-th member of the walk sits at generator coordinates i ^ (i >> 1)
    group = data.draw(graph_states(data.draw(fields(8))))
    assert group.elements == stabilizer_elements_doubling(group.gens, group.signs)
    for i, sign in enumerate(group.elements.values()):
        assert group.at(i ^ (i >> 1)) == sign


@st.composite
def regenerated(draw, group):
    """The same group on other generators: each step multiplies one signed
    generator into another, so the a and b masks are no longer unit vectors."""
    gens = list(zip(group.gens, group.signs))
    n = len(gens)
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        (g, s), (h, t) = gens[i], gens[j]
        gens[i] = (compose(g, h), s * t)
    return StabilizerGroup.from_generators(group.field, gens)


FIELDS_1_TO_8 = [(n, poly) for n in range(1, 9)
                 for poly in ([None] if n < 3 else [None, OTHER_POLY[n]])]


@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@pytest.mark.parametrize("n, poly", FIELDS_1_TO_8,
                         ids=[f"n{n}-{'default' if p is None else bin(p)[2:]}"
                              for n, p in FIELDS_1_TO_8])
# an independent net at n = 8 is 257 drawn sign vectors, so even its
# smallest example is large
@settings(PROPERTY, max_examples=3, suppress_health_check=[HealthCheck.large_base_example])
@given(st.data())
def test_stabilizer_wigner_equals_the_n2_point_transform(net_kind, n, poly, data):
    # the N-point transform read through the syndrome map against the int64
    # transform over all N^2 points: the same integer numerators over N^2
    field = field_new(n, poly)
    net = data.draw(net_kind(field))
    group = data.draw(regenerated(data.draw(graph_states(field))))
    grid = stabilizer_wigner(net, group)
    assert grid.exact and type(grid.flat) is tuple and grid.den == field.N ** 2
    assert all(type(k) is int for k in grid.flat)
    assert grid.flat == stabilizer_wigner_transform(net, group).flat


@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@pytest.mark.parametrize("n, poly", FIELDS_1_TO_8,
                         ids=[f"n{n}-{'default' if p is None else bin(p)[2:]}"
                              for n, p in FIELDS_1_TO_8])
@settings(PROPERTY, max_examples=2, suppress_health_check=[HealthCheck.large_base_example])
@given(st.data())
def test_group_walk_on_ints_equals_the_compose_walk(net_kind, n, poly, data):
    # the (a, b, s) walk against one PauliTranslation compose per member: the
    # same members, order and signs, on drawn rays of a net with drawn signs
    # and on a state's group with drawn signs; at(x) at drawn members against
    # the compose of the generators that a GF(2) solve finds
    field = field_new(n, poly)
    net = data.draw(net_kind(field))
    labels = data.draw(st.lists(st.sampled_from(striation_labels(field)),
                                min_size=1, max_size=4, unique=True))
    groups = [net.ray(label) for label in labels]
    groups.append(data.draw(regenerated(data.draw(graph_states(field)))))
    for group in groups:
        members = list(group_elements_compose(group).items())
        assert list(group.elements.items()) == members
        for k in data.draw(st.lists(st.integers(0, field.N - 1), min_size=1, max_size=4)):
            (a, b), sign = members[k]
            assert group.at(k ^ (k >> 1)) == group_sign_compose(group, a, b) == sign


def same_bits(u, w) -> bool:
    """Equal shapes and float64 bits, so 0.0 and -0.0 differ."""
    u, w = np.asarray(u), np.asarray(w)
    return u.shape == w.shape and np.array_equal(u.view(np.int64), w.view(np.int64))


FIELDS_1_TO_6 = FIELDS_1_TO_8[:FIELDS_1_TO_8.index((7, None))]


@pytest.mark.parametrize("n, poly", FIELDS_1_TO_6,
                         ids=[f"n{n}-{'default' if p is None else bin(p)[2:]}"
                              for n, p in FIELDS_1_TO_6])
@settings(PROPERTY, max_examples=3, suppress_health_check=[HealthCheck.large_base_example])
@given(st.data())
def test_mub_bases_and_line_state_equal_the_per_line_reference(n, poly, data):
    # one scatter per striation against one dense T and one matrix-vector
    # product per line, bit for bit: the meanking_phi1 preset's SVD reads
    # line_state, and the signs of its float noise show in exported grids
    field = field_new(n, poly)
    net = data.draw(st.one_of(st.just(build_net(field)),
                              st.just(build_net(field, "covariant")), nets(field)))
    want = mub_bases_per_line(net)
    bases = mub_bases(net)
    assert list(bases) == list(want)
    for stn in all_striations(field):
        assert same_bits(bases[stn.label], want[stn.label])
        for line, vector in zip(stn.lines, want[stn.label], strict=True):
            assert same_bits(line_state(net, line), vector)


# the report and the dense products both sum terms of about 1/N; they differ
# by rounding alone, a few units in the last place of 1
REPORT_AGREEMENT = 16 * 2 ** -52


@pytest.mark.parametrize("n, poly", FIELDS_1_TO_6,
                         ids=[f"n{n}-{'default' if p is None else bin(p)[2:]}"
                              for n, p in FIELDS_1_TO_6])
@settings(PROPERTY, max_examples=3, suppress_health_check=[HealthCheck.large_base_example])
@given(st.data())
def test_mub_overlap_report_equals_the_dense_products(n, poly, data):
    # N-point transforms of the ray states under the translation law
    # against one N x N product per basis and per pair of emitted bases
    field = field_new(n, poly)
    net = data.draw(st.one_of(st.just(build_net(field)),
                              st.just(build_net(field, "covariant")), nets(field)))
    bases = mub_bases(net)
    got, want = mub_overlap_report(bases), mub_overlap_report_dense(bases)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] < IDENTITY_ATOL and want[key] < IDENTITY_ATOL
        assert abs(got[key] - want[key]) <= REPORT_AGREEMENT, (key, got, want)


@pytest.mark.parametrize("label, change", [(HORIZONTAL, "amplitude"), (0, "amplitude"),
                                           (VERTICAL, "amplitude"), (HORIZONTAL, "phase"),
                                           (0, "phase")], ids=str)
def test_mub_overlap_report_sees_a_perturbed_ray_state(label, change):
    # the report reads row 0 of each basis: a ray state moved off its
    # stabilizer state by 1e-6 in one modulus, and renormalised, shows in a
    # Gram matrix; one entry turned by a phase of 1e-3 keeps |u|^2, so it
    # shows only in the overlaps of two bases off the vertical
    field = field_new(3)
    bases = dict(mub_bases(build_net(field, "covariant")))
    v = list(bases[label][0])
    k = next(k for k, z in enumerate(v) if abs(z) > IDENTITY_ATOL)
    if change == "phase":
        v[k] *= complex(math.cos(1e-3), math.sin(1e-3))
    else:
        j = (k + 1) % field.N
        v[j] = v[j] * (1 + 1e-6) if v[j] else 1e-6
        norm = sum(abs(z) ** 2 for z in v) ** 0.5
        v = [z / norm for z in v]
    bases[label] = (tuple(v), *bases[label][1:])
    report = mub_overlap_report(bases)
    key = "max_cross_overlap_deviation" if change == "phase" else "max_gram_deviation"
    assert report[key] > IDENTITY_ATOL, report


@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_group_state_equals_the_projector_column(data):
    # the state read off the members against the column of the dense
    # projector, bit for bit: drawn rays, drawn graph states, the Bell
    # states and the code's logical states
    field = data.draw(fields(6))
    net = data.draw(nets(field))
    groups = [net.ray(label) for label in striation_labels(field)]
    groups.append(data.draw(regenerated(data.draw(graph_states(field)))))
    groups += [apps.bell_stabilizer(apps.bell_field(), label) for label in apps.BELL_LABELS]
    groups += [apps.logical_group(f, which) for f in (field_new(3), field_new(3, OTHER_POLY[3]))
               for which in (0, 1)]
    for group in groups:
        assert same_bits(group.state(), projector_to_state(group.projector()))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_an_odd_phase_raises_in_both_walks(n):
    # X and Z on qubit 0 do not commute: their product X Z = -i Y has an
    # odd phase against the canonical T(1, 1)
    field = field_new(n)
    gens = [translation(n, 1, 0), translation(n, 0, 1)]
    gens += [translation(n, 1 << k, 0) for k in range(2, n)]
    group = StabilizerGroup(field, gens, [1, -1] + [1] * (n - 2))
    for walk in (lambda: group.elements, lambda: group_elements_compose(group),
                 lambda: group.at(0b11), lambda: group_sign_compose(group, 1, 1)):
        with pytest.raises(NonCommutingGenerators, match="odd phase"):
            walk()



@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@pytest.mark.parametrize("n, poly", FIELDS_1_TO_8,
                         ids=[f"n{n}-{'default' if p is None else bin(p)[2:]}"
                              for n, p in FIELDS_1_TO_8])
@settings(PROPERTY, max_examples=3, suppress_health_check=[HealthCheck.large_base_example])
@given(st.data())
def test_f_reads_the_ray_member_that_q_picks_out(net_kind, n, poly, data):
    # f(beta) at generator coordinates q (bits_to_p(pbits) on v) against the
    # ray group's walk, at drawn members of h, v and two drawn diagonal rays
    field = field_new(n, poly)
    net = data.draw(net_kind(field))
    labels = [HORIZONTAL, VERTICAL] + data.draw(st.lists(
        st.integers(0, field.order - 1), min_size=1, max_size=2, unique=True))
    for label in labels:
        members = class_points(field, label)
        for k in data.draw(st.lists(st.integers(0, field.order - 1), min_size=1, max_size=4)):
            a, b = members[k]
            assert net.f(BinaryPoint(a, b, n)) == net.ray(label).elements[(a, b)]


FIELDS_1_TO_10 = [(n, poly) for n in range(1, 11)
                  for poly in ([None] if n < 3 else [None, OTHER_POLY[n]])]


@pytest.mark.parametrize("n, poly", FIELDS_1_TO_10,
                         ids=[f"n{n}-{'default' if p is None else bin(p)[2:]}"
                              for n, p in FIELDS_1_TO_10])
@settings(PROPERTY, max_examples=2)
@given(st.data())
def test_covariant_signs_equal_the_solve_loop(n, poly, data):
    # generator j of each image ray read at generator coordinates w^(j-1)
    # against a GF(2) solve for it in the pushed group
    field = field_new(n, poly)
    seeds = {label: data.draw(sign_vectors(n)) for label in (HORIZONTAL, VERTICAL, 0)}
    assert build_net(field, "covariant", seeds).signs == covariant_signs_solve(field, seeds)


META = st.dictionaries(
    st.sampled_from(["net", "n", "poly", "exact", "axis", "rows_p_descending"])
    | st.text(max_size=4) | st.integers() | st.booleans() | st.none(),
    st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=4)
                 | st.floats(allow_nan=False),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                 max_leaves=6),
    max_size=3)


@st.composite
def exportable_grids(draw, field):
    """A grid whose cells repeat a drawn palette of values: integer numerators
    over N^2, Fractions over their least common denominator (as apps and
    import_grid build), a stabilizer grid, or floats that include 0.0, -0.0
    and +-1e-17."""
    N = field.N
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["numerators", "fractions", "stabilizer", "dense"]))
    if kind == "stabilizer":
        return stabilizer_wigner(draw(nets(field)), draw(graph_states(field)))
    values = {
        "numerators": st.integers(-N, N),
        "fractions": st.fractions(min_value=-1, max_value=1, max_denominator=4 * N * N),
        "dense": st.sampled_from([0.0, -0.0, 1e-17, -1e-17]) | st.floats(allow_nan=False),
    }[kind]
    palette = draw(st.lists(values, min_size=1, max_size=2 * N + 1))
    cells = [rng.choice(palette) for _ in range(N * N)]
    if kind == "numerators":
        return WignerGrid(field, tuple(cells), N * N)
    if kind == "fractions":
        return WignerGrid.from_rationals(field, cells)
    return WignerGrid(field, np.array(cells, dtype=float))


# no shrink phase: shrinking a failing n = 6 example (4096 cells through both
# writers in three formats each try) took minutes, and the unshrunk example
# already shows the first differing byte
@settings(PROPERTY, max_examples=40, phases=set(Phase) - {Phase.shrink})
@given(st.data())
def test_export_grid_equals_the_cell_by_cell_writer(data):
    # csv, json and ascii, byte for byte, with and without meta
    field = data.draw(fields(6))
    grid = data.draw(exportable_grids(field))
    meta = data.draw(st.none() | META)
    for fmt in ("csv", "json", "ascii"):
        assert export_grid(grid, fmt, meta) == export_grid_cells(grid, fmt, meta)


def test_export_grid_shades_signed_zeros_and_float_noise():
    field = field_new(2)
    cells = [0.0, -0.0, 1e-17, -1e-17, 0.25, -0.125] + [0.0] * 10
    grid = WignerGrid(field, np.array(cells))
    text = export_grid(grid, "ascii")
    assert text == export_grid_cells(grid, "ascii")
    # the widest text is 6 characters; zeros of either sign shade as "."
    for piece in (".      0", ".     -0", "#  1e-17", "o -1e-17", "#   0.25", "o -0.125"):
        assert piece in text


@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_stabilizer_wigner_equals_wigner_of_its_projector(data):
    field = data.draw(fields(5))
    net = data.draw(nets(field))
    group = data.draw(graph_states(field))
    grid = stabilizer_wigner(net, group)
    dense = np.array(wigner_of(net, group.projector()).flat)
    assert np.abs(np.array(grid.flat, dtype=float) / grid.den - dense).max() < IDENTITY_ATOL
    # and back, through the exact grid's own hat W
    assert np.abs(reconstruct(net, grid) - group.projector()).max() < IDENTITY_ATOL


@pytest.mark.parametrize("net_kind", [independent_nets, covariant_nets],
                         ids=["independent", "covariant"])
@PROPERTY
@given(st.data())
def test_wigner_function_is_translation_covariant(net_kind, data):
    # W of T_gamma rho T_gamma^dagger at alpha + gamma is W of rho at alpha;
    # alpha + gamma has the flat index i ^ g
    field = data.draw(fields(5))
    n, N = field.n, field.N
    net = data.draw(net_kind(field))
    t = translation(n, data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1)))
    moved = np.arange(N * N) ^ ((t.a << n) | t.b)
    rho = data.draw(densities(field))
    T = to_matrix(t)
    dense = np.array(wigner_of(net, T @ rho @ T.conj().T).flat)[moved]
    assert np.abs(dense - np.array(wigner_of(net, rho).flat)).max() < IDENTITY_ATOL
    # on a stabilizer state: T_gamma G T_gamma^dagger = (-1)^<gamma, G> G
    group = data.draw(graph_states(field))
    gens = [(g, s if commutes(t, g) else -s) for g, s in zip(group.gens, group.signs)]
    moved_group = StabilizerGroup.from_generators(field, gens)
    exact = np.array(stabilizer_wigner(net, moved_group).flat, dtype=object)[moved]
    assert np.array_equal(exact, np.array(stabilizer_wigner(net, group).flat, dtype=object))


@settings(PROPERTY, max_examples=15)
@given(st.data())
def test_stabilizer_grid_is_constant_on_the_orbits_of_its_group(data):
    # T_beta rho T_beta^dagger = rho for every member beta of the state's
    # group, so translation covariance makes W constant on each orbit
    field = data.draw(fields(6))
    net = data.draw(nets(field))
    group = data.draw(regenerated(data.draw(graph_states(field))))
    flat = stabilizer_wigner(net, group).flat
    for orbit in symmetry_orbits(group, range(field.N * field.N)):
        assert len(set(orbit)) == field.N
        assert len({flat[i] for i in orbit}) == 1


@settings(PROPERTY, max_examples=50)
@given(st.data())
def test_solve_gf2_reproduces_the_target_or_raises_outside_the_span(data):
    m = data.draw(st.integers(1, 12))
    vectors = st.integers(0, (1 << m) - 1)
    columns = data.draw(st.lists(vectors, max_size=m + 2))
    span = {0}
    for col in columns:
        span |= {v ^ col for v in span}
    target = data.draw(st.one_of(vectors, st.sampled_from(sorted(span))))
    if target not in span:
        with pytest.raises(ValueError):
            solve_gf2(columns, target)
        return
    x = solve_gf2(columns, target)
    assert x >> len(columns) == 0
    assert reduce(xor, (col for k, col in enumerate(columns) if x >> k & 1), 0) == target
