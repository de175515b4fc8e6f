"""Bell states, the three-qubit phase-error code, and the mean king."""

from fractions import Fraction

import numpy as np
import pytest

from gfwigner import apps
from gfwigner.errors import AmbiguousInference, FieldMismatch, InconsistentStabilizer
from gfwigner.galois import field_new
from gfwigner.net import build_net
from gfwigner.pauli import format_pauli, to_matrix, translation
from gfwigner.wigner import (StabilizerGroup, WignerGrid, stabilizer_wigner,
                             state_density, symmetry_orbits, wigner_of)


# -- Bell ------------------------------------------------------------------------


def test_bell_states_match_their_stabilizers():
    f = apps.bell_field()
    for label in apps.BELL_LABELS:
        v = apps.bell_state(label)
        P = apps.bell_stabilizer(f, label).projector()
        assert np.allclose(np.outer(v, v.conj()), P, atol=1e-12)


def test_bell_translations_are_xx_and_zz():
    f = apps.bell_field()
    xx, zz = apps.bell_translations(f)
    assert format_pauli(xx) == "+XX"
    assert format_pauli(zz) == "+ZZ"


def test_bell_orbits_partition_the_grid():
    # the orbits of (0, 0), (1, 0), (0, 1) and (1, 1) under translation by
    # XX, ZZ and YY, whose binary coordinates are (3, 0), (0, 3) and (3, 3)
    f = apps.bell_field()
    group = apps.bell_stabilizer(f, "psi_minus")
    assert sorted(group.elements) == [(0, 0), (0, 3), (3, 0), (3, 3)]
    orbits = apps.bell_orbits(f)
    assert orbits == dict(zip("abcd", symmetry_orbits(group, [0, 4, 1, 5])))
    cells = [i for orbit in orbits.values() for i in orbit]
    assert sorted(cells) == list(range(16))


def test_bell_survey_realizes_exactly_two_patterns():
    counts = apps.bell_survey()
    assert counts == {"concentrated": 128, "spread": 128}


def test_bell_parameters_concentrated_example():
    f = apps.bell_field()
    net = apps.mean_king_net(f)
    params = apps.bell_parameters(net, "phi_plus")
    assert apps.classify_bell_parameters(params) == "concentrated"
    assert params[0] == Fraction(1, 4)


def test_bell_translated_states_are_orthogonal():
    # the Wigner-level orthogonality ab + cd = 0 mirrors Hilbert-space
    # orthogonality of X0-translated Bell states
    f = apps.bell_field()
    X0 = to_matrix(translation(2, 0b01, 0))
    for label in ("psi_plus", "psi_minus"):
        v = apps.bell_state(label)
        assert abs(np.vdot(v, X0 @ v)) < 1e-12


# -- error correction code ----------------------------------------------------------


def test_qec_stabilizer_generators_are_x_strings_and_zl():
    f = apps.qec_field()
    s1, s2, zl = apps.qec_stabilizer_generators(f)
    assert {format_pauli(s1), format_pauli(s2)} == {"+XXI", "+IXX"}
    assert format_pauli(zl) == "+ZZZ"
    # on x^3 + x + 1 the layout at w^6, w^5 and w^3 gives +XIX +XXX +ZIZ,
    # another code than logical_group's, so it refuses the field
    other = field_new(3, 0b1011)
    with pytest.raises(FieldMismatch, match="generator layout"):
        apps.qec_stabilizer_generators(other)
    assert sorted(map(format_pauli, apps.logical_group(other, 0).gens)) == [
        "+IXX", "+XXI", "+ZZZ"]


def test_logical_states_are_orthonormal_and_stabilized():
    f = apps.qec_field()
    v0 = apps.logical_state(f, 0)
    v1 = apps.logical_state(f, 1)
    assert abs(np.vdot(v0, v1)) < 1e-12
    s1, s2, zl = apps.qec_stabilizer_generators(f)
    for v, zsign in ((v0, 1), (v1, -1)):
        for t in (s1, s2):
            assert np.allclose(to_matrix(t) @ v, v)
        assert np.allclose(to_matrix(zl) @ v, zsign * v)


def test_preset_net_assigns_z1_lambda0_to_the_diagonal():
    f = apps.qec_field()
    net = apps.qec_net(f)
    plus = build_net(f, "covariant")
    Z1 = to_matrix(translation(3, 0, 0b010))
    want = Z1 @ plus.ray_state(0)
    got = net.ray_state(0)
    assert abs(abs(np.vdot(want, got)) - 1) < 1e-10


def test_logical_zero_grid_is_the_covariant_solution():
    f = apps.qec_field()
    net = apps.qec_net(f)
    grid = stabilizer_wigner(net, apps.logical_group(f, 0))
    params = apps.grid_parameters(f, grid)
    assert all(params[k] == Fraction(1, 32) for k in "aceg")
    assert params["b"] == Fraction(3, 32)
    assert all(params[k] == Fraction(-1, 32) for k in "dfh")
    # dense cross-check of the exact grid
    dense = wigner_of(net, state_density(apps.logical_state(f, 0)))
    for key, val in grid.values.items():
        assert abs(float(val) - dense.values[key]) < 1e-10


def test_logical_one_is_x0_translated_logical_zero():
    f = apps.qec_field()
    net = apps.qec_net(f)
    g0 = stabilizer_wigner(net, apps.logical_group(f, 0))
    g1 = stabilizer_wigner(net, apps.logical_group(f, 1))
    # X0 = T(q=1, 0) shifts the q coordinate by 1
    for (qb, pb), val in g0.values.items():
        assert g1.values[(qb ^ 1, pb)] == val


def test_solution_family_has_eight_members():
    family = apps.code_solution_family()
    assert len(family) == 8
    F = Fraction
    assert [tuple(sol[k] for k in "aceg") for sol in family] == [
        (F(1, 32), F(1, 32), F(1, 32), F(1, 32)),
        (F(1, 16), 0, 0, F(1, 16)),
        (F(1, 16), 0, F(1, 16), 0),
        (F(1, 16), F(1, 16), 0, 0),
        (F(3, 32), F(-1, 32), F(1, 32), F(1, 32)),
        (F(3, 32), F(1, 32), F(-1, 32), F(1, 32)),
        (F(3, 32), F(1, 32), F(1, 32), F(-1, 32)),
        (F(1, 8), 0, 0, 0),
    ]
    eighth = F(1, 8)
    for sol in family:
        a, c, e, g = (sol[k] for k in "aceg")
        assert all(isinstance(v, Fraction) for v in sol.values())
        assert a + c + e + g - eighth == 0
        assert 2 * a * e + 2 * c * g - e * eighth == 0
        assert 2 * a * c + 2 * e * g - c * eighth == 0
        assert 2 * a * g + 2 * c * e - g * eighth == 0
        assert c**2 + e**2 + g**2 - (a * eighth - a**2) == 0
        assert sol["b"] == eighth - a
        assert sol["d"] == -c
        assert sol["f"] == -e
        assert sol["h"] == -g
        assert sum(v * v for v in sol.values()) == F(1, 64)


def test_grid_parameters_reject_a_grid_not_constant_on_a_slot():
    f = apps.qec_field()
    sol = apps.code_solution_family()[0]
    grid = apps.grid_from_parameters(f, sol)
    assert apps.grid_parameters(f, grid) == sol
    flat = list(grid.flat)
    flat[apps.qec_slots(f)["c"][3]] += 1
    with pytest.raises(InconsistentStabilizer, match="not constant on slot c"):
        apps.grid_parameters(f, WignerGrid(f, tuple(flat), grid.den))


def test_family_solutions_have_nonnegative_line_sums():
    from gfwigner.phasespace import all_striations

    f = apps.qec_field()
    for sol in apps.code_solution_family():
        grid = apps.grid_from_parameters(f, sol)
        for st in all_striations(f):
            for line in st.lines:
                assert grid.line_sum(line) >= 0


def test_exactly_four_covariant_solutions():
    # on the paper's x^3 + x^2 + 1 and on x^3 + x + 1
    family = {tuple(sol[k] for k in "abcdefgh")
              for sol in apps.code_solution_family()}
    for f in (apps.qec_field(), field_new(3, 0b1011)):
        cov = apps.covariant_code_solutions(f)
        assert len(cov) == 4
        for sol in cov:
            key = tuple(sol[k] for k in "abcdefgh")
            assert key in family
            assert 8 * sum(key) == 1
            assert sol["a"] in (Fraction(1, 32), Fraction(3, 32))


def test_general_encoded_state_first_columns():
    f = apps.qec_field()
    net = apps.qec_net(f)
    # the column classes of q = 0 and q = 1 are their orbits under S1 and S2
    s1, s2, _ = apps.qec_stabilizer_generators(f)
    orbits = symmetry_orbits(StabilizerGroup(f, [s1, s2], [1, 1]),
                             [(q << 3) | pb for q in (0, 1) for pb in range(8)])
    assert sorted(i for orbit in orbits for i in orbit) == list(range(64))
    rng = np.random.default_rng(43)
    for _ in range(100):
        alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha, beta = alpha / norm, beta / norm
        grid = apps.encoded_wigner(net, alpha, beta)
        closed = apps.logical_first_columns(f, alpha, beta)
        for key, val in closed.items():
            assert abs(grid.values[key] - val) < 1e-10
        # remaining columns repeat their column class
        for orbit in orbits:
            assert np.ptp(np.array(grid.flat)[orbit]) < 1e-10


def test_first_columns_refuse_a_field_whose_preset_net_breaks_the_closed_form():
    # on x^3 + x + 1 the preset net's grid matches no row layout of f1..f4:
    # it differs from the paper field's layout by about 0.1 at (0.6, 0.8i)
    f = field_new(3, 0b1011)
    grid = apps.encoded_wigner(apps.qec_net(f), 0.6, 0.8j)
    paper = apps.logical_first_columns(apps.qec_field(), 0.6, 0.8j)
    assert max(abs(grid.values[key] - val) for key, val in paper.items()) > 0.05
    with pytest.raises(FieldMismatch, match="closed form"):
        apps.logical_first_columns(f, 0.6, 0.8j)


# -- mean king -----------------------------------------------------------------------


def test_mean_king_grid_values():
    # diagonal-symmetric grid with values 3/16, 1/16 and -1/16 only
    net = apps.mean_king_net()
    arr = apps.mean_king_grid(net).as_array()
    assert np.allclose(arr, arr.T, atol=1e-10)
    scaled = arr * 16
    assert np.allclose(np.round(scaled), scaled, atol=1e-8)
    counts = {v: int(np.sum(np.isclose(scaled, v))) for v in (3, 1, -1)}
    assert counts == {3: 6, 1: 4, -1: 6}
    assert abs(arr.sum() - 1) < 1e-10


def test_mean_king_retrodiction_certain():
    net = apps.mean_king_net()
    assert abs(apps.mean_king_simulate(net) - 1) < 1e-12


def test_mean_king_wrong_basis_is_ambiguous():
    net = apps.mean_king_net()
    computational = [np.eye(4, dtype=complex)[:, i] for i in range(4)]
    with pytest.raises(AmbiguousInference):
        apps.mean_king_simulate(net, computational)
