"""Bell states, the three-qubit phase-error code, and the mean king."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfwigner import apps
from gfwigner.errors import (AmbiguousInference, FieldMismatch, InconsistentStabilizer,
                             MalformedInput)
from gfwigner.galois import field_new
from gfwigner.net import QuantumNet, build_net, line_state
from gfwigner.pauli import IDENTITY_ATOL, format_pauli, to_matrix, translation
from gfwigner.phasespace import striation_labels
from gfwigner.wigner import (StabilizerGroup, WignerGrid, stabilizer_wigner,
                             state_density, symmetry_orbits, wigner_of)
from oracles import (ORACLE_ATOL, mean_king_simulate_per_branch, mean_king_svd_basis,
                     mean_king_svd_density)


# -- Bell ------------------------------------------------------------------------


def test_bell_states_match_their_stabilizers():
    f = apps.bell_field()
    for label in apps.BELL_LABELS:
        v = np.asarray(apps.bell_stabilizer(f, label).state())
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
        v = np.asarray(apps.bell_stabilizer(f, label).state())
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
    v0 = np.asarray(apps.logical_state(f, 0))
    v1 = np.asarray(apps.logical_state(f, 1))
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


def test_encode_refuses_a_state_without_a_finite_nonzero_norm():
    # (0, 0) raised a bare ZeroDivisionError, (1e200, 1e200) a bare
    # OverflowError, and a NaN gave a state of NaNs; logical_f_functions
    # raised OverflowError at (1e200, 0) and returned NaNs or zeros
    f = apps.qec_field()
    for alpha, beta in ((0, 0), (0.0, -0.0j), (np.nan, 1), (1e200, 1e200), (1e-200, 0)):
        with pytest.raises(MalformedInput, match="finite nonzero norm"):
            apps.encode(f, alpha, beta)
        with pytest.raises(MalformedInput, match="finite nonzero norm"):
            apps.logical_f_functions(alpha, beta)


@pytest.mark.parametrize("alpha, beta", [("a", 1), (True, 0), (10 ** 400, 1)],
                         ids=["text", "a bool", "int beyond float range"])
def test_encoded_amplitudes_must_be_numbers(alpha, beta):
    # "a" raised a bare TypeError and 10 ** 400 a bare OverflowError, and
    # encode read True as 1
    f = apps.qec_field()
    for call in (lambda: apps.encode(f, alpha, beta),
                 lambda: apps.logical_f_functions(alpha, beta)):
        with pytest.raises(MalformedInput, match="needs numbers"):
            call()


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


def test_mean_king_grid_is_exact():
    # rho = x x^dagger / 8 is dyadic, so on the protocol's net 16 W is an
    # exact int, and on the default and covariant nets (the meanking_phi1
    # preset's) each cell that the SVD phi_1 leaves as float noise is an
    # exact 0
    f = apps.bell_field()
    king = apps.mean_king_net(f)
    assert all(16 * w in (3, 1, -1) for w in apps.mean_king_grid(king).flat)
    x = apps._king_vector(king)
    rho = [[u * w.conjugate() / 8 for w in x] for u in x]
    for net in (build_net(f), build_net(f, "covariant")):
        flat = wigner_of(net, rho).flat
        assert flat.count(0) > 0 and all(w == 0 or abs(w) >= ORACLE_ATOL for w in flat)
        svd = wigner_of(net, mean_king_svd_density(f)).flat
        assert max(abs(w - v) for w, v in zip(flat, svd)) <= ORACLE_ATOL


def king_nets(f):
    """Every independent net at n = 2 (4 sign vectors for each of the 5
    striations), then every covariant one (for h, v and 0)."""
    vectors = list(product((1, -1), repeat=2))
    for signs in product(vectors, repeat=5):
        yield QuantumNet(f, dict(zip(striation_labels(f), signs)))
    for signs in product(vectors, repeat=3):
        yield build_net(f, "covariant", dict(zip(("h", "v", 0), signs)))


def test_mean_king_basis_and_grid_on_every_net_equal_the_svd_reference():
    # on all 1024 independent and 64 covariant nets, against the SVD route
    # the exact one replaced: x is exactly orthogonal to h_1, v_1 and d_1
    # and is the reference's phi_1 up to norm and phase; where the
    # reference's basis is orthonormal each basis vector is the reference's
    # up to a phase, and on the other half of the nets (phi_1 is a Bell
    # state, which the three translations keep) the basis is refused; the
    # grid is the reference's
    f = apps.bell_field()
    orthonormal = 0
    for net in king_nets(f):
        x, want = apps._king_vector(net), mean_king_svd_basis(net)
        for observable in ("x", "z", "y"):
            u = line_state(net, apps.king_lines(f, observable)[0])
            assert sum(a.conjugate() * b for a, b in zip(u, x)) == 0
        assert abs(abs(np.vdot(x, want[0])) - np.linalg.norm(x)) < IDENTITY_ATOL
        if apps._orthonormal(want, IDENTITY_ATOL):
            basis = apps.mean_king_basis(net)
            assert all(abs(abs(np.vdot(v, w)) - 1) < IDENTITY_ATOL for v, w in zip(basis, want))
            orthonormal += 1
        else:
            with pytest.raises(AmbiguousInference, match="not an orthonormal basis"):
                apps.mean_king_basis(net)
        got = apps.mean_king_grid(net).flat
        want = wigner_of(net, state_density(want[0])).flat
        assert max(abs(w - v) for w, v in zip(got, want)) <= ORACLE_ATOL
    assert orthonormal == (1024 + 64) // 2


def test_mean_king_refuses_dependent_line_states_and_another_field(monkeypatch):
    # x = 0 exactly when the three line states are dependent, which no net
    # at n = 2 gives: here all three are h_1; the cofactors need 4 entries
    net = apps.mean_king_net()
    h1 = line_state(net, apps.king_lines(net.field, "x")[0])
    with pytest.raises(FieldMismatch, match="mean king is played on"):
        apps.mean_king_basis(build_net(field_new(3)))
    monkeypatch.setattr(apps, "line_state", lambda net, line: h1)
    for call in (apps.mean_king_basis, apps.mean_king_grid, apps.mean_king_simulate):
        with pytest.raises(AmbiguousInference, match="linearly dependent"):
            call(net)


def test_mean_king_wins_on_every_covariant_net_or_refuses():
    # over the 64 covariant nets (the sign choices of h, v and 0) the game is
    # certain on 8; it gave 0.0 on the 32 where phi_1 is a Bell state that
    # its translates keep (four copies of one vector), and 1/3 on the 24
    # where |Phi_+> lies on lines 1 and 2 of two striations while the king
    # plays lines 3 and 0: both now raise, the latter naming the observable
    f = apps.bell_field()
    outcomes = []
    for signs in product(product((1, -1), repeat=2), repeat=3):
        net = build_net(f, "covariant", dict(zip(("h", "v", 0), signs)))
        try:
            outcomes.append(round(apps.mean_king_simulate(net), 9))
        except AmbiguousInference as exc:
            outcomes.append(re.sub(r"observable [xyz]$", "observable", str(exc)))
    assert Counter(outcomes) == {1.0: 8,
                                 "phi_1 and its translates are not an orthonormal basis": 32,
                                 "|Phi_+> is off the two lines of observable": 24}


def test_mean_king_retrodiction_certain():
    # a Python float (it was numpy's float64) from tuples of Python complex
    net = apps.mean_king_net()
    prob = apps.mean_king_simulate(net)
    assert type(prob) is float and abs(prob - 1) < 1e-12
    basis = apps.mean_king_basis(net)
    assert len(basis) == 4 and all(type(v) is tuple and len(v) == 4 for v in basis)
    assert all(type(z) is complex for v in basis for z in v)


def test_mean_king_names_a_net_that_is_none():
    # each raised a bare AttributeError
    phi = apps.mean_king_basis(apps.mean_king_net())
    for call in (lambda: apps.mean_king_basis(None), lambda: apps.mean_king_simulate(None),
                 lambda: apps.mean_king_simulate(None, phi)):
        with pytest.raises(MalformedInput, match="^net must have a field, got NoneType$"):
            call()


# run in this process and in one where numpy cannot load; phi is a basis
# of tuples, passed as the hex of each part
NO_NUMPY_CALLS = """\
from gfwigner import apps

def calls(phi):
    qec, king = apps.qec_field(), apps.mean_king_net()
    phi = [tuple(complex(float.fromhex(re), float.fromhex(im)) for re, im in v) for v in phi]
    return [apps.bell_survey(), apps.code_solution_family(), apps.covariant_code_solutions(),
            [apps.logical_state(qec, which) for which in (0, 1)],
            apps.encode(qec, 0.6, 0.8j), apps.logical_f_functions(0.6, 0.8j),
            apps.logical_first_columns(qec, 0.6, 0.8j),
            apps.encoded_wigner(apps.qec_net(qec), 0.6, 0.8j).flat,
            apps.mean_king_simulate(king, phi),
            apps.mean_king_basis(king), apps.mean_king_grid(king).flat,
            apps.mean_king_line_sums(king), apps.mean_king_simulate(king)]
"""


def test_state_vector_apps_run_without_numpy():
    phi = [[(z.real.hex(), z.imag.hex()) for z in v]
           for v in apps.mean_king_basis(apps.mean_king_net())]
    script = ('import json, sys\nsys.modules["numpy"] = None  # import numpy raises ImportError\n'
              + NO_NUMPY_CALLS + 'print(repr(calls(json.loads(sys.argv[1]))))\n')
    done = subprocess.run([sys.executable, "-c", script, json.dumps(phi)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(apps.__file__).parent.parent)))
    assert done.returncode == 0, done.stderr.decode()
    namespace = {}
    exec(NO_NUMPY_CALLS, namespace)
    assert done.stdout.decode() == repr(namespace["calls"](phi)) + "\n"


def test_mean_king_wrong_basis_is_ambiguous():
    net = apps.mean_king_net()
    computational = [np.eye(4, dtype=complex)[:, i] for i in range(4)]
    with pytest.raises(AmbiguousInference):
        apps.mean_king_simulate(net, computational)


@st.composite
def king_bases(draw):
    """The phi basis permuted and re-phased, the computational basis, or the
    columns of a Haar-random unitary (QR of a complex Ginibre matrix, its
    R's diagonal phases moved into Q)."""
    kind = draw(st.sampled_from(["phi", "computational", "haar"]))
    if kind == "phi":
        phi = apps.mean_king_basis(apps.mean_king_net())
        order = draw(st.permutations(range(4)))
        angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=4, max_size=4))
        return [np.exp(1j * t) * np.asarray(phi[k]) for k, t in zip(order, angles)]
    if kind == "computational":
        return list(np.eye(4, dtype=complex))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return list((q * (np.diag(r) / abs(np.diag(r)))).T)


@settings(max_examples=40, deadline=None)
@given(king_bases())
def test_mean_king_simulate_equals_the_per_branch_reference(basis):
    net = apps.mean_king_net()
    try:
        want = mean_king_simulate_per_branch(net, basis)
    except AmbiguousInference:
        with pytest.raises(AmbiguousInference):
            apps.mean_king_simulate(net, basis)
    else:
        assert abs(apps.mean_king_simulate(net, basis) - want) < IDENTITY_ATOL


def test_mean_king_simulate_refuses_what_is_not_a_basis():
    # these gave 0.9999999999999997, 0.0, 0.5 and 3.9999999999999982, or a
    # bare ValueError; a basis within INPUT_ATOL of orthonormal still plays
    net = apps.mean_king_net()
    phi = [np.asarray(v) for v in apps.mean_king_basis(net)]
    bad = {
        "one vector four times": [phi[0]] * 4,
        "no vectors": [],
        "two vectors": phi[:2],
        "twice the basis": [2 * v for v in phi],
        "vectors of 3 entries": [v[:3] for v in phi],
        "ragged": [*phi[:3], phi[3][:3]],
        "ragged lists": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "booleans": np.eye(4, dtype=bool),
        "strings": [["1", "0", "0", "0"]] * 4,
        "a NaN": [phi[0] * np.nan, *phi[1:]],
        "5 x 5": np.eye(5),
        "not a sequence": 7,
    }
    for name, basis in bad.items():
        with pytest.raises(MalformedInput):
            apps.mean_king_simulate(net, basis)
            pytest.fail(name)
    assert abs(apps.mean_king_simulate(net, [v + 1e-12 for v in phi]) - 1) < 1e-9
