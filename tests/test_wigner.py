"""Point operators, Wigner transforms, and the exact stabilizer route."""

import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gfwigner.errors import (
    DimensionTooLarge,
    FieldMismatch,
    InconsistentStabilizer,
    InvalidDensityMatrix,
    MalformedInput,
    NonCommutingGenerators,
    need_numbers,
)
from gfwigner.galois import field_new
from gfwigner.net import QuantumNet, all_plus_signs, build_net, line_state, ray_generators
from gfwigner.pauli import (pauli_coefficients, parse_pauli, to_matrix, translation,
                            translation_for)
from gfwigner.phasespace import BinaryPoint, Line, all_striations, striation_labels, wedge
from gfwigner.wigner import (
    StabilizerGroup,
    _symplectic_transform,
    WignerGrid,
    all_points,
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
from gfwigner.apps import _meanking_phi1_grid
from gfwigner.pauli import IDENTITY_ATOL
from oracles import (
    ORACLE_ATOL,
    autocorrelation,
    line_operator_sums,
    mean_king_svd_density,
    pauli_sum_dense,
    point_operator_gram,
    point_operator_sum,
    point_operators_stacked,
    purity_identity_residual_loop,
    translation_from_points,
    wigner_of_loop,
)


def random_state(field, rng):
    v = rng.normal(size=field.N) + 1j * rng.normal(size=field.N)
    return state_density(v)


def test_density_matrix_validation():
    check_density_matrix(np.eye(4) / 4, 2)
    with pytest.raises(InvalidDensityMatrix):
        check_density_matrix(np.eye(4), 2)  # trace 4
    with pytest.raises(InvalidDensityMatrix):
        check_density_matrix(np.eye(2), 2)  # wrong shape
    bad = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(InvalidDensityMatrix):
        check_density_matrix(bad, 2)  # negative eigenvalue
    herm = np.eye(4, dtype=complex) / 4
    herm[0, 1] = 1j
    with pytest.raises(InvalidDensityMatrix):
        check_density_matrix(herm, 2)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"),
                                 complex(0, float("inf")), complex(float("nan"), 0)], ids=repr)
def test_density_matrix_validation_refuses_entries_that_are_not_finite(bad):
    # every comparison with nan is false, and [[0.5, inf], [inf, 0.5]] has
    # eigenvalues that eigvalsh returns as nan: unchecked, both passed
    for i, j in ((0, 1), (1, 1)):
        rho = np.array([[0.5, 0], [0, 0.5]], dtype=complex)
        rho[i, j] = rho[j, i] = bad
        with pytest.raises(InvalidDensityMatrix, match="finite entries"):
            check_density_matrix(rho, 1)
    rho = np.full((2, 2), 0.5, dtype=complex)  # finite: the same array back
    assert np.array_equal(check_density_matrix(rho, 1).view(np.int64), rho.view(np.int64))


def test_point_operator_two_routes_agree():
    for n in (2, 3):
        net = build_net(field_new(n), "covariant")
        for alpha in all_points(net.field):
            assert np.allclose(
                point_operator(net, alpha),
                point_operator_sum(net, alpha),
                atol=1e-10,
            )


def test_meanking_phi1_grid_equals_the_loop_bit_for_bit():
    # `wigner --n 2 --state meanking_phi1` prints the sign of the cells that
    # are zero up to rounding (8 of float noise, 1 exact 0): the preset's
    # route must keep every bit of the per-point T A(0) T^dagger route, on
    # the np.outer of the oracle's SVD phi_1
    field = field_new(2)
    net = build_net(field)
    got = np.array(_meanking_phi1_grid(net).flat)
    want = np.array(wigner_of_loop(net, mean_king_svd_density(field)).flat)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.count_nonzero(np.abs(got) < IDENTITY_ATOL) == 9


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("vec", [np.zeros(3), [0j, 0j], [1, np.nan], [np.inf, 0], [1e200, 1e200]],
                         ids=["zeros", "complex zeros", "nan", "inf", "norm overflows"])
def test_state_density_refuses_a_vector_without_a_finite_nonzero_norm(vec):
    # unchecked, np.zeros(3) gave a matrix of nan with only a RuntimeWarning
    with pytest.raises(InvalidDensityMatrix, match="finite nonzero norm"):
        state_density(vec)


@pytest.mark.parametrize("vec", ["ab", [1, "x"], [[1, 2], [3]], ["1", "0"], [True, False],
                                 np.array([True, False]), [np.True_, 0], [10 ** 400, 0]],
                         ids=["text", "a text entry", "ragged", "numeric text", "bools",
                              "bool array", "numpy bool", "int beyond float range"])
def test_state_density_refuses_a_vector_that_is_not_numbers(vec):
    # "ab" raised a bare ValueError from numpy's complex conversion, and
    # numpy read ["1", "0"] and [True, False] as |0>; 10 ** 400 raised a
    # bare OverflowError
    with pytest.raises(InvalidDensityMatrix, match="state vector needs numbers"):
        state_density(vec)


def test_state_density_keeps_the_bits_of_numbers():
    # what need_numbers accepts, signed zeros, numpy scalars and Fractions
    # included, read as 0j + z, then u conj(w) / <v|v> as rows of Python
    # complex, with <v|v> the sum of re^2 + im^2, bit for bit
    vec = [complex(-0.0, 0.6), np.float64(0.8), Fraction(1, 3), -0.0]
    v = [0.6j, 0.8 + 0j, 1 / 3 + 0j, 0j]
    norm2 = 0.6 * 0.6 + 0.8 * 0.8 + (1 / 3) * (1 / 3)
    rows = state_density(vec)
    assert type(rows) is list and all(type(row) is list and list(map(type, row)) == [complex] * 4
                                      for row in rows)
    want = [[u * w.conjugate() / norm2 for w in v] for u in v]
    assert np.array_equal(np.array(rows).view(np.int64), np.array(want).view(np.int64))


def test_rows_of_numpy_scalars_give_a_grid_of_python_floats():
    # numpy scalars read as 0j + z, which numpy computes, gave a grid of
    # np.float64 from rows of np.complex128, where flat holds Python floats
    field = field_new(2)
    net = build_net(field, "covariant")
    rho = random_state(field, np.random.default_rng(5))
    grid = wigner_of(net, [list(row) for row in rho])
    assert all(type(w) is float for w in grid.flat)
    assert grid.flat == wigner_of(net, rho).flat
    numbers = need_numbers([np.complex128(1), np.int64(2), -0.0], "a row")
    assert list(map(type, numbers)) == [complex] * 3


@pytest.mark.parametrize("n", ["x", -1, True, 2.0, None], ids=repr)
def test_density_matrix_check_refuses_a_bad_n(n):
    # "x" and None raised a bare TypeError, -1 a bare ValueError
    with pytest.raises(MalformedInput, match=f"^n = {re.escape(repr(n))} is not an int >= 0$"):
        check_density_matrix(np.eye(2) / 2, n)


def test_complex_wigner_value_names_its_point():
    # an anti-hermitian part within INPUT_ATOL passes the hermiticity check
    # but shows in W as Im W: I/N plus 0.49e-8 i times the phases of A(alpha)
    # off the diagonal gives Im W(alpha) = 1.24e-8 at a point other than the
    # origin, while |rho - rho^dagger| stays at 0.98e-8
    field = field_new(5)
    net = build_net(field)
    A = point_operator_sum(net, BinaryPoint(0, 1, 5))
    phases = np.divide(A, abs(A), out=np.zeros_like(A), where=abs(A) > 1e-12)
    np.fill_diagonal(phases, 0)
    rho = np.eye(field.N) / field.N + 0.49e-8j * phases
    check_density_matrix(rho, 5)
    first = next(alpha for alpha in all_points(field)
                 if abs(np.trace(rho @ point_operator_sum(net, alpha)).imag) > 1e-8)
    assert not first.is_origin
    with pytest.raises(InvalidDensityMatrix,
                       match=f"complex Wigner value .* at {re.escape(str(first))}$"):
        wigner_of(net, rho)


def _density_with_spectrum(n, low, seed):
    """U diag(low, ...) U^dagger, trace 1, exactly hermitian, U a Haar-ish unitary."""
    N = 1 << n
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    spectrum = np.concatenate(([low], rng.uniform(0.1, 1, size=N - 1)))
    spectrum[1:] *= (1 - low) / spectrum[1:].sum()
    rho = (q * spectrum) @ q.conj().T
    return (rho + rho.conj().T) / 2


@pytest.mark.parametrize("n", [1, 3, 6])
def test_density_check_accepts_ginibre_states_of_every_rank(n):
    # rank 1 and 2 have N - 1 and N - 2 zero eigenvalues, which rounding
    # leaves a little below 0: the shift by INPUT_ATOL keeps each pivot > 0
    rng = np.random.default_rng(n)
    N = 1 << n
    for rank in (1, 2, N):
        g = rng.normal(size=(N, rank)) + 1j * rng.normal(size=(N, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert check_density_matrix(rho, n) is rho
        rows = rho.tolist()
        assert check_density_matrix(rows, n) is rows


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_density_check_decides_positivity_as_eigvalsh_away_from_the_boundary(n):
    # the lowest eigenvalue against -INPUT_ATOL = -1e-8, each case at least
    # 1e-10 from it, where rounding (about 1e-15 here) cannot decide
    for seed, low in enumerate((-1e-6, -1.01e-8, -0.99e-8, -1e-9, 0.0, 1e-3)):
        rho = _density_with_spectrum(n, low, seed)
        assert np.linalg.eigvalsh(rho).min() == pytest.approx(low, abs=1e-13)
        if low < -1e-8:
            with pytest.raises(InvalidDensityMatrix, match="negative eigenvalue"):
                check_density_matrix(rho, n)
        else:
            check_density_matrix(rho, n)


@pytest.mark.parametrize("rho", [
    "x", None, 5, [[0.5, 0], [0.5]], [[0.5, "0"], [0, 0.5]], [[0.5, None], [0, 0.5]],
    [[[0.5], [0]], [[0], [0.5]]], np.ones(4) / 4, np.eye(4) / 4, [[0.5, 0]],
    [[True, False], [False, False]], np.array([[True, False], [False, False]]),
    [[np.True_, 0], [0, 0]], [[10 ** 400, 0], [0, 0]],
], ids=["str", "None", "int", "ragged", "str entry", "None entry", "3-d", "1-d",
        "4x4", "1 row", "bools", "bool array", "numpy bool", "int beyond float range"])
def test_density_check_refuses_what_is_not_an_n_qubit_matrix_of_numbers(rho):
    # "x" raised a bare ValueError from numpy; bools were read as 0 and 1;
    # 10 ** 400 raised a bare OverflowError
    with pytest.raises(InvalidDensityMatrix, match=r"^need finite entries and shape \(2, 2\)"):
        check_density_matrix(rho, 1)
    with pytest.raises(InvalidDensityMatrix, match="finite entries"):
        wigner_of(build_net(field_new(1)), rho)


def test_grid_reads_refuse_what_is_not_on_the_grid():
    # each read a wrong cell, returned a number or raised a bare IndexError,
    # ZeroDivisionError or AttributeError; point_operator returned a 4 x 4
    # operator for the first three points off the grid and raised a bare
    # IndexError for the last
    field = field_new(2)
    net = build_net(field)
    grid = stabilizer_wigner(net, net.ray(0))
    for call, error, match in (
            (lambda: grid.value(BinaryPoint(0, 5, 2)), MalformedInput, "^pbits = 5 "),
            (lambda: grid.value(BinaryPoint(0, 1, 3)), FieldMismatch, "not on the n = 2 grid"),
            (lambda: WignerGrid(field, (0.25, 0.25, 0.5)), MalformedInput,
             "^a grid at n = 2 needs 16 entries, got 3$"),
            (lambda: purity_identity_residual(build_net(field_new(3)), grid), FieldMismatch,
             "different fields"),
            (lambda: grid.line_sum(Line(1, 0, 99)), MalformedInput, "^c = 99 is not an int "),
            (lambda: grid.line_sum(Line(0, 1, 1.5)), MalformedInput, "^c = 1.5 "),
            (lambda: grid.line_sum(Line(0, 0, 1)), MalformedInput, "not a normalised line"),
            (lambda: grid.line_sum(None), MalformedInput, "^None is not a normalised line"),
            (lambda: point_operator(net, BinaryPoint(0, 4, 2)), MalformedInput, "^pbits = 4 "),
            (lambda: point_operator(net, BinaryPoint(1, 1, 3)), FieldMismatch, "n = 2 grid"),
            (lambda: point_operator(net, BinaryPoint(1, 1, 1)), FieldMismatch, "n = 2 grid"),
            (lambda: point_operator(net, BinaryPoint(5, 0, 2)), MalformedInput, "^qbits = 5 ")):
        with pytest.raises(error, match=match):
            call()


POINT_READS = {
    "QuantumNet.f": lambda net, grid, point: net.f(point),
    "WignerGrid.value": lambda net, grid, point: grid.value(point),
    "point_operator": lambda net, grid, point: point_operator(net, point),
    "expectation_translation": lambda net, grid, point: expectation_translation(net, grid, point),
    "wedge": lambda net, grid, point: wedge(BinaryPoint(0, 1, 2), point),
    "wedge, first": lambda net, grid, point: wedge(point, BinaryPoint(0, 1, 2)),
}


@pytest.mark.parametrize("point", [None, (0, 1)], ids=repr)
@pytest.mark.parametrize("read", POINT_READS.values(), ids=POINT_READS.keys())
def test_a_value_that_is_not_a_point_is_malformed_input(read, point):
    # each raised a bare AttributeError reading point.n
    net = build_net(field_new(2))
    grid = stabilizer_wigner(net, net.ray(0))
    with pytest.raises(MalformedInput, match=" is not a BinaryPoint$"):
        read(net, grid, point)


def test_wigner_of_refuses_a_net_above_the_dense_cap_before_reading_rho():
    # the density was read and checked first, an O(N^3) factorisation, so
    # this 128 x 128 matrix of trace 0 raised InvalidDensityMatrix
    with pytest.raises(DimensionTooLarge, match="dense realization capped at 6 qubits"):
        wigner_of(build_net(field_new(7)), [[0.0] * 128 for _ in range(128)])


def test_hermiticity_check_has_no_relative_tolerance():
    # an imaginary diagonal of 1e-6 is 1e-6 from hermitian, beyond INPUT_ATOL,
    # however large the entries it sits on
    rho = np.diag(0.25 + 1e-6j * np.array([0, 1, -1, 0]))
    with pytest.raises(InvalidDensityMatrix, match="matrix is not hermitian"):
        check_density_matrix(rho, 2)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("mode", ["independent", "covariant"])
def test_a0_rows_equal_the_numpy_pauli_sum_bit_for_bit(n, mode):
    # A(0) is N rows of Python complex; as an array they are the bits of the
    # array route's pauli_sum / N^2, signs of zeros included, which the
    # meanking_phi1 per-point traces print
    field = field_new(n)
    net = build_net(field, mode)
    rows = net.a0_matrix()
    assert type(rows) is tuple and len(rows) == field.N
    assert all(type(row) is tuple and all(type(z) is complex for z in row) for row in rows)
    want = pauli_sum_dense(n, net.f_vector()) / field.N ** 2
    assert np.array_equal(np.asarray(rows).view(np.int64), want.view(np.int64))


def oracle_nets():
    """(id, net): the default, covariant and a drawn independent net at
    n = 1..4, and a covariant net on x^3 + x^2 + 1."""
    rng = random.Random(41)
    for n in range(1, 5):
        field = field_new(n)
        signs = {label: tuple(rng.choice((1, -1)) for _ in range(n))
                 for label in striation_labels(field)}
        yield f"n{n}-default", build_net(field)
        yield f"n{n}-covariant", build_net(field, "covariant")
        yield f"n{n}-independent", QuantumNet(field, signs)
    yield "n3-x3+x2+1-covariant", build_net(field_new(3, 0b1101), "covariant")


ORACLE_NETS = dict(oracle_nets())


@pytest.mark.parametrize("net", ORACLE_NETS.values(), ids=ORACLE_NETS.keys())
def test_point_operator_traces_and_line_sums_equal_the_numpy_oracles(net):
    # verify's wigner rows: through chi = pauli_coefficients(A(0)), the N^2
    # traces Tr(A(0) A(gamma)), the symplectic transform of chi^2 over N,
    # give the whole Gram matrix of the stacked point operators at
    # alpha ^ beta; and each line's sum of its own points' operators is
    # |v><v| for v its row of net.basis, which the line_projectors row
    # checks through its ray's n generators
    field = net.field
    ops = point_operators_stacked(net)
    chi = pauli_coefficients(net.a0_matrix(), field.n)
    traces = np.array(_symplectic_transform([z * z for z in chi], field.n)) / field.N
    flat = np.arange(field.N ** 2)
    gram = point_operator_gram(ops)
    assert np.abs(gram - traces[flat[:, None] ^ flat[None, :]]).max() <= ORACLE_ATOL
    for label in striation_labels(field):
        rows = np.array(net.basis(label))
        want = line_operator_sums(net, ops, label)
        assert len(rows) == len(want) == field.N
        for v, w in zip(rows, want):
            assert np.abs(np.outer(v, v.conj()) - w).max() <= ORACLE_ATOL


def test_point_operator_orthogonality():
    for n in (2, 3):
        f = field_new(n)
        net = build_net(f, "covariant")
        pts = list(all_points(f))
        ops = [point_operator(net, a) for a in pts]
        for i, A in enumerate(ops):
            assert np.allclose(A, A.conj().T, atol=1e-12)
            assert abs(np.trace(A) - 1 / f.N) < 1e-12
            for j, B in enumerate(ops):
                want = 1 / f.N if i == j else 0.0
                assert abs(np.trace(A @ B).real - want) < 1e-10


def test_line_state_wigner_is_indicator():
    # W of a line state is 1/N on the line and 0 elsewhere
    f = field_new(2)
    net = build_net(f, "covariant")
    for st in all_striations(f):
        for line in st.lines:
            v = line_state(net, line)
            grid = wigner_of(net, state_density(v))
            on = {(p.q, f.p_to_bits(p.p)) for p in line.points(f)}
            for key, val in grid.values.items():
                want = 1 / f.N if key in on else 0.0
                assert abs(val - want) < 1e-10


def test_wigner_reconstruct_roundtrip():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        f = field_new(n)
        net = build_net(f, "covariant")
        for _ in range(10):
            rho = random_state(f, rng)
            grid = wigner_of(net, rho)
            assert abs(np.array(grid.flat).sum() - 1) < 1e-10
            assert np.abs(reconstruct(net, grid) - np.asarray(rho)).max() < 1e-10


def test_expectation_of_translations_two_ways():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        f = field_new(n)
        net = build_net(f, "covariant")
        rho = random_state(f, rng)
        grid = wigner_of(net, rho)
        for beta in all_points(f):
            via_grid = expectation_translation(net, grid, beta)
            direct = np.trace(rho @ to_matrix(translation_for(beta)))
            assert abs(direct.imag) < 1e-10
            assert abs(via_grid - direct.real) < 1e-9


def test_expectation_translation_transforms_a_grid_once(monkeypatch):
    from gfwigner import wigner

    f = field_new(3)
    net = build_net(f, "covariant")
    grp = StabilizerGroup.from_generators(
        f, [(g, 1) for g in ray_generators(f, 0)])
    grids = [stabilizer_wigner(net, grp),
             wigner_of(net, random_state(f, np.random.default_rng(5)))]
    calls = []
    transform = wigner._symplectic_transform
    monkeypatch.setattr(wigner, "_symplectic_transform",
                        lambda v, n: calls.append(n) or transform(v, n))
    for grid in grids:
        calls.clear()
        for beta in all_points(f):
            expectation_translation(net, grid, beta)
        assert len(calls) == 1  # hat W, once for all N^2 points
        purity_identity_residual(net, grid)
        assert len(calls) == 2  # the same hat W, then the autocorrelation


def test_expectation_translation_rejects_a_grid_of_another_field():
    f = field_new(3)
    other = field_new(3, 0b1011)  # x^3 + x + 1
    grp = StabilizerGroup.from_generators(
        other, [(g, 1) for g in ray_generators(other, 0)])
    grid = stabilizer_wigner(build_net(other), grp)
    with pytest.raises(FieldMismatch):
        expectation_translation(build_net(f), grid, BinaryPoint(1, 0, 3))


def test_entry_points_name_an_argument_that_is_none():
    # each raised a bare AttributeError: None has no field
    net = build_net(field_new(2))
    group = net.ray(0)
    grid, rho = stabilizer_wigner(net, group), state_density([1, 0, 0, 0])
    for call, name in ((lambda: wigner_of(None, rho), "net"),
                       (lambda: stabilizer_wigner(net, None), "group"),
                       (lambda: stabilizer_wigner(None, group), "net"),
                       (lambda: stabilizer_wigner_value(net, None, BinaryPoint(1, 0, 2)), "group"),
                       (lambda: reconstruct(net, None), "grid"),
                       (lambda: purity_identity_residual(net, None), "grid"),
                       (lambda: expectation_translation(net, None, BinaryPoint(1, 0, 2)), "grid")):
        with pytest.raises(MalformedInput, match=f"^{name} must have a field, got NoneType$"):
            call()
    with pytest.raises(FieldMismatch, match="^group and net use different fields$"):
        stabilizer_wigner(build_net(field_new(3)), group)
    with pytest.raises(FieldMismatch, match="not on the n = 2 grid"):  # from net.f
        expectation_translation(net, grid, BinaryPoint(1, 0, 3))


def test_translations_recovered_from_point_operators():
    f = field_new(2)
    net = build_net(f, "covariant")
    for beta in all_points(f):
        assert np.allclose(
            translation_from_points(net, beta),
            to_matrix(translation_for(beta)),
            atol=1e-10,
        )


def test_purity_identity_detects_mixedness():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        f = field_new(n)
        net = build_net(f, "covariant")
        pure = wigner_of(net, random_state(f, rng))
        assert purity_identity_residual(net, pure) < 1e-10
        mixed = wigner_of(net, np.eye(f.N) / f.N)
        assert purity_identity_residual(net, mixed) > 1e-3


def test_from_rationals_keeps_each_value_over_the_least_common_denominator():
    # denominators that are not powers of two, as a grid file may hold
    f = field_new(2)
    values = [Fraction(1, 3), Fraction(-1, 4), Fraction(2, 5), 1, 0, Fraction(-7, 6)]
    values += [Fraction(1, 12)] * 10
    grid = WignerGrid.from_rationals(f, values)
    assert grid.exact and grid.den == 60 and all(type(k) is int for k in grid.flat)
    assert list(grid.values.values()) == values


def test_purity_identity_exact_grid_beyond_int64_matches_loop():
    # denominators near 2^61 push the integer numerators past int64
    f = field_new(2)
    rng = random.Random(43)
    dens = [(1 << 61) - 1, (1 << 31) - 1, 8191]
    grid = WignerGrid.from_rationals(f, [Fraction(rng.randrange(-99, 100), rng.choice(dens))
                                         for _ in range(16)])
    got = purity_identity_residual(build_net(f), grid)
    assert got == purity_identity_residual_loop(grid)
    assert got > 0


def test_autocorrelation_at_origin_is_purity_over_n():
    rng = np.random.default_rng(37)
    f = field_new(2)
    net = build_net(f)
    rho = random_state(f, rng)
    grid = wigner_of(net, rho)
    origin = BinaryPoint(0, 0, 2)
    assert abs(autocorrelation(grid, origin) - 1 / f.N) < 1e-10


def test_stabilizer_group_expansion():
    f = field_new(2)
    grp = StabilizerGroup.from_generators(
        f, [(translation(2, 0b11, 0), 1), (translation(2, 0, 0b11), -1)])
    assert len(grp.elements) == 4
    assert grp.elements[(0, 0)] == 1
    assert grp.elements[(0b11, 0)] == 1
    assert grp.elements[(0, 0b11)] == -1
    # (+XX)(-ZZ) = -(XX.ZZ) = -(-YY) = +YY
    assert grp.elements[(0b11, 0b11)] == 1
    P = grp.projector()
    assert np.allclose(P @ P, P, atol=1e-12)
    assert abs(np.trace(P) - 1) < 1e-12


def test_stabilizer_group_rejects_bad_generators():
    f = field_new(2)
    with pytest.raises(NonCommutingGenerators):
        StabilizerGroup.from_generators(
            f, [(translation(2, 1, 0), 1), (translation(2, 0, 1), 1)])
    with pytest.raises(InconsistentStabilizer):
        StabilizerGroup.from_generators(
            f, [(translation(2, 1, 0), 1), (translation(2, 1, 0), 1)])
    with pytest.raises(InconsistentStabilizer):
        StabilizerGroup.from_generators(f, [(translation(2, 1, 0), 1)])
    # a sign is +1 or -1 as an int that is not a bool (errors.is_sign, the
    # rule nets follow): numpy's ints are kept as plain ints
    for sign in (2, True, np.True_, 1.0, 1 + 0j):
        with pytest.raises(InconsistentStabilizer, match="must be \\+1 or -1"):
            StabilizerGroup.from_generators(
                f, [(translation(2, 0b11, 0), 1), (translation(2, 0, 0b11), sign)])
    group = StabilizerGroup.from_generators(
        f, [(translation(2, 0b11, 0), 1), (translation(2, 0, 0b11), np.int64(-1))])
    assert group.signs == (1, -1) and type(group.signs[1]) is int
    with pytest.raises(InconsistentStabilizer, match="^non-hermitian generator"):
        StabilizerGroup.from_generators(field_new(1), [(parse_pauli("iX"), 1)])


def test_stabilizer_wigner_matches_dense_exhaustive_n2():
    f = field_new(2)
    net = build_net(f, "covariant")
    groups = all_stabilizer_groups(f)
    assert len(groups) == 15  # (2^1+1)(2^2+1)
    for members in groups:
        pts = sorted(members - {(0, 0)})[:2]
        gens = [translation(2, a, b) for a, b in pts]
        for s1, s2 in product((1, -1), repeat=2):
            grp = StabilizerGroup.from_generators(
                f, [(gens[0], s1), (gens[1], s2)])
            dense = wigner_of(net, grp.projector())
            exact = stabilizer_wigner(net, grp)
            for key, val in exact.values.items():
                assert isinstance(val, Fraction)
                assert val.denominator in (1, 2, 4, 8, 16)
                assert abs(float(val) - dense.values[key]) < 1e-10


def test_stabilizer_wigner_matches_dense_random_n3():
    f = field_new(3)
    net = build_net(f, "covariant")
    rng = random.Random(41)
    done = 0
    while done < 50:
        gens = [(translation(3, rng.randrange(8), rng.randrange(8)),
                 rng.choice((1, -1))) for _ in range(3)]
        try:
            grp = StabilizerGroup.from_generators(f, gens)
        except (NonCommutingGenerators, InconsistentStabilizer):
            continue
        dense = wigner_of(net, grp.projector())
        exact = stabilizer_wigner(net, grp)
        for key, val in exact.values.items():
            assert abs(float(val) - dense.values[key]) < 1e-10
        done += 1


def test_aligned_stabilizer_state_gives_line_indicator():
    # a stabilizer group matching a ray class with the net's own signs gives
    # W = 1/N on the ray and 0 elsewhere
    for n in (2, 3):
        f = field_new(n)
        net = build_net(f)
        gens = ray_generators(f, 0)
        grp = StabilizerGroup.from_generators(f, [(g, 1) for g in gens])
        grid = stabilizer_wigner(net, grp)
        nonzero = {k for k, v in grid.values.items() if v != 0}
        assert len(nonzero) == f.N
        assert all(grid.values[k] == Fraction(1, f.N) for k in nonzero)


def test_stabilizer_route_scales_past_dense_cap():
    f = field_new(12)
    net = QuantumNet(f, all_plus_signs(f))
    gens = [(g, 1) for g in ray_generators(f, 0)]
    grp = StabilizerGroup.from_generators(f, gens)
    val = stabilizer_wigner_value(net, grp, BinaryPoint(0, 0, 12))
    assert val == Fraction(1, f.N)


def test_every_net_has_a_negative_stabilizer_state():
    # for each of the 64 Bell-symmetric nets some stabilizer state has a
    # strictly negative Wigner value
    f = field_new(2)
    groups = all_stabilizer_groups(f)
    for s0 in product((1, -1), repeat=2):
        for s1 in product((1, -1), repeat=2):
            for s2 in product((1, -1), repeat=2):
                net = QuantumNet(
                    f, all_plus_signs(f) | {0: s0, 1: s1, 2: s2})
                found = False
                for members in groups:
                    pts = sorted(members - {(0, 0)})[:2]
                    grp = StabilizerGroup.from_generators(
                        f, [(translation(2, a, b), 1) for a, b in pts])
                    if any(v < 0 for v in
                           stabilizer_wigner(net, grp).values.values()):
                        found = True
                        break
                assert found
