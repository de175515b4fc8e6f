"""Point operators, Wigner transforms, and the exact stabilizer route."""

import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gfwigner.errors import (
    FieldMismatch,
    InconsistentStabilizer,
    InvalidDensityMatrix,
    NonCommutingGenerators,
)
from gfwigner.galois import field_new
from gfwigner.net import QuantumNet, all_plus_signs, build_net, line_state, ray_generators
from gfwigner.pauli import to_matrix, translation, translation_for
from gfwigner.phasespace import BinaryPoint, all_striations
from gfwigner.wigner import (
    StabilizerGroup,
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
from gfwigner.cli import resolve_state
from gfwigner.pauli import IDENTITY_ATOL
from oracles import (
    autocorrelation,
    point_operator_sum,
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
    # are zero up to rounding (8 of float noise, 1 exact 0): the grid must
    # keep every bit of the per-point T A(0) T^dagger route
    field = field_new(2)
    net = build_net(field)
    _, rho = resolve_state(field, "meanking_phi1")
    got, want = np.array(wigner_of(net, rho).flat), np.array(wigner_of_loop(net, rho).flat)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.count_nonzero(np.abs(got) < IDENTITY_ATOL) == 9


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("vec", [np.zeros(3), [0j, 0j], [1, np.nan], [np.inf, 0], [1e200, 1e200]],
                         ids=["zeros", "complex zeros", "nan", "inf", "norm overflows"])
def test_state_density_refuses_a_vector_without_a_finite_nonzero_norm(vec):
    # unchecked, np.zeros(3) gave a matrix of nan with only a RuntimeWarning
    with pytest.raises(InvalidDensityMatrix, match="finite nonzero norm"):
        state_density(vec)


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


def test_hermiticity_check_has_no_relative_tolerance():
    # an imaginary diagonal of 1e-6 is 1e-6 from hermitian, beyond INPUT_ATOL,
    # however large the entries it sits on
    rho = np.diag(0.25 + 1e-6j * np.array([0, 1, -1, 0]))
    with pytest.raises(InvalidDensityMatrix, match="matrix is not hermitian"):
        check_density_matrix(rho, 2)


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
            assert np.abs(reconstruct(net, grid) - rho).max() < 1e-10


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
    with pytest.raises(InconsistentStabilizer):
        StabilizerGroup.from_generators(
            f, [(translation(2, 0b11, 0), 1), (translation(2, 0, 0b11), 2)])


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
