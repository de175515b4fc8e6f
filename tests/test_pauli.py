"""Translation operators: phases, composition, commutation, classes."""

import random
from fractions import Fraction

import numpy as np
import pytest

from gfwigner import apps
from gfwigner.errors import DimensionTooLarge, MalformedInput
from gfwigner.galois import field_new
from gfwigner.net import build_net, u_omega_matrix
from gfwigner.pauli import (
    PauliTranslation,
    _phase_factor,
    commutes,
    compose,
    fix_phase,
    format_pauli,
    parse_pauli,
    pauli_coefficients,
    pauli_sum,
    to_matrix,
    translation,
    translation_for,
    unphase,
    walsh_hadamard,
)
from gfwigner.phasespace import (
    BinaryPoint,
    HORIZONTAL,
    PhasePoint,
    VERTICAL,
    striation_labels,
    to_binary,
    wedge,
)
from gfwigner.wigner import StabilizerGroup, WignerGrid, reconstruct
from oracles import (class_points, fix_phase_scalar, mean_king_svd_row, to_matrix_fancy,
                     to_matrix_kron)
from oracles import walsh_hadamard as walsh_hadamard_numpy


def test_translations_are_hermitian_unitary():
    for n in (1, 2):
        for a in range(1 << n):
            for b in range(1 << n):
                T = to_matrix(translation(n, a, b))
                assert np.allclose(T, T.conj().T)
                assert np.allclose(T @ T, np.eye(1 << n))


def test_single_qubit_matrices():
    X = to_matrix(translation(1, 1, 0))
    Z = to_matrix(translation(1, 0, 1))
    Y = to_matrix(translation(1, 1, 1))
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])
    assert np.allclose(Y, [[0, -1j], [1j, 0]])


def test_compose_matches_matrix_product_exhaustive_n2():
    for a1 in range(4):
        for b1 in range(4):
            t1 = translation(2, a1, b1)
            for a2 in range(4):
                for b2 in range(4):
                    t2 = translation(2, a2, b2)
                    prod = compose(t1, t2)
                    assert np.allclose(
                        to_matrix(prod), to_matrix(t1) @ to_matrix(t2))


def test_x_times_z_is_minus_i_y():
    # X Z = -i Y on one qubit, embedded in two
    t = compose(translation(2, 1, 0), translation(2, 0, 1))
    assert (t.a, t.b) == (1, 1)
    assert t.phase_vs_canonical == 3  # i^3 = -i relative to canonical Y
    assert np.allclose(
        to_matrix(t),
        -1j * np.kron(to_matrix(translation(1, 1, 1)), np.eye(2)))


def test_commutation_equals_wedge_parity():
    n = 3
    for a1 in range(8):
        for b1 in range(8):
            for a2 in range(8):
                for b2 in range(8):
                    t1, t2 = translation(n, a1, b1), translation(n, a2, b2)
                    w = wedge(BinaryPoint(a1, b1, n), BinaryPoint(a2, b2, n))
                    assert commutes(t1, t2) == (w == 0)


def test_format_parse_roundtrip():
    for n in (1, 2, 3):
        for a in range(1 << n):
            for b in range(1 << n):
                for s in range(4):
                    t = PauliTranslation(n, a, b, s)
                    assert parse_pauli(format_pauli(t)) == t


@pytest.mark.parametrize("text", ["+XQ", "", "-i", "X Z", "+xz"])
def test_parse_pauli_rejects_malformed_strings(text):
    with pytest.raises(MalformedInput):
        parse_pauli(text)


def test_format_examples():
    f = field_new(2)
    w2 = f.pow_omega(2)
    assert format_pauli(translation_for(to_binary(f, PhasePoint(w2, 0)))) == "+XX"
    assert format_pauli(translation_for(to_binary(f, PhasePoint(0, w2)))) == "+ZZ"
    assert format_pauli(translation(2, 0b11, 0b11)) == "+YY"
    assert format_pauli(PauliTranslation(2, 1, 1, 0)) == "-iYI"


def test_commuting_classes_partition():
    for n in (2, 3):
        f = field_new(n)
        labels = striation_labels(f)
        assert len(labels) == f.N + 1
        seen = set()
        for label in labels:
            members = [translation(n, a, b) for a, b in class_points(f, label)]
            assert len(members) == f.N - 1
            for t in members:
                assert (t.a, t.b) != (0, 0)
                assert (t.a, t.b) not in seen
                seen.add((t.a, t.b))
            for t1 in members:
                for t2 in members:
                    assert commutes(t1, t2)
        assert len(seen) == f.N * f.N - 1


def test_h_and_v_classes_are_pure_strings():
    f = field_new(3)
    for t in (translation(3, a, 0) for a, _ in class_points(f, HORIZONTAL)):
        assert t.b == 0
    hs = {format_pauli(translation(3, a, b))
          for a, b in class_points(f, HORIZONTAL)}
    assert all(set(s) <= set("+XI") for s in hs)
    vs = {format_pauli(translation(3, a, b))
          for a, b in class_points(f, VERTICAL)}
    assert all(set(s) <= set("+ZI") for s in vs)


def test_class_points_lie_on_the_ray():
    from gfwigner.phasespace import from_binary, ray_through

    for n in (2, 3):
        f = field_new(n)
        for label in striation_labels(f):
            for a, b in class_points(f, label):
                pt = from_binary(f, BinaryPoint(a, b, n))
                assert ray_through(f, pt) == label


def test_dense_cap():
    field = field_new(7)
    group = StabilizerGroup.from_generators(
        field, [(translation(7, 0, 1 << i), 1) for i in range(7)])
    net = build_net(field)
    for build in (
        lambda: to_matrix(translation(7, 1, 0)),
        lambda: pauli_sum(7, np.zeros(1 << 14)),
        lambda: net.a0_matrix(),
        lambda: net.ray(0).projector(),
        lambda: group.projector(),
        lambda: reconstruct(net, WignerGrid(field, (0.0,) * (1 << 14))),
        lambda: u_omega_matrix(field),
    ):
        with pytest.raises(DimensionTooLarge):
            build()


def test_qubit_zero_is_leftmost_factor():
    T = to_matrix(translation(2, 0b01, 0))  # X on qubit 0
    assert np.allclose(T, np.kron([[0, 1], [1, 0]], np.eye(2)))


def test_to_matrix_equals_kron_for_every_label():
    for n in range(1, 5):
        for a in range(1 << n):
            for b in range(1 << n):
                for s in range(4):
                    t = PauliTranslation(n, a, b, s)
                    got = to_matrix(t)
                    assert np.array_equal(got, to_matrix_kron(t))
                    # the rows in plain Python: the bytes of the numpy scatter
                    want = to_matrix_fancy(t)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 6))
def test_pauli_coefficients_invert_pauli_sum(n):
    # Tr(T_beta T_gamma) = N delta: each direction of the pair is N times
    # the identity, exactly on integer coefficients
    N = 1 << n
    rng = random.Random(n)
    M = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(N)] for _ in range(N)]
    back = pauli_sum(n, pauli_coefficients(M, n))
    assert max(abs(x - N * z) for row, want in zip(back, M) for x, z in zip(row, want)) < 1e-12
    c = [complex(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(N * N)]
    assert pauli_coefficients(pauli_sum(n, c), n) == [N * z for z in c]
    ints = [rng.randint(-9, 9) for _ in range(N * N)]
    assert pauli_coefficients(pauli_sum(n, ints), n) == [N * k for k in ints]


def test_walsh_hadamard_is_the_signed_sum_on_each_row():
    # the package's one butterfly against numpy's in-place one (the oracle)
    # and the signed sum, bit for bit on int64, big-int, Fraction and
    # complex rows
    rng = np.random.default_rng(5)
    for k in range(7):
        size = 1 << k
        v = rng.integers(-9, 10, size=(3, size))
        want = [[sum(int(row[x]) * (-1) ** (x & y).bit_count() for x in range(size))
                 for y in range(size)] for row in v]
        assert walsh_hadamard_numpy(v).dtype == np.int64
        assert walsh_hadamard_numpy(v).tolist() == want
        big = v.astype(object) * 2**70
        z = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
        z[0, ::3] = -0.0
        fracs = np.array([[Fraction(int(x), 7) for x in row] for row in v], dtype=object)
        for rows in (v, big, fracs, z):
            for row, row_want in zip(rows, walsh_hadamard_numpy(rows)):
                got = walsh_hadamard(row.tolist())
                assert type(got) is list
                assert list(map(type, got)) == list(map(type, row_want.tolist()))
                if rows is z:
                    assert np.array_equal(np.array(got).view(np.int64), row_want.view(np.int64))
                else:
                    assert got == row_want.tolist()
        assert [walsh_hadamard(row.tolist()) for row in big] == \
            [[w * 2**70 for w in row] for row in want]


def test_fix_phase_equals_the_scalar_form_bit_for_bit():
    # the meanking_phi1 preset's phi_1 is the one vector phase-fixed by
    # numpy's product, v * _phase_factor(v), since its SVD row has general
    # complex entries, where numpy may use FMA and the preset's grid prints
    # the noise: it is the scalar form of the same row, bit for bit
    row = mean_king_svd_row(apps.mean_king_net())
    got = row * _phase_factor(row)
    want = fix_phase_scalar(row)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_fix_phase_of_python_complex_equals_the_scalar_form_bit_for_bit():
    # a state's entries, each real or imaginary with signed zero parts and
    # rounding noise, as Python complex numbers: a tuple with numpy's bits
    rng = random.Random(23)
    for size in (1, 2, 4, 64):
        for _ in range(200):
            scale = rng.choice((1.0, 2 ** -0.5, 0.125 * (1 + 2 ** -52)))
            parts = [rng.choice((0.0, -0.0, scale, -scale, scale * 3 ** -0.5)) for _ in range(size)]
            parts[rng.randrange(size)] = scale  # a state is not 0
            v = [complex(x, rng.choice((0.0, -0.0))) if rng.random() < 0.5
                 else complex(rng.choice((0.0, -0.0)), x) for x in parts]
            got = fix_phase(v)
            assert type(got) is tuple and all(type(z) is complex for z in got)
            assert np.array_equal(np.array(got).view(np.int64),
                                  fix_phase_scalar(np.array(v)).view(np.int64))


def test_fix_phase_refuses_a_zero_vector():
    for call in (lambda: fix_phase([0j, 0j]), lambda: fix_phase((0j,)),
                 lambda: fix_phase(np.zeros(4, dtype=complex)), lambda: unphase(0j),
                 lambda: unphase(complex(-0.0, 0.0))):
        with pytest.raises(MalformedInput, match="no phase"):
            call()


def test_library_entry_points_refuse_bad_input_with_a_typed_error():
    # each raised a bare IndexError, ValueError or AttributeError, or (the
    # translation) printed as +II: 8 is no 2-bit mask
    for call, match in ((lambda: fix_phase([]), "empty vector"),
                        (lambda: fix_phase(()), "empty vector"),
                        (lambda: pauli_sum(2, np.zeros(3)), "needs 16 entries, got 3"),
                        (lambda: pauli_sum(1, 5), "needs 4 entries, got a value of type int"),
                        (lambda: pauli_sum(-1, [1]), "^n = -1 is not an int >= 0$"),
                        (lambda: pauli_sum(2, np.zeros((16, 2))), "needs 16 entries, got 32"),
                        (lambda: parse_pauli(5), "must be a string, got int"),
                        (lambda: parse_pauli(None), "must be a string"),
                        (lambda: translation(2, 8, 0), "^a = 8 is not an int from 0 to 3$"),
                        (lambda: translation(2, 0, -1), "^b = -1 "),
                        (lambda: translation(2, True, 0), "^a = True "),
                        # the point itself refuses first, as it is built
                        (lambda: translation_for(BinaryPoint(0, 4, 2)), "^pbits = 4 "),
                        # n itself: a bare TypeError or ValueError before
                        (lambda: translation("x", 1, 0), "^n = 'x' is not an int >= 0$"),
                        (lambda: translation(-1, 0, 0), "^n = -1 "),
                        (lambda: translation(True, 1, 0), "^n = True "),
                        (lambda: translation(2.0, 1, 0), "^n = 2.0 "),
                        # the constructor itself: +II, and a bare IndexError
                        # from to_matrix, before
                        (lambda: PauliTranslation(2, 8, 0), "^a = 8 is not an int from 0 to 3$"),
                        (lambda: PauliTranslation(2, 0, 4, 1), "^b = 4 "),
                        (lambda: PauliTranslation(2, 1.0, 0), "^a = 1.0 "),
                        (lambda: PauliTranslation("2", 1, 0), "^n = '2' ")):
        with pytest.raises(MalformedInput, match=match):
            call()
    assert translation(2, np.int64(3), 1) == translation(2, 3, 1)
    assert PauliTranslation(np.int64(2), np.int64(3), 1, 2) == PauliTranslation(2, 3, 1, 2)
    # an array of N^2 entries in any shape is read in row-major order
    want = pauli_sum(2, list(range(16)))
    assert pauli_sum(2, np.arange(16.0).reshape(16, 1)) == want
    assert pauli_sum(2, np.arange(16.0).reshape(4, 4)) == want


def test_unphase_is_numpys_division_on_both_branches():
    # abs(z) / z by Smith's method, |re| >= |im| and |re| < |im|, with
    # signed zero parts, against numpy's complex division
    rng = random.Random(29)
    zs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2000)]
    zs += [complex(re, im) for re in (0.0, -0.0, 0.5, -3.0) for im in (0.0, -0.0, 0.5, -3.0)
           if re or im]
    assert {abs(z.real) >= abs(z.imag) for z in zs} == {True, False}
    for z in zs:
        want = (np.hypot(z.real, z.imag) / np.array([z]))[0]
        got = unphase(z)
        assert np.array([got]).view(np.int64).tolist() == np.array([want]).view(np.int64).tolist()