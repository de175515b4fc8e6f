"""Field arithmetic, companion matrices, dual bases and power orderings."""

import pytest

from gfwigner.errors import NonPrimitivePolynomial, SingularBasis
from gfwigner.galois import (
    PRIMITIVE_POLYS,
    dual_basis,
    field_new,
    power_ordering,
)


def test_field_axioms_exhaustive():
    for n in (1, 2, 3, 4):
        f = field_new(n)
        for a in f.elements():
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, a) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == f.mul(b, a)
                for c in f.elements():
                    lhs = f.mul(a, f.add(b, c))
                    assert lhs == f.add(f.mul(a, b), f.mul(a, c))


def test_log_exp_consistency():
    for n in (2, 3, 4, 5):
        f = field_new(n)
        for j in range(f.order):
            assert f.log(f.pow_omega(j)) == j
        # exp table covers every nonzero element exactly once
        assert {f.pow_omega(j) for j in range(f.order)} == set(range(1, f.N))


def test_omega_squared_n2():
    # with x^2 + x + 1: w * w = 1 + w
    f = field_new(2)
    w = f.pow_omega(1)
    assert f.mul(w, w) == 1 ^ w


def test_omega_cubed_n3():
    # with x^3 + x^2 + 1: w^3 = 1 + w^2, printed bits 101
    f = field_new(3)
    assert f.bits_str(f.pow_omega(3)) == "101"


def test_non_primitive_polynomial_rejected():
    # x^2 + 1 = (x + 1)^2 is not primitive
    with pytest.raises(NonPrimitivePolynomial):
        field_new(2, 0b101)
    # x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive (order 5 root)
    with pytest.raises(NonPrimitivePolynomial):
        field_new(4, 0b111111 >> 1)


def test_trace_is_gf2_linear_and_nontrivial():
    for n in (2, 3, 4):
        f = field_new(n)
        values = set()
        for a in f.elements():
            t = f.trace(a)
            assert t in (0, 1)
            values.add(t)
            for b in f.elements():
                assert f.trace(a ^ b) == f.trace(a) ^ f.trace(b)
        assert values == {0, 1}


def test_companion_matrix_is_multiplication_by_omega():
    for n in (2, 3, 4):
        f = field_new(n)
        w = f.pow_omega(1)
        for a in f.elements():
            assert f.apply_m(a) == f.mul(a, w)
            assert f.apply_m_inv(f.apply_m(a)) == a
            assert f.apply_mt_inv(f.apply_mt(a)) == a


def test_dual_basis_defining_property():
    for n in (2, 3, 4):
        f = field_new(n)
        basis = [1 << i for i in range(n)]
        dual = dual_basis(f, basis)
        for i, di in enumerate(dual):
            for j, ej in enumerate(basis):
                want = 1 if i == j else 0
                assert f.trace(f.mul(di, ej)) == want


def test_dual_basis_n2_n3_values():
    f2 = field_new(2)
    assert dual_basis(f2, [1, 2]) == [1 ^ f2.pow_omega(1), 1]
    f3 = field_new(3)
    dual = dual_basis(f3, [1, 2, 4])
    assert [f3.log(d) for d in dual] == [4, 3, 5]


def test_dual_basis_rejects_dependent_set():
    f = field_new(2)
    with pytest.raises(SingularBasis):
        dual_basis(f, [1, 1])


def test_power_ordering_table_values():
    f2 = field_new(2)
    assert [f2.bits_str(x) for x in power_ordering(f2, "canonical")] == [
        "00", "10", "01", "11"]
    assert [f2.bits_str(x) for x in power_ordering(f2, "dual")] == [
        "00", "10", "01", "11"]
    f3 = field_new(3)
    assert [f3.bits_str(x) for x in power_ordering(f3, "canonical")] == [
        "000", "100", "010", "001", "101", "111", "110", "011"]
    assert [f3.bits_str(x) for x in power_ordering(f3, "dual")] == [
        "000", "100", "001", "011", "111", "110", "101", "010"]


def test_power_ordering_visits_everything():
    for n in (2, 3, 4, 5):
        f = field_new(n)
        for gen in ("canonical", "dual"):
            seq = power_ordering(f, gen)
            assert len(seq) == f.N
            assert set(seq) == set(range(f.N))
            assert seq[0] == 0 and seq[1] == 1


def test_pinned_polynomials_build():
    for n in PRIMITIVE_POLYS:
        field_new(n)  # raises NonPrimitivePolynomial on a bad pin


def test_momentum_coordinates_match_dual_basis():
    # p-coordinates are coordinates in the basis f_i = dual_i / dual_0
    for n in (2, 3, 4):
        f = field_new(n)
        dual = dual_basis(f, [1 << i for i in range(n)])
        fbasis = [f.mul(d, f.inv(dual[0])) for d in dual]
        assert fbasis[0] == 1
        for p in f.elements():
            bits = f.p_to_bits(p)
            acc = 0
            for i in range(n):
                if bits >> i & 1:
                    acc ^= fbasis[i]
            assert acc == p
            assert f.bits_to_p(bits) == p
