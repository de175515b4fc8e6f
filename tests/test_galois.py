"""Field arithmetic, companion matrices, the dual basis of the p axis and power
orderings."""

from functools import cache
from math import gcd

import pytest

from gfwigner.errors import DegreeMismatch, MalformedInput, NonPrimitivePolynomial
from gfwigner.galois import (
    PRIMITIVE_POLYS,
    field_new,
    parse_poly,
    power_ordering,
    read_field_header,
)
from oracles import (
    companion_rows,
    dual_basis_gauss_jordan,
    row_times_all,
    traces_by_squaring,
    transpose_rows,
)


@cache
def fields_of_degree(n: int) -> list:
    """GF(2^n) for every primitive polynomial of degree n <= 8 (there are
    phi(2^n - 1) / n), and for the default one alone above degree 8."""
    if n > 8:
        return [field_new(n)]
    out = []
    for poly in range((1 << n) | 1, 1 << (n + 1), 2):
        try:
            out.append(field_new(n, poly))
        except NonPrimitivePolynomial:
            pass
    order = (1 << n) - 1
    assert len(out) * n == sum(gcd(k, order) == 1 for k in range(1, order + 1))
    return out


def test_field_axioms_exhaustive():
    for n in (1, 2, 3, 4):
        f = field_new(n)
        for a in f.elements():
            assert a ^ 0 == a
            assert f.mul(a, 1) == a
            assert a ^ a == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == f.mul(b, a)
                for c in f.elements():
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


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


@pytest.mark.parametrize("n", [True, False, 1.0, "2", None, 0, 17])
def test_degree_must_be_an_int_in_range(n):
    # True == 1, so a bool passed the range check and built GF(2)
    with pytest.raises(DegreeMismatch):
        field_new(n)


@pytest.mark.parametrize("poly", ["1101", 13.0, True, False, [1, 0, 1, 1]])
def test_polynomial_must_be_an_int(poly):
    # the file form "1101" is read by parse_poly; a str, float or list
    # raised a bare AttributeError (no bit_length), and a bool was read as
    # the polynomial 1 or 0
    with pytest.raises(MalformedInput, match="int bit mask"):
        field_new(3, poly)
    assert field_new(3, 13).poly == 13


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
            assert f.apply_mt_inv(f.apply_mt(a)) == a


@pytest.mark.parametrize("n", range(1, 17))
def test_companion_shifts_equal_the_row_mask_matrices(n):
    # a M, b M~ and b M~^-1 on every element against the matrices
    for f in fields_of_degree(n):
        m = companion_rows(f)
        assert [f.apply_m(a) for a in f.elements()] == row_times_all(m).tolist()
        image = row_times_all(transpose_rows(m)).tolist()
        assert [f.apply_mt(b) for b in f.elements()] == image
        assert [f.apply_mt_inv(b) for b in image] == list(f.elements())


@pytest.mark.parametrize("n", range(1, 17))
def test_trace_form_equals_repeated_squaring(n):
    for f in fields_of_degree(n):
        assert [f.trace(a) for a in f.elements()] == traces_by_squaring(f).tolist()


@pytest.mark.parametrize("n", range(1, 17))
def test_dual_basis_equals_gauss_jordan(n):
    # the p axis's basis, which the walk 1 M~^j builds, is the trace dual of
    # the canonical basis rescaled so that f_0 = 1: f_i = ebar_i / ebar_0,
    # ebar by Gauss-Jordan elimination; p_to_bits are the coordinates in it
    for f in fields_of_degree(n):
        dual = dual_basis_gauss_jordan(f, [1 << i for i in range(n)], traces_by_squaring(f))
        fbasis = [f.mul(d, f.inv(dual[0])) for d in dual]
        for p in f.elements():
            bits = f.p_to_bits(p)
            acc = 0
            for i in range(n):
                if bits >> i & 1:
                    acc ^= fbasis[i]
            assert acc == p
            assert f.bits_to_p(bits) == p


def test_poly_string_round_trip_and_malformed_strings():
    for n in (1, 4, 16):
        f = field_new(n)
        assert len(f.poly_str()) == n + 1
        assert parse_poly(f.poly_str()) == f.poly
    assert field_new(3).poly_str() == "1011"  # x^3 + x^2 + 1, x^0 first
    for text in ("", "1a1", " 11", None, 7):
        with pytest.raises(MalformedInput):
            parse_poly(text)


def test_file_header_needs_an_object_with_an_int_n_and_a_poly_string():
    header = '"n": 3, "poly": "1011"'
    field, payload = read_field_header("{" + header + ', "exact": true}', "grid", exact=bool)
    assert field == field_new(3) and payload["exact"] is True
    for text in ("{" + header, "[" * 100000, "[3]", '{"n": 3}', '{"n": 3.0, "poly": "1011"}',
                 '{"n": 3, "poly": 13}', "{" + header + "}", "{" + header + ', "exact": 1}'):
        with pytest.raises(MalformedInput, match="^grid"):
            read_field_header(text, "grid", exact=bool)
    # a boolean n reaches field_new, which names it
    with pytest.raises(DegreeMismatch, match="True"):
        read_field_header('{"n": true, "poly": "11"}', "grid")


def test_dual_basis_defining_property():
    for n in (2, 3, 4):
        f = field_new(n)
        basis = [1 << i for i in range(n)]
        dual = dual_basis_gauss_jordan(f, basis, traces_by_squaring(f))
        for i, di in enumerate(dual):
            for j, ej in enumerate(basis):
                want = 1 if i == j else 0
                assert f.trace(f.mul(di, ej)) == want


def test_dual_basis_n2_n3_values():
    f2 = field_new(2)
    dual = dual_basis_gauss_jordan(f2, [1, 2], traces_by_squaring(f2))
    assert dual == [1 ^ f2.pow_omega(1), 1]
    f3 = field_new(3)
    dual = dual_basis_gauss_jordan(f3, [1, 2, 4], traces_by_squaring(f3))
    assert [f3.log(d) for d in dual] == [4, 3, 5]


def test_dual_basis_rejects_dependent_set():
    f = field_new(2)
    with pytest.raises(ValueError, match="singular"):
        dual_basis_gauss_jordan(f, [1, 1], traces_by_squaring(f))


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
    # each ordering is the walk of 1 by its matrix, M or M~, also off the
    # default polynomial (x^3 + x + 1, x^5 + x^3 + 1)
    for f in (*map(field_new, range(1, 9)), field_new(3, 0b1011), field_new(5, 0b101001)):
        for gen, step in (("canonical", f.apply_m), ("dual", f.apply_mt)):
            seq = power_ordering(f, gen)
            assert len(seq) == f.N
            assert set(seq) == set(range(f.N))
            assert seq[0] == 0 and seq[1] == 1
            assert all(step(a) == b for a, b in zip(seq[1:], seq[2:]))


def test_power_ordering_rejects_an_unknown_generator():
    with pytest.raises(MalformedInput, match="generator must be"):
        power_ordering(field_new(2), "x")


def test_pinned_polynomials_build():
    for n in PRIMITIVE_POLYS:
        field_new(n)  # raises NonPrimitivePolynomial on a bad pin
