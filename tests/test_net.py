"""Quantum nets, the squeezing circuit, the sign function f, and MUBs."""

import json
import time

import numpy as np
import pytest

from gfwigner.errors import FieldMismatch, MalformedInput
from gfwigner.galois import field_new
from gfwigner import net as net_module
from gfwigner.net import (
    QuantumNet,
    all_plus_signs,
    basis_index,
    build_net,
    conjugate_by_u_omega,
    line_displacement,
    line_state,
    mub_bases,
    net_from_json,
    ray_generators,
    u_omega_matrix,
)
from gfwigner.pauli import (
    PauliTranslation,
    format_pauli,
    to_matrix,
    translation,
    translation_for,
)
from gfwigner.phasespace import (
    BinaryPoint,
    HORIZONTAL,
    Line,
    VERTICAL,
    all_striations,
    from_binary,
    ray_through,
    striation,
    striation_labels,
)
from oracles import line_displacement_search, ray_projector, solve_gf2, u_omega_from_gates


def index_bits(idx: int, n: int) -> int:
    return sum(((idx >> (n - 1 - i)) & 1) << i for i in range(n))


def test_basis_index_roundtrip():
    for n in (1, 2, 3):
        for bits in range(1 << n):
            assert index_bits(basis_index(bits, n), n) == bits


def test_ray_generators_commute_and_span_the_class():
    for n in (2, 3):
        f = field_new(n)
        for label in striation_labels(f):
            gens = ray_generators(f, label)
            assert len(gens) == n
            for g in gens:
                assert ray_through(
                    f, from_binary(f, BinaryPoint(g.a, g.b, n))) == label
            span = {(0, 0)}
            for g in gens:
                span |= {(a ^ g.a, b ^ g.b) for a, b in span}
            assert len(span) == f.N


def test_printed_generator_lists_n3():
    f = field_new(3)
    g0 = [format_pauli(g) for g in ray_generators(f, 0)]
    assert g0 == ["+YII", "+IXZ", "+IZY"]
    gv = [format_pauli(g) for g in ray_generators(f, VERTICAL)]
    assert gv == ["+ZII", "+IIZ", "+IZZ"]
    gh = [format_pauli(g) for g in ray_generators(f, HORIZONTAL)]
    assert gh == ["+XII", "+IXI", "+IIX"]


def test_u_omega_circuit_equals_permutation():
    for n in (1, 2, 3, 4):
        f = field_new(n)
        assert np.allclose(u_omega_from_gates(f), u_omega_matrix(f))


def test_u_omega_conjugation():
    for n in (2, 3):
        f = field_new(n)
        U = u_omega_matrix(f)
        for a in f.elements():
            X = to_matrix(translation(n, a, 0))
            assert np.allclose(
                U @ X @ U.conj().T, to_matrix(translation(n, f.apply_m(a), 0)))
            Z = to_matrix(translation(n, 0, a))
            assert np.allclose(
                U @ Z @ U.conj().T,
                to_matrix(translation(n, 0, f.apply_mt_inv(a))))


def test_u_omega_conjugation_on_labels():
    # the label map carries the exact phase, not just the sign up to +-1
    for n in (1, 2, 3, 4):
        f = field_new(n)
        U = u_omega_matrix(f)
        for a in f.elements():
            for b in f.elements():
                t = PauliTranslation(n, a, b, (a + b) % 4)
                assert np.allclose(
                    U @ to_matrix(t) @ U.conj().T,
                    to_matrix(conjugate_by_u_omega(f, t)))


def test_ray_projectors_rank_one():
    f = field_new(3)
    net = build_net(f)
    for label in striation_labels(f):
        P = net.ray(label).projector()
        assert np.allclose(P @ P, P, atol=1e-12)
        assert abs(np.trace(P) - 1) < 1e-12
        v = np.asarray(net.ray_state(label))
        assert np.allclose(np.outer(v, v.conj()), P, atol=1e-12)


def test_f_matches_dense_trace():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        f = field_new(n)
        for _ in range(3):
            signs = {
                label: tuple(rng.choice((1, -1), size=n))
                for label in striation_labels(f)
            }
            net = QuantumNet(f, signs)
            for i, fv in enumerate(net.f_vector()[1:], start=1):
                beta = BinaryPoint(i >> n, i & (f.N - 1), n)
                label = ray_through(f, from_binary(f, beta))
                P = ray_projector(net.ray(label).gens, net.signs[label])
                dense = np.trace(to_matrix(translation_for(beta)) @ P)
                assert abs(dense.imag) < 1e-12
                assert abs(dense.real - fv) < 1e-10


def test_f_decomposition_rejects_off_ray_points():
    f = field_new(2)
    gens = ray_generators(f, 0)
    with pytest.raises(ValueError):
        solve_gf2([g.a | g.b << 2 for g in gens], 1)


@pytest.mark.parametrize("bits", [(5, 1, 3), (1, 9, 2), (0, 0, 3), (4, 0, 2), (-1, 0, 2)],
                         ids=lambda bits: "BinaryPoint(qbits={}, pbits={}, n={})".format(*bits))
def test_f_rejects_points_off_the_net_grid(bits):
    # a point of another n, or with bits beyond n, raised a bare IndexError;
    # bits beyond n now refuse the point itself, as it is built
    with pytest.raises(MalformedInput if bits[2] == 2 else FieldMismatch):
        build_net(field_new(2)).f(BinaryPoint(*bits))


@pytest.mark.parametrize("label", ["x", 7, None, "1", 3, 99, -1, True, 1.0], ids=repr)
def test_ray_rejects_a_label_that_is_not_a_striation(label):
    # unchecked, "x" raised ValueError, 7 KeyError and None TypeError; the
    # check also guards ray_state and basis, which go through ray; at n = 2
    # (labels h, v, 0, 1 and 2) striation(F, 99) and ray_generators(F, 9)
    # built lines and generators, and striation(F, "x") raised ValueError;
    # True and 1.0 read as striation 1, in build_net's signs too
    field = field_new(2)
    net = build_net(field)
    net.basis(1)  # a cached basis must not answer for True
    for read in (net.ray, net.ray_state, net.basis, lambda label: striation(field, label),
                 lambda label: ray_generators(field, label),
                 lambda label: build_net(field, signs={label: (1, -1)})):
        with pytest.raises(MalformedInput, match="no striation"):
            read(label)


def test_build_net_checks_independent_signs_once(monkeypatch):
    # independent nets were checked twice, by build_net and by QuantumNet,
    # each pass O(N n); the covariant derivation reads checked signs, so
    # that mode checks the given ones first
    calls = []
    checked = net_module._checked_signs
    monkeypatch.setattr(net_module, "_checked_signs",
                        lambda *args: calls.append(args) or checked(*args))
    for mode, passes in (("independent", 1), ("covariant", 2)):
        calls.clear()
        build_net(field_new(3), mode)
        assert len(calls) == passes, mode


def test_covariance_of_covariant_net():
    for n in (2, 3):
        f = field_new(n)
        net = build_net(f, "covariant")
        U = u_omega_matrix(f)
        for lam in range(f.order):
            lhs = net.ray((lam - 2) % f.order).projector()
            rhs = U @ net.ray(lam).projector() @ U.conj().T
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_covariant_net_n10_maps_each_ray_generator_covariantly():
    # beyond the dense range: f(U beta) = sigma f(beta) on every generator,
    # where U_w T_beta U_w^dagger = sigma T_(U beta)
    f = field_new(10)
    net = build_net(f, "covariant", {0: (1, -1) * 5})
    for label in striation_labels(f):
        for g in ray_generators(f, label):
            pushed = conjugate_by_u_omega(f, g)
            sigma = 1 if pushed.phase_vs_canonical == 0 else -1
            assert net.f(BinaryPoint(pushed.a, pushed.b, 10)) == \
                sigma * net.f(BinaryPoint(g.a, g.b, 10))


def test_h_v_ray_states_invariant_under_u_omega():
    f = field_new(3)
    net = build_net(f, "covariant")
    U = u_omega_matrix(f)
    for label in (HORIZONTAL, VERTICAL):
        P = net.ray(label).projector()
        assert np.allclose(U @ P @ U.conj().T, P, atol=1e-10)


def test_vertical_basis_is_computational():
    f = field_new(2)
    net = build_net(f, "covariant")
    vertical = mub_bases(net)[VERTICAL]
    for line, vector in zip(striation(f, VERTICAL).lines, vertical, strict=True):
        assert abs(vector[basis_index(line.c, 2)]) > 1 - 1e-10


def test_mub_property():
    for n, mode in ((2, "covariant"), (3, "covariant"), (2, "independent")):
        f = field_new(n)
        bases = mub_bases(build_net(f, mode))
        labels = list(bases)
        assert len(labels) == f.N + 1
        for i, la in enumerate(labels):
            G = np.array([[np.vdot(u, v) for v in bases[la]]
                          for u in bases[la]])
            assert np.abs(G - np.eye(f.N)).max() < 1e-10
            for lb in labels[i + 1:]:
                for u in bases[la]:
                    for v in bases[lb]:
                        assert abs(abs(np.vdot(u, v)) ** 2 - 1 / f.N) < 1e-10


def test_line_states_are_translated_ray_states():
    f = field_new(2)
    net = build_net(f)
    for st in all_striations(f):
        for line in st.lines:
            v = line_state(net, line)
            assert abs(np.linalg.norm(v) - 1) < 1e-12


@pytest.mark.parametrize("line", [Line(0, 2, 1), Line(0, 0, 1), Line(2, 0, 1), Line(2, 3, 0),
                                  Line(0, 1, -1), Line(0, 1, 4), Line(1, 4, 0),
                                  (1, 0, 0), None, Line(0, 1, 1.5), Line("x", 0, 0),
                                  Line(True, 0, 0)], ids=str)
def test_line_state_rejects_lines_not_in_striation_form(line):
    # the row is read off c, which names the line only in the normalised
    # form: unchecked, Line(0, 2, 1), the line 2 p = 1, would get the state
    # of p = 1; a tuple or None, which is no Line, raised AttributeError;
    # c = 1.5 and a = "x" raised a bare TypeError, and a = True read as 1
    with pytest.raises(MalformedInput):
        line_state(build_net(field_new(2)), line)


def test_bases_are_cached_read_only_rows_ray_first():
    # one tuple of row tuples per striation, shared by mub_bases and
    # line_state, which returns the cached row itself; tuples cannot be
    # changed, so a caller cannot change the cached states
    f = field_new(3)
    net = build_net(f, "covariant")
    bases = mub_bases(net)
    for st in all_striations(f):
        basis = bases[st.label]
        assert basis is net.basis(st.label)
        assert type(basis) is tuple and len(basis) == f.N
        assert basis[0] == net.ray_state(st.label)
        for i, line in enumerate(st.lines):
            assert line_state(net, line) is basis[i]
            assert type(basis[i]) is tuple and all(type(z) is complex for z in basis[i])
        with pytest.raises(TypeError):
            basis[0][0] = 1
        with pytest.raises(TypeError):
            basis[0] = basis[1]


def test_line_displacement_closed_form_equals_search():
    for n in range(1, 6):
        f = field_new(n)
        for st in all_striations(f):
            for line in st.lines:
                assert line_displacement(f, line) == line_displacement_search(f, line)


def test_net_json_roundtrip():
    f = field_new(3)
    rng = np.random.default_rng(9)
    signs = {
        label: tuple(int(s) for s in rng.choice((1, -1), size=3))
        for label in striation_labels(f)
    }
    net = QuantumNet(f, signs)
    # "f" lists every nonzero point as "qbits,pbits" in (qbits, pbits) order
    assert list(json.loads(net.to_json())["f"].items()) == [
        (f"{f.bits_str(q)},{f.bits_str(p)}", net.f_vector()[(q << 3) | p])
        for q in range(f.N) for p in range(f.N) if q or p]
    other = net_from_json(net.to_json())
    assert other.field == net.field
    assert other.signs == net.signs
    assert other.f_vector() == net.f_vector()


def test_build_net_at_n14_finishes_within_2_s():
    # the label check scanned a list of N + 1 labels per key: 3.4 s and more
    # at n = 14, about 55 s at n = 16
    field = field_new(14)
    start = time.perf_counter()
    net = build_net(field)
    assert time.perf_counter() - start < 2.0
    assert len(net.signs) == field.N + 1


def test_net_json_mode_is_read_off_the_signs():
    # every n = 1 net is covariant: it has no diagonal ray to derive; at
    # n = 3 the all-+1 net is not, and a net made from the derived signs is
    assert json.loads(build_net(field_new(1)).to_json())["mode"] == "covariant"
    field = field_new(3)
    for signs, mode in ((all_plus_signs(field), "independent"),
                        (build_net(field, "covariant").signs, "covariant")):
        net = QuantumNet(field, signs)
        assert json.loads(net.to_json())["mode"] == mode
        assert net_from_json(net.to_json()).signs == net.signs


@pytest.mark.parametrize("breakage", [
    lambda payload: payload["signs"].update(x=[1, 1]),
    lambda payload: payload.update(poly="1a1"),
    lambda payload: payload["signs"].update({"01": payload["signs"].pop("1")}),
    lambda payload: payload["signs"].update({" 1": payload["signs"].pop("1")}),
    lambda payload: payload["signs"].update({"3": [1, 1]}),
], ids=["striation_key_not_a_number", "poly_not_bits", "striation_key_with_a_leading_zero",
        "striation_key_with_a_space", "no_such_striation"])
def test_net_json_with_unparsable_entries_is_malformed_input(breakage):
    # each key must be a label as str() prints it: "01" used to load as 1
    payload = json.loads(build_net(field_new(2)).to_json())
    breakage(payload)
    with pytest.raises(MalformedInput, match="net JSON"):
        net_from_json(json.dumps(payload))


def test_net_json_names_its_striation_keys_by_their_range():
    # the error listed every label: 287 bytes at n = 6, 23 kB at n = 12
    payload = json.loads(build_net(field_new(6)).to_json())
    payload["signs"]["x"] = [1] * 6
    with pytest.raises(MalformedInput, match="^net JSON striation key 'x' is not one of "
                                             "'h', 'v' and '0' to '62'$"):
        net_from_json(json.dumps(payload))


@pytest.mark.parametrize("text", [None, 5, b"{}", ["{}"]], ids=repr)
def test_net_json_that_is_not_text_is_malformed_input(text):
    # json.loads raised a bare TypeError for None
    with pytest.raises(MalformedInput, match="net JSON must be a string"):
        net_from_json(text)


def _flip_one(table):
    key = sorted(table)[len(table) // 2]
    table[key] = -table[key]


@pytest.mark.parametrize("mode", ["independent", "covariant"])
@pytest.mark.parametrize("breakage", [
    _flip_one,
    lambda table: table.pop(sorted(table)[-1]),
    lambda table: table.update({"000,000": 1}),
], ids=["one_sign_flipped", "one_key_missing", "one_key_added"])
def test_net_json_f_table_must_match_the_signs(mode, breakage):
    # random signs at n = 4, so the table checked is not all +1
    f = field_new(4)
    rng = np.random.default_rng(17)
    labels = striation_labels(f) if mode == "independent" else (HORIZONTAL, VERTICAL, 0)
    signs = {label: tuple(int(s) for s in rng.choice((1, -1), size=4)) for label in labels}
    payload = json.loads(build_net(f, mode, signs).to_json())
    assert net_from_json(json.dumps(payload)).signs == build_net(f, mode, signs).signs
    breakage(payload["f"])
    with pytest.raises(MalformedInput, match='"f" table disagrees'):
        net_from_json(json.dumps(payload))


def test_bad_signs_rejected():
    f = field_new(2)
    for eps in ((1, 0), (1,), (True, 1), (1.0, 1), (np.True_, 1), (1, np.float64(-1)), 5,
                None, "+-"):
        signs = all_plus_signs(f)
        signs[0] = eps
        with pytest.raises(MalformedInput):
            QuantumNet(f, signs)
        for mode in ("independent", "covariant"):
            with pytest.raises(MalformedInput):
                build_net(f, mode, {0: eps})
    for mode, signs in (
        ("independent", {7: (1, 1)}),  # no striation 7 at n = 2
        ("covariant", {7: (1, 1)}),
        ("covariant", {1: (1, -1)}),  # derived from ray 0, not given
        ("sideways", None),
    ):
        with pytest.raises(MalformedInput):
            build_net(f, mode, signs)
    missing = all_plus_signs(f)
    del missing[VERTICAL]
    with pytest.raises(MalformedInput):
        QuantumNet(f, missing)


def test_numpy_int_signs_are_read_as_ints():
    # a sign is an int that is not a bool, read by operator.index (the rule
    # of errors.is_sign): numpy's ints pass as numbers.Integral let them,
    # and are kept as plain ints
    f = field_new(2)
    signs = all_plus_signs(f) | {0: (np.int64(-1), np.uint8(1)), HORIZONTAL: (1, np.int8(-1))}
    net = QuantumNet(f, signs)
    assert net.signs == QuantumNet(f, all_plus_signs(f) | {0: (-1, 1), HORIZONTAL: (1, -1)}).signs
    assert {type(e) for eps in net.signs.values() for e in eps} == {int}
    assert build_net(f, "covariant", {0: (np.int64(-1), np.uint8(1))}).signs == build_net(
        f, "covariant", {0: (-1, 1)}).signs


@pytest.mark.parametrize("make", [lambda f: build_net(f, signs=[("h", (1, 1))]),
                                  lambda f: build_net(f, "covariant", [(0, (1, -1))]),
                                  lambda f: QuantumNet(f, None),
                                  lambda f: QuantumNet(f, [("h", (1, 1))])],
                         ids=["build_net_list", "covariant_list", "net_none", "net_list"])
def test_signs_that_are_not_a_mapping_are_refused(make):
    # each raised a bare AttributeError reading .items()
    with pytest.raises(MalformedInput, match="^signs must map striation labels to sign vectors"):
        make(field_new(2))
