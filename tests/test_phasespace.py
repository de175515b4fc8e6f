"""Lines, striations, rays and the symplectic form."""

import copy
import pickle

import numpy as np
import pytest

from gfwigner.errors import FieldMismatch, MalformedInput
from gfwigner.galois import field_new
from gfwigner.pauli import PauliTranslation
from gfwigner.phasespace import (
    BinaryPoint,
    HORIZONTAL,
    Line,
    PhasePoint,
    Striation,
    VERTICAL,
    all_striations,
    from_binary,
    grid_axis,
    label_of_line,
    need_label,
    need_point,
    ray_through,
    striation,
    striation_labels,
    to_binary,
    wedge,
)
from gfwigner.wigner import WignerGrid
from oracles import wedge_field_form


def intersect(field, l1, l2):
    """None if parallel, the string "same" for equal lines, else the point."""
    if (l1.a, l1.b) == (l2.a, l2.b):
        return "same" if l1.c == l2.c else None
    # Solve the 2x2 system over the field by elimination.
    det = field.mul(l1.a, l2.b) ^ field.mul(l2.a, l1.b)
    dinv = field.inv(det)
    q = field.mul(dinv, field.mul(l1.c, l2.b) ^ field.mul(l2.c, l1.b))
    p = field.mul(dinv, field.mul(l1.a, l2.c) ^ field.mul(l2.a, l1.c))
    return PhasePoint(q, p)


def on_line(field, line, point):
    return field.mul(line.a, point.q) ^ field.mul(line.b, point.p) == line.c


def translate_line(field, line, d):
    return Line(line.a, line.b, line.c ^ field.mul(line.a, d.q) ^ field.mul(line.b, d.p))


def test_value_types_compare_hash_and_print_by_type_and_fields():
    pt = BinaryPoint(1, 2, 3)
    assert pt == BinaryPoint(1, 2, 3) and hash(pt) == hash(BinaryPoint(1, 2, 3))
    assert pt != BinaryPoint(1, 2, 4) and pt != Line(1, 2, 3)
    assert len({pt, BinaryPoint(1, 2, 3), Line(1, 2, 3)}) == 2
    assert Striation("h", (Line(0, 1, 0),)) == Striation("h", (Line(0, 1, 0),))
    for value in (pt, PhasePoint(1, 2), Line(1, 2, 3), PauliTranslation(3, 1, 2)):
        with pytest.raises(AttributeError):
            value.n = 0
        with pytest.raises(AttributeError):
            del value.n
        assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    assert repr(pt) == "BinaryPoint(qbits=1, pbits=2, n=3)"
    assert repr(PauliTranslation(2, 1, 3, 5)) == "PauliTranslation(n=2, a=1, b=3, s=1)"
    assert PauliTranslation(2, 1, 3, 5).s == 1
    assert PauliTranslation(2, 1, 3).s == 0


@pytest.mark.parametrize("cls, values", [
    (PhasePoint, (1, 2)),
    (BinaryPoint, (1, 2, 3)),
    (Line, (0, 1, 2)),
    (Striation, ("h", (Line(0, 1, 0), Line(0, 1, 1)))),
], ids=lambda x: getattr(x, "__name__", ""))
def test_record_sets_its_fields_in_slot_order_and_refuses_a_wrong_count(cls, values):
    value = cls(*values)
    assert tuple(getattr(value, name) for name in cls.__slots__) == values
    for wrong in (values[:-1], values + (0,), ()):
        with pytest.raises(TypeError):
            cls(*wrong)
    with pytest.raises(TypeError):  # positional only
        cls(**dict(zip(cls.__slots__, values)))
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)


def test_line_has_n_points_each_point_on_n_plus_1_lines():
    for n in (2, 3):
        f = field_new(n)
        count = {}
        for st in all_striations(f):
            for line in st.lines:
                pts = line.points(f)
                assert len(pts) == f.N
                for pt in pts:
                    count[(pt.q, pt.p)] = count.get((pt.q, pt.p), 0) + 1
        assert set(count.values()) == {f.N + 1}


def test_striation_count_and_partition():
    for n in (2, 3):
        f = field_new(n)
        sts = all_striations(f)
        assert len(sts) == f.N + 1
        for st in sts:
            cells = set()
            for line in st.lines:
                cells |= {(p.q, p.p) for p in line.points(f)}
            assert len(cells) == f.N * f.N


def test_parallel_lines_do_not_meet_others_meet_once():
    f = field_new(2)
    sts = all_striations(f)
    for i, s1 in enumerate(sts):
        for l1 in s1.lines:
            for j, s2 in enumerate(sts):
                for l2 in s2.lines:
                    hit = intersect(f, l1, l2)
                    if l1 == l2:
                        assert hit == "same"
                    elif i == j:
                        assert hit is None
                    else:
                        assert isinstance(hit, PhasePoint)
                        assert on_line(f, l1, hit) and on_line(f, l2, hit)


def test_ray_through_and_label_of_line():
    for n in (2, 3):
        f = field_new(n)
        for st in all_striations(f):
            assert label_of_line(f, st.ray) == st.label
            for pt in st.ray.points(f):
                if pt.q or pt.p:
                    assert ray_through(f, pt) == st.label


def test_labels_and_translation():
    f = field_new(3)
    assert striation_labels(f) == [HORIZONTAL, VERTICAL, 0, 1, 2, 3, 4, 5, 6]
    st = striation(f, 2)
    d = PhasePoint(f.pow_omega(4), f.pow_omega(1))
    for line in st.lines:
        moved = translate_line(f, line, d)
        assert label_of_line(f, moved) == 2
        for pt in line.points(f):
            assert on_line(f, moved, PhasePoint(pt.q ^ d.q, pt.p ^ d.p))


def test_binary_roundtrip():
    for n in (2, 3):
        f = field_new(n)
        for q in f.elements():
            for p in f.elements():
                pt = PhasePoint(q, p)
                assert from_binary(f, to_binary(f, pt)) == pt


def test_wedge_is_antisymmetric_bilinear():
    f = field_new(3)
    pts = [BinaryPoint(q, p, 3) for q in range(8) for p in range(8)]
    for a in pts[:20]:
        assert wedge(a, a) == 0
        for b in pts:
            assert wedge(a, b) == wedge(b, a)  # characteristic 2
            for c in pts[:10]:
                bc = BinaryPoint(b.qbits ^ c.qbits, b.pbits ^ c.pbits, 3)
                assert wedge(a, bc) == wedge(a, b) ^ wedge(a, c)


def test_wedge_field_form_matches_binary_form():
    for n in (2, 3):
        f = field_new(n)
        for q1 in f.elements():
            for p1 in f.elements():
                for q2 in f.elements():
                    for p2 in f.elements():
                        a, b = PhasePoint(q1, p1), PhasePoint(q2, p2)
                        assert wedge_field_form(f, a, b) == wedge(
                            to_binary(f, a), to_binary(f, b))


def test_wedge_field_mismatch():
    with pytest.raises(FieldMismatch):
        wedge(BinaryPoint(1, 0, 2), BinaryPoint(1, 0, 3))


def test_grid_axis_order():
    f = field_new(2)
    w = f.pow_omega(1)
    assert grid_axis(f) == [0, 1, w, f.mul(w, w)]


def test_as_array_places_each_point_on_its_axes():
    # a grid whose value at each flat index is the index itself
    for n in (1, 2, 3):
        f = field_new(n)
        idx = WignerGrid(f, tuple(map(float, range(f.N * f.N)))).as_array()
        assert sorted(idx.ravel().tolist()) == list(range(f.N * f.N))
        for i, q in enumerate(grid_axis(f)):
            for j, p in enumerate(grid_axis(f)):
                assert idx[i, j] == (q << n) | f.p_to_bits(p)


def test_ray_through_refuses_the_origin():
    with pytest.raises(MalformedInput, match="origin"):
        ray_through(field_new(2), PhasePoint(0, 0))


def test_binary_forms_refuse_coordinates_off_the_grid():
    # to_binary gave qbits=99 and from_binary PhasePoint(9, 0), silently
    f = field_new(2)
    for call, match in ((lambda: to_binary(f, PhasePoint(99, 0)), "^q = 99 is not an int "),
                        (lambda: to_binary(f, PhasePoint(0, 4)), "^p = 4 "),
                        (lambda: from_binary(f, BinaryPoint(9, 0, 2)), "^qbits = 9 "),
                        (lambda: from_binary(f, BinaryPoint(0, -1, 2)), "^pbits = -1 "),
                        # ray_through raised a bare IndexError reading log(9)
                        (lambda: ray_through(f, PhasePoint(9, 1)), "^q = 9 is not an int ")):
        with pytest.raises(MalformedInput, match=match):
            call()
    with pytest.raises(FieldMismatch):
        from_binary(f, BinaryPoint(1, 0, 3))
    for point in (PhasePoint(q, p) for q in range(4) for p in range(4)):
        assert from_binary(f, to_binary(f, point)) == point


@pytest.mark.parametrize("read", [to_binary, ray_through], ids=["to_binary", "ray_through"])
@pytest.mark.parametrize("point", [None, (1, 0), BinaryPoint(1, 0, 2), Line(0, 1, 0)], ids=repr)
def test_phase_point_reads_refuse_a_value_that_is_not_a_phase_point(read, point):
    # to_binary(F, None) and ray_through(F, (1, 0)) raised a bare
    # AttributeError reading .q; both read a point by one rule
    with pytest.raises(MalformedInput, match="is not a PhasePoint$"):
        read(field_new(2), point)


def test_phase_point_reads_take_numpy_ints_as_before():
    f = field_new(2)
    point = PhasePoint(np.int64(2), np.uint8(3))
    assert to_binary(f, point) == to_binary(f, PhasePoint(2, 3))
    assert ray_through(f, point) == ray_through(f, PhasePoint(2, 3))
    for bad, match in ((PhasePoint(True, 1), "^q = True "), (PhasePoint(1, 1.0), "^p = 1.0 ")):
        for read in (to_binary, ray_through):
            with pytest.raises(MalformedInput, match=match):
                read(f, bad)


@pytest.mark.parametrize("bits, match", [
    ((1.5, 0, 2), "^qbits = 1.5 is not an int from 0 to 3$"),
    (("1", 0, 2), "^qbits = '1' "),
    ((True, 0, 2), "^qbits = True "),
    ((4, 0, 2), "^qbits = 4 "),
    ((0, 0, -1), "^n = -1 is not an int >= 0$"),
], ids=repr)
def test_binary_point_refuses_bits_that_are_not_n_bit_masks(bits, match):
    # each was built, and net.f, wedge and the other point reads then raised
    # a bare TypeError or IndexError, or (True) read it as 1
    with pytest.raises(MalformedInput, match=match):
        BinaryPoint(*bits)


def test_binary_point_takes_any_int_and_need_point_checks_type_and_n():
    assert BinaryPoint(np.int64(3), 1, np.int64(2)) == BinaryPoint(3, 1, 2)
    point = BinaryPoint(1, 0, 2)
    assert need_point(point, 2) is point
    with pytest.raises(MalformedInput, match="^PhasePoint\\(q=1, p=0\\) is not a BinaryPoint$"):
        need_point(PhasePoint(1, 0), 2)
    with pytest.raises(FieldMismatch, match="is not on the n = 3 grid$"):
        need_point(point, 3)


def test_need_label_returns_a_plain_label():
    f = field_new(2)
    for label in (HORIZONTAL, VERTICAL, 0, 2):
        assert need_label(f, label) == label
    one = need_label(f, np.int64(1))
    assert one == 1 and type(one) is int
    assert striation(f, np.int64(1)) == striation(f, 1)
    assert type(striation(f, np.int64(1)).label) is int
    for label in (True, False, 1.0, 3, -1, "H", None, [1]):
        with pytest.raises(MalformedInput, match="^no striation "):
            need_label(f, label)


def test_unknown_striation_is_named_by_the_range_of_labels():
    # not one by one: at n = 16 the list of all N + 1 labels ran to 450 kB
    with pytest.raises(MalformedInput, match="^no striation -1 at n = 16; the labels are "
                                             "'h', 'v' and the ints 0 to 65534$"):
        striation(field_new(16), -1)


def test_points_on_line_iff_wedge_with_direction_vanishes():
    # two nonzero points lie on the same ray iff their wedge (field form)
    # is zero; checked through the striation label
    f = field_new(3)
    for st in all_striations(f):
        ray_pts = [p for p in st.ray.points(f) if p.q or p.p]
        for a in ray_pts:
            for b in ray_pts:
                assert wedge_field_form(f, a, b) == 0
