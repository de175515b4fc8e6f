"""Command line interface behaviour: exit codes, formats, round trips."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfwigner
from gfwigner import apps, cli, wigner
from gfwigner.cli import (check_rows, dispatch, export_grid, import_grid, mub_json,
                          verify_groups)
from gfwigner.errors import DegreeMismatch, FieldMismatch, GfwignerError, MalformedInput
from gfwigner.galois import field_new, parse_poly
from gfwigner.net import QuantumNet, all_plus_signs, build_net, net_from_json
from gfwigner.wigner import (all_points, expectation_translation, purity_identity_residual,
                             stabilizer_wigner, state_density, wigner_of)
from oracles import (mean_king_svd_density, mub_json_nested, mub_stdout_nested,
                     rays_stdout_reference, wigner_stdout_reference)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes --------------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_bad_n_is_validation_error(capsys):
    code, _, err = run(capsys, "field", "--n", "0")
    assert code == 2
    assert "error:" in err


def test_non_primitive_poly_is_validation_error(capsys):
    # x^2 + 1 has coefficient bits 101 (low to high); 1101 has degree 3 and
    # 011 no constant term; the others are not bit strings, though
    # int(text, 2) would read both as 111
    for poly in ("101", "1101", "011", "1_11", " 111"):
        code, out, err = run(capsys, "field", "--n", "2", "--poly", poly)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_missing_state_file_is_validation_error(capsys):
    code, _, _ = run(capsys, "wigner", "--n", "2", "--state", "/no/such/file.json")
    assert code == 2


def test_preset_field_size_mismatch_is_validation_error(capsys, tmp_path):
    # each raised the base GfwignerError
    netfile = tmp_path / "net.json"
    netfile.write_text(build_net(field_new(2)).to_json())
    for argv, call, match in (
            (["--n", "3", "--state", "bell_phi_plus"],
             lambda: cli.resolve_state(field_new(3), "bell_phi_plus"), "^bell presets need --n 2$"),
            (["--n", "2", "--state", "qec_logical_0"],
             lambda: cli.resolve_state(field_new(2), "qec_logical_0"), "^qec presets need --n 3$"),
            (["--n", "3", "--state", "qec_logical_0", "--net", str(netfile)],
             lambda: cli.resolve_net(field_new(3), str(netfile)),
             "^net file does not match the requested field$"),
            (["--n", "3", "--state", "meanking_phi1"],
             lambda: apps._meanking_phi1_grid(build_net(field_new(3))),
             "^meanking_phi1 needs --n 2$")):
        code, out, err = run(capsys, "wigner", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        with pytest.raises(FieldMismatch, match=match):
            call()


def test_unknown_bell_preset_is_validation_error(capsys):
    code, out, err = run(capsys, "wigner", "--n", "2", "--state", "bell_phi_bogus")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "phi_bogus" in err


def test_stabilizer_sign_other_than_one_is_validation_error(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"stabilizer": [["+XX", 1], ["+ZZ", 2]]}))
    code, out, err = run(capsys, "wigner", "--n", "2", "--state", str(state))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("payload", [
    "density",
    {"stabilizer": 5},
    {"density": [[1, 0], [0, 0]]},
    {"stabilizer": [[5, 1], ["+ZZ", 1]]},
    {"stabilizer": [["+XXI", 1], ["+ZZI", 1]]},
    {"stabilizer": [["+IXX", 1], ["+IZZ", 1]]},
    {"stabilizer": [["+XQ", 1], ["+ZZ", 1]]},
    {"stabilizer": [["-i", 1], ["+ZZ", 1]]},
    {"density": [[[10 ** 400, 0]]]},
    {"stabilizer": [["+XX", 1], ["+ZZ", 1]], "density": [[[0.25, 0]] * 4] * 4},
    {"density": [[[0.5, 0], [0.5, 0]], [[0.5, 0]]]},
    {"density": [[[0.25, 0]] * 4] * 3 + [[[0.25, 0]] * 3]},
    {"density": [[[float("inf"), 0], [0, 0]], [[0, 0], [float("-inf"), 0]]]},
    {"density": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]},
], ids=["bare_string", "stabilizer_not_a_list", "density_cells_not_pairs",
        "pauli_label_not_a_string", "three_qubit_generators_xxi",
        "three_qubit_generators_ixx", "pauli_label_bad_letter", "pauli_label_no_letters",
        "density_number_beyond_float_range", "both_state_keys", "ragged_density_rows",
        "ragged_last_density_row", "infinite_density_cells", "nan_density_cell"])
def test_malformed_state_file_is_validation_error(tmp_path, capsys, payload):
    # JSON's Infinity and NaN would pass the density check and print nan
    state = tmp_path / "state.json"
    state.write_text(json.dumps(payload))
    code, out, err = run(capsys, "wigner", "--n", "2", "--state", str(state))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("breakage", [
    lambda payload: payload["signs"].pop("h"),
    lambda payload: payload.pop("poly"),
    lambda payload: payload.update(signs=[]),
    lambda payload: payload.update(poly=7),
    lambda payload: payload["signs"].update(h=5),
    lambda payload: payload["signs"].update({"0": None}),
    lambda payload: payload["signs"].update(x=[1, 1]),
    lambda payload: payload.update(poly="1a1"),
    lambda payload: payload["signs"].update({"01": payload["signs"].pop("1")}),
    lambda payload: payload["signs"].update({" 1": payload["signs"].pop("1")}),
], ids=["no_h_striation", "no_poly", "signs_not_an_object", "poly_not_a_string",
        "sign_vector_not_a_list", "sign_vector_null", "striation_key_not_a_number",
        "poly_not_bits", "striation_key_with_a_leading_zero",
        "striation_key_with_a_space"])
def test_net_file_missing_entry_is_validation_error(tmp_path, capsys, breakage):
    # "01" used to load as striation 1
    payload = json.loads(build_net(field_new(2)).to_json())
    breakage(payload)
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(payload))
    code, out, err = run(capsys, "wigner", "--n", "2", "--net", str(netfile),
                         "--state", "bell_phi_plus")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def _flip_first_diagonal_sign(payload):
    payload["signs"]["1"][0] *= -1
    del payload["f"]


def _flip_one_f_value(payload):
    key = next(iter(payload["f"]))
    payload["f"][key] *= -1


@pytest.mark.parametrize("mode, breakage", [
    ("covariant", lambda payload: payload.update(mode="squeezed")),
    ("covariant", _flip_first_diagonal_sign),
    ("independent", _flip_one_f_value),
    ("covariant", _flip_one_f_value),
], ids=["unknown_mode", "covariant_signs_not_derived", "f_table_disagrees",
        "covariant_f_table_disagrees"])
def test_net_file_false_claim_is_validation_error(tmp_path, capsys, mode, breakage):
    payload = json.loads(build_net(field_new(3), mode).to_json())
    breakage(payload)
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(payload))
    code, out, err = run(capsys, "wigner", "--n", "3", "--net", str(netfile),
                         "--state", "qec_logical_0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("rows", [
    [[[0.5, 0], [0.5, 0]], [[0.5, 0]]],
    [[[0.25, 0]] * 4] * 3 + [[[0.25, 0]] * 3],
], ids=["short_second_row", "short_last_row"])
def test_ragged_density_rows_are_refused_before_numpy(tmp_path, rows):
    # numpy used to refuse them with "setting an array element with a sequence"
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"density": rows}))
    with pytest.raises(MalformedInput, match="square matrix"):
        cli.resolve_state(field_new(len(rows).bit_length() - 1), str(state))


def test_net_file_with_a_boolean_n_is_validation_error(tmp_path, capsys):
    # true == 1, so the n = 1 net loaded as n = 1 and printed "n=True"
    payload = json.loads(build_net(field_new(1)).to_json())
    payload["n"] = True
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(payload))
    code, out, err = run(capsys, "wigner", "--n", "1", "--net", str(netfile),
                         "--state", "computational_0", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "True" in err


def test_net_file_with_independent_signs_loads_unchecked_diagonals(tmp_path, capsys):
    field = field_new(3)
    signs = all_plus_signs(field)
    signs[1] = (1, -1, 1)
    netfile = tmp_path / "net.json"
    netfile.write_text(QuantumNet(field, signs).to_json())
    code, _, _ = run(capsys, "wigner", "--n", "3", "--net", str(netfile),
                     "--state", "qec_logical_0")
    assert code == 0


# -- argv parsing ------------------------------------------------------------------


def test_option_forms_prefixes_and_the_last_value_agree(capsys):
    # --name value, --name=value and a unique prefix name the same option
    # (--n is exact, though it begins --net), and a repeated option's last
    # value wins
    want = run(capsys, "wigner", "--n", "2", "--state", "bell_phi_plus", "--format", "csv",
               "--net", "covariant")
    assert want[0] == 0
    for argv in (["wigner", "--n=2", "--stat", "bell_phi_plus", "--form=csv", "--ne", "covariant"],
                 ["wigner", "--n", "3", "--format", "json", "--state=bell_phi_plus", "--n", "2",
                  "--fo", "csv", "--net=covariant"]):
        assert run(capsys, *argv) == want


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["frobnicate", "-h"], ["field", "--help"],
                                  ["field", "--he"], ["wigner", "--n", "x", "-h"],
                                  ["bell", "--verify", "--bogus", "-h"]], ids=" ".join)
def test_help_anywhere_prints_the_table_to_stdout_and_exits_0(capsys, argv):
    # a command's help, or with no known command every command's help: its
    # usage line, then one line per option
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    commands = [argv[0]] if argv[0] in cli.COMMANDS else list(cli.COMMANDS)
    for command in commands:
        assert f"usage: gfwigner {command} " in out
        for name in (*(option[0] for option in cli.COMMANDS[command][1]), "--help"):
            assert f"\n  {name} " in out


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["--n", "2"], ["field"], ["field", "--n"], ["field", "--n", "--table"],
    ["field", "--n", "x"], ["field", "--n", "2", "--format", "json"],
    ["field", "--n", "2", "stray"], ["field", "--n", "2", "--bogus"], ["field", "--n", "2", "-x"],
    ["field", "--n", "2", "--"], ["bell", "--verify=1"], ["wigner", "--n", "2"],
    ["wigner", "--n", "2", "--state"],
], ids=lambda argv: " ".join(argv) or "nothing")
def test_usage_errors_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


# every --n among them is at most 3 or one that field_new refuses at once
FUZZ_VALUES = ("1", "2", "3", "0", "-1", "17", "111", "1101", "x", "2.5", "", "csv", "json",
               "xml", "default", "covariant", "/no/such/file.json", "bell_phi_plus",
               "computational_01", "qec_logical_1", "meanking_phi1", "1_1")
FUZZ_OPTIONS = sorted({o[0] for _, options in cli.COMMANDS.values() for o in options}
                      | {"--help", "--bogus"})


@st.composite
def argvs(draw):
    """A command (or none, or an unknown one), then options by their full
    name or a prefix, with a value after them, after "=" or missing, and
    stray values and -h between them."""
    argv = draw(st.lists(st.sampled_from([*cli.COMMANDS, "frobnicate"]), max_size=1))
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(FUZZ_OPTIONS))
        name = name[:draw(st.integers(2, len(name)))]
        value = draw(st.sampled_from(FUZZ_VALUES))
        argv += draw(st.sampled_from([[name, value], [f"{name}={value}"], [name], [value],
                                      ["-h"]]))
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_argv_fuzz_exits_0_or_2_and_every_2_says_error(argv):
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()  # bytes reach out.buffer
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert code == 0 or "error:" in err.getvalue(), argv


# -- file fuzz ---------------------------------------------------------------------

# values of every JSON type, and members, striation keys and state keys in
# right and wrong spellings, for the edits below
FUZZ_JUNK = st.sampled_from((
    None, True, False, 0, 1, -1, 2, 10 ** 400, 0.5, 1.0, float("nan"), float("inf"),
    float("-inf"), "", "1", "01", "nan", "inf", "1/0", "101", "+XZ", "-i", "covariant",
    [], [1], [1, 0], [[1, 0]], {}, {"1": 1})).map(copy.deepcopy)
FUZZ_KEYS = ("n", "poly", "mode", "signs", "f", "h", "v", "0", "1", "01", " 1", "1 ",
             "+1", "7", "x", "stabilizer", "density", "exact", "rows_p_descending")


def _fuzz_paths(doc, path=()):
    """The path of every value in a JSON document, the document's first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _fuzz_paths(value, (*path, key))


@st.composite
def edited(draw, doc):
    """doc with up to three edits, each at a drawn value: replaced by junk,
    removed, repeated (a list member; ragged rows) or joined by a sibling
    key holding junk or a copy of it (both state keys), or renamed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_fuzz_paths(doc))))
        if not path:
            doc = draw(FUZZ_JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, edit = path[-1], draw(st.sampled_from(("junk", "remove", "repeat", "rename")))
        if edit == "junk":
            parent[key] = draw(FUZZ_JUNK)
        elif edit == "remove":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif edit == "repeat":
            parent[draw(st.sampled_from(FUZZ_KEYS))] = draw(
                st.one_of(st.just(copy.deepcopy(parent[key])), FUZZ_JUNK))
        else:
            parent[draw(st.sampled_from(FUZZ_KEYS))] = parent.pop(key)
    return doc


@cache
def _fuzz_bases(kind: str, n: int) -> tuple:
    """Valid documents of a file kind at n: the states |0..0> by their Z
    stabilizers and by density, and both keys at once; nets of either mode;
    an exact and a dense grid."""
    field = field_new(n)
    if kind == "state":
        zs = [["+" + "".join("Z" if i == k else "I" for i in range(n)), 1] for k in range(n)]
        rho = [[[float(i == j == 0), 0.0] for j in range(field.N)] for i in range(field.N)]
        return {"stabilizer": zs}, {"density": rho}, {"stabilizer": zs, "density": rho}
    if kind == "net":
        return tuple(json.loads(build_net(field, mode, {0: (-1,) * n}).to_json())
                     for mode in ("independent", "covariant"))
    _, group = cli.resolve_state(field, "computational_" + "0" * n)
    return tuple(json.loads(export_grid(grid, "json")) for grid in (
        stabilizer_wigner(build_net(field), group),
        wigner_of(build_net(field), state_density(np.eye(field.N)[0]))))


@pytest.mark.parametrize("kind", ["state", "net", "grid"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_file_fuzz_exits_0_or_2_and_the_readers_raise_typed_errors(tmp_path_factory, kind, data):
    # state and net files through `wigner`, which exits 0 or 2, says error:
    # with every 2 and prints no nan; net and grid files through their
    # readers, which return or raise a GfwignerError; one in ten documents
    # is 100 000 "[", which json reads past the recursion limit
    n = data.draw(st.integers(1, 3 if kind != "grid" else 2))
    doc = data.draw(edited(data.draw(st.sampled_from(_fuzz_bases(kind, n)))))
    text = json.dumps(doc)
    if data.draw(st.integers(0, 9)) == 0:  # nested past the recursion limit
        text = "[" * 100_000
    if kind == "grid":
        with contextlib.suppress(GfwignerError):
            import_grid(text)
        return
    if kind == "net":
        with contextlib.suppress(GfwignerError):
            net_from_json(text)
    path = tmp_path_factory.getbasetemp() / f"fuzz_{kind}.json"
    path.write_text(text)
    spec = ["--net", str(path), "--state", "computational_" + "0" * n] if kind == "net" else [
        "--state", str(path)]
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["wigner", "--n", str(n), *spec])
    assert code in (0, 2), (text, err.getvalue())
    assert code == 0 or err.getvalue().startswith("error:"), text
    # a grid of nan, or a state read off one of two keys, is a wrong answer
    assert code == 2 or b"nan" not in out.buffer.getvalue(), text
    assert code == 2 or not (isinstance(doc, dict) and {"stabilizer", "density"} <= doc.keys())


def test_deeply_nested_state_file_exits_2(tmp_path, capsys):
    # json raises RecursionError, which the state reader, like the net and
    # grid readers, reports as MalformedInput: exit 2, not 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, "wigner", "--n", "1", "--state", str(path))
    assert code == 2
    assert err.startswith("error: state file cannot be read as JSON")


# -- field -------------------------------------------------------------------------


def test_field_table_n2(capsys):
    code, out, _ = run(capsys, "field", "--n", "2")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert rows == [["00", "00"], ["10", "10"], ["01", "01"], ["11", "11"]]


def test_field_table_csv_n3(capsys):
    code, out, _ = run(capsys, "field", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "canonical,dual"
    assert lines[1] == "000,000"
    assert lines[2] == "100,100"
    assert lines[3] == "010,001"


def test_field_poly_override(capsys):
    # x^3 + x + 1, coefficient bits low to high: 1101
    code, out, _ = run(capsys, "field", "--n", "3", "--poly", "1101",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[3] != "010,001" or True  # distinct dual ordering
    default = run(capsys, "field", "--n", "3", "--format", "csv")[1]
    assert out != default


# -- rays / uomega -------------------------------------------------------------------


def test_rays_lists_all_striations(capsys):
    code, out, _ = run(capsys, "rays", "--n", "2")
    assert code == 0
    assert out.count("striation") == 5


@pytest.mark.parametrize("n, poly", [(1, None), (2, None), (3, None), (4, None), (5, None),
                                     (3, "1101"), (4, "10011"), (5, "100101")])
def test_rays_stdout_equals_the_line_points_reference(capsys, n, poly):
    # marks read off c = a q + b p against each line's listed points, on the
    # default polynomials and on x^3 + x + 1, x^4 + x^3 + 1 and x^5 + x^3 + 1;
    # compared as lists of lines, since pytest's diff of two whole n = 5
    # outputs takes over half a minute, and the first differing line shows
    argv = ["rays", "--n", str(n)] + (["--poly", poly] if poly else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = rays_stdout_reference(n, poly and parse_poly(poly))
    assert out.splitlines(keepends=True) == want.splitlines(keepends=True)


def test_uomega_gate_list(capsys):
    code, out, _ = run(capsys, "uomega", "--n", "2")
    assert code == 0
    kinds = {line.split()[0] for line in out.splitlines()}
    assert kinds <= {"swap", "cnot"}


# -- mub ----------------------------------------------------------------------------


def test_mub_reports_tiny_deviations(capsys):
    code, out, _ = run(capsys, "mub", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    report = payload["overlap_report"]
    assert report["max_gram_deviation"] < 1e-10
    assert report["max_cross_overlap_deviation"] < 1e-10
    assert len(payload["bases"]) == 2 ** 3 + 1


@pytest.mark.parametrize("net", ["default", "covariant"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mub_stdout_equals_the_nested_json_reference(capsys, n, net):
    code, out, _ = run(capsys, "mub", "--n", str(n), "--net", net)
    assert code == 0
    assert out == mub_stdout_nested(n, net)


@pytest.mark.parametrize("n, seed", [(3, 5), (4, 6)])
def test_mub_stdout_on_a_seeded_net_file_equals_the_reference(tmp_path, capsys, n, seed):
    field = field_new(n)
    rng = np.random.default_rng(seed)
    signs = {label: tuple(int(s) for s in rng.choice((1, -1), size=n))
             for label in all_plus_signs(field)}
    netfile = tmp_path / "net.json"
    netfile.write_text(QuantumNet(field, signs).to_json())
    code, out, _ = run(capsys, "mub", "--n", str(n), "--net", str(netfile))
    assert code == 0
    assert out == mub_stdout_nested(n, str(netfile))


def test_mub_stdout_with_another_polynomial_equals_the_reference(capsys):
    # x^4 + x^3 + 1, the reciprocal of the default x^4 + x + 1
    code, out, _ = run(capsys, "mub", "--n", "4", "--poly", "10011", "--net", "covariant")
    assert code == 0
    assert out == mub_stdout_nested(4, "covariant", poly=0b11001)


def test_mub_json_keeps_signed_zeros_apart():
    # 0.0 == -0.0, so a memo keyed by value would print one for the other
    zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    bases = {
        "h": [np.array(zeros), np.array([0.5, -0.5j, 1 / 3, -1e-13 + 2j])],
        0: [np.array(zeros[::-1]), np.array([2 ** -0.5] * 2 + zeros[1:3])],
    }
    report = {"max_gram_deviation": 0.0, "max_cross_overlap_deviation": 1e-17}
    text = mub_json(2, "n=2;test", bases, report)
    assert text == mub_json_nested(2, "n=2;test", bases, report)
    assert "-0.0" in text and " 0.0" in text


# -- wigner ------------------------------------------------------------------------


def test_wigner_stabilizer_preset_is_exact(capsys):
    code, out, _ = run(capsys, "wigner", "--n", "2",
                       "--state", "bell_phi_plus", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    flat = [Fraction(c) for row in payload["rows_p_descending"] for c in row]
    assert sum(flat) == 1
    assert set(flat) <= {Fraction(0), Fraction(1, 4), Fraction(-1, 4),
                         Fraction(1, 8), Fraction(-1, 8)}


def test_wigner_dense_preset_has_decimals(capsys):
    code, out, _ = run(capsys, "wigner", "--n", "2",
                       "--state", "meanking_phi1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    flat = [float(c) for row in payload["rows_p_descending"] for c in row]
    assert abs(sum(flat) - 1) < 1e-9


def test_wigner_computational_preset(capsys):
    code, out, _ = run(capsys, "wigner", "--n", "3",
                       "--state", "computational_101", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p\\q,")
    cells = [c for line in lines[1:] for c in line.split(",")[1:]]
    assert cells.count("0") == 56 and cells.count("1/8") == 8
    # one bit per qubit
    code, out, err = run(capsys, "wigner", "--n", "2", "--state", "computational_1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "expected 2 binary digits" in err, err


def test_wigner_state_file_roundtrip(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"stabilizer": [["+XX", 1], ["+ZZ", 1]]}))
    code, out, _ = run(capsys, "wigner", "--n", "2",
                       "--state", str(state), "--format", "json")
    assert code == 0
    preset = run(capsys, "wigner", "--n", "2",
                 "--state", "bell_phi_plus", "--format", "json")[1]
    assert json.loads(out)["rows_p_descending"] == \
        json.loads(preset)["rows_p_descending"]


def test_wigner_density_file(tmp_path, capsys):
    rho = state_density(np.asarray(apps.bell_stabilizer(field_new(2), "psi_minus").state()))
    payload = {"density": [[[z.real, z.imag] for z in row] for row in rho]}
    f = tmp_path / "rho.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "wigner", "--n", "2",
                       "--state", str(f), "--format", "json")
    assert code == 0
    got = [[float(c) for c in row]
           for row in json.loads(out)["rows_p_descending"]]
    field = field_new(2)
    exact = stabilizer_wigner(build_net(field),
                              apps.bell_stabilizer(field, "psi_minus"))
    want = [[float(v) for v in row]
            for row in np.array(export_rows(exact))]
    assert np.allclose(got, want, atol=1e-10)


def export_rows(grid):
    from oracles import grid_rows
    return [[float(v) for v in row] for row in grid_rows(grid)]


def test_wigner_net_file(tmp_path, capsys):
    field = field_new(2)
    net = build_net(field, "covariant")
    netfile = tmp_path / "net.json"
    netfile.write_text(net.to_json())
    code, out, _ = run(capsys, "wigner", "--n", "2", "--net", str(netfile),
                       "--state", "bell_phi_plus", "--format", "json")
    assert code == 0
    assert json.loads(out)["net"] == net.fingerprint()


def test_wigner_covariant_net_n7_ghz(tmp_path, capsys):
    state = tmp_path / "ghz7.json"
    gens = [["+" + "X" * 7, 1]] + [
        ["+" + "I" * k + "ZZ" + "I" * (5 - k), 1] for k in range(6)
    ]
    state.write_text(json.dumps({"stabilizer": gens}))
    code, out, err = run(capsys, "wigner", "--n", "7", "--net", "covariant",
                         "--state", str(state), "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["exact"] is True
    assert sum(Fraction(c) for row in payload["rows_p_descending"] for c in row) == 1


@pytest.mark.parametrize("poly", [None, "1101"], ids=["default", "1101"])
@pytest.mark.parametrize("which", [0, 1])
def test_qec_preset_is_the_papers_code_on_any_polynomial(tmp_path, capsys, poly, which):
    # the preset is the state of +IXX, +XXI, (-1)^which ZZZ whatever the field
    state = tmp_path / "qec.json"
    state.write_text(json.dumps(
        {"stabilizer": [["+IXX", 1], ["+XXI", 1], ["+ZZZ", 1 - 2 * which]]}))
    poly_args = ["--poly", poly] if poly else []
    grids = [run(capsys, "wigner", "--n", "3", *poly_args, "--state", spec,
                 "--format", "json") for spec in (f"qec_logical_{which}", str(state))]
    assert grids[0][0] == 0 and grids[0] == grids[1]


# -- grid export / import ----------------------------------------------------------


def test_export_import_grid_json_roundtrip_exact():
    field = field_new(3)
    net = apps.qec_net(field)
    grid = stabilizer_wigner(net, apps.logical_group(field, 0))
    back = import_grid(export_grid(grid, "json"))
    assert back.exact and back.values == grid.values


def test_export_import_grid_json_roundtrip_dense():
    field = field_new(2)
    net = build_net(field)
    rng = np.random.default_rng(7)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    grid = wigner_of(net, state_density(v / np.linalg.norm(v)))
    back = import_grid(export_grid(grid, "json"))
    for key, val in grid.values.items():
        assert abs(back.values[key] - val) < 1e-11


def _exported_grid_payload(exact: bool) -> dict:
    field = field_new(2)
    net = build_net(field)
    if exact:
        grid = stabilizer_wigner(net, apps.bell_stabilizer(field, "phi_plus"))
    else:
        grid = wigner_of(net, state_density(np.ones(4)))
    return json.loads(export_grid(grid, "json"))


@pytest.mark.parametrize("exact, breakage", [
    (True, lambda payload: payload.pop("rows_p_descending")),
    (True, lambda payload: payload.pop("exact")),
    (True, lambda payload: payload.update(poly=7)),
    (True, lambda payload: payload.update(poly="1a1")),
    (False, lambda payload: payload.update(poly="")),
    (True, lambda payload: payload["rows_p_descending"].pop()),
    (False, lambda payload: payload["rows_p_descending"].append(["0"] * 4)),
    (True, lambda payload: payload["rows_p_descending"][1].pop()),
    (False, lambda payload: payload["rows_p_descending"][0].append("0")),
    (False, lambda payload: payload["rows_p_descending"][2].__setitem__(1, "abc")),
    (False, lambda payload: payload["rows_p_descending"][2].__setitem__(1, None)),
    (False, lambda payload: payload["rows_p_descending"][2].__setitem__(1, "nan")),
    (True, lambda payload: payload["rows_p_descending"][0].__setitem__(0, "0.25")),
    (True, lambda payload: payload["rows_p_descending"][0].__setitem__(0, 0.25)),
    (True, lambda payload: payload["rows_p_descending"][0].__setitem__(0, "1/x")),
    (True, lambda payload: payload["rows_p_descending"][0].__setitem__(0, "1/0")),
    (False, lambda payload: payload["rows_p_descending"][2].__setitem__(1, 10 ** 400)),
], ids=["no_rows", "no_exact", "poly_not_a_string", "poly_not_bits", "poly_empty",
        "missing_row", "extra_row", "short_row", "long_row",
        "text_cell", "null_cell", "nan_cell", "exact_decimal_string",
        "exact_float", "exact_bad_fraction", "exact_zero_denominator",
        "number_beyond_float_range"])
def test_import_grid_rejects_malformed_grids(exact, breakage):
    payload = _exported_grid_payload(exact)
    breakage(payload)
    with pytest.raises(MalformedInput):
        import_grid(json.dumps(payload))


@pytest.mark.parametrize("exact", [True, False])
def test_import_grid_rejects_a_boolean_n(exact):
    field = field_new(1)
    _, group = cli.resolve_state(field, "computational_0")
    if exact:
        grid = stabilizer_wigner(build_net(field), group)
    else:
        grid = wigner_of(build_net(field), state_density(np.array([1, 0])))
    payload = json.loads(export_grid(grid, "json"))
    payload["n"] = True
    with pytest.raises(DegreeMismatch):
        import_grid(json.dumps(payload))


def test_export_grid_ascii_shading():
    field = field_new(2)
    net = apps.mean_king_net(field)
    grid = stabilizer_wigner(net, apps.bell_stabilizer(field, "phi_plus"))
    text = export_grid(grid, "ascii")
    assert "#" in text and "." in text
    with pytest.raises(GfwignerError, match="^unknown format 'xml'$"):
        export_grid(grid, "xml")


# -- application subcommands --------------------------------------------------------


def test_bell_subcommand(capsys):
    code, out, _ = run(capsys, "bell")
    assert code == 0
    assert "'concentrated': 128" in out and "'spread': 128" in out


def test_qec_subcommand(capsys):
    code, out, _ = run(capsys, "qec")
    assert code == 0
    assert "solution family" in out
    assert out.count("a=") == 12  # 8 family + 4 covariant


def test_meanking_subcommand(capsys):
    code, out, _ = run(capsys, "meanking")
    assert code == 0
    assert "retrodiction success probability: 1.000000000000" in out
    # the line sums y1 and z1 are 0 up to float noise, whose sign the grid's
    # summation order decides: they print unsigned
    assert "  y1: 0.000000\n" in out and "  z1: 0.000000\n" in out
    assert "-0.000000" not in out


@pytest.mark.parametrize("net", ["default", "covariant"])
def test_meanking_phi1_stdout_equals_the_per_point_reference(capsys, net):
    # 8 cells of the default net's grid are zero up to float noise, and the
    # ascii shade prints its sign: the preset keeps the per-point traces,
    # whose signs its recorded benchmark output has, where the chi route
    # shades some of those cells differently
    for fmt in ("ascii", "csv", "json"):
        code, out, _ = run(capsys, "wigner", "--n", "2", "--state", "meanking_phi1",
                           "--net", net, "--format", fmt)
        assert code == 0
        assert out == wigner_stdout_reference(2, "meanking_phi1", net, fmt=fmt)
    grid_net = cli.resolve_net(field_new(2), net)
    rho = mean_king_svd_density(grid_net.field)
    assert out != export_grid(wigner_of(grid_net, rho), "json", {"net": grid_net.fingerprint()})


def test_startup_imports_only_what_a_command_uses(tmp_path):
    # a fresh process: the package and the cli load without numpy or
    # dataclasses, and so do the commands without array work (exact wigner
    # grids and dense grids of density files on every kind of net, mub at
    # n = 1..5 on every kind of net, the bell and qec commands and presets);
    # field, rays, uomega, mub, exact wigner grids of a stabilizer file or a
    # computational preset and dense grids of density files load neither
    # fractions, decimal nor numbers either; meanking, meanking --verify
    # and verify --n 2 load no numpy (the mean king is exact
    # Gaussian-integer arithmetic); bell, bell --verify, meanking (both formats and
    # --verify), the bell_* and qec_logical_* presets and verify --n 2 load
    # neither fractions, decimal nor numbers (the Bell survey reads integer
    # numerators, and apps makes a Fraction only for qec, which may load
    # them); the meanking_phi1 preset, the one array command, loads
    # numpy, and later commands in the same process still work; nothing
    # loads sympy, and no verify loads numpy.random (its round trip draws
    # from the standard library); no command, --help or usage error loads
    # argparse or gettext; verify --n 1, 4 and 2 load neither fractions
    # nor decimal (apps is imported only by the bell, qec and meanking
    # rows, and only the qec rows of verify --n 3 make a Fraction), and no
    # verify request loads numpy
    src = Path(gfwigner.__file__).parent.parent
    stab = tmp_path / "ghz3.json"
    stab.write_text(json.dumps({"stabilizer": [["+XXX", 1], ["+ZZI", 1], ["+IZZ", -1]]}))
    net = tmp_path / "net3.json"
    net.write_text(build_net(field_new(3), "independent", {0: (1, -1, 1)}).to_json())
    rho = tmp_path / "rho1.json"
    rho.write_text(json.dumps({"density": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}))
    rho3 = tmp_path / "rho3.json"
    rho3.write_text(json.dumps({"density": [[[1 / 8, 0]] * 8] * 8}))
    script = textwrap.dedent("""\
        import contextlib, io, sys

        stab, net, rho, rho3 = sys.argv[1:5]
        loader = ["wigner", "--n", "2", "--state", "meanking_phi1"]

        def absent(when, *modules):
            for module in modules:
                assert module not in sys.modules, module + " imported by " + when

        lean = ("numpy", "dataclasses", "fractions", "decimal", "numbers")
        import gfwigner
        absent("import gfwigner", *lean)
        gfwigner.field_new, gfwigner.all_striations, gfwigner.GfwignerError
        absent("numpy-free package names", *lean)
        from gfwigner.cli import dispatch
        absent("import gfwigner.cli", *lean)
        sink = io.TextIOWrapper(io.BytesIO())  # bytes below, as sys.stdout
        integer = [["wigner", "--n", "3", "--state", stab, "--net", net_spec, "--format", fmt]
                   for net_spec, fmt in (("default", "json"), ("covariant", "csv"),
                                         (net, "ascii"))]
        integer += [["wigner", "--n", "3", "--state", "computational_010"]]
        # mub at n = 1..5 on the default, the covariant and a JSON net: its
        # states are Python complex numbers
        integer += [["mub", "--n", str(n), "--net", net_spec]
                    for n in range(1, 6) for net_spec in ("default", "covariant")]
        integer += [["mub", "--n", "3", "--net", net]]
        # dense grids of density files: rows of Python complex numbers
        integer += [["wigner", "--n", "1", "--state", rho],
                    *(["wigner", "--n", "3", "--state", rho3, "--net", net_spec, "--format", fmt]
                      for net_spec, fmt in (("default", "ascii"), ("covariant", "json"),
                                            (net, "csv")))]
        # apps requests: no numpy, and only the qec ones make a Fraction
        with_apps = [["wigner", "--n", "2", "--state", "bell_phi_plus"],
                     ["wigner", "--n", "3", "--state", "qec_logical_1"],
                     ["bell"], ["bell", "--verify"],
                     ["meanking"], ["meanking", "--format", "csv"], ["meanking", "--verify"],
                     ["verify", "--n", "2"]]
        with_fractions = [["qec"], ["qec", "--verify"]]

        def run(argv, want, *modules):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = dispatch(argv)
            assert code == want, (argv, code)
            absent(" ".join(argv), *modules)

        for argv, want in ((["field", "--n", "1"], 0), (["rays", "--n", "3"], 0),
                           (["uomega", "--n", "3"], 0), (["--help"], 0),
                           (["field", "--n"], 2), (["frobnicate"], 2),
                           *((argv, 0) for argv in integer)):
            run(argv, want, *lean)
        for argv in with_apps:
            run(argv, 0, *lean)
        for argv in with_fractions:
            run(argv, 0, "numpy", "dataclasses")
        with contextlib.redirect_stdout(sink):
            assert dispatch(loader) == 0
        assert "numpy" in sys.modules, " ".join(loader) + " did not load numpy"
        for n in ("1", "3"):
            with contextlib.redirect_stdout(sink):
                assert dispatch(["verify", "--n", n]) == 0
            absent(" ".join([*loader, "and verify --n", n]), "sympy", "numpy.random")
        absent("the commands above", "argparse", "gettext")
    """)
    # a fresh process that does not import json itself: only reading or
    # writing a document loads it, so these commands do not; verify --n 1,
    # 4, 3 and 2 load no numpy (their rows are plain Python, the mean king's
    # exact)
    verify = textwrap.dedent("""\
        import contextlib, io, sys
        from gfwigner.cli import dispatch

        for n in ("1", "4", "2", "3"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert dispatch(["verify", "--n", n]) == 0
            lean = ("numpy", "argparse", "gettext") + (("fractions", "decimal") if n != "3" else ())
            for module in lean:
                assert module not in sys.modules, module + " imported by verify --n " + n
        for argv in (["field", "--n", "3"], ["rays", "--n", "2"], ["uomega", "--n", "3"],
                     ["bell", "--format", "csv"], ["qec"], ["meanking"],
                     ["verify", "--n", "2"], ["wigner", "--n", "2", "--state", "bell_phi_plus"]):
            with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
                assert dispatch(argv) == 0, argv
            assert "json" not in sys.modules, "json imported by " + " ".join(argv)
    """)
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script, str(stab), str(net), str(rho), str(rho3)],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    done = subprocess.run([sys.executable, "-c", verify], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_dense_grid_file_is_read_and_transformed_without_numpy(tmp_path):
    # a fresh process reads a dense grid file and takes its hat W, every
    # <T_beta> and the purity residual in plain Python: numpy never loads,
    # and each value is the one this process computes
    field = field_new(3)
    rng = np.random.default_rng(31)
    rho = state_density(rng.normal(size=8) + 1j * rng.normal(size=8))
    path = tmp_path / "grid3.json"
    path.write_text(export_grid(wigner_of(build_net(field, "covariant"), rho), "json"))
    script = textwrap.dedent("""\
        import json, sys
        from gfwigner.cli import import_grid
        from gfwigner.net import build_net
        from gfwigner.wigner import all_points, expectation_translation, purity_identity_residual

        grid = import_grid(open(sys.argv[1]).read())
        net = build_net(grid.field, "covariant")
        hat, den = grid.hat
        out = {"hat": [float.hex(h) for h in hat], "den": den,
               "t": [float.hex(expectation_translation(net, grid, b))
                     for b in all_points(grid.field)],
               "purity": float.hex(purity_identity_residual(net, grid))}
        assert type(grid.flat) is tuple and "numpy" not in sys.modules
        print(json.dumps(out))
    """)
    src = Path(gfwigner.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr.decode()
    grid, net = import_grid(path.read_text()), build_net(field, "covariant")
    want = {"hat": [float.hex(h) for h in grid.hat[0]], "den": 1,
            "t": [float.hex(expectation_translation(net, grid, b)) for b in all_points(field)],
            "purity": float.hex(purity_identity_residual(net, grid))}
    assert json.loads(done.stdout) == want
    assert purity_identity_residual(net, grid) < 1e-10


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["unset", "PYTHONUNBUFFERED=1"])
def test_closed_stdout_pipe_exits_141_quietly(unbuffered):
    # unbuffered, a write to a closed pipe can take part of the bytes and
    # return; the command must still see the close and exit 141
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    env["PYTHONPATH"] = str(Path(gfwigner.__file__).parent.parent)
    # 2 MB of output: more than a pipe holds, so the writer sees the close
    proc = subprocess.Popen([sys.executable, "-m", "gfwigner.cli", "mub", "--n", "5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()  # a no-op once the child has exited
    err = proc.stderr.read()
    proc.stderr.close()
    assert err == b""


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "preset"])
def test_main_defaults_to_one_blas_thread(monkeypatch, preset):
    for var in BLAS_VARS:
        if preset:
            monkeypatch.setenv(var, preset)
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(cli, "dispatch", lambda: 0)
    monkeypatch.setattr(cli.gc, "freeze", lambda: None)
    with pytest.raises(SystemExit):
        cli.main()
    assert [os.environ[var] for var in BLAS_VARS] == [preset or "1"] * 3


# -- verify ------------------------------------------------------------------------


def _check_pairs() -> dict:
    """Each (field, row) that verify --n 1..5, --n 3 --poly 1101, --n 4 --poly
    11001 and the bell, qec and meanking --verify flags run, once, by test id."""
    runs = [(field_new(n, poly and parse_poly(poly)), verify_groups(n))
            for n, poly in ((1, None), (2, None), (3, None), (4, None), (5, None),
                            (3, "1101"), (4, "11001"))]
    runs += [(apps.bell_field(), ("bell",)), (apps.qec_field(), ("qec",)),
             (apps.bell_field(), ("meanking",))]
    pairs = {}
    for field, groups in runs:
        for group, name, check in check_rows(field):
            if group in groups:
                pairs.setdefault(f"{field.n}-{field.poly_str()}-{name}", check)
    return pairs


CHECK_PAIRS = _check_pairs()


@pytest.mark.parametrize("check", CHECK_PAIRS.values(), ids=CHECK_PAIRS.keys())
def test_check_row_passes(check):
    check()


@pytest.mark.parametrize("n", [7, 16])
def test_verify_above_the_dense_cap_is_refused_before_any_row_runs(capsys, monkeypatch, n):
    # it printed PASS for the field rows and FAIL for four net and wigner
    # rows that cannot run (at n = 16 after an N^2 field.trace_linear)
    monkeypatch.setattr(cli, "check_rows", lambda field: pytest.fail("a check row ran"))
    code, out, err = run(capsys, "verify", "--n", str(n))
    assert (code, out, err) == (2, "", "error: dense realization capped at 6 qubits\n")


@pytest.mark.parametrize("argv", [
    ["mub", "--n", "16"],
    ["mub", "--n", "16", "--net", "default"],
    ["wigner", "--n", "16", "--state", "computational_" + "0" * 16],
    ["wigner", "--n", "16", "--state", "computational_" + "0" * 16, "--net", "covariant"],
    ["rays", "--n", "9"],
    ["rays", "--n", "16"],
], ids=" ".join)
def test_oversized_requests_are_refused_before_any_work(argv):
    # mub and wigner refused only after building the n = 16 net (about 55 s),
    # and rays --n 9 ran for 9 s and printed its N + 1 diagrams of N^2 marks
    env = dict(os.environ, PYTHONPATH=str(Path(gfwigner.__file__).parent.parent))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "gfwigner.cli", *argv], env=env,
                          capture_output=True, timeout=60)
    elapsed = time.monotonic() - start
    assert (done.returncode, done.stdout) == (2, b"")
    assert len(lines := done.stderr.decode().splitlines()) == 1 and lines[0].startswith("error: ")
    assert elapsed < 1.0, f"refused after {elapsed:.2f} s"


def test_failing_row_is_reported_and_later_rows_still_run(capsys, monkeypatch):
    def failing():
        raise AssertionError("broken on purpose")

    rows = [(group, name, failing if name == "net.mub_property" else check)
            for group, name, check in check_rows(field_new(1))]
    monkeypatch.setattr(cli, "check_rows", lambda field: rows)
    code, out, _ = run(capsys, "verify", "--n", "1")
    assert code == 2
    assert out.splitlines() == [
        "PASS field.power_ordering_complete", "PASS field.trace_linear",
        "FAIL net.mub_property: broken on purpose", "PASS net.f_is_sign",
        "PASS wigner.operator_orthogonality", "PASS wigner.line_projectors",
        "PASS wigner.reconstruction_roundtrip",
    ]


def _perturb_a0(monkeypatch):
    a0 = QuantumNet.a0_matrix

    def perturbed(net):
        first, *rest = a0(net)
        return ((first[0] + 1e-6, *first[1:]), *rest)

    monkeypatch.setattr(QuantumNet, "a0_matrix", perturbed)


def _swap_two_rows_of_a_basis(monkeypatch):
    basis = QuantumNet.basis

    def swapped(net, label):
        rows = basis(net, label)
        return (rows[0], rows[2], rows[1], *rows[3:]) if label == 0 else rows

    monkeypatch.setattr(QuantumNet, "basis", swapped)


def _perturb_the_reconstruction(monkeypatch):
    reconstruct = wigner.reconstruct

    def perturbed(net, grid):
        first, *rest = reconstruct(net, grid)
        return ((first[0] + 1e-6, *first[1:]), *rest)

    monkeypatch.setattr(wigner, "reconstruct", perturbed)


@pytest.mark.parametrize("breaks, row", [
    (_perturb_a0, "wigner.operator_orthogonality"),
    (_swap_two_rows_of_a_basis, "wigner.line_projectors"),
    (_perturb_the_reconstruction, "wigner.reconstruction_roundtrip"),
], ids=["perturbed A(0)", "swapped basis rows", "perturbed reconstruction"])
def test_a_broken_point_operator_identity_fails_its_row(capsys, monkeypatch, breaks, row):
    # the wigner rows are plain Python: each must still catch a fault of the
    # size of a misplaced sign or entry (1e-6, far above IDENTITY_ATOL);
    # swapping lines 1 and 2 of striation 0 leaves its ray state, all that
    # net.mub_property measures, as it was
    breaks(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 2
    lines = out.splitlines()
    assert any(line.startswith(f"FAIL {row}: ") for line in lines), out
    assert "PASS net.mub_property" in lines


@pytest.mark.parametrize("n", [2, 3, 4])
def test_line_projectors_row_is_linear_in_a_rotation_of_one_line_state(monkeypatch, n):
    # entries 0 and 1 of line 1 of striation 0 turned by 1e-6 keep the
    # row's norm; the row reports a deviation of about 2.5e-7, where a check
    # of |u| = 1 and |<u|T_d v>| = 1 alone sees about 1e-13 and passes
    basis = QuantumNet.basis
    cos, sin = np.cos(1e-6), np.sin(1e-6)

    def rotated(net, label):
        rows = basis(net, label)
        if label:
            return rows
        (u0, u1, *rest) = rows[1]
        return (rows[0], (cos * u0 - sin * u1, sin * u0 + cos * u1, *rest), *rows[2:])

    monkeypatch.setattr(QuantumNet, "basis", rotated)
    row = {name: check for _, name, check in check_rows(field_new(n))}["wigner.line_projectors"]
    with pytest.raises(AssertionError,
                       match="^line 1 of striation 0: its sum is off \\|v><v\\| by ") as e:
        row()
    assert 1e-7 < float(str(e.value).rsplit(" ", 1)[1]) < 1e-6


def test_a_failing_claim_fails_under_python_O():
    # -O strips assert statements; verify's claims must fail there all the same
    script = textwrap.dedent("""
        import sys
        from gfwigner import cli
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        cli.power_ordering = lambda field, gen: [0] * field.N
        sys.exit(cli.dispatch(["verify", "--n", "1"]))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(gfwigner.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stdout.splitlines()[:2] == [
        "FAIL field.power_ordering_complete: ordering misses elements",
        "PASS field.trace_linear",
    ]
