#!/usr/bin/env python3
"""Self-tests of the benchmark's input generator and output checker.

Usage, from the repository root:  python3 perfbench/selftest.py

- The generator writes byte-identical inputs for the same seed and different
  inputs for another seed.
- The checker accepts real CLI outputs and flags each damaged copy: one grid
  cell with its sign flipped (in every format, exact and dense), a truncated
  output, a flipped MUB amplitude, a FAIL line, and a golden-digest mismatch.
Exit code 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

WORK = BENCH / ".work" / "selftest"
ENV = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": "src",
       "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}

failures = []


def expect(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def rejected(request: dict, out: str) -> bool:
    try:
        check.check(request, 0, out)
    except (check.CheckError, ValueError, KeyError, IndexError):
        return True
    return False


def cli(argv: list) -> str:
    proc = subprocess.run([sys.executable, "-m", "gfwigner.cli", *argv], cwd=ROOT,
                          env=ENV, capture_output=True, text=True, check=True)
    return proc.stdout


# -- generator --------------------------------------------------------------------


def snapshot(workload: str, seed: int, tag: str) -> tuple[list, dict]:
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    requests = workloads.build(workload, seed, work, ROOT / "src")
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    argv = [[a.replace(str(work), "<work>") for a in r["argv"]] for r in requests]
    return argv, files


def test_generator():
    for name in workloads.WORKLOADS:
        a = snapshot(name, 5, "a")
        b = snapshot(name, 5, "b")
        c = snapshot(name, 6, "c")
        expect(a == b, f"{name}: same seed gives byte-identical inputs")
        expect(a != c, f"{name}: another seed gives other inputs")


# -- checker ----------------------------------------------------------------------


def flip_cell(out: str, fmt: str) -> str:
    """Negate the first nonzero grid cell, keeping the format well formed."""
    if fmt == "json":
        payload = json.loads(out)
        rows = payload["rows_p_descending"]
        j = next(j for j, v in enumerate(rows[0]) if float(eval_cell(v)) != 0)
        rows[0][j] = negate(rows[0][j])
        return json.dumps(payload, indent=2) + "\n"
    lines = out.split("\n")
    if fmt == "csv":
        label, *cells = lines[1].split(",")
        j = next(j for j, v in enumerate(cells) if float(eval_cell(v)) != 0)
        cells[j] = negate(cells[j])
        lines[1] = ",".join([label, *cells])
    else:
        label, sep, rest = lines[0].partition(" | ")
        toks = rest.split()
        j = next(j for j in range(1, len(toks), 2) if float(eval_cell(toks[j])) != 0)
        toks[j] = negate(toks[j])
        toks[j - 1] = {"#": "o", "o": "#"}[toks[j - 1]]
        lines[0] = label + sep + "  ".join(f"{s} {v}" for s, v in zip(toks[::2], toks[1::2]))
    return "\n".join(lines)


def eval_cell(tok: str) -> float:
    num, _, den = tok.partition("/")
    return float(num) / float(den or 1)


def negate(tok: str) -> str:
    return tok[1:] if tok.startswith("-") else "-" + tok


def test_grids():
    rho = WORK / "rho2.json"
    WORK.mkdir(parents=True, exist_ok=True)
    rho.write_text(json.dumps(
        {"density": workloads.ginibre_density(workloads.random.Random(1), 2, 2)}))
    for state in ("bell_phi_plus", str(rho)):
        for fmt in workloads.FORMATS:
            argv = ["wigner", "--n", "2", "--state", state, "--format", fmt,
                    "--net", "default"]
            req = {"argv": argv, "expect": {"kind": "grid"}}
            out = cli(argv)
            kind = "dense" if state == str(rho) else "exact"
            expect(not rejected(req, out), f"{kind} {fmt} grid accepted")
            expect(rejected(req, flip_cell(out, fmt)),
                   f"{kind} {fmt} grid with one flipped sign flagged")
            lines = out.rstrip("\n").split("\n")
            expect(rejected(req, "\n".join(lines[:-1]) + "\n"),
                   f"{kind} {fmt} grid missing its last line flagged")
            expect(rejected(req, out[:len(out) // 2]),
                   f"{kind} {fmt} grid cut in half flagged")


def test_other_outputs():
    req = {"argv": ["mub", "--n", "2"], "expect": {"kind": "mub"}}
    out = cli(req["argv"])
    expect(not rejected(req, out), "mub output accepted")
    expect(rejected(req, out[:len(out) // 2]), "truncated mub output flagged")
    payload = json.loads(out)
    payload["bases"]["h"][0][0][0] *= -1
    expect(rejected(req, json.dumps(payload, indent=2) + "\n"),
           "mub output with one flipped amplitude flagged")

    req = {"argv": ["verify", "--n", "2"], "expect": {"kind": "verify"}}
    out = cli(req["argv"])
    expect(not rejected(req, out), "verify output accepted")
    expect(rejected(req, out.replace("PASS", "FAIL", 1)), "a FAIL line flagged")
    expect(rejected(req, "\n".join(out.split("\n")[:-2]) + "\n"),
           "verify output missing a line flagged")

    req = {"argv": ["qec", "--format", "csv"], "expect": {"kind": "qec"}}
    out = cli(req["argv"])
    expect(not rejected(req, out), "qec output accepted")
    expect(rejected(req, out.replace("a=1/8", "a=1/16")),
           "qec solution with a wrong parameter flagged")

    req = {"argv": ["field", "--n", "1"], "expect": {"kind": "field"}}
    out = cli(req["argv"])
    try:
        check.check(req, 0, out, golden=check.digest(out + "x"))
        expect(False, "golden digest mismatch flagged")
    except check.CheckError:
        expect(True, "golden digest mismatch flagged")


def test_normalise():
    expect(check.normalise("-0.000000 1e-17 -1.2e-17 0.5")
           == "0.000000 0.000000 0.000000 0.500000",
           "normalisation hides signed zeros and rounding noise")


def main() -> int:
    os.chdir(ROOT)
    test_normalise()
    test_generator()
    test_grids()
    test_other_outputs()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
