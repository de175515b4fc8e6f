"""Output checks for benchmark requests.

Nothing here imports gfwigner: every expectation is computed from the
request's own input (its command line, state file, net file or preset name).
A check raises `CheckError`; the benchmark counts such a request as failed.

Invariants, for every seed:
- a grid sums to 1 and N * sum(W^2) equals Tr(rho^2) (the point operators are
  orthogonal with Tr(A A') = delta / N, for every quantum net);
- an exact grid is made of multiples of 1/N^2;
- when the net's vertical striation has all +1 signs (the default net, the
  covariant net, or a net file that says so), the sum of column q is
  <q|rho|q>;
- `mub` bases are orthonormal and mutually unbiased, and its own overlap
  report is below tolerance;
- `verify` and `--verify` print only PASS lines, as many as there are checks.

For the golden seed, the normalised output must also match the digest
recorded at the benchmark's first commit (`golden.json`).
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

# Built-in default primitive polynomials (bit j = coefficient of x^j).
DEFAULT_POLY = {1: 0b11, 2: 0b111, 3: 0b1101, 4: 0b10011, 5: 0b100101,
                6: 0b1000011, 7: 0b10000011}

TOL = 1e-9

GOLDEN = Path(__file__).resolve().parent / "golden.json"

BELL_SIGNS = {  # eigenvalues of (XX, ZZ)
    "phi_plus": (1, 1), "phi_minus": (-1, 1),
    "psi_plus": (1, -1), "psi_minus": (-1, -1),
}

_FLOAT = re.compile(r"-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


class CheckError(Exception):
    pass


def need(cond, msg: str):
    if not cond:
        raise CheckError(msg)


# -- golden digests ----------------------------------------------------------------


def normalise(text: str) -> str:
    """Round every decimal number to 6 places, so BLAS rounding cannot show."""
    return _FLOAT.sub(lambda m: f"{round(float(m.group()), 6) + 0.0:.6f}", text)


def digest(text: str) -> str:
    return hashlib.sha256(normalise(text).encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


# -- command line helpers ---------------------------------------------------------


def _opt(argv: list, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _n_of(argv: list) -> int:
    return int(_opt(argv, "--n"))


def _poly_of(argv: list, n: int) -> int:
    bits = _opt(argv, "--poly")
    return int(bits[::-1], 2) if bits else DEFAULT_POLY[n]


def axis_names(n: int) -> list:
    N = 1 << n
    return ["0"] + ["1" if j == 0 else ("w" if j == 1 else f"w^{j}")
                    for j in range(N - 1)]


def axis_bits(n: int, poly: int) -> list:
    """Field element (bit vector) of each axis label: 0, then w^j mod poly."""
    out, x = [0], 1
    for _ in range((1 << n) - 1):
        out.append(x)
        x <<= 1
        if x >> n & 1:
            x ^= poly
    return out


# -- states, from the input alone ------------------------------------------------

_LETTER = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}


def _pauli(text: str, sign: int) -> tuple:
    """(x bits, z bits, k) for i^k X^x Z^z; Y = i X Z, qubit i = character i."""
    need(text.startswith("+") and sign in (1, -1), f"bad generator {text} {sign}")
    x = z = 0
    k = 0 if sign == 1 else 2
    for i, ch in enumerate(text[1:]):
        xi, zi, ki = _LETTER[ch]
        x |= xi << i
        z |= zi << i
        k += ki
    return x, z, k % 4


def _mul(p: tuple, q: tuple) -> tuple:
    # X^x1 Z^z1 X^x2 Z^z2 = (-1)^(z1.x2) X^(x1^x2) Z^(z1^z2)
    return (p[0] ^ q[0], p[1] ^ q[1],
            (p[2] + q[2] + 2 * (p[1] & q[0]).bit_count()) % 4)


def stabilizer_diag(n: int, gens: list) -> dict:
    """<q|rho|q> for the state stabilised by the signed generators.

    rho = N^-1 sum_{g in S} g; only the Z-type members are diagonal.
    """
    group = {(0, 0): 0}
    for text, sign in gens:
        need(len(text) == n + 1, f"generator {text} is not on {n} qubits")
        g = _pauli(text, sign)
        group.update({(e[0], e[1]): e[2] for e in
                      (_mul((x, z, k), g) for (x, z), k in list(group.items()))})
    N = 1 << n
    need(len(group) == N, "generators are dependent")
    diag = {}
    for q in range(N):
        total = 0
        for (x, z), k in group.items():
            if x == 0:
                need(k in (0, 2), "non-hermitian diagonal stabilizer")
                total += (1 if k == 0 else -1) * (-1) ** (z & q).bit_count()
        diag[q] = Fraction(total, N)
    return diag


def preset_state(n: int, name: str):
    """(exact, purity, diag or None) for a CLI state preset."""
    if name.startswith("computational_"):
        bits = name.removeprefix("computational_")
        need(len(bits) == n, "preset size")
        gens = [("+" + "".join("Z" if i == k else "I" for i in range(n)),
                 -1 if bits[k] == "1" else 1) for k in range(n)]
        return True, Fraction(1), stabilizer_diag(n, gens)
    if name.startswith("bell_"):
        xx, zz = BELL_SIGNS[name.removeprefix("bell_")]
        return True, Fraction(1), stabilizer_diag(2, [("+XX", xx), ("+ZZ", zz)])
    if name.startswith("qec_logical_"):
        return True, Fraction(1), None
    if name == "meanking_phi1":
        return False, 1.0, None
    raise CheckError(f"unknown preset {name}")


def state_from_file(n: int, path: str):
    """(exact, purity, diag) from a state file."""
    payload = json.loads(Path(path).read_text())
    if "stabilizer" in payload:
        return True, Fraction(1), stabilizer_diag(n, payload["stabilizer"])
    rho = np.array([[complex(re_, im) for re_, im in row]
                    for row in payload["density"]])
    N = 1 << n
    # matrix index: qubit 0 is the leftmost Kronecker factor (high bit)
    index = [sum((q >> i & 1) << (n - 1 - i) for i in range(n)) for q in range(N)]
    diag = {q: float(rho[index[q], index[q]].real) for q in range(N)}
    return False, float(np.sum(np.abs(rho) ** 2)), diag


def vertical_all_plus(net: str) -> bool:
    if net in ("default", "covariant"):
        return True  # a covariant net takes h, v and 0 as given (all +1)
    signs = json.loads(Path(net).read_text())["signs"]["v"]
    return all(s == 1 for s in signs)


# -- grid parsing and invariants ----------------------------------------------------


def take_grid(lines: list, i: int, fmt: str, N: int) -> tuple:
    """Cut one rendered grid out of `lines` starting at `i`."""
    if fmt == "json":
        end = i
        while end < len(lines) and lines[end] != "}":
            end += 1
        need(end < len(lines), "unterminated JSON grid")
        return "\n".join(lines[i:end + 1]), end + 1
    size = N + 1 if fmt == "csv" else N + 2
    need(i + size <= len(lines), "truncated grid")
    return "\n".join(lines[i:i + size]), i + size


def parse_grid(text: str, fmt: str, n: int, exact: bool) -> list:
    """Rows of values, p descending, q ascending in axis order."""
    N = 1 << n
    names = axis_names(n)
    rev = names[::-1]
    if fmt == "json":
        payload = json.loads(text)
        need(payload.get("n") == n, "json n")
        need(payload.get("axis") == names, "json axis")
        need(payload.get("exact") is exact, "json exact flag")
        cells = payload["rows_p_descending"]
        need(len(cells) == N, "json row count")
    elif fmt == "csv":
        lines = text.split("\n")
        need(len(lines) == N + 1, "csv line count")
        need(lines[0] == "p\\q," + ",".join(names), "csv header")
        cells = []
        for name, line in zip(rev, lines[1:]):
            label, *row = line.split(",")
            need(label == name, f"csv row label {label!r}")
            cells.append(row)
    elif fmt == "ascii":
        lines = text.split("\n")
        need(len(lines) == N + 2, "ascii line count")
        need(set(lines[N]) == {"-"}, "ascii rule")
        need(lines[N + 1].split("|")[1].split() == names, "ascii header")
        cells = []
        for name, line in zip(rev, lines[:N]):
            label, sep, rest = line.partition(" | ")
            need(sep and label.strip() == name, f"ascii row label {label!r}")
            toks = rest.split()
            need(len(toks) == 2 * N, "ascii cell count")
            row = toks[1::2]
            for shade, tok in zip(toks[0::2], row):
                v = _value(tok, exact)
                need(shade == ("#" if v > 0 else "o" if v < 0 else "."),
                     f"ascii shade {shade} for {tok}")
            cells.append(row)
    else:
        raise CheckError(f"unknown format {fmt}")
    rows = []
    for row in cells:
        need(len(row) == N, "row length")
        rows.append([_value(tok, exact) for tok in row])
    return rows


def _value(tok: str, exact: bool):
    if exact:
        need(re.fullmatch(r"-?\d+(/\d+)?", tok) is not None, f"not exact: {tok}")
        return Fraction(tok)
    v = float(tok)
    need(math.isfinite(v), f"not finite: {tok}")
    return v


def check_grid(rows: list, n: int, exact: bool, purity, diag, poly: int):
    N = 1 << n
    flat = [v for row in rows for v in row]
    total = sum(flat)
    square = N * sum(v * v for v in flat)
    if exact:
        need(total == 1, f"grid total {total}")
        need(all((v * N * N).denominator == 1 for v in flat),
             "cell not a multiple of 1/N^2")
        need(square == purity, f"N sum W^2 = {square}, want {purity}")
    else:
        need(abs(total - 1) <= TOL, f"grid total {total}")
        need(abs(square - purity) <= TOL, f"N sum W^2 = {square}, want {purity}")
    if diag is not None:
        for j, q in enumerate(axis_bits(n, poly)):
            col = sum(row[j] for row in rows)
            ok = col == diag[q] if exact else abs(col - diag[q]) <= TOL
            need(ok, f"column {q:b} sums to {col}, want <q|rho|q> = {diag[q]}")


def _grid_request(argv: list, out: str):
    n = _n_of(argv)
    state = _opt(argv, "--state")
    net = _opt(argv, "--net", "default")
    if Path(state).is_file():
        exact, purity, diag = state_from_file(n, state)
    else:
        exact, purity, diag = preset_state(n, state)
    if not vertical_all_plus(net):
        diag = None
    fmt = _opt(argv, "--format", "ascii")
    text = out.rstrip("\n")
    lines = text.split("\n")
    block, end = take_grid(lines, 0, fmt, 1 << n)
    need(end == len(lines), "trailing output after the grid")
    check_grid(parse_grid(block, fmt, n, exact), n, exact, purity, diag,
               _poly_of(argv, n))


# -- other subcommands ----------------------------------------------------------------


def _field_request(argv: list, out: str):
    n = _n_of(argv)
    N = 1 << n
    poly = _poly_of(argv, n)
    lines = out.rstrip("\n").split("\n")
    if _opt(argv, "--format") == "csv":
        need(lines[0] == "canonical,dual", "csv header")
        body = [line.split(",") for line in lines[1:]]
    else:
        want = format(poly & (N - 1), f"0{n}b")[::-1] + "1"
        need(lines[0].endswith(f"(low to high): {want}"), "polynomial line")
        need(lines[1].split() == ["canonical", "dual"], "table header")
        body = [line.split() for line in lines[2:]]
    need(len(body) == N and all(len(r) == 2 for r in body), "table shape")
    every = {format(x, f"0{n}b") for x in range(N)}
    for col in (0, 1):
        need({r[col] for r in body} == every, "ordering is not a permutation")


def _rays_request(argv: list, out: str):
    n = _n_of(argv)
    N = 1 << n
    blocks = out.rstrip("\n").split("\n\n")
    labels = ["h", "v"] + [str(j) for j in range(N - 1)]
    need(len(blocks) == N + 1, "striation count")
    marks = sorted(["R"] + [str(i) for i in range(1, N)])
    for label, block in zip(labels, blocks):
        lines = block.split("\n")
        need(lines[0] == f"striation {label} (ray first):", "striation header")
        need(len(lines) == N + 1, "diagram height")
        cells = [c for line in lines[1:] for c in line.split()]
        need(len(cells) == N * N, "diagram size")
        need(sorted(set(cells)) == marks, "line marks")
        need(all(cells.count(m) == N for m in marks), "line sizes")


def _uomega_request(argv: list, out: str):
    n = _n_of(argv)
    poly = _poly_of(argv, n)
    want = [f"swap 0 {j}" for j in range(1, n)]
    want += [f"cnot 0 {j}" for j in range(1, n) if poly >> j & 1]
    need(out.rstrip("\n").split("\n") == want, "gate list")


def _verify_request(argv: list, out: str):
    if argv[0] == "verify":
        n = _n_of(argv)
        count = 7 + {2: 3, 3: 2}.get(n, 0)
    else:
        count = {"bell": 1, "qec": 2, "meanking": 2}[argv[0]]
    lines = out.rstrip("\n").split("\n")
    need(all(line.startswith("PASS ") for line in lines), "a check did not pass")
    need(len(lines) == count, f"{len(lines)} checks reported, want {count}")


def _mub_request(argv: list, out: str):
    n = _n_of(argv)
    N = 1 << n
    payload = json.loads(out)
    need(payload["n"] == n, "mub n")
    net = _opt(argv, "--net", "covariant")
    fingerprint = dict(part.split(":") for part in
                       payload["net"].split(";")[2].split(","))
    if net == "default":
        need(all(set(s) == {"+"} for s in fingerprint.values()), "default net signs")
    elif net == "covariant":
        need(all(set(fingerprint[k]) == {"+"} for k in ("h", "v", "0")),
             "covariant net base signs")
    else:
        signs = json.loads(Path(net).read_text())["signs"]
        want = {k: "".join("+" if s > 0 else "-" for s in v) for k, v in signs.items()}
        need(fingerprint == want, "net file signs not honoured")
    bases = payload["bases"]
    need(len(bases) == N + 1, "basis count")
    vecs = np.array([[[re_ + 1j * im for re_, im in v] for v in basis]
                     for basis in bases.values()])
    need(vecs.shape == (N + 1, N, N), f"basis shape {vecs.shape}")
    flat = vecs.reshape((N + 1) * N, N)
    overlap = np.abs(flat.conj() @ flat.T) ** 2
    want = np.kron(np.eye(N + 1), np.eye(N) - 1 / N) + 1 / N
    need(np.abs(overlap - want).max() <= TOL, "bases are not mutually unbiased")
    report = payload["overlap_report"]
    need(report["max_gram_deviation"] <= TOL, "overlap report: gram")
    need(report["max_cross_overlap_deviation"] <= TOL, "overlap report: cross")


def _multi_grid(lines: list, i: int, header: str, fmt: str, n: int, exact: bool,
                purity, diag, poly: int) -> int:
    need(i < len(lines) and lines[i] == header, f"missing {header!r}")
    block, i = take_grid(lines, i + 1, fmt, 1 << n)
    check_grid(parse_grid(block, fmt, n, exact), n, exact, purity, diag, poly)
    return i


def _skip_blank(lines: list, i: int) -> int:
    need(i < len(lines) and lines[i] == "", "missing blank line")
    return i + 1


def _bell_request(argv: list, out: str):
    fmt = _opt(argv, "--format", "ascii")
    lines = out.rstrip("\n").split("\n")
    prefix = "patterns over 64 nets x 4 states: "
    need(lines[0].startswith(prefix), "survey line")
    counts = ast.literal_eval(lines[0][len(prefix):])
    need(sum(counts.values()) == 256 and min(counts.values()) > 0, "survey counts")
    i = 1
    for label, (xx, zz) in BELL_SIGNS.items():
        i = _skip_blank(lines, i)
        diag = stabilizer_diag(2, [("+XX", xx), ("+ZZ", zz)])
        i = _multi_grid(lines, i, f"{label} (covariant all-+1 net):", fmt, 2,
                        True, Fraction(1), diag, DEFAULT_POLY[2])
    need(i == len(lines), "trailing output")


def _solution(line: str) -> dict:
    parts = dict(p.split("=") for p in line.strip().split(", "))
    need(sorted(parts) == list("aceg"), "solution keys")
    sol = {k: Fraction(v) for k, v in parts.items()}
    need(sum(sol.values()) == Fraction(1, 8), "a + c + e + g != 1/8")
    return sol


def _qec_request(argv: list, out: str):
    fmt = _opt(argv, "--format", "ascii")
    lines = out.rstrip("\n").split("\n")
    i = 0
    for which in (0, 1):
        i = _multi_grid(lines, i, f"logical |{which}_L> (main-diagonal preset net):",
                        fmt, 3, True, Fraction(1), None, DEFAULT_POLY[3])
        i = _skip_blank(lines, i)
    need(lines[i] == "solution family (a, c, e, g):", "family header")
    family = [_solution(line) for line in lines[i + 1:i + 9]]
    need(len(family) == 8, "family size")
    need(lines[i + 9] == "covariant solutions:", "covariant header")
    covariant = [_solution(line) for line in lines[i + 10:]]
    need(len(covariant) == 4, "covariant solution count")
    need(all(sol in family for sol in covariant), "covariant solution not in family")


def _meanking_request(argv: list, out: str):
    fmt = _opt(argv, "--format", "ascii")
    lines = out.rstrip("\n").split("\n")
    i = _multi_grid(lines, 0, "W(phi_1):", fmt, 2, False, 1.0, None, DEFAULT_POLY[2])
    need(lines[i] == "line sums:", "line sums header")
    sums = {}
    for line in lines[i + 1:i + 13]:
        key, val = line.strip().split(": ")
        sums[key] = float(val)
    want = {f"{o}{k}": v for o in "xyz" for k, v in
            ((1, 0.0), (2, 0.5), (3, 0.25), (4, 0.25))}
    need(sums.keys() == want.keys(), "line sum labels")
    need(all(abs(sums[k] - want[k]) <= 1e-6 for k in want), "line sums")
    prefix = "retrodiction success probability: "
    need(lines[i + 13].startswith(prefix), "success line")
    need(abs(float(lines[i + 13][len(prefix):]) - 1) <= TOL, "retrodiction fails")
    need(i + 14 == len(lines), "trailing output")


CHECKS = {
    "grid": _grid_request,
    "field": _field_request,
    "rays": _rays_request,
    "uomega": _uomega_request,
    "verify": _verify_request,
    "mub": _mub_request,
    "bell": _bell_request,
    "qec": _qec_request,
    "meanking": _meanking_request,
}


def check(request: dict, returncode: int, out: str, golden: str | None = None):
    """Raise CheckError unless the request's output is correct."""
    need(returncode == 0, f"exit code {returncode}")
    need(out.endswith("\n"), "output does not end with a newline")
    CHECKS[request["expect"]["kind"]](request["argv"], out)
    if golden is not None:
        need(digest(out) == golden, "output differs from the golden digest")
