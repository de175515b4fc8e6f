"""Seeded inputs and request lists for the benchmark workloads.

`build(workload, seed, work, src)` writes the input files a workload needs
into `work` and returns its fixed request list.  The same seed always writes
byte-identical files: states come from `random.Random` seeded with a string
and are computed in plain Python floats, so no BLAS reduction order enters.

Each request is a dict with `argv` (the `gfwigner` command line) and
`expect` (what `check.py` needs to judge the output from the input alone).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

WORKLOADS = ("exact_grids", "dense_grids", "nets_mub", "small_requests")

# The trivial request whose median wall time is `setup_s`.
TRIVIAL = ["field", "--n", "1"]

# Reciprocals of the built-in default primitive polynomials, bits low to high.
# The reciprocal of a primitive polynomial is primitive, so each names a valid
# non-default field of the same degree.
ALT_POLY = {3: "1101", 4: "10011", 5: "100101", 6: "1000011"}

FORMATS = ("json", "csv", "ascii")


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{tag}")


# -- state and net files ------------------------------------------------------


def graph_state(rng: random.Random, n: int) -> list:
    """Signed generators of a random graph state, some X turned into Y.

    Generator i is X_i (or Y_i, an S gate on qubit i) times Z_j for every
    neighbour j; each generator gets a random sign.
    """
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = rng.randrange(2)
    gens = []
    for i in range(n):
        head = "Y" if rng.randrange(2) else "X"
        letters = "".join(head if k == i else ("Z" if adj[i][k] else "I")
                          for k in range(n))
        gens.append(["+" + letters, rng.choice((1, -1))])
    return gens


def ghz_state(n: int) -> list:
    gens = [["+" + "X" * n, 1]]
    for i in range(n - 1):
        gens.append(["+" + "".join("Z" if k in (i, i + 1) else "I"
                                   for k in range(n)), 1])
    return gens


def ginibre_density(rng: random.Random, n: int, rank: int) -> list:
    """rho = G G^dagger / Tr(G G^dagger) for a complex Gaussian N x rank G.

    Returned as rows of [re, im] pairs; exactly hermitian by construction.
    """
    N = 1 << n
    G = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(rank)]
         for _ in range(N)]
    rho = [[0j] * N for _ in range(N)]
    for i in range(N):
        gi = G[i]
        for j in range(i, N):
            gj = G[j]
            z = sum(a * b.conjugate() for a, b in zip(gi, gj))
            rho[i][j] = z
            rho[j][i] = z.conjugate()
        rho[i][i] = complex(rho[i][i].real, 0.0)
    trace = sum(rho[i][i].real for i in range(N))
    return [[[z.real / trace, z.imag / trace] for z in row] for row in rho]


def independent_net_json(rng: random.Random, n: int) -> str:
    """A net with random sign vectors, serialised by `QuantumNet.to_json`.

    The vertical striation keeps all +1 signs in half the draws, so the
    checker's column-sum test applies to some seeded nets and not others.
    """
    from gfwigner import build_net, field_new
    from gfwigner.phasespace import striation_labels

    field = field_new(n)
    signs = {label: tuple(rng.choice((1, -1)) for _ in range(n))
             for label in striation_labels(field)}
    if rng.randrange(2):
        signs["v"] = (1,) * n
    return build_net(field, "independent", signs).to_json()


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# -- request lists ---------------------------------------------------------------


def _wigner(n, state, fmt, net="default", poly=None) -> dict:
    argv = ["wigner", "--n", str(n), "--state", state, "--format", fmt,
            "--net", net]
    if poly:
        argv += ["--poly", poly]
    return {"argv": argv, "expect": {"kind": "grid"}}


def exact_grids(seed: int, work: Path) -> list:
    """Exact stabilizer grids at n = 6 and 7 (the O(N^3) exact transform)."""
    rng = _rng("exact_grids", seed, "states")
    fmts = _rotation()
    net6 = _write(work / "net6.json",
                  independent_net_json(_rng("exact_grids", seed, "net"), 6))
    ghz = _write(work / "ghz7.json", json.dumps({"stabilizer": ghz_state(7)}))
    graphs = [_write(work / f"graph6_{k}.json",
                     json.dumps({"stabilizer": graph_state(rng, 6)}))
              for k in range(6)]
    return [
        _wigner(7, ghz, next(fmts)),
        _wigner(6, graphs[0], next(fmts)),
        _wigner(6, graphs[1], next(fmts), poly=ALT_POLY[6]),
        _wigner(6, graphs[2], next(fmts), net="covariant"),
        _wigner(6, graphs[3], next(fmts), net=net6),
        _wigner(6, graphs[4], next(fmts)),
        _wigner(6, graphs[5], next(fmts), net=net6),
    ]


def dense_grids(seed: int, work: Path) -> list:
    """Float grids of Ginibre density matrices at n = 4, 5 and 6."""
    rng = _rng("dense_grids", seed, "states")
    fmts = _rotation()
    net5 = _write(work / "net5.json",
                  independent_net_json(_rng("dense_grids", seed, "net"), 5))

    def rho(n, rank, k):
        payload = {"density": ginibre_density(rng, n, rank)}
        return _write(work / f"rho{n}_{k}.json", json.dumps(payload))

    return [
        _wigner(6, rho(6, 1, 0), next(fmts)),
        _wigner(6, rho(6, 64, 1), next(fmts), net="covariant"),
        _wigner(5, rho(5, 2, 0), next(fmts), net=net5),
        _wigner(5, rho(5, 32, 1), next(fmts), poly=ALT_POLY[5]),
        _wigner(5, rho(5, rng.randrange(3, 32), 2), next(fmts), net="covariant"),
        _wigner(4, rho(4, 1, 0), next(fmts)),
        _wigner(4, rho(4, 16, 1), next(fmts), net="covariant"),
    ]


def nets_mub(seed: int, work: Path) -> list:
    """MUB construction, the overlap report, and `verify`'s checks."""
    net4 = _write(work / "net4.json",
                  independent_net_json(_rng("nets_mub", seed, "net"), 4))
    return [
        {"argv": ["mub", "--n", "5"], "expect": {"kind": "mub"}},
        {"argv": ["mub", "--n", "5", "--net", "default"], "expect": {"kind": "mub"}},
        {"argv": ["mub", "--n", "4", "--net", net4], "expect": {"kind": "mub"}},
        {"argv": ["verify", "--n", "4"], "expect": {"kind": "verify"}},
        {"argv": ["verify", "--n", "3"], "expect": {"kind": "verify"}},
    ]


def small_requests(seed: int, work: Path) -> list:
    """Every subcommand and format at n <= 3: start-up and `apps` dominate."""
    rng = _rng("small_requests", seed, "choices")
    fmts = _rotation()
    net3 = _write(work / "net3.json",
                  independent_net_json(_rng("small_requests", seed, "net"), 3))

    def bits(n):
        return "".join(rng.choice("01") for _ in range(n))

    def req(kind, *argv):
        return {"argv": list(argv), "expect": {"kind": kind}}

    bell = rng.choice(("phi_plus", "phi_minus", "psi_plus", "psi_minus"))
    field_fmt = rng.choice(("ascii", "csv"))
    return [
        req("field", *TRIVIAL),
        req("field", "field", "--n", "2", "--table", "--format", field_fmt),
        req("field", "field", "--n", "3", "--format", "csv"),
        req("field", "field", "--n", "3", "--poly", ALT_POLY[3]),
        req("rays", "rays", "--n", "1"),
        req("rays", "rays", "--n", "2"),
        req("rays", "rays", "--n", "3"),
        req("uomega", "uomega", "--n", "2"),
        req("uomega", "uomega", "--n", "3", "--poly", ALT_POLY[3]),
        req("bell", "bell", "--format", next(fmts)),
        req("qec", "qec", "--format", next(fmts)),
        req("meanking", "meanking", "--format", next(fmts)),
        req("verify", "bell", "--verify"),
        req("verify", "meanking", "--verify"),
        _wigner(2, "bell_phi_plus", next(fmts)),
        _wigner(2, f"bell_{bell}", next(fmts), net="covariant"),
        _wigner(1, f"computational_{bits(1)}", next(fmts)),
        _wigner(2, f"computational_{bits(2)}", next(fmts)),
        _wigner(3, f"computational_{bits(3)}", next(fmts), net="covariant"),
        _wigner(3, f"computational_{bits(3)}", next(fmts), net=net3),
        _wigner(3, "qec_logical_0", next(fmts)),
        _wigner(3, "qec_logical_1", next(fmts), net="covariant"),
        _wigner(2, "meanking_phi1", next(fmts)),
        req("verify", "verify", "--n", "2"),
        req("mub", "mub", "--n", "2"),
        req("mub", "mub", "--n", "3", "--net", "default"),
    ]


def _rotation():
    """json, csv, ascii in turn.  Fixed, not seeded: the output format changes
    a request's cost and memory, and the seed should vary only the states."""
    k = 0
    while True:
        yield FORMATS[k % len(FORMATS)]
        k += 1


REQUEST_LISTS = {
    "exact_grids": exact_grids,
    "dense_grids": dense_grids,
    "nets_mub": nets_mub,
    "small_requests": small_requests,
}


def build(workload: str, seed: int, work: Path, src: Path) -> list:
    """Write the workload's inputs into `work` and return its request list.

    `src` is the checkout's source directory; net files are serialised by the
    package itself, outside any timing.
    """
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    work.mkdir(parents=True, exist_ok=True)
    return REQUEST_LISTS[workload](seed, work)
