"""Command line interface.

Subcommands: field, rays, mub, uomega, wigner, bell, qec, meanking, verify.
Exit codes: 0 success, 2 validation/usage error, 1 internal error, 141
(128 + SIGPIPE) when the reader of stdout goes away, as in `| head -1`.

One table, COMMANDS, maps each command to its handler and its options;
parse_args reads argv from it and help_text renders --help from it.  Options
are `--name value` or `--name=value`, by full name or a unique prefix; `-h`
or `--help` anywhere prints the help and exits 0, and a usage error prints
one `error: ...` line and exits 2.

Start-up costs only what a subcommand uses.  The package namespace is lazy
(gfwigner/__init__.py loads no submodule); at module level this file
imports the standard library (not argparse), `errors`, `galois` and
`phasespace`, none of which imports numpy or dataclasses, and `pauli`,
`net`, `wigner` and `apps` inside the functions that use them.  numpy is
imported only inside their functions that return arrays and in
`apps._meanking_phi1_grid`, so `wigner` on the `meanking_phi1` preset is
the one request that loads it.  An exact grid is integer numerators, which
export_grid renders itself, so `fractions` loads for none of `field`,
`rays`, `uomega` and `wigner` on a stabilizer file or a `computational_*`
preset; `verify` loads it (with `apps`) only at n = 2 and 3, where it runs
the bell, meanking or qec rows.  `json` loads only where a document is read
or written: state, net and grid files (all through galois.load_json), json
output and `mub`.  `main` asks for one BLAS thread (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS default to 1; a value already set is
kept) before numpy loads, and freezes the heap (gc.freeze) before exiting,
so the final garbage collection at interpreter exit does not walk every
object the request created.

A state file's "density" is checked here for its JSON shape only, a square
list of [re, im] pairs; its numbers are read by errors.need_numbers, the
package's one reader of numbers from outside, and wigner_of refuses a
non-finite one.

The paper's checks are one table, `check_rows`: 12 (group, name, check)
rows, and `run_checks(field, *groups)` runs the rows of the named groups in
table order, printing `PASS <name>` or `FAIL <name>: <message>` for each and
returning 2 if any failed.  `verify --n N` runs the field, net and wigner
groups, plus bell and meanking at N = 2 and qec at N = 3; `bell --verify`,
`qec --verify` and `meanking --verify` run their own group.  Tier-1
parametrises over the same rows.
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import FieldMismatch, GfwignerError, MalformedInput, need_numbers
from .galois import (GF2Field, field_new, load_json, parse_poly, power_ordering,
                     read_field_header, u_omega_gates)
from .phasespace import all_striations, grid_axis, need_grid, striation, to_binary

if TYPE_CHECKING:
    from .net import QuantumNet
    from .wigner import WignerGrid

# -- formatting helpers ----------------------------------------------------------


def _axis_names(field: GF2Field) -> list[str]:
    return ["0"] + ["1" if j == 0 else ("w" if j == 1 else f"w^{j}")
                    for j in range(field.order)]


def _ratio_text(k: int, den: int) -> str:
    """str(Fraction(k, den)) without making the Fraction."""
    g = math.gcd(k, den)
    return str(k // g) if g == den else f"{k // g}/{den // g}"


def export_grid(grid: WignerGrid, fmt: str, meta: dict | None = None) -> str:
    """Render a Wigner grid as csv, json (as json.dumps(..., indent=2) of
    {"n", "poly", "exact", "axis", "rows_p_descending"} | meta) or ascii
    text.  Each distinct numerator of an exact grid (at most 2N + 1) and each
    dense cell is rendered once; the fixed layout is joined around them."""
    from .wigner import display_rows

    if fmt not in ("csv", "json", "ascii"):
        raise GfwignerError(f"unknown format {fmt!r}")
    field = grid.field
    names = _axis_names(field)
    if grid.exact:
        values = list(set(grid.flat))
        texts = [_ratio_text(k, grid.den) for k in values]
    else:  # by cell: 0.0 and -0.0 print apart
        values = grid.flat
        texts = [f"{v:.12g}" for v in values]
    if fmt == "json":  # digits, signs, "/", "." and "e": nothing to escape
        texts = [f'"{t}"' for t in texts]
    elif fmt == "ascii":
        width = max(map(len, texts))
        texts = [f"{'#' if v > 0 else 'o' if v < 0 else '.'} {t:>{width}}"
                 for v, t in zip(values, texts)]
    cells = list(map(dict(zip(values, texts)).__getitem__, grid.flat)) if grid.exact else texts
    rows = [list(map(cells.__getitem__, row)) for row in display_rows(field)]
    if fmt == "csv":
        lines = ["p\\q," + ",".join(names)]
        lines += [name + "," + ",".join(row) for name, row in zip(reversed(names), rows)]
        return "\n".join(lines) + "\n"
    if fmt == "ascii":
        label_w = max(map(len, names))
        out = [f"{name:>{label_w}} | " + "  ".join(row)
               for name, row in zip(reversed(names), rows)]
        out.append("-" * len(out[-1]))
        out.append(" " * label_w + " | " + "  ".join(f"  {s:>{width}}" for s in names))
        return "\n".join(out) + "\n"
    import json

    table = "[\n    [\n      " + "\n    ],\n    [\n      ".join(
        ",\n      ".join(row) for row in rows) + "\n    ]\n  ]"
    payload = {"n": field.n, "poly": field.poly_str(), "exact": grid.exact,
               "axis": names, "rows_p_descending": table, **(meta or {})}
    # every other member as json.dumps writes it inside the document
    return "{\n" + ",\n".join(f'  "rows_p_descending": {v}' if v is table
                               else json.dumps({k: v}, indent=2)[2:-2]
                               for k, v in payload.items()) + "\n}\n"


def mub_json(n: int, net: str, bases: dict, overlap_report: dict) -> str:
    """The `mub` document and a newline, byte for byte as
    json.dumps(..., indent=2) writes {"n", "net", "bases", "overlap_report"}
    with each amplitude z of a basis as [round(z.real, 12), round(z.imag, 12)].

    The rows of QuantumNet.basis share their amplitude objects, and those
    take few distinct values, so each object is looked up once, each
    distinct value (keyed by its bits, which keeps 0.0 and -0.0 apart) is
    rounded and rendered once, and the fixed layout is joined around the
    rendered pieces."""
    import json

    flat = list(chain.from_iterable(chain.from_iterable(bases.values())))
    ids = list(map(id, flat))  # unique while flat holds the objects
    texts, piece = {}, {}
    for key, z in dict(zip(ids, flat)).items():
        bits = (z.real.hex(), z.imag.hex())
        if bits not in texts:
            texts[bits] = (f"        [\n          {json.dumps(round(z.real, 12))},\n"
                           f"          {json.dumps(round(z.imag, 12))}\n        ]")
        piece[key] = texts[bits]
    pieces = map(piece.__getitem__, ids)
    parts = [json.dumps({"n": n, "net": net}, indent=2)[:-2] + ',\n  "bases": {']
    for k, (label, rows) in enumerate(bases.items()):
        parts += [
            ("," if k else "") + f"\n    {json.dumps(str(label))}: [\n      [\n",
            "\n      ],\n      [\n".join(",\n".join(islice(pieces, len(row))) for row in rows),
            "\n      ]\n    ]",
        ]
    parts.append("\n  }," + json.dumps({"overlap_report": overlap_report}, indent=2)[1:] + "\n")
    return "".join(parts)


_FRACTION = re.compile(r"-?\d+(/\d+)?")


def _grid_cell(cell, exact: bool):
    """One exported cell: an exact fraction string, or a finite number."""
    try:
        if exact and isinstance(cell, str) and _FRACTION.fullmatch(cell):
            from fractions import Fraction

            return Fraction(cell)
        if not exact and isinstance(cell, (str, int, float)) and not isinstance(cell, bool):
            if math.isfinite(val := float(cell)):
                return val
    except (ArithmeticError, ValueError):  # 1/0, an integer beyond float range, text
        pass
    raise MalformedInput(
        f"grid cell {cell!r} is not {'a fraction' if exact else 'a finite number'}"
    )


def import_grid(text: str) -> WignerGrid:
    """Inverse of export_grid(fmt='json'); rejects malformed grids."""
    from .wigner import WignerGrid, display_rows

    field, payload = read_field_header(text, "grid JSON", exact=bool, rows_p_descending=list)
    rows, exact = payload["rows_p_descending"], payload["exact"]
    N = field.N
    if not (len(rows) == N and all(isinstance(row, list) and len(row) == N for row in rows)):
        raise MalformedInput(f"grid JSON needs {N} rows of {N} cells")
    flat = [None] * (N * N)
    for indices, row in zip(display_rows(field), rows):
        for i, cell in zip(indices, row):
            flat[i] = _grid_cell(cell, exact)
    return WignerGrid.from_rationals(field, flat) if exact else WignerGrid(field, tuple(flat))


# -- net and state resolution ------------------------------------------------------


def resolve_net(field: GF2Field, spec: str) -> QuantumNet:
    """'default' (all +1, independent), 'covariant', or a JSON file path."""
    from .net import build_net, net_from_json

    if spec == "default":
        return build_net(field)
    if spec == "covariant":
        return build_net(field, "covariant")
    with open(spec) as fh:
        net = net_from_json(fh.read())
    if net.field != field:
        raise FieldMismatch("net file does not match the requested field")
    return net


def resolve_state(field: GF2Field, spec: str):
    """Resolve a state preset or file.

    Returns ('stabilizer', StabilizerGroup) or ('dense', density matrix): a
    file's rows of Python complex numbers, which wigner_of checks.
    Presets: computational_<bits>, bell_{phi,psi}_{plus,minus},
    qec_logical_{0,1}; cmd_wigner reads meanking_phi1 itself.  Files: JSON
    with either {"stabilizer": [["+XXI", 1], ...]} or
    {"density": [[[re, im], ...], ...]}.
    """
    from .pauli import StabilizerGroup, parse_pauli, translation

    n = field.n
    if spec.startswith("computational_"):  # Z on qubit k, signed by bit k
        bits = field.parse_bits(spec.removeprefix("computational_"))
        zs = [(translation(n, 0, 1 << k), -1 if bits >> k & 1 else 1) for k in range(n)]
        return "stabilizer", StabilizerGroup.from_generators(field, zs)
    if spec.startswith(("bell_phi_", "bell_psi_")):
        if n != 2:
            raise FieldMismatch("bell presets need --n 2")
        from . import apps

        return "stabilizer", apps.bell_stabilizer(field, spec.removeprefix("bell_"))
    if spec in ("qec_logical_0", "qec_logical_1"):
        if n != 3:
            raise FieldMismatch("qec presets need --n 3")
        from . import apps

        return "stabilizer", apps.logical_group(field, int(spec[-1]))
    with open(spec) as fh:
        payload = load_json(fh.read(), "state file")
    if not (isinstance(payload, dict) and len(payload.keys() & {"stabilizer", "density"}) == 1):
        raise MalformedInput("state file needs a JSON object with exactly one of the "
                             "keys 'stabilizer' and 'density'")
    if "stabilizer" in payload:
        gens = payload["stabilizer"]
        if not (isinstance(gens, list) and all(
                isinstance(g, list) and len(g) == 2 and isinstance(g[0], str)
                for g in gens)):
            raise MalformedInput('"stabilizer" needs ["+XZ...", sign] pairs')
        gens = [(parse_pauli(s), sign) for s, sign in gens]
        return "stabilizer", StabilizerGroup.from_generators(field, gens)
    rows = payload["density"]
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) == len(rows)
            and all(isinstance(cell, list) and len(cell) == 2 for cell in row)
            for row in rows)):
        raise MalformedInput('"density" needs a square matrix: as many rows as '
                             'columns, of [re, im] pairs')
    need_numbers([x for row in rows for cell in row for x in cell], '"density"')
    return "dense", [[complex(re, im) for re, im in row] for row in rows]


# -- subcommands -------------------------------------------------------------------


def write_out(text: str) -> None:
    """Write text to stdout, every byte of it.  Under `python -u` (or
    PYTHONUNBUFFERED) stdout's binary layer is a raw file, whose write takes
    only part of the bytes when the reader goes away; writing the rest makes
    that show as BrokenPipeError, as it does with the default buffering."""
    sys.stdout.flush()  # what print wrote comes first
    out, data = sys.stdout.buffer, memoryview(text.encode(sys.stdout.encoding))
    while data:
        data = data[out.write(data):]


def cmd_field(args) -> int:
    field = field_new(args.n, args.poly)
    can = [field.bits_str(x) for x in power_ordering(field, "canonical")]
    dual = [field.bits_str(x) for x in power_ordering(field, "dual")]
    if args.format == "csv":
        print("canonical,dual")
        for c, d in zip(can, dual):
            print(f"{c},{d}")
    else:
        print(f"GF(2^{args.n}), polynomial bits (low to high): {field.poly_str()}")
        print(f"{'canonical':>{args.n + 6}}  {'dual':>{args.n + 6}}")
        for c, d in zip(can, dual):
            print(f"{c:>{args.n + 6}}  {d:>{args.n + 6}}")
    return 0


def cmd_rays(args) -> int:
    """Each striation's cells (q, p) marked by their line a q + b p = c: R
    on the ray (c = 0), else 1 + log c, the line's place in the striation."""
    field = field_new(args.n, args.poly)
    need_grid(field.n)  # N + 1 diagrams of N^2 marks: refused before any work
    axis = grid_axis(field)
    marks = ["R"] + [str(1 + field.log(c)) for c in range(1, field.N)]
    for st in all_striations(field):
        print(f"striation {st.label} (ray first):")
        aq = [field.mul(st.ray.a, q) for q in axis]
        for p in reversed(axis):
            bp = field.mul(st.ray.b, p)
            print("  " + " ".join([marks[c ^ bp] for c in aq]))
        print()
    return 0


def cmd_mub(args) -> int:
    from .net import mub_bases, mub_overlap_report
    from .pauli import dense_dim

    field = field_new(args.n, args.poly)
    dense_dim(field.n)  # refused above the dense cap before the net is built
    net = resolve_net(field, args.net)
    bases = mub_bases(net)
    report = mub_overlap_report(bases)
    write_out(mub_json(field.n, net.fingerprint(), bases, report))
    return 0


def cmd_uomega(args) -> int:
    field = field_new(args.n, args.poly)
    for name, i, j in u_omega_gates(field):
        print(f"{name} {i} {j}")
    return 0


def cmd_wigner(args) -> int:
    from .wigner import stabilizer_wigner, wigner_of

    field = field_new(args.n, args.poly)
    need_grid(field.n)  # refused before the net and the state are built
    net = resolve_net(field, args.net)
    if args.state == "meanking_phi1":
        from .apps import _meanking_phi1_grid

        grid = _meanking_phi1_grid(net)
    else:
        kind, state = resolve_state(field, args.state)
        grid = (stabilizer_wigner if kind == "stabilizer" else wigner_of)(net, state)
    write_out(export_grid(grid, args.format, {"net": net.fingerprint()}))
    return 0


def cmd_bell(args) -> int:
    from . import apps
    from .net import build_net
    from .wigner import stabilizer_wigner

    field = apps.bell_field()
    if args.verify:
        return run_checks(field, "bell")
    net = build_net(field, "covariant")
    counts = apps.bell_survey(field)
    print(f"patterns over 64 nets x 4 states: {counts}")
    for label in apps.BELL_LABELS:
        grid = stabilizer_wigner(net, apps.bell_stabilizer(field, label))
        print(f"\n{label} (covariant all-+1 net):")
        write_out(export_grid(grid, args.format))
    return 0


def cmd_qec(args) -> int:
    from . import apps
    from .wigner import stabilizer_wigner

    field = apps.qec_field()
    if args.verify:
        return run_checks(field, "qec")
    net = apps.qec_net(field)
    for which in (0, 1):
        grid = stabilizer_wigner(net, apps.logical_group(field, which))
        print(f"logical |{which}_L> (main-diagonal preset net):")
        write_out(export_grid(grid, args.format))
        print()
    print("solution family (a, c, e, g):")
    for sol in apps.code_solution_family():
        print("  " + ", ".join(f"{k}={sol[k]}" for k in "aceg"))
    print("covariant solutions:")
    for sol in apps.covariant_code_solutions(field):
        print("  " + ", ".join(f"{k}={sol[k]}" for k in "aceg"))
    return 0


def cmd_meanking(args) -> int:
    from . import apps

    field = apps.bell_field()
    if args.verify:
        return run_checks(field, "meanking")
    net = apps.mean_king_net(field)
    grid = apps.mean_king_grid(net)
    print("W(phi_1):")
    write_out(export_grid(grid, args.format))
    sums = apps.mean_king_line_sums(net)
    print("line sums:")
    for (obs, idx), val in sorted(sums.items()):
        print(f"  {obs}{idx}: {round(val, 6) + 0.0:.6f}")  # no sign on a sum of noise
    print(f"retrodiction success probability: "
          f"{apps.mean_king_simulate(net):.12f}")
    return 0


# -- verify ------------------------------------------------------------------------


def _claim(holds, message="") -> None:
    """Raise AssertionError(message) unless holds: a check's claim, stated
    so that `python -O` does not strip it as it strips `assert`."""
    if not holds:
        raise AssertionError(message)


def check_rows(field: GF2Field) -> list[tuple]:
    """The paper's checks as (group, name, check) rows, in print order; a
    check raises when its claim fails.  The wigner rows use one covariant net
    on field, the bell and meanking rows need field = GF(4), and the qec rows
    run on apps.qec_field(), where the preset net gives the paper's grid.
    Every row is plain Python, and no row loads numpy; apps is loaded only
    by the bell, qec and meanking rows.  The wigner rows read the point
    operators through chi(beta) = Tr(A(0) T_beta) (pauli.pauli_coefficients):
    Tr(A(alpha) A(beta)) is N^-1 sum_gamma chi(gamma)^2 (-1)^<alpha ^ beta,gamma>,
    so the N^4 traces are one symplectic transform of chi^2; the sum over the
    ray R is the projector of R's generators, which check its row v, and the
    sum over d + R is T_d |v><v| T_d^dagger: N steps a row (pauli.translate)."""
    from .net import build_net, mub_bases, mub_overlap_report
    from .pauli import (IDENTITY_ATOL, StabilizerGroup, pauli_coefficients, translate,
                        translation, translation_for, walsh_hadamard)
    from .wigner import (purity_identity_residual, reconstruct, stabilizer_wigner, state_density,
                         wigner_of)

    net = build_net(field, "covariant")

    shared = [None, None]  # the net's A(0) and its chi(beta) = Tr(A(0) T_beta)

    def a0_chi():
        # the two wigner rows share chi, computed again only if A(0) changes
        if shared[0] is not (a0 := net.a0_matrix()):
            shared[:] = a0, pauli_coefficients(a0, field.n)
        return shared[1]

    def orderings():
        for gen in ("canonical", "dual"):
            _claim(len(set(power_ordering(field, gen))) == field.N, "ordering misses elements")

    def trace_linear():
        for x in field.elements():
            for y in field.elements():
                _claim(field.trace(x ^ y) == field.trace(x) ^ field.trace(y))

    def mub_property():
        report = mub_overlap_report(mub_bases(net))  # cached on net for line_projectors
        _claim(report["max_gram_deviation"] < IDENTITY_ATOL, report)
        _claim(report["max_cross_overlap_deviation"] < IDENTITY_ATOL, report)

    def f_signs():
        _claim(all(v in (1, -1) for v in net.f_vector()))

    def orthogonality():
        # Tr(A_alpha A_beta) = delta / N: the entry at alpha ^ beta of the
        # symplectic transform, whose entries the plain one permutes, 0 fixed
        chi = a0_chi()
        traces = [t / field.N for t in walsh_hadamard([z * z for z in chi])]
        worst = max(abs(traces[0] - 1 / field.N), *map(abs, traces[1:]))
        _claim(worst < IDENTITY_ATOL, f"Tr(A_alpha A_beta) off delta / N by {worst}")

    def line_projectors():
        # the sum of A(alpha) over the ray R is sum_{beta in R} chi(beta) T_beta:
        # with N chi on R the sign function of the group of R's generators g_k
        # (its points at parameter 2^k), that is the projector
        # prod_k (I + e_k T_{g_k}) / 2, e_k = N chi(g_k), which is |v><v| iff
        # |v| = 1 and T_{g_k} v = e_k v for each k; the sum over the line
        # d + R is T_d |v><v| T_d^dagger, which is |u><u| iff |u| = 1 and
        # u = <T_d v|u> T_d v
        n, N = field.n, field.N
        chi = a0_chi()
        for label, rows in mub_bases(net).items():
            lines = striation(field, label).lines
            ray = [to_binary(field, pt) for pt in lines[0].points(field)]
            nchi = {(pt.qbits, pt.pbits): N * chi[(pt.qbits << n) | pt.pbits] for pt in ray}
            gens = [translation_for(ray[1 << k]) for k in range(n)]
            signs = [1 if nchi[g.a, g.b].real > 0 else -1 for g in gens]
            group = StabilizerGroup(field, gens, signs)
            _claim(group.elements.keys() == nchi.keys(),
                   f"striation {label}: its ray is not the span of its points at 2^k")
            worst = max(abs(nchi[beta] - sign) for beta, sign in group.elements.items())
            _claim(worst < IDENTITY_ATOL,
                   f"striation {label}: N chi on its ray is off its group's signs by {worst}")
            # worst carries over the rows: it stays below IDENTITY_ATOL while they pass
            v = rows[0]
            worst = max(abs(y - nchi[g.a, g.b] * z)
                        for g in gens for y, z in zip(translate(g, v), v))
            for c, (line, u) in enumerate(zip(lines, rows)):
                # a normalised line a q + b p = c has a = 1, or a = 0 and b = 1:
                # (c, 0) or (0, c) is on it
                w = translate(translation(n, line.c, 0) if line.a
                              else translation(n, 0, field.p_to_bits(line.c)), v)
                p = sum(z.conjugate() * y for z, y in zip(w, u))
                worst = max(worst, abs(sum(abs(z) ** 2 for z in u) - 1),
                            *(abs(y - p * z) for z, y in zip(w, u)))
                _claim(worst < IDENTITY_ATOL,
                       f"line {c} of striation {label}: its sum is off |v><v| by {worst}")

    def roundtrip():
        # a complex Gaussian pure state from the standard library's
        # generator, as rows of Python complex numbers
        import random

        rng = random.Random(11)
        rho = state_density([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(field.N)])
        grid = wigner_of(net, rho)
        worst = max(abs(x - y) for got, want in zip(reconstruct(net, grid), rho)
                    for x, y in zip(got, want))
        _claim(worst < IDENTITY_ATOL, f"reconstruction off rho by {worst}")
        _claim(purity_identity_residual(net, grid) < IDENTITY_ATOL)

    def survey():
        from . import apps

        counts = apps.bell_survey(field)
        _claim(counts["concentrated"] > 0 and counts["spread"] > 0)
        _claim(sum(counts.values()) == 256)

    def family():
        from . import apps

        fam = apps.code_solution_family()
        _claim(len(fam) == 8, f"{len(fam)} family solutions")
        cov = apps.covariant_code_solutions(apps.qec_field())
        _claim(len(cov) == 4, f"{len(cov)} covariant solutions")

    def preset_grid():
        from . import apps

        qec_field = apps.qec_field()
        grid = stabilizer_wigner(apps.qec_net(qec_field), apps.logical_group(qec_field, 0))
        params = apps.grid_parameters(qec_field, grid)
        _claim(all(32 * params[k] == 1 for k in "aceg"), params)

    def basis_and_sums():
        from . import apps

        king_net = apps.mean_king_net(field)
        apps.mean_king_basis(king_net)  # AmbiguousInference unless orthonormal
        for (obs, idx), val in apps.mean_king_line_sums(king_net).items():
            want = {1: 0.0, 2: 0.5}.get(idx, 0.25)
            _claim(abs(val - want) < IDENTITY_ATOL, (obs, idx, val))

    def retrodiction():
        from . import apps

        king_net = apps.mean_king_net(field)
        _claim(abs(apps.mean_king_simulate(king_net) - 1) < IDENTITY_ATOL)

    return [
        ("field", "field.power_ordering_complete", orderings),
        ("field", "field.trace_linear", trace_linear),
        ("net", "net.mub_property", mub_property),
        ("net", "net.f_is_sign", f_signs),
        ("wigner", "wigner.operator_orthogonality", orthogonality),
        ("wigner", "wigner.line_projectors", line_projectors),
        ("wigner", "wigner.reconstruction_roundtrip", roundtrip),
        ("bell", "bell.pattern_survey", survey),
        ("qec", "qec.solution_family", family),
        ("qec", "qec.preset_grid", preset_grid),
        ("meanking", "meanking.basis_and_line_sums", basis_and_sums),
        ("meanking", "meanking.retrodiction", retrodiction),
    ]


def verify_groups(n: int) -> tuple[str, ...]:
    """The check groups `verify --n n` runs."""
    return ("field", "net", "wigner") + {2: ("bell", "meanking"), 3: ("qec",)}.get(n, ())


def run_checks(field: GF2Field, *groups: str) -> int:
    """Run the rows of the named groups; print one line each; exit 0 iff all
    pass."""
    failed = 0
    for group, name, check in check_rows(field):
        if group not in groups:
            continue
        try:
            check()
        except Exception as exc:  # report and keep going
            print(f"FAIL {name}: {exc}")
            failed += 1
        else:
            print(f"PASS {name}")
    return 2 if failed else 0


def cmd_verify(args) -> int:
    from .pauli import dense_dim

    field = field_new(args.n, args.poly)
    dense_dim(field.n)  # refused above the dense cap, where the net and wigner rows cannot run
    return run_checks(field, *verify_groups(field.n))


# -- dispatcher ----------------------------------------------------------------------


# The one command table: parse_args reads argv from it and help_text renders
# --help from it.  A command maps to its handler and its options.  An option
# is (name, kind, default, required, help) and sets args.<name without "--">;
# its kind converts the value (int, str or parse_poly), lists the choices (a
# tuple) or makes the option a flag (bool).
_N = ("--n", int, None, True, "number of qubits: the field is GF(2^n)")
_POLY = ("--poly", lambda t: parse_poly(t, "--poly"), None, False, "polynomial bits, x^0 first")
_FORMAT = ("--format", ("ascii", "csv", "json"), "ascii", False, "output format")
_VERIFY = ("--verify", bool, False, False, "run the command's checks instead")
_NET = "default, covariant or a net JSON file"
_HELP = ("--help", bool, False, False, "show this help (also -h) and exit")
COMMANDS = {
    "field": (cmd_field, (_N, _POLY,
                          ("--format", ("ascii", "csv"), "ascii", False, "output format"),
                          ("--table", bool, False, False, "the ordering table (the default)"))),
    "rays": (cmd_rays, (_N, _POLY)),
    "mub": (cmd_mub, (_N, _POLY, ("--net", str, "covariant", False, _NET))),
    "uomega": (cmd_uomega, (_N, _POLY)),
    "wigner": (cmd_wigner, (_N, _POLY, _FORMAT,
                            ("--state", str, None, True, "a state preset or a state file"),
                            ("--net", str, "default", False, _NET))),
    "bell": (cmd_bell, (_FORMAT, _VERIFY)),
    "qec": (cmd_qec, (_FORMAT, _VERIFY)),
    "meanking": (cmd_meanking, (_FORMAT, _VERIFY)),
    "verify": (cmd_verify, (_N, _POLY)),
}


def help_text(command) -> str:
    """A command's usage line, then one line per option; for anything but a
    command, the description and then the help of every command."""
    if command not in COMMANDS:
        return "\n\n".join(["Discrete Wigner functions on GF(2^n) phase space.",
                            *map(help_text, COMMANDS)])
    options = (*COMMANDS[command][1], _HELP)
    spelled = [o[0] if o[1] is bool else f"{o[0]} {{{','.join(o[1])}}}"
               if isinstance(o[1], tuple) else f"{o[0]} {o[0][2:].upper()}" for o in options]
    usage = " ".join(s if o[3] else f"[{s}]" for s, o in zip(spelled, options))
    return "\n".join([f"usage: gfwigner {command} {usage}", "", *(
        f"  {s:<25} {o[4]}" + (f" (default: {o[2]})" if isinstance(o[2], str) else "")
        for s, o in zip(spelled, options))])


def parse_args(argv: list) -> SimpleNamespace:
    """argv read against COMMANDS: a command, then its options as --name value
    or --name=value, a name also by a unique prefix, and the last of a
    repeated option wins.  -h or --help anywhere makes printing the help the
    handler.  A usage error, or a --poly that parse_poly rejects, raises
    MalformedInput."""
    command = argv[0] if argv else None
    fn, options = COMMANDS.get(command, (None, ()))
    table = {o[0]: o for o in (*options, _HELP)}

    def lookup(key: str) -> list:
        """The option names that key spells: itself, or those it begins."""
        return [key] if key in table else [o for o in table if o.startswith(key) and len(key) > 2]

    if any(token == "-h" or lookup(token) == ["--help"] for token in argv):
        return SimpleNamespace(fn=lambda args: print(help_text(command)) or 0)
    if fn is None:
        raise MalformedInput(f"the command must be one of {', '.join(COMMANDS)}")
    args, tokens = SimpleNamespace(fn=fn, **{o[0][2:]: o[2] for o in options}), iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        if len(hits := lookup(name)) != 1 or eq and table[hits[0]][1] is bool:
            raise MalformedInput(f"{command}: unrecognized argument {token!r}")
        name, kind = table[hits[0]][:2]
        if kind is not bool and not eq and (text := next(tokens, "--")).startswith("--"):
            raise MalformedInput(f"{command} {name} needs a value")
        if isinstance(kind, tuple) and text not in kind:
            raise MalformedInput(f"{command} {name} {text!r} is not one of {', '.join(kind)}")
        # int() raises ValueError on a non-integer, which dispatch reports
        setattr(args, name[2:], text if isinstance(kind, tuple) else kind is bool or kind(text))
    if missing := [o[0] for o in options if o[3] and getattr(args, o[0][2:]) is None]:
        raise MalformedInput(f"{command} needs {' and '.join(missing)}")
    return args


def dispatch(argv=None) -> int:
    try:
        # MalformedInput for usage errors and --poly
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit cannot fail again, and exit quietly as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (GfwignerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal errors
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # one BLAS thread unless the user says otherwise: every dense product
    # here is at most 64 x 64, where a thread pool only burns CPU; set
    # before anything imports numpy, which reads these once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    code = dispatch()
    # move the heap to the permanent generation, so the collection at
    # interpreter exit skips it; flushes and atexit handlers still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
