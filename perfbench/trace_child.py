"""Run one gfwigner CLI request with spans around each module's public functions.

Usage (from the repository root, with PYTHONPATH=src):
    python3 perfbench/trace_child.py TRACE_OUT ARGV...

The functions are wrapped from outside the package: every gfwigner module
attribute that refers to a traced function is replaced by a wrapper, so calls
made through any module's namespace are seen.  Then `cli.dispatch(ARGV)` runs
as `python -m gfwigner.cli ARGV` would.  Spans (name, start, end, parent
index) and counters stay in memory and are written to TRACE_OUT once, at exit.
"""

import time

T_MAIN = time.perf_counter()

import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import gfwigner.cli  # noqa: E402  (imports every module of the package)

T_IMPORTED = time.perf_counter()

from gfwigner import apps, cli, galois, net, pauli, wigner  # noqa: E402

spans = []  # [name, start, end, parent index]; parent -1 is the process
stack = [-1]
counts = Counter()
tallies = {}  # name -> itertools.count, for the hot count-only wrappers
seen = {"pauli.to_matrix.distinct": set(), "net.f.distinct": set()}


def spanned(name, fn, after=None):
    """Wrap fn in a span; `after(result, *args)` may add counts."""
    perf_counter = time.perf_counter

    def wrapper(*args, **kwargs):
        idx = len(spans)
        parent = stack[-1]
        spans.append(None)
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = [name, start, end, parent]
        if after is not None:
            try:
                after(result, *args, **kwargs)
            except (AttributeError, TypeError):
                counts["trace.hook_errors"] += 1  # the signature changed
        return result

    return wrapper


def counted(name, fn):
    """Count calls only: these run up to millions of times per request."""
    tick = tallies.setdefault(name, itertools.count()).__next__

    def wrapper(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    return wrapper


def counted_f(fn):
    """QuantumNet.f: count calls and distinct (net, beta) pairs, cheaply."""
    tick = tallies.setdefault("net.f.calls", itertools.count()).__next__
    add = seen["net.f.distinct"].add

    def f(self, beta):
        tick()
        add((id(self), beta.qbits, beta.pbits))
        return fn(self, beta)

    return f


def replace_everywhere(orig, new):
    """Point every gfwigner module attribute bound to `orig` at `new`."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "gfwigner":
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _to_matrix_distinct(result, t):
    seen["pauli.to_matrix.distinct"].add(t)


def _build_net_mode(result, field, mode="independent", signs=None):
    if mode == "covariant":
        counts["net.build_net.covariant_calls"] += 1


def _group_elements(result, *args, **kwargs):
    counts["wigner.group_elements"] += len(result.elements)


def _exact_terms(result, qnet, group):
    # computed: the closed form sums |S| terms at each of the N^2 points
    counts["wigner.exact_terms"] += qnet.field.N ** 2 * len(group.elements)


def _dense_flops(result, qnet, rho):
    # computed: per point, Tr(rho A) costs one N x N complex product and
    # A = T A0 T^dagger two more (none at the origin); 8 N^3 flops each
    N = qnet.field.N
    counts["wigner.dense_flops"] += 8 * N ** 3 * (3 * N * N - 2)


# (module, attribute, span name, count hook).  A function that a later
# version of the package renames or removes is skipped, and its metrics
# read 0.
FUNCTIONS = [
    (galois, "field_new", "galois.field_new", None),
    (pauli, "to_matrix", "pauli.to_matrix", _to_matrix_distinct),
    (net, "build_net", "net.build_net", _build_net_mode),
    (net, "net_from_json", "net.net_from_json", None),
    (net, "mub_bases", "net.mub_bases", None),
    (wigner, "check_density_matrix", "wigner.check_density_matrix", None),
    (wigner, "stabilizer_wigner", "wigner.stabilizer_wigner", _exact_terms),
    (wigner, "wigner_of", "wigner.wigner_of", _dense_flops),
    (apps, "bell_survey", "apps.bell_survey", None),
    (apps, "code_solution_family", "apps.code_solution_family", None),
    (apps, "covariant_code_solutions", "apps.covariant_code_solutions", None),
    (apps, "mean_king_simulate", "apps.mean_king_simulate", None),
    (cli, "dispatch", "cli.dispatch", None),
    (cli, "resolve_state", "cli.resolve_state", None),
    (cli, "export_grid", "cli.export_grid", None),
    (cli, "cmd_mub", "cli.cmd_mub", None),
    (cli, "run_checks", "cli.run_checks", None),
]

COUNTED = [
    (pauli, "compose", "pauli.compose.calls"),
    (wigner, "point_operator", "wigner.point_operator.calls"),
]

METHODS = [  # (module, class name, method, span name)
    (net, "QuantumNet", "f_table", "net.f_table"),
    (net, "QuantumNet", "a0_matrix", "net.a0_matrix"),
]


def install():
    for module, attr, name, after in FUNCTIONS:
        orig = getattr(module, attr, None)
        if callable(orig):
            replace_everywhere(orig, spanned(name, orig, after))
    for module, attr, name in COUNTED:
        orig = getattr(module, attr, None)
        if callable(orig):
            replace_everywhere(orig, counted(name, orig))
    for module, cls_name, attr, name in METHODS:
        cls = getattr(module, cls_name, None)
        if callable(getattr(cls, attr, None)):
            setattr(cls, attr, spanned(name, getattr(cls, attr)))
    qnet = getattr(net, "QuantumNet", None)
    if callable(getattr(qnet, "f", None)):
        qnet.f = counted_f(qnet.f)
    group_cls = getattr(wigner, "StabilizerGroup", None)
    method = vars(group_cls).get("from_generators") if group_cls else None
    if isinstance(method, classmethod):
        group_cls.from_generators = classmethod(
            spanned("wigner.from_generators", method.__func__, _group_elements))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        rc = cli.dispatch(argv)
    finally:
        sys.stdout.flush()
        counts.update({name: len(keys) for name, keys in seen.items()})
        counts.update({name: next(tally) for name, tally in tallies.items()})
        with open(out_path, "w") as fh:
            json.dump({"t_main": T_MAIN, "t_imported": T_IMPORTED,
                       "spans": spans, "counts": counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
