#!/usr/bin/env python3
"""Benchmark of the gfwigner CLI, run the way a user runs it.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --record-golden

Every request is one fresh `python -m gfwigner.cli ...` process with
PYTHONPATH=src, so interpreter start and imports are included.  One client
sends the next request only when the previous one has ended (a closed loop).
A pass runs the workload's fixed request list once.  Two trivial warm-up
requests are discarded, then turns of three trivial requests (`setup_s`) and
one pass repeat for S seconds, and medians are reported.

Requests run pinned to one CPU.  Before each request the launcher times
CAL_UNITS runs of a fixed pure-Python loop on that CPU (see `launch.py`).  On
a shared virtual machine the CPU's speed drifts by tens of percent over
seconds to minutes, and the loop drifts with the requests (on a 2-vCPU Xeon
KVM guest: log pass wall time against log loop time, correlation 0.90,
slope 0.98).  So every end-to-end time measured in a turn is reported
scaled to a fixed speed: time x CAL_UNIT_REF_S / (the turn's mean loop
time).  The raw medians and the median scale are printed and kept in the
run record.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with passes whose requests run under `trace_child.py`, and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Outputs are checked by `check.py`; a request that exits non-zero or fails a
check counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEED = 0
SETUP_REPS = 3        # trivial requests before each measured pass (setup_s)
MIN_PASSES = 2        # measured passes per run, even past --seconds
WARMUP_REPS = 2       # trivial requests first: byte-code and page caches
RUN_LIMIT_S = 165     # a run must end within 180 s whatever the program does
REQUEST_LIMIT_S = 120
CAL_UNITS = 8         # calibration units timed before each request
# The calibration unit's typical time on the reference machine (2-vCPU Intel
# Xeon KVM guest, Python 3.11.7).  Scaled times read as seconds at that speed.
CAL_UNIT_REF_S = 0.0075

# Fixed child environment.  One BLAS thread: on a 2-core machine the default
# thread pool made n = 6 requests up to 2x slower and less steady.
CHILD_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C.UTF-8",
}

END_TO_END = {
    "wall_s": "s",
    "req_p50_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# A ".s" suffix is the self time of the span of that name, ".self_s" too;
# ".calls" counts spans or counted calls; other counts come from the trace.
PER_LAYER = {
    "process.import_s": "s",
    "process.exit_s": "s",
    "galois.field_new.calls": "count",
    "galois.field_new.s": "s",
    "pauli.to_matrix.calls": "count",
    "pauli.to_matrix.distinct": "count",
    "pauli.to_matrix.s": "s",
    "pauli.compose.calls": "count",
    "net.build_net.s": "s",
    "net.build_net.covariant_calls": "count",
    "net.net_from_json.s": "s",
    "net.f.calls": "count",
    "net.f.distinct": "count",
    "net.f_table.s": "s",
    "net.a0_matrix.s": "s",
    "net.mub_bases.s": "s",
    "wigner.from_generators.s": "s",
    "wigner.group_elements": "count",
    "wigner.check_density_matrix.s": "s",
    "wigner.stabilizer_wigner.s": "s",
    "wigner.exact_terms": "count",
    "wigner.wigner_of.s": "s",
    "wigner.point_operator.calls": "count",
    "wigner.dense_flops": "flop",
    "apps.bell_survey.s": "s",
    "apps.code_solution_family.s": "s",
    "apps.covariant_code_solutions.s": "s",
    "apps.mean_king_simulate.s": "s",
    "cli.resolve_state.s": "s",
    "cli.export_grid.s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.cmd_mub.self_s": "s",
    "cli.run_checks.s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}


# -- one request ------------------------------------------------------------------


class Runner:
    """Runs requests one at a time, through `launch.py`, and records their cost."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(CHILD_ENV, PATH=os.environ.get("PATH", "/usr/bin:/bin"))
        self.attempted = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def request(self, argv: list, trace_path: Path | None = None) -> dict:
        if trace_path is None:
            cmd = [sys.executable, "-m", "gfwigner.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "trace_child.py"), str(trace_path), *argv]
        self.attempted += 1
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return {"argv": argv, "rc": None, "out": "", "err": "run time limit",
                    "wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "t_spawn": 0.0, "cal_s": 0.0}
        out, err = WORK / "stdout", WORK / "stderr"
        self.launcher.stdin.write(json.dumps({
            "cmd": cmd, "env": self.env, "stdout": str(out), "stderr": str(err),
            "timeout": min(remaining, REQUEST_LIMIT_S), "calibrate": CAL_UNITS}) + "\n")
        self.launcher.stdin.flush()
        result = json.loads(self.launcher.stdout.readline())
        result.update(argv=argv, out=out.read_text(errors="replace"),
                      err=err.read_text(errors="replace"))
        return result


def judge(request: dict, result: dict, golden: str | None) -> str | None:
    """None if the output is correct, else the reason it is not."""
    if result["rc"] is None:
        return result["err"]
    try:
        check.check(request, result["rc"], result["out"], golden)
    except check.CheckError as exc:
        return f"{exc} (stderr: {result['err'].strip()[-200:]!r})"
    except Exception as exc:  # a malformed output may break any parser step
        return f"checker could not read the output: {exc!r}"
    return None


# -- passes -----------------------------------------------------------------------


def run_pass(runner: Runner, requests: list, goldens: list | None,
             traced: bool = False) -> dict:
    results = []
    for i, req in enumerate(requests):
        trace_path = WORK / f"trace_{i}.json" if traced else None
        results.append(runner.request(req["argv"], trace_path))
    failures = []
    for i, (req, res) in enumerate(zip(requests, results)):
        why = judge(req, res, goldens[i] if goldens else None)
        if why:
            failures.append(f"{' '.join(req['argv'])}: {why}")
    record = {
        "wall": sum(r["wall"] for r in results),  # closed loop: back to back
        "cal_s": sum(r["cal_s"] for r in results),
        "cpu": sum(r["cpu"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "request_walls": [r["wall"] for r in results],
        "request_cal_s": [r["cal_s"] for r in results],
        "failures": failures,
    }
    if traced:
        record["trace"] = [read_trace(WORK / f"trace_{i}.json", i, res)
                           for i, res in enumerate(results)]
    return record


def read_trace(path: Path, request_id: int, result: dict) -> dict:
    try:
        trace = json.loads(path.read_text())
        path.unlink()
    except (OSError, ValueError):
        trace = {"t_main": result["t_spawn"], "t_imported": result["t_spawn"],
                 "spans": [], "counts": {}}
    trace.update(request=request_id, argv=result["argv"], t_spawn=result["t_spawn"],
                 t_reaped=result["t_spawn"] + result["wall"],
                 stdout_bytes=len(result["out"].encode()))
    return trace


def layer_values(traced_pass: dict) -> dict:
    """Per-layer metrics of one traced pass: self times, calls and counts."""
    self_s, calls, counts = Counter(), Counter(), Counter()
    top_level = 0.0
    for rec in traced_pass["trace"]:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                top_level += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1
        counts.update(rec["counts"])
        counts["process.import_s"] += rec["t_imported"] - rec["t_spawn"]
        last_end = max((end for _, _, end, parent in spans if parent < 0),
                       default=rec["t_imported"])
        counts["process.exit_s"] += rec["t_reaped"] - last_end
        counts["cli.stdout_bytes"] += rec["stdout_bytes"]
    values = {}
    for metric in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat in ("s", "self_s"):
            values[metric] = self_s[base]
        elif stat == "calls":
            values[metric] = calls[base] + counts[metric]
        else:
            values[metric] = counts[metric]
    values["trace.accounted_share"] = (
        (counts["process.import_s"] + top_level) / traced_pass["wall"])
    return values


# -- environment ------------------------------------------------------------------


def environment(cpus: set) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "child_env": CHILD_ENV,
        "load": "closed loop, 1 client, 2 warm-up requests discarded",
        "calibration": {"units_per_request": CAL_UNITS, "unit_ref_s": CAL_UNIT_REF_S},
    }


# -- the run ----------------------------------------------------------------------


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, requests: list, goldens, seconds: float,
            traced_run: bool) -> tuple[dict, list]:
    """Warm up, then measure for `seconds`; returns (metrics, pass records).

    Each turn of the loop runs SETUP_REPS trivial requests (untraced runs
    only) and one pass.  Every time measured in a turn is scaled by
    CAL_UNIT_REF_S / (the turn's mean calibration unit time).
    """
    trivial_request = {"argv": workloads.TRIVIAL, "expect": {"kind": "field"}}
    passes = []
    for _ in range(WARMUP_REPS):
        res = runner.request(workloads.TRIVIAL)
        why = judge(trivial_request, res, None)
        passes.append({"kind": "warm-up", "wall": res["wall"],
                       "failures": [f"warm-up: {why}"] if why else []})
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    last = 0.0  # real time of the last turn
    while True:
        now = time.perf_counter()
        enough = bool(plain and traced) if traced_run else len(plain) >= MIN_PASSES
        if enough and now - start + last / 2 > seconds:  # ends nearest to S
            break
        if now + last > runner.deadline:
            break
        trivial = []
        if not traced_run:  # spread over the run, so one slow moment cannot set it
            for _ in range(SETUP_REPS):
                res = runner.request(workloads.TRIVIAL)
                why = judge(trivial_request, res, None)
                trivial.append(res)
                passes.append({"kind": "setup", "wall": res["wall"],
                               "failures": [f"setup: {why}"] if why else []})
        use_trace = traced_run and len(traced) < len(plain)
        rec = run_pass(runner, requests, goldens, traced=use_trace)
        rec["kind"] = "traced" if use_trace else "measured"
        cal_s = rec["cal_s"] + sum(r["cal_s"] for r in trivial)
        cal_units = CAL_UNITS * (len(requests) + len(trivial))
        rec["scale"] = CAL_UNIT_REF_S * cal_units / cal_s if cal_s > 0 else 1.0
        setup += [(r["wall"], rec["scale"]) for r in trivial]
        (traced if use_trace else plain).append(rec)
        passes.append(rec)
        last = time.perf_counter() - now
    if not plain or (traced_run and not traced):
        passes.append({"kind": "limit", "wall": 0.0,
                       "failures": ["run time limit reached before a measured pass"]})
    if not traced_run:
        walls = [w for p in plain for w in p["request_walls"]]
        raw = {
            "wall_s": median([p["wall"] for p in plain]),
            "req_p50_s": median(walls),
            "setup_s": median([w for w, _ in setup]),
            "cpu_s": median([p["cpu"] for p in plain]),
        }
        metrics = {
            "wall_s": median([p["wall"] * p["scale"] for p in plain]),
            "req_p50_s": median([w * p["scale"] for p in plain
                                 for w in p["request_walls"]]),
            "setup_s": median([w * scale for w, scale in setup]),
            "cpu_s": median([p["cpu"] * p["scale"] for p in plain]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        }
        metrics["_samples"] = {"req_p50_s": len(walls), "passes": len(plain),
                               "setup_s": len(setup),
                               "scale": median([p["scale"] for p in plain]),
                               "raw": raw}
        return metrics, passes
    per_pass = [layer_values(p) for p in traced]
    metrics = {m: median([v[m] for v in per_pass]) for m in PER_LAYER}
    metrics["trace.overhead_s"] = (median([p["wall"] for p in traced])
                                   - median([p["wall"] for p in plain]))
    metrics["_samples"] = {"traced_passes": len(traced), "passes": len(plain)}
    return metrics, passes


def record_golden(deadline: float) -> int:
    """Write golden.json: output digests of every workload at GOLDEN_SEED."""
    digests = {}
    for name in workloads.WORKLOADS:
        requests = workloads.build(name, GOLDEN_SEED, WORK / name, ROOT / "src")
        digests[name] = []
        with Runner(deadline) as runner:
            results = [runner.request(req["argv"]) for req in requests]
        for req, res in zip(requests, results):
            why = judge(req, res, None)
            if why:
                print(f"{' '.join(req['argv'])}: {why}", file=sys.stderr)
                return 1
            digests[name].append(check.digest(res["out"]))
    check.GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "digests": digests},
                                       indent=1) + "\n")
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 env: dict) -> dict:
    """One run of one workload; prints its summary and returns its result."""
    requests = workloads.build(name, seed, WORK / name, ROOT / "src")
    golden = check.load_golden()
    goldens = golden["digests"][name] if golden.get("seed") == seed else None
    with Runner(time.perf_counter() + RUN_LIMIT_S) as runner:
        metrics, passes = measure(runner, requests, goldens, seconds, bool(trace))
    samples = metrics.pop("_samples")
    failures = [f for p in passes for f in p["failures"]]
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record = {"workload": name, "seed": seed, "trace": trace, "env": env,
              "requests": [r["argv"] for r in requests], "samples": samples,
              "passes": passes, "result": result}
    out_path = WORK / f"run-{name}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {name}: {len(requests)} requests per pass, "
          f"samples {json.dumps(samples)}, "
          f"error_rate {len(failures) / runner.attempted:.4f} "
          f"({len(failures)} of {runner.attempted} requests)")
    if trace and not 0.9 <= metrics["trace.accounted_share"] <= 1.1:
        print(f"warning: spans plus imports cover "
              f"{metrics['trace.accounted_share']:.1%} of the traced wall time",
              file=sys.stderr)
    for m, unit in units.items():
        print(f"  {m:34s} {metrics[m]:.6g} {unit}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "gfwigner" / "cli.py").is_file():
        print(f"error: no gfwigner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    if args.record_golden:
        return record_golden(time.perf_counter() + RUN_LIMIT_S)
    if args.workload is None:
        parser.error("--workload is required")

    # One CPU for the launcher, its calibration loop and every request, so the
    # loop sees the speed the requests see.  The program runs single-threaded
    # here anyway (one BLAS thread).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    env = environment(cpus)
    print("env: " + json.dumps(env))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, env)
        print(json.dumps(result))
        return 0
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, env)
               for name in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
