#!/usr/bin/env python3
"""Benchmark of eprbell: one command, three workloads, verified outputs.

    python3 perfbench/run.py --workload {figures,queries,oracle} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports eprbell from ./src and
writes only to a temporary directory under ./.perfbench_tmp, removed at
exit, and, for traced runs, to ./.perfbench_out.  With --trace 0 it measures the end-to-end metrics with
nothing wrapped; with --trace 1 it measures the per-layer metrics (see
trace.py).  Every op's output is verified against references computed in
reference.py; a benchmark-owned self-check then feeds wrong variants of
real outputs to the same verifier and fails the run if any passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give every metric by
name with its unit, the tail percentile, the known defects and the
machine.  README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {"figures": workloads.Figures, "queries": workloads.Queries, "oracle": workloads.Oracle}
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
ITEMS = {"figures": "grid states", "queries": "queries",
         "oracle": f"samples of the {workloads.LARGE_N:.0e}-sample calls"}
SETUP_REPEATS = 5
TAIL_BEYOND = 10
TAIL_WINDOW = 128


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the ready time and exit")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EPRBELL_WORKERS", None)  # sweeps take the default single-process path
    return env


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        info[pkg] = metadata.version(pkg)
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(caches.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return info


def _timed(fn, i: int):
    """(seconds, result) of fn(i); an exception raised by the program under
    test is the op's result, to be judged a failure."""
    t0 = time.perf_counter()
    try:
        res = fn(i)
    except Exception as exc:
        res = exc
    return time.perf_counter() - t0, res


def _judge(wl, i, res, outcomes: Counter, failures: list) -> int:
    """Record the outcome of op i; returns its items (0 when it failed)."""
    if isinstance(res, Exception):
        outcome = f"fail: raised {type(res).__name__}: {res}"
    else:
        outcome = wl.check(i, res)
    outcomes[outcome.split(":")[0]] += 1
    if outcome.startswith("fail") and len(failures) < 5:
        failures.append(f"op {i}: {outcome}")
    return 0 if outcome.startswith("fail") else wl.items(i, res)


def measure(wl, seconds: float):
    """Closed loop over ops 0, 1, ...: time wl.op(i), then verify it untimed.

    Ops start until `seconds` of op time have been spent; the op in flight
    then completes.
    """
    records, outcomes, failures = [], Counter(), []
    busy, i = 0.0, 0
    while True:
        dt, res = _timed(wl.op, i)
        records.append((i, dt, _judge(wl, i, res, outcomes, failures)))
        busy += dt
        i += 1
        if busy >= seconds:
            return records, outcomes, failures


def measure_pairs(wl, tracer, seconds: float):
    """Each op twice in a row, in process: once unwrapped, once traced.

    Running the pair back to back gives both halves the same machine
    state, and alternating which half goes first cancels the advantage of
    going second, so the time difference is the tracing overhead.
    Returns (untraced seconds, traced seconds) per op.
    """
    pairs, outcomes, failures = [], Counter(), []
    busy, i = 0.0, 0
    while True:
        dts = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.recording, tracer.op_id = True, i
            dts[traced], res = _timed(wl.inproc_op, i)
            tracer.recording = False
            tracer.uninstall()
            _judge(wl, i, res, outcomes, failures)
        dts = (dts[False], dts[True])
        pairs.append(dts)
        busy += sum(dts)
        i += 1
        if busy >= seconds:
            return pairs, outcomes, failures


def tail(latencies_ms: list[float]) -> tuple[float, dict]:
    """The highest percentile with at least TAIL_BEYOND ops beyond it.

    It is taken in each window of TAIL_WINDOW consecutive ops (a shorter
    last window joins the one before it) and the median over the windows
    is reported, so that one burst of machine noise moves one window, not
    the run.  With TAIL_BEYOND ops or fewer it is the slowest op.
    """
    n = len(latencies_ms)
    count = max(1, n // TAIL_WINDOW)
    bounds = [n * k // count for k in range(count + 1)]
    values, percentiles = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        window = sorted(latencies_ms[lo:hi])
        k = len(window) - 1 - (TAIL_BEYOND if len(window) > TAIL_BEYOND else 0)
        values.append(window[k])
        percentiles.append(100.0 * (k + 1) / len(window))
    detail = {"percentile": statistics.median(percentiles), "beyond": TAIL_BEYOND if n > TAIL_BEYOND else 0,
              "window_ops": bounds[1], "windows": count, "samples": n}
    return statistics.median(values), detail


def setup_time(args) -> list[float]:
    """Seconds from spawning a fresh driver to its first op being ready
    (import, input generation, one warm-up op), SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=170,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        times.append(float(lines[1]) - t0)
    return times


def check_import() -> None:
    """The package under test must come from this checkout's src/."""
    module = sys.modules.get("eprbell")
    if module is not None and not Path(module.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"eprbell imported from {module.__file__}, not from {SRC}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: dict) -> None:
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_untraced(args, tmpdir: str) -> int:
    setups = setup_time(args)
    wl = WORKLOADS[args.workload](args.seed, tmpdir, child_env(), str(ROOT))
    wl.setup()
    check_import()
    wl.warmup()
    records, outcomes, failures = measure(wl, args.seconds)
    problems = wl.selfcheck()
    lat_ms = [dt * 1e3 for _, dt, _ in records]
    tail_ms, tail_detail = tail(lat_ms)
    usage = resource.RUSAGE_CHILDREN if args.workload == "queries" else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": wl.items_per_s(records),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted = len(records)
    notes = {
        "workload": {"name": args.workload, "seed": args.seed, "seconds": args.seconds, "ops": attempted,
                     "items": ITEMS[args.workload]},
        "op_tail": tail_detail,
        "setup_runs_s": setups,
        "outcomes": dict(outcomes),
        "error_rate": (outcomes["fail"] + outcomes["known_defect"]) / attempted,
        "failures": failures,
        "selfcheck_problems": problems,
        "machine": machine(),
    }
    if args.workload == "oracle":
        notes["oracle_bytes_per_call_computed"] = {
            f"{n:.0e}": 64 * n for n in (workloads.SMALL_N, workloads.LARGE_N)}
        notes["oracle_bytes_per_sample_measured"] = wl.bytes_per_sample
    if outcomes["known_defect"]:
        notes["known_defects"] = ("make_state OverflowError traceback and exit 1 for r above "
                                  f"the overflow edge 2r > 709.78: {outcomes['known_defect']} ops")
    emit(outcomes["fail"] == 0 and not problems, attempted, outcomes["fail"], metrics, notes)
    return 0


def run_traced(args, tmpdir: str) -> int:
    import tracing  # imports numpy; untraced runs leave that to the workload

    tracer = tracing.Tracer()
    tracer.install(only=("scipy.special",))  # before eprbell is imported
    wl = WORKLOADS[args.workload](args.seed, tmpdir, child_env(), str(ROOT), span=tracer.span)
    wl.setup()
    if args.workload == "queries":
        wl.setup_inprocess()
    check_import()
    wl.warmup()
    tracer.uninstall()
    pairs, outcomes, failures = measure_pairs(wl, tracer, args.seconds)
    probe = tracing.cli_probe(tracer, args.seed, tmpdir, first_op=len(pairs))
    outcomes += Counter(o.split(":")[0] for o in probe["outcomes"])
    failures = (failures + [o for o in probe["outcomes"] if o.startswith("fail")])[:5]
    problems = wl.selfcheck()
    attempted = sum(outcomes.values())
    t_untraced = sum(p[0] for p in pairs)
    t_traced = sum(p[1] for p in pairs)
    extra = {
        **probe["metrics"],
        **tracing.startup_probes(child_env(), ROOT),
        "oracle.rng_draw_ms": tracer.rng_draw_ms(),
        "oracle.bytes_per_sample": getattr(wl, "bytes_per_sample", 0.0),
        "error_rate": (outcomes["fail"] + outcomes["known_defect"]) / attempted,
        "known_defects": outcomes["known_defect"],
        "trace.overhead_pct": 100.0 * (t_traced - t_untraced) / t_untraced,
    }
    values = tracing.per_layer(tracer, extra)
    units = dict(tracing.PER_LAYER)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-{args.seed}.npz"
    tracer.save(str(span_file))
    notes = {
        "workload": {"name": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "op_pairs": len(pairs), "traced_seconds": t_traced, "untraced_seconds": t_untraced},
        "spans": {"count": len(tracer.start), "file": str(span_file.relative_to(ROOT))},
        "absent": sorted(tracer.absent),
        "outcomes": dict(outcomes),
        "failures": failures,
        "selfcheck_problems": problems,
        "machine": machine(),
    }
    emit(outcomes["fail"] == 0 and not problems, attempted, outcomes["fail"], metrics, notes)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eprbell" / "__init__.py").is_file():
        print(f"error: {SRC / 'eprbell'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.pop("EPRBELL_WORKERS", None)
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmpdir:
        if args.setup_probe:
            wl = WORKLOADS[args.workload](args.seed, tmpdir, child_env(), str(ROOT))
            wl.setup()
            wl.warmup()
            print("READY", repr(time.monotonic()))
            return 0
        return run_traced(args, tmpdir) if args.trace else run_untraced(args, tmpdir)


if __name__ == "__main__":
    sys.exit(main())
