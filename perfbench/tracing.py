"""Per-layer measurement for traced runs (--trace 1).

The tracer wraps eprbell's public functions at each module boundary from
outside the package: every module-level name bound to a target function
is rebound to a wrapper, and uninstall() puts the originals back, so the
untraced half of a traced run executes the unmodified program.  Spans
(name, start, end, parent, op id, work) are kept in memory, written out
when the run ends, and reduced to busy and self time per layer.

scipy.special.ndtri is wrapped in scipy.special itself, before eprbell is
first imported, so the wrapper is picked up however eprbell imports it.

The CLI layer is measured by probes that do not depend on the workload:
interpreter start-up, import times from `python -X importtime`, and
in-process cli.main() calls over two rounds of the query mix plus each
figure subcommand on a small grid.  Since every traced run includes these
probes, every layer below the CLI is exercised in every traced run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

import reference as ref
from workloads import QUERY_KINDS, make_query, run_cli_inprocess

TARGETS = (
    ("scipy.special", "ndtri", "oracle.ndtri"),
    ("eprbell.epr_model", "make_state", "epr_model.make_state"),
    ("eprbell.teleport", "fidelity", "teleport.fidelity"),
    ("eprbell.criteria", "classify", "criteria.classify"),
    ("eprbell.bell", "b_of_j", "bell.b_of_j"),
    ("eprbell.bell", "maximize_b", "bell.maximize_b"),
    ("eprbell.oracle", "sample_epr", "oracle.sample_epr"),
    ("eprbell.oracle", "mc_fidelity", "oracle.mc_fidelity"),
    ("eprbell.report", "fig1", "report.fig1"),
    ("eprbell.report", "fig2", "report.fig2"),
    ("eprbell.report", "fig3", "report.fig3"),
    ("eprbell.report", "fig4", "report.fig4"),
    ("eprbell.report", "table_to_csv", "report.table_to_csv"),
    ("eprbell.report", "table_to_jsonl", "report.table_to_jsonl"),
    ("eprbell.cli", "main", "cli.main"),
)

CLI_SUBCOMMANDS = ("fidelity", "criteria", "bell-max", "bell-scan", "chsh", "oracle",
                   "fig1", "fig2", "fig3", "fig4")

# (name, unit) of every per-layer metric, in output order.
PER_LAYER = (
    ("bell.maximize_b.calls", "count"),
    ("bell.maximize_b.busy_ms", "ms"),
    ("bell.maximize_b.self_ms", "ms"),
    ("bell.b_of_j.calls", "count"),
    ("bell.b_of_j.points", "count"),
    ("bell.points_per_max", "count"),
    ("epr_model.make_state.calls", "count"),
    ("epr_model.make_state.busy_ms", "ms"),
    ("teleport.fidelity.busy_ms", "ms"),
    ("criteria.classify.busy_ms", "ms"),
    ("report.fig1.self_ms", "ms"),
    ("report.fig2.self_ms", "ms"),
    ("report.fig3.self_ms", "ms"),
    ("report.fig4.self_ms", "ms"),
    ("report.states", "count"),
    ("report.rows", "count"),
    ("report.table_to_csv.busy_ms", "ms"),
    ("report.table_to_jsonl.busy_ms", "ms"),
    ("report.bytes_out", "B"),
    ("report.write_ms", "ms"),
    ("oracle.mc_fidelity.busy_ms", "ms"),
    ("oracle.sample_epr.busy_ms", "ms"),
    ("oracle.reduce_ms", "ms"),
    ("oracle.ndtri.busy_ms", "ms"),
    ("oracle.rng_draw_ms", "ms"),
    ("oracle.samples", "count"),
    ("oracle.bytes_per_sample", "B"),
    ("oracle.max_abs_z", "sigma"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.import_scipy_ms", "ms"),
    ("cli.import_eprbell_ms", "ms"),
    ("cli.compute_ms", "ms"),
    *((f"cli.compute_ms.{sub}", "ms") for sub in CLI_SUBCOMMANDS),
    ("cli.exit2", "count"),
    ("cli.tracebacks", "count"),
    ("error_rate", "ratio"),
    ("known_defects", "count"),
    ("trace.overhead_pct", "%"),
)


def _points(args, kwargs, result) -> float:
    return float(np.size(args[1] if len(args) > 1 else kwargs["j"]))


def _rows(args, kwargs, result) -> float:
    return float(len(result.rows))


def _bytes(args, kwargs, result) -> float:
    return float(len(result.encode()))


WORK = {
    "bell.b_of_j": _points,
    "report.fig1": _rows, "report.fig2": _rows, "report.fig3": _rows, "report.fig4": _rows,
    "report.table_to_csv": _bytes, "report.table_to_jsonl": _bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid, self.parent, self.op = array("i"), array("q"), array("q")
        self.start, self.end, self.work = array("d"), array("d"), array("d")
        self._stack: list[int] = []
        self._patched: list = []
        self.op_id = -1
        self.recording = False
        self.absent: set[str] = set()
        self.oracle_calls: list = []  # (params, config, estimate) of each traced call

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, fn, name: str):
        nid, work = self.name_id(name), WORK.get(name)
        is_oracle = name == "oracle.mc_fidelity"

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            elif is_oracle:
                state = args[0] if args else kwargs["state"]
                config = args[1] if len(args) > 1 else kwargs["config"]
                self.work[idx] = float(config.samples)
                self.oracle_calls.append((state.params, config, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Rebind every alias of each target function to a wrapper."""
        for module_name, attr, name in TARGETS:
            if only is not None and module_name not in only:
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrapper(original, name)
            holders = [module] + [m for key, m in list(sys.modules.items())
                                  if key == "eprbell" or key.startswith("eprbell.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def totals(self) -> dict:
        """calls, busy_ms, self_ms and work summed per span name, plus the
        nesting-derived counts (points under maximize_b, states under fig*)."""
        n = len(self.start)
        nid = np.frombuffer(self.nid, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        work = np.array(self.work)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child[:n]
        out = {}
        for k, name in enumerate(self.names):
            mask = nid == k
            out[name] = {"calls": int(mask.sum()), "busy_ms": float(dur[mask].sum() * 1e3),
                         "self_ms": float(self_t[mask].sum() * 1e3), "work": float(work[mask].sum())}
        sentinel = np.where(has_parent, parent, n)
        parent_nid = np.append(nid, -1)[sentinel]
        out["points_in_max"] = float(work[(nid == self.name_id("bell.b_of_j"))
                                          & (parent_nid == self.name_id("bell.maximize_b"))].sum())
        is_fig = np.isin(nid, [self.name_id(f"report.fig{k}") for k in range(1, 5)])
        under = is_fig
        while True:
            grown = is_fig | np.append(under, False)[sentinel]
            if np.array_equal(grown, under):
                break
            under = grown
        out["states_in_report"] = int(((nid == self.name_id("epr_model.make_state")) & under).sum())
        return out

    def rng_draw_ms(self) -> float:
        """Replay of the documented draw, rng.integers(0, 2**53, (4, N), uint64),
        for the seed and N of every traced mc_fidelity call."""
        total = 0.0
        for _, config, _ in self.oracle_calls:
            rng = np.random.default_rng(config.seed)
            t0 = time.perf_counter()
            rng.integers(0, 1 << 53, size=(4, config.samples), dtype=np.uint64)
            total += time.perf_counter() - t0
        return total * 1e3

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.array(self.nid, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64), op=np.array(self.op, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end), work=np.array(self.work))


# --------------------------------------------------------------------------
# CLI probes


def _wall_ms(argv, env, cwd) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    return (time.perf_counter() - t0) * 1e3, proc.stderr


def parse_importtime(text: str) -> dict[str, float]:
    """numpy, scipy and eprbell import times (ms) from `-X importtime` output.

    Each package counts the cumulative time of its outermost entries, and
    what scipy pulls in of numpy counts as scipy.  eprbell's own time
    excludes the numpy and scipy imports nested in it.
    """
    entries = []  # (name, depth, cumulative_us), in the post-order Python prints
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((name.strip(), depth, int(cumulative)))
    parent = [-1] * len(entries)
    stack: list[int] = []
    for i in reversed(range(len(entries))):
        while stack and entries[stack[-1]][1] >= entries[i][1]:
            stack.pop()
        parent[i] = stack[-1] if stack else -1
        stack.append(i)

    def package(i):
        return entries[i][0].split(".")[0]

    def ancestors(i):
        while parent[i] >= 0:
            i = parent[i]
            yield i

    third_party = ("numpy", "scipy")
    us = {"numpy": 0, "scipy": 0, "eprbell": 0}
    for i in range(len(entries)):
        pkg, above = package(i), {package(a) for a in ancestors(i)}
        if pkg == "eprbell" and "eprbell" not in above:
            us[pkg] += entries[i][2]
        elif pkg in third_party and not above.intersection(third_party):
            us[pkg] += entries[i][2]
            if "eprbell" in above:
                us["eprbell"] -= entries[i][2]
    return {pkg: value / 1e3 for pkg, value in us.items()}


def startup_probes(env, cwd, repeats: int = 5) -> dict[str, float]:
    interp = [_wall_ms([sys.executable, "-c", "pass"], env, cwd)[0] for _ in range(repeats)]
    imports = [parse_importtime(_wall_ms(
        [sys.executable, "-X", "importtime", "-m", "eprbell.cli", "fidelity", "--r=0.3", "--eta=0.9"],
        env, cwd)[1]) for _ in range(3)]
    out = {"cli.interpreter_ms": statistics.median(interp)}
    for pkg in ("numpy", "scipy", "eprbell"):
        out[f"cli.import_{pkg}_ms"] = statistics.median(i[pkg] for i in imports)
    return out


def _probe_commands(seed: int, tmpdir: str) -> list[dict]:
    """Two rounds of the query mix, then each figure subcommand on a small grid."""
    commands = [make_query(seed, i) for i in range(2 * len(QUERY_KINDS))]
    grid = {"r_list": [0.0, 0.5, 1.0], "eta_list": [0.9, 0.7], "nbar": 0.1}
    fig2 = {"r_list": [0.5, 1.0], "eta_list": [0.9], "j_max": 1.0, "j_count": 11}
    for name in ("fig1", "fig2", "fig3", "fig4"):
        config = os.path.join(tmpdir, f"probe_{name}.json")
        with open(config, "w") as fh:
            json.dump(fig2 if name == "fig2" else grid, fh)
        out = os.path.join(tmpdir, f"probe_{name}.csv")
        commands.append({"kind": name, "argv": [name, f"--config={config}", f"--out={out}"],
                         "out": out, "grid": fig2 if name == "fig2" else grid})
    return commands


def _check_probe_figure(cmd, report, span) -> str:
    with open(cmd["out"]) as fh:
        table = report.table_from_csv(fh.read())
    g = cmd["grid"]
    if cmd["kind"] == "fig2":
        j_grid = ref.linspace(0.0, g["j_max"], g["j_count"])
        problems = ref.verify_fig2_stacked(table, g["r_list"], g["eta_list"], j_grid)
    else:
        verify = {"fig1": ref.verify_fig1, "fig3": ref.verify_fig3, "fig4": ref.verify_fig4}[cmd["kind"]]
        problems = verify(table, g["r_list"], g["eta_list"], g["nbar"])
    text = report.table_to_jsonl(table)
    with span("report.write"):
        with open(cmd["out"] + ".jsonl", "w", newline="\n") as fh:
            fh.write(text)
    if not problems and not ref.same_rows(report.table_from_jsonl(text), table):
        problems = ["JSONL round-trip"]
    return "ok" if not problems else f"fail: {cmd['kind']}: {problems[0]}"


def cli_probe(tracer: Tracer, seed: int, tmpdir: str, first_op: int) -> dict:
    """cli.main() in process: three untraced timings per command, then one
    traced call whose output is verified.  Returns metrics and outcomes."""
    cli = importlib.import_module("eprbell.cli")
    report = importlib.import_module("eprbell.report")
    commands = _probe_commands(seed, tmpdir)
    tracer.uninstall()
    tracer.recording = False
    times: dict[str, list[float]] = {}
    for _ in range(3):
        for cmd in commands:
            t0 = time.perf_counter()
            run_cli_inprocess(cli.main, cmd["argv"])
            if cmd["kind"] in CLI_SUBCOMMANDS:  # rejected inputs are not timed
                times.setdefault(cmd["kind"], []).append((time.perf_counter() - t0) * 1e3)
    tracer.install()
    tracer.recording = True
    outcomes, exit2, tracebacks = [], 0, 0
    for k, cmd in enumerate(commands):
        tracer.op_id = first_op + k
        rc, out, err = run_cli_inprocess(cli.main, cmd["argv"])
        exit2 += rc == 2
        tracebacks += "Traceback" in err
        if cmd["kind"].startswith("fig"):
            outcome = f"fail: exit {rc}" if rc else _check_probe_figure(cmd, report, tracer.span)
        else:
            outcome = ref.classify_query(cmd, rc, out, err)
        outcomes.append(outcome)
    tracer.recording = False
    tracer.uninstall()
    metrics = {f"cli.compute_ms.{sub}": statistics.median(times[sub]) for sub in CLI_SUBCOMMANDS}
    metrics["cli.compute_ms"] = statistics.median(
        t for sub in CLI_SUBCOMMANDS if not sub.startswith("fig") for t in times[sub])
    metrics["cli.exit2"] = float(exit2)
    metrics["cli.tracebacks"] = float(tracebacks)
    return {"metrics": metrics, "outcomes": outcomes}


def per_layer(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the spans plus the probe and run figures in extra."""
    t = tracer.totals()

    def get(name, field):
        return t.get(name, {}).get(field, 0.0)

    max_calls = get("bell.maximize_b", "calls")
    z = [abs(ref.z_score(p.r, p.eta, p.nbar, c.samples, e.fidelity_hat)) for p, c, e in tracer.oracle_calls]
    values = {
        "bell.maximize_b.calls": max_calls,
        "bell.maximize_b.busy_ms": get("bell.maximize_b", "busy_ms"),
        "bell.maximize_b.self_ms": get("bell.maximize_b", "self_ms"),
        "bell.b_of_j.calls": get("bell.b_of_j", "calls"),
        "bell.b_of_j.points": get("bell.b_of_j", "work"),
        "bell.points_per_max": t["points_in_max"] / max_calls if max_calls else 0.0,
        "epr_model.make_state.calls": get("epr_model.make_state", "calls"),
        "epr_model.make_state.busy_ms": get("epr_model.make_state", "busy_ms"),
        "teleport.fidelity.busy_ms": get("teleport.fidelity", "busy_ms"),
        "criteria.classify.busy_ms": get("criteria.classify", "busy_ms"),
        **{f"report.fig{k}.self_ms": get(f"report.fig{k}", "self_ms") for k in range(1, 5)},
        "report.states": t["states_in_report"],
        "report.rows": sum(get(f"report.fig{k}", "work") for k in range(1, 5)),
        "report.table_to_csv.busy_ms": get("report.table_to_csv", "busy_ms"),
        "report.table_to_jsonl.busy_ms": get("report.table_to_jsonl", "busy_ms"),
        "report.bytes_out": get("report.table_to_csv", "work") + get("report.table_to_jsonl", "work"),
        "report.write_ms": get("report.write", "busy_ms"),
        "oracle.mc_fidelity.busy_ms": get("oracle.mc_fidelity", "busy_ms"),
        "oracle.sample_epr.busy_ms": get("oracle.sample_epr", "busy_ms"),
        "oracle.reduce_ms": get("oracle.mc_fidelity", "busy_ms") - get("oracle.sample_epr", "busy_ms"),
        "oracle.ndtri.busy_ms": get("oracle.ndtri", "busy_ms"),
        "oracle.samples": get("oracle.mc_fidelity", "work"),
        "oracle.max_abs_z": max(z, default=0.0),
    }
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
