"""The three benchmark workloads: figures, queries and oracle.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  Inputs come from the workload seed only.
A workload object offers

    setup()          import the program and generate the inputs
    warmup()         one untimed op (smaller for figures, see below)
    op(i)            the timed op number i; returns its raw result
    inproc_op(i)     the same op run inside this process (traced runs)
    check(i, res)    "ok", "known_defect" or "fail: <reason>"; never timed
    items(i, res)    the work op i did, in the unit of items_per_s
    items_per_s(records) from (i, seconds, items) records; failed ops count 0 items
    selfcheck()      feed wrong variants of real results to check()

eprbell is imported in setup(), never at module level, so that a traced
run can wrap scipy.special.ndtri before the package is first imported.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
import types

import reference as ref


def run_cli_inprocess(main, argv) -> tuple[int, str, str]:
    """Run eprbell.cli.main(argv) with stdout and stderr captured.

    An exception that escapes main() is reported the way the interpreter
    reports it: a traceback on stderr and exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the program under test is a result here
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def total_rate(records) -> float:
    """Items per second over all ops of the run."""
    return sum(n for _, _, n in records) / sum(dt for _, dt, _ in records)


def _random_state(rng: random.Random) -> tuple[float, float, float]:
    """(r, eta, nbar) over the range of the paper's figures, with eta = 1
    and nbar = 0 drawn often enough to exercise their special cases."""
    r = rng.uniform(0.0, 3.0)
    eta = 1.0 if rng.random() < 0.125 else rng.uniform(0.3, 1.0)
    nbar = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
    return r, eta, nbar


# --------------------------------------------------------------------------
# figures


class Figures:
    """Regenerate the four default figure datasets plus one seeded nbar > 0
    fig3+fig4 sweep per pass, and write every table as CSV and JSONL.

    An op is one full pass.  Its warm-up is a pass over a tiny grid: a full
    pass takes tens of seconds while the Bell maximiser is a numerical
    search, and set-up is repeated several times per run.
    """

    name = "figures"

    def __init__(self, seed: int, tmpdir: str, env: dict, root: str, span=contextlib.nullcontext):
        self.seed, self.tmpdir, self.span = seed, tmpdir, span
        self.last_tables = None

    def setup(self) -> None:
        self.report = importlib.import_module("eprbell.report")
        rng = random.Random(f"figures:{self.seed}")
        self.extra_etas = tuple(rng.uniform(0.5, 0.99) for _ in range(2))
        self.extra_nbar = rng.uniform(0.05, 0.5)
        self.extra_r = ref.linspace(0.0, 3.0, 40)

    def _jobs(self, tiny: bool):
        """(name, build, verify) for every table of one pass."""
        rp = self.report
        if tiny:
            r1, etas, nbar = (0.0, 0.5, 1.0), (0.9, 0.7), 0.1
            spec = rp.SweepSpec(r_grid=r1, eta_list=etas, nbar=nbar)
            f2_r, f2_etas, f2_j = (0.5,), (0.9,), ref.linspace(0.0, 1.0, 5)
            return [
                ("fig1", lambda: rp.fig1(spec), lambda t: ref.verify_fig1(t, r1, etas, nbar)),
                ("fig2", lambda: self._stacked_fig2(f2_r, f2_etas, f2_j),
                 lambda t: ref.verify_fig2_stacked(t, f2_r, f2_etas, f2_j)),
                ("fig3", lambda: rp.fig3(spec), lambda t: ref.verify_fig3(t, r1, etas, nbar)),
                ("fig4", lambda: rp.fig4(spec), lambda t: ref.verify_fig4(t, r1, etas, nbar)),
            ]
        extra = rp.SweepSpec(r_grid=tuple(self.extra_r), eta_list=self.extra_etas, nbar=self.extra_nbar)
        xr, xe, xn = self.extra_r, self.extra_etas, self.extra_nbar
        return [
            ("fig1", lambda: rp.fig1(rp.default_fig1_spec()),
             lambda t: ref.verify_fig1(t, ref.fig1_grid(), ref.ETAS, 0.0)),
            ("fig2", lambda: self._stacked_fig2(rp.DEFAULT_FIG2_R, rp.DEFAULT_ETAS, rp.default_fig2_j_grid()),
             lambda t: ref.verify_fig2_stacked(t, ref.FIG2_R, ref.ETAS, ref.fig2_j_grid())),
            ("fig3", lambda: rp.fig3(rp.default_fig3_spec()),
             lambda t: ref.verify_fig3(t, ref.fig3_grid(), ref.ETAS, 0.0)),
            ("fig4", lambda: rp.fig4(rp.default_fig4_spec()),
             lambda t: ref.verify_fig4(t, ref.fig4_grid(), ref.ETAS, 0.0)),
            ("fig3_nbar", lambda: rp.fig3(extra), lambda t: ref.verify_fig3(t, xr, xe, xn)),
            ("fig4_nbar", lambda: rp.fig4(extra), lambda t: ref.verify_fig4(t, xr, xe, xn)),
        ]

    def _stacked_fig2(self, r_list, etas, j_grid):
        rows = []
        for eta in sorted(etas, reverse=True):
            rows.extend((eta,) + row for row in self.report.fig2(r_list, eta, j_grid).rows)
        return self.report.Table(columns=("eta", "r", "J", "B"), rows=tuple(rows))

    def _pass(self, tiny: bool) -> dict:
        tables = {}
        for name, build, _ in self._jobs(tiny):
            table = build()
            csv_text = self.report.table_to_csv(table)
            jsonl_text = self.report.table_to_jsonl(table)
            with self.span("report.write"):
                for ext, text in (("csv", csv_text), ("jsonl", jsonl_text)):
                    with open(os.path.join(self.tmpdir, f"{name}.{ext}"), "w", newline="\n") as fh:
                        fh.write(text)
            tables[name] = table
        return tables

    def warmup(self) -> None:
        outcome = self._check_tables(self._pass(tiny=True), tiny=True)
        if outcome != "ok":
            raise RuntimeError(f"figures warm-up: {outcome}")

    def op(self, i: int) -> dict:
        return self._pass(tiny=False)

    inproc_op = op

    def _check_tables(self, tables: dict, tiny: bool) -> str:
        rp = self.report
        for name, _, verify in self._jobs(tiny):
            table = tables.get(name)
            if table is None:
                return f"fail: {name} missing"
            problems = verify(table)
            if problems:
                return f"fail: {name}: {problems[0]}"
            for ext, parse in (("csv", rp.table_from_csv), ("jsonl", rp.table_from_jsonl)):
                with open(os.path.join(self.tmpdir, f"{name}.{ext}")) as fh:
                    if not ref.same_rows(parse(fh.read()), table):
                        return f"fail: {name}.{ext} does not round-trip"
        return "ok"

    def check(self, i: int, tables: dict) -> str:
        self.last_tables = tables
        return self._check_tables(tables, tiny=False)

    @staticmethod
    def items(i: int, tables: dict) -> int:
        """Grid states evaluated in one pass (fig2: one state per (eta, r) curve)."""
        fig2_states = len({(row[0], row[1]) for row in tables["fig2"].rows})
        return fig2_states + sum(len(t.rows) for name, t in tables.items() if name != "fig2")

    items_per_s = staticmethod(total_rate)

    def selfcheck(self) -> list[str]:
        """A perturbed value, a swapped row pair and a flipped flag in real
        tables from this run must each be judged a failure."""
        if self.last_tables is None:
            return ["no verified pass to perturb"]
        rp, problems = self.report, []
        fig4 = self.last_tables["fig4"]
        rows = list(fig4.rows)
        cases = {
            "value": rows[:3] + [rows[3][:6] + (rows[3][6] * (1.0 + 1e-6),) + rows[3][7:]] + rows[4:],
            "order": [rows[1], rows[0]] + rows[2:],
            "flag": rows[:3] + [rows[3][:7] + (not rows[3][7],) + rows[3][8:]] + rows[4:],
        }
        for what, bad_rows in cases.items():
            bad = rp.Table(columns=fig4.columns, rows=tuple(bad_rows))
            if not ref.verify_fig4(bad, ref.fig4_grid(), ref.ETAS, 0.0):
                problems.append(f"figures self-check: perturbed {what} passed verification")
        return problems


# --------------------------------------------------------------------------
# queries

QUERY_KINDS = (
    "fidelity", "fidelity-json", "criteria", "criteria-mu", "criteria-json", "criteria-json-mu",
    "bell-max", "bell-scan", "chsh", "oracle", "invalid-eta", "invalid-r", "overflow",
)


def make_query(seed: int, i: int) -> dict:
    """Query i of the seeded mix.

    Queries come in rounds of one of each QUERY_KINDS entry, shuffled per
    round, so every run sends the same mix of subcommands; only the order
    and the arguments depend on the seed.  Two of the thirteen must be
    rejected with exit 2 (eta > 1, r < 0), and one sits above the overflow
    edge 2r > 709.78.
    """
    rnd, pos = divmod(i, len(QUERY_KINDS))
    kind = random.Random(f"queries:{seed}:round:{rnd}").sample(QUERY_KINDS, len(QUERY_KINDS))[pos]
    rng = random.Random(f"queries:{seed}:{i}")
    r, eta, nbar = _random_state(rng)
    base = kind.split("-")[0] if kind.startswith(("fidelity", "criteria", "invalid")) else kind
    q = {"kind": base, "json": "json" in kind, "r": r, "eta": eta, "nbar": nbar, "mu": None}
    state = [f"--r={r!r}", f"--eta={eta!r}", f"--nbar={nbar!r}"]
    if base == "fidelity":
        argv = ["fidelity", *state]
    elif base == "criteria":
        argv = ["criteria", *state]
        if kind.endswith("-mu"):
            q["mu"] = rng.uniform(0.0, 1.5)
            argv.append(f"--mu={q['mu']!r}")
    elif kind == "bell-max":
        argv = ["bell-max", *state]
    elif kind == "bell-scan":
        q.update(j_min=0.0, j_max=rng.uniform(0.5, 2.0), points=rng.randint(5, 40))
        argv = ["bell-scan", *state, "--j-min=0.0", f"--j-max={q['j_max']!r}", f"--points={q['points']}"]
    elif kind == "chsh":
        q.update(visibility=rng.random(), theta=rng.uniform(-math.pi, math.pi))
        argv = ["chsh", f"--visibility={q['visibility']!r}", f"--theta={q['theta']!r}"]
    elif kind == "oracle":
        q.update(samples=10_000, seed=rng.randrange(2**32))
        argv = ["oracle", *state, "--samples=10000", f"--seed={q['seed']}"]
    elif kind == "invalid-eta":
        state[1] = f"--eta={1.0 + rng.uniform(0.01, 1.0)!r}"
        argv = [rng.choice(("fidelity", "criteria", "bell-max")), *state]
    elif kind == "invalid-r":
        state[0] = f"--r={-rng.uniform(0.01, 3.0)!r}"
        argv = [rng.choice(("fidelity", "criteria", "bell-max")), *state]
    else:  # overflow
        q.update(r=rng.uniform(ref.OVERFLOW_R + 0.01, 400.0), json=rng.random() < 0.5)
        argv = ["fidelity", f"--r={q['r']!r}", *state[1:]] + (["--json"] if q["json"] else [])
    if q["json"] and base != "overflow":
        argv.append("--json")
    q["argv"] = argv
    return q


class Queries:
    """One `python -m eprbell.cli` subprocess per op, one at a time."""

    name = "queries"

    def __init__(self, seed: int, tmpdir: str, env: dict, root: str, span=contextlib.nullcontext):
        self.seed, self.env, self.root = seed, env, root
        self.cli = None
        self.queries: dict[int, dict] = {}
        self.samples: dict = {}

    def setup(self) -> None:
        """Queries are generated on first use; make_query() costs microseconds."""

    def query(self, i: int) -> dict:
        if i not in self.queries:
            self.queries[i] = make_query(self.seed, i)
        return self.queries[i]

    def setup_inprocess(self) -> None:
        self.cli = importlib.import_module("eprbell.cli")

    def warmup(self) -> None:
        q = self.query(0)
        outcome = ref.classify_query(q, *self.op(0))
        if outcome.startswith("fail"):
            raise RuntimeError(f"queries warm-up: {outcome}")

    def op(self, i: int) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "eprbell.cli", *self.query(i)["argv"]],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def inproc_op(self, i: int) -> tuple[int, str, str]:
        return run_cli_inprocess(self.cli.main, self.query(i)["argv"])

    def check(self, i: int, res) -> str:
        q = self.query(i)
        outcome = ref.classify_query(q, *res)
        label = q["kind"] + ("-json" if q["json"] else "")
        if outcome in ("ok", "known_defect") and label not in self.samples:
            self.samples[label] = (q, res)
        return outcome

    @staticmethod
    def items(i: int, res) -> int:
        return 1

    items_per_s = staticmethod(total_rate)

    def selfcheck(self) -> list[str]:
        """Every wrong variant of a real result from this run must be judged a failure."""
        problems = []
        for label, (q, res) in sorted(self.samples.items()):
            for what, rc, out, err in ref.perturbations(*res):
                if not ref.classify_query(q, rc, out, err).startswith("fail"):
                    problems.append(f"queries self-check: {label} with a wrong {what} passed")
        if not self.samples:
            problems.append("queries self-check: no result to perturb")
        return problems


# --------------------------------------------------------------------------
# oracle

SMALL_N = 100_000
LARGE_N = 10_000_000
BLOCK = 128  # small calls between two large ones
POOL = 64  # distinct small (state, seed) keys; repeats test bit-identity


class Oracle:
    """In-process mc_fidelity calls over seeded states and seeds.

    Op 0 and every (BLOCK+1)-th op after it draw 1e7 samples (about 1 GB,
    beyond the last-level cache); the rest draw 1e5 samples (a few MB).
    op_p50_ms follows the small calls; items_per_s (samples/s of the large
    calls) and peak_rss_mb follow the large ones.
    """

    name = "oracle"

    def __init__(self, seed: int, tmpdir: str, env: dict, root: str, span=contextlib.nullcontext):
        self.seed = seed
        self.seen: dict = {}
        self.bytes_per_sample = 0.0
        self.last_i = None

    def setup(self) -> None:
        self.oracle = importlib.import_module("eprbell.oracle")
        eprbell = importlib.import_module("eprbell")
        rng = random.Random(f"oracle:{self.seed}")

        def keys(count, samples):
            out = []
            for _ in range(count):
                r, eta, nbar = _random_state(rng)
                state = eprbell.make_state(eprbell.EprParams(r=r, eta=eta, nbar=nbar))
                config = eprbell.OracleConfig(samples=samples, seed=rng.randrange(2**64))
                out.append(((r, eta, nbar), state, config))
            return out

        self.small = keys(POOL, SMALL_N)
        self.large = keys(2, LARGE_N)
        self.order = [rng.randrange(POOL) for _ in range(1 << 16)]

    def key(self, i: int):
        block, pos = divmod(i, BLOCK + 1)
        if pos == 0:
            return ("large", block % 2), self.large[block % 2]
        k = self.order[(i - block - 1) % len(self.order)]
        return ("small", k), self.small[k]

    def warmup(self) -> None:
        _, (params, state, config) = self.key(1)
        est = self.oracle.mc_fidelity(state, config)
        problems = ref.verify_estimate(*params, config.samples, est.fidelity_hat,
                                       est.std_error, est.duan_sum_hat)
        if problems:
            raise RuntimeError(f"oracle warm-up: {problems[0]}")

    def op(self, i: int):
        name, (_, state, config) = self.key(i)
        if name[0] == "small" or self.bytes_per_sample:
            return self.oracle.mc_fidelity(state, config)
        # The first large call of the process sets the RSS high-water mark.
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        est = self.oracle.mc_fidelity(state, config)
        rise_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        self.bytes_per_sample = rise_kib * 1024.0 / config.samples
        return est

    inproc_op = op

    def check(self, i: int, est) -> str:
        name, (params, _, config) = self.key(i)
        got = (est.fidelity_hat, est.std_error, est.duan_sum_hat)
        problems = ref.verify_estimate(*params, config.samples, *got)
        if self.seen.setdefault(name, got) != got:
            problems.append(f"{name} repeated with a different estimate")
        self.last_i = i
        return "ok" if not problems else "fail: " + problems[0]

    def items(self, i: int, est) -> int:
        return self.key(i)[1][2].samples

    @staticmethod
    def items_per_s(records) -> float:
        """Samples/s of the large calls, the median over the run."""
        rates = [n / dt for _, dt, n in records if n == LARGE_N]
        return statistics.median(rates) if rates else 0.0

    def selfcheck(self) -> list[str]:
        """An estimate 6 SE from the truth and a one-ulp change on a repeat
        must each fail."""
        if self.last_i is None:
            return ["oracle self-check: no call to perturb"]
        name, (params, _, config) = self.key(self.last_i)
        f_hat, se, d_hat = self.seen[name]
        sm = ref.sigma_minus_sq(*params)
        problems = []
        shifted = 1.0 / (1.0 + sm) + 6.0 * ref.oracle_std_error(sm, config.samples)
        if not ref.verify_estimate(*params, config.samples, shifted, se, d_hat):
            problems.append("oracle self-check: estimate 6 SE off passed")
        repeat = types.SimpleNamespace(fidelity_hat=math.nextafter(f_hat, 2.0), std_error=se,
                                       duan_sum_hat=d_hat)
        if not self.check(self.last_i, repeat).startswith("fail"):
            problems.append("oracle self-check: a repeat one ulp off passed")
        return problems
