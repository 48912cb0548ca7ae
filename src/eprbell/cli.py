"""Command-line interface.

Exit codes: 0 on success, 2 on invalid arguments or configuration, and 1
when the ``oracle`` subcommand's statistical comparison fails its
3-standard-error band.

Figure subcommands read an optional JSON config whose keys mirror
:class:`eprbell.report.SweepSpec` (``r_list`` or ``r_min``/``r_max``/
``r_count``, ``eta_list``, ``nbar``; fig2 additionally
``j_min``/``j_max``/``j_count``); explicit command-line flags override
config values.  Any other key, and a value of the wrong JSON type, is
rejected with exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import report as report_mod
from .bell import b_of_j, maximize_b, optimize_scaled_chsh
from .criteria import CRITERIA_CSV_COLUMNS, classify
from .epr_model import EprParams, GaussianEprState, make_state
from .oracle import OracleConfig, mc_fidelity
from .teleport import fidelity

__all__ = ["main", "build_parser"]


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, required=True, help="squeezing parameter (>= 0)")
    parser.add_argument("--eta", type=float, required=True, help="transmission in [0, 1]")
    parser.add_argument("--nbar", type=float, default=0.0, help="ancilla thermal occupancy (default 0)")


def _state(args) -> GaussianEprState:
    return make_state(EprParams(r=args.r, eta=args.eta, nbar=args.nbar))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_fidelity(args) -> int:
    state = _state(args)
    result = fidelity(state)
    if args.json:
        print(json.dumps({
            "fidelity": result.fidelity,
            "beats_classical": result.beats_classical,
            "beats_two_thirds": result.beats_two_thirds,
        }))
    else:
        print(f"fidelity={result.fidelity:.17g}")
        print(f"beats_classical={str(result.beats_classical).lower()}")
        print(f"beats_two_thirds={str(result.beats_two_thirds).lower()}")
    return 0


def _cmd_criteria(args) -> int:
    state = _state(args)
    rep = classify(state, mu=args.mu)
    if args.json:
        columns = tuple(field.name for field in dataclasses.fields(rep))
        write = report_mod.table_to_jsonl
    else:
        columns, write = CRITERIA_CSV_COLUMNS, report_mod.table_to_csv
    table = report_mod.Table(columns=columns, rows=(tuple(getattr(rep, name) for name in columns),))
    _emit(write(table), None)
    return 0


def _cmd_bell_scan(args) -> int:
    state = _state(args)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not (0.0 <= args.j_min <= args.j_max):
        raise ValueError(f"need 0 <= j-min <= j-max, got {args.j_min}, {args.j_max}")
    grid = np.linspace(args.j_min, args.j_max, args.points)
    table = report_mod.Table(columns=("J", "B"), rows=tuple(zip(grid.tolist(), b_of_j(state, grid).tolist())))
    _emit(report_mod.table_to_csv(table), None)
    return 0


def _cmd_bell_max(args) -> int:
    state = _state(args)
    result = maximize_b(state)
    print(f"j_max={result.j_max:.17g}")
    print(f"b_max={result.b_max:.17g}")
    print(f"violates={str(result.violates).lower()}")
    return 0


def _cmd_chsh(args) -> int:
    result = optimize_scaled_chsh(args.visibility, theta=args.theta)
    print(f"visibility={result.visibility:.17g}")
    print(f"theta={result.theta:.17g}")
    print("angles=" + ",".join(format(a, ".17g") for a in result.angles))
    print(f"s_value={result.s_value:.17g}")
    print(f"m_scale={result.m_scale:.17g}")
    return 0


def _cmd_oracle(args) -> int:
    state = _state(args)
    config = OracleConfig(samples=args.samples, seed=args.seed)
    estimate = mc_fidelity(state, config)
    analytic = fidelity(state).fidelity
    error = abs(estimate.fidelity_hat - analytic)
    band = 3.0 * estimate.std_error
    ok = error <= band
    print(f"fidelity_hat={estimate.fidelity_hat:.17g}")
    print(f"std_error={estimate.std_error:.17g}")
    print(f"duan_sum_hat={estimate.duan_sum_hat:.17g}")
    print(f"analytic_fidelity={analytic:.17g}")
    print(f"abs_error={error:.17g}")
    print(f"band_3se={band:.17g}")
    print("result=" + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)  # OverflowError for an integer beyond the float range


def _count(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def _numbers(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise TypeError(value)
    return tuple(map(_number, value))


# One schema for all four figures, because one config file may serve them all;
# each figure reads the keys it uses (j_* for fig2 only, r_min/r_max/r_count
# for fig1/fig3/fig4 only).
_CONFIG_KEYS = {
    "r_list": (_numbers, "a list of numbers"),
    "r_min": (_number, "a number"),
    "r_max": (_number, "a number"),
    "r_count": (_count, "an integer"),
    "eta_list": (_numbers, "a list of numbers"),
    "nbar": (_number, "a number"),
    "j_min": (_number, "a number"),
    "j_max": (_number, "a number"),
    "j_count": (_count, "an integer"),
}


def _parse_etas(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _fig_config(args) -> dict:
    """The figure config: defaults, then the --config file, then --etas/--nbar.

    Every key of the file is checked against the schema, so a misspelt key or
    a value of the wrong JSON type is rejected, naming the key.  Numbers come
    back as floats and lists as tuples of floats.
    """
    config = {"eta_list": report_mod.DEFAULT_ETAS, "nbar": 0.0}
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config must be a JSON object, got {type(loaded).__name__}")
        for key, value in loaded.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}; allowed: {', '.join(_CONFIG_KEYS)}")
            convert, kind = _CONFIG_KEYS[key]
            try:
                config[key] = convert(value)
            except (TypeError, OverflowError):
                raise ValueError(f"config key {key!r} must be {kind}, got {json.dumps(value)}") from None
    if args.etas is not None:
        config["eta_list"] = _parse_etas(args.etas)
    if args.nbar is not None:
        config["nbar"] = args.nbar
    return config


def _sweep_spec(args, default_range: tuple[float, float, int], default_builder) -> report_mod.SweepSpec:
    config = _fig_config(args)
    eta_list, nbar = config["eta_list"], config["nbar"]
    if "r_list" in config:
        return report_mod.SweepSpec(r_grid=config["r_list"], eta_list=eta_list, nbar=nbar)
    if any(key in config for key in ("r_min", "r_max", "r_count")):
        r_min = config.get("r_min", default_range[0])
        r_max = config.get("r_max", default_range[1])
        r_count = config.get("r_count", default_range[2])
        return report_mod.SweepSpec.from_range(r_min, r_max, r_count, eta_list=eta_list, nbar=nbar)
    return default_builder(eta_list=eta_list, nbar=nbar)


def _cmd_fig1(args) -> int:
    spec = _sweep_spec(args, (0.0, 3.0, 200), report_mod.default_fig1_spec)
    _emit(report_mod.table_to_csv(report_mod.fig1(spec)), args.out)
    return 0


def _cmd_fig2(args) -> int:
    config = _fig_config(args)
    r_list = config.get("r_list", report_mod.DEFAULT_FIG2_R)
    j_min = config.get("j_min", 0.0)
    j_max = args.j_max if args.j_max is not None else config.get("j_max", 2.0)
    j_count = args.j_points if args.j_points is not None else config.get("j_count", 201)
    if j_count < 1 or not 0.0 <= j_min <= j_max:
        raise ValueError("fig2 J grid needs 0 <= j_min <= j_max and j_count >= 1")
    j_grid = tuple(np.linspace(j_min, j_max, j_count))
    table = report_mod.fig2_stacked(r_list, config["eta_list"], j_grid, config["nbar"])
    _emit(report_mod.table_to_csv(table), args.out)
    return 0


def _cmd_fig3(args) -> int:
    spec = _sweep_spec(args, (0.0, 3.0, 200), report_mod.default_fig3_spec)
    _emit(report_mod.table_to_csv(report_mod.fig3(spec)), args.out)
    return 0


def _cmd_fig4(args) -> int:
    spec = _sweep_spec(args, (0.0, 5.0, 400), report_mod.default_fig4_spec)
    _emit(report_mod.table_to_csv(report_mod.fig4(spec)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprbell",
        description="Lossy EPR states: teleportation fidelity, separability criteria, CHSH scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="teleportation fidelity of one state")
    _add_state_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("criteria", help="all boundary criteria for one state")
    _add_state_args(p)
    p.add_argument("--mu", type=float, default=None, help="estimator gain (default: optimal)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("bell-scan", help="B(J) over a displacement grid, CSV to stdout")
    _add_state_args(p)
    p.add_argument("--j-min", type=float, required=True)
    p.add_argument("--j-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(func=_cmd_bell_scan)

    p = sub.add_parser("bell-max", help="maximize B over the displacement")
    _add_state_args(p)
    p.set_defaults(func=_cmd_bell_max)

    p = sub.add_parser("chsh", help="optimal scaled-correlation CHSH value")
    p.add_argument("--visibility", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("oracle", help="Monte-Carlo fidelity vs the analytic value")
    _add_state_args(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    for name, func in (
        ("fig1", _cmd_fig1),
        ("fig2", _cmd_fig2),
        ("fig3", _cmd_fig3),
        ("fig4", _cmd_fig4),
    ):
        p = sub.add_parser(name, help=f"emit the {name} dataset as CSV")
        p.add_argument("--config", default=None, help="JSON config mirroring the sweep spec")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--nbar", type=float, default=None)
        p.add_argument("--etas", default=None, help="comma-separated transmission list")
        if name == "fig2":
            p.add_argument("--j-max", type=float, default=None)
            p.add_argument("--j-points", type=int, default=None)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
