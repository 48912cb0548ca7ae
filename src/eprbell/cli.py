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
import math
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


def _write_fields(fields: dict, as_json: bool = False) -> None:
    """One result as `name=value` lines (a tuple field gives comma-separated
    cells) or, with ``as_json``, as one JSON line; the report codec writes every cell."""
    if as_json:
        table = report_mod.Table(columns=tuple(fields), rows=(tuple(fields.values()),))
        _emit(report_mod.table_to_jsonl(table), None)
        return
    for name, value in fields.items():
        cells = report_mod.column_text(name, value if isinstance(value, tuple) else (value,))
        print(f"{name}=" + ",".join(cells))


def _j_grid(j_min: float, j_max: float, count: int) -> np.ndarray:
    """The J grid of bell-scan and fig2: count uniform values on [j_min, j_max]."""
    if count < 1 or not 0.0 <= j_min <= j_max < math.inf:
        raise ValueError(f"J grid needs 0 <= j-min <= j-max < inf and points >= 1, got {j_min}, {j_max}, {count}")
    return np.linspace(j_min, j_max, count)


def _cmd_fidelity(args) -> int:
    _write_fields(dataclasses.asdict(fidelity(_state(args))), args.json)
    return 0


def _cmd_criteria(args) -> int:
    rep = classify(_state(args), mu=args.mu)
    if args.json:
        _write_fields(dataclasses.asdict(rep), as_json=True)
    else:
        row = tuple(getattr(rep, name) for name in CRITERIA_CSV_COLUMNS)
        _emit(report_mod.table_to_csv(report_mod.Table(columns=CRITERIA_CSV_COLUMNS, rows=(row,))), None)
    return 0


def _cmd_bell_scan(args) -> int:
    state = _state(args)
    grid = _j_grid(args.j_min, args.j_max, args.points)
    table = report_mod.Table(columns=("J", "B"), rows=tuple(zip(grid.tolist(), b_of_j(state, grid).tolist())))
    _emit(report_mod.table_to_csv(table), None)
    return 0


def _cmd_bell_max(args) -> int:
    _write_fields(dataclasses.asdict(maximize_b(_state(args))))
    return 0


def _cmd_chsh(args) -> int:
    _write_fields(dataclasses.asdict(optimize_scaled_chsh(args.visibility, theta=args.theta)))
    return 0


def _cmd_oracle(args) -> int:
    state = _state(args)
    estimate = mc_fidelity(state, OracleConfig(samples=args.samples, seed=args.seed))
    analytic = fidelity(state).fidelity
    error = abs(estimate.fidelity_hat - analytic)
    band = 3.0 * estimate.std_error
    ok = error <= band
    _write_fields({**dataclasses.asdict(estimate), "analytic_fidelity": analytic, "abs_error": error, "band_3se": band})
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
    """The figure config: defaults, then the --config file, then the flags.

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
    for key, flag in (("nbar", "nbar"), ("j_max", "j_max"), ("j_count", "j_points")):
        if getattr(args, flag, None) is not None:
            config[key] = getattr(args, flag)
    return config


def _cmd_sweep(args) -> int:
    """fig1, fig3 or fig4, named by the subcommand, over the configured r grid."""
    config = _fig_config(args)
    grid = {"eta_list": config["eta_list"], "nbar": config["nbar"]}
    if "r_list" in config:
        spec = report_mod.SweepSpec(r_grid=config["r_list"], **grid)
    elif config.keys() & {"r_min", "r_max", "r_count"}:
        r = dict(zip(("r_min", "r_max", "r_count"), report_mod.DEFAULT_R_RANGES[args.command]), **config)
        spec = report_mod.SweepSpec.from_range(r["r_min"], r["r_max"], r["r_count"], **grid)
    else:
        spec = getattr(report_mod, f"default_{args.command}_spec")(**grid)
    _emit(report_mod.table_to_csv(getattr(report_mod, args.command)(spec)), args.out)
    return 0


def _cmd_fig2(args) -> int:
    config = _fig_config(args)
    j = dict(zip(("j_min", "j_max", "j_count"), report_mod.DEFAULT_FIG2_J), **config)
    j_grid = _j_grid(j["j_min"], j["j_max"], j["j_count"])
    r_list = config.get("r_list", report_mod.DEFAULT_FIG2_R)
    table = report_mod.fig2_stacked(r_list, config["eta_list"], j_grid, config["nbar"])
    _emit(report_mod.table_to_csv(table), args.out)
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

    for name, func in (("fig1", _cmd_sweep), ("fig2", _cmd_fig2), ("fig3", _cmd_sweep), ("fig4", _cmd_sweep)):
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
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
