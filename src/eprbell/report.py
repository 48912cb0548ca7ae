"""Parameter sweeps behind the four standard figure datasets, plus flat-file output.

The four datasets are:

* fig1 - teleportation fidelity versus squeezing, one curve per transmission;
* fig2 - the CHSH quantity B(J) versus displacement J for a handful of
  squeezing values at fixed transmission;
* fig3 - the J-maximized B versus squeezing, one curve per transmission,
  with a refinement grid at small squeezing where narrow violation
  windows live;
* fig4 - the parametric (fidelity, B_max) trace obtained by eliminating
  the squeezing parameter.

Tables are emitted as CSV (primary; header row, '.' decimal separator,
17 significant digits, "inf" for unbounded values) or JSON lines.  Every
quantity is a closed form of the state, so sweeps run in-process as plain
loops and always emit rows in (eta descending, r ascending) order.  The
EPRBELL_WORKERS environment variable (integer >= 1, default 1) is validated
on every sweep and is otherwise reserved for the Monte-Carlo oracle.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bell import b_of_j, loss_bound_ok, maximize_b
from .criteria import duan_sum
from .epr_model import EprParams, make_state
from .teleport import fidelity

__all__ = [
    "ENV_WORKERS",
    "DEFAULT_ETAS",
    "DEFAULT_FIG2_R",
    "SweepSpec",
    "BellScanRow",
    "Table",
    "fig1",
    "fig2",
    "fig2_stacked",
    "fig3",
    "fig4",
    "default_fig1_spec",
    "default_fig3_spec",
    "default_fig4_spec",
    "default_fig2_j_grid",
    "table_to_csv",
    "table_from_csv",
    "table_to_jsonl",
    "table_from_jsonl",
]

ENV_WORKERS = "EPRBELL_WORKERS"

DEFAULT_ETAS = (0.99, 0.90, 0.70, 0.50)
DEFAULT_FIG2_R = (0.1, math.log(2.0) / 2.0, 1.0, 2.0)


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for the figure sweeps.

    ``r_grid`` is the explicit tuple of squeezing values (use
    :meth:`from_range` for a uniform grid).
    """

    r_grid: tuple[float, ...]
    eta_list: tuple[float, ...] = DEFAULT_ETAS
    nbar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r_grid", tuple(float(r) for r in self.r_grid))
        object.__setattr__(self, "eta_list", tuple(float(e) for e in self.eta_list))
        object.__setattr__(self, "nbar", float(self.nbar))
        if not self.r_grid:
            raise ValueError("r_grid must be nonempty")
        if not self.eta_list:
            raise ValueError("eta_list must be nonempty")
        for r in self.r_grid:
            if not (math.isfinite(r) and r >= 0.0):
                raise ValueError(f"r grid values must be finite and >= 0, got {r}")
        for eta in self.eta_list:
            if not (math.isfinite(eta) and 0.0 <= eta <= 1.0):
                raise ValueError(f"eta values must be in [0, 1], got {eta}")
        if not (math.isfinite(self.nbar) and self.nbar >= 0.0):
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")

    @classmethod
    def from_range(cls, r_min: float, r_max: float, r_count: int, **kwargs) -> "SweepSpec":
        if r_count < 1:
            raise ValueError(f"r_count must be >= 1, got {r_count}")
        return cls(r_grid=tuple(np.linspace(r_min, r_max, r_count)), **kwargs)


@dataclass(frozen=True)
class BellScanRow:
    """One (r, eta) sweep sample with both fidelity and Bell diagnostics."""

    r: float
    eta: float
    nbar: float
    fidelity: float
    duan_sum: float
    j_max: float
    b_max: float
    violates: bool
    loss_bound_ok: bool


BELL_SCAN_COLUMNS = tuple(field.name for field in dataclasses.fields(BellScanRow))


@dataclass(frozen=True)
class Table:
    """A rectangular result set: column names plus tuples of cell values."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def default_fig1_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """200 uniform squeezing values on [0, 3]."""
    return SweepSpec.from_range(0.0, 3.0, 200, eta_list=eta_list, nbar=nbar)


def default_fig3_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """The fig1 grid plus 100 extra points on (0, 0.1] resolving small-r windows."""
    coarse = np.linspace(0.0, 3.0, 200)
    fine = np.linspace(0.001, 0.1, 100)
    grid = np.unique(np.concatenate([coarse, fine]))
    return SweepSpec(r_grid=tuple(grid), eta_list=eta_list, nbar=nbar)


def default_fig4_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """400 uniform squeezing values on [0, 5]."""
    return SweepSpec.from_range(0.0, 5.0, 400, eta_list=eta_list, nbar=nbar)


def default_fig2_j_grid() -> tuple[float, ...]:
    """201 uniform displacement values on [0, 2]; every default curve peaks
    well inside (the interior maximum sits below 0.35 * sigma_minus_sq)."""
    return tuple(np.linspace(0.0, 2.0, 201))


def _worker_count() -> int:
    raw = os.environ.get(ENV_WORKERS)
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_WORKERS} must be an integer >= 1, got {raw!r}") from None
    if count < 1:
        raise ValueError(f"{ENV_WORKERS} must be an integer >= 1, got {raw!r}")
    return count


def _ordered_grid(spec: SweepSpec) -> list[tuple]:
    _worker_count()  # reject a malformed EPRBELL_WORKERS on every sweep
    etas = sorted(spec.eta_list, reverse=True)
    rs = sorted(spec.r_grid)
    return [(r, eta, spec.nbar) for eta in etas for r in rs]


def fig1(spec: SweepSpec) -> Table:
    """Fidelity versus squeezing: rows (r, eta, F), eta descending then r ascending."""
    rows = [
        (r, eta, fidelity(make_state(EprParams(r=r, eta=eta, nbar=nbar))).fidelity)
        for r, eta, nbar in _ordered_grid(spec)
    ]
    return Table(columns=("r", "eta", "F"), rows=tuple(rows))


def fig2(r_list, eta: float, j_grid, nbar: float = 0.0) -> Table:
    """B(J) curves at fixed transmission: rows (r, J, B) for each requested r."""
    spec = SweepSpec(r_grid=tuple(r_list), eta_list=(eta,), nbar=nbar)  # reuse validation
    j_grid = tuple(float(j) for j in j_grid)
    if not j_grid:
        raise ValueError("j_grid must be nonempty")
    rows = []
    for r, eta, nbar in _ordered_grid(spec):
        values = b_of_j(make_state(EprParams(r=r, eta=eta, nbar=nbar)), np.asarray(j_grid))
        rows.extend((r, j, float(b)) for j, b in zip(j_grid, values))
    return Table(columns=("r", "J", "B"), rows=tuple(rows))


def fig2_stacked(r_list, eta_list, j_grid, nbar: float = 0.0) -> Table:
    """fig2 for several transmissions: rows (eta, r, J, B), eta descending."""
    if not eta_list:
        raise ValueError("eta_list must be nonempty")
    rows = []
    for eta in sorted(eta_list, reverse=True):
        rows.extend((eta,) + row for row in fig2(r_list, eta, j_grid, nbar).rows)
    return Table(columns=("eta", "r", "J", "B"), rows=tuple(rows))


def fig3(spec: SweepSpec) -> Table:
    """J-maximized B versus squeezing: rows (r, eta, B_max)."""
    rows = [
        (r, eta, maximize_b(make_state(EprParams(r=r, eta=eta, nbar=nbar))).b_max)
        for r, eta, nbar in _ordered_grid(spec)
    ]
    return Table(columns=("r", "eta", "B_max"), rows=tuple(rows))


def fig4(spec: SweepSpec) -> Table:
    """Parametric fidelity/Bell trace; full BellScanRow per grid point."""
    rows = []
    for r, eta, nbar in _ordered_grid(spec):
        params = EprParams(r=r, eta=eta, nbar=nbar)
        state = make_state(params)
        best = maximize_b(state)
        row = BellScanRow(
            r=r,
            eta=eta,
            nbar=nbar,
            fidelity=fidelity(state).fidelity,
            duan_sum=duan_sum(state),
            j_max=best.j_max,
            b_max=best.b_max,
            violates=best.violates,
            loss_bound_ok=loss_bound_ok(params),
        )
        rows.append(tuple(getattr(row, name) for name in BELL_SCAN_COLUMNS))
    return Table(columns=BELL_SCAN_COLUMNS, rows=tuple(rows))


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(float(value), ".17g")


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    return float(text)


def table_to_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_cell(value) for value in row))
    return "\n".join(lines) + "\n"


def table_from_csv(text: str) -> Table:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty CSV input")
    columns = tuple(lines[0].split(","))
    rows = []
    for index, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"CSV row {index} has {len(cells)} cells, header has {len(columns)}")
        rows.append(tuple(_parse_cell(cell) for cell in cells))
    return Table(columns=columns, rows=tuple(rows))


def _json_safe(value):
    if isinstance(value, bool):
        return value
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def table_to_jsonl(table: Table) -> str:
    lines = [
        json.dumps({name: _json_safe(value) for name, value in zip(table.columns, row)})
        for row in table.rows
    ]
    return "\n".join(lines) + "\n"


def table_from_jsonl(text: str) -> Table:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty JSONL input")
    objs = [json.loads(line) for line in lines]
    columns = tuple(objs[0].keys())
    for index, obj in enumerate(objs, start=1):
        if obj.keys() != objs[0].keys():
            raise ValueError(f"JSONL object {index} does not have the keys {columns}")
    rows = tuple(
        tuple(float(obj[name]) if obj[name] in ("inf", "-inf") else obj[name] for name in columns)
        for obj in objs
    )
    return Table(columns=columns, rows=rows)
