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
quantity is a closed form of the variance pair (sp, sm), written once for
floats or arrays and shared with the scalar API (``fidelity``,
``maximize_b``, ...): each table is one call over the (eta, r) mesh, whose
values EprParams validates, with rows in (eta descending, r ascending)
order and Python float/bool cells.  The EPRBELL_WORKERS environment
variable (integer >= 1, default 1) is validated on every sweep and is
otherwise reserved for the Monte-Carlo oracle.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bell import _b, _bell_max, _displacements, _loss_bound
from .epr_model import EprParams, sigma_pair
from .teleport import _fidelity

__all__ = [
    "ENV_WORKERS",
    "DEFAULT_ETAS",
    "DEFAULT_FIG2_R",
    "SweepSpec",
    "BELL_SCAN_COLUMNS",
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
        # Every value goes through EprParams, the one validator of the knobs.
        for r in self.r_grid:
            EprParams(r, self.eta_list[0], self.nbar)
        for eta in self.eta_list:
            EprParams(self.r_grid[0], eta, self.nbar)

    @classmethod
    def from_range(cls, r_min: float, r_max: float, r_count: int, **kwargs) -> "SweepSpec":
        if r_count < 1:
            raise ValueError(f"r_count must be >= 1, got {r_count}")
        return cls(r_grid=tuple(np.linspace(r_min, r_max, r_count)), **kwargs)


# The fig4 columns: one (r, eta) sweep sample with fidelity and Bell diagnostics.
BELL_SCAN_COLUMNS = (
    "r", "eta", "nbar", "fidelity", "duan_sum", "j_max", "b_max", "violates", "loss_bound_ok",
)


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


def _mesh(spec: SweepSpec):
    """(r, eta, nbar) as flat arrays over the grid, eta descending then r ascending."""
    _worker_count()  # reject a malformed EPRBELL_WORKERS on every sweep
    eta, r = np.meshgrid(sorted(spec.eta_list, reverse=True), sorted(spec.r_grid), indexing="ij")
    return r.ravel(), eta.ravel(), np.full(r.size, spec.nbar)


def _table(columns, *cells) -> Table:
    """A Table whose column k holds cells[k], as Python floats and bools."""
    return Table(columns=columns, rows=tuple(zip(*(c.tolist() for c in cells))))


def fig1(spec: SweepSpec) -> Table:
    """Fidelity versus squeezing: rows (r, eta, F), eta descending then r ascending."""
    r, eta, nbar = _mesh(spec)
    return _table(("r", "eta", "F"), r, eta, _fidelity(sigma_pair(r, eta, nbar)[1]))


def fig2(r_list, eta: float, j_grid, nbar: float = 0.0) -> Table:
    """B(J) curves at fixed transmission: rows (r, J, B) for each requested r."""
    table = fig2_stacked(r_list, (eta,), j_grid, nbar)
    return Table(columns=table.columns[1:], rows=tuple(row[1:] for row in table.rows))


def fig2_stacked(r_list, eta_list, j_grid, nbar: float = 0.0) -> Table:
    """fig2 for several transmissions: rows (eta, r, J, B), eta descending."""
    r, eta, nbar = _mesh(SweepSpec(r_grid=r_list, eta_list=eta_list, nbar=nbar))
    j = _displacements(tuple(j_grid))
    if not j.size:
        raise ValueError("j_grid must be nonempty")
    sp, sm = sigma_pair(r, eta, nbar)
    b = _b(sp[:, None], sm[:, None], j)
    return _table(("eta", "r", "J", "B"), eta.repeat(j.size), r.repeat(j.size), np.tile(j, r.size), b.ravel())


def fig3(spec: SweepSpec) -> Table:
    """J-maximized B versus squeezing: rows (r, eta, B_max)."""
    r, eta, nbar = _mesh(spec)
    return _table(("r", "eta", "B_max"), r, eta, _bell_max(*sigma_pair(r, eta, nbar))[1])


def fig4(spec: SweepSpec) -> Table:
    """Parametric fidelity/Bell trace: rows of BELL_SCAN_COLUMNS."""
    r, eta, nbar = _mesh(spec)
    sp, sm = sigma_pair(r, eta, nbar)  # sm is also the duan_sum column
    return _table(BELL_SCAN_COLUMNS, r, eta, nbar, _fidelity(sm), sm, *_bell_max(sp, sm), _loss_bound(r, eta))


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


def _json_cell(value):
    if isinstance(value, (bool, int, float)):
        return value
    if value in ("inf", "-inf"):
        return float(value)
    raise ValueError(f'JSONL cell {json.dumps(value)} is not a number, a boolean, "inf" or "-inf"')


def table_from_jsonl(text: str) -> Table:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty JSONL input")
    objs = [json.loads(line) for line in lines]
    for index, obj in enumerate(objs, start=1):
        if not isinstance(obj, dict):
            raise ValueError(f"JSONL line {index} is not an object")
        if obj.keys() != objs[0].keys():
            raise ValueError(f"JSONL object {index} does not have the keys {tuple(objs[0])}")
    columns = tuple(objs[0])
    rows = tuple(tuple(_json_cell(obj[name]) for name in columns) for obj in objs)
    return Table(columns=columns, rows=rows)
