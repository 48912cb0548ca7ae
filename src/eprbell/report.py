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

Every quantity is a closed form of the variance pair (sp, sm), written
once for floats or arrays and shared with the scalar API (``fidelity``,
``maximize_b``, ...): each table is one call over the (eta, r) mesh, whose
values EprParams validates, with rows in (eta descending, r ascending)
order and Python float/bool cells.  Tables are written as CSV (header row,
17 significant digits, "inf" for unbounded values) or JSON lines by one
per-column codec, which the CLI's ``name=value`` lines share: a bool
column is true/false, any other column floats, and a column mixing bools
with numbers raises ValueError.  The readers apply the same rule to each
whole column: a CSV column reads as booleans only when every cell is
true/false, and its float cells must be spelled as the writers spell them
(a decimal or exponent number, inf, -inf or nan); JSONL takes NaN but not
Infinity, which the writers never write.  The codec formats each distinct
value of a column (by float64 bit pattern) once, and builds every JSONL
row from one template per table.
Readers and writers alike reject column names that would not read back:
repeated, empty, or holding a comma or line break.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .bell import _b, _bell_max, _displacements, _loss_bound
from .epr_model import EprParams, sigma_pair
from .teleport import _fidelity

__all__ = [
    "DEFAULT_ETAS",
    "DEFAULT_FIG2_R",
    "DEFAULT_R_RANGES",
    "DEFAULT_FIG2_J",
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
    "column_text",
    "table_to_csv",
    "table_from_csv",
    "table_to_jsonl",
    "table_from_jsonl",
]

DEFAULT_ETAS = (0.99, 0.90, 0.70, 0.50)
DEFAULT_FIG2_R = (0.1, math.log(2.0) / 2.0, 1.0, 2.0)
# (r_min, r_max, r_count) of each r-swept figure's default grid, and fig2's (j_min, j_max, j_count)
DEFAULT_R_RANGES = {"fig1": (0.0, 3.0, 200), "fig3": (0.0, 3.0, 200), "fig4": (0.0, 5.0, 400)}
DEFAULT_FIG2_J = (0.0, 2.0, 201)


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
        try:
            object.__setattr__(self, "r_grid", tuple(float(r) for r in self.r_grid))
            object.__setattr__(self, "eta_list", tuple(float(e) for e in self.eta_list))
            object.__setattr__(self, "nbar", float(self.nbar))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"r_grid, eta_list and nbar must hold real numbers, got {self!r}") from None
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
        if not isinstance(r_count, (int, np.integer)) or r_count < 1:
            raise ValueError(f"r_count must be an integer >= 1, got {r_count!r}")
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
    return SweepSpec.from_range(*DEFAULT_R_RANGES["fig1"], eta_list=eta_list, nbar=nbar)


def default_fig3_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """The fig1 grid plus 100 extra points on (0, 0.1] resolving small-r windows."""
    coarse = np.linspace(*DEFAULT_R_RANGES["fig3"])
    fine = np.linspace(0.001, 0.1, 100)
    grid = np.unique(np.concatenate([coarse, fine]))
    return SweepSpec(r_grid=tuple(grid), eta_list=eta_list, nbar=nbar)


def default_fig4_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """400 uniform squeezing values on [0, 5]."""
    return SweepSpec.from_range(*DEFAULT_R_RANGES["fig4"], eta_list=eta_list, nbar=nbar)


def default_fig2_j_grid() -> tuple[float, ...]:
    """201 uniform displacement values on [0, 2]; every default curve peaks
    well inside (the interior maximum sits below 0.35 * sigma_minus_sq)."""
    return tuple(np.linspace(*DEFAULT_FIG2_J))


def _mesh(spec: SweepSpec):
    """(r, eta, nbar) as flat arrays over the grid, eta descending then r ascending."""
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
    return _table(("r", "eta", "B_max"), r, eta, _bell_max(r, eta, *sigma_pair(r, eta, nbar))[1])


def fig4(spec: SweepSpec) -> Table:
    """Parametric fidelity/Bell trace: rows of BELL_SCAN_COLUMNS."""
    r, eta, nbar = _mesh(spec)
    sp, sm = sigma_pair(r, eta, nbar)  # sm is also the duan_sum column
    return _table(BELL_SCAN_COLUMNS, r, eta, nbar, _fidelity(sm), sm, *_bell_max(r, eta, sp, sm), _loss_bound(r, eta))


_BOOL_TEXT = ("false", "true")
# repr is json.dumps's text for a finite float; the non-finite reprs map to NaN (as json.dumps
# writes it) and to the strings "inf"/"-inf", since JSON has no infinity.
_JSON_NON_FINITE = {"nan": "NaN", "inf": '"inf"', "-inf": '"-inf"'}


def _bool_column(name: str, values) -> bool:
    """Whether every cell is a bool; a column mixing bools with other cells raises ValueError."""
    types = set(map(type, values))
    if bool in types and len(types) > 1:
        raise ValueError(f"column {name!r} mixes booleans with numbers")
    return bool in types


def column_text(name: str, values, json_form: bool = False) -> list[str]:
    """One column's cells as CSV (or JSON) text: bools as true/false, anything else as
    a float, '%.17g' in CSV and json.dumps's text in JSON.  Each distinct float, by bit
    pattern (so 0.0 and -0.0, and NaNs of different sign, stay apart), is formatted once
    and its text shared by every cell holding it.  Bools mixed with numbers raise
    ValueError, since the cells would not read back as they were written."""
    if _bool_column(name, values):
        return list(map(_BOOL_TEXT.__getitem__, values))
    floats = np.fromiter(map(float, values), float, len(values))
    bits, cell_index = np.unique(floats.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    if json_form:
        texts = list(map(repr, distinct))
        texts = list(map(_JSON_NON_FINITE.get, texts, texts))
    else:
        texts = list(map("%.17g".__mod__, distinct))
    return list(map(texts.__getitem__, cell_index.tolist()))


def _check_columns(columns) -> None:
    """Reject column names that do not read back in both formats."""
    for index, name in enumerate(columns):
        # a comma or line break would split the CSV header; an empty name leaves no header
        if name in columns[:index] or "," in name or name.splitlines() != [name]:
            raise ValueError(f"column name {name!r} is repeated, empty, or holds a comma or line break")


def _text_columns(table: Table, json_form: bool) -> list[list[str]]:
    """The cell texts of each column, after checking that the header and rows read back."""
    _check_columns(table.columns)
    if set(map(len, table.rows)) - {len(table.columns)}:
        raise ValueError(f"every row must have the {len(table.columns)} cells of the header")
    return [column_text(name, values, json_form) for name, values in zip(table.columns, zip(*table.rows))]


# A float cell as the writers spell it: a decimal or exponent number, inf, -inf or nan.
_CSV_FLOAT = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def _parse_column(name: str, texts) -> list:
    """One CSV column's cells by the writers' rule: booleans when every cell is
    true/false, else floats; a column mixing the two, or holding a float cell
    in another spelling than the writers' (such as '1_000', ' 2.5 ' or
    'Infinity', which float() would take), raises ValueError."""
    cells = [text == "true" if text in _BOOL_TEXT else text for text in texts]
    if _bool_column(name, cells):
        return cells
    if not all(map(_CSV_FLOAT.fullmatch, texts)):
        bad = next(text for text in texts if not _CSV_FLOAT.fullmatch(text))
        raise ValueError(f"column {name!r} holds {bad!r}, not a number, inf, -inf or nan")
    return list(map(float, texts))


def table_to_csv(table: Table) -> str:
    rows = map(",".join, zip(*_text_columns(table, json_form=False)))
    return "\n".join([",".join(table.columns), *rows]) + "\n"


def table_from_csv(text: str) -> Table:
    lines = [line.split(",") for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty CSV input")
    columns, rows = tuple(lines[0]), lines[1:]
    _check_columns(columns)
    for index, row in enumerate(rows, start=1):
        if len(row) != len(columns):
            raise ValueError(f"CSV row {index} has {len(row)} cells, header has {len(columns)}")
    return Table(columns=columns, rows=tuple(zip(*map(_parse_column, columns, zip(*rows)))))


def table_to_jsonl(table: Table) -> str:
    # One %-template per table; '%' in a key is escaped so only the cell slots substitute.
    template = "{" + ", ".join(json.dumps(name).replace("%", "%%") + ": %s" for name in table.columns) + "}"
    rows = zip(*_text_columns(table, json_form=True))
    return "\n".join(map(template.__mod__, rows)) + "\n"


def _json_cell(value):
    if isinstance(value, (bool, int, float)):
        return value
    if value in ("inf", "-inf"):
        return float(value)
    raise ValueError(f'JSONL cell {json.dumps(value)} is not a number, a boolean, "inf" or "-inf"')


def _json_column(name: str, values: list) -> list:
    """One JSONL column's cells: all bools, else each as _json_cell reads it."""
    if _bool_column(name, values) or {int, float}.issuperset(map(type, values)):
        return values
    return list(map(_json_cell, values))


def _json_object(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key, which the dict would hold once, raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _check_columns([name for name, _ in pairs])
    return obj


def _json_constant(token: str) -> float:
    """NaN, as json.dumps writes it; the writers spell infinity "inf"/"-inf", never Infinity."""
    if token != "NaN":
        raise ValueError(f'JSONL token {token} is not a number, a boolean, "inf" or "-inf"')
    return math.nan


# One decoder for every line: json.loads would build a new one per call when given a hook.
_JSONL_DECODER = json.JSONDecoder(object_pairs_hook=_json_object, parse_constant=_json_constant)


def table_from_jsonl(text: str) -> Table:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty JSONL input")
    objs = list(map(_JSONL_DECODER.decode, lines))
    for index, obj in enumerate(objs, start=1):
        if not isinstance(obj, dict):
            raise ValueError(f"JSONL line {index} is not an object")
        if obj.keys() != objs[0].keys():
            raise ValueError(f"JSONL object {index} does not have the keys {tuple(objs[0])}")
    columns = tuple(objs[0])
    _check_columns(columns)
    cells = ([obj[name] for obj in objs] for name in columns)
    return Table(columns=columns, rows=tuple(zip(*map(_json_column, columns, cells))))
