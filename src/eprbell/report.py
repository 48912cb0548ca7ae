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
once as a scalar ``math`` kernel that the scalar API (``fidelity``,
``maximize_b``, ...) calls too: each table maps those kernels over the
(eta, r) mesh, whose values EprParams validates, with rows in
(eta descending, r ascending) order and Python float/bool cells, so every
cell is exactly the scalar API's value for its state.  The grids are built
in plain Python, bit for bit as numpy.linspace builds them.  Tables are written as CSV
(header row, 17 significant digits, "inf" for unbounded values) or JSON
lines by one per-column codec, which the CLI's ``name=value`` lines share:
a bool column is true/false, any other column floats, and a column mixing
bools with numbers raises ValueError.  The readers apply the same rule to
each whole column: a CSV column reads as booleans only when every cell is
true/false, and its float cells must be spelled as the writers spell them
(a decimal or exponent number, inf, -inf or nan); JSONL takes NaN but not
Infinity, which the writers never write, and reads every number as a float.
Both reject a number spelled beyond the float range.  The codec formats each
distinct value of a mostly repeated column once, and builds every JSONL row
from one template per table.
Readers and writers alike reject column names that would not read back:
repeated, empty, or holding a comma or line break.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from functools import partial

from .bell import _b, _bell_max, _displacement, _loss_bound
from .epr_model import EprParams, _Checked, _count, _real, _reals, _shown, _sigma_pair
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


class SweepSpec(_Checked, namedtuple("SweepSpec", "r_grid eta_list nbar")):
    """Grid specification for the figure sweeps.

    ``r_grid`` is the explicit tuple of squeezing values (use
    :meth:`from_range` for a uniform grid).
    """

    __slots__ = ()

    def __new__(cls, r_grid, eta_list=DEFAULT_ETAS, nbar: float = 0.0):
        r_grid, eta_list = _nonempty("r_grid", r_grid), _nonempty("eta_list", eta_list)
        # EprParams, the one validator of the knobs, bounds r and eta each by an
        # interval, so the two extreme corners of the grid check every value in it.
        EprParams(min(r_grid), min(eta_list), nbar)
        return super().__new__(cls, r_grid, eta_list, EprParams(max(r_grid), max(eta_list), nbar).nbar)

    @classmethod
    def from_range(cls, r_min: float, r_max: float, r_count: int, **kwargs) -> "SweepSpec":
        return cls(r_grid=_linspace(r_min, r_max, r_count, "r"), **kwargs)


def _nonempty(name: str, values) -> tuple[float, ...]:
    """:func:`_reals` of a sequence that must hold at least one value."""
    values = _reals(name, values)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    return values


def _linspace(start, stop, count, axis: str) -> list[float]:
    """count uniform values from start to stop by numpy.linspace's float operations, in its
    order: k*step + start (k/div*delta + start where step underflows to 0), then stop."""
    start, stop = _real(f"{axis}_min", start), _real(f"{axis}_max", stop)
    count = _count(f"{axis}_count", count)
    try:  # one allocation, so a count beyond memory fails before any value is formed
        grid = [stop] * count
    except (MemoryError, OverflowError):
        raise ValueError(f"a grid of {_shown(count)} points does not fit in memory") from None
    delta, div = stop - start, max(count - 1, 1)
    step = delta / div
    for k in range(div):  # with count > 1 the last value stays stop
        grid[k] = k * step + start if step else k / div * delta + start
    return grid


# The fig4 columns: one (r, eta) sweep sample with fidelity and Bell diagnostics.
BELL_SCAN_COLUMNS = (
    "r", "eta", "nbar", "fidelity", "duan_sum", "j_max", "b_max", "violates", "loss_bound_ok",
)


class Table(namedtuple("Table", "columns rows")):
    """A rectangular result set: column names plus tuples of cell values."""

    __slots__ = ()


def default_fig1_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """200 uniform squeezing values on [0, 3]."""
    return SweepSpec.from_range(*DEFAULT_R_RANGES["fig1"], eta_list=eta_list, nbar=nbar)


def default_fig3_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """The fig1 grid plus 100 extra points on (0, 0.1] resolving small-r windows."""
    grid = {*_linspace(*DEFAULT_R_RANGES["fig3"], "r"), *_linspace(0.001, 0.1, 100, "r")}
    return SweepSpec(r_grid=sorted(grid), eta_list=eta_list, nbar=nbar)


def default_fig4_spec(eta_list=DEFAULT_ETAS, nbar: float = 0.0) -> SweepSpec:
    """400 uniform squeezing values on [0, 5]."""
    return SweepSpec.from_range(*DEFAULT_R_RANGES["fig4"], eta_list=eta_list, nbar=nbar)


def default_fig2_j_grid() -> tuple[float, ...]:
    """201 uniform displacement values on [0, 2]; every default curve peaks
    well inside (the interior maximum sits below 0.35 * sigma_minus_sq)."""
    return tuple(_linspace(*DEFAULT_FIG2_J, "j"))


def _mesh(spec: SweepSpec) -> list[tuple[float, float, float]]:
    """(r, eta, nbar) of every state of the grid, eta descending then r ascending."""
    return [(r, eta, spec.nbar) for eta in sorted(spec.eta_list, reverse=True) for r in sorted(spec.r_grid)]


def fig1(spec: SweepSpec) -> Table:
    """Fidelity versus squeezing: rows (r, eta, F), eta descending then r ascending."""
    rows = tuple((r, eta, _fidelity(_sigma_pair(r, eta, nbar)[1])) for r, eta, nbar in _mesh(spec))
    return Table(columns=("r", "eta", "F"), rows=rows)


def fig2(r_list, eta: float, j_grid, nbar: float = 0.0) -> Table:
    """B(J) curves at fixed transmission: rows (r, J, B) for each requested r."""
    table = fig2_stacked(r_list, (eta,), j_grid, nbar)
    return Table(columns=table.columns[1:], rows=tuple(row[1:] for row in table.rows))


def fig2_stacked(r_list, eta_list, j_grid, nbar: float = 0.0) -> Table:
    """fig2 for several transmissions: rows (eta, r, J, B), eta descending."""
    mesh = _mesh(SweepSpec(r_grid=r_list, eta_list=eta_list, nbar=nbar))
    j = tuple(map(_displacement, _nonempty("j_grid", j_grid)))
    rows = []
    for r, eta, nbar in mesh:
        b = partial(_b, *_sigma_pair(r, eta, nbar))
        rows.extend((eta, r, x, b(x)) for x in j)
    return Table(columns=("eta", "r", "J", "B"), rows=tuple(rows))


def fig3(spec: SweepSpec) -> Table:
    """J-maximized B versus squeezing: rows (r, eta, B_max)."""
    rows = tuple((r, eta, _bell_max(r, eta, *_sigma_pair(r, eta, nbar))[1]) for r, eta, nbar in _mesh(spec))
    return Table(columns=("r", "eta", "B_max"), rows=rows)


def _fig4_row(r: float, eta: float, nbar: float) -> tuple:
    sp, sm = _sigma_pair(r, eta, nbar)  # sm is also the duan_sum column
    return (r, eta, nbar, _fidelity(sm), sm, *_bell_max(r, eta, sp, sm), _loss_bound(r, eta))


def fig4(spec: SweepSpec) -> Table:
    """Parametric fidelity/Bell trace: rows of BELL_SCAN_COLUMNS."""
    return Table(columns=BELL_SCAN_COLUMNS, rows=tuple(_fig4_row(*state) for state in _mesh(spec)))


_BOOL_TEXT = ("false", "true")
# repr is json.dumps's text for a finite float; the non-finite reprs map to NaN (as json.dumps
# writes it) and to the strings "inf"/"-inf", since JSON has no infinity.
_JSON_NON_FINITE = {"nan": "NaN", "inf": '"inf"', "-inf": '"-inf"'}


def _json_text(value: float) -> str:
    text = repr(value)
    return _JSON_NON_FINITE.get(text, text)


def _column_types(name: str, values) -> set:
    """The types of a column's cells; a column mixing bools with other cells raises ValueError."""
    types = set(map(type, values))
    if bool in types and len(types) > 1:
        raise ValueError(f"column {name!r} mixes booleans with numbers")
    return types


def column_text(name: str, values, json_form: bool = False) -> list[str]:
    """One column's cells as CSV (or JSON) text: bools as true/false, real numbers as
    floats, '%.17g' in CSV and json.dumps's text in JSON.  A column whose cells are
    mostly repeated (fewer distinct values than half its cells) formats each distinct
    nonzero value once and shares its text; a zero is formatted per cell, since 0.0 and
    -0.0 are equal keys, and a NaN finds only its own entry, so each keeps its sign.
    Any other cell (None, text, an int beyond the float range) or bools mixed with
    numbers raise ValueError: they would not read back."""
    types = _column_types(name, values)
    if bool in types:
        return list(map(_BOOL_TEXT.__getitem__, values))
    try:
        if any(issubclass(t, (str, bytes)) for t in types):  # float() would parse "1.5"; no reader gives text
            raise TypeError("text is not a number")
        floats = list(map(float, values))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"column {name!r} holds a cell that is not a real number: {exc}") from None
    fmt = _json_text if json_form else "%.17g".__mod__
    distinct = set(floats)
    if len(distinct) * 2 > len(floats):  # mostly distinct: a lookup costs about as much as formatting
        return list(map(fmt, floats))
    texts = {x: fmt(x) for x in distinct if x}
    return [texts[x] if x in texts else fmt(x) for x in floats]


def _check_columns(columns) -> None:
    """Reject column names that do not read back in both formats."""
    for index, name in enumerate(columns):
        # a comma or line break would split the CSV header; an empty name leaves no header
        if name in columns[:index] or "," in name or name.splitlines() != [name]:
            raise ValueError(f"column name {name!r} is repeated, empty, or holds a comma or line break")


def _text_columns(table: Table, json_form: bool) -> list[list[str]]:
    """The cell texts of each column, after checking that the header and rows read back."""
    if not table.columns or json_form and not table.rows:  # JSONL has no header line to hold the names
        raise ValueError("a table needs a column, and in JSONL a row, or it would not read back")
    _check_columns(table.columns)
    if set(map(len, table.rows)) - {len(table.columns)}:
        raise ValueError(f"every row must have the {len(table.columns)} cells of the header")
    return [column_text(name, values, json_form) for name, values in zip(table.columns, zip(*table.rows))]


# A float cell as the writers spell it: a decimal or exponent number, inf, -inf or nan.
_CSV_FLOAT = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def _parse_column(name: str, texts) -> list:
    """One CSV column's cells by the writers' rule: booleans when every cell is
    true/false, else floats; a column mixing the two, holding a float cell in
    another spelling than the writers' (such as '1_000', ' 2.5 ' or 'Infinity',
    which float() would take) or one beyond the float range raises ValueError."""
    cells = [text == "true" if text in _BOOL_TEXT else text for text in texts]
    if bool in _column_types(name, cells):
        return cells
    if not all(map(_CSV_FLOAT.fullmatch, texts)):
        bad = next(text for text in texts if not _CSV_FLOAT.fullmatch(text))
        raise ValueError(f"column {name!r} holds {bad!r}, not a number, inf, -inf or nan")
    floats = list(map(float, texts))
    if floats.count(math.inf) + floats.count(-math.inf) > texts.count("inf") + texts.count("-inf"):
        raise ValueError(f"column {name!r} holds a number beyond the float range")
    return floats


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


def _json_cell(name: str, value) -> float:
    if value in ("inf", "-inf"):
        return float(value)
    if type(value) is not float:
        raise ValueError(f'JSONL cell {json.dumps(value)} is not a number, a boolean, "inf" or "-inf"')
    if abs(value) == math.inf:  # the decoder reads a number beyond the float range as an infinity
        raise ValueError(f"column {name!r} holds a number beyond the float range")
    return value


def _json_column(name: str, values: list) -> list:
    """One JSONL column's cells: all bools, else each as _json_cell reads it; the decoder reads numbers as floats."""
    types = _column_types(name, values)
    if bool in types or types == {float} and math.inf not in map(abs, values):
        return values
    return [_json_cell(name, value) for value in values]


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
_JSONL_DECODER = json.JSONDecoder(object_pairs_hook=_json_object, parse_constant=_json_constant, parse_int=float)


def table_from_jsonl(text: str) -> Table:
    lines = [line for line in text.splitlines() if line]
    if not lines:
        raise ValueError("empty JSONL input")
    objs = list(map(_JSONL_DECODER.decode, lines))
    for index, obj in enumerate(objs, start=1):
        if not isinstance(obj, dict) or not obj:  # an object with no keys gives a table the writers reject
            raise ValueError(f"JSONL line {index} is not an object with at least one key")
        if obj.keys() != objs[0].keys():
            raise ValueError(f"JSONL object {index} does not have the keys {tuple(objs[0])}")
    columns = tuple(objs[0])
    _check_columns(columns)
    cells = ([obj[name] for obj in objs] for name in columns)
    return Table(columns=columns, rows=tuple(zip(*map(_json_column, columns, cells))))
