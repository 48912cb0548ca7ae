import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eprbell import (
    EprParams,
    SweepSpec,
    Table,
    duan_sum,
    fidelity,
    fig1,
    fig2,
    fig3,
    fig4,
    loss_bound_ok,
    make_state,
    maximize_b,
    table_from_csv,
    table_from_jsonl,
    table_to_csv,
    table_to_jsonl,
)
import eprbell
from eprbell.report import (
    DEFAULT_ETAS,
    DEFAULT_FIG2_J,
    DEFAULT_FIG2_R,
    DEFAULT_R_RANGES,
    _linspace,
    default_fig1_spec,
    default_fig2_j_grid,
    default_fig3_spec,
    default_fig4_spec,
    fig2_stacked,
)

LN2_HALF = math.log(2.0) / 2.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(r_grid=())
    with pytest.raises(ValueError):
        SweepSpec(r_grid=(0.5,), eta_list=())
    with pytest.raises(ValueError):
        SweepSpec(r_grid=(-0.5,))
    with pytest.raises(ValueError):
        SweepSpec(r_grid=(0.5,), eta_list=(1.2,))
    with pytest.raises(ValueError):
        SweepSpec(r_grid=(0.5,), nbar=-1.0)
    with pytest.raises(ValueError, match="overflow"):
        SweepSpec(r_grid=(400.0,))  # beyond the overflow edge of EprParams
    for count in (0, True):  # a bool count is rejected, as the CLI's config schema and OracleConfig do
        with pytest.raises(ValueError, match="r_count"):
            SweepSpec.from_range(0.0, 1.0, count)


R_EDGE = math.log(sys.float_info.max) / 2.0


@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "name, bad",
    [("r_grid", math.nan), ("r_grid", math.inf), ("r_grid", -0.5), ("r_grid", math.nextafter(R_EDGE, math.inf)),
     ("eta_list", math.nan), ("eta_list", -math.inf), ("eta_list", -0.1), ("eta_list", 1.1)],
    ids=["r-nan", "r-inf", "r-negative", "r-over-edge", "eta-nan", "eta-minus-inf", "eta-negative", "eta-above-1"],
)
def test_spec_rejects_a_bad_value_anywhere_in_its_grid(name, bad, where):
    # SweepSpec checks the grid's extreme corners through EprParams; a bad value in
    # the middle of a grid, a NaN too, must still raise.
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    grid[where] = bad
    with pytest.raises(ValueError):
        SweepSpec(**{"r_grid": (0.3,), "eta_list": (0.9,), name: tuple(grid)})


def test_spec_from_range():
    spec = SweepSpec.from_range(0.0, 3.0, 4, eta_list=(0.9,))
    assert spec.r_grid == (0.0, 1.0, 2.0, 3.0)


def _linspace_corpus():
    """(start, stop, count) of the default grids and of seeded random grids, with the
    edges of numpy.linspace's float path: one point, start = stop, a descending grid,
    -0.0, a step that underflows to 0 and a numpy integer count."""
    cases = [*DEFAULT_R_RANGES.values(), DEFAULT_FIG2_J, (0.001, 0.1, 100)]
    cases += [(0.0, 1.0, 1), (-0.0, -0.0, 1), (-0.0, 2.0, 1), (1.5, 1.5, 6), (3.0, -2.0, 9), (-0.0, 1.0, 5),
              (0.0, -0.0, 4), (0.0, 5e-324, 3), (-0.0, 1e-320, 1000), (2.5, 2.5, 1), (0.0, 1.0, np.int64(5))]
    rng = random.Random(24)
    for _ in range(2000):
        start, stop = rng.choice([
            (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)),
            (rng.uniform(0.0, 400.0),) * 2,
            (rng.choice([0.0, -0.0, 5e-324, -5e-324]), rng.choice([0.0, -0.0, 5e-324, 1e-310, -1e-315])),
        ])
        cases.append((start, stop, rng.choice([1, 2, 3, rng.randrange(1, 1000)])))
    return cases


def test_linspace_is_numpy_linspace_bit_for_bit():
    for start, stop, count in _linspace_corpus():
        grid = _linspace(start, stop, count, "x")
        assert all(type(value) is float for value in grid)
        assert list(map(float.hex, grid)) == list(map(float.hex, np.linspace(start, stop, count).tolist()))
    union = np.unique(np.concatenate([np.linspace(*DEFAULT_R_RANGES["fig3"]), np.linspace(0.001, 0.1, 100)]))
    assert list(map(float.hex, default_fig3_spec().r_grid)) == list(map(float.hex, union.tolist()))


@pytest.mark.parametrize("count", [10**15, 10**400], ids=["unallocatable", "beyond-index"])
def test_from_range_rejects_a_count_beyond_memory(count):
    # The grid is allocated in one step, which fails at once for these counts; counts that
    # would fill memory before failing (~1e9) are not tried.
    with pytest.raises(ValueError, match="does not fit in memory"):
        SweepSpec.from_range(0.0, 1.0, count)


def test_grids_and_tables_leave_numpy_unloaded():
    # Grid constructors, tables, their writers and the scalar b_of_j are plain Python; numpy is the oracle's alone.
    env = dict(os.environ, PYTHONPATH=str(Path(eprbell.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "from eprbell import report as rp\n"
        "from eprbell.bell import b_of_j\n"
        "from eprbell.epr_model import EprParams, make_state\n"
        "specs = [rp.SweepSpec.from_range(0.0, 1.0, 5), rp.default_fig1_spec(), rp.default_fig3_spec(),\n"
        "         rp.default_fig4_spec()]\n"
        "tables = [rp.fig1(specs[1]), rp.fig3(specs[2]), rp.fig4(specs[3]),\n"
        "          rp.fig2(rp.DEFAULT_FIG2_R, 0.9, rp.default_fig2_j_grid()),\n"
        "          rp.fig2_stacked(rp.DEFAULT_FIG2_R, rp.DEFAULT_ETAS, rp.default_fig2_j_grid())]\n"
        "rows = [len(table.rows) for table in tables]\n"
        "lines = [rp.table_to_csv(t).count('\\n') + rp.table_to_jsonl(t).count('\\n') for t in tables]\n"
        "b = b_of_j(make_state(EprParams(0.5, 0.9)), 0.1)\n"
        "print(rows, lines, type(b).__name__, 'numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[800, 1200, 1600, 804, 3216] [1601, 2401, 3201, 1609, 6433] float False"


def test_fig1_default_shape_and_order():
    table = fig1(default_fig1_spec())
    assert table.columns == ("r", "eta", "F")
    assert len(table.rows) == 200 * len(DEFAULT_ETAS)
    etas = [row[1] for row in table.rows]
    assert etas == sorted(etas, reverse=True)
    per_eta = len(table.rows) // len(DEFAULT_ETAS)
    for block in range(len(DEFAULT_ETAS)):
        rs = [row[0] for row in table.rows[block * per_eta : (block + 1) * per_eta]]
        assert rs == sorted(rs)


def test_fig1_anchor_rows():
    spec = SweepSpec(r_grid=(0.0, LN2_HALF), eta_list=(1.0, 0.5))
    table = fig1(spec)
    values = {(row[0], row[1]): row[2] for row in table.rows}
    assert values[(0.0, 1.0)] == pytest.approx(0.5, abs=1e-15)
    assert values[(0.0, 0.5)] == pytest.approx(0.5, abs=1e-15)
    assert values[(LN2_HALF, 1.0)] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_fig1_curves_ordered_by_eta():
    table = fig1(default_fig1_spec())
    by_r = {}
    for r, eta, f in table.rows:
        by_r.setdefault(r, []).append((eta, f))
    for r, pairs in by_r.items():
        if r == 0.0:
            continue
        fs = [f for _, f in sorted(pairs, reverse=True)]  # descending eta
        assert fs == sorted(fs, reverse=True)  # higher transmission, higher fidelity


def test_fig2_starts_at_twice_pi_origin():
    j_grid = (0.0, 0.1, 0.5)
    table = fig2(DEFAULT_FIG2_R, 0.9, j_grid)
    assert table.columns == ("r", "J", "B")
    for r in DEFAULT_FIG2_R:
        s = make_state(EprParams(r, 0.9))
        row = next(row for row in table.rows if row[0] == r and row[1] == 0.0)
        assert row[2] == pytest.approx(2.0 / (s.sigma_plus_sq * s.sigma_minus_sq), rel=1e-13)


def test_fig2_half_transmission_never_violates():
    table = fig2(DEFAULT_FIG2_R, 0.5, default_fig2_j_grid())
    assert max(row[2] for row in table.rows) <= 2.0


def test_fig2_high_transmission_violates():
    table = fig2((0.1,), 0.99, default_fig2_j_grid())
    assert max(row[2] for row in table.rows) > 2.0


def test_fig2_rejects_empty_grid():
    with pytest.raises(ValueError):
        fig2(DEFAULT_FIG2_R, 0.9, ())


def test_fig3_small_r_window_and_bounds():
    spec = SweepSpec(
        r_grid=tuple(np.linspace(0.0, 3.0, 25)) + (0.01, 0.02, 0.03),
        eta_list=(0.7, 0.5),
    )
    table = fig3(spec)
    assert table.columns == ("r", "eta", "B_max")
    values = {(row[0], row[1]): row[2] for row in table.rows}
    assert values[(0.0, 0.7)] == pytest.approx(2.0, abs=1e-12)  # product-state limit
    assert values[(0.0, 0.5)] == pytest.approx(2.0, abs=1e-12)
    assert any(values[(r, 0.7)] > 2.0 for r in (0.01, 0.02, 0.03))
    assert all(b <= 2.0 for (r, eta), b in values.items() if eta == 0.5)


def test_fig3_default_spec_has_refinement():
    spec = default_fig3_spec()
    assert min(r for r in spec.r_grid if r > 0) == pytest.approx(0.001)
    assert len([r for r in spec.r_grid if 0 < r <= 0.1]) >= 100


def test_fig4_rows_consistent():
    spec = SweepSpec.from_range(0.0, 5.0, 40, eta_list=(0.9, 0.5))
    table = fig4(spec)
    idx = {name: i for i, name in enumerate(table.columns)}
    for row in table.rows:
        assert row[idx["fidelity"]] == pytest.approx(
            1.0 / (1.0 + row[idx["duan_sum"]]), abs=1e-12
        )
        if row[idx["violates"]]:
            assert row[idx["b_max"]] > 2.0
            assert row[idx["fidelity"]] > 0.5
        state = make_state(EprParams(row[idx["r"]], row[idx["eta"]], row[idx["nbar"]]))
        assert row[idx["fidelity"]] == pytest.approx(fidelity(state).fidelity, abs=1e-15)


@pytest.mark.parametrize(
    "spec",
    [
        default_fig4_spec(),
        SweepSpec(r_grid=(0.0, 1e-12, 0.3, 354.8), eta_list=(1.0, 0.6, 0.0), nbar=0.0),
        SweepSpec(r_grid=(0.0, 1e-12, 0.3, 354.8), eta_list=(1.0, 0.6, 0.0), nbar=0.7),
    ],
    ids=["default", "edges-nbar0", "edges-nbar0.7"],
)
def test_tables_are_the_scalar_api_on_each_state(spec):
    # One closed form per quantity: every cell equals the scalar API's value
    # for the same state, and has the same Python type.
    table = fig4(spec)
    for row, f_row, b_row in zip(table.rows, fig1(spec).rows, fig3(spec).rows):
        params = EprParams(*row[:3])
        s = make_state(params)
        best = maximize_b(s)
        expected = (
            params.r, params.eta, params.nbar, fidelity(s).fidelity, duan_sum(s),
            best.j_max, best.b_max, best.violates, loss_bound_ok(params),
        )
        assert [(type(c), c) for c in row] == [(type(c), c) for c in expected]
        assert f_row == (row[0], row[1], row[3]) and b_row == (row[0], row[1], row[6])


def test_csv_round_trip_exact():
    table = Table(
        columns=("a", "b", "flag"),
        rows=((0.1, math.inf, True), (1.0 / 3.0, -2.5e-17, False)),
    )
    text = table_to_csv(table)
    assert table_from_csv(text) == table
    assert "inf" in text


def test_fig_csv_round_trip():
    table = fig1(SweepSpec.from_range(0.0, 2.0, 7, eta_list=(0.9,)))
    assert table_from_csv(table_to_csv(table)) == table


def test_jsonl_round_trip():
    table = Table(columns=("x", "ok"), rows=((math.inf, True), (0.25, False)))
    text = table_to_jsonl(table)
    assert table_from_jsonl(text) == table
    assert '"inf"' in text


# The per-cell codec the column writers replaced, kept as the reference for their bytes.
def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(float(value), ".17g")


def _json_safe(value):
    if isinstance(value, bool):
        return value
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _reference_csv(table):
    lines = [",".join(table.columns)] + [",".join(map(_format_cell, row)) for row in table.rows]
    return "\n".join(lines) + "\n"


def _reference_jsonl(table):
    lines = [json.dumps({name: _json_safe(v) for name, v in zip(table.columns, row)}) for row in table.rows]
    return "\n".join(lines) + "\n"


CODEC_TABLES = {
    "fig1": lambda: fig1(default_fig1_spec()),
    "fig2": lambda: fig2_stacked(DEFAULT_FIG2_R, DEFAULT_ETAS, default_fig2_j_grid()),
    "fig3": lambda: fig3(default_fig3_spec()),
    "fig4": lambda: fig4(default_fig4_spec()),
    "edge-cells": lambda: Table(
        columns=("x", "n", "np", "flag", "np_bool"),
        rows=(
            (math.nan, 3, np.float64(0.1), True, np.bool_(True)),
            (math.inf, -7, np.float64(-0.0), False, np.bool_(False)),
            (-math.inf, 0, np.float64(1e308), True, np.bool_(True)),
            (-0.0, 2**60, np.float64(math.nan), False, 0.5),
            (5e-324, 1, np.float64(-math.inf), False, np.bool_(True)),
            (1.0 / 3.0, 10**20, np.float64(2.5e-17), True, 1),
        ),
    ),
    "zero-rows": lambda: Table(columns=("a", "b"), rows=()),
    # Equal floats with different bits (0.0 and -0.0, NaNs of either sign) must keep their own text.
    "repeated-cells": lambda: Table(
        columns=("x", "k"),
        rows=tuple(
            (x, 0.5 * (i % 3))
            for i, x in enumerate((
                0.0, -0.0, math.nan, float("nan"), -math.nan, np.float64("nan"), 0.0, -0.0,
                math.inf, -math.inf, math.inf, -math.inf, 5e-324, -5e-324, 5e-324, -5e-324,
                3, 3.0, np.float64(3.0), -0.0, 0.0, math.nan, -math.nan,
            ))
        ),
    ),
    # One column mostly distinct and one mostly repeated, so the writers take both sides of
    # their distinct-share choice, each column holding 0.0, -0.0, NaNs of either sign
    # (separate objects) and both infinities.
    "distinct-share": lambda: Table(
        columns=("distinct", "repeated"),
        rows=tuple(zip(
            [0.0, -0.0, float("nan"), -float("nan"), math.inf, -math.inf, *(k / 7 for k in range(1, 35))],
            [x for _ in range(5) for x in (0.0, -0.0, float("nan"), -float("nan"), math.inf, -math.inf, 0.5, 1.5)],
        )),
    ),
    "format-keys": lambda: Table(
        columns=("a%s", "b%", "%%", "%(x)s", '"c"', "{d}"),
        rows=((1.0, True, math.inf, -0.5, math.nan, 0.0), (2.0, False, 0.0, 7.0, -0.0, 1e300)),
    ),
}


@pytest.mark.parametrize("name", CODEC_TABLES)
def test_column_writers_match_the_per_cell_codec(name):
    table = CODEC_TABLES[name]()
    assert table_to_csv(table) == _reference_csv(table)
    if table.rows:  # JSONL has no header line, so the writer rejects a table without rows
        assert table_to_jsonl(table) == _reference_jsonl(table)


# The per-cell readers the column readers replaced, kept as the reference for their cells.
def _reference_from_csv(text):
    lines = [line for line in text.splitlines() if line]
    parse = lambda cell: cell == "true" if cell in ("true", "false") else float(cell)
    return Table(columns=tuple(lines[0].split(",")), rows=tuple(tuple(map(parse, line.split(","))) for line in lines[1:]))


def _reference_from_jsonl(text):
    objs = [json.loads(line) for line in text.splitlines() if line]
    parse = lambda cell: float(cell) if isinstance(cell, str) else cell
    return Table(columns=tuple(objs[0]), rows=tuple(tuple(parse(obj[name]) for name in objs[0]) for obj in objs))


def _typed_cells(table):
    """Each row's (type, repr) pairs: equal for equal cells, NaN and -0.0 included."""
    return [[(type(cell), repr(cell)) for cell in row] for row in table.rows]


@pytest.mark.parametrize("name", CODEC_TABLES)
def test_column_readers_match_the_per_cell_readers(name):
    table = CODEC_TABLES[name]()
    codecs = [(table_to_csv, table_from_csv, _reference_from_csv)]
    if table.rows:  # JSONL has no header line, so a table without rows does not round-trip
        codecs.append((table_to_jsonl, table_from_jsonl, _reference_from_jsonl))
    for write, read, reference in codecs:
        text = write(table)
        got, expected = read(text), reference(text)
        assert got.columns == expected.columns == table.columns
        assert _typed_cells(got) == _typed_cells(expected)


def test_csv_reads_mixed_and_foreign_columns_cell_by_cell():
    with pytest.raises(ValueError):
        table_from_csv("a,b\ntrue,1\n0.5,false\n")
    with pytest.raises(ValueError):
        table_from_csv("a\n1\nyes\n")


@pytest.mark.parametrize("cell", ["1_000", " 2.5", "2.5 ", "Infinity", "NAN", "+1", "0x10", "1e", ""])
def test_csv_reader_rejects_float_spellings_the_writers_never_write(cell):
    # float() takes every one of these but the last three
    with pytest.raises(ValueError, match=f"column 'b' holds {re.escape(repr(cell))}"):
        table_from_csv(f"a,b\n1,2\n3,{cell}\n")


def test_csv_reader_takes_hand_written_numbers():
    text = "a\n0.1\n.5\n1.\n-2E5\n3e-07\n-0\ninf\n-inf\n"
    assert table_from_csv(text).rows == ((0.1,), (0.5,), (1.0,), (-2e5,), (3e-07,), (-0.0,), (math.inf,), (-math.inf,))
    assert math.isnan(table_from_csv("a\nnan\n").rows[0][0])


@pytest.mark.parametrize("token", ["Infinity", "-Infinity"])
def test_jsonl_reader_rejects_infinity_tokens(token):
    # the writers spell infinity "inf"/"-inf"; NaN, which json.dumps writes, still reads
    with pytest.raises(ValueError, match=f"token {token}"):
        table_from_jsonl(f'{{"a": 1.0}}\n{{"a": {token}}}\n')
    assert math.isnan(table_from_jsonl('{"a": NaN}\n').rows[0][0])


@pytest.mark.parametrize(
    "first, later, count",
    [("true", "0.5", 300), ("0.5", "true", 300), ("true", "0.5", 256)],
    ids=["true-0.5", "0.5-true", "256-true-then-0.5"],
)
def test_readers_reject_columns_mixing_booleans_with_numbers(first, later, count):
    # The CSV reader types each column from all of its cells, however far down the one odd cell sits.
    with pytest.raises(ValueError, match="'a' mixes booleans"):
        table_from_csv("a\n" + f"{first}\n" * count + f"{later}\n")
    with pytest.raises(ValueError, match="'a' mixes booleans"):
        table_from_jsonl(f'{{"a": {first}}}\n{{"a": {later}}}\n')


def test_writers_reject_mixed_columns_and_ragged_rows():
    mixed = Table(columns=("a", "b"), rows=((0.5, True), (0.25, 1.0)))
    ragged = Table(columns=("a", "b"), rows=((0.5, 1.0), (0.25,)))
    for write in (table_to_csv, table_to_jsonl):
        with pytest.raises(ValueError, match="'b' mixes booleans"):
            write(mixed)
        with pytest.raises(ValueError, match="header"):
            write(ragged)


@pytest.mark.parametrize(
    "columns, bad",
    [(("a", "a"), "a"), (("",), ""), (("x", ""), ""), (("a,b",), "a,b"),
     (("a\nb",), "a\nb"), (("a\r",), "a\r"), (("a\x85",), "a\x85")],
    ids=["repeated", "empty-only", "empty", "comma", "newline", "carriage-return", "next-line"],
)
def test_writers_reject_column_names_that_cannot_round_trip(columns, bad):
    table = Table(columns=columns, rows=(tuple(float(i) for i in range(len(columns))),))
    for write in (table_to_csv, table_to_jsonl):
        with pytest.raises(ValueError, match=f"column name {re.escape(repr(bad))}"):
            write(table)


# The writers' rejected names, as text that carries them.  A CSV header cannot hold a comma,
# a line break or a lone empty name; a JSON object can repeat a key.
@pytest.mark.parametrize(
    "read, text, bad",
    [(table_from_csv, "a,a\n0,1\n", "a"), (table_from_csv, "x,\n0,1\n", ""), (table_from_csv, ",b\n1,2\n", ""),
     (table_from_jsonl, '{"": 0}\n', ""), (table_from_jsonl, '{"x": 0, "": 1}\n', ""),
     (table_from_jsonl, '{"a,b": 0}\n', "a,b"), (table_from_jsonl, '{"a\\nb": 0}\n', "a\nb"),
     (table_from_jsonl, '{"a\\r": 0}\n', "a\r"), (table_from_jsonl, '{"a\\u0085": 0}\n', "a\x85"),
     (table_from_jsonl, '{"a": 1, "a": true}\n', "a")],
    ids=["csv-repeated", "csv-empty", "csv-empty-first", "jsonl-empty-only", "jsonl-empty", "jsonl-comma",
         "jsonl-newline", "jsonl-carriage-return", "jsonl-next-line", "jsonl-repeated"],
)
def test_readers_reject_column_names_that_cannot_round_trip(read, text, bad):
    with pytest.raises(ValueError, match=f"column name {re.escape(repr(bad))}"):
        read(text)


def test_jsonl_keys_with_format_characters_round_trip():
    table = Table(columns=("a%s", "b%", '"c"', "{d}"), rows=((1.0, True, math.inf, -0.5), (2.0, False, 0.0, 7.0)))
    assert table_from_jsonl(table_to_jsonl(table)) == table


def test_csv_rejects_ragged_rows():
    for text in ("a,b\n1,2,3\n4\n", "a,b\n1,2\n4\n", "a,b\n1,2,3\n"):
        with pytest.raises(ValueError, match="header"):
            table_from_csv(text)


@pytest.mark.parametrize("read, text", [(table_from_csv, ""), (table_from_jsonl, "\n")], ids=["csv", "jsonl"])
def test_readers_reject_empty_input(read, text):
    with pytest.raises(ValueError, match="empty"):
        read(text)


def test_jsonl_rejects_mismatched_keys():
    for text in ('{"a": 1}\n{"a": 2, "b": 3}\n', '{"a": 1, "b": 2}\n{"a": 3}\n', '{"a": 1}\n{"b": 1}\n'):
        with pytest.raises(ValueError, match="keys"):
            table_from_jsonl(text)


def test_jsonl_rejects_non_objects_and_foreign_cells():
    for text in ('[1]\n', '{"a": 1}\n[1]\n', '"a"\n'):
        with pytest.raises(ValueError, match="not an object"):
            table_from_jsonl(text)
    for text in ('{"a": "x"}\n', '{"a": null}\n', '{"a": 1}\n{"a": [1]}\n', '{"a": "nan"}\n'):
        with pytest.raises(ValueError, match="cell"):
            table_from_jsonl(text)




@pytest.mark.parametrize("cell", ["1.5", b"1.5", None, 10**400], ids=["text", "bytes", "None", "huge-int"])
def test_writers_reject_cells_that_are_not_real_numbers(cell):
    # float() would read "1.5", but no reader gives a text cell, so the writers take none.
    table = Table(columns=("a",), rows=((0.5,), (cell,)))
    for write in (table_to_csv, table_to_jsonl):
        with pytest.raises(ValueError, match="column 'a'"):
            write(table)


@pytest.mark.parametrize(
    "table, writers",
    [
        (Table((), ((), ())), (table_to_csv, table_to_jsonl)),
        (Table((), ()), (table_to_csv, table_to_jsonl)),
        (Table(("a", "b"), ()), (table_to_jsonl,)),
    ],
    ids=["no-columns", "empty", "jsonl-no-rows"],
)
def test_writers_reject_tables_that_would_not_read_back(table, writers):
    # With no columns both formats would write "\n", dropping the rows; JSONL has no header
    # line, so a table with no rows would lose its columns.
    for write in writers:
        with pytest.raises(ValueError, match="would not read back"):
            write(table)
