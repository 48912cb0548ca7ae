import math

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
from eprbell.report import (
    DEFAULT_ETAS,
    DEFAULT_FIG2_R,
    ENV_WORKERS,
    default_fig1_spec,
    default_fig2_j_grid,
    default_fig3_spec,
    default_fig4_spec,
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


def test_spec_from_range():
    spec = SweepSpec.from_range(0.0, 3.0, 4, eta_list=(0.9,))
    assert spec.r_grid == (0.0, 1.0, 2.0, 3.0)


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


def test_csv_rejects_ragged_rows():
    for text in ("a,b\n1,2,3\n4\n", "a,b\n1,2\n4\n", "a,b\n1,2,3\n"):
        with pytest.raises(ValueError, match="header"):
            table_from_csv(text)


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


def test_sweeps_independent_of_worker_count(monkeypatch):
    spec = SweepSpec.from_range(0.0, 2.0, 12, eta_list=(0.95, 0.6))
    baseline = table_to_csv(fig4(spec))
    monkeypatch.setenv(ENV_WORKERS, "3")
    assert table_to_csv(fig4(spec)) == baseline
    monkeypatch.setenv(ENV_WORKERS, "2")
    assert table_to_csv(fig1(spec)) == table_to_csv(fig1(spec))


def test_worker_env_validation(monkeypatch):
    spec = SweepSpec.from_range(0.0, 1.0, 3, eta_list=(0.9,))
    monkeypatch.setenv(ENV_WORKERS, "zero")
    with pytest.raises(ValueError):
        fig1(spec)
    monkeypatch.setenv(ENV_WORKERS, "0")
    with pytest.raises(ValueError):
        fig1(spec)
