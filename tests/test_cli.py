import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eprbell.cli import main
from eprbell.report import DEFAULT_ETAS
import eprbell
from eprbell import EprParams, OracleEstimate, b_of_j, duan_sum, fidelity, make_state, table_from_csv

LN2_HALF = math.log(2.0) / 2.0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = dict(line.split("=", 1) for line in out.strip().splitlines())
    return pairs


def test_fidelity_plain(capsys):
    code, out, _ = run(capsys, "fidelity", "--r", str(LN2_HALF), "--eta", "1")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["fidelity"]) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert kv["beats_classical"] == "true"
    assert kv["beats_two_thirds"] == "false"


def test_fidelity_json(capsys):
    code, out, _ = run(capsys, "fidelity", "--r", "0", "--eta", "0.5", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"fidelity": 0.5, "beats_classical": False, "beats_two_thirds": False}


def test_invalid_domain_exits_2(capsys):
    code, _, err = run(capsys, "fidelity", "--r", "0.5", "--eta", "1.5")
    assert code == 2
    assert "eta" in err


def test_missing_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fidelity", "--r", "0.5"])
    assert excinfo.value.code == 2


def test_criteria_csv_default(capsys):
    code, out, _ = run(capsys, "criteria", "--r", "0.4", "--eta", "0.9")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("r,eta,nbar,duan_sum,duan_nonseparable,mu,")
    assert header.endswith("nbar_threshold")
    assert len(row.split(",")) == len(header.split(","))


def test_criteria_json_with_mu(capsys):
    code, out, _ = run(capsys, "criteria", "--r", "0.4", "--eta", "1", "--mu", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mu"] == 1.0
    assert obj["nbar_threshold"] == "inf"


def test_bell_scan(capsys):
    code, out, _ = run(
        capsys, "bell-scan", "--r", "0.5", "--eta", "0.9",
        "--j-min", "0", "--j-max", "1", "--points", "11",
    )
    assert code == 0
    table = table_from_csv(out)
    assert table.columns == ("J", "B")
    assert len(table.rows) == 11
    assert table.rows[0][0] == 0.0


def test_bell_scan_bad_grid(capsys):
    code, _, err = run(
        capsys, "bell-scan", "--r", "0.5", "--eta", "0.9",
        "--j-min", "2", "--j-max", "1", "--points", "5",
    )
    assert code == 2
    assert "j-m" in err


def test_bell_max_vacuum(capsys):
    code, out, _ = run(capsys, "bell-max", "--r", "0", "--eta", "1")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["j_max"]) == 0.0
    assert float(kv["b_max"]) == pytest.approx(2.0, abs=1e-14)
    assert kv["violates"] == "false"


def test_bell_max_violation(capsys):
    code, out, _ = run(capsys, "bell-max", "--r", str(LN2_HALF), "--eta", "0.9")
    assert code == 0
    assert parse_kv(out)["violates"] == "true"


def test_chsh(capsys):
    code, out, _ = run(capsys, "chsh", "--visibility", "1")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["s_value"]) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert len(kv["angles"].split(",")) == 4


def test_chsh_invalid_visibility(capsys):
    code, _, err = run(capsys, "chsh", "--visibility", "1.2")
    assert code == 2
    assert "visibility" in err


def test_oracle_pass(capsys):
    code, out, _ = run(
        capsys, "oracle", "--r", "0.5", "--eta", "0.9",
        "--samples", "50000", "--seed", "9",
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["result"] == "PASS"
    assert float(kv["abs_error"]) <= float(kv["band_3se"])


def test_oracle_fail_exit_code(monkeypatch, capsys):
    # an estimate 4 standard errors from the analytic value fails the 3-SE band
    def off_by_four_se(state, config):
        return OracleEstimate(fidelity(state).fidelity + 4.0e-3, 1.0e-3, duan_sum(state))

    monkeypatch.setattr(eprbell.cli, "mc_fidelity", off_by_four_se)
    code, out, _ = run(
        capsys, "oracle", "--r", "0.5", "--eta", "0.9",
        "--samples", "2000", "--seed", "1",
    )
    assert code == 1
    assert parse_kv(out)["result"] == "FAIL"


def test_fig1_stdout_default(capsys):
    code, out, _ = run(capsys, "fig1")
    assert code == 0
    table = table_from_csv(out)
    assert table.columns == ("r", "eta", "F")
    assert len(table.rows) == 200 * len(DEFAULT_ETAS)


def test_fig1_out_file_and_flags(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, out, _ = run(capsys, "fig1", "--out", str(out_path), "--etas", "1.0", "--nbar", "0")
    assert code == 0
    assert out == ""
    table = table_from_csv(out_path.read_text())
    assert {row[1] for row in table.rows} == {1.0}


def test_fig_config_and_override(tmp_path, capsys):
    config = {"r_list": [0.0, 0.5], "eta_list": [0.9, 0.5], "nbar": 0.25}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "fig1", "--config", str(path))
    assert code == 0
    table = table_from_csv(out)
    assert len(table.rows) == 4
    # flag overrides the config's nbar: fidelity at r=0 returns to 1/2
    code, out2, _ = run(capsys, "fig1", "--config", str(path), "--nbar", "0")
    table2 = table_from_csv(out2)
    row0 = next(r for r in table2.rows if r[0] == 0.0 and r[1] == 0.9)
    assert row0[2] == pytest.approx(0.5, abs=1e-15)
    row0_thermal = next(r for r in table.rows if r[0] == 0.0 and r[1] == 0.9)
    assert row0_thermal[2] < 0.5


def test_fig2_stacked_output(capsys):
    code, out, _ = run(capsys, "fig2", "--etas", "0.9,0.5", "--j-points", "5", "--j-max", "1")
    assert code == 0
    table = table_from_csv(out)
    assert table.columns == ("eta", "r", "J", "B")
    assert len(table.rows) == 2 * 4 * 5
    etas = [row[0] for row in table.rows]
    assert etas == sorted(etas, reverse=True)


def test_fig2_nbar_reaches_the_state(capsys):
    code, out, _ = run(
        capsys, "fig2", "--etas", "0.9", "--nbar", "0.5", "--j-points", "5", "--j-max", "1",
    )
    assert code == 0
    table = table_from_csv(out)
    assert len(table.rows) == 4 * 5
    for eta, r, j, b in table.rows:
        assert b == pytest.approx(b_of_j(make_state(EprParams(r, eta, 0.5)), j), rel=1e-14)


def test_fig3_with_range_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r_min": 0.0, "r_max": 1.0, "r_count": 5, "eta_list": [1.0]}))
    code, out, _ = run(capsys, "fig3", "--config", str(path))
    assert code == 0
    table = table_from_csv(out)
    assert len(table.rows) == 5
    assert all(row[2] > 2.0 for row in table.rows if row[0] > 0)


def test_fig4_small(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r_list": [0.0, 0.3], "eta_list": [0.9]}))
    code, out, _ = run(capsys, "fig4", "--config", str(path))
    assert code == 0
    table = table_from_csv(out)
    assert table.columns[:3] == ("r", "eta", "nbar")
    assert len(table.rows) == 2


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    code, _, err = run(capsys, "fig1", "--config", str(path))
    assert code == 2
    assert "config" in err
    path.write_text("{not json")
    code, _, _ = run(capsys, "fig1", "--config", str(path))
    assert code == 2
    code, _, _ = run(capsys, "fig1", "--config", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig4"])
def test_shared_config_accepted_by_every_figure(tmp_path, capsys, figure):
    # every documented key at once, as in the README's example config
    config = {
        "r_min": 0.0, "r_max": 1.0, "r_count": 3, "eta_list": [0.9, 0.5], "nbar": 0.1,
        "j_min": 0.0, "j_max": 1.0, "j_count": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, figure, "--config", str(path))
    assert code == 0
    rows = table_from_csv(out).rows
    assert len(rows) == (2 * 4 * 3 if figure == "fig2" else 2 * 3)


@pytest.mark.parametrize(
    "argv, config, names",
    [
        (("fidelity", "--r", "400", "--eta", "0.9"), None, "r "),
        (("fig1",), {"r_max": 400}, "r "),
        (("fig2", "--etas", ","), None, "eta_list"),
        (("fig2",), {"eta_list": []}, "eta_list"),
        (("fig1",), {"eta_list": 0.9}, "'eta_list'"),
        (("fig2",), {"eta_list": 0.9}, "'eta_list'"),
        (("fig1",), {"eta_list": None}, "'eta_list'"),
        (("fig2",), {"eta_list": None}, "'eta_list'"),
        (("fig3",), {"r_cout": 5}, "'r_cout'"),
        (("fig2",), {"r_cout": 5}, "'r_cout'"),
        (("fig1",), {"r_count": 2.7}, "'r_count'"),
        (("fig4",), {"eta_list": [True]}, "'eta_list'"),
        (("fig1",), {"r_list": "abc"}, "'r_list'"),
        (("fig2",), {"j_count": 5.0}, "'j_count'"),
        (("chsh", "--visibility", "0.9", "--theta", "nan"), None, "theta"),
        (("fidelity", "--r", "0", "--eta", "0.5", "--nbar", "1e308"), None, "nbar "),
        (("fig1", "--nbar", "1e308", "--etas", "0.5"), None, "nbar "),
        (("criteria", "--r", "1", "--eta", "0.9", "--mu", "1e160"), None, "mu "),
        (("criteria", "--r", "354", "--eta", "1", "--mu", "0"), None, "mu "),
        (("oracle", "--r", "0.5", "--eta", "0.9", "--samples", "1", "--seed", "1"), None, "samples must be an integer >= 2"),
    ],
    ids=[
        "fidelity-overflow-r", "fig1-overflow-r_max", "fig2-empty-etas", "fig2-empty-eta_list",
        "fig1-scalar-eta_list", "fig2-scalar-eta_list", "fig1-null-eta_list", "fig2-null-eta_list",
        "fig3-unknown-key", "fig2-unknown-key", "fig1-fractional-r_count", "fig4-boolean-eta",
        "fig1-string-r_list", "fig2-float-j_count", "chsh-nan-theta", "fidelity-huge-nbar",
        "fig1-huge-nbar", "criteria-huge-mu", "criteria-mu-gg-product-overflow", "oracle-one-sample",
    ],
)
def test_rejected_input_exits_2_with_one_error_line(tmp_path, capsys, argv, config, names):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ("--config", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert names in err


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ("fidelity", "--r", "0.3466", "--eta", "0.9"), 0,
            "fidelity=0.64517118355245873\nbeats_classical=true\nbeats_two_thirds=false\n",
        ),
        (
            ("fidelity", "--r", "0.3466", "--eta", "0.9", "--json"), 0,
            '{"fidelity": 0.6451711835524587, "beats_classical": true, "beats_two_thirds": false}\n',
        ),
        (
            ("criteria", "--r", "0.3466", "--eta", "0.9"), 0,
            "r,eta,nbar,duan_sum,duan_nonseparable,mu,dx_mu_sq,dp_mu_sq,cond_var_x,cond_var_p,"
            "gg_product,gg_hi_satisfied,gg_sum_satisfied,simon_mu_nonseparable,nbar_threshold\n"
            "0.34660000000000002,0.90000000000000002,0,0.54997623187969036,true,0.55105287770726197,"
            "0.2132605542818975,0.2132605542818975,0.2132605542818975,0.2132605542818975,"
            "0.045480064012622147,true,true,true,2.2501188406015489\n",
        ),
        (
            ("criteria", "--r", "0.3466", "--eta", "0.9", "--json"), 0,
            '{"r": 0.3466, "eta": 0.9, "nbar": 0.0, "duan_sum": 0.5499762318796904, "duan_nonseparable": true, '
            '"mu": 0.551052877707262, "dx_mu_sq": 0.2132605542818975, "dp_mu_sq": 0.2132605542818975, '
            '"cond_var_x": 0.2132605542818975, "cond_var_p": 0.2132605542818975, "gg_product": 0.04548006401262215, '
            '"gg_hi_satisfied": true, "gg_sum_satisfied": true, "simon_mu_nonseparable": true, '
            '"nbar_threshold": 2.250118840601549, "gg_product_mu1": 0.07561846390814574, '
            '"gg_hi_satisfied_mu1": false, "gg_sum_mu1": 0.5499762318796904, "gg_sum_satisfied_mu1": false}\n',
        ),
        (
            ("bell-max", "--r", "0.3466", "--eta", "0.9"), 0,
            "j_max=0.089060507855922982\nb_max=2.0094384374552408\nviolates=true\n",
        ),
        (
            ("chsh", "--visibility", "0.87", "--theta", "0.3"), 0,
            "visibility=0.87\ntheta=0.29999999999999999\n"
            "angles=0,1.5707963267948966,1.0853981633974483,-0.48539816339744829\n"
            "s_value=2.4607315985291853\nm_scale=1\n",
        ),
        (
            ("oracle", "--r", "0.3466", "--eta", "0.9", "--samples", "20000", "--seed", "3"), 0,
            "fidelity_hat=0.64622044870538908\nstd_error=0.0017305701344212466\n"
            "duan_sum_hat=0.54710424279311864\nanalytic_fidelity=0.64517118355245873\n"
            "abs_error=0.0010492651529303565\nband_3se=0.0051917104032637397\nresult=PASS\n",
        ),
        (
            ("oracle", "--r", "0.3466", "--eta", "0.9", "--samples", "200003", "--seed", "3"), 0,
            "fidelity_hat=0.64497977214588287\nstd_error=0.00054732275566043618\n"
            "duan_sum_hat=0.54984258898229355\nanalytic_fidelity=0.64517118355245873\n"
            "abs_error=0.00019141140657585876\nband_3se=0.0016419682669813085\nresult=PASS\n",
        ),
    ],
    ids=["fidelity", "fidelity-json", "criteria", "criteria-json", "bell-max", "chsh", "oracle", "oracle-4-blocks"],
)
def test_single_result_stdout_is_pinned(capsys, argv, code, expected):
    assert run(capsys, *argv) == (code, expected, "")


def test_oracle_and_sweeps_start_no_thread():
    # Oracle calls of one block and of many run inline, and sweeps start no thread either.
    env = dict(os.environ, PYTHONPATH=str(Path(eprbell.__file__).resolve().parents[1]))
    code = (
        "import contextlib, io, threading, eprbell.cli\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda thread: started.append(thread) or start(thread)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [eprbell.cli.main(['oracle', '--r', '0.5', '--eta', '0.9', '--samples', '10000', '--seed', '1']),\n"
        "             eprbell.cli.main(['oracle', '--r', '0.5', '--eta', '0.9', '--samples', str(16 * 2**16), '--seed', '1']),\n"
        "             eprbell.cli.main(['fig4'])]\n"
        "print(codes, len(started))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[0, 0, 0] 0"


def test_b_of_j_at_the_overflow_edge_warns_nothing(tmp_path, capsys):
    # sm is subnormal at r = 354.8, eta = 1, so the exponents overflow to -inf (exactly right)
    argv = ("bell-scan", "--r", "354.8", "--eta", "1", "--j-min", "0", "--j-max", "1", "--points", "5")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    s = make_state(EprParams(354.8, 1.0))
    assert [row[1] for row in table_from_csv(out).rows[1:]] == [1.0 / (s.sigma_plus_sq * s.sigma_minus_sq)] * 4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"r_list": [354.8]}))
    code, _, err = run(capsys, "fig2", "--etas", "1", "--config", str(path))
    assert (code, err) == (0, "")


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only: no command imports it.
    env = dict(os.environ, PYTHONPATH=str(Path(eprbell.__file__).resolve().parents[1]))
    code = (
        "import contextlib, io, sys, eprbell.cli\n"
        "state = ['--r', '0.5', '--eta', '0.9']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [eprbell.cli.main(argv) for argv in (\n"
        "        ['fidelity', *state], ['criteria', *state], ['bell-max', *state], ['chsh', '--visibility', '0.87'],\n"
        "        ['bell-scan', *state, '--j-min', '0', '--j-max', '1', '--points', '5'], ['fig4'],\n"
        "        ['oracle', *state, '--samples', '10000', '--seed', '1'])]\n"
        "print(codes, 'scipy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0] False"


def test_make_figures_writes_what_the_figure_subcommands_print(tmp_path, capsys):
    root = Path(eprbell.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(root / "scripts" / "make_figures.py"), "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for name in ("fig1", "fig2", "fig3", "fig4"):
        code, out, _ = run(capsys, name)
        assert code == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == out.encode()
