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
import eprbell.oracle
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

    monkeypatch.setattr(eprbell.oracle, "mc_fidelity", off_by_four_se)
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


def test_fig1_out_file_and_config(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eta_list": [1.0], "nbar": 0}))
    code, out, _ = run(capsys, "fig1", "--out", str(out_path), "--config", str(path))
    assert code == 0
    assert out == ""
    table = table_from_csv(out_path.read_text())
    assert {row[1] for row in table.rows} == {1.0}


def test_fig_config_grid_and_nbar(tmp_path, capsys):
    config = {"r_list": [0.0, 0.5], "eta_list": [0.9, 0.5], "nbar": 0.25}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "fig1", "--config", str(path))
    assert code == 0
    table = table_from_csv(out)
    assert len(table.rows) == 4
    # the config's nbar reaches the state: fidelity at r=0 falls below 1/2
    row0_thermal = next(r for r in table.rows if r[0] == 0.0 and r[1] == 0.9)
    assert row0_thermal[2] < 0.5


def test_fig2_stacked_output(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eta_list": [0.9, 0.5], "j_count": 5, "j_max": 1}))
    code, out, _ = run(capsys, "fig2", "--config", str(path))
    assert code == 0
    table = table_from_csv(out)
    assert table.columns == ("eta", "r", "J", "B")
    assert len(table.rows) == 2 * 4 * 5
    etas = [row[0] for row in table.rows]
    assert etas == sorted(etas, reverse=True)


def test_fig2_nbar_reaches_the_state(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eta_list": [0.9], "nbar": 0.5, "j_count": 5, "j_max": 1}))
    code, out, _ = run(capsys, "fig2", "--config", str(path))
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
        (("fig1",), {"nbar": 1e308, "eta_list": [0.5]}, "nbar "),
        (("criteria", "--r", "1", "--eta", "0.9", "--mu", "1e160"), None, "mu "),
        (("criteria", "--r", "354", "--eta", "1", "--mu", "0"), None, "mu "),
        (("oracle", "--r", "0.5", "--eta", "0.9", "--samples", "1", "--seed", "1"), None, "samples must be an integer >= 2"),
        # grids whose single allocation fails at once (8 PB); counts that merely exhaust memory are not tried
        (("fig1",), {"r_count": 10**15}, "1000000000000000 points"),
        (("fig2",), {"j_count": 10**15}, "1000000000000000 points"),
        (("bell-scan", "--r", "0.5", "--eta", "0.9", "--j-min", "0", "--j-max", "1", "--points", "1000000000000000"),
         None, "1000000000000000 points"),
        # bell-scan takes no config, so its grid errors name its own flags
        (("bell-scan", "--r", "0.5", "--eta", "0.9", "--j-min", "0", "--j-max", "1", "--points", "0"), None,
         "--points must be an integer >= 1, got 0"),
        (("bell-scan", "--r", "0.5", "--eta", "0.9", "--j-min", "0", "--j-max", "inf", "--points", "5"), None,
         "--j-max must be finite, got inf"),
        (("fig1",), {"r_count": 10**400}, "<an integer of 401 digits> points"),
        (("fig1",), {"r_list": [0.1, 0.2], "r_min": 0, "r_max": 1, "r_count": 5},
         "'r_list' cannot be given with 'r_min' or 'r_max' or 'r_count'"),
        (("fig2",), {"r_list": [0.1], "r_count": 5}, "'r_list' cannot be given with 'r_count'"),
        # every key is held to its rule, also in a figure that does not read it
        (("fig2",), {"r_count": 0}, "config key 'r_count': r_count must be an integer >= 1"),
        (("fig1",), {"j_min": math.nan}, "config key 'j_min': j_min must be finite"),
        (("fig3",), {"nbar": True}, "config key 'nbar': nbar must be a real number"),
    ],
    ids=[
        "fidelity-overflow-r", "fig1-overflow-r_max", "fig2-empty-eta_list",
        "fig1-scalar-eta_list", "fig2-scalar-eta_list", "fig1-null-eta_list", "fig2-null-eta_list",
        "fig3-unknown-key", "fig2-unknown-key", "fig1-fractional-r_count", "fig4-boolean-eta",
        "fig1-string-r_list", "fig2-float-j_count", "chsh-nan-theta", "fidelity-huge-nbar",
        "fig1-huge-nbar", "criteria-huge-mu", "criteria-mu-gg-product-overflow", "oracle-one-sample",
        "fig1-unallocatable-r_count", "fig2-unallocatable-j_count", "bell-scan-unallocatable-points",
        "bell-scan-zero-points", "bell-scan-infinite-j-max", "fig1-401-digit-r_count", "fig1-r_list-with-range",
        "fig2-r_list-with-r_count", "fig2-unused-zero-r_count",
        "fig1-unused-nan-j_min", "fig3-boolean-nbar",
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
    "argv",
    [(fig, flag, "0.3") for fig in ("fig1", "fig3", "fig4") for flag in ("--etas", "--nbar")]
    + [("fig2", flag, value) for flag, value in (("--etas", "0.9"), ("--nbar", "0.3"), ("--j-max", "1"), ("--j-points", "5"))],
    ids=lambda argv: argv[0] + argv[1],
)
def test_figure_grid_flags_are_gone(capsys, argv):
    # --config is the one way to set a figure's grid; argparse rejects the old flags itself.
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in err and "Traceback" not in err


# (argv, exit code, stdout) of each single-result command whose output is pinned.
PINNED = {
    "fidelity": (
        ("fidelity", "--r", "0.3466", "--eta", "0.9"), 0,
        "fidelity=0.64517118355245873\nbeats_classical=true\nbeats_two_thirds=false\n",
    ),
    "fidelity-json": (
        ("fidelity", "--r", "0.3466", "--eta", "0.9", "--json"), 0,
        '{"fidelity": 0.6451711835524587, "beats_classical": true, "beats_two_thirds": false}\n',
    ),
    "criteria": (
        ("criteria", "--r", "0.3466", "--eta", "0.9"), 0,
        "r,eta,nbar,duan_sum,duan_nonseparable,mu,dx_mu_sq,dp_mu_sq,cond_var_x,cond_var_p,"
        "gg_product,gg_hi_satisfied,gg_sum_satisfied,simon_mu_nonseparable,nbar_threshold\n"
        "0.34660000000000002,0.90000000000000002,0,0.54997623187969036,true,0.55105287770726197,"
        "0.2132605542818975,0.2132605542818975,0.2132605542818975,0.2132605542818975,"
        "0.045480064012622147,true,true,true,2.2501188406015489\n",
    ),
    "criteria-json": (
        ("criteria", "--r", "0.3466", "--eta", "0.9", "--json"), 0,
        '{"r": 0.3466, "eta": 0.9, "nbar": 0.0, "duan_sum": 0.5499762318796904, "duan_nonseparable": true, '
        '"mu": 0.551052877707262, "dx_mu_sq": 0.2132605542818975, "dp_mu_sq": 0.2132605542818975, '
        '"cond_var_x": 0.2132605542818975, "cond_var_p": 0.2132605542818975, "gg_product": 0.04548006401262215, '
        '"gg_hi_satisfied": true, "gg_sum_satisfied": true, "simon_mu_nonseparable": true, '
        '"nbar_threshold": 2.250118840601549, "gg_product_mu1": 0.07561846390814574, '
        '"gg_hi_satisfied_mu1": false, "gg_sum_mu1": 0.5499762318796904, "gg_sum_satisfied_mu1": false}\n',
    ),
    "bell-max": (
        ("bell-max", "--r", "0.3466", "--eta", "0.9"), 0,
        "j_max=0.089060507855922982\nb_max=2.0094384374552408\nviolates=true\n",
    ),
    "chsh": (
        ("chsh", "--visibility", "0.87", "--theta", "0.3"), 0,
        "visibility=0.87\ntheta=0.29999999999999999\n"
        "angles=0,1.5707963267948966,1.0853981633974483,-0.48539816339744829\n"
        "s_value=2.4607315985291853\nm_scale=1\n",
    ),
    "oracle": (
        ("oracle", "--r", "0.3466", "--eta", "0.9", "--samples", "20000", "--seed", "3"), 0,
        "fidelity_hat=0.64622044870538908\nstd_error=0.0017305701344212466\n"
        "duan_sum_hat=0.54710424279311864\nanalytic_fidelity=0.64517118355245873\n"
        "abs_error=0.0010492651529303565\nband_3se=0.0051917104032637397\nresult=PASS\n",
    ),
    "oracle-4-blocks": (
        ("oracle", "--r", "0.3466", "--eta", "0.9", "--samples", "200003", "--seed", "3"), 0,
        "fidelity_hat=0.64497977214588287\nstd_error=0.00054732275566043618\n"
        "duan_sum_hat=0.54984258898229355\nanalytic_fidelity=0.64517118355245873\n"
        "abs_error=0.00019141140657585876\nband_3se=0.0016419682669813085\nresult=PASS\n",
    ),
}


@pytest.mark.parametrize("argv, code, expected", PINNED.values(), ids=PINNED.keys())
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
    path.write_text(json.dumps({"r_list": [354.8], "eta_list": [1]}))
    code, _, err = run(capsys, "fig2", "--config", str(path))
    assert (code, err) == (0, "")


def test_cli_import_leaves_scipy_unloaded():
    # scipy is no dependency of the package or its tests: no command imports it.
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


def test_one_state_commands_leave_numpy_unloaded():
    # The closed forms import only math: a one-state command, rejected inputs included, never loads numpy.
    # The records are named tuples, so neither dataclasses nor the inspect it pulls in is loaded either;
    # the modules are compared with a snapshot taken before the import, past any site hook of the environment.
    env = dict(os.environ, PYTHONPATH=str(Path(eprbell.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, eprbell.cli\n"
        "state = ['--r', '0.5', '--eta', '0.9']\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [eprbell.cli.main(argv) for argv in (\n"
        "        ['fidelity', *state], ['fidelity', *state, '--json'], ['criteria', *state],\n"
        "        ['criteria', *state, '--json'], ['criteria', *state, '--mu', '0.8'], ['bell-max', *state],\n"
        "        ['fidelity', '--r', '0.5', '--eta', '1.5'], ['criteria', '--r', '354.9', '--eta', '0.9'])]\n"
        "print(codes, 'numpy' in sys.modules, sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0, 2, 2] False []"


def test_table_commands_leave_numpy_unloaded(tmp_path):
    # The codec formats columns in plain Python, so the commands that write tables load no numpy either.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"eta_list": [0.9, 0.5], "nbar": 0.3, "r_count": 7, "j_max": 1.0, "j_count": 5}))
    env = dict(os.environ, PYTHONPATH=str(Path(eprbell.__file__).resolve().parents[1]))
    code = (
        "import contextlib, io, sys, eprbell.cli\n"
        "state = ['--r', '0.5', '--eta', '0.9']\n"
        f"config = ['--config', {str(config)!r}]\n"
        "figs = [[fig, *extra] for fig in ('fig1', 'fig2', 'fig3', 'fig4') for extra in ([], config)]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [eprbell.cli.main(argv) for argv in (\n"
        "        *figs, ['chsh', '--visibility', '0.87'],\n"
        "        ['bell-scan', *state, '--j-min', '0', '--j-max', '1', '--points', '101'], ['fidelity', *state, '--json'])]\n"
        "print(codes, 'numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] False"


# numpy's dispatched x86 loops; switching them off leaves numpy's baseline path, whose exp and log1p are libm's.
NUMPY_DISPATCH_OFF = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


def test_outputs_do_not_depend_on_numpy_cpu_path():
    """The default figure CSVs and the pinned single results are byte-identical with
    numpy's dispatched loops on and off: every closed form goes through math (libm),
    and the oracle's results agree on both paths.  numpy ignores a feature that the CPU
    lacks (with an ImportWarning), so on such a CPU both runs take one path; the test
    prints which of the features were on."""
    env = dict(os.environ, PYTHONPATH=str(Path(eprbell.__file__).resolve().parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    code = (
        "import contextlib, io, json, sys, eprbell.cli\n"
        f"pinned = {[argv for argv, _, _ in PINNED.values()]!r}\n"
        "out = {}\n"
        "for argv in [[name] for name in ('fig1', 'fig2', 'fig3', 'fig4')] + pinned:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "        eprbell.cli.main(list(argv))\n"
        "    out[' '.join(argv)] = text.getvalue()\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        f"on = [name for name in {NUMPY_DISPATCH_OFF.split()!r} if __cpu_features__.get(name)]\n"
        "print(json.dumps([on, out]))"
    )
    runs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": NUMPY_DISPATCH_OFF}):
        done = subprocess.run([sys.executable, "-c", code], env={**env, **extra}, capture_output=True, text=True,
                              check=True)
        runs.append(json.loads(done.stdout))
    (on, outputs), (off, outputs_off) = runs
    print(f"NPY_DISABLE_CPU_FEATURES={NUMPY_DISPATCH_OFF!r} switched off {on or 'none'} (left on: {off or 'none'})")
    assert not off
    assert [name for name in outputs if outputs[name] != outputs_off[name]] == []


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
