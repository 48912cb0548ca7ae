"""Reference values computed without eprbell, and the verifiers built on them.

Nothing here imports the package under test.  Every expected number comes
from the closed forms of the model:

    sigma_minus_sq = eta*exp(-2r) + (1-eta)*(1+2*nbar)     (sigma_plus_sq: exp(+2r))
    F              = 1/(1 + sigma_minus_sq)
    B(J)           = [1 + 2*exp(-J*(1/sp+1/sm)) - exp(-4J/sm)] / (sp*sm)
    J*             = max(0, ln(2sp/(sp+sm)) / (3/sm - 1/sp))   (the maximiser of B)

Each verifier returns a list of problems; an empty list means the output
is correct.  Values are compared to a relative tolerance of REL, loose
enough for a closed-form Bell optimum to replace the numerical search
(a change in the last digits) and tight enough to catch any real error.
Boolean predicates are recomputed from the program's own printed values,
so a flipped flag is caught even when the value sits next to its bound.
"""

from __future__ import annotations

import json
import math
import re
import sys

REL = 1e-10
ETAS = (0.99, 0.90, 0.70, 0.50)
FIG2_R = (0.1, math.log(2.0) / 2.0, 1.0, 2.0)
# exp(2r) overflows a double once 2r exceeds ln(DBL_MAX) = 709.78.
OVERFLOW_R = math.log(sys.float_info.max) / 2.0

FIG4_COLUMNS = ("r", "eta", "nbar", "fidelity", "duan_sum", "j_max", "b_max",
                "violates", "loss_bound_ok")
CRITERIA_COLUMNS = ("r", "eta", "nbar", "duan_sum", "duan_nonseparable", "mu",
                    "dx_mu_sq", "dp_mu_sq", "cond_var_x", "cond_var_p", "gg_product",
                    "gg_hi_satisfied", "gg_sum_satisfied", "simon_mu_nonseparable",
                    "nbar_threshold")
CRITERIA_JSON_EXTRA = ("gg_product_mu1", "gg_hi_satisfied_mu1", "gg_sum_mu1",
                       "gg_sum_satisfied_mu1")


# --------------------------------------------------------------------------
# Closed forms


def sigma_minus_sq(r: float, eta: float, nbar: float) -> float:
    return eta * math.exp(-2.0 * r) + (1.0 - eta) * (1.0 + 2.0 * nbar)


def variances(r: float, eta: float, nbar: float) -> tuple[float, float]:
    """(sigma_plus_sq, sigma_minus_sq); valid below OVERFLOW_R."""
    thermal = (1.0 - eta) * (1.0 + 2.0 * nbar)
    return eta * math.exp(2.0 * r) + thermal, eta * math.exp(-2.0 * r) + thermal


def fidelity(r: float, eta: float, nbar: float) -> float:
    return 1.0 / (1.0 + sigma_minus_sq(r, eta, nbar))


def b_of_j(sp: float, sm: float, j: float) -> float:
    return (1.0 + 2.0 * math.exp(-j * (1.0 / sp + 1.0 / sm)) - math.exp(-4.0 * j / sm)) / (sp * sm)


def j_star(sp: float, sm: float) -> float:
    return max(0.0, math.log(2.0 * sp / (sp + sm)) / (3.0 / sm - 1.0 / sp))


def bell_max(r: float, eta: float, nbar: float) -> tuple[float, float, float]:
    """(J*, B(J*), sigma_minus_sq) of one state."""
    sp, sm = variances(r, eta, nbar)
    j = j_star(sp, sm)
    return j, b_of_j(sp, sm, j), sm


def oracle_std_error(sm: float, samples: int) -> float:
    """Standard error of the mean of exp(-(n_x^2+n_p^2)), n ~ N(0, sm/2) each.

    E[f] = 1/(1+sm) and E[f^2] = 1/(1+2sm), so Var f = sm^2/((1+2sm)(1+sm)^2).
    """
    return sm / ((1.0 + sm) * math.sqrt((1.0 + 2.0 * sm) * samples))


def close(value, ref: float, rel: float = REL, abs_tol: float = 0.0) -> bool:
    return isinstance(value, float) and abs(value - ref) <= max(rel * abs(ref), abs_tol)


# --------------------------------------------------------------------------
# Figure tables


def linspace(start: float, stop: float, count: int) -> list[float]:
    """Uniform grid with both ends included (equal to numpy.linspace to 1 ulp)."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count - 1)] + [stop]


def fig1_grid() -> list[float]:
    return linspace(0.0, 3.0, 200)


def fig3_grid() -> list[float]:
    return sorted(set(linspace(0.0, 3.0, 200)) | set(linspace(0.001, 0.1, 100)))


def fig4_grid() -> list[float]:
    return linspace(0.0, 5.0, 400)


def fig2_j_grid() -> list[float]:
    return linspace(0.0, 2.0, 201)


def _grid_order(r_grid, etas) -> list[tuple[float, float]]:
    """(eta descending, r ascending): the row order every sweep must keep."""
    return [(eta, float(r)) for eta in sorted(etas, reverse=True) for r in sorted(r_grid)]


def _check_shape(table, columns, n_rows, problems) -> bool:
    if tuple(table.columns) != tuple(columns):
        problems.append(f"columns {table.columns} != {columns}")
        return False
    if len(table.rows) != n_rows:
        problems.append(f"{len(table.rows)} rows, expected {n_rows}")
        return False
    return True


def _check_rows(rows, grid, problems, check) -> None:
    for k, (row, (eta, r)) in enumerate(zip(rows, grid)):
        bad = check(row, r, eta)
        if bad:
            problems.append(f"row {k} (r={r!r}, eta={eta!r}): {bad}")
            if len(problems) > 5:
                return


def _pos(row, i):
    """Cell i as a float, None when the cell is a bool or not a number."""
    value = row[i]
    if isinstance(value, bool) or not isinstance(value, (float, int)):
        return None
    return float(value)


def verify_fig1(table, r_grid, etas, nbar) -> list[str]:
    problems: list[str] = []
    grid = _grid_order(r_grid, etas)
    if not _check_shape(table, ("r", "eta", "F"), len(grid), problems):
        return problems

    def check(row, r, eta):
        if not (close(_pos(row, 0), r, abs_tol=1e-12) and _pos(row, 1) == eta):
            return "grid point out of order"
        if not close(_pos(row, 2), fidelity(r, eta, nbar)):
            return f"F={row[2]!r}"
        return None

    _check_rows(table.rows, grid, problems, check)
    return problems


def verify_fig2_stacked(table, r_list, etas, j_grid) -> list[str]:
    problems: list[str] = []
    expected = [(eta, r, float(j)) for eta, r in _grid_order(r_list, etas) for j in j_grid]
    if not _check_shape(table, ("eta", "r", "J", "B"), len(expected), problems):
        return problems
    for k, (row, (eta, r, j)) in enumerate(zip(table.rows, expected)):
        if not (_pos(row, 0) == eta and close(_pos(row, 1), r, abs_tol=1e-12)
                and close(_pos(row, 2), j, abs_tol=1e-12)):
            problems.append(f"row {k}: grid point out of order")
            break
        sp, sm = variances(r, eta, 0.0)
        ref = b_of_j(sp, sm, j)
        if not close(_pos(row, 3), ref, abs_tol=REL):
            problems.append(f"row {k} (r={r!r}, eta={eta!r}, J={j!r}): B={row[3]!r} ref={ref!r}")
            break
    return problems


def _check_bell(j_max, b_max, violates, r, eta, nbar) -> str | None:
    j_ref, b_ref, sm = bell_max(r, eta, nbar)
    if not close(b_max, b_ref):
        return f"b_max={b_max!r} ref={b_ref!r}"
    if j_max is not None and not close(j_max, j_ref, rel=0.0, abs_tol=1e-5 * sm):
        return f"j_max={j_max!r} ref={j_ref!r}"
    if violates is not None and violates is not (b_max > 2.0):
        return f"violates={violates!r} with b_max={b_max!r}"
    return None


def verify_fig3(table, r_grid, etas, nbar) -> list[str]:
    problems: list[str] = []
    grid = _grid_order(r_grid, etas)
    if not _check_shape(table, ("r", "eta", "B_max"), len(grid), problems):
        return problems

    def check(row, r, eta):
        if not (close(_pos(row, 0), r, abs_tol=1e-12) and _pos(row, 1) == eta):
            return "grid point out of order"
        return _check_bell(None, _pos(row, 2), None, r, eta, nbar)

    _check_rows(table.rows, grid, problems, check)
    return problems


def verify_fig4(table, r_grid, etas, nbar) -> list[str]:
    problems: list[str] = []
    grid = _grid_order(r_grid, etas)
    if not _check_shape(table, FIG4_COLUMNS, len(grid), problems):
        return problems

    def check(row, r, eta):
        if not (close(_pos(row, 0), r, abs_tol=1e-12) and _pos(row, 1) == eta
                and _pos(row, 2) == nbar):
            return "grid point out of order"
        sm = sigma_minus_sq(r, eta, nbar)
        if not (close(_pos(row, 3), 1.0 / (1.0 + sm)) and close(_pos(row, 4), sm)):
            return f"fidelity/duan_sum={row[3]!r}/{row[4]!r}"
        if row[8] is not (2.0 * (1.0 - eta) * math.cosh(2.0 * r) < 1.0):
            return f"loss_bound_ok={row[8]!r}"
        return _check_bell(_pos(row, 5), _pos(row, 6), row[7], r, eta, nbar)

    _check_rows(table.rows, grid, problems, check)
    return problems


def same_rows(a, b) -> bool:
    """Exact, type-aware equality of two tables (True must not equal 1.0)."""
    if tuple(a.columns) != tuple(b.columns) or len(a.rows) != len(b.rows):
        return False
    for ra, rb in zip(a.rows, b.rows):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if isinstance(x, bool) or isinstance(y, bool):
                if x is not y:
                    return False
            elif float(x) != float(y):
                return False
    return True


# --------------------------------------------------------------------------
# Monte-Carlo oracle


def verify_estimate(r, eta, nbar, samples, fidelity_hat, std_error, duan_sum_hat) -> list[str]:
    """|F_hat - F| <= 5 SE and |duan_hat - sm| <= 5 SE, SEs from the closed forms.

    Five standard errors fail by chance about 6e-7 of the time each.  The
    program's own std_error must sit within 10% of the closed form, which
    is more than ten sampling deviations of the variance estimate at the
    sample counts used here.
    """
    sm = sigma_minus_sq(r, eta, nbar)
    se = oracle_std_error(sm, samples)
    problems = []
    if not (isinstance(fidelity_hat, float) and abs(fidelity_hat - 1.0 / (1.0 + sm)) <= 5.0 * se):
        problems.append(f"fidelity_hat={fidelity_hat!r} is beyond 5 SE of {1.0 / (1.0 + sm)!r}")
    if not (isinstance(duan_sum_hat, float) and abs(duan_sum_hat - sm) <= 5.0 * sm / math.sqrt(samples)):
        problems.append(f"duan_sum_hat={duan_sum_hat!r} is beyond 5 SE of {sm!r}")
    if not close(std_error, se, rel=0.1):
        problems.append(f"std_error={std_error!r}, closed form {se!r}")
    return problems


def z_score(r, eta, nbar, samples, fidelity_hat) -> float:
    sm = sigma_minus_sq(r, eta, nbar)
    return (fidelity_hat - 1.0 / (1.0 + sm)) / oracle_std_error(sm, samples)


# --------------------------------------------------------------------------
# Command-line queries
#
# A query is a dict with "kind", "argv" (after `python -m eprbell.cli`) and
# the parameters it was built from.  classify_query() returns "ok",
# "known_defect" or "fail: <reason>".


def _parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not key=value: {line!r}")
        out[key] = value
    return out


def _cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    return float(text)


def _bool(text: str):
    return {"true": True, "false": False}.get(text)


def _state_of(q) -> tuple[float, float, float]:
    return q["r"], q["eta"], q["nbar"]


def _check_fidelity(q, f, beats_classical, beats_two_thirds) -> str | None:
    if not (isinstance(f, float) and math.isfinite(f) and close(f, fidelity(*_state_of(q)))):
        return f"fidelity={f!r}"
    if beats_classical is not (f > 0.5) or beats_two_thirds is not (f > 2.0 / 3.0):
        return f"flags {beats_classical!r}/{beats_two_thirds!r} for F={f!r}"
    return None


def _check_criteria(q, rep: dict, json_form: bool) -> str | None:
    r, eta, nbar = _state_of(q)
    sp, sm = variances(r, eta, nbar)
    mu_ref = q["mu"] if q["mu"] is not None else (sp - sm) / (sp + sm)
    var_mu = (sp * (1.0 - mu_ref) ** 2 + sm * (1.0 + mu_ref) ** 2) / 8.0
    cond = sp * sm / (2.0 * (sp + sm))
    if r == 0.0:
        threshold = 0.0
    elif eta == 1.0:
        threshold = math.inf
    else:
        threshold = eta * (1.0 - math.exp(-2.0 * r)) / (2.0 * (1.0 - eta))
    if json_form and rep.get("nbar_threshold") == "inf":
        rep = dict(rep, nbar_threshold=math.inf)
    expected = {
        "r": r, "eta": eta, "nbar": nbar, "duan_sum": sm, "mu": mu_ref,
        "dx_mu_sq": var_mu, "dp_mu_sq": var_mu, "cond_var_x": cond, "cond_var_p": cond,
        "gg_product": var_mu * var_mu, "nbar_threshold": threshold,
    }
    if json_form:
        expected.update(gg_product_mu1=sm * sm / 4.0, gg_sum_mu1=sm)
    for key, ref in expected.items():
        value = rep.get(key)
        if isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not (value == ref or close(value, ref, abs_tol=1e-300)):
            return f"{key}={value!r} ref={ref!r}"
    dx, dp, mu = rep["dx_mu_sq"], rep["dp_mu_sq"], rep["mu"]
    predicates = {
        "duan_nonseparable": rep["duan_sum"] < 1.0,
        "gg_hi_satisfied": rep["gg_product"] < 1.0 / 16.0,
        "gg_sum_satisfied": dx + dp < 0.5,
        "simon_mu_nonseparable": dx + dp < (1.0 + mu**2) / 2.0,
    }
    if json_form:
        predicates["gg_hi_satisfied_mu1"] = rep["gg_product_mu1"] < 1.0 / 16.0
        predicates["gg_sum_satisfied_mu1"] = rep["gg_sum_mu1"] < 0.5
    for key, want in predicates.items():
        if rep.get(key) is not want:
            return f"{key}={rep.get(key)!r}"
    return None


def _check_ok_stdout(q, out: str) -> str | None:
    kind = q["kind"]
    if kind in ("fidelity", "overflow") and not q.get("json"):
        kv = _parse_kv(out)
        if set(kv) != {"fidelity", "beats_classical", "beats_two_thirds"}:
            return f"keys {sorted(kv)}"
        return _check_fidelity(q, float(kv["fidelity"]), _bool(kv["beats_classical"]),
                               _bool(kv["beats_two_thirds"]))
    if kind in ("fidelity", "overflow"):
        obj = json.loads(out)
        return _check_fidelity(q, obj.get("fidelity"), obj.get("beats_classical"),
                               obj.get("beats_two_thirds"))
    if kind == "criteria":
        if q["json"]:
            obj = json.loads(out)
            if set(obj) != set(CRITERIA_COLUMNS + CRITERIA_JSON_EXTRA):
                return f"keys {sorted(obj)}"
            return _check_criteria(q, obj, json_form=True)
        lines = out.splitlines()
        if len(lines) != 2 or tuple(lines[0].split(",")) != CRITERIA_COLUMNS:
            return "criteria CSV header or row count"
        cells = lines[1].split(",")
        if len(cells) != len(CRITERIA_COLUMNS):
            return "criteria CSV row width"
        return _check_criteria(q, dict(zip(CRITERIA_COLUMNS, map(_cell, cells))), json_form=False)
    if kind == "bell-max":
        kv = _parse_kv(out)
        if set(kv) != {"j_max", "b_max", "violates"}:
            return f"keys {sorted(kv)}"
        return _check_bell(float(kv["j_max"]), float(kv["b_max"]), _bool(kv["violates"]),
                           *_state_of(q))
    if kind == "bell-scan":
        lines = out.splitlines()
        if len(lines) != q["points"] + 1 or lines[0] != "J,B":
            return "bell-scan header or row count"
        sp, sm = variances(*_state_of(q))
        for k, (line, j) in enumerate(zip(lines[1:], linspace(q["j_min"], q["j_max"], q["points"]))):
            j_txt, b_txt = line.split(",")
            ref = b_of_j(sp, sm, float(j))
            if not (close(float(j_txt), float(j), abs_tol=1e-12) and close(float(b_txt), ref, abs_tol=REL)):
                return f"bell-scan row {k}: {line!r} ref B={ref!r}"
        return None
    if kind == "chsh":
        kv = _parse_kv(out)
        v, theta = q["visibility"], q["theta"]
        angles = (0.0, math.pi / 2.0, theta + math.pi / 4.0, theta - math.pi / 4.0)
        got = [float(a) for a in kv["angles"].split(",")]
        if float(kv["visibility"]) != v or float(kv["theta"]) != theta or float(kv["m_scale"]) != 1.0:
            return "chsh echo fields"
        if len(got) != 4 or any(abs(a - b) > 1e-12 for a, b in zip(got, angles)):
            return f"angles={kv['angles']}"
        if not close(float(kv["s_value"]), 2.0 * math.sqrt(2.0) * v, abs_tol=1e-12):
            return f"s_value={kv['s_value']}"
        return None
    raise ValueError(f"unknown query kind {kind!r}")


def _check_oracle(q, rc: int, out: str) -> str | None:
    kv = _parse_kv(out)
    f_hat, se = float(kv["fidelity_hat"]), float(kv["std_error"])
    analytic = float(kv["analytic_fidelity"])
    problems = verify_estimate(*_state_of(q), q["samples"], f_hat, se, float(kv["duan_sum_hat"]))
    if problems:
        return problems[0]
    if not close(analytic, fidelity(*_state_of(q))):
        return f"analytic_fidelity={analytic!r}"
    error, band = abs(f_hat - analytic), 3.0 * se
    if float(kv["abs_error"]) != error or float(kv["band_3se"]) != band:
        return "abs_error/band_3se do not match the printed estimate"
    passed = error <= band
    if kv["result"] != ("PASS" if passed else "FAIL") or rc != (0 if passed else 1):
        return f"result={kv['result']} exit {rc} with error {error!r} band {band!r}"
    return None


def _one_line_error(out: str, err: str) -> bool:
    lines = err.splitlines()
    return out == "" and len(lines) == 1 and lines[0].startswith("error: ")


def classify_query(q: dict, rc: int, out: str, err: str) -> str:
    """Judge one CLI invocation against the exit-code contract and the references."""
    kind = q["kind"]
    if kind == "invalid":
        if rc == 2 and _one_line_error(out, err):
            return "ok"
        return f"fail: expected exit 2 with one error line, got exit {rc}"
    if kind == "overflow":
        if rc == 2 and _one_line_error(out, err):
            return "ok"
        lines = err.strip().splitlines()
        if rc == 1 and "Traceback" in err and lines and lines[-1].startswith("OverflowError"):
            # The documented make_state overflow above 2r = 709.78.
            return "known_defect"
    if "Traceback" in err:
        return f"fail: traceback on stderr (exit {rc})"
    try:
        if kind == "oracle":
            bad = _check_oracle(q, rc, out)
        elif rc != 0:
            bad = f"exit {rc}"
        else:
            bad = _check_ok_stdout(q, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        bad = f"unparseable output ({type(exc).__name__}: {exc})"
    return "ok" if bad is None else "fail: " + bad


_NUMBER = re.compile(r"(?<=[=:\s,])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def perturbations(rc: int, out: str, err: str):
    """Wrong variants of one real CLI result: a changed value, a flipped flag,
    a wrong exit code and a traceback.  Each must be judged a failure."""
    match = _NUMBER.search("\n" + out)
    if match:
        start, end = match.start() - 1, match.end() - 1
        value = float(out[start:end])
        bumped = format(value * (1.0 + 1e-3) if value else 1e-3, ".17g")
        yield "value", rc, out[:start] + bumped + out[end:], err
    flipped = re.sub(r"\b(true|false)\b", lambda m: "false" if m.group(1) == "true" else "true", out, count=1)
    if flipped != out:
        yield "flag", rc, flipped, err
    yield "exit code", {0: 3, 1: 0, 2: 0}.get(rc, 0), out, err
    yield "traceback", rc, out, err + "Traceback (most recent call last):\nRuntimeError: injected\n"
