import contextlib
import io
import json
import logging
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conelab
from conelab import cli, fd, lab, serialize
from conelab.symcone import NumericError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_failing(capsys, *argv):
    """(exit code, stderr) of a command that fails: stderr holds exactly
    one 'error:' line and no traceback."""
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [err.strip()], err
    assert "Traceback" not in err
    return code, err


class TestConeCommands:
    def test_eval(self, capsys):
        code, out = run_cli(capsys, "cone", "eval", "--lambda", "1,2,3",
                            "--k", "2")
        d = json.loads(out)
        assert code == 0
        assert d["member"] is True and d["k"] == 2
        assert set(d) == {"member", "margin", "k", "variant"}

    def test_dual(self, capsys):
        code, out = run_cli(capsys, "cone", "dual", "--lambda", "1,1,3",
                            "--k", "2")
        d = json.loads(out)
        assert code == 0 and d["member"] is True

    def test_rho_star(self, capsys):
        code, out = run_cli(capsys, "cone", "rho-star", "--lambda", "1,1,3",
                            "--k", "2")
        d = json.loads(out)
        assert code == 0
        assert np.isclose(d["rho_star"], 1.0, rtol=1e-9)

    def test_rho_star_with_oracle(self, capsys):
        code, out = run_cli(capsys, "cone", "rho-star", "--lambda",
                            "1,1,2", "--k", "2", "--oracle", "20000")
        d = json.loads(out)
        assert np.isclose(d["oracle"], d["rho_star"], rtol=5e-3)

    def test_negative_oracle(self, capsys):
        code, err = run_failing(capsys, "cone", "rho-star", "--lambda",
                                "1,2,3", "--k", "2", "--oracle", "-5")
        assert code == 2 and "oracle samples" in err

    def test_malformed_spectrum(self, capsys):
        code, _ = run_failing(capsys, "cone", "eval", "--lambda", "1,zebra",
                              "--k", "1")
        assert code == 2

    def test_k_out_of_range(self, capsys):
        code, _ = run_failing(capsys, "cone", "eval", "--lambda", "1,2",
                              "--k", "5")
        assert code == 2

    def test_rho_star_outside_dual_cone(self, capsys):
        code, _ = run_failing(capsys, "cone", "rho-star", "--lambda",
                              "1,1,9", "--k", "2")
        assert code == 2

    def test_rho_star_general_k_outside_dual_cone(self, capsys):
        # dual margin -0.152: no value, whatever an optimizer might find
        code, err = run_failing(capsys, "cone", "rho-star", "--lambda",
                                "0.61114324,0.01124944,-0.15209698,"
                                "0.83245446,0.7382765,0.96295027", "--k", "4")
        assert code == 2 and "dual cone G*_4" in err

    def test_rho_star_k1_on_the_diagonal_ray(self, capsys):
        # G*_1 is the ray of (1, ..., 1), where rho*_1 is mean(lambda)
        code, out = run_cli(capsys, "cone", "rho-star", "--lambda", "2,2,2",
                            "--k", "1")
        assert code == 0 and json.loads(out)["rho_star"] == 2.0

    def test_rho_star_k1_off_the_diagonal_ray(self, capsys):
        code, err = run_failing(capsys, "cone", "rho-star", "--lambda",
                                "1,2,2", "--k", "1")
        assert code == 2 and "dual cone G*_1" in err


class TestSolveCommand:
    def test_solve_writes_fields(self, capsys, tmp_path):
        cfg = {"n": 2, "k": 2, "q": 2.0, "h": 0.125,
               "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
               "f": {"type": "constant", "params": {"value": 4.0}}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, "solve", "--config", str(p),
                            "--out", str(tmp_path / "sol"))
        d = json.loads(out)
        assert code == 0
        assert abs(d["sup"] - 1.0) < 0.1
        vals = serialize.field_values_from_binary(tmp_path / "sol" / "u.bin")
        assert np.isclose(vals.max(), d["sup"])
        header = (tmp_path / "sol" / "u.csv").read_text().splitlines()[0]
        assert header == "x1,x2,value"

    def test_missing_domain(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 2, "k": 2, "q": 2.0}))
        code, _ = run_failing(capsys, "solve", "--config", str(p))
        assert code == 2

    def test_drift_is_not_a_param_exits_2(self, capsys, tmp_path):
        cfg = {"n": 2, "k": 2, "q": 2.0, "h": 0.125,
               "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
               "operator": {"type": "constant", "matrix": [[1, 0], [0, 1]],
                            "b": [1.0, 2.0]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, err = run_failing(capsys, "solve", "--config", str(p),
                                "--out", str(tmp_path / "sol"))
        assert code == 2
        assert "field 'operator.b': not a param of this type" in err

    @pytest.mark.parametrize("operator, error", [
        ({"type": "constant", "matrix": np.eye(3).tolist(), "c": 9},
         "field 'operator.c': need c <= 0, got 9"),
        ({"type": "constant",
          "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 0]]},
         "field 'operator.matrix': need a symmetric positive definite"),
        ({"type": "gilbarg_serrin", "alpha": 1.5},
         "field 'operator.alpha': need alpha < 1, got 1.5"),
    ], ids=["c", "matrix", "alpha"])
    def test_operator_outside_the_theorem_exits_2(
            self, capsys, monkeypatch, tmp_path, operator, error):
        # rejected from the config alone: no grid is built, nothing solved
        def never(*args, **kwargs):
            raise AssertionError("the operator reached the lattice")
        monkeypatch.setattr(fd, "build_grid", never)
        monkeypatch.setattr(fd, "solve_dirichlet", never)
        cfg = {"n": 3, "k": 3, "q": 3.0, "h": 0.125, "operator": operator,
               "f": {"type": "constant", "params": {"value": 1.0}}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, err = run_failing(capsys, "exp", "max_principle", "--config",
                                str(p), "--out", str(tmp_path / "mp"))
        assert code == 2 and error in err

    SOLVE = {"n": 2, "k": 2, "q": 2.0, "h": 0.125,
             "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0}}

    @pytest.mark.parametrize("command, cfg, key", [
        (["solve"], {**SOLVE, "sigma": 0.5}, "sigma"),
        (["solve"], {**SOLVE, "seed": 0}, "seed"),
        (["solve"], {**SOLVE, "h": [0.125, 0.0625]}, "h"),
        (["solve"], {k: v for k, v in SOLVE.items() if k != "h"}, "h"),
        (["exp", "sharpness"], {"n": 2, "k": 2, "q": 2.0, "h": 0.125}, "h"),
    ], ids=["solve-sigma", "solve-seed", "solve-ladder", "solve-default-h",
            "sharpness-h"])
    def test_unread_field_exits_2(self, capsys, tmp_path, command, cfg, key):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, err = run_failing(capsys, *command, "--config", str(p),
                                "--out", str(tmp_path / "out"))
        assert code == 2 and f"'{key}'" in err
        assert not (tmp_path / "out").exists()

    def test_infinity_exits_2(self, capsys, tmp_path):
        # json writes and reads inf as the literal Infinity
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 3, "k": 2, "q": float("inf"),
                                 "mode": "exploratory"}))
        assert "Infinity" in p.read_text()
        code, err = run_failing(capsys, "exp", "max_principle", "--config",
                                str(p), "--out", str(tmp_path / "out"))
        assert code == 2 and "'q'" in err
        assert not (tmp_path / "out").exists()

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        code = cli.main(["solve", "--config", str(p)])
        assert code == 2


class TestNumericFailure:
    @pytest.mark.parametrize("command", [["solve"],
                                         ["exp", "max_principle"],
                                         ["suite"]])
    def test_numeric_error_exits_3(self, capsys, tmp_path, monkeypatch,
                                   command):
        def fail(*args, **kwargs):
            raise NumericError("solve residual too large: 1.00e-02")
        monkeypatch.setattr(fd, "solve_dirichlet", fail)
        cfg = {"n": 2, "k": 2, "q": 2.0, "h": 0.125,
               "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
               "f": {"type": "constant", "params": {"value": 4.0}}}
        if command == ["suite"]:
            cfg = {"experiments": [{"exp": "max_principle", **cfg}]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = cli.main(command + ["--config", str(p),
                                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: solve residual too large: 1.00e-02\n"


class TestExpCommand:
    def test_exp_writes_report(self, capsys, tmp_path):
        cfg = {"n": 4, "k": 2, "q": 2.0, "mode": "exploratory",
               "eps_ladder": [0.125, 0.0625, 0.03125]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, out = run_cli(capsys, "exp", "log_family", "--config", str(p),
                            "--out", str(tmp_path / "rep"))
        assert code == 0
        d = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert d["name"] == "log_family"

    def test_strict_gate_rejection(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 4, "k": 2, "q": 2.0}))
        code, _ = run_failing(capsys, "exp", "log_family", "--config",
                              str(p), "--out", str(tmp_path))
        assert code == 2

    def test_sharpness_at_k_equals_n_names_k(self, capsys, tmp_path):
        # k = n makes the critical power 1 and the anisotropy infinite
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(SHARPNESS_K_EQUALS_N))
        code, err = run_failing(capsys, "exp", "sharpness", "--config",
                                str(p), "--out", str(tmp_path / "rep"))
        assert code == 2 and err.startswith("error: field 'k'")
        assert not (tmp_path / "rep").exists()

    def test_local_max_at_k1_runs(self, capsys, tmp_path):
        # rho*_1 of the identity is 1 at every node
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "n": 3, "k": 1, "q": 2.0, "mode": "exploratory",
            "h": [0.25, 0.2],
            "f": {"type": "constant", "params": {"value": 1.0}}}))
        code, _ = run_cli(capsys, "exp", "local_max", "--config", str(p),
                          "--out", str(tmp_path / "rep"))
        assert code == 0
        d = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert all(run["f_term"] > 0 for run in d["runs"])


SHARPNESS_K_EQUALS_N = {"n": 3, "k": 3, "q": 3.0}


class TestTinyCore:
    # eps^n underflows at the first rung; the closed-form norm must not
    # turn that into a zero norm, a NaN slope or numpy warnings
    def _run(self, tmp_path, q_list, eps0):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 4, "k": 3, "q": 3.0, "q_list": q_list,
                                 "mode": "exploratory",
                                 "eps_ladder": [eps0, 1e-3, 1e-4]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["exp", "sharpness", "--config", str(p),
                             "--out", str(tmp_path / "rep")])
        assert [str(w.message) for w in caught] == []
        return code

    def test_norm_stays_finite(self, capsys, tmp_path):
        code = self._run(tmp_path, [3.0], 3.5440394116353534e-197)
        assert capsys.readouterr().err == ""
        text = (tmp_path / "rep" / "report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        d = json.loads(text)
        norms = [run["norm"] for run in d["runs"]]
        # at q = k the norm does not depend on eps
        assert norms == pytest.approx([norms[1]] * 3, rel=1e-12)
        assert d["slopes"][0]["slope"] == pytest.approx(0.0, abs=1e-12)
        # only the Aitken limit of sup w_eps fails on this ladder
        assert code == 1
        assert [v["name"] for v in d["verdicts"] if not v["passed"]] == [
            "sup_to_one"]

    def test_norm_below_float_range_exits_3(self, capsys, tmp_path):
        # at q = 1 the first norm is about 2e-532: no float holds it
        code = self._run(tmp_path, [1.0], 1e-200)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: L^1 norm of the mollified Lu is out "
                              "of float range at eps=1e-200")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "rep").exists()


# a source whose L^q norm overflows: rhs, norm and margin are inf
HUGE_SOURCE_CFG = {"n": 3, "k": 2, "q": 2.0, "h": [0.25],
                   "f": {"type": "gaussian",
                         "params": {"amp": 1e200, "width": 0.5,
                                    "center": [0, 0, 5]}}}


class TestNonFiniteBound:
    """A max_principle bound that is not finite is a numerical failure,
    not a verdict."""

    def test_exp_exits_3(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(HUGE_SOURCE_CFG))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["exp", "max_principle", "--config", str(p),
                             "--out", str(tmp_path / "rep")])
        captured = capsys.readouterr()
        assert code == 3
        assert "Infinity" not in captured.out
        assert "error: bound report: rhs = inf is not finite" in \
            captured.err.splitlines()
        assert not (tmp_path / "rep").exists()

    def test_suite_keeps_the_valid_report(self, capsys, tmp_path):
        battery = {"experiments": [
            {"exp": "max_principle", "name": "huge", **HUGE_SOURCE_CFG},
            {"exp": "max_principle", "name": "bubble", "n": 3, "k": 2,
             "q": 2.0, "h": [0.25],
             "f": {"type": "constant", "params": {"value": 6.0}}}]}
        p = tmp_path / "battery.json"
        p.write_text(json.dumps(battery))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["suite", "--config", str(p),
                             "--out", str(tmp_path / "suite")])
        d = json.loads(capsys.readouterr().out)
        assert code == 3 and d["exit_code"] == 3
        assert [(r["name"], r["passed"], r["error"]) for r in d["reports"]] \
            == [("huge", False, "NumericError: bound report: rhs = inf is "
                                "not finite"),
                ("bubble", True, None)]
        assert (tmp_path / "suite" / "bubble" / "report.json").exists()
        assert not (tmp_path / "suite" / "huge").exists()


# per experiment, a quick config that runs in exploratory mode
QUICK_EXP = {
    "max_principle": {"n": 3, "k": 2, "q": 2.0, "h": [0.25, 0.2]},
    "w22": {"n": 3, "k": 2, "q": 2.0, "h": 0.125},
    "local_max": {"n": 3, "k": 2, "q": 2.0, "h": 0.25},
    "oscillation": {"n": 3, "k": 2, "q": 2.0, "h": 0.25},
    "sharpness": {"n": 3, "k": 2, "q": 1.5,
                  "eps_ladder": [0.125, 0.0625, 0.03125]},
    "log_family": {"n": 4, "k": 2, "q": 2.0,
                   "eps_ladder": [0.125, 0.0625, 0.03125]},
}


class TestReportText:
    """exp encodes its report once: stdout is the text of report.json."""

    @pytest.mark.parametrize("name", sorted(lab.EXPERIMENTS))
    def test_stdout_is_the_report_file(self, capsys, tmp_path, monkeypatch,
                                       name):
        texts = []

        def json_text(obj, text=serialize.json_text):
            texts.append(text(obj))
            return texts[-1]
        monkeypatch.setattr(serialize, "json_text", json_text)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**QUICK_EXP[name], "mode": "exploratory"}))
        code, out = run_cli(capsys, "exp", name, "--config", str(p),
                            "--out", str(tmp_path / "rep"))
        assert code in (0, 1)
        assert out.encode() == (tmp_path / "rep" / "report.json").read_bytes()
        assert texts == [out]

    def test_write_report_needs_no_savetxt(self, tmp_path, monkeypatch):
        def savetxt(*args, **kwargs):
            raise AssertionError("np.savetxt called")
        monkeypatch.setattr(np, "savetxt", savetxt)
        rep = lab.run_one("max_principle", {**QUICK_EXP["max_principle"],
                                            "mode": "exploratory"})
        assert rep.plots
        text = lab.write_report(rep, tmp_path / "rep")
        assert text == (tmp_path / "rep" / "report.json").read_text()
        for fname in rep.plots:
            assert (tmp_path / "rep" / fname).read_text().startswith("# ")


class TestSuiteCommand:
    def test_suite_runs_and_exits_zero(self, capsys, tmp_path):
        battery = {"experiments": [
            {"exp": "log_family", "name": "lg", "n": 4, "k": 2, "q": 2.0,
             "mode": "exploratory",
             "eps_ladder": [0.125, 0.0625, 0.03125]}]}
        p = tmp_path / "battery.json"
        p.write_text(json.dumps(battery))
        code, out = run_cli(capsys, "suite", "--config", str(p),
                            "--out", str(tmp_path / "suite"))
        d = json.loads(out)
        assert code == 0 and d["exit_code"] == 0
        assert d["reports"][0]["passed"] is True

    def test_raising_job_listed(self, capsys, tmp_path):
        battery = {"experiments": [
            {"exp": "log_family", "name": "lg", "n": 4, "k": 2, "q": 2.0,
             "mode": "exploratory", "eps_ladder": [0.125, 0.0625, 0.03125]},
            {"exp": "max_principle", "name": "low_k", "n": 4, "k": 2,
             "q": 2.0, "mode": "exploratory"}]}
        p = tmp_path / "battery.json"
        p.write_text(json.dumps(battery))
        code = cli.main(["suite", "--config", str(p),
                         "--out", str(tmp_path / "suite")])
        captured = capsys.readouterr()
        d = json.loads(captured.out)
        assert code == 2 and d["exit_code"] == 2
        assert [(r["name"], r["passed"], r["error"]) for r in d["reports"]] \
            == [("lg", True, None),
                ("low_k", False,
                 "ValueError: field 'k': explicit-constant mode requires "
                 "k > n/2")]
        assert captured.err == ("error: field 'k': explicit-constant mode "
                                "requires k > n/2\n")
        assert (tmp_path / "suite" / "lg" / "report.json").exists()

    def test_sharpness_at_k_equals_n_keeps_the_other_reports(
            self, capsys, tmp_path):
        battery = {"experiments": [
            {"exp": "sharpness", "name": "k_equals_n",
             **SHARPNESS_K_EQUALS_N},
            {"exp": "log_family", "name": "lg", "n": 4, "k": 2, "q": 2.0,
             "mode": "exploratory", "eps_ladder": [0.125, 0.0625, 0.03125]}]}
        p = tmp_path / "battery.json"
        p.write_text(json.dumps(battery))
        code = cli.main(["suite", "--config", str(p),
                         "--out", str(tmp_path / "suite")])
        d = json.loads(capsys.readouterr().out)
        assert code == 2 and d["exit_code"] == 2
        assert [(r["name"], r["passed"]) for r in d["reports"]] == [
            ("k_equals_n", False), ("lg", True)]
        assert d["reports"][0]["error"].startswith("ValueError: field 'k'")
        assert (tmp_path / "suite" / "lg" / "report.json").exists()
        assert not (tmp_path / "suite" / "k_equals_n").exists()

    def test_bad_battery(self, capsys, tmp_path):
        p = tmp_path / "battery.json"
        p.write_text(json.dumps({"experiments": [{"name": "x"}]}))
        code, _ = run_failing(capsys, "suite", "--config", str(p),
                              "--out", str(tmp_path))
        assert code == 2


# gilbarg_serrin's spectrum (1, 1, 4) at n = 3, alpha = 0.5 lies on the
# boundary of G*_2, where rho*_2 is 0
BOUNDARY_CFG = {"n": 3, "k": 2, "q": 2.0, "h": [0.25],
                "operator": {"type": "gilbarg_serrin", "alpha": 0.5}}


class TestBoundaryOperator:
    """An operator whose rho*_k is 0 is a config error on every path."""

    def test_every_experiment_names_the_node(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(BOUNDARY_CFG))
        errs = []
        for exp in ("local_max", "oscillation", "max_principle"):
            code, err = run_failing(capsys, "exp", exp, "--config", str(p),
                                    "--out", str(tmp_path / exp))
            assert code == 2, exp
            errs.append(err)
        assert re.fullmatch(r"error: rho\*_2 <= 0 at node "
                            r"\(\d+, \d+, \d+\)\n", errs[0])
        assert errs == errs[:1] * 3

    def test_suite_keeps_the_other_reports(self, capsys, tmp_path):
        battery = {"experiments": [
            {"exp": "local_max", "name": "boundary", **BOUNDARY_CFG},
            {"exp": "max_principle", "name": "bubble", "n": 3, "k": 2,
             "q": 2.0, "h": [0.25],
             "f": {"type": "constant", "params": {"value": 6.0}}}]}
        p = tmp_path / "battery.json"
        p.write_text(json.dumps(battery))
        code = cli.main(["suite", "--config", str(p),
                         "--out", str(tmp_path / "suite")])
        captured = capsys.readouterr()
        d = json.loads(captured.out)
        assert code == 2 and d["exit_code"] == 2
        assert [(r["name"], r["passed"]) for r in d["reports"]] == [
            ("boundary", False), ("bubble", True)]
        assert d["reports"][0]["error"].startswith(
            "ValueError: rho*_2 <= 0 at node (")
        assert (tmp_path / "suite" / "bubble" / "report.json").exists()
        assert not (tmp_path / "suite" / "boundary").exists()


@st.composite
def gilbarg_serrin_configs(draw):
    """A config that parse_config accepts: a gilbarg_serrin operator at
    h = 1/4, alpha on the boundary of G*_k or anywhere near it, and below
    1, where A(x) stops being elliptic."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    mode = draw(st.sampled_from(["strict", "exploratory"]))
    if mode == "strict":
        q = float(k) if 2 * k > n else draw(st.floats(n / 2 + 0.01, 6.0))
    else:
        q = draw(st.floats(1.0, 6.0))
    alpha = draw(st.sampled_from([2.0 - n / k, 0.5]).filter(lambda a: a < 1)
                 | st.floats(-3.0, 1.0, exclude_max=True))
    f = draw(st.sampled_from([
        {"type": "zero"}, {"type": "constant", "params": {"value": 2.0}},
        {"type": "gaussian", "params": {"amp": -3.0, "width": 0.5}}]))
    return {"n": n, "k": k, "q": q, "mode": mode, "h": [0.25],
            "operator": {"type": "gilbarg_serrin", "alpha": alpha}, "f": f}


@settings(deadline=None, max_examples=40)
@given(cfg=gilbarg_serrin_configs())
def test_gilbarg_serrin_configs_exit_with_a_code(cfg):
    # a crash must not share exit code 1 with a failed verdict
    lab.parse_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        for exp in ("local_max", "oscillation", "max_principle"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main(["exp", exp, "--config", path,
                                 "--out", os.path.join(tmp, exp)])
            assert code in (0, 1, 2, 3), (exp, code)


@st.composite
def radial_configs(draw):
    """(experiment, config) for sharpness or log_family that parse_config
    accepts, eps ladders with repeats and extreme values included."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n))
    mode = draw(st.sampled_from(["strict", "exploratory"]))
    if mode == "strict":
        q = (float(k) if 2 * k > n
             else draw(st.floats(n / 2, 8.0, exclude_min=True)))
    else:
        q = draw(st.sampled_from([n / 2, float(k)]) | st.floats(1.0, 8.0))
    cfg = {"n": n, "k": k, "q": q, "mode": mode}
    exp = draw(st.sampled_from(["sharpness", "log_family"]))
    if draw(st.booleans()):
        cfg["eps_ladder"] = draw(st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=1, max_size=5))
    if exp == "sharpness" and draw(st.booleans()):
        cfg["q_list"] = draw(st.lists(st.floats(1.0, 8.0), min_size=1,
                                      max_size=3))
    return exp, cfg


@settings(deadline=None, max_examples=120)
@given(job=radial_configs())
def test_radial_configs_exit_with_a_code(job):
    exp, cfg = job
    lab.parse_config(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(["exp", exp, "--config", path,
                             "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3), (exp, cfg, code)


class TestUnreadableConfig:
    @pytest.mark.parametrize("command", [["solve"], ["exp", "max_principle"],
                                         ["suite"]])
    @pytest.mark.parametrize("config", ["missing", "directory", "array",
                                        "non_utf8"])
    def test_exits_2(self, capsys, tmp_path, command, config):
        p = tmp_path / "cfg.json"
        if config == "directory":
            p.mkdir()
        elif config == "array":
            p.write_text("[]")
        elif config == "non_utf8":
            p.write_bytes(b"\xff\xfe{}")
        code, err = run_failing(capsys, *command, "--config", str(p),
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert config == "array" or str(p) in err

    def test_process_exit_status(self, tmp_path):
        # main returns the code; the module entry point hands it to sys.exit
        src = str(pathlib.Path(conelab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "conelab.cli", "exp", "max_principle",
             "--config", str(tmp_path / "missing.json"),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestShortEpsLadder:
    # log_family extrapolates along a line through two or more eps, and
    # sharpness extrapolates sup w_eps from its last three
    @pytest.mark.parametrize("exp, cfg", [
        ("log_family", {"n": 4, "k": 2, "q": 2.0, "mode": "exploratory",
                        "eps_ladder": [0.5, 0.5, 0.5]}),
        ("log_family", {"n": 4, "k": 2, "q": 2.0, "mode": "exploratory",
                        "eps_ladder": [0.25]}),
        ("sharpness", {"n": 3, "k": 2, "q": 2.0,
                       "eps_ladder": [0.5, 0.25]}),
    ], ids=["log_repeated", "log_single", "sharpness_two"])
    def test_exits_2_naming_the_field(self, capsys, tmp_path, exp, cfg):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, err = run_failing(capsys, "exp", exp, "--config", str(p),
                                "--out", str(tmp_path / "out"))
        assert code == 2
        assert "field 'eps_ladder': need at least" in err
        assert not (tmp_path / "out").exists()


class TestLogEnvironment:
    # n=4, k=3 takes the optimized rho*_k path; the identity operator has
    # one spectrum, so the lattice needs one optimizer call
    CFG = {"n": 4, "k": 3, "q": 3.0, "h": 0.25,
           "domain": {"kind": "ball", "center": [0.0] * 4, "radius": 1.0},
           "f": {"type": "constant", "params": {"value": 1.0}}}

    def _exp(self, capsys, tmp_path, name):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(self.CFG))
        out = tmp_path / name
        code = cli.main(["exp", "max_principle", "--config", str(p),
                         "--out", str(out)])
        captured = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        return code, captured, files

    def test_debug_records_only_when_set(self, capsys, tmp_path,
                                         monkeypatch):
        logger = logging.getLogger("conelab")
        handlers, level = list(logger.handlers), logger.level
        monkeypatch.delenv("CONELAB_LOG", raising=False)
        code, quiet, files = self._exp(capsys, tmp_path, "unset")
        assert code == 0
        assert "conelab." not in quiet.err
        monkeypatch.setenv("CONELAB_LOG", "debug")
        # the same problem again would be a cache hit with no fd record
        lab.clear_solve_cache()
        code, loud, logged_files = self._exp(capsys, tmp_path, "debug")
        assert code == 0
        assert re.search(r"DEBUG conelab.lab: solve: cache=miss h=0.25 "
                         r"unknowns=\d+\n", loud.err)
        assert "DEBUG conelab.fd: solve: path=bicgstab" in loud.err
        assert re.search(r"rel_res=\S+ elapsed=\d+\.\d{4} wrong_sign=\d+\n",
                         loud.err)
        assert ("DEBUG conelab.green: rho_star_field: k=3 path=optimized "
                "nodes=") in loud.err
        assert re.search(r"nodes=\d+ calls=1 elapsed=\d+\.\d{4} "
                         r"spectra=1\n", loud.err)
        assert loud.out == quiet.out
        assert logged_files == files and "report.json" in files
        assert logger.handlers == handlers and logger.level == level

    def test_unknown_level_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CONELAB_LOG", "verbose")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(self.CFG))
        code, err = run_failing(capsys, "exp", "max_principle", "--config",
                                str(p), "--out", str(tmp_path / "bad"))
        assert code == 2
        assert "CONELAB_LOG" in err


class TestParserReuse:
    def test_commands_in_one_process_match_fresh_processes(self, capsys,
                                                          tmp_path):
        # main reuses one parser per process; each command must print and
        # exit as it does in a process of its own
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 4, "k": 2, "q": 2.0,
                                 "mode": "exploratory",
                                 "eps_ladder": [0.125, 0.0625]}))
        commands = [["cone", "rho-star", "--lambda", "1,1,3", "--k", "2"],
                    ["exp", "log_family", "--config", str(p),
                     "--out", str(tmp_path / "out")],
                    ["no-such-command"]]
        src = str(pathlib.Path(conelab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        parser = cli.build_parser()
        for argv in commands:
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse's usage error
                code = exc.code
            out = capsys.readouterr().out
            proc = subprocess.run([sys.executable, "-m", "conelab.cli",
                                   *argv], env=env, capture_output=True,
                                  text=True)
            assert (code, out) == (proc.returncode, proc.stdout), argv
            assert cli.build_parser() is parser
        assert code == 2


# sharpness, log_family and a k = 3 rho*_k take no quadrature and no SLSQP,
# so a fresh interpreter never loads scipy.integrate or scipy.optimize for
# them; cone dual at 3 <= k < n still runs SLSQP
LAZY_SCIPY = """
import io, json, os, sys
from contextlib import redirect_stdout
import conelab.cli as cli

def run(*argv):
    with redirect_stdout(io.StringIO()) as buf:
        code = cli.main(list(argv))
    return code, buf.getvalue()

def loaded():
    return sorted(m for m in ("scipy.integrate", "scipy.optimize")
                  if m in sys.modules)

tmp = sys.argv[1]
codes = []
for exp, cfg in [("sharpness", {"n": 4, "k": 3, "q": 3.0,
                                "q_list": [1.5, 3.0],
                                "mode": "exploratory"}),
                 ("log_family", {"n": 4, "k": 2, "q": 2.0,
                                 "mode": "exploratory"})]:
    path = os.path.join(tmp, exp + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    codes.append(run("exp", exp, "--config", path,
                     "--out", os.path.join(tmp, exp))[0])
codes.append(run("cone", "rho-star", "--lambda", "1,1.2,0.9,1.4,1.1",
                 "--k", "3")[0])
before = loaded()
code, out = run("cone", "dual", "--lambda", "1,0.5,2,1.5,1.2", "--k", "3")
from conelab import radial, symcone
import scipy.integrate, scipy.optimize
print(json.dumps({"codes": codes, "before": before, "dual": [code, out],
                  "quad": radial.quad is scipy.integrate.quad,
                  "minimize": symcone.minimize is scipy.optimize.minimize}))
"""


def test_scipy_integrate_and_optimize_load_on_first_use(tmp_path):
    src = str(pathlib.Path(conelab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LAZY_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["before"] == []
    code, out = got["dual"]
    assert code == 0 and json.loads(out)["member"] is True
    assert got["quad"] and got["minimize"]
