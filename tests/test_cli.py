import json
import logging
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

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

    def test_malformed_drift_exits_2(self, capsys, tmp_path):
        cfg = {"n": 2, "k": 2, "q": 2.0, "h": 0.125,
               "domain": {"kind": "ball", "center": [0, 0], "radius": 1.0},
               "operator": {"type": "constant", "matrix": [[1, 0], [0, 1]],
                            "b": [1.0, 2.0, 3.0]}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = cli.main(["solve", "--config", str(p),
                         "--out", str(tmp_path / "sol")])
        assert code == 2
        assert "operator.b" in capsys.readouterr().err

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
                 "ValueError: explicit-constant mode requires k > n/2")]
        assert captured.err == ("error: explicit-constant mode requires "
                                "k > n/2\n")
        assert (tmp_path / "suite" / "lg" / "report.json").exists()

    def test_bad_battery(self, capsys, tmp_path):
        p = tmp_path / "battery.json"
        p.write_text(json.dumps({"experiments": [{"name": "x"}]}))
        code, _ = run_failing(capsys, "suite", "--config", str(p),
                              "--out", str(tmp_path))
        assert code == 2


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
        assert re.search(r"distinct=1 calls=1 elapsed=\d+\.\d{4} "
                         r"spectrum=declared\n", loud.err)
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
