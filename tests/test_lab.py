import json
import os
import pathlib
import re
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conelab import cli, fd, lab
from conelab.symcone import NumericError


INF = float("inf")


def ball_dict(n, r=1.0):
    return {"kind": "ball", "center": [0.0] * n, "radius": r}


LOG_JOB = {"exp": "log_family", "name": "lg", "n": 4, "k": 2, "q": 2.0,
           "mode": "exploratory", "eps_ladder": [0.125, 0.0625, 0.03125]}
# a solve that fails on both paths (break_solvers): NumericError
UNSOLVED_JOB = {"exp": "max_principle", "name": "unsolved", "n": 2, "k": 2,
                "q": 2.0, "h": 0.125}
# explicit-constant mode needs k > n/2: ValueError once the job runs
LOW_K_JOB = {"exp": "max_principle", "name": "low_k", "n": 4, "k": 2,
             "q": 2.0, "mode": "exploratory"}
# the ball-only experiments given a box: ValueError naming the domain
BOX_JOBS = [{"exp": exp, "name": f"{exp}_box", "n": 3, "k": 2, "q": 2.0,
             "h": [0.25], "domain": {"kind": "box", "lo": [-1.0] * 3,
                                    "hi": [1.0] * 3}}
            for exp in ("local_max", "oscillation", "w22")]
NO_ALPHA_JOB = {"exp": "max_principle", "name": "no_alpha", "n": 3, "k": 2,
                "q": 2.0, "operator": {"type": "gilbarg_serrin"}}
# eps = 1 makes log_family divide by log 1 = 0
EPS_ONE_JOB = {**LOG_JOB, "name": "eps_one", "eps_ladder": [1.0, 0.5, 0.25]}
# a radial experiment given a lattice domain: ValueError naming the domain
LOG_BOX_JOB = {**LOG_JOB, "name": "log_box",
               "domain": {"kind": "box", "lo": [0.0] * 4, "hi": [5.0] * 4}}


def break_solvers(monkeypatch):
    """BiCGSTAB stops without converging and spsolve returns NaN, as on a
    singular system, so every solve raises NumericError."""
    monkeypatch.setattr(fd, "bicgstab",
                        lambda A, b, **kw: (np.zeros_like(b), 1))
    monkeypatch.setattr(fd, "spsolve", lambda A, b: np.full_like(b, np.nan))


@pytest.fixture(autouse=True)
def echo_round_trip(monkeypatch):
    """Every config a test here parses must come back unchanged from its
    echo: parse_config(cfg.to_dict()).to_dict() == cfg.to_dict()."""
    parse = lab.parse_config

    def checked(d):
        cfg = parse(d)
        assert parse(cfg.to_dict()).to_dict() == cfg.to_dict()
        return cfg
    monkeypatch.setattr(lab, "parse_config", checked)


class TestConfigParsing:
    def test_defaults(self):
        cfg = lab.parse_config({"n": 3, "k": 2, "q": 2.0})
        assert cfg.mode == "strict" and not cfg.q_rule_violation

    def test_missing_field(self):
        with pytest.raises(ValueError, match="'q'"):
            lab.parse_config({"n": 3, "k": 2})

    def test_strict_gate_high_k(self):
        # k > n/2 demands q = k
        with pytest.raises(ValueError, match="exponent rule"):
            lab.parse_config({"n": 3, "k": 2, "q": 3.0})

    def test_strict_gate_low_k(self):
        # k <= n/2 demands q > n/2
        with pytest.raises(ValueError, match="exponent rule"):
            lab.parse_config({"n": 4, "k": 2, "q": 2.0})

    def test_exploratory_flags(self):
        cfg = lab.parse_config({"n": 4, "k": 2, "q": 2.0,
                                "mode": "exploratory"})
        assert cfg.q_rule_violation
        assert cfg.to_dict()["q_rule_violation"] is True

    def test_unknown_operator(self):
        with pytest.raises(ValueError, match="operator.type"):
            lab.parse_config({"n": 3, "k": 2, "q": 2.0,
                              "operator": {"type": "mystery"}})

    def test_unknown_f(self):
        with pytest.raises(ValueError, match="f.type"):
            lab.parse_config({"n": 3, "k": 2, "q": 2.0,
                              "f": {"type": "mystery"}})

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            lab.parse_config({"n": 3, "k": 2, "q": 2.0, "mode": "yolo"})

    def test_scalar_h_promoted(self):
        cfg = lab.parse_config({"n": 3, "k": 2, "q": 2.0, "h": 0.125})
        assert cfg.h_ladder == (0.125,)

    @pytest.mark.parametrize("update, field", [
        ({"operator": {"type": "gilbarg_serrin"}}, "operator.alpha"),
        ({"operator": {"type": "constant"}}, "operator.matrix"),
        ({"operator": {"type": "constant", "matrix": np.eye(2).tolist()}},
         "operator.matrix"),
        ({"operator": {"type": "gilbarg_serrin", "alpha": 0.1, "beta": 1}},
         "operator.beta"),
        ({"f": {"type": "constant"}}, "f.params.value"),
        ({"f": {"type": "constant", "params": {"value": "x"}}},
         "f.params.value"),
        ({"f": {"type": "gaussian", "params": {"sigma": 1.0}}},
         "f.params.sigma"),
        ({"f": {"type": "zero", "amp": 1.0}}, "'f'"),
        ({"domain": {"center": [0.0] * 3, "radius": 1.0}}, "domain"),
        ({"domain": {"kind": "ball", "center": [0.0] * 3}}, "domain"),
        ({"domain": ball_dict(2)}, "domain"),
        ({"n": 3.7}, "'n'"),
        ({"h": []}, "'h'"),
        ({"sigma_ladder": []}, "sigma_ladder"),
        ({"eps_ladder": [0.1, -0.05]}, "eps_ladder"),
        ({"mystery": 1}, "mystery"),
        ({"q_rule_violation": True}, "q_rule_violation"),
        ({"mode": "exploratory", "q": 1.5, "q_rule_violation": False},
         "q_rule_violation"),
        ({"eps_ladder": [1.0, 0.5, 0.25]}, "eps_ladder"),
        ({"eps_ladder": [2.0, 0.5, 0.25]}, "eps_ladder"),
        ({"operator": {"type": "constant", "matrix": [
            [1.0, 0.1, 0.0], [0.1000001, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
         "operator.matrix"),
        ({"operator": {"type": "constant", "matrix": [
            [1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
         "operator.matrix"),
        ({"sigma": 0.0}, "field 'sigma'"),
        ({"sigma": -0.5}, "field 'sigma'"),
        ({"sigma": 1.0}, "field 'sigma'"),
        ({"p": 0.5}, "field 'p'"),
        ({"sigma_ladder": [0.25, 1.5]}, "sigma_ladder"),
        ({"seed": 0}, "seed"),
        # JSON's Infinity parses to inf, which no field takes
        ({"q": INF}, "field 'q'"),
        ({"p": INF}, "field 'p'"),
        ({"h": [0.125, INF]}, "field 'h'"),
        ({"q_list": [2.0, INF]}, "field 'q_list'"),
        ({"q_list": [2.0, 0.5]}, "field 'q_list'"),
        ({"domain": {**ball_dict(3), "center": [0.0, INF, 0.0]}},
         "field 'domain': ball needs a finite center"),
        ({"domain": ball_dict(3, INF)}, "field 'domain': ball needs"),
        ({"domain": {"kind": "box", "lo": [-INF] * 3, "hi": [1.0] * 3}},
         "field 'domain': box needs finite"),
        ({"domain": {"kind": "box", "lo": [0.0] * 3, "hi": [1.0, 1.0, INF]}},
         "field 'domain': box needs finite"),
        # the flag is JSON true or false; the rule gives true at q = 1.5
        *(({"mode": "exploratory", "q": 1.5, "q_rule_violation": flag},
           "field 'q_rule_violation': need true or false")
          for flag in ("false", "no", 1)),
        ({"operator": {"type": "constant", "matrix": np.eye(3).tolist(),
                       "c": INF}}, "field 'operator.c'"),
        ({"operator": {"type": "constant", "matrix": np.eye(3).tolist(),
                       "c": [1.0, 2.0]}}, "field 'operator.c'"),
        # operators outside the class the estimates cover
        ({"operator": {"type": "constant", "matrix": np.eye(3).tolist(),
                       "c": 9.0}}, "field 'operator.c': need c <= 0"),
        ({"operator": {"type": "constant", "matrix": [
            [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]]}},
         "field 'operator.matrix': need a symmetric positive definite"),
        ({"operator": {"type": "gilbarg_serrin", "alpha": 1.5}},
         "field 'operator.alpha': need alpha < 1"),
    ])
    def test_misread_field_rejected(self, update, field):
        with pytest.raises(ValueError, match=field):
            lab.parse_config({"n": 3, "k": 2, "q": 2.0, **update})



class TestConstantOperator:
    def test_declared_spectrum_is_the_lattice_spectrum(self):
        # the builder derives the spectrum, which rho_star_field evaluates
        # in place of the lattice one
        A = [[1.0, 0.2, 0.0], [0.2, 1.5, -0.1], [0.0, -0.1, 2.0]]
        op = {"type": "constant", "matrix": A}
        grid = fd.build_grid(fd.Domain.ball(np.zeros(3), 1.0), 0.25)
        coeff = lab.OPERATORS["constant"].build(3, op)(grid)
        lattice = fd.CoeffField(grid, coeff.A)
        assert np.array_equal(lattice.spectra, coeff.spectra)
        assert np.array_equal(lattice.row, coeff.row)

    def test_potential_reaches_the_solve(self):
        A, c = [[1.0, 0.0], [0.0, 1.5]], -3.0
        base = {"n": 2, "k": 2, "q": 2.0, "h": 0.125,
                "domain": ball_dict(2),
                "f": {"type": "constant", "params": {"value": 4.0}}}
        plain = lab.parse_config({**base, "operator": {
            "type": "constant", "matrix": A}})
        full = lab.parse_config({**base, "operator": {
            "type": "constant", "matrix": A, "c": c}})
        grid, _, f, u = lab._solve(full, 0.125)
        _, _, _, u_plain = lab._solve(plain, 0.125)
        zero = fd.boundary_field(grid, lambda x: np.zeros(x.shape[:-1]))
        ref = fd.solve_dirichlet(fd.constant_coeff(A, c)(grid), f, zero)
        assert np.allclose(u.values, ref.values, rtol=0, atol=1e-12)
        diff = np.max(np.abs(u.values - u_plain.values))
        assert diff > 0.01 * np.max(np.abs(u_plain.values))


class TestDeclaredSpectrum:
    """Every field coeff_builder builds carries the spectrum its fd
    builder derives; per-node eigvalsh stays the oracle."""

    @pytest.mark.parametrize("n, op", [
        (3, {"type": "identity"}),
        (3, {"type": "constant", "matrix": [
            [1.0, 0.2, -0.3], [0.2, 1.5, -0.1], [-0.3, -0.1, 2.0]]}),
    ] + [(n, {"type": "gilbarg_serrin", "alpha": alpha})
         for n in (3, 4, 5) for alpha in (-0.3, 0.25)],
        ids=lambda v: (f"{v['type']}{v.get('alpha', '')}"
                       if isinstance(v, dict) else f"n{v}"))
    def test_declared_spectrum_matches_eigvalsh(self, n, op):
        cfg = lab.parse_config({"n": n, "k": n, "q": float(n), "h": 0.25,
                                "operator": op})
        grid = fd.build_grid(fd.Domain.ball(np.zeros(n), 1.0), 0.25)
        coeff = lab.coeff_builder(cfg)(grid)
        assert coeff.spectra.shape == (1, n)
        assert coeff.row.strides == (0,) and np.all(coeff.row == 0)
        lattice = np.linalg.eigvalsh(coeff.A)[:, ::-1]
        ulp = np.spacing(np.abs(coeff.spectra).max())
        assert np.abs(lattice - coeff.spectra).max() <= 8 * ulp

    def test_one_optimizer_call_per_lattice(self, monkeypatch):
        from conelab import green, symcone
        cfg = lab.parse_config({"n": 4, "k": 3, "q": 3.0, "operator": {
            "type": "gilbarg_serrin", "alpha": -0.3}})
        grid = fd.build_grid(fd.Domain.ball(np.zeros(4), 1.0), 0.25)
        coeff = lab.coeff_builder(cfg)(grid)
        want = symcone.rho_star(coeff.spectra[0], 3)
        calls, real = [], symcone._barrier_newton

        def counted(a, k):
            calls.append(a)
            return real(a, k)

        monkeypatch.setattr(symcone, "_barrier_newton", counted)
        vals = green.rho_star_field(coeff, 3, grid.interior)
        assert len(calls) == 1 and len(vals) == 704
        assert np.all(vals == want)

    def test_origin_node_keeps_the_lattice_spectrum(self):
        # A(0) = I on a lattice through the origin: a second row there
        cfg = lab.parse_config({"n": 3, "k": 2, "q": 2.0, "operator": {
            "type": "gilbarg_serrin", "alpha": 0.25}})
        box = fd.Domain.box([-1.0] * 3, [1.0] * 3)
        grid = fd.build_grid(box, 0.25)
        coeff = lab.coeff_builder(cfg)(grid)
        from conelab.symcone import gs_spectrum
        assert np.array_equal(coeff.spectra, [gs_spectrum(3, 0.25)[::-1],
                                              np.ones(3)])
        origin = np.all(grid.points(grid.interior) == 0.0, axis=1)
        assert np.array_equal(coeff.row, origin)
        assert np.array_equal(np.linalg.eigvalsh(coeff.A[origin]),
                              [np.ones(3)])


class TestSlopeFitting:
    def test_exact_power_law(self):
        xs = 2.0 ** -np.arange(3, 11)
        ys = 3.1 * xs ** 1.7
        slope, hw = lab.fit_loglog(xs, ys)
        assert np.isclose(slope, 1.7, atol=1e-12) and hw < 1e-12

    def test_uses_last_points(self):
        xs = 2.0 ** -np.arange(0, 10)
        ys = xs ** 2.0
        ys[0] *= 100.0  # contaminate the coarsest point only
        slope, hw = lab.fit_loglog(xs, ys, npts=5)
        assert np.isclose(slope, 2.0, atol=1e-12)

    def test_two_points(self):
        slope, hw = lab.fit_loglog([1.0, 2.0], [1.0, 4.0])
        assert np.isclose(slope, 2.0) and hw == 0.0

    def test_repeated_x_rejected(self):
        with pytest.raises(ValueError, match="two distinct points"):
            lab.fit_loglog([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])

    def test_aitken_geometric(self):
        seq = [1 - 0.5 ** j for j in range(1, 8)]
        assert np.isclose(lab.aitken_limit(seq), 1.0, atol=1e-12)


class TestSharpness:
    def test_slopes_match_exponent_formula(self):
        rep = lab.run_one("sharpness", {
            "name": "s", "n": 3, "k": 2, "q": 2.0,
            "q_list": [1.5, 2.0], "mode": "exploratory",
            "eps_ladder": [2.0 ** -j for j in range(3, 9)]})
        assert rep.passed
        got = {s.label: s.slope for s in rep.slopes}
        assert np.isclose(got["norm_decay_q=1.5"], 0.5, atol=1e-10)
        assert np.isclose(got["norm_decay_q=2"], 0.0, atol=1e-10)

    @pytest.mark.parametrize("n, k", [(3, 2), (4, 3), (5, 4)])
    def test_sup_is_one_minus_the_core_constant(self, n, k):
        # sup w_eps = 1 - u_eps(0), read from the profile, is the closed
        # form bit for bit on the default ladder
        alpha = 2.0 - n / k
        for eps in lab.ExperimentConfig.eps_ladder:
            _, sup_w = lab.sharpness_family(n, k, eps)
            assert type(sup_w) is float
            assert sup_w == 1.0 - (1.0 - alpha / 2.0) * eps ** alpha

    def test_requires_high_k(self):
        with pytest.raises(ValueError, match="k > n/2"):
            lab.run_one("sharpness", {"name": "s", "n": 4, "k": 2,
                                      "q": 3.0, "mode": "exploratory"})

    @pytest.mark.parametrize("q_list", [[1.5, 1.5], [1.5, 1.5000001]])
    def test_q_list_alike_under_g_rejected_before_quadrature(
            self, monkeypatch, q_list):
        # both entries would write norm_vs_eps_q1.5.csv and slope_q=1.5
        norms = []
        monkeypatch.setattr(lab.radial, "mollified_lq_norm",
                            lambda *args: norms.append(args))
        with pytest.raises(ValueError, match="field 'q_list': values must "
                                             "differ") as exc:
            lab.run_one("sharpness", {"n": 3, "k": 2, "q": 2.0,
                                      "q_list": q_list,
                                      "mode": "exploratory"})
        assert lab.error_exit_code(exc.value) == 2
        assert norms == []


class TestLogFamily:
    def test_flat_norm_and_divergence(self):
        rep = lab.run_one("log_family", {
            "name": "l", "n": 4, "k": 2, "q": 2.0, "mode": "exploratory",
            "eps_ladder": [2.0 ** -j for j in range(3, 9)]})
        assert rep.passed
        norms = [r["norm"] for r in rep.runs]
        assert np.ptp(norms) < 1e-9 * norms[0]
        infs = [r["inf"] for r in rep.runs]
        assert infs[-1] < infs[0]  # diverges downward

    def test_inf_is_the_core_constant(self):
        # inf u_eps = u_eps(0), read from the profile, is log eps - 1/2 bit
        # for bit on the default ladder
        rep = lab.run_one("log_family", {"n": 4, "k": 2, "q": 2.0,
                                         "mode": "exploratory"})
        eps = lab.ExperimentConfig.eps_ladder
        assert [r["eps"] for r in rep.runs] == list(eps)
        assert [r["inf"] for r in rep.runs] == [np.log(e) - 0.5 for e in eps]

    def test_wrong_q_rejected(self):
        with pytest.raises(ValueError, match="field 'q': log family runs at "
                                             "q = n/2"):
            lab.run_one("log_family", {"name": "l", "n": 4, "k": 2,
                                       "q": 3.0, "mode": "exploratory"})


class TestMaxPrinciple:
    def test_zero_f_zero_margin(self):
        rep = lab.run_one("max_principle", {
            "name": "m", "n": 3, "k": 2, "q": 2.0, "h": [0.125],
            "domain": ball_dict(3), "f": {"type": "zero"}})
        assert rep.passed
        assert rep.runs[0]["lhs"] <= 0.0

    def test_low_k_rejected(self):
        with pytest.raises(ValueError, match="field 'k': explicit-constant "
                                             "mode requires k > n/2"):
            lab.run_one("max_principle", {"name": "m", "n": 4, "k": 2,
                                          "q": 3.0, "mode": "exploratory",
                                          "h": [0.125]})

    def test_default_domain_echoed(self):
        cfg = {"name": "m", "n": 3, "k": 2, "q": 2.0, "h": [0.125]}
        rep = lab.run_one("max_principle", cfg)
        assert rep.config_echo["domain"] == ball_dict(3)
        assert "domain" not in cfg and rep.wall_time > 0.0


class TestOscillation:
    def test_quadratic_decay(self):
        rep = lab.run_one("oscillation", {
            "name": "o", "n": 2, "k": 2, "q": 2.0, "h": [1 / 64],
            "domain": ball_dict(2),
            "f": {"type": "constant", "params": {"value": 4.0}}})
        assert rep.passed
        assert abs(rep.slopes[0].slope - 2.0) < 0.05

    def test_constant_solution_trivial(self):
        rep = lab.run_one("oscillation", {
            "name": "o", "n": 2, "k": 2, "q": 2.0, "h": [0.125],
            "domain": ball_dict(2), "f": {"type": "zero"}})
        assert rep.passed
        assert all(r["osc"] <= 1e-12 for r in rep.runs)

    @pytest.mark.parametrize("h", [{"h": [0.125, 0.0625]}, {}],
                             ids=["ladder", "default"])
    def test_one_spacing(self, h):
        with pytest.raises(ValueError, match="field 'h'"):
            lab.run_one("oscillation", {"n": 2, "k": 2, "q": 2.0, **h})


class TestW22:
    @pytest.mark.parametrize("n, k, name", [(4, 2, "n"), (3, 3, "k"),
                                            (4, 3, "n")])
    def test_wrong_dimension_or_k_names_the_field(self, n, k, name):
        with pytest.raises(ValueError, match=f"field '{name}': w22 experiment "
                                             f"requires n = 3, k = 2") as exc:
            lab.run_one("w22", {"n": n, "k": k, "q": 2.0, "h": 0.125,
                                "mode": "exploratory"})
        assert lab.error_exit_code(exc.value) == 2

    @pytest.mark.parametrize("h", [0.25, [0.125, 0.25]],
                             ids=["coarse", "coarse-in-ladder"])
    def test_coarse_spacing_names_h(self, h):
        with pytest.raises(ValueError, match="field 'h': spacing 0.25 "
                                             "leaves no node") as exc:
            lab.run_one("w22", {"n": 3, "k": 2, "q": 2.0, "h": h})
        assert lab.error_exit_code(exc.value) == 2

    def test_coarse_spacing_rejected_before_any_solve(self, monkeypatch):
        calls = count_solves(monkeypatch)
        with pytest.raises(ValueError, match="field 'h': spacing 0.25"):
            lab.run_one("w22", {"n": 3, "k": 2, "q": 2.0,
                                "h": [0.125, 0.25]})
        assert calls == []


class TestInnerBall:
    # a ball of 0.05 R about the centre holds no node at h = 1/8, whose
    # nearest nodes lie sqrt(3)/16 R from it
    @pytest.mark.parametrize("exp, fields", [
        ("local_max", {"sigma": 0.05, "h": [1 / 24, 1 / 8]}),
        ("oscillation", {"sigma_ladder": [0.05, 0.5], "h": [1 / 8]}),
    ], ids=["local_max", "oscillation"])
    def test_empty_inner_ball_rejected_before_any_solve(self, monkeypatch,
                                                        exp, fields):
        calls = count_solves(monkeypatch)
        name = next(iter(fields))
        with pytest.raises(ValueError, match=f"field '{name}': spacing 0.125 "
                                             f"leaves no node within 0.05 R"
                           ) as exc:
            lab.run_one(exp, {"n": 3, "k": 2, "q": 2.0, **fields})
        assert calls == []
        assert lab.error_exit_code(exc.value) == 2


def count_solves(monkeypatch, fail_first=False):
    """The spacing of each fd.solve_dirichlet call from now on; with
    fail_first, the first call raises NumericError."""
    calls, solve = [], fd.solve_dirichlet

    def spy(coeff, f, g):
        calls.append(f.grid.h)
        if fail_first and len(calls) == 1:
            raise NumericError("solve residual too large: 1.00e-02")
        return solve(coeff, f, g)
    monkeypatch.setattr(fd, "solve_dirichlet", spy)
    return calls


def written(rep, out_dir):
    """{file name: bytes} of the files write_report leaves for rep."""
    lab.write_report(rep, str(out_dir))
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# one problem: n = 3, the gilbarg_serrin operator and a gaussian source,
# read by experiments that differ in everything else
PROBLEM = {"n": 3, "k": 2, "q": 2.0, "domain": ball_dict(3),
           "operator": {"type": "gilbarg_serrin", "alpha": -0.3},
           "f": {"type": "gaussian", "params": {"amp": 2.0, "width": 0.4}}}
# a small problem at h = 0.25 whose key fields the tests below vary
SMALL = {"n": 2, "k": 2, "q": 2.0, "mode": "exploratory",
         "domain": ball_dict(2),
         "operator": {"type": "constant", "matrix": [[1.0, 0.0],
                                                     [0.0, 2.0]]},
         "f": {"type": "constant", "params": {"value": 1.0}}}


class TestSolveCache:
    @pytest.mark.filterwarnings("ignore::conelab.fd.MonotonicityWarning")
    @pytest.mark.parametrize("h", [1 / 8, 1 / 12], ids=["h8", "h12"])
    def test_one_solve_per_problem(self, monkeypatch, tmp_path, h):
        cfg = {**PROBLEM, "h": [h]}
        calls = count_solves(monkeypatch)
        warm = {exp: written(lab.run_one(exp, cfg), tmp_path / "warm" / exp)
                for exp in ("oscillation", "max_principle")}
        assert calls == [h]
        for exp, files in warm.items():
            lab.clear_solve_cache()
            cold = written(lab.run_one(exp, cfg), tmp_path / "cold" / exp)
            assert cold == files and "report.json" in files
        assert len(calls) == 3

    @pytest.mark.parametrize("change, hit", [
        ({"domain": ball_dict(2, 0.9)}, False),
        ({"h": 0.2}, False),
        ({"operator": {"type": "constant",
                       "matrix": [[1.0, 0.0], [0.0, 2.5]]}}, False),
        ({"operator": {"type": "constant",
                       "matrix": [[1.0, 0.0], [0.0, 2.0]], "c": -1.0}},
         False),
        ({"f": {"type": "constant", "params": {"value": 2.0}}}, False),
        ({"k": 1}, True),
        ({"q": 3.0}, True),
        ({"p": 3.0}, True),
        ({"sigma": 0.3}, True),
        ({"sigma_ladder": [0.3, 0.6]}, True),
        ({"name": "other"}, True),
        ({"mode": "strict"}, True),
    ], ids=lambda v: v if isinstance(v, bool) else "-".join(v))
    def test_key_is_the_dirichlet_problem(self, monkeypatch, caplog, change,
                                          hit):
        def solve(d):
            cfg = lab.parse_config(d)
            return lab._solve(cfg, cfg.h_ladder[0])
        base = {**SMALL, "h": 0.25}
        _, _, _, u = solve(base)
        calls = count_solves(monkeypatch)
        with caplog.at_level("DEBUG", logger="conelab.lab"):
            grid, _, _, u2 = solve({**base, **change})
        assert len(calls) == (not hit)
        assert (u2 is u) == hit
        (rec,) = [r for r in caplog.records if r.name == "conelab.lab"]
        assert rec.getMessage() == (
            f"solve: cache={'hit' if hit else 'miss'} h={grid.h:g} "
            f"unknowns={np.count_nonzero(grid.interior)}")

    def test_numpy_param_keys_as_its_list(self):
        cfg = lab.parse_config(SMALL)
        arrays = replace(cfg, operator={"type": "constant",
                                        "matrix": np.diag([1.0, 2.0])})
        assert lab._problem_key(arrays, 0.25) == lab._problem_key(cfg, 0.25)

    def test_hit_rebuilds_coefficients_and_source(self):
        cfg = lab.parse_config({**SMALL, "h": 0.25})
        grid, coeff, f, u = lab._solve(cfg, 0.25)
        grid2, coeff2, f2, u2 = lab._solve(cfg, 0.25)
        assert grid2 is grid and u2 is u
        assert coeff2 is not coeff and f2 is not f
        assert np.array_equal(coeff2.A, coeff.A)
        assert np.array_equal(f2.values, f.values)

    @pytest.mark.parametrize("name", ["values", "interior", "boundary",
                                      "active", "axes"])
    def test_cached_arrays_read_only(self, name):
        cfg = lab.parse_config({**SMALL, "h": 0.25})
        grid, _, _, u = lab._solve(cfg, 0.25)
        arr = u.values if name == "values" else getattr(grid, name)
        arr = arr[0] if name == "axes" else arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]

    def test_least_recently_used_evicted(self, monkeypatch):
        cfg = lab.parse_config(SMALL)
        hs = [0.25, 0.2, 1 / 6, 1 / 7, 1 / 8]
        assert len(hs) == lab.SOLVE_CACHE_SIZE + 1
        calls = count_solves(monkeypatch)
        for h in hs + [hs[-1]]:
            lab._solve(cfg, h)
        assert len(calls) == 5
        lab._solve(cfg, hs[0])      # evicted by the fifth problem
        assert len(calls) == 6
        # a hit makes hs[2] the most recent, so a new problem evicts hs[3]
        lab._solve(cfg, hs[2])
        lab._solve(cfg, 1 / 9)
        lab._solve(cfg, hs[2])
        assert len(calls) == 7
        lab._solve(cfg, hs[3])
        assert len(calls) == 8

    def test_raising_solve_not_cached(self, monkeypatch):
        cfg = lab.parse_config({**SMALL, "h": 0.25})
        calls = count_solves(monkeypatch, fail_first=True)
        with pytest.raises(NumericError):
            lab._solve(cfg, 0.25)
        lab._solve(cfg, 0.25)
        lab._solve(cfg, 0.25)
        assert len(calls) == 2

    def test_concurrent_solves(self):
        # more threads than cores and more problems than cache slots, with
        # frequent thread switches: every caller of a problem gets its
        # solution and the cache never outgrows its bound
        cfg = lab.parse_config(SMALL)
        hs = [0.25, 0.2, 1 / 6, 1 / 7, 1 / 8, 1 / 9]
        ref = {h: lab._solve(cfg, h)[3].values for h in hs}
        lab.clear_solve_cache()
        errors, sizes = [], []

        def work(i):
            try:
                for j in range(12):
                    h = hs[(i + j) % len(hs)]
                    assert np.array_equal(lab._solve(cfg, h)[3].values,
                                          ref[h])
                    sizes.append(len(lab._solved))
            except Exception as exc:    # reported by the main thread
                errors.append(exc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(sizes) == 8 * 12
        assert max(sizes) <= lab.SOLVE_CACHE_SIZE

    def test_hit_emits_no_warning_again(self):
        # the cross stencil has wrong-sign weights for this matrix
        cfg = lab.parse_config({**SMALL, "h": 0.125, "operator": {
            "type": "constant", "matrix": [[1.0, 0.2], [0.2, 1.5]]}})
        with pytest.warns(fd.MonotonicityWarning):
            lab._solve(cfg, 0.125)
        with warnings.catch_warnings():
            warnings.simplefilter("error", fd.MonotonicityWarning)
            lab._solve(cfg, 0.125)

    @pytest.mark.filterwarnings("ignore::conelab.fd.MonotonicityWarning")
    def test_suite_on_one_problem_matches_run_one(self, tmp_path):
        jobs = [{**PROBLEM, "h": [1 / 8], "exp": exp, "name": exp}
                for exp in ("oscillation", "max_principle")]
        reports, code = lab.run_suite({"experiments": jobs},
                                      out_dir=str(tmp_path / "suite"))
        assert code == 0
        for rep, job in zip(reports, jobs):
            lab.clear_solve_cache()
            cfg = {key: v for key, v in job.items() if key != "exp"}
            alone = written(lab.run_one(job["exp"], cfg),
                            tmp_path / "alone" / rep.name)
            suite = tmp_path / "suite" / rep.name
            assert alone == {p.name: p.read_bytes()
                             for p in sorted(suite.iterdir())}


# per experiment, a quick config that breaks the exponent rule, so that
# the echo also carries q_rule_violation
QUICK = {
    "max_principle": {"n": 3, "k": 2, "q": 3.0, "h": 0.25},
    "w22": {"n": 3, "k": 2, "q": 3.0, "h": 0.125},
    "local_max": {"n": 3, "k": 2, "q": 3.0, "h": 0.25},
    "oscillation": {"n": 3, "k": 2, "q": 3.0, "h": 0.25},
    "sharpness": {"n": 3, "k": 2, "q": 1.5,
                  "eps_ladder": [0.125, 0.0625, 0.03125]},
    "log_family": {"n": 4, "k": 2, "q": 2.0,
                   "eps_ladder": [0.125, 0.0625, 0.03125]},
}


class TestFieldsRead:
    @pytest.mark.parametrize("name, field, value", [
        ("max_principle", "sigma", 0.5),
        ("w22", "eps_ladder", [0.5]),
        ("local_max", "sigma_ladder", [0.5]),
        ("oscillation", "p", 2.0),
        ("sharpness", "h", 0.25),
        ("log_family", "q_list", [2.0]),
    ])
    def test_unread_field_rejected(self, name, field, value):
        cfg = {**QUICK[name], "mode": "exploratory", field: value}
        with pytest.raises(ValueError, match=f"field '{field}': {name} "
                                             f"does not read it"):
            lab.run_one(name, cfg)

    @pytest.mark.parametrize("name", sorted(lab.EXPERIMENTS))
    def test_seed_rejected(self, name):
        cfg = {**QUICK[name], "mode": "exploratory", "seed": 0}
        with pytest.raises(ValueError, match="unknown config field 'seed'"):
            lab.run_one(name, cfg)

    @pytest.mark.parametrize("name", sorted(lab.EXPERIMENTS))
    def test_echo_holds_the_fields_read(self, name):
        rep = lab.run_one(name, {**QUICK[name], "mode": "exploratory"})
        reads = lab.EXPERIMENTS[name][1]
        assert sorted(rep.config_echo) == sorted(lab.COMMON + reads)
        again = lab.run_one(name, rep.config_echo)
        assert again.config_echo == rep.config_echo
        assert again.runs == rep.runs


def readme_table(head, after=""):
    """First-cell name -> cells of the README table with header head, the
    first such table after the text after."""
    text = (pathlib.Path(__file__).resolve().parents[1]
            / "README.md").read_text()
    text = text[text.index(after):]
    lines = text[text.index(head):].splitlines()[2:]
    rows = [line.split(" | ") for line in
            lines[:lines.index("")]]
    return {re.fullmatch(r"\| `(\w+)`", row[0]).group(1): row[1:]
            for row in rows}


def readme_config_table():
    """field -> 'read by' cell of the README config table."""
    return {key: cells[1] for key, cells in
            readme_table("| field | default | read by | meaning |").items()}


def test_readme_config_table_matches_vocabulary():
    table = readme_config_table()
    assert sorted(table) == sorted(lab.CONFIG_KEYS)
    for key, cell in table.items():
        if key in lab.COMMON:
            assert cell == "all", key
            continue
        readers = {name for name, (_, reads, _) in lab.EXPERIMENTS.items()
                   if key in reads}
        if key in lab.LATTICE:
            readers.add("solve")
        assert set(re.findall(r"`(\w+)`", cell)) == readers, key


@pytest.mark.parametrize("after, table", [
    ("Operator types", lab.OPERATORS), ("Source types", lab.SOURCES)])
def test_readme_param_tables_match_vocabulary(after, table):
    # a documented param is the backticked name that opens an item of the
    # required or optional cell; parentheses hold its shape or default
    rows = readme_table("| type | required | optional |", after)
    assert sorted(rows) == sorted(table)
    for name, (required, optional) in rows.items():
        for cell, params in ((required, table[name].required),
                             (optional, table[name].optional)):
            items = re.sub(r"\([^)]*\)", "", cell.rstrip(" |"))
            assert re.findall(r"(?:^|, )`(\w+)`", items) == list(params), \
                (name, cell)


class TestRunSuite:
    def test_empty_battery(self, tmp_path):
        reports, code = lab.run_suite({"experiments": []},
                                      out_dir=str(tmp_path))
        assert reports == [] and code == 0

    def test_failing_verdict_sets_exit_code(self, tmp_path):
        # an absurd tolerance on a passing experiment cannot fail, so use
        # a sharpness config whose ladder is too short to fit the slope at
        # the wrong q
        battery = {"experiments": [
            {"exp": "sharpness", "name": "bad", "n": 3, "k": 2, "q": 1.2,
             "mode": "exploratory",
             "eps_ladder": [0.4, 0.2, 0.1, 0.05, 0.025],
             "q_list": [1.2]}]}
        reports, code = lab.run_suite(battery, out_dir=str(tmp_path))
        # report retained on disk regardless of verdict
        assert (tmp_path / "bad" / "report.json").exists()
        assert code == (0 if reports[0].passed else 1)

    def test_reports_and_plots_written(self, tmp_path):
        battery = {"experiments": [
            {"exp": "log_family", "name": "lg", "n": 4, "k": 2, "q": 2.0,
             "mode": "exploratory",
             "eps_ladder": [0.125, 0.0625, 0.03125]}]}
        reports, code = lab.run_suite(battery, out_dir=str(tmp_path))
        assert code == 0
        d = json.loads((tmp_path / "lg" / "report.json").read_text())
        assert set(d) == {"name", "config", "runs", "slopes", "verdicts"}
        plot = (tmp_path / "lg" / "norm_vs_eps.csv").read_text()
        assert plot.startswith("#")

    @pytest.mark.parametrize("bad, code, error", [
        (UNSOLVED_JOB, 3, "NumericError: solve residual too large"),
        (LOW_K_JOB, 2,
         "ValueError: field 'k': explicit-constant mode requires k > n/2"),
        *[(job, 2, "ValueError: field 'domain'") for job in BOX_JOBS],
        (NO_ALPHA_JOB, 2, "ValueError: field 'operator.alpha'"),
        (EPS_ONE_JOB, 2, "ValueError: field 'eps_ladder'"),
        (LOG_BOX_JOB, 2, "ValueError: field 'domain'"),
    ])
    def test_raising_job_keeps_other_reports(self, tmp_path, monkeypatch,
                                             bad, code, error):
        break_solvers(monkeypatch)
        reports, got = lab.run_suite({"experiments": [LOG_JOB, bad]},
                                     out_dir=str(tmp_path))
        assert got == code
        ok, failed = reports
        assert ok.passed and ok.error is None
        assert (tmp_path / "lg" / "report.json").exists()
        assert failed.name == bad["name"] and not failed.passed
        assert failed.verdicts == [] and failed.error.startswith(error)
        assert not (tmp_path / bad["name"]).exists()

    def test_highest_error_code_wins(self, monkeypatch):
        break_solvers(monkeypatch)
        _, code = lab.run_suite({"experiments": [LOW_K_JOB, UNSOLVED_JOB,
                                                 LOG_JOB]})
        assert code == 3

    def test_malformed_battery(self):
        with pytest.raises(ValueError, match="experiments"):
            lab.run_suite({"jobs": []})
        with pytest.raises(ValueError, match="workers"):
            lab.run_suite({"experiments": [], "workers": 2})
        with pytest.raises(ValueError, match="exp"):
            lab.run_suite({"experiments": [{"name": "x"}]})
        # both unnamed jobs would write to <out>/experiment
        with pytest.raises(ValueError, match=r"experiments\[1\]\.name"):
            lab.run_suite({"experiments": [{"exp": "max_principle"},
                                           {"exp": "log_family"}]})
        for name in ("", ".", "..", "../../escape"):
            with pytest.raises(ValueError, match=r"experiments\[0\]\.name"):
                lab.run_suite({"experiments": [{"exp": "log_family",
                                                "name": name}]})

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            lab.run_one("nope", {"n": 3, "k": 2, "q": 2.0})

    def test_deterministic_csv_output(self, tmp_path):
        battery = {"experiments": [
            {"exp": "sharpness", "name": "d", "n": 3, "k": 2, "q": 2.0,
             "mode": "exploratory",
             "eps_ladder": [0.125, 0.0625, 0.03125], "q_list": [2.0]}]}
        lab.run_suite(battery, out_dir=str(tmp_path / "a"))
        lab.run_suite(battery, out_dir=str(tmp_path / "b"))
        fa = (tmp_path / "a" / "d" / "norm_vs_eps_q2.csv").read_bytes()
        fb = (tmp_path / "b" / "d" / "norm_vs_eps_q2.csv").read_bytes()
        assert fa == fb


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CONELAB_WORKERS", "7")
        assert lab.worker_count() == 7

    def test_env_invalid(self, monkeypatch):
        # the message names the variable and the value it holds
        for value in ("0", "-2", "abc", "", "2.5"):
            monkeypatch.setenv("CONELAB_WORKERS", value)
            with pytest.raises(ValueError, match=re.escape(
                    f"CONELAB_WORKERS must be an integer >= 1, got "
                    f"{value!r}")):
                lab.worker_count()

    def test_env_invalid_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("CONELAB_WORKERS", "abc")
        p = tmp_path / "suite.json"
        p.write_text(json.dumps({"experiments": [{
            "exp": "max_principle", "n": 2, "k": 2, "q": 2.0,
            "h": 0.25}]}))
        assert cli.main(["suite", "--config", str(p), "--out",
                         str(tmp_path / "out")]) == 2
        assert "CONELAB_WORKERS must be an integer >= 1, got 'abc'" in (
            capsys.readouterr().err)

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("CONELAB_WORKERS", raising=False)
        assert lab.worker_count() >= 1

    @pytest.mark.parametrize("cores, workers", [(1, 1), (3, 3), (16, 4)])
    def test_default_follows_cores(self, monkeypatch, cores, workers):
        # the cores the process may run on (its affinity set), as the
        # row-slab matvec counts them, not the machine's CPU count
        monkeypatch.delenv("CONELAB_WORKERS", raising=False)
        monkeypatch.setattr(fd, "CORES", cores)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert lab.worker_count() == workers
