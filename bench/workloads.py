"""The four workloads: inputs drawn from a seed, and the checks that every
pass's outputs must satisfy.

The seed varies operator parameters, source amplitudes and widths, exponents
and query spectra, inside the ranges of the acceptance battery
(tests/test_acceptance.py).  It never varies grid spacings or counts, nor a
value that changes how much work a pass does.

Each workload is a list of steps for the pass child (bench/child.py):
  {"kind": "cli", "argv": [...], "out": <dir or None>}   -> conelab.cli.main
  {"kind": "rho_star", "lam": [...], "k": k}            -> symcone.rho_star
and a check that reads the outputs the steps left on disk.
"""

from __future__ import annotations

import json
import os

import numpy as np

BALL3 = {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
BALL4 = {"kind": "ball", "center": [0.0] * 4, "radius": 1.0}

# mp_battery: ladders end at h=1/12 (about 6,000 unknowns): still the direct
# sparse path, at a size where a pass fits a few times into one run
MP_LADDER = [1 / 8, 1 / 12]
MP_PAIRS = 7
GAUGE_H = [1 / 4]
# SLSQP iterations per lattice node jump with alpha (9.2 at alpha=-0.422,
# 14.1 at -0.474, 17.9 at 0.25), so the lattice operator is fixed and the
# seed varies only its source and the queries
GAUGE_ALPHA = -0.3
GAUGE_QUERIES = 24          # spectra per n; each queried at k=3 and k=2
ORACLE_SAMPLES = 100_000
ORACLE_SEED = 17
FINE_SOLVE_H = 1 / 32
FINE_OSC_H = 1 / 24
FINE_W22_H = [1 / 20, 1 / 24, 1 / 28]
FINE_MP_H = [1 / 24]
# the default eps ladder, pinned so the work does not follow lab's defaults
SHARP_EPS = [2.0 ** -j for j in range(3, 11)]


def _source(rng, kind):
    if kind == "constant":
        return {"type": "constant",
                "params": {"value": float(rng.uniform(2.0, 6.0))}}
    if kind == "gaussian":
        return {"type": "gaussian",
                "params": {"amp": float(rng.uniform(2.0, 5.0)),
                           "width": float(rng.uniform(0.3, 0.6))}}
    return {"type": "radial_power",
            "params": {"amp": float(rng.uniform(1.0, 2.0)),
                       "power": float(rng.uniform(1.0, 2.0))}}


def _operator(rng, kind):
    if kind == "identity":
        return {"type": "identity"}
    if kind == "gilbarg_serrin":
        # in G*_k for n=3 iff alpha <= 2 - 3/k, so in G*_2 and G*_3 here
        return {"type": "gilbarg_serrin",
                "alpha": float(rng.uniform(-0.5, 0.5))}
    m = np.diag(rng.uniform(1.0, 2.0, 3))
    i, j = rng.choice(3, size=2, replace=False)
    m[i, j] = m[j, i] = float(rng.uniform(-0.2, 0.2))
    return {"type": "constant", "matrix": m.tolist()}


def sample_dual2(rng, n, m, tmax=0.9):
    """m spectra in the interior of G*_2 (circular-cone parametrization),
    as criterion 01 of the acceptance suite draws them."""
    a = rng.uniform(0.2, 3.0, m)
    v = rng.normal(size=(m, n))
    v -= v.mean(axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t = rng.uniform(0.0, tmax, m)
    return a[:, None] + (t * a / np.sqrt(n - 1))[:, None] * v


class Workload:
    """Inputs for one seed plus the check of one pass's outputs."""

    name = ""

    def __init__(self, seed, input_dir):
        self.rng = np.random.default_rng(seed)
        self.input_dir = input_dir
        self.steps = []

    def write_config(self, fname, cfg):
        path = os.path.join(self.input_dir, fname)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def exp_step(self, exp, cfg):
        cfg_path = self.write_config(f"{cfg['name']}.json", cfg)
        self.steps.append({"kind": "cli", "out": cfg["name"],
                           "argv": ["exp", exp, "--config", cfg_path]})

    def prepare(self):
        """Reference values computed once per run (outside the passes)."""

    def check(self, results, out_dir):
        """(attempted, failed, messages) for one pass."""
        raise NotImplementedError


def _check_exp(out_dir, label, extra=None):
    """Problems in out_dir/label/report.json: a failed verdict, a negative
    max_principle margin, or whatever extra(report) finds."""
    try:
        with open(os.path.join(out_dir, label, "report.json")) as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{label}: no readable report.json ({exc})"]
    bad = [f"{label}: verdict {v['name']} failed (value {v['value']})"
           for v in rep["verdicts"] if not v["passed"]]
    bad += [f"{label}: margin {r['margin']} < 0 at h={r['h']}"
            for r in rep["runs"] if "margin" in r and not r["margin"] >= 0.0]
    if extra is not None:
        bad += extra(rep)
    return bad


def _tally(problems):
    """(attempted, failed, messages) from one problem list per attempt."""
    return (len(problems), sum(1 for p in problems if p),
            [m for p in problems for m in p])


class MpBattery(Workload):
    """Criterion-06-style battery through `conelab suite`."""

    name = "mp_battery"

    def __init__(self, seed, input_dir):
        super().__init__(seed, input_dir)
        rng = self.rng
        self.names = ["bubble"]
        exps = [{"exp": "max_principle", "name": "bubble", "n": 3, "k": 3,
                 "q": 3.0, "domain": BALL3, "h": MP_LADDER,
                 "f": {"type": "constant", "params": {"value": 6.0}}}]
        ops = ["identity", "gilbarg_serrin", "constant"]
        srcs = ["constant", "gaussian", "radial_power"]
        for i in range(MP_PAIRS):
            k = int(rng.choice([2, 3]))
            name = f"pair{i:02d}"
            exps.append({"exp": "max_principle", "name": name, "n": 3,
                         "k": k, "q": float(k), "domain": BALL3,
                         "h": MP_LADDER,
                         "operator": _operator(rng, ops[i % 3]),
                         "f": _source(rng, srcs[(i + i // 3) % 3])})
            self.names.append(name)
        cfg = self.write_config("battery.json", {"experiments": exps})
        self.steps.append({"kind": "cli", "out": "suite",
                           "argv": ["suite", "--config", cfg]})

    def check(self, results, out_dir):
        suite = os.path.join(out_dir, "suite")
        bad = [_check_exp(suite, name,
                          self._bubble if name == "bubble" else None)
               for name in self.names]
        return _tally(bad)

    @staticmethod
    def _bubble(rep):
        last = rep["runs"][-1]
        bad = []
        if not abs(last["lhs"] - 1.0) <= 0.05:
            bad.append(f"bubble: lhs {last['lhs']} not within 1 +- 0.05")
        if not abs(last["rhs"] - 4.0) <= 0.2:
            bad.append(f"bubble: rhs {last['rhs']} not within 4 +- 0.2")
        return bad


class FineGrid(Workload):
    """Single-threaded iterative path on about 10^5 unknowns."""

    name = "fine_grid"

    def __init__(self, seed, input_dir):
        super().__init__(seed, input_dir)
        rng = self.rng
        base = {"n": 3, "k": 2, "q": 2.0, "domain": BALL3,
                "operator": _operator(rng, "gilbarg_serrin"),
                "f": _source(rng, "gaussian")}
        cfg = self.write_config("solve.json", dict(base, h=[FINE_SOLVE_H]))
        self.steps.append({"kind": "cli", "out": "solve",
                           "argv": ["solve", "--config", cfg]})
        self.exp_step("oscillation", dict(base, name="oscillation",
                                          h=[FINE_OSC_H]))
        self.exp_step("w22", dict(base, name="w22", h=FINE_W22_H))
        self.exp_step("max_principle", dict(base, name="max_principle",
                                            h=FINE_MP_H))

    def check(self, results, out_dir):
        from conelab import serialize
        solve = []
        try:
            u = serialize.field_values_from_binary(
                os.path.join(out_dir, "solve", "u.bin"))
            if not (np.all(np.isfinite(u)) and u.max() > 0.0):
                solve.append("solve: u.bin not finite and positive")
            if os.path.getsize(os.path.join(out_dir, "solve", "u.csv")) == 0:
                solve.append("solve: empty u.csv")
        except (OSError, ValueError) as exc:
            solve.append(f"solve: unreadable field dump ({exc})")
        return _tally([solve] + [_check_exp(out_dir, name) for name in
                                 ("oscillation", "w22", "max_principle")])


class GaugeField(Workload):
    """rho*_k-heavy: an n=4, k=3 lattice plus independent cone queries."""

    name = "gauge_field"

    def __init__(self, seed, input_dir):
        super().__init__(seed, input_dir)
        rng = self.rng
        self.exp_step("max_principle", {
            "name": "max_principle", "n": 4, "k": 3, "q": 3.0,
            "domain": BALL4, "h": GAUGE_H,
            "operator": {"type": "gilbarg_serrin", "alpha": GAUGE_ALPHA},
            "f": _source(rng, "gaussian")})
        self.spectra = [lam for n in (4, 5)
                        for lam in sample_dual2(rng, n, GAUGE_QUERIES)]
        for lam in self.spectra:
            for k in (3, 2):
                self.steps.append({"kind": "rho_star", "lam": lam.tolist(),
                                   "k": k})

    def prepare(self):
        from conelab import symcone
        self.oracle = [symcone.rho_star_oracle(lam, 3, ORACLE_SAMPLES,
                                               seed=ORACLE_SEED)
                       for lam in self.spectra]
        self.closed2 = [symcone.rho_star_closed_form_2(lam)
                        for lam in self.spectra]

    def check(self, results, out_dir):
        problems = [_check_exp(out_dir, "max_principle")]
        queries = iter(results[1:])
        for i, lam in enumerate(self.spectra):
            for k, ref, tol in ((3, self.oracle[i], 1e-3),
                                (2, self.closed2[i], 1e-12)):
                res = next(queries)
                val = res.get("value")
                ok = val is not None and abs(val - ref) <= tol * ref
                problems.append([] if ok else [
                    f"rho_star k={k} lam={lam.tolist()}: "
                    f"{res.get('error') or val} vs reference {ref}"])
        return _tally(problems)


class RadialLadder(Workload):
    """Quadrature-only: the sharpness family and the log family."""

    name = "radial_ladder"

    def __init__(self, seed, input_dir):
        super().__init__(seed, input_dir)
        self.q = float(self.rng.uniform(1.2, 2.0))
        self.exp_step("sharpness", {
            "name": "sharpness", "n": 3, "k": 2, "q": 2.0,
            "q_list": [self.q], "eps_ladder": SHARP_EPS,
            "mode": "exploratory"})
        self.exp_step("log_family", {
            "name": "log_family", "n": 4, "k": 2, "q": 2.0,
            "mode": "exploratory"})

    def check(self, results, out_dir):
        expected = 3.0 / self.q - 3.0 / 2.0

        def slope(rep):
            return [f"sharpness: slope {s['slope']} not within 0.1 of "
                    f"{expected}" for s in rep["slopes"]
                    if not abs(s["slope"] - expected) <= 0.1]
        return _tally([_check_exp(out_dir, "sharpness", slope),
                       _check_exp(out_dir, "log_family")])


WORKLOADS = {w.name: w for w in (MpBattery, FineGrid, GaugeField,
                                 RadialLadder)}
