"""Named numerical experiments over the cone, lattice, and radial modules.

Each experiment consumes an ExperimentConfig, runs a ladder of solves or
quadratures, fits slopes where asymptotics are claimed, and fills the
ExperimentReport that run_one hands it; verdicts are pure functions of the
stored numbers.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import fd, green, radial, serialize, symcone

DEFAULT_H_LADDER = (1 / 8, 1 / 12, 1 / 16)
DEFAULT_EPS_LADDER = tuple(2.0 ** -j for j in range(3, 11))
DEFAULT_SIGMA_LADDER = (0.25, 0.32, 0.40, 0.50, 0.60)


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    target: float
    tol: float

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "value": self.value, "target": self.target, "tol": self.tol}


@dataclass
class SlopeFit:
    label: str
    slope: float
    half_width: float
    expected: float | None = None

    def as_dict(self):
        return {"label": self.label, "slope": self.slope,
                "half_width": self.half_width, "expected": self.expected}


@dataclass
class Run:
    data: dict

    def as_dict(self):
        return dict(self.data)


@dataclass
class ExperimentReport:
    name: str
    config_echo: dict
    runs: list = field(default_factory=list)
    slopes: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    plots: dict = field(default_factory=dict)   # filename -> (comment, cols)
    wall_time: float = 0.0
    exc: Exception | None = None    # what a suite job raised instead

    @property
    def passed(self):
        return self.exc is None and all(v.passed for v in self.verdicts)

    @property
    def error(self):
        """'<ExceptionType>: <message>' of a job that raised, else None."""
        return self.exc and f"{type(self.exc).__name__}: {self.exc}"


def fit_loglog(xs, ys, npts=5):
    """Least-squares slope of log y vs log x on the last npts points, with
    a half-width from the residual standard error."""
    x = np.log(np.asarray(xs, dtype=float)[-npts:])
    y = np.log(np.asarray(ys, dtype=float)[-npts:])
    m = len(x)
    if m < 2:
        raise ValueError("need at least two points for a slope")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    if m == 2:
        return slope, 0.0
    resid = y - y.mean() - slope * xc
    se = float(np.sqrt(resid @ resid / (m - 2) / sxx))
    return slope, se


def aitken_limit(seq):
    """Aitken delta-squared limit estimate from the last three terms of a
    geometrically converging sequence."""
    if len(seq) < 3:
        raise ValueError("need at least three terms")
    s0, s1, s2 = seq[-3], seq[-2], seq[-1]
    denom = s2 - 2 * s1 + s0
    if denom == 0:
        return s2
    return s2 - (s2 - s1) ** 2 / denom


@dataclass
class ExperimentConfig:
    name: str
    n: int
    k: int
    q: float
    domain: fd.Domain | None = None
    h_ladder: tuple = DEFAULT_H_LADDER
    operator: dict = field(default_factory=lambda: {"type": "identity"})
    f: dict = field(default_factory=lambda: {"type": "zero"})
    seed: int = 0
    eps_ladder: tuple = DEFAULT_EPS_LADDER
    q_list: tuple = ()
    sigma_ladder: tuple = DEFAULT_SIGMA_LADDER
    sigma: float = 0.5
    p: float = 2.0
    mode: str = "strict"
    q_rule_violation: bool = False

    def to_dict(self):
        d = {"name": self.name, "n": self.n, "k": self.k, "q": self.q,
             "h": list(self.h_ladder), "operator": dict(self.operator),
             "f": dict(self.f), "seed": self.seed,
             "eps_ladder": list(self.eps_ladder),
             "q_list": list(self.q_list),
             "sigma_ladder": list(self.sigma_ladder),
             "sigma": self.sigma, "p": self.p, "mode": self.mode}
        if self.domain is not None:
            d["domain"] = self.domain.to_dict()
        if self.q_rule_violation:
            d["q_rule_violation"] = True
        return d


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _finite_array(value, name):
    """value as a float array, or ValueError naming the config field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"field '{name}': expected numbers, "
                         f"got {value!r}") from None
    _require(np.all(np.isfinite(arr)),
             f"field '{name}': entries must be finite, got {value!r}")
    return arr


def parse_config(d):
    """Validated ExperimentConfig from a plain JSON dict."""
    _require(isinstance(d, dict), "config must be a JSON object")
    for key in ("n", "k", "q"):
        _require(key in d, f"config field '{key}' is required")
    n, k = int(d["n"]), int(d["k"])
    q = float(d["q"])
    _require(n >= 2, f"field 'n': need n >= 2, got {n}")
    _require(1 <= k <= n, f"field 'k': need 1 <= k <= n, got {k}")
    _require(q >= 1, f"field 'q': need q >= 1, got {q}")
    mode = d.get("mode", "strict")
    _require(mode in ("strict", "exploratory"),
             f"field 'mode': unknown mode {mode!r}")
    # exponent rule: q = k when k > n/2, q > n/2 otherwise
    violation = (q != k) if 2 * k > n else (q <= n / 2)
    if violation and mode == "strict":
        raise ValueError(
            f"fields 'q','k','n': exponent rule violated "
            f"(need q = k for k > n/2, q > n/2 otherwise; "
            f"got n={n}, k={k}, q={q}); use exploratory mode to override")
    dom = fd.Domain.from_dict(d["domain"]) if "domain" in d else None
    h = d.get("h", list(DEFAULT_H_LADDER))
    h_ladder = tuple(float(x) for x in (h if isinstance(h, (list, tuple))
                                        else [h]))
    _require(all(x > 0 for x in h_ladder), "field 'h': spacings must be > 0")
    op = dict(d.get("operator", {"type": "identity"}))
    _require(op.get("type") in ("identity", "gilbarg_serrin", "constant"),
             f"field 'operator.type': unknown type {op.get('type')!r}")
    for key in ("b", "c"):
        _require(key not in op or op["type"] == "constant",
                 f"field 'operator.{key}': only the constant operator "
                 f"takes {key}")
    if "b" in op:
        _require(_finite_array(op["b"], "operator.b").shape == (n,),
                 f"field 'operator.b': need {n} entries, got {op['b']!r}")
    if "c" in op:
        _require(_finite_array(op["c"], "operator.c").ndim == 0,
                 f"field 'operator.c': need one number, got {op['c']!r}")
    fspec = dict(d.get("f", {"type": "zero"}))
    _require(fspec.get("type") in ("zero", "constant", "gaussian",
                                   "radial_power"),
             f"field 'f.type': unknown type {fspec.get('type')!r}")
    return ExperimentConfig(
        name=str(d.get("name", "experiment")), n=n, k=k, q=q, domain=dom,
        h_ladder=h_ladder, operator=op, f=fspec,
        seed=int(d.get("seed", 0)),
        eps_ladder=tuple(float(x) for x in d.get("eps_ladder",
                                                 DEFAULT_EPS_LADDER)),
        q_list=tuple(float(x) for x in d.get("q_list", ())),
        sigma_ladder=tuple(float(x) for x in d.get("sigma_ladder",
                                                   DEFAULT_SIGMA_LADDER)),
        sigma=float(d.get("sigma", 0.5)), p=float(d.get("p", 2.0)),
        mode=mode, q_rule_violation=bool(violation))


def coeff_builder(cfg):
    op = cfg.operator
    if op["type"] == "identity":
        return fd.identity_coeff()
    if op["type"] == "gilbarg_serrin":
        return fd.coeff_gilbarg_serrin(cfg.n, float(op["alpha"]))
    if op["type"] == "constant":
        return fd.constant_coeff(np.asarray(op["matrix"], dtype=float),
                                 op.get("b"), op.get("c"))
    raise ValueError(f"unknown operator type {op['type']!r}")


def rhs_field(cfg, grid):
    spec = cfg.f
    params = spec.get("params", {})
    if spec["type"] == "zero":
        return fd.ScalarField(grid, np.zeros(grid.shape))
    if spec["type"] == "constant":
        return fd.field_from_function(
            grid, lambda x: np.full(x.shape[:-1], float(params["value"])))
    if spec["type"] == "gaussian":
        amp = float(params.get("amp", 1.0))
        w = float(params.get("width", 0.5))
        c = np.asarray(params.get("center", np.zeros(grid.dim)), dtype=float)
        return fd.field_from_function(
            grid, lambda x: amp * np.exp(-np.sum((x - c) ** 2, -1) / w ** 2))
    if spec["type"] == "radial_power":
        amp = float(params.get("amp", 1.0))
        pw = float(params.get("power", 1.0))
        return fd.field_from_function(
            grid, lambda x: amp * np.sum(x ** 2, -1) ** (pw / 2.0))
    raise ValueError(f"unknown f type {spec['type']!r}")


def _solve(cfg, h):
    grid = fd.build_grid(cfg.domain, h)
    coeff = coeff_builder(cfg)(grid)
    f = rhs_field(cfg, grid)
    g = fd.boundary_field(grid, lambda x: np.zeros(x.shape[:-1]))
    u = fd.solve_dirichlet(coeff, f, g)
    return grid, coeff, f, u


def exp_max_principle(cfg, rep):
    """Explicit-constant sup bound: solve Lu = -f with zero boundary data
    and check sup u <= abp_constant * ||f/rho*_k||_{L^q(contact mask)}."""
    if 2 * cfg.k <= cfg.n:
        raise ValueError("explicit-constant mode requires k > n/2")
    const = green.abp_constant(cfg.n, cfg.k, cfg.domain.diam)
    for h in cfg.h_ladder:
        grid, coeff, f, u = _solve(cfg, h)
        br = green.bound_report_for(u, f, coeff, cfg.k, cfg.q, const)
        rep.runs.append(Run({"h": h, **br.as_dict()}))
    margins = [r.data["margin"] for r in rep.runs]
    rep.verdicts.append(Verdict("margin_nonneg", min(margins) >= 0.0,
                                min(margins), 0.0, 0.0))
    rep.plots["margin_vs_h.csv"] = (
        "sup-bound margin per spacing",
        {"h": [r.data["h"] for r in rep.runs],
         "lhs": [r.data["lhs"] for r in rep.runs],
         "rhs": [r.data["rhs"] for r in rep.runs],
         "margin": margins})


def sharpness_family(n, k, eps):
    """w_eps = 1 - u_{alpha,eps} at the critical power alpha = 2 - n/k:
    returns (profile of L w_eps, sup w_eps)."""
    alpha = 2.0 - n / k
    beta = -1.0 + (n - 1) / (1.0 - alpha)
    prof = radial.mollified_power_profile(alpha, eps)
    lu = radial.radial_apply(n, beta, prof)
    # L w = -L u; the norm is sign-insensitive
    sup_w = 1.0 - (1.0 - alpha / 2.0) * eps ** alpha
    return lu, sup_w


def exp_sharpness(cfg, rep):
    """Exponent optimality: at alpha = 2 - n/k the norm ||L w_eps||_{L^q}
    decays like eps^{n/q - n/k} while sup w_eps -> 1."""
    n, k = cfg.n, cfg.k
    if 2 * k <= n:
        raise ValueError("sharpness family requires k > n/2")
    qs = cfg.q_list or (cfg.q,)
    sups = []
    for q in qs:
        norms = []
        for eps in cfg.eps_ladder:
            lu, sup_w = sharpness_family(n, k, eps)
            nm = radial.radial_lq_norm(lu, n, q, (0.0, 1.0))
            norms.append(nm)
            rep.runs.append(Run({"q": q, "eps": eps, "norm": nm,
                                 "sup": sup_w}))
            if q == qs[0]:
                sups.append(sup_w)
        slope, hw = fit_loglog(cfg.eps_ladder, norms)
        expected = n / q - n / k
        rep.slopes.append(SlopeFit(f"norm_decay_q={q:g}", slope, hw,
                                   expected))
        rep.verdicts.append(Verdict(f"slope_q={q:g}",
                                    abs(slope - expected) <= 0.1,
                                    slope, expected, 0.1))
        rep.plots[f"norm_vs_eps_q{q:g}.csv"] = (
            f"L^{q:g} norm of L w_eps vs eps",
            {"eps": list(cfg.eps_ladder), "norm": norms})
    # sup w_eps approaches 1 like eps^alpha; on a geometric ladder the
    # limit is recovered by Aitken extrapolation of the last three values
    limit = aitken_limit(sups)
    rep.verdicts.append(Verdict("sup_to_one",
                                abs(limit - 1.0) <= 1e-6,
                                limit, 1.0, 1e-6))
    rep.plots["sup_vs_eps.csv"] = ("sup w_eps vs eps",
                                   {"eps": list(cfg.eps_ladder),
                                    "sup": sups})


def exp_log_family(cfg, rep):
    """Bounded-norm blowup family at the borderline exponent: the L^{n/2}
    norm of L u_eps stays flat while inf u_eps = log(eps) - 1/2 diverges."""
    n = cfg.n
    if cfg.q != n / 2:
        raise ValueError("log family runs at q = n/2")
    target = 2.0 * (n - 1) * radial.unit_ball_volume(n) ** (2.0 / n)
    norms, infs = [], []
    rs = np.linspace(0.0, 1.0, 20001)
    for eps in cfg.eps_ladder:
        prof = radial.mollified_power_profile(0.0, eps)
        lu = radial.radial_apply(n, n - 2, prof)
        nm = radial.radial_lq_norm(lu, n, cfg.q, (0.0, 1.0))
        inf_u = float(np.min(prof.u(rs)))
        norms.append(nm)
        infs.append(inf_u)
        rep.runs.append(Run({"eps": eps, "norm": nm, "inf": inf_u,
                             "inf_over_log": inf_u / float(np.log(eps))}))
    dev = max(abs(nm / target - 1.0) for nm in norms)
    rep.verdicts.append(Verdict("norm_flat", dev <= 0.02,
                                dev, 0.0, 0.02))
    # inf u_eps / log eps = 1 + O(1/|log eps|): the deviation is linear in
    # 1/log eps, so a straight-line extrapolation to 0 yields the limit
    x = 1.0 / np.log(np.asarray(cfg.eps_ladder))
    y = np.array(infs) / np.log(np.asarray(cfg.eps_ladder))
    limit = float(np.polyfit(x, y, 1)[1])
    rep.verdicts.append(Verdict("inf_over_log_to_one",
                                abs(limit - 1.0) <= 5e-3, limit, 1.0, 5e-3))
    rep.plots["norm_vs_eps.csv"] = (
        "flat L^{n/2} norm and diverging infimum vs eps",
        {"eps": list(cfg.eps_ladder), "norm": norms, "inf": infs})


def _rho0(cfg, coeff):
    """Uniform lower bound on rho*_k over the grid.  Spatially constant
    for the supported operator families."""
    if cfg.operator["type"] == "gilbarg_serrin":
        lam = symcone.gs_spectrum(cfg.n, float(cfg.operator["alpha"]))
        return symcone.rho_star(lam, cfg.k)
    if cfg.operator["type"] == "constant":
        lam = symcone.spectrum_of(np.asarray(cfg.operator["matrix"],
                                             dtype=float))
        return symcone.rho_star(lam, cfg.k)
    return symcone.rho_star(np.ones(cfg.n), cfg.k)


def exp_local_max(cfg, rep):
    """Interior sup bound: sup_{B_sigma} u+ relative to a mean of u+ over
    the full ball plus a scaled rhs norm.  Property run: the ratio must be
    stable under h-refinement (max/min <= 1.5), no value asserted."""
    R = cfg.domain.radius
    ratios = []
    for h in cfg.h_ladder:
        grid, coeff, f, u = _solve(cfg, h)
        rho0 = _rho0(cfg, coeff)
        r = np.linalg.norm(grid.points() - cfg.domain.center, axis=-1)
        inner = grid.interior & (r < cfg.sigma * R)
        up = fd.ScalarField(grid, np.maximum(u.values, 0.0))
        lhs = float(np.max(up.values[inner]))
        vol = np.count_nonzero(grid.interior) * grid.volume_weight()
        mean_p = (fd.lq_norm(up, cfg.p) ** cfg.p / vol) ** (1.0 / cfg.p)
        fterm = R ** (2.0 - cfg.n / cfg.q) / rho0 * fd.lq_norm(f, cfg.q)
        denom = mean_p + fterm
        ratio = lhs / denom if denom > 0 else 0.0
        ratios.append(ratio)
        rep.runs.append(Run({"h": h, "lhs": lhs, "mean_term": mean_p,
                             "f_term": fterm, "ratio": ratio}))
    pos = [x for x in ratios if x > 0]
    spread = max(pos) / min(pos) if pos else 1.0
    rep.verdicts.append(Verdict("ratio_h_stable", spread <= 1.5,
                                spread, 1.0, 0.5))
    rep.plots["ratio_vs_h.csv"] = ("local-max ratio per spacing",
                                   {"h": list(cfg.h_ladder),
                                    "ratio": ratios})


def exp_oscillation(cfg, rep):
    """Oscillation decay on concentric balls: fit osc(B_sigma) ~ sigma^a
    and require a > 0; for nonnegative solutions also record the
    Harnack-form ratio sup / (inf + rhs norm term)."""
    dom = cfg.domain
    h = min(cfg.h_ladder)
    grid, coeff, f, u = _solve(cfg, h)
    rho0 = _rho0(cfg, coeff)
    r = np.linalg.norm(grid.points() - dom.center, axis=-1)
    oscs = []
    nonneg = bool(np.min(u.values[grid.interior]) >= -1e-12)
    fterm = (dom.radius ** (2.0 - cfg.n / cfg.q) / rho0
             * fd.lq_norm(f, cfg.q))
    for sigma in cfg.sigma_ladder:
        inner = grid.interior & (r < sigma * dom.radius)
        sup, inf, osc = fd.sup_inf_osc(u, inner)
        oscs.append(osc)
        run = {"sigma": sigma, "sup": sup, "inf": inf, "osc": osc}
        if nonneg:
            if sup <= 1e-14:
                harnack = 0.0  # zero solution, degenerate ratio
            elif inf + fterm > 0:
                harnack = sup / (inf + fterm)
            else:
                harnack = np.inf
            run["harnack_ratio"] = harnack
        rep.runs.append(Run(run))
    if max(oscs) <= 1e-14:
        rep.verdicts.append(Verdict("osc_decay", True, 0.0, 0.0, 0.0))
    else:
        slope, hw = fit_loglog(cfg.sigma_ladder, oscs)
        rep.slopes.append(SlopeFit("osc_decay", slope, hw, None))
        rep.verdicts.append(Verdict("osc_decay_positive", slope > 0.0,
                                    slope, 0.0, 0.0))
    if nonneg:
        hr = [r_.data.get("harnack_ratio", 0.0) for r_ in rep.runs]
        rep.verdicts.append(Verdict("harnack_finite",
                                    bool(np.all(np.isfinite(hr))),
                                    float(np.max(hr)), 0.0, 0.0))
    rep.plots["osc_vs_sigma.csv"] = ("oscillation over concentric balls",
                                     {"sigma": list(cfg.sigma_ladder),
                                      "osc": oscs})


def exp_w22(cfg, rep):
    """Interior second-derivative control at n = 3, k = 2: the ratio
    ||D^2 u||_{L^2(inner)} / ||f/rho*_2||_{L^2} must be h-stable."""
    if cfg.n != 3 or cfg.k != 2:
        raise ValueError("w22 experiment requires n = 3, k = 2")
    ratios = []
    for h in cfg.h_ladder:
        grid, coeff, f, u = _solve(cfg, h)
        r = np.linalg.norm(grid.points() - cfg.domain.center, axis=-1)
        # fixed inner subdomain so the ratio is comparable across h
        inner = fd.interior_eroded(grid, 2) & (r < 0.7 * cfg.domain.radius)
        num = fd.w22_seminorm(u, inner)
        rho = green.rho_star_field(coeff, 2, grid.interior)
        vals = np.zeros(grid.shape)
        vals[grid.interior] = f.values[grid.interior] / rho
        den = fd.lq_norm(fd.ScalarField(grid, vals), 2.0)
        if den <= 1e-14:
            rep.runs.append(Run({"h": h, "num": num, "den": den,
                                 "ratio": None, "degenerate": True}))
            continue
        ratio = num / den
        ratios.append(ratio)
        rep.runs.append(Run({"h": h, "num": num, "den": den,
                             "ratio": ratio}))
    if ratios:
        spread = max(ratios) / min(ratios)
        rep.verdicts.append(Verdict("ratio_h_stable", spread <= 1.5,
                                    spread, 1.0, 0.5))
        rep.plots["ratio_vs_h.csv"] = (
            "second-derivative ratio per spacing",
            {"h": [r_.data["h"] for r_ in rep.runs if not
                   r_.data.get("degenerate")],
             "ratio": ratios})
    else:
        rep.verdicts.append(Verdict("degenerate_all_runs", True,
                                    0.0, 0.0, 0.0))


# name -> (experiment, whether it needs a domain: the unit ball by default)
EXPERIMENTS = {
    "max_principle": (exp_max_principle, True),
    "sharpness": (exp_sharpness, False),
    "log_family": (exp_log_family, False),
    "local_max": (exp_local_max, True),
    "oscillation": (exp_oscillation, True),
    "w22": (exp_w22, True),
}

# exit code of `conelab` for each error an experiment may raise
ERROR_EXIT_CODES = {ValueError: 2, symcone.NumericError: 3}


def error_exit_code(exc):
    return next(code for cls, code in ERROR_EXIT_CODES.items()
                if isinstance(exc, cls))


def worker_count(default=None):
    env = os.environ.get("CONELAB_WORKERS")
    if env is not None:
        cnt = int(env)
        if cnt < 1:
            raise ValueError("CONELAB_WORKERS must be >= 1")
        return cnt
    if default is not None:
        return default
    return min(4, os.cpu_count() or 1)


def write_report(rep, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    serialize.report_to_json(rep, os.path.join(out_dir, "report.json"))
    for fname, (comment, cols) in rep.plots.items():
        serialize.write_plot_csv(os.path.join(out_dir, fname), comment, cols)


def run_one(name, cfg_dict):
    """Run a single named experiment on a raw config dict; the report's
    config echo carries the domain the experiment ran on."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {sorted(EXPERIMENTS)}")
    cfg = parse_config(cfg_dict)
    experiment, on_domain = EXPERIMENTS[name]
    t0 = time.perf_counter()
    if on_domain and cfg.domain is None:
        cfg = replace(cfg, domain=fd.Domain.ball(np.zeros(cfg.n), 1.0))
    rep = ExperimentReport(cfg.name, cfg.to_dict())
    experiment(cfg, rep)
    rep.wall_time = time.perf_counter() - t0
    return rep


def _run_job(job):
    """run_one on a battery entry; an error it raises becomes the report."""
    cfg = {k: v for k, v in job.items() if k != "exp"}
    try:
        return run_one(job["exp"], cfg)
    except tuple(ERROR_EXIT_CODES) as exc:
        return ExperimentReport(str(cfg.get("name", "experiment")), cfg,
                                exc=exc)


def run_suite(battery, out_dir=None, workers=None):
    """Run a battery {"experiments": [{"exp": name, ...config...}]}.

    Experiments run concurrently up to the worker count; reports are
    assembled in declaration order.  A job that raises ValueError or
    NumericError yields a report with that error, no verdicts and no
    files.  Returns (reports, exit_code), the code being the highest of 0
    (passed), 1 (a verdict failed) and error_exit_code of each error.
    """
    if isinstance(battery, str):
        battery = serialize.load_json(battery)
    _require(isinstance(battery, dict) and "experiments" in battery,
             "battery config needs an 'experiments' list")
    jobs = battery["experiments"]
    _require(isinstance(jobs, list), "'experiments' must be a list")
    for i, job in enumerate(jobs):
        _require(isinstance(job, dict) and "exp" in job,
                 f"experiments[{i}]: each entry needs an 'exp' field")
    nworkers = worker_count(workers or battery.get("workers"))
    with ThreadPoolExecutor(max_workers=nworkers) as pool:
        futures = [pool.submit(_run_job, job) for job in jobs]
        reports = [f.result() for f in futures]
    if out_dir is not None:
        for rep in reports:
            if rep.exc is None:
                write_report(rep, os.path.join(out_dir, rep.name))
    code = max((error_exit_code(rep.exc) if rep.exc else int(not rep.passed)
                for rep in reports), default=0)
    return reports, code
