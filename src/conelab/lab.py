"""Named numerical experiments over the cone, lattice, and radial modules.

Each experiment consumes an ExperimentConfig, runs a ladder of solves or
closed-form norms, fits slopes where asymptotics are claimed, and fills the
ExperimentReport that run_one hands it; verdicts are pure functions of the
stored numbers.  The config vocabulary is declared once: CONFIG_KEYS (each
field), OPERATORS and SOURCES (each type, its params and its builder) and
EXPERIMENTS (each experiment, the fields it reads and the domains it runs
on); parse_config and run_one reject whatever they do not declare.

sharpness and log_family take the L^q norm of the exact Lu of their
mollified Gilbarg-Serrin family (radial.mollified_apply: a constant in the
core, 0 outside) in closed form, radial.mollified_lq_norm; no experiment runs
a quadrature.  The generic radial.radial_apply and radial.radial_lq_norm are
the tests' oracles.

A lattice experiment, `conelab solve` and every run_suite job get their
solution from _solve, which keeps the last SOLVE_CACHE_SIZE solutions of
the process.  A solution is keyed by what defines its Dirichlet problem
(the domain, h, the operator and the source, as canonical JSON), not by the
fields only the analysis reads (k, q, p, sigma, ...), so experiments on one
problem share one solve.  Only calls in one process share: a library
caller or one `conelab suite` battery, e.g. local_max at several p on one
problem; separate `conelab` commands share nothing.  The cache holds u with
its values read-only; its grid is u.grid, the lattice's read-only Grid from
fd.build_grid, and a hit rebuilds the coefficients and the source on it.  A
solve that raises is not cached, and a hit emits no MonotonicityWarning
again.  The ball experiments check their inner balls before any solve.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import fd, green, radial, serialize, symcone

log = logging.getLogger(__name__)


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    target: float
    tol: float

    def __post_init__(self):
        # verdicts computed with numpy compare to np.bool_, which json
        # cannot encode
        self.passed = bool(self.passed)


@dataclass
class SlopeFit:
    label: str
    slope: float
    half_width: float
    expected: float | None = None


@dataclass
class ExperimentReport:
    name: str
    config_echo: dict
    runs: list = field(default_factory=list)     # one dict per run
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
    _require(sxx > 0, "need two distinct points for a slope")
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
    n: int
    k: int
    q: float
    name: str = "experiment"
    domain: fd.Domain | None = None
    h_ladder: tuple = (1 / 8, 1 / 12, 1 / 16)
    operator: dict = field(default_factory=lambda: {"type": "identity"})
    f: dict = field(default_factory=lambda: {"type": "zero"})
    eps_ladder: tuple = tuple(2.0 ** -j for j in range(3, 11))
    q_list: tuple = ()
    sigma_ladder: tuple = (0.25, 0.32, 0.40, 0.50, 0.60)
    sigma: float = 0.5
    p: float = 2.0
    mode: str = "strict"
    q_rule_violation: bool = False

    def to_dict(self, keys=None):
        """The JSON config of the fields keys (default all) that parses back
        to self; the domain and the exponent-rule flag appear only when
        set."""
        d = {}
        for key in CONFIG_KEYS if keys is None else keys:
            attr, _, dump = CONFIG_KEYS[key]
            value = getattr(self, attr)
            if value is not None and value is not False:
                d[key] = dump(value)
        return d


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _load(name, load, *args):
    """load(*args), or ValueError naming the config field name (name.param
    for a symcone.ParamError)."""
    try:
        return load(*args)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, symcone.ParamError):
            name = f"{name}.{exc.param}"
        raise ValueError(f"field '{name}': {exc}") from None


def _integer(value):
    num = float(value)
    _require(num.is_integer(), f"need an integer, got {value!r}")
    return int(num)


def _number(value):
    """A finite number as a float: JSON's Infinity and NaN parse, but no
    field takes them."""
    num = float(value)
    _require(np.isfinite(num), f"need a finite number, got {value!r}")
    return num


def _numbers(value):
    """A number or a list of numbers, as a tuple of finite floats."""
    return tuple(map(_number, value if isinstance(value, (list, tuple))
                     else [value]))


def _ladder(value):
    xs = _numbers(value)
    _require(xs and all(x > 0 for x in xs),
             f"need one or more values > 0, got {value!r}")
    return xs


def _unit_ladder(value):
    """A ladder inside (0, 1): eps is the core radius of a mollified
    profile on the unit ball (log_family divides by log eps), sigma a
    fraction of the domain's radius."""
    xs = _ladder(value)
    _require(max(xs) < 1, f"need values in (0, 1), got {value!r}")
    return xs


def _flag(value):
    """JSON true or false; a string or number is not read as a flag."""
    _require(isinstance(value, bool), f"need true or false, got {value!r}")
    return value


def _object(value):
    _require(isinstance(value, dict), f"need a JSON object, got {value!r}")
    return dict(value)


# JSON key -> (ExperimentConfig attribute, load from JSON, dump to JSON);
# the defaults live on ExperimentConfig, and n, k, q have none
CONFIG_KEYS = {
    "name": ("name", str, str),
    "n": ("n", _integer, int),
    "k": ("k", _integer, int),
    "q": ("q", _number, float),
    "domain": ("domain", lambda v: fd.Domain.from_dict(_object(v)),
               fd.Domain.to_dict),
    "h": ("h_ladder", _ladder, list),
    "operator": ("operator", _object, dict),
    "f": ("f", _object, dict),
    "eps_ladder": ("eps_ladder", _unit_ladder, list),
    "q_list": ("q_list", _numbers, list),
    "sigma_ladder": ("sigma_ladder", _unit_ladder, list),
    "sigma": ("sigma", _number, float),
    "p": ("p", _number, float),
    "mode": ("mode", str, str),
    "q_rule_violation": ("q_rule_violation", _flag, bool),
}
_REQUIRED = {f.name for f in fields(ExperimentConfig)
             if f.default is MISSING and f.default_factory is MISSING}
# the fields parse_config reads for every job, and those of a lattice solve
COMMON = ("name", "n", "k", "q", "mode", "q_rule_violation")
LATTICE = ("domain", "h", "operator", "f")


# a param's number of axes, each of length n
NUMBER, VECTOR, MATRIX = 0, 1, 2


def _check_param(value, ndim, n):
    arr = np.asarray(value, dtype=float)
    _require(arr.shape == (n,) * ndim and np.all(np.isfinite(arr)),
             f"need {('one', n, f'{n} x {n}')[ndim]} finite "
             f"number{'s' * bool(ndim)}, got {value!r}")


@dataclass(frozen=True)
class Kind:
    """One operator or source type: its builder and its required and
    optional params (name -> NUMBER, VECTOR or MATRIX).  Operator builders
    come from fd: each derives its A's spectrum, and raises ParamError on a
    param outside the class the estimates cover."""
    build: Callable
    required: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)


# operator type -> Kind; an operator's params sit beside its "type"
OPERATORS = {
    "identity": Kind(lambda n, op: fd.identity_coeff()),
    "gilbarg_serrin": Kind(
        lambda n, op: fd.coeff_gilbarg_serrin(n, float(op["alpha"])),
        required={"alpha": NUMBER}),
    "constant": Kind(
        lambda n, op: fd.constant_coeff(op["matrix"], op.get("c")),
        required={"matrix": MATRIX}, optional={"c": NUMBER}),
}


def _gaussian(grid, params):
    amp = float(params.get("amp", 1.0))
    w = float(params.get("width", 0.5))
    c = np.asarray(params.get("center", np.zeros(grid.dim)), dtype=float)
    return fd.field_from_function(
        grid, lambda x: amp * np.exp(-np.sum((x - c) ** 2, -1) / w ** 2))


def _radial_power(grid, params):
    amp = float(params.get("amp", 1.0))
    pw = float(params.get("power", 1.0))
    return fd.field_from_function(
        grid, lambda x: amp * np.sum(x ** 2, -1) ** (pw / 2.0))


# source type -> Kind; a source's params sit under its "params"
SOURCES = {
    "zero": Kind(lambda grid, _: fd.ScalarField(grid, np.zeros(grid.shape))),
    "constant": Kind(lambda grid, params: fd.field_from_function(
        grid, lambda x: np.full(x.shape[:-1], float(params["value"]))),
        required={"value": NUMBER}),
    "gaussian": Kind(_gaussian, optional={"amp": NUMBER, "width": NUMBER,
                                          "center": VECTOR}),
    "radial_power": Kind(_radial_power,
                         optional={"amp": NUMBER, "power": NUMBER}),
}


def _check_kind(table, spec, name, params, prefix, n):
    """spec's type is a key of table and params are the ones it takes;
    ValueError names name.type or prefix.<param>."""
    kind = table.get(spec.get("type"))
    _require(kind is not None, f"field '{name}.type': unknown type "
             f"{spec.get('type')!r}; choose from {sorted(table)}")
    takes = {**kind.required, **kind.optional}
    for key in kind.required:
        _require(key in params, f"field '{prefix}.{key}' is required")
    for key, value in params.items():
        _require(key in takes, f"field '{prefix}.{key}': not a param of "
                 f"this type, which takes {sorted(takes)}")
        _load(f"{prefix}.{key}", _check_param, value, takes[key], n)


def parse_config(d):
    """Validated ExperimentConfig from a plain JSON dict; a ValueError
    names each unknown, missing or malformed field."""
    _require(isinstance(d, dict), "config must be a JSON object")
    values = {}
    for key, value in d.items():
        _require(key in CONFIG_KEYS, f"unknown config field {key!r}; "
                 f"choose from {sorted(CONFIG_KEYS)}")
        attr, load, _ = CONFIG_KEYS[key]
        values[attr] = _load(key, load, value)
    missing = sorted(_REQUIRED - set(values))
    _require(not missing, f"config fields {missing} are required")
    cfg = ExperimentConfig(**values)
    n, k, q = cfg.n, cfg.k, cfg.q
    _require(n >= 2, f"field 'n': need n >= 2, got {n}")
    _require(1 <= k <= n, f"field 'k': need 1 <= k <= n, got {k}")
    for key, x in (("q", q), ("p", cfg.p),
                   *(("q_list", qi) for qi in cfg.q_list)):
        _require(x >= 1, f"field '{key}': need {key} >= 1, got {x}")
    _require(0 < cfg.sigma < 1,
             f"field 'sigma': need 0 < sigma < 1, got {cfg.sigma}")
    _require(cfg.mode in ("strict", "exploratory"),
             f"field 'mode': unknown mode {cfg.mode!r}")
    _require(cfg.domain is None or cfg.domain.dim == n,
             f"field 'domain': need a domain in {n} dimensions")
    op, src = cfg.operator, cfg.f
    _check_kind(OPERATORS, op, "operator",
                {key: v for key, v in op.items() if key != "type"},
                "operator", n)
    _load("operator", OPERATORS[op["type"]].build, n, op)
    _require(set(src) <= {"type", "params"},
             "field 'f': a source takes only 'type' and 'params'")
    _check_kind(SOURCES, src, "f",
                _load("f.params", _object, src.get("params", {})),
                "f.params", n)
    # exponent rule: q = k when k > n/2, q > n/2 otherwise
    violation = (q != k) if 2 * k > n else (q <= n / 2)
    if violation and cfg.mode == "strict":
        raise ValueError(
            f"fields 'q','k','n': exponent rule violated "
            f"(need q = k for k > n/2, q > n/2 otherwise; "
            f"got n={n}, k={k}, q={q}); use exploratory mode to override")
    _require(values.get("q_rule_violation", violation) == violation,
             f"field 'q_rule_violation': the exponent rule gives "
             f"{violation}")
    cfg.q_rule_violation = violation
    return cfg


def parse_for(job, d, reads):
    """parse_config(d) for a job that reads the COMMON fields and reads; a
    ValueError names any other field of d."""
    cfg = parse_config(d)
    keys = COMMON + reads
    for key in d:
        _require(key in keys, f"field {key!r}: {job} does not read it; "
                 f"choose from {sorted(keys)}")
    return cfg


def one_spacing(job, cfg):
    """The config's grid spacing, for a job that solves at one; a
    ValueError names 'h' when it is a ladder, the default one included."""
    _require(len(cfg.h_ladder) == 1, f"field 'h': {job} solves at one "
             f"spacing, got {list(cfg.h_ladder)}")
    return cfg.h_ladder[0]


def coeff_builder(cfg):
    """Builder (grid -> CoeffField) of the config's operator."""
    return OPERATORS[cfg.operator["type"]].build(cfg.n, cfg.operator)


def rhs_field(cfg, grid):
    """The config's source f sampled on grid."""
    return SOURCES[cfg.f["type"]].build(grid, cfg.f.get("params", {}))


# solutions _solve keeps, least recently used first: a three-rung ladder
# plus one more problem
SOLVE_CACHE_SIZE = 4
_solved = OrderedDict()     # problem key -> u
_solved_lock = threading.Lock()


def clear_solve_cache():
    with _solved_lock:
        _solved.clear()


def _problem_key(cfg, h):
    """The Dirichlet problem of cfg at spacing h as canonical JSON; a
    param given as a numpy value counts as its list."""
    return json.dumps([cfg.domain.to_dict(), float(h), cfg.operator, cfg.f],
                      sort_keys=True, default=lambda v: np.asarray(v).tolist())


def _solve(cfg, h):
    """(grid, coeff, f, u) of Lu = -f with zero boundary data at spacing
    h.  The u of a problem solved before comes from the cache, and its
    grid is u.grid."""
    key = _problem_key(cfg, h)
    with _solved_lock:
        u = _solved.get(key)
        if u is not None:
            _solved.move_to_end(key)
    hit = u is not None
    grid = u.grid if hit else fd.build_grid(cfg.domain, h)
    coeff = coeff_builder(cfg)(grid)
    f = rhs_field(cfg, grid)
    if not hit:
        u = fd.solve_dirichlet(coeff, f,
                               fd.ScalarField(grid, np.zeros(grid.shape)))
        u.values.flags.writeable = False
        with _solved_lock:
            _solved[key] = u
            while len(_solved) > SOLVE_CACHE_SIZE:
                _solved.popitem(last=False)
    log.debug("solve: cache=%s h=%g unknowns=%d", "hit" if hit else "miss",
              h, np.count_nonzero(grid.interior))
    return grid, coeff, f, u


def _inner_ball(cfg, h, frac, field, layers=0):
    """The nodes of cfg's ball lattice at spacing h layers cube layers inside
    the boundary (0: interior) and within frac R of the centre; a ValueError
    names field when there are none."""
    grid = fd.build_grid(cfg.domain, h)
    inner = (fd.interior_eroded(grid, layers)
             & (grid.radius_map() < frac * grid.domain.radius))
    where = f"{layers} layers inside the boundary and " if layers else ""
    _require(np.any(inner), f"field '{field}': spacing {h:g} leaves no "
             f"node {where}within {frac:g} R")
    return inner


def exp_max_principle(cfg, rep):
    """Explicit-constant sup bound: solve Lu = -f with zero boundary data
    and check sup u <= abp_constant * ||f/rho*_k||_{L^q(contact mask)}."""
    if 2 * cfg.k <= cfg.n:
        raise ValueError("field 'k': explicit-constant mode requires "
                         "k > n/2")
    const = green.abp_constant(cfg.n, cfg.k, cfg.domain.diam)
    for h in cfg.h_ladder:
        grid, coeff, f, u = _solve(cfg, h)
        br = green.bound_report_for(u, f, coeff, cfg.k, cfg.q, const)
        rep.runs.append({"h": h, **br.as_dict()})
    margins = [r["margin"] for r in rep.runs]
    rep.verdicts.append(Verdict("margin_nonneg", min(margins) >= 0.0,
                                min(margins), 0.0, 0.0))
    rep.plots["margin_vs_h.csv"] = (
        "sup-bound margin per spacing",
        {"h": [r["h"] for r in rep.runs],
         "lhs": [r["lhs"] for r in rep.runs],
         "rhs": [r["rhs"] for r in rep.runs],
         "margin": margins})


def _gs_family(n, alpha, eps):
    """(u_eps, L u_eps): the mollified r^alpha profile (log r at alpha = 0),
    increasing in r, and its exact Lu (radial.mollified_apply) for L of
    gs_spectrum(n, alpha): A = I + beta x x^T/|x|^2 with 1 + beta its radial
    eigenvalue, which makes r^alpha L-harmonic."""
    beta = symcone.gs_spectrum(n, alpha)[-1] - 1.0
    prof = radial.mollified_power_profile(alpha, eps)
    return prof, radial.mollified_apply(n, beta, prof)


def sharpness_family(n, k, eps):
    """w_eps = 1 - u_eps at the critical power alpha = 2 - n/k: returns
    (profile of L u_eps, sup w_eps = 1 - u_eps(0)); L w = -L u, and the norm
    is sign-insensitive."""
    prof, lu = _gs_family(n, 2.0 - n / k, eps)
    return lu, 1.0 - float(prof.u(0.0))


def _require_rungs(cfg, least, why):
    """ValueError naming eps_ladder unless it holds least distinct values."""
    _require(len(set(cfg.eps_ladder)) >= least,
             f"field 'eps_ladder': need at least {least} distinct values, "
             f"{why}; got {list(cfg.eps_ladder)}")


def exp_sharpness(cfg, rep):
    """Exponent optimality: at alpha = 2 - n/k the norm ||L w_eps||_{L^q}
    decays like eps^{n/q - n/k} while sup w_eps -> 1."""
    n, k = cfg.n, cfg.k
    # at k = n the critical power is 1 and the anisotropy (n-1)/(1-alpha)
    # of the family's operator is infinite
    _require(n < 2 * k and k < n, f"field 'k': the sharpness family "
             f"requires k > n/2 and k < n, got k={k} for n={n}")
    _require_rungs(cfg, 3, "as Aitken extrapolation of sup w_eps takes "
                   "three")
    q_list = cfg.q_list or (cfg.q,)
    _require(len({f"{q:g}" for q in q_list}) == len(q_list),
             f"field 'q_list': values must differ when printed with %g, "
             f"as each names its own plot and verdict; got {list(q_list)}")
    families = [sharpness_family(n, k, eps) for eps in cfg.eps_ladder]
    sups = [sup_w for _, sup_w in families]
    for q in q_list:
        norms = []
        for eps, (lu, sup_w) in zip(cfg.eps_ladder, families):
            nm = radial.mollified_lq_norm(lu, n, q)
            norms.append(nm)
            rep.runs.append({"q": q, "eps": eps, "norm": nm, "sup": sup_w})
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
        raise ValueError("field 'q': log family runs at q = n/2")
    _require_rungs(cfg, 2, "as inf u_eps / log eps is extrapolated along a "
                   "line")
    target = 2.0 * (n - 1) * radial.unit_ball_volume(n) ** (2.0 / n)
    norms, infs = [], []
    for eps in cfg.eps_ladder:
        prof, lu = _gs_family(n, 0.0, eps)
        nm = radial.mollified_lq_norm(lu, n, cfg.q)
        inf_u = float(prof.u(0.0))      # u_eps increases in r
        norms.append(nm)
        infs.append(inf_u)
        rep.runs.append({"eps": eps, "norm": nm, "inf": inf_u,
                         "inf_over_log": inf_u / float(np.log(eps))})
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


def exp_local_max(cfg, rep):
    """Interior sup bound: sup_{B_sigma} u+ relative to a mean of u+ over
    the full ball plus a scaled rhs norm.  Property run: the ratio must be
    stable under h-refinement (max/min <= 1.5), no value asserted.  The
    rhs term takes the least rho*_k over the lattice."""
    R = cfg.domain.radius
    # every rung is checked before any solve
    inners = [_inner_ball(cfg, h, cfg.sigma, "sigma") for h in cfg.h_ladder]
    ratios = []
    for h, inner in zip(cfg.h_ladder, inners):
        grid, coeff, f, u = _solve(cfg, h)
        rho0 = float(green.rho_star_field(coeff, cfg.k, grid.interior).min())
        up = fd.ScalarField(grid, np.maximum(u.values, 0.0))
        lhs = float(np.max(up.values[inner]))
        vol = np.count_nonzero(grid.interior) * grid.volume_weight()
        mean_p = (fd.lq_norm(up, cfg.p) ** cfg.p / vol) ** (1.0 / cfg.p)
        fterm = R ** (2.0 - cfg.n / cfg.q) / rho0 * fd.lq_norm(f, cfg.q)
        denom = mean_p + fterm
        ratio = lhs / denom if denom > 0 else 0.0
        ratios.append(ratio)
        rep.runs.append({"h": h, "lhs": lhs, "mean_term": mean_p,
                         "f_term": fterm, "ratio": ratio})
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
    Harnack-form ratio sup / (inf + rhs norm term), whose rhs term takes
    the least rho*_k over the lattice."""
    h = one_spacing("oscillation", cfg)
    inners = [_inner_ball(cfg, h, sigma, "sigma_ladder")
              for sigma in cfg.sigma_ladder]
    grid, coeff, f, u = _solve(cfg, h)
    rho0 = float(green.rho_star_field(coeff, cfg.k, grid.interior).min())
    oscs = []
    nonneg = bool(np.min(u.values[grid.interior]) >= -1e-12)
    fterm = (cfg.domain.radius ** (2.0 - cfg.n / cfg.q) / rho0
             * fd.lq_norm(f, cfg.q))
    for sigma, inner in zip(cfg.sigma_ladder, inners):
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
        rep.runs.append(run)
    if max(oscs) <= 1e-14:
        rep.verdicts.append(Verdict("osc_decay", True, 0.0, 0.0, 0.0))
    else:
        slope, hw = fit_loglog(cfg.sigma_ladder, oscs)
        rep.slopes.append(SlopeFit("osc_decay", slope, hw, None))
        rep.verdicts.append(Verdict("osc_decay_positive", slope > 0.0,
                                    slope, 0.0, 0.0))
    if nonneg:
        hr = [r_.get("harnack_ratio", 0.0) for r_ in rep.runs]
        rep.verdicts.append(Verdict("harnack_finite",
                                    bool(np.all(np.isfinite(hr))),
                                    float(np.max(hr)), 0.0, 0.0))
    rep.plots["osc_vs_sigma.csv"] = ("oscillation over concentric balls",
                                     {"sigma": list(cfg.sigma_ladder),
                                      "osc": oscs})


def exp_w22(cfg, rep):
    """Interior second-derivative control at n = 3, k = 2: the ratio
    ||D^2 u||_{L^2(inner)} / ||f/rho*_2||_{L^2} must be h-stable."""
    for name, value, want in (("n", cfg.n, 3), ("k", cfg.k, 2)):
        _require(value == want, f"field '{name}': w22 experiment requires "
                 "n = 3, k = 2")
    # a fixed inner subdomain so the ratio is comparable across h; every
    # rung is checked before any solve
    inners = [_inner_ball(cfg, h, 0.7, "h", layers=2) for h in cfg.h_ladder]
    ratios = []
    for h, inner in zip(cfg.h_ladder, inners):
        grid, coeff, f, u = _solve(cfg, h)
        num = fd.w22_seminorm(u, inner)
        den = green.theorem_rhs(f, coeff, 2, 2.0, grid.interior, 1.0).norm
        if den <= 1e-14:
            rep.runs.append({"h": h, "num": num, "den": den,
                             "ratio": None, "degenerate": True})
            continue
        ratio = num / den
        ratios.append(ratio)
        rep.runs.append({"h": h, "num": num, "den": den,
                         "ratio": ratio})
    if ratios:
        spread = max(ratios) / min(ratios)
        rep.verdicts.append(Verdict("ratio_h_stable", spread <= 1.5,
                                    spread, 1.0, 0.5))
        rep.plots["ratio_vs_h.csv"] = (
            "second-derivative ratio per spacing",
            {"h": [r_["h"] for r_ in rep.runs if not
                   r_.get("degenerate")],
             "ratio": ratios})
    else:
        rep.verdicts.append(Verdict("degenerate_all_runs", True,
                                    0.0, 0.0, 0.0))


# name -> (experiment, the fields it reads beside COMMON, the domain kinds
# it runs on: the unit ball by default; none for the radial experiments)
EXPERIMENTS = {
    "max_principle": (exp_max_principle, LATTICE, ("ball", "box")),
    "sharpness": (exp_sharpness, ("eps_ladder", "q_list"), ()),
    "log_family": (exp_log_family, ("eps_ladder",), ()),
    "local_max": (exp_local_max, LATTICE + ("sigma", "p"), ("ball",)),
    "oscillation": (exp_oscillation, LATTICE + ("sigma_ladder",),
                    ("ball",)),
    "w22": (exp_w22, LATTICE, ("ball",)),
}

# exit code of `conelab` for each error an experiment may raise
ERROR_EXIT_CODES = {ValueError: 2, symcone.NumericError: 3}


def error_exit_code(exc):
    return next(code for cls, code in ERROR_EXIT_CODES.items()
                if isinstance(exc, cls))


def worker_count():
    """Suite threads: CONELAB_WORKERS if set, else min(4, fd.CORES), the
    cores this process may run on."""
    env = os.environ.get("CONELAB_WORKERS")
    if env is None:
        return min(4, fd.CORES)
    _require(env.strip().isdecimal() and int(env) >= 1,
             f"CONELAB_WORKERS must be an integer >= 1, got {env!r}")
    return int(env)


def write_report(rep, out_dir):
    """Write report.json and the plot CSVs of rep to out_dir; returns the
    text of report.json."""
    os.makedirs(out_dir, exist_ok=True)
    text = serialize.report_to_json(rep, os.path.join(out_dir, "report.json"))
    for fname, (comment, cols) in rep.plots.items():
        serialize.write_plot_csv(os.path.join(out_dir, fname), comment, cols)
    return text


def run_one(name, cfg_dict):
    """Run a single named experiment on a raw config dict; the report's
    config echo holds the fields the experiment reads, among them the
    domain it ran on."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {sorted(EXPERIMENTS)}")
    experiment, reads, kinds = EXPERIMENTS[name]
    cfg = parse_for(name, cfg_dict, reads)
    t0 = time.perf_counter()
    if kinds:
        if cfg.domain is None:
            cfg = replace(cfg, domain=fd.Domain.ball(np.zeros(cfg.n), 1.0))
        _require(cfg.domain.kind in kinds, f"field 'domain': {name} runs "
                 f"on a {' or '.join(kinds)}, got a {cfg.domain.kind}")
    rep = ExperimentReport(cfg.name, cfg.to_dict(COMMON + reads))
    experiment(cfg, rep)
    rep.wall_time = time.perf_counter() - t0
    return rep


def _run_job(job):
    """run_one on a battery entry; an error it raises becomes the report."""
    cfg = {k: v for k, v in job.items() if k != "exp"}
    try:
        return run_one(job["exp"], cfg)
    except tuple(ERROR_EXIT_CODES) as exc:
        return ExperimentReport(str(cfg.get("name", ExperimentConfig.name)),
                                cfg, exc=exc)


def run_suite(battery, out_dir=None):
    """Run a battery {"experiments": [{"exp": name, ...config...}]}.

    Experiments run concurrently on worker_count() threads; reports are
    assembled in declaration order.  A job that raises ValueError or
    NumericError yields a report with that error, no verdicts and no
    files.  Returns (reports, exit_code), the code being the highest of 0
    (passed), 1 (a verdict failed) and error_exit_code of each error.
    Each job's files go to <out_dir>/<name>, so a name (default
    "experiment") must be one plain path component, used by one job only.
    """
    if isinstance(battery, str):
        battery = serialize.load_json(battery)
    _require(isinstance(battery, dict), "battery config must be an object")
    _require(set(battery) == {"experiments"}, f"battery config needs one "
             f"field, an 'experiments' list; got {sorted(battery)}")
    jobs = battery["experiments"]
    _require(isinstance(jobs, list), "'experiments' must be a list")
    names = []
    for i, job in enumerate(jobs):
        _require(isinstance(job, dict) and "exp" in job,
                 f"experiments[{i}]: each entry needs an 'exp' field")
        name = str(job.get("name", ExperimentConfig.name))
        _require(name not in ("", ".", "..")
                 and os.path.basename(name) == name,
                 f"experiments[{i}].name: {name!r} is not a plain "
                 f"directory name")
        _require(name not in names,
                 f"experiments[{i}].name: {name!r} names an earlier job")
        names.append(name)
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        futures = [pool.submit(_run_job, job) for job in jobs]
        reports = [f.result() for f in futures]
    if out_dir is not None:
        for rep in reports:
            if rep.exc is None:
                write_report(rep, os.path.join(out_dir, rep.name))
    code = max((error_exit_code(rep.exc) if rep.exc else int(not rep.passed)
                for rep in reports), default=0)
    return reports, code
