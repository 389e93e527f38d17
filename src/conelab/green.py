"""Contact-set surrogates, ball Green's functions, the rho*_k field, and the
sharp sup-bound: its weighted norm ||f/rho*_k(A)||_{L^q} (weighted_norm, the
one place f is divided by rho*_k) and its explicit constants.

Supported Green's functions: balls only, k >= n/2.  The ball Green function
is radial.power_profile(2 - n/k) of the distance to the pole, scaled and
shifted so it vanishes on the boundary sphere: s^p - R^p over p, and
log s - log R on the k = n/2 branch.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

from . import symcone
from .fd import ScalarField, hessian_field, lq_norm, sup_inf_osc
from .radial import RadialProfile, power_profile, unit_ball_volume

log = logging.getLogger(__name__)


@dataclass
class ContactMask:
    mask: np.ndarray    # the benchmark tracer counts the nodes of .mask


def contact_mask(u, k):
    """Pointwise spectral surrogate for the upper k-contact set: nodes where
    spectrum(-D^2 u) lies in the closed cone.

    The surrogate contains the true contact set (tests/test_acceptance.py
    checks this against the exact k = n set), so norms over it upper-bound
    norms over the exact set and every estimate checked against it remains
    a genuine inequality.  Closed-cone boundary nodes (slack within
    tolerance of zero) are included, as are interior nodes where the
    discrete Hessian is unavailable (outermost layer): excluding
    undecidable nodes could drop true contact points.  The slack is
    symcone.matrix_cone_slack of -D^2 u, from the power sums tr(-D^2 u)^i,
    i <= k, with no eigendecomposition per node.
    """
    grid = u.grid
    H, valid = hessian_field(u)
    slack = symcone.matrix_cone_slack(-H, k)
    mask = grid.interior & ~valid
    mask[valid] = slack >= -symcone.MEMBERSHIP_TOL
    return ContactMask(mask)


@dataclass(frozen=True)
class GreenBallSpec:
    n: int
    k: int
    R: float

    def __post_init__(self):
        if self.k < 1 or self.k > self.n:
            raise ValueError("k out of range")
        if 2 * self.k < self.n:
            raise ValueError("Green's function requires k >= n/2")
        if self.R <= 0:
            raise ValueError("need R > 0")

    @property
    def log_branch(self):
        return 2 * self.k == self.n


def green_ball_profile(spec):
    """RadialProfile of G_y as a function of s = |x - y|: the k-Hessian
    profile s^p, p = 2 - n/k, of radial.power_profile (log s at k = n/2),
    times (C(n,k) omega_n)^{-1/k} / p (without the 1/p at k = n/2) and
    shifted to vanish at s = R."""
    n, k, R = spec.n, spec.k, spec.R
    p = 2.0 - n / k
    power = power_profile(p)
    c = 1.0 / (comb(n, k) * unit_ball_volume(n)) ** (1.0 / k)
    a = c if spec.log_branch else c / p
    u_R = power.u(R)
    return RadialProfile(lambda s: a * (power.u(s) - u_R),
                         du=lambda s: a * power.du(s),
                         d2u=lambda s: a * power.d2u(s))


def green_ball_radial(spec, s):
    """Green's function value at distance s from the pole."""
    s = np.asarray(s, dtype=float)
    if np.any(s > spec.R * (1 + 1e-12)):
        raise ValueError("point outside the ball")
    return green_ball_profile(spec).u(s)


def green_depth(n, k, R):
    """-G_y(y) > 0 for the ball of radius R (k > n/2 only)."""
    if 2 * k <= n:
        raise ValueError("finite pole depth requires k > n/2")
    return -float(green_ball_profile(GreenBallSpec(n, k, R)).u(0.0))


def abp_constant(n, k, diam):
    """Explicit constant diam^{2-n/k} / (n (2-n/k) omega_n^{1/k}) in the
    sup bound over the contact set (k > n/2)."""
    if 2 * k <= n:
        raise ValueError("requires k > n/2")
    p = 2.0 - n / k
    return diam ** p / (n * p * unit_ball_volume(n) ** (1.0 / k))


def best_constant_ball(n, k, R):
    """Best constant on the ball: (1/n) C(n,k)^{1/k} (-G_y(y));
    equals abp_constant(n, k, 2R) * 2^{-(2-n/k)}."""
    if 2 * k <= n:
        raise ValueError("requires k > n/2")
    return comb(n, k) ** (1.0 / k) * green_depth(n, k, R) / n


@dataclass
class BoundReport:
    """sup u against constant * norm; NumericError names the first of lhs,
    rhs, norm and margin that is not finite, so no verdict is taken on it."""
    lhs: float
    rhs: float
    constant: float
    norm: float
    mask_size: int

    def __post_init__(self):
        for name in ("lhs", "rhs", "norm", "margin"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise symcone.NumericError(
                    f"bound report: {name} = {value} is not finite")

    @property
    def margin(self):
        return self.rhs - self.lhs

    def as_dict(self):
        return {**asdict(self), "margin": self.margin}


def rho_star_field(coeff, k, mask):
    """Per-node rho*_k of the coefficient spectrum over mask, which must lie
    in the interior.

    The rows of coeff.spectra that the mask's nodes use go to
    symcone.rho_star_rows, and each node gets the value of its row.  Logs
    one DEBUG record (path, nodes, optimizer calls, elapsed seconds, spectra
    rows evaluated).  Raises identifying the first offending node if
    rho*_k <= 0 anywhere.
    """
    t0 = time.perf_counter()
    grid = coeff.grid
    if np.any(mask & ~grid.interior):
        raise ValueError("coefficients exist on interior nodes only")
    row = coeff.row[mask[grid.interior]]
    used = np.flatnonzero(np.bincount(row))
    at = np.full(len(coeff.spectra), np.nan)    # rho*_k by row of spectra
    at[used], path, calls = symcone.rho_star_rows(coeff.spectra[used], k)
    vals = at[row]
    log.debug("rho_star_field: k=%d path=%s nodes=%d calls=%d elapsed=%.4f "
              "spectra=%d", k, path, len(vals), calls,
              time.perf_counter() - t0, len(used))
    bad = ~(vals > 0.0)     # nan outside G*_k
    if np.any(bad):
        node = np.argwhere(mask)[int(np.argmax(bad))]
        raise ValueError(f"rho*_{k} <= 0 at node {tuple(node.tolist())}")
    return vals


def weighted_norm(f, coeff, k, q, mask):
    """|| f / rho*_k(A(x)) ||_{L^q(mask)}, the paper's weighted norm; mask is
    a boolean array inside the interior, and an empty one gives 0.0."""
    ratio = np.zeros(f.grid.shape)
    if np.any(mask):
        ratio[mask] = f.values[mask] / rho_star_field(coeff, k, mask)
    return lq_norm(ScalarField(f.grid, ratio), q, mask)


def bound_report_for(u, f, coeff, k, q, constant):
    """Full pipeline: sup u vs constant * the weighted norm of f over the
    contact surrogate of u."""
    mask = contact_mask(u, k).mask
    norm = weighted_norm(f, coeff, k, q, mask)
    return BoundReport(sup_inf_osc(u)[0], constant * norm, constant, norm,
                       int(np.count_nonzero(mask)))
