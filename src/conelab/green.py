"""Contact-set surrogates, ball Green's functions, the rho*_k field and
the explicit constants of the sharp sup-bound.

Supported Green's functions: balls only, k >= n/2.  The k = n/2 branch is
normalized as log(|x-y|/R) so it vanishes on the boundary sphere.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from math import comb

import numpy as np

from . import symcone
from .fd import ScalarField, hessian_field, lq_norm, sup_inf_osc
from .radial import RadialProfile, unit_ball_volume
from .symcone import MEMBERSHIP_TOL, elem_sym_table

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
    undecidable nodes could drop true contact points.
    """
    grid = u.grid
    n = grid.dim
    H, valid = hessian_field(u)
    lam = np.linalg.eigvalsh(-H[valid])
    e = elem_sym_table(lam)
    slacks = e[:, 1:k + 1] / np.array([comb(n, j) for j in range(1, k + 1)])
    member = np.all(slacks >= -MEMBERSHIP_TOL, axis=1)
    mask = grid.interior & ~valid
    mask[valid] = member
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


def green_ball_radial(spec, s):
    """Green's function value at distance s from the pole."""
    n, k, R = spec.n, spec.k, spec.R
    s = np.asarray(s, dtype=float)
    if np.any(s > R * (1 + 1e-12)):
        raise ValueError("point outside the ball")
    cnk_wn = comb(n, k) * unit_ball_volume(n)
    if spec.log_branch:
        return np.log(s / R) / cnk_wn ** (1.0 / k)
    p = 2.0 - n / k
    return (s ** p - R ** p) / (p * cnk_wn ** (1.0 / k))


def green_ball_profile(spec):
    """RadialProfile of G_y as a function of s = |x - y|."""
    n, k, R = spec.n, spec.k, spec.R
    cnk_wn = comb(n, k) * unit_ball_volume(n)
    c = 1.0 / cnk_wn ** (1.0 / k)
    if spec.log_branch:
        return RadialProfile(lambda s: c * np.log(np.asarray(s) / R),
                             du=lambda s: c / np.asarray(s),
                             d2u=lambda s: -c / np.asarray(s) ** 2)
    p = 2.0 - n / k
    return RadialProfile(
        lambda s: c / p * (np.asarray(s) ** p - R ** p),
        du=lambda s: c * np.asarray(s) ** (p - 1),
        d2u=lambda s: c * (p - 1) * np.asarray(s) ** (p - 2))


def green_depth(n, k, R):
    """-G_y(y) > 0 for the ball of radius R (k > n/2 only)."""
    if 2 * k <= n:
        raise ValueError("finite pole depth requires k > n/2")
    p = 2.0 - n / k
    cnk_wn = comb(n, k) * unit_ball_volume(n)
    return R ** p / (p * cnk_wn ** (1.0 / k))


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
    lhs: float
    rhs: float
    constant: float
    norm: float
    mask_size: int

    @property
    def margin(self):
        return self.rhs - self.lhs

    def as_dict(self):
        return {**asdict(self), "margin": self.margin}


def _rho_star_rows(lam, k):
    """rho*_k of each row of lam and where it fails: (values, bad, path,
    optimizer calls).  Closed forms for k = 2 and k = n, otherwise one
    symcone.rho_star call per row."""
    n = lam.shape[1]
    if k == 2:
        s1 = lam.sum(axis=1)
        disc = s1 ** 2 - (n - 1) * np.sum(lam ** 2, axis=1)
        return (np.sqrt(np.maximum(disc, 0.0) / n), (s1 < 0) | (disc < 0),
                "closed_k2", 0)
    if k == n:
        return (np.prod(np.maximum(lam, 0.0), axis=1) ** (1.0 / n),
                lam.min(axis=1) < -MEMBERSHIP_TOL, "closed_kn", 0)
    vals = np.zeros(len(lam))
    bad = np.zeros(len(lam), dtype=bool)
    for i, row in enumerate(lam):
        try:
            vals[i] = symcone.rho_star(row, k)
        except ValueError:
            bad[i] = True
    return vals, bad, "optimized", len(lam)


def rho_star_field(coeff, k, mask):
    """Per-node rho*_k of the coefficient spectrum over mask.

    A field with a declared spectrum is evaluated once and the value
    broadcast to the nodes (spectrum=declared).  Otherwise (spectrum=
    lattice) the closed forms for k = 2 and k = n run per node, and
    symcone.rho_star once per bit-distinct spectrum, exactly as a per-node
    loop would give.  Logs one DEBUG record (path, nodes, distinct
    spectra, optimizer calls, elapsed seconds, spectrum source).  Raises
    identifying the first offending node if rho*_k <= 0 anywhere.
    """
    t0 = time.perf_counter()
    lam = coeff.spectra(mask)
    nodes = len(lam)
    if coeff.spectrum is not None:
        source, distinct = "declared", 1
        rows, inverse = coeff.spectrum[None], np.zeros(nodes, dtype=int)
    elif k in (2, coeff.grid.dim):
        # a closed form costs less per node than np.unique would
        source, distinct = "lattice", "-"
        rows, inverse = lam, None
    else:
        # rho*_k depends on the node only through its spectrum: one
        # optimizer call per bit-distinct row gives the per-node values
        source = "lattice"
        rows, inverse = np.unique(lam, axis=0, return_inverse=True)
        distinct = len(rows)
        inverse = inverse.reshape(-1)    # 2-d on some numpy 2.x releases
    vals, bad, path, calls = _rho_star_rows(rows, k)
    if inverse is not None:
        vals, bad = vals[inverse], bad[inverse]
    log.debug("rho_star_field: k=%d path=%s nodes=%d distinct=%s calls=%d "
              "elapsed=%.4f spectrum=%s", k, path, nodes, distinct, calls,
              time.perf_counter() - t0, source)
    if np.any(bad | (vals <= 0.0)):
        i = int(np.argmax(bad | (vals <= 0.0)))
        node = np.argwhere(mask)[i]
        raise ValueError(f"rho*_{k} <= 0 at node {tuple(node)}")
    return vals


def theorem_rhs(f, coeff, k, q, mask, constant):
    """rhs = constant * || f / rho*_k(A(x)) ||_{L^q(mask)}, paired with the
    sup over the same grid's interior into a BoundReport (lhs filled by the
    caller if a solution field is at hand); mask is a boolean array."""
    grid = f.grid
    rho = np.ones(grid.shape)
    if np.any(mask):
        rho[mask] = rho_star_field(coeff, k, mask)
    ratio = ScalarField(grid, np.where(mask, f.values / rho, 0.0))
    norm = lq_norm(ratio, q, mask)
    return BoundReport(np.nan, constant * norm, constant, norm,
                       int(np.count_nonzero(mask)))


def bound_report_for(u, f, coeff, k, q, constant):
    """Full pipeline: sup u vs constant * contact-surrogate norm."""
    rep = theorem_rhs(f, coeff, k, q, contact_mask(u, k).mask, constant)
    sup, _, _ = sup_inf_osc(u)
    rep.lhs = float(sup)
    return rep
