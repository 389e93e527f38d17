"""High-accuracy radial path for rotationally symmetric test problems.

A radial profile carries u(r), u'(r), u''(r); the rank-one-anisotropy
operator A = I + beta x x^T/|x|^2 acts on radial functions as
Lu(r) = (1 + beta) u''(r) + (n - 1) u'(r)/r.  radial_apply is that generic
operator.  The mollified families (mollified_power_profile) have their Lu in
closed form, mollified_apply: a constant in the quadratic core and exactly 0
outside it, where the generic sum cancels to rounding noise.  So their
L^q(B_1) norm is closed-form too (mollified_lq_norm), and radial_lq_norm, the
generic adaptive quadrature, is its independent oracle.

scipy.integrate loads on first access of radial.quad or
radial.IntegrationWarning (a PEP 562 module __getattr__), so a process that
takes no quadrature never imports it.
"""

from __future__ import annotations

import sys
import warnings
from math import comb, gamma, inf, isfinite, pi

import numpy as np

from .symcone import NumericError

# quad's relative tolerance on the whole radial_lq_norm integral (all pieces)
QUAD_REL_TOL = 1e-9
# smallest normal float: a closed-form norm below it has lost precision
_TINY = sys.float_info.min


def __getattr__(name):
    """quad and IntegrationWarning, imported from scipy.integrate on first
    access and then kept as module attributes (which a caller may patch)."""
    if name not in ("quad", "IntegrationWarning"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.integrate
    value = globals()[name] = getattr(scipy.integrate, name)
    return value


def unit_ball_volume(n):
    """omega_n: volume of the unit ball in R^n (pi, 4pi/3, pi^2/2, ...)."""
    return pi ** (n / 2) / gamma(n / 2 + 1)


class RadialProfile:
    """u(r) with first and second derivative accessors, each a callable
    evaluated exactly.  Optional breakpoints mark derivative
    discontinuities for quadrature.
    """

    def __init__(self, u, du, d2u, breakpoints=()):
        self.u, self.du, self.d2u = u, du, d2u
        self.breakpoints = tuple(float(b) for b in breakpoints)


def _no_deriv(r):
    raise ValueError("derived profile has no derivative accessor")


def radial_apply(n, beta, prof):
    """Profile of Lu for A = I + beta x x^T/|x|^2:
    Lu(r) = (1 + beta) u'' + (n - 1) u'/r.  Only valid for r > 0.  It keeps
    prof's breakpoints and has no derivatives."""

    def lu(r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("radial operator undefined at r <= 0")
        return (1.0 + beta) * prof.d2u(r) + (n - 1) * prof.du(r) / r
    return RadialProfile(lu, du=_no_deriv, d2u=_no_deriv,
                         breakpoints=prof.breakpoints)


def radial_fk(n, k, prof, r):
    """k-Hessian of a radial function at radius r:
    S_k of the spectrum {u''} + {u'/r with multiplicity n-1}."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("need r > 0")
    t = prof.du(r) / r
    return (comb(n - 1, k) * t ** k
            + comb(n - 1, k - 1) * t ** (k - 1) * prof.d2u(r))


def radial_lq_norm(prof, n, q, r_range):
    """(integral |u(r)|^q n omega_n r^{n-1} dr)^{1/q} by one adaptive
    quadrature over r_range, with the profile breakpoints inside it passed
    to quad as points; QUAD_REL_TOL is relative to the whole integral."""
    if q < 1:
        raise ValueError("need q >= 1")
    a, b = sorted(map(float, r_range))
    points = [c for c in prof.breakpoints if a < c < b] or None
    surf = n * unit_ball_volume(n)
    # looked up per call, through __getattr__ on first use
    module = sys.modules[__name__]
    quad, IntegrationWarning = module.quad, module.IntegrationWarning

    def integrand(r):
        # an overflow shows up as the non-finite value checked below
        with np.errstate(all="ignore"):
            val = np.abs(prof.u(r)) ** q * surf * r ** (n - 1)
        # quad's behaviour on a nan is undefined (it can crash the process)
        if not isfinite(val):
            raise NumericError(f"integrand over [{a}, {b}] is "
                               f"{float(val)} at r={r}")
        return val

    with warnings.catch_warnings():
        # convergence is gated on the returned error estimate below
        warnings.simplefilter("ignore", IntegrationWarning)
        total, err = quad(integrand, a, b, points=points, limit=200,
                          epsrel=QUAD_REL_TOL, epsabs=0.0)
    if err > 1e-7 * max(abs(total), 1e-300) + 1e-13:
        raise NumericError(f"quadrature did not converge on "
                           f"[{a}, {b}]: err {err:.2e}")
    if not np.isfinite(total) or total < 0:
        raise NumericError(f"quadrature over [{a}, {b}] returned {total!r}, "
                           f"not a finite value >= 0: the integral diverges")
    return total ** (1.0 / q)


def power_profile(alpha):
    """u(r) = r^alpha in closed form (alpha = 0 gives log r)."""
    if alpha == 0.0:
        return RadialProfile(np.log,
                             du=lambda r: 1.0 / r,
                             d2u=lambda r: -1.0 / np.asarray(r) ** 2)
    return RadialProfile(lambda r: np.asarray(r) ** alpha,
                         du=lambda r: alpha * np.asarray(r) ** (alpha - 1),
                         d2u=lambda r: alpha * (alpha - 1)
                         * np.asarray(r) ** (alpha - 2))


def mollified_power_profile(alpha, eps):
    """C^1 glue of r^alpha (r >= eps) with a quadratic core:
    (alpha/2) eps^{alpha-2} r^2 + (1 - alpha/2) eps^alpha for r < eps.
    For alpha = 0 the outer branch is log r and the core constant is
    log(eps) - 1/2.  The profile's core_a is a, the coefficient of r^2 in
    the core."""
    eps = float(eps)
    if eps <= 0:
        raise ValueError("need eps > 0")
    try:
        if alpha == 0.0:
            core_a, core_c = 0.5 / eps ** 2, np.log(eps) - 0.5
            outer = power_profile(0.0)
        else:
            core_a = (alpha / 2.0) * eps ** (alpha - 2)
            core_c = (1.0 - alpha / 2.0) * eps ** alpha
            outer = power_profile(alpha)
    except (OverflowError, ZeroDivisionError):
        raise NumericError(f"core of the mollified profile out of float "
                           f"range at eps={eps!r}") from None

    def glue(outer_fn, core_fn):
        def fn(r):
            r = np.asarray(r, dtype=float)
            return np.where(r >= eps, outer_fn(np.maximum(r, eps)), core_fn(r))
        return fn
    prof = RadialProfile(glue(outer.u, lambda r: core_a * r ** 2 + core_c),
                         du=glue(outer.du, lambda r: 2.0 * core_a * r),
                         d2u=glue(outer.d2u, lambda r: 2.0 * core_a),
                         breakpoints=(eps,))
    prof.core_a = core_a
    return prof


def mollified_apply(n, beta, prof):
    """Exact Lu of a mollified_power_profile prof for the beta whose L
    annihilates its outer branch, 1 + beta = (n - 1)/(1 - alpha): the core
    a r^2 + c has u'' = u'/r = 2a, so Lu is the constant 2a(n + beta) on
    r < eps and exactly 0 on r >= eps, kept as the result's core_value.
    Like radial_apply's, the result keeps the breakpoint eps and has no
    derivatives."""
    eps, = prof.breakpoints
    inside = 2.0 * prof.core_a * (n + beta)
    lu = RadialProfile(lambda r: np.where(np.asarray(r) < eps, inside, 0.0),
                       du=_no_deriv, d2u=_no_deriv, breakpoints=(eps,))
    lu.core_value = inside
    return lu


def mollified_lq_norm(lu, n, q):
    """L^q(B_1) norm of a mollified_apply profile lu, in closed form: lu is
    the constant lu.core_value on r < eps and 0 outside, so the norm is
    |core_value| omega_n^{1/q} eps^{n/q} (eps capped at 1).  eps^{n/q} is
    applied as two factors eps^{n/2q}, one on each side of the large core
    constant, so no partial product leaves the float range where the norm
    does not; NumericError if the norm or eps^{n/2q} is not a normal float."""
    if q < 1:
        raise ValueError("need q >= 1")
    eps, = lu.breakpoints
    core = abs(float(lu.core_value))
    half = min(eps, 1.0) ** (n / (2.0 * q))
    norm = core * unit_ball_volume(n) ** (1.0 / q) * half * half
    if core and not (half >= _TINY and _TINY <= norm < inf):
        raise NumericError(f"L^{q:g} norm of the mollified Lu is out of "
                           f"float range at eps={eps!r}: {norm!r}")
    return norm
