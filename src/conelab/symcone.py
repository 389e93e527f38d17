"""Elementary symmetric cone calculus on spectra and symmetric matrices.

Implements the Garding cones G_k (S_1,...,S_k > 0), their closures and dual
cones, the degree-1 normalizations rho_k = (S_k/C(n,k))^{1/k}, and the dual
gauge rho*_k = inf { lam.mu / n : mu in G_k, rho_k(mu) >= 1 }: closed forms
for k in {1, 2, n}, else damped Newton on the barrier -log S_k, one
elem_sym_table call per step.  The cone slack and rho*_k are defined once,
over a stack of spectra (cone_slack, rho_star_rows); in_cone and rho_star
are their one-row cases, and matrix_cone_slack is cone_slack of the spectra
of a stack of symmetric matrices, from their power sums.

scipy.optimize (SLSQP, for dual_margin at 3 <= k < n) loads on first access
of symcone.minimize (a PEP 562 module __getattr__), so a process that never
reaches it never imports it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb

import numpy as np

MEMBERSHIP_TOL = 1e-9
BOUNDARY_TOL = 1e-7

OPEN, CLOSED, DUAL = "open", "closed", "dual"


def __getattr__(name):
    """minimize, imported from scipy.optimize on first access and then kept
    as a module attribute (which a caller may patch)."""
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize
    globals()[name] = minimize
    return minimize


class NumericError(RuntimeError):
    """A linear solve, optimizer, iteration, quadrature or closed form that
    failed."""


class ParamError(ValueError):
    """An operator param outside the class the estimates cover; .param is
    its name in an operator config."""

    def __init__(self, param, msg):
        super().__init__(msg)
        self.param = param


@dataclass(frozen=True)
class ConeVerdict:
    member: bool
    margin: float
    k: int
    variant: str


def _check_spectrum(lam, ndim=1):
    """lam as a float array of one spectrum (ndim 1) or a stack of them
    (ndim 2, one per row), each of n >= 2 finite entries."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != ndim or lam.shape[-1] < 2:
        shape = "a 1-d array" if ndim == 1 else "an (m, n) array"
        raise ValueError(f"spectrum must be {shape} with n >= 2")
    if not np.isfinite(lam).all():
        raise ValueError("spectrum entries must be finite")
    return lam


def _check_k(k, n):
    """k as an int in 1..n; a bool or a non-integer k raises rather than
    being truncated to a neighbouring cone."""
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"cone index k must be an integer, got {k!r}")
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} out of range 1..{n}")
    return k


def elem_sym_table(values):
    """All elementary symmetric functions e_0..e_n of the last axis.

    Accepts arrays of shape (..., n); returns shape (..., n+1).  Entries are
    sorted internally so the result is exactly permutation invariant.
    """
    v = np.sort(np.asarray(values, dtype=float), axis=-1)
    n = v.shape[-1]
    e = np.zeros(v.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        e[..., 1:i + 2] += v[..., i, None] * e[..., :i + 1]
    return e


def elem_sym(lam, k):
    """S_k(lam): sum of products over increasing k-tuples."""
    lam = _check_spectrum(lam)
    k = _check_k(k, lam.size)
    return float(elem_sym_table(lam)[k])


def _elem_sym_jac(mu, k, e):
    """Stacked gradients of S_1..S_k, shape (k, n); e is
    elem_sym_table(mu)."""
    mu = np.asarray(mu, dtype=float)
    rows = np.empty((k, mu.size))
    d = np.ones_like(mu)
    rows[0] = d
    for j in range(1, k):
        d = e[j] - mu * d
        rows[j] = d
    return rows


def rho_k(lam, k):
    """Normalized symmetric function (S_k/C(n,k))^{1/k}, degree-1 homogeneous.

    Defined (positive) on G_k; returns the limit value on the closure, and
    raises on spectra with S_k < 0.
    """
    lam = _check_spectrum(lam)
    k = _check_k(k, lam.size)
    sk = elem_sym(lam, k)
    if sk < 0:
        raise ValueError(f"S_{k} = {sk} < 0: spectrum outside the closed cone")
    return (sk / comb(lam.size, k)) ** (1.0 / k)


def _normalized_slack(s, n):
    """min_j S_j/C(n,j) over s = (S_1, ..., S_k), each S_j an array of the
    same shape, for spectra of n entries."""
    return reduce(np.minimum, (sj / comb(n, j) for j, sj in enumerate(s, 1)))


def cone_slack(lam, k):
    """Smallest normalized slack min_j S_j/C(n,j), j = 1..k, of each
    spectrum along the last axis of lam: >= 0 exactly on the closed cone."""
    e = elem_sym_table(lam)
    return _normalized_slack(np.moveaxis(e[..., 1:k + 1], -1, 0),
                             lam.shape[-1])


def matrix_cone_slack(M, k):
    """cone_slack of the spectrum of each symmetric matrix of a stack M
    (..., n, n), without an eigendecomposition.

    S_1..S_k of the spectrum come from the power sums p_i = tr M^i, i <= k,
    by Newton's identities j S_j = sum_i (-1)^(i-1) S_{j-i} p_i.  Each p_i
    is the entrywise sum of M^a * M^b with a + b = i and a, b <= ceil(k/2),
    so k = 3 takes one batched matmul.  Rounding moves S_j by a small
    multiple of eps |M|^j, as the eigenvalue route does.
    """
    M = np.asarray(M, dtype=float)
    powers = [None, M]                  # M^1 .. M^ceil(k/2)
    while len(powers) <= (k + 1) // 2:
        powers.append(powers[-1] @ M)
    p = [None, np.einsum("...ii->...", M)]
    p += [np.einsum("...ij,...ij->...", powers[i - i // 2], powers[i // 2])
          for i in range(2, k + 1)]
    e = [1.0]                           # S_0 .. S_k
    for j in range(1, k + 1):
        e.append(sum((-1) ** (i - 1) * e[j - i] * p[i]
                     for i in range(1, j + 1)) / j)
    return _normalized_slack(e[1:], M.shape[-1])


def in_cone(lam, k, closed=False):
    """Membership of lam in G_k (open) or its closure; the margin is
    cone_slack(lam, k)."""
    lam = _check_spectrum(lam)
    k = _check_k(k, lam.size)
    margin = float(cone_slack(lam, k))
    member = margin > (-MEMBERSHIP_TOL if closed else MEMBERSHIP_TOL)
    return ConeVerdict(member, margin, k, CLOSED if closed else OPEN)


def _iterate_table():
    """mu -> elem_sym_table(mu), computed once per distinct mu in a row.

    SLSQP evaluates every constraint and its Jacobian at one iterate; they
    share this table.  The key is a copy of mu's bytes because SLSQP may
    overwrite the array it passes.  The table is shared: read it only.
    """
    key, table = None, None

    def table_of(mu):
        nonlocal key, table
        mu = np.asarray(mu, dtype=float)
        data = mu.tobytes()
        if data != key:
            key, table = data, elem_sym_table(mu)
        return table
    return table_of


def _cone_constraints(k, table):
    """Single vector-valued SLSQP constraint S_j(mu) >= 0, j = 1..k;
    table is an _iterate_table()."""
    return [{
        "type": "ineq",
        "fun": lambda mu: table(mu)[1:k + 1],
        "jac": lambda mu: _elem_sym_jac(mu, k, table(mu)),
    }]


def _dual_margin_optimize(lam, k):
    """General-k sphere margin by optimization.

    A convex slice program (S_1 fixed; every ray of the cone meets the slice
    when k >= 2) locates the globally optimal ray, then a sphere-constrained
    polish refines the value.
    """
    n = lam.size
    scale = float(np.linalg.norm(lam))
    if scale == 0.0:
        return 0.0
    lam_s = lam / scale
    # looked up per call, through __getattr__ on first use
    minimize = sys.modules[__name__].minimize

    table = _iterate_table()
    cons = _cone_constraints(k, table)
    slice_cons = cons + [{
        "type": "eq",
        "fun": lambda mu: table(mu)[1] - np.sqrt(n),
        "jac": lambda mu: np.ones(n),
    }]
    x0 = np.full(n, 1.0 / np.sqrt(n))
    res = minimize(lambda mu: lam_s @ mu, x0, jac=lambda mu: lam_s,
                   constraints=slice_cons, method="SLSQP",
                   options={"maxiter": 200, "ftol": 1e-14})
    seeds = []
    if res.x is not None and np.linalg.norm(res.x) > 1e-12:
        seeds.append(res.x / np.linalg.norm(res.x))
    seeds.append(np.eye(n)[int(np.argmin(lam))])

    sphere_cons = cons + [{
        "type": "eq",
        "fun": lambda mu: mu @ mu - 1.0,
        "jac": lambda mu: 2.0 * mu,
    }]
    best = float(lam_s.min())   # basis vectors are always feasible
    ok = False
    for s in seeds:
        r = minimize(lambda mu: lam_s @ mu, s, jac=lambda mu: lam_s,
                     constraints=sphere_cons, method="SLSQP",
                     options={"maxiter": 200, "ftol": 1e-14})
        if r.x is not None and abs(r.x @ r.x - 1.0) < 1e-8:
            feas = min(elem_sym_table(r.x)[j] for j in range(1, k + 1))
            if feas > -1e-10:
                best = min(best, float(lam_s @ r.x))
                ok = ok or r.success
        if ok and s is seeds[0]:
            break   # slice seed converged; later seeds rarely improve
    if not ok:
        raise NumericError("dual-cone minimization did not converge")
    return best * scale


def _closed_margins(lam, k):
    """dual_margin of each row of lam (m, n), for k in {1, 2, n}."""
    n = lam.shape[1]
    norm = np.linalg.norm(lam, axis=1)
    perp = np.linalg.norm(lam - lam.mean(axis=1, keepdims=True), axis=1)
    if k == 1:
        # half-space {S_1 >= 0}: split lam along the diagonal ray
        return np.where(lam.mean(axis=1) >= 0.0, -perp, -norm)
    if k == n:
        # positive orthant: basis vectors / negative-part direction
        neg = np.linalg.norm(np.minimum(lam, 0.0), axis=1)
        return np.where(neg > 0.0, -neg, lam.min(axis=1))
    # circular cone with axis (1,..,1)/sqrt(n), half-angle arccos(1/sqrt n)
    a = lam.sum(axis=1) / np.sqrt(n)
    polar = (a < 0.0) & (perp < -a * np.sqrt(n - 1))
    return np.where(polar, -norm, (a - np.sqrt(n - 1) * perp) / np.sqrt(n))


def dual_margin(lam, k):
    """inf { lam.mu : mu in closure(G_k), |mu| = 1 }, exactly for k in
    {1, 2, n}; an upper bound on it for 3 <= k < n.

    Nonnegative exactly when lam lies in the dual cone G*_k.  Closed forms
    for k = 1 (half-space), k = 2 (the cone is circular: S_2 >= 0 iff
    S_1 >= |mu|), and k = n (positive orthant).  Otherwise SLSQP's value,
    a local minimum that can lie above the infimum: at lam = (-0.145,
    -0.042, 0.16, 0.681), k = 3, it returns -0.14500, while a unit mu in
    the open G_3 reaches -0.19396.
    """
    lam = _check_spectrum(lam)
    n = lam.size
    k = _check_k(k, n)
    if k in (1, 2, n):
        return float(_closed_margins(lam[None], k)[0])
    return _dual_margin_optimize(lam, k)


def in_dual_cone(lam, k):
    """Membership of lam in the dual cone G*_k, with the sphere margin."""
    lam = _check_spectrum(lam)
    k = _check_k(k, lam.size)
    m = dual_margin(lam, k)
    return ConeVerdict(m >= -MEMBERSHIP_TOL, m, k, DUAL)


def rho_star_closed_form_2(lam):
    """Explicit dual gauge for k = 2:
    (1/sqrt(n)) * ((sum lam)^2 - (n-1)|lam|^2)^{1/2}."""
    lam = _check_spectrum(lam)
    n = lam.size
    val = lam.sum() ** 2 - (n - 1) * float(lam @ lam)
    if val < 0:
        raise ValueError("spectrum outside G*_2")
    return float(np.sqrt(val / n))


@lru_cache(maxsize=None)
def _drop_mask(n):
    """(n*n, n) read-only mask of the entries _drop_rows keeps: row (i, j)
    drops entries i and j."""
    i = np.arange(n)
    keep = np.ones((n, n, n), dtype=bool)
    keep[i, :, i] = keep[:, i, i] = False
    keep.flags.writeable = False
    return keep.reshape(n * n, n)


def _drop_rows(mu):
    """mu with entries i and j set to 0, for each (i, j) (entry i alone
    when i = j), as n*n rows.  Row (i, j) of their elem_sym_table holds
    S_{k-1}(mu without mu_i) = dS_k/dmu_i at i = j and
    S_{k-2}(mu without mu_i, mu_j) = d2S_k/dmu_i dmu_j at i != j.  Zeros
    are exact in the table, so each comes from the remaining entries
    alone; deflating mu_i out of S_j(mu) instead, by S_j(mu without mu_i)
    = S_j(mu) - mu_i S_{j-1}(mu without mu_i), can cancel every digit when
    mu_i dominates."""
    return np.where(_drop_mask(mu.size), mu, 0.0)


def _barrier_newton(a, k):
    """Maximizer mu of log S_k over G_k on the slice a.mu = n, with S_k(mu),
    or None.

    Damped Newton with KKT steps (Boyd-Vandenberghe, Convex Optimization,
    sec. 10.2) on -log S_k, a self-concordant barrier of G_k (Guler, Math.
    Oper. Res. 22, 1997).  None if sum(a) <= 0, if the KKT matrix is
    singular, if a step is in the closed cone (lam is then not interior to
    G*_k), at the step cap, or at a rounding floor above dec2 = 1e-12.

    A step makes one elem_sym_table call, on a stack of the step itself
    (the recession test), its ten backtracking points and the full step's
    _drop_rows, which give the next iterate's derivatives when the full
    step is taken.  A shorter accepted step makes a second call, for its
    own _drop_rows.
    """
    n = a.size
    if a.sum() <= 0.0:
        return None
    mu = np.full(n, n / a.sum())
    tab = elem_sym_table(np.concatenate([mu[None], _drop_rows(mu)]))
    e, drop = tab[0], tab[1:]
    i = np.arange(n)
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, n] = kkt[n, :n] = a
    rhs = np.zeros(n + 1)
    # t = 1/(1 + sqrt(dec2)) passes (sec. 9.6.4) and dec2 <= k, so failing
    # ten halvings is the rounding floor
    t = 0.5 ** np.arange(10)
    for _ in range(100):
        drop = drop.reshape(n, n, n + 1)
        g = drop[i, i, k - 1] / e[k]        # -gradient of -log S_k
        kkt[:n, :n] = np.outer(g, g) - drop[..., k - 2] / e[k]
        kkt[i, i] = g ** 2
        rhs[:n] = g
        try:
            step = np.linalg.solve(kkt, rhs)[:n]
        except np.linalg.LinAlgError:
            return None
        dec2 = float(g @ step)              # squared Newton decrement
        if dec2 <= 1e-20:
            return mu, e[k]
        trial = mu + t[:, None] * step
        tab = elem_sym_table(
            np.concatenate([step[None], trial, _drop_rows(trial[0])]))
        if (tab[0, 1:k + 1] >= 0.0).all():
            return None                     # a recession direction
        e_trial = tab[1:t.size + 1]
        inside = (e_trial[:, 1:k + 1] > 0.0).all(axis=1)
        ratio = np.divide(e[k], e_trial[:, k], out=np.full(t.size, np.inf),
                          where=inside)
        passed = np.log(ratio) <= -0.25 * t * dec2
        if not passed.any():
            return (mu, e[k]) if dec2 <= 1e-12 else None
        j = int(np.argmax(passed))
        mu, e = trial[j], e_trial[j]
        drop = (tab[t.size + 1:] if j == 0
                else elem_sym_table(_drop_rows(mu)))
    return None


def rho_star_program(lam, k):
    """Dual gauge for 2 <= k <= n by barrier Newton (_barrier_newton).

    With a = lam/|lam|, rho*_k(lam) = |lam| / sup { rho_k(mu) : mu in G_k,
    a.mu = n }, attained at the maximizer.  Without one, dual_margin decides:
    outside G*_k raises ValueError, on its boundary gives 0, inside
    NumericError.  k = 2, n cross-check the closed forms; k = 1 raises.
    """
    lam = _check_spectrum(lam)
    n = lam.size
    k = _check_k(k, n)
    if k == 1:
        raise ValueError("rho_star_program needs k >= 2; rho*_1 is mean(lam)")
    scale = float(np.linalg.norm(lam))
    if scale == 0.0:
        return 0.0
    a = lam / scale
    found = _barrier_newton(a, k)
    if found is not None:
        mu, sk = found
        rho = (float(sk) / comb(n, k)) ** (1.0 / k)     # rho_k(mu)
        return scale * float(a @ mu / n) / rho
    margin = dual_margin(lam, k)
    if margin < -MEMBERSHIP_TOL * scale:
        raise ValueError(f"spectrum not in dual cone G*_{k} "
                         f"(margin {margin:.3e})")
    if margin < BOUNDARY_TOL * scale:
        return 0.0
    raise NumericError("rho*_k barrier Newton did not converge")


def _optimized_gauge(lam, k):
    """rho_star_program(lam, k) with the rule of rho_star_rows: nan
    outside G*_k, 0 within BOUNDARY_TOL |lam| of its boundary."""
    try:
        val = rho_star_program(lam, k)
    except ValueError:      # outside G*_k
        return np.nan
    return 0.0 if val < BOUNDARY_TOL * float(np.linalg.norm(lam)) else val


def rho_star_rows(lam, k):
    """Dual gauge rho*_k of each row of lam (m, n), each row sorted
    descending first: (values, path, optimizer calls).

    A row outside G*_k (dual margin below -MEMBERSHIP_TOL |lam|) gets nan,
    one within BOUNDARY_TOL |lam| of its boundary 0; G*_1, the ray of
    (1, ..., 1), has no interior, so every row on it gets mean(lam).
    Closed forms for k in {1, 2, n} (path closed_k1, closed_k2, closed_kn;
    no optimizer call); otherwise (path optimized) rho_star_program once
    per row, so a caller passes each distinct spectrum once.
    """
    lam = np.sort(_check_spectrum(lam, ndim=2), axis=1)[:, ::-1]
    n = lam.shape[1]
    k = _check_k(k, n)
    if k not in (1, 2, n):
        vals = [_optimized_gauge(row, k) for row in lam]
        return np.array(vals, dtype=float), "optimized", len(vals)
    if k == 1:
        path, vals = "closed_k1", lam.mean(axis=1)
    elif k == 2:
        s1 = lam.sum(axis=1)
        disc = s1 ** 2 - (n - 1) * np.sum(lam ** 2, axis=1)
        path, vals = "closed_k2", np.sqrt(np.maximum(disc, 0.0) / n)
    else:
        path = "closed_kn"
        vals = np.prod(np.maximum(lam, 0.0), axis=1) ** (1.0 / n)
    margin = _closed_margins(lam, k)
    scale = np.linalg.norm(lam, axis=1)
    if k > 1:
        vals = np.where(margin < BOUNDARY_TOL * scale, 0.0, vals)
    return np.where(margin < -MEMBERSHIP_TOL * scale, np.nan, vals), path, 0


def rho_star(lam, k):
    """Dual gauge rho*_k(lam): rho_star_rows on the one row lam; raises
    ValueError outside G*_k."""
    lam = _check_spectrum(lam)
    k = _check_k(k, lam.size)
    val = float(rho_star_rows(lam[None], k)[0][0])
    if np.isnan(val):
        raise ValueError(f"spectrum not in dual cone G*_{k}")
    return val


def rho_star_oracle(lam, k, samples, seed=0):
    """Brute-force upper bound on rho*_k by dense direction sampling.

    Draws random directions in the ascending-sorted sector of G_k, rescales
    each to rho_k(mu) = 1 by homogeneity, and returns the minimal lam.mu/n.
    Half the budget samples globally, half concentrates near the incumbent.
    Independent of the optimizer path in rho_star.
    """
    lam = _check_spectrum(lam)
    n = lam.size
    k = _check_k(k, n)
    if samples < 1:
        raise ValueError(f"oracle samples: need N >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    lam_sorted = np.sort(lam)[::-1]
    cnk = comb(n, k)

    def evaluate(mu):
        # mu: (m, n) candidate directions, ascending-sorted
        e = elem_sym_table(mu)
        feas = np.all(e[:, 1:k + 1] > 0.0, axis=1)
        if not np.any(feas):
            return None, None
        mu = mu[feas]
        r = (e[feas, k] / cnk) ** (1.0 / k)
        mu = mu / r[:, None]
        vals = mu @ lam_sorted / n
        i = int(np.argmin(vals))
        return float(vals[i]), mu[i]

    half = max(samples // 2, 1)
    best_val, best_mu = None, None
    # global phase: Gaussian directions plus heavy-tailed draws so strongly
    # anisotropic minimizers are reachable
    gauss = rng.standard_normal((half // 2, n))
    cauchy = rng.standard_t(1, size=(half - half // 2, n))
    for batch in (gauss, cauchy):
        if batch.size == 0:
            continue
        v, m = evaluate(np.sort(batch, axis=1))
        if v is not None and (best_val is None or v < best_val):
            best_val, best_mu = v, m
    if best_val is None:
        raise NumericError("no feasible direction found in the sorted sector")

    # local phase: shrinking scale-aware perturbations of the incumbent
    widths = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
    m = max((samples - half) // len(widths), 1)
    for width in widths:
        step = width * (np.abs(best_mu) + 1.0)
        cand = best_mu + step * rng.standard_normal((m, n))
        v, mm = evaluate(np.sort(cand, axis=1))
        if v is not None and v < best_val:
            best_val, best_mu = v, mm
    return best_val


def mui_necessary(mu, k):
    """Necessary linear conditions for membership of mu in the dual cone
    G*_k: k(n-1) mu_i + (n-k) sum_{j != i} mu_j >= 0 for every i."""
    mu = _check_spectrum(mu)
    n = mu.size
    k = _check_k(k, n)
    s = mu.sum()
    slacks = k * (n - 1) * mu + (n - k) * (s - mu)
    margin = float(slacks.min())
    return ConeVerdict(margin >= -MEMBERSHIP_TOL, margin, k, CLOSED)


def gs_spectrum(n, alpha):
    """Eigenvalues (1,...,1,(n-1)/(1-alpha)) of the radial-anisotropy
    operator; lies in G*_k exactly when alpha <= 2 - n/k."""
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    if not alpha < 1:
        raise ParamError("alpha", f"need alpha < 1, got {alpha!r}")
    lam = np.ones(n)
    lam[-1] = (n - 1) / (1.0 - alpha)
    return lam


def _check_symmetric(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(A, A.T):
        raise ValueError("matrix must be exactly symmetric")
    return A


def gamma2_star_matrix_test(A):
    """Matrix-norm characterization of G*_2:
    member iff tr A > 0 and ||(n-1)/tr(A) * A - I||_HS <= 1.

    The Hilbert-Schmidt norm makes this identical (by expanding the square)
    to the eigenvalue ball characterization |lam| <= S_1/sqrt(n-1).
    """
    A = _check_symmetric(A)
    n = A.shape[0]
    tr = float(np.trace(A))
    if tr <= 0.0:
        return ConeVerdict(False, -np.inf if tr < 0 else -1.0, 2, DUAL)
    dev = float(np.linalg.norm((n - 1) / tr * A - np.eye(n)))
    margin = 1.0 - dev
    return ConeVerdict(margin > -MEMBERSHIP_TOL, margin, 2, DUAL)
