"""Acceptance suite: one test per release criterion, at the stated
tolerances.  Each test is self-contained and draws its own random data
from fixed seeds."""

import warnings
from math import comb

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from conelab import fd, green, lab, radial, symcone


def sample_dual2(rng, n, m, tmax=0.98):
    """m spectra in the interior of G*_2 (circular-cone parametrization)."""
    a = rng.uniform(0.2, 3.0, m)
    v = rng.normal(size=(m, n))
    v -= v.mean(axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t = rng.uniform(0.0, tmax, m)
    return a[:, None] + (t * a / np.sqrt(n - 1))[:, None] * v


def sample_cone(rng, n, k, m):
    """m spectra in G_k by vectorized rejection from Gaussian draws,
    topped up with positive-orthant draws (subset of every G_k)."""
    out = []
    need = m
    for _ in range(50):
        cand = rng.normal(size=(4 * need, n)) * rng.uniform(
            0.5, 2.0, (4 * need, 1))
        e = symcone.elem_sym_table(cand)
        keep = np.all(e[:, 1:k + 1] > 0.0, axis=1)
        got = cand[keep][:need]
        out.append(got)
        need -= len(got)
        if need <= 0:
            break
    if need > 0:
        out.append(np.abs(rng.normal(size=(need, n))) + 0.05)
    return np.concatenate(out)[:m]


def rho_k_batch(lams, k):
    n = lams.shape[1]
    return (symcone.elem_sym_table(lams)[:, k] / comb(n, k)) ** (1.0 / k)


def test_criterion_01_dual_formula_agreement():
    rng = np.random.default_rng(101)
    # closed forms vs the general slice program: k = 2, and k = n (the
    # geometric mean); the program meets both to rounding
    for n in (3, 4, 5, 6):
        lams = sample_dual2(rng, n, 1000)
        for lam in lams:
            cf = symcone.rho_star_closed_form_2(lam)
            pr = symcone.rho_star_program(lam, 2)
            assert abs(pr - cf) <= 1e-12 * cf
            gm = float(np.prod(lam)) ** (1.0 / n)
            assert abs(symcone.rho_star_program(lam, n) - gm) <= 1e-12 * gm
    # sampling oracle vs rho_star at 1e5 samples
    for n in (3, 4, 5):
        for k in (2, 3):
            for lam in sample_dual2(rng, n, 5, tmax=0.9):
                v = symcone.rho_star(lam, k)
                o = symcone.rho_star_oracle(lam, k, samples=100_000,
                                            seed=17)
                assert abs(o - v) <= 1e-3 * v


def test_criterion_02_pairing_inequality():
    rng = np.random.default_rng(202)
    checked = 0
    # closed-form dual gauges carry the bulk
    for n, k, m in [(3, 1, 1000), (3, 2, 1500), (3, 3, 1500),
                    (4, 2, 1500), (4, 4, 1000), (5, 2, 1500), (5, 5, 1000)]:
        A = sample_cone(rng, n, k, m)
        if k == 1:
            B = rng.uniform(0.1, 3.0, m)[:, None] * np.ones((m, n))
            rs = B[:, 0]
        elif k == n:
            B = np.abs(rng.normal(size=(m, n))) + 1e-3
            rs = np.prod(B, axis=1) ** (1.0 / n)
        else:
            B = sample_dual2(rng, n, m)
            s1 = B.sum(axis=1)
            rs = np.sqrt((s1 ** 2 - (n - 1) * np.sum(B ** 2, 1)) / n)
        lhs = rho_k_batch(A, k) * rs
        rhs = np.sum(A * B, axis=1) / n
        assert np.all(lhs <= rhs + 1e-9)
        checked += m
    # general-k dual gauge via the optimizer
    for n, k, m in [(4, 3, 500), (5, 3, 500)]:
        A = sample_cone(rng, n, k, m)
        B = sample_dual2(rng, n, m)      # G*_2 subset of G*_k for k >= 2
        rs = np.array([symcone.rho_star(b, k) for b in B])
        lhs = rho_k_batch(A, k) * rs
        rhs = np.sum(A * B, axis=1) / n
        assert np.all(lhs <= rhs + 1e-9)
        checked += m
    assert checked >= 10_000


def test_criterion_03_cone_structure_suite():
    rng = np.random.default_rng(303)
    m = 10_000
    # Maclaurin ordering rho_k <= rho_l for k >= l on G_k samples
    for n, k in [(3, 3), (4, 3), (5, 4)]:
        A = sample_cone(rng, n, k, m)
        rhos = np.stack([rho_k_batch(A, j) for j in range(1, k + 1)])
        assert np.all(np.diff(rhos, axis=0) <= 1e-9 * np.abs(rhos[:-1]))
    # primal nesting: G_k samples satisfy every lower cone constraint
    A = sample_cone(rng, 4, 3, m)
    e = symcone.elem_sym_table(A)
    assert np.all(e[:, 1:4] > 0.0)
    # dual nesting chain at n = 3 (all margins closed-form): the ray is
    # inside G*_2, and G*_2 samples are inside G*_3 (the orthant)
    D = sample_dual2(rng, 3, m)
    assert np.all(D.min(axis=1) >= -1e-9)               # dual nonnegativity
    ray = rng.uniform(0.1, 3.0, m)
    for c in ray[:100]:
        assert symcone.in_dual_cone(np.full(3, c), 2).member
    # necessary linear conditions hold on dual members
    for n in (3, 4, 5):
        D = sample_dual2(rng, n, 200)
        for k in (2, n):
            for mu in D:
                assert symcone.mui_necessary(mu, k).member
    # ball vs matrix-norm characterization of G*_2
    count = 0
    for n in (3, 4, 5, 6):
        for _ in range(m // 4 // 100):
            for _ in range(100):
                M = rng.normal(size=(n, n)) * rng.uniform(0.2, 2.0)
                A1 = (M + M.T) / 2
                lam = np.linalg.eigvalsh(A1)
                s1 = lam.sum()
                ball = s1 > 0 and np.linalg.norm(lam) <= s1 / np.sqrt(n - 1)
                verdict = symcone.gamma2_star_matrix_test(A1)
                scale = max(np.linalg.norm(lam), 1e-30)
                near = abs(s1 / np.sqrt(n - 1)
                           - np.linalg.norm(lam)) <= 1e-9 * scale
                assert verdict.member == ball or near
                count += 1
    assert count >= m


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_criterion_04_threshold_bisection(n, k):
    target = 2.0 - n / k

    def member(alpha):
        return symcone.in_dual_cone(symcone.gs_spectrum(n, alpha), k).member

    lo, hi = -2.0, 0.99
    assert member(lo) and not member(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - target) <= 1e-6


def test_criterion_05_exact_solution_residuals():
    # radial path: exact solutions annihilated down to the cancellation
    # floor of the evaluated terms
    r = np.linspace(1e-3, 1.0, 4001)
    for n, alpha in [(3, 0.5), (3, 0.25), (4, 0.5), (5, 0.4)]:
        beta = -1 + (n - 1) / (1 - alpha)
        prof = radial.power_profile(alpha)
        lu = radial.radial_apply(n, beta, prof)
        scale = np.maximum(1.0, (n - 1) * np.abs(prof.du(r)) / r)
        assert np.max(np.abs(lu.u(r)) / scale) <= 1e-12
    for n in (3, 4, 5):
        prof = radial.power_profile(0.0)
        lu = radial.radial_apply(n, n - 2, prof)
        scale = np.maximum(1.0, (n - 1) * np.abs(prof.du(r)) / r)
        assert np.max(np.abs(lu.u(r)) / scale) <= 1e-12
    # lattice path: residual order ~2 under refinement away from origin
    n, alpha = 3, 0.5
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = fd.build_grid(fd.Domain.ball(np.zeros(n), 1.0), h)
        u = fd.field_from_function(
            g, lambda x: np.sum(x ** 2, -1) ** (alpha / 2))
        out = fd.apply_L(u, fd.coeff_gilbarg_serrin(n, alpha)(g))
        rr = np.linalg.norm(g.points(), axis=-1)
        sel = g.interior & (rr >= 0.2) & (rr < 1 - 2 * h)
        errs.append(np.max(np.abs(out.values[sel])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders >= 1.7) & (orders <= 2.3))


def battery_configs():
    base_h = [1 / 8, 1 / 12, 1 / 16]
    ball = {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
    cfgs = [
        # the Poisson bubble, finer ladder for the quantitative target
        {"exp": "max_principle", "name": "bubble", "n": 3, "k": 3,
         "q": 3.0, "domain": ball, "h": [1 / 16, 1 / 24, 1 / 32],
         "f": {"type": "constant", "params": {"value": 6.0}}},
        {"exp": "max_principle", "name": "zero_rhs", "n": 3, "k": 2,
         "q": 2.0, "domain": ball, "h": base_h, "f": {"type": "zero"}},
    ]
    pairs = [
        ({"type": "identity"}, {"type": "constant", "params": {"value": 3.0}}, 2),
        ({"type": "identity"}, {"type": "gaussian",
                                "params": {"amp": 5.0, "width": 0.4}}, 2),
        ({"type": "identity"}, {"type": "radial_power",
                                "params": {"amp": 2.0, "power": 1.0}}, 3),
        ({"type": "gilbarg_serrin", "alpha": 0.1},
         {"type": "constant", "params": {"value": 2.0}}, 2),
        ({"type": "gilbarg_serrin", "alpha": 0.25},
         {"type": "gaussian", "params": {"amp": 3.0, "width": 0.5}}, 2),
        ({"type": "gilbarg_serrin", "alpha": 0.4},
         {"type": "radial_power", "params": {"amp": 1.0, "power": 2.0}}, 2),
        ({"type": "gilbarg_serrin", "alpha": -0.5},
         {"type": "constant", "params": {"value": 4.0}}, 3),
        ({"type": "gilbarg_serrin", "alpha": 0.5},
         {"type": "gaussian", "params": {"amp": 2.0, "width": 0.6}}, 3),
        ({"type": "constant",
          "matrix": [[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.5]]},
         {"type": "constant", "params": {"value": 5.0}}, 2),
        ({"type": "constant",
          "matrix": [[2.0, 0.0, 0.2], [0.0, 2.0, 0.0], [0.2, 0.0, 2.0]]},
         {"type": "gaussian", "params": {"amp": 4.0, "width": 0.3}}, 3),
    ]
    for i, (op, f, k) in enumerate(pairs):
        cfgs.append({"exp": "max_principle", "name": f"pair{i:02d}",
                     "n": 3, "k": k, "q": float(k), "domain": ball,
                     "h": base_h, "operator": op, "f": f})
    # 2 < k < n: rho*_k from the optimizer, once per lattice
    for n, k, alpha, h, f in (
            (4, 3, -0.3, [1 / 4, 1 / 6],
             {"type": "gaussian", "params": {"amp": 3.0, "width": 0.5}}),
            (5, 4, 0.25, [1 / 4],
             {"type": "constant", "params": {"value": 4.0}})):
        cfgs.append({"exp": "max_principle", "name": f"gs_n{n}_k{k}",
                     "n": n, "k": k, "q": float(k),
                     "domain": {"kind": "ball", "center": [0.0] * n,
                                "radius": 1.0},
                     "h": h, "operator": {"type": "gilbarg_serrin",
                                          "alpha": alpha}, "f": f})
    return cfgs


def test_criterion_06_explicit_constant_bound(tmp_path):
    cfgs = battery_configs()
    assert len(cfgs) >= 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fd.MonotonicityWarning)
        reports, code = lab.run_suite({"experiments": cfgs},
                                      out_dir=str(tmp_path))
    assert code == 0
    by_name = {r.name: r for r in reports}
    for rep in reports:
        for run in rep.runs:
            assert run["margin"] >= 0.0, (rep.name, run)
    bubble = by_name["bubble"].runs[-1]
    assert abs(bubble["lhs"] - 1.0) <= 0.05
    assert abs(bubble["rhs"] - 4.0) <= 0.2


def test_battery_rho_star_defined_once():
    # for each (operator, k) of the battery: the lattice field, the stacked
    # evaluation and a one-row call on the spectrum in ascending order give
    # the same bits
    seen = set()
    for job in battery_configs():
        n, k, op = job["n"], job["k"], job.get("operator",
                                               {"type": "identity"})
        if repr((n, k, op)) in seen:
            continue
        seen.add(repr((n, k, op)))
        cfg = lab.parse_config({key: v for key, v in job.items()
                                if key != "exp"})
        grid = fd.build_grid(fd.Domain.ball(np.zeros(n), 1.0), 0.25)
        coeff = lab.coeff_builder(cfg)(grid)
        field = green.rho_star_field(coeff, k, grid.interior)
        rows, _, _ = symcone.rho_star_rows(coeff.spectra, k)
        one = symcone.rho_star(coeff.spectra[0, ::-1], k)
        assert rows[0] > 0.0 and rows[0] == one, (n, k, op)
        assert np.array_equal(field, np.full(len(field), one)), (n, k, op)
    assert len(seen) >= 10


def test_battery_builder_spectrum_is_the_declared_one():
    # each builder's own spectrum has the bits of the one the operator
    # table used to declare beside it, so no rho*_k of the battery moves
    declared = {
        "identity": lambda n, op: np.ones(n),
        "gilbarg_serrin": lambda n, op: symcone.gs_spectrum(
            n, float(op["alpha"])),
        "constant": lambda n, op: np.linalg.eigvalsh(op["matrix"])[::-1]}
    seen = set()
    for job in battery_configs():
        n, op = job["n"], job.get("operator", {"type": "identity"})
        cfg = lab.parse_config({key: v for key, v in job.items()
                                if key != "exp"})
        grid = fd.build_grid(fd.Domain.ball(np.zeros(n), 1.0), 0.25)
        spectra = lab.coeff_builder(cfg)(grid).spectra
        want = np.sort(declared[op["type"]](n, op))[None, ::-1]
        assert spectra.tobytes() == want.tobytes(), (n, op)
        seen.add(op["type"])
    assert seen == set(declared)


def test_battery_config_echo_round_trip():
    # the echo in each report parses back to the same config
    for job in battery_configs():
        cfg = lab.parse_config({k: v for k, v in job.items() if k != "exp"})
        assert lab.parse_config(cfg.to_dict()).to_dict() == cfg.to_dict()


def exact_upper_contact_kn(u):
    """Interior nodes where u meets its concave envelope over the active
    nodes: the exact discrete upper contact set for k = n.  The envelope is
    the upper hull of the points (lattice index, u); its facets are
    evaluated in blocks of at most 32 MB."""
    grid = u.grid
    pts = np.column_stack([np.argwhere(grid.active), u.values[grid.active]])
    eq = ConvexHull(pts).equations
    upper = eq[eq[:, -2] > 0]      # outward normal points up in u
    nodes = np.column_stack([np.argwhere(grid.interior),
                             u.values[grid.interior]])
    gap = np.empty(len(nodes))     # lowest facet plane above u, minus u
    step = max(1, (32 << 20) // (8 * len(upper)))
    for i in range(0, len(nodes), step):
        block = nodes[i:i + step] @ upper[:, :-1].T
        block += upper[:, -1]
        block /= upper[:, -2]
        gap[i:i + step] = -block.max(axis=1)
    out = np.zeros(grid.shape, dtype=bool)
    out[grid.interior] = gap <= 1e-9 * max(1.0, np.abs(pts[:, -1]).max())
    return out


@pytest.mark.parametrize("h", [1 / 8, 1 / 12], ids=["h8", "h12"])
def test_contact_surrogate_contains_exact_kn_set(h):
    # every estimate takes its norm over green.contact_mask, so it must
    # contain the true contact set; if this fails, widen the surrogate,
    # not this test
    jobs = [job for job in battery_configs() if job["k"] == job["n"]]
    assert len(jobs) == 5
    for job in jobs:
        cfg = lab.parse_config({k: v for k, v in job.items() if k != "exp"})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            _, _, _, u = lab._solve(cfg, h)
        exact = exact_upper_contact_kn(u)
        assert np.any(exact), job["name"]
        missed = exact & ~green.contact_mask(u, cfg.n).mask
        assert not np.any(missed), (job["name"], np.argwhere(missed))


def test_criterion_07_green_identities():
    supported = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4),
                 (5, 3), (5, 4), (6, 4), (6, 6)]
    for n, k in supported:
        for R in (0.5, 1.0, 2.0):
            spec = green.GreenBallSpec(n, k, R)
            assert green.green_ball_radial(spec, R) == 0.0
            prof = green.green_ball_profile(spec)
            s = np.linspace(1e-3 * R, R * (1 - 1e-3), 401)
            res = np.abs(radial.radial_fk(n, k, prof, s))
            scale = np.maximum(1.0, comb(n - 1, k)
                               * np.abs(prof.du(s) / s) ** k)
            assert np.max(res / scale) <= 1e-12
    # k = n branch is the classical cone over the boundary sphere
    for n in (2, 3, 4, 5):
        spec = green.GreenBallSpec(n, n, 1.3)
        s = np.linspace(0.0, 1.3, 31)
        cone = (s - 1.3) / radial.unit_ball_volume(n) ** (1.0 / n)
        assert np.allclose(green.green_ball_radial(spec, s), cone,
                           rtol=1e-14, atol=1e-14)
    # constant identity best = abp(2R) * 2^{-(2-n/k)}
    for n, k in [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (6, 4)]:
        for R in (0.25, 1.0, 3.0):
            lhs = green.best_constant_ball(n, k, R)
            rhs = green.abp_constant(n, k, 2 * R) * 2.0 ** -(2 - n / k)
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_criterion_08_sharpness_slopes():
    rep = lab.run_one("sharpness", {
        "name": "sharp", "n": 3, "k": 2, "q": 2.0,
        "q_list": [1.2, 1.5, 1.8, 2.0], "mode": "exploratory"})
    slopes = {s.label: s for s in rep.slopes}
    for q in (1.2, 1.5, 1.8, 2.0):
        s = slopes[f"norm_decay_q={q:g}"]
        assert abs(s.slope - (3.0 / q - 1.5)) <= 0.1
    sup = next(v for v in rep.verdicts if v.name == "sup_to_one")
    assert sup.passed and abs(sup.value - 1.0) <= 1e-6


def test_criterion_09_log_family():
    rep = lab.run_one("log_family", {
        "name": "log", "n": 4, "k": 2, "q": 2.0, "mode": "exploratory"})
    target = 2 * 3 * np.sqrt(np.pi ** 2 / 2)
    assert abs(target - 13.3286) < 1e-3
    norms = [r["norm"] for r in rep.runs]
    assert all(abs(nm / target - 1.0) <= 0.02 for nm in norms)
    ratio = next(v for v in rep.verdicts if v.name == "inf_over_log_to_one")
    assert ratio.passed and abs(ratio.value - 1.0) <= 5e-3


def test_criterion_10_local_property_suite():
    ball = {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fd.MonotonicityWarning)
        # quadratic bubble oscillation decays with exponent 2
        rep = lab.run_one("oscillation", {
            "name": "osc_bubble", "n": 3, "k": 2, "q": 2.0,
            "domain": ball, "h": [1 / 32],
            "f": {"type": "constant", "params": {"value": 6.0}}})
        assert rep.passed
        assert abs(rep.slopes[0].slope - 2.0) <= 0.05
        # anisotropic-operator solution still shows oscillation decay
        rep = lab.run_one("oscillation", {
            "name": "osc_gs", "n": 3, "k": 2, "q": 2.0,
            "domain": ball, "h": [1 / 16],
            "operator": {"type": "gilbarg_serrin", "alpha": 0.25},
            "f": {"type": "gaussian", "params": {"amp": 3.0, "width": 0.5}}})
        assert rep.passed
        assert rep.slopes[0].slope > 0.0
        # interior sup bound ratio is h-stable
        for op in ({"type": "identity"},
                   {"type": "gilbarg_serrin", "alpha": 0.25}):
            for p in (1.0, 2.0):
                rep = lab.run_one("local_max", {
                    "name": "lm", "n": 3, "k": 2, "q": 2.0, "p": p,
                    "domain": ball, "h": [1 / 8, 1 / 12, 1 / 16],
                    "operator": op,
                    "f": {"type": "gaussian",
                          "params": {"amp": 3.0, "width": 0.5}}})
                assert rep.passed
        # second-derivative ratio is h-stable (max/min <= 1.5)
        for op, f in [({"type": "identity"},
                       {"type": "gaussian",
                        "params": {"amp": 2.0, "width": 0.6}}),
                      ({"type": "identity"},
                       {"type": "constant", "params": {"value": 3.0}}),
                      ({"type": "gilbarg_serrin", "alpha": 0.25},
                       {"type": "gaussian",
                        "params": {"amp": 2.0, "width": 0.6}})]:
            rep = lab.run_one("w22", {
                "name": "w22", "n": 3, "k": 2, "q": 2.0,
                "domain": ball, "h": [1 / 8, 1 / 12, 1 / 16],
                "operator": op, "f": f})
            assert rep.passed
            spread = next(v for v in rep.verdicts
                          if v.name == "ratio_h_stable")
            assert spread.value <= 1.5
