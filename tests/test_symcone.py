"""Cone-calculus unit and property tests."""

import re
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import symcone as sc


def elem_sym_bruteforce(lam, k):
    """Independent oracle: explicit sum over increasing k-subsets."""
    return sum(np.prod([lam[i] for i in idx])
               for idx in combinations(range(len(lam)), k))


def random_orthogonal(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


class TestElemSym:
    def test_123_k2(self):
        assert sc.elem_sym([1, 2, 3], 2) == 11

    def test_all_ones_k3(self):
        assert sc.elem_sym([1, 1, 1], 3) == 1

    def test_homogeneity_degree2(self):
        assert sc.elem_sym([2, 4, 6], 2) == pytest.approx(44)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6),
           st.integers(1, 6))
    def test_matches_bruteforce(self, vals, k):
        if k > len(vals):
            k = len(vals)
        got = sc.elem_sym(vals, k)
        want = elem_sym_bruteforce(vals, k)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    @given(st.permutations(list(range(5))))
    def test_permutation_invariance_exact(self, perm):
        base = np.array([0.3, -1.7, 2.9, 0.11, 5.0])
        assert sc.elem_sym(base[list(perm)], 3) == sc.elem_sym(base, 3)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            sc.elem_sym([1, 2, 3], 4)
        with pytest.raises(ValueError):
            sc.elem_sym([1, 2, 3], 0)

    def test_iterate_table_follows_overwritten_array(self):
        # SLSQP may overwrite the iterate in place; the cache keys on values
        table = sc._iterate_table()
        mu = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(table(mu), sc.elem_sym_table(mu))
        mu[0] = 5.0
        assert np.array_equal(table(mu), sc.elem_sym_table(mu))


# every public entry point that takes a cone index k
K_ENTRY_POINTS = {
    "elem_sym": lambda k: sc.elem_sym([1, 2, 3], k),
    "rho_k": lambda k: sc.rho_k([1, 2, 3], k),
    "in_cone": lambda k: sc.in_cone([1, 2, 3], k),
    "dual_margin": lambda k: sc.dual_margin([1, 2, 3], k),
    "in_dual_cone": lambda k: sc.in_dual_cone([1, 2, 3], k),
    "rho_star_program": lambda k: sc.rho_star_program([1, 2, 3], k),
    "rho_star_rows": lambda k: sc.rho_star_rows([[1, 2, 3]], k),
    "rho_star": lambda k: sc.rho_star([1, 2, 3], k),
    "rho_star_oracle": lambda k: sc.rho_star_oracle([1, 2, 3], k, 100),
    "mui_necessary": lambda k: sc.mui_necessary([1, 2, 3], k),
}


class TestConeIndex:
    @pytest.mark.parametrize("entry", K_ENTRY_POINTS)
    @pytest.mark.parametrize("k", [2.5, 2.9, 2.0, np.float64(2.0), True,
                                   np.True_, "2", None],
                             ids=repr)
    def test_non_integer_k_rejected(self, entry, k):
        # a truncated k would answer for a neighbouring cone
        with pytest.raises(ValueError, match=re.escape(repr(k))):
            K_ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", K_ENTRY_POINTS)
    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)],
                             ids=repr)
    def test_numpy_integer_k_accepted(self, entry, k):
        assert repr(K_ENTRY_POINTS[entry](k)) == repr(
            K_ENTRY_POINTS[entry](2))


class TestOneCheck:
    """Each public entry point validates its spectrum and k exactly once;
    what it calls inside symcone trusts them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"_check_spectrum": 0, "_check_k": 0}
        for name in counts:
            real = getattr(sc, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(sc, name, counted)
        return counts

    @pytest.mark.parametrize("entry", K_ENTRY_POINTS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_entry_points(self, counts, entry, k):
        try:
            K_ENTRY_POINTS[entry](k)
        except ValueError:
            pass    # rho_star_program at k = 1, rho_star off G*_1
        assert counts == {"_check_spectrum": 1, "_check_k": 1}

    @pytest.mark.parametrize("k", [3, 4])
    def test_program_fallback(self, counts, monkeypatch, k):
        # Newton finds no maximizer, so dual_margin's value decides
        calls, real = [], sc._barrier_newton

        def counted(a, k):
            calls.append(k)
            return real(a, k)
        monkeypatch.setattr(sc, "_barrier_newton", counted)
        with pytest.raises(ValueError, match="dual cone"):
            sc.rho_star_program([1.0, 1.0, 1.0, -3.0], k)
        assert calls == [k]
        assert counts == {"_check_spectrum": 1, "_check_k": 1}

    def test_rows_optimized_stack(self, counts):
        rng = np.random.default_rng(5)
        lam = np.vstack([rng.uniform(0.5, 1.5, (5, 4)), [1.0, 1.0, 1.0, -3.0]])
        vals, path, calls = sc.rho_star_rows(lam, 3)
        assert path == "optimized" and calls == 6
        assert np.isfinite(vals[:5]).all() and np.isnan(vals[5])
        assert counts == {"_check_spectrum": 1, "_check_k": 1}


class TestRhoK:
    def test_all_ones(self):
        for k in (1, 2, 3):
            assert sc.rho_k([1, 1, 1], k) == pytest.approx(1.0)

    def test_123_k2(self):
        assert sc.rho_k([1, 2, 3], 2) == pytest.approx((11 / 3) ** 0.5)

    def test_geometric_mean_k_equals_n(self):
        assert sc.rho_k([1, 4, 2], 3) == pytest.approx(2.0)

    def test_negative_sk_rejected(self):
        with pytest.raises(ValueError):
            sc.rho_k([-1, 1, 1], 2)

    def test_degree_one_homogeneity(self):
        lam = np.array([0.5, 1.5, 2.5, 3.0])
        for k in (1, 2, 3, 4):
            assert sc.rho_k(3 * lam, k) == pytest.approx(
                3 * sc.rho_k(lam, k), rel=1e-9)


class TestInCone:
    def test_half_space(self):
        assert sc.in_cone([-1, 1, 1], 1).member

    def test_s2_negative(self):
        assert not sc.in_cone([-1, 1, 1], 2).member

    def test_positive_cone_point(self):
        v = sc.in_cone(np.ones(5), 4)
        assert v.member and v.margin > 0

    def test_nesting(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            lam = rng.standard_normal(4) * 2
            for k in range(4, 1, -1):
                if sc.in_cone(lam, k).member:
                    assert sc.in_cone(lam, k - 1).member

    def test_closed_vs_open_at_boundary(self):
        lam = [0.0, 1.0, 1.0]
        # S_3 = 0: on the boundary of G_3
        assert sc.in_cone(lam, 3, closed=True).member
        assert not sc.in_cone(lam, 3, closed=False).member


class TestMatrixConeSlack:
    # the eigenvalue route is the oracle; both round S_j by a small
    # multiple of eps |M|^j (measured: at most 2.2 eps |M|_F^j here)
    TOL = 16 * np.finfo(float).eps

    def check(self, M, k):
        want = sc.cone_slack(np.linalg.eigvalsh(M), k)
        got = sc.matrix_cone_slack(M, k)
        norm = np.linalg.norm(M, axis=(-2, -1))
        bound = self.TOL * np.max([norm ** j for j in range(1, k + 1)],
                                  axis=0)
        assert np.all(np.abs(got - want) <= bound)
        assert np.array_equal(got >= -sc.MEMBERSHIP_TOL,
                              want >= -sc.MEMBERSHIP_TOL)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_random_stacks(self, n):
        rng = np.random.default_rng(40 + n)
        for scale in (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
            a = scale * rng.standard_normal((400, n, n))
            M = (a + np.swapaxes(a, 1, 2)) / 2
            for k in range(1, n + 1):
                self.check(M, k)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_cone_boundary(self, n):
        # the spectrum (0, 1, ..., 1), on the boundary of G_n, rotated: both
        # routes keep it in the closed cone
        rng = np.random.default_rng(50 + n)
        lam = np.ones(n)
        lam[0] = 0.0
        q = np.stack([random_orthogonal(n, rng) for _ in range(200)])
        M = q @ (lam[:, None] * np.swapaxes(q, 1, 2))
        M = (M + np.swapaxes(M, 1, 2)) / 2
        for k in range(1, n + 1):
            self.check(M, k)
            assert np.all(sc.matrix_cone_slack(M, k) >= -sc.MEMBERSHIP_TOL)

    def test_one_matrix(self):
        M = np.diag([3.0, 1.0, -0.5])
        assert sc.matrix_cone_slack(M, 2) == pytest.approx(
            sc.cone_slack(np.array([3.0, 1.0, -0.5]), 2), rel=1e-14)
        assert sc.matrix_cone_slack(M, 3) < 0.0


# ROADMAP item 2: dual_margin(ITEM2_LAM, 3) returns lam.min = -0.14500, but
# ITEM2_MU, renormalized, is a unit point of the open G_3 with
# lam.mu = -0.19396
ITEM2_LAM = np.array([-0.145, -0.042, 0.16, 0.681])
ITEM2_MU = np.array([0.834199, 0.479124, 0.238126, -0.133594]) + 1e-9


class TestDualCone:
    def test_k1_is_diagonal_ray(self):
        assert sc.in_dual_cone([1, 1, 1], 1).member
        assert not sc.in_dual_cone([1, 2, 1], 1).member

    def test_k2_ball_characterization_example(self):
        # |lam| = sqrt(6) <= (1/sqrt(2)) * 4
        assert sc.in_dual_cone([1, 1, 2], 2).member

    def test_duals_nested_and_nonnegative(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(500):
            lam = np.abs(rng.standard_normal(4)) + 0.2 * rng.standard_normal(4)
            for k in range(1, 5):
                v = sc.in_dual_cone(lam, k)
                if v.member:
                    hits += 1
                    assert lam.min() >= -sc.MEMBERSHIP_TOL
                    for l in range(k + 1, 5):
                        assert sc.in_dual_cone(lam, l).member
        assert hits > 0

    def test_k2_closed_form_margin_matches_optimizer(self):
        rng = np.random.default_rng(2)
        for n in (3, 4, 5):
            for _ in range(40):
                lam = rng.standard_normal(n) * 2
                cf = sc.dual_margin(lam, 2)
                op = sc._dual_margin_optimize(lam, 2)
                assert cf == pytest.approx(op, abs=1e-7)

    def test_item2_point_in_open_cone(self):
        # the witness of the xfail below: a unit mu in the open G_3
        mu = ITEM2_MU / np.linalg.norm(ITEM2_MU)
        assert sc.in_cone(mu, 3).member
        assert ITEM2_LAM @ mu == pytest.approx(-0.19396, abs=1e-5)

    @pytest.mark.xfail(strict=True, reason="for 3 <= k < n dual_margin is "
                       "SLSQP's local value, an upper bound on the infimum "
                       "(ROADMAP item 2)")
    def test_margin_below_item2_point(self):
        mu = ITEM2_MU / np.linalg.norm(ITEM2_MU)
        assert sc.dual_margin(ITEM2_LAM, 3) <= ITEM2_LAM @ mu

    def test_margin_permutation_invariant(self):
        lam = np.array([0.9, 1.1, 0.2, 1.8])
        rng = np.random.default_rng(3)
        ref = sc.dual_margin(lam, 3)
        for _ in range(5):
            assert sc.dual_margin(rng.permutation(lam), 3) == pytest.approx(
                ref, abs=1e-7)


class TestRhoStar:
    def test_k2_closed_form(self):
        assert sc.rho_star([1, 1, 2], 2) == pytest.approx(
            2 / np.sqrt(3), rel=1e-12)

    def test_k_equals_n_geometric_mean(self):
        assert sc.rho_star([1, 4, 2], 3) == pytest.approx(2.0)

    def test_all_ones(self):
        for n, k in [(3, 2), (4, 3), (5, 3), (5, 4)]:
            assert sc.rho_star(np.ones(n), k) == pytest.approx(1.0, abs=1e-7)

    def test_outside_dual_cone_rejected(self):
        with pytest.raises(ValueError):
            sc.rho_star([1, 0, 0], 2)
        with pytest.raises(ValueError):
            sc.rho_star([-1, 2, 3, 4, 5], 3)

    def test_boundary_flag(self):
        assert sc.rho_star(sc.gs_spectrum(3, 0.5), 2) == 0.0

    def test_boundary_spectrum_has_zero_gauge(self):
        lam = np.linalg.eigvalsh(np.diag([1.0, 1.0, 4.0]))[::-1]
        assert sc.rho_star(lam, 2) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            lam = np.abs(1 + 0.4 * rng.standard_normal(5))
            if not sc.in_dual_cone(lam, 3).member:
                continue
            v = sc.rho_star(lam, 3)
            assert sc.rho_star(2.5 * lam, 3) == pytest.approx(
                2.5 * v, rel=1e-6)

    def test_concavity(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 30:
            a = np.abs(1 + 0.3 * rng.standard_normal(4))
            b = np.abs(1 + 0.3 * rng.standard_normal(4))
            if not (sc.in_dual_cone(a, 3).member
                    and sc.in_dual_cone(b, 3).member):
                continue
            mid = sc.rho_star((a + b) / 2, 3)
            assert mid >= (sc.rho_star(a, 3) + sc.rho_star(b, 3)) / 2 - 1e-6
            done += 1

    def test_maclaurin_lower_bound_at_ones(self):
        # mean(mu) >= rho_k(mu) >= 1 on the feasible set forces value 1
        assert sc.rho_star(np.ones(4), 2) == pytest.approx(1.0, abs=1e-9)


def gs_rho_star_exact(n, k, alpha):
    """Reduced oracle for the gilbarg_serrin spectrum (1, ..., 1, L): the
    minimizer is mu = (1, ..., 1, t*), whose S_k = A + B t* is linear in t*
    with A = C(n-1, k), B = C(n-1, k-1); stationarity of
    log((n-1) + L t) - log(A + B t)/k gives t* in closed form."""
    L = (n - 1) / (1.0 - alpha)
    A, B = comb(n - 1, k), comb(n - 1, k - 1)
    t = (B * (n - 1) - L * k * A) / (L * B * (k - 1))
    return ((n - 1) + L * t) / n / ((A + B * t) / comb(n, k)) ** (1.0 / k)


# outside G*_4 (dual margin -0.152); a local optimizer can stop at a
# feasible mu of value 3.2057 there, above the bound mean(lam) = 0.5007
EXTERIOR_K4 = [0.61114324, 0.01124944, -0.15209698, 0.83245446, 0.7382765,
               0.96295027]


# lam drawn as 10**U(-4, 4); want is the barrier Newton's value
ANISOTROPIC = [
    ([1089.4552264846611, 0.0003263739581634493, 27.13015432476894,
      913.4988787382215, 0.0065848850992446155], 4, 0.5395093357379667),
    ([1391.1099859491485, 941.8351768829631, 0.0002254848382363644,
      4499.764491755294], 3, 3.730402725398859),
    ([4523.383038073405, 0.0001217563507717174, 0.011676995119091177,
      1748.440680990372, 2.3037968739517303, 2354.4562725167866], 5,
     2.0020999185298294),
]


class TestRhoStarProgram:
    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (5, 4), (6, 4)])
    @pytest.mark.parametrize("alpha", [-0.5, -0.2, 0.0, 0.1, 0.3])
    def test_gilbarg_serrin_reduced_oracle(self, n, k, alpha):
        want = gs_rho_star_exact(n, k, alpha)
        got = sc.rho_star(sc.gs_spectrum(n, alpha), k)
        assert got == pytest.approx(want, rel=1e-12)

    def test_exterior_spectrum_rejected(self):
        assert sc.dual_margin(np.array(EXTERIOR_K4), 4) < -0.1
        with pytest.raises(ValueError, match="dual cone"):
            sc.rho_star(EXTERIOR_K4, 4)

    def test_values_below_mean(self):
        # mu = (1, ..., 1) is feasible, so rho*_k(lam) <= mean(lam)
        rng = np.random.default_rng(11)
        values = 0
        for _ in range(100):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(3, n))
            lam = rng.uniform(-0.2, 1.0, n)
            try:
                v = sc.rho_star(lam, k)
            except (ValueError, sc.NumericError):
                continue    # outside G*_k, or dual_margin's SLSQP failed
            assert v <= lam.mean() * (1 + 1e-12)
            values += 1
        assert values >= 20

    def test_no_slsqp_on_the_value_path(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize called")
        monkeypatch.setattr(sc, "minimize", fail)
        assert sc.rho_star(sc.gs_spectrum(5, 0.1), 3) == pytest.approx(
            gs_rho_star_exact(5, 3, 0.1), rel=1e-12)
        assert sc.rho_star(np.ones(6), 4) == pytest.approx(1.0, rel=1e-12)
        assert sc.rho_star([1.0, 1.2, 0.9, 1.4, 1.1], 3) > 0.0

    def test_one_table_call_per_step(self, monkeypatch):
        # the start and its _drop_rows, then per step one stack: the step,
        # its ten backtracking points and the full step's _drop_rows (here
        # every step is a full step)
        shapes = []
        table = sc.elem_sym_table

        def counted(values):
            shapes.append(np.shape(values))
            return table(values)
        a = np.array([1.0, 1.2, 0.9, 1.4, 1.1])
        a /= np.linalg.norm(a)
        want_mu, want_sk = sc._barrier_newton(a, 3)
        monkeypatch.setattr(sc, "elem_sym_table", counted)
        mu, sk = sc._barrier_newton(a, 3)
        assert shapes[0] == (26, 5) and len(shapes) >= 2
        assert all(s == (36, 5) for s in shapes[1:])
        assert np.array_equal(mu, want_mu) and sk == want_sk
        assert sk == table(mu)[3]

    @pytest.mark.parametrize("lam,k,want", ANISOTROPIC)
    def test_anisotropic_spectra(self, lam, k, want):
        # entries spread over eight decades: derivatives by deflating one
        # entry from S_j(mu) lose every digit here (0.0 or NumericError);
        # the drop tables keep the value, which the sampling oracle bounds
        got = sc.rho_star(lam, k)
        assert got == pytest.approx(want, rel=1e-9)
        assert got <= sc.rho_star_oracle(lam, k, 20_000, seed=1)

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            sc.rho_star_program([1.0, 2.0, 3.0], 1)


class TestRhoStarOracle:
    def test_k2_against_closed_form(self):
        got = sc.rho_star_oracle([1, 1, 2], 2, 100_000, seed=0)
        assert got == pytest.approx(2 / np.sqrt(3), abs=1e-3)

    def test_ones_k2(self):
        got = sc.rho_star_oracle([1, 1, 1], 2, 100_000, seed=0)
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_ray_k1(self):
        assert sc.rho_star_oracle([2.5, 2.5, 2.5], 1, 1000, seed=0) == (
            pytest.approx(2.5, abs=1e-6))

    def test_general_k_matches_optimizer(self):
        rng = np.random.default_rng(6)
        done = 0
        while done < 5:
            lam = np.abs(1 + 0.5 * rng.standard_normal(5))
            if not sc.in_dual_cone(lam, 3).member:
                continue
            v = sc.rho_star(lam, 3)
            o = sc.rho_star_oracle(lam, 3, 100_000, seed=7)
            assert o == pytest.approx(v, abs=max(1e-3, 1e-3 * v))
            done += 1


class TestMuiNecessary:
    def test_hand_negative(self):
        assert not sc.mui_necessary([-1, 1, 1], 2).member

    def test_positive_cone(self):
        assert sc.mui_necessary(np.ones(4), 3).member

    def test_hand_boundaryish(self):
        v = sc.mui_necessary([0, 1, 1], 2)
        assert v.member and v.margin == pytest.approx(2.0)

    def test_necessary_for_cone_membership(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            mu = rng.standard_normal(4) * 2
            for k in range(1, 5):
                if sc.in_cone(mu, k).member:
                    assert sc.mui_necessary(mu, k).member


class TestGsSpectrum:
    def test_alpha_half_n3(self):
        np.testing.assert_allclose(sc.gs_spectrum(3, 0.5), [1, 1, 4])

    def test_alpha_zero_interior(self):
        lam = sc.gs_spectrum(3, 0.0)
        np.testing.assert_allclose(lam, [1, 1, 2])
        v = sc.in_dual_cone(lam, 2)
        assert v.member and v.margin > 1e-6

    def test_alpha_ge_one_rejected(self):
        with pytest.raises(ValueError):
            sc.gs_spectrum(3, 1.0)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3)])
    def test_membership_threshold(self, n, k):
        thr = 2 - n / k
        assert sc.in_dual_cone(sc.gs_spectrum(n, thr - 1e-4), k).member
        assert not sc.in_dual_cone(sc.gs_spectrum(n, thr + 1e-4), k).member


class TestGamma2StarMatrix:
    def test_identity(self):
        v = sc.gamma2_star_matrix_test(np.eye(3))
        assert v.member and v.margin == pytest.approx(1 - 1 / np.sqrt(3))

    def test_rank_one_outside(self):
        assert not sc.gamma2_star_matrix_test(np.diag([1.0, 0.0, 0.0])).member

    def test_agrees_with_spectral_route(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = rng.standard_normal((3, 3))
            a = (a + a.T) / 2 + np.eye(3) * rng.uniform(-1, 3)
            v1 = sc.gamma2_star_matrix_test(a)
            v2 = sc.in_dual_cone(np.linalg.eigvalsh(a), 2)
            if abs(v2.margin) > 1e-9:
                assert v1.member == v2.member


class TestProposition21:
    def test_inner_product_inequality(self):
        rng = np.random.default_rng(12)
        done = 0
        while done < 60:
            n = int(rng.integers(3, 6))
            k = int(rng.integers(1, n + 1))
            la = rng.standard_normal(n) + 1.5
            lb = np.abs(1 + 0.3 * rng.standard_normal(n))
            if not sc.in_cone(la, k).member:
                continue
            if not sc.in_dual_cone(lb, k).member:
                continue
            qa = random_orthogonal(n, rng)
            qb = random_orthogonal(n, rng)
            a = qa @ np.diag(la) @ qa.T
            b = qb @ np.diag(lb) @ qb.T
            a, b = (a + a.T) / 2, (b + b.T) / 2
            lhs = sc.rho_k(np.sort(la)[::-1], k) * sc.rho_star(lb, k)
            assert lhs <= np.sum(a * b) / n + 1e-9
            done += 1


class TestMaclaurin:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(0.01, 10), min_size=3, max_size=6))
    def test_ordering(self, vals):
        lam = np.array(vals)
        rhos = [sc.rho_k(lam, k) for k in range(1, lam.size + 1)]
        for k in range(1, len(rhos)):
            assert rhos[k] <= rhos[k - 1] + 1e-12 * max(1.0, rhos[k - 1])
