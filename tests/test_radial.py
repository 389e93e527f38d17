import warnings

import numpy as np
import pytest

from conelab import lab, radial
from conelab.radial import (RadialProfile, mollified_lq_norm,
                            mollified_power_profile, power_profile,
                            radial_apply, radial_fk, radial_lq_norm,
                            unit_ball_volume)
from conelab.symcone import NumericError

R_GRID = np.linspace(1e-3, 1.0, 997)


def quadratic_profile():
    return RadialProfile(lambda r: np.asarray(r, float) ** 2 / 2,
                         du=lambda r: np.asarray(r, float),
                         d2u=lambda r: np.ones_like(np.asarray(r, float)))


class TestUnitBallVolume:
    def test_known_values(self):
        assert np.isclose(unit_ball_volume(2), np.pi)
        assert np.isclose(unit_ball_volume(3), 4 * np.pi / 3)
        assert np.isclose(unit_ball_volume(4), np.pi ** 2 / 2)


class TestRadialApply:
    @pytest.mark.parametrize("n,alpha", [(3, 0.5), (4, 0.5), (5, -0.3),
                                         (3, 0.25)])
    def test_power_annihilated(self, n, alpha):
        # r^alpha solves the equation when beta matches alpha
        beta = -1 + (n - 1) / (1 - alpha)
        lu = radial_apply(n, beta, power_profile(alpha))
        scale = np.abs(alpha * (alpha - 1)) * R_GRID ** (alpha - 2)
        assert np.max(np.abs(lu.u(R_GRID)) / np.maximum(scale, 1)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_log_annihilated(self, n):
        lu = radial_apply(n, n - 2, power_profile(0.0))
        assert np.max(np.abs(lu.u(R_GRID)) * R_GRID ** 2) < 1e-12

    def test_laplacian_of_half_square(self):
        for n in (2, 3, 5):
            lu = radial_apply(n, 0.0, quadratic_profile())
            assert np.allclose(lu.u(R_GRID), n, atol=1e-12)

    def test_rejects_origin(self):
        lu = radial_apply(3, 0.0, quadratic_profile())
        with pytest.raises(ValueError):
            lu.u(np.array([0.0, 0.5]))


class TestRadialFk:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (4, 2), (5, 3)])
    def test_half_square(self, n, k):
        from math import comb
        vals = radial_fk(n, k, quadratic_profile(), R_GRID)
        assert np.allclose(vals, comb(n, k), atol=1e-12)

    def test_matches_spectral_route(self):
        # compare against S_k of the explicit Hessian spectrum of r^alpha
        from conelab.symcone import elem_sym
        n, k, alpha = 4, 2, 0.6
        prof = power_profile(alpha)
        rs = np.linspace(0.2, 1.0, 17)
        direct = radial_fk(n, k, prof, rs)
        for r, d in zip(rs, direct):
            lam = np.array([alpha * (alpha - 1) * r ** (alpha - 2)]
                           + [alpha * r ** (alpha - 2)] * (n - 1))
            assert np.isclose(d, elem_sym(lam, k), rtol=1e-12)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            radial_fk(3, 2, quadratic_profile(), np.array([0.0]))


class TestRadialLqNorm:
    def test_constant_ball_volume(self):
        one = RadialProfile(lambda r: np.ones_like(np.asarray(r, float)),
                            du=lambda r: np.zeros_like(np.asarray(r, float)),
                            d2u=lambda r: np.zeros_like(np.asarray(r, float)))
        for q in (1.0, 2.0, 3.0):
            v = radial_lq_norm(one, 3, q, (0.0, 1.0))
            assert np.isclose(v, (4 * np.pi / 3) ** (1 / q), rtol=1e-9)

    def test_inverse_power_closed_form(self):
        # int_a^1 r^-2 * 4 pi r^2 dr = 4 pi (1 - a)
        prof = power_profile(-1.0)
        a = 0.25
        v = radial_lq_norm(prof, 3, 2.0, (a, 1.0))
        assert np.isclose(v, np.sqrt(4 * np.pi * (1 - a)), rtol=1e-9)

    def test_q_below_one(self):
        with pytest.raises(ValueError):
            radial_lq_norm(quadratic_profile(), 3, 0.5, (0, 1))

    def test_reversed_range(self):
        prof = power_profile(-1.0)
        assert (radial_lq_norm(prof, 3, 2.0, (1.0, 0.25))
                == radial_lq_norm(prof, 3, 2.0, (0.25, 1.0)))

    def test_divergent_integral_raises(self):
        # int_0^1 r^-4 * 4 pi r^2 dr diverges; quad returns a negative value
        # with a small error estimate, which must not become a complex norm
        with pytest.raises(NumericError, match=r"\[0\.0, 1\.0\]"):
            radial_lq_norm(power_profile(-2.0), 3, 2.0, (0.0, 1.0))

    def test_non_finite_integrand_raises(self):
        # at eps = 3.5e-197 |Lu|^q r^3 overflows to inf * 0 = nan inside
        # the core, which quad must never see; and numpy must not warn
        lu, _ = lab.sharpness_family(4, 3, 3.5440394116353534e-197)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(NumericError, match=r"integrand over \[0\.0, "
                              r"1\.0\] is nan"):
            warnings.simplefilter("always")
            radial_lq_norm(lu, 4, 3.0, (0.0, 1.0))
        assert [str(w.message) for w in caught] == []

    def test_integrable_singularity(self):
        # int_0^1 r^-2.8 * 4 pi r^2 dr = 20 pi: the adaptive rule must
        # resolve the r^-0.8 singularity at the origin
        v = radial_lq_norm(power_profile(-1.4), 3, 2.0, (0.0, 1.0))
        assert np.isclose(v, np.sqrt(20 * np.pi), rtol=1e-9)

    def test_unmarked_jump(self):
        # a jump at 0.3 that no breakpoint announces
        step = RadialProfile(lambda r: np.where(np.asarray(r) < 0.3, 1.0, 2.0),
                             du=None, d2u=None)
        exact = 4 * np.pi * (0.3 ** 3 + 4 * (1 - 0.3 ** 3)) / 3
        v = radial_lq_norm(step, 3, 2.0, (0.0, 1.0))
        assert np.isclose(v, np.sqrt(exact), rtol=1e-9)

    @pytest.mark.parametrize("eps", [2.0 ** -3, 2.0 ** -10])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 4)])
    def test_sharpness_closed_form(self, n, k, q, eps):
        # the quadratic core a r^2 + c has the constant Lu = 2a(n + beta),
        # and r^alpha outside it is L-harmonic, so the norm is that constant
        # times the core volume to the power 1/q
        alpha = 2.0 - n / k
        beta = -1.0 + (n - 1) / (1.0 - alpha)
        a = alpha / 2.0 * eps ** (alpha - 2.0)
        exact = (abs(2 * a * (n + beta))
                 * (unit_ball_volume(n) * eps ** n) ** (1 / q))
        lu, _ = lab.sharpness_family(n, k, eps)
        v = radial_lq_norm(lu, n, q, (0.0, 1.0))
        assert abs(v - exact) <= 1e-9 * exact

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [2.0 ** -3, 2.0 ** -10])
    def test_log_family_closed_form(self, n, eps):
        # core Lu = (2n - 2)/eps^2 and log r is L-harmonic outside, so the
        # L^{n/2} norm is (2n - 2) omega_n^{2/n} for every eps
        lu = radial_apply(n, n - 2, mollified_power_profile(0.0, eps))
        exact = (2 * n - 2) * unit_ball_volume(n) ** (2 / n)
        assert np.isclose(radial_lq_norm(lu, n, n / 2, (0.0, 1.0)), exact,
                          rtol=1e-9, atol=0)

    def test_integrand_budget(self, monkeypatch):
        # the tolerance applies to the whole integral, so the L-harmonic
        # outer piece (rounding noise only) is not refined: 2 x 21 points
        evals = []
        orig = radial.quad

        def counting_quad(func, *args, **kwargs):
            def f(r):
                evals.append(r)
                return func(r)
            return orig(f, *args, **kwargs)
        monkeypatch.setattr(radial, "quad", counting_quad)
        lu, _ = lab.sharpness_family(3, 2, 2.0 ** -10)
        radial_lq_norm(lu, 3, 2.0, (0.0, 1.0))
        assert 0 < len(evals) <= 200


# every sharpness family (n/2 < k < n) for n = 3..6
SHARPNESS_NK = [(n, k) for n in range(3, 7) for k in range(n // 2 + 1, n)]


class TestMollifiedLqNorm:
    @pytest.mark.parametrize("eps", [2.0 ** -3, 0.1, 2.0 ** -10])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("n,k", SHARPNESS_NK)
    def test_sharpness_matches_quadrature(self, n, k, q, eps):
        lu, _ = lab.sharpness_family(n, k, eps)
        exact = radial_lq_norm(lu, n, q, (0.0, 1.0))
        assert abs(mollified_lq_norm(lu, n, q) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("eps", [2.0 ** -3, 0.1, 2.0 ** -10])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_log_family_matches_quadrature(self, n, eps):
        _, lu = lab._gs_family(n, 0.0, eps)
        exact = radial_lq_norm(lu, n, n / 2, (0.0, 1.0))
        assert abs(mollified_lq_norm(lu, n, n / 2) - exact) <= 1e-12 * exact

    def test_core_beyond_the_unit_ball(self):
        # B_1 lies inside the core: the norm is |Lu| omega_n^{1/q}
        _, lu = lab._gs_family(3, 0.0, 2.0)
        assert mollified_lq_norm(lu, 3, 1.5) == pytest.approx(
            radial_lq_norm(lu, 3, 1.5, (0.0, 1.0)), rel=1e-12)

    def test_norm_below_float_range_raises(self):
        # |Lu| ~ eps^{-5/4} and eps^5: the norm is about 1e-375
        lu, _ = lab.sharpness_family(5, 4, 1e-100)
        with pytest.raises(NumericError, match="out of float range"):
            mollified_lq_norm(lu, 5, 1.0)

    def test_q_below_one(self):
        lu, _ = lab.sharpness_family(3, 2, 0.125)
        with pytest.raises(ValueError):
            mollified_lq_norm(lu, 3, 0.5)


class TestPowerProfiles:
    def test_log_branch(self):
        prof = power_profile(0.0)
        assert np.isclose(prof.u(np.e), 1.0)
        assert np.isclose(prof.du(2.0), 0.5)

    def test_derivative_consistency(self):
        prof = power_profile(0.7)
        r = np.linspace(0.3, 1.0, 11)
        eps = 1e-6
        fd_du = (prof.u(r + eps) - prof.u(r - eps)) / (2 * eps)
        assert np.allclose(fd_du, prof.du(r), rtol=1e-7)


class TestMollifiedProfile:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.0])
    def test_c1_glue(self, alpha):
        eps = 0.125
        prof = mollified_power_profile(alpha, eps)
        lo, hi = eps * (1 - 1e-9), eps * (1 + 1e-9)
        assert np.isclose(prof.u(lo), prof.u(hi), rtol=1e-7)
        assert np.isclose(prof.du(lo), prof.du(hi), rtol=1e-7)

    def test_core_value_at_zero(self):
        eps, alpha = 1 / 8, 0.5
        prof = mollified_power_profile(alpha, eps)
        assert np.isclose(prof.u(np.array([0.0]))[0],
                          (1 - alpha / 2) * eps ** alpha)

    def test_log_core_value(self):
        eps = 1 / 8
        prof = mollified_power_profile(0.0, eps)
        assert np.isclose(prof.u(np.array([0.0]))[0], np.log(eps) - 0.5)

    def test_outer_branch_untouched(self):
        prof = mollified_power_profile(0.5, 0.1)
        r = np.linspace(0.2, 1.0, 9)
        assert np.allclose(prof.u(r), r ** 0.5, rtol=1e-14)

    def test_constant_source_inside(self):
        # the mollified family has piecewise-constant Lu: a positive
        # constant in the core, zero outside
        n, alpha, eps = 3, 0.5, 0.1
        beta = -1 + (n - 1) / (1 - alpha)
        lu = radial_apply(n, beta, mollified_power_profile(alpha, eps))
        inside = np.linspace(eps / 10, 0.9 * eps, 7)
        outside = np.linspace(1.1 * eps, 1.0, 7)
        target = alpha * eps ** (alpha - 2) * (n - 1) * (2 - alpha) \
            / (1 - alpha)
        assert np.allclose(lu.u(inside), target, rtol=1e-12)
        assert np.max(np.abs(lu.u(outside))) < 1e-10

    @pytest.mark.parametrize("eps", [2.0 ** -3, 0.1, 2.0 ** -10])
    @pytest.mark.parametrize("n, alpha", [
        *((n, 2.0 - n / k) for n, k in [(3, 2), (4, 3), (5, 4)]),
        *((n, 0.0) for n in (3, 4, 5, 6))])
    def test_family_lu_is_exact(self, n, alpha, eps):
        # the core a r^2 + c has u'' = u'/r = 2a, and r^alpha (log r) is
        # L-harmonic for 1 + beta = (n - 1)/(1 - alpha)
        beta = -1.0 + (n - 1) / (1.0 - alpha)
        a = (0.5 / eps ** 2 if alpha == 0.0
             else alpha / 2.0 * eps ** (alpha - 2))
        prof, lu = lab._gs_family(n, alpha, eps)
        inside = np.append(np.linspace(eps / 97, eps, 13)[:-1],
                           np.nextafter(eps, 0.0))
        outside = np.append([eps, np.nextafter(eps, 1.0)],
                            np.linspace(eps, 1.0, 13)[1:])
        assert np.all(lu.u(inside) == 2 * a * (n + beta))
        assert np.all(lu.u(outside) == 0.0)
        assert lu.breakpoints == (eps,)
        # the generic operator's cancelling sum agrees up to its rounding,
        # 2 macheps (|1 + beta| |u''| + (n - 1) |u'|/r)
        r = np.concatenate([inside, outside])
        noise = 2 * np.finfo(float).eps * (
            abs(1 + beta) * np.abs(prof.d2u(r)) + (n - 1) * np.abs(prof.du(r))
            / r)
        assert np.all(np.abs(radial_apply(n, beta, prof).u(r) - lu.u(r))
                      <= noise)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            mollified_power_profile(0.5, 0.0)


    @pytest.mark.parametrize("alpha, eps", [(2.0 - 4.0 / 3.0, 1e-300),
                                            (0.0, 1e-200)])
    def test_core_out_of_float_range(self, alpha, eps):
        with pytest.raises(NumericError, match="out of float range"):
            mollified_power_profile(alpha, eps)


class TestSplineProfile:
    def test_derived_profile_has_no_derivative(self):
        lu = radial_apply(3, 0.0, quadratic_profile())
        with pytest.raises(ValueError):
            lu.du(np.array([0.5]))


class TestRadialCartesianAgreement:
    def test_apply_matches_lattice(self):
        # lattice apply_L on a radial field matches the radial operator at
        # second order away from the origin
        from conelab import fd
        n, alpha = 3, 0.5
        beta = -1 + (n - 1) / (1 - alpha)
        lu = radial_apply(n, beta, power_profile(alpha))
        errs = []
        for h in (1 / 16, 1 / 32):
            g = fd.build_grid(fd.Domain.ball(np.zeros(n), 1.0), h)
            u = fd.field_from_function(
                g, lambda x: np.sum(x ** 2, -1) ** (alpha / 2))
            out = fd.apply_L(u, fd.coeff_gilbarg_serrin(n, alpha)(g))
            r = np.linalg.norm(g.points(), axis=-1)
            sel = g.interior & (r > 0.4) & (r < 0.85)
            errs.append(np.max(np.abs(out.values[sel] - lu.u(r[sel]))))
        assert errs[1] < errs[0] / 3.0  # close to the h^2 factor of 4
