import logging
import re
import warnings
from math import comb

import numpy as np
import pytest

from conelab import fd, green, symcone
from conelab.green import (BoundReport, GreenBallSpec, abp_constant,
                           best_constant_ball, bound_report_for, contact_mask,
                           green_ball_profile, green_ball_radial,
                           rho_star_field, theorem_rhs)
from conelab.radial import radial_fk, unit_ball_volume

SUPPORTED = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4),
             (5, 3), (5, 4), (6, 3), (6, 5)]


def ball_grid(n, h):
    return fd.build_grid(fd.Domain.ball(np.zeros(n), 1.0), h)


class TestContactMask:
    def test_concave_bubble_full(self):
        g = ball_grid(2, 0.1)
        u = fd.field_from_function(g, lambda x: 1 - np.sum(x ** 2, -1))
        for k in (1, 2):
            m = contact_mask(u, k)
            assert np.array_equal(m.mask, g.interior)

    def test_convex_empty(self):
        g = ball_grid(2, 0.1)
        u = fd.field_from_function(g, lambda x: 0.5 * np.sum(x ** 2, -1))
        m = contact_mask(u, 1)
        # only Hessian-less rim nodes can survive (kept conservatively)
        H, valid = fd.hessian_field(u)
        assert not np.any(m.mask & valid)

    def test_saddle_boundary_included(self):
        g = fd.build_grid(fd.Domain.box([-1, -1], [1, 1]), 0.125)
        u = fd.field_from_function(
            g, lambda x: 0.5 * (x[..., 0] ** 2 - x[..., 1] ** 2))
        H, valid = fd.hessian_field(u)
        m2 = contact_mask(u, 2)
        assert not np.any(m2.mask & valid)      # det < 0 everywhere
        m1 = contact_mask(u, 1)
        assert np.all(m1.mask[valid])           # S_1 = 0, closed cone

    def test_subset_of_interior(self):
        g = ball_grid(2, 0.1)
        u = fd.field_from_function(g, lambda x: 1 - np.sum(x ** 2, -1))
        m = contact_mask(u, 2)
        assert not np.any(m.mask & ~g.interior)


class TestContactMaskOracle:
    # the power-sum slack of contact_mask against the eigenvalue route,
    # which this test keeps as its oracle, on gilbarg_serrin solutions whose
    # sign-changing source leaves nodes on both sides of the cone
    @pytest.mark.parametrize("n,h,alpha", [(3, 1 / 12, -0.5), (3, 1 / 12, 0.4),
                                           (4, 1 / 8, -0.3), (4, 1 / 8, 0.25),
                                           (5, 1 / 5, -0.3), (5, 1 / 5, 0.25)])
    def test_same_mask_as_eigenvalues(self, n, h, alpha):
        grid = ball_grid(n, h)
        coeff = fd.coeff_gilbarg_serrin(n, alpha)(grid)
        f = fd.field_from_function(
            grid, lambda x: 8.0 * np.exp(-np.sum(x ** 2, -1) / 0.05) - 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            u = fd.solve_dirichlet(coeff, f,
                                   fd.ScalarField(grid, np.zeros(grid.shape)))
        H, valid = fd.hessian_field(u)
        M = -H[valid]
        norm = np.linalg.norm(M, axis=(1, 2))
        eps = np.finfo(float).eps
        for k in range(1, n + 1):
            want_slack = symcone.cone_slack(np.linalg.eigvalsh(M), k)
            got_slack = symcone.matrix_cone_slack(M, k)
            bound = 16 * eps * np.max([norm ** j for j in range(1, k + 1)],
                                      axis=0)
            assert np.all(np.abs(got_slack - want_slack) <= bound)
            want = grid.interior & ~valid
            want[valid] = want_slack >= -symcone.MEMBERSHIP_TOL
            assert np.array_equal(contact_mask(u, k).mask, want)


class TestGreenBall:
    def test_boundary_zero_exact(self):
        for n, k in SUPPORTED:
            spec = GreenBallSpec(n, k, 1.5)
            assert green_ball_radial(spec, 1.5) == 0.0

    def test_worked_value(self):
        spec = GreenBallSpec(3, 2, 1.0)
        v = green_ball_radial(spec, 0.25)
        assert np.isclose(v, -1.0 / np.sqrt(4 * np.pi), rtol=1e-12)

    def test_cone_branch(self):
        for n in (2, 3, 4):
            spec = GreenBallSpec(n, n, 1.0)
            s = np.linspace(0.0, 1.0, 11)
            expect = (s - 1.0) / unit_ball_volume(n) ** (1.0 / n)
            assert np.allclose(green_ball_radial(spec, s), expect,
                               rtol=1e-14)

    def test_k_harmonic(self):
        # radial k-Hessian of the Green profile vanishes off the pole;
        # the residual is pure cancellation, so tolerance scales with the
        # magnitude of the cancelling terms (which blow up near the pole)
        for n, k in SUPPORTED:
            spec = GreenBallSpec(n, k, 1.0)
            prof = green_ball_profile(spec)
            s = np.linspace(1e-3, 1 - 1e-3, 301)
            res = np.abs(radial_fk(n, k, prof, s))
            scale = np.maximum(1.0, comb(n - 1, k)
                               * np.abs(prof.du(s) / s) ** k)
            assert np.max(res / scale) < 1e-12

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_matches_hand_formulas(self, R):
        # the profile, value and pole depth against the closed forms
        # written out by hand, kept here as oracles
        s = R * np.linspace(0.01, 0.9, 90)
        for n, k in SUPPORTED:
            spec = GreenBallSpec(n, k, R)
            c = 1.0 / (comb(n, k) * unit_ball_volume(n)) ** (1.0 / k)
            p = 2.0 - n / k
            if 2 * k == n:
                hand = (c * np.log(s / R), c / s, -c / s ** 2)
            else:
                hand = (c / p * (s ** p - R ** p), c * s ** (p - 1),
                        c * (p - 1) * s ** (p - 2))
                depth = R ** p / (p * (comb(n, k) * unit_ball_volume(n))
                                  ** (1.0 / k))
                assert green.green_depth(n, k, R) == pytest.approx(
                    depth, rel=1e-14, abs=0)
            prof = green_ball_profile(spec)
            got = (prof.u(s), prof.du(s), prof.d2u(s))
            for g, want in zip(got + (green_ball_radial(spec, s),),
                               hand + hand[:1]):
                np.testing.assert_allclose(g, want, rtol=1e-14, atol=0)

    def test_outside_rejected(self):
        spec = GreenBallSpec(3, 2, 1.0)
        with pytest.raises(ValueError):
            green_ball_radial(spec, 1.2)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            GreenBallSpec(4, 1, 1.0)

    def test_log_branch_flag(self):
        assert GreenBallSpec(4, 2, 1.0).log_branch
        assert not GreenBallSpec(3, 2, 1.0).log_branch


class TestConstants:
    def test_abp_worked_values(self):
        assert np.isclose(abp_constant(3, 2, 1.0),
                          (2 / 3) / np.sqrt(4 * np.pi / 3), rtol=1e-12)
        assert np.isclose(abp_constant(3, 3, 2.0),
                          2 / (3 * (4 * np.pi / 3) ** (1 / 3)), rtol=1e-12)

    def test_abp_scaling(self):
        for n, k in [(3, 2), (4, 3), (5, 4)]:
            lam = 1.7
            assert np.isclose(abp_constant(n, k, lam * 0.8),
                              lam ** (2 - n / k) * abp_constant(n, k, 0.8),
                              rtol=1e-12)

    def test_abp_monotone_in_diam(self):
        ds = np.linspace(0.5, 3.0, 7)
        vals = [abp_constant(4, 3, d) for d in ds]
        assert np.all(np.diff(vals) > 0)

    def test_best_constant_identity(self):
        for n, k in [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 4)]:
            for R in (0.5, 1.0, 2.0):
                best = best_constant_ball(n, k, R)
                assert np.isclose(
                    best, abp_constant(n, k, 2 * R) * 2 ** -(2 - n / k),
                    rtol=1e-12)
                assert best <= abp_constant(n, k, 2 * R) + 1e-15

    def test_best_constant_worked(self):
        assert np.isclose(best_constant_ball(3, 2, 1.0), 0.325735, atol=1e-5)

    def test_unsupported_k(self):
        for fn in (abp_constant, best_constant_ball):
            with pytest.raises(ValueError):
                fn(4, 2, 1.0)


class TestRhoStarField:
    def test_identity_ones(self):
        g = ball_grid(3, 0.2)
        coeff = fd.identity_coeff()(g)
        vals = rho_star_field(coeff, 2, g.interior)
        assert np.allclose(vals, np.sqrt((9 - 2 * 3) / 3), rtol=1e-12)

    def test_gs_constant_spectrum(self):
        from conelab.symcone import gs_spectrum, rho_star
        n, alpha = 3, 0.25
        g = ball_grid(n, 0.2)
        coeff = fd.coeff_gilbarg_serrin(n, alpha)(g)
        vals = rho_star_field(coeff, 2, g.interior)
        assert np.allclose(vals, rho_star(gs_spectrum(n, alpha), 2),
                           rtol=1e-9)

    def test_outside_dual_cone_identifies_node(self):
        g = ball_grid(3, 0.2)
        A = np.diag([1.0, 1.0, 5.0])
        coeff = fd.CoeffField(g, fd.constant_coeff(A)(g).A)
        with pytest.raises(ValueError, match="node"):
            rho_star_field(coeff, 2, g.interior)

    def test_k_equals_n(self):
        g = ball_grid(3, 0.2)
        A = np.diag([1.0, 2.0, 4.0])
        coeff = fd.constant_coeff(A)(g)
        vals = rho_star_field(coeff, 3, g.interior)
        assert np.allclose(vals, 2.0, rtol=1e-12)


class TestRhoStarFieldDeclared:
    """A builder's row is evaluated once; on a constant operator its bits
    are the eigvalsh rows, so a field given A alone, whose rows come from
    eigvalsh per node, gets the same values."""

    @pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 3)])
    def test_matches_lattice_path(self, n, k, caplog):
        g = ball_grid(n, 0.25)
        A = np.eye(n) * 2.0
        A[0, 1] = A[1, 0] = 0.1
        A[-1, -1] = 1.5
        built = fd.constant_coeff(A)(g)
        lattice = fd.CoeffField(g, built.A)
        assert np.array_equal(lattice.spectra, built.spectra)
        with caplog.at_level(logging.DEBUG, "conelab.green"):
            from_A = rho_star_field(lattice, k, g.interior)
            declared = rho_star_field(built, k, g.interior)
        assert np.array_equal(declared, from_A)
        for rec in caplog.messages:
            assert re.search(r"nodes=\d+ calls=%d elapsed=\S+ spectra=1$"
                             % (k not in (2, n)), rec)

    def test_outside_dual_cone_names_first_node(self):
        g = ball_grid(3, 0.25)
        A = np.diag([1.0, 1.0, 5.0])
        coeff = fd.constant_coeff(A)(g)
        assert len(coeff.spectra) == 1
        node = tuple(np.argwhere(g.interior)[0].tolist())
        with pytest.raises(ValueError, match=re.escape(f"node {node}")):
            rho_star_field(coeff, 2, g.interior)


class TestRhoStarFieldOrigin:
    """A gilbarg_serrin lattice through the origin has two spectra: the
    gs row everywhere but the origin, where A = I."""

    def test_two_solves_and_exact_values(self, monkeypatch):
        n, k, alpha = 4, 3, -0.3
        g = fd.build_grid(fd.Domain.box([-1.0] * n, [1.0] * n), 0.25)
        coeff = fd.coeff_gilbarg_serrin(n, alpha)(g)
        x = g.points(g.interior)
        origin = np.all(x == 0.0, axis=1)
        assert len(x) == 2401 and np.count_nonzero(origin) == 1
        # per-node eigvalsh is the oracle of the builder's rows
        lam = np.linalg.eigvalsh(coeff.A)[:, ::-1]
        assert np.allclose(coeff.spectra[coeff.row], lam, rtol=1e-14)
        calls, real = [], symcone._barrier_newton

        def counted(a, k):
            calls.append(a)
            return real(a, k)

        monkeypatch.setattr(symcone, "_barrier_newton", counted)
        vals = rho_star_field(coeff, k, g.interior)
        assert len(calls) == 2
        assert vals[origin].tolist() == [1.0]
        want = symcone.rho_star(symcone.gs_spectrum(n, alpha), k)
        assert np.all(vals[~origin] == want)


class TestRhoStarFieldBoundary:
    """The lattice keeps symcone's rule: 0 within BOUNDARY_TOL of the
    boundary of G*_k, and a zero rho*_k is an error."""

    @pytest.mark.parametrize("lam, k", [
        ([1.0, 1.0, 1e-8], 3),
        (symcone.gs_spectrum(3, 0.5 - 1e-9), 2)])
    def test_near_boundary_is_zero_and_rejected(self, lam, k):
        assert symcone.rho_star(lam, k) == 0.0
        g = ball_grid(3, 0.25)
        coeff = fd.CoeffField(g, fd.constant_coeff(np.diag(lam))(g).A)
        node = tuple(np.argwhere(g.interior)[0].tolist())
        with pytest.raises(ValueError, match=re.escape(
                f"rho*_{k} <= 0 at node {node}")):
            rho_star_field(coeff, k, g.interior)


class TestRhoStarFieldOptimized:
    """2 < k < n: one optimizer solve per distinct spectrum."""

    @pytest.fixture(scope="class")
    def gs_lattice(self):
        # the field given A alone: its rows from eigvalsh per node
        g = ball_grid(4, 0.25)
        A = fd.coeff_gilbarg_serrin(4, -0.3)(g).A
        return fd.CoeffField(g, A), g.interior

    def test_matches_per_node_loop(self, gs_lattice):
        coeff, mask = gs_lattice
        ref = np.array([symcone.rho_star(row, 3)
                        for row in np.linalg.eigvalsh(coeff.A)])
        assert np.array_equal(rho_star_field(coeff, 3, mask), ref)

    def test_one_call_per_distinct_spectrum(self, gs_lattice, monkeypatch):
        coeff, mask = gs_lattice
        seen, real = [], symcone._barrier_newton

        def counted(a, k):
            seen.append(tuple(a))
            return real(a, k)

        monkeypatch.setattr(symcone, "_barrier_newton", counted)
        rho_star_field(coeff, 3, mask)
        assert np.count_nonzero(mask) == 704
        assert len(seen) == len(set(seen)) == len(coeff.spectra) == 35

    def test_only_the_masked_rows_are_evaluated(self, gs_lattice, caplog):
        # two nodes of one row: one solve, and both nodes get its value
        coeff, mask = gs_lattice
        nodes = np.flatnonzero(coeff.row == coeff.row[0])[:2]
        sub = np.zeros_like(mask)
        sub[tuple(np.argwhere(mask)[nodes].T)] = True
        with caplog.at_level(logging.DEBUG, "conelab.green"):
            vals = rho_star_field(coeff, 3, sub)
        want = symcone.rho_star(coeff.spectra[coeff.row[0]], 3)
        assert np.array_equal(vals, [want, want])
        assert re.search(r"nodes=2 calls=1 elapsed=\S+ spectra=1$",
                         caplog.messages[0])

    def test_mask_outside_interior_rejected(self, gs_lattice):
        coeff, _ = gs_lattice
        with pytest.raises(ValueError, match="interior nodes only"):
            rho_star_field(coeff, 3, coeff.grid.active)

    def test_first_offending_node_named(self):
        # mostly identity; two spectra outside G*_3 whose sorted order is
        # the reverse of their node order, turned by the orthogonal H so
        # that every a_ii = tr / 4 > 0, as CoeffField requires
        g = ball_grid(4, 0.25)
        nodes = np.argwhere(g.interior)
        A = np.broadcast_to(np.eye(4), (len(nodes), 4, 4)).copy()
        H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                      [1, -1, -1, 1]]) / 2.0
        A[100] = H @ np.diag([2.0, 1.0, 1.0, -1.0]) @ H
        A[300] = H @ np.diag([1.0, 1.0, 1.0, -2.0]) @ H
        coeff = fd.CoeffField(g, A)
        for i, row in enumerate(np.linalg.eigvalsh(A)):
            try:
                if symcone.rho_star(row, 3) <= 0.0:
                    break
            except ValueError:
                break
        assert i == 100
        node = tuple(nodes[i].tolist())
        with pytest.raises(ValueError, match=re.escape(f"node {node}")):
            rho_star_field(coeff, 3, g.interior)


class TestTheoremRhs:
    def test_identity_coeff_reduces_to_fnorm(self):
        g = ball_grid(3, 0.125)
        coeff = fd.identity_coeff()(g)
        f = fd.ScalarField(g, np.full(g.shape, 2.0))
        rep = theorem_rhs(f, coeff, 3, 3.0, g.interior, 1.0)
        assert np.isclose(rep.rhs, fd.lq_norm(f, 3.0), rtol=1e-12)
        assert rep.mask_size == int(np.count_nonzero(g.interior))

    def test_monotone_in_mask(self):
        g = ball_grid(3, 0.125)
        coeff = fd.identity_coeff()(g)
        f = fd.ScalarField(g, np.full(g.shape, 2.0))
        small = fd.interior_eroded(g, 2)
        big = theorem_rhs(f, coeff, 3, 3.0, g.interior, 1.0)
        assert theorem_rhs(f, coeff, 3, 3.0, small, 1.0).rhs <= big.rhs

    def test_report_roundtrip(self):
        rep = BoundReport(1.0, 4.0, 0.41, 9.7, 100)
        d = rep.as_dict()
        assert d["margin"] == 3.0
        assert set(d) == {"lhs", "rhs", "constant", "norm", "mask_size",
                          "margin"}


class TestBoundPipeline:
    def test_poisson_bubble_margin(self):
        # full pipeline on the quadratic bubble: lhs near 1, rhs near 4
        n, k, h = 3, 3, 1 / 16
        g = ball_grid(n, h)
        coeff = fd.identity_coeff()(g)
        f = fd.ScalarField(g, np.full(g.shape, 6.0))
        bc = fd.boundary_field(g, lambda x: np.zeros(x.shape[:-1]))
        u = fd.solve_dirichlet(coeff, f, bc)
        rep = bound_report_for(u, f, coeff, k, 3.0,
                               abp_constant(n, k, 2.0))
        assert abs(rep.lhs - 1.0) < 0.05
        assert abs(rep.rhs - 4.0) < 0.2
        assert rep.margin > 0
