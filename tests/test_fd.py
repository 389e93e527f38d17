import contextlib
import logging
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import ndimage, sparse

from conelab import fd
from conelab.symcone import NumericError, ParamError


def unit_ball(n):
    return fd.Domain.ball(np.zeros(n), 1.0)


def unit_box(n):
    return fd.Domain.box(np.zeros(n), np.ones(n))


class TestDomain:
    def test_ball_diam(self):
        assert unit_ball(3).diam == 2.0

    def test_box_diam(self):
        d = fd.Domain.box([0, 0], [3, 4])
        assert d.diam == 5.0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            fd.Domain.ball([0, 0], -1.0)

    def test_bad_box(self):
        with pytest.raises(ValueError):
            fd.Domain.box([0, 1], [1, 0])

    def test_dict_roundtrip(self):
        for d in (unit_ball(3), fd.Domain.box([-1, 0], [1, 2])):
            d2 = fd.Domain.from_dict(d.to_dict())
            assert d2.kind == d.kind and d2.diam == d.diam


class TestGrid:
    def test_unit_box_counts(self):
        g = fd.build_grid(unit_box(2), 0.25)
        assert g.shape == (5, 5)
        assert np.count_nonzero(g.interior) == 9

    def test_ball_interior_rule(self):
        g = fd.build_grid(unit_ball(2), 0.2)
        pts = g.points()
        r = np.linalg.norm(pts, axis=-1)
        assert np.array_equal(g.interior, r < 1.0 - 0.1)

    def test_ball_nodes_avoid_center(self):
        g = fd.build_grid(unit_ball(3), 0.25)
        r = np.linalg.norm(g.points(), axis=-1)
        assert r.min() > 0.1

    def test_boundary_is_active_minus_interior(self):
        g = fd.build_grid(unit_ball(2), 0.1)
        assert np.array_equal(g.boundary, g.active & ~g.interior)
        assert not np.any(g.boundary & g.interior)

    def test_nonpositive_h(self):
        with pytest.raises(ValueError):
            fd.build_grid(unit_box(2), 0.0)

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            fd.build_grid(unit_box(2), 0.5)

    def test_boundary_points_on_sphere(self):
        g = fd.build_grid(unit_ball(2), 0.1)
        bp = g.boundary_points()
        assert np.allclose(np.linalg.norm(bp, axis=-1), 1.0)

    def test_one_shared_grid_per_lattice(self):
        # an equal domain and h give the same Grid, whatever objects
        # carry them; any other domain or h gives another
        g = fd.build_grid(unit_ball(3), 0.25)
        same = fd.build_grid(fd.Domain.ball([0, 0, 0], 1), np.float64(0.25))
        assert same is g
        others = [fd.build_grid(unit_ball(3), 0.2),
                  fd.build_grid(fd.Domain.ball([0, 0, 0], 1.5), 0.25),
                  fd.build_grid(fd.Domain.ball([0.25, 0, 0], 1), 0.25),
                  fd.build_grid(fd.Domain.box([-1] * 3, [1] * 3), 0.25)]
        assert len({id(g), *map(id, others)}) == 5

    @pytest.mark.parametrize("center, radius, h", [
        ([0.3, -0.2], 0.9, 1 / 10),
        ([0.3, -0.2, 0.1], 0.7, 1 / 10),
        ([-0.25, 0.5, 0.125, 1.5], 1.2, 1 / 5),
    ])
    def test_radius_map_is_the_node_distance(self, center, radius, h):
        g = fd.build_grid(fd.Domain.ball(center, radius), h)
        ref = np.linalg.norm(g.points() - np.asarray(center), axis=-1)
        assert g.radius_map().tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["interior", "boundary", "active",
                                      "axes"])
    def test_grid_read_only(self, name):
        g = fd.build_grid(unit_ball(2), 0.2)
        for arr in (g.axes if name == "axes" else [getattr(g, name)]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


class TestCoeff:
    def test_gs_entries(self):
        # at x = e1 with alpha = 0 the rank-one update doubles A_11
        g = fd.build_grid(fd.Domain.box([0.5, -0.5, -0.5],
                                        [1.5, 0.5, 0.5]), 0.25)
        coeff = fd.coeff_gilbarg_serrin(3, 0.0)(g)
        i = tuple(int(np.argmin(np.abs(g.axes[d] - (1.0 if d == 0 else 0.0))))
                  for d in range(3))
        # A holds the interior nodes in row-major order
        k = [tuple(p) for p in np.argwhere(g.interior)].index(i)
        assert np.allclose(coeff.A[k], np.diag([2.0, 1.0, 1.0]))

    def test_gs_trace(self):
        n, alpha = 3, 0.25
        g = fd.build_grid(unit_ball(n), 0.25)
        coeff = fd.coeff_gilbarg_serrin(n, alpha)(g)
        tr = np.trace(coeff.A, axis1=-2, axis2=-1)
        assert np.allclose(tr, n - 1 + (n - 1) / (1 - alpha))

    def test_gs_alpha_rejected(self):
        with pytest.raises(ValueError):
            fd.coeff_gilbarg_serrin(3, 1.0)

    def test_spectra_match_gs_formula(self):
        from conelab.symcone import gs_spectrum
        n, alpha = 3, 0.25
        g = fd.build_grid(unit_ball(n), 0.25)
        coeff = fd.coeff_gilbarg_serrin(n, alpha)(g)
        lam = coeff.spectra[coeff.row]
        assert np.allclose(lam, np.sort(gs_spectrum(n, alpha))[::-1])
        # per-node eigvalsh is the oracle of the builder's row
        assert np.allclose(lam, np.linalg.eigvalsh(coeff.A)[:, ::-1],
                           rtol=1e-14)

    def test_spectra_over_mask(self):
        # rows of A follow the row-major order of the interior nodes; a
        # field given A alone keeps its distinct eigvalsh rows
        g = fd.build_grid(unit_ball(2), 0.2)
        nodes = np.argwhere(g.interior)
        A = np.stack([np.diag([1.0 + k % 3, 0.5])
                      for k in range(len(nodes))])
        coeff = fd.CoeffField(g, A)
        assert np.array_equal(coeff.spectra,
                              [[1.0, 0.5], [2.0, 0.5], [3.0, 0.5]])
        assert np.array_equal(coeff.spectra[coeff.row],
                              np.linalg.eigvalsh(A)[:, ::-1])
        mask = np.zeros(g.shape, dtype=bool)
        mask[tuple(nodes[[7, 3]].T)] = True
        assert np.array_equal(coeff.spectra[coeff.row[mask[g.interior]]],
                              [[1.0, 0.5], [2.0, 0.5]])

    def test_declared_spectrum_broadcast_without_eigvalsh(self, monkeypatch):
        # a builder's field has one row and a zero-stride row index
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        g = fd.build_grid(unit_ball(3), 0.25)
        coeff = fd.coeff_gilbarg_serrin(3, 0.5)(g)
        assert np.array_equal(coeff.spectra, [[4.0, 1.0, 1.0]])
        assert coeff.row.shape == (len(coeff.A),)
        assert coeff.row.strides == (0,) and np.all(coeff.row == 0)


class TestCubeMorph:
    """The separable 3^n cube against scipy.ndimage as the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("domain", [unit_ball, unit_box])
    def test_matches_ndimage(self, n, domain):
        cube = np.ones((3,) * n, dtype=bool)
        g = fd.build_grid(domain(n), 1 / 4 if n == 4 else 1 / 6)
        if domain is unit_ball:
            assert np.array_equal(
                g.active, ndimage.binary_dilation(g.interior, structure=cube))
        # random masks reach the edges of the array
        rng = np.random.default_rng(n)
        masks = [g.interior] + [rng.random(g.shape) < p for p in (0.1, 0.9)]
        for layers in (1, 2, 3):
            assert np.array_equal(
                fd.interior_eroded(g, layers),
                ndimage.binary_erosion(g.interior, structure=cube,
                                       iterations=layers))
            for mask in masks:
                assert np.array_equal(
                    fd._cube_morph(mask, layers, grow=True),
                    ndimage.binary_dilation(mask, structure=cube,
                                            iterations=layers))
                assert np.array_equal(
                    fd._cube_morph(mask, layers, grow=False),
                    ndimage.binary_erosion(mask, structure=cube,
                                           iterations=layers))


class TestApplyL:
    def test_quadratic_exact(self):
        n = 3
        g = fd.build_grid(unit_ball(n), 0.2)
        u = fd.field_from_function(g, lambda x: 1 - np.sum(x ** 2, -1))
        out = fd.apply_L(u, fd.identity_coeff()(g))
        assert np.allclose(out.values[g.interior], -2 * n, atol=1e-11)

    def test_gs_residual_order(self):
        # exact solution residual decays with observed order ~2 away
        # from the coefficient singularity
        n, alpha = 3, 0.5
        errs = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            g = fd.build_grid(unit_ball(n), h)
            u = fd.field_from_function(
                g, lambda x: np.sum(x ** 2, -1) ** (alpha / 2))
            coeff = fd.coeff_gilbarg_serrin(n, alpha)(g)
            out = fd.apply_L(u, coeff)
            r = np.linalg.norm(g.points(), axis=-1)
            sel = g.interior & (r >= 0.2) & (r < 1 - 2 * h)
            errs.append(np.max(np.abs(out.values[sel])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders > 1.7) & (orders < 2.3))


class TestSolveDirichlet:
    def test_poisson_ball(self):
        n, h = 3, 0.05
        g = fd.build_grid(unit_ball(n), h)
        f = fd.field_from_function(g, lambda x: np.full(x.shape[:-1], 2 * n))
        bc = fd.boundary_field(g, lambda x: np.zeros(x.shape[:-1]))
        u = fd.solve_dirichlet(fd.identity_coeff()(g), f, bc)
        exact = 1 - np.sum(g.points() ** 2, -1)
        err = np.max(np.abs(u.values[g.interior] - exact[g.interior]))
        assert err < 3 * h  # cut-cell boundary limits accuracy to O(h)

    def test_zero_data_zero_solution(self):
        g = fd.build_grid(unit_ball(2), 0.1)
        z = fd.ScalarField(g, np.zeros(g.shape))
        bc = fd.boundary_field(g, lambda x: np.zeros(x.shape[:-1]))
        u = fd.solve_dirichlet(fd.identity_coeff()(g), z, bc)
        assert np.allclose(u.values, 0.0, atol=1e-12)

    def test_gs_boundary_data_reproduces_power(self):
        # on a box away from the coefficient singularity the power
        # solution is smooth and reproduced accurately
        n, alpha = 3, 0.5
        h = 1 / 32
        g = fd.build_grid(fd.Domain.box([0.25] * n, [1.0] * n), h)
        z = fd.ScalarField(g, np.zeros(g.shape))
        bc = fd.boundary_field(
            g, lambda x: np.sum(x ** 2, -1) ** (alpha / 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            u = fd.solve_dirichlet(fd.coeff_gilbarg_serrin(n, alpha)(g),
                                   z, bc)
        r = np.linalg.norm(g.points(), axis=-1)
        err = np.max(np.abs(u.values[g.interior] - r[g.interior] ** alpha))
        assert err < 1e-3

    def test_discrete_comparison(self):
        # identity coefficients give a monotone stencil: f >= 0, g = 0
        # implies u >= 0
        g = fd.build_grid(unit_ball(2), 0.05)
        rng = np.random.default_rng(7)
        f = fd.ScalarField(g, np.abs(rng.normal(size=g.shape)))
        bc = fd.boundary_field(g, lambda x: np.zeros(x.shape[:-1]))
        u = fd.solve_dirichlet(fd.identity_coeff()(g), f, bc)
        assert np.min(u.values[g.interior]) >= -1e-12

    def test_monotonicity_warning_on_anisotropy(self):
        g = fd.build_grid(unit_ball(2), 0.1)
        z = fd.ScalarField(g, np.zeros(g.shape))
        bc = fd.boundary_field(g, lambda x: np.zeros(x.shape[:-1]))
        A = np.array([[1.0, 0.9], [0.9, 1.0]])
        with pytest.warns(fd.MonotonicityWarning):
            fd.solve_dirichlet(fd.constant_coeff(A)(g), z, bc)

    def test_solve_convergence_order(self):
        # solution error order for the smooth Poisson bubble is capped by
        # the O(h) cut-cell boundary; require clear decay under h -> h/2
        errs = []
        for h in (0.1, 0.05):
            g = fd.build_grid(unit_ball(2), h)
            f = fd.field_from_function(g,
                                       lambda x: np.full(x.shape[:-1], 4.0))
            bc = fd.boundary_field(g, lambda x: np.zeros(x.shape[:-1]))
            u = fd.solve_dirichlet(fd.identity_coeff()(g), f, bc)
            exact = 1 - np.sum(g.points() ** 2, -1)
            errs.append(np.max(np.abs(u.values - exact)[g.interior]))
        assert errs[1] < 0.75 * errs[0]


def _failed_bicgstab(A, b, **kwargs):
    return np.zeros_like(b), 1


def _solve_records(caplog, coeff, f, bc):
    """solve_dirichlet result and the conelab.fd records it logged."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="conelab.fd"):
        u = fd.solve_dirichlet(coeff, f, bc)
    return u, [r for r in caplog.records if r.name == "conelab.fd"]


def _policy_problem(domain=3, h=1 / 8):
    """Grid, source and Dirichlet data x_1 on domain (n: the unit n-ball)."""
    if isinstance(domain, int):
        domain = unit_ball(domain)
    g = fd.build_grid(domain, h)
    f = fd.field_from_function(
        g, lambda x: 1.0 + np.exp(-np.sum(x ** 2, -1)))
    bc = fd.boundary_field(g, lambda x: x[..., 0])
    return g, f, bc


class TestSolverPolicy:
    # small systems of each operator kind; forcing the fallback gives the
    # direct solution of the same system as the reference
    ANISO = fd.constant_coeff(
        [[2.0, 0.9, 0.0], [0.9, 1.0, 0.3], [0.0, 0.3, 0.5]], c=-5.0)

    @pytest.mark.parametrize("domain, h, builder, monotone", [
        (2, 1 / 12, fd.identity_coeff(), True),
        (3, 1 / 8, fd.identity_coeff(), True),
        (3, 1 / 8, fd.coeff_gilbarg_serrin(3, 0.5), False),
        (3, 1 / 8, fd.coeff_gilbarg_serrin(3, -0.9), False),
        (3, 1 / 8, fd.constant_coeff(np.diag([4.0, 1.0, 0.25])), True),
        (3, 1 / 8, ANISO, False),
        (unit_box(3), 1 / 8, ANISO, False),
    ])
    def test_iterative_matches_direct(self, caplog, monkeypatch,
                                      domain, h, builder, monotone):
        g, f, bc = _policy_problem(domain, h)
        coeff = builder(g)
        with (contextlib.nullcontext() if monotone
              else pytest.warns(fd.MonotonicityWarning)):
            u_it, it_recs = _solve_records(caplog, coeff, f, bc)
            monkeypatch.setattr(fd, "bicgstab", _failed_bicgstab)
            u_lu, lu_recs = _solve_records(caplog, coeff, f, bc)
        assert "path=bicgstab" in it_recs[-1].getMessage()
        assert "path=spsolve" in lu_recs[-1].getMessage()
        err = (np.linalg.norm(u_it.values - u_lu.values)
               / np.linalg.norm(u_lu.values))
        assert err <= 1e-8
        # apply_L and the assembly read one stencil table: apply_L
        # recomputes the residual of the assembled system, whose right-hand
        # side is -(f + L g) with g extended by zero into the interior
        res = (fd.apply_L(u_it, coeff).values + f.values)[g.interior]
        rhs = (fd.apply_L(bc, coeff).values + f.values)[g.interior]
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("builder, all_wrong", [
        (fd.identity_coeff(), False),
        (fd.coeff_gilbarg_serrin(3, 0.25), True),
    ])
    def test_wrong_sign_count(self, caplog, builder, all_wrong):
        g, f, bc = _policy_problem()
        nuk = int(np.count_nonzero(g.interior))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", fd.MonotonicityWarning)
            _, recs = _solve_records(caplog, builder(g), f, bc)
        texts = [str(w.message) for w in caught
                 if w.category is fd.MonotonicityWarning]
        assert texts == ([f"off-diagonal stencil weight with wrong sign at "
                          f"{nuk} of {nuk} interior nodes; the discrete "
                          f"maximum principle may fail"] if all_wrong
                         else [])
        wrong = nuk if all_wrong else 0
        assert recs[-1].getMessage().endswith(f" wrong_sign={wrong}")

    def test_debug_record_per_solve(self, caplog):
        g, f, bc = _policy_problem()
        _, recs = _solve_records(caplog, fd.identity_coeff()(g), f, bc)
        assert [r.levelname for r in recs] == ["DEBUG"]
        msg = recs[0].getMessage()
        nuk = int(np.count_nonzero(g.interior))
        assert f"unknowns={nuk} " in msg
        for key in ("nnz=", "iterations=", "rel_res=", "elapsed=",
                    "wrong_sign="):
            assert key in msg
        iters = int(msg.split("iterations=")[1].split()[0])
        assert 0 < iters < 100
        assert float(msg.split("elapsed=")[1].split()[0]) >= 0.0

    def test_debug_record_times_assembly(self, caplog):
        g, f, bc = _policy_problem()
        _, recs = _solve_records(caplog, fd.identity_coeff()(g), f, bc)
        msg = recs[-1].getMessage()
        assert re.search(r" nnz=\d+ slabs=\d+ assemble=\d+\.\d{4} "
                         r"iterations=\d+ ", msg)
        assemble = float(msg.split("assemble=")[1].split()[0])
        assert 0.0 <= assemble <= float(msg.split("elapsed=")[1].split()[0])

    def test_debug_record_names_the_pattern(self, caplog):
        # the first solve on a lattice builds its pattern, the next keeps it
        g, f, bc = _policy_problem()
        msgs = [_solve_records(caplog, builder(g), f, bc)[1][-1].getMessage()
                for builder in (fd.identity_coeff(), fd.constant_coeff(
                    np.diag([4.0, 1.0, 0.25]), c=-2.0))]
        assert [re.search(r" assemble=\d+\.\d{4} iterations=\d+ "
                          r"pattern=(\w+) rel_res=", m)[1]
                for m in msgs] == ["built", "kept"]

    def test_jacobi_diagonal_unchanged(self, monkeypatch):
        # 54,088 unknowns, above numpy's temporary elision threshold: the
        # preconditioner's reciprocal diagonal is the same after the solve
        g, f, bc = _policy_problem(3, 1 / 24)
        seen, solve = [], fd.bicgstab

        def spy(A, b, **kwargs):
            seen.append(kwargs["M"])
            return solve(A, b, **kwargs)
        monkeypatch.setattr(fd, "bicgstab", spy)
        systems = _solved_systems(monkeypatch)
        fd.solve_dirichlet(fd.identity_coeff()(g), f, bc)
        (A, _), = systems
        (M,) = seen
        x = np.random.default_rng(5).standard_normal(A.shape[0])
        assert M.matvec(x).tobytes() == (x * (1.0 / A.diagonal())).tobytes()

    @pytest.mark.parametrize("bicgstab, reason", [
        (_failed_bicgstab, "info=1"),
        (lambda A, b, **kw: (np.ones_like(b), 0), "rel res="),
    ])
    def test_fallback_returns_direct_solution(self, caplog, monkeypatch,
                                              bicgstab, reason):
        g, f, bc = _policy_problem()
        coeff = fd.identity_coeff()(g)
        u_ref = fd.solve_dirichlet(coeff, f, bc)
        direct_calls = []
        direct = fd.spsolve

        def spsolve(A, b):
            direct_calls.append(A.shape)
            return direct(A, b)
        monkeypatch.setattr(fd, "bicgstab", bicgstab)
        monkeypatch.setattr(fd, "spsolve", spsolve)
        u, recs = _solve_records(caplog, coeff, f, bc)
        assert len(direct_calls) == 1
        warned = [r for r in recs if r.levelno == logging.WARNING]
        assert len(warned) == 1
        assert "falling back to spsolve" in warned[0].getMessage()
        assert reason in warned[0].getMessage()
        err = (np.linalg.norm(u.values - u_ref.values)
               / np.linalg.norm(u_ref.values))
        assert err <= 1e-8

    def test_both_paths_failing_raises(self, monkeypatch):
        g, f, bc = _policy_problem()
        monkeypatch.setattr(fd, "bicgstab", _failed_bicgstab)
        monkeypatch.setattr(fd, "spsolve",
                            lambda A, b: np.full_like(b, np.nan))
        with pytest.raises(NumericError, match="info=1"):
            fd.solve_dirichlet(fd.identity_coeff()(g), f, bc)


def _coo_reference(coeff, f, g):
    """Reference assembly: full-box shifted copies of the index, boundary
    mask and data per offset, a COO triple, then scipy's coo -> csr.
    Returns (A, rhs, nodes with a wrong-sign off-diagonal weight)."""
    grid = f.grid
    interior = grid.interior
    nuk = int(np.count_nonzero(interior))
    index = -np.ones(grid.shape, dtype=np.int64)
    index[interior] = np.arange(nuk)
    rows, cols, vals = [], [], []
    rhs = -f.values[interior].astype(float)
    wrong_sign = np.zeros(nuk, dtype=bool)
    for off, wi in fd._stencil(coeff):
        if any(off):
            wrong_sign |= wi < -1e-12
        into = fd._shift(index, off, fill=-1)[interior]
        onb = fd._shift(grid.boundary.astype(np.int8), off).astype(bool)
        onb = onb[interior]
        inner = into >= 0
        rows.append(np.arange(nuk)[inner])
        cols.append(into[inner])
        vals.append(wi[inner])
        if np.any(onb):
            rhs[onb] -= (wi * fd._shift(g.values, off)[interior])[onb]
    A = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nuk, nuk))
    return A, rhs, int(np.count_nonzero(wrong_sign))


def _shifted_hessian(u):
    """Reference Hessian: each D_ij of the difference table as a sum of
    full-box shifted copies of u, over the whole box."""
    grid = u.grid
    n = grid.dim
    H = np.zeros(grid.shape + (n, n))
    for i, j, scale, terms in fd._difference_table(n):
        acc = None
        for off, k in terms:
            t = fd._shift(u.values, off)
            t *= k
            acc = t if acc is None else np.add(acc, t, out=acc)
        H[..., i, j] = H[..., j, i] = acc / (scale * grid.h ** 2)
    return H


def _solved_systems(monkeypatch):
    """List that collects each (A, rhs) solve_dirichlet hands the solver."""
    seen, solve = [], fd._solve_linear

    def spy(A, rhs):
        seen.append((A, rhs))
        return solve(A, rhs)
    monkeypatch.setattr(fd, "_solve_linear", spy)
    return seen


ORACLE_CASES = pytest.mark.parametrize("domain, h, builder, warns", [
    # the anisotropic case whose cross stencil is not monotone
    (unit_box(2), 1 / 8, fd.constant_coeff(
        [[1.0, 0.2], [0.2, 1.5]], c=-3.0), True),
    (3, 1 / 8, fd.coeff_gilbarg_serrin(3, 0.25), True),
    (4, 1 / 5, fd.coeff_gilbarg_serrin(4, -0.3), True),
    (fd.Domain.ball([0.3, -0.2, 0.1], 0.7), 1 / 10, fd.identity_coeff(),
     False),
])


class TestAssemblyOracle:
    """The flat-index assembly is bit-equal to the COO reference, in one
    block of rows and in many."""

    @ORACLE_CASES
    def test_bit_equal(self, caplog, monkeypatch, domain, h, builder, warns):
        nuk = self._check(caplog, monkeypatch, domain, h, builder, warns)
        assert nuk <= fd._BLOCK_ROWS

    @ORACLE_CASES
    def test_bit_equal_across_blocks(self, caplog, monkeypatch, domain, h,
                                     builder, warns):
        # 11 rows a block: a ragged last block on every case, and block
        # edges between rows that touch the boundary
        monkeypatch.setattr(fd, "_BLOCK_ROWS", 11)
        nuk = self._check(caplog, monkeypatch, domain, h, builder, warns)
        assert nuk > 11 and nuk % 11

    @staticmethod
    def _check(caplog, monkeypatch, domain, h, builder, warns):
        """Compare the solved system with the reference; returns nuk."""
        g, f, bc = _policy_problem(domain, h)
        assert np.any(bc.values[g.boundary] != 0)
        coeff = builder(g)
        seen = _solved_systems(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", fd.MonotonicityWarning)
            _, recs = _solve_records(caplog, coeff, f, bc)
        (A, rhs), = seen
        ref, ref_rhs, ref_wrong = _coo_reference(coeff, f, bc)
        for part in ("indptr", "indices", "data"):
            assert getattr(A, part).tobytes() == getattr(ref, part).tobytes()
        assert rhs.tobytes() == ref_rhs.tobytes()
        msg = recs[-1].getMessage()
        assert f" nnz={ref.nnz} " in msg
        assert msg.endswith(f" wrong_sign={ref_wrong}")
        assert (ref_wrong > 0) == warns
        assert sum(w.category is fd.MonotonicityWarning
                   for w in caught) == warns
        return len(rhs)


class TestKeptPattern:
    """A lattice of one block keeps its CSR pattern: every later assembly
    on it fills weights only, with the reference bits."""

    @ORACLE_CASES
    def test_first_and_repeat_bit_equal(self, domain, h, builder, warns):
        g, f, bc = _policy_problem(domain, h)
        coeff = builder(g)
        assert np.count_nonzero(g.interior) <= fd._BLOCK_ROWS
        # the repeat with other source and boundary data, so no rhs term
        # can be left from the first
        f2 = fd.field_from_function(g, _wavy)
        bc2 = fd.boundary_field(g, lambda x: 1.0 - x[..., -1] ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            for (src, data), kept in (((f, bc), False), ((f2, bc2), True)):
                got = fd._assemble(coeff, src, data)
                assert got[3] == kept
                _assert_reference_bits(got, _coo_reference(coeff, src, data))

    def test_shared_pattern_is_not_sorted_in_place(self):
        g, f, bc = _policy_problem()
        coeff = fd.identity_coeff()(g)
        fd._assemble(coeff, f, bc)
        A = fd._assemble(coeff, f, bc)[0]
        A.has_sorted_indices = False
        with pytest.raises(ValueError, match="read-only"):
            A.sort_indices()

    def test_concurrent_assemblies(self):
        # one lattice, two coefficient fields, assembled from six threads
        # at once from a lattice with no kept pattern: each gets the
        # serial bits
        g, f, bc = _policy_problem()
        coeffs = [fd.identity_coeff()(g),
                  fd.constant_coeff(np.diag([4.0, 1.0, 0.25]), c=-2.0)(g)]
        serial = [self._bits(fd._assemble(c, f, bc)) for c in coeffs]
        g._pattern = None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                jobs = [pool.submit(fd._assemble, coeffs[i % 2], f, bc)
                        for i in range(12)]
                got = [self._bits(job.result(timeout=120)) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        assert got == [serial[i % 2] for i in range(12)]

    def test_concurrent_first_solves_build_once(self, caplog):
        # six threads that each fetch a fresh one-block lattice and solve
        # on it at once: one grid, and one pattern built for all of them
        domain = fd.Domain.ball([0.1, -0.2, 0.05], 0.85)
        coeff = fd.identity_coeff()
        start = threading.Barrier(6)

        def solve(_):
            start.wait(timeout=60)
            g = fd.build_grid(domain, 1 / 8)
            f = fd.field_from_function(g, _wavy)
            fd.solve_dirichlet(coeff(g), f,
                               fd.ScalarField(g, np.zeros(g.shape)))
            return g
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level(logging.DEBUG, logger="conelab.fd"), \
                    ThreadPoolExecutor(max_workers=6) as pool:
                grids = list(pool.map(solve, range(6)))
        finally:
            sys.setswitchinterval(interval)
        assert all(g is grids[0] for g in grids)
        assert np.count_nonzero(grids[0].interior) <= fd._BLOCK_ROWS
        patterns = [re.search(r" pattern=(\w+) ", r.getMessage())[1]
                    for r in caplog.records if r.name == "conelab.fd"]
        assert sorted(patterns) == ["built"] + ["kept"] * 5

    def test_smaller_blocks_never_served_the_kept_pattern(self, monkeypatch):
        g, f, bc = _policy_problem()
        coeff = fd.coeff_gilbarg_serrin(3, 0.25)(g)
        ref = _coo_reference(coeff, f, bc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            assert not fd._assemble(coeff, f, bc)[3]
            kept = g._pattern
            monkeypatch.setattr(fd, "_BLOCK_ROWS", 11)
            for _ in range(2):
                got = fd._assemble(coeff, f, bc)
                assert not got[3] and g._pattern is kept
                _assert_reference_bits(got, ref)
            monkeypatch.undo()
            assert fd._assemble(coeff, f, bc)[3]

    @staticmethod
    def _bits(assembled):
        A, rhs = assembled[:2]
        return (A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes(),
                rhs.tobytes())


def _assert_reference_bits(assembled, reference):
    """An _assemble result equals the _coo_reference one, bit for bit."""
    (A, rhs, wrong, _), (ref, ref_rhs, ref_wrong) = assembled, reference
    for part in ("indptr", "indices", "data"):
        assert getattr(A, part).tobytes() == getattr(ref, part).tobytes()
    assert rhs.tobytes() == ref_rhs.tobytes() and wrong == ref_wrong


class TestRowSlabs:
    """The row-slab matvec of a large BiCGSTAB solve is bit-equal to A @ x,
    so the iterates and the solution are the serial path's bits."""

    @ORACLE_CASES
    @pytest.mark.parametrize("cores", [2, 3])
    def test_matvec_bit_equal(self, monkeypatch, domain, h, builder, warns,
                              cores):
        g, f, bc = _policy_problem(domain, h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            A = fd._assemble(builder(g), f, bc)[0]
        # 11 rows a block: every case splits into `cores` slabs, whose
        # edges fall inside blocks
        monkeypatch.setattr(fd, "_BLOCK_ROWS", 11)
        monkeypatch.setattr(fd, "CORES", cores)
        op, slabs = fd._row_slabs(A)
        nuk = A.shape[0]
        assert slabs == cores
        assert all(nuk * i // cores % 11 for i in range(1, cores))
        x = np.random.default_rng(cores).standard_normal(nuk)
        x[::5] *= 1e-300
        assert op.matvec(x).tobytes() == (A @ x).tobytes()
        assert (op @ x).tobytes() == (A @ x).tobytes()

    def test_slabs_are_views(self, monkeypatch):
        # only each slab's shifted indptr is new: data and indices are A's
        g, f, bc = _policy_problem(unit_box(3), 1 / 16)
        A = fd._assemble(fd.identity_coeff()(g), f, bc)[0]
        monkeypatch.setattr(fd, "CORES", 3)
        monkeypatch.setattr(fd, "_BLOCK_ROWS", 1000)
        tracemalloc.start()
        try:
            _, slabs = fd._row_slabs(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert slabs == 3
        assert peak <= 2 * A.indptr.nbytes + 65536 < A.indices.nbytes

    @pytest.mark.parametrize("builder", [
        fd.identity_coeff(), fd.coeff_gilbarg_serrin(3, 0.25)])
    def test_solve_bit_equal_with_and_without(self, caplog, monkeypatch,
                                              builder):
        g, f, bc = _policy_problem()
        coeff = builder(g)
        monkeypatch.setattr(fd, "_BLOCK_ROWS", 100)
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            for cores in (1, 3):
                monkeypatch.setattr(fd, "CORES", cores)
                u, recs = _solve_records(caplog, coeff, f, bc)
                msg = recs[-1].getMessage()
                assert f" slabs={cores} " in msg
                runs.append((u.values.tobytes(),
                             msg.split("iterations=")[1].split()[0]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cores, block_rows", [(4, None), (1, 11)])
    def test_unsplit_matrix_to_bicgstab(self, caplog, monkeypatch, cores,
                                        block_rows):
        # at most one block, or one core: BiCGSTAB gets A itself
        g, f, bc = _policy_problem()
        monkeypatch.setattr(fd, "CORES", cores)
        if block_rows:
            monkeypatch.setattr(fd, "_BLOCK_ROWS", block_rows)
        seen, given = _solved_systems(monkeypatch), []
        solve = fd.bicgstab

        def spy(A, b, **kwargs):
            given.append(A)
            return solve(A, b, **kwargs)
        monkeypatch.setattr(fd, "bicgstab", spy)
        _, recs = _solve_records(caplog, fd.identity_coeff()(g), f, bc)
        (A, _), = seen
        assert len(given) == 1 and given[0] is A
        assert " slabs=1 " in recs[-1].getMessage()

    def test_concurrent_solves_share_the_pool(self, monkeypatch):
        # suite threads share one slab pool: more solves at once than
        # cores, with a short switch interval, each get the serial bits
        g, f, bc = _policy_problem()
        coeffs = [fd.identity_coeff()(g),
                  fd.constant_coeff(np.diag([4.0, 1.0, 0.25]), c=-2.0)(g)]
        monkeypatch.setattr(fd, "_BLOCK_ROWS", 100)
        monkeypatch.setattr(fd, "CORES", 1)
        serial = [fd.solve_dirichlet(c, f, bc).values.tobytes()
                  for c in coeffs]
        monkeypatch.setattr(fd, "CORES", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                jobs = [pool.submit(fd.solve_dirichlet, coeffs[i % 2], f, bc)
                        for i in range(12)]
                got = [job.result(timeout=120).values.tobytes()
                       for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        assert got == [serial[i % 2] for i in range(12)]

    def test_cores_without_affinity(self, monkeypatch):
        monkeypatch.delattr(fd.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(fd.os, "cpu_count", lambda: None)
        assert fd._cores() == 1
        monkeypatch.setattr(fd.os, "cpu_count", lambda: 6)
        assert fd._cores() == 6


def _wavy(x):
    """A smooth field that no difference reproduces exactly."""
    return (np.sin(3 * x[..., 0] - x[..., -1]) * np.exp(x[..., 1])
            + np.cos(2 * np.sum(x, -1)))


class TestGatherOracle:
    """hessian_field and apply_L against full-box and assembled
    references."""

    @pytest.mark.parametrize("domain, h", [
        (unit_box(2), 1 / 16), (unit_ball(3), 1 / 8), (unit_ball(4), 1 / 5)],
        ids=["box2", "ball3", "ball4"])
    def test_hessian_bit_equal(self, domain, h):
        g = fd.build_grid(domain, h)
        u = fd.field_from_function(g, _wavy)
        H, valid = fd.hessian_field(u)
        assert np.array_equal(valid, fd.interior_eroded(g, 1))
        assert H[valid].tobytes() == _shifted_hessian(u)[valid].tobytes()
        assert not np.any(H[~valid])

    @pytest.mark.parametrize("domain, h", [
        (unit_box(2), 1 / 16), (unit_ball(3), 1 / 8)], ids=["box2", "ball3"])
    def test_apply_L_is_the_assembled_operator(self, domain, h):
        # anisotropic A with a per-node potential: apply_L equals the
        # reference matrix applied to u plus the boundary terms, which the
        # reference right-hand side carries for f = 0
        g = fd.build_grid(domain, h)
        x = g.points(g.interior)
        A = fd.coeff_gilbarg_serrin(g.dim, 0.25)(g).A
        coeff = fd.CoeffField(g, A, -1.0 - np.sum(x ** 2, -1))
        u = fd.field_from_function(g, _wavy)
        zero = fd.ScalarField(g, np.zeros(g.shape))
        data = fd.ScalarField(g, np.where(g.boundary, u.values, 0.0))
        ref, rhs, _ = _coo_reference(coeff, zero, data)
        want = ref @ u.values[g.interior] - rhs
        got = fd.apply_L(u, coeff).values
        assert np.max(np.abs(got[g.interior] - want)) <= (
            1e-12 * np.max(np.abs(want)))
        assert not np.any(got[~g.interior])

    def test_apply_L_blocks_bit_equal(self):
        # 54,088 rows in seven blocks of _BLOCK_ROWS: each weight depends
        # on its own node only, so the blocks give one whole gather's bits
        g = fd.build_grid(unit_ball(3), 1 / 24)
        x = g.points(g.interior)
        A = fd.coeff_gilbarg_serrin(3, 0.25)(g).A
        coeff = fd.CoeffField(g, A, -1.0 - np.sum(x ** 2, -1))
        u = fd.field_from_function(g, _wavy)
        pos, strides = fd._positions(g.interior)
        assert pos.size > 6 * fd._BLOCK_ROWS
        whole = fd._gather(u.values, pos, strides, fd._stencil(coeff))
        got = fd.apply_L(u, coeff).values
        assert got[g.interior].tobytes() == whole.tobytes()
        assert not np.any(got[~g.interior])


class TestMemoryBudget:
    """tracemalloc peaks on the n = 3 unit ball.  At h = 1/16 (15,408
    unknowns), full-box coefficient arrays and per-offset full-box copies
    peak at 12x the interior coefficient bytes and 5.9x the CSR bytes;
    interior storage at 3.6x and 3.0x, and 2.3x for the CSR once the
    assembly frees each stencil weight as it is written.  Assembly in
    blocks of fd._BLOCK_ROWS rows, straight into CSR arrays of the exact
    nnz, with the weights made in the block's columns, peaks at 1.9x there
    (two blocks, the first of 8,192 rows), and at h = 1/24 (54,088
    unknowns, seven blocks) at 1.3x for _assemble and 1.5x for
    solve_dirichlet, where BiCGSTAB's vectors set the peak; a full-size
    block peaked at 2.3x at both sizes.  At h = 1/12 (6,272 unknowns, one
    block) the first assembly, which keeps the pattern on the grid, peaks
    at 2.6x and a repeat at 1.5x, where building the pattern on every
    assembly peaked at 3.0x.  _stencil peaks at 1.05x the weights it
    returns, where dividing every sum into a new dict peaked at 1.7x."""

    def test_coeff_peak(self):
        g = fd.build_grid(unit_ball(3), 1 / 16)
        build = fd.coeff_gilbarg_serrin(3, 0.25)
        tracemalloc.start()
        try:
            coeff = build(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = int(np.count_nonzero(g.interior)) * 3 * 3 * 8
        assert peak <= 5 * result
        assert coeff.A.nbytes == result

    def test_stencil_peak(self):
        # each sum is divided by h^2 in place, so the weights are made
        # with no second copy of them
        g = fd.build_grid(unit_ball(3), 1 / 16)
        coeff = fd.coeff_gilbarg_serrin(3, 0.25)(g)
        tracemalloc.start()
        try:
            weights = fd._stencil(coeff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * sum(w.nbytes for _, w in weights)

    def test_apply_L_peak(self):
        # weighted and gathered one block of rows at a time, so the peak
        # holds the result and one block's weights, not all 19 arrays
        g = fd.build_grid(unit_ball(3), 1 / 24)
        coeff = fd.coeff_gilbarg_serrin(3, 0.25)(g)
        u = fd.field_from_function(g, _wavy)
        tracemalloc.start()
        try:
            out = fd.apply_L(u, coeff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.values.nbytes

    def test_solve_peak(self):
        peak, csr = self._solve_peak(1 / 16, fd.solve_dirichlet)
        assert peak <= 2.6 * csr

    def test_kept_pattern_peak(self):
        # h = 1/12, 6,272 unknowns, one block: the first assembly keeps the
        # pattern, so a repeat allocates data, rhs and one block's weights
        first, csr = self._solve_peak(1 / 12, fd._assemble)
        repeat, _ = self._solve_peak(1 / 12, fd._assemble)
        assert first <= 3.02 * csr
        assert repeat <= 2.3 * csr

    @pytest.mark.parametrize("stage", ["_assemble", "solve_dirichlet"])
    def test_blocked_peak(self, stage):
        peak, csr = self._solve_peak(1 / 24, getattr(fd, stage))
        assert peak <= 1.6 * csr

    @staticmethod
    def _solve_peak(h, call):
        """tracemalloc peak of call(coeff, f, g) on the gilbarg_serrin
        problem at spacing h, and the bytes of the CSR it solves."""
        g, f, bc = _policy_problem(3, h)
        coeff = fd.coeff_gilbarg_serrin(3, 0.25)(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fd.MonotonicityWarning)
            tracemalloc.start()
            try:
                call(coeff, f, bc)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        A = fd._assemble(coeff, f, bc)[0]
        return peak, A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


class TestNorms:
    def test_constant_on_box(self):
        g = fd.build_grid(unit_box(2), 1 / 64)
        one = fd.ScalarField(g, np.ones(g.shape))
        for q in (1.0, 2.0, 3.5):
            assert abs(fd.lq_norm(one, q) - 1.0) < 0.05

    def test_ball_integral(self):
        g = fd.build_grid(unit_ball(3), 1 / 32)
        f = fd.ScalarField(g, np.full(g.shape, 6.0))
        target = 6.0 * (4 * np.pi / 3) ** (1 / 3)
        assert abs(fd.lq_norm(f, 3.0) / target - 1) < 0.02

    def test_empty_mask(self):
        g = fd.build_grid(unit_box(2), 0.125)
        f = fd.ScalarField(g, np.ones(g.shape))
        assert fd.lq_norm(f, 2.0, np.zeros(g.shape, dtype=bool)) == 0.0

    def test_mask_monotone(self):
        g = fd.build_grid(unit_ball(2), 0.05)
        rng = np.random.default_rng(3)
        f = fd.ScalarField(g, rng.normal(size=g.shape))
        small = fd.interior_eroded(g, 2)
        assert fd.lq_norm(f, 2.0, small) <= fd.lq_norm(f, 2.0) + 1e-15

    def test_q_below_one(self):
        g = fd.build_grid(unit_box(2), 0.125)
        f = fd.ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            fd.lq_norm(f, 0.5)

    def test_sup_inf_osc_bubble(self):
        g = fd.build_grid(unit_ball(2), 0.05)
        u = fd.field_from_function(g, lambda x: 1 - np.sum(x ** 2, -1))
        sup, inf, osc = fd.sup_inf_osc(u)
        assert abs(sup - 1) < 0.01 and abs(inf) < 0.1 and abs(osc - 1) < 0.1

    def test_sup_inf_constant(self):
        g = fd.build_grid(unit_box(2), 0.125)
        u = fd.ScalarField(g, np.full(g.shape, 2.5))
        assert fd.sup_inf_osc(u) == (2.5, 2.5, 0.0)

    def test_empty_mask_extrema(self):
        g = fd.build_grid(unit_box(2), 0.125)
        u = fd.ScalarField(g, np.ones(g.shape))
        with pytest.raises(ValueError):
            fd.sup_inf_osc(u, np.zeros(g.shape, dtype=bool))


class TestHessian:
    def test_quadratic_exact(self):
        g = fd.build_grid(unit_box(2), 0.125)
        M = np.array([[2.0, 1.0], [1.0, -3.0]])
        u = fd.field_from_function(
            g, lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, M, x))
        H, mask = fd.hessian_field(u)
        assert np.allclose(H[mask], M, atol=1e-10)

    def test_bubble_hessian(self):
        g = fd.build_grid(unit_ball(2), 0.1)
        u = fd.field_from_function(g, lambda x: 1 - np.sum(x ** 2, -1))
        H, mask = fd.hessian_field(u)
        assert np.allclose(H[mask], -2 * np.eye(2), atol=1e-10)

    def test_power_eigenvalues(self):
        n, alpha, h = 3, 0.5, 1 / 64
        g = fd.build_grid(unit_ball(n), h)
        u = fd.field_from_function(
            g, lambda x: np.sum(x ** 2, -1) ** (alpha / 2))
        H, mask = fd.hessian_field(u)
        r = np.linalg.norm(g.points(), axis=-1)
        sel = mask & (r > 0.5) & (r < 0.9)
        lam = np.sort(np.linalg.eigvalsh(H[sel]), axis=1)
        rr = r[sel]
        exact = np.sort(np.stack(
            [alpha * (alpha - 1) * rr ** (alpha - 2)]
            + [alpha * rr ** (alpha - 2)] * (n - 1), axis=1), axis=1)
        assert np.max(np.abs(lam - exact)) < 50 * h ** 2


class TestW22:
    def test_half_square_norm(self):
        g = fd.build_grid(unit_box(3), 0.125)
        u = fd.field_from_function(g, lambda x: 0.5 * np.sum(x ** 2, -1))
        mask = fd.interior_eroded(g, 2)
        vol = np.count_nonzero(mask) * g.volume_weight()
        assert np.isclose(fd.w22_seminorm(u, mask),
                          np.sqrt(3) * np.sqrt(vol), atol=1e-10)

    def test_affine_zero(self):
        g = fd.build_grid(unit_box(2), 0.125)
        u = fd.field_from_function(g, lambda x: 1 + x[..., 0] - x[..., 1])
        assert fd.w22_seminorm(u, fd.interior_eroded(g, 2)) < 1e-12

    def test_bubble_norm(self):
        g = fd.build_grid(unit_box(2), 1 / 16)
        u = fd.field_from_function(g, lambda x: 1 - np.sum(x ** 2, -1))
        mask = fd.interior_eroded(g, 2)
        vol = np.count_nonzero(mask) * g.volume_weight()
        assert np.isclose(fd.w22_seminorm(u, mask),
                          2 * np.sqrt(2) * np.sqrt(vol), atol=1e-10)

    def test_mask_too_wide_rejected(self):
        g = fd.build_grid(unit_box(2), 0.125)
        u = fd.field_from_function(g, lambda x: np.sum(x ** 2, -1))
        with pytest.raises(ValueError):
            fd.w22_seminorm(u, g.interior)


class TestFieldValidation:
    def test_shape_mismatch(self):
        g = fd.build_grid(unit_box(2), 0.125)
        with pytest.raises(ValueError):
            fd.ScalarField(g, np.zeros((3, 3)))

    def test_nonfinite_on_active(self):
        g = fd.build_grid(unit_box(2), 0.125)
        vals = np.zeros(g.shape)
        vals[4, 4] = np.nan
        with pytest.raises(ValueError):
            fd.ScalarField(g, vals)

    def test_asymmetric_coeff_rejected(self):
        g = fd.build_grid(unit_box(2), 0.125)
        nuk = int(np.count_nonzero(g.interior))
        A = np.broadcast_to(np.array([[1.0, 0.5], [0.1, 1.0]]),
                            (nuk, 2, 2)).copy()
        with pytest.raises(ValueError, match="symmetric"):
            fd.CoeffField(g, A)

    def test_coeff_one_ulp_from_symmetric_rejected(self):
        # assembly reads one triangle, eigvalsh the other: they must agree
        g = fd.build_grid(unit_box(2), 0.125)
        nuk = int(np.count_nonzero(g.interior))
        M = np.array([[1.0, 0.3], [np.nextafter(0.3, 1.0), 1.0]])
        A = np.broadcast_to(M, (nuk, 2, 2)).copy()
        with pytest.raises(ValueError, match="symmetric"):
            fd.CoeffField(g, A)

    def test_full_box_coeff_rejected(self):
        # coefficients are stored on interior nodes only
        g = fd.build_grid(unit_box(2), 0.125)
        A = np.broadcast_to(np.eye(2), g.shape + (2, 2)).copy()
        with pytest.raises(ValueError, match="interior node"):
            fd.CoeffField(g, A)

    def test_nonpositive_diagonal_rejected(self):
        # one node whose a_11 = 0: no elliptic A has it
        g = fd.build_grid(unit_box(2), 0.125)
        nuk = int(np.count_nonzero(g.interior))
        A = np.broadcast_to(np.eye(2), (nuk, 2, 2)).copy()
        A[5, 0, 0] = 0.0
        with pytest.raises(ValueError, match="need a_ii > 0"):
            fd.CoeffField(g, A)

    @pytest.mark.parametrize("name, at, value", [
        ("A", (12, 0, 0), np.inf),
        ("A", (30, 0, 1), np.nan),
        ("c", 7, -np.inf),
    ])
    def test_nonfinite_coeff_rejected(self, name, at, value):
        # named with the first node's row and lattice index, before the
        # symmetry and sign checks that a NaN or inf would trip elsewhere
        g = fd.build_grid(unit_box(2), 0.125)
        A = np.broadcast_to(np.eye(2), (49, 2, 2)).copy()
        c = -np.ones(49)
        ({"A": A, "c": c}[name])[at] = value
        k = at[0] if name == "A" else at
        node = tuple(np.argwhere(g.interior)[k].tolist())
        with pytest.raises(ValueError, match=re.escape(
                f"coefficient {name} is not finite at interior node {k} "
                f"(lattice index {node})")):
            fd.CoeffField(g, A, c)

    def test_potential_shape_checked(self):
        # one c per interior node, not a vector of some other length
        g = fd.build_grid(unit_box(2), 0.125)
        nuk = int(np.count_nonzero(g.interior))
        A = np.broadcast_to(np.eye(2), (nuk, 2, 2)).copy()
        with pytest.raises(ValueError, match=r"potential c has shape "
                           r"\(3,\), need \(49,\)"):
            fd.CoeffField(g, A, -np.ones(3))

    @pytest.mark.parametrize("spectra, row", [
        ([[1.0, 1.0]], np.zeros(3, dtype=np.intp)),      # wrong length
        ([[1.0, 1.0]], np.ones(49, dtype=np.intp)),      # no row 1
        ([[1.0, 1.0]], -np.ones(49, dtype=np.intp)),     # negative
        ([[1.0, 1.0]], np.zeros(49)),                    # not integers
        ([[1.0, 1.0], [2.0, 1.0]], None),                # two rows, no index
    ], ids=["short", "past_end", "negative", "float", "missing"])
    def test_row_index_checked(self, spectra, row):
        g = fd.build_grid(unit_box(2), 0.125)
        A = np.broadcast_to(np.eye(2), (49, 2, 2)).copy()
        with pytest.raises(ValueError, match=r"need spectra \(d, 2\) and "
                           r"row \(49,\) of indices"):
            fd.CoeffField(g, A, spectra=np.array(spectra), row=row)

    def test_spectra_shape_checked(self):
        g = fd.build_grid(unit_box(2), 0.125)
        A = np.broadcast_to(np.eye(2), (49, 2, 2)).copy()
        for spectra in (np.ones(2), np.ones((1, 3)), np.ones((0, 2))):
            with pytest.raises(ValueError, match=r"need spectra \(d, 2\)"):
                fd.CoeffField(g, A, spectra=spectra)

    def test_positive_potential_rejected(self):
        # with c > 0 at one node there is no maximum principle
        g = fd.build_grid(unit_box(2), 0.125)
        nuk = int(np.count_nonzero(g.interior))
        A = np.broadcast_to(np.eye(2), (nuk, 2, 2)).copy()
        c = np.full(nuk, -1.0)
        c[5] = 1e-3
        with pytest.raises(ValueError, match="c <= 0"):
            fd.CoeffField(g, A, c)

    @pytest.mark.parametrize("A, c, param", [
        ([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]], None,
         "matrix"),
        # a positive diagonal, but indefinite
        ([[1.0, 2.0], [2.0, 1.0]], None, "matrix"),
        (np.eye(2), 9.0, "c"),
    ])
    def test_constant_builder_names_the_param(self, A, c, param):
        with pytest.raises(ParamError) as caught:
            fd.constant_coeff(A, c)
        assert caught.value.param == param
