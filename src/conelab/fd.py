"""Grids, fields, and discrete non-divergence elliptic operators.

Operators have the form Lu = a^{ij} D_ij u + c u with A elliptic and c <= 0, on
box or ball domains: the class the estimates cover.  They are discretized with
second-order central differences (four-point cross stencil for the mixed
terms), written down once in _difference_table: each D_ij is a scale and a list
of (lattice offset, integer coefficient) terms.  _stencil is the one place
where A and c become per-node weights of that table's offsets; the matrix
solve_dirichlet inverts and apply_L both use those weights, so apply_L is the
assembled operator, and hessian_field reads the D_ij terms.  Ball boundaries
are handled by cut cells: the first lattice layer outside the interior carries
Dirichlet data evaluated at the radial projection onto the sphere, which costs
one order at the boundary.

Coefficients, stencil weights and Hessians live on interior nodes only
(Hessians on those one layer in), in row-major (np.flatnonzero) order, so
no array of matrices spans the box.  Every lattice difference finds each
neighbour by flat-index arithmetic, position + offset . strides
(_positions), and apply_L and hessian_field sum the gathered neighbour
values in one function (_gather).  A lattice has at most NODE_BUDGET
nodes, counted by lattice_shape from the domain and h before any array is
built.  build_grid keeps the last 8 lattices of the process as read-only
Grids shared by every caller, and the assembly is split the same way: the
CSR pattern (indptr, indices, and per block of rows the take index of its
interior columns and its boundary neighbours) depends on the lattice
alone, and solve_dirichlet fills only the weights into it.  A lattice of
at most _BLOCK_ROWS interior nodes is one block and keeps its
pattern on its Grid, so a repeat solve there computes the _stencil weights,
scatters them into data and subtracts the boundary terms from the
right-hand side; a larger lattice builds its pattern again block by block
as each assembly consumes it, so no full-size copy of the matrix is made.
Each Grid and kept pattern is built once per process, whatever the threads.
apply_L weights and gathers the same blocks.  Grid.radius_map is the one
node-to-centre distance of a ball lattice.  A CoeffField keeps the spectrum
of its A as the distinct eigenvalue rows plus one row index per node.  A
coefficient builder maps a grid to a CoeffField and derives those rows from
its own parameters, so eigvalsh per node runs only for a field given A
alone.

Dirichlet systems of every size are solved by Jacobi-preconditioned BiCGSTAB
(Saad, Iterative Methods for Sparse Linear Systems, 2003).  When it does not
converge or leaves a relative residual above RESIDUAL_TOL, the same system is
solved once more by sparse LU (spsolve); only a failed direct solve raises
NumericError.  A system of more than _BLOCK_ROWS rows, on a process that may
run on several cores, has each matrix-vector product of BiCGSTAB split into
row slabs, one per core, that run at once (row-block data parallelism, Saad
section 11.5); each row's sum is the same, so the iterates are the same bits.
Each solve is logged on the "conelab.fd" logger: one DEBUG record with the
path taken, the unknowns, nnz, the number of row slabs, the seconds spent
assembling, the iteration count, whether the lattice's pattern was kept or
built, the final relative residual, the seconds spent in all, and the
number of interior nodes with a wrong-sign off-diagonal weight; and a
WARNING for every fallback to the direct solver with its reason.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, spsolve

from .symcone import NumericError, ParamError, gs_spectrum

MIN_INTERIOR_PER_AXIS = 3
RESIDUAL_TOL = 1e-6     # accepted relative residual of a linear solve
SOLVE_RTOL = 1e-10      # relative tolerance BiCGSTAB iterates to
_BLOCK_ROWS = 8192      # interior rows per assembly block and matvec slab
# the most nodes a lattice may have.  Peak RSS above the base measured 461
# to 688 B per unknown (gilbarg_serrin, n = 3 unit ball, h = 1/40 to 1/16),
# and about half of a ball lattice's nodes are unknowns (pi/6 at n = 3), so
# 2^23 nodes cost about 2 to 3 GB; a box lattice, all but its faces
# unknowns, up to twice that
NODE_BUDGET = 2 ** 23
# held while a lattice's Grid or kept pattern is built, so each is built once
_LATTICE_LOCK = threading.Lock()
# the keys of a domain's dict beside "kind": the arguments of Domain.<kind>
DOMAIN_KEYS = {"ball": ("center", "radius"), "box": ("lo", "hi")}

log = logging.getLogger(__name__)


def _cores():
    """Cores this process may run on: its CPU affinity set where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


CORES = _cores()
# the matvec slabs past the first, of every solve of the process (suite
# threads included); it starts no thread until a slab is submitted
_SLAB_POOL = ThreadPoolExecutor(max_workers=max(CORES - 1, 1),
                                thread_name_prefix="conelab-matvec")


class MonotonicityWarning(UserWarning):
    """A stencil weight has the wrong sign for the discrete maximum
    principle (strongly anisotropic coefficients)."""


@dataclass(frozen=True)
class Domain:
    kind: str                 # "ball" or "box"
    dim: int
    center: np.ndarray | None = None
    radius: float | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @staticmethod
    def ball(center, radius):
        center = np.asarray(center, dtype=float)
        if not (np.all(np.isfinite(center)) and 0 < radius < np.inf):
            raise ValueError(f"ball needs a finite center and a finite "
                             f"radius > 0, got {center.tolist()} and "
                             f"{radius!r}")
        return Domain("ball", center.size, center=center, radius=float(radius))

    @staticmethod
    def box(lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if (lo.size != hi.size or not np.all(lo < hi)
                or not np.all(np.isfinite(np.r_[lo, hi]))):
            raise ValueError("box needs finite lo < hi componentwise")
        return Domain("box", lo.size, lo=lo, hi=hi)

    @property
    def diam(self):
        if self.kind == "ball":
            return 2.0 * self.radius
        return float(np.linalg.norm(self.hi - self.lo))

    def to_dict(self):
        return {"kind": self.kind, **{
            key: np.asarray(getattr(self, key)).tolist()
            for key in DOMAIN_KEYS[self.kind]}}

    @staticmethod
    def from_dict(d):
        """Inverse of to_dict; ValueError on any other set of keys."""
        keys = DOMAIN_KEYS.get(d.get("kind"))
        if keys is None or set(d) != {"kind", *keys}:
            raise ValueError(f"need kind 'ball' with center and radius or "
                             f"kind 'box' with lo and hi, got {d!r}")
        return getattr(Domain, d["kind"])(*(d[key] for key in keys))


def lattice_shape(domain, h):
    """The shape of the lattice of domain at spacing h, from the domain and h
    alone: extent/h + 1 nodes per axis of a box, 2 ceil(R/h) + 2 of a ball.
    ValueError, before any array is built, unless h > 0, each box extent is
    a multiple of h and the lattice has at most NODE_BUDGET nodes."""
    if not h > 0:
        raise ValueError("spacing h must be positive")
    if domain.kind == "box":
        extent = domain.hi - domain.lo
        counts = np.round(extent / h)
        if np.any(np.abs(counts * h - extent) > 1e-9 * h):
            raise ValueError("box extents must be multiples of h")
        per_axis = counts + 1
    else:
        per_axis = np.full(domain.dim, 2 * np.ceil(domain.radius / h) + 2)
    nodes = float(np.prod(per_axis))    # a float: it may exceed any int64
    if nodes > NODE_BUDGET:
        raise ValueError(f"spacing {h:g} needs {nodes:.0f} lattice nodes, "
                         f"above the budget of {NODE_BUDGET}")
    return tuple(int(c) for c in per_axis)


class Grid:
    """Uniform lattice over a domain with interior/boundary classification.

    Ball lattices are offset half a spacing from the center so no node can
    sit on a coefficient singularity there.  Boundary nodes are the cube
    neighbors of interior nodes that are not themselves interior.
    """

    def __init__(self, domain, h):
        shape = lattice_shape(domain, h)
        self.domain = domain
        self.h = float(h)
        n = domain.dim
        if domain.kind == "box":
            self.axes = [domain.lo[i] + np.arange(shape[i]) * h
                         for i in range(n)]
            interior = np.zeros(shape, dtype=bool)
            interior[(slice(1, -1),) * n] = True
            active = np.ones(shape, dtype=bool)
        else:
            m = shape[0] // 2
            self.axes = [domain.center[i] + (np.arange(-m, m) + 0.5) * h
                         for i in range(n)]
            interior = self.radius_map() < domain.radius - h / 2
            active = _cube_morph(interior, 1, grow=True)
        self.shape = interior.shape
        self.interior = interior
        self.boundary = active & ~interior
        self.active = active
        # grids are shared (build_grid): no caller may write into one
        for arr in (interior, self.boundary, active, *self.axes):
            arr.flags.writeable = False
        self._pattern = None    # the kept CSR pattern, see _lattice_pattern
        per_axis = [int(np.count_nonzero(interior.any(
            axis=tuple(j for j in range(n) if j != i))))
            for i in range(n)]
        if min(per_axis, default=0) < MIN_INTERIOR_PER_AXIS:
            raise ValueError(
                f"grid too coarse: {per_axis} interior nodes per axis")

    @property
    def dim(self):
        return self.domain.dim

    def radius_map(self):
        """Each node's distance from the center of a ball domain."""
        c = self.domain.center
        # sparse: the 1-d axes broadcast, so only the sum is a full array
        mesh = np.meshgrid(*[ax - c[i] for i, ax in enumerate(self.axes)],
                           indexing="ij", sparse=True)
        return np.sqrt(sum(x ** 2 for x in mesh))

    def points(self, mask=None):
        """Node coordinates, shape = grid shape + (n,); with a mask, those
        of its nodes in row-major order, shape (count, n)."""
        if mask is None:
            # broadcast views, copied once by the stack
            return np.stack(np.meshgrid(*self.axes, indexing="ij",
                                        copy=False), axis=-1)
        return np.stack([ax[i] for ax, i in zip(self.axes, np.nonzero(mask))],
                        axis=-1)

    def boundary_points(self):
        """Representative boundary coordinates for each boundary node:
        the node itself on boxes, its radial projection on spheres."""
        pts = self.points(self.boundary)
        if self.domain.kind == "ball":
            rel = pts - self.domain.center
            r = np.linalg.norm(rel, axis=-1)
            pts = self.domain.center + self.domain.radius * rel / r[:, None]
        return pts

    def volume_weight(self):
        return self.h ** self.dim


def build_grid(domain, h):
    """The Grid of domain at spacing h, one per lattice (domain.to_dict()
    and float(h)) among the last 8 built in the process, shared by every
    caller and read-only."""
    with _LATTICE_LOCK:
        return _grid(json.dumps(domain.to_dict()), float(h))


@functools.lru_cache(maxsize=8)
def _grid(domain, h):
    return Grid(Domain.from_dict(json.loads(domain)), h)


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(self.values[self.grid.active])):
            raise ValueError("non-finite values on active nodes")


def field_from_function(grid, fn):
    """Sample fn(points) -> values on all lattice nodes (vectorized over the
    trailing coordinate axis)."""
    vals = np.asarray(fn(grid.points()), dtype=float)
    vals = np.where(grid.active, vals, 0.0)
    return ScalarField(grid, vals)


def boundary_field(grid, fn):
    """Dirichlet data: fn evaluated at representative boundary points
    (radially projected for cut cells on balls)."""
    vals = np.zeros(grid.shape)
    vals[grid.boundary] = np.asarray(fn(grid.boundary_points()), dtype=float)
    return ScalarField(grid, vals)


@dataclass
class CoeffField:
    """Coefficients on the nuk interior nodes only, in row-major order (that
    of np.flatnonzero(grid.interior)): A (nuk, n, n), finite and symmetric
    with every a_ii > 0, and optional c (nuk,), finite and <= 0.  The
    operator is elliptic only there, so nothing is stored for the rest of
    the box.

    The spectrum of A is spectra (d, n), its distinct eigenvalue rows, each
    kept descending, and row (nuk,), the index in spectra of each node's
    row.  The builders derive spectra from their own parameters; with one
    row and no row index every node has that row, through a zero-stride
    index.  A field given A alone gets both here, from eigvalsh per node
    with equal rows merged: the one place a spectrum is derived from A."""
    grid: Grid
    A: np.ndarray
    c: np.ndarray | None = None
    spectra: np.ndarray | None = None
    row: np.ndarray | None = None

    def __post_init__(self):
        n = self.grid.dim
        nuk = int(np.count_nonzero(self.grid.interior))
        if self.A.shape != (nuk, n, n):
            raise ValueError(f"coefficient matrix field has shape "
                             f"{self.A.shape}, need {(nuk, n, n)} (one "
                             f"matrix per interior node)")
        if self.c is not None and np.shape(self.c) != (nuk,):
            raise ValueError(f"potential c has shape {np.shape(self.c)}, "
                             f"need {(nuk,)} (one value per interior node)")
        for name in ("A", "c"):
            value = getattr(self, name)
            if value is None:
                continue
            bad = ~np.isfinite(value).reshape(nuk, -1).all(axis=1)
            if bad.any():
                k = int(np.argmax(bad))
                node = tuple(np.argwhere(self.grid.interior)[k].tolist())
                raise ValueError(f"coefficient {name} is not finite at "
                                 f"interior node {k} (lattice index {node})")
        if not np.array_equal(self.A, np.swapaxes(self.A, -1, -2)):
            raise ValueError("coefficient matrices must be exactly "
                             "symmetric")
        # a_ii > 0 and c <= 0 make the assembled diagonal c - 2 tr(A)/h^2 < 0
        if not np.all(np.diagonal(self.A, axis1=1, axis2=2) > 0):
            raise ValueError("need a_ii > 0 at every node: A not elliptic")
        if self.c is not None and not np.all(self.c <= 0):
            raise ValueError("need c <= 0 at every node")
        if self.spectra is None:
            self.spectra, self.row = np.unique(
                np.linalg.eigvalsh(self.A)[:, ::-1], axis=0,
                return_inverse=True)
        self.spectra = np.sort(self.spectra, axis=-1)[..., ::-1]
        d = len(self.spectra)
        if self.row is None and d == 1:
            self.row = np.broadcast_to(np.intp(0), (nuk,))
        row = np.asarray(self.row)
        if not (self.spectra.shape == (d, n) and row.shape == (nuk,)
                and row.dtype.kind in "iu" and 0 <= row.min()
                and row.max() < d):
            raise ValueError(f"need spectra (d, {n}) and row {(nuk,)} of "
                             f"indices into it, got {self.spectra.shape} "
                             f"and {row.shape} {row.dtype}")


def constant_coeff(A, c=None):
    """Builder for a spatially constant field, whose spectrum is computed
    once, here; ParamError unless A is symmetric positive definite, c <= 0."""
    A = np.asarray(A, dtype=float)
    spectrum = np.linalg.eigvalsh(A)
    # exactly symmetric: the assembly reads one triangle, eigvalsh the other
    if not (np.array_equal(A, A.T) and spectrum[0] > 0):
        raise ParamError("matrix", f"need a symmetric positive definite "
                         f"matrix, got {A.tolist()}")
    if c is not None and not c <= 0:
        raise ParamError("c", f"need c <= 0, got {c!r}")

    def build(grid):
        nuk = int(np.count_nonzero(grid.interior))
        AA = np.broadcast_to(A, (nuk,) + A.shape).copy()
        cc = (np.full(nuk, float(c)) if c is not None else None)
        return CoeffField(grid, AA, cc, spectrum[None, ::-1])
    return build


def identity_coeff():
    def build(grid):
        return constant_coeff(np.eye(grid.dim))(grid)
    return build


def coeff_gilbarg_serrin(n, alpha):
    """Builder for A(x) = I + beta x x^T / |x|^2, where 1 + beta is the
    radial eigenvalue of gs_spectrum(n, alpha), the spectrum of A(x).

    A(0) = I (the singularity is removable for all residual tests, which
    stay away from the origin; ball grids never place a node there), so a
    lattice with a node at the origin gives it the second row (1, ..., 1).
    """
    spectrum = gs_spectrum(n, alpha)
    beta = spectrum[-1] - 1.0

    def build(grid):
        if grid.dim != n:
            raise ValueError("grid dimension mismatch")
        x = grid.points(grid.interior)
        r2 = np.sum(x ** 2, axis=-1)
        A = x[:, :, None] * x[:, None, :]
        A /= np.where(r2 > 0, r2, 1.0)[:, None, None]
        A *= beta
        A += np.eye(n)
        origin = ~(r2 > 0)    # where x = 0 the sums above leave A = I
        if not origin.any():
            return CoeffField(grid, A, spectra=spectrum[None])
        return CoeffField(grid, A, spectra=np.stack([spectrum, np.ones(n)]),
                          row=origin.astype(np.intp))
    return build


def _shift(arr, offset, fill=0):
    """arr sampled at p + offset: out[p] = arr[p + offset], edges filled."""
    out = np.full_like(arr, fill)
    src = []
    dst = []
    for o in offset:
        if o > 0:
            src.append(slice(o, None))
            dst.append(slice(None, -o))
        elif o < 0:
            src.append(slice(None, o))
            dst.append(slice(-o, None))
        else:
            src.append(slice(None))
            dst.append(slice(None))
    out[tuple(dst)] = arr[tuple(src)]
    return out


def _cube_morph(mask, layers, grow):
    """mask dilated (grow) or eroded by layers 3^n cube layers, nodes off
    the array counting as outside.  The cube is separable: a layer is one
    pass of two unit shifts per axis."""
    n = mask.ndim
    op = np.logical_or if grow else np.logical_and
    out = mask
    for _ in range(layers):
        for e in np.eye(n, dtype=int):
            out = op(op(out, _shift(out, e)), _shift(out, -e))
    return out


def _difference_table(n):
    """The second differences (i, j, scale, terms) for i <= j, with (offset,
    k) terms such that D_ij u = sum k u(x + h offset) / (scale h^2).  Their
    order sets the order of the stencil's offsets and of the boundary-data
    sums."""
    e = np.eye(n, dtype=int)

    def o(v):
        return tuple(v.tolist())
    second = []
    for i in range(n):
        second.append((i, i, 1, [((0,) * n, -2), (o(e[i]), 1),
                                 (o(-e[i]), 1)]))
        for j in range(i + 1, n):
            p, m = e[i] + e[j], e[i] - e[j]
            second.append((i, j, 4, [(o(p), 1), (o(-p), 1),
                                     (o(m), -1), (o(-m), -1)]))
    return second


def _positions(mask):
    """Flat positions of mask's nodes in row-major order, and the row-major
    strides of its box: the neighbour of position p at lattice offset o is
    p + o . strides."""
    # Grid keeps every interior node off the faces of the box, so no
    # neighbour p + offset . strides wraps into another row
    assert not any(mask.take(end, axis).any()
                   for axis in range(mask.ndim) for end in (0, -1))
    strides = np.cumprod((1,) + mask.shape[:0:-1])[::-1]
    return np.flatnonzero(mask), strides


def _gather(values, pos, strides, terms):
    """sum k values(p + offset) over the (offset, k) terms, in order, at
    the flat positions pos; k is an integer or one weight per position."""
    flat = values.ravel()
    acc = None
    for off, k in terms:
        t = flat[pos + int(np.dot(off, strides))]
        t *= k
        acc = t if acc is None else np.add(acc, t, out=acc)
    return acc


def apply_L(u, coeff):
    """Discrete Lu = A : D^2 u + c u on interior nodes (zero
    elsewhere): the weights of _stencil, those of the assembled matrix,
    applied to u.  Exact (to rounding) on polynomials of degree <= 2.
    """
    grid = u.grid
    pos, strides = _positions(grid.interior)
    out = np.zeros(grid.shape)
    # one block of _BLOCK_ROWS rows at a time, as _assemble weights them:
    # each weight depends on its own node only, so the bits are the same
    for r0 in range(0, pos.size, _BLOCK_ROWS):
        rows = slice(r0, r0 + _BLOCK_ROWS)
        out.ravel()[pos[rows]] = _gather(u.values, pos[rows], strides,
                                         _stencil(coeff, rows))
    return ScalarField(grid, out)


def _stencil(coeff, rows=slice(None), out=None):
    """(offset, weight) pairs of the assembled L in _difference_table
    order, one weight array per offset over the interior nodes of the slice
    rows (default all nuk); given out, one array per offset in that order
    (an assembly block's columns), the weights are made in those arrays.
    Per offset the A-weighted coefficients over the scale are summed and
    divided once by h^2; the scales are powers of two, so that division is
    exact.  c is added to the centre weight.  Each weight of a node depends
    on that node's coefficients only, so a slice of rows gets the same bits
    as the same rows of the whole.
    """
    n, h = coeff.grid.dim, coeff.grid.h
    acc = {}
    for i, j, scale, terms in _difference_table(n):
        # A : D^2 counts each off-diagonal pair twice
        a = coeff.A[rows, i, j] * ((1 if i == j else 2) / scale)
        for off, k in terms:
            # k * a, not a: each offset's sum is an array of its own, so it
            # is summed and divided in place, with no second copy of the
            # weights
            if off in acc:
                acc[off] += k * a
            else:
                acc[off] = np.multiply(
                    k, a, out=None if out is None else out[len(acc)])
    weights = list(acc.items())
    for _, s in weights:
        s /= h ** 2
    if coeff.c is not None:
        centre = weights[0][1]      # the first offset of the table
        centre += coeff.c[rows]
    return weights


def _rel_residual(A, x, rhs):
    return float(np.linalg.norm(A @ x - rhs)
                 / max(np.linalg.norm(rhs), 1e-300))


def _row_slabs(A):
    """A itself when it has at most _BLOCK_ROWS rows or the process has one
    core, else a LinearOperator whose matvec computes A's rows as
    min(CORES, ceil(rows / _BLOCK_ROWS)) slabs of equal row counts: the
    first on the calling thread, the rest on _SLAB_POOL.  Each row sums the
    same entries in the same order as A @ x, so the product is bit-equal.
    Returns (operator, number of slabs)."""
    nuk = A.shape[0]
    k = min(CORES, -(-nuk // _BLOCK_ROWS))
    if k <= 1:
        return A, 1
    bounds = [nuk * i // k for i in range(k + 1)]
    slabs = []
    for r0, r1 in zip(bounds, bounds[1:]):
        lo, hi = A.indptr[r0], A.indptr[r1]
        slab = sparse.csr_matrix((r1 - r0, nuk), dtype=A.dtype)
        # views over A's arrays, set as attributes: the constructor's prune
        # copies a view that is under half its base
        slab.data, slab.indices = A.data[lo:hi], A.indices[lo:hi]
        slab.indptr = A.indptr[r0:r1 + 1] - lo
        slabs.append(slab)

    def matvec(x):
        rest = [_SLAB_POOL.submit(slab.dot, x) for slab in slabs[1:]]
        return np.concatenate([slabs[0].dot(x)]
                              + [part.result() for part in rest])
    return LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), k


def _solve_linear(A, rhs):
    """x with A x = rhs: BiCGSTAB first, one fallback to sparse LU.

    Returns (x, path, iterations, relative residual, row slabs of each
    matvec).
    """
    nuk = A.shape[0]
    iterations = 0

    def count(_xk):
        nonlocal iterations
        iterations += 1
    op, slabs = _row_slabs(A)
    maxiter = int(50 * np.sqrt(nuk)) + 100
    # bound to a name: numpy's temporary elision overwrote an unnamed one
    dinv = 1.0 / A.diagonal()
    jacobi = LinearOperator(A.shape, matvec=lambda x: x * dinv,
                            dtype=A.dtype)
    sol, info = bicgstab(op, rhs, rtol=SOLVE_RTOL, atol=0.0, M=jacobi,
                         maxiter=maxiter, callback=count)
    res = _rel_residual(op, sol, rhs)
    if info == 0 and res <= RESIDUAL_TOL:     # False for a NaN residual
        return sol, "bicgstab", iterations, res, slabs
    reason = f"BiCGSTAB info={info}, rel res={res:.2e}"
    log.warning("falling back to spsolve on %d unknowns: %s", nuk, reason)
    sol = spsolve(A.tocsc(), rhs)
    res = _rel_residual(op, sol, rhs)
    if not res <= RESIDUAL_TOL:
        raise NumericError(f"solve residual too large after fallback to "
                           f"spsolve ({reason}): {res:.2e}")
    return sol, "spsolve", iterations, res, slabs


def solve_dirichlet(coeff, f, g):
    """Solve Lu = -f in the interior with u = g on boundary nodes.

    The linear system is solved by BiCGSTAB with diagonal preconditioning
    to relative tolerance SOLVE_RTOL, whatever its size.  A BiCGSTAB
    failure (info != 0) or a relative residual above RESIDUAL_TOL triggers
    one direct sparse solve, logged as a WARNING with its reason;
    NumericError is raised only if the direct residual also exceeds
    RESIDUAL_TOL.  Emits MonotonicityWarning when an off-diagonal stencil
    weight has the sign that breaks the discrete maximum principle, with
    the number of interior nodes that have one (also in the DEBUG record).
    """
    t0 = time.perf_counter()
    grid = f.grid
    A, rhs, n_wrong, kept = _assemble(coeff, f, g)
    assembled = time.perf_counter() - t0
    nuk = len(rhs)
    if n_wrong:
        warnings.warn(f"off-diagonal stencil weight with wrong sign at "
                      f"{n_wrong} of {nuk} interior nodes; the discrete "
                      f"maximum principle may fail",
                      MonotonicityWarning, stacklevel=2)
    sol, path, iterations, res, slabs = _solve_linear(A, rhs)
    log.debug("solve: path=%s unknowns=%d nnz=%d slabs=%d assemble=%.4f "
              "iterations=%d pattern=%s rel_res=%.2e elapsed=%.4f "
              "wrong_sign=%d", path, nuk, A.nnz, slabs, assembled, iterations,
              "kept" if kept else "built", res, time.perf_counter() - t0,
              n_wrong)
    out = np.where(grid.boundary, g.values, 0.0)
    out[grid.interior] = sol
    return ScalarField(grid, out)


def _assemble(coeff, f, g):
    """CSR matrix and right-hand side of the interior system of
    solve_dirichlet, the number of interior nodes with a wrong-sign
    off-diagonal weight, and whether the lattice's pattern was kept from
    an earlier assembly.

    The pattern (_lattice_pattern) fixes indptr and indices; here only the
    weights are filled in, block by block of rows: _stencil makes each
    weight of the block's rows in its slot of a (rows, width) block
    (ascending flat offset, the sorted column order of a canonical CSR
    row), the boundary terms leave the right-hand side in
    _difference_table order, and the take index moves the interior
    columns' values straight into the block's slice of data.  So the peak
    holds the CSR and one block, not a full-size block and every weight
    array at once.
    """
    grid = f.grid
    (indptr, indices, slots, blocks), kept = _lattice_pattern(grid)
    gflat = g.values.ravel()
    data = np.empty(indptr[-1])
    rhs = -f.values[grid.interior].astype(float)
    wrong_sign = 0
    for r0, r1, take, hits in blocks:
        # the weights straight into their slots of the block: after the
        # pattern's block, whose columns are freed by then
        vals = np.empty((r1 - r0, len(slots)))
        stencil = _stencil(coeff, slice(r0, r1),
                           [vals[:, slot] for slot in slots])
        rhs_rows = rhs[r0:r1]    # a view: writes land in rhs
        wrong = np.zeros(r1 - r0, dtype=bool)
        for (off, w), hit in zip(stencil, hits):
            if any(off):
                wrong |= w < -1e-12
            if hit is not None:
                rows, nb = hit
                rhs_rows[rows] -= w[rows] * gflat[nb]
        wrong_sign += int(np.count_nonzero(wrong))
        # mode "clip" takes straight into out, which "raise" would buffer
        np.take(vals, take, out=data[indptr[r0]:indptr[r1]], mode="clip")
        # free this block (the weights are views of it) and its pattern
        # before the next block's pattern is built
        del vals, stencil, w, take, hits
    A = sparse.csr_matrix((data, indices, indptr), shape=(len(rhs),) * 2)
    return A, rhs, wrong_sign, kept


def _lattice_pattern(grid):
    """(pattern, kept): the CSR pattern of grid, and whether it was kept
    from an earlier assembly.  A lattice of more than _BLOCK_ROWS interior
    nodes gets a new pattern whose blocks are built as they are consumed.
    A smaller one is one block, whose pattern is built once per process,
    under _LATTICE_LOCK, and kept on the grid as _pattern.  The kept
    indptr, indices and boundary hits are read-only, so an in-place scipy
    op on a matrix that shares them fails instead of changing another
    matrix; the take index is not, since np.take copies a read-only index
    on every call."""
    if np.count_nonzero(grid.interior) > _BLOCK_ROWS:
        return _pattern(grid), False
    with _LATTICE_LOCK:
        if grid._pattern is not None:
            return grid._pattern, True
        indptr, indices, slots, blocks = _pattern(grid)
        blocks = tuple(blocks)      # one block: consuming it fills indices
        hits = blocks[0][3]
        for arr in (indptr, indices, *(a for hit in hits if hit for a in hit)):
            arr.flags.writeable = False
        grid._pattern = indptr, indices, slots, blocks
        return grid._pattern, False


def _pattern(grid):
    """The CSR pattern of grid's interior system, which depends on the
    lattice alone: (indptr, indices, slots, blocks).  slots gives each
    stencil offset, in _difference_table order, its slot in a row: its
    rank in ascending flat offset.  blocks yields (r0, r1, take, hits) for
    the rows r0:r1 of each block of at most _BLOCK_ROWS: take indexes the
    entries of the block's (rows, slots) array whose neighbour is an
    unknown, and hits has one entry per offset, None or the block rows
    whose neighbour there is a boundary node and those neighbours' flat
    positions.  indices is filled as each block is consumed.

    indptr comes first, from the neighbour index alone, so indices (and
    the data of each assembly) are allocated at their exact nnz."""
    interior = grid.interior
    pos, strides = _positions(interior)
    nuk = pos.size
    index = np.full(interior.size, -1, dtype=np.int32)
    index[pos] = np.arange(nuk, dtype=np.int32)
    boundary = grid.boundary.ravel()
    # every offset of the stencil is a term of a second difference
    offsets = dict.fromkeys(off for *_, terms in _difference_table(grid.dim)
                            for off, _ in terms)
    flat = (np.array(list(offsets)) @ strides).tolist()
    slots = np.argsort(np.argsort(flat)).tolist()
    indptr = _indptr(index, pos, flat)
    indices = np.empty(indptr[-1], dtype=np.int32)

    def block(r0):
        r1 = min(r0 + _BLOCK_ROWS, nuk)
        p = pos[r0:r1]
        cols = np.empty((p.size, len(flat)), dtype=np.int32)
        hits = []
        for d, slot in zip(flat, slots):
            nb = p + d
            cols[:, slot] = index[nb]
            rows = np.flatnonzero(boundary[nb])
            hits.append((rows, nb[rows]) if rows.size else None)
        take = np.flatnonzero(cols >= 0)
        # mode "clip" takes straight into out, which "raise" would buffer
        np.take(cols, take, out=indices[indptr[r0]:indptr[r1]], mode="clip")
        return r0, r1, take, hits
    return indptr, indices, slots, map(block, range(0, nuk, _BLOCK_ROWS))


def _indptr(index, pos, flat):
    """CSR indptr of the rows at the flat positions pos: a row holds the
    offsets d of flat whose neighbour index[p + d] is an unknown (>= 0).
    Neighbours on the boundary (index -1) leave the matrix; explicit zero
    weights stay."""
    inside = index >= 0
    count = np.zeros(index.size, dtype=np.int32)
    for d in flat:
        # count[p] += inside[p + d], as one slice of the box per offset
        count[max(-d, 0):index.size - max(d, 0)] += (
            inside[max(d, 0):index.size - max(-d, 0)])
    indptr = np.zeros(pos.size + 1, dtype=np.int32)
    np.cumsum(count[pos], out=indptr[1:])
    return indptr


def lq_norm(f, q, mask=None):
    """(sum |v|^q h^n)^{1/q} over mask (default interior), midpoint rule."""
    if q < 1:
        raise ValueError("need q >= 1")
    grid = f.grid
    mask = grid.interior if mask is None else mask
    if not np.any(mask):
        return 0.0
    s = np.sum(np.abs(f.values[mask]) ** q) * grid.volume_weight()
    return float(s ** (1.0 / q))


def sup_inf_osc(f, mask=None):
    """Exact extrema over mask: (sup, inf, osc)."""
    mask = f.grid.interior if mask is None else mask
    if not np.any(mask):
        raise ValueError("empty mask")
    v = f.values[mask]
    sup, inf = float(v.max()), float(v.min())
    return sup, inf, sup - inf


def hessian_field(u):
    """(H, valid): the central-difference Hessian on the interior nodes one
    layer in (valid), one (n, n) matrix per node in row-major order, the
    layout of CoeffField.A.  Exactly symmetric by construction."""
    grid = u.grid
    n = grid.dim
    valid = interior_eroded(grid, 1)
    pos, strides = _positions(valid)
    H = np.empty((pos.size, n, n))
    for i, j, scale, terms in _difference_table(n):
        H[:, i, j] = H[:, j, i] = (
            _gather(u.values, pos, strides, terms) / (scale * grid.h ** 2))
    return H, valid


def interior_eroded(grid, layers):
    """Interior mask eroded by layers cube layers."""
    return _cube_morph(grid.interior, layers, grow=False)


def w22_seminorm(u, mask):
    """L^2 norm of the Frobenius norm of the discrete Hessian over mask."""
    grid = u.grid
    if not np.any(mask):
        raise ValueError("empty mask")
    allowed = interior_eroded(grid, 2)
    if np.any(mask & ~allowed):
        raise ValueError("mask must stay two layers inside the boundary")
    H, valid = hessian_field(u)
    frob2 = np.sum(H[mask[valid]] ** 2, axis=(-1, -2))
    return float(np.sqrt(np.sum(frob2) * grid.volume_weight()))
