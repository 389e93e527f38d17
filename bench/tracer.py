"""Spans and counters recorded around conelab's public functions.

The tracer never edits the package: `install` replaces module attributes
with wrappers, on the module where each caller looks the name up at call
time.  A wrapper returns and raises exactly what the wrapped call does.  A
hooked name missing from the package is skipped and listed in
`Tracer.missing`; the metrics that depend on it are then reported as null
("not measured"), never as 0.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
import threading
import time

import numpy as np

LAYERS = ("cli", "lab", "fd", "green", "symcone", "radial", "serialize")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "error")

    def __init__(self, sid, name, parent, thread, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = None
        self.error = False

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span store.  Spans carry name, start, end, parent span and
    thread; a per-thread stack supplies the parent."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.distinct_spectra = set()
        self.missing = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans and counters -------------------------------------------------

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def begin(self, name, parent=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1].id
        sp = Span(next(self._ids), name, parent, threading.get_ident(),
                  time.perf_counter())
        stack.append(sp)
        self.spans.append(sp)
        return sp

    def end(self, sp, error=False):
        sp.end = time.perf_counter()
        sp.error = error
        self._local.stack.pop()

    def call(self, name, fn, args, kwargs, parent=None):
        """fn(*args, **kwargs) inside a span; the span records a raise."""
        sp = self.begin(name, parent)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end(sp, error=True)
            raise
        self.end(sp)
        return result

    def add(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Traced version of fn.  before(args, kwargs) and after(result,
        args, kwargs) record counters.  A hook that fails marks the span
        name as missing instead of altering the call."""

        def hook(fn_, *a):
            try:
                fn_(*a)
            except Exception:
                self.missing.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                hook(after, result, args, kwargs)
            return result
        return traced

    def patch(self, module, attr, name, make=None, **hooks):
        """Replace module.attr by a traced wrapper; returns False (and
        records the hook as missing) when the attribute does not exist."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.add(name)
            return False
        setattr(module, attr,
                make(orig) if make else self.wrap(name, orig, **hooks))
        return True

    def install(self):
        """Wrap the public functions of cli, lab, fd, green, symcone, radial
        and serialize where their callers resolve them."""
        from conelab import cli, fd, green, lab, radial, serialize, symcone

        # fd: the solver and its two linear-algebra paths
        self.patch(fd, "solve_dirichlet", "fd.solve_dirichlet",
                   before=self._count_unknowns)
        self.patch(fd, "spsolve", "fd.spsolve")
        self.patch(fd, "bicgstab", "fd.bicgstab", make=self._wrap_bicgstab)
        self.patch(fd, "build_grid", "fd.build_grid")
        self.patch(fd, "boundary_field", "fd.boundary_field")
        self.patch(fd, "w22_seminorm", "fd.w22_seminorm")
        # green binds hessian_field at import: patch both names
        if (self.patch(fd, "hessian_field", "fd.hessian_field")
                and hasattr(green, "hessian_field")):
            green.hessian_field = fd.hessian_field

        # green: contact set, rho* field and the bound report
        self.patch(green, "contact_mask", "green.contact_mask",
                   after=self._count_contact)
        self.patch(green, "rho_star_field", "green.rho_star_field",
                   before=self._count_rho_nodes)
        self.patch(green, "bound_report_for", "green.bound_report_for")

        # symcone: the dual gauge and its sampling oracle
        self.patch(symcone, "rho_star", "symcone.rho_star",
                   before=self._count_spectrum)
        self.patch(symcone, "rho_star_oracle", "symcone.rho_star_oracle")

        # radial: quadrature, with integrand evaluations counted
        self.patch(radial, "radial_lq_norm", "radial.radial_lq_norm")
        self.patch(radial, "quad", "radial.quad", make=self._wrap_quad)

        # serialize: every file writer, with the bytes it left on disk
        for fn, pos in (("field_to_csv", 1), ("field_to_binary", 1),
                        ("mask_to_csv", 2), ("write_plot_csv", 0),
                        ("report_to_json", 1)):
            self.patch(serialize, fn, f"serialize.{fn}",
                       after=self._bytes_after(pos))

        # cli and lab: entry point, experiments, the suite pool, reports
        self.patch(cli, "main", "cli.main")
        self.patch(lab, "run_one", "lab.run_one")
        self.patch(lab, "run_suite", "lab.run_suite")
        self.patch(lab, "write_report", "lab.write_report")
        self.patch(lab, "rhs_field", "lab.rhs_field")
        self.patch(lab, "coeff_builder", "lab.coeff_builder",
                   make=self._wrap_coeff_builder)
        self.patch(lab, "ThreadPoolExecutor", "lab.ThreadPoolExecutor",
                   make=self._pool_class)

    # -- counter hooks ------------------------------------------------------

    def _count_unknowns(self, args, kwargs):
        f = args[1] if len(args) > 1 else kwargs["f"]
        self.add("fd.unknowns", int(np.count_nonzero(f.grid.interior)))

    def _count_contact(self, result, args, kwargs):
        self.add("green.contact_nodes", int(np.count_nonzero(result.mask)))

    def _count_rho_nodes(self, args, kwargs):
        mask = args[2] if len(args) > 2 else kwargs["mask"]
        self.add("green.rho_star_nodes", int(np.count_nonzero(mask)))

    def _count_spectrum(self, args, kwargs):
        lam = args[0] if args else kwargs["lam"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        key = (int(k), tuple(np.round(np.sort(np.asarray(lam, float)), 12)))
        with self._lock:
            self.distinct_spectra.add(key)

    def _bytes_after(self, pos):
        def after(result, args, kwargs):
            path = args[pos] if len(args) > pos else kwargs["path"]
            self.add("serialize.bytes_written", os.path.getsize(path))
        return after

    # -- wrappers with their own shape --------------------------------------

    def _wrap_bicgstab(self, orig):
        """Counts iterations through bicgstab's per-iteration callback."""
        def count(user_cb):
            def cb(xk):
                self.add("fd.iterations")
                if user_cb is not None:
                    user_cb(xk)
            return cb

        @functools.wraps(orig)
        def bicgstab(*args, **kwargs):
            kwargs["callback"] = count(kwargs.get("callback"))
            return self.call("fd.bicgstab", orig, args, kwargs)
        return bicgstab

    def _wrap_quad(self, orig):
        """Counts integrand evaluations; adds no span of its own."""
        @functools.wraps(orig)
        def quad(func, *args, **kwargs):
            evals = [0]

            def counted(*a):
                evals[0] += 1
                return func(*a)
            try:
                return orig(counted, *args, **kwargs)
            finally:
                self.add("radial.integrand_evals", evals[0])
        return quad

    def _wrap_coeff_builder(self, orig):
        """coeff_builder returns a builder; the span is on building."""
        @functools.wraps(orig)
        def coeff_builder(*args, **kwargs):
            return self.wrap("fd.coeff", orig(*args, **kwargs))
        return coeff_builder

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Records each job's wait from submit to start, and parents
            the worker's spans on the submitting span."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                with tracer._lock:
                    tracer.counts["lab.workers"] = max(
                        tracer.counts["lab.workers"], self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                t_submit = time.perf_counter()
                parent = tracer.current()

                def job(*a, **kw):
                    tracer.add("lab.exp_wait_s",
                               time.perf_counter() - t_submit)
                    return tracer.call("lab.worker", fn, a, kw,
                                       parent.id if parent else None)
                return super().submit(job, *args, **kwargs)
        return TracedPool


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    that the union of its child spans covers (children may run on other
    threads and overlap one another)."""
    children = collections.defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for lo, hi in sorted(children.get(sp.id, ())):
            lo, hi = max(lo, cursor), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


class _Agg:
    """Totals over one pass's spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.by_name = collections.defaultdict(list)
        for sp in tracer.spans:
            self.by_name[sp.name].append(sp)
        self.self_t = self_times(tracer.spans)

    def total(self, *names):
        return sum(sp.duration for n in names for sp in self.by_name[n])

    def calls(self, name):
        return len(self.by_name[name])

    def errors(self, name):
        return sum(sp.error for sp in self.by_name[name])

    def self_of(self, prefix):
        return sum(self.self_t[sp.id] for sp in self.tracer.spans
                   if sp.name.startswith(prefix))

    def count(self, name):
        return self.tracer.counts[name]


def _ratio(num, den, scale=1.0):
    # a layer that did no work reports 0; its call count says so
    return scale * num / den if den else 0.0


_WRITERS = tuple(f"serialize.{fn}" for fn in (
    "field_to_csv", "field_to_binary", "mask_to_csv", "write_plot_csv",
    "report_to_json"))

# name, unit, better, hooks it needs, value from one pass
PASS_METRICS = [
    ("fd.solve_s", "s", "lower", ("fd.solve_dirichlet",),
     lambda a: a.total("fd.solve_dirichlet")),
    ("fd.solve_calls", "count", "lower", ("fd.solve_dirichlet",),
     lambda a: a.calls("fd.solve_dirichlet")),
    ("fd.unknowns", "count", "lower", ("fd.solve_dirichlet",),
     lambda a: a.count("fd.unknowns")),
    ("fd.unknowns_per_s", "1/s", "higher", ("fd.solve_dirichlet",),
     lambda a: _ratio(a.count("fd.unknowns"),
                      a.total("fd.solve_dirichlet"))),
    ("fd.direct_solves", "count", "lower", ("fd.spsolve",),
     lambda a: a.calls("fd.spsolve")),
    ("fd.iter_solves", "count", "lower", ("fd.bicgstab",),
     lambda a: a.calls("fd.bicgstab")),
    ("fd.iterations", "count", "lower", ("fd.bicgstab",),
     lambda a: a.count("fd.iterations")),
    ("fd.solve_errors", "count", "lower", ("fd.solve_dirichlet",),
     lambda a: a.errors("fd.solve_dirichlet")),
    ("fd.nonmonotone_solves", "count", "lower", ("fd.solve_dirichlet",),
     lambda a: a.count("fd.nonmonotone_solves")),
    ("fd.build_grid_s", "s", "lower", ("fd.build_grid",),
     lambda a: a.total("fd.build_grid")),
    ("fd.coeff_s", "s", "lower", ("lab.coeff_builder",),
     lambda a: a.total("fd.coeff")),
    ("fd.hessian_s", "s", "lower", ("fd.hessian_field",),
     lambda a: a.total("fd.hessian_field")),
    ("green.contact_mask_s", "s", "lower", ("green.contact_mask",),
     lambda a: a.total("green.contact_mask")),
    ("green.contact_nodes", "count", "lower", ("green.contact_mask",),
     lambda a: a.count("green.contact_nodes")),
    ("green.rho_star_field_s", "s", "lower", ("green.rho_star_field",),
     lambda a: a.total("green.rho_star_field")),
    ("green.rho_star_nodes", "count", "lower", ("green.rho_star_field",),
     lambda a: a.count("green.rho_star_nodes")),
    ("green.bound_report_s", "s", "lower", ("green.bound_report_for",),
     lambda a: a.self_of("green.bound_report_for")),
    ("symcone.rho_star_s", "s", "lower", ("symcone.rho_star",),
     lambda a: a.total("symcone.rho_star")),
    ("symcone.rho_star_calls", "count", "lower", ("symcone.rho_star",),
     lambda a: a.calls("symcone.rho_star")),
    ("symcone.rho_star_ms", "ms", "lower", ("symcone.rho_star",),
     lambda a: _ratio(a.total("symcone.rho_star"),
                      a.calls("symcone.rho_star"), 1e3)),
    ("symcone.rho_star_distinct_frac", "ratio", "higher",
     ("symcone.rho_star",),
     lambda a: _ratio(len(a.tracer.distinct_spectra),
                      a.calls("symcone.rho_star"))),
    ("symcone.errors", "count", "lower", ("symcone.rho_star",),
     lambda a: a.errors("symcone.rho_star")),
    ("radial.lq_norm_s", "s", "lower", ("radial.radial_lq_norm",),
     lambda a: a.total("radial.radial_lq_norm")),
    ("radial.lq_norm_calls", "count", "lower", ("radial.radial_lq_norm",),
     lambda a: a.calls("radial.radial_lq_norm")),
    ("radial.integrand_evals", "count", "lower", ("radial.quad",),
     lambda a: a.count("radial.integrand_evals")),
    ("serialize.write_s", "s", "lower", _WRITERS,
     lambda a: a.total(*_WRITERS)),
    ("serialize.bytes_written", "bytes", "lower", _WRITERS,
     lambda a: a.count("serialize.bytes_written")),
    ("lab.run_one_s", "s", "lower", ("lab.run_one",),
     lambda a: a.total("lab.run_one")),
    ("lab.exp_wait_s", "s", "lower", ("lab.ThreadPoolExecutor",),
     lambda a: a.count("lab.exp_wait_s")),
    ("lab.experiments", "count", "higher", ("lab.run_one",),
     lambda a: a.calls("lab.run_one")),
    ("lab.workers", "count", "higher", ("lab.ThreadPoolExecutor",),
     lambda a: a.count("lab.workers")),
] + [
    (f"{layer}.self_s", "s", "lower", (),
     lambda a, p=f"{layer}.": a.self_of(p)) for layer in LAYERS
] + [
    ("bench.self_s", "s", "lower", (), lambda a: a.self_of("bench.")),
]

# counts that two traced passes of one seed must reproduce exactly
EXACT_COUNTS = ("fd.unknowns", "fd.solve_calls", "symcone.rho_star_calls",
                "symcone.rho_star_distinct_frac", "radial.integrand_evals",
                "green.contact_nodes", "serialize.bytes_written")


def pass_metrics(tracer, nonmonotone):
    """Per-layer metrics of one traced pass; None where a hook is missing.
    Also the self time of every span name, for the breakdown.

    nonmonotone is the number of MonotonicityWarnings the pass caught."""
    tracer.counts["fd.nonmonotone_solves"] = nonmonotone
    agg = _Agg(tracer)
    out = {name: (None if tracer.missing.intersection(needs) else fn(agg))
           for name, _unit, _better, needs, fn in PASS_METRICS}
    self_by_span = collections.Counter()
    for sp in tracer.spans:
        self_by_span[sp.name] += agg.self_t[sp.id]
    return {"metrics": out, "self_by_span": dict(self_by_span),
            "missing": sorted(tracer.missing)}
