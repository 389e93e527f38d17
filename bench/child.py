"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC holds the steps (see workloads.py), the output directory and whether to
trace.  The child imports conelab.cli, reads the spec, stamps "ready", runs
the steps through the public entry points and writes RESULT.  The stamp is
time.monotonic(), which the parent shares, so the parent can measure set-up
from the moment it spawned the child.
"""

import io
import json
import resource
import sys
import time
import warnings
from contextlib import redirect_stdout

import numpy as np

from conelab import cli, fd, symcone


def run_step(step, out_dir):
    """Outcome of one step; a raised exception is recorded as a crash."""
    t0 = time.perf_counter()
    try:
        if step["kind"] == "cli":
            argv = step["argv"] + ["--out", f"{out_dir}/{step['out']}"]
            buf = io.StringIO()
            with redirect_stdout(buf):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            res = {"code": code}
            if step["argv"][0] == "suite":
                res["exp_wall"] = [r["wall_time"] for r in
                                   json.loads(buf.getvalue())["reports"]]
        else:
            res = {"value": symcone.rho_star(np.asarray(step["lam"]),
                                             step["k"])}
    except Exception as exc:    # a crash is an outcome of the pass
        res = {"error": f"{type(exc).__name__}: {exc}"}
    res["seconds"] = time.perf_counter() - t0
    return res


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, pass_metrics
        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", fd.MonotonicityWarning)
        root = tracer.begin("bench.pass") if tracer else None
        t0 = time.perf_counter()
        results = [run_step(step, spec["out"]) for step in spec["steps"]]
        wall = time.perf_counter() - t0
        if tracer:
            tracer.end(root)
    out = {"t_ready": t_ready, "wall_s": wall, "steps": results,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        nonmono = sum(issubclass(w.category, fd.MonotonicityWarning)
                      for w in caught)
        out["layers"] = pass_metrics(tracer, nonmono)
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
