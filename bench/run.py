"""conelab benchmark: one workload, closed loop, one pass per fresh child.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Passes run one after another (one client; the next starts when the previous
child has exited) until S seconds have gone by.  Every pass is checked for
correctness.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
detail object with quartiles, sample counts, the self-time breakdown and the
environment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

# the program's own concurrency, pinned on every commit measured
PINNED_ENV = {"CONELAB_WORKERS": "2", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0     # a run must end within 180 s, set-up included
MIN_PASSES = {False: 3, True: 4}    # traced runs alternate traced/untraced

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("exp_latency_p50_s", "s"), ("peak_rss_mb", "MB")]


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def summary(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"median": statistics.median(vals), "q1": q[0], "q3": q[2],
            "n": len(vals)}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "conelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy
    env = {"nproc": os.cpu_count(), "seed": seed,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "git_commit": git_commit(),
           "src_sha256": source_digest()}
    env.update(PINNED_ENV)
    return env


class Runner:
    def __init__(self, workload, work_dir, trace, deadline):
        self.wl = workload
        self.deadline = deadline
        self.work = work_dir
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        PYTHONDONTWRITEBYTECODE="1", **PINNED_ENV)
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.self_check_ok = True

    def run_pass(self, i, traced):
        out_dir = os.path.join(self.work, f"pass{i}")
        os.makedirs(out_dir)
        spec = os.path.join(self.work, "spec.json")
        result = os.path.join(self.work, "result.json")
        errlog = os.path.join(self.work, "child.err")
        with open(spec, "w") as fh:
            json.dump({"trace": traced, "out": out_dir,
                       "steps": self.wl.steps}, fh)
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(errlog, "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH, "child.py"), spec,
                 result], env=self.env, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(self.deadline - t_spawn, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail(f"pass {i} did not end within the {RUN_LIMIT_S:.0f} s "
                     "run limit")
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if code != 0:
            with open(errlog) as fh:
                tail = fh.read()[-2000:]
            fail(f"pass {i}: child exited with {code}\n{tail}")
        with open(result) as fh:
            res = json.load(fh)
        attempted, failed, problems = self.wl.check(res["steps"], out_dir)
        shutil.rmtree(out_dir)
        self.attempted += attempted
        self.failed += failed
        lat = []
        for step, out in zip(self.wl.steps, res["steps"]):
            if "error" in out:
                what = " ".join(step.get("argv", [step["kind"]]))
                self.problems.append(f"pass {i}: {what} raised "
                                     f"{out['error']}")
            if "exp_wall" in out:
                lat += out["exp_wall"]
            elif step["kind"] == "cli" and step["argv"][0] == "exp":
                lat.append(out["seconds"])
        self.problems += problems
        self.passes.append({
            "traced": traced,
            "setup_s": res["t_ready"] - t_spawn,
            "wall_s": res["wall_s"],
            "cpu_s": (ru1.ru_utime + ru1.ru_stime
                      - ru0.ru_utime - ru0.ru_stime),
            "exp_latency_p50_s": statistics.median(lat) if lat else None,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "layers": res.get("layers")})

    def run(self, seconds):
        start = time.monotonic()
        i = 0
        while i < MIN_PASSES[self.trace] or time.monotonic() - start < seconds:
            self.run_pass(i, traced=self.trace and i % 2 == 0)
            i += 1


def end_to_end(passes):
    return {name: summary([p[name] for p in passes])
            for name, _unit in END_TO_END}


def per_layer(runner, oracle_s):
    from tracer import EXACT_COUNTS, PASS_METRICS
    traced = [p for p in runner.passes if p["traced"]]
    plain = [p for p in runner.passes if not p["traced"]]
    out = {}
    for name, *_ in PASS_METRICS:
        out[name] = summary([p["layers"]["metrics"][name] for p in traced])
    out["symcone.oracle_s"] = summary([oracle_s])
    t_wall = summary([p["wall_s"] for p in traced])
    out["trace.wall_s"] = t_wall
    out["trace.overhead_s"] = summary(
        [t_wall["median"] - statistics.median(p["wall_s"] for p in plain)])
    for name in EXACT_COUNTS:
        seen = {p["layers"]["metrics"][name] for p in traced}
        if len(seen) > 1:
            runner.problems.append(
                f"self-check: {name} differs between traced passes: "
                f"{sorted(seen, key=str)}")
            runner.self_check_ok = False
    spans = {}
    for p in traced:
        for name, v in p["layers"]["self_by_span"].items():
            spans.setdefault(name, []).append(v)
    self_by_span = dict(sorted(
        ((k, statistics.median(v)) for k, v in spans.items()),
        key=lambda kv: -kv[1]))
    missing = sorted({m for p in traced for m in p["layers"]["missing"]})
    return out, self_by_span, missing


def per_layer_units():
    from tracer import PASS_METRICS
    units = {name: unit for name, unit, *_ in PASS_METRICS}
    units.update({"symcone.oracle_s": "s", "trace.wall_s": "s",
                  "trace.overhead_s": "s"})
    return units


def main(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    trace = bool(args.trace)
    deadline = time.monotonic() + RUN_LIMIT_S

    import conelab
    if os.path.dirname(os.path.abspath(conelab.__file__)) != os.path.join(
            SRC, "conelab"):
        fail(f"imported conelab from {conelab.__file__}, not from {SRC}")

    import compileall
    compileall.compile_dir(SRC, quiet=2)
    compileall.compile_dir(BENCH, quiet=2, maxlevels=0)

    work = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "inputs"))
    try:
        wl = WORKLOADS[args.workload](args.seed, os.path.join(work,
                                                              "inputs"))
        t0 = time.perf_counter()
        wl.prepare()
        oracle_s = time.perf_counter() - t0
        runner = Runner(wl, work, trace, deadline)
        runner.run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    detail = {"workload": args.workload, "trace": trace,
              "passes": len(runner.passes),
              "environment": environment(args.seed)}
    if trace:
        stats, self_by_span, missing = per_layer(runner, oracle_s)
        units = per_layer_units()
        detail.update(self_by_span=self_by_span, missing_hooks=missing)
    else:
        stats = end_to_end(runner.passes)
        units = dict(END_TO_END)
    detail["fail_frac"] = runner.failed / max(runner.attempted, 1)
    detail["problems"] = runner.problems[:20]
    detail["metrics"] = stats
    for msg in runner.problems[:20]:
        print(f"bench: {msg}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": (runner.failed == 0 and runner.attempted > 0
                    and runner.self_check_ok),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]}
                    for name, s in stats.items()}}))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "conelab", "cli.py")):
        fail(f"no conelab sources under {SRC}; run from a full checkout")
    for key, val in PINNED_ENV.items():
        os.environ[key] = val       # before numpy loads its BLAS
    sys.path.insert(0, SRC)
    sys.exit(main())
