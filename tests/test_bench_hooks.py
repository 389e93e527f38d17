"""The benchmark tracer (bench/tracer.py) finds every name it hooks in the
package; a hooked name that is gone makes its metrics null."""

import json
import os
import pathlib
import subprocess
import sys

import conelab

SRC = pathlib.Path(conelab.__file__).resolve().parents[1]
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# install() patches the package's modules, so it runs in a child
# interpreter and nothing leaks into the other tests
INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
import conelab.cli
tracer = Tracer()
tracer.install()
wrapped = {}
# green binds hessian_field at import: fd.hessian_s needs both wrapped
for name in ("fd.hessian_field", "green.hessian_field",
             "green.rho_star_field", "green.bound_report_for",
             "lab.coeff_builder", "symcone.rho_star"):
    module, attr = name.split(".")
    fn = getattr(getattr(conelab, module), attr, None)
    wrapped[name] = hasattr(fn, "__wrapped__")
print(json.dumps({"missing": sorted(tracer.missing), "wrapped": wrapped}))
"""


def test_every_benchmark_hook_exists():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", INSTALL, str(BENCH)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["missing"] == []
    assert all(got["wrapped"].values()), got["wrapped"]
