"""The benchmark tracer (perfbench/tracer.py) still finds its entry points.

Tracer.install() rebinds the public functions and methods it wraps, so a
refactor that drops or moves one of them, or changes what the tracer reads
off a result (the Jacobian workspace's nodes), breaks every traced
benchmark run.  A solve that stopped calling a traced read-out through its
module global would zero that read-out's per-layer time on solve-sweep, so
the solve's child spans are checked too.  A system keeps its horizon path
for its lifetime, so the solve runs on a freshly built system to build and
read a path of its own, and a second solve of it builds none.
The check runs in a fresh interpreter because the rebinding lasts for the
rest of the process.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import numpy as np
from tracer import Tracer

tracer = Tracer()
tracer.install()

import covsteer
from covsteer.controllability import canonical_chain_pair
from covsteer.matfun import BoundaryData, MatrixPoly, SystemSpec

one, zero = MatrixPoly.constant([[1.0]]), MatrixPoly.constant([[0.0]])
sys_ = SystemSpec(n=1, p=1, q=1, A=zero, B=one, C=one, D=one, nu=zero, Q=zero, R=one)
covsteer.validate_system(sys_)
covsteer.classify(sys_)
a2, b2 = canonical_chain_pair(2)
covsteer.construct_feasible_steering(
    a2, b2, BoundaryData(sigma0=np.eye(2), sigma1=np.diag([2.0, 1.0])),
    MatrixPoly.constant(np.eye(2)), zero)
covsteer.maximal_interval(sys_, 0.0, np.zeros((1, 1)), (-0.5, 1.5))
covsteer.integrate_general(sys_, np.zeros((1, 1)), grid_size=11)
assert covsteer.existence_check(sys_, 0.0, np.zeros((1, 1))).exists
covsteer.solve_closed_form(sys_, 0.0, np.zeros((1, 1)), 0.5)
covsteer.transition_blocks(sys_, 1.0, 0.0)
covsteer.map_f(sys_, [[1.0]], [[0.0]])  # solve_boundary itself calls no map_f
counts = tracer.counts["setup"]
before = counts.copy()
# New polynomial objects: a dataclasses.replace copy of sys_ compares equal
# and would share sys_'s path.
one, zero = MatrixPoly.constant([[1.0]]), MatrixPoly.constant([[0.0]])
fresh = SystemSpec(n=1, p=1, q=1, A=zero, B=one, C=one, D=one, nu=zero, Q=zero, R=one)
target = BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]])
covsteer.solve_boundary(fresh, target, grid_size=11)
names = {span[0] for span in tracer.spans}
want = {"riccati.existence", "transition.path_build", "riccati.closed_form",
        "transition.direct", "steering.solve", "steering.jacobian", "steering.map_f",
        "steering.propagate", "steering.cost", "steering.gain_grid",
        "matfun.validate", "controllability.classify", "controllability.construct",
        "riccati.maxint", "riccati.integrate_general"}
assert want <= names, sorted(names)
# solve_boundary itself calls each read-out through its module global, so
# the solve's own spans carry them, not only the standalone calls above.
spans = tracer.spans
in_solve = {s[0] for s in spans if s[3] >= 0 and spans[s[3]][0] == "steering.solve"}
for name in ("steering.jacobian", "steering.propagate", "steering.cost",
             "steering.gain_grid", "riccati.closed_form"):
    assert name in in_solve, (name, sorted(in_solve))
# The solve's own path builds and reads are counted, not only the earlier calls.
for name in ("transition.rhs_evals", "transition.phi_evals"):
    assert counts[name] > before[name], (name, before, counts)
assert counts["steering.jacobian_nodes"] > 0, counts
# A repeat solve of the same system reads the path its first solve built.
builds = sum(span[0] == "transition.path_build" for span in tracer.spans)
covsteer.solve_boundary(fresh, target, grid_size=11)
assert sum(span[0] == "transition.path_build" for span in tracer.spans) == builds
"""


def test_tracer_installs_and_records_spans():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
