"""The benchmark's workloads: inputs from a seed, timed steps, output checks.

Every workload is a list of operations built once during set-up and then
repeated in rounds.  An operation is a chain of named steps; each step is
timed on its own, and the operation's output checks run after its last
step, outside the timed spans.

The benchmark seed is the only input that varies:

* certify-jump / certify-wiener: the seed is the Monte Carlo master seed.
* solve-sweep / analysis-mix: a fixed catalogue of random instances (drawn
  from fixed generator seeds by the same recipe as the test helpers) with
  its state coordinates permuted and sign-flipped by the seed.  This is an
  exact symmetry of the steering problem, and the adaptive integrators'
  error norms do not see it, so every seed does the same numerical work and
  a run's timings do not depend on which instances the seed happened to
  draw.  (A general rotation does change the step counts: the n = 2
  analysis chain took from 1.6 s to 4.0 s across ten seeds.)
"""

import contextlib
import json
import os
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

import covsteer
from covsteer import cli
from covsteer.controllability import canonical_chain_pair
from covsteer.errors import CovsteerError
from covsteer.matfun import BoundaryData, MatrixPoly, SystemSpec, symmetrize

HERE = os.path.dirname(os.path.abspath(__file__))

# The first 16 draws of the instance recipe at generator seed 5, the stream
# the roadmap's hard instance (draw 3) comes from.  Draws 3, 6 and 13 do not
# converge within the deadline at the commit that added this benchmark: they
# form the ungated solve-hard workload, so that no gated operation fails.
SOLVE_GENERATOR_SEED = 5
SOLVE_DRAWS = 16
HARD_DRAWS = (3, 6, 13)
ANALYSIS_GENERATOR_SEED = 41
ANALYSIS_DIMS = (1, 2, 3)
MAXINT_WINDOW = (-0.5, 1.5)
CONSTRUCT_TARGET_RANGE = (0.5, 2.0)
RESIDUAL_TOL = 1e-8
SIGMA1_RTOL = 1e-6
ENDPOINT_TOL = 1e-6
COST_SE_LIMIT = 4.0
# About 4 standard errors of the terminal covariance's relative error at
# 1e5 paths; 3000 resamples of 1e5 out of 4e5 simulated jump paths never
# exceeded 0.148 (99th percentile 0.094).
COV_ERROR_LIMIT = 0.15


class DeadlineExceeded(Exception):
    """A step ran past its deadline."""


@dataclass
class Op:
    """One operation: named steps run in order, then the output checks.

    Each step is (kind, fn) with fn taking no arguments; check takes the
    steps' results and returns the names of the checks that failed.
    """

    name: str
    steps: list
    check: object
    deadline_s: float | None = None


@dataclass
class Workload:
    name: str
    primary: str  # step kind of the workload's headline operation
    ops: list
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Instance recipe (the test helpers' random_controllable_system and friends)
# ---------------------------------------------------------------------------

def _random_poly_matrix(rng, rows, cols, degree, scale=1.0):
    entries = [[list(scale * rng.uniform(-1.0, 1.0, size=degree + 1))
                for _ in range(cols)] for _ in range(rows)]
    return MatrixPoly.from_entries(entries)


def _random_spd(rng, n, shift=0.3):
    m = rng.standard_normal((n, n))
    return m @ m.T + shift * np.eye(n)


def _random_controllable_system(rng, n, degree=2):
    p = rng.integers(1, n + 1)
    for _ in range(200):
        a = _random_poly_matrix(rng, n, n, degree, scale=0.6)
        b = _random_poly_matrix(rng, n, p, min(degree, 1), scale=0.8)
        l_fac = _random_poly_matrix(rng, n, n, 1, scale=0.5)
        q_mat = l_fac @ l_fac.T
        q_ch = int(rng.integers(1, n + 1))
        alpha, beta = rng.uniform(0.2, 0.8, size=2)
        r_scalar = [0.4 + beta ** 2, 2 * alpha * beta, alpha ** 2]
        r = MatrixPoly.from_entries(
            [[r_scalar if i == j else [0.0] for j in range(p)] for i in range(p)])
        c = _random_poly_matrix(rng, n, q_ch, 1, scale=0.8)
        gd = rng.uniform(0.2, 0.9, size=q_ch)
        d = MatrixPoly.from_entries(
            [[[gd[i] ** 2] if i == j else [0.0] for j in range(q_ch)]
             for i in range(q_ch)])
        g1, g2 = rng.uniform(0.0, 0.5, size=2)
        nu = MatrixPoly.from_entries([[[g1 ** 2, 2 * g1 * g2, g2 ** 2]]])
        sys_ = SystemSpec(n=n, p=int(p), q=q_ch, A=a, B=b, C=c, D=d, nu=nu,
                          Q=q_mat, R=r)
        if covsteer.classify(sys_, grid_size=21,
                             probes_per_subinterval=3).totally_controllable:
            return sys_
    raise RuntimeError("failed to draw a totally controllable system")


def _random_admissible_pi0(rng, sys_, margin=0.3):
    b = covsteer.transition_blocks(sys_, 1.0, 0.0)
    upper = symmetrize(-np.linalg.solve(b.phi12, b.phi11))
    raw = rng.standard_normal((sys_.n, sys_.n))
    pi0 = symmetrize(raw + raw.T)
    overshoot = float(np.max(np.linalg.eigvalsh(pi0 - upper)))
    if overshoot > -margin:
        pi0 -= (overshoot + margin) * np.eye(sys_.n)
    return pi0


def _signed_permutation(rng, n):
    return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)


def _relabel_system(sys_, t):
    """The same system in the state coordinates x -> T x (T orthogonal)."""
    tc, tt = MatrixPoly.constant(t), MatrixPoly.constant(t.T)
    q_rot = tc @ sys_.Q @ tt
    return SystemSpec(n=sys_.n, p=sys_.p, q=sys_.q, A=tc @ sys_.A @ tt,
                      B=tc @ sys_.B, C=tc @ sys_.C, D=sys_.D, nu=sys_.nu,
                      Q=(q_rot + q_rot.T).scale(0.5), R=sys_.R)


def _relabel(mat, t):
    return symmetrize(t @ mat @ t.T)


# ---------------------------------------------------------------------------
# certify-jump / certify-wiener
# ---------------------------------------------------------------------------

def _read_json(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        return json.load(fh)


def _certify_workload(name, config_path, seed, out_root):
    cfg = cli.parse_config(config_path)
    cfg.options["seed"] = seed
    out = os.path.join(out_root, name)
    tol = float(cfg.options["newton_tol"])
    verdicts = []  # (covariance relative error, gate passed) per certify

    def certify():
        with contextlib.redirect_stdout(sys.stderr):
            return cli.run("certify", cfg, out)

    def check(results):
        # The program's verdict (its fixed 5% gate) is recorded, not
        # required: at 1e5 paths the relative standard error of the terminal
        # covariance is 3-4% (heavy tails from the multiplicative noise), so
        # the gate fails by Monte Carlo noise alone on roughly one seed in
        # ten.  COV_ERROR_LIMIT is the benchmark's own bound, wide enough for
        # that noise and narrow enough that a biased simulator fails it.
        cert = _read_json(out, "certify.json")
        cost = _read_json(out, "cost.json")
        sim = _read_json(out, "simulation.json")
        rel = cert["covariance_relative_error"]
        verdicts.append((rel, results[0] == cli.EXIT_OK))
        failed = []
        if not rel <= COV_ERROR_LIMIT:
            failed.append("covariance_within_limit")
        if not cost["residual"] <= tol:
            failed.append("newton_residual")
        mc_cost, half = sim["cost_estimate"]
        if not abs(mc_cost - cost["optimal_cost"]) <= COST_SE_LIMIT * half / 1.96:
            failed.append("mc_cost_within_4se")
        return failed

    return Workload(name=name, primary="certify",
                    ops=[Op("certify", [("certify", certify)], check)],
                    info={"paths": int(cfg.options["paths"]), "verdicts": verdicts})


# ---------------------------------------------------------------------------
# solve-sweep / solve-hard
# ---------------------------------------------------------------------------

def _solve_catalogue(seed, draws):
    """(index, system, boundary) for the given draws, relabelled by the seed."""
    gen = np.random.default_rng(SOLVE_GENERATOR_SEED)
    relabel_rng = np.random.default_rng(seed)
    out = []
    for i in range(max(draws) + 1):
        n = int(gen.integers(1, 4))
        sys_ = _random_controllable_system(gen, n)
        sigma0 = _random_spd(gen, n)
        sigma1 = _random_spd(gen, n, 1e-3) * 10 ** gen.uniform(-3, 2)
        if i in draws:
            t = _signed_permutation(relabel_rng, n)
            out.append((i, _relabel_system(sys_, t),
                        BoundaryData(sigma0=_relabel(sigma0, t),
                                     sigma1=_relabel(sigma1, t))))
    return out


def _solve_op(index, sys_, bd, deadline_s):
    def solve():
        # The `covsteer solve` pipeline without its file output.
        report = covsteer.validate_system(sys_)
        if not report.passed:
            raise CovsteerError("validation failed")
        if not covsteer.classify(sys_).totally_controllable:
            raise CovsteerError("system is not totally controllable")
        return covsteer.solve_boundary(sys_, bd, grid_size=1001, tol=RESIDUAL_TOL)

    def check(results):
        sol = results[0]
        failed = []
        if not sol.residual <= RESIDUAL_TOL:
            failed.append("newton_residual")
        end = sol.sigma_grid[-1][1]
        if not np.linalg.norm(end - bd.sigma1) <= SIGMA1_RTOL * np.linalg.norm(bd.sigma1):
            failed.append("sigma_grid_end")
        if not all(np.min(np.linalg.eigvalsh(s)) > 0.0 for _, s in sol.sigma_grid):
            failed.append("sigma_grid_pd")
        return failed

    return Op(f"solve-draw{index}-n{sys_.n}", [("solve", solve)], check,
              deadline_s=deadline_s)


def _solve_workload(name, seed, draws, deadline_s):
    ops = [_solve_op(i, s, bd, deadline_s) for i, s, bd in _solve_catalogue(seed, draws)]
    return Workload(name=name, primary="solve", ops=ops)


# ---------------------------------------------------------------------------
# analysis-mix
# ---------------------------------------------------------------------------

def _analysis_op(label, sys_, pi0):
    def existence():
        return covsteer.existence_check(sys_, 0.0, pi0)

    def maxint():
        return covsteer.maximal_interval(sys_, 0.0, pi0, MAXINT_WINDOW)

    def general():
        return covsteer.integrate_general(sys_, pi0)

    def check(results):
        verdict, mi, gen = results
        covers = mi.t0 <= 0.0 and mi.t1 >= 1.0
        failed = []
        if covers != verdict.exists:
            failed.append("maxint_matches_existence")
        if gen.exists != verdict.exists:
            failed.append("integrate_general_matches_existence")
        return failed

    return Op(label, [("existence", existence), ("maxint", maxint),
                      ("integrate_general", general)], check)


def _tanh_op():
    # pi' = pi^2 - 1 from pi(0) = 0 is -tanh(t): global to the right.
    one = MatrixPoly.constant([[1.0]])
    zero = MatrixPoly.constant([[0.0]])
    sys_ = SystemSpec(n=1, p=1, q=1, A=zero, B=one, C=one, D=one, nu=zero,
                      Q=one, R=one)

    def maxint():
        return covsteer.maximal_interval(sys_, 0.0, np.zeros((1, 1)), MAXINT_WINDOW)

    def check(results):
        return [] if results[0].t1_window_exceeded else ["tanh_window_exceeded"]

    # Its own step kind: maxint_p50_s covers the random instances only.
    return Op("maxint-tanh", [("maxint_tanh", maxint)], check)


def _construct_op(n, sigma1):
    a, b = canonical_chain_pair(n)
    bd = BoundaryData(sigma0=np.eye(n), sigma1=sigma1)
    m_poly = MatrixPoly.constant(np.eye(n))
    nu_poly = MatrixPoly.constant([[0.0]])

    def construct():
        return covsteer.construct_feasible_steering(a, b, bd, m_poly, nu_poly)

    def check(results):
        ok = max(results[0].endpoint_errors) <= ENDPOINT_TOL
        return [] if ok else ["construct_endpoints"]

    return Op(f"construct-n{n}", [("construct", construct)], check)


def _analysis_workload(seed):
    gen = np.random.default_rng(ANALYSIS_GENERATOR_SEED)
    relabel_rng = np.random.default_rng(seed)
    ops = []
    for n in ANALYSIS_DIMS:
        sys_ = _random_controllable_system(gen, n)
        pi0 = _random_admissible_pi0(gen, sys_)
        t = _signed_permutation(relabel_rng, n)
        ops.append(_analysis_op(f"analysis-n{n}", _relabel_system(sys_, t), _relabel(pi0, t)))
    ops.append(_tanh_op())
    for n in ANALYSIS_DIMS:
        # Drawn from the catalogue generator: construct time depends on the
        # targets (n = 3 took 1.2 s to 2.5 s over ten seed-drawn targets).
        ops.append(_construct_op(n, np.diag(gen.uniform(*CONSTRUCT_TARGET_RANGE, size=n))))
    return Workload(name="analysis-mix", primary="maxint", ops=ops)


# ---------------------------------------------------------------------------
# Registry and execution
# ---------------------------------------------------------------------------

NAMES = ("certify-jump", "certify-wiener", "solve-sweep", "analysis-mix", "solve-hard")


def build(name, seed, params, out_root):
    """Set-up: parse configs and generate the inputs of one workload."""
    deadline = float(params["solve_deadline_s"])
    if name == "certify-jump":
        return _certify_workload(name, cli.example_config_path(), seed, out_root)
    if name == "certify-wiener":
        return _certify_workload(name, os.path.join(HERE, "wiener_sec6.json"),
                                 seed, out_root)
    if name == "solve-sweep":
        draws = [i for i in range(SOLVE_DRAWS) if i not in HARD_DRAWS]
        return _solve_workload(name, seed, draws, deadline)
    if name == "solve-hard":
        return _solve_workload(name, seed, list(HARD_DRAWS), deadline)
    if name == "analysis-mix":
        return _analysis_workload(seed)
    raise ValueError(f"unknown workload {name!r}")


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(op, clock, tracer=None, op_id=None):
    """Run one operation; returns (step times, error or None, failed checks)."""
    times = []
    results = []
    error = None
    if tracer is not None:
        tracer.op = op_id
    if op.deadline_s is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    try:
        for kind, fn in op.steps:
            start = clock()
            try:
                results.append(fn())
            finally:
                times.append((kind, clock() - start))
    except (CovsteerError, DeadlineExceeded) as exc:
        error = type(exc).__name__
    finally:
        if op.deadline_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        if tracer is not None:
            tracer.close_open(clock())
            tracer.op = None
    if error:
        return times, error, []
    try:
        failed = op.check(results)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        failed = [f"check raised {type(exc).__name__}"]
    return times, error, failed

