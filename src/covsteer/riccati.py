"""Existence, closed form, and forward integration of the Riccati equation.

The quadratic matrix equation for the costate weight is never stepped
blindly: on the simplified (state-dependent noise) model its solution is
evaluated in closed form from the Hamiltonian transition blocks, its
existence is decided by an eigenvalue sandwich against the block bounds,
and its maximal interval of existence is located by bisection on the
critical eigenvalue crossing.  Only the general multiplicative-channel
equation, for which no existence theory is available, is forward
integrated with blow-up detection.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import RiccatiNonexistenceError, SingularTransitionError
from .matfun import SystemSpec, symmetrize
from .transition import (
    COND_LIMIT,
    TransitionPath,
    bounds_on_grid,
    pi_bounds,
    transition_blocks,
)

BLOWUP_NORM = 1e12
BISECTION_TOL = 1e-6


@dataclass(frozen=True)
class ExistenceVerdict:
    """Sandwich margins at the anchor; positive margins mean strictly inside."""

    exists: bool
    upper_margin: float  # lambda_min(upper(s) - Pi_s), +inf when s = 1
    lower_margin: float  # lambda_min(Pi_s - lower(s)), +inf when s = 0


def existence_check(sys: SystemSpec, s: float, pi_s: np.ndarray) -> ExistenceVerdict:
    """Decide global existence on [0, 1] from the anchored value Pi(s)."""
    pi_s = symmetrize(np.asarray(pi_s, dtype=float))
    lower, upper = pi_bounds(sys, s)
    upper_margin = lower_margin = math.inf
    if upper.is_finite:
        upper_margin = float(np.min(np.linalg.eigvalsh(upper.matrix - pi_s)))
    if lower.is_finite:
        lower_margin = float(np.min(np.linalg.eigvalsh(pi_s - lower.matrix)))
    return ExistenceVerdict(exists=upper_margin > 0.0 and lower_margin > 0.0,
                            upper_margin=upper_margin, lower_margin=lower_margin)


def _growth_inverse(phi11, phi12, pi_s):
    """Inverse of phi11 + phi12 Pi_s with a cancellation-aware singularity test.

    A plain condition number misses the blow-up (the factor can be tiny in
    every direction), so the smallest singular value is measured against
    the magnitude of the terms that cancel.  On (k, n, n) stacks each
    matrix is tested, and the first singular one raises.
    """
    growth = phi11 + phi12 @ pi_s
    scale = np.linalg.norm(phi11, axis=(-2, -1)) + np.linalg.norm(phi12 @ pi_s, axis=(-2, -1))
    smin = np.linalg.svd(growth, compute_uv=False)[..., -1]
    bad = np.flatnonzero(smin <= np.maximum(scale, 1.0) / 1e12)
    if bad.size:
        raise RiccatiNonexistenceError(
            f"phi11 + phi12 Pi_s numerically singular (sigma_min="
            f"{np.ravel(smin)[bad[0]]:.3e}, scale={np.ravel(scale)[bad[0]]:.3e})")
    return np.linalg.inv(growth)


def solve_closed_form(sys: SystemSpec, s: float, pi_s: np.ndarray,
                      t: float) -> np.ndarray:
    """Pi(t) = (phi21 + phi22 Pi_s)(phi11 + phi12 Pi_s)^-1, symmetrized."""
    pi_s = symmetrize(np.asarray(pi_s, dtype=float))
    if t == s:
        return pi_s.copy()
    b = transition_blocks(sys, t, s)
    inv = _growth_inverse(b.phi11, b.phi12, pi_s)
    return symmetrize((b.phi21 + b.phi22 @ pi_s) @ inv)


def closed_form_on_path(path: TransitionPath, pi_anchor: np.ndarray, t) -> np.ndarray:
    """Closed-form Pi(t) on a dense path anchored at Pi_anchor's time; stacked for k times."""
    p11, p12, p21, p22 = path.raw_blocks(t)
    inv = _growth_inverse(p11, p12, pi_anchor)
    return symmetrize((p21 + p22 @ pi_anchor) @ inv)


@dataclass(frozen=True)
class MaximalInterval:
    """Endpoints of the maximal existence interval, clamped to the window."""

    t0: float
    t1: float
    t0_window_exceeded: bool
    t1_window_exceeded: bool


def _inside_margins(path, pi_s, ts, side):
    """Margins of the critical eigenvalue at the times ts; positive means inside."""
    p11, p12, _, _ = path.raw_blocks(ts)
    # Asymptote region next to the anchor: the bound is unbounded there.
    margins = np.full(len(ts), math.inf)
    ok = np.linalg.cond(p12) <= COND_LIMIT  # False for NaN as well
    if ok.any():
        bound = symmetrize(-np.linalg.solve(p12[ok], p11[ok]))
        inside = bound - pi_s if side == "upper" else pi_s - bound  # upper: t > s
        margins[ok] = np.linalg.eigvalsh(inside)[:, 0]
    return margins


def _locate_crossing(path, pi_s, limit, side, scan_points=64):
    """Scan toward the window edge, then bisect the first sign change."""
    ts = np.linspace(path.anchor, limit, scan_points + 1)
    crossed = np.flatnonzero(_inside_margins(path, pi_s, ts[1:], side) <= 0.0)
    if not crossed.size:
        return limit, True
    lo, hi = ts[crossed[0]], ts[crossed[0] + 1]
    while abs(hi - lo) > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _inside_margins(path, pi_s, np.array([mid]), side)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


def maximal_interval(sys: SystemSpec, s: float, pi_s: np.ndarray,
                     search_window: tuple) -> MaximalInterval:
    """Locate the maximal interval of existence by eigenvalue bisection.

    The interval endpoints are where the moving bound -phi12(t,s)^-1
    phi11(t,s) crosses Pi_s in the critical eigenvalue; ends outside the
    search window are clamped and flagged, never extrapolated.  All probes
    read one transition path anchored at s over the window.
    """
    pi_s = symmetrize(np.asarray(pi_s, dtype=float))
    tmin, tmax = search_window
    if tmin > s or tmax < s:
        raise ValueError("search window must contain the anchor time")
    path = TransitionPath(sys, anchor=s, span=(tmin, tmax))
    t1, t1_exceeded = _locate_crossing(path, pi_s, tmax, "upper")
    t0, t0_exceeded = _locate_crossing(path, pi_s, tmin, "lower")
    return MaximalInterval(t0=t0, t1=t1, t0_window_exceeded=t0_exceeded,
                           t1_window_exceeded=t1_exceeded)


@dataclass(frozen=True)
class RiccatiSolution:
    """Forward-integrated solution with per-grid-time existence bounds."""

    anchor_time: float
    anchor_value: np.ndarray
    grid: tuple  # ((t, Pi(t)), ...)
    exists: bool
    escape_time: float | None
    bounds: tuple | None  # per grid time (lower, upper) PiBound pairs


def _general_rhs(sys: SystemSpec):
    n = sys.n
    channels = [(e, nu) for e, nu in sys.general_channels]

    def rhs(t, y):
        pi = symmetrize(y.reshape(n, n))
        a = sys.A.eval(t)
        b = sys.B.eval(t)
        q = sys.Q.eval(t)
        r = sys.R.eval(t)
        nu = float(sys.nu.eval(t)[0, 0])
        brb = b @ np.linalg.solve(r, b.T)
        dpi = -a.T @ pi - pi @ a + pi @ brb @ pi - q - 2.0 * nu * pi
        for e_mp, nu_mp in channels:
            e = e_mp.eval(t)
            dpi -= 2.0 * float(nu_mp.eval(t)[0, 0]) * (e.T @ pi @ e)
        return symmetrize(dpi).reshape(-1)

    return rhs


def integrate_general(sys: SystemSpec, pi_0: np.ndarray,
                      grid_size: int = 101) -> RiccatiSolution:
    """Forward integrate the general-channel Riccati equation from t = 0.

    Blow-up (norm above 1e12 or solver failure) is a reported outcome:
    exists=False with the escape time, never an exception.
    """
    n = sys.n
    pi_0 = symmetrize(np.asarray(pi_0, dtype=float))
    times = np.linspace(0.0, 1.0, grid_size)

    def blow_up(t, y):
        return float(np.max(np.abs(y))) - BLOWUP_NORM

    blow_up.terminal = True
    blow_up.direction = 1.0

    sol = solve_ivp(_general_rhs(sys), (0.0, 1.0), pi_0.reshape(-1),
                    method="RK45", rtol=1e-10, atol=1e-12, t_eval=times,
                    events=blow_up, dense_output=True)
    escaped = len(sol.t_events[0]) > 0
    failed = not sol.success and not escaped
    exists = not (escaped or failed) and sol.t[-1] >= 1.0
    escape_time = None
    if escaped:
        escape_time = float(sol.t_events[0][0])
    elif failed:
        escape_time = float(sol.t[-1]) if len(sol.t) else 0.0

    grid = tuple((float(t), symmetrize(sol.sol(t).reshape(n, n)))
                 for t in times if escape_time is None or t <= escape_time)

    bounds = None
    if not sys.has_non_identity_channels():
        # Existence sandwich only applies on the simplified model.
        try:
            path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
            bounds = tuple(bounds_on_grid(path, np.array([t for t, _ in grid])))
        except SingularTransitionError:
            bounds = None
    return RiccatiSolution(anchor_time=0.0, anchor_value=pi_0, grid=grid,
                           exists=exists, escape_time=escape_time, bounds=bounds)
