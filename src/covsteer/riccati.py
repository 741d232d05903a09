"""Existence, closed form, and forward integration of the Riccati equation.

The quadratic matrix equation for the costate weight is never stepped
blindly: on the simplified (state-dependent noise) model its solution is
evaluated in closed form from the Hamiltonian transition blocks, its
existence from an anchor in [0, 1] is decided by an eigenvalue sandwich
against the block bounds, and its maximal interval of existence is
located by bisection on the critical eigenvalue crossing.  Only a model
with a non-identity multiplicative channel, for which no existence theory
is available, or an uncontrollable pair, on which the moving bound does
not exist, is forward integrated with blow-up detection.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RiccatiNonexistenceError, SingularTransitionError
from .matfun import SystemSpec, _uniform_grid, symmetrize
from .transition import (COND_LIMIT, TransitionPath, _moving_bound, _phi_pi, b_rinv_bt,
                         horizon_path, pi_bounds)

BLOWUP_NORM = 1e12
BISECTION_TOL = 1e-6
SCAN_POINTS = 64  # _locate_crossing's scan toward a window edge


@dataclass(frozen=True)
class ExistenceVerdict:
    """Sandwich margins at the anchor; positive margins mean strictly inside."""

    exists: bool
    upper_margin: float  # lambda_min(upper(s) - Pi_s), +inf when s = 1
    lower_margin: float  # lambda_min(Pi_s - lower(s)), +inf when s = 0


def existence_check(sys: SystemSpec, s: float, pi_s: np.ndarray) -> ExistenceVerdict:
    """Decide global existence on [0, 1] from the anchored value Pi(s).

    The sandwich decides it only for anchors s in [0, 1]; others raise
    ValueError.
    """
    pi_s = symmetrize(np.asarray(pi_s, dtype=float))
    lower, upper = pi_bounds(sys, s)
    upper_margin = lower_margin = math.inf
    if upper.is_finite:
        upper_margin = float(np.min(np.linalg.eigvalsh(upper.matrix - pi_s)))
    if lower.is_finite:
        lower_margin = float(np.min(np.linalg.eigvalsh(pi_s - lower.matrix)))
    return ExistenceVerdict(exists=upper_margin > 0.0 and lower_margin > 0.0,
                            upper_margin=upper_margin, lower_margin=lower_margin)


def solve_closed_form(sys: SystemSpec, s: float, pi_s: np.ndarray,
                      t: float) -> np.ndarray:
    """Pi(t) = (phi21 + phi22 Pi_s)(phi11 + phi12 Pi_s)^-1, symmetrized."""
    pi_s = symmetrize(np.asarray(pi_s, dtype=float))
    return closed_form_on_path(TransitionPath(sys, anchor=s, span=(min(s, t), max(s, t))),
                               pi_s, t)


def closed_form_on_path(path: TransitionPath, pi_anchor: np.ndarray, t) -> np.ndarray:
    """Closed-form Pi(t) on a dense path anchored at Pi_anchor's time; stacked for k times.

    A plain condition number misses the blow-up (PhiPi can be tiny in every
    direction), so _regular_inverse measures PhiPi against the magnitude of the
    terms that cancel.  On (k, n, n) stacks each matrix is tested, and the
    first singular one raises.
    """
    growth, (p11, p12, p21, p22) = _phi_pi(path, pi_anchor, t)
    ginv, regular, rnorm, scale = _regular_inverse(growth, p11, p12, pi_anchor)
    bad = np.flatnonzero(~regular)
    if bad.size:
        raise RiccatiNonexistenceError(
            f"phi11 + phi12 Pi_s numerically singular (1/||inverse||_F="
            f"{np.ravel(rnorm)[bad[0]]:.3e}, scale={np.ravel(scale)[bad[0]]:.3e})")
    return symmetrize((p21 + p22 @ pi_anchor) @ ginv)


def _regular_inverse(growth, p11, p12, pi_anchor):
    """(inverse, regular, 1/||inverse||_F, scale) of PhiPi = p11 + p12 Pi_anchor or of each in
    a stack: regular when 1/||inverse||_F > max(scale, 1) / COND_LIMIT, the sigma_min test at
    most sqrt(n) stricter, as sigma_min ||inverse||_F lies in [1, sqrt(n)].  An exactly
    singular PhiPi, which np.linalg.inv refuses with its whole stack, reads an infinite inverse."""
    scale = np.linalg.norm(p11, axis=(-2, -1)) + np.linalg.norm(p12 @ pi_anchor, axis=(-2, -1))
    try:
        ginv = np.linalg.inv(growth)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(growth) == 0.0  # an exactly zero pivot, which inv refuses
        ginv = np.linalg.inv(np.where(singular[..., None, None], np.eye(growth.shape[-1]), growth))
        ginv[singular] = np.inf
    with np.errstate(over="ignore"):  # squares past 1e308 put the norm far past any threshold
        rnorm = 1.0 / np.linalg.norm(ginv, axis=(-2, -1))
    return ginv, np.atleast_1d(rnorm > np.maximum(scale, 1.0) / COND_LIMIT), rnorm, scale


@dataclass(frozen=True)
class MaximalInterval:
    """Endpoints of the maximal existence interval, clamped to the window."""

    t0: float
    t1: float
    t0_window_exceeded: bool
    t1_window_exceeded: bool


def _inside_margins(path, pi_s, ts, side):
    """(margins, regular): the critical eigenvalue's margins at the times ts, positive
    inside, and which times have a regular phi12; the others read +inf, as in the
    asymptote region next to the anchor, where the bound is unbounded."""
    p11, p12, _, _ = path.raw_blocks(ts)
    bound, regular = _moving_bound(p11, p12)
    inside = bound - pi_s if side == "upper" else pi_s - bound  # upper: t > s
    margins = np.full(len(ts), math.inf)
    margins[regular] = np.linalg.eigvalsh(inside[regular])[:, 0]
    return margins, regular


def _locate_crossing(path, pi_s, limit, side):
    """(time, window exceeded): scan toward the window edge, then bisect the first
    sign change.  A side of positive length with no regular scan time has no moving
    bound to cross, and raises SingularTransitionError."""
    ts = np.linspace(path.anchor, limit, SCAN_POINTS + 1)
    margins, regular = _inside_margins(path, pi_s, ts[1:], side)
    if limit != path.anchor and not regular.any():
        raise SingularTransitionError(
            f"phi12(t,{path.anchor:g}) numerically singular at every scan time up to {limit:g}")
    crossed = np.flatnonzero(margins <= 0.0)
    if not crossed.size:
        return limit, True
    lo, hi = ts[crossed[0]], ts[crossed[0] + 1]
    while abs(hi - lo) > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _inside_margins(path, pi_s, np.array([mid]), side)[0][0] > 0.0:
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
    read one transition path anchored at s over the window.  A side of
    positive length on which phi12(t,s) is regular at no scan time (an
    uncontrollable pair) raises SingularTransitionError.
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
    """Riccati solution on a grid from t = 0."""

    grid: tuple  # ((t, Pi(t)), ...)
    exists: bool
    escape_time: float | None


def _general_rhs(sys: SystemSpec):
    n = sys.n

    def rhs(t, y):
        pi = symmetrize(y.reshape(n, n))
        a = sys.A.eval(t)
        nu = float(sys.nu.eval(t)[0, 0])
        dpi = -a.T @ pi - pi @ a + pi @ b_rinv_bt(sys, t) @ pi - sys.Q.eval(t) - 2.0 * nu * pi
        for e_mp, nu_mp in sys.general_channels:
            e = e_mp.eval(t)
            dpi -= 2.0 * float(nu_mp.eval(t)[0, 0]) * (e.T @ pi @ e)
        return symmetrize(dpi).reshape(-1)

    return rhs


def integrate_general(sys: SystemSpec, pi_0: np.ndarray,
                      grid_size: int = 101) -> RiccatiSolution:
    """The Riccati solution from Pi(0) = pi_0 on grid_size equal steps of [0, 1].

    Without non-identity channels, Pi is read in closed form from one
    transition path Phi_M(., 0), with the escape time at the first crossing
    of the moving bound.  A non-identity channel, or a pair whose phi12(t, 0)
    is regular at no scan time (uncontrollable), is forward integrated by
    RK45.  Blow-up (escape, max |Pi| above BLOWUP_NORM or solver failure) is
    a reported outcome: exists=False with the escape time, never an
    exception, and the grid keeps only the times before it.
    """
    times = _uniform_grid(grid_size)
    pi_0 = symmetrize(np.asarray(pi_0, dtype=float))
    if sys.has_non_identity_channels():
        return _integrate_rk45(sys, pi_0, times)

    path = horizon_path(sys)
    try:
        escape_time, exists = _locate_crossing(path, pi_0, 1.0, "upper")
    except SingularTransitionError:  # no moving bound: a pole could fall between grid times
        return _integrate_rk45(sys, pi_0, times)
    kept = times if exists else times[times < escape_time]
    growth, (p11, p12, p21, p22) = _phi_pi(path, pi_0, kept)
    ginv, regular, _, _ = _regular_inverse(growth, p11, p12, pi_0)
    stop = len(kept) if regular.all() else int(np.argmin(regular))
    pis = symmetrize((p21[:stop] + p22[:stop] @ pi_0) @ ginv[:stop])
    # Pi blows up at a grid time next to the escape, or past a crossing that
    # the scan missed; then that time is the escape.
    return _grid_solution(kept[:stop], pis, None if exists else escape_time,
                          kept[stop] if stop < len(kept) else None)


def _grid_solution(kept, pis, escape_time, failed_at) -> RiccatiSolution:
    """The solution on the kept times up to the first one whose max |Pi| passes BLOWUP_NORM.

    That time, else failed_at, is the escape unless escape_time is already set.
    """
    big = np.flatnonzero(np.max(np.abs(pis), axis=(1, 2)) > BLOWUP_NORM)
    if big.size:
        failed_at, kept, pis = kept[big[0]], kept[:big[0]], pis[:big[0]]
    if escape_time is None and failed_at is not None:
        escape_time = failed_at
    return RiccatiSolution(grid=tuple(zip(kept.tolist(), pis)), exists=escape_time is None,
                           escape_time=None if escape_time is None else float(escape_time))


def _integrate_rk45(sys: SystemSpec, pi_0: np.ndarray, times: np.ndarray) -> RiccatiSolution:
    """integrate_general's forward integration."""
    from scipy.integrate import solve_ivp

    n = sys.n

    def blow_up(t, y):
        return float(np.max(np.abs(y))) - BLOWUP_NORM

    blow_up.terminal = True
    blow_up.direction = 1.0

    sol = solve_ivp(_general_rhs(sys), (0.0, 1.0), pi_0.reshape(-1),
                    method="RK45", rtol=1e-10, atol=1e-12, t_eval=times,
                    events=blow_up, dense_output=True)
    escape_time = None
    if len(sol.t_events[0]):
        escape_time = float(sol.t_events[0][0])
    elif not sol.success:
        escape_time = float(sol.sol.t_max)  # the solver's last step
    kept = times if escape_time is None else times[times < escape_time]
    pis = np.array([symmetrize(sol.sol(t).reshape(n, n)) for t in kept]).reshape(-1, n, n)
    return _grid_solution(kept, pis, escape_time, None)
