"""Metamorphic tests: exact symmetries of the steering problem.

A change of state coordinates x -> T x, of input coordinates v = S u, or
of noise channels w -> V w poses the same problem in other coordinates, so
solve_boundary's results must map by the same change, and the existence,
maximal-interval, Riccati and controllability analyses by x -> T x.  Each
relation is exact in exact arithmetic; the bounds are relative, scaled by
the condition number of the change.  Newton runs to a residual of 1e-13:
at 1e-11 its stopping point alone moved Pi by up to 1.4e-8 cond(T) (a
residual of 7e-12 moved Pi0 by 2e-10).

Measured over 300 draws of each solve relation (seeds 0..99, n = 1..3, cond
up to 84; for x -> T x one draw does not converge, see the last test), the
largest relative error divided by the condition number was
2.3e-11 for Pi, 1.2e-12 for K, 1.3e-12 for Sigma and 9.9e-14 for the cost;
the bounds below leave a margin of at least 40 over them.  For w -> V w
with two channels (300 draws, cond(V) up to 81) it was 1.6e-12 for Pi,
1.9e-13 for K, 4.4e-15 for Sigma and 1.7e-14 for the cost, a margin of at
least 600.  For the analyses under x -> T x (the 295 draws with cond(T) up
to 100, each with and without escape), the existence and controllability
verdicts never changed, the maximal-interval ends and the escape time
moved by exactly 0, and integrate_general's Pi grid by at most
1.9e-11 cond(T), a margin of 53 below SCHEDULE_RTOL.  The other 5 draws,
cond(T) from 118 to 6010, were not run, and the analyses test draws no
T above 100: the moved system's ||M|| grows with cond(T), and with it the
transition path's panel count (||M|| = 4.5e6, about a million panels, at
6010).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from covsteer.controllability import classify
from covsteer.errors import NoConvergenceError
from covsteer.matfun import BoundaryData, MatrixPoly, SystemSpec, symmetrize
from covsteer.riccati import BISECTION_TOL, existence_check, integrate_general, maximal_interval
from covsteer.steering import map_f, solve_boundary

from helpers import (
    random_admissible_pi0,
    random_controllable_system,
    random_poly_matrix,
    random_spd,
)

TOL = 1e-13
GRID = 21
SCHEDULE_RTOL = 1e-9  # Pi and K, per unit of cond
COVARIANCE_RTOL = 1e-10  # Sigma and the cost, per unit of cond


def _case(seed, n, noise_channels=None):
    """(rng, system, boundary data) with a target reached from an admissible Pi0;
    noise_channels, if given, replaces C and D by that many random channels."""
    rng = np.random.default_rng(seed)
    sys = random_controllable_system(rng, n)
    if noise_channels:
        sys = replace(sys, q=noise_channels,
                      C=random_poly_matrix(rng, n, noise_channels, 1, scale=0.8),
                      D=MatrixPoly.constant(random_spd(rng, noise_channels)))
    sigma0 = random_spd(rng, n)
    bd = BoundaryData(sigma0=sigma0, sigma1=map_f(sys, sigma0, random_admissible_pi0(rng, sys)))
    return rng, sys, bd


def _solve(sys, bd):
    """(Pi, K, Sigma stacks, cost) of solve_boundary."""
    sol = solve_boundary(sys, bd, grid_size=GRID, tol=TOL)
    pi, k, sigma = (np.stack([m for _, m in g]) for g in (sol.pi_grid, sol.gain_grid,
                                                            sol.sigma_grid))
    return pi, k, sigma, sol.optimal_cost


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _change(rng, m):
    """A random invertible m x m change of coordinates, N(0, 1) + 2 I."""
    return rng.standard_normal((m, m)) + 2.0 * np.eye(m)


def _sym_poly(mp):
    return (mp + mp.T).scale(0.5)


def _system_in_state_coordinates(sys, t):
    """The system in the state coordinates x -> T x: A -> T A T^-1, B -> T B,
    C -> T C and Q -> T^-T Q T^-1."""
    tc, tic = MatrixPoly.constant(t), MatrixPoly.constant(np.linalg.inv(t))
    return SystemSpec(n=sys.n, p=sys.p, q=sys.q, A=tc @ sys.A @ tic, B=tc @ sys.B,
                      C=tc @ sys.C, D=sys.D, nu=sys.nu, Q=_sym_poly(tic.T @ sys.Q @ tic),
                      R=sys.R)


def _in_state_coordinates(sys, bd, t):
    """The problem in the state coordinates x -> T x, with Sigma0,1 -> T Sigma T'."""
    return _system_in_state_coordinates(sys, t), BoundaryData(
        sigma0=symmetrize(t @ bd.sigma0 @ t.T), sigma1=symmetrize(t @ bd.sigma1 @ t.T))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3))
def test_state_coordinates_map_pi_k_sigma_and_keep_the_cost(seed, n):
    # x -> T x maps Pi -> T^-T Pi T^-1, K -> K T^-1 and Sigma(t) -> T Sigma(t) T',
    # and keeps the cost.
    rng, sys, bd = _case(seed, n)
    t = _change(rng, n)
    ti = np.linalg.inv(t)
    pi, k, sigma, cost = _solve(sys, bd)
    pi_t, k_t, sigma_t, cost_t = _solve(*_in_state_coordinates(sys, bd, t))
    cond = np.linalg.cond(t)
    assert _rel(pi_t, ti.T @ pi @ ti) <= SCHEDULE_RTOL * cond
    assert _rel(k_t, k @ ti) <= SCHEDULE_RTOL * cond
    assert _rel(sigma_t, t @ sigma @ t.T) <= COVARIANCE_RTOL * cond
    assert abs(cost_t - cost) <= COVARIANCE_RTOL * cond * abs(cost)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3))
def test_input_coordinates_map_k_and_keep_pi_sigma_and_the_cost(seed, n):
    # v = S u: B -> B S^-1 and R -> S^-T R S^-1.  Then K -> S K, while Pi,
    # Sigma and the cost are unchanged.
    rng, sys, bd = _case(seed, n)
    s = _change(rng, sys.p)
    sic = MatrixPoly.constant(np.linalg.inv(s))
    moved = SystemSpec(n=n, p=sys.p, q=sys.q, A=sys.A, B=sys.B @ sic, C=sys.C, D=sys.D,
                       nu=sys.nu, Q=sys.Q, R=_sym_poly(sic.T @ sys.R @ sic))
    pi, k, sigma, cost = _solve(sys, bd)
    pi_s, k_s, sigma_s, cost_s = _solve(moved, bd)
    cond = np.linalg.cond(s)
    assert _rel(pi_s, pi) <= SCHEDULE_RTOL * cond
    assert _rel(k_s, s @ k) <= SCHEDULE_RTOL * cond
    assert _rel(sigma_s, sigma) <= COVARIANCE_RTOL * cond
    assert abs(cost_s - cost) <= COVARIANCE_RTOL * cond * abs(cost)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), escape=st.booleans())
def test_state_coordinates_keep_the_analyses(seed, n, escape):
    # x -> T x maps Pi -> T^-T Pi T^-1, a congruence, which keeps the sign of
    # every sandwich margin: the existence verdict, the maximal interval (up
    # to its bisection), the escape time and the controllability verdict
    # are unchanged, and integrate_general's Pi grid maps by the congruence.
    # escape lifts Pi0 to 0.3 past the upper bound, so that Pi escapes before t = 1.
    rng = np.random.default_rng(seed)
    sys = random_controllable_system(rng, n)
    pi0 = random_admissible_pi0(rng, sys)
    if escape:
        pi0 += (existence_check(sys, 0.0, pi0).upper_margin + 0.3) * np.eye(n)
    t = _change(rng, n)
    # The moved system's ||M||, and the panel count of every path built on it,
    # grow with cond(T): a draw at cond(T) = 454 held every bound below but
    # took 6 s, 5.3 s of it in maximal_interval's 5184-panel window.
    assume(np.linalg.cond(t) <= 100)
    ti = np.linalg.inv(t)
    moved, pi0_t = _system_in_state_coordinates(sys, t), symmetrize(ti.T @ pi0 @ ti)
    assert existence_check(moved, 0.0, pi0_t).exists == existence_check(sys, 0.0, pi0).exists
    mi, mi_t = (maximal_interval(s, 0.0, p, (-0.5, 1.5)) for s, p in ((sys, pi0), (moved, pi0_t)))
    assert abs(mi_t.t0 - mi.t0) <= BISECTION_TOL and abs(mi_t.t1 - mi.t1) <= BISECTION_TOL
    assert (mi_t.t0_window_exceeded, mi_t.t1_window_exceeded) == \
        (mi.t0_window_exceeded, mi.t1_window_exceeded)
    gen, gen_t = integrate_general(sys, pi0), integrate_general(moved, pi0_t)
    assert gen_t.exists == gen.exists
    assert (gen_t.escape_time is None) == (gen.escape_time is None)
    if gen.escape_time is not None:
        assert abs(gen_t.escape_time - gen.escape_time) <= BISECTION_TOL
    (ts, pis), (ts_t, pis_t) = (zip(*g.grid) for g in (gen, gen_t))
    assert ts_t == ts
    assert _rel(np.stack(pis_t), ti.T @ np.stack(pis) @ ti) <= SCHEDULE_RTOL * np.linalg.cond(t)
    report, report_t = (classify(s, grid_size=21, probes_per_subinterval=3) for s in (sys, moved))
    for field in ("totally_controllable", "uniformly_controllable", "index_invariant"):
        assert getattr(report_t, field) == getattr(report, field), field


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3))
def test_noise_channels_keep_every_result(seed, n):
    # w -> V w: C -> C V^-1 and D -> V D V' keep C D C', so Pi0, the Pi, K
    # and Sigma grids and the cost are unchanged.  Two channels, so that V
    # mixes them.
    rng, sys, bd = _case(seed, n, noise_channels=2)
    v = _change(rng, sys.q)
    vc, vic = MatrixPoly.constant(v), MatrixPoly.constant(np.linalg.inv(v))
    moved = SystemSpec(n=n, p=sys.p, q=sys.q, A=sys.A, B=sys.B, C=sys.C @ vic,
                       D=_sym_poly(vc @ sys.D @ vc.T), nu=sys.nu, Q=sys.Q, R=sys.R)
    pi, k, sigma, cost = _solve(sys, bd)
    pi_v, k_v, sigma_v, cost_v = _solve(moved, bd)
    cond = np.linalg.cond(v)
    assert _rel(pi_v, pi) <= SCHEDULE_RTOL * cond
    assert _rel(k_v, k) <= SCHEDULE_RTOL * cond
    assert _rel(sigma_v, sigma) <= COVARIANCE_RTOL * cond
    assert abs(cost_v - cost) <= COVARIANCE_RTOL * cond * abs(cost)


@pytest.mark.xfail(raises=NoConvergenceError, strict=True,
                   reason="Newton's path is not invariant under x -> T x")
def test_newton_converges_in_the_state_coordinates_of_draw_22():
    # The problem of seed 22, n = 2 converges in its own coordinates (as the
    # first solve shows), but after x -> T x (cond T = 5.7) Newton's step
    # halves to 1/16 from its third iteration and the residual crawls from
    # 1.1e-3 to 8.9e-4 until the pass budget is spent.  Newton's direction
    # and its step cap map with T; its acceptance test, a falling Frobenius
    # norm of the residual, does not.
    rng, sys, bd = _case(22, 2)
    _solve(sys, bd)
    _solve(*_in_state_coordinates(sys, bd, _change(rng, 2)))
