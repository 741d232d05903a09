"""Metamorphic tests: exact symmetries of the steering problem.

A change of state coordinates x -> T x, or of input coordinates v = S u,
poses the same problem in other coordinates, so solve_boundary's results
must map by the same change.  Each relation is exact in exact arithmetic;
the bounds are relative, scaled by the condition number of the change.
Newton runs to a residual of 1e-13: at 1e-11 its stopping point alone moved
Pi by up to 1.4e-8 cond(T) (a residual of 7e-12 moved Pi0 by 2e-10).

Measured over 300 draws of each relation (seeds 0..99, n = 1..3, cond up
to 84; for x -> T x one draw does not converge, see the last test), the
largest relative error divided by the condition number was
2.3e-11 for Pi, 1.2e-12 for K, 1.3e-12 for Sigma and 9.9e-14 for the cost;
the bounds below leave a margin of at least 40 over them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covsteer.errors import NoConvergenceError
from covsteer.matfun import BoundaryData, MatrixPoly, SystemSpec, symmetrize
from covsteer.steering import map_f, solve_boundary

from helpers import random_admissible_pi0, random_controllable_system, random_spd

TOL = 1e-13
GRID = 21
SCHEDULE_RTOL = 1e-9  # Pi and K, per unit of cond
COVARIANCE_RTOL = 1e-10  # Sigma and the cost, per unit of cond


def _case(seed, n):
    """(rng, system, boundary data) with a target reached from an admissible Pi0."""
    rng = np.random.default_rng(seed)
    sys = random_controllable_system(rng, n)
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


def _in_state_coordinates(sys, bd, t):
    """The problem in the state coordinates x -> T x: A -> T A T^-1, B -> T B,
    C -> T C, Q -> T^-T Q T^-1 and Sigma0,1 -> T Sigma T'."""
    tc, tic = MatrixPoly.constant(t), MatrixPoly.constant(np.linalg.inv(t))
    moved = SystemSpec(n=sys.n, p=sys.p, q=sys.q, A=tc @ sys.A @ tic, B=tc @ sys.B,
                       C=tc @ sys.C, D=sys.D, nu=sys.nu, Q=_sym_poly(tic.T @ sys.Q @ tic),
                       R=sys.R)
    return moved, BoundaryData(sigma0=symmetrize(t @ bd.sigma0 @ t.T),
                               sigma1=symmetrize(t @ bd.sigma1 @ t.T))


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
