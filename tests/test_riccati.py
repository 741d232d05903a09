import numpy as np
import pytest
from numpy.testing import assert_allclose

from covsteer.errors import RiccatiNonexistenceError
from covsteer.matfun import MatrixPoly, symmetrize
from covsteer.transition import TransitionPath
from covsteer.riccati import (
    closed_form_on_path,
    existence_check,
    integrate_general,
    maximal_interval,
    solve_closed_form,
)

from helpers import (
    const,
    integrate_riccati_oracle,
    make_system,
    random_admissible_pi0,
    random_controllable_system,
    rk4_fixed,
    s1,
    s1_with_q,
)


def test_existence_s1_examples():
    sys = s1()
    v = existence_check(sys, 0.0, [[0.0]])
    assert v.exists
    assert abs(v.upper_margin - 1.0) <= 1e-9
    assert v.lower_margin == np.inf

    assert not existence_check(sys, 0.0, [[2.0]]).exists
    assert existence_check(sys, 0.5, [[0.0]]).exists


def test_closed_form_anchor_is_identity():
    sys = s1_with_q()
    assert_allclose(solve_closed_form(sys, 0.4, [[0.7]], 0.4), [[0.7]])


def test_closed_form_scalar_analytic():
    # Q = 0: pi' = pi^2, pi(t) = p / (1 - p t).
    sys = s1()
    got = solve_closed_form(sys, 0.0, [[0.5]], 1.0)
    assert_allclose(got, [[1.0]], atol=1e-9)
    got = solve_closed_form(sys, 0.0, [[0.5]], 0.6)
    assert_allclose(got, [[0.5 / 0.7]], atol=1e-9)


def test_closed_form_matches_ode_oracle():
    rng = np.random.default_rng(13)
    sys = random_controllable_system(rng, 2)
    pi0 = np.zeros((2, 2))
    got = solve_closed_form(sys, 0.0, pi0, 1.0)
    want = integrate_riccati_oracle(sys, 0.0, pi0, 1.0)
    assert np.max(np.abs(got - want)) <= 1e-7


def test_closed_form_nonexistence_raises():
    # pi(t) = 2/(1 - 2t): the growth factor is singular at the escape time.
    sys = s1()
    with pytest.raises(RiccatiNonexistenceError):
        solve_closed_form(sys, 0.0, [[2.0]], 0.5)
    # On a time array one singular time among regular ones is enough.
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    assert_allclose(closed_form_on_path(path, np.array([[2.0]]), np.array([0.0, 0.25]))[:, 0, 0],
                    [2.0, 4.0], atol=1e-9)
    with pytest.raises(RiccatiNonexistenceError):
        closed_form_on_path(path, np.array([[2.0]]), np.array([0.0, 0.25, 0.5, 0.75]))


def test_backward_consistency():
    rng = np.random.default_rng(19)
    sys = random_controllable_system(rng, 2)
    pi0 = random_admissible_pi0(rng, sys)
    pi_at = solve_closed_form(sys, 0.0, pi0, 0.8)
    back = solve_closed_form(sys, 0.8, pi_at, 0.0)
    assert np.max(np.abs(back - pi0)) <= 1e-7


def test_monotonicity_in_anchor():
    rng = np.random.default_rng(37)
    sys = random_controllable_system(rng, 2)
    pi_a = random_admissible_pi0(rng, sys, margin=1.0)
    bump = rng.standard_normal((2, 2))
    pi_b = pi_a + 0.2 * (bump @ bump.T)  # pi_a <= pi_b
    if not existence_check(sys, 0.0, pi_b).exists:
        pi_b = 0.5 * (pi_a + pi_b)
        assert existence_check(sys, 0.0, pi_b).exists
    for t in (0.25, 0.5, 0.75, 1.0):
        diff = solve_closed_form(sys, 0.0, pi_b, t) - solve_closed_form(sys, 0.0, pi_a, t)
        assert np.min(np.linalg.eigvalsh(symmetrize(diff))) > -1e-9


def test_maximal_interval_blowup():
    mi = maximal_interval(s1(), 0.0, [[2.0]], (-2.0, 2.0))
    assert abs(mi.t1 - 0.5) <= 1e-6
    assert not mi.t1_window_exceeded


def test_maximal_interval_lower_side_escape():
    # pi' = pi^2 - 1 with pi(0) = -2 is -coth(t + atanh(1/2)): it escapes
    # backward at t = -atanh(1/2) and exists for every later time.
    mi = maximal_interval(s1_with_q(), 0.0, [[-2.0]], (-2.0, 2.0))
    assert abs(mi.t0 + np.arctanh(0.5)) <= 1e-6
    assert not mi.t0_window_exceeded
    assert mi.t1_window_exceeded and mi.t1 == 2.0


def test_maximal_interval_global_zero():
    mi = maximal_interval(s1(), 0.0, [[0.0]], (-3.0, 3.0))
    assert mi.t0_window_exceeded and mi.t1_window_exceeded
    assert mi.t0 == -3.0 and mi.t1 == 3.0


def test_maximal_interval_tanh_case():
    # pi' = pi^2 - 1 from 0: pi = -tanh(t), global to the right.
    mi = maximal_interval(s1_with_q(), 0.0, [[0.0]], (-0.5, 4.0))
    assert mi.t1_window_exceeded


def test_bound_sandwich_on_solution_grid():
    rng = np.random.default_rng(41)
    sys = random_controllable_system(rng, 2)
    pi0 = random_admissible_pi0(rng, sys)
    sol = integrate_general(sys, pi0, grid_size=21)
    assert sol.exists
    assert sol.bounds is not None
    for (t, pi), (lower, upper) in zip(sol.grid, sol.bounds):
        assert np.max(np.abs(pi - pi.T)) <= 1e-10
        if upper.is_finite:
            assert np.min(np.linalg.eigvalsh(upper.matrix - pi)) > -1e-9
        if lower.is_finite:
            assert np.min(np.linalg.eigvalsh(pi - lower.matrix)) > -1e-9


def test_integrate_general_zero_fixed_point():
    # E = I with nu = 0.5 and Q = 0: zero stays a fixed point.
    sys = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                      [[0.5]], [[0.0]], [[1.0]],
                      channels=((MatrixPoly.identity(1), const([[0.0]])),))
    sol = integrate_general(sys, [[0.0]], grid_size=11)
    assert sol.exists
    assert all(abs(pi[0, 0]) <= 1e-12 for _, pi in sol.grid)


def test_integrate_general_blowup_matches_maximal_interval():
    sys = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                      [[0.0]], [[0.0]], [[1.0]],
                      channels=((MatrixPoly.identity(1), const([[0.0]])),))
    sol = integrate_general(sys, [[2.0]], grid_size=101)
    assert not sol.exists
    assert sol.escape_time is not None
    assert abs(sol.escape_time - 0.5) <= 1e-4


def test_integrate_general_vs_rk4_oracle():
    # Scalar channel E = 2 with rate 0.25: pi' = pi^2 - 1 - 2*0.25*4*pi.
    sys = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                      [[0.0]], [[1.0]], [[1.0]],
                      channels=((const([[2.0]]), const([[0.25]])),))
    sol = integrate_general(sys, [[0.0]], grid_size=11)
    assert sol.exists

    def rhs(t, y):
        pi = y[0]
        return np.array([pi * pi - 1.0 - 2.0 * 0.25 * 4.0 * pi])

    for t, pi in sol.grid[1:]:
        want = rk4_fixed(rhs, 0.0, np.array([0.0]), t, steps=max(10, int(t * 1e5)))[0]
        assert abs(pi[0, 0] - want) <= 1e-6


def test_closed_form_vs_oracle_many_instances():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(1, 4))
        sys = random_controllable_system(rng, n)
        pi0 = random_admissible_pi0(rng, sys)
        got = solve_closed_form(sys, 0.0, pi0, 1.0)
        want = integrate_riccati_oracle(sys, 0.0, pi0, 1.0)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-7
