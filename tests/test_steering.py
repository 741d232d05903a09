import numpy as np
import pytest
from numpy.testing import assert_allclose

from covsteer.errors import ChannelMismatchError, RiccatiNonexistenceError
from covsteer.matfun import BoundaryData, symmetrize, unvec, vec
from covsteer.steering import (
    feedback_gain,
    jacobian_f,
    map_f,
    optimal_cost,
    propagate_covariance,
    solve_boundary,
    special_case_pi0,
)
from covsteer.transition import transition_blocks

from helpers import (
    lyapunov_oracle,
    random_admissible_pi0,
    random_controllable_system,
    random_spd,
    s1,
    example_system,
)

P_STAR = (3.0 - np.sqrt(3.0)) / 2.0  # root of (1-p)^2 + (1-p) = 1/2


def test_map_f_uncontrolled_diffusion():
    assert_allclose(map_f(s1(), [[1.0]], [[0.0]]), [[2.0]], atol=1e-10)


def test_map_f_scalar_quadratic():
    got = map_f(s1(), [[1.0]], [[0.6339746]])
    assert abs(got[0, 0] - 0.5) <= 1e-7


def test_map_f_rejects_inadmissible():
    with pytest.raises(RiccatiNonexistenceError):
        map_f(s1(), [[1.0]], [[1.5]])  # above the bound 1


def test_jacobian_scalar_hand_value():
    ws = jacobian_f(s1(), [[1.0]], [[0.0]])
    assert abs(ws.jac[0, 0] + 3.0) <= 1e-9
    # Analytic derivative of f(p) = (1-p)^2 + (1-p) at p = 0.
    eps = 1e-6
    fd = (map_f(s1(), [[1.0]], [[eps]]) - map_f(s1(), [[1.0]], [[-eps]])) / (2 * eps)
    assert abs(fd[0, 0] + 3.0) <= 1e-5


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(53)
    for _ in range(3):
        sys = random_controllable_system(rng, 2)
        sigma0 = random_spd(rng, 2)
        pi0 = random_admissible_pi0(rng, sys)
        ws = jacobian_f(sys, sigma0, pi0)
        delta = rng.standard_normal((2, 2))
        delta = 1e-5 * symmetrize(delta) / np.linalg.norm(symmetrize(delta))
        fd = (map_f(sys, sigma0, pi0 + delta) - map_f(sys, sigma0, pi0 - delta)) / 2.0
        lin = unvec(ws.jac @ vec(delta))
        assert np.linalg.norm(lin - fd) / np.linalg.norm(fd) <= 1e-5


def test_jacobian_workspace_invariants():
    rng = np.random.default_rng(59)
    sys = random_controllable_system(rng, 2)
    sigma0 = random_spd(rng, 2)
    pi0 = random_admissible_pi0(rng, sys)
    ws = jacobian_f(sys, sigma0, pi0)
    assert not ws.saturated
    assert 0.0 <= ws.quad_error < np.inf
    for s, w_s, p_s in ws.nodes:
        if s > 1e-8:
            assert np.max(np.linalg.eigvalsh(w_s)) < 0.0
        assert np.min(np.linalg.eigvalsh(symmetrize(p_s))) > -1e-10
    # S is negative definite on the symmetric subspace.
    for _ in range(100):
        x = symmetrize(rng.standard_normal((2, 2)))
        if np.linalg.norm(x) < 1e-12:
            continue
        assert vec(x) @ ws.S @ vec(x) < 0.0


def test_jacobian_reports_quadrature_saturation():
    # Next to the admissibility boundary the transported noise spikes near
    # t = 1 and 400 panels no longer reach the quadrature tolerance.
    rng = np.random.default_rng(73)
    sys = random_controllable_system(rng, 2)
    b = transition_blocks(sys, 1.0, 0.0)
    upper = symmetrize(-np.linalg.solve(b.phi12, b.phi11))
    inside = jacobian_f(sys, np.eye(2), upper - 1e-2 * np.eye(2))
    edge = jacobian_f(sys, np.eye(2), upper - 1e-8 * np.eye(2))
    assert not inside.saturated
    assert edge.saturated and len(edge.nodes) == 15 * 400
    times = [s for s, _, _ in edge.nodes]
    assert times == sorted(times) and 0.0 < times[0] and times[-1] < 1.0
    assert edge.quad_error > 1e3 * inside.quad_error


def test_jacobian_commutes_with_transpose_swap():
    rng = np.random.default_rng(61)
    sys = random_controllable_system(rng, 2)
    ws = jacobian_f(sys, random_spd(rng, 2), random_admissible_pi0(rng, sys))
    n = 2
    perm = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            perm[:, i + n * j] = vec(e.T)
    assert np.max(np.abs(perm @ ws.jac @ perm - ws.jac)) <= 1e-10


def test_solve_boundary_trivial_target():
    sol = solve_boundary(s1(), BoundaryData(sigma0=[[1.0]], sigma1=[[2.0]]))
    assert abs(sol.pi0[0, 0]) <= 1e-8
    assert abs(sol.optimal_cost) <= 1e-9


def test_solve_boundary_scalar_root():
    sol = solve_boundary(s1(), BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]]))
    assert abs(sol.pi0[0, 0] - P_STAR) <= 1e-8
    assert sol.residual <= 1e-8
    # Optimal cost against the scalar antiderivative oracle.
    p = P_STAR
    want = -np.log(1.0 - p) + p - 0.5 * p / (1.0 - p)
    assert abs(sol.optimal_cost - want) <= 1e-8


def test_solve_boundary_worked_example():
    sys = example_system()
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.3, 0.2]))
    sol = solve_boundary(sys, bd)
    assert sol.residual <= 1e-8
    sigma_end = sol.sigma_grid[-1][1]
    assert np.max(np.abs(sigma_end - np.diag([0.3, 0.2]))) <= 1e-6
    eigs = [np.min(np.linalg.eigvalsh(s)) for _, s in sol.sigma_grid]
    assert min(eigs) > 0.0
    # Gains have the contracted shape p x n at every grid time.
    assert all(k.shape == (1, 2) for _, k in sol.gain_grid)


def test_map_f_reaches_target_with_solved_anchor():
    sys = example_system()
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.3, 0.2]))
    sol = solve_boundary(sys, bd)
    reached = map_f(sys, bd.sigma0, sol.pi0)
    assert np.max(np.abs(reached - np.diag([0.3, 0.2]))) <= 1e-6


def test_special_case_scalar_values():
    bd2 = BoundaryData(sigma0=[[1.0]], sigma1=[[2.0]])
    assert abs(special_case_pi0(s1(), bd2)[0, 0]) <= 1e-9
    bd_half = BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]])
    assert abs(special_case_pi0(s1(), bd_half)[0, 0] - 0.6339746) <= 1e-7


def test_special_case_matches_newton_on_matched_channels():
    rng = np.random.default_rng(67)
    sys = random_controllable_system(rng, 2, channel_match=True)
    bd = BoundaryData(sigma0=random_spd(rng, 2), sigma1=random_spd(rng, 2))
    pi0 = special_case_pi0(sys, bd)
    assert np.linalg.norm(map_f(sys, bd.sigma0, pi0) - bd.sigma1) <= 1e-7
    sol = solve_boundary(sys, bd)
    assert np.max(np.abs(sol.pi0 - pi0)) <= 1e-7


def test_special_case_rejects_mismatched_channels():
    with pytest.raises(ChannelMismatchError):
        special_case_pi0(example_system(),
                         BoundaryData(sigma0=np.eye(2), sigma1=np.eye(2)))


def test_propagate_covariance_examples():
    grid = propagate_covariance(s1(), [[0.0]], [[1.0]], grid_size=11)
    for t, sigma in grid:
        assert abs(sigma[0, 0] - (1.0 + t)) <= 1e-9
    grid = propagate_covariance(s1(), [[0.6339746]], [[1.0]], grid_size=11)
    assert abs(grid[-1][1][0, 0] - 0.5) <= 1e-7


@pytest.fixture(scope="module", params=["worked_example", "random_n3"])
def oracle_case(request):
    if request.param == "worked_example":
        sys = example_system()
        sigma0 = np.eye(2)
        pi0 = solve_boundary(sys, BoundaryData(sigma0=sigma0,
                                               sigma1=np.diag([0.3, 0.2]))).pi0
    else:
        rng = np.random.default_rng(89)
        sys = random_controllable_system(rng, 3)
        sigma0 = random_spd(rng, 3)
        pi0 = random_admissible_pi0(rng, sys)
    return sys, sigma0, pi0


@pytest.mark.parametrize("grid_size", [11, 101, 1001])
def test_sigma_grid_matches_lyapunov_oracle(oracle_case, grid_size):
    sys, sigma0, pi0 = oracle_case
    grid = propagate_covariance(sys, pi0, sigma0, grid_size=grid_size)
    times = np.array([t for t, _ in grid])
    assert np.array_equal(times, np.linspace(0.0, 1.0, grid_size))
    got = np.stack([sigma for _, sigma in grid])
    want = lyapunov_oracle(sys, pi0, sigma0, times)
    rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.max(rel) <= 1e-7


@pytest.fixture(scope="module")
def contracting_case():
    # Sigma shrinks from 50 I to 0.01 I, so the transported noise varies fast.
    rng = np.random.default_rng(92)
    sys = random_controllable_system(rng, 2)
    bd = BoundaryData(sigma0=50.0 * np.eye(2), sigma1=0.01 * np.eye(2))
    pi0 = solve_boundary(sys, bd).pi0
    fine = propagate_covariance(sys, pi0, bd.sigma0, grid_size=1001)
    return sys, bd.sigma0, pi0, np.stack([sigma for _, sigma in fine])


@pytest.mark.parametrize("grid_size", [2, 11, 101])
def test_sigma_grid_does_not_depend_on_output_grid(contracting_case, grid_size):
    # One Gauss-Legendre interval per output interval misses the 1e-7
    # endpoint check on this instance at grid 101 and below.
    sys, sigma0, pi0, fine = contracting_case
    got = np.stack([sigma for _, sigma in
                    propagate_covariance(sys, pi0, sigma0, grid_size=grid_size)])
    # Shared times agree to rounding, which the cancellation in phi11 + phi12
    # Pi0 (terms near 1, sum near 1e-3 at t = 1) amplifies to about 4e-10.
    assert np.max(np.abs(got - fine[::1000 // (grid_size - 1)])) <= 1e-10 * np.max(np.abs(fine))


def test_grid_below_two_points_is_rejected(contracting_case):
    sys, sigma0, pi0, _ = contracting_case
    for grid_size in (1, 0):
        with pytest.raises(ValueError, match="grid_size"):
            propagate_covariance(sys, pi0, sigma0, grid_size=grid_size)
        with pytest.raises(ValueError, match="grid_size"):
            solve_boundary(sys, BoundaryData(sigma0=sigma0, sigma1=sigma0), grid_size=grid_size)


def test_feedback_gain_schedule():
    assert_allclose(feedback_gain(s1(), [(0.0, np.zeros((1, 1)))])[0][1],
                    np.zeros((1, 1)))
    # pi(t) = 0.5/(1 - 0.5 t) gives K(1) = -1.
    k = feedback_gain(s1(), [(1.0, np.array([[1.0]]))])
    assert_allclose(k[0][1], [[-1.0]])


def test_round_trip_recovers_anchor():
    rng = np.random.default_rng(71)
    sys = random_controllable_system(rng, 2)
    sigma0 = random_spd(rng, 2)
    for _ in range(3):
        pi0 = random_admissible_pi0(rng, sys)
        target = map_f(sys, sigma0, pi0)
        sol = solve_boundary(sys, BoundaryData(sigma0=sigma0, sigma1=target))
        assert np.max(np.abs(sol.pi0 - pi0)) <= 1e-6


def test_limit_behavior_toward_bounds():
    rng = np.random.default_rng(73)
    sys = random_controllable_system(rng, 2)
    sigma0 = np.eye(2)
    from covsteer.transition import transition_blocks

    b = transition_blocks(sys, 1.0, 0.0)
    upper = symmetrize(-np.linalg.solve(b.phi12, b.phi11))
    # Toward the upper bound the terminal covariance collapses.
    norms = []
    for eps in (0.5, 0.1, 0.02, 0.004):
        norms.append(np.linalg.norm(map_f(sys, sigma0, upper - eps * np.eye(2))))
    assert all(a > b_ for a, b_ in zip(norms, norms[1:]))
    # Toward -infinity the terminal covariance grows without bound.
    lams = []
    for c in (1.0, 10.0, 100.0, 1000.0):
        lams.append(np.min(np.linalg.eigvalsh(map_f(sys, sigma0, -c * np.eye(2)))))
    assert all(a < b_ for a, b_ in zip(lams, lams[1:]))


def test_scalar_map_is_monotone_decreasing():
    sys = s1()
    values = [map_f(sys, [[1.0]], [[p]])[0, 0] for p in np.linspace(-3.0, 0.9, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_optimal_cost_consistency_with_monte_carlo_free_case():
    sol = solve_boundary(s1(), BoundaryData(sigma0=[[1.0]], sigma1=[[2.0]]))
    bd = BoundaryData(sigma0=[[1.0]], sigma1=[[2.0]])
    assert abs(optimal_cost(s1(), sol, bd)) <= 1e-9


@pytest.mark.parametrize("target", [
    np.diag([8.0, 1e-3]),                   # crush the actuated coordinate
    np.array([[2.0, 1.9], [1.9, 2.0]]),     # strongly correlated expansion
])
def test_solve_boundary_aggressive_targets(target):
    sys = example_system()
    sol = solve_boundary(sys, BoundaryData(sigma0=np.eye(2), sigma1=target))
    assert sol.residual <= 1e-8
    assert np.max(np.abs(sol.sigma_grid[-1][1] - target)) <= 1e-6 * np.linalg.norm(target)
