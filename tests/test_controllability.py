import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from covsteer import controllability
from covsteer.controllability import (
    ExpIntegralWeight,
    ScalarSteeringProblem,
    _At,
    _layer_entries,
    _rank,
    canonical_chain_pair,
    canonical_transform,
    classify,
    construct_feasible_steering,
    scalar_steering_u,
    theta_matrices,
)
from covsteer.errors import (
    InfeasibleConstructionError,
    IntegrationFailureError,
    NotControllableError,
    PreconditionError,
)
from covsteer.matfun import BoundaryData, MatrixPoly
from covsteer.sde_sim import NoiseComponent, NoiseModel, SimulationConfig

from helpers import (
    const,
    example_system,
    make_system,
    random_controllable_system,
    random_spd,
    s1,
    uncontrollable_pair,
)


def zero_input_system(n=2):
    return make_system(n, 1, 1, np.zeros((n, n)), np.zeros((n, 1)),
                       np.eye(n)[:, :1], [[1.0]], [[0.0]], np.zeros((n, n)),
                       [[1.0]])


def test_theta_scalar_integrator():
    thetas = theta_matrices(s1(), 0.5, 2)
    assert_allclose(thetas[0], [[1.0]])
    assert_allclose(thetas[1], [[1.0, 0.0]])


def test_theta_worked_pair():
    thetas = theta_matrices(example_system(), 0.0, 2)
    assert_allclose(thetas[0], [[0.0], [1.0]])
    assert_allclose(thetas[1], [[0.0, -1.0], [1.0, 0.0]])
    assert np.linalg.matrix_rank(thetas[1]) == 2


def test_theta_time_varying_input():
    sys = make_system(2, 1, 1, np.zeros((2, 2)),
                      MatrixPoly.from_entries([[[0.0, 1.0]], [[1.0]]]),
                      [[1.0], [0.0]], [[1.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])
    for t in (0.0, 0.4, 1.0):
        theta2 = theta_matrices(sys, t, 2)[1]
        assert_allclose(theta2, [[t, 1.0], [1.0, 0.0]])
        assert np.linalg.matrix_rank(theta2) == 2


def test_classify_worked_pair():
    rep = classify(example_system())
    assert rep.uniformly_controllable
    assert rep.totally_controllable
    assert rep.index_invariant
    assert len(rep.witnesses) == len(rep.grid_times)


def test_classify_zero_input():
    rep = classify(zero_input_system())
    assert not rep.uniformly_controllable
    assert not rep.totally_controllable
    assert all(r == (0, 0, 0) for r in rep.theta_ranks)


def test_classify_refuses_grids_it_cannot_probe():
    # Grids below two points: test_steering.py::test_grid_below_two_points_is_rejected.
    sys = uncontrollable_pair()
    assert not classify(sys).totally_controllable
    with pytest.raises(ValueError, match="probes_per_subinterval must be at least 1"):
        classify(sys, probes_per_subinterval=0)


def test_classify_time_varying_input_uniform():
    sys = make_system(2, 1, 1, np.zeros((2, 2)),
                      MatrixPoly.from_entries([[[0.0, 1.0]], [[1.0]]]),
                      [[1.0], [0.0]], [[1.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])
    assert classify(sys).uniformly_controllable


PROBE_GRIDS = [(101, 10), (11, 3), (3, 2)]


def _probe_times(grid_size, probes):
    times = np.linspace(0.0, 1.0, grid_size)
    return np.linspace(times[:-1], times[1:], probes + 2, axis=1)[:, 1:-1]


def _check_lazy_probing(sys, grid_size, probes):
    """classify's verdict against every probe rank, evaluated here; returns it.

    The report must equal exhaustive probing, and classify must take the rank
    of each subinterval's probes in time order up to its first full rank.
    """
    n = sys.n
    full = _rank(theta_matrices(sys, _probe_times(grid_size, probes), n)[-1]) == n
    taken = []

    def counted(mat, rtol=controllability.RANK_RTOL):
        taken.append(int(np.prod(mat.shape[:-2])))
        return _rank(mat, rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controllability, "_rank", counted)
        report = classify(sys, grid_size=grid_size, probes_per_subinterval=probes)
    assert report.totally_controllable == bool(np.all(np.any(full, axis=1)))
    read = np.where(full.any(axis=1), full.argmax(axis=1) + 1, probes)
    assert sum(taken) == grid_size * (n + 1) + read.sum()
    return report.totally_controllable


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), grid=st.sampled_from(PROBE_GRIDS))
def test_lazy_probing_matches_exhaustive_on_random_systems(seed, n, grid):
    _check_lazy_probing(random_controllable_system(np.random.default_rng(seed), n), *grid)


def _chain_with_input(entries):
    """The 2-state chain x1' = x2 with input column [0; b(t)], b from ascending coefficients."""
    return make_system(2, 1, 1, [[0.0, 1.0], [0.0, 0.0]],
                       MatrixPoly.from_entries([[[0.0]], [list(entries)]]),
                       [[1.0], [0.0]], [[1.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])


@pytest.mark.parametrize("grid", PROBE_GRIDS)
def test_lazy_probing_matches_exhaustive_where_the_input_loses_rank(grid):
    probe = _probe_times(*grid)
    mid = probe[len(probe) // 2]
    # Theta_2 = [[0, -b], [b, b']] loses rank where b = 0.
    assert _check_lazy_probing(_chain_with_input([-0.5, 1.0]), *grid)
    # Rank lost at the middle subinterval's first probe: its second certifies it.
    assert _check_lazy_probing(_chain_with_input([-mid[0], 1.0]), *grid)
    # Rank lost at every probe of the middle subinterval, and nowhere else; ten
    # roots 1e-3 apart would leave b' at its roots below b's rounding.
    if grid[1] <= 3:
        assert not _check_lazy_probing(_chain_with_input(P.polyfromroots(mid)), *grid)
    assert not _check_lazy_probing(uncontrollable_pair(), *grid)
    assert not _check_lazy_probing(zero_input_system(), *grid)
    assert not _check_lazy_probing(make_system(1, 1, 1, [[0.0]], [[0.0]], [[1.0]], [[1.0]],
                                               [[0.0]], [[0.0]], [[1.0]]), *grid)


def test_theta_rank_equals_kalman_rank_constant_pairs():
    rng = np.random.default_rng(83)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 1))
        sys = make_system(n, 1, 1, a, b, np.eye(n)[:, :1], [[1.0]], [[0.0]],
                          np.zeros((n, n)), [[1.0]])
        kalman = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        want = np.linalg.matrix_rank(kalman)
        for t in (0.0, 0.5, 1.0):
            theta_n = theta_matrices(sys, t, n)[n - 1]
            assert np.linalg.matrix_rank(theta_n) == want


def test_canonical_transform_fixed_point():
    a2, b2 = canonical_chain_pair(2)
    t_mat, f, v = canonical_transform(a2, b2)
    assert_allclose(t_mat, np.eye(2), atol=1e-12)
    assert_allclose(f, np.zeros((1, 2)), atol=1e-12)
    assert_allclose(v, [1.0])


def test_canonical_transform_worked_pair():
    a = np.array([[-2.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    a2, b2 = canonical_chain_pair(2)
    t_mat, f, v = canonical_transform(a, b)
    r1 = np.max(np.abs(t_mat @ (a + b @ f) @ np.linalg.inv(t_mat) - a2))
    r2 = np.max(np.abs(t_mat @ (b @ v[:, None]) - b2))
    assert r1 <= 1e-9 and r2 <= 1e-9


def test_canonical_transform_scalar():
    t_mat, f, v = canonical_transform(np.array([[3.0]]), np.array([[2.0]]))
    assert abs(t_mat[0, 0] * (3.0 + 2.0 * f[0, 0]) / t_mat[0, 0]) <= 1e-12
    assert abs(t_mat[0, 0] * 2.0 * v[0] - 1.0) <= 1e-12


def test_canonical_transform_rejects_uncontrollable():
    with pytest.raises(NotControllableError):
        canonical_transform(np.eye(2), np.zeros((2, 1)))


def test_canonical_transform_takes_a_single_input_column():
    a = np.array([[-2.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    for got, want in zip(canonical_transform(a, b[:, 0]), canonical_transform(a, b)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("call,error,message", [
    (lambda: theta_matrices(example_system(), 0.0, max_index=4), ValueError,
     r"max_index must lie in 1\.\.n\+1"),
    (lambda: ScalarSteeringProblem(f=lambda t: 1.0, gamma=1.0, alpha=(0.0, 0.0), beta=(1.0,),
                                   rho=lambda t: -1.0), ValueError,
     "alpha and beta must list the same orders"),
    (lambda: construct_feasible_steering(
        np.eye(4, k=1), np.eye(4)[:, -1:], BoundaryData(sigma0=np.eye(4), sigma1=np.eye(4)),
        const(np.eye(4)), const([[0.0]])), PreconditionError, "limited to n <= 3"),
    (lambda: construct_feasible_steering(
        *canonical_chain_pair(2), BoundaryData(sigma0=np.eye(3), sigma1=np.eye(3)),
        const(np.eye(2)), const([[0.0]])), PreconditionError, "boundary data dimension"),
    (lambda: construct_feasible_steering(
        *canonical_chain_pair(2), BoundaryData(sigma0=np.eye(2), sigma1=np.eye(2)),
        const(np.eye(3)), const([[0.0]])), PreconditionError, "M must be n x n"),
    (lambda: NoiseComponent(kind="wiener", rate=const(np.eye(2))), ValueError,
     "component rate must be a scalar polynomial"),
    (lambda: NoiseModel(additive=(), multiplicative=(
        NoiseComponent(kind="wiener", rate=const([[1.0]]), channel=0),)), ValueError,
     "multiplicative components carry no channel"),
    (lambda: SimulationConfig(num_paths=0, sigma0=np.eye(2)), ValueError,
     "num_paths must be at least 1"),
], ids=["theta-max-index", "alpha-beta-lengths", "construct-n4", "construct-boundary",
        "construct-M", "component-rate-shape", "multiplicative-channel", "no-paths"])
def test_library_inputs_are_refused_with_their_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_canonical_image_is_uniformly_controllable():
    rng = np.random.default_rng(89)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2))
    t_mat, f, v = canonical_transform(a, b)
    a_new = t_mat @ (a + b @ f) @ np.linalg.inv(t_mat)
    b_new = t_mat @ b @ v[:, None]
    sys = make_system(3, 1, 1, a_new, b_new, np.eye(3)[:, :1], [[1.0]],
                      [[0.0]], np.zeros((3, 3)), [[1.0]])
    assert classify(sys, grid_size=11).uniformly_controllable


def test_scalar_steering_parabola():
    u = scalar_steering_u(ScalarSteeringProblem(
        f=lambda t: 1.0, gamma=1.0, alpha=(0.0,), beta=(0.0,), rho=lambda t: -1.0))
    assert_allclose(u.poly, [0.0, 6.0, -6.0], atol=1e-12)  # 6 t (1 - t)
    assert u.d0 == 0.0
    assert u.verification["integral_residual"] <= 1e-9


def test_scalar_steering_zero_case():
    u = scalar_steering_u(ScalarSteeringProblem(
        f=lambda t: 1.0, gamma=0.0, alpha=(0.0,), beta=(0.0,), rho=lambda t: -1.0))
    assert np.max(np.abs(u.poly)) <= 1e-12


def test_scalar_steering_first_order_data():
    # Boundary data of orders 0..H for H = 1, 2, 3: the Hermite polynomial
    # meets every order at both ends.
    for alpha, beta in (((0.0, 1.0), (0.0, -1.0)),
                        ((0.5, 1.0, -2.0), (0.3, -1.0, 4.0)),
                        ((1.0, 0.5, -2.0, 6.0), (-0.5, 2.0, 1.0, -3.0))):
        u = scalar_steering_u(ScalarSteeringProblem(
            f=lambda t: 1.0, gamma=0.0, alpha=alpha, beta=beta, rho=lambda t: -1.0))
        for order, (at_0, at_1) in enumerate(zip(alpha, beta)):
            assert abs(u.derivative(0.0, order) - at_0) <= 1e-9
            assert abs(u.derivative(1.0, order) - at_1) <= 1e-9
        assert u.verification["integral_residual"] <= 1e-9


def test_running_integral_refuses_a_kinked_weight():
    # The running integral interpolates the weight by Chebyshev polynomials,
    # which a kink leaves unresolved through degree 256; the integral target
    # itself converges (the kink sits on a panel end).
    with pytest.raises(IntegrationFailureError, match="weight not resolved"):
        scalar_steering_u(ScalarSteeringProblem(
            f=lambda t: 1.0 + np.abs(t - 0.5), gamma=1.0, alpha=(0.0,), beta=(0.0,),
            rho=lambda t: -1.0))


def test_running_integral_of_a_control_with_cancelling_terms():
    # This H = 4 control has monomial coefficients near 1e3 that cancel, so
    # its rounding is above 1e-13 of its size: a running integral that
    # interpolated f u, not the weight alone, would find no resolving degree.
    u = scalar_steering_u(ScalarSteeringProblem(
        f=lambda t: 1.0, gamma=-0.62, alpha=(-3.8, 0.81, 0.47, -0.56, -7.55),
        beta=(-1.62, -0.15, 0.34, -4.59, -1.43), rho=lambda t: -1.0))
    assert u.verification["integral_residual"] <= 1e-12
    assert np.max(np.abs(u.poly)) >= 1e3


def test_running_integral_meets_the_gate_on_a_steep_weight():
    # f = exp(20 (1 - t)) spans more than eight decades over the horizon.
    u = scalar_steering_u(ScalarSteeringProblem(
        f=ExpIntegralWeight((10.0,)), gamma=1.0, alpha=(0.0,), beta=(0.0,),
        rho=lambda t: -1.0))
    assert u.verification["integral_residual"] <= 1e-9
    assert abs(u.poly_integral(1.0) - 1.0) <= 1e-9


def test_scalar_steering_needs_bump():
    # Floor pokes above the polynomial's running integral mid-horizon.
    def rho(t):
        return 0.05 * np.exp(-((t - 0.5) ** 2) / 0.01) - 0.02

    u = scalar_steering_u(ScalarSteeringProblem(
        f=lambda t: 1.0, gamma=0.0, alpha=(0.0,), beta=(0.0,), rho=rho))
    assert u.d0 > 0.0
    assert u.verification["floor_margin"] > 0.0


def test_bump_derivatives_with_plain_weight_only_where_bump_vanishes():
    # A plain callable weight has no exact log-derivative, so the bump's
    # derivatives are known only where the bump is zero: at both ends.
    u = scalar_steering_u(ScalarSteeringProblem(
        f=lambda t: 1.0, gamma=0.0, alpha=(0.0,), beta=(0.0,),
        rho=lambda t: 0.05 * np.exp(-((t - 0.5) ** 2) / 0.01) - 0.02))
    assert u.d0 > 0.0
    for order in (1, 2):
        poly_d = P.polyder(u.poly, order)
        assert u.derivative(0.0, order) == P.polyval(0.0, poly_d)
        assert np.array_equal(u.derivative(np.array([0.0, 1.0]), order),
                              P.polyval([0.0, 1.0], poly_d))
    for t in (0.5, np.array([0.0, 0.5])):
        with pytest.raises(ValueError, match="exact log-derivative"):
            u.derivative(t, 1)


def test_scalar_steering_infeasible_floor():
    with pytest.raises(InfeasibleConstructionError):
        scalar_steering_u(ScalarSteeringProblem(
            f=lambda t: 1.0, gamma=0.0, alpha=(0.0,), beta=(0.0,),
            rho=lambda t: np.where((t == 0.0) | (t == 1.0), -1e-9, 1e7)))


def test_scalar_steering_rejects_unconverged_integral():
    # |t - 0.3|^(-1/2) is integrable, but no panel refinement resolves it
    # (a node even lands on the pole), so the integral target cannot be met.
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(IntegrationFailureError):
        scalar_steering_u(ScalarSteeringProblem(
            f=lambda t: np.abs(t - 0.3) ** -0.5, gamma=1.0, alpha=(0.0,),
            beta=(0.0,), rho=lambda t: -1.0))


@pytest.mark.parametrize("gamma", [1e3, 1e6])
@pytest.mark.parametrize("weight", [lambda t: 1.0, ExpIntegralWeight((0.3, -0.2))],
                         ids=["unit", "exp"])
def test_scalar_steering_large_integral_converges(gamma, weight):
    # A weighted integral of size gamma meets a tolerance relative to it; an
    # absolute one alone stalls at its rounding error.
    u = scalar_steering_u(ScalarSteeringProblem(
        f=weight, gamma=gamma, alpha=(gamma,), beta=(gamma,), rho=lambda t: -1.0))
    assert u.verification["integral_residual"] <= 1e-9 * gamma
    assert abs(u.value(0.0) - gamma) <= 1e-12 * gamma
    assert abs(u.value(1.0) - gamma) <= 1e-12 * gamma


def test_scalar_steering_checks_its_running_integral(monkeypatch):
    # Both weighted integrals read 1e-6 high, so c0 = (1 - 1e-6) / (1/6 + 1e-6)
    # and the running integral ends at (1 - 1e-6) / (1 + 6e-6), 7e-6 short.
    gk = controllability.adaptive_gk

    def high(*args, **kwargs):
        integral, *rest = gk(*args, **kwargs)
        return (integral + 1e-6, *rest)

    monkeypatch.setattr(controllability, "adaptive_gk", high)
    with pytest.raises(IntegrationFailureError,
                       match=r"running integral misses its target by 7\.000e-06"):
        scalar_steering_u(ScalarSteeringProblem(
            f=lambda t: 1.0, gamma=1.0, alpha=(0.0,), beta=(0.0,), rho=lambda t: -1.0))


def test_construct_checks_its_endpoints(monkeypatch):
    canonical = controllability._canonical
    monkeypatch.setattr(controllability, "_canonical", lambda *args: canonical(*args) + 1e-3)
    bd = BoundaryData(sigma0=[[1.0]], sigma1=[[1.0]])
    with pytest.raises(IntegrationFailureError, match=r"constructed trajectory misses the "
                       r"endpoints \(1\.000e-03, 1\.000e-03\)"):
        construct_feasible_steering(np.array([[0.0]]), np.array([[1.0]]), bd,
                                    const([[1.0]]), const([[0.0]]))


def test_scalar_steering_hypothesis_check():
    with pytest.raises(PreconditionError):
        scalar_steering_u(ScalarSteeringProblem(
            f=lambda t: 1.0, gamma=0.0, alpha=(0.0,), beta=(0.0,),
            rho=lambda t: 1.0))


TIMES = np.linspace(0.0, 1.0, 1001)  # where the construction tests sample its maps


def test_construct_n1_balanced():
    bd = BoundaryData(sigma0=[[1.0]], sigma1=[[1.0]])
    fs = construct_feasible_steering(np.array([[0.0]]), np.array([[1.0]]), bd,
                                     const([[1.0]]), const([[0.0]]))
    assert max(fs.endpoint_errors) <= 1e-6
    us = fs.control(TIMES)[:, 0, 0]
    assert abs(np.trapezoid(2.0 * us, TIMES) + 1.0) <= 1e-3
    assert np.min(fs.covariance(TIMES)[:, 0, 0]) > 0.0


def test_construct_n1_drift_reaches_target():
    # Sigma0 + int M already equals Sigma1, so the control integral vanishes.
    bd = BoundaryData(sigma0=[[1.0]], sigma1=[[2.0]])
    fs = construct_feasible_steering(np.array([[0.0]]), np.array([[1.0]]), bd,
                                     const([[1.0]]), const([[0.0]]))
    us = fs.control(TIMES)[:, 0, 0]
    assert abs(np.trapezoid(us, TIMES)) <= 1e-3
    assert max(fs.endpoint_errors) <= 1e-6


def _reintegrate(a, b, m_fn, nu_fn, gain, sigma0):
    n = a.shape[0]

    def rhs(t, y):
        s = y.reshape(n, n)
        acl = a + b @ gain(t)
        ds = acl @ s + s @ acl.T + m_fn(t) + 2.0 * nu_fn(t) * s
        return ds.reshape(-1)

    sol = solve_ivp(rhs, (0.0, 1.0), np.asarray(sigma0, float).reshape(-1),
                    method="RK45", rtol=1e-10, atol=1e-12)
    assert sol.success
    return sol.y[:, -1].reshape(n, n)


def test_construct_n2_verified_by_reintegration():
    a2, b2 = canonical_chain_pair(2)
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([2.0, 1.0]))
    fs = construct_feasible_steering(a2, b2, bd, const(np.eye(2)), const([[0.0]]))
    assert max(fs.endpoint_errors) <= 1e-6
    assert np.min(np.linalg.eigvalsh(fs.covariance(TIMES))) > 0.0
    sigma1 = _reintegrate(a2, b2, lambda t: np.eye(2), lambda t: 0.0,
                          fs.gain, np.eye(2))
    assert np.max(np.abs(sigma1 - bd.sigma1)) <= 1e-6


def test_construct_n3_with_time_varying_rate():
    a3, b3 = canonical_chain_pair(3)
    bd = BoundaryData(sigma0=np.eye(3), sigma1=np.diag([1.5, 0.8, 1.2]))
    nu = MatrixPoly.from_entries([[[0.1, 0.2]]])
    fs = construct_feasible_steering(a3, b3, bd, const(np.eye(3)), nu)
    assert max(fs.endpoint_errors) <= 1e-6
    assert np.min(np.linalg.eigvalsh(fs.covariance(TIMES))) > 0.0
    sigma1 = _reintegrate(a3, b3, lambda t: np.eye(3), lambda t: 0.1 + 0.2 * t,
                          fs.gain, np.eye(3))
    assert np.max(np.abs(sigma1 - bd.sigma1)) <= 1e-6


@pytest.fixture(scope="module")
def time_varying_rate_steering():
    a3, b3 = canonical_chain_pair(3)
    bd = BoundaryData(sigma0=np.eye(3), sigma1=np.diag([1.5, 0.8, 1.2]))
    return construct_feasible_steering(a3, b3, bd, const(np.eye(3)),
                                       MatrixPoly.from_entries([[[0.1, 0.2]]]))


def test_time_varying_rate_endpoints(time_varying_rate_steering):
    # At t = 1 the closed-form corner misses its target only by the control's
    # running-integral residual.
    assert max(time_varying_rate_steering.endpoint_errors) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(ts=st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-3),
                             st.floats(1.0 - 1e-3, 1.0)), min_size=1, max_size=12))
def test_batched_steering_maps_match_per_time(time_varying_rate_steering, ts):
    fs = time_varying_rate_steering
    # Both ends, a repeated time, and times within 1e-3 of each end, where the
    # bump underflows to zero, are always present.
    times = np.array(ts + [0.0, 1.0, 2e-4, 1.0 - 5e-4] + ts[:1])
    for fn in (fs.gain, fs.covariance, fs.control):
        single = np.stack([fn(t) for t in times])
        batched = fn(times)
        assert batched.shape == single.shape
        assert np.max(np.abs(batched - single)) <= 1e-13 * max(1.0, np.max(np.abs(single)))


def test_entry_towers_match_central_difference():
    # The time-varying-rate instance in canonical coordinates: the chain
    # pair's canonical transform is the identity.
    entries, packed, _ = _layer_entries(
        np.eye(3), np.diag([1.5, 0.8, 1.2]), const(np.eye(3)),
        MatrixPoly.from_entries([[[0.1, 0.2]]]).entry(), 0)
    times = np.linspace(0.05, 0.95, 19)
    h = 1e-3
    for key in [(i, j) for i in range(1, 4) for j in range(i, 4)]:
        tower = _At(packed, times).tower(entries[key], 1)
        assert tower.shape == (2, 19)
        vals = [_At(packed, times + s * h).tower(entries[key], 0)[0] for s in (-2, -1, 1, 2)]
        central = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        # The corners' closed-form values against their equation-chained
        # order-1 towers: their gaps are at most 3e-9.  The largest gap, about
        # 1e-8 on layer 2's control, whose tower is exact, is the difference
        # quotient's own error.
        assert np.max(np.abs(central - tower[1])) <= 1e-6 * max(1.0, np.max(np.abs(tower[1])))


def test_construct_general_pair_via_transform():
    a = np.array([[-2.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.5, 1.5]))
    fs = construct_feasible_steering(a, b, bd, const(np.eye(2)), const([[0.3]]),
                                     h_order=1)
    assert max(fs.endpoint_errors) <= 1e-6
    sigma1 = _reintegrate(a, b, lambda t: np.eye(2), lambda t: 0.3,
                          fs.gain, np.eye(2))
    assert np.max(np.abs(sigma1 - bd.sigma1)) <= 1e-6


def test_construct_rejects_uncontrollable():
    with pytest.raises(NotControllableError):
        construct_feasible_steering(np.eye(2), np.zeros((2, 1)),
                                    BoundaryData(sigma0=np.eye(2), sigma1=np.eye(2)),
                                    const(np.eye(2)), const([[0.0]]))


def test_closed_loop_positivity_random_gains():
    # Bounded feedback keeps the covariance positive definite throughout.
    rng = np.random.default_rng(97)
    sys = example_system()
    a_fn = sys.A.eval
    b_fn = sys.B.eval
    m_fn = lambda t: sys.C.eval(t) @ sys.D.eval(t) @ sys.C.eval(t).T
    nu_fn = lambda t: float(sys.nu.eval(t)[0, 0])
    for _ in range(10):
        k_const = 2.0 * rng.standard_normal((1, 2))

        def rhs(t, y):
            s = y.reshape(2, 2)
            acl = a_fn(t) + b_fn(t) @ k_const
            ds = acl @ s + s @ acl.T + m_fn(t) + 2.0 * nu_fn(t) * s
            return ds.reshape(-1)

        sol = solve_ivp(rhs, (0.0, 1.0), random_spd(rng, 2).reshape(-1),
                        method="RK45", rtol=1e-9, atol=1e-11,
                        t_eval=np.linspace(0.0, 1.0, 21))
        assert sol.success
        for col in sol.y.T:
            assert np.min(np.linalg.eigvalsh(col.reshape(2, 2))) > 0.0
