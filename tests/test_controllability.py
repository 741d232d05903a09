import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from covsteer.controllability import (
    ExpIntegralWeight,
    ScalarSteeringProblem,
    _At,
    _layer_entries,
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

from helpers import const, make_system, random_spd, s1, example_system


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


def test_classify_time_varying_input_uniform():
    sys = make_system(2, 1, 1, np.zeros((2, 2)),
                      MatrixPoly.from_entries([[[0.0, 1.0]], [[1.0]]]),
                      [[1.0], [0.0]], [[1.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])
    assert classify(sys).uniformly_controllable


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
    u = scalar_steering_u(ScalarSteeringProblem(
        f=lambda t: 1.0, gamma=0.0, alpha=(0.0, 1.0), beta=(0.0, -1.0),
        rho=lambda t: -1.0))
    assert abs(u.value(0.0)) <= 1e-9
    assert abs(u.derivative(0.0, 1) - 1.0) <= 1e-9
    assert abs(u.value(1.0)) <= 1e-9
    assert abs(u.derivative(1.0, 1) + 1.0) <= 1e-9
    assert u.verification["integral_residual"] <= 1e-9


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


def test_scalar_steering_hypothesis_check():
    with pytest.raises(PreconditionError):
        scalar_steering_u(ScalarSteeringProblem(
            f=lambda t: 1.0, gamma=0.0, alpha=(0.0,), beta=(0.0,),
            rho=lambda t: 1.0))


def test_construct_n1_balanced():
    bd = BoundaryData(sigma0=[[1.0]], sigma1=[[1.0]])
    fs = construct_feasible_steering(np.array([[0.0]]), np.array([[1.0]]), bd,
                                     const([[1.0]]), const([[0.0]]))
    assert max(fs.endpoint_errors) <= 1e-6
    us = np.array([u[1][0, 0] for u in fs.u_grid])
    assert abs(np.trapezoid(2.0 * us, fs.times) + 1.0) <= 1e-3
    assert min(s[1][0, 0] for s in fs.sigma_grid) > 0.0


def test_construct_n1_drift_reaches_target():
    # Sigma0 + int M already equals Sigma1, so the control integral vanishes.
    bd = BoundaryData(sigma0=[[1.0]], sigma1=[[2.0]])
    fs = construct_feasible_steering(np.array([[0.0]]), np.array([[1.0]]), bd,
                                     const([[1.0]]), const([[0.0]]))
    us = np.array([u[1][0, 0] for u in fs.u_grid])
    assert abs(np.trapezoid(us, fs.times)) <= 1e-3
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
    assert min(np.min(np.linalg.eigvalsh(s)) for _, s in fs.sigma_grid) > 0.0
    sigma1 = _reintegrate(a2, b2, lambda t: np.eye(2), lambda t: 0.0,
                          fs.gain, np.eye(2))
    assert np.max(np.abs(sigma1 - bd.sigma1)) <= 1e-6


def test_construct_n3_with_time_varying_rate():
    a3, b3 = canonical_chain_pair(3)
    bd = BoundaryData(sigma0=np.eye(3), sigma1=np.diag([1.5, 0.8, 1.2]))
    nu = MatrixPoly.from_entries([[[0.1, 0.2]]])
    fs = construct_feasible_steering(a3, b3, bd, const(np.eye(3)), nu)
    assert max(fs.endpoint_errors) <= 1e-6
    assert min(np.min(np.linalg.eigvalsh(s)) for _, s in fs.sigma_grid) > 0.0
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
