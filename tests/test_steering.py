from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from covsteer import _quad, steering
from covsteer._quad import _WK, _XK, adaptive_gk
from covsteer.errors import (
    ChannelMismatchError,
    IntegrationFailureError,
    NoConvergenceError,
    PreconditionError,
    RiccatiNonexistenceError,
    SingularTransitionError,
)
from covsteer.controllability import classify
from covsteer.matfun import BoundaryData, symmetrize, unvec, validate_system, vec
from covsteer.steering import (
    MAX_PASSES,
    NEWTON_TOL,
    QUAD_ATOL,
    QUAD_RTOL,
    feedback_gain,
    jacobian_f,
    map_f,
    optimal_cost,
    propagate_covariance,
    solve_boundary,
    special_case_pi0,
)
from covsteer.riccati import closed_form_on_path, integrate_general
from covsteer.transition import TransitionPath, _phi_pi, transition_blocks

from helpers import (
    const,
    lyapunov_oracle,
    random_admissible_pi0,
    random_controllable_system,
    random_spd,
    riccati_rhs,
    s1,
    example_system,
    uncontrollable_pair,
)

P_STAR = (3.0 - np.sqrt(3.0)) / 2.0  # root of (1-p)^2 + (1-p) = 1/2
WORKED_TARGET = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.3, 0.2]))


def _count_jacobian_passes(monkeypatch, fail_at=None, error=None):
    """Record the Pi0 of every jacobian_f pass; pass number fail_at raises error."""
    points = []
    real = steering.jacobian_f

    def counted(sys, sigma0, pi0, **kwargs):
        points.append(np.array(pi0, dtype=float))
        if len(points) == fail_at:
            raise error
        return real(sys, sigma0, pi0, **kwargs)

    monkeypatch.setattr(steering, "jacobian_f", counted)
    return points


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
    g, (_, p12, _, _) = _phi_pi(ws.path, ws.pi0, ws.nodes)
    w_s = symmetrize(np.linalg.solve(g, p12))
    assert np.all(np.max(np.linalg.eigvalsh(w_s[ws.nodes > 1e-8]), axis=1) < 0.0)
    assert np.min(np.linalg.eigvalsh(symmetrize(ws.p_nodes))) > -1e-10
    # S is negative definite on the symmetric subspace.
    for _ in range(100):
        x = symmetrize(rng.standard_normal((2, 2)))
        if np.linalg.norm(x) < 1e-12:
            continue
        assert vec(x) @ ws.S @ vec(x) < 0.0


def test_jacobian_reports_quadrature_saturation(monkeypatch):
    # Next to the admissibility boundary the transported noise spikes near
    # t = 1 and 400 panels no longer reach the quadrature tolerance.  Each
    # integrand call bisects every panel above its share of the tolerance,
    # so the pass reaches the cap in a few dozen calls, not one per panel.
    rng = np.random.default_rng(73)
    sys = random_controllable_system(rng, 2)
    b = transition_blocks(sys, 1.0, 0.0)
    upper = symmetrize(-np.linalg.solve(b.phi12, b.phi11))
    inside = jacobian_f(sys, np.eye(2), upper - 1e-2 * np.eye(2))
    calls = []
    real_panels = _quad._panels
    monkeypatch.setattr(_quad, "_panels", lambda *args: calls.append(1) or real_panels(*args))
    edge = jacobian_f(sys, np.eye(2), upper - 1e-8 * np.eye(2))
    monkeypatch.setattr(_quad, "_panels", real_panels)
    assert not inside.saturated
    assert edge.saturated and len(edge.edges) - 1 == 400 and len(edge.nodes) == 15 * 400
    assert len(calls) <= 32
    assert np.all(np.diff(edge.nodes) > 0.0) and 0.0 < edge.nodes[0] and edge.nodes[-1] < 1.0
    assert edge.quad_error > 1e3 * inside.quad_error
    # map_f reads the same saturated pass; the unconverged value is refused,
    # not returned.
    with pytest.raises(IntegrationFailureError, match="saturated"):
        map_f(sys, np.eye(2), upper - 1e-8 * np.eye(2))


def test_newton_refuses_a_converged_saturated_pass(monkeypatch):
    # A converged residual read from a saturated quadrature is not accepted.
    real = steering.jacobian_f
    monkeypatch.setattr(steering, "jacobian_f", lambda *args, **kwargs: replace(
        real(*args, **kwargs), saturated=True))
    with pytest.raises(IntegrationFailureError, match="saturated quadrature"):
        solve_boundary(example_system(), WORKED_TARGET)


def _p_integral(ws):
    """The pass's Kronrod sum of the transported noise P over its panels."""
    half = 0.5 * np.diff(ws.edges)
    p = ws.p_nodes.reshape(len(half), len(_WK), -1)
    return np.einsum("k,j,kjd->d", half, _WK, p)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3))
def test_warm_started_pass_agrees_with_a_cold_pass(seed, n):
    # A pass started from the panels of a pass at a nearby Pi0' is a
    # quadrature of the same integrals on a finer mesh: P's integral, the
    # map value and the Jacobian agree with a pass from [0, 1] within the
    # two passes' error estimates (f and jac carry them through the
    # PhiPi(1,0) factors on both sides).  Pi0' sits 0.02 below the bound,
    # where P needs more panels near t = 1 than at Pi0, so the two meshes
    # often differ.
    rng = np.random.default_rng(seed)
    sys = random_controllable_system(rng, n)
    sigma0 = random_spd(rng, n)
    near = random_admissible_pi0(rng, sys, margin=0.02)
    step = symmetrize(rng.standard_normal((n, n)))
    pi0 = near - 0.1 * np.eye(n) + 0.05 * step / np.linalg.norm(step, 2)
    start = jacobian_f(sys, sigma0, near)
    warm = jacobian_f(sys, sigma0, pi0, path=start.path, start=start)
    cold = jacobian_f(sys, sigma0, pi0, path=start.path)
    assert not (start.saturated or warm.saturated or cold.saturated)
    assert set(start.edges) <= set(warm.edges)
    assert np.array_equal(warm.upper_bound, cold.upper_bound)
    errors = warm.quad_error + cold.quad_error
    gain = np.linalg.norm(_phi_pi(start.path, pi0, 1.0)[0], np.inf) ** 2
    assert np.max(np.abs(_p_integral(warm) - _p_integral(cold))) <= errors
    assert np.max(np.abs(warm.f_value - cold.f_value)) <= errors * gain
    assert np.max(np.abs(warm.jac - cold.jac)) <= errors * gain


def test_a_start_pass_lends_its_bound_and_unsaturated_panels():
    rng = np.random.default_rng(73)
    sys = random_controllable_system(rng, 2)
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    upper = steering._upper_bound_10(path)
    inside = jacobian_f(sys, np.eye(2), upper - 1e-2 * np.eye(2), path=path)
    assert np.array_equal(inside.upper_bound, upper)
    # A saturated start seeds no panels: the pass is the one from [0, 1].
    edge = jacobian_f(sys, np.eye(2), upper - 1e-8 * np.eye(2), path=path)
    assert edge.saturated and np.array_equal(edge.upper_bound, upper)
    seeded = jacobian_f(sys, np.eye(2), inside.pi0, path=path, start=edge)
    for field in ("edges", "nodes", "p_nodes", "S", "jac", "f_value", "quad_error",
                  "saturated", "upper_bound"):
        assert np.array_equal(getattr(seeded, field), getattr(inside, field)), field
    # A start read on another path, even an equal one, is refused.
    other = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    with pytest.raises(PreconditionError, match="another path"):
        jacobian_f(sys, np.eye(2), inside.pi0, path=other, start=inside)


def test_a_start_pass_from_another_system_is_refused():
    # Its path carries the other system's PhiPi: the pass would mix it with
    # this system's C D C' (f = [[1.175, 2.668], [2.668, 8.605]] against
    # the true [[18.681, -9.460], [-9.460, 7.758]]).
    sys = random_controllable_system(np.random.default_rng(5), 2)
    start = jacobian_f(example_system(), np.eye(2), -np.eye(2))
    assert_allclose(jacobian_f(sys, np.eye(2), -np.eye(2)).f_value,
                    [[18.681, -9.460], [-9.460, 7.758]], atol=1e-3)
    with pytest.raises(PreconditionError, match="another system"):
        jacobian_f(sys, np.eye(2), -np.eye(2), start=start)


def test_newton_passes_start_from_the_accepted_panels(monkeypatch):
    # Newton's points lie close together, so a pass started from the
    # accepted pass's panels needs one batched integrand call (measured: 1
    # on every pass here); a pass from [0, 1] needs a few rounds of
    # bisection on this target (measured: 4).
    calls = []
    real_panels, real_jacobian = _quad._panels, steering.jacobian_f

    def counted_panels(*args):
        calls[-1] += 1
        return real_panels(*args)

    def counted_pass(*args, **kwargs):
        calls.append(0)
        monkeypatch.setattr(_quad, "_panels", counted_panels)
        try:
            return real_jacobian(*args, **kwargs)
        finally:
            monkeypatch.setattr(_quad, "_panels", real_panels)

    monkeypatch.setattr(steering, "jacobian_f", counted_pass)
    sol = solve_boundary(example_system(), WORKED_TARGET)
    assert sol.residual <= NEWTON_TOL and len(calls) > 2
    assert calls[0] > 2 and max(calls[1:]) <= 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_pass_integrates_only_p_and_the_jacobian_part(monkeypatch, n):
    # n^2 columns of P and n^4 of the Kronecker part: every column takes part
    # in the error estimate that sets the mesh, so none goes unread.
    widths = []
    real = steering.adaptive_gk

    def recorded(f, *args, **kwargs):
        def integrand(ts):
            values = f(ts)
            widths.append(values.shape[1:])
            return values

        return real(integrand, *args, **kwargs)

    monkeypatch.setattr(steering, "adaptive_gk", recorded)
    rng = np.random.default_rng(n)
    sys = random_controllable_system(rng, n)
    jacobian_f(sys, random_spd(rng, n), random_admissible_pi0(rng, sys))
    assert widths and set(widths) == {(n * n + n ** 4,)}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), m=st.integers(1, 3),
       decades=st.floats(-150.0, 150.0))
def test_kron_helper_is_np_kron_bit_for_bit(seed, n, m, decades):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 10.0 ** decades
    b = rng.standard_normal((m, m))
    assert steering._kron(a, b).shape == np.kron(a, b).shape
    assert steering._kron(a, b).tobytes() == np.kron(a, b).tobytes()


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


def test_solve_boundary_evaluates_each_transition_value_once(monkeypatch):
    # Phi_M(1, 0) is read by the warm start, by every Newton pass and by the
    # cost, and the output grid by the Pi grid and by Sigma; the path
    # evaluates each of them once.
    evaluated = []
    evaluate = TransitionPath._eval

    def counted(path, ts):
        evaluated.append((path, ts.copy()))
        return evaluate(path, ts)

    monkeypatch.setattr(TransitionPath, "_eval", counted)
    sol = solve_boundary(example_system(), WORKED_TARGET, grid_size=101)
    assert len(sol.newton_trace) > 2  # several passes read Phi_M(1, 0)
    assert len({id(path) for path, _ in evaluated}) == 1
    grid = np.linspace(0.0, 1.0, 101)
    assert sum(np.array_equal(ts, [1.0]) for _, ts in evaluated) == 1
    assert sum(np.array_equal(ts, grid) for _, ts in evaluated) == 1


def test_solve_boundary_reports_non_convergence(monkeypatch):
    # No iterate reaches 1e-30: Newton stalls near rounding level and the
    # solve raises with its trace once the pass budget is spent.
    points = _count_jacobian_passes(monkeypatch)
    with pytest.raises(NoConvergenceError) as info:
        solve_boundary(example_system(), WORKED_TARGET, tol=1e-30)
    err = info.value
    assert 0.0 < err.best_residual <= 1e-8
    assert err.trace and err.trace[-1][1] == err.best_residual
    assert err.trace[0][1] > err.best_residual
    assert len(points) <= MAX_PASSES


def test_newton_reads_each_point_from_one_jacobian_pass(monkeypatch):
    sys = example_system()
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    pi_init = steering._closed_form_pi0(path, WORKED_TARGET)
    points = _count_jacobian_passes(monkeypatch)
    map_calls = []
    monkeypatch.setattr(steering, "map_f", lambda *args, **kwargs: map_calls.append(args))
    ws, rel, trace = steering._newton(steering.jacobian_f(sys, np.eye(2), pi_init, path=path),
                                      WORKED_TARGET.sigma1, NEWTON_TOL)
    assert ws is not None and rel <= NEWTON_TOL and not map_calls
    # The start, then every candidate once: accepted ones are the iterates.
    assert np.array_equal(points[0], pi_init) and np.array_equal(points[-1], ws.pi0)
    assert len({p.tobytes() for p in points}) == len(points)
    assert len(trace) <= len(points) <= MAX_PASSES


@pytest.mark.parametrize("error", [RiccatiNonexistenceError("candidate outside the set"),
                                   np.linalg.LinAlgError("Singular matrix")])
def test_newton_halves_a_candidate_whose_pass_raises(monkeypatch, error):
    want = solve_boundary(example_system(), WORKED_TARGET)
    points = _count_jacobian_passes(monkeypatch, fail_at=2, error=error)
    got = solve_boundary(example_system(), WORKED_TARGET)
    # Pass 2 is the first candidate; its step was halved and the solve went on.
    assert len(points) > len(want.newton_trace)
    assert got.newton_trace[0][2] == 0.5 * want.newton_trace[0][2]
    assert np.max(np.abs(got.pi0 - want.pi0)) <= 1e-10


def test_solve_boundary_refuses_unsupported_inputs():
    sys = example_system()
    channel = replace(sys, general_channels=((const(2.0 * np.eye(2)), const([[0.25]])),))
    with pytest.raises(PreconditionError, match="identity multiplicative"):
        solve_boundary(channel, WORKED_TARGET)
    with pytest.raises(PreconditionError, match="dimension"):
        solve_boundary(sys, BoundaryData(sigma0=np.eye(3), sigma1=np.eye(3)))


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


@pytest.mark.parametrize("reader", [
    lambda sys, bd: special_case_pi0(sys, bd),
    lambda sys, bd: jacobian_f(sys, bd.sigma0, np.diag([-1.0, -1.0])),
    lambda sys, bd: solve_boundary(sys, bd),
], ids=["special_case_pi0", "jacobian_f", "solve_boundary"])
def test_boundary_solve_refuses_a_singular_phi12_10(reader):
    # phi12(1, 0) = diag(-1, 0) on the uncontrollable pair: U10 does not exist.
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.5, 0.5]))
    with pytest.raises(SingularTransitionError, match=r"phi12\(1,0\) numerically singular"):
        reader(uncontrollable_pair(), bd)


def test_special_case_rejects_mismatched_channels():
    with pytest.raises(ChannelMismatchError):
        special_case_pi0(example_system(),
                         BoundaryData(sigma0=np.eye(2), sigma1=np.eye(2)))


def test_propagate_covariance_examples():
    sigmas, tail = propagate_covariance(jacobian_f(s1(), [[1.0]], [[0.0]]), grid_size=11)
    assert sigmas.shape == (11, 1, 1)
    assert np.max(np.abs(sigmas[:, 0, 0] - (1.0 + np.linspace(0.0, 1.0, 11)))) <= 1e-9
    assert 0.0 <= tail <= 1e-7
    sigmas, _ = propagate_covariance(jacobian_f(s1(), [[1.0]], [[0.6339746]]), grid_size=11)
    assert abs(sigmas[-1, 0, 0] - 0.5) <= 1e-7


def test_read_outs_refuse_a_workspace_from_another_point():
    sys, bd = s1(), BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]])
    ws = jacobian_f(sys, bd.sigma0, [[0.0]])
    assert np.array_equal(ws.pi0, [[0.0]])
    sigmas, _ = propagate_covariance(ws, grid_size=11)
    assert np.array_equal(sigmas[-1], map_f(sys, bd.sigma0, [[0.0]]))


def test_read_outs_see_only_the_passs_symmetrized_pi0():
    # jacobian_f drops a skew part of its argument, and the read-outs take
    # Pi0 from the pass alone, so the cost and the Sigma grid at Pi0 + K
    # match those at Pi0 up to the rounding of the symmetrization.
    sys, bd = example_system(), WORKED_TARGET
    pi0 = solve_boundary(sys, bd).pi0
    skew = np.array([[0.0, 1e-3], [-1e-3, 0.0]])
    plain = jacobian_f(sys, bd.sigma0, pi0)
    skewed = jacobian_f(sys, bd.sigma0, pi0 + skew)
    cost = optimal_cost(plain, bd.sigma1)[0]
    assert abs(optimal_cost(skewed, bd.sigma1)[0] - cost) <= 1e-12 * abs(cost)
    want = propagate_covariance(plain)[0]
    got = propagate_covariance(skewed)[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    got, _ = propagate_covariance(jacobian_f(sys, sigma0, pi0), grid_size=grid_size)
    assert got.shape == (grid_size, sys.n, sys.n)
    times = np.linspace(0.0, 1.0, grid_size)
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
    fine, _ = propagate_covariance(jacobian_f(sys, bd.sigma0, pi0), grid_size=1001)
    return sys, bd.sigma0, pi0, fine


@pytest.mark.parametrize("grid_size", [2, 11, 101])
def test_sigma_grid_does_not_depend_on_output_grid(contracting_case, grid_size):
    # The panels come from the jacobian_f pass at Pi0, not from the output
    # grid, so a coarse grid reads the same Sigma at the times it shares.
    sys, sigma0, pi0, fine = contracting_case
    got = propagate_covariance(jacobian_f(sys, sigma0, pi0), grid_size=grid_size)[0]
    # Shared times agree to rounding, which the cancellation in phi11 + phi12
    # Pi0 (terms near 1, sum near 1e-3 at t = 1) amplifies to about 4e-10.
    assert np.max(np.abs(got - fine[::1000 // (grid_size - 1)])) <= 1e-10 * np.max(np.abs(fine))


def _joint_riccati_lyapunov_reference(sys, sigma0, pi0, times):
    """Sigma at the times by DOP853 at rtol 1e-13 on (Pi, Sigma) together.

    Pi' comes from the direct Riccati right-hand side and Sigma' = Acl Sigma
    + Sigma Acl' + C D C' + 2 nu Sigma.
    """
    n, pi_rhs, nu = sys.n, riccati_rhs(sys), sys.identity_channel_nu()

    def rhs(t, y):
        pi, sig = y[: n * n], y[n * n:].reshape(n, n)
        b, c = sys.B.eval(t), sys.C.eval(t)
        acl = sys.A.eval(t) - b @ np.linalg.solve(sys.R.eval(t), b.T) @ pi.reshape(n, n)
        dsig = acl @ sig + sig @ acl.T + c @ sys.D.eval(t) @ c.T \
            + 2.0 * float(nu.eval(t)[0, 0]) * sig
        return np.concatenate([pi_rhs(t, pi), dsig.reshape(-1)])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([pi0.reshape(-1), sigma0.reshape(-1)]),
                    method="DOP853", rtol=1e-13, atol=1e-15, t_eval=times)
    assert sol.success
    return sol.y[n * n:].T.reshape(-1, n, n)


def test_map_f_matches_joint_riccati_lyapunov_reference(contracting_case):
    # Phi_Pi(1, 0) = phi11 + phi12 Pi0 is about 1e-3 here, made of terms
    # near 1, so the map amplifies the transition path's error.
    sys, sigma0, pi0, _ = contracting_case
    want = _joint_riccati_lyapunov_reference(sys, sigma0, pi0, [1.0])[-1]
    assert np.linalg.norm(map_f(sys, sigma0, pi0) - want) <= 1e-7 * np.linalg.norm(want)


def test_solve_boundary_sigma_grid_matches_joint_reference(contracting_case):
    # Every grid point counts, t = 1 included, where the cancellation in
    # phi11 + phi12 Pi0 amplifies any error in the integral of P.
    sys, sigma0, _, _ = contracting_case
    sol = solve_boundary(sys, BoundaryData(sigma0=sigma0, sigma1=0.01 * np.eye(2)))
    times = np.array([t for t, _ in sol.sigma_grid])
    got = np.stack([sigma for _, sigma in sol.sigma_grid])
    want = _joint_riccati_lyapunov_reference(sys, sigma0, sol.pi0, times)
    rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.max(rel) <= 1e-7


def test_sigma_tail_check_refuses_an_unresolved_noise_integral(monkeypatch):
    # Only the pass's P node values are bumped, after its quadrature, so the
    # boundary map, its Jacobian and Newton do not move.  delta P_13 at each
    # panel's Kronrod nodes is odd, so it adds nothing to any integral of P
    # either; only the interpolants' tail sees it.
    odd = np.polynomial.legendre.legval(_XK, [0.0] * 13 + [1.0])
    real_jacobian = steering.jacobian_f

    def bumped_pass(*args, **kwargs):
        ws = real_jacobian(*args, **kwargs)
        bump = 1e-5 * np.tile(odd, len(ws.nodes) // len(_XK))
        return replace(ws, p_nodes=ws.p_nodes + bump[:, None, None])

    monkeypatch.setattr(steering, "jacobian_f", bumped_pass)
    with pytest.raises(IntegrationFailureError, match="unresolved"):
        propagate_covariance(steering.jacobian_f(s1(), [[1.0]], [[0.0]]), grid_size=11)
    with pytest.raises(IntegrationFailureError, match="unresolved"):
        solve_boundary(example_system(), WORKED_TARGET, grid_size=11)


def _cost_integrand(sys, pi0):
    """tr(Pi C D C') on an array of times, the integrand of optimal_cost."""
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    return lambda ts: np.einsum("kij,kji->k", closed_form_on_path(path, pi0, ts),
                                steering._cdct(sys, ts))


def _unit_interval_cost(sys, pi0, bd):
    """(cost, error estimate) of optimal_cost's formula by an adaptive
    quadrature of its integrand from [0, 1], independent of any jacobian_f pass."""
    integral, error, saturated, _ = adaptive_gk(_cost_integrand(sys, pi0), 0.0, 1.0,
                                                atol=QUAD_ATOL, rtol=QUAD_RTOL)
    assert not saturated
    pi1 = closed_form_on_path(TransitionPath(sys, anchor=0.0, span=(0.0, 1.0)), pi0, 1.0)
    return float(integral) + float(np.trace(pi0 @ bd.sigma0)) \
        - float(np.trace(pi1 @ bd.sigma1)), error


def test_cost_refines_the_accepted_panels(monkeypatch):
    # The accepted pass's panels already resolve the cost on this target,
    # so the cost starts from every other edge of them: a mesh that leaves
    # the cost integrand's own error estimate above the quadrature's
    # tolerance, atol + rtol |integral|; refinement brings it under.
    sys = example_system()
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([50.0, 1e-4]))
    passes = []
    real = steering.jacobian_f

    def recorded(*args, **kwargs):
        passes.append(real(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(steering, "jacobian_f", recorded)
    sol = solve_boundary(sys, bd)
    ws = passes[-1]  # Newton's accepted pass: the last one it made
    assert np.array_equal(ws.pi0, sol.pi0)
    assert len(ws.edges) - 1 == sol.accepted_panels
    coarse = np.union1d(ws.edges[::2], ws.edges[-1])
    integral, start_error, stopped, _ = adaptive_gk(_cost_integrand(sys, sol.pi0), 0.0, 1.0,
                                                    atol=QUAD_ATOL, edges=coarse,
                                                    max_panels=len(coarse) - 1)
    cost, cost_error = optimal_cost(replace(ws, edges=coarse), bd.sigma1)
    tolerance = QUAD_ATOL + QUAD_RTOL * abs(integral)
    assert stopped and start_error > tolerance >= cost_error
    fresh, _ = _unit_interval_cost(sys, sol.pi0, bd)
    assert abs(cost - fresh) <= 1e-12 * abs(fresh)


def test_cost_quadrature_saturation_raises(monkeypatch):
    # A ripple of period 6e-8 in Pi(t) is far finer than 2000 panels
    # resolve, so the cost quadrature saturates instead of returning.
    sys, bd = s1(), BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]])
    sol = solve_boundary(sys, bd)
    real = steering.closed_form_on_path
    monkeypatch.setattr(steering, "closed_form_on_path", lambda path, pi0, t: real(path, pi0, t)
                        + np.sin(1e8 * np.asarray(t))[..., None, None])
    with pytest.raises(IntegrationFailureError, match="cost quadrature saturated"):
        optimal_cost(jacobian_f(sys, bd.sigma0, sol.pi0), bd.sigma1)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3))
def test_solve_boundary_grids_match_independent_references(seed, n):
    # solve_boundary reads Sigma and the cost from Newton's accepted pass.
    # Sigma is checked against RK45 on the Lyapunov ODE, the cost against
    # its integrand's own quadrature from [0, 1].  Each cost quadrature
    # promises its own error estimate, so the two costs may differ by both
    # estimates besides the relative rounding.
    rng = np.random.default_rng(seed)
    sys = random_controllable_system(rng, n)
    sigma0 = random_spd(rng, n)
    bd = BoundaryData(sigma0=sigma0,
                      sigma1=map_f(sys, sigma0, random_admissible_pi0(rng, sys)))
    sol = solve_boundary(sys, bd, grid_size=21)
    got = np.stack([sigma for _, sigma in sol.sigma_grid])
    want = lyapunov_oracle(sys, sol.pi0, sigma0, np.linspace(0.0, 1.0, 21))
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
    fresh, fresh_error = _unit_interval_cost(sys, sol.pi0, bd)
    assert abs(sol.optimal_cost - fresh) <= sol.cost_error + fresh_error + 1e-10 * abs(fresh)
    assert 0.0 <= sol.sigma_error and 0.0 <= sol.cost_error


@pytest.mark.parametrize("grid_size", [1, 0])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda case, g: validate_system(example_system(), grid_size=g),
                 id="validate_system"),
    # With one grid point no subinterval is probed, and np.all of no probes
    # would certify the uncontrollable pair as totally controllable.
    pytest.param(lambda case, g: classify(uncontrollable_pair(), grid_size=g), id="classify"),
    pytest.param(lambda case, g: solve_boundary(
        case[0], BoundaryData(sigma0=case[1], sigma1=case[1]), grid_size=g), id="solve_boundary"),
    pytest.param(lambda case, g: propagate_covariance(jacobian_f(*case[:3]), grid_size=g),
                 id="propagate_covariance"),
    # integrate_general answered exists=True on an empty or one-point grid.
    pytest.param(lambda case, g: integrate_general(example_system(), -np.eye(2), grid_size=g),
                 id="integrate_general"),
])
def test_grid_below_two_points_is_rejected(contracting_case, entry, grid_size):
    # Every entry point that takes a grid_size refuses it with one message.
    with pytest.raises(ValueError, match=rf"^grid_size must be at least 2, got {grid_size}$"):
        entry(contracting_case, grid_size)


def test_feedback_gain_schedule():
    assert_allclose(feedback_gain(s1(), [0.0], np.zeros((1, 1, 1)))[0], np.zeros((1, 1)))
    # pi(t) = 0.5/(1 - 0.5 t) gives K(1) = -1.
    k = feedback_gain(s1(), [1.0], np.array([[[1.0]]]))
    assert_allclose(k[0], [[-1.0]])


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
    from covsteer.transition import TransitionPath, transition_blocks

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
    cost, error = optimal_cost(jacobian_f(s1(), bd.sigma0, sol.pi0), bd.sigma1)
    assert abs(cost) <= 1e-9 and 0.0 <= error <= QUAD_ATOL


@pytest.mark.parametrize("target", [
    np.diag([8.0, 1e-3]),                   # crush the actuated coordinate
    np.array([[2.0, 1.9], [1.9, 2.0]]),     # strongly correlated expansion
])
def test_solve_boundary_aggressive_targets(target):
    sys = example_system()
    sol = solve_boundary(sys, BoundaryData(sigma0=np.eye(2), sigma1=target))
    assert sol.residual <= 1e-8
    assert np.max(np.abs(sol.sigma_grid[-1][1] - target)) <= 1e-6 * np.linalg.norm(target)
