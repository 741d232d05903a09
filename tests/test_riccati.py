from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from covsteer.errors import RiccatiNonexistenceError, SingularTransitionError
from covsteer import riccati
from covsteer.matfun import MatrixPoly, symmetrize
from covsteer.transition import COND_LIMIT, TransitionPath, pi_bounds
from covsteer.riccati import (
    BLOWUP_NORM,
    closed_form_on_path,
    existence_check,
    integrate_general,
    maximal_interval,
    solve_closed_form,
)

from helpers import (
    chain_system,
    const,
    expm_blocks,
    integrate_riccati_oracle,
    make_system,
    random_admissible_pi0,
    random_controllable_system,
    rk4_fixed,
    s1,
    s1_with_q,
    uncontrollable_pair,
)


def test_existence_s1_examples():
    sys = s1()
    v = existence_check(sys, 0.0, [[0.0]])
    assert v.exists
    assert abs(v.upper_margin - 1.0) <= 1e-9
    assert v.lower_margin == np.inf

    assert not existence_check(sys, 0.0, [[2.0]]).exists
    assert existence_check(sys, 0.5, [[0.0]]).exists


def test_existence_refuses_anchor_outside_horizon():
    # Pi(t) = -3 / (3t - 3.5) is finite on [0, 1], yet the sandwich read at
    # s = 1.5 would deny it: the bounds only decide anchors in [0, 1].
    sys = s1()
    got = [solve_closed_form(sys, 1.5, [[-3.0]], t)[0, 0] for t in (0.0, 0.5, 1.0)]
    assert_allclose(got, [3.0 / 3.5, 1.5, 6.0], rtol=1e-9)
    for s in (1.5, -0.25):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            existence_check(sys, s, [[-3.0]])


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


def _zero_growth_at(monkeypatch, when):
    """Make PhiPi exactly zero at the time when, wherever riccati reads it."""
    real = riccati._phi_pi

    def zeroed(path, pi_anchor, t):
        growth, blocks = real(path, pi_anchor, t)
        return np.where(np.asarray(t)[..., None, None] == when, 0.0, growth), blocks

    monkeypatch.setattr(riccati, "_phi_pi", zeroed)


def test_an_exactly_singular_growth_in_a_stack_is_a_typed_outcome(monkeypatch):
    # np.linalg.inv refuses a whole stack for one exactly singular matrix; the
    # guard marks only that one.  Pi = -tanh(t) exists on [0, 1], but PhiPi is
    # made exactly zero at t = 0.5: the closed form raises there, and
    # integrate_general truncates its grid there.
    sys, pi0 = s1_with_q(), np.zeros((1, 1))
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    _zero_growth_at(monkeypatch, 0.5)
    with pytest.raises(RiccatiNonexistenceError, match=r"1/\|\|inverse\|\|_F=0\.000e\+00"):
        closed_form_on_path(path, pi0, np.array([0.0, 0.25, 0.5, 0.75]))
    sol = integrate_general(sys, pi0, grid_size=5)
    assert not sol.exists and sol.escape_time == 0.5
    assert [t for t, _ in sol.grid] == [0.0, 0.25]
    assert_allclose([pi[0, 0] for _, pi in sol.grid], [0.0, -np.tanh(0.25)], atol=1e-12)


def test_the_guard_inverts_the_regular_entries_of_a_stack_bit_for_bit():
    # An exactly singular entry, and one whose inverse's squared entries
    # overflow in the Frobenius norm (1e340), are not regular, with no
    # warning; the others read np.linalg.inv's inverse.
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 2, 2))
    g = np.stack([a, np.zeros((2, 2)), np.diag([1e-170, 1.0]), b])
    ginv, regular, rnorm, _ = riccati._regular_inverse(g, g, np.zeros_like(g), np.eye(2))
    assert regular.tolist() == [True, False, False, True]
    assert rnorm[1] == 0.0 and rnorm[2] == 0.0
    for k, m in ((0, a), (3, b)):
        assert ginv[k].tobytes() == np.linalg.inv(m).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), k=st.integers(1, 4),
       decades=st.floats(-2.0, 12.0))
def test_the_inverse_norm_guard_is_the_sigma_min_guard_within_sqrt_n(seed, n, k, decades):
    # sigma_min(G) ||G^-1||_F lies in [1, sqrt(n)], so the verdict "regular"
    # (1/||G^-1||_F above the threshold) implies sigma_min above it, and a
    # sigma_min more than sqrt(n) above it implies "regular".  Stacks of k
    # G = U diag(s) V' place sigma_min `decades` decades above the threshold
    # max(||G||_F, 1) / COND_LIMIT, to 2 decades below it.  Rounding moves the
    # band by a multiple of eps cond(G): over 20000 such stacks at most
    # 1.59 eps cond below 1 and 1.0 eps cond above sqrt(n), against 4 here.
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((k, n, n)))[0] for _ in range(2))
    s = rng.uniform(1.0, 10.0, (k, n))
    s[:, -1] = 10.0 ** (decades + rng.uniform(-0.5, 0.5, k)) * np.maximum(
        np.linalg.norm(s[:, :-1], axis=1), 1.0) / COND_LIMIT
    g = (u * s[:, None, :]) @ np.swapaxes(v, -1, -2)
    _, regular, rnorm, scale = riccati._regular_inverse(g, g, np.zeros_like(g), np.eye(n))
    sv = np.linalg.svd(g, compute_uv=False)
    smin, slack = sv[:, -1], 4.0 * np.finfo(float).eps * sv[:, 0] / sv[:, -1]
    band = smin / rnorm
    assert np.all(band >= 1.0 - slack) and np.all(band <= np.sqrt(n) * (1.0 + slack))
    threshold = np.maximum(scale, 1.0) / COND_LIMIT
    assert np.all(smin[regular] > threshold[regular] * (1.0 - slack[regular]))
    clear = smin > np.sqrt(n) * threshold * (1.0 + slack)
    assert np.all(regular[clear])


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


@pytest.mark.parametrize("window", [(0.5, 2.0), (-2.0, -0.5)])
def test_maximal_interval_window_must_contain_the_anchor(window):
    with pytest.raises(ValueError, match="must contain the anchor"):
        maximal_interval(s1(), 0.0, [[0.0]], window)


@pytest.mark.parametrize("window", [(-0.5, 1.5), (0.0, 1.0)])
def test_maximal_interval_refuses_an_uncontrollable_pair(window):
    # From Pi0 = diag(2, 0), Pi11 = 2 / (1 - 2t) escapes at 0.5, but phi12(t, 0)
    # is singular at every t: no moving bound locates the escape, and
    # existence_check refuses the same input.  The zero-length lower side of
    # (0, 1) is not what raises.
    sys, pi0 = uncontrollable_pair(), np.diag([2.0, 0.0])
    with pytest.raises(SingularTransitionError, match="singular at every scan time up to"):
        maximal_interval(sys, 0.0, pi0, window)
    with pytest.raises(SingularTransitionError, match=r"phi12\(1,t\) numerically singular"):
        existence_check(sys, 0.0, pi0)


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
    want = pi_bounds(sys, np.array([t for t, _ in sol.grid]))
    for (t, pi), (lower, upper) in zip(sol.grid, want, strict=True):
        assert np.max(np.abs(pi - pi.T)) <= 1e-10
        if upper.is_finite:
            assert np.min(np.linalg.eigvalsh(upper.matrix - pi)) > -1e-9
        if lower.is_finite:
            assert np.min(np.linalg.eigvalsh(pi - lower.matrix)) > -1e-9


def test_integrate_general_keeps_well_conditioned_bounds():
    # On the constant n = 3 chain the exact cond phi12(0, t) from expm is 7.2e14,
    # 4.5e13, 8.9e12, 2.8e12 and 1.2e12 at t = 0.001..0.005 and 5.6e11 at 0.006;
    # cond phi12(1, t) mirrors it on t = 0.995..0.999.  Exactly the sides above
    # COND_LIMIT are None.
    sys = chain_system()
    sol = integrate_general(sys, np.zeros((3, 3)), grid_size=1001)
    assert sol.exists
    times = np.array([t for t, _ in sol.grid])
    bounds = pi_bounds(sys, times)
    lower_none = [t for t, (lower, _) in zip(times, bounds) if lower is None]
    upper_none = [t for t, (_, upper) in zip(times, bounds) if upper is None]
    for got, end in ((lower_none, 0.0), (upper_none, 1.0)):
        want = [t for t in times if t != end
                and np.linalg.cond(expm_blocks(sys, end, t)[1]) > COND_LIMIT]
        assert len(want) == 5 and got == want
    kept = [k for k, t in enumerate(times) if 0.01 <= t <= 0.9]
    want = pi_bounds(sys, times[kept])
    for k, want_pair in zip(kept, want, strict=True):
        for got, bound in zip(bounds[k], want_pair):
            assert np.array_equal(got.matrix, bound.matrix)


def test_integrate_general_zero_fixed_point():
    # E = I with nu = 0.5 and Q = 0: zero stays a fixed point.
    sys = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                      [[0.5]], [[0.0]], [[1.0]],
                      channels=((const([[1.0]]), const([[0.0]])),))
    sol = integrate_general(sys, [[0.0]], grid_size=11)
    assert sol.exists
    assert all(abs(pi[0, 0]) <= 1e-12 for _, pi in sol.grid)


def _square_riccati(e):
    # A channel E with rate 0 leaves pi' = pi^2; E = 1 is read in closed form,
    # E = 2 forward integrated by RK45.
    return make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                       [[0.0]], [[0.0]], [[1.0]],
                       channels=((const([[e]]), const([[0.0]])),))


def _rk45_calls(monkeypatch):
    """The list that records each call integrate_general makes to its RK45 route."""
    calls, rk45 = [], riccati._integrate_rk45

    def recorded(*args):
        calls.append(args)
        return rk45(*args)

    monkeypatch.setattr(riccati, "_integrate_rk45", recorded)
    return calls


def _assert_grid_before_escape(sol):
    assert not sol.exists
    assert sol.escape_time is not None
    assert all(t < sol.escape_time for t, _ in sol.grid)
    assert all(np.max(np.abs(pi)) <= BLOWUP_NORM for _, pi in sol.grid)


@pytest.mark.parametrize("e", [1.0, 2.0])
def test_integrate_general_blowup_matches_maximal_interval(e, monkeypatch):
    sys = _square_riccati(e)
    calls = _rk45_calls(monkeypatch)
    sol = integrate_general(sys, [[2.0]], grid_size=101)
    assert len(calls) == (e != 1.0)
    _assert_grid_before_escape(sol)
    assert abs(sol.escape_time - 0.5) <= 1e-4
    if e != 1.0:
        # The closed form reads its escape from the same crossing scan.
        assert abs(sol.escape_time - maximal_interval(sys, 0.0, [[2.0]], (0.0, 1.0)).t1) <= 1e-4


@pytest.mark.parametrize("inputs", [1, 2])
def test_integrate_general_blowup_on_an_uncontrollable_pair(inputs, monkeypatch):
    # A = 0, B = the first `inputs` unit vectors of R^3, Q = 0: phi12(t, 0) is
    # singular at every t, so no moving bound exists.  From Pi0 = diag(2, .., 0)
    # the controlled diagonal entries are 2 / (1 - 2t), escaping together at
    # 0.5 (det PhiPi changes sign there only for one input).  On 100 grid
    # points the two times next to the pole read Pi = +198 and -198.
    n = 3
    b = np.eye(n)[:, :inputs]
    sys = make_system(n, inputs, 1, np.zeros((n, n)), b, np.eye(n)[:, :1], [[1.0]],
                      [[0.0]], np.zeros((n, n)), np.eye(inputs),
                      channels=((const(np.eye(n)), const([[0.0]])),))
    pi0 = np.diag([2.0] * inputs + [0.0] * (n - inputs))
    calls = _rk45_calls(monkeypatch)
    sol = integrate_general(sys, pi0, grid_size=100)
    assert len(calls) == 1
    _assert_grid_before_escape(sol)
    assert abs(sol.escape_time - 0.5) <= 1e-4
    assert len(sol.grid) == 50
    for t, pi in sol.grid:
        assert_allclose(pi, np.diag([2.0 / (1.0 - 2.0 * t)] * inputs + [0.0] * (n - inputs)),
                        rtol=1e-7, atol=1e-12)


@pytest.mark.parametrize("e", [1.0, 2.0])
def test_integrate_general_start_past_blowup_norm(e):
    # |Pi0| = 1e13 is past BLOWUP_NORM at t = 0, and pi' = pi^2 escapes at 1e-13.
    sol = integrate_general(_square_riccati(e), [[1e13]], grid_size=11)
    _assert_grid_before_escape(sol)
    assert sol.grid == () and 0.0 <= sol.escape_time <= 1e-6


@pytest.mark.parametrize("e", [1.0, 2.0])
def test_integrate_general_blowup_past_the_horizon_is_reported(e):
    # pi(t) = p / (1 - p t) with p = 1 / (1 + 1e-13) escapes only at
    # t = 1 + 1e-13, but |pi(1)| = 1e13 passes BLOWUP_NORM: the closed form's
    # crossing scan finds no crossing in [0, 1], and the blow-up is reported
    # at the grid time t = 1, as RK45 reports it at its norm event.
    sol = integrate_general(_square_riccati(e), [[1.0 / (1.0 + 1e-13)]], grid_size=101)
    _assert_grid_before_escape(sol)
    assert abs(sol.escape_time - 1.0) <= 1e-9
    assert len(sol.grid) == 100


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

    # The oracle is chained over the grid intervals at the step 1e-5.
    prev, y = 0.0, np.array([0.0])
    for t, pi in sol.grid[1:]:
        y = rk4_fixed(rhs, prev, y, t, steps=max(10, round((t - prev) * 1e5)))
        prev = t
        assert abs(pi[0, 0] - y[0]) <= 1e-6


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


def test_integrate_general_grid_vs_oracle(monkeypatch):
    # The closed-form grid against RK45 on the Riccati ODE, chained over the
    # grid from the oracle's own values.  Every other instance carries its
    # state-dependent rate as an E = I channel, which the oracle sees as nu.
    rng = np.random.default_rng(211)
    calls = _rk45_calls(monkeypatch)
    worst = 0.0
    for k in range(6):
        n = k % 3 + 1
        sys = random_controllable_system(rng, n)
        if k % 2:
            rate = const([[float(rng.uniform(0.1, 0.5))]])
            oracle_sys = replace(sys, nu=sys.nu + rate)
            sys = replace(sys, general_channels=((const(np.eye(n)), rate),))
        else:
            oracle_sys = sys
        pi0 = random_admissible_pi0(rng, oracle_sys)
        sol = integrate_general(sys, pi0, grid_size=21)
        assert sol.exists and len(sol.grid) == 21
        prev, want = 0.0, pi0
        for t, pi in sol.grid[1:]:
            want = integrate_riccati_oracle(oracle_sys, prev, want, t)
            prev = t
            worst = max(worst, float(np.max(np.abs(pi - want))))
    assert worst <= 1e-7
    assert calls == []
