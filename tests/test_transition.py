import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from covsteer import transition
from covsteer._quad import _WG, _WK, _XK, _panels, adaptive_gk
from covsteer.errors import (
    IntegrationFailureError,
    RiccatiNonexistenceError,
    SingularTransitionError,
)
from covsteer.matfun import BoundaryData, symmetrize
from covsteer.riccati import (
    closed_form_on_path,
    existence_check,
    integrate_general,
    maximal_interval,
)
from covsteer.steering import feedback_gain, solve_boundary, special_case_pi0
from covsteer.transition import (
    CHEB_DEGREES,
    CHEB_TAIL_RTOL,
    TransitionPath,
    gramian_identity,
    horizon_path,
    pi_bounds,
    symplectic_residuals,
    transition_blocks,
)

from helpers import (
    chain_system,
    expm_blocks,
    make_system,
    random_admissible_pi0,
    random_controllable_system,
    rk45_blocks,
    s1,
    s1_with_q,
    example_system,
)


def test_adaptive_gk_against_analytic_integrals():
    # Integrands take an array of times; the leading axis runs over them.
    val, err, saturated, (edges, ts, vals) = adaptive_gk(lambda ts: ts * np.exp(ts), 0.0, 1.0,
                                                         atol=1e-12)
    assert err <= 1e-12 and not saturated
    assert abs(float(val) - 1.0) <= 1e-11  # int t e^t = 1
    # The final panels, in order, with f at their 15 nodes each.
    assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0.0)
    assert len(ts) == 15 * (len(edges) - 1) and np.array_equal(vals, ts * np.exp(ts))
    val, _, _, _ = adaptive_gk(lambda ts: np.stack([np.cos(10 * ts), ts ** 4], axis=-1), 0.0, 1.0)
    assert abs(val[0] - np.sin(10.0) / 10.0) <= 1e-10
    assert abs(val[1] - 0.2) <= 1e-12
    val, _, _, _ = adaptive_gk(lambda ts: ts, 1.0, 0.0)  # reversed interval
    assert abs(float(val) + 0.5) <= 1e-12


def test_adaptive_gk_reports_saturation():
    # The panel limit ends a refinement that has not met its tolerance.
    _, err, saturated, _ = adaptive_gk(lambda ts: 1.0 / np.sqrt(ts), 0.0, 1.0, max_panels=5)
    assert saturated and err > 1e-10
    # A round bisects only up to the limit: after two rounds all 4 panels of
    # cos(60 t) are above their share, and the third bisects one of them.
    _, err, saturated, (edges, _, _) = adaptive_gk(lambda ts: np.cos(60.0 * ts), 0.0, 1.0,
                                                   max_panels=5)
    assert saturated and err > 1e-10 and len(edges) - 1 == 5
    # At the panel limit with the tolerance met the result is not saturated.
    _, err, saturated, _ = adaptive_gk(lambda ts: ts ** 3, 0.0, 1.0, max_panels=1)
    assert not saturated and err <= 1e-10
    # A NaN estimate never meets the tolerance either.
    assert adaptive_gk(lambda ts: np.full(ts.shape, np.nan), 0.0, 1.0, max_panels=3)[2]


def test_panel_sums_match_a_per_panel_reference():
    # All panels are contracted at once; each panel's Kronrod and Gauss sums
    # taken on their own agree to rounding.
    def f(ts):
        return np.stack([np.exp(ts), ts * np.cos(7.0 * ts)], axis=-1)[:, :, None]

    ends = np.array([[0.0, 0.3], [0.3, 0.35], [0.35, 1.0]])
    got_ends, kron, err, ts, vals = _panels(f, ends)
    assert got_ends is ends and kron.shape == (3, 2, 1) and vals.shape == (3, 15, 2, 1)
    for (a, b), k, e, t, v in zip(ends, kron, err, ts, vals):
        half = 0.5 * (b - a)
        assert_allclose(t, 0.5 * (a + b) + half * _XK, rtol=1e-15, atol=0.0)
        assert np.array_equal(v, f(t))
        want = half * np.tensordot(_WK, v, axes=(0, 0))
        gauss = half * np.tensordot(_WG, v[1::2], axes=(0, 0))
        assert_allclose(k, want, rtol=1e-14, atol=0.0)
        assert abs(e - np.max(np.abs(want - gauss))) <= 1e-14 * np.max(np.abs(want))


def test_blocks_at_equal_times_are_identity():
    blocks = transition_blocks(example_system(), 0.3, 0.3)
    assert_allclose(blocks.phi11, np.eye(2))
    assert_allclose(blocks.phi22, np.eye(2))
    assert_allclose(blocks.phi12, np.zeros((2, 2)))
    assert_allclose(blocks.phi21, np.zeros((2, 2)))


def test_s1_blocks_closed_form():
    blocks = transition_blocks(s1(), 1.0, 0.0)
    assert_allclose(blocks.phi11, [[1.0]], atol=1e-12)
    assert_allclose(blocks.phi12, [[-1.0]], atol=1e-10)
    assert_allclose(blocks.phi21, [[0.0]], atol=1e-12)
    assert_allclose(blocks.phi22, [[1.0]], atol=1e-12)


def test_scalar_unit_cost_blocks_are_hyperbolic():
    blocks = transition_blocks(s1_with_q(), 1.0, 0.0)
    assert abs(blocks.phi11[0, 0] - np.cosh(1.0)) <= 1e-9
    assert abs(blocks.phi11[0, 0] - 1.5431) <= 1e-4
    assert abs(blocks.phi12[0, 0] + np.sinh(1.0)) <= 1e-9


def test_blocks_match_matrix_exponential_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        a = rng.uniform(-1.0, 1.0, (n, n))
        b = rng.uniform(-1.0, 1.0, (n, 1))
        l_fac = rng.uniform(-0.5, 0.5, (n, n))
        sys = make_system(n, 1, 1, a, b, rng.uniform(-1, 1, (n, 1)), [[1.0]],
                          [[0.2]], l_fac @ l_fac.T, [[1.3]])
        blocks = transition_blocks(sys, 0.8, 0.1)
        p11, p12, p21, p22 = expm_blocks(sys, 0.8, 0.1)
        assert np.max(np.abs(blocks.phi11 - p11)) <= 1e-9
        assert np.max(np.abs(blocks.phi12 - p12)) <= 1e-9
        assert np.max(np.abs(blocks.phi21 - p21)) <= 1e-9
        assert np.max(np.abs(blocks.phi22 - p22)) <= 1e-9


def test_symplectic_residuals_at_equal_times_vanish():
    sys = example_system()
    blocks = transition_blocks(sys, 0.4, 0.4)
    res = symplectic_residuals(sys, blocks)
    assert all(v <= 1e-15 for v in res.values())


def test_symplectic_residuals_s1_reversal():
    sys = s1()
    blocks = transition_blocks(sys, 1.0, 0.0)
    res = symplectic_residuals(sys, blocks)
    assert res["phi12_antisymmetry"] <= 1e-10
    assert res["phi11_reversal"] <= 1e-10


def test_symplectic_residuals_random_system():
    rng = np.random.default_rng(23)
    sys = random_controllable_system(rng, 3)
    blocks = transition_blocks(sys, 0.9, 0.1)
    res = symplectic_residuals(sys, blocks)
    assert all(v <= 1e-8 for v in res.values()), res


def test_pi_bounds_s1():
    lower, upper = pi_bounds(s1(), 0.5)
    assert_allclose(lower.matrix, [[-2.0]], atol=1e-9)
    assert_allclose(upper.matrix, [[2.0]], atol=1e-9)

    lower0, upper0 = pi_bounds(s1(), 0.0)
    assert lower0.kind == "neg_inf"
    assert_allclose(upper0.matrix, [[1.0]], atol=1e-9)

    _, upper1 = pi_bounds(s1(), 1.0)
    assert upper1.kind == "pos_inf"

    # Phi(t, s) = [[1, s - t], [0, 1]]: lower(t) = -1/t, upper(t) = 1/(1 - t).
    times = np.array([0.0, 0.25, 0.5, 0.5, 1.0])
    pairs = pi_bounds(s1(), times)
    assert len(pairs) == len(times)
    assert pairs[0][0].kind == "neg_inf" and pairs[-1][1].kind == "pos_inf"
    assert_allclose([lo.matrix[0, 0] for lo, _ in pairs[1:]], [-4.0, -2.0, -2.0, -1.0], rtol=1e-9)
    assert_allclose([up.matrix[0, 0] for _, up in pairs[:-1]], [1.0, 4.0 / 3.0, 2.0, 2.0],
                    rtol=1e-9)


def test_pi_bounds_refuse_singular_phi12_at_a_scalar_time():
    # cond phi12(0, 0.001) is about 7e14 on the n = 3 chain.
    with pytest.raises(SingularTransitionError, match=r"phi12\(0,t\) numerically singular"):
        pi_bounds(chain_system(), 0.001)


@pytest.mark.parametrize("t", [1.5, -0.1, np.array([0.5, 1.5]), np.nan])
def test_pi_bounds_refuse_times_outside_horizon(t):
    # The sandwich is a statement about anchors in [0, 1].
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        pi_bounds(s1(), t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi_bounds_on_array_match_direct_oracle(n):
    rng = np.random.default_rng(60 + n)
    sys = random_controllable_system(rng, n)
    times = np.array([0.0, 0.35, 1.0, 0.35, 0.6, 0.9, 0.05])
    pairs = pi_bounds(sys, times)
    assert len(pairs) == len(times)
    for t, pair in zip(times, pairs):
        for bound, end, kind in zip(pair, (0.0, 1.0), ("neg_inf", "pos_inf")):
            if t == end:
                assert bound.kind == kind
                continue
            b = rk45_blocks(sys, end, t)
            want = symmetrize(-np.linalg.solve(b.phi12, b.phi11))
            # First order, dU = phi12^-1 (dphi11 + dphi12 U) with |dPhi| about
            # rtol |Phi| on each side: the oracle's rtol (1e-10) times
            # |phi12^-1| |Phi| >= cond(phi12), times 1 + |U|, times 10 for
            # global over local RK45 error.
            full = np.block([[b.phi11, b.phi12], [b.phi21, b.phi22]])
            tol = 10 * 1e-10 * np.linalg.norm(np.linalg.inv(b.phi12), 2) \
                * np.linalg.norm(full, 2) * (1.0 + np.linalg.norm(want, 2))
            assert np.linalg.norm(bound.matrix - want, 2) <= tol
            assert np.array_equal(bound.matrix, bound.matrix.T)


def test_gramian_identity_trivial_and_s1():
    sys = s1()
    check = gramian_identity(sys, (0.3, [[0.0]]), 0.3)
    assert_allclose(check.mbar, np.zeros((1, 1)))
    assert check.residual == 0.0

    check = gramian_identity(sys, (0.0, [[0.0]]), 1.0)
    assert_allclose(check.mbar, [[1.0]], atol=1e-9)
    assert_allclose(check.rhs, [[1.0]], atol=1e-9)
    assert check.residual <= 1e-7

    # The existence check it rests on refuses anchors outside [0, 1].
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        gramian_identity(sys, (1.5, [[-3.0]]), 1.0)
    # From Pi(0) = 2 the solution 1 / (0.5 - t) escapes at t = 0.5.
    with pytest.raises(RiccatiNonexistenceError, match="does not exist"):
        gramian_identity(sys, (0.0, [[2.0]]), 1.0)


def test_gramian_identity_random_system():
    rng = np.random.default_rng(5)
    sys = random_controllable_system(rng, 2)
    check = gramian_identity(sys, (0.0, np.zeros((2, 2))), 0.8)
    assert check.residual <= 1e-7


def test_gramian_quadrature_saturation_raises(monkeypatch):
    # A ripple of period 6e-8 in B R^-1 B' is far finer than 2000 panels
    # resolve, so the quadrature saturates instead of returning its estimate.
    real = transition.b_rinv_bt
    monkeypatch.setattr(transition, "b_rinv_bt", lambda sys, t: real(sys, t)
                        + np.sin(1e8 * np.asarray(t))[..., None, None])
    with pytest.raises(IntegrationFailureError, match="Gramian quadrature saturated"):
        gramian_identity(s1(), (0.0, [[0.0]]), 1.0)


def test_block_ratio_monotonicity_loewner():
    rng = np.random.default_rng(17)
    sys = random_controllable_system(rng, 2)
    s = 0.1
    path = TransitionPath(sys, anchor=s, span=(s, 1.0))

    def n_like(t):
        p11, p12, _, _ = path.raw_blocks(t)
        return symmetrize(-np.linalg.solve(p11, p12))

    prev = None
    for t in (0.3, 0.5, 0.7, 0.95):
        cur = n_like(t)
        assert np.min(np.linalg.eigvalsh(cur)) > 0.0
        if prev is not None:
            assert np.min(np.linalg.eigvalsh(cur - prev)) > -1e-10
        prev = cur


def test_q_zero_reduces_to_reachability_gramian():
    rng = np.random.default_rng(29)
    n = 2
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, 1))
    sys = make_system(n, 1, 1, a, b, rng.uniform(-1, 1, (n, 1)), [[1.0]],
                      [[0.0]], np.zeros((n, n)), [[1.0]])
    t, s = 0.9, 0.2
    blocks = transition_blocks(sys, t, s)
    assert np.max(np.abs(blocks.phi21)) <= 1e-10

    phi_a = expm(a * (t - s))
    assert np.max(np.abs(blocks.phi11 - phi_a)) <= 1e-8

    def integrand(taus):
        phi_sa = expm(a * (s - taus)[:, None, None])
        return phi_sa @ b @ b.T @ np.swapaxes(phi_sa, -1, -2)

    gram, _, _, _ = adaptive_gk(integrand, s, t, atol=1e-12)
    n_block = -np.linalg.solve(blocks.phi11, blocks.phi12)
    assert np.max(np.abs(n_block - gram)) <= 1e-8


def test_composition_property():
    rng = np.random.default_rng(31)
    sys = random_controllable_system(rng, 2)
    s, r, t = 0.1, 0.45, 0.9
    full = transition_blocks(sys, t, s)
    left = transition_blocks(sys, t, r)
    right = transition_blocks(sys, r, s)
    phi_full = np.block([[full.phi11, full.phi12], [full.phi21, full.phi22]])
    phi_left = np.block([[left.phi11, left.phi12], [left.phi21, left.phi22]])
    phi_right = np.block([[right.phi11, right.phi12], [right.phi21, right.phi22]])
    assert np.max(np.abs(phi_full - phi_left @ phi_right)) <= 1e-8


def test_dense_path_matches_direct_integration():
    sys = example_system()
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    for t in (0.2, 0.77):
        direct = rk45_blocks(sys, t, 0.0)
        _, dense12, dense21, _ = path.raw_blocks(t)
        assert np.max(np.abs(direct.phi12 - dense12)) <= 1e-9
        assert np.max(np.abs(direct.phi21 - dense21)) <= 1e-9
    # An interior anchor serves both sides of it from one array of times.
    mid = TransitionPath(sys, anchor=0.4, span=(0.0, 1.0))
    times = np.array([0.77, 0.1, 0.4])
    for t, phi in zip(times, mid.phi(times)):
        b = rk45_blocks(sys, t, 0.4)
        direct = np.block([[b.phi11, b.phi12], [b.phi21, b.phi22]])
        assert np.max(np.abs(direct - phi)) <= 1e-9


@pytest.fixture(scope="module")
def batched_case():
    rng = np.random.default_rng(83)
    sys = random_controllable_system(rng, 3)
    pi0 = random_admissible_pi0(rng, sys)
    return (sys, pi0, TransitionPath(sys, anchor=0.0, span=(0.0, 1.0)),
            TransitionPath(sys, anchor=0.4, span=(0.0, 1.0)))


def _assert_stacks_equal(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want))))


@settings(max_examples=25, deadline=None)
@given(ts=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.4, 1.0])),
                   min_size=1, max_size=12))
def test_batched_path_evaluation_matches_per_time(batched_case, ts):
    sys, pi0, path, mid_path = batched_case
    # The anchors, both endpoints and a repeated time are always present.
    times = np.array(ts + [0.0, 0.4, 1.0] + ts[:1])
    for p in (path, mid_path):
        _assert_stacks_equal(p.phi(times), np.stack([p.phi(t) for t in times]))
    pis = closed_form_on_path(path, pi0, times)
    _assert_stacks_equal(pis, np.stack([closed_form_on_path(path, pi0, t) for t in times]))
    gains = feedback_gain(sys, times, pis)
    assert gains.shape == (len(times), sys.p, sys.n)
    _assert_stacks_equal(gains, np.stack([feedback_gain(sys, [t], pi[None])[0]
                                          for t, pi in zip(times, pis)]))


def test_path_reads_are_memoised_bit_for_bit(monkeypatch):
    sys = random_controllable_system(np.random.default_rng(29), 3)
    path = TransitionPath(sys, anchor=0.4, span=(0.0, 1.0))
    fresh = TransitionPath(sys, anchor=0.4, span=(0.0, 1.0))
    grid, other = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 12)
    # First reads on a fresh path, before any memo entry exists.
    want = {t: fresh.phi(t) for t in (0.0, 1.0, 0.7)}
    want_grid, want_other, want_short = fresh.phi(grid), fresh.phi(other), fresh.phi(grid[:-1])

    evaluated = []
    evaluate = TransitionPath._eval

    def counted(p, ts):
        evaluated.append(ts.copy())
        return evaluate(p, ts)

    monkeypatch.setattr(TransitionPath, "_eval", counted)
    for _ in range(2):
        for t, phi in want.items():
            assert path.phi(t).tobytes() == phi.tobytes()
        assert path.phi(np.float64(1.0)).tobytes() == want[1.0].tobytes()
    # Each span end once; 0.7 is no span end, so each of its reads evaluates.
    assert [ts.tolist() for ts in evaluated] == [[0.0], [1.0], [0.7], [0.7]]

    del evaluated[:]
    times = grid.copy()
    for ts, phi in ((times, want_grid), (times, want_grid), (other, want_other),
                    (grid[:-1], want_short), (grid, want_grid)):
        assert path.phi(ts).tobytes() == phi.tobytes()
    # Only the last array read is kept: a repeat is free, any other read evaluates.
    assert [len(ts) for ts in evaluated] == [11, 12, 10, 11]
    times[3] = 0.5  # the memo keeps its own copy of the times
    got = path.phi(times)
    assert len(evaluated) == 5
    assert got.tobytes() == fresh.phi(times).tobytes()


def test_writes_into_returned_reads_do_not_reach_the_memo():
    sys = random_controllable_system(np.random.default_rng(31), 2)
    path, fresh = (TransitionPath(sys, anchor=0.0, span=(0.0, 1.0)) for _ in range(2))
    grid = np.linspace(0.0, 1.0, 7)
    for t in (1.0, grid):
        want = fresh.phi(t)
        path.phi(t)[...] = np.nan
        for block in path.raw_blocks(t):
            block[...] = np.inf
        assert path.phi(t).tobytes() == want.tobytes()


def _phi_of(blocks):
    return np.block([[blocks.phi11, blocks.phi12], [blocks.phi21, blocks.phi22]])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3), which=st.integers(0, 2),
       interior=st.floats(0.05, 0.95), lo=st.floats(-0.5, 0.0), hi=st.floats(1.0, 1.5))
@example(seed=0, n=1, which=0, interior=0.5, lo=-5e-324, hi=1.0)  # a subnormal-width side
def test_spectral_path_matches_oracle_and_stays_symplectic(seed, n, which, interior, lo, hi):
    sys = random_controllable_system(np.random.default_rng(seed), n)
    anchor = (0.0, 1.0, interior)[which]
    path = TransitionPath(sys, anchor=anchor, span=(lo, hi))
    assert path.degree in CHEB_DEGREES and path.tail <= CHEB_TAIL_RTOL
    assert path.symplectic_drift <= 1e-12
    # The RK45 oracle runs at rtol 1e-10, so it is the looser of the two.
    for t in (lo, 0.5 * (lo + anchor), 0.5 * (anchor + hi), hi):
        want = _phi_of(rk45_blocks(sys, t, anchor))
        assert np.max(np.abs(path.phi(t) - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    # A side longer than 1 is split into panels.  Phi is continuous across
    # their edges: an edge reads the inner panel, one ulp outward the next.
    for start, end, _ in path._panels:
        if start != anchor:
            here, beyond = path.phi(np.array([start, np.nextafter(start, end)]))
            assert np.max(np.abs(here - beyond)) <= 1e-12 * max(1.0, np.max(np.abs(here)))


@pytest.mark.parametrize("c", [20.0, 50.0, 200.0])
def test_spectral_path_on_a_large_drift_matches_closed_form(c):
    # M = [[c, -1], [-1, -c]] squares to w^2 I with w^2 = c^2 + 1, so
    # Phi(t, 0) = cosh(w t) I + sinh(w t) / w M.  Panels keep h ||M|| <= 4;
    # one unit panel at c = 50 gave phi11(1) = 2.1e16 for 5.2e21, tail check passed.
    sys = make_system(1, 1, 1, [[c]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]])
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    w = np.hypot(c, 1.0)
    ts = np.linspace(0.0, 1.0, 101)
    want = (np.cosh(w * ts)[:, None, None] * np.eye(2)
            + (np.sinh(w * ts) / w)[:, None, None] * np.array([[c, -1.0], [-1.0, -c]]))
    err = np.linalg.norm(path.phi(ts) - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.max(err) <= 1e-12
    assert path.symplectic_drift <= 1e-12


@pytest.mark.parametrize("t", [-0.25, [0.25, 0.75]])
def test_path_refuses_times_outside_its_span(t):
    path = TransitionPath(example_system(), anchor=0.0, span=(0.0, 0.5))
    with pytest.raises(ValueError, match="t=0.75|t=-0.25"):
        path.phi(t)


def test_unresolved_path_raises(monkeypatch):
    # The worked example needs degree 32 on [0, 1]; with the ladder cut at
    # 16 no degree passes the tail check, and nothing falls back.
    monkeypatch.setattr(transition, "CHEB_DEGREES", (16,))
    with pytest.raises(IntegrationFailureError, match="unresolved at degree 16"):
        TransitionPath(example_system(), anchor=0.0, span=(0.0, 1.0))


def _count_builds(monkeypatch):
    """Record (anchor, span) of every TransitionPath built from now on."""
    builds = []
    build = TransitionPath.__init__

    def counted(path, sys, anchor=0.0, span=(0.0, 1.0)):
        builds.append((anchor, tuple(span)))
        build(path, sys, anchor, span)

    monkeypatch.setattr(TransitionPath, "__init__", counted)
    return builds


def test_a_system_builds_its_horizon_path_once(monkeypatch):
    # The sandwich, the closed-form Pi grid, the warm start and every solve
    # read the one Phi_M(., 0) over [0, 1] that the system keeps; a repeat
    # solve reads it again and returns the same bytes.
    sys = random_controllable_system(np.random.default_rng(17), 2, channel_match=True)
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.5, 0.3]))
    builds = _count_builds(monkeypatch)
    pi0 = special_case_pi0(sys, bd)
    assert existence_check(sys, 0.0, pi0).exists
    assert integrate_general(sys, pi0, grid_size=11).exists
    first = solve_boundary(sys, bd, grid_size=11)
    second = solve_boundary(sys, bd, grid_size=11)
    assert builds == [(0.0, (0.0, 1.0))]
    assert pickle.dumps(second) == pickle.dumps(first)
    # maximal_interval still builds its own path over its window, anchored at s.
    maximal_interval(sys, 0.0, pi0, (-0.5, 1.5))
    assert len(builds) == 2 and builds[1] != builds[0]
    assert horizon_path(sys) is horizon_path(sys) and len(builds) == 2


def test_a_system_with_another_polynomial_object_gets_its_own_path():
    # Systems compare by their polynomial objects: an equal copy shares the
    # path, a copy with one new (even equal-valued) polynomial does not.
    sys = random_controllable_system(np.random.default_rng(19), 2)
    path = horizon_path(sys)
    assert horizon_path(replace(sys)) is path
    other = replace(sys, Q=sys.Q.scale(1.0))
    assert other.Q is not sys.Q and horizon_path(other) is not path


def test_the_horizon_path_is_freed_with_its_system():
    sys = random_controllable_system(np.random.default_rng(23), 1)
    ref = weakref.ref(horizon_path(sys))
    assert ref() is not None
    del sys
    gc.collect()
    assert ref() is None
