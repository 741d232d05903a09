import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from covsteer._quad import adaptive_gk
from covsteer.matfun import symmetrize
from covsteer.riccati import closed_form_on_path
from covsteer.steering import feedback_gain
from covsteer.transition import (
    TransitionPath,
    gramian_identity,
    pi_bounds,
    symplectic_residuals,
    transition_blocks,
)

from helpers import (
    expm_blocks,
    make_system,
    random_admissible_pi0,
    random_controllable_system,
    s1,
    s1_with_q,
    example_system,
)


def test_adaptive_gk_against_analytic_integrals():
    # Integrands take an array of times; the leading axis runs over them.
    val, err, saturated = adaptive_gk(lambda ts: ts * np.exp(ts), 0.0, 1.0, atol=1e-12)
    assert err <= 1e-12 and not saturated
    assert abs(float(val) - 1.0) <= 1e-11  # int t e^t = 1
    val, _, _ = adaptive_gk(lambda ts: np.stack([np.cos(10 * ts), ts ** 4], axis=-1), 0.0, 1.0)
    assert abs(val[0] - np.sin(10.0) / 10.0) <= 1e-10
    assert abs(val[1] - 0.2) <= 1e-12
    val, _, _ = adaptive_gk(lambda ts: ts, 1.0, 0.0)  # reversed interval
    assert abs(float(val) + 0.5) <= 1e-12


def test_adaptive_gk_reports_saturation():
    # The panel limit ends a refinement that has not met its tolerance.
    _, err, saturated = adaptive_gk(lambda ts: 1.0 / np.sqrt(ts), 0.0, 1.0, max_panels=5)
    assert saturated and err > 1e-10
    # At the panel limit with the tolerance met the result is not saturated.
    _, err, saturated = adaptive_gk(lambda ts: ts ** 3, 0.0, 1.0, max_panels=1)
    assert not saturated and err <= 1e-10
    # A NaN estimate never meets the tolerance either.
    assert adaptive_gk(lambda ts: np.full(ts.shape, np.nan), 0.0, 1.0, max_panels=3)[2]


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


def test_gramian_identity_trivial_and_s1():
    sys = s1()
    check = gramian_identity(sys, (0.3, [[0.0]]), 0.3)
    assert_allclose(check.mbar, np.zeros((1, 1)))
    assert check.residual == 0.0

    check = gramian_identity(sys, (0.0, [[0.0]]), 1.0)
    assert_allclose(check.mbar, [[1.0]], atol=1e-9)
    assert_allclose(check.rhs, [[1.0]], atol=1e-9)
    assert check.residual <= 1e-7


def test_gramian_identity_random_system():
    rng = np.random.default_rng(5)
    sys = random_controllable_system(rng, 2)
    check = gramian_identity(sys, (0.0, np.zeros((2, 2))), 0.8)
    assert check.residual <= 1e-7


def test_block_ratio_monotonicity_loewner():
    rng = np.random.default_rng(17)
    sys = random_controllable_system(rng, 2)
    s = 0.1
    path = TransitionPath(sys, anchor=s, span=(s, 1.0))

    def n_like(t):
        b = path.blocks(t)
        return symmetrize(-np.linalg.solve(b.phi11, b.phi12))

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

    gram, _, _ = adaptive_gk(integrand, s, t, atol=1e-12)
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
        direct = transition_blocks(sys, t, 0.0)
        dense = path.blocks(t)
        assert np.max(np.abs(direct.phi12 - dense.phi12)) <= 1e-9
        assert np.max(np.abs(direct.phi21 - dense.phi21)) <= 1e-9
    # An interior anchor serves both sides of it from one array of times.
    mid = TransitionPath(sys, anchor=0.4, span=(0.0, 1.0))
    times = np.array([0.77, 0.1, 0.4])
    for t, phi in zip(times, mid.phi(times)):
        b = transition_blocks(sys, t, 0.4)
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
    gains = feedback_gain(sys, list(zip(times, pis)))
    assert [t for t, _ in gains] == list(times)
    _assert_stacks_equal(np.stack([k for _, k in gains]),
                         np.stack([feedback_gain(sys, [(t, pi)])[0][1]
                                   for t, pi in zip(times, pis)]))
