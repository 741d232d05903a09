import threading
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from covsteer import sde_sim
from covsteer.errors import (
    InconsistentNoiseError,
    MissingCheckpointError,
    PreconditionError,
)
from covsteer.matfun import BoundaryData, MatrixPoly
from covsteer.sde_sim import (
    NoiseComponent,
    NoiseModel,
    SimulationConfig,
    covariance_standard_error,
    derive_intensities,
    empirical_moments,
    simulate_paths,
)
from covsteer.steering import solve_boundary

from helpers import (
    const,
    example_noise,
    example_system,
    make_system,
    n3_q2_gain,
    n3_q2_noise,
    n3_q2_system,
    s1,
)


def unit_wiener_noise():
    return NoiseModel(
        additive=(NoiseComponent("wiener", const([[1.0]]), channel=0),),
        multiplicative=())


def zero_gain(p, n):
    return [(0.0, np.zeros((p, n))), (1.0, np.zeros((p, n)))]


def test_derive_intensities_unit_wiener():
    d, nu = derive_intensities(unit_wiener_noise())
    assert_allclose(d.eval(0.5), [[1.0]])
    assert_allclose(nu.eval(0.5), [[0.0]])


def test_derive_intensities_compound_poisson():
    noise = NoiseModel(
        additive=(NoiseComponent("compound_poisson",
                                 MatrixPoly.from_entries([[[3.0, 1.0]]]),
                                 channel=0, jump_std=0.5),),
        multiplicative=())
    d, _ = derive_intensities(noise)
    for t in (0.0, 0.4, 1.0):
        assert abs(d.eval(t)[0, 0] - 0.25 * (3.0 + t)) <= 1e-12


def test_derive_intensities_multiplicative_wiener():
    _, nu = derive_intensities(example_noise(), q=1)
    assert_allclose(nu.eval(0.7), [[0.5]])


@pytest.mark.parametrize("kind", ["compound_poisson", "wiener"])
def test_component_rate_negative_between_grid_times_is_refused(kind):
    # (t - 0.005)(t - 0.0095) is negative only on (0.005, 0.0095), between
    # the grid times 0 and 0.01; (t - 0.5)^2 only touches zero.
    def model(coeffs):
        return NoiseModel(additive=(NoiseComponent(
            kind, MatrixPoly.from_entries([[coeffs]]), channel=0, jump_std=0.1),),
            multiplicative=())

    with pytest.raises(ValueError, match=rf"^{kind} component rate negative at t=0\.007$"):
        derive_intensities(model([4.75e-5, -0.0145, 1.0]))
    d, _ = derive_intensities(model([0.25, -1.0, 1.0]))
    assert d.eval(0.5)[0, 0] == 0.0


def test_dominating_intensity_refuses_a_negative_rate():
    # derive_intensities refuses such a rate first; _Dominating keeps its own check.
    with pytest.raises(ValueError, match="arrival rate is negative on the step grid"):
        sde_sim._Dominating(np.array([-1.0]), np.linspace(0.0, 1.0, 11))


def test_noiseless_reduction_matches_matrix_exponential():
    # First-order drift stepping: the terminal defect is ~ |A|^2 dt / 2,
    # within 1e-6 at dt = 1e-4 for this mild system.
    a = np.array([[-0.1, 0.06], [0.0, -0.04]])
    sys = make_system(2, 1, 1, a, [[0.0], [1.0]], [[1.0], [0.0]], [[0.0]],
                      [[0.0]], np.zeros((2, 2)), [[1.0]])
    noise = NoiseModel(
        additive=(NoiseComponent("wiener", const([[0.0]]), channel=0),),
        multiplicative=())
    x0 = np.array([1.0, -0.7])
    cfg = SimulationConfig(num_paths=3, sigma0=np.zeros((2, 2)),
                           step_size=1e-4, master_seed=1, initial_mean=x0,
                           retain_paths=3)
    res = simulate_paths(sys, noise, zero_gain(1, 2), cfg)
    want = expm(a) @ x0
    for rp in res.retained:
        assert np.array_equal(rp.states[-1], res.retained[0].states[-1])
        assert np.max(np.abs(rp.states[-1] - want)) <= 1e-6


def test_scalar_variance_reaches_target():
    sys = s1()
    sol = solve_boundary(sys, BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]]))
    cfg = SimulationConfig(num_paths=30000, sigma0=np.array([[1.0]]),
                           step_size=1e-3, master_seed=7)
    res = simulate_paths(sys, unit_wiener_noise(), sol.gain_grid, cfg)
    _, cov = empirical_moments(res, 1.0)
    assert abs(cov[0, 0] - 0.5) / 0.5 <= 0.05


@pytest.fixture(scope="module")
def zero_gain_run():
    sys = example_system()
    cfg = SimulationConfig(num_paths=100000, sigma0=np.eye(2),
                           step_size=1e-3, master_seed=11)
    return sys, simulate_paths(sys, example_noise(), zero_gain(1, 2), cfg)


def _moment_ode_terminal(sys, sigma0, gain):
    """Sigma(1) of the moment equation under the gain grid, read linearly.

    dSigma = Acl Sigma + Sigma Acl' + C D C' + 2 nu Sigma, Acl = A + B K(t),
    including the state-dependent 2 nu Sigma term.
    """
    n = sys.n
    gts = [t for t, _ in gain]
    gks = np.stack([k for _, k in gain])

    def rhs(t, y):
        s = y.reshape(n, n)
        k = np.array([np.interp(t, gts, col) for col in gks.reshape(len(gts), -1).T])
        a = sys.A.eval(t) + sys.B.eval(t) @ k.reshape(gks.shape[1:])
        m = sys.C.eval(t) @ sys.D.eval(t) @ sys.C.eval(t).T
        ds = a @ s + s @ a.T + m + 2.0 * float(sys.nu.eval(t)[0, 0]) * s
        return ds.reshape(-1)

    sol = solve_ivp(rhs, (0.0, 1.0), np.asarray(sigma0).reshape(-1), rtol=1e-10, atol=1e-12)
    return sol.y[:, -1].reshape(n, n)


def test_moment_ode_consistency_zero_gain(zero_gain_run):
    sys, res = zero_gain_run
    want = _moment_ode_terminal(sys, np.eye(2), zero_gain(1, 2))
    _, cov = empirical_moments(res, 1.0)
    assert np.linalg.norm(cov - want) / np.linalg.norm(want) <= 0.05


def test_moment_ode_consistency_n3_q2():
    # Time-varying n = 3, p = 2, q = 2 under a nonzero gain: Wiener noise
    # on both additive channels, jumps on channel 1, multiplicative noise.
    sys, n_paths = n3_q2_system(), 20000
    sigma0 = np.diag([1.0, 0.5, 2.0])
    cfg = SimulationConfig(num_paths=n_paths, sigma0=sigma0, step_size=1e-3,
                           master_seed=61)
    res = simulate_paths(sys, n3_q2_noise(), n3_q2_gain(), cfg)
    want = _moment_ode_terminal(sys, sigma0, n3_q2_gain())
    _, cov = empirical_moments(res, 1.0)
    # At 2e4 paths the heavy tails leave a relative error of 2-4%, so the
    # bound is per entry in units of the estimated standard error.
    se = covariance_standard_error(res, 1.0)
    assert np.all(np.abs(cov - want) <= 4.0 * se)


def test_jump_count_mean(zero_gain_run):
    _, res = zero_gain_run
    assert abs(res.jump_mean_counts[0] - 3.5) / 3.5 <= 0.02
    # Zero-mean jumps: the additive martingale stays centered.
    sigma_m1 = np.sqrt(0.25 * 3.5)
    assert abs(res.martingale_mean[0]) <= 3.0 * sigma_m1 / np.sqrt(100000)


def test_reproducibility_and_stream_independence():
    sys = s1()
    cfg = SimulationConfig(num_paths=500, sigma0=np.array([[1.0]]),
                           step_size=5e-3, master_seed=99, retain_paths=6)
    res1 = simulate_paths(sys, unit_wiener_noise(), zero_gain(1, 1), cfg)
    res2 = simulate_paths(sys, unit_wiener_noise(), zero_gain(1, 1), cfg)
    _, cov1 = empirical_moments(res1, 1.0)
    _, cov2 = empirical_moments(res2, 1.0)
    assert np.array_equal(cov1, cov2)

    # Same path index reproduces the same trajectory at any path count.
    cfg_small = SimulationConfig(num_paths=6, sigma0=np.array([[1.0]]),
                                 step_size=5e-3, master_seed=99, retain_paths=6)
    res3 = simulate_paths(sys, unit_wiener_noise(), zero_gain(1, 1), cfg_small)
    for a, b in zip(res1.retained, res3.retained):
        assert a.path_id == b.path_id
        assert np.array_equal(a.states, b.states)
    # Distinct paths draw distinct noise.
    assert not np.array_equal(res1.retained[0].states, res1.retained[1].states)


def n1_q2_system():
    return make_system(1, 1, 2, [[-0.5]], [[1.0]], [[0.7, 1.3]],
                       [[1.0, 0.0], [0.0, 0.3]], [[0.0]], [[1.0]], [[1.0]])


def n1_q2_noise():
    return NoiseModel(
        additive=(NoiseComponent("wiener", const([[1.0]]), channel=0),
                  NoiseComponent("wiener", const([[0.3]]), channel=1)),
        multiplicative=())


def split_system():
    mp = MatrixPoly.from_entries
    return make_system(1, 1, 1, [[-0.5]], [[1.0]], [[1.0]], mp([[[1.0, 0.2]]]),
                       mp([[[0.25, 0.05]]]), [[1.0]], [[1.0]])


def split_noise():
    """Two Wiener components on the channel and two on mu, one of each time-varying."""
    mp = MatrixPoly.from_entries
    return NoiseModel(
        additive=(NoiseComponent("wiener", mp([[[0.4, 0.2]]]), channel=0),
                  NoiseComponent("wiener", const([[0.6]]), channel=0)),
        multiplicative=(NoiseComponent("wiener", mp([[[0.2, 0.1]]])),
                        NoiseComponent("wiener", const([[0.3]]))))


_BATCHING_CASES = {
    # A nonzero gain, so that products round and a BLAS kernel change shows.
    "example": (example_system, example_noise,
                lambda: [(0.0, np.array([[-0.3, 0.8]])), (1.0, np.array([[0.5, -1.1]]))],
                np.eye(2)),
    "n3_q2": (n3_q2_system, n3_q2_noise, n3_q2_gain, np.diag([1.0, 0.5, 2.0])),
    "n1_q2": (n1_q2_system, n1_q2_noise,
              lambda: [(0.0, np.array([[-0.7]])), (1.0, np.array([[0.2]]))], np.eye(1)),
    "split": (split_system, split_noise,
              lambda: [(0.0, np.array([[-0.6]])), (1.0, np.array([[0.4]]))], np.eye(1)),
}


def _jump_run(case, num_paths, block=None, threads=None, chunk=4, slice_=None, **cfg_args):
    # Streams of a few paths each, so that small runs span several chunks.
    system, noise, gain, sigma0 = _BATCHING_CASES[case]
    cfg = SimulationConfig(**{"num_paths": num_paths, "sigma0": sigma0, "step_size": 1e-2,
                              "master_seed": 57, "retain_paths": num_paths, **cfg_args})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde_sim, "_STREAM_CHUNK", chunk)
        if block is not None:
            mp.setattr(sde_sim, "_BLOCK", block)
        if threads is not None:
            mp.setattr(sde_sim, "_DRAW_THREADS", threads)
        if slice_ is not None:
            mp.setattr(sde_sim, "_SLICE", slice_)
        return simulate_paths(system(), noise(), gain(), cfg)


@pytest.fixture(scope="module")
def jump_reference():
    return {case: _jump_run(case, 24) for case in _BATCHING_CASES}


@pytest.mark.parametrize("case", list(_BATCHING_CASES))
@settings(max_examples=8, deadline=None)
@given(num_paths=st.integers(1, 24), block=st.integers(1, 9), threads=st.integers(1, 4),
       slice_=st.integers(1, 100))
def test_jump_paths_do_not_depend_on_batching(jump_reference, case, num_paths, block,
                                              threads, slice_):
    # Each chunk of four paths is drawn whole from its own stream, also when
    # a block boundary or the path count cuts it, and its Wiener normals are
    # read on slice by slice, so a path's trajectory depends on neither the
    # path count, the batching, the slicing of the 100 steps nor the number
    # of draw threads.
    ref = jump_reference[case]
    res = _jump_run(case, num_paths, block, threads, slice_=slice_)
    # The caller and one worker per chunk of the block that touches the
    # most, up to threads in all.
    chunks = max((min(lo + block, num_paths) - 1) // 4 - lo // 4 + 1
                 for lo in range(0, num_paths, block))
    assert res.draw_threads == min(threads, chunks + 1)
    assert [rp.path_id for rp in res.retained] == list(range(num_paths))
    for rp in res.retained:
        assert np.array_equal(rp.states, ref.retained[rp.path_id].states)
        assert np.array_equal(rp.controls, ref.retained[rp.path_id].controls)
    assert res.jump_mean_counts == _jump_run(case, num_paths).jump_mean_counts


@pytest.mark.parametrize("case", list(_BATCHING_CASES))
def test_statistics_do_not_depend_on_draw_threads(case):
    # Same blocks and chunks: every statistic, not only each path, is
    # bit-identical for any number of draw threads and any slice length
    # (the sum of m continues in step order across slices).  The block of
    # paths 11..21 touches chunks 2..5, so the caller and three workers draw
    # it, in 15 slices of at most seven steps.  A short switch interval
    # makes the threads interleave often.
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        one, many = (_jump_run(case, 23, block=11, threads=t, slice_=7) for t in (1, 4))
    finally:
        setswitchinterval(interval)
    whole = _jump_run(case, 23, block=11, threads=1, slice_=100)
    assert (one.draw_threads, many.draw_threads) == (1, 4)
    for other in (many, whole):
        for field in ("envelope_mean", "envelope_var", "martingale_mean"):
            assert np.array_equal(getattr(one, field), getattr(other, field))
        assert ((one.cost_estimate, one.jump_mean_counts)
                == (other.cost_estimate, other.jump_mean_counts))
        for (_, *got), (_, *want) in zip(other.checkpoint_moments, one.checkpoint_moments):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_lone_path_sum_of_m_does_not_depend_on_slicing():
    # numpy sums one path on one channel pairwise, not row after row, so
    # that case is summed in step order on its own.
    cfg = SimulationConfig(num_paths=1, sigma0=np.eye(1), step_size=1e-2, master_seed=1)
    sums = []
    for slice_ in (7, 100):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sde_sim, "_SLICE", slice_)
            sums.append(simulate_paths(s1(), unit_wiener_noise(), zero_gain(1, 1),
                                       cfg).martingale_mean)
    assert np.array_equal(*sums)


class _ChunkFailure(Exception):
    pass


@pytest.mark.parametrize("failing_slice,on_worker",
                         [(0, False), (0, True), (21, False), (21, True)],
                         ids=["first-caller", "first-worker", "later-caller", "later-worker"])
def test_failing_draw_thread_reaches_the_caller(monkeypatch, failing_slice, on_worker):
    # A chunk of the first slice, or of the slice from step 21 (drawn while
    # the caller steps the one before), fails on a worker or on the calling
    # thread; either way the error surfaces with its type and every worker
    # is joined.  In that slice the other side waits until the failing side
    # has taken a chunk, so that the failure happens where it is meant to.
    draw_chunk = sde_sim._draw_chunk
    failed = threading.Event()
    failures = []

    def failing(step, seed, mean0, l0, streams, j, unit, buffers, w):
        if unit[2] == failing_slice:
            if (threading.current_thread() is not threading.main_thread()) == on_worker:
                failures.append(j)
                failed.set()
                raise _ChunkFailure(j)
            failed.wait(10.0)
        draw_chunk(step, seed, mean0, l0, streams, j, unit, buffers, w)

    monkeypatch.setattr(sde_sim, "_draw_chunk", failing)
    before = threading.active_count()
    with pytest.raises(_ChunkFailure) as err:
        # Four chunks of two paths: the caller and three workers.
        _jump_run("example", 8, threads=4, chunk=2, slice_=7)
    assert threading.active_count() == before
    assert err.value.args[0] in failures


class _StepFailure(Exception):
    pass


def test_failing_step_loop_joins_the_drawing_workers(monkeypatch):
    # The step loop fails at step 21, the first of a later slice, while
    # three workers draw the next slice; each waits in its chunk until the
    # failure, so it is still drawing then.  The error surfaces with its
    # type once every worker is joined.
    dot, draw_chunk = sde_sim._dot, sde_sim._draw_chunk
    failed, calls, waited = threading.Event(), [], []

    def failing_dot(a, x):
        calls.append(None)
        if len(calls) == 3 * 21 + 1:  # three products a step
            failed.set()
            raise _StepFailure
        return dot(a, x)

    def drawing(step, seed, mean0, l0, streams, j, unit, buffers, w):
        if unit[2] == 28 and threading.current_thread() is not threading.main_thread():
            waited.append(failed.wait(10.0))
        draw_chunk(step, seed, mean0, l0, streams, j, unit, buffers, w)

    monkeypatch.setattr(sde_sim, "_dot", failing_dot)
    monkeypatch.setattr(sde_sim, "_draw_chunk", drawing)
    before = threading.active_count()
    with pytest.raises(_StepFailure):
        # Four chunks of two paths: the caller and three workers.
        _jump_run("example", 8, threads=4, chunk=2, slice_=7)
    assert threading.active_count() == before
    assert waited and all(waited)


def test_zero_rate_increments_are_positive_zero():
    # z * 0.0 is -0.0 for a negative z; a zero-rate step's increment is
    # +0.0 instead, as when components are added to a zeroed buffer.  mu has
    # no component here and is zeroed.  The eight paths cut the first chunk,
    # drawn in slices of 40 steps.
    sys = make_system(2, 1, 1, np.zeros((2, 2)), [[0.0], [1.0]], [[1.0], [0.0]],
                      [[0.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])
    noise = NoiseModel(
        additive=(NoiseComponent("wiener", const([[0.0]]), channel=0),), multiplicative=())
    step = sde_sim._StepData(sys, noise, zero_gain(1, 2), 1e-2)
    scratch, streams = np.empty((40, 1, sde_sim._STREAM_CHUNK)), {}
    for k0 in range(0, step.nsteps, 40):
        k1 = min(k0 + 40, step.nsteps)
        dm, dmu = np.full((41, 1, 8), np.nan), np.full((40, 8), np.nan)
        sde_sim._draw_chunk(step, 5, np.zeros(2), np.eye(2), streams, 0, (0, 8, k0, k1),
                            (dm, dmu, np.empty((2, 8))), scratch)
        for buf in (dm[1:k1 - k0 + 1], dmu[:k1 - k0]):
            assert np.all(buf == 0.0) and not np.any(np.signbit(buf))


def test_jumps_within_a_step_keep_their_draw_order(monkeypatch):
    # About 30 arrivals a step and path, drawn a slice of 30 steps at a time:
    # each step's jumps are added in draw order, as in one full-horizon
    # add, so the sort by step must be stable.
    monkeypatch.setattr(sde_sim, "_STREAM_CHUNK", 4)
    rate = const([[3000.0]])
    sys = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], rate, [[0.0]], [[0.0]], [[1.0]])
    noise = NoiseModel(
        additive=(NoiseComponent("compound_poisson", rate, channel=0, jump_std=1.0),),
        multiplicative=())
    step = sde_sim._StepData(sys, noise, zero_gain(1, 1), 1e-2)
    streams, got = {}, np.empty((step.nsteps, 4))
    for k0 in range(0, step.nsteps, 30):
        k1 = min(k0 + 30, step.nsteps)
        dm, dmu = np.full((31, 1, 4), np.nan), np.full((30, 4), np.nan)
        sde_sim._draw_chunk(step, 9, np.zeros(1), np.eye(1), streams, 0, (0, 4, k0, k1),
                            (dm, dmu, np.empty((1, 4))), np.empty((30, 0, 4)))
        got[k0:k1] = dm[1:k1 - k0 + 1, 0]
    gen = np.random.Generator(np.random.Philox(key=9 << 64))
    gen.standard_normal((1, 4))
    (_, _, dom, _), = step.compound
    counts = gen.poisson(dom.total, 4)
    u = gen.random(2 * counts.sum())
    sizes = gen.standard_normal(counts.sum())
    k, keep = dom.thin(u[:counts.sum()], u[counts.sum():])
    assert keep.all()
    want = np.zeros((step.nsteps, 4))
    np.add.at(want, (k, np.repeat(np.arange(4), counts)), sizes)
    assert np.array_equal(got, want)


def test_draw_order_within_a_chunk(monkeypatch):
    # Each chunk's stream rebuilt in the documented order: the initial
    # states, the jump counts, uniforms and sizes, then the step-major Wiener
    # normals in one read.  The run reads them in slices of 30 of its 100
    # steps; its blocks of six paths cut chunk 0 (paths 0..7) and the path
    # count cuts chunk 2.  Every value the step loop reads is recorded as
    # the pipeline writes it.
    chunk, seed, num_paths, nsteps = 8, 31, 21, 100
    mean0 = np.array([0.5, -1.0, 2.0])
    sigma0 = np.array([[1.0, 0.3, -0.2], [0.3, 0.73, 0.02], [-0.2, 0.02, 0.41]])
    got_x0, got_dm = np.full((3, num_paths), np.nan), np.full((nsteps, 2, num_paths), np.nan)
    got_dmu, accepted = np.full((nsteps, num_paths), np.nan), []
    draw_chunk = sde_sim._draw_chunk

    def recording(step, seed_, mean0_, l0, streams, j, unit, buffers, w):
        draw_chunk(step, seed_, mean0_, l0, streams, j, unit, buffers, w)
        (lo, hi, k0, k1), (dm, dmu, x0) = unit, buffers
        a, b = max(lo, j * chunk), min(hi, (j + 1) * chunk)
        if k0 == 0:
            got_x0[:, a:b] = x0[:, a - lo:b - lo]
            accepted.append(sum(len(k) for k, _, _ in streams[j][1]))
        got_dm[k0:k1, :, a:b] = dm[1:k1 - k0 + 1, :, a - lo:b - lo]
        got_dmu[k0:k1, a:b] = dmu[:k1 - k0, a - lo:b - lo]

    monkeypatch.setattr(sde_sim, "_draw_chunk", recording)
    res = _jump_run("n3_q2", num_paths, block=6, chunk=chunk, slice_=30, master_seed=seed,
                    sigma0=sigma0, initial_mean=mean0)
    step = sde_sim._StepData(n3_q2_system(), n3_q2_noise(), n3_q2_gain(), 1e-2)
    assert step.nsteps == nsteps
    l0 = sde_sim._psd_sqrt(sigma0)
    (_, _, s0, _), (_, _, s1, _), (_, _, s_mu, _) = step.wiener
    (_, _, dom, jump_std), = step.compound
    kept = 0
    for j in range(3):
        gen = np.random.Generator(np.random.Philox(key=seed << 64 | j))
        x_chunk = mean0[:, None] + l0 @ gen.standard_normal((3, chunk))
        counts = gen.poisson(dom.total, chunk)
        u = gen.random(2 * counts.sum())
        sizes = gen.standard_normal(counts.sum())
        w = gen.standard_normal((nsteps, 3, chunk))
        ends = np.cumsum(counts)
        for i in range(j * chunk, min(num_paths, (j + 1) * chunk)):
            c = i - j * chunk
            assert np.array_equal(got_x0[:, i], x_chunk[:, c])
            assert np.array_equal(got_dm[:, 0, i], w[:, 0, c] * s0)
            assert np.array_equal(got_dmu[:, i], w[:, 2, c] * s_mu)
            mine = slice(ends[c] - counts[c], ends[c])
            k, keep = dom.thin(u[mine], u[counts.sum():][mine])
            want = w[:, 1, c] * s1
            np.add.at(want, k[keep], sizes[mine][keep] * jump_std)
            assert np.array_equal(got_dm[:, 1, i], want)
            kept += np.count_nonzero(keep)
    assert kept > 0 and sum(accepted) == kept
    assert res.jump_mean_counts == (kept / num_paths,)


def test_second_wiener_component_adds_to_its_target(monkeypatch):
    # The split model, rebuilt from each chunk's stream: the initial states,
    # then the step-major normals of its four Wiener components.  On each
    # target the first component writes w_a s_a and the second adds w_b s_b.
    chunk, seed, num_paths, nsteps = 4, 57, 10, 100
    got_dm, got_dmu = (np.full((nsteps, num_paths), np.nan) for _ in range(2))
    draw_chunk = sde_sim._draw_chunk

    def recording(step, seed_, mean0, l0, streams, j, unit, buffers, w):
        draw_chunk(step, seed_, mean0, l0, streams, j, unit, buffers, w)
        (lo, hi, k0, k1), (dm, dmu, _) = unit, buffers
        a, b = max(lo, j * chunk), min(hi, (j + 1) * chunk)
        got_dm[k0:k1, a:b] = dm[1:k1 - k0 + 1, 0, a - lo:b - lo]
        got_dmu[k0:k1, a:b] = dmu[:k1 - k0, a - lo:b - lo]

    monkeypatch.setattr(sde_sim, "_draw_chunk", recording)
    _jump_run("split", num_paths, block=6, chunk=chunk, slice_=30, master_seed=seed)
    step = sde_sim._StepData(split_system(), split_noise(), zero_gain(1, 1), 1e-2)
    (_, _, s_a, first), (_, _, s_b, later), (_, _, s_c, _), (_, _, s_d, _) = step.wiener
    assert first is not None and later is None
    for j in range(3):
        gen = np.random.Generator(np.random.Philox(key=seed << 64 | j))
        gen.standard_normal((1, chunk))
        w = gen.standard_normal((nsteps, 4, chunk))
        for i in range(j * chunk, min(num_paths, (j + 1) * chunk)):
            c = i - j * chunk
            assert np.array_equal(got_dm[:, i], w[:, 0, c] * s_a + w[:, 1, c] * s_b)
            assert np.array_equal(got_dmu[:, i], w[:, 2, c] * s_c + w[:, 3, c] * s_d)


def test_thinning_law_with_interior_supremum():
    # lambda(t) = 3 + 4t - 6t^2 peaks at t = 1/3, strictly inside a step.
    # With A = 0, K = 0 and x0 = 0 the state moves only at accepted jumps.
    coeffs = [3.0, 4.0, -6.0]
    rate = MatrixPoly.from_entries([[coeffs]])
    sys = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], rate, [[0.0]],
                      [[0.0]], [[1.0]])
    noise = NoiseModel(
        additive=(NoiseComponent("compound_poisson", rate, channel=0, jump_std=1.0),),
        multiplicative=())
    dt, n_paths = 2e-3, 2000
    times = np.arange(501) * dt
    sup = sde_sim._step_suprema(np.array(coeffs), times)
    k = int(np.floor((1.0 / 3.0) / dt))
    assert sup[k] == pytest.approx(3.0 + 2.0 / 3.0, abs=1e-12)
    assert sup[k] > max(rate.eval(times[k])[0, 0], rate.eval(times[k + 1])[0, 0])

    cfg = SimulationConfig(num_paths=n_paths, sigma0=np.zeros((1, 1)), step_size=dt,
                           master_seed=41, retain_paths=n_paths)
    res = simulate_paths(sys, noise, zero_gain(1, 1), cfg)
    hits = np.array([np.diff(rp.states[:, 0]) != 0.0 for rp in res.retained])
    counts = hits.sum(axis=1)
    # Accepted count ~ Poisson(int lambda = 3): mean and variance 3.  A
    # step holding two arrivals counts once here, a bias of about
    # dt/2 * int lambda^2 = 0.01.
    mean_se = np.sqrt(3.0 / n_paths)
    var_se = np.sqrt((3.0 * (1.0 + 3.0 * 3.0) - 9.0) / n_paths)  # Poisson mu4
    assert abs(res.jump_mean_counts[0] - 3.0) <= 4.0 * mean_se
    assert abs(counts.mean() - 3.0) <= 4.0 * mean_se + 0.02
    assert abs(counts.var(ddof=1) - 3.0) <= 4.0 * var_se + 0.02
    # Arrival times have density lambda / int lambda: mean (4/3) / 3.
    t_mid = times[:-1] + 0.5 * dt
    t_mean = float((hits * t_mid).sum() / hits.sum())
    t_sd = np.sqrt(0.8 / 3.0 - (4.0 / 9.0) ** 2)
    assert abs(t_mean - 4.0 / 9.0) <= 4.0 * t_sd / np.sqrt(hits.sum()) + dt


def test_moments_single_path_guard():
    sys = s1()
    cfg = SimulationConfig(num_paths=1, sigma0=np.array([[1.0]]),
                           step_size=1e-2, master_seed=3)
    res = simulate_paths(sys, unit_wiener_noise(), zero_gain(1, 1), cfg)
    mean, cov = empirical_moments(res, 1.0)
    assert cov is None
    with pytest.raises(MissingCheckpointError):
        empirical_moments(res, 0.123)


def test_injected_standard_normal_moments():
    # Frozen dynamics (A = 0, no noise): terminal states are the initial
    # standard normal draws, so the CLT bound applies at t = 1.
    n_paths = 100000
    sys = make_system(2, 1, 1, np.zeros((2, 2)), [[0.0], [1.0]],
                      [[1.0], [0.0]], [[0.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])
    noise = NoiseModel(
        additive=(NoiseComponent("wiener", const([[0.0]]), channel=0),),
        multiplicative=())
    cfg = SimulationConfig(num_paths=n_paths, sigma0=np.eye(2),
                           step_size=1e-2, master_seed=17)
    res = simulate_paths(sys, noise, zero_gain(1, 2), cfg)
    mean, cov = empirical_moments(res, 1.0)
    assert np.all(np.abs(mean) <= 3.0 / np.sqrt(n_paths))
    assert np.max(np.abs(cov - np.eye(2))) <= 0.05
    # Var(x_i x_j) is 2 on the diagonal and 1 off it for independent N(0, 1).
    se = covariance_standard_error(res, 1.0)
    want = np.sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]) / n_paths)
    assert np.all(np.abs(se / want - 1.0) <= 0.10)
    # Central moments: shifting every path by a constant changes neither.
    shifted = simulate_paths(sys, noise, zero_gain(1, 2), SimulationConfig(
        num_paths=n_paths, sigma0=np.eye(2), step_size=1e-2, master_seed=17,
        initial_mean=np.array([3.0, -2.0])))
    assert_allclose(empirical_moments(shifted, 1.0)[1], cov, rtol=1e-9)
    assert_allclose(covariance_standard_error(shifted, 1.0), se, rtol=1e-9)


def test_estimate_cost_zero_integrand():
    sys = s1()  # Q = 0 and K = 0 makes the integrand identically zero
    cfg = SimulationConfig(num_paths=50, sigma0=np.array([[1.0]]),
                           step_size=1e-2, master_seed=23)
    res = simulate_paths(sys, unit_wiener_noise(), zero_gain(1, 1), cfg)
    j_hat, half = res.cost_estimate
    assert j_hat == 0.0
    assert half == 0.0


def test_estimate_cost_scalar_interval():
    sys = s1()
    sol = solve_boundary(sys, BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]]))
    cfg = SimulationConfig(num_paths=20000, sigma0=np.array([[1.0]]),
                           step_size=1e-3, master_seed=29)
    res = simulate_paths(sys, unit_wiener_noise(), sol.gain_grid, cfg)
    j_hat, half = res.cost_estimate
    assert abs(j_hat - sol.optimal_cost) <= half + 0.01


def test_inconsistent_noise_rejected():
    sys = s1()  # D = 1 but the model below derives D = 4
    noise = NoiseModel(
        additive=(NoiseComponent("wiener", const([[4.0]]), channel=0),),
        multiplicative=())
    cfg = SimulationConfig(num_paths=10, sigma0=np.array([[1.0]]),
                           step_size=1e-2, master_seed=1)
    with pytest.raises(InconsistentNoiseError):
        simulate_paths(sys, noise, zero_gain(1, 1), cfg)


def test_step_size_and_gain_coverage_guards():
    with pytest.raises(ValueError):
        SimulationConfig(num_paths=10, sigma0=np.eye(1), step_size=0.02)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            SimulationConfig(num_paths=10, sigma0=np.eye(1), master_seed=seed)
    sys = s1()
    cfg = SimulationConfig(num_paths=10, sigma0=np.array([[1.0]]),
                           step_size=1e-2, master_seed=1)
    partial_gain = [(0.0, np.zeros((1, 1))), (0.4, np.zeros((1, 1)))]
    with pytest.raises(PreconditionError):
        simulate_paths(sys, unit_wiener_noise(), partial_gain, cfg)
    # Zero-size jumps hide a negative arrival rate from the intensity check.
    negative_rate = NoiseModel(
        additive=(NoiseComponent("compound_poisson", const([[-1.0]]), channel=0),),
        multiplicative=())
    silent = make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]],
                         [[0.0]], [[1.0]])
    with pytest.raises(ValueError, match="negative"):
        simulate_paths(silent, negative_rate, zero_gain(1, 1), cfg)
