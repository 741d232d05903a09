"""Monte Carlo simulation of the controlled jump-diffusion.

Paths of dx = A x dt + B u dt + C dm + x dmu are generated by
Euler-Maruyama under a gain schedule u = K(t) x.  Additive channels of m
and the scalar multiplicative martingale mu are compositions of Wiener
components (given by their diffusion-rate polynomials) and compound
Poisson components (arrival-rate polynomial, zero-mean normal jumps).
Arrivals are drawn over the whole path from the piecewise-constant
dominating intensity (each step's supremum of the rate) and thinned to the
rate (Lewis & Shedler); accepted jumps are applied at the end of their
step, all increments evaluated at the left endpoint (Ito convention).

Noise comes from counter-based streams, one for each fixed chunk of
S = _STREAM_CHUNK paths: stream j is Generator(Philox(key=master_seed << 64
| j)) and covers paths [j S, (j + 1) S).  Within a chunk the draws come in
a fixed order:

1. standard_normal((n, S)): the chunk's initial states, a column a path;
2. for each compound component, in model order: the counts N =
   poisson(sum of the dominating step masses, S), random(2 sum N) (the
   placements inverting the dominating intensity, then the accept
   variates) and standard_normal(sum N) (the jump sizes); the arrivals are
   the chunk's paths' in path order, N[i] of them for path i;
3. standard_normal((nsteps, nw, S)) for nw > 0 Wiener components: each
   step's increments, component by component, a column a path, read in
   consecutive slices of steps, which give the values of one read.

The jumps came after the Wiener increments in an earlier order, so models
with a compound component draw other numbers than they did; Wiener-only
models draw the same.  A chunk is always drawn whole and a path reads only
its own columns, so its values depend on the seed, its index and S alone,
not on the path count, the batching, the slicing or the threads; keyed
counter-based substreams are independent (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).

Paths are stepped in blocks of _BLOCK, and a block's noise is held _SLICE
steps at a time in step-major buffers, dm (slice, q, paths) and dmu
(slice, paths), in two sets: while the calling thread steps one slice,
workers (one per further usable CPU) draw the next, perhaps the next
block's first, taking chunks from a shared iterator; the calling thread
then draws the chunks left and joins them.  A block's first slice draws
its chunks' initial states and jumps; each jump is added to the slice it
falls in.  draw_s is the calling thread's wall time outside the step loop:
drawing or waiting for noise.  A block's states are an (n, paths) array, so
every term of the update and every statistic is a pass over contiguous
rows of paths; at each checkpoint the loop also accumulates the per-path
fourth moments that give the standard error of each covariance entry.
"""

import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    InconsistentNoiseError,
    MissingCheckpointError,
    PreconditionError,
)
from .matfun import MatrixPoly, SystemSpec, symmetrize

_BLOCK = 4096  # fixed batching constant; results do not depend on it
_SLICE = 200  # steps of noise held at a time; results do not depend on it
_STREAM_CHUNK = 256  # paths per noise stream; a path's values depend on it
# Threads that draw noise, the caller and a worker per further CPU this process
# may use (every CPU where no affinity mask exists); results do not depend on it.
_DRAW_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class NoiseComponent:
    """One martingale component: Wiener diffusion or compound Poisson jumps.

    rate is the diffusion-rate polynomial for a Wiener component and the
    arrival-rate polynomial for a compound Poisson component; channel
    indexes into the additive vector m (None for multiplicative).
    """

    kind: str  # "wiener" | "compound_poisson"
    rate: MatrixPoly
    channel: int | None = None
    jump_std: float = 0.0

    def __post_init__(self):
        if self.kind not in ("wiener", "compound_poisson"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.rate.rows != 1 or self.rate.cols != 1:
            raise ValueError("component rate must be a scalar polynomial")
        if self.kind == "compound_poisson" and self.jump_std < 0.0:
            raise ValueError("jump standard deviation must be nonnegative")


@dataclass(frozen=True)
class NoiseModel:
    additive: tuple
    multiplicative: tuple

    def __post_init__(self):
        for comp in self.additive:
            if comp.channel is None or comp.channel < 0:
                raise ValueError("additive components need a channel index")
        for comp in self.multiplicative:
            if comp.channel is not None:
                raise ValueError("multiplicative components carry no channel")


def derive_intensities(noise: NoiseModel, q: int | None = None):
    """Aggregate (D(t), nu(t)) implied by the noise model.

    Wiener components add their diffusion rate to the channel diagonal of
    D; compound Poisson components add lambda(t) sigma_chi^2.  The
    multiplicative components sum into 2 nu(t).  Each component's own rate
    must be nonnegative on [0, 1], so the sums are too: it is checked at both
    ends and at its real critical points inside, where its minimum lies.
    """
    if q is None:
        q = 1 + max((c.channel for c in noise.additive), default=0)
    d_poly, nu_poly = MatrixPoly.zeros(q, q), MatrixPoly.zeros(1, 1)
    for comp in noise.additive + noise.multiplicative:
        coeffs = comp.rate.entry()
        times = np.sort([0.0, 1.0, *_critical_points(coeffs, 0.0, 1.0)])
        bad = times[P.polyval(times, coeffs) < 0.0]
        if bad.size:
            raise ValueError(f"{comp.kind} component rate negative at t={bad[0]:.3f}")
        # d E[increment^2]/dt: the diffusion rate, or lambda(t) E[chi^2].
        rate = comp.rate if comp.kind == "wiener" else comp.rate.scale(comp.jump_std ** 2)
        if comp.channel is None:
            nu_poly = nu_poly + rate.scale(0.5)
        elif comp.channel < q:  # onto the channel's diagonal entry
            unit = MatrixPoly.constant(np.eye(q)[:, [comp.channel]])
            d_poly = d_poly + unit @ rate @ unit.T
        else:
            raise ValueError(f"channel {comp.channel} outside 0..{q - 1}")
    return d_poly, nu_poly


@dataclass(frozen=True)
class SimulationConfig:
    """Monte Carlo run parameters.

    The initial state is Gaussian with covariance sigma0 and zero mean
    (an explicit initial_mean supports deterministic point-mass checks).
    """

    num_paths: int
    sigma0: np.ndarray
    step_size: float = 1e-3
    master_seed: int = 0
    checkpoint_times: tuple = (0.0, 1.0)
    retain_paths: int = 10
    initial_mean: np.ndarray | None = None

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be at least 1")
        if not 0.0 < self.step_size <= 0.01:
            raise ValueError("step size must lie in (0, 0.01]")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(
                f"master seed {self.master_seed} outside [0, 2**64)")
        times = _step_times(self.step_size)
        for t_cp in self.checkpoint_times:
            if np.min(np.abs(times - t_cp)) > 1e-9:
                raise ValueError(f"checkpoint {t_cp} is not on the step grid")
        object.__setattr__(self, "sigma0", np.asarray(self.sigma0, dtype=float))
        if self.initial_mean is not None:
            object.__setattr__(self, "initial_mean",
                               np.asarray(self.initial_mean, dtype=float))


@dataclass(frozen=True)
class RetainedPath:
    path_id: int
    times: np.ndarray
    states: np.ndarray  # (steps + 1, n)
    controls: np.ndarray  # (steps + 1, p)


@dataclass(frozen=True)
class SimulationResult:
    num_paths: int
    master_seed: int
    times: np.ndarray
    checkpoint_moments: tuple  # (t, mean, cov, cov standard error); cov and se None for one path
    envelope_mean: np.ndarray  # (steps + 1, n)
    envelope_var: np.ndarray  # (steps + 1, n), unbiased per-component variance
    cost_estimate: tuple  # (J, 95% half-width) of the per-path cost quadratures
    retained: tuple  # RetainedPath entries
    jump_mean_counts: tuple  # mean accepted arrivals per compound component
    martingale_mean: np.ndarray  # empirical mean of m(1) per channel
    draw_s: float  # wall time outside step_s: drawing or waiting for noise (perf_counter seconds)
    step_s: float  # wall time in the Euler step loop
    draw_threads: int  # threads that draw noise: the calling thread and its workers


def _step_times(dt: float) -> np.ndarray:
    """The Euler grid: steps of dt from 0, the last one cut to end at 1."""
    times = np.minimum(np.arange(int(math.ceil(1.0 / dt - 1e-12)) + 1) * dt, 1.0)
    times[-1] = 1.0
    return times


def _step_suprema(coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact maximum of an ascending-coefficient polynomial on each step.

    The maximum on [t_k, t_k+1] is at an endpoint or at a real critical
    point strictly inside the step.
    """
    vals = P.polyval(times, coeffs)
    sup = np.maximum(vals[:-1], vals[1:])
    for r in _critical_points(coeffs, times[0], times[-1]):
        k = int(np.searchsorted(times, r)) - 1
        if times[k] < r:
            sup[k] = max(sup[k], float(P.polyval(r, coeffs)))
    return sup


def _critical_points(coeffs: np.ndarray, lo: float, hi: float) -> list:
    """Real critical points of an ascending-coefficient polynomial strictly inside (lo, hi)."""
    roots = P.polyroots(P.polyder(coeffs)) if len(coeffs) > 2 else ()
    return [r.real for r in roots if abs(r.imag) < 1e-12 and lo < r.real < hi]


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(symmetrize(mat))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def _gain_on_grid(gain, times: np.ndarray) -> np.ndarray:
    """K at each time: linear between gain points, held beyond the ends."""
    gts = np.array([t for t, _ in gain])
    gks = np.stack([np.atleast_2d(k) for _, k in gain])
    if gts[0] > 0.0 or gts[-1] < 1.0 - 1e-12:
        raise PreconditionError("gain grid must cover [0, 1]")
    idx = np.searchsorted(gts, times)
    kmat = gks[np.minimum(idx, len(gts) - 1)]
    inner = (idx > 0) & (idx < len(gts))
    i = idx[inner]
    w = ((times[inner] - gts[i - 1]) / (gts[i] - gts[i - 1]))[:, None, None]
    kmat[inner] = (1.0 - w) * gks[i - 1] + w * gks[i]
    return kmat


class _Dominating:
    """Thinning of one arrival rate against its per-step suprema."""

    def __init__(self, coeffs: np.ndarray, times: np.ndarray):
        self.coeffs = coeffs
        self.times = times
        self.lam_max = _step_suprema(coeffs, times)
        if np.any(self.lam_max < 0.0):
            raise ValueError("arrival rate is negative on the step grid")
        self.mass = self.lam_max * np.diff(times)
        self.cum = np.cumsum(self.mass)
        self.total = float(self.cum[-1])

    def thin(self, place: np.ndarray, accept: np.ndarray):
        """Step index and acceptance of arrivals given their two uniforms.

        place * total inverts the cumulative dominating intensity, which
        gives the step and the point t inside it; the arrival is kept when
        accept * lam_max <= lambda(t).
        """
        s = place * self.total
        k = np.minimum(np.searchsorted(self.cum, s, side="right"), len(self.cum) - 1)
        t_arr = self.times[k] + (s - (self.cum[k] - self.mass[k])) / self.lam_max[k]
        return k, accept * self.lam_max[k] <= P.polyval(t_arr, self.coeffs)


class _StepData:
    """Per-step evaluations shared by every path, stacked along axis 0."""

    def __init__(self, sys, noise, gain, dt):
        self.times = times = _step_times(dt)
        self.dts = np.diff(times)
        self.nsteps = nsteps = len(times) - 1

        tt = times[:, None, None]  # MatrixPoly.eval broadcasts over leading axes
        self.kmat = _gain_on_grid(gain, times)
        self.acl = sys.A.eval(tt) + sys.B.eval(tt) @ self.kmat
        self.cmat = sys.C.eval(tt)
        # Running cost x'Qx + u'Ru = x'(Q + K'RK)x under u = K x.
        kt = self.kmat.transpose(0, 2, 1)
        self.cost_w = sys.Q.eval(tt) + kt @ sys.R.eval(tt) @ self.kmat
        self.trap_w = np.zeros(nsteps + 1)  # trapezoid weights on the grid
        self.trap_w[:-1] += 0.5 * self.dts
        self.trap_w[1:] += 0.5 * self.dts

        # (is_multiplicative, channel, per-step scale, zero-scale steps): the
        # steps, a mask, are given for the first component on a target, which
        # writes it, and None for a later one, which adds to it.
        self.wiener = []
        self.compound = []  # (is_multiplicative, channel, _Dominating, jump std)
        written = set()  # channels, None for mu
        for comp in noise.additive + noise.multiplicative:
            mult = comp.channel is None
            if comp.kind == "wiener":
                rate0 = comp.rate.eval(tt[:-1])[:, 0, 0]
                scale = np.sqrt(np.clip(rate0, 0.0, None) * self.dts)
                first = comp.channel not in written
                written.add(comp.channel)
                self.wiener.append((mult, comp.channel, scale,
                                    scale == 0.0 if first else None))
            else:
                self.compound.append((mult, comp.channel, _Dominating(comp.rate.entry(), times),
                                      comp.jump_std))
        self.bare_channels = [ch for ch in range(sys.q) if ch not in written]
        self.bare_mu = None not in written


def _dot(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x on an (n, paths) block by BLAS's matrix-matrix kernel.

    numpy hands a single row or column to the matrix-vector kernel, which
    rounds differently, so a lone row of a or path of x is doubled: a
    path's trajectory must not depend on its block.  np.dot, because matmul
    takes about 2.5x as long for an (n, 1) @ (1, paths) product.
    """
    rows, cols = a.shape[0], x.shape[1]
    if rows > 1 and cols > 1:
        return np.dot(a, x)
    a2 = a if rows > 1 else np.repeat(a, 2, axis=0)
    x2 = x if cols > 1 else np.repeat(x, 2, axis=1)
    return np.dot(a2, x2)[:rows, :cols]


def _covariance_standard_error(mean, m2, m3, m4, cov, num_paths):
    """Standard error of each sample covariance entry.

    m2, m3 and m4 are the path means of x_i x_j, x_i^2 x_j and x_i^2 x_j^2.
    To first order Var(cov_ij) = (E[(x_i - mu_i)^2 (x_j - mu_j)^2] - cov_ij^2) / N;
    the central moment is expanded in these raw ones.
    """
    mi, mj = mean[:, None], mean[None, :]
    d2 = np.diag(m2)
    central = symmetrize(m4 - 2.0 * m3 * mj - 2.0 * m3.T * mi + d2[:, None] * mj ** 2
                         + d2[None, :] * mi ** 2 + 4.0 * mi * mj * m2 - 3.0 * (mi * mj) ** 2)
    return np.sqrt(np.clip(central - cov ** 2, 0.0, None) / num_paths)


def _draw_chunk(step, seed, mean0, l0, streams, j, unit, buffers, w):
    """Chunk j's noise in unit = (lo, hi, k0, k1): steps k0..k1-1 of paths lo..hi-1.

    A block's first slice opens the chunk's stream into streams[j], with
    the block's accepted jumps of each compound component as (steps,
    columns, sizes) stably sorted by step.  Only the block's columns of
    buffers = (dm from row 1, dmu, x0) are written, the Wiener normals going
    through the scratch w, so disjoint chunks may be drawn at once.  The
    first Wiener component on a target writes it, later ones and the jumps
    add to it, and a target no Wiener component writes is zeroed first.
    """
    (lo, hi, k0, k1), (dm, dmu, x0) = unit, buffers
    base, t = j * _STREAM_CHUNK, k1 - k0
    a, b = max(lo, base), min(hi, base + _STREAM_CHUNK)
    src, cols = slice(a - base, b - base), slice(a - lo, b - lo)
    if k0 == 0:
        gen = np.random.Generator(np.random.Philox(key=seed << 64 | j))
        z = gen.standard_normal((len(mean0), _STREAM_CHUNK))
        x0[:, cols] = (mean0[:, None] + l0 @ z)[:, src]
        streams[j] = gen, []
        for _, _, dom, jstd in step.compound:
            counts = gen.poisson(dom.total, _STREAM_CHUNK)
            u = gen.random(2 * int(counts.sum()))
            size = gen.standard_normal(len(u) // 2)
            paths = np.repeat(np.arange(base, base + _STREAM_CHUNK), counts)
            k, keep = dom.thin(u[:len(size)], u[len(size):])
            keep &= (paths >= a) & (paths < b)
            order = np.argsort(k[keep], kind="stable")
            streams[j][1].append((k[keep][order], paths[keep][order] - lo,
                                  (size[keep] * jstd)[order]))
    gen, jumps = streams[j]
    dm, dmu = dm[1:t + 1], dmu[:t]
    for ch in step.bare_channels:
        dm[:, ch, cols] = 0.0
    if step.bare_mu:
        dmu[:, cols] = 0.0
    if step.wiener:
        gen.standard_normal(out=w[:t])
    for wi, (mult, ch, scale, zero) in enumerate(step.wiener):
        dst, wc = dmu[:, cols] if mult else dm[:, ch, cols], w[:t, wi, src]
        if zero is None:
            wc *= scale[k0:k1, None]  # in the scratch: no temporary the size of a chunk
            dst += wc
        else:
            np.multiply(wc, scale[k0:k1, None], out=dst)
            dst[zero[k0:k1]] = 0.0  # +0.0 as from a zeroed buffer, not w * 0.0's -0.0
    for (mult, ch, _, _), (k, col, size) in zip(step.compound, jumps):
        i0, i1 = np.searchsorted(k, (k0, k1))
        np.add.at(dmu if mult else dm[:, ch], (k[i0:i1] - k0, col[i0:i1]), size[i0:i1])


def _start_draw(step, seed, mean0, l0, streams, unit, buffers, scratch):
    """Start drawing unit = (lo, hi, k0, k1) into buffers, chunk by chunk.

    Workers, one per scratch after the first and at most one per chunk,
    start at once and take chunk indices from a shared iterator.  Returns
    finish: it draws the chunks left on the calling thread with scratch[0],
    joins the workers and re-raises the first error.
    """
    chunks = range(unit[0] // _STREAM_CHUNK, (unit[1] - 1) // _STREAM_CHUNK + 1)
    todo, lock, errors = iter(chunks), threading.Lock(), []
    if unit[2] == 0:
        streams.clear()

    def run(w):
        try:
            while True:
                with lock:  # no chunk is taken twice, none after an error
                    j = None if errors else next(todo, None)
                if j is None:
                    return
                _draw_chunk(step, seed, mean0, l0, streams, j, unit, buffers, w)
        except BaseException as exc:  # re-raised on the calling thread by finish()
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(w,)) for w in scratch[1:1 + len(chunks)]]
    for worker in workers:
        worker.start()

    def finish():
        try:
            run(scratch[0])
        finally:
            for worker in workers:
                worker.join()
        if errors:
            raise errors[0]
    return finish


def check_noise_intensities(sys: SystemSpec, noise: NoiseModel):
    """Refuse a noise model whose (D, nu) differ from the system's by more than
    1e-10 at any of 101 equally spaced times of [0, 1]."""
    d_poly, nu_poly = derive_intensities(noise, q=sys.q)
    grid = np.linspace(0.0, 1.0, 101)
    tt = grid[:, None, None]
    d_err = np.max(np.abs(d_poly.eval(tt) - sys.D.eval(tt)), axis=(1, 2))
    nu_err = np.abs(nu_poly.eval(tt) - sys.identity_channel_nu().eval(tt))[:, 0, 0]
    bad = np.flatnonzero((d_err > _CONSISTENCY_TOL) | (nu_err > _CONSISTENCY_TOL))
    if bad.size:
        raise InconsistentNoiseError(
            f"noise model disagrees with the system intensities at t={grid[bad[0]]:.3f}")


def simulate_paths(sys: SystemSpec, noise: NoiseModel, gain,
                   cfg: SimulationConfig) -> SimulationResult:
    """Euler-Maruyama Monte Carlo of the controlled process.

    gain is a grid of (t, K(t)) pairs covering [0, 1]; values between grid
    points are interpolated linearly.  The noise model must reproduce the
    system's D(t) and nu(t) to 1e-10.  Moments, jump statistics and the
    per-path quadrature of the quadratic cost are accumulated online; the
    first retain_paths trajectories are kept with their control values.
    """
    check_noise_intensities(sys, noise)

    n, q = sys.n, sys.q
    step = _StepData(sys, noise, gain, cfg.step_size)
    nsteps = step.nsteps
    mean0 = cfg.initial_mean if cfg.initial_mean is not None else np.zeros(n)
    l0 = _psd_sqrt(cfg.sigma0)
    kmat, acl, cmat, cost_w, trap_w, dts = \
        step.kmat, step.acl, step.cmat, step.cost_w, step.trap_w, step.dts

    # SimulationConfig has checked that every checkpoint is on the grid.
    cp_idx = {float(t): int(np.argmin(np.abs(step.times - t))) for t in cfg.checkpoint_times}
    # Per checkpoint, sums over the paths of x x', x^2 x' and x^2 (x^2)'
    # (squares taken entrywise): with env_sum's x, the moments and their
    # standard errors.
    cp_acc = {idx: (np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)))
              for idx in cp_idx.values()}

    env_sum = np.zeros((nsteps + 1, n))
    env_sq = np.zeros((nsteps + 1, n))
    m_final_sum = np.zeros(q)
    jump_totals = np.zeros(len(step.compound))
    all_costs = np.empty(cfg.num_paths)
    retained = []
    width = min(_BLOCK, cfg.num_paths)
    blocks = [(lo, min(lo + _BLOCK, cfg.num_paths)) for lo in range(0, cfg.num_paths, _BLOCK)]
    units = [(lo, hi, k0, min(k0 + _SLICE, nsteps))  # each block's slices of steps
             for lo, hi in blocks for k0 in range(0, nsteps, _SLICE)]
    # Two buffer sets, one stepped while the other is drawn.  Row 0 of dm
    # carries each path's sum of m over the earlier slices: it runs in step order.
    buffers = [(np.empty((_SLICE + 1, q, width)), np.empty((_SLICE, width)), np.empty((n, width)))
               for _ in range(2)]
    # A scratch for the caller and for each worker, at most one per chunk of a block.
    chunks = max((hi - 1) // _STREAM_CHUNK - lo // _STREAM_CHUNK + 1 for lo, hi in blocks)
    scratch = [np.empty((_SLICE, len(step.wiener), _STREAM_CHUNK))
               for _ in range(min(_DRAW_THREADS, chunks + 1))]
    streams = {}  # chunk index -> its stream, for the block being drawn

    def start(i):
        return _start_draw(step, cfg.master_seed, mean0, l0, streams, units[i], buffers[i % 2],
                           scratch)
    clock = time.perf_counter()
    step_s, finish = 0.0, start(0)
    for i, (lo, hi, k0, k1) in enumerate(units):
        finish()
        bsize = hi - lo
        dm, dmu, x0 = buffers[i % 2]
        if k0 == 0:  # before the next block's first slice replaces the streams
            for _, jumps in streams.values():
                jump_totals += [len(k) for k, _, _ in jumps]
            x = x0[:, :bsize]
            cost = np.zeros(bsize)
            ones = np.ones(bsize)
            nkeep = max(0, min(cfg.retain_paths - lo, bsize))
            kept_x = np.empty((nkeep, nsteps + 1, n))
        finish = start(i + 1) if i + 1 < len(units) else None
        mid = time.perf_counter()
        try:
            for k in range(k0, k1 + (k1 == nsteps)):  # the last slice ends at t = 1
                sq = x * x
                env_sum[k] += x @ ones
                env_sq[k] += sq @ ones
                if k in cp_acc:
                    s2, s3, s4 = cp_acc[k]
                    s2 += x @ x.T
                    s3 += sq @ x.T
                    s4 += sq @ sq.T
                if nkeep:
                    kept_x[:, k] = x[:, :nkeep].T
                cost += trap_w[k] * (_dot(cost_w[k].T, x) * x).sum(axis=0)
                if k == nsteps:
                    break
                # x + (Acl x) dt + C dm + x dmu, added in that order, in place.
                x_new = _dot(acl[k], x)
                x_new *= dts[k]
                x_new += x
                x_new += _dot(cmat[k], dm[k - k0 + 1, :, :bsize])
                x_new += x * dmu[k - k0, :bsize]
                x = x_new
            if k0:
                dm[0, :, :bsize] = m_sum
            part = dm[0 if k0 else 1:k1 - k0 + 1, :, :bsize]  # numpy sums one column pairwise
            m_sum = np.add.accumulate(part)[-1] if q * bsize == 1 else part.sum(axis=0)
        except BaseException:
            if finish is not None:
                finish()  # joins the workers
            raise
        step_s += time.perf_counter() - mid
        if k1 < nsteps:
            continue
        if nkeep:
            # u = K x with the paths as rows, one product per step; a lone
            # path is doubled so that BLAS rounds it as it rounds several.
            rows = kept_x if nkeep > 1 else np.repeat(kept_x, 2, axis=0)
            kept_u = (rows.transpose(1, 0, 2) @ kmat.transpose(0, 2, 1)).transpose(1, 0, 2)
        m_final_sum += m_sum @ ones
        all_costs[lo:hi] = cost
        for j in range(nkeep):
            retained.append(RetainedPath(path_id=lo + j, times=step.times,
                                         states=kept_x[j], controls=kept_u[j]))
    draw_s = time.perf_counter() - clock - step_s

    n_paths = cfg.num_paths
    moments = []
    for t_cp in sorted(cp_idx):
        s2, s3, s4 = cp_acc[cp_idx[t_cp]]
        mean = env_sum[cp_idx[t_cp]] / n_paths
        cov = se = None
        if n_paths > 1:
            cov = symmetrize((s2 - n_paths * np.outer(mean, mean)) / (n_paths - 1))
            se = _covariance_standard_error(
                mean, s2 / n_paths, s3 / n_paths, s4 / n_paths, cov, n_paths)
        moments.append((t_cp, mean, cov, se))

    env_mean = env_sum / n_paths
    if n_paths > 1:
        env_var = (env_sq - n_paths * env_mean ** 2) / (n_paths - 1)
        env_var = np.clip(env_var, 0.0, None)
    else:
        env_var = np.full_like(env_mean, np.nan)

    return SimulationResult(
        num_paths=n_paths, master_seed=cfg.master_seed, times=step.times,
        checkpoint_moments=tuple(moments), envelope_mean=env_mean,
        envelope_var=env_var,
        cost_estimate=_cost_mean_half_width(all_costs), retained=tuple(retained),
        jump_mean_counts=tuple(jump_totals / n_paths),
        martingale_mean=m_final_sum / n_paths, draw_s=draw_s, step_s=step_s,
        draw_threads=len(scratch))


def _cost_mean_half_width(costs: np.ndarray) -> tuple:
    """Mean of the per-path costs and its 95% confidence half-width (0 for one path)."""
    j_hat = float(np.mean(costs))
    half = 0.0
    if len(costs) > 1:
        half = 1.96 * float(np.std(costs, ddof=1)) / math.sqrt(len(costs))
    return j_hat, half


def _checkpoint(result: SimulationResult, t: float):
    for entry in result.checkpoint_moments:
        if abs(entry[0] - t) <= 1e-9:
            return entry
    raise MissingCheckpointError(f"no moments recorded at t={t}")


def empirical_moments(result: SimulationResult, t: float):
    """Unbiased sample mean and covariance at a recorded checkpoint.

    The covariance is None for a single path (the N - 1 divisor guard).
    """
    _, mean, cov, _ = _checkpoint(result, t)
    return mean, cov


def covariance_standard_error(result: SimulationResult, t: float):
    """Standard error of each sample covariance entry at a checkpoint.

    Estimated from the per-path fourth moments; None for a single path.
    """
    return _checkpoint(result, t)[3]
