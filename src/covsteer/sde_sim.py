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
| j)) and covers paths [j S, (j + 1) S).  (Monte Carlo outputs therefore
differ from those of the earlier one-stream-per-path scheme.)  Within a
chunk the draws come in a fixed order:

1. standard_normal((n, S)): the chunk's initial states, a column a path;
2. if there are nw > 0 Wiener components, standard_normal((nsteps, nw, S)):
   each step's increments, component by component, a column a path;
3. for each compound component, in model order: the counts N =
   poisson(sum of the dominating step masses, S), random(2 sum N) (the
   placements inverting the dominating intensity, then the accept
   variates) and standard_normal(sum N) (the jump sizes); the arrivals are
   the chunk's paths' in path order, N[i] of them for path i.

A chunk is always drawn whole and a path reads only its own columns, so its
values depend on the seed, its index and S alone, not on the path count,
the batching or the scheduling; keyed counter-based substreams are
independent (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).

Noise is drawn for a block of paths at a time into step-major increment
buffers, dm of shape (steps, q, paths) and dmu of shape (steps, paths),
that the Euler step loop then consumes.  The chunks a block touches are
split into contiguous runs, one per usable CPU: the calling thread draws
the first and worker threads the others, each into its own scratch and
columns, and all are joined before the block is stepped.  Results do not
depend on the number of threads; draw_s is the wall time of the drawing
and draw_threads the most threads that drew one block.  The loop holds the
block's states state-major, as an (n, paths) array, so every term of the
update and every statistic is a pass over contiguous rows of paths.  At
each checkpoint it also accumulates the per-path fourth moments that give
the standard error of each covariance entry.
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
_STREAM_CHUNK = 256  # paths per noise stream; a path's values depend on it
# Threads that draw a block's noise, one per CPU this process may use (every
# CPU where the platform has no affinity mask); results do not depend on it.
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
    multiplicative components sum into 2 nu(t).
    """
    if q is None:
        q = 1 + max((c.channel for c in noise.additive), default=0)
    d_poly, nu_poly = MatrixPoly.zeros(q, q), MatrixPoly.zeros(1, 1)
    for comp in noise.additive + noise.multiplicative:
        # d E[increment^2]/dt: the diffusion rate, or lambda(t) E[chi^2].
        rate = comp.rate if comp.kind == "wiener" else comp.rate.scale(comp.jump_std ** 2)
        if comp.channel is None:
            nu_poly = nu_poly + rate.scale(0.5)
        elif comp.channel < q:  # onto the channel's diagonal entry
            unit = MatrixPoly.constant(np.eye(q)[:, [comp.channel]])
            d_poly = d_poly + unit @ rate @ unit.T
        else:
            raise ValueError(f"channel {comp.channel} outside 0..{q - 1}")

    grid = np.linspace(0.0, 1.0, 101)
    tt = grid[:, None, None]
    bad = np.flatnonzero((nu_poly.eval(tt)[:, 0, 0] < 0.0)
                         | (np.min(np.diagonal(d_poly.eval(tt), axis1=1, axis2=2), axis=1) < 0.0))
    if bad.size:
        raise ValueError(f"derived intensities negative at t={grid[bad[0]]:.3f}")
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
    draw_s: float  # wall time drawing noise (perf_counter seconds)
    step_s: float  # wall time in the Euler step loop
    draw_threads: int  # most threads that drew one block's noise


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
    roots = P.polyroots(P.polyder(coeffs)) if len(coeffs) > 2 else ()
    for r in roots:
        if abs(r.imag) < 1e-12 and times[0] < r.real < times[-1]:
            k = int(np.searchsorted(times, r.real)) - 1
            if times[k] < r.real:
                sup[k] = max(sup[k], float(P.polyval(r.real, coeffs)))
    return sup


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
        # steps are given for the first component on a target, which writes
        # it, and None for a later one, which adds to it.
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
                                    np.flatnonzero(scale == 0.0) if first else None))
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


def _draw_range(step: _StepData, seed: int, w: np.ndarray, lo: int, hi: int,
                j0: int, j1: int, mean0, l0, x0: np.ndarray, dm: np.ndarray,
                dmu: np.ndarray) -> np.ndarray:
    """Noise of chunks j0..j1-1 for the paths of the block lo..hi-1.

    Each chunk's stream is drawn whole into the step-major scratch w, of
    shape (nsteps, nw, _STREAM_CHUNK), and only the block's columns of the
    initial states x0 and of the increment buffers dm and dmu are written,
    so disjoint runs of chunks may be drawn at once.  The first Wiener
    component on a target writes it, later ones and the jumps add to it,
    and a target that no Wiener component writes is zeroed first.  Returns
    the block's accepted arrivals per compound component.
    """
    accepted = np.zeros(len(step.compound))
    for j in range(j0, j1):
        gen = np.random.Generator(np.random.Philox(key=seed << 64 | j))
        base = j * _STREAM_CHUNK
        a, b = max(lo, base), min(hi, base + _STREAM_CHUNK)
        src, cols = slice(a - base, b - base), slice(a - lo, b - lo)
        z = gen.standard_normal((len(mean0), _STREAM_CHUNK))
        x0[:, cols] = (mean0[:, None] + l0 @ z)[:, src]
        for ch in step.bare_channels:
            dm[:, ch, cols] = 0.0
        if step.bare_mu:
            dmu[:, cols] = 0.0
        if step.wiener:
            gen.standard_normal(out=w)
        for wi, (mult, ch, scale, zero_steps) in enumerate(step.wiener):
            dst, wc = dmu[:, cols] if mult else dm[:, ch, cols], w[:, wi, src]
            if zero_steps is None:
                wc *= scale[:, None]  # in the scratch: no temporary the size of a chunk
                dst += wc
            else:
                np.multiply(wc, scale[:, None], out=dst)
                dst[zero_steps] = 0.0  # +0.0 as from a zeroed buffer, not w * 0.0's -0.0
        for ci, (mult, ch, dom, jstd) in enumerate(step.compound):
            counts = gen.poisson(dom.total, _STREAM_CHUNK)
            u = gen.random(2 * int(counts.sum()))
            size = gen.standard_normal(len(u) // 2)
            paths = np.repeat(np.arange(_STREAM_CHUNK), counts)
            k, keep = dom.thin(u[:len(size)], u[len(size):])
            keep &= (paths >= src.start) & (paths < src.stop)
            # Each path's jumps, in draw order, into the block's own columns.
            np.add.at(dmu if mult else dm[:, ch], (k[keep], paths[keep] + base - lo),
                      size[keep] * jstd)
            accepted[ci] += np.count_nonzero(keep)
    return accepted


def _draw_block(step: _StepData, scratch: list, seed: int, lo: int, hi: int, mean0,
                l0, dm: np.ndarray, dmu: np.ndarray):
    """Noise of paths lo..hi-1, from the streams of the chunks they touch.

    The chunks are split into contiguous runs, one per scratch buffer: the
    first is drawn on this thread, the others on worker threads, all
    joined before this returns or raises.  Returns the (n, hi - lo)
    initial states and the accepted arrivals per compound component.
    """
    first, stop = lo // _STREAM_CHUNK, (hi - 1) // _STREAM_CHUNK + 1
    runs = min(len(scratch), stop - first)
    edges = [first + (stop - first) * i // runs for i in range(runs + 1)]
    x0 = np.empty((len(mean0), hi - lo))
    results = [None] * runs

    def draw(i):
        try:
            results[i] = _draw_range(step, seed, scratch[i], lo, hi, edges[i], edges[i + 1],
                                     mean0, l0, x0, dm, dmu)
        except BaseException as exc:  # re-raised on the calling thread below
            results[i] = exc

    workers = []
    try:
        for i in range(1, runs):
            worker = threading.Thread(target=draw, args=(i,))
            worker.start()
            workers.append(worker)
        draw(0)
    finally:
        for worker in workers:
            worker.join()
    for res in results:
        if isinstance(res, BaseException):
            raise res
    return x0, sum(results)


def simulate_paths(sys: SystemSpec, noise: NoiseModel, gain,
                   cfg: SimulationConfig) -> SimulationResult:
    """Euler-Maruyama Monte Carlo of the controlled process.

    gain is a grid of (t, K(t)) pairs covering [0, 1]; values between grid
    points are interpolated linearly.  The noise model must reproduce the
    system's D(t) and nu(t) to 1e-10.  Moments, jump statistics and the
    per-path quadrature of the quadratic cost are accumulated online; the
    first retain_paths trajectories are kept with their control values.
    """
    d_poly, nu_poly = derive_intensities(noise, q=sys.q)
    grid = np.linspace(0.0, 1.0, 101)
    tt = grid[:, None, None]
    d_err = np.max(np.abs(d_poly.eval(tt) - sys.D.eval(tt)), axis=(1, 2))
    nu_err = np.abs(nu_poly.eval(tt) - sys.identity_channel_nu().eval(tt))[:, 0, 0]
    bad = np.flatnonzero((d_err > _CONSISTENCY_TOL) | (nu_err > _CONSISTENCY_TOL))
    if bad.size:
        raise InconsistentNoiseError(
            f"noise model disagrees with the system intensities at t={grid[bad[0]]:.3f}")

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
    dm = np.empty((nsteps, q, width))
    dmu = np.empty((nsteps, width))
    blocks = [(lo, min(lo + _BLOCK, cfg.num_paths)) for lo in range(0, cfg.num_paths, _BLOCK)]
    # One scratch per thread that draws, at most one per chunk a block touches.
    chunks = max((hi - 1) // _STREAM_CHUNK - lo // _STREAM_CHUNK + 1 for lo, hi in blocks)
    scratch = [np.empty((nsteps, len(step.wiener), _STREAM_CHUNK))
               for _ in range(min(_DRAW_THREADS, chunks))]
    draw_s = step_s = 0.0

    for lo, hi in blocks:
        bsize = hi - lo
        start = time.perf_counter()
        x, accepted = _draw_block(step, scratch, cfg.master_seed, lo, hi, mean0, l0, dm, dmu)
        jump_totals += accepted
        mid = time.perf_counter()
        draw_s += mid - start

        cost = np.zeros(bsize)
        ones = np.ones(bsize)
        nkeep = max(0, min(cfg.retain_paths - lo, bsize))
        kept_x = np.empty((nkeep, nsteps + 1, n))

        for k in range(nsteps + 1):
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
            x_new += _dot(cmat[k], dm[k, :, :bsize])
            x_new += x * dmu[k, :bsize]
            x = x_new

        if nkeep:
            # u = K x with the paths as rows, one product per step; a lone
            # path is doubled so that BLAS rounds it as it rounds several.
            rows = kept_x if nkeep > 1 else np.repeat(kept_x, 2, axis=0)
            kept_u = (rows.transpose(1, 0, 2) @ kmat.transpose(0, 2, 1)).transpose(1, 0, 2)
        step_s += time.perf_counter() - mid
        m_final_sum += dm[:, :, :bsize].sum(axis=0) @ ones
        all_costs[lo:hi] = cost
        for j in range(nkeep):
            retained.append(RetainedPath(path_id=lo + j, times=step.times,
                                         states=kept_x[j], controls=kept_u[j]))

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
