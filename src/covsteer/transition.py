"""Hamiltonian state transition matrix of the steering problem.

The 2n x 2n matrix M(t) = [[A, -B R^-1 B'], [-Q, -A']], after the
normalization A <- A + nu I (under which all block formulas hold verbatim
and the Riccati/Lyapunov solutions are unchanged), has the transition
matrix with blocks Phi11, Phi12, Phi21, Phi22.  They satisfy a family of
symplectic identities, which symplectic_residuals checks, and furnish the
existence bounds and Gramian identity used by the Riccati and steering
layers.  Every block is read from a TransitionPath, a piecewise
Chebyshev series; horizon_path keeps one Phi_M(., 0) over [0, 1] per live
system, and transition_blocks builds one anchored at s for a single pair
of times.
"""

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from ._quad import adaptive_gk
from .errors import IntegrationFailureError, RiccatiNonexistenceError, SingularTransitionError
from .matfun import MatrixPoly, SystemSpec, symmetrize

COND_LIMIT = 1e12
QUAD_ATOL = 1e-10  # gramian_identity's quadrature tolerance
PANEL_NORM = 4.0  # bound on h max||M||_2 per path panel (near 10, 7 digits were lost)
CHEB_DEGREES = (16, 32, 48, 64, 128, 256)
CHEB_TAIL_RTOL = 1e-13  # bound on a panel's upper-half coefficients, relative to the largest


def _brb(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """B R^-1 B' from values (or stacks of values) of B and R."""
    return b @ np.linalg.solve(r, np.swapaxes(b, -1, -2))


def b_rinv_bt(sys: SystemSpec, t) -> np.ndarray:
    """B R^-1 B' at a time, or as a (k, n, n) stack on an array of times."""
    tt = np.asarray(t, dtype=float)[..., None, None]
    return _brb(sys.B.eval(tt), sys.R.eval(tt))


def hamiltonian(sys: SystemSpec):
    """Callable t -> M(t), or the (k, 2n, 2n) stack on k times, with nu folded into A.

    Identity-like multiplicative channels are folded into nu, so the
    deterministic pair A + nu I, B carries the full state-dependent rate.
    """
    n, p = sys.n, sys.p
    eye = np.eye(n)
    # [A | Q | B | nu e1] as one polynomial: one evaluation per call.  The
    # zero padding of lower-degree entries leaves every value bit-identical.
    nu_col = MatrixPoly.constant(eye[:, :1]) @ sys.identity_channel_nu()
    packed = MatrixPoly.hstack([sys.A, sys.Q, sys.B, nu_col])

    def m_of_t(t):
        tt = np.asarray(t, dtype=float)[..., None, None]
        v = packed.eval(tt)
        m = np.empty(v.shape[:-2] + (2 * n, 2 * n))
        m[..., :n, :n] = v[..., :n] + v[..., :1, -1:] * eye
        m[..., :n, n:] = -_brb(v[..., 2 * n: 2 * n + p], sys.R.eval(tt))
        m[..., n:, :n] = -v[..., n: 2 * n]
        m[..., n:, n:] = -np.swapaxes(m[..., :n, :n], -1, -2)
        return m

    return m_of_t


@dataclass(frozen=True)
class TransitionBlocks:
    """The four n x n blocks of Phi_M(t, s)."""

    phi11: np.ndarray
    phi12: np.ndarray
    phi21: np.ndarray
    phi22: np.ndarray
    t: float
    s: float

    @property
    def n(self):
        return self.phi11.shape[0]


@functools.cache
def _cheb_operators(deg):
    """Lobatto nodes on [-1, 1], values-to-coefficients and unit-panel integration from -1."""
    x = -np.cos(np.pi * np.arange(deg + 1) / deg)
    to_coef = np.linalg.inv(C.chebvander(x, deg))
    cumulative = 0.5 * C.chebvander(x, deg + 1) @ C.chebint(np.eye(deg + 1), lbnd=-1) @ to_coef
    return x, to_coef, cumulative


def _panel(m_of_t, phi0, start, step):
    """(degree, tail, node values, coefficients) of Phi on [start, start + step] from
    Phi(start) = phi0: the Volterra form Phi = phi0 + int M Phi as (I - step S M) Phi = phi0."""
    dim = len(phi0)
    for deg in CHEB_DEGREES:
        x, to_coef, cumulative = _cheb_operators(deg)
        op = np.empty(((deg + 1) * dim,) * 2)
        np.einsum("ij,jab->iajb", -step * cumulative, m_of_t(start + 0.5 * step * (x + 1.0)),
                  out=op.reshape(deg + 1, dim, deg + 1, dim))
        op.flat[:: len(op) + 1] += 1.0
        vals = np.linalg.solve(op, np.tile(phi0, (deg + 1, 1))).reshape(deg + 1, dim, dim)
        coef = (to_coef @ vals.reshape(deg + 1, -1)).reshape(deg + 1, dim, dim)
        tail = np.max(np.abs(coef[deg // 2:])) / np.max(np.abs(coef))
        if tail <= CHEB_TAIL_RTOL:  # also refuses NaN
            return deg, float(tail), vals, coef
    raise IntegrationFailureError(f"transition path unresolved at degree {deg} from t={start}")


class TransitionPath:
    """Phi_M(., anchor) over a span as a piecewise Chebyshev series.

    Each side of the anchor is split into equal panels of length h <= 1 with
    h max||M||_2 <= PANEL_NORM at 17 Chebyshev points of the side; each is one
    spectral solve, chained by Phi(t, anchor) = Phi(t, t_k) Phi(t_k, anchor).
    degree and tail are the largest accepted degree and tail ratio, and
    symplectic_drift the largest ||Phi'J Phi - J||_F / max(1, ||Phi||_F^2) at
    the nodes.  The series is fixed at construction.  Reads are memoised,
    bit for bit: a single time at a span end is evaluated on its first read
    and kept, and the last array of times read is kept with its stack, so a
    repeated read of the same array is not evaluated again.  Each memo entry
    is set in one assignment and every read returns a fresh copy, so no
    caller can change a later read, and a path is safe to share across
    threads.
    """

    def __init__(self, sys: SystemSpec, anchor: float = 0.0, span: tuple = (0.0, 1.0)):
        self.anchor = float(anchor)
        m_of_t, self.dim = hamiltonian(sys), 2 * sys.n
        stats, self._panels = [(0, 0.0, 0.0)], []  # (start, end, coefficients of Phi(., anchor))
        for end in (e for e in span if e != self.anchor):  # the span holds the anchor
            probes = 0.5 * (self.anchor + end + (end - self.anchor) * _cheb_operators(16)[0])
            count = abs(end - self.anchor) * max(
                1.0, np.max(np.linalg.norm(m_of_t(probes), 2, axis=(1, 2))) / PANEL_NORM)
            edges, phi0 = np.linspace(self.anchor, end, math.ceil(count) + 1), np.eye(self.dim)
            for a, b in zip(edges[:-1], edges[1:]):
                deg, tail, vals, coef = _panel(m_of_t, phi0, a, b - a)
                big = float(np.max(np.abs(vals)))
                if not big < math.sqrt(np.finfo(float).max) / self.dim:  # also refuses NaN
                    raise IntegrationFailureError(
                        f"transition matrix overflows on the panel [{a:.6g}, {b:.6g}]: "
                        f"max |Phi| = {big:.3e}, whose square overflows")
                # Phi^-1 Phi - I = -J(Phi'J Phi - J), on Phi / max(1, ||Phi||) against overflow
                scale = np.maximum(1.0, np.linalg.norm(vals, axis=(1, 2)))[:, None, None]
                unit = vals / scale
                drift = np.linalg.norm(_symplectic_inverse(unit) @ unit
                                       - np.eye(self.dim) / scale ** 2, axis=(1, 2))
                stats.append((deg, tail, float(np.max(drift))))
                self._panels.append((a, b, coef))
                phi0 = vals[-1]
        self.degree, self.tail, self.symplectic_drift = map(max, zip(*stats))
        self._ends = dict.fromkeys(float(e) for e in span)  # span end -> Phi there, once read
        self._last = None  # (times, stack) of the last array read

    def phi(self, t) -> np.ndarray:
        """Phi_M(t, anchor); an array of k times gives a (k, dim, dim) stack."""
        ts = np.asarray(t, dtype=float)
        if ts.ndim == 0:
            key = float(ts)
            if key not in self._ends:
                return self._eval(ts[None])[0]
            if self._ends[key] is None:
                self._ends[key] = self._eval(ts[None])[0]
            return self._ends[key].copy()
        last = self._last
        if last is None or not np.array_equal(last[0], ts):
            last = self._last = ts.copy(), self._eval(ts)
        return last[1].copy()

    def _eval(self, flat) -> np.ndarray:
        """The (k, dim, dim) stack of Phi_M(t, anchor) at a 1-D array of times."""
        out = np.empty((flat.size, self.dim, self.dim))
        done = flat == self.anchor
        out[done] = np.eye(self.dim)
        for start, end, coef in self._panels:
            # Membership by comparison: dividing first overflows on a subnormal-width
            # panel.  An edge reads the inner panel, and |t - start| <= |end - start|
            # in rounding too, so the fraction stays in (0, 1].
            sel = np.flatnonzero(((min(start, end) < flat) & (flat < max(start, end)))
                                 | (flat == end))
            frac = (flat[sel] - start) / (end - start)
            vander = C.chebvander(2.0 * frac - 1.0, len(coef) - 1)
            out[sel] = (vander @ coef.reshape(len(coef), -1)).reshape(-1, self.dim, self.dim)
            done[sel] = True
        if not done.all():
            raise ValueError(f"t={flat[~done][0]} outside the integrated span")
        return out

    def raw_blocks(self, t) -> tuple:
        """(phi11, phi12, phi21, phi22) as a tuple; stacks for an array of times."""
        n = self.dim // 2
        phi = self.phi(t)
        return phi[..., :n, :n], phi[..., :n, n:], phi[..., n:, :n], phi[..., n:, n:]


_HORIZON_PATHS = weakref.WeakKeyDictionary()  # system -> its horizon path


def horizon_path(sys: SystemSpec) -> TransitionPath:
    """Phi_M(., 0) over the horizon [0, 1] of sys, built on first use and kept
    while sys lives: one path per live system, shared by every reader.
    Systems that compare equal hold the same polynomial objects and share it.
    Threads racing on a first use may each build one; both read the same.
    """
    path = _HORIZON_PATHS.get(sys)
    if path is None:
        path = _HORIZON_PATHS[sys] = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    return path


def transition_blocks(sys: SystemSpec, t: float, s: float) -> TransitionBlocks:
    """Blocks of Phi_M(t, s), read from a TransitionPath anchored at s."""
    path = TransitionPath(sys, anchor=s, span=(min(s, t), max(s, t)))
    return TransitionBlocks(*path.raw_blocks(t), t=t, s=s)


def symplectic_residuals(sys: SystemSpec, blocks: TransitionBlocks) -> dict:
    """Residuals of the symplectic identity family at (t, s).

    Includes the six same-argument identities, the diagonal-block relation
    phi11(t,s) = phi22(s,t)', and the antisymmetry of the off-diagonal
    blocks under argument reversal; the reversed blocks come from a second
    path anchored at t, not from inverting the forward result.
    """
    p11, p12, p21, p22 = blocks.phi11, blocks.phi12, blocks.phi21, blocks.phi22
    eye = np.eye(blocks.n)
    out = {
        "phi12T_phi22_symmetric": float(np.max(np.abs(p12.T @ p22 - p22.T @ p12))),
        "phi21T_phi11_symmetric": float(np.max(np.abs(p21.T @ p11 - p11.T @ p21))),
        "phi12_phi11T_symmetric": float(np.max(np.abs(p12 @ p11.T - p11 @ p12.T))),
        "phi21_phi22T_symmetric": float(np.max(np.abs(p21 @ p22.T - p22 @ p21.T))),
        "phi11T_phi22_unit": float(np.max(np.abs(p11.T @ p22 - p21.T @ p12 - eye))),
        "phi11_phi22T_unit": float(np.max(np.abs(p11 @ p22.T - p12 @ p21.T - eye))),
    }
    rev = transition_blocks(sys, blocks.s, blocks.t)
    out["phi11_reversal"] = float(np.max(np.abs(blocks.phi11 - rev.phi22.T)))
    out["phi12_antisymmetry"] = float(np.max(np.abs(blocks.phi12 + rev.phi12.T)))
    out["phi21_antisymmetry"] = float(np.max(np.abs(blocks.phi21 + rev.phi21.T)))
    out["composition_unit"] = float(np.max(np.abs(
        blocks.phi11 @ rev.phi11 + blocks.phi12 @ rev.phi21 - np.eye(blocks.n))))
    return out


@dataclass(frozen=True)
class PiBound:
    """One side of the Riccati existence sandwich: finite matrix or infinity."""

    kind: str  # "finite", "neg_inf", "pos_inf"
    matrix: np.ndarray | None = None

    @property
    def is_finite(self):
        return self.kind == "finite"


def _moving_bound(p11, p12, what=None):
    """(bound, regular) for one pair of blocks or (k, n, n) stacks.

    bound is -p12^-1 p11, symmetrized, where p12 is regular: cond(p12) at most
    COND_LIMIT, NaN counting as singular.  Elsewhere bound is NaN, unless
    what names the blocks: then a singular p12 raises SingularTransitionError.
    """
    cond = np.linalg.cond(p12)
    regular = cond <= COND_LIMIT
    if what is not None and not np.all(regular):
        raise SingularTransitionError(f"{what} numerically singular (cond ~ {np.max(cond):.3e})")
    bound = np.full(np.shape(p11), np.nan)
    bound[regular] = symmetrize(-np.linalg.solve(p12[regular], p11[regular]))
    return bound, regular


def _phi_pi(path: TransitionPath, pi_anchor: np.ndarray, t) -> tuple:
    """(PhiPi(t, anchor), blocks): PhiPi = phi11 + phi12 Pi_anchor, closed loop.

    blocks are the (phi11, phi12, phi21, phi22) of Phi_M(t, anchor) it is
    read from; an array of times gives stacks.
    """
    blocks = path.raw_blocks(t)
    return blocks[0] + blocks[1] @ pi_anchor, blocks


def _symplectic_inverse(phi: np.ndarray) -> np.ndarray:
    """Phi^-1 = [[phi22', -phi12'], [-phi21', phi11']] of a symplectic Phi or stack."""
    n = phi.shape[-1] // 2
    tr = np.swapaxes(phi, -1, -2)
    return np.block([[tr[..., n:, n:], -tr[..., n:, :n]], [-tr[..., :n, n:], tr[..., :n, :n]]])


def pi_bounds(sys: SystemSpec, t):
    """Existence bounds at t: (-phi12(0,t)^-1 phi11(0,t), -phi12(1,t)^-1 phi11(1,t)).

    Both sides read one path Phi_M(., 0): Phi_M(0,t) is the symplectic
    inverse of Phi_M(t,0), so the lower side is phi12(t,0)'^-1 phi22(t,0)',
    and Phi_M(1,t) = Phi_M(1,0) Phi_M(0,t).  The lower side is -infinity at
    t = 0 and the upper side +infinity at t = 1, following the limit
    convention for the bounds at the horizon endpoints.  An array of times
    gives a tuple of (lower, upper) pairs.  The sandwich holds only inside
    the horizon, so times outside [0, 1] raise ValueError.  Singularity of
    phi12 signals a system that is not totally controllable, or a time too
    close to the horizon end of its side: at a scalar time a cond(phi12)
    above COND_LIMIT raises SingularTransitionError, on an array of times
    only that side of that pair is None.
    """
    ts = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ts)
    outside = flat[~((flat >= 0.0) & (flat <= 1.0))]
    if outside.size:
        raise ValueError(f"existence bounds need times in [0, 1], got {outside[0]}")
    path, n = horizon_path(sys), sys.n
    phi_0t = _symplectic_inverse(path.phi(flat))
    phi_1t = path.phi(1.0) @ phi_0t
    lower = [PiBound("neg_inf")] * flat.size
    upper = [PiBound("pos_inf")] * flat.size
    for out, mask, phi, what in ((lower, flat > 0.0, phi_0t, "phi12(0,t)"),
                                 (upper, flat < 1.0, phi_1t, "phi12(1,t)")):
        bound, regular = _moving_bound(phi[mask, :n, :n], phi[mask, :n, n:],
                                       what=None if ts.ndim else what)
        for k, mat, ok in zip(np.flatnonzero(mask), bound, regular):
            out[k] = PiBound("finite", mat) if ok else None
    pairs = tuple(zip(lower, upper))
    return pairs if ts.ndim else pairs[0]


@dataclass(frozen=True)
class GramianCheck:
    """Quadrature Gramian vs the block identity -phi12(t,s) PhiPi(t,s)'."""

    mbar: np.ndarray
    rhs: np.ndarray
    residual: float


def gramian_identity(sys: SystemSpec, pi_anchor: tuple, t: float) -> GramianCheck:
    """Verify the closed-loop Gramian identity from the anchored Riccati solution.

    mbar(t, s) integrates PhiPi(t,tau) B R^-1 B' PhiPi(t,tau)' by adaptive
    quadrature; the identity says its value equals -phi12(t,s) PhiPi(t,s)'.
    Requires the Riccati solution to exist on [0, 1] from an anchor s in
    [0, 1].  A quadrature that saturates raises IntegrationFailureError.
    """
    from .riccati import existence_check

    s, pi_s = pi_anchor
    pi_s = symmetrize(np.asarray(pi_s, dtype=float))
    if not existence_check(sys, s, pi_s).exists:
        raise RiccatiNonexistenceError(
            "Riccati solution does not exist on [0, 1] from the given anchor")
    if t == s:
        z = np.zeros((sys.n, sys.n))
        return GramianCheck(mbar=z, rhs=z, residual=0.0)

    path = TransitionPath(sys, anchor=s, span=(min(s, t), max(s, t)))
    phi_pi_ts, blocks_ts = _phi_pi(path, pi_s, t)

    def integrand(taus):
        # PhiPi(t,tau) = PhiPi(t,s) PhiPi(tau,s)^-1 by the composition rule.
        g = phi_pi_ts @ np.linalg.inv(_phi_pi(path, pi_s, taus)[0])
        return g @ b_rinv_bt(sys, taus) @ np.swapaxes(g, -1, -2)

    mbar, err, saturated, _ = adaptive_gk(integrand, s, t, atol=QUAD_ATOL)
    if saturated:
        raise IntegrationFailureError(f"Gramian quadrature saturated at error {err:.3e}")
    rhs = -blocks_ts[1] @ phi_pi_ts.T
    return GramianCheck(mbar=mbar, rhs=rhs,
                        residual=float(np.max(np.abs(mbar - rhs))))
