"""Hamiltonian state transition matrix of the steering problem.

The 2n x 2n matrix M(t) = [[A, -B R^-1 B'], [-Q, -A']] is integrated
(after the normalization A <- A + nu I, B <- B R^-1/2, under which all
block formulas hold verbatim and the Riccati/Lyapunov solutions are
unchanged) to obtain the blocks Phi11, Phi12, Phi21, Phi22 of its
transition matrix.  The blocks satisfy a family of symplectic identities
that are computed and attached for verification, and they furnish the
existence bounds and Gramian identity used by the Riccati and steering
layers.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ._quad import adaptive_gk
from .errors import IntegrationFailureError, RiccatiNonexistenceError, SingularTransitionError
from .matfun import SystemSpec, spd_sqrt, symmetrize

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-13
COND_LIMIT = 1e12
PHI_CHUNK = 256  # times per dense-output call; one call per grid cost 0.3-0.6 MB of peak RSS


def normalized_coeffs(sys: SystemSpec):
    """Callables (Abar, Bbar, Q) with Abar = A + nu I, Bbar = B R^-1/2.

    Identity-like multiplicative channels are folded into nu, so the
    normalized deterministic pair carries the full state-dependent rate.
    """
    nu_total = sys.identity_channel_nu()
    eye = np.eye(sys.n)

    def abar(t):
        return sys.A.eval(t) + float(nu_total.eval(t)[0, 0]) * eye

    def bbar(t):
        return sys.B.eval(t) @ spd_sqrt(sys.R.eval(t), inverse=True)

    return abar, bbar, sys.Q.eval


def hamiltonian(sys: SystemSpec):
    """Callable t -> M(t) for the normalized system."""
    abar, bbar, q = normalized_coeffs(sys)

    def m_of_t(t):
        a = abar(t)
        bb = bbar(t)
        qq = q(t)
        top = np.hstack([a, -bb @ bb.T])
        bot = np.hstack([-qq, -a.T])
        return np.vstack([top, bot])

    return m_of_t


def _integrate_phi(m_of_t, dim, s, t, rtol, atol, dense=False):
    if t == s and not dense:
        return np.eye(dim)

    def rhs(tau, y):
        return (m_of_t(tau) @ y.reshape(dim, dim)).reshape(-1)

    sol = solve_ivp(rhs, (s, t), np.eye(dim).reshape(-1), method="RK45",
                    rtol=rtol, atol=atol, dense_output=dense)
    if not sol.success:
        raise IntegrationFailureError(
            f"transition integration failed on [{s}, {t}]: {sol.message}")
    if dense:
        return sol
    return sol.y[:, -1].reshape(dim, dim)


def solve_with_cond_check(mat, rhs=None, what="matrix"):
    """Solve mat @ x = rhs (or invert) refusing condition estimates > 1e12.

    mat may be a (k, n, n) stack; the largest estimate is reported.
    """
    cond = np.linalg.cond(mat)
    if not np.all(cond <= COND_LIMIT):  # also refuses NaN
        raise SingularTransitionError(
            f"{what} numerically singular (cond ~ {np.max(cond):.3e})")
    if rhs is None:
        rhs = np.eye(mat.shape[-1])
    return np.linalg.solve(mat, rhs)


@dataclass(frozen=True)
class TransitionBlocks:
    """The four n x n blocks of Phi_M(t, s), with attached diagnostics.

    identity_residuals holds the max-abs residuals of the six symplectic
    identities; cond11/cond22 report the conditioning of the invertible
    diagonal blocks.
    """

    phi11: np.ndarray
    phi12: np.ndarray
    phi21: np.ndarray
    phi22: np.ndarray
    t: float
    s: float
    tol: float
    identity_residuals: dict
    cond11: float
    cond22: float

    @property
    def n(self):
        return self.phi11.shape[0]


def _symplectic_identity_residuals(p11, p12, p21, p22):
    n = p11.shape[0]
    eye = np.eye(n)
    return {
        "phi12T_phi22_symmetric": float(np.max(np.abs(p12.T @ p22 - p22.T @ p12))),
        "phi21T_phi11_symmetric": float(np.max(np.abs(p21.T @ p11 - p11.T @ p21))),
        "phi12_phi11T_symmetric": float(np.max(np.abs(p12 @ p11.T - p11 @ p12.T))),
        "phi21_phi22T_symmetric": float(np.max(np.abs(p21 @ p22.T - p22 @ p21.T))),
        "phi11T_phi22_unit": float(np.max(np.abs(p11.T @ p22 - p21.T @ p12 - eye))),
        "phi11_phi22T_unit": float(np.max(np.abs(p11 @ p22.T - p12 @ p21.T - eye))),
    }


def _make_blocks(phi, t, s, tol):
    n = phi.shape[0] // 2
    p11, p12 = phi[:n, :n], phi[:n, n:]
    p21, p22 = phi[n:, :n], phi[n:, n:]
    return TransitionBlocks(
        phi11=p11, phi12=p12, phi21=p21, phi22=p22, t=t, s=s, tol=tol,
        identity_residuals=_symplectic_identity_residuals(p11, p12, p21, p22),
        cond11=float(np.linalg.cond(p11)), cond22=float(np.linalg.cond(p22)))


def transition_blocks(sys: SystemSpec, t: float, s: float,
                      rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL) -> TransitionBlocks:
    """Blocks of Phi_M(t, s) by direct adaptive integration from s to t."""
    dim = 2 * sys.n
    phi = _integrate_phi(hamiltonian(sys), dim, s, t, rtol, atol)
    return _make_blocks(phi, t, s, rtol)


class TransitionPath:
    """Dense transition matrix Phi_M(., anchor) over a span, one integration.

    blocks(t) interpolates the stored dense solution; results match direct
    integration to the integration tolerance.  Instances are immutable
    after construction and safe to share across threads.
    """

    def __init__(self, sys: SystemSpec, anchor: float = 0.0,
                 span: tuple = (0.0, 1.0), rtol: float = DEFAULT_RTOL,
                 atol: float = DEFAULT_ATOL):
        self.sys = sys
        self.anchor = float(anchor)
        self.rtol = rtol
        self.dim = 2 * sys.n
        m_of_t = hamiltonian(sys)
        self._fwd = None
        self._bwd = None
        lo, hi = span
        if hi > anchor:
            self._fwd = _integrate_phi(m_of_t, self.dim, anchor, hi, rtol, atol, dense=True)
        if lo < anchor:
            self._bwd = _integrate_phi(m_of_t, self.dim, anchor, lo, rtol, atol, dense=True)

    def phi(self, t) -> np.ndarray:
        """Phi_M(t, anchor); an array of k times gives a (k, dim, dim) stack."""
        ts = np.asarray(t, dtype=float)
        flat = np.atleast_1d(ts)
        out = np.empty((flat.size, self.dim, self.dim))
        out[flat == self.anchor] = np.eye(self.dim)
        rows = out.reshape(flat.size, -1)
        for sol, side in ((self._fwd, flat > self.anchor), (self._bwd, flat < self.anchor)):
            idx = np.flatnonzero(side)
            if idx.size and sol is None:
                raise ValueError(f"t={flat[idx[0]]} outside the integrated span")
            for lo in range(0, idx.size, PHI_CHUNK):
                rows[idx[lo:lo + PHI_CHUNK]] = sol.sol(flat[idx[lo:lo + PHI_CHUNK]]).T
        return out if ts.ndim else out[0]

    def blocks(self, t: float) -> TransitionBlocks:
        return _make_blocks(self.phi(t), t, self.anchor, self.rtol)

    def raw_blocks(self, t) -> tuple:
        """(phi11, phi12, phi21, phi22) without diagnostics; stacks for an array of times."""
        n = self.dim // 2
        phi = self.phi(t)
        return phi[..., :n, :n], phi[..., :n, n:], phi[..., n:, :n], phi[..., n:, n:]


def symplectic_residuals(sys: SystemSpec, blocks: TransitionBlocks) -> dict:
    """Residuals of the symplectic identity family at (t, s).

    Includes the six same-argument identities, the diagonal-block relation
    phi11(t,s) = phi22(s,t)', and the antisymmetry of the off-diagonal
    blocks under argument reversal; the reversed blocks come from a second
    integration, not from inverting the forward result.
    """
    rev = transition_blocks(sys, blocks.s, blocks.t, rtol=blocks.tol)
    out = dict(blocks.identity_residuals)
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


def _bound_from_blocks(blocks: TransitionBlocks) -> np.ndarray:
    """-phi12^-1 phi11 for the given reversed-argument blocks, symmetrized."""
    val = -solve_with_cond_check(blocks.phi12, blocks.phi11, what="phi12")
    return symmetrize(val)


def pi_bounds(sys: SystemSpec, t: float,
              rtol: float = DEFAULT_RTOL) -> tuple[PiBound, PiBound]:
    """Existence bounds at time t: (-phi12(0,t)^-1 phi11(0,t), -phi12(1,t)^-1 phi11(1,t)).

    The lower side is -infinity at t = 0 and the upper side +infinity at
    t = 1, following the limit convention for the bounds at the horizon
    endpoints.  Interior singularity of phi12 signals a system that is not
    totally controllable.
    """
    if t > 0.0:
        lower = PiBound("finite", _bound_from_blocks(transition_blocks(sys, 0.0, t, rtol=rtol)))
    else:
        lower = PiBound("neg_inf")
    if t < 1.0:
        upper = PiBound("finite", _bound_from_blocks(transition_blocks(sys, 1.0, t, rtol=rtol)))
    else:
        upper = PiBound("pos_inf")
    return lower, upper


def bounds_on_grid(path: TransitionPath, times: np.ndarray) -> list:
    """pi_bounds at many grid times reusing one dense path anchored at 0.

    Phi(0,t) is the inverse of the stored Phi(t,0) and Phi(1,t) composes
    with the endpoint value; this matches per-time direct integration
    within the path tolerance.
    """
    n = path.sys.n
    times = np.asarray(times, dtype=float)
    inv = np.linalg.inv(path.phi(times))
    phi_1t = path.phi(1.0) @ inv
    lower = [PiBound("neg_inf")] * len(times)
    upper = [PiBound("pos_inf")] * len(times)
    for out, mask, phi, what in ((lower, times > 0.0, inv, "phi12(0,t)"),
                                 (upper, times < 1.0, phi_1t, "phi12(1,t)")):
        if mask.any():
            mats = symmetrize(-solve_with_cond_check(
                phi[mask, :n, n:], phi[mask, :n, :n], what=what))
            for k, mat in zip(np.flatnonzero(mask), mats):
                out[k] = PiBound("finite", mat)
    return list(zip(lower, upper))


@dataclass(frozen=True)
class GramianCheck:
    """Quadrature Gramian vs the block identity -phi12(t,s) PhiPi(t,s)'."""

    mbar: np.ndarray
    rhs: np.ndarray
    residual: float


def gramian_identity(sys: SystemSpec, pi_anchor: tuple, t: float,
                     quad_atol: float = 1e-10) -> GramianCheck:
    """Verify the closed-loop Gramian identity from the anchored Riccati solution.

    mbar(t, s) integrates PhiPi(t,tau) B R^-1 B' PhiPi(t,tau)' by adaptive
    quadrature; the identity says its value equals -phi12(t,s) PhiPi(t,s)'.
    Requires the Riccati solution to exist on the span between s and t.
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

    lo, hi = min(s, t), max(s, t)
    path = TransitionPath(sys, anchor=s, span=(lo, hi))
    _, bbar, _ = normalized_coeffs(sys)

    def phi_pi(tau):
        p11, p12, _, _ = path.raw_blocks(tau)
        return p11 + p12 @ pi_s

    phi_pi_ts = phi_pi(t)

    def integrand(taus):
        # PhiPi(t,tau) = PhiPi(t,s) PhiPi(tau,s)^-1 by the composition rule.
        gb = phi_pi_ts @ np.linalg.inv(phi_pi(taus)) @ np.stack([bbar(tau) for tau in taus])
        return gb @ np.swapaxes(gb, -1, -2)

    mbar, _, _ = adaptive_gk(integrand, s, t, atol=quad_atol)
    blocks_ts = path.blocks(t)
    rhs = -blocks_ts.phi12 @ phi_pi_ts.T
    return GramianCheck(mbar=mbar, rhs=rhs,
                        residual=float(np.max(np.abs(mbar - rhs))))
