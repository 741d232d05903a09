"""Two-point boundary solve for optimal covariance steering.

The terminal covariance is an explicit map of the initial costate weight:
f(Pi0) = PhiPi(1,0) [Sigma0 + int_0^1 PhiPi(s,0)^-1 C D C' PhiPi(s,0)^-T ds]
PhiPi(1,0)', with PhiPi built from the Hamiltonian transition blocks.  The
map is a homeomorphism of the admissible set onto the positive definite
cone, so a damped Newton iteration on its Kronecker-product Jacobian,
restricted to the symmetric subspace, recovers the unique Pi0 for any
target.  A matrix-square-root closed form is available when the noise
channel coincides with the control channel and doubles as the warm start.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._quad import adaptive_gk
from .errors import (
    ChannelMismatchError,
    IntegrationFailureError,
    NoConvergenceError,
    PreconditionError,
    RiccatiNonexistenceError,
)
from .matfun import BoundaryData, SystemSpec, kron, spd_sqrt, symmetrize, unvec, vec
from .riccati import closed_form_on_path
from .transition import TransitionPath, solve_with_cond_check

QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-9  # bounds the work when near-boundary integrands blow up
NEWTON_TOL = 1e-8
MAX_NEWTON_ITER = 30
MAX_HALVINGS = 40
ADMISSIBILITY_MARGIN = -1e-9
HOMOTOPY_STEPS = 10
W_ZERO_TIME = 1e-8  # below this s the node weight W_s0 is the zero matrix
# Sigma(t): Gauss-Legendre nodes per sub-interval (3 left Sigma(1) 7e-8 off
# the adaptive value on a contracting instance, 5 leave 1e-10), sub-intervals
# on [0, 1] at least, whatever the output grid, and sub-intervals per batch,
# so that no stack exceeds about 0.2 MB (n = 3).
SIGMA_GL_NODES = 5
SIGMA_MIN_STEPS = 1000
SIGMA_CHUNK = 128


@dataclass(frozen=True)
class SteeringSolution:
    """Optimal steering data: costate anchor, schedules, and cost."""

    pi0: np.ndarray
    pi_grid: tuple
    gain_grid: tuple
    sigma_grid: tuple
    optimal_cost: float
    newton_trace: tuple
    residual: float


@dataclass(frozen=True)
class JacobianWorkspace:
    """Pieces of the boundary-map Jacobian at one admissible point.

    nodes holds (s, W_s0, P_s) at the shared quadrature nodes; jac is the
    full n^2 x n^2 Jacobian (phiPi10 x phiPi10) S and f_value the map value
    assembled from the same node set.  quad_error is the quadrature's error
    estimate; saturated means max_panels stopped it above its tolerance.
    """

    phi_pi_10: np.ndarray
    nodes: tuple
    S: np.ndarray
    jac: np.ndarray
    f_value: np.ndarray
    quad_error: float
    saturated: bool


def _cdct(sys: SystemSpec, s) -> np.ndarray:
    """C D C' at a time, or as a (k, n, n) stack on an array of times."""
    t = np.asarray(s, dtype=float)[..., None, None]
    c = sys.C.eval(t)
    return c @ sys.D.eval(t) @ np.swapaxes(c, -1, -2)


def _upper_bound_10(path: TransitionPath) -> np.ndarray:
    p11, p12, _, _ = path.raw_blocks(1.0)
    return symmetrize(-solve_with_cond_check(p12, p11, what="phi12(1,0)"))


def _require_admissible(pi0: np.ndarray, u10: np.ndarray):
    margin = float(np.max(np.linalg.eigvalsh(pi0 - u10)))
    if margin >= 0.0:
        raise RiccatiNonexistenceError(
            f"Pi0 is not admissible: lambda_max(Pi0 - upper bound) = {margin:.3e}")


def _phi_pi(path: TransitionPath, pi0: np.ndarray, s) -> np.ndarray:
    p11, p12, _, _ = path.raw_blocks(s)
    return p11 + p12 @ pi0


def _transported_noise(sys: SystemSpec, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """P(s) = PhiPi(s,0)^-1 C D C'(s) PhiPi(s,0)^-T for a stack g of PhiPi(s,0)."""
    ginv = np.linalg.solve(g, np.eye(sys.n))
    return ginv @ _cdct(sys, s) @ np.swapaxes(ginv, -1, -2)


def map_f(sys: SystemSpec, sigma0: np.ndarray, pi0: np.ndarray,
          path: TransitionPath | None = None,
          quad_atol: float = QUAD_ATOL, max_panels: int = 2000) -> np.ndarray:
    """Terminal covariance reached from Sigma0 under the costate anchor Pi0."""
    pi0 = symmetrize(np.asarray(pi0, dtype=float))
    sigma0 = np.asarray(sigma0, dtype=float)
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    _require_admissible(pi0, _upper_bound_10(path))

    integral, _, _ = adaptive_gk(lambda ss: _transported_noise(sys, _phi_pi(path, pi0, ss), ss),
                                 0.0, 1.0, atol=quad_atol, rtol=QUAD_RTOL, max_panels=max_panels)
    phi10 = _phi_pi(path, pi0, 1.0)
    return symmetrize(phi10 @ (sigma0 + integral) @ phi10.T)


def jacobian_f(sys: SystemSpec, sigma0: np.ndarray, pi0: np.ndarray,
               path: TransitionPath | None = None,
               quad_atol: float = QUAD_ATOL) -> JacobianWorkspace:
    """Kronecker-product Jacobian of the boundary map at Pi0.

    The map value and the Jacobian integral are assembled from one adaptive
    quadrature pass, so a Newton step sees a Jacobian consistent with its
    residual.
    """
    n = sys.n
    pi0 = symmetrize(np.asarray(pi0, dtype=float))
    sigma0 = np.asarray(sigma0, dtype=float)
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    _require_admissible(pi0, _upper_bound_10(path))

    p11_10, p12_10, _, _ = path.raw_blocks(1.0)
    phi10 = p11_10 + p12_10 @ pi0
    # W_10 = ((phi12)^-1 phi11 + Pi0)^-1 in the stable factored form.
    w10 = symmetrize(np.linalg.solve(phi10, p12_10))

    n2 = n * n

    def stacked(ss):
        p11, p12, _, _ = path.raw_blocks(ss)
        g = p11 + p12 @ pi0
        w_s = symmetrize(np.linalg.solve(g, p12))
        w_s[ss < W_ZERO_TIME] = 0.0
        p = _transported_noise(sys, g, ss)
        dw = w10 - w_s
        # Batched Kronecker products: kron(x, y)[i n + a, j n + b] = x[i, j] y[a, b].
        jac_part = np.einsum("kij,kab->kiajb", p, dw) + np.einsum("kij,kab->kiajb", dw, p)
        return np.concatenate([p.reshape(len(ss), -1), w_s.reshape(len(ss), -1),
                               jac_part.reshape(len(ss), -1)], axis=1)

    integral, quad_err, saturated, (node_ts, node_vals) = adaptive_gk(
        stacked, 0.0, 1.0, atol=quad_atol, rtol=QUAD_RTOL, max_panels=400,
        collect_nodes=True)
    p_int = integral[:n2].reshape(n, n)
    jac_int = integral[2 * n2:].reshape(n2, n2)

    s_mat = kron(sigma0, w10) + kron(w10, sigma0) + jac_int
    jac = kron(phi10, phi10) @ s_mat
    f_value = symmetrize(phi10 @ (sigma0 + p_int) @ phi10.T)
    nodes = tuple((float(t), raw[n2:2 * n2].reshape(n, n), raw[:n2].reshape(n, n))
                  for t, raw in zip(node_ts, node_vals))
    return JacobianWorkspace(phi_pi_10=phi10, nodes=nodes, S=s_mat, jac=jac, f_value=f_value,
                             quad_error=float(quad_err), saturated=saturated)


def _symmetric_basis(n: int) -> np.ndarray:
    """Orthonormal basis of symmetric matrices as columns of an n^2 x m map."""
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = np.zeros((n * n, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        basis[[i + j * n, j + i * n], col] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
    return basis


def special_case_pi0(sys: SystemSpec, bd: BoundaryData,
                     path: TransitionPath | None = None,
                     check_channels: bool = True) -> np.ndarray:
    """Closed-form Pi0 for the coincident-channel case C D C' = B R^-1 B'.

    With check_channels=False the same expression serves as a warm start
    for systems whose channels differ.
    """
    if check_channels:
        grid = np.linspace(0.0, 1.0, 101)
        for t in grid:
            b = sys.B.eval(t)
            brb = b @ np.linalg.solve(sys.R.eval(t), b.T)
            if np.max(np.abs(_cdct(sys, t) - brb)) > 1e-10:
                raise ChannelMismatchError(
                    f"C D C' != B R^-1 B' at t={t:.3f}; closed form does not apply")
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    b10 = path.blocks(1.0)
    phi12_inv = solve_with_cond_check(b10.phi12, what="phi12(1,0)")
    minus_bound = -phi12_inv @ b10.phi11
    s0_isqrt = spd_sqrt(bd.sigma0, inverse=True)
    s0_sqrt = spd_sqrt(bd.sigma0)
    inner = 0.25 * np.eye(sys.n) + s0_sqrt @ phi12_inv @ bd.sigma1 @ phi12_inv.T @ s0_sqrt
    root = spd_sqrt(symmetrize(inner))
    pi0 = symmetrize(minus_bound) + 0.5 * np.linalg.inv(bd.sigma0) \
        - s0_isqrt @ root @ s0_isqrt
    return symmetrize(pi0)


def _boundary_step_cap(pi, delta, u10, fraction=0.9):
    """Largest step fraction keeping Pi + alpha Delta inside the admissible cone."""
    gap = symmetrize(u10 - pi)
    w, v = np.linalg.eigh(gap)
    w = np.clip(w, 1e-14, None)
    isqrt = (v / np.sqrt(w)) @ v.T
    lam = float(np.max(np.linalg.eigvalsh(isqrt @ delta @ isqrt)))
    return fraction / lam if lam > 0.0 else 1.0


def _newton(sys, path, sigma0, target, pi_init, tol, basis,
            max_iter=MAX_NEWTON_ITER):
    """Damped Newton on the symmetric subspace; returns (pi, residual, trace, ok).

    The step is first capped at a fixed fraction of the distance to the
    admissibility boundary along the Newton direction, then backtracks
    until the residual decreases.
    """
    u10 = _upper_bound_10(path)
    target_norm = np.linalg.norm(target)
    pi = pi_init.copy()
    trace = []
    for it in range(max_iter):
        ws = jacobian_f(sys, sigma0, pi, path=path)
        resid_mat = ws.f_value - target
        rel = float(np.linalg.norm(resid_mat) / target_norm)
        if rel <= tol:
            trace.append((it, rel, 0.0))
            return pi, rel, trace, True
        jac_red = basis.T @ ws.jac @ basis
        step_red = np.linalg.solve(jac_red, -(basis.T @ vec(resid_mat)))
        delta = symmetrize(unvec(basis @ step_red))
        alpha = min(1.0, _boundary_step_cap(pi, delta, u10))
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = symmetrize(pi + alpha * delta)
            if float(np.max(np.linalg.eigvalsh(cand - u10))) <= ADMISSIBILITY_MARGIN:
                try:
                    # Capped-effort probe: only the accept/reject comparison
                    # matters here, the accepted point is re-evaluated by the
                    # next full-accuracy Jacobian pass.
                    f_cand = map_f(sys, sigma0, cand, path=path, max_panels=80)
                except RiccatiNonexistenceError:
                    f_cand = None
                if f_cand is not None and \
                        np.linalg.norm(f_cand - target) < np.linalg.norm(resid_mat):
                    pi = cand
                    accepted = True
                    break
            alpha *= 0.5
        trace.append((it, rel, alpha))
        if not accepted:
            return pi, rel, trace, False
    ws = jacobian_f(sys, sigma0, pi, path=path)
    rel = float(np.linalg.norm(ws.f_value - target) / target_norm)
    trace.append((max_iter, rel, 0.0))
    return pi, rel, trace, rel <= tol


def solve_boundary(sys: SystemSpec, bd: BoundaryData,
                   grid_size: int = 1001, tol: float = NEWTON_TOL) -> SteeringSolution:
    """Solve the covariance steering boundary-value problem.

    Newton iterates in the symmetric coordinate space from the closed-form
    warm start, with backtracking constrained to the admissible set; on a
    stall, the target is approached through a short homotopy.  The solution
    carries the costate grid, the feedback gains, the covariance trajectory
    and the optimal cost.
    """
    if sys.has_non_identity_channels():
        raise PreconditionError(
            "boundary solve supports only identity multiplicative channels")
    if bd.sigma0.shape != (sys.n, sys.n):
        raise PreconditionError("boundary data dimension differs from the system")
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    basis = _symmetric_basis(sys.n)
    pi_init = special_case_pi0(sys, bd, path=path, check_channels=False)

    pi, rel, trace, ok = _newton(sys, path, bd.sigma0, bd.sigma1, pi_init, tol, basis)
    if not ok:
        # Homotopy fallback: walk the target from the stall image to Sigma1
        # along Sigma1(theta) = (1 - theta) f(Pi_current) + theta Sigma1,
        # starting on the ten-step ladder and bisecting a step when its
        # subproblem stalls.
        f_here = map_f(sys, bd.sigma0, pi, path=path)
        theta = 0.0
        step = 1.0 / HOMOTOPY_STEPS
        while theta < 1.0 and step >= 1e-5:
            theta_next = min(1.0, theta + step)
            target_k = (1.0 - theta_next) * f_here + theta_next * bd.sigma1
            step_tol = tol if theta_next >= 1.0 else max(tol, 1e-7)
            pi_k, rel, sub_trace, ok = _newton(sys, path, bd.sigma0, target_k,
                                               pi, step_tol, basis, max_iter=15)
            trace.extend(sub_trace)
            if ok:
                pi = pi_k
                theta = theta_next
                step = min(2.0 * step, 1.0 / HOMOTOPY_STEPS)
            else:
                step *= 0.5
        if theta >= 1.0:
            ws = jacobian_f(sys, bd.sigma0, pi, path=path)
            rel = float(np.linalg.norm(ws.f_value - bd.sigma1)
                        / np.linalg.norm(bd.sigma1))
            ok = rel <= tol
    if not ok or rel > tol:
        raise NoConvergenceError(
            f"Newton failed to reach relative residual {tol:.1e} (best {rel:.3e})",
            best_residual=rel, trace=trace)

    times = np.linspace(0.0, 1.0, grid_size)
    pi_grid = tuple(zip(times.tolist(), closed_form_on_path(path, pi, times)))
    solution = SteeringSolution(
        pi0=pi, pi_grid=pi_grid, gain_grid=tuple(feedback_gain(sys, pi_grid)),
        sigma_grid=tuple(propagate_covariance(sys, pi, bd.sigma0, grid_size, path=path)),
        optimal_cost=0.0, newton_trace=tuple(trace), residual=rel)
    return replace(solution, optimal_cost=optimal_cost(sys, solution, bd, path=path))


def propagate_covariance(sys: SystemSpec, pi0: np.ndarray, sigma0: np.ndarray,
                         grid_size: int = 1001,
                         path: TransitionPath | None = None) -> list:
    """Covariance trajectory under the optimal gain, as (t, Sigma(t)) pairs.

    Explicit solution Sigma(t) = PhiPi(t,0) [Sigma0 + int_0^t P(s) ds]
    PhiPi(t,0)', P the transported noise, integrated by Gauss-Legendre sums
    over at least SIGMA_MIN_STEPS equal sub-intervals of the grid intervals,
    so the accuracy does not depend on grid_size; Sigma(1) is cross-checked
    against the boundary map's adaptive quadrature to 1e-7.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    pi0 = symmetrize(np.asarray(pi0, dtype=float))
    sigma0 = np.asarray(sigma0, dtype=float)
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    _require_admissible(pi0, _upper_bound_10(path))
    n = sys.n
    times = np.linspace(0.0, 1.0, grid_size)
    x, w = np.polynomial.legendre.leggauss(SIGMA_GL_NODES)
    sub = -(-SIGMA_MIN_STEPS // (grid_size - 1))  # sub-intervals per grid interval
    frac = ((np.arange(sub)[:, None] + 0.5 * (1.0 + x)) / sub).ravel()
    batch = max(1, SIGMA_CHUNK // sub)
    sigma = np.empty((grid_size, n, n))
    sigma[0] = acc = sigma0  # PhiPi(0,0) = I; acc is Sigma0 + int_0^t P(s) ds
    for k in range(1, grid_size, batch):
        hi = times[k:k + batch]
        width = (hi - times[k - 1:k - 1 + hi.size])[:, None]
        ss = (hi[:, None] - width + width * frac).ravel()
        p = _transported_noise(sys, _phi_pi(path, pi0, ss), ss).reshape(hi.size, -1, n, n)
        wts = width * np.tile(0.5 * w / sub, sub)
        acc = acc + np.cumsum(np.einsum("kj,kjab->kab", wts, p), axis=0)
        g = _phi_pi(path, pi0, hi)
        sigma[k:k + hi.size] = g @ acc @ np.swapaxes(g, -1, -2)
        acc = acc[-1]
    sigma = symmetrize(sigma)

    explicit = map_f(sys, sigma0, pi0, path=path)
    mismatch = float(np.max(np.abs(sigma[-1] - explicit)))
    if mismatch > 1e-7 * max(1.0, float(np.linalg.norm(explicit))):
        raise IntegrationFailureError(
            f"cumulative Sigma(1) disagrees with the adaptive quadrature by {mismatch:.3e}")
    return list(zip(times.tolist(), sigma))


def feedback_gain(sys: SystemSpec, pi_grid) -> list:
    """Gain schedule K(t) = -R(t)^-1 B(t)' Pi(t) along a costate grid."""
    ts = [t for t, _ in pi_grid]
    tt = np.asarray(ts, dtype=float)[:, None, None]
    b = sys.B.eval(tt)
    gains = -np.linalg.solve(sys.R.eval(tt),
                             np.swapaxes(b, -1, -2) @ np.stack([pi for _, pi in pi_grid]))
    return list(zip(ts, gains))


def optimal_cost(sys: SystemSpec, sol: SteeringSolution, bd: BoundaryData,
                 path: TransitionPath | None = None,
                 quad_atol: float = QUAD_ATOL) -> float:
    """Optimal cost: int tr(Pi C D C') dt plus the boundary correction."""
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    pi0 = sol.pi0

    def integrand(ts):
        return np.einsum("kij,kji->k", closed_form_on_path(path, pi0, ts), _cdct(sys, ts))

    integral, _, _ = adaptive_gk(integrand, 0.0, 1.0, atol=quad_atol)
    pi1 = closed_form_on_path(path, pi0, 1.0)
    return float(integral) + float(np.trace(pi0 @ bd.sigma0)) \
        - float(np.trace(pi1 @ bd.sigma1))
