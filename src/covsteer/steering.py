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

import itertools
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_gk, interpolant_integrals
from .errors import (
    ChannelMismatchError,
    IntegrationFailureError,
    NoConvergenceError,
    PreconditionError,
    RiccatiNonexistenceError,
)
from .matfun import BoundaryData, SystemSpec, spd_sqrt, symmetrize, unvec, vec
from .riccati import closed_form_on_path
from .transition import TransitionPath, _moving_bound, _phi_pi, b_rinv_bt

QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-9  # bounds the work when near-boundary integrands blow up
NEWTON_TOL = 1e-8
MAX_PASSES = 30  # jacobian_f passes per solve, accepted or not
W_ZERO_TIME = 1e-8  # below this s the node weight W_s0 is the zero matrix


@dataclass(frozen=True)
class SteeringSolution:
    """Optimal steering data: costate anchor, schedules, cost, error estimates
    of sigma_grid and optimal_cost, and the panels of Newton's accepted pass."""

    pi0: np.ndarray
    pi_grid: tuple
    gain_grid: tuple
    sigma_grid: tuple
    optimal_cost: float
    newton_trace: tuple
    residual: float
    sigma_error: float
    cost_error: float
    accepted_panels: int


@dataclass(frozen=True)
class JacobianWorkspace:
    """Pieces of the boundary-map Jacobian at one admissible point.

    pi0 is that point; nodes holds (s, W_s0, P_s) at the 15 nodes of each
    panel between edges; jac is the full n^2 x n^2 Jacobian (phiPi10 x
    phiPi10) S and f_value the map value assembled from the same nodes.
    quad_error is the quadrature's error estimate; saturated: the 400-panel
    cap stopped it above tolerance.  path is the transition path the pass
    read and upper_bound the admissibility bound U10 on it.
    """

    pi0: np.ndarray
    path: TransitionPath
    upper_bound: np.ndarray
    edges: np.ndarray
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
    return _moving_bound(p11, p12, what="phi12(1,0)")[0]


def _require_admissible(pi0: np.ndarray, u10: np.ndarray):
    margin = float(np.max(np.linalg.eigvalsh(pi0 - u10)))
    if margin >= 0.0:
        raise RiccatiNonexistenceError(
            f"Pi0 is not admissible: lambda_max(Pi0 - upper bound) = {margin:.3e}")


def _transported_noise(sys: SystemSpec, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """P(s) = PhiPi(s,0)^-1 C D C'(s) PhiPi(s,0)^-T for a stack g of PhiPi(s,0)."""
    ginv = np.linalg.solve(g, np.eye(sys.n))
    return ginv @ _cdct(sys, s) @ np.swapaxes(ginv, -1, -2)


def map_f(sys: SystemSpec, sigma0: np.ndarray, pi0: np.ndarray,
          path: TransitionPath | None = None) -> np.ndarray:
    """Terminal covariance reached from Sigma0 under the costate anchor Pi0:
    Sigma(1) of propagate_covariance, whose failures it raises."""
    return propagate_covariance(sys, pi0, sigma0, 2, path=path)[0][-1][1]


def jacobian_f(sys: SystemSpec, sigma0: np.ndarray, pi0: np.ndarray,
               path: TransitionPath | None = None,
               start: JacobianWorkspace | None = None) -> JacobianWorkspace:
    """Kronecker-product Jacobian of the boundary map at Pi0.

    The map value and the Jacobian integral are assembled from one adaptive
    quadrature pass, so a Newton step sees a Jacobian consistent with its
    residual.  start, an earlier pass on the same path, lends its upper
    bound and, unless it saturated, its panels as the starting mesh; a
    start from another path raises PreconditionError.
    """
    n = sys.n
    pi0 = symmetrize(np.asarray(pi0, dtype=float))
    sigma0 = np.asarray(sigma0, dtype=float)
    if start is None:
        path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
        u10, edges = _upper_bound_10(path), None
    elif path is not None and path is not start.path:
        raise PreconditionError("start pass was taken on another path")
    else:
        path, u10 = start.path, start.upper_bound
        edges = None if start.saturated else start.edges
    _require_admissible(pi0, u10)

    phi10, (_, p12_10, _, _) = _phi_pi(path, pi0, 1.0)
    # W_10 = ((phi12)^-1 phi11 + Pi0)^-1 in the stable factored form.
    w10 = symmetrize(np.linalg.solve(phi10, p12_10))
    n2 = n * n

    def stacked(ss):
        g, (_, p12, _, _) = _phi_pi(path, pi0, ss)
        w_s = symmetrize(np.linalg.solve(g, p12))
        w_s[ss < W_ZERO_TIME] = 0.0
        p = _transported_noise(sys, g, ss)
        dw = w10 - w_s
        # Batched Kronecker products: kron(x, y)[i n + a, j n + b] = x[i, j] y[a, b].
        jac_part = np.einsum("kij,kab->kiajb", p, dw) + np.einsum("kij,kab->kiajb", dw, p)
        return np.concatenate([p.reshape(len(ss), -1), w_s.reshape(len(ss), -1),
                               jac_part.reshape(len(ss), -1)], axis=1)

    integral, quad_err, saturated, (edges, node_ts, node_vals) = adaptive_gk(
        stacked, 0.0, 1.0, atol=QUAD_ATOL, rtol=QUAD_RTOL, max_panels=400, edges=edges)
    p_int = integral[:n2].reshape(n, n)
    jac_int = integral[2 * n2:].reshape(n2, n2)

    s_mat = np.kron(sigma0, w10) + np.kron(w10, sigma0) + jac_int
    jac = np.kron(phi10, phi10) @ s_mat
    f_value = symmetrize(phi10 @ (sigma0 + p_int) @ phi10.T)
    nodes = tuple((float(t), raw[n2:2 * n2].reshape(n, n), raw[:n2].reshape(n, n))
                  for t, raw in zip(node_ts, node_vals))
    return JacobianWorkspace(pi0=pi0, path=path, upper_bound=u10, edges=edges, nodes=nodes,
                             S=s_mat, jac=jac, f_value=f_value, quad_error=float(quad_err),
                             saturated=saturated)


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
        gap = np.max(np.abs(_cdct(sys, grid) - b_rinv_bt(sys, grid)), axis=(1, 2))
        bad = np.flatnonzero(gap > 1e-10)
        if bad.size:
            raise ChannelMismatchError(
                f"C D C' != B R^-1 B' at t={grid[bad[0]]:.3f}; closed form does not apply")
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    p11, p12, _, _ = path.raw_blocks(1.0)
    u10 = _moving_bound(p11, p12, what="phi12(1,0)")[0]
    phi12_inv = np.linalg.solve(p12, np.eye(sys.n))
    s0_isqrt = spd_sqrt(bd.sigma0, inverse=True)
    s0_sqrt = spd_sqrt(bd.sigma0)
    inner = 0.25 * np.eye(sys.n) + s0_sqrt @ phi12_inv @ bd.sigma1 @ phi12_inv.T @ s0_sqrt
    root = spd_sqrt(symmetrize(inner))
    pi0 = u10 + 0.5 * np.linalg.inv(bd.sigma0) - s0_isqrt @ root @ s0_isqrt
    return symmetrize(pi0)


def _boundary_step_cap(pi, delta, u10, fraction=0.9):
    """Largest step fraction keeping Pi + alpha Delta inside the admissible cone."""
    gap = symmetrize(u10 - pi)
    w, v = np.linalg.eigh(gap)
    w = np.clip(w, 1e-14, None)
    isqrt = (v / np.sqrt(w)) @ v.T
    lam = float(np.max(np.linalg.eigvalsh(isqrt @ delta @ isqrt)))
    return fraction / lam if lam > 0.0 else 1.0


def _newton(sys, path, sigma0, target, pi_init, tol, basis):
    """Damped Newton on the symmetric subspace; returns (pi, residual, trace, ws).

    Every point tried gets one jacobian_f pass, started from the current
    point's pass.  The step is first capped at a fixed fraction of the
    distance to the admissibility boundary along the Newton direction, then
    halved until the candidate's pass succeeds with a smaller residual; the
    accepted pass is the next iteration's workspace.
    ws is the converged pass, None once MAX_PASSES passes, accepted or not,
    are spent; a converged pass that saturated raises IntegrationFailureError.
    """
    target_norm = np.linalg.norm(target)
    pi = pi_init.copy()
    ws = jacobian_f(sys, sigma0, pi, path=path)
    passes = 1
    trace = []
    for it in itertools.count():
        resid_mat = ws.f_value - target
        rel = float(np.linalg.norm(resid_mat) / target_norm)
        if rel <= tol:
            if ws.saturated:
                raise IntegrationFailureError(
                    f"converged boundary map is from a saturated quadrature "
                    f"(error estimate {ws.quad_error:.3e})")
            trace.append((it, rel, 0.0))
            return pi, rel, trace, ws
        jac_red = basis.T @ ws.jac @ basis
        step_red = np.linalg.solve(jac_red, -(basis.T @ vec(resid_mat)))
        delta = symmetrize(unvec(basis @ step_red))
        alpha = min(1.0, _boundary_step_cap(pi, delta, ws.upper_bound))
        while True:
            if passes == MAX_PASSES:
                trace.append((it, rel, alpha))
                return pi, rel, trace, None
            passes += 1
            cand = symmetrize(pi + alpha * delta)
            try:
                cand_ws = jacobian_f(sys, sigma0, cand, path=path, start=ws)
            except (RiccatiNonexistenceError, np.linalg.LinAlgError):
                pass  # rejected like a candidate whose residual does not fall
            else:
                if np.linalg.norm(cand_ws.f_value - target) < np.linalg.norm(resid_mat):
                    break
            alpha *= 0.5
        trace.append((it, rel, alpha))
        pi, ws = cand, cand_ws


def solve_boundary(sys: SystemSpec, bd: BoundaryData,
                   grid_size: int = 1001, tol: float = NEWTON_TOL) -> SteeringSolution:
    """Solve the covariance steering boundary-value problem.

    Newton iterates in the symmetric coordinate space from the closed-form
    warm start, with backtracking constrained to the admissible set.  The
    solution carries the costate grid, the feedback gains, the covariance
    trajectory and the optimal cost.
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

    pi, rel, trace, ws = _newton(sys, path, bd.sigma0, bd.sigma1, pi_init, tol, basis)
    if ws is None:
        raise NoConvergenceError(
            f"Newton failed to reach relative residual {tol:.1e} (best {rel:.3e})",
            best_residual=rel, trace=trace)

    times = np.linspace(0.0, 1.0, grid_size)
    pi_grid = tuple(zip(times.tolist(), closed_form_on_path(path, pi, times)))
    sigma, sigma_error = propagate_covariance(sys, pi, bd.sigma0, grid_size, path, workspace=ws)
    cost, cost_error = optimal_cost(sys, pi, bd, path=path, workspace=ws)
    return SteeringSolution(
        pi0=pi, pi_grid=pi_grid, gain_grid=tuple(feedback_gain(sys, pi_grid)),
        sigma_grid=tuple(sigma), optimal_cost=cost, newton_trace=tuple(trace),
        residual=rel, sigma_error=sigma_error, cost_error=cost_error,
        accepted_panels=len(ws.edges) - 1)


def _checked_pass(sys, sigma0, pi0, path, workspace) -> JacobianWorkspace:
    """workspace, or a fresh jacobian_f pass at Pi0; a workspace taken at
    another Pi0 raises PreconditionError, a saturated pass IntegrationFailureError."""
    if workspace is None:
        workspace = jacobian_f(sys, sigma0, pi0, path=path)
    elif not np.array_equal(workspace.pi0, symmetrize(np.asarray(pi0, dtype=float))):
        raise PreconditionError("workspace was taken at another Pi0")
    if workspace.saturated:
        raise IntegrationFailureError(
            f"boundary-map quadrature saturated at error {workspace.quad_error:.3e}")
    return workspace


def propagate_covariance(sys: SystemSpec, pi0: np.ndarray, sigma0: np.ndarray,
                         grid_size: int = 1001, path: TransitionPath | None = None,
                         workspace: JacobianWorkspace | None = None) -> tuple:
    """Covariance trajectory under the optimal gain: ((t, Sigma(t)) pairs, tail).

    Explicit solution Sigma(t) = PhiPi(t,0) [Sigma0 + int_0^t P(s) ds]
    PhiPi(t,0)', P the transported noise, integrated exactly on its Legendre
    interpolants on the panels of the jacobian_f pass at Pi0 (workspace, or
    a fresh one), so the accuracy does not depend on grid_size; tail is what
    they leave unresolved, and one above 1e-7 max(1, ||Sigma0 + int_0^1 P||)
    raises IntegrationFailureError.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    pi0 = symmetrize(np.asarray(pi0, dtype=float))
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    ws = _checked_pass(sys, sigma0, pi0, path, workspace)
    times = np.linspace(0.0, 1.0, grid_size)
    part, tail = interpolant_integrals(ws.edges, np.stack([p for _, _, p in ws.nodes]), times)
    acc = np.asarray(sigma0, dtype=float) + part
    if not tail <= 1e-7 * max(1.0, float(np.linalg.norm(acc[-1]))):  # also refuses NaN
        raise IntegrationFailureError(f"transported noise unresolved: tail {tail:.3e}")
    g = _phi_pi(path, pi0, times)[0]
    return list(zip(times.tolist(), symmetrize(g @ acc @ np.swapaxes(g, -1, -2)))), tail


def feedback_gain(sys: SystemSpec, pi_grid) -> list:
    """Gain schedule K(t) = -R(t)^-1 B(t)' Pi(t) along a costate grid."""
    ts = [t for t, _ in pi_grid]
    tt = np.asarray(ts, dtype=float)[:, None, None]
    b = sys.B.eval(tt)
    gains = -np.linalg.solve(sys.R.eval(tt),
                             np.swapaxes(b, -1, -2) @ np.stack([pi for _, pi in pi_grid]))
    return list(zip(ts, gains))


def optimal_cost(sys: SystemSpec, pi0: np.ndarray, bd: BoundaryData,
                 path: TransitionPath | None = None,
                 workspace: JacobianWorkspace | None = None) -> tuple:
    """(cost, error estimate) under the costate anchor Pi0: int tr(Pi C D C')
    dt plus the boundary correction.

    The quadrature starts from the panels of the jacobian_f pass at Pi0
    (workspace, or a fresh one); one that saturates raises
    IntegrationFailureError.
    """
    path = path or TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    pi0 = np.asarray(pi0, dtype=float)
    edges = _checked_pass(sys, bd.sigma0, pi0, path, workspace).edges

    def integrand(ts):
        return np.einsum("kij,kji->k", closed_form_on_path(path, pi0, ts), _cdct(sys, ts))

    integral, err, saturated, _ = adaptive_gk(
        integrand, 0.0, 1.0, atol=QUAD_ATOL, rtol=QUAD_RTOL, edges=edges)
    if saturated:
        raise IntegrationFailureError(f"cost quadrature saturated at error {err:.3e}")
    pi1 = closed_form_on_path(path, pi0, 1.0)
    cost = float(integral) + float(np.trace(pi0 @ bd.sigma0)) \
        - float(np.trace(pi1 @ bd.sigma1))
    return cost, float(err)
