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
from .matfun import BoundaryData, SystemSpec, _uniform_grid, spd_sqrt, symmetrize, unvec, vec
from .riccati import closed_form_on_path
from .transition import _moving_bound, _phi_pi, b_rinv_bt, horizon_path

QUAD_ATOL = 1e-10
QUAD_RTOL = 1e-9  # bounds the work when near-boundary integrands blow up
NEWTON_TOL = 1e-8
MAX_PASSES = 30  # jacobian_f passes per solve, accepted or not
STEP_FRACTION = 0.9  # of the distance to the admissibility boundary a step may cover


@dataclass(frozen=True)
class SteeringSolution:
    """Optimal steering data read from Newton's accepted pass: its costate
    anchor, the schedules, the cost, error estimates of sigma_grid and
    optimal_cost, and the pass's panel count."""

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
    """One jacobian_f pass, the only input of the read-outs.

    sys, sigma0 and pi0 (symmetrized) are the point; nodes holds the times
    of the 15 nodes of each panel between edges, in order, and p_nodes the
    transported noise P there as a (k, n, n) stack; jac is the full n^2 x
    n^2 Jacobian (phiPi10 x phiPi10) S and f_value the map value assembled
    from the same nodes.  quad_error is the quadrature's error estimate;
    saturated: the 400-panel cap stopped it above tolerance.  upper_bound is
    the bound U10 on the system's horizon path, which the pass read.
    """

    sys: SystemSpec
    sigma0: np.ndarray
    pi0: np.ndarray
    upper_bound: np.ndarray
    edges: np.ndarray
    nodes: np.ndarray
    p_nodes: np.ndarray
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


def _upper_bound_10(sys: SystemSpec) -> np.ndarray:
    p11, p12, _, _ = horizon_path(sys).raw_blocks(1.0)
    return _moving_bound(p11, p12, what="phi12(1,0)")[0]


def map_f(sys: SystemSpec, sigma0: np.ndarray, pi0: np.ndarray) -> np.ndarray:
    """Terminal covariance reached from Sigma0 under the costate anchor Pi0:
    Sigma(1) of propagate_covariance on the jacobian_f pass at Pi0, whose
    failures it raises."""
    return propagate_covariance(jacobian_f(sys, sigma0, pi0), 2)[0][-1]


def jacobian_f(sys: SystemSpec, sigma0: np.ndarray, pi0: np.ndarray,
               start: JacobianWorkspace | None = None) -> JacobianWorkspace:
    """Kronecker-product Jacobian of the boundary map at Pi0.

    The map value and the Jacobian integral are assembled from one adaptive
    quadrature pass, so a Newton step sees a Jacobian consistent with its
    residual.  start, an earlier pass on the same system, lends its upper
    bound and, unless it saturated, its panels as the starting mesh; a start
    from another system raises PreconditionError.
    """
    n = sys.n
    pi0 = symmetrize(np.asarray(pi0, dtype=float))
    sigma0 = np.asarray(sigma0, dtype=float)
    if start is None:
        u10, edges = _upper_bound_10(sys), None
    elif start.sys is not sys:
        raise PreconditionError("start pass was taken on another system")
    else:
        u10 = start.upper_bound
        edges = None if start.saturated else start.edges
    margin = float(np.max(np.linalg.eigvalsh(pi0 - u10)))
    if margin >= 0.0:
        raise RiccatiNonexistenceError(
            f"Pi0 is not admissible: lambda_max(Pi0 - upper bound) = {margin:.3e}")

    path = horizon_path(sys)
    phi10, (_, p12_10, _, _) = _phi_pi(path, pi0, 1.0)
    # W_10 = ((phi12)^-1 phi11 + Pi0)^-1 in the stable factored form.
    w10 = symmetrize(np.linalg.solve(phi10, p12_10))
    n2 = n * n

    def stacked(ss):
        # One LU of PhiPi(s,0) per node gives PhiPi^-1 and W_s = sym(PhiPi^-1 phi12).
        g, (_, p12, _, _) = _phi_pi(path, pi0, ss)
        sol = np.linalg.solve(g, np.concatenate([np.broadcast_to(np.eye(n), g.shape), p12],
                                                axis=-1))
        ginv, dw = sol[..., :n], w10 - symmetrize(sol[..., n:])
        p = ginv @ _cdct(sys, ss) @ np.swapaxes(ginv, -1, -2)
        # Batched Kronecker products: kron(x, y)[i n + a, j n + b] = x[i, j] y[a, b],
        # so kron(dw, p) is kron(p, dw) with both index pairs swapped.
        half = np.einsum("kij,kab->kiajb", p, dw)
        jac_part = half + half.transpose(0, 2, 1, 4, 3)
        return np.concatenate([p.reshape(len(ss), -1), jac_part.reshape(len(ss), -1)], axis=1)

    integral, quad_err, saturated, (edges, node_ts, node_vals) = adaptive_gk(
        stacked, 0.0, 1.0, atol=QUAD_ATOL, rtol=QUAD_RTOL, max_panels=400, edges=edges)
    p_int = integral[:n2].reshape(n, n)
    jac_int = integral[n2:].reshape(n2, n2)

    s_mat = _kron(sigma0, w10) + _kron(w10, sigma0) + jac_int
    jac = _kron(phi10, phi10) @ s_mat
    f_value = symmetrize(phi10 @ (sigma0 + p_int) @ phi10.T)
    return JacobianWorkspace(sys=sys, sigma0=sigma0, pi0=pi0, upper_bound=u10,
                             edges=edges, nodes=node_ts,
                             p_nodes=node_vals[:, :n2].reshape(-1, n, n), S=s_mat, jac=jac,
                             f_value=f_value, quad_error=float(quad_err), saturated=saturated)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices, bit for bit, as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _symmetric_basis(n: int) -> np.ndarray:
    """Orthonormal basis of symmetric matrices as columns of an n^2 x m map."""
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = np.zeros((n * n, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        basis[[i + j * n, j + i * n], col] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
    return basis


def special_case_pi0(sys: SystemSpec, bd: BoundaryData) -> np.ndarray:
    """Closed-form Pi0 for the coincident-channel case C D C' = B R^-1 B'."""
    grid = np.linspace(0.0, 1.0, 101)
    gap = np.max(np.abs(_cdct(sys, grid) - b_rinv_bt(sys, grid)), axis=(1, 2))
    bad = np.flatnonzero(gap > 1e-10)
    if bad.size:
        raise ChannelMismatchError(
            f"C D C' != B R^-1 B' at t={grid[bad[0]]:.3f}; closed form does not apply")
    return _closed_form_pi0(sys, bd)


def _closed_form_pi0(sys: SystemSpec, bd: BoundaryData) -> np.ndarray:
    """special_case_pi0's expression on the horizon path of sys, channels
    unchecked: Newton's warm start whatever the channels."""
    u10 = _upper_bound_10(sys)  # first: it refuses a singular phi12(1,0) by name
    phi12_inv = np.linalg.inv(horizon_path(sys).raw_blocks(1.0)[1])
    s0_isqrt = spd_sqrt(bd.sigma0, inverse=True)
    s0_sqrt = spd_sqrt(bd.sigma0)
    inner = 0.25 * np.eye(len(u10)) + s0_sqrt @ phi12_inv @ bd.sigma1 @ phi12_inv.T @ s0_sqrt
    root = spd_sqrt(symmetrize(inner))
    pi0 = u10 + 0.5 * np.linalg.inv(bd.sigma0) - s0_isqrt @ root @ s0_isqrt
    return symmetrize(pi0)


def _boundary_step_cap(pi, delta, u10):
    """Largest step fraction keeping Pi + alpha Delta inside the admissible cone."""
    gap = symmetrize(u10 - pi)
    w, v = np.linalg.eigh(gap)
    w = np.clip(w, 1e-14, None)
    isqrt = (v / np.sqrt(w)) @ v.T
    lam = float(np.max(np.linalg.eigvalsh(isqrt @ delta @ isqrt)))
    return STEP_FRACTION / lam if lam > 0.0 else 1.0


def _newton(ws, target, tol):
    """Damped Newton on the symmetric subspace from the pass ws; returns
    (ws, residual, trace).

    Every point tried gets one jacobian_f pass on ws's system and Sigma0,
    started from the current point's pass.  The step is first capped
    at STEP_FRACTION of the distance to the admissibility boundary along the
    Newton direction, then halved until the candidate's pass succeeds with a
    smaller residual; the accepted pass is the next iteration's workspace.
    The returned ws is the converged pass, whose pi0 is the solution, or
    None once MAX_PASSES passes, accepted or not, ws included, are spent.
    """
    basis = _symmetric_basis(ws.sys.n)
    target_norm = np.linalg.norm(target)
    passes = 1
    trace = []
    for it in itertools.count():
        resid_mat = ws.f_value - target
        rel = float(np.linalg.norm(resid_mat) / target_norm)
        if rel <= tol:
            trace.append((it, rel, 0.0))
            return ws, rel, trace
        jac_red = basis.T @ ws.jac @ basis
        step_red = np.linalg.solve(jac_red, -(basis.T @ vec(resid_mat)))
        delta = symmetrize(unvec(basis @ step_red))
        alpha = min(1.0, _boundary_step_cap(ws.pi0, delta, ws.upper_bound))
        while True:
            if passes == MAX_PASSES:
                trace.append((it, rel, alpha))
                return None, rel, trace
            passes += 1
            cand = symmetrize(ws.pi0 + alpha * delta)
            try:
                cand_ws = jacobian_f(ws.sys, ws.sigma0, cand, start=ws)
            except (RiccatiNonexistenceError, np.linalg.LinAlgError):
                pass  # rejected like a candidate whose residual does not fall
            else:
                if np.linalg.norm(cand_ws.f_value - target) < np.linalg.norm(resid_mat):
                    break
            alpha *= 0.5
        trace.append((it, rel, alpha))
        ws = cand_ws


def solve_boundary(sys: SystemSpec, bd: BoundaryData,
                   grid_size: int = 1001, tol: float = NEWTON_TOL) -> SteeringSolution:
    """Solve the covariance steering boundary-value problem.

    Newton iterates in the symmetric coordinate space from the closed-form
    warm start, with backtracking constrained to the admissible set.  The
    solution carries the costate grid, the feedback gains, the covariance
    trajectory and the optimal cost, all read from Newton's accepted pass.
    """
    if sys.has_non_identity_channels():
        raise PreconditionError(
            "boundary solve supports only identity multiplicative channels")
    if bd.sigma0.shape != (sys.n, sys.n):
        raise PreconditionError("boundary data dimension differs from the system")
    times = _uniform_grid(grid_size)
    start = jacobian_f(sys, bd.sigma0, _closed_form_pi0(sys, bd))
    ws, rel, trace = _newton(start, bd.sigma1, tol)
    if ws is None:
        raise NoConvergenceError(
            f"Newton failed to reach relative residual {tol:.1e} (best {rel:.3e})",
            best_residual=rel, trace=trace)

    pis = closed_form_on_path(horizon_path(sys), ws.pi0, times)
    sigmas, sigma_error = propagate_covariance(ws, grid_size)
    cost, cost_error = optimal_cost(ws, bd.sigma1)
    ts = times.tolist()
    pi_grid, gain_grid, sigma_grid = (tuple(zip(ts, stack)) for stack in
                                      (pis, feedback_gain(sys, times, pis), sigmas))
    return SteeringSolution(
        pi0=ws.pi0, pi_grid=pi_grid, gain_grid=gain_grid, sigma_grid=sigma_grid,
        optimal_cost=cost, newton_trace=tuple(trace), residual=rel,
        sigma_error=sigma_error, cost_error=cost_error, accepted_panels=len(ws.edges) - 1)


def _require_resolved(ws: JacobianWorkspace):
    if ws.saturated:
        raise IntegrationFailureError(
            f"boundary map read from a saturated quadrature (error estimate {ws.quad_error:.3e})")


def propagate_covariance(ws: JacobianWorkspace, grid_size: int = 1001) -> tuple:
    """Covariance trajectory under the optimal gain: (stack, tail), the stack
    holding Sigma(t) as a (k, n, n) array on grid_size equal steps of [0, 1].

    Explicit solution Sigma(t) = PhiPi(t,0) [Sigma0 + int_0^t P(s) ds]
    PhiPi(t,0)', P the transported noise, integrated exactly on its Legendre
    interpolants on the panels of the pass ws, which supplies the system,
    Pi0 and Sigma0, so the accuracy does not depend on grid_size; tail is what
    they leave unresolved, and one above 1e-7 max(1, ||Sigma0 + int_0^1 P||)
    raises IntegrationFailureError, as does a saturated pass.
    """
    times = _uniform_grid(grid_size)
    _require_resolved(ws)
    part, tail = interpolant_integrals(ws.edges, ws.p_nodes, times)
    acc = ws.sigma0 + part
    if not tail <= 1e-7 * max(1.0, float(np.linalg.norm(acc[-1]))):  # also refuses NaN
        raise IntegrationFailureError(f"transported noise unresolved: tail {tail:.3e}")
    g = _phi_pi(horizon_path(ws.sys), ws.pi0, times)[0]
    return symmetrize(g @ acc @ np.swapaxes(g, -1, -2)), tail


def feedback_gain(sys: SystemSpec, times, pi) -> np.ndarray:
    """Gain schedule K(t) = -R(t)^-1 B(t)' Pi(t): the (k, p, n) stack of K at
    k times from the (k, n, n) stack of Pi there."""
    tt = np.asarray(times, dtype=float)[:, None, None]
    return -np.linalg.solve(sys.R.eval(tt), np.swapaxes(sys.B.eval(tt), -1, -2) @ pi)


def optimal_cost(ws: JacobianWorkspace, sigma1: np.ndarray) -> tuple:
    """(cost, error estimate) under the pass's costate anchor Pi0 for the
    target sigma1: int tr(Pi C D C') dt plus the boundary correction.

    The quadrature starts from the panels of the pass ws; a saturated pass,
    or a cost quadrature that saturates, raises IntegrationFailureError.
    """
    _require_resolved(ws)
    sys, path, pi0 = ws.sys, horizon_path(ws.sys), ws.pi0

    def integrand(ts):
        return np.einsum("kij,kji->k", closed_form_on_path(path, pi0, ts), _cdct(sys, ts))

    integral, err, saturated, _ = adaptive_gk(
        integrand, 0.0, 1.0, atol=QUAD_ATOL, rtol=QUAD_RTOL, edges=ws.edges)
    if saturated:
        raise IntegrationFailureError(f"cost quadrature saturated at error {err:.3e}")
    pi1 = closed_form_on_path(path, pi0, 1.0)
    cost = float(integral) + float(np.trace(pi0 @ ws.sigma0)) \
        - float(np.trace(pi1 @ np.asarray(sigma1, dtype=float)))
    return cost, float(err)
