"""Controllability analysis and constructive covariance steering.

Two services live here.  The analysis side evaluates the time-varying
controllability matrices Theta_i(t) built from the recursion
Gamma_k = -A Gamma_{k-1} + dGamma_{k-1}/dt (exact, since coefficients are
polynomial) and classifies a pair as totally / uniformly controllable and
index invariant.  The constructive side realizes a feedback gain that
steers the covariance between two positive definite endpoints for a
constant controllable pair: the pair is reduced to the single-chain
canonical form, the covariance is partitioned into nested layers, boundary
derivatives are propagated outward-in, and each layer's corner entry is
steered by an explicitly constructed scalar control (polynomial plus a
flat exponential bump) that respects a running positivity floor.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ._quad import adaptive_gk
from .errors import (
    InfeasibleConstructionError,
    IntegrationFailureError,
    NotControllableError,
    PreconditionError,
)
from .matfun import BoundaryData, MatrixPoly, SystemSpec, symmetrize

RANK_RTOL = 1e-10
D0_MAX = 1e6
FLOOR_GRID = 1001


# ---------------------------------------------------------------------------
# Controllability matrices and classification
# ---------------------------------------------------------------------------

def _gamma_polys(a: MatrixPoly, b: MatrixPoly, count: int) -> list:
    gammas = [b]
    for _ in range(1, count):
        prev = gammas[-1]
        gammas.append((a @ prev).scale(-1.0) + prev.derivative())
    return gammas


def theta_matrices(sys: SystemSpec, t: float, max_index: int) -> list:
    """Theta_i(t) = [Gamma_0(t) ... Gamma_{i-1}(t)] for i = 1..max_index."""
    if not 1 <= max_index <= sys.n + 1:
        raise ValueError("max_index must lie in 1..n+1")
    gammas = _gamma_polys(sys.A, sys.B, max_index)
    vals = [g.eval(t) for g in gammas]
    return [np.hstack(vals[:i]) for i in range(1, max_index + 1)]


def _rank(mat: np.ndarray, rtol: float = RANK_RTOL) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


@dataclass(frozen=True)
class ControllabilityReport:
    grid_times: tuple
    theta_ranks: tuple  # per time, ranks of Theta_1 .. Theta_{n+1}
    totally_controllable: bool
    uniformly_controllable: bool
    index_invariant: bool
    witnesses: tuple  # grid times with rank Theta_n = n
    probes_per_subinterval: int


def classify(sys: SystemSpec, grid_size: int = 101,
             probes_per_subinterval: int = 10) -> ControllabilityReport:
    """Rank-based controllability classification on a uniform grid.

    Total controllability is certified by refined probing of each grid
    subinterval, a numerical surrogate for the existential definition; the
    probe density is recorded in the report.
    """
    n = sys.n
    gammas = _gamma_polys(sys.A, sys.B, n + 1)
    times = np.linspace(0.0, 1.0, grid_size)

    def theta_n_rank(t):
        return _rank(np.hstack([g.eval(t) for g in gammas[:n]]))

    ranks = []
    for t in times:
        vals = [g.eval(t) for g in gammas]
        ranks.append(tuple(_rank(np.hstack(vals[: i + 1])) for i in range(n + 1)))
    ranks = tuple(ranks)

    witnesses = tuple(float(t) for t, r in zip(times, ranks) if r[n - 1] == n)
    uniform = all(r[n - 1] == n for r in ranks)
    index_invariant = all(
        len({r[i] for r in ranks}) == 1 for i in range(n + 1)
    ) and ranks[0][n - 1] == ranks[0][n]

    total = True
    for k in range(grid_size - 1):
        lo, hi = times[k], times[k + 1]
        probes = np.linspace(lo, hi, probes_per_subinterval + 2)[1:-1]
        if not any(theta_n_rank(t) == n for t in probes):
            total = False
            break

    return ControllabilityReport(
        grid_times=tuple(float(t) for t in times), theta_ranks=ranks,
        totally_controllable=total, uniformly_controllable=uniform,
        index_invariant=index_invariant, witnesses=witnesses,
        probes_per_subinterval=probes_per_subinterval)


# ---------------------------------------------------------------------------
# Canonical reduction of a constant controllable pair
# ---------------------------------------------------------------------------

def _kalman_rank(a, b):
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return _rank(np.hstack(blocks))


def canonical_chain_pair(n: int) -> tuple:
    """The single-chain pair: shift matrix with unit superdiagonal, input e_n."""
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    b = np.zeros((n, 1))
    b[n - 1, 0] = 1.0
    return a, b


def canonical_transform(a: np.ndarray, b: np.ndarray) -> tuple:
    """(T, F, v) with T (A + B F) T^-1 the nilpotent chain and T B v = e_n.

    The triple is not unique; this construction picks the input direction
    of largest gain, grows a single controllable chain greedily, and clears
    the last row with the characteristic coefficients.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n, p = b.shape
    if _kalman_rank(a, b) < n:
        raise NotControllableError("pair (A, B) is not controllable")

    v = np.zeros(p)
    v[int(np.argmax(np.linalg.norm(b, axis=0)))] = 1.0

    # Greedy chain x_{k+1} = A x_k + B w_k keeping the columns independent.
    chain = [b @ v]
    w_cols = []
    candidates = [np.zeros(p)] + [np.eye(p)[:, j] for j in range(p)]
    for _ in range(n - 1):
        best, best_w, best_sv = None, None, 0.0
        for w in candidates:
            cand = a @ chain[-1] + b @ w
            stacked = np.column_stack(chain + [cand])
            sv = np.linalg.svd(stacked, compute_uv=False)
            if sv[-1] > best_sv:
                best, best_w, best_sv = cand, w, sv[-1]
        if best is None or best_sv <= RANK_RTOL * np.linalg.norm(np.column_stack(chain)):
            raise NotControllableError("greedy chain construction collapsed")
        chain.append(best)
        w_cols.append(best_w)
    x_mat = np.column_stack(chain)
    w_mat = np.column_stack(w_cols + [np.zeros(p)])
    f_bar = w_mat @ np.linalg.inv(x_mat)

    # Phase-variable form of the single-input pair (A + B Fbar, B v).
    a_cl = a + b @ f_bar
    b_vec = chain[0]
    ctrb = np.column_stack(
        [np.linalg.matrix_power(a_cl, k) @ b_vec for k in range(n)])
    q_row = np.linalg.inv(ctrb)[-1]
    t_mat = np.vstack([q_row @ np.linalg.matrix_power(a_cl, k) for k in range(n)])

    # Clear the companion's last row: char(A_cl) = s^n + c_{n-1} s^{n-1} + ... + c_0.
    char = np.poly(a_cl)
    g_row = char[::-1][:-1]
    f = f_bar + np.outer(v, g_row @ t_mat)
    return t_mat, f, v


# ---------------------------------------------------------------------------
# Scalar polynomial helpers (ascending coefficient arrays)
# ---------------------------------------------------------------------------

def _pder(c):
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)


def _pder_k(c, k):
    for _ in range(k):
        c = _pder(c)
    return c


def _peval(c, t):
    out = 0.0
    for v in c[::-1]:
        out = out * t + v
    return out


def _pmul(a, b):
    return np.convolve(a, b)


def _padd(a, b):
    k = max(len(a), len(b))
    out = np.zeros(k)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


_D_POLY = np.array([0.0, 0.0, 1.0, -2.0, 1.0])  # t^2 (1-t)^2
_D_PRIME = np.array([0.0, 2.0, -6.0, 4.0])


@dataclass(frozen=True)
class _RatD:
    """Rational function num(t) / (t^2 (1-t)^2)^k, closed under d/dt."""

    num: np.ndarray
    k: int

    def deriv(self):
        if self.k == 0:
            return _RatD(_pder(self.num), 0)
        num = _padd(_pmul(_pder(self.num), _D_POLY),
                    _pmul(self.num, _D_PRIME) * (-self.k))
        return _RatD(num, self.k + 1)

    def add(self, other):
        k = max(self.k, other.k)
        a = self.num if self.k == k else _pmul(self.num, _ppow(_D_POLY, k - self.k))
        b = other.num if other.k == k else _pmul(other.num, _ppow(_D_POLY, k - other.k))
        return _RatD(_padd(a, b), k)

    def value(self, t):
        d = _peval(_D_POLY, t)
        return _peval(self.num, t) / d ** self.k if self.k else _peval(self.num, t)


def _ppow(c, k):
    out = np.ones(1)
    for _ in range(k):
        out = _pmul(out, c)
    return out


def _bump(t):
    """exp(-1/(t(1-t))) extended by zero to the endpoints."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return math.exp(-1.0 / (t * (1.0 - t)))


@dataclass(frozen=True)
class ExpIntegralWeight:
    """Weight f(t) = exp(2 int_t^1 nu), positive, with exact log-derivative."""

    nu_coeffs: tuple

    def _antideriv(self):
        c = np.asarray(self.nu_coeffs, dtype=float)
        return np.concatenate([[0.0], c / np.arange(1, len(c) + 1)])

    def __call__(self, t):
        anti = self._antideriv()
        return math.exp(2.0 * (_peval(anti, 1.0) - _peval(anti, t)))

    @property
    def log_deriv_coeffs(self):
        return -2.0 * np.asarray(self.nu_coeffs, dtype=float)


@dataclass(frozen=True)
class ScalarSteeringProblem:
    """Inputs of the scalar construction: weight, target integral, boundary
    derivative lists (orders 0..H at both ends), and the floor function."""

    f: object  # callable weight, positive on [0, 1]
    gamma: float
    alpha: tuple
    beta: tuple
    rho: object  # callable floor with rho(0) < 0 and rho(1) < gamma

    def __post_init__(self):
        if len(self.alpha) != len(self.beta) or not self.alpha:
            raise ValueError("alpha and beta must list the same orders 0..H")


@dataclass(frozen=True)
class ScalarControl:
    """u(t) = polynomial + d0-scaled flat bump, with exact derivatives."""

    poly: np.ndarray  # combined a + b + c coefficients, ascending
    a_coeffs: tuple
    b_coeffs: tuple
    c0: float
    d0: float
    weight: object
    verification: dict

    def value(self, t):
        val = _peval(self.poly, t)
        if self.d0 != 0.0:
            val += self._bump_part(t, 0)
        return val

    def derivative(self, t, order=1):
        val = _peval(_pder_k(self.poly, order), t)
        if self.d0 != 0.0:
            val += self._bump_part(t, order)
        return val

    def _bump_part(self, t, order):
        psi = _bump(t)
        if psi == 0.0:
            return 0.0
        if not hasattr(self.weight, "log_deriv_coeffs"):
            if order == 0:
                w = _RatD(np.array([1.0, -2.0]), 1)
                return self.d0 * psi * w.value(t) / self.weight(t)
            raise ValueError(
                "bump derivatives need a weight with an exact log-derivative")
        r = np.asarray(self.weight.log_deriv_coeffs, dtype=float)
        # d^(m) = d0 psi h_m / f with h_0 = w, h_{m+1} = h_m' + h_m (w - r).
        h = _RatD(np.array([1.0, -2.0]), 1)
        w_minus_r = _RatD(_padd(np.array([1.0, -2.0]), _pmul(-r, _D_POLY)), 1)
        for _ in range(order):
            h = h.deriv().add(_RatD(_pmul(h.num, w_minus_r.num), h.k + w_minus_r.k))
        return self.d0 * psi * h.value(t) / self.weight(t)


def _cumulative_weighted(f, g, rtol=1e-12):
    """Dense antiderivative t -> int_0^t f(s) g(s) ds."""
    sol = solve_ivp(lambda t, y: [f(t) * g(t)], (0.0, 1.0), [0.0],
                    method="RK45", rtol=rtol, atol=1e-14, dense_output=True)
    if not sol.success:
        raise IntegrationFailureError("cumulative quadrature failed")
    return lambda t: float(sol.sol(t)[0])


def scalar_steering_u(prob: ScalarSteeringProblem) -> ScalarControl:
    """Construct u with prescribed boundary derivatives, weighted integral
    gamma, and running weighted integral strictly above the floor.

    The polynomial part matches the boundary data and the integral; the
    flat bump amplitude d0 is the smallest value on a doubling ladder that
    clears the floor on a 1001-point grid.
    """
    f = prob.f
    rho0, rho1 = prob.rho(0.0), prob.rho(1.0)
    if rho0 >= 0.0 or rho1 >= prob.gamma:
        raise PreconditionError(
            f"floor hypotheses violated: rho(0)={rho0:.3e}, rho(1)-gamma={rho1 - prob.gamma:.3e}")
    h_order = len(prob.alpha) - 1

    a = np.array([prob.alpha[i] / math.factorial(i) for i in range(h_order + 1)])

    # b(t) = t^{H+1} sum b_i (1-t)^i fixes the derivatives at t = 1 triangularly.
    t_pow = np.zeros(h_order + 2)
    t_pow[-1] = 1.0
    phis = [_pmul(t_pow, _ppow(np.array([1.0, -1.0]), i)) for i in range(h_order + 1)]
    tri = np.zeros((h_order + 1, h_order + 1))
    rhs = np.zeros(h_order + 1)
    for j in range(h_order + 1):
        for i in range(j + 1):
            tri[j, i] = _peval(_pder_k(phis[i], j), 1.0)
        rhs[j] = prob.beta[j] - _peval(_pder_k(a, j), 1.0)
    b_coefs = np.linalg.solve(tri, rhs)
    b_poly = np.zeros(1)
    for i, bi in enumerate(b_coefs):
        b_poly = _padd(b_poly, bi * phis[i])

    psi_poly = _pmul(t_pow, _ppow(np.array([1.0, -1.0]), h_order + 1))
    ab = _padd(a, b_poly)
    int_ab, _, _ = adaptive_gk(lambda ts: np.array([f(t) * _peval(ab, t) for t in ts]),
                               0.0, 1.0, atol=1e-12)
    int_psi, _, _ = adaptive_gk(lambda ts: np.array([f(t) * _peval(psi_poly, t) for t in ts]),
                                0.0, 1.0, atol=1e-12)
    c0 = (prob.gamma - float(int_ab)) / float(int_psi)
    poly = _padd(ab, c0 * psi_poly)

    cum = _cumulative_weighted(f, lambda t: _peval(poly, t))
    grid = np.linspace(0.0, 1.0, FLOOR_GRID)
    floor_vals = np.array([prob.rho(t) for t in grid])
    base_vals = np.array([cum(t) for t in grid])
    bump_vals = np.array([_bump(t) for t in grid])

    d0 = 0.0
    if np.any(base_vals <= floor_vals):
        d0 = 1e-3
        while d0 <= D0_MAX and np.any(base_vals + d0 * bump_vals <= floor_vals):
            d0 *= 2.0
        if d0 > D0_MAX:
            raise InfeasibleConstructionError(
                "no bump amplitude below 1e6 clears the floor; hypotheses "
                "of the construction are likely violated")

    margin = float(np.min(base_vals + d0 * bump_vals - floor_vals))
    verification = {
        "integral_residual": abs(cum(1.0) - prob.gamma),
        "floor_margin": margin,
        "grid_points": FLOOR_GRID,
    }
    return ScalarControl(poly=poly, a_coeffs=tuple(a), b_coeffs=tuple(b_coefs),
                         c0=float(c0), d0=float(d0), weight=f,
                         verification=verification)


# ---------------------------------------------------------------------------
# Layered construction of a feasible steering (constant canonical pair)
# ---------------------------------------------------------------------------

class _ControlFn:
    """Time function backed by a constructed scalar control."""

    def __init__(self, control: ScalarControl):
        self.control = control

    def deriv(self, t, k=0):
        return self.control.value(t) if k == 0 else self.control.derivative(t, k)


class _CornerFn:
    """Corner entry integrated from its scalar linear equation.

    Derivatives chain through the equation d sigma = 2 g + m + 2 nu sigma,
    so any order reduces to derivatives of the driving control.
    """

    def __init__(self, dense, g_fn, m_entry, nu_coeffs):
        self._dense = dense
        self._g = g_fn
        self._m = m_entry  # ascending poly coeffs
        self._nu = nu_coeffs

    def deriv(self, t, k=0):
        if k == 0:
            return float(self._dense.sol(t)[0])
        j = k - 1
        out = 2.0 * self._g.deriv(t, j) + _peval(_pder_k(self._m, j), t)
        for r in range(j + 1):
            out += 2.0 * math.comb(j, r) * _peval(_pder_k(self._nu, r), t) \
                * self.deriv(t, j - r)
        return out


class _DeterminedFn:
    """Column entry eliminated through the layer equation.

    value = d(below)/dt - right - m - 2 nu below, and higher derivatives
    follow by Leibniz.
    """

    def __init__(self, below, right, m_entry, nu_coeffs):
        self._below = below
        self._right = right
        self._m = m_entry
        self._nu = nu_coeffs

    def deriv(self, t, k=0):
        out = self._below.deriv(t, k + 1) - self._right.deriv(t, k) \
            - _peval(_pder_k(self._m, k), t)
        for r in range(k + 1):
            out -= 2.0 * math.comb(k, r) * _peval(_pder_k(self._nu, r), t) \
                * self._below.deriv(t, k - r)
        return out


@dataclass(frozen=True)
class FeasibleSteering:
    """A constructed steering: control schedule, gains, covariance, trace.

    gain/control/covariance evaluate the construction exactly at any time,
    bypassing grid interpolation; the grids are samples of the same maps.
    """

    times: np.ndarray
    u_grid: tuple  # (t, U) with U of shape n x p
    k_grid: tuple  # (t, K) with K of shape p x n
    sigma_grid: tuple
    layer_trace: tuple
    endpoint_errors: tuple  # (|Sigma(0)-Sigma0|_F, |Sigma(1)-Sigma1|_F)
    gain: object = None
    control: object = None
    covariance: object = None


def _poly_entry(mp: MatrixPoly, i: int, j: int) -> np.ndarray:
    return np.asarray(mp.coeffs[i][j], dtype=float)


def _endpoint_derivs_nu_product(nu_c, vals, j, t):
    """sum_r C(j,r) nu^(r)(t) vals[j-r] for the Leibniz terms."""
    return sum(math.comb(j, r) * _peval(_pder_k(nu_c, r), t) * vals[j - r]
               for r in range(j + 1))


def construct_feasible_steering(a: np.ndarray, b: np.ndarray, bd: BoundaryData,
                                m_poly: MatrixPoly, nu_poly: MatrixPoly,
                                h_order: int = 0,
                                grid_size: int = 1001) -> FeasibleSteering:
    """Constructively steer the covariance of a constant controllable pair.

    Follows the two-pass layer procedure: after canonical reduction,
    boundary derivative data is pushed from the outer layers inward (layer
    k carries orders up to H + n + 1 - k), then the entries are built from
    the innermost corner outward, each corner driven by a scalar control
    whose floor enforces the Schur-complement positivity of the growing
    block.  Desk scale: n <= 3.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n, p = b.shape
    if n > 3:
        raise PreconditionError("constructive steering is limited to n <= 3")
    if bd.sigma0.shape != (n, n):
        raise PreconditionError("boundary data dimension mismatch")
    if m_poly.rows != n or nu_poly.rows != 1:
        raise PreconditionError("M must be n x n and nu scalar")

    t_mat, f_gain, v_dir = canonical_transform(a, b)
    t_inv = np.linalg.inv(t_mat)
    sig0 = t_mat @ bd.sigma0 @ t_mat.T
    sig1 = t_mat @ bd.sigma1 @ t_mat.T
    m_y = MatrixPoly.constant(t_mat) @ m_poly @ MatrixPoly.constant(t_mat.T)
    nu_c = np.asarray(nu_poly.coeffs[0][0], dtype=float)
    weight = ExpIntegralWeight(tuple(nu_c))
    f_at_0 = weight(0.0)

    # ---- pass 1: propagate boundary derivative data outer -> inner -------
    # bc arrays are indexed [order]; bc0 at t=0, bc1 at t=1.
    h_levels = {m: h_order + (n - m) for m in range(1, n + 1)}
    ctrl_bc = {n: {i: (np.zeros(h_order + 1), np.zeros(h_order + 1))
                   for i in range(1, n + 1)}}
    corner_bc = {}
    for m in range(n, 1, -1):
        h_m = h_levels[m]
        cbc = ctrl_bc[m]
        corner0 = np.zeros(h_m + 2)
        corner1 = np.zeros(h_m + 2)
        corner0[0], corner1[0] = sig0[m - 1, m - 1], sig1[m - 1, m - 1]
        m_mm = _poly_entry(m_y, m - 1, m - 1)
        for j in range(h_m + 1):
            for t_end, arr, cvals in ((0.0, corner0, cbc[m][0]), (1.0, corner1, cbc[m][1])):
                arr[j + 1] = 2.0 * cvals[j] + _peval(_pder_k(m_mm, j), t_end) \
                    + 2.0 * _endpoint_derivs_nu_product(nu_c, arr, j, t_end)
        corner_bc[m] = (corner0, corner1)

        col0 = {i: np.zeros(h_m + 2) for i in range(1, m)}
        col1 = {i: np.zeros(h_m + 2) for i in range(1, m)}
        for i in range(1, m):
            col0[i][0] = sig0[i - 1, m - 1]
            col1[i][0] = sig1[i - 1, m - 1]
        for j in range(h_m + 1):
            for i in range(1, m):
                above0 = col0[i + 1][j] if i + 1 < m else corner0[j]
                above1 = col1[i + 1][j] if i + 1 < m else corner1[j]
                col0[i][j + 1] = above0 + cbc[i][0][j] + _peval(_pder_k(
                    _poly_entry(m_y, i - 1, m - 1), j), 0.0) \
                    + 2.0 * _endpoint_derivs_nu_product(nu_c, col0[i], j, 0.0)
                col1[i][j + 1] = above1 + cbc[i][1][j] + _peval(_pder_k(
                    _poly_entry(m_y, i - 1, m - 1), j), 1.0) \
                    + 2.0 * _endpoint_derivs_nu_product(nu_c, col1[i], j, 1.0)
        ctrl_bc[m - 1] = {i: (col0[i], col1[i]) for i in range(1, m)}

    corner_bc[1] = (np.array([sig0[0, 0]]), np.array([sig1[0, 0]]))

    # ---- pass 2: construct entries inner -> outer -------------------------
    entries: dict = {}
    u_fns: dict = {}
    layer_trace = []

    def weighted_cum(g_entry_poly):
        return _cumulative_weighted(weight, lambda t: _peval(g_entry_poly, t))

    for m in range(1, n + 1):
        for i in range(1, m - 1):
            entries[(i, m)] = _DeterminedFn(
                below=entries[(i, m - 1)], right=entries[(i + 1, m - 1)],
                m_entry=_poly_entry(m_y, i - 1, m - 2), nu_coeffs=nu_c)

        # Corner sigma_mm driven by g_m (the next-column head, or U_m at m = n).
        m_mm = _poly_entry(m_y, m - 1, m - 1)
        cum_m = weighted_cum(m_mm)
        s_mm_0 = sig0[m - 1, m - 1]
        s_mm_1 = sig1[m - 1, m - 1]
        gamma_m = 0.5 * (s_mm_1 - f_at_0 * s_mm_0 - cum_m(1.0))

        if m == 1:
            def q_fn(t):
                return 0.0
        else:
            col_fns = [entries[(i, m)] for i in range(1, m)]
            blk_fns = {(i, j): entries[(min(i, j), max(i, j))]
                       for i in range(1, m) for j in range(1, m)}

            def q_fn(t, col_fns=col_fns, blk_fns=blk_fns, mm=m):
                col = np.array([fn.deriv(t, 0) for fn in col_fns])
                blk = np.array([[blk_fns[(i, j)].deriv(t, 0)
                                 for j in range(1, mm)] for i in range(1, mm)])
                return float(col @ np.linalg.solve(symmetrize(blk), col))

        def rho_m(t, q_fn=q_fn, cum_m=cum_m, s_mm_0=s_mm_0):
            return 0.5 * (weight(t) * q_fn(t) - f_at_0 * s_mm_0 - cum_m(t))

        bc0, bc1 = ctrl_bc[m][m]
        h_m = h_levels[m]
        prob = ScalarSteeringProblem(
            f=weight, gamma=gamma_m, alpha=tuple(bc0[: h_m + 1]),
            beta=tuple(bc1[: h_m + 1]), rho=rho_m)
        control = scalar_steering_u(prob)
        g_fn = _ControlFn(control)

        dense = solve_ivp(
            lambda t, y, g=g_fn, mm_c=m_mm: [
                2.0 * g.deriv(t, 0) + _peval(mm_c, t)
                + 2.0 * _peval(nu_c, t) * y[0]],
            (0.0, 1.0), [s_mm_0], method="RK45", rtol=1e-12, atol=1e-14,
            dense_output=True)
        if not dense.success:
            raise IntegrationFailureError("corner integration failed")
        entries[(m, m)] = _CornerFn(dense, g_fn, m_mm, nu_c)
        if m < n:
            entries[(m, m + 1)] = g_fn
        else:
            u_fns[m] = g_fn
        layer_trace.append({
            "layer": m, "corner_targets": (s_mm_0, s_mm_1), "gamma": gamma_m,
            "bc_orders": h_m, "poly_coeffs": tuple(control.poly),
            "d0": control.d0, "verification": control.verification,
        })

    for i in range(1, n):
        u_fns[i] = _DeterminedFn(
            below=entries[(i, n)], right=entries[(i + 1, n)],
            m_entry=_poly_entry(m_y, i - 1, n - 1), nu_coeffs=nu_c)

    # ---- exact evaluation maps and sampled grids --------------------------
    def sigma_canonical(t):
        sig_y = np.empty((n, n))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                sig_y[i - 1, j - 1] = sig_y[j - 1, i - 1] = entries[(i, j)].deriv(t, 0)
        return sig_y

    def covariance(t):
        return symmetrize(t_inv @ sigma_canonical(t) @ t_inv.T)

    def gain(t):
        sig_y = sigma_canonical(t)
        u_y = np.array([u_fns[i].deriv(t, 0) for i in range(1, n + 1)])
        k_y = np.linalg.solve(sig_y, u_y)  # canonical gain row
        return f_gain + np.outer(v_dir, k_y @ t_mat)

    def control(t):
        return covariance(t) @ gain(t).T

    times = np.linspace(0.0, 1.0, grid_size)
    u_grid = tuple((float(t), control(t)) for t in times)
    k_grid = tuple((float(t), gain(t)) for t in times)
    sigma_grid = tuple((float(t), covariance(t)) for t in times)

    err0 = float(np.linalg.norm(sigma_grid[0][1] - bd.sigma0))
    err1 = float(np.linalg.norm(sigma_grid[-1][1] - bd.sigma1))
    if max(err0, err1) > 1e-6:
        raise IntegrationFailureError(
            f"constructed trajectory misses the endpoints ({err0:.3e}, {err1:.3e})")
    return FeasibleSteering(times=times, u_grid=u_grid, k_grid=k_grid,
                            sigma_grid=sigma_grid, layer_trace=tuple(layer_trace),
                            endpoint_errors=(err0, err1), gain=gain,
                            control=control, covariance=covariance)
