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
flat exponential bump) that respects a running positivity floor.  The
corner is read in closed form from its integrating factor
f = exp(2 int_t^1 nu); the only integrations left are each layer's two
cumulative RK45 quadratures, int_0^t f m and int_0^t f (control polynomial).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P
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


def theta_matrices(sys: SystemSpec, t, max_index: int) -> list:
    """Theta_i(t) = [Gamma_0(t) ... Gamma_{i-1}(t)] for i = 1..max_index.

    For an array of times each Theta_i is the stack of its values, with the
    time axes leading.
    """
    if not 1 <= max_index <= sys.n + 1:
        raise ValueError("max_index must lie in 1..n+1")
    tt = np.asarray(t, dtype=float)[..., None, None]
    vals = np.concatenate([g.eval(tt) for g in _gamma_polys(sys.A, sys.B, max_index)],
                          axis=-1)
    return [vals[..., : i * sys.p] for i in range(1, max_index + 1)]


def _rank(mat: np.ndarray, rtol: float = RANK_RTOL):
    """Numerical rank of a matrix, or of each matrix in a stack."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return np.sum(sv > rtol * sv[..., :1], axis=-1)


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
    times = np.linspace(0.0, 1.0, grid_size)
    ranks = np.stack([_rank(th) for th in theta_matrices(sys, times, n + 1)], axis=1)
    full = ranks[:, n - 1] == n
    index_invariant = bool(np.all(ranks == ranks[0]) and ranks[0, n - 1] == ranks[0, n])

    probes = np.linspace(times[:-1], times[1:], probes_per_subinterval + 2, axis=1)[:, 1:-1]
    probe_ranks = _rank(theta_matrices(sys, probes, n)[-1])
    total = bool(np.all(np.any(probe_ranks == n, axis=1)))

    return ControllabilityReport(
        grid_times=tuple(times.tolist()), theta_ranks=tuple(map(tuple, ranks.tolist())),
        totally_controllable=total, uniformly_controllable=bool(np.all(full)),
        index_invariant=index_invariant, witnesses=tuple(times[full].tolist()),
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
# Scalar construction (polynomials as ascending coefficient arrays)
# ---------------------------------------------------------------------------

_D_POLY = np.array([0.0, 0.0, 1.0, -2.0, 1.0])  # t^2 (1-t)^2
_D_PRIME = P.polyder(_D_POLY)
_PSI_LOG_DERIV = np.array([1.0, -2.0])  # psi'/psi = (1 - 2t) / D


def _pack(groups):
    """(table, where): keyed groups of polynomials in one zero-padded table,
    so that one polyval evaluates them all, and each group's row slice."""
    rows, where = [], {}
    for key, polys in groups.items():
        where[key] = slice(len(rows), len(rows) + len(polys))
        rows.extend(np.atleast_1d(p) for p in polys)
    deg = max(map(len, rows))
    return np.stack([np.pad(r, (0, deg - len(r))) for r in rows], 1), where


class _At:
    """One call's times with every packed polynomial evaluated there.

    Derivative towers, orders 0..k stacked on a leading axis, and plain time
    functions (weight, bump, running integrals) are memoised, so each is
    computed once a call.
    """

    def __init__(self, packed, t):
        # A float, not a 0-d array, keeps single-time arithmetic cheap.
        t = np.asarray(t, dtype=float)
        self.t = float(t) if t.ndim == 0 else t
        self.shape = t.shape
        table, self._where = packed
        self._rows = P.polyval(self.t, table)
        self._memo = {}

    def poly(self, key):
        return self._rows[self._where[key]]

    def of(self, fn):
        if fn not in self._memo:
            self._memo[fn] = fn(self.t)
        return self._memo[fn]

    def tower(self, node, k):
        have = self._memo.get(node)
        if have is None or len(have) <= k:
            have = self._memo[node] = node.tower(self, k)
        return have[: k + 1]


def _bump(t):
    """psi(t) = exp(-1/(t(1-t))) extended by zero outside (0, 1)."""
    s = t * (1.0 - np.asarray(t, dtype=float))
    if s.ndim == 0:  # math.exp: see ExpIntegralWeight
        return math.exp(-1.0 / float(s)) if s > 0.0 else 0.0
    with np.errstate(over="ignore"):  # -1/s overflows only where psi underflows
        return np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)), 0.0)


@dataclass(frozen=True)
class ExpIntegralWeight:
    """Weight f(t) = exp(2 int_t^1 nu), positive, with exact log-derivative."""

    nu_coeffs: tuple

    @cached_property
    def _antideriv(self):
        anti = P.polyint(np.asarray(self.nu_coeffs, dtype=float))
        return anti, P.polyval(1.0, anti)

    def __call__(self, t):
        anti, at_1 = self._antideriv
        x = 2.0 * (at_1 - P.polyval(t, anti))
        # math.exp at a single time is cheaper, and the RK45 steps that call
        # it are sensitive to the last bit, where np.exp may differ.
        return math.exp(x) if np.ndim(x) == 0 else np.exp(x)

    @property
    def log_deriv_coeffs(self):
        return -2.0 * np.asarray(self.nu_coeffs, dtype=float)


@dataclass(frozen=True)
class ScalarSteeringProblem:
    """Inputs of the scalar construction: weight, target integral, boundary
    derivative lists (orders 0..H at both ends), and the floor function.

    f is called at single times (floats) and on 1-D time arrays, rho on 1-D
    time arrays; either may return a scalar where it is constant.
    """

    f: object  # callable weight, positive on [0, 1]
    gamma: float
    alpha: tuple
    beta: tuple
    rho: object  # callable floor with rho(0) < 0 and rho(1) < gamma

    def __post_init__(self):
        if len(self.alpha) != len(self.beta) or not self.alpha:
            raise ValueError("alpha and beta must list the same orders 0..H")


@dataclass(frozen=True, eq=False)
class ScalarControl:
    """u(t) = polynomial + d0-scaled flat bump, with exact derivatives."""

    poly: np.ndarray  # coefficients, ascending
    d0: float
    weight: object
    poly_integral: object  # dense t -> int_0^t weight poly, from the floor check
    verification: dict

    def _polys(self, k: int) -> dict:
        """The polynomials of the order-0..k tower, in groups for _pack.

        The j-th bump derivative is d0 psi h_j / f with h_j = num_j / D^(j+1):
        h_0 = w and h_{j+1} = h_j' + h_j (w - r), where w = psi'/psi and r is
        the weight's log-derivative; without r only h_0 is known.
        """
        groups = {(self, "poly"): [P.polyder(self.poly, j) for j in range(k + 1)]}
        if self.d0 != 0.0:
            nums = [_PSI_LOG_DERIV]
            if hasattr(self.weight, "log_deriv_coeffs"):
                r = np.asarray(self.weight.log_deriv_coeffs, dtype=float)
                w_minus_r = P.polyadd(_PSI_LOG_DERIV, P.polymul(-r, _D_POLY))
                for j in range(k):
                    num = nums[-1]
                    deriv = P.polysub(P.polymul(P.polyder(num), _D_POLY),
                                      (j + 1) * P.polymul(num, _D_PRIME))
                    nums.append(P.polyadd(deriv, P.polymul(num, w_minus_r)))
            groups[self, "bump"] = [_D_POLY] + nums
        return groups

    def tower(self, at, k):
        out = at.poly((self, "poly"))[: k + 1]
        if self.d0 == 0.0:
            return out
        rows = at.poly((self, "bump"))
        scale = self.d0 * at.of(_bump)
        if len(rows) < k + 2:  # no exact log-derivative: known only where psi = 0
            if np.any(scale != 0.0):
                raise ValueError(
                    "bump derivatives need a weight with an exact log-derivative")
            return out
        d_poly = rows[0] + (scale == 0.0)  # D + 1 where psi = 0: D >= 0 may vanish
        out = out.copy()
        for j in range(k + 1):
            out[j] += scale * (rows[j + 1] / d_poly ** (j + 1)) / at.of(self.weight)
        return out

    @cached_property
    def _packed(self):
        return {}

    def value(self, t):
        return self.derivative(t, 0)

    def derivative(self, t, order=1):
        """The order-th derivative of u at a time or a 1-D time array."""
        if order not in self._packed:
            self._packed[order] = _pack(self._polys(order))
        return _At(self._packed[order], t).tower(self, order)[order]


def _cumulative_weighted(f, g, rtol=1e-12):
    """Dense antiderivative t -> int_0^t f(s) g(s) ds, at a time or an array."""
    sol = solve_ivp(lambda t, y: [f(t) * g(t)], (0.0, 1.0), [0.0],
                    method="RK45", rtol=rtol, atol=1e-14, dense_output=True)
    if not sol.success:
        raise IntegrationFailureError("cumulative quadrature failed")
    return lambda t: sol.sol(t)[0]


def scalar_steering_u(prob: ScalarSteeringProblem) -> ScalarControl:
    """Construct u with prescribed boundary derivatives, weighted integral
    gamma, and running weighted integral strictly above the floor.

    The polynomial part matches the boundary data and the integral; the
    flat bump amplitude d0 is the smallest value on a doubling ladder that
    clears the floor on a 1001-point grid.  A weighted integral that does
    not converge, or a running integral that misses gamma by more than
    1e-9 max(1, |gamma|), raises IntegrationFailureError.
    """
    f = prob.f
    rho0, rho1 = np.broadcast_to(prob.rho(np.array([0.0, 1.0])), 2)
    if rho0 >= 0.0 or rho1 >= prob.gamma:
        raise PreconditionError(
            f"floor hypotheses violated: rho(0)={rho0:.3e}, rho(1)-gamma={rho1 - prob.gamma:.3e}")
    h_order = len(prob.alpha) - 1

    a = np.array([prob.alpha[i] / math.factorial(i) for i in range(h_order + 1)])

    # b(t) = t^{H+1} sum b_i (1-t)^i fixes the derivatives at t = 1 triangularly.
    t_pow = np.zeros(h_order + 2)
    t_pow[-1] = 1.0
    phis = [P.polymul(t_pow, P.polypow([1.0, -1.0], i)) for i in range(h_order + 1)]
    tri = np.zeros((h_order + 1, h_order + 1))
    rhs = np.zeros(h_order + 1)
    for j in range(h_order + 1):
        for i in range(j + 1):
            tri[j, i] = P.polyval(1.0, P.polyder(phis[i], j))
        rhs[j] = prob.beta[j] - P.polyval(1.0, P.polyder(a, j))
    b_coefs = np.linalg.solve(tri, rhs)
    b_poly = np.zeros(1)
    for i, bi in enumerate(b_coefs):
        b_poly = P.polyadd(b_poly, bi * phis[i])

    psi_poly = P.polymul(t_pow, P.polypow([1.0, -1.0], h_order + 1))
    ab = P.polyadd(a, b_poly)
    int_ab, _, sat_ab = adaptive_gk(lambda ts: f(ts) * P.polyval(ts, ab),
                                    0.0, 1.0, atol=1e-12, rtol=1e-13)
    int_psi, _, sat_psi = adaptive_gk(lambda ts: f(ts) * P.polyval(ts, psi_poly),
                                      0.0, 1.0, atol=1e-12, rtol=1e-13)
    if sat_ab or sat_psi or not np.isfinite(int_ab + int_psi):
        raise IntegrationFailureError(
            "weighted integral of the control polynomial did not converge")
    c0 = (prob.gamma - float(int_ab)) / float(int_psi)
    poly = P.polyadd(ab, c0 * psi_poly)

    cum = _cumulative_weighted(f, lambda t: P.polyval(t, poly))
    residual = abs(float(cum(1.0)) - prob.gamma)
    if not residual <= 1e-9 * max(1.0, abs(prob.gamma)):
        raise IntegrationFailureError(
            f"running integral misses its target by {residual:.3e}")
    grid = np.linspace(0.0, 1.0, FLOOR_GRID)
    floor_vals = prob.rho(grid)
    base_vals = cum(grid)
    bump_vals = _bump(grid)

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
        "integral_residual": residual,
        "floor_margin": margin,
        "grid_points": FLOOR_GRID,
    }
    return ScalarControl(poly=poly, d0=float(d0), weight=f, poly_integral=cum,
                         verification=verification)


# ---------------------------------------------------------------------------
# Layered construction of a feasible steering (constant canonical pair)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _CornerFn:
    """Corner entry read from its integrating factor.

    The corner obeys d sigma = 2 g + m + 2 nu sigma, and the control's weight
    f = exp(2 int_t^1 nu) is that equation's integrating factor:
    f sigma = f(0) sigma(0) + int_0^t f m + 2 int_0^t f g, where int_0^t f g
    is g's running polynomial integral plus d0 psi.  Derivatives chain
    through the equation, so order j + 1 comes from orders 0..j of sigma
    and g.
    """

    start: float  # f(0) sigma(0)
    cum_m: object  # t -> int_0^t f m
    g: object
    m_key: tuple

    def tower(self, at, k):
        out = np.empty((k + 1,) + at.shape)
        run = at.of(self.g.poly_integral) + self.g.d0 * at.of(_bump)  # int_0^t f g
        out[0] = (self.start + at.of(self.cum_m) + 2.0 * run) / at.of(self.g.weight)
        if k:
            g, m, nu = at.tower(self.g, k - 1), at.poly(self.m_key), at.poly("nu")
        for j in range(k):
            out[j + 1] = 2.0 * g[j] + m[j] + 2.0 * _nu_leibniz(nu, out, j)
        return out


@dataclass(frozen=True, eq=False)
class _DeterminedFn:
    """Column entry eliminated through the layer equation.

    value = d(below)/dt - right - m - 2 nu below, and higher derivatives
    follow by Leibniz.
    """

    below: object
    right: object
    m_key: tuple

    def tower(self, at, k):
        below, nu = at.tower(self.below, k + 1), at.poly("nu")
        out = below[1:] - at.tower(self.right, k) - at.poly(self.m_key)[: k + 1]
        for j in range(k + 1):
            out[j] -= 2.0 * _nu_leibniz(nu, below, j)
        return out


@dataclass(frozen=True)
class FeasibleSteering:
    """A constructed steering: control schedule, gains, covariance, trace.

    gain/control/covariance evaluate the construction exactly at a time or a
    1-D time array (the time axis leading), bypassing grid interpolation; the
    grids are samples of the same maps.
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


def _nu_leibniz(nu, vals, j):
    """sum_r C(j,r) nu^(r) vals[j-r], the Leibniz terms of (nu x)^(j)."""
    return sum(math.comb(j, r) * nu[r] * vals[j - r] for r in range(j + 1))


def _canonical(entries, at, size):
    """The leading size x size block of the canonical covariance.

    An entry's tower reads only entries of earlier columns, so reading the
    outer columns first builds each tower once, at its highest order.
    """
    out = np.empty(at.shape + (size, size))
    for j in reversed(range(size)):
        for i in range(j + 1):
            out[..., i, j] = out[..., j, i] = at.tower(entries[(i + 1, j + 1)], 0)[0]
    return out


def _layer_entries(sig0, sig1, m_y, nu_c, h_order):
    """Both layer passes in canonical coordinates: (entries, packed, trace).

    entries[(i, j)] is the canonical covariance entry for i <= j <= n and
    entries[(i, n + 1)] the i-th entry of U; the packed table holds every
    polynomial their derivative towers read, up to order 1.
    """
    n = m_y.rows
    # Derivatives up to order H + n - 1: pass 1 reads below H + n - 1, the maps below n.
    nu_d = [P.polyder(nu_c, r) for r in range(h_order + n)]
    m_d = [m_y.derivative(r) for r in range(h_order + n)]
    weight = ExpIntegralWeight(tuple(nu_c))
    f_at_0 = weight(0.0)

    # Every polynomial the evaluation maps read, packed in one table.  U_i needs
    # entry (i, n) to order 1, which reads layer i's control (i, i + 1) to
    # order n - i, and M and nu to lower orders; so does each entry's order 1.
    groups = {("m", i, j): [m_d[r].entry(i, j) for r in range(n)]
              for i in range(n) for j in range(i, n)}
    groups["nu"] = nu_d[:n]
    packed = _pack(groups)

    # ---- pass 1: propagate boundary derivative data outer -> inner -------
    # bc arrays are indexed [order, end], the ends being t = 0 and t = 1.
    ends = np.array([0.0, 1.0])
    nu_ends = [P.polyval(ends, d) for d in nu_d]
    ctrl_bc = {n: {i: np.zeros((h_order + 1, 2)) for i in range(1, n + 1)}}
    for m in range(n, 1, -1):  # layer m carries orders 0..H + n - m
        h_m = h_order + n - m
        cbc = ctrl_bc[m]
        col = {i: np.zeros((h_m + 2, 2)) for i in range(1, m + 1)}  # col[m]: corner
        col[m + 1] = cbc[m]  # the corner's right neighbour is, by symmetry, its control
        for i in range(1, m + 1):
            col[i][0] = sig0[i - 1, m - 1], sig1[i - 1, m - 1]
        for j in range(h_m + 1):
            for i in range(1, m + 1):
                col[i][j + 1] = col[i + 1][j] + cbc[i][j] \
                    + P.polyval(ends, m_d[j].entry(i - 1, m - 1)) \
                    + 2.0 * _nu_leibniz(nu_ends, col[i], j)
        ctrl_bc[m - 1] = {i: col[i] for i in range(1, m)}

    # ---- pass 2: construct entries inner -> outer -------------------------
    entries: dict = {}  # column n + 1 holds U
    layer_trace = []

    for m in range(1, n + 2):
        for i in range(1, m - 1):
            entries[(i, m)] = _DeterminedFn(
                below=entries[(i, m - 1)], right=entries[(i + 1, m - 1)],
                m_key=("m", i - 1, m - 2))
        if m > n:
            break

        # Corner sigma_mm driven by g_m (the next-column head, or U_m at m = n).
        m_mm = m_y.entry(m - 1, m - 1)
        cum_m = _cumulative_weighted(weight, lambda t, c=m_mm: P.polyval(t, c))
        s_mm_0 = sig0[m - 1, m - 1]
        s_mm_1 = sig1[m - 1, m - 1]
        start = f_at_0 * s_mm_0
        gamma_m = 0.5 * (s_mm_1 - start - cum_m(1.0))

        def rho_m(t, m=m, cum_m=cum_m, start=start):
            """Floor with q = col' blk^-1 col, col the column above the corner."""
            q = 0.0
            if m > 1:
                at = _At(packed, t)
                col = np.stack([at.tower(entries[(i, m)], 0)[0] for i in range(1, m)], -1)
                blk = _canonical(entries, at, m - 1)
                q = np.sum(col * np.linalg.solve(blk, col[..., None])[..., 0], -1)
            return 0.5 * (weight(t) * q - start - cum_m(t))

        h_m = h_order + n - m
        bc = ctrl_bc[m][m][: h_m + 1]
        control = scalar_steering_u(ScalarSteeringProblem(
            f=weight, gamma=gamma_m, alpha=tuple(bc[:, 0]), beta=tuple(bc[:, 1]), rho=rho_m))
        groups.update(control._polys(n - m))
        packed = _pack(groups)
        entries[(m, m)] = _CornerFn(start, cum_m, control, ("m", m - 1, m - 1))
        entries[(m, m + 1)] = control
        layer_trace.append({
            "layer": m, "corner_targets": (s_mm_0, s_mm_1), "gamma": gamma_m,
            "bc_orders": h_m, "poly_coeffs": tuple(control.poly),
            "d0": control.d0, "verification": control.verification,
        })
    return entries, packed, tuple(layer_trace)


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
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
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
    entries, packed, layer_trace = _layer_entries(sig0, sig1, m_y, nu_poly.entry(), h_order)

    # ---- exact evaluation maps and sampled grids --------------------------
    def covariance_at(at):
        return symmetrize(t_inv @ _canonical(entries, at, n) @ t_inv.T)

    def gain_at(at):
        # U's outer entries first, as in _canonical; k_y is the canonical gain row.
        u_y = np.stack([at.tower(entries[(i, n + 1)], 0)[0] for i in range(n, 0, -1)][::-1], -1)
        k_y = np.linalg.solve(_canonical(entries, at, n), u_y[..., None])[..., 0]
        return f_gain + v_dir[:, None] * (k_y @ t_mat)[..., None, :]

    def maps_at(at):
        """(covariance, gain, control); the gain first, as it reads U's towers."""
        gains = gain_at(at)
        sigmas = covariance_at(at)
        return sigmas, gains, sigmas @ np.swapaxes(gains, -1, -2)

    times = np.linspace(0.0, 1.0, grid_size)
    sigmas, gains, controls = maps_at(_At(packed, times))
    grid_times = times.tolist()

    err0 = float(np.linalg.norm(sigmas[0] - bd.sigma0))
    err1 = float(np.linalg.norm(sigmas[-1] - bd.sigma1))
    if max(err0, err1) > 1e-6:
        raise IntegrationFailureError(
            f"constructed trajectory misses the endpoints ({err0:.3e}, {err1:.3e})")
    return FeasibleSteering(
        times=times, u_grid=tuple(zip(grid_times, controls)),
        k_grid=tuple(zip(grid_times, gains)), sigma_grid=tuple(zip(grid_times, sigmas)),
        layer_trace=layer_trace, endpoint_errors=(err0, err1),
        gain=lambda t: gain_at(_At(packed, t)),
        control=lambda t: maps_at(_At(packed, t))[2],
        covariance=lambda t: covariance_at(_At(packed, t)))
