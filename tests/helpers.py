"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's solution paths: constant
systems use the matrix exponential, transition-block and Riccati
references integrate their differential equations directly by RK45, and
one fixed-step RK4 integrator is hand-rolled for the general-channel
comparison.
"""

import numpy as np
from scipy.linalg import expm
from scipy.integrate import solve_ivp

from covsteer.matfun import MatrixPoly, SystemSpec


def const(mat):
    return MatrixPoly.constant(np.atleast_2d(np.asarray(mat, dtype=float)))


def make_system(n, p, q, a, b, c, d, nu, q_mat, r, channels=()):
    def mp(x):
        return x if isinstance(x, MatrixPoly) else const(x)

    return SystemSpec(n=n, p=p, q=q, A=mp(a), B=mp(b), C=mp(c), D=mp(d),
                      nu=mp(nu), Q=mp(q_mat), R=mp(r),
                      general_channels=tuple(channels))


def s1():
    """Scalar integrator: A=0, B=1, R=1, Q=0, nu=0, C D C' = 1."""
    return make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                       [[0.0]], [[0.0]], [[1.0]])


def uncontrollable_pair():
    """A = 0, B = C = e1 of R^2, D = R = 1, Q = 0: phi12(t, 0) = diag(-t, 0) is
    singular at every t, and C D C' = B R^-1 B'."""
    e1 = [[1.0], [0.0]]
    return make_system(2, 1, 1, np.zeros((2, 2)), e1, e1, [[1.0]],
                       [[0.0]], np.zeros((2, 2)), [[1.0]])


def s1_with_q():
    """Scalar A=0, B=1, R=1 with unit state cost."""
    return make_system(1, 1, 1, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
                       [[0.0]], [[1.0]], [[1.0]])


def example_system():
    """The worked 2x2 example: jump-diffusion with state-dependent noise."""
    return SystemSpec(
        n=2, p=1, q=1,
        A=const([[-2.0, 1.0], [0.0, 0.0]]),
        B=const([[0.0], [1.0]]),
        C=const([[1.0], [0.0]]),
        D=MatrixPoly.from_entries([[[0.75, 0.25]]]),  # 0.25 * (3 + t)
        nu=const([[0.5]]),
        Q=const([[1.0, 0.0], [0.0, 0.0]]),
        R=const([[1.0]]))


def example_noise():
    from covsteer.sde_sim import NoiseComponent, NoiseModel

    return NoiseModel(
        additive=(NoiseComponent("compound_poisson",
                                 MatrixPoly.from_entries([[[3.0, 1.0]]]),
                                 channel=0, jump_std=0.5),),
        multiplicative=(NoiseComponent("wiener", const([[1.0]])),))


def chain_system(n=3):
    """Integrator chain (the canonical chain pair), C D C' = I, Q = 0, nu = 0.

    phi12(0, t) behaves like t^(2n - 1) in its weakest direction, so its
    condition number passes 1e12 near t = 0 (and phi12(1, t) near t = 1):
    cond phi12(0, 0.001) is about 7e14 at n = 3.
    """
    from covsteer.controllability import canonical_chain_pair

    a, b = canonical_chain_pair(n)
    return make_system(n, 1, n, a, b, np.eye(n), np.eye(n), [[0.0]],
                       np.zeros((n, n)), [[1.0]])


def n3_q2_system():
    """Time-varying n = 3, p = 2, q = 2 system matching n3_q2_noise()."""
    mp = MatrixPoly.from_entries
    return SystemSpec(
        n=3, p=2, q=2,
        A=mp([[[-1.0, 0.5], 0.3, 0.0], [[0.0, 0.2], -0.5, 0.4], [0.0, [-0.3, 0.2], -0.8]]),
        B=mp([[1.0, 0.0], [[0.0, 0.5], 1.0], [0.0, [0.3, 0.2]]]),
        C=mp([[1.0, [0.0, 0.2]], [0.0, 1.0], [0.3, [0.5, -0.2]]]),
        D=mp([[[0.5, 0.2], 0.0], [0.0, [0.3 + 2.0 * 0.16, 0.16]]]),
        nu=mp([[[0.1, 0.05]]]),
        Q=mp([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, [0.2, 0.1]]]),
        R=const([[1.0, 0.2], [0.2, 2.0]]))


def n3_q2_noise():
    """Wiener noise on both channels, jumps on channel 1, multiplicative Wiener."""
    from covsteer.sde_sim import NoiseComponent, NoiseModel

    mp = MatrixPoly.from_entries
    return NoiseModel(
        additive=(NoiseComponent("wiener", mp([[[0.5, 0.2]]]), channel=0),
                  NoiseComponent("wiener", const([[0.3]]), channel=1),
                  NoiseComponent("compound_poisson", mp([[[2.0, 1.0]]]),
                                 channel=1, jump_std=0.4)),
        multiplicative=(NoiseComponent("wiener", mp([[[0.2, 0.1]]])),))


def n3_q2_gain():
    """A nonzero 2 x 3 gain grid for n3_q2_system(), linear between its points."""
    return [(0.0, np.array([[-0.5, 0.2, 0.0], [0.1, -0.4, 0.3]])),
            (0.5, np.array([[-0.2, 0.4, -0.1], [0.0, -0.8, 0.5]])),
            (1.0, np.array([[-0.6, 0.0, 0.2], [0.3, -0.2, 0.1]]))]


def random_poly_matrix(rng, rows, cols, degree, scale=1.0):
    entries = [[list(scale * rng.uniform(-1.0, 1.0, size=degree + 1))
                for _ in range(cols)] for _ in range(rows)]
    return MatrixPoly.from_entries(entries)


def random_spd(rng, n, shift=0.3):
    m = rng.standard_normal((n, n))
    return m @ m.T + shift * np.eye(n)


def random_controllable_system(rng, n, p=None, degree=2, channel_match=False):
    """A random totally controllable instance with polynomial coefficients.

    With channel_match=True the noise channel coincides with the control
    channel exactly (C = B, D = I, R = I), as the closed-form case needs.
    """
    from covsteer.controllability import classify

    p = p or rng.integers(1, n + 1)
    for _ in range(200):
        a = random_poly_matrix(rng, n, n, degree, scale=0.6)
        b = random_poly_matrix(rng, n, p, min(degree, 1), scale=0.8)
        # State cost as an exact polynomial Gram product, PSD at every t.
        l_fac = random_poly_matrix(rng, n, n, 1, scale=0.5)
        q_mat = l_fac @ l_fac.T
        if channel_match:
            r = const(np.eye(p))
            c = b
            d = const(np.eye(p))
            q_ch = p
        else:
            q_ch = int(rng.integers(1, n + 1))
            r_diag = np.zeros((p, p, 3))
            alpha, beta = rng.uniform(0.2, 0.8, size=2)
            r_scalar = [0.4 + beta ** 2, 2 * alpha * beta, alpha ** 2]
            r = MatrixPoly.from_entries(
                [[r_scalar if i == j else [0.0] for j in range(p)] for i in range(p)])
            c = random_poly_matrix(rng, n, q_ch, 1, scale=0.8)
            gd = rng.uniform(0.2, 0.9, size=q_ch)
            d = MatrixPoly.from_entries(
                [[[gd[i] ** 2] if i == j else [0.0] for j in range(q_ch)]
                 for i in range(q_ch)])
        g1, g2 = rng.uniform(0.0, 0.5, size=2)
        nu = MatrixPoly.from_entries([[[g1 ** 2, 2 * g1 * g2, g2 ** 2]]])
        sys = make_system(n, p, q_ch, a, b, c, d, nu, q_mat, r)
        if classify(sys, grid_size=21, probes_per_subinterval=3).totally_controllable:
            return sys
    raise RuntimeError("failed to draw a totally controllable system")


def hamiltonian_const(sys, t=0.0):
    """M(t) for a constant system, built directly from the definition."""
    a = sys.A.eval(t) + float(sys.nu.eval(t)[0, 0]) * np.eye(sys.n)
    b = sys.B.eval(t)
    r = sys.R.eval(t)
    q = sys.Q.eval(t)
    brb = b @ np.linalg.solve(r, b.T)
    return np.block([[a, -brb], [-q, -a.T]])


def expm_blocks(sys, t, s):
    """Transition blocks of a constant system via the matrix exponential."""
    n = sys.n
    phi = expm(hamiltonian_const(sys) * (t - s))
    return phi[:n, :n], phi[:n, n:], phi[n:, :n], phi[n:, n:]


def rk45_blocks(sys, t, s):
    """Blocks of Phi_M(t, s) by direct RK45 integration from s to t, the
    reference for the library's spectral TransitionPath."""
    from covsteer.transition import TransitionBlocks, hamiltonian

    dim, m_of_t = 2 * sys.n, hamiltonian(sys)
    phi = np.eye(dim)
    if t != s:
        sol = solve_ivp(lambda tau, y: (m_of_t(tau) @ y.reshape(dim, dim)).reshape(-1), (s, t),
                        phi.reshape(-1), method="RK45", rtol=1e-10, atol=1e-13)
        assert sol.success, sol.message
        phi = sol.y[:, -1].reshape(dim, dim)
    n = sys.n
    return TransitionBlocks(phi[:n, :n], phi[:n, n:], phi[n:, :n], phi[n:, n:], t=t, s=s)


def riccati_rhs(sys):
    """Direct right-hand side of the simplified Riccati equation."""
    n = sys.n

    def rhs(t, y):
        pi = y.reshape(n, n)
        pi = 0.5 * (pi + pi.T)
        a = sys.A.eval(t)
        b = sys.B.eval(t)
        brb = b @ np.linalg.solve(sys.R.eval(t), b.T)
        nu = float(sys.nu.eval(t)[0, 0])
        dpi = -a.T @ pi - pi @ a + pi @ brb @ pi - sys.Q.eval(t) - 2.0 * nu * pi
        return (0.5 * (dpi + dpi.T)).reshape(-1)

    return rhs


def integrate_riccati_oracle(sys, s, pi_s, t, rtol=1e-11, atol=1e-13):
    """Independent ODE integration of the simplified Riccati equation."""
    pi_s = np.atleast_2d(np.asarray(pi_s, dtype=float))
    sol = solve_ivp(riccati_rhs(sys), (s, t), pi_s.reshape(-1),
                    method="RK45", rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[:, -1].reshape(sys.n, sys.n)


def lyapunov_oracle(sys, pi0, sigma0, times):
    """Closed-loop covariance on a time grid by RK45 on the Lyapunov ODE.

    dSigma = Acl Sigma + Sigma Acl' + C D C' + 2 nu Sigma with Acl = A -
    B R^-1 B' Pi(t), integrated directly instead of through the explicit
    transition-matrix formula the library evaluates.
    """
    from covsteer.riccati import closed_form_on_path
    from covsteer.transition import TransitionPath

    n = sys.n
    pi0 = np.atleast_2d(np.asarray(pi0, dtype=float))
    path = TransitionPath(sys, anchor=0.0, span=(0.0, 1.0))
    nu_total = sys.identity_channel_nu()

    def rhs(t, y):
        sig = y.reshape(n, n)
        sig = 0.5 * (sig + sig.T)
        b = sys.B.eval(t)
        c = sys.C.eval(t)
        acl = sys.A.eval(t) - b @ np.linalg.solve(sys.R.eval(t), b.T) \
            @ closed_form_on_path(path, pi0, t)
        dsig = acl @ sig + sig @ acl.T + c @ sys.D.eval(t) @ c.T \
            + 2.0 * float(nu_total.eval(t)[0, 0]) * sig
        return (0.5 * (dsig + dsig.T)).reshape(-1)

    sol = solve_ivp(rhs, (times[0], times[-1]), np.asarray(sigma0, dtype=float).reshape(-1),
                    method="RK45", rtol=1e-10, atol=1e-13, t_eval=times)
    assert sol.success
    return sol.y.T.reshape(-1, n, n)


def rk4_fixed(rhs, t0, y0, t1, steps):
    """Plain fixed-step RK4, independent of any library integrator."""
    h = (t1 - t0) / steps
    t, y = t0, np.asarray(y0, dtype=float)
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def random_admissible_pi0(rng, sys, margin=0.3):
    """A moderate random symmetric Pi0 strictly below the admissibility bound."""
    from covsteer.transition import transition_blocks
    from covsteer.matfun import symmetrize

    b = transition_blocks(sys, 1.0, 0.0)
    upper = symmetrize(-np.linalg.solve(b.phi12, b.phi11))
    raw = rng.standard_normal((sys.n, sys.n))
    pi0 = symmetrize(raw + raw.T)
    overshoot = float(np.max(np.linalg.eigvalsh(pi0 - upper)))
    if overshoot > -margin:
        pi0 -= (overshoot + margin) * np.eye(sys.n)
    return pi0
