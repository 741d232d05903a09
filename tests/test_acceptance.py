"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s` (or read the
captured output) for the roll-up.  Random instances are drawn from fixed
seeds so the suite is deterministic.
"""

import time

import numpy as np
from scipy.integrate import solve_ivp

from covsteer.controllability import (
    ScalarSteeringProblem,
    canonical_chain_pair,
    classify,
    construct_feasible_steering,
    scalar_steering_u,
)
from covsteer.matfun import BoundaryData, symmetrize, unvec, vec
from covsteer.riccati import maximal_interval, solve_closed_form
from covsteer.sde_sim import SimulationConfig, empirical_moments, simulate_paths
from covsteer.steering import (
    jacobian_f,
    map_f,
    solve_boundary,
    special_case_pi0,
)
from covsteer.transition import (
    TransitionPath,
    gramian_identity,
    symplectic_residuals,
    transition_blocks,
)

from helpers import (
    const,
    integrate_riccati_oracle,
    make_system,
    random_admissible_pi0,
    random_controllable_system,
    random_spd,
    s1,
    example_noise,
    example_system,
)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_symplectic_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(1, 4))
        sys = random_controllable_system(rng, n)
        t, s = sorted(rng.uniform(0.0, 1.0, size=2))
        if t - s < 0.1:
            t = min(1.0, s + 0.3)
        blocks = transition_blocks(sys, t, s)
        res = symplectic_residuals(sys, blocks)
        worst = max(worst, max(res.values()))
    elapsed = time.perf_counter() - start
    _report("1 symplectic identities (20 systems)",
            worst <= 1e-8 and elapsed < 30.0,
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_monotonicity_suite():
    rng = np.random.default_rng(1002)
    worst = np.inf
    checked = 0
    while checked < 50:
        sys = random_controllable_system(rng, int(rng.integers(1, 4)))
        s = float(rng.uniform(0.0, 0.5))
        path = TransitionPath(sys, anchor=s, span=(s, 1.0))
        for _ in range(5):
            t1, t2 = np.sort(rng.uniform(s + 0.05, 1.0, size=2))
            if t2 - t1 < 0.02:
                continue
            b1, b2 = path.raw_blocks(t1), path.raw_blocks(t2)
            x1 = -np.linalg.solve(b1[0], b1[1])
            x2 = -np.linalg.solve(b2[0], b2[1])
            lam = float(np.min(np.linalg.eigvalsh(symmetrize(x2 - x1))))
            worst = min(worst, lam)
            checked += 1
            if checked >= 50:
                break
    _report("2 block-ratio monotonicity (50 triples)", worst > -1e-10,
            f"min eigenvalue {worst:.2e}")


def test_criterion_03_riccati_closed_form_vs_integration():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        sys = random_controllable_system(rng, n)
        pi0 = random_admissible_pi0(rng, sys)
        got = solve_closed_form(sys, 0.0, pi0, 1.0)
        want = integrate_riccati_oracle(sys, 0.0, pi0, 1.0)
        worst = max(worst, float(np.max(np.abs(got - want))))
    _report("3 Riccati closed form vs direct integration", worst <= 1e-7,
            f"max disagreement {worst:.2e}")


def test_criterion_04_maximal_interval():
    mi = maximal_interval(s1(), 0.0, [[2.0]], (-1.0, 2.0))
    err = abs(mi.t1 - 0.5)
    _report("4 maximal interval of existence", err <= 1e-6,
            f"t1 = {mi.t1:.8f}, |t1 - 0.5| = {err:.2e}")


def test_criterion_05_jacobian_checks():
    ws = jacobian_f(s1(), [[1.0]], [[0.0]])
    scalar_err = abs(ws.jac[0, 0] + 3.0)

    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10):
        sys = random_controllable_system(rng, 2)
        sigma0 = random_spd(rng, 2)
        pi0 = random_admissible_pi0(rng, sys)
        ws = jacobian_f(sys, sigma0, pi0)
        delta = symmetrize(rng.standard_normal((2, 2)))
        delta *= 1e-5 / np.linalg.norm(delta)
        fd = (map_f(sys, sigma0, pi0 + delta)
              - map_f(sys, sigma0, pi0 - delta)) / 2.0
        lin = unvec(ws.jac @ vec(delta))
        worst = max(worst, float(np.linalg.norm(lin - fd) / np.linalg.norm(fd)))
    _report("5 Jacobian vs finite differences",
            worst <= 1e-5 and scalar_err <= 1e-9,
            f"max rel err {worst:.2e}, scalar defect {scalar_err:.2e}")


def test_criterion_06_special_case_closed_form():
    s_err0 = abs(special_case_pi0(
        s1(), BoundaryData(sigma0=[[1.0]], sigma1=[[2.0]]))[0, 0])
    s_err1 = abs(special_case_pi0(
        s1(), BoundaryData(sigma0=[[1.0]], sigma1=[[0.5]]))[0, 0] - 0.6339746)

    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        sys = random_controllable_system(rng, n, channel_match=True)
        bd = BoundaryData(sigma0=random_spd(rng, n), sigma1=random_spd(rng, n))
        pi0 = special_case_pi0(sys, bd)
        worst = max(worst, float(np.linalg.norm(
            map_f(sys, bd.sigma0, pi0) - bd.sigma1)))
    _report("6 coincident-channel closed form",
            worst <= 1e-7 and s_err0 <= 1e-7 and s_err1 <= 1e-7,
            f"max |f(pi0)-Sigma1| {worst:.2e}, scalar defects "
            f"{s_err0:.2e}/{s_err1:.2e}")


def test_criterion_07_boundary_round_trip():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(10):
        sys = random_controllable_system(rng, 2)
        sigma0 = random_spd(rng, 2)
        pi0 = random_admissible_pi0(rng, sys)
        target = map_f(sys, sigma0, pi0)
        sol = solve_boundary(sys, BoundaryData(sigma0=sigma0, sigma1=target))
        worst = max(worst, float(np.max(np.abs(sol.pi0 - pi0))))
    _report("7 boundary solve round trip", worst <= 1e-6,
            f"max anchor recovery error {worst:.2e}")


def test_criterion_08_worked_example_end_to_end():
    start = time.perf_counter()
    sys = example_system()
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.3, 0.2]))
    sol = solve_boundary(sys, bd)
    sigma_end = sol.sigma_grid[-1][1]
    end_err = float(np.max(np.abs(sigma_end - np.diag([0.3, 0.2]))))
    idx = np.linspace(0, len(sol.sigma_grid) - 1, 101).astype(int)
    min_eig = min(np.min(np.linalg.eigvalsh(sol.sigma_grid[i][1])) for i in idx)
    elapsed = time.perf_counter() - start
    ok = sol.residual <= 1e-8 and end_err <= 1e-6 and min_eig > 0.0 and elapsed < 60.0
    _report("8 worked-example end-to-end", ok,
            f"residual {sol.residual:.2e}, terminal defect {end_err:.2e}, "
            f"min eig {min_eig:.3f}, {elapsed:.1f}s")


def test_criterion_09_monte_carlo_certification():
    start = time.perf_counter()
    n_paths = 100000
    sys = example_system()
    bd = BoundaryData(sigma0=np.eye(2), sigma1=np.diag([0.3, 0.2]))
    sol = solve_boundary(sys, bd)
    cfg = SimulationConfig(num_paths=n_paths, sigma0=bd.sigma0,
                           step_size=1e-3, master_seed=20260808)
    res = simulate_paths(sys, example_noise(), sol.gain_grid, cfg)
    mean, cov = empirical_moments(res, 1.0)

    cov_rel = float(np.linalg.norm(cov - bd.sigma1) / np.linalg.norm(bd.sigma1))
    sigma_max = float(np.sqrt(np.max(np.diag(bd.sigma1))))
    mean_ok = float(np.linalg.norm(mean)) <= 3.0 * sigma_max / np.sqrt(n_paths)
    jump_rel = abs(res.jump_mean_counts[0] - 3.5) / 3.5
    cost_rel = abs(res.cost_estimate[0] - sol.optimal_cost) / abs(sol.optimal_cost)
    elapsed = time.perf_counter() - start
    ok = (cov_rel <= 0.05 and mean_ok and jump_rel <= 0.02
          and cost_rel <= 0.05 and elapsed < 300.0)
    _report("9 Monte Carlo certification (1e5 paths)", ok,
            f"cov {cov_rel:.3f}, |mean| {np.linalg.norm(mean):.2e}, "
            f"jumps {jump_rel:.4f}, cost {cost_rel:.3f}, {elapsed:.0f}s")


def test_criterion_10_gramian_identity():
    s1_check = gramian_identity(s1(), (0.0, [[0.0]]), 1.0)
    hand_err = max(abs(s1_check.mbar[0, 0] - 1.0), abs(s1_check.rhs[0, 0] - 1.0))

    rng = np.random.default_rng(1010)
    worst = s1_check.residual
    for _ in range(10):
        n = int(rng.integers(1, 4))
        sys = random_controllable_system(rng, n)
        pi0 = random_admissible_pi0(rng, sys)
        t = float(rng.uniform(0.5, 1.0))
        check = gramian_identity(sys, (0.0, pi0), t)
        worst = max(worst, check.residual)
    _report("10 closed-loop Gramian identity", worst <= 1e-7 and hand_err <= 1e-8,
            f"max residual {worst:.2e}, hand value defect {hand_err:.2e}")


def test_criterion_11_constructive_controllability():
    # Scalar construction reproduces u(t) = 6 t (1 - t).
    u = scalar_steering_u(ScalarSteeringProblem(
        f=lambda t: 1.0, gamma=1.0, alpha=(0.0,), beta=(0.0,),
        rho=lambda t: -1.0))
    parabola_err = float(np.max(np.abs(u.poly - np.array([0.0, 6.0, -6.0]))))

    results = [("scalar parabola", parabola_err <= 1e-9)]
    for n, sigma1 in ((1, [[2.5]]), (2, np.diag([2.0, 1.0]))):
        a, b = canonical_chain_pair(n)
        bd = BoundaryData(sigma0=np.eye(n), sigma1=sigma1)
        fs = construct_feasible_steering(a, b, bd, const(np.eye(n)), const([[0.0]]))
        min_eig = np.min(np.linalg.eigvalsh(fs.covariance(np.linspace(0.0, 1.0, 1001))))

        def rhs(t, y, a=a, b=b, fs=fs, n=n):
            s = y.reshape(n, n)
            acl = a + b @ fs.gain(t)
            return (acl @ s + s @ acl.T + np.eye(n)).reshape(-1)

        sol = solve_ivp(rhs, (0.0, 1.0), np.eye(n).reshape(-1),
                        method="RK45", rtol=1e-10, atol=1e-12)
        re_err = float(np.max(np.abs(sol.y[:, -1].reshape(n, n)
                                     - np.asarray(sigma1, dtype=float))))
        ok = (max(fs.endpoint_errors) <= 1e-6 and min_eig > 0.0
              and re_err <= 1e-6)
        results.append((f"n={n} construction (re-integration err {re_err:.2e})", ok))
    _report("11 constructive covariance controllability",
            all(ok for _, ok in results),
            "; ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in results))


def test_criterion_12_controllability_classification():
    rep = classify(example_system())
    zero = make_system(2, 1, 1, np.zeros((2, 2)), np.zeros((2, 1)),
                       [[1.0], [0.0]], [[1.0]], [[0.0]], np.zeros((2, 2)), [[1.0]])
    rep0 = classify(zero)
    ok = (rep.uniformly_controllable and rep.totally_controllable
          and rep.index_invariant and not rep0.totally_controllable
          and not rep0.uniformly_controllable)
    _report("12 controllability classification", ok,
            f"worked pair uniform/total/invariant = "
            f"{rep.uniformly_controllable}/{rep.totally_controllable}/"
            f"{rep.index_invariant}; zero-input total = {rep0.totally_controllable}")
