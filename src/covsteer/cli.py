"""Batch command-line tool tying the solver modules together.

One JSON document describes a problem instance (system matrices as nested
arrays of ascending-degree coefficient lists, noise components, boundary
covariances, options); each command reads it, runs the corresponding
pipeline and emits JSON/CSV artifacts.  Exit codes are the only pass/fail
channel: 0 success, 1 configuration error, 2 precondition violation,
3 solver nonconvergence, 4 certification mismatch.
"""

import argparse
import importlib.resources
import json
import os
import sys
import tempfile

import numpy as np

from .controllability import classify, construct_feasible_steering
from .errors import (
    ConfigError,
    CovsteerError,
    DimensionError,
    NoConvergenceError,
    PreconditionError,
)
from .matfun import BoundaryData, MatrixPoly, SystemSpec, validate_system
from .sde_sim import (
    NoiseComponent,
    NoiseModel,
    SimulationConfig,
    covariance_standard_error,
    derive_intensities,
    empirical_moments,
    simulate_paths,
)
from .steering import solve_boundary

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_MISMATCH = 4

_DEFAULT_OPTIONS = {
    "grid": 1001,
    "paths": 10000,
    "seed": 0,
    "dt": 1e-3,
    "retain_paths": 10,
    "checkpoints": [0.0, 1.0],
    "newton_tol": 1e-8,
    "cov_match_tol": 0.05,
    "construct_order": 0,
    "validation_grid": 101,
    "classify_grid": 101,
    "classify_probes": 10,
}


def example_config_path() -> str:
    """Filesystem path of the bundled example configuration."""
    return str(importlib.resources.files("covsteer").joinpath("data/example_sec6.json"))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _matrix_poly(node, what):
    try:
        return MatrixPoly.from_entries(node)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad matrix polynomial for {what}: {exc}") from exc


def _parse_noise(node) -> NoiseModel:
    def comp(entry, additive):
        kind = entry.get("kind")
        rate = _matrix_poly([[entry.get("rate", 0.0)]], "noise rate")
        return NoiseComponent(
            kind=kind, rate=rate,
            channel=entry.get("channel") if additive else None,
            jump_std=float(entry.get("jump_std", 0.0)))

    try:
        return NoiseModel(
            additive=tuple(comp(e, True) for e in node.get("additive", [])),
            multiplicative=tuple(comp(e, False) for e in node.get("multiplicative", [])))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad noise model: {exc}") from exc


class RunConfig:
    """Parsed run configuration; keeps the raw document for round-trips."""

    def __init__(self, raw: dict):
        self.raw = raw
        try:
            sysnode = raw["system"]
            n, p, q = int(sysnode["n"]), int(sysnode["p"]), int(sysnode["q"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"missing or malformed system block: {exc}") from exc

        self.noise = _parse_noise(raw["noise"]) if "noise" in raw else None

        d_node = sysnode.get("D")
        nu_node = sysnode.get("nu")
        if (d_node is None or nu_node is None) and self.noise is None:
            raise ConfigError("system needs D and nu, or a noise block to derive them")
        if d_node is None or nu_node is None:
            d_poly, nu_poly = derive_intensities(self.noise, q=q)
            d_mp = d_poly if d_node is None else _matrix_poly(d_node, "D")
            nu_mp = nu_poly if nu_node is None else _matrix_poly(nu_node, "nu")
        else:
            d_mp = _matrix_poly(d_node, "D")
            nu_mp = _matrix_poly(nu_node, "nu")

        channels = []
        for entry in sysnode.get("general_channels", []):
            channels.append((_matrix_poly(entry["E"], "E_i"),
                             _matrix_poly([[entry["nu"]]], "nu_i")))
        try:
            self.system = SystemSpec(
                n=n, p=p, q=q,
                A=_matrix_poly(sysnode["A"], "A"), B=_matrix_poly(sysnode["B"], "B"),
                C=_matrix_poly(sysnode["C"], "C"), D=d_mp, nu=nu_mp,
                Q=_matrix_poly(sysnode["Q"], "Q"), R=_matrix_poly(sysnode["R"], "R"),
                general_channels=tuple(channels))
        except (KeyError, DimensionError, ValueError) as exc:
            raise ConfigError(f"bad system block: {exc}") from exc

        self.boundary = None
        if "boundary" in raw:
            try:
                self.boundary = BoundaryData(
                    sigma0=np.asarray(raw["boundary"]["sigma0"], dtype=float),
                    sigma1=np.asarray(raw["boundary"]["sigma1"], dtype=float))
            except (KeyError, ValueError, DimensionError) as exc:
                raise ConfigError(f"bad boundary block: {exc}") from exc

        self.options = dict(_DEFAULT_OPTIONS)
        self.options.update(raw.get("options", {}))

    def emit(self) -> dict:
        return json.loads(json.dumps(self.raw))


def parse_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path: str, payload: dict):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, (int, np.integer)) else str(int(v))
                              for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _matrix_header(prefix: str, rows: int, cols: int) -> list:
    return [f"{prefix}_{i + 1}_{j + 1}" for i in range(rows) for j in range(cols)]


def _grid_csv(path, grid, prefix):
    first = np.atleast_2d(grid[0][1])
    header = ["t"] + _matrix_header(prefix, first.shape[0], first.shape[1])
    rows = [[t] + list(np.atleast_2d(m).reshape(-1)) for t, m in grid]
    write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_validate(cfg: RunConfig, out: str) -> int:
    report = validate_system(cfg.system, grid_size=int(cfg.options["validation_grid"]))
    payload = {
        "passed": report.passed,
        "checks": [{"name": c.name, "passed": c.passed, "time": c.time,
                    "detail": c.detail} for c in report.checks],
    }
    write_json(os.path.join(out, "validation.json"), payload)
    if not report.passed:
        for c in report.failures():
            print(f"validation failure: {c.detail}")
        return EXIT_PRECONDITION
    print("validation passed")
    return EXIT_OK


def _cmd_classify(cfg: RunConfig, out: str) -> int:
    rep = classify(cfg.system, grid_size=int(cfg.options["classify_grid"]),
                   probes_per_subinterval=int(cfg.options["classify_probes"]))
    payload = {
        "grid_times": list(rep.grid_times),
        "theta_ranks": [list(r) for r in rep.theta_ranks],
        "totally_controllable": rep.totally_controllable,
        "uniformly_controllable": rep.uniformly_controllable,
        "index_invariant": rep.index_invariant,
        "witnesses": list(rep.witnesses),
        "probes_per_subinterval": rep.probes_per_subinterval,
    }
    write_json(os.path.join(out, "controllability.json"), payload)
    print(f"uniform={rep.uniformly_controllable} total={rep.totally_controllable} "
          f"index_invariant={rep.index_invariant}")
    return EXIT_OK


def _require_solvable(cfg: RunConfig):
    if cfg.boundary is None:
        raise ConfigError("this command needs a boundary block")
    report = validate_system(cfg.system, grid_size=int(cfg.options["validation_grid"]))
    if not report.passed:
        raise PreconditionError(
            "; ".join(c.detail for c in report.failures()))
    rep = classify(cfg.system, grid_size=int(cfg.options["classify_grid"]),
                   probes_per_subinterval=int(cfg.options["classify_probes"]))
    if not rep.totally_controllable:
        raise PreconditionError("system is not totally controllable")


def _cmd_solve(cfg: RunConfig, out: str):
    _require_solvable(cfg)
    sol = solve_boundary(cfg.system, cfg.boundary,
                         grid_size=int(cfg.options["grid"]),
                         tol=float(cfg.options["newton_tol"]))
    _grid_csv(os.path.join(out, "gain.csv"), sol.gain_grid, "k")
    _grid_csv(os.path.join(out, "covariance.csv"), sol.sigma_grid, "sigma")
    _grid_csv(os.path.join(out, "pi.csv"), sol.pi_grid, "pi")
    write_json(os.path.join(out, "cost.json"), {
        "optimal_cost": sol.optimal_cost,
        "residual": sol.residual,
        "newton_iterations": len(sol.newton_trace),
        "pi0": [list(row) for row in sol.pi0],
    })
    print(f"solve converged: residual={sol.residual:.3e} cost={sol.optimal_cost:.6f}")
    return sol


def _cmd_construct(cfg: RunConfig, out: str) -> int:
    if cfg.boundary is None:
        raise ConfigError("construct needs a boundary block")
    sysd = cfg.system
    if not (sysd.A.is_constant(0.0) and sysd.B.is_constant(0.0)):
        raise PreconditionError("construct requires a constant (A, B) pair")
    m_poly = sysd.C @ sysd.D @ sysd.C.T
    fs = construct_feasible_steering(
        sysd.A.eval(0.0), sysd.B.eval(0.0), cfg.boundary, m_poly,
        sysd.identity_channel_nu(), h_order=int(cfg.options["construct_order"]),
        grid_size=int(cfg.options["grid"]))
    _grid_csv(os.path.join(out, "construct_u.csv"), fs.u_grid, "u")
    _grid_csv(os.path.join(out, "construct_gain.csv"), fs.k_grid, "k")
    _grid_csv(os.path.join(out, "construct_covariance.csv"), fs.sigma_grid, "sigma")
    write_json(os.path.join(out, "construct_layers.json"), {
        "endpoint_errors": list(fs.endpoint_errors),
        "layers": [{k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in layer.items()} for layer in fs.layer_trace],
    })
    print(f"construct endpoint errors: {fs.endpoint_errors[0]:.3e}, "
          f"{fs.endpoint_errors[1]:.3e}")
    return EXIT_OK


def _simulation_config(cfg: RunConfig) -> SimulationConfig:
    """Monte Carlo settings, checked before any solve runs."""
    if cfg.noise is None:
        raise ConfigError("simulate needs a noise block")
    if cfg.boundary is None:
        raise ConfigError("this command needs a boundary block")
    return SimulationConfig(
        num_paths=int(cfg.options["paths"]),
        sigma0=cfg.boundary.sigma0,
        step_size=float(cfg.options["dt"]),
        master_seed=int(cfg.options["seed"]),
        checkpoint_times=tuple(cfg.options["checkpoints"]),
        retain_paths=int(cfg.options["retain_paths"]))


def _run_simulation(cfg: RunConfig, out: str, sol, sim_cfg: SimulationConfig):
    result = simulate_paths(cfg.system, cfg.noise, sol.gain_grid, sim_cfg)

    n = cfg.system.n
    mom_rows = []
    for t_cp, mean, cov, _ in result.checkpoint_moments:
        cov_flat = list(cov.reshape(-1)) if cov is not None else [np.nan] * (n * n)
        mom_rows.append([t_cp] + list(mean) + cov_flat)
    write_csv(os.path.join(out, "moments.csv"),
              ["t"] + [f"mean_{i + 1}" for i in range(n)] + _matrix_header("cov", n, n),
              mom_rows)

    env_rows = []
    for k, t in enumerate(result.times):
        row = [t]
        for i in range(n):
            half = 3.0 * np.sqrt(result.envelope_var[k, i])
            row.extend([result.envelope_mean[k, i],
                        result.envelope_mean[k, i] - half,
                        result.envelope_mean[k, i] + half])
        env_rows.append(row)
    env_header = ["t"]
    for i in range(n):
        env_header.extend([f"mean_{i + 1}", f"lo3_{i + 1}", f"hi3_{i + 1}"])
    write_csv(os.path.join(out, "envelope.csv"), env_header, env_rows)

    if result.retained:
        p = cfg.system.p
        rows = []
        for k, t in enumerate(result.times):
            for rp in result.retained:
                rows.append([t, rp.path_id] + list(rp.states[k]) + list(rp.controls[k]))
        write_csv(os.path.join(out, "paths.csv"),
                  ["t", "path_id"] + [f"x_{i + 1}" for i in range(n)]
                  + [f"u_{i + 1}" for i in range(p)], rows)

    write_json(os.path.join(out, "simulation.json"), {
        "num_paths": result.num_paths,
        "master_seed": result.master_seed,
        "cost_estimate": list(result.cost_estimate),
        "jump_mean_counts": list(result.jump_mean_counts),
        "martingale_mean": list(result.martingale_mean),
        "draw_s": result.draw_s,
        "step_s": result.step_s,
    })
    return result


def _cmd_certify(cfg: RunConfig, out: str) -> int:
    sim_cfg = _simulation_config(cfg)
    if sim_cfg.num_paths < 2:
        raise ConfigError(
            f"certify needs at least 2 paths for a covariance, got {sim_cfg.num_paths}")
    sol = _cmd_solve(cfg, out)
    result = _run_simulation(cfg, out, sol, sim_cfg)
    _, cov = empirical_moments(result, 1.0)
    cov_se = covariance_standard_error(result, 1.0)
    target = cfg.boundary.sigma1
    rel = float(np.linalg.norm(cov - target) / np.linalg.norm(target))
    tol = float(cfg.options["cov_match_tol"])
    cost_mc = result.cost_estimate[0]
    cost_rel = abs(cost_mc - sol.optimal_cost) / abs(sol.optimal_cost) \
        if sol.optimal_cost != 0.0 else abs(cost_mc)
    verdict = rel <= tol
    write_json(os.path.join(out, "certify.json"), {
        "covariance_relative_error": rel,
        "covariance_standard_error": cov_se.tolist(),
        "tolerance": tol,
        "cost_monte_carlo": cost_mc,
        "cost_solver": sol.optimal_cost,
        "cost_relative_error": cost_rel,
        "verdict": f"PASS (<= {tol:.0%})" if verdict else f"FAIL (> {tol:.0%})",
    })
    print(f"certify: covariance relative error {rel:.4f} "
          f"-> {'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_MISMATCH


def run(command: str, cfg: RunConfig, out: str) -> int:
    """Dispatch one command; returns the process exit code."""
    os.makedirs(out, exist_ok=True)
    if command == "validate":
        return _cmd_validate(cfg, out)
    if command == "classify":
        return _cmd_classify(cfg, out)
    if command == "solve":
        _cmd_solve(cfg, out)
        return EXIT_OK
    if command == "construct":
        return _cmd_construct(cfg, out)
    if command == "simulate":
        sim_cfg = _simulation_config(cfg)
        _run_simulation(cfg, out, _cmd_solve(cfg, out), sim_cfg)
        return EXIT_OK
    if command == "certify":
        return _cmd_certify(cfg, out)
    raise ConfigError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="covsteer",
        description="Finite-horizon optimal covariance steering toolkit")
    parser.add_argument("command", choices=[
        "validate", "classify", "solve", "construct", "simulate", "certify"])
    parser.add_argument("--config", required=True, help="JSON problem description")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--paths", type=int, default=None, help="path count override")
    parser.add_argument("--grid", type=int, default=None, help="grid size override")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.options["seed"] = args.seed
        if args.paths is not None:
            cfg.options["paths"] = args.paths
        if args.grid is not None:
            cfg.options["grid"] = args.grid
        return run(args.command, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except NoConvergenceError as exc:
        print(f"solver did not converge: {exc}")
        return EXIT_NO_CONVERGENCE
    except (PreconditionError, DimensionError) as exc:
        print(f"precondition violation: {exc}")
        return EXIT_PRECONDITION
    except CovsteerError as exc:
        print(f"error: {exc}")
        return EXIT_PRECONDITION
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"numerical error: {exc}")
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
