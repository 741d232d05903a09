import json
import os
import subprocess
import sys

import numpy as np
import pytest

from covsteer import cli
from covsteer.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PRECONDITION,
    RunConfig,
    example_config_path,
    main,
    parse_config,
)
from covsteer.controllability import construct_feasible_steering
from covsteer.errors import ConfigError, IntegrationFailureError
from covsteer.sde_sim import SimulationConfig, simulate_paths
from covsteer.steering import solve_boundary


@pytest.fixture()
def example_raw():
    with open(example_config_path(), encoding="utf-8") as fh:
        return json.load(fh)


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")] for line in fh]
    return header, rows


def test_config_round_trip(example_raw):
    cfg = RunConfig(example_raw)
    assert cfg.system.n == 2
    assert cfg.boundary is not None


def test_unknown_option_is_config_error(tmp_path, example_raw, capsys):
    # A misspelt key would otherwise leave its option at the default.
    example_raw["options"]["path"] = 5
    with pytest.raises(ConfigError, match="unknown option"):
        RunConfig(example_raw)
    rc = main(["solve", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "config error: unknown option(s): path" in capsys.readouterr().out


def test_mismatched_boundary_shapes_are_config_error(tmp_path, example_raw, capsys):
    example_raw["boundary"]["sigma1"] = np.eye(3).tolist()
    rc = main(["solve", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "bad boundary block: sigma0 is (2, 2) but sigma1 is (3, 3)" in capsys.readouterr().out


def test_missing_config_is_config_error(tmp_path):
    rc = main(["validate", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG


def test_validate_passes_on_example(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["validate", "--config", example_config_path(), "--out", out])
    assert rc == EXIT_OK
    with open(os.path.join(out, "validation.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["passed"]


def test_validate_failure_exits_2(tmp_path, example_raw):
    example_raw["system"]["R"] = [[[0.0]]]
    rc = main(["validate", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_PRECONDITION


def test_explicit_intensities_are_the_ones_validated(tmp_path, example_raw, capsys):
    # D and nu given in the system block, with no noise block to derive them.
    del example_raw["noise"]
    example_raw["system"].update({"D": [[[1.0]]], "nu": [[[-0.5]]]})
    rc = main(["validate", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_PRECONDITION
    assert "validation failure: nu negative" in capsys.readouterr().out


def test_general_channel_solve_is_precondition_violation(tmp_path, example_raw, capsys):
    example_raw["system"]["general_channels"] = [
        {"E": [[[2.0], [0.0]], [[0.0], [2.0]]], "nu": [0.25]}]
    rc = main(["solve", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_PRECONDITION
    assert "only identity multiplicative channels" in capsys.readouterr().out


def test_other_package_errors_exit_2(tmp_path, monkeypatch, capsys):
    def saturated(*args, **kwargs):
        raise IntegrationFailureError("cost quadrature saturated")

    monkeypatch.setattr(cli, "solve_boundary", saturated)
    rc = main(["solve", "--config", example_config_path(), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PRECONDITION
    assert capsys.readouterr().out == "error: cost quadrature saturated\n"


def test_solve_zero_input_exits_2(tmp_path, example_raw):
    example_raw["system"]["B"] = [[[0.0]], [[0.0]]]
    rc = main(["solve", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_PRECONDITION


def test_solve_non_convergence_exits_3(tmp_path, example_raw, capsys):
    example_raw["options"]["newton_tol"] = 1e-30
    rc = main(["solve", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_NO_CONVERGENCE
    assert "solver did not converge" in capsys.readouterr().out


def test_overflowing_transition_path_is_named(tmp_path, example_raw, capsys):
    # Phi grows like exp(1000 t), so its square overflows near t = 0.35.  The
    # path names that panel, without numpy's overflow warning from the norm
    # of Phi and before its values overflow too, near t = 0.71.
    example_raw["system"]["A"] = [[[1000.0], [1.0]], [[0.0], [1000.0]]]
    out = tmp_path / "o"
    rc = main(["solve", "--config", write_cfg(tmp_path, example_raw), "--out", str(out)])
    assert rc == EXIT_PRECONDITION
    assert ("error: transition matrix overflows on the panel [0.350598, 0.354582]"
            in capsys.readouterr().out)
    assert list(out.iterdir()) == []


def test_linalg_error_is_numerical_error_exit_2(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "solve_boundary", singular)
    rc = main(["solve", "--config", example_config_path(), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PRECONDITION
    assert "numerical error: Singular matrix" in capsys.readouterr().out


@pytest.mark.parametrize("args,options,message", [
    pytest.param(["--grid", "1"], {}, "grid_size must be at least 2, got 1", id="1"),
    pytest.param(["--grid", "0"], {}, "grid_size must be at least 2, got 0", id="0"),
    pytest.param([], {"validation_grid": 1}, "grid_size must be at least 2, got 1",
                 id="validation_grid-1"),
    pytest.param([], {"validation_grid": 0}, "grid_size must be at least 2, got 0",
                 id="validation_grid-0"),
    pytest.param([], {"classify_grid": 1}, "grid_size must be at least 2, got 1",
                 id="classify_grid-1"),
    pytest.param([], {"classify_grid": 0}, "grid_size must be at least 2, got 0",
                 id="classify_grid-0"),
    pytest.param([], {"classify_probes": 0}, "probes_per_subinterval must be at least 1, got 0",
                 id="classify_probes-0"),
])
def test_solve_grid_below_two_is_config_error(tmp_path, capsys, example_raw, args, options,
                                              message):
    example_raw["options"].update(options)
    out = tmp_path / "o"
    rc = main(["solve", "--config", write_cfg(tmp_path, example_raw), "--out", str(out), *args])
    assert rc == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().out
    assert not out.exists() or not os.listdir(out)


def test_classify_report(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["classify", "--config", example_config_path(), "--out", out])
    assert rc == EXIT_OK
    with open(os.path.join(out, "controllability.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert rep["uniformly_controllable"] and rep["totally_controllable"]
    assert rep["index_invariant"]


def test_solve_outputs_and_round_trip_precision(tmp_path):
    out = str(tmp_path / "o")
    rc = main(["solve", "--config", example_config_path(), "--out", out,
               "--grid", "101"])
    assert rc == EXIT_OK

    header, rows = read_csv(os.path.join(out, "covariance.csv"))
    assert header == ["t", "sigma_1_1", "sigma_1_2", "sigma_2_1", "sigma_2_2"]
    final = rows[-1]
    assert abs(final[1] - 0.3) <= 1e-6
    assert abs(final[4] - 0.2) <= 1e-6

    # Emitted floats parse back bit-exact against a fresh in-memory solve.
    from covsteer.steering import solve_boundary

    cfg = parse_config(example_config_path())
    sol = solve_boundary(cfg.system, cfg.boundary, grid_size=101)
    for row, (t, sigma) in zip(rows, sol.sigma_grid):
        assert row[0] == t
        assert row[1:] == list(sigma.reshape(-1))

    with open(os.path.join(out, "cost.json"), encoding="utf-8") as fh:
        cost = json.load(fh)
    assert cost["residual"] <= 1e-8
    assert (cost["sigma_error"], cost["cost_error"], cost["accepted_panels"]) \
        == (sol.sigma_error, sol.cost_error, sol.accepted_panels)


def test_simulate_outputs_sorted_paths(tmp_path, example_raw):
    example_raw["options"].update({"paths": 300, "grid": 101, "retain_paths": 4})
    out = str(tmp_path / "o")
    config = write_cfg(tmp_path, example_raw)
    rc = main(["simulate", "--config", config, "--out", out, "--seed", "5"])
    assert rc == EXIT_OK
    for name in ("cost.json", "moments.csv", "envelope.csv", "paths.csv", "simulation.json"):
        assert os.path.exists(os.path.join(out, name))
    header, rows = read_csv(os.path.join(out, "paths.csv"))
    assert header[:2] == ["t", "path_id"]
    keys = [(r[0], r[1]) for r in rows]
    assert keys == sorted(keys)
    assert {int(r[1]) for r in rows} == {0, 1, 2, 3}
    with open(os.path.join(out, "simulation.json"), encoding="utf-8") as fh:
        sim = json.load(fh)
    assert sim["draw_s"] > 0.0 and sim["step_s"] > 0.0

    # The envelope reads back bit for bit as mean and mean -/+ 3 sqrt(var)
    # of the same run made directly.
    cfg = parse_config(config)
    opts = cfg.options
    sol = solve_boundary(cfg.system, cfg.boundary, grid_size=opts["grid"],
                         tol=opts["newton_tol"])
    res = simulate_paths(cfg.system, cfg.noise, sol.gain_grid, SimulationConfig(
        num_paths=opts["paths"], sigma0=cfg.boundary.sigma0, step_size=opts["dt"],
        master_seed=5, retain_paths=opts["retain_paths"]))
    header, rows = read_csv(os.path.join(out, "envelope.csv"))
    assert header == ["t", "mean_1", "lo3_1", "hi3_1", "mean_2", "lo3_2", "hi3_2"]
    rows = np.array(rows)
    mean, half = res.envelope_mean, 3.0 * np.sqrt(res.envelope_var)
    assert np.array_equal(rows[:, 0], res.times)
    assert np.array_equal(rows[:, 1::3], mean)
    assert np.array_equal(rows[:, 2::3], mean - half)
    assert np.array_equal(rows[:, 3::3], mean + half)


def test_simulate_single_path_writes_nan_covariance(tmp_path, example_raw):
    example_raw["options"].update({"paths": 1, "grid": 101})
    out = str(tmp_path / "o")
    rc = main(["simulate", "--config", write_cfg(tmp_path, example_raw), "--out", out])
    assert rc == EXIT_OK
    with open(os.path.join(out, "moments.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert header == ["t", "mean_1", "mean_2", "cov_1_1", "cov_1_2", "cov_2_1", "cov_2_2"]
    assert [row[0] for row in rows] == ["0", "1"]
    for row in rows:
        assert row[3:] == ["nan"] * 4
        assert all(np.isfinite(float(v)) for v in row[1:3])

    # With no checkpoints the table is its header alone.
    example_raw["options"]["checkpoints"] = []
    rc = main(["simulate", "--config", write_cfg(tmp_path, example_raw), "--out", out])
    assert rc == EXIT_OK
    with open(os.path.join(out, "moments.csv"), encoding="utf-8") as fh:
        assert fh.read() == ",".join(header) + "\n"


def test_certify_pass_and_mismatch(tmp_path, example_raw):
    example_raw["options"].update({"paths": 8000, "grid": 201,
                                "cov_match_tol": 0.25})
    out = str(tmp_path / "o")
    rc = main(["certify", "--config", write_cfg(tmp_path, example_raw),
               "--out", out, "--seed", "2"])
    assert rc == EXIT_OK
    with open(os.path.join(out, "certify.json"), encoding="utf-8") as fh:
        verdict = json.load(fh)
    assert verdict["covariance_relative_error"] <= 0.25
    se = np.array(verdict["covariance_standard_error"])
    assert se.shape == (2, 2) and np.all(se > 0.0) and np.array_equal(se, se.T)

    example_raw["options"]["cov_match_tol"] = 1e-6
    rc = main(["certify", "--config", write_cfg(tmp_path, example_raw),
               "--out", str(tmp_path / "o2"), "--seed", "2"])
    assert rc == EXIT_MISMATCH


@pytest.mark.parametrize("args,options", [
    (["--seed", "-1"], {}),
    (["--seed", str(2 ** 64)], {}),
    # Read from the config, these were truncated to 1 and 10 paths, and a
    # negative count of kept paths was accepted.
    ([], {"seed": 1.5}),
    ([], {"paths": 10.5}),
    ([], {"retain_paths": -3}),
    ([], {"seed": True}),
], ids=["-1", str(2 ** 64), "seed-1.5", "paths-10.5", "retain_paths--3", "seed-true"])
def test_certify_rejects_seed_before_solving(tmp_path, example_raw, args, options):
    example_raw["options"].update(options)
    out = str(tmp_path / "o")
    rc = main(["certify", "--config", write_cfg(tmp_path, example_raw), "--out", out, *args])
    assert rc == EXIT_CONFIG
    assert not os.path.exists(os.path.join(out, "cost.json"))


def test_certify_single_path_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = main(["certify", "--config", example_config_path(), "--out", out,
               "--paths", "1"])
    assert rc == EXIT_CONFIG
    assert "config error: certify needs at least 2 paths" in capsys.readouterr().out
    assert not os.path.exists(os.path.join(out, "cost.json"))


@pytest.mark.parametrize("command,checkpoints,message", [
    ("certify", [0.0], "certify needs a checkpoint at t=1.0"),
    ("certify", [0.33333, 1.0], "checkpoint 0.33333 is not on the step grid"),
    ("simulate", [0.33333], "checkpoint 0.33333 is not on the step grid"),
    # These ended in numpy's and Python's own tracebacks.
    ("certify", ["x"], "option checkpoints must be a list of numbers, got ['x']"),
    ("certify", None, "option checkpoints must be a list of numbers, got None"),
    ("simulate", 1.0, "option checkpoints must be a list of numbers, got 1.0"),
])
def test_bad_checkpoints_rejected_before_solving(tmp_path, example_raw, capsys, command,
                                                 checkpoints, message):
    example_raw["options"].update({"paths": 100, "checkpoints": checkpoints})
    out = tmp_path / "o"
    out.mkdir()
    rc = main([command, "--config", write_cfg(tmp_path, example_raw), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().out
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("component,message", [
    # Zero-size jumps would hide the rate from D, and the Monte Carlo would
    # refuse it only after the solve.
    ({"kind": "compound_poisson", "channel": 0, "rate": [-1.0], "jump_std": 0.0},
     "compound_poisson component rate negative at t=0.000"),
    # The channel's summed rate 0.25 (1 + t) stays nonnegative, and the
    # Monte Carlo would clip this component's rate to 0.
    ({"kind": "wiener", "channel": 0, "rate": [-0.5]},
     "wiener component rate negative at t=0.000"),
    # (t - 0.005)(t - 0.0095) dips below zero between two of the 101 times the
    # rate used to be checked at; the Monte Carlo refused it after the solve.
    ({"kind": "compound_poisson", "channel": 0, "rate": [4.75e-5, -0.0145, 1.0],
      "jump_std": 0.1},
     "compound_poisson component rate negative at t=0.007"),
], ids=["compound", "wiener", "compound-dip"])
def test_negative_component_rate_is_config_error(tmp_path, example_raw, capsys, component,
                                                 message):
    example_raw["noise"]["additive"].append(component)
    example_raw["options"]["paths"] = 100
    out = tmp_path / "o"
    out.mkdir()
    rc = main(["certify", "--config", write_cfg(tmp_path, example_raw), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert f"config error: bad noise model: {message}" in capsys.readouterr().out
    assert list(out.iterdir()) == []


def _mutated(raw, changes):
    """raw with each (key path: value) of changes set, or deleted for None."""
    for keys, value in changes.items():
        node = raw
        for key in keys[:-1]:
            node = node[key]
        if value is None:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return raw


@pytest.mark.parametrize("command,changes,code,message", [
    ("solve", {("system", "A", 0, 0): ["x"]}, EXIT_CONFIG,
     "config error: bad matrix polynomial for A: could not convert string to float: 'x'"),
    ("solve", {("system",): None}, EXIT_CONFIG,
     "config error: missing or malformed system block: 'system'"),
    ("solve", {("noise",): None}, EXIT_CONFIG,
     "config error: system needs D and nu, or a noise block to derive them"),
    ("solve", {("system", "Q"): None}, EXIT_CONFIG, "config error: bad system block: 'Q'"),
    ("solve", {("system", "A"): [[[1.0]]]}, EXIT_CONFIG,
     "config error: bad system block: A declared 2x2 but given 1x1"),
    ("solve", {("boundary",): None}, EXIT_CONFIG,
     "config error: this command needs a boundary block"),
    ("construct", {("boundary",): None}, EXIT_CONFIG,
     "config error: construct needs a boundary block"),
    ("simulate", {("noise",): None, ("system", "D"): [[[1.0]]], ("system", "nu"): [[[0.5]]]},
     EXIT_CONFIG, "config error: simulate needs a noise block"),
    ("simulate", {("boundary",): None}, EXIT_CONFIG,
     "config error: this command needs a boundary block"),
    ("solve", {("noise", "multiplicative", 0, "kind"): "levy"}, EXIT_CONFIG,
     "config error: bad noise model: unknown noise kind 'levy'"),
    ("solve", {("noise", "additive", 0, "jump_std"): -0.5}, EXIT_CONFIG,
     "config error: bad noise model: jump standard deviation must be nonnegative"),
    ("solve", {("noise", "additive", 0, "channel"): None}, EXIT_CONFIG,
     "config error: bad noise model: additive components need a channel index"),
    ("solve", {("noise", "additive", 0, "channel"): 3}, EXIT_CONFIG,
     "config error: bad noise model: channel 3 outside 0..0"),
    ("solve", {("system", "R"): [[[-1.0]]]}, EXIT_PRECONDITION,
     "precondition violation: R not positive definite at t=0.000"),
    ("construct", {("system", "A", 0, 0): [-2.0, 1.0]}, EXIT_PRECONDITION,
     "precondition violation: construct requires a constant (A, B) pair"),
    # The noise block derives D = (3 + t) / 4, not the given D = 2.
    *[(command, {("system", "D"): [[[2.0]]], ("system", "nu"): [[[0.5]]]}, EXIT_PRECONDITION,
       "precondition violation: noise model disagrees with the system intensities at t=0.000")
      for command in ("simulate", "certify")],
], ids=["A-entry", "no-system", "no-intensities", "no-Q", "A-shape", "solve-no-boundary",
        "construct-no-boundary", "simulate-no-noise", "simulate-no-boundary", "levy",
        "jump-std", "no-channel", "channel-3", "R-negative", "construct-time-varying-A",
        "simulate-inconsistent-noise", "certify-inconsistent-noise"])
def test_cli_failures_exit_with_their_code_and_write_nothing(tmp_path, example_raw, capsys,
                                                             command, changes, code, message):
    example_raw["options"]["paths"] = 100
    out = tmp_path / "o"
    rc = main([command, "--config", write_cfg(tmp_path, _mutated(example_raw, changes)),
               "--out", str(out)])
    assert rc == code
    assert capsys.readouterr().out.startswith(message)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command,key,value,least", [
    ("validate", "grid", -1, 0),
    ("solve", "seed", -1, 0),
    ("simulate", "paths", 0, 1),
], ids=["validate-grid", "solve-seed", "simulate-paths"])
def test_flags_are_checked_as_their_config_keys(tmp_path, example_raw, capsys, command, key,
                                                value, least):
    flag_config = write_cfg(tmp_path, example_raw, "flag.json")
    example_raw["options"][key] = value
    file_config = write_cfg(tmp_path, example_raw, "file.json")
    for name, args in (("flag", [flag_config, f"--{key}", str(value)]), ("file", [file_config])):
        out = tmp_path / name
        rc = main([command, "--config", *args, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().out == \
            f"config error: option {key} must be an integer >= {least}, got {value}\n"
        assert not out.exists() or not any(out.iterdir())


def test_unknown_command_is_config_error(tmp_path):
    # main's argument parser refuses it first; run refuses it on its own.
    with pytest.raises(ConfigError, match="unknown command 'bogus'"):
        cli.run("bogus", parse_config(example_config_path()), str(tmp_path / "o"))


@pytest.mark.parametrize("grid", ["1", "0"])
def test_construct_grid_below_two_is_config_error(tmp_path, capsys, grid):
    out = tmp_path / "o"
    rc = main(["construct", "--config", example_config_path(), "--out", str(out),
               "--grid", grid])
    assert rc == EXIT_CONFIG
    assert f"config error: grid_size must be at least 2, got {grid}" in capsys.readouterr().out
    assert not out.exists() or not any(out.iterdir())


@pytest.fixture()
def construct_raw(example_raw):
    # Constant-channel construction: replace the noise by a unit Wiener so
    # that M = C D C' is constant, and drop the multiplicative part.
    example_raw["noise"] = {
        "additive": [{"kind": "wiener", "channel": 0, "rate": [1.0]}],
        "multiplicative": [],
    }
    example_raw["options"]["grid"] = 101
    return example_raw


def test_construct_command(tmp_path, construct_raw):
    out = str(tmp_path / "o")
    rc = main(["construct", "--config", write_cfg(tmp_path, construct_raw),
               "--out", out])
    assert rc == EXIT_OK
    with open(os.path.join(out, "construct_layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert max(layers["endpoint_errors"]) <= 1e-6
    header, rows = read_csv(os.path.join(out, "construct_covariance.csv"))
    assert abs(rows[-1][1] - 0.3) <= 1e-6


def test_construct_csvs_sample_the_maps(tmp_path, construct_raw):
    # Each construct_*.csv reads back bit for bit as its map of a fresh
    # in-memory construction, sampled at the grid option's times.
    config = write_cfg(tmp_path, construct_raw)
    out = tmp_path / "o"
    assert main(["construct", "--config", config, "--out", str(out)]) == EXIT_OK
    cfg = parse_config(config)
    sysd = cfg.system
    fs = construct_feasible_steering(
        sysd.A.eval(0.0), sysd.B.eval(0.0), cfg.boundary, sysd.C @ sysd.D @ sysd.C.T,
        sysd.identity_channel_nu(), h_order=cfg.options["construct_order"])
    times = np.linspace(0.0, 1.0, 101)
    for name, fn, header in (
            ("u", fs.control, ["t", "u_1_1", "u_2_1"]),
            ("gain", fs.gain, ["t", "k_1_1", "k_1_2"]),
            ("covariance", fs.covariance, ["t", "sigma_1_1", "sigma_1_2", "sigma_2_1",
                                           "sigma_2_2"])):
        got_header, rows = read_csv(out / f"construct_{name}.csv")
        assert got_header == header
        rows = np.array(rows)
        assert np.array_equal(rows[:, 0], times)
        assert np.array_equal(rows[:, 1:], fn(times).reshape(len(times), -1))


_SCIPY_FREE = """
import sys
import covsteer.cli
assert "scipy" not in sys.modules, "import covsteer.cli loaded scipy"
assert "concurrent.futures" not in sys.modules, "import covsteer.cli loaded concurrent.futures"
assert "queue" not in sys.modules, "import covsteer.cli loaded queue"
from covsteer.cli import EXIT_OK, example_config_path, main
for command in ("solve", "construct"):
    rc = main([command, "--config", example_config_path(), "--out", sys.argv[1] + "/" + command])
    assert rc == EXIT_OK, (command, rc)
    assert "scipy" not in sys.modules, f"covsteer {command} loaded scipy"
import numpy as np
import covsteer
from covsteer.matfun import MatrixPoly, SystemSpec
one, zero = MatrixPoly.constant([[1.0]]), MatrixPoly.constant([[0.0]])
sys_ = SystemSpec(n=1, p=1, q=1, A=zero, B=one, C=one, D=one, nu=zero, Q=zero, R=one)
covsteer.symplectic_residuals(sys_, covsteer.transition_blocks(sys_, 1.0, 0.0))
covsteer.pi_bounds(sys_, np.array([0.0, 0.5, 1.0]))
covsteer.maximal_interval(sys_, 0.0, np.zeros((1, 1)), (-0.5, 1.5))
covsteer.integrate_general(sys_, np.zeros((1, 1)), grid_size=11)
assert "scipy" not in sys.modules, "the transition blocks or the Riccati analysis loaded scipy"
"""


def test_import_and_solve_load_no_scipy(tmp_path):
    # Of the library, only integrate_general on a non-identity channel or an
    # uncontrollable pair needs scipy.
    # A fresh interpreter, as an earlier test in this process may import it.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
