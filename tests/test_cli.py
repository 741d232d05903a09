import json
import os

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
    again = RunConfig(cfg.emit())
    assert again.raw == example_raw
    assert again.system.n == 2
    assert cfg.boundary is not None


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


def test_linalg_error_is_numerical_error_exit_2(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "solve_boundary", singular)
    rc = main(["solve", "--config", example_config_path(), "--out", str(tmp_path / "o")])
    assert rc == EXIT_PRECONDITION
    assert "numerical error: Singular matrix" in capsys.readouterr().out


@pytest.mark.parametrize("grid", ["1", "0"])
def test_solve_grid_below_two_is_config_error(tmp_path, capsys, grid):
    rc = main(["solve", "--config", example_config_path(), "--out", str(tmp_path / "o"),
               "--grid", grid])
    assert rc == EXIT_CONFIG
    assert f"config error: grid_size must be at least 2, got {grid}" in capsys.readouterr().out


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


def test_simulate_outputs_sorted_paths(tmp_path, example_raw):
    example_raw["options"].update({"paths": 300, "grid": 101, "retain_paths": 4})
    out = str(tmp_path / "o")
    rc = main(["simulate", "--config", write_cfg(tmp_path, example_raw),
               "--out", out, "--seed", "5"])
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


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_certify_rejects_seed_before_solving(tmp_path, example_raw, seed):
    out = str(tmp_path / "o")
    rc = main(["certify", "--config", write_cfg(tmp_path, example_raw),
               "--out", out, "--seed", seed])
    assert rc == EXIT_CONFIG
    assert not os.path.exists(os.path.join(out, "cost.json"))


def test_certify_single_path_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = main(["certify", "--config", example_config_path(), "--out", out,
               "--paths", "1"])
    assert rc == EXIT_CONFIG
    assert "config error: certify needs at least 2 paths" in capsys.readouterr().out
    assert not os.path.exists(os.path.join(out, "cost.json"))


@pytest.mark.parametrize("grid", ["1", "0"])
def test_construct_grid_below_two_is_config_error(tmp_path, capsys, grid):
    rc = main(["construct", "--config", example_config_path(), "--out", str(tmp_path / "o"),
               "--grid", grid])
    assert rc == EXIT_CONFIG
    assert f"config error: grid_size must be at least 2, got {grid}" in capsys.readouterr().out


def test_construct_command(tmp_path, example_raw):
    # Constant-channel construction: replace the noise by a unit Wiener so
    # that M = C D C' is constant, and drop the multiplicative part.
    example_raw["noise"] = {
        "additive": [{"kind": "wiener", "channel": 0, "rate": [1.0]}],
        "multiplicative": [],
    }
    example_raw["options"]["grid"] = 101
    out = str(tmp_path / "o")
    rc = main(["construct", "--config", write_cfg(tmp_path, example_raw),
               "--out", out])
    assert rc == EXIT_OK
    with open(os.path.join(out, "construct_layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert max(layers["endpoint_errors"]) <= 1e-6
    header, rows = read_csv(os.path.join(out, "construct_covariance.csv"))
    assert abs(rows[-1][1] - 0.3) <= 1e-6
