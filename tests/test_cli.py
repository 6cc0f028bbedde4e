import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from krylov_dre.benchmarks import gen_heat1d_fem
from krylov_dre.cli import cli_run
from krylov_dre.lqr import DENSE_STEADY_MAX_N, steady_state
from krylov_dre.problem import SolverConfig


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = cli_run([
        "solve", "--family", "convdiff2d", "--n0", "4", "--tf", "0.2",
        "--h", "2e-3", "--tol", "1e-8", "--seed", "3", "--out", str(out),
        "--samples", "5", "--track", "0,0",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["config"]["h"] == pytest.approx(2e-3)
    assert manifest["problem"]["family"] == "convdiff2d"
    assert "numpy" in manifest["versions"]

    rows = _read_csv(out / "convergence.csv")
    assert float(rows[-1]["residual"]) < 1e-8
    summary = _read_csv(out / "solution.csv")[0]
    assert summary["method"] == "eba-bdf"
    assert int(summary["converged"]) == 1

    log = _read_csv(out / "bdf_log.csv")
    assert len(log) == 100
    assert all(int(r["schur_factorizations"]) <= int(r["newton_iterations"]) for r in log)
    traj = _read_csv(out / "trajectory.csv")
    assert traj[0]["t"] == "0.0"
    assert len(traj) >= 5


def test_solve_with_diagnostics(tmp_path):
    out = tmp_path / "diag"
    code = cli_run([
        "solve", "--family", "convdiff2d", "--n0", "4", "--tf", "0.1",
        "--p", "1", "--h", "2e-3", "--tol", "1e-6", "--seed", "3",
        "--out", str(out), "--arnoldi-diagnostics",
    ])
    assert code == 0
    rows = _read_csv(out / "eba_diagnostics.csv")
    assert all(float(r["orthonormality_deviation"]) <= 1e-10 for r in rows)
    assert all(float(r["relation_residual"]) <= 1e-10 for r in rows)


def test_convergence_curve_decreases(tmp_path):
    out = tmp_path / "conv"
    code = cli_run([
        "convergence", "--family", "convdiff2d", "--n0", "5", "--tf", "0.5",
        "--h", "5e-3", "--tol", "1e-9", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "convergence.csv")
    res = [float(r["residual"]) for r in rows]
    assert res[-1] < 1e-9
    assert res[0] > res[-1]


def test_compare_methods(tmp_path):
    out = tmp_path / "cmp"
    code = cli_run([
        "compare", "--family", "convdiff2d", "--n0", "4", "--tf", "0.2",
        "--h", "2e-3", "--tol", "1e-9", "--seed", "3", "--out", str(out),
        "--methods", "eba,baseline,reference",
    ])
    assert code == 0
    rows = _read_csv(out / "compare.csv")
    assert len(rows) == 3
    # short-horizon smoke run: the reference is still damping the initial
    # transient, so only plumbing-level agreement is asserted here (the
    # strict 1e-5 bound is checked at the full-horizon configuration in the
    # acceptance suite)
    for r in rows:
        assert float(r["rel_diff_fro"]) <= 2e-3


def test_reference_command(tmp_path):
    out = tmp_path / "ref"
    code = cli_run([
        "reference", "--family", "convdiff2d", "--n0", "3", "--tf", "0.1",
        "--h", "1e-3", "--seed", "1", "--out", str(out),
        "--samples", "3", "--track", "0,0",
    ])
    assert code == 0
    assert (out / "final.mtx").exists()
    rows = _read_csv(out / "trajectory.csv")
    assert len(rows) == 3


def test_lqr_command(tmp_path):
    out = tmp_path / "lqr"
    code = cli_run([
        "lqr", "--family", "convdiff2d", "--n0", "4", "--tf", "0.2",
        "--h", "2e-3", "--tol", "1e-8", "--seed", "3", "--out", str(out),
        "--samples", "11", "--simulate", "--h-sim", "1e-3",
    ])
    assert code == 0
    rows = {r["quantity"]: float(r["value"]) for r in _read_csv(out / "cost.csv")}
    assert "riccati_factor" in rows
    assert "closed_loop_simulation" in rows
    assert abs(rows["closed_loop_simulation"] - rows["riccati_factor"]) \
        <= 0.05 * max(rows["riccati_factor"], 1e-12)
    gains = _read_csv(out / "gains.csv")
    assert len(gains) == 11


def test_lqr_steady_state_reported_from_a_factor(tmp_path):
    # n > DENSE_STEADY_MAX_N: steady_state returns a factor Z, and the report
    # must use ||Z^T x0||^2 instead of dropping the row
    n, seed = 300, 3
    assert n > DENSE_STEADY_MAX_N
    out = tmp_path / "lqr300"
    code = cli_run([
        "lqr", "--family", "heat1d_fem", "--n", str(n), "--alpha", "0.05", "--dt", "7e-5",
        "--tf", "1.0", "--h", "1e-2", "--tol", "1e-9", "--seed", str(seed),
        "--samples", "11", "--out", str(out),
    ])
    assert code == 0
    rows = {r["quantity"]: float(r["value"]) for r in _read_csv(out / "cost.csv")}
    assert np.isfinite(rows["steady_state_quadratic"])
    Z = steady_state(gen_heat1d_fem(n, alpha=0.05, dt=7e-5, seed=seed, t_f=1.0), tol=1e-9)
    v = Z.T @ np.random.default_rng(seed + 1).standard_normal(n)
    assert rows["steady_state_quadratic"] == pytest.approx(float(v @ v), rel=1e-12)


def test_every_config_field_set_by_its_flag(tmp_path):
    values = {"p": 1, "h": 2e-3, "tol": 1e-6, "m_max": 17, "dtol": 1e-11,
              "check_stride": 2, "care_tol": 1e-11}
    assert set(values) == {f.name for f in fields(SolverConfig)}
    out = tmp_path / "flags"
    code = cli_run([
        "solve", "--family", "convdiff2d", "--n0", "4", "--tf", "0.1", "--seed", "3",
        "--p", "1", "--h", "2e-3", "--tol", "1e-6", "--m-max", "17", "--dtol", "1e-11",
        "--check-stride", "2", "--care-tol", "1e-11", "--out", str(out),
    ])
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config == values
    assert {k: type(v) for k, v in config.items()} == {k: type(v) for k, v in values.items()}


def test_error_record_on_failure(tmp_path):
    out = tmp_path / "err"
    code = cli_run([
        "solve", "--family", "matrixmarket", "--out", str(out),
    ])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "SolverError"


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("p = 1\nh = 5e-3\ntol = 1e-7\n")
    out = tmp_path / "cfgrun"
    # n0=4: at n0=3 the basis breaks down partially at m=2 and solve raises
    code = cli_run([
        "solve", "--family", "convdiff2d", "--n0", "4", "--tf", "0.1",
        "--config", str(cfg), "--h", "2e-3", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["p"] == 1            # from file
    assert manifest["config"]["h"] == pytest.approx(2e-3)  # flag wins
    assert manifest["config"]["tol"] == pytest.approx(1e-7)


def test_unknown_method_rejected(tmp_path):
    out = tmp_path / "bad"
    code = cli_run([
        "compare", "--family", "convdiff2d", "--n0", "3", "--tf", "0.1",
        "--h", "1e-3", "--methods", "eba,bogus", "--out", str(out),
    ])
    assert code == 2
    record = json.loads((out / "error.json").read_text())
    assert "bogus" in record["message"]
