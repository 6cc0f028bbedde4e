"""scripts/bitwise_dump.py must keep digesting solver outputs.

Two checkouts are shown to give bitwise-equal outputs by comparing the
script's digests, so a script that no longer runs, or that digests less than
it says, should fail here rather than in a comparison.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

from krylov_dre import baseline, solver
from krylov_dre.benchmarks import gen_convdiff2d
from krylov_dre.problem import SolverConfig

DUMP = Path(__file__).resolve().parents[1] / "scripts" / "bitwise_dump.py"
SOLVE_KEYS = {"m", "rank", "residual", "breakdown", "Z", "y_final", "samples", "step_stats",
              "trace", "root_screens", "configured", "root_screened", "work"}


def _load_dump(monkeypatch):
    # the script pins BLAS threads and extends sys.path on import; undo both
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bitwise_dump", DUMP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_digest(x):
    return isinstance(x, str) and len(x) == 64 and int(x, 16) >= 0


def test_dump_digests_solve_and_baseline(monkeypatch):
    dump = _load_dump(monkeypatch)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    problem = gen_convdiff2d(5, seed=3, t_f=1.0)
    config = SolverConfig(p=2, h=0.05, tol=1e-8, m_max=12)

    sol = solver.solve(problem, config, sample_times=[0.0, 1.0])
    out = dump.solution(sol)
    assert set(out) == SOLVE_KEYS | {"V", "T"}
    assert (out["m"], out["rank"], out["breakdown"]) == (sol.m, sol.rank, sol.breakdown)
    assert float.fromhex(out["residual"]) == sol.residual.value
    assert out["configured"] == [r.m for r in sol.trace if not r.screen]
    assert all(map(_is_digest, [out[k] for k in ("Z", "y_final", "trace", "V", "T")]))
    assert len(out["samples"]) == 2 and all(map(_is_digest, out["samples"]))
    # the step log's outputs and its work counts are digested apart
    assert set(out["step_stats"]) == {"h", "care_residuals", "orders"}
    assert set(out["work"]["step_stats"]) == set(dump.WORK_COUNTS)
    assert set(out["step_stats"]) | set(out["work"]["step_stats"]) == set(sol.step_stats)
    assert dump.solution(sol) == out
    # a change in the last bit of one entry changes the digest
    sol.Z = sol.Z.copy()
    sol.Z[0, 0] = np.nextafter(sol.Z[0, 0], np.inf)
    changed = dump.solution(sol)
    assert changed["Z"] != out["Z"] and changed["work"] == out["work"]
    assert dump.compare({"solve": out}, {"solve": changed}) == ["solve: outputs differ"]
    # a work count changes only the work digests, and compare tells the two apart
    sol.trace[-1].schur_factorizations += 1
    sol.step_stats["newton_iters"] = sol.step_stats["newton_iters"][:-1] + [0]
    work = dump.solution(sol)
    assert work["trace"] == changed["trace"] and work["step_stats"] == changed["step_stats"]
    assert work["work"]["trace"] != out["work"]["trace"]
    assert work["work"]["step_stats"]["newton_iters"] != out["work"]["step_stats"]["newton_iters"]
    assert dump.compare({"solve": changed}, {"solve": work}) == ["solve: work counts differ"]
    assert dump.compare({"solve": out}, {"solve": out}) == []
    # the root screens are listed and digested: convdiff n0=10 is screened by
    # its root above its first order
    sol = solver.solve(gen_convdiff2d(10, seed=11, t_f=1.0),
                       SolverConfig(p=2, h=5e-3, tol=1e-8, m_max=30))
    out = dump.solution(sol)
    assert out["root_screened"] == list(range(2, sol.m + 1)) and _is_digest(out["root_screens"])
    sol.root_screens[0].residual = np.nextafter(sol.root_screens[0].residual, np.inf)
    assert dump.solution(sol)["root_screens"] != out["root_screens"]

    base = dump.solution(baseline.solve_baseline(problem, config))
    assert set(base) == SOLVE_KEYS and base["residual"] is None
    assert base["root_screened"] == []
    assert base["m"] == 20 and _is_digest(base["Z"]) and _is_digest(base["trace"])
    assert "schur_factorizations" not in base["work"]["step_stats"]
    assert set(base["step_stats"]) == {"h", "care_residuals", "orders"}
