"""The benchmark's tracer must find, wrap and restore every library function it traces.

perfbench/tracing.py looks its targets up by name when it is imported, so a
renamed or deleted library function breaks every benchmark run.  This test
fails instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from krylov_dre import baseline, benchmarks, dense, lowrank, lqr, oracles, solver
from krylov_dre.problem import DREProblem, SolverConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Identity of every package-level binding the tracer may replace."""
    snap = {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("krylov_dre")
            for attr, value in vars(module).items()}
    snap[("SignedFactor", "compress")] = vars(lowrank.SignedFactor)["compress"]
    return snap


def test_tracer_installs_and_restores_every_binding():
    tracing = _load_tracing()
    before = _bindings()
    tr = tracing.Tracer()
    with tr.installed():
        assert solver.extract_factor is not before[("krylov_dre.solver", "extract_factor")]
        assert dense.sla is not before[("krylov_dre.dense", "sla")]
        problem = benchmarks.gen_convdiff2d(7, seed=7, t_f=0.5)
        sol = solver.solve(problem, SolverConfig(p=2, h=1e-2, tol=1e-8, m_max=20),
                           sample_times=[0.0, 0.5])
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    # every checked order was integrated inside the traced solve
    assert tr.counts["solver.checks"] == len(sol.trace)
    assert tr.calls["solver.extract"] == 2
    # the Schur and trsyl calls go through dense's module views, and the
    # frozen closed-loop factor serves many BDF steps
    assert tr.calls["dense.trsyl"] > 0
    assert 0 < tr.calls["dense.schur"] < tr.counts["bdf.steps"]


def test_tracer_covers_the_oracle_layer():
    tracing = _load_tracing()
    rng = np.random.default_rng(5)
    n = 5
    problem = DREProblem(A=rng.standard_normal((n, n)) - 3.0 * np.eye(n),
                         B=rng.standard_normal((n, 2)), C=rng.standard_normal((2, n)),
                         Z0=np.eye(n), t_f=0.1)
    before = _bindings()
    tr = tracing.Tracer()
    with tr.installed():
        oracles.exact_solution(problem, 0.1)
        oracles.dense_reference_integrate(problem, 1e-2, [0.1])
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert tr.calls["oracles.exact_solution"] == 1
    assert tr.calls["oracles.reference_integrate"] == 1
    # the algebraic solution of the closed form, solved by the per-step CARE
    # Newton from a stabilizing start, and the 10 steps of the reference
    assert tr.calls["dense.solve_care"] >= 1
    assert tr.calls["dense.care"] == 10 + tr.calls["dense.solve_care"]


def test_tracer_covers_the_baseline_and_steady_state():
    # the baseline's Newton and Lyapunov kernels are looked up as module
    # globals through bdf.march's step closure, so the tracer still sees them
    tracing = _load_tracing()
    before = _bindings()
    tr = tracing.Tracer()
    with tr.installed():
        sol = baseline.solve_baseline(benchmarks.gen_convdiff2d(3, seed=5, t_f=0.1),
                                      SolverConfig(p=2, h=1e-2))
        integrations = tr.calls["bdf.integrate"]
        lqr.steady_state(benchmarks.gen_heat1d_fem(300, seed=3, alpha=0.05, dt=7e-5,
                                                   t_f=1.0), tol=1e-9)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert tr.calls["baseline.solve_baseline"] == 1
    assert tr.calls["baseline.newton_step"] >= 1
    assert tr.calls["baseline.eba_lyapunov"] >= 1
    assert tr.calls["lqr.steady_state"] == 1
    assert integrations == 0
    # every Newton iteration of the step log is one traced Newton step
    assert sum(sol.step_stats["newton_iters"]) == tr.calls["baseline.newton_step"]
