"""scripts/schedule_sweep.py and scripts/failure_scan.py must keep running.

Two checkouts are compared by diffing these scripts' outputs, so a script
that no longer runs, or prints less than it says, should fail here rather
than in a comparison.
"""

import importlib.util
import os
import sys
from pathlib import Path

from krylov_dre import solver
from krylov_dre.problem import SolverConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(monkeypatch, name):
    # the scripts pin BLAS threads and extend sys.path on import; undo both
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_schedule_sweep_prints_m_configured_orders_and_digests(monkeypatch, capsys):
    sweep = _load(monkeypatch, "schedule_sweep")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    labels = [label for label, _, _ in sweep.CASES]
    assert len(labels) == len(set(labels)) == 89
    small = [case for case in sweep.CASES if case[0] in (
        "convdiff2d n0=10 seed=1 tol=1e-08", "heat1d n=400 seed=0 tol=1e-08")]
    monkeypatch.setattr(sweep, "CASES", small)
    sweep.main()
    lines = capsys.readouterr().out.splitlines()
    expected, runs, roots = [], 0, 0
    for label, make, config in small:
        sol = solver.solve(make(), config)
        configured = [r.m for r in sol.trace if not r.screen]
        root_screened = [r.m for r in sol.root_screens]
        # the convdiff2d case is root-screened above its first order, heat1d never
        assert all(r.accepted for r in sol.root_screens)
        assert root_screened == (list(range(2, sol.m + 1)) if label.startswith("convdiff")
                                 else [])
        runs += len(configured)
        roots += len(root_screened)
        expected.append(f"{label} m={sol.m} rank={sol.rank} "
                        f"residual={sol.residual.value.hex()} configured={configured} "
                        f"roots={root_screened} root_fallbacks=[] "
                        f"Z={sweep.digest(sol.Z)} y_final={sweep.digest(sol.y_final)}")
    assert lines == expected + [f"2 cases, {runs} configured runs, {roots} root screens, "
                                f"0 root fallbacks, 0 errors"]
    # a failed solve is reported by its error
    make = small[0][1]
    out = sweep.run_case(make, SolverConfig(p=2, h=5e-3, tol=1e-8, m_max=2))
    assert list(out) == ["error"] and out["error"].startswith("NotConverged: ")


def test_failure_scan_reports_each_instance(monkeypatch, capsys):
    scan = _load(monkeypatch, "failure_scan")
    scan.main(["--workload", "convdiff-n900", "--instances", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["seed=11 instance=0 attempted=1 failed=0",
                     "seed=11: 0 of 1 calls failed; all calls passed at instances 0",
                     "convdiff-n900: 0 of 1 calls failed (share 0.0000)"]


def test_failure_scan_lists_the_passing_instances(monkeypatch, capsys):
    # instance 1 of a two-instance scan fails one call: only 0 is listed
    scan = _load(monkeypatch, "failure_scan")
    outcomes = {0: (2, 0, []), 1: (2, 1, ["steady_state: MaxIterations: stalled"])}
    monkeypatch.setattr(scan, "scan_instance", lambda wl, i: outcomes[i])
    scan.main(["--workload", "heat-lqr-n1600", "--seeds", "5", "--instances", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["seed=5 instance=0 attempted=2 failed=0",
                     "seed=5 instance=1 attempted=2 failed=1",
                     "    steady_state: MaxIterations: stalled",
                     "seed=5: 1 of 4 calls failed; all calls passed at instances 0",
                     "heat-lqr-n1600: 1 of 4 calls failed (share 0.2500)"]
    # runs of consecutive instances are printed as ranges
    assert scan.index_ranges([0, 1, 2, 3, 50, 170, 171]) == "0-3, 50, 170-171"
    assert scan.index_ranges([]) == "none"
