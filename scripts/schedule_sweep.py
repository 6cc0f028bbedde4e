#!/usr/bin/env python3
"""The 89-problem schedule sweep: per case the returned order and output digests.

    python scripts/schedule_sweep.py > sweep.txt

Solves each case with solver.solve and prints one line per case: its label,
the returned m, the factor's rank, the residual (float.hex), the orders that
got a configured BDF(p) run, the orders screened by an accepted root screen
(roots) and those whose root screen was not accepted and fell back to an
Euler screen (root_fallbacks), and the digests of Z and y_final
(bitwise_dump.digest), or the error's type and message.  A last line counts
the cases, configured runs, accepted root screens, fallbacks and errors.
Run it in two checkouts and diff the outputs: equal case lines mean the same
m and the same bits, the configured and root-screened orders show which
checks and screens a schedule change adds or drops, and the residuals show
how far a change that moves bits moved the certificate.  Like bitwise_dump.py
it imports krylov_dre from the src/ of its own checkout and pins BLAS to one
thread.

The cases, all at p=2:
- gen_convdiff2d, n0 in {10, 15, 20, 30}, seeds 0-5, t_f=1, tol 1e-8 and
  3e-10, h=5e-3, m_max=30 (48 cases);
- gen_heat1d_fem, n in {400, 800, 1600}, seeds 0-5, t_f=1, tol 1e-8 and
  1e-10, h=5e-3, m_max=30 (36 cases);
- gen_heat1d_fem n=400, alpha=0.05, dt=7e-5, t_f=50, seeds 0-4, h=0.025,
  tol=1e-8, m_max=25 (5 cases).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bitwise_dump import digest  # noqa: E402  (pins BLAS, puts src/ on sys.path)

from krylov_dre import solver  # noqa: E402
from krylov_dre.benchmarks import gen_convdiff2d, gen_heat1d_fem  # noqa: E402
from krylov_dre.errors import SolverError  # noqa: E402
from krylov_dre.problem import SolverConfig  # noqa: E402


def _cases():
    """(label, problem maker, config) for every case, in print order."""
    cases = []
    for n0 in (10, 15, 20, 30):
        for seed in range(6):
            for tol in (1e-8, 3e-10):
                cases.append((f"convdiff2d n0={n0} seed={seed} tol={tol:g}",
                              lambda n0=n0, seed=seed: gen_convdiff2d(n0, seed=seed, t_f=1.0),
                              SolverConfig(p=2, h=5e-3, tol=tol, m_max=30)))
    for n in (400, 800, 1600):
        for seed in range(6):
            for tol in (1e-8, 1e-10):
                cases.append((f"heat1d n={n} seed={seed} tol={tol:g}",
                              lambda n=n, seed=seed: gen_heat1d_fem(n, seed=seed, t_f=1.0),
                              SolverConfig(p=2, h=5e-3, tol=tol, m_max=30)))
    for seed in range(5):
        cases.append((f"heat1d n=400 t_f=50 seed={seed} tol=1e-08",
                      lambda seed=seed: gen_heat1d_fem(400, seed=seed, alpha=0.05, dt=7e-5,
                                                       t_f=50.0),
                      SolverConfig(p=2, h=0.025, tol=1e-8, m_max=25)))
    return cases


CASES = _cases()


def run_case(make, config):
    """The case's line fields: m, configured orders and digests, or the error."""
    try:
        sol = solver.solve(make(), config)
    except SolverError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"m": sol.m, "rank": sol.rank, "residual": sol.residual.value.hex(),
            "configured": [r.m for r in sol.trace if not r.screen],
            "roots": [r.m for r in sol.root_screens if r.accepted],
            "root_fallbacks": [r.m for r in sol.root_screens if not r.accepted],
            "Z": digest(sol.Z), "y_final": digest(sol.y_final)}


def main():
    configured = roots = fallbacks = errors = 0
    start = time.perf_counter()
    for label, make, config in CASES:
        out = run_case(make, config)
        configured += len(out.get("configured", ()))
        roots += len(out.get("roots", ()))
        fallbacks += len(out.get("root_fallbacks", ()))
        errors += "error" in out
        print(label, " ".join(f"{k}={v}" for k, v in out.items()), flush=True)
    print(f"{len(CASES)} cases, {configured} configured runs, {roots} root screens, "
          f"{fallbacks} root fallbacks, {errors} errors")
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
