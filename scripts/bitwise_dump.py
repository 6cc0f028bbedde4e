#!/usr/bin/env python3
"""SHA-256 digests of solver outputs, for proving two checkouts bitwise equal.

    python scripts/bitwise_dump.py > dump.json
    python scripts/bitwise_dump.py --compare parent.json dump.json

Run it in two checkouts and compare the JSON it prints: equal digests mean
equal bits.  It imports krylov_dre from the src/ of the checkout it sits in
and pins BLAS to one thread before numpy loads, as perfbench/run.py does.
The benchmark problems and configs come from perfbench/workloads.py.

Per solve it covers m, rank, the residual (float.hex), the breakdown flag, Z,
y_final, each sample, the step_stats entries (h, care_residuals, orders), the
trace rows (m, residual, rank, screen, skipped), the root screens (m,
residual, transient, accepted), the orders of the configured integrations and
of the accepted root screens in plain text (so a digest change can be read
without a rerun) and the returned basis's V and T.  Its work counts are
digested apart, under "work": the step_stats entries WORK_COUNTS and the
trace rows' schur_factorizations, euler_retakes and stationary_steps.  So a
change that saves work and keeps the bits leaves every digest outside "work"
equal.  Per steady state it covers the factor or the error's type and
message; per oracle the exact and the reference matrices.  --compare prints
one line per entry that differs between two dumps, saying whether its
outputs differ or only its work counts.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from krylov_dre import baseline, lqr, oracles, solver  # noqa: E402
from krylov_dre.benchmarks import gen_convdiff2d, gen_heat1d_fem  # noqa: E402
from krylov_dre.errors import SolverError  # noqa: E402
from krylov_dre.problem import SolverConfig  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _canon(x):
    """A JSON-able value with every float as float.hex and arrays by digest."""
    if isinstance(x, np.ndarray):
        return [str(x.dtype), list(x.shape),
                hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()]
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    raise TypeError(f"cannot digest {type(x).__name__}")


# The step_stats entries that count work; the trace rows count the last three.
WORK_COUNTS = ("newton_iters", "schur_factorizations", "euler_retakes", "stationary_steps")


def digest(x):
    return hashlib.sha256(json.dumps(_canon(x), sort_keys=True).encode()).hexdigest()


def solution(sol):
    stats = sol.step_stats
    out = {
        "m": sol.m, "rank": sol.rank,
        "residual": None if sol.residual is None else sol.residual.value.hex(),
        "breakdown": sol.breakdown,
        "Z": digest(sol.Z), "y_final": digest(sol.y_final),
        "samples": [digest(s) for s in sol.samples],
        "step_stats": {k: digest(v) for k, v in stats.items() if k not in WORK_COUNTS},
        "trace": digest([(r.m, r.residual, r.rank, r.screen, r.skipped) for r in sol.trace]),
        "root_screens": digest([(r.m, r.residual, r.transient, r.accepted)
                                for r in sol.root_screens]),
        "configured": [r.m for r in sol.trace if not r.screen],
        "root_screened": [r.m for r in sol.root_screens if r.accepted],
        "work": {
            "step_stats": {k: digest(stats[k]) for k in WORK_COUNTS if k in stats},
            "trace": digest([[getattr(r, k) for k in WORK_COUNTS[1:]] for r in sol.trace]),
        },
    }
    if sol.basis is not None:
        out.update(V=digest(sol.basis.V), T=digest(sol.basis.T))
    return out


def workload(name, seed):
    w = WORKLOADS[name](seed)
    w.build(seed)
    return w


def compare(old, new):
    """One line per entry of two dumps that differs: in its outputs, or in its work alone."""
    def outputs(entry):
        if not isinstance(entry, dict):
            return entry
        return {k: v for k, v in entry.items() if k != "work"}

    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a != b:
            what = "outputs" if outputs(a) != outputs(b) else "work counts"
            lines.append(f"{key}: {what} differ")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"]:
        old, new = (json.loads(Path(path).read_text()) for path in argv[1:3])
        print("\n".join(compare(old, new)) or "all entries equal")
        return
    dump = {}
    for name, seeds in (("convdiff-n900", (11, 3, 7)), ("heat-lqr-n1600", (5, 2, 9))):
        for seed in seeds:
            w = workload(name, seed)
            dump[f"solve {name} seed {seed}"] = solution(solver.solve(
                w.problem, w.config, sample_times=getattr(w, "sample_times", None)))
    dump["solve convdiff n0=10 seed 11"] = solution(solver.solve(
        gen_convdiff2d(10, seed=11, t_f=1.0), SolverConfig(p=2, h=5e-3, tol=1e-8, m_max=30)))
    dump["solve heat1d n=400 t_f=50"] = solution(solver.solve(
        gen_heat1d_fem(400, seed=3, alpha=0.05, dt=7e-5, t_f=50.0),
        SolverConfig(p=2, h=0.025, tol=1e-8, m_max=25),
        sample_times=np.arange(0.0, 50.0 + 1e-9, 5.0)))
    w = workload("baseline-heat-n900", 7)
    dump["solve_baseline heat1d n=900 seed 7"] = solution(
        baseline.solve_baseline(w.problem, w.config))
    for n, seed in ((1600, 5), (300, 3)):
        try:
            result = digest(lqr.steady_state(gen_heat1d_fem(n, seed=seed, t_f=1.0)))
        except SolverError as exc:
            result = f"{type(exc).__name__}: {exc}"
        dump[f"steady_state heat1d n={n} seed {seed}"] = result
    w = workload("oracle-c6", 424242)
    dump["exact_solution oracle-c6 seed 424242"] = [
        digest(oracles.exact_solution(w.problem, t)) for t in w.times]
    dump["dense_reference_integrate oracle-c6 seed 424242"] = [
        digest(X) for X in oracles.dense_reference_integrate(w.problem, w.h_ref, list(w.times))]
    print(json.dumps(dump, indent=1))


if __name__ == "__main__":
    main()
