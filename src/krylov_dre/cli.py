"""Command-line benchmark harness: solve / baseline / reference / compare /
convergence / lqr.

Every run writes a manifest.json (argv, resolved config, seed, versions) next
to its CSV artifacts so any job can be rerun exactly.  Errors exit nonzero
after writing a machine-readable error.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import arnoldi as _arnoldi
from .baseline import solve_baseline
from .benchmarks import BenchmarkSpec, gen_convdiff2d, gen_heat1d_fem, load_matrixmarket
from .dense import psd_factor
from .errors import SolverError
from .lowrank import SignedFactor, signed_diff_fro
from .lqr import (DENSE_GAIN_MAX_N, gain_schedule, optimal_cost, simulate_closed_loop,
                  steady_state)
from .oracles import MAX_ORACLE_N, dense_reference_integrate
from .problem import SolverConfig, config_from_file, factorize
from .solver import solve


def _add_problem_args(p):
    p.add_argument("--family", choices=["convdiff2d", "heat1d_fem", "matrixmarket"],
                   default="convdiff2d")
    p.add_argument("--n0", type=int, default=7, help="inner grid points per direction (convdiff2d)")
    p.add_argument("--n", type=int, default=100, help="problem size (heat1d_fem)")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--mtx-a"); p.add_argument("--mtx-b")
    p.add_argument("--mtx-c"); p.add_argument("--mtx-z0")
    p.add_argument("--tf", type=float, default=None, help="horizon (family default if omitted)")
    p.add_argument("--seed", type=int, default=0)


def _add_config_args(p):
    p.add_argument("--config", help="key=value file with SolverConfig fields")
    for f in fields(SolverConfig):
        p.add_argument("--" + f.name.replace("_", "-"), default=None,
                       type=int if f.type == "int" else float)


def build_problem(args):
    if args.family == "convdiff2d":
        t_f = 1.0 if args.tf is None else args.tf
        problem = gen_convdiff2d(args.n0, s=args.s, ell=args.ell, seed=args.seed, t_f=t_f)
        spec = BenchmarkSpec("convdiff2d", problem.n, args.s, args.ell, args.seed, t_f,
                             {"n0": args.n0})
    elif args.family == "heat1d_fem":
        t_f = 2.0 if args.tf is None else args.tf
        problem = gen_heat1d_fem(args.n, s=args.s, alpha=args.alpha, dt=args.dt,
                                 seed=args.seed, t_f=t_f)
        spec = BenchmarkSpec("heat1d_fem", args.n, args.s, args.s, args.seed, t_f,
                             {"alpha": args.alpha, "dt": args.dt})
    else:
        if not (args.mtx_a and args.mtx_b and args.mtx_c):
            raise SolverError("matrixmarket family requires --mtx-a/--mtx-b/--mtx-c")
        t_f = 1.0 if args.tf is None else args.tf
        problem = load_matrixmarket(args.mtx_a, args.mtx_b, args.mtx_c, args.mtx_z0, t_f=t_f)
        spec = BenchmarkSpec("matrixmarket", problem.n, problem.s, problem.ell,
                             args.seed, t_f, {"a": args.mtx_a})
    return problem, spec


def build_config(args):
    config = config_from_file(args.config) if args.config else SolverConfig()
    for f in fields(SolverConfig):
        if getattr(args, f.name) is not None:
            setattr(config, f.name, getattr(args, f.name))
    return config.validate()


def _write_manifest(out, args, spec, config):
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "problem": asdict(spec),
        "config": asdict(config),
        "seed": args.seed,
        "versions": {
            "krylov_dre": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# solver of each solve command (convergence is solve's trace under its own
# name) and of each compare method but the dense reference
SOLVERS = {"solve": solve, "convergence": solve, "baseline": solve_baseline, "eba": solve}
# bdf_log.csv column of each step_stats key
_BDF_LOG = (("orders", "order"), ("newton_iters", "newton_iterations"),
            ("schur_factorizations", "schur_factorizations"), ("care_residuals", "care_residual"),
            ("start_fallbacks", "start_fallbacks"))


def cmd_solve(args, out, problem, config):
    sample_times = np.linspace(0.0, problem.t_f, args.samples) if args.samples > 1 else None
    t0 = time.perf_counter()
    sol = SOLVERS[args.command](problem, config, sample_times=sample_times)
    wall = time.perf_counter() - t0
    if getattr(args, "arnoldi_diagnostics", False):
        _write_csv(out / "eba_diagnostics.csv",
                   ["m", "orthonormality_deviation", "relation_residual"],
                   _arnoldi.diagnostics_history(sol.basis))
    # integrations and root screens in the order they ran (column 5 is the
    # time since the solve started); a root screen integrates nothing, so it
    # leaves the integration columns blank
    rows = [(r.m, r.residual, r.rank, r.matvecs, r.solves, r.seconds, int(r.screen),
             int(r.skipped), r.integrate_s, r.schur_factorizations, r.euler_retakes,
             r.stationary_steps, 0, "") for r in sol.trace]
    rows += [(r.m, r.residual, "", "", "", r.seconds, 1, int(not r.accepted), r.screen_s,
              "", "", "", 1, r.transient) for r in sol.root_screens]
    _write_csv(out / "convergence.csv",
               ["m", "residual", "rank", "matvecs", "solves", "seconds", "screen", "skipped",
                "integrate_s", "schur_factorizations", "euler_retakes", "stationary_steps",
                "root_screen", "transient"],
               sorted(rows, key=lambda row: row[5]))
    _write_csv(out / "solution.csv",
               ["method", "m", "rank", "residual", "converged", "breakdown", "seconds"],
               [(sol.method, sol.m, sol.rank,
                 sol.residual.value if sol.residual else "",
                 int(sol.converged), int(sol.breakdown), wall)])
    ss = sol.step_stats
    log = [(key, col) for key, col in _BDF_LOG if key in ss]
    _write_csv(out / "bdf_log.csv", ["k", "t"] + [col for _, col in log],
               [(k + 1, (k + 1) * ss["h"], *row)
                for k, row in enumerate(zip(*(ss[key] for key, _ in log)))])
    if args.track and sol.samples:
        # entry (i, j) of X along the stored samples
        i, j = map(int, args.track.split(","))
        _write_csv(out / "trajectory.csv", ["t", f"X_{i}{j}"],
                   [(t, float(Z[i, :] @ Z[j, :])) for t, Z in sol.samples])
    residual = f" residual={sol.residual.value:.3e}" if sol.residual else ""
    print(f"{args.command}: m={sol.m} rank={sol.rank}{residual} "
          f"({len(sol.trace)} trace rows, {wall:.2f}s)")
    return 0


def cmd_reference(args, out, problem, config):
    if problem.n > MAX_ORACLE_N:
        raise SolverError(f"reference integrator limited to n <= {MAX_ORACLE_N}")
    h_ref = config.h
    n_samp = max(args.samples, 2)
    t_grid = np.linspace(0.0, problem.t_f, n_samp)
    t_grid = np.round(t_grid / h_ref) * h_ref
    t0 = time.perf_counter()
    xs = dense_reference_integrate(problem, h_ref, t_grid, p=config.p,
                                   care_tol=config.care_tol)
    wall = time.perf_counter() - t0
    rows = [(t, float(np.linalg.norm(X, "fro"))) for t, X in zip(t_grid, xs)]
    if args.track:
        i, j = map(int, args.track.split(","))
        rows = [(t, float(X[i, j]), fro) for (t, fro), X in zip(rows, xs)]
        _write_csv(out / "trajectory.csv", ["t", f"X_{i}{j}", "fro_norm"], rows)
    else:
        _write_csv(out / "trajectory.csv", ["t", "fro_norm"], rows)
    scipy.io.mmwrite(out / "final", xs[-1])
    print(f"reference: {len(t_grid)} samples ({wall:.2f}s)")
    return 0


def cmd_compare(args, out, problem, config):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in ("eba", "baseline", "reference")]
    if unknown:
        raise SolverError(f"unknown method {unknown[0]!r}")
    finals = {}
    timings = {}
    for name in methods:
        t0 = time.perf_counter()
        if name == "reference":
            X = dense_reference_integrate(problem, config.h / 10.0, [problem.t_f],
                                          p=config.p)[0]
            finals[name] = SignedFactor.from_psd(psd_factor(X, config.dtol)[0])
        else:
            finals[name] = SignedFactor.from_psd(SOLVERS[name](problem, config).Z)
        timings[name] = time.perf_counter() - t0
    rows = []
    for a in range(len(methods)):
        for b in range(a + 1, len(methods)):
            na, nb = methods[a], methods[b]
            diff = signed_diff_fro(finals[na], finals[nb])
            ref = max(signed_diff_fro(finals[na], None), 1e-300)
            rows.append((na, nb, diff, diff / ref))
    _write_csv(out / "compare.csv",
               ["method_a", "method_b", "diff_fro", "rel_diff_fro"], rows)
    _write_csv(out / "timings.csv", ["method", "seconds"],
               [(k, v) for k, v in timings.items()])
    for na, nb, diff, rel in rows:
        print(f"compare: {na} vs {nb}: fro diff {diff:.3e} (rel {rel:.3e})")
    return 0


def cmd_lqr(args, out, problem, config):
    rng = np.random.default_rng(args.seed + 1)
    x0 = rng.standard_normal(problem.n)
    n_samp = args.samples if args.samples > 1 else 51
    sample_times = np.linspace(0.0, problem.t_f, n_samp)
    handle = factorize(problem.A)
    sol = solve(problem, config, sample_times=sample_times, handle=handle)
    sched = gain_schedule(sol.samples, problem.B, problem.t_f)
    rows = [("riccati_factor", optimal_cost(sol, x0).value)]
    if args.simulate:
        sim = simulate_closed_loop(problem, sched, x0, args.h_sim)
        rows.append(("closed_loop_simulation", sim.cost))
    rows.append(("steady_state_quadratic",
                 optimal_cost(steady_state(problem, tol=config.tol, handle=handle), x0).value))
    _write_csv(out / "cost.csv", ["quantity", "value"], rows)
    if problem.n <= DENSE_GAIN_MAX_N:
        _write_csv(out / "gains.csv",
                   ["t"] + [f"K_{i}_{j}" for i in range(problem.ell)
                            for j in range(problem.n)],
                   [[t] + sched.dense_gain(jdx).ravel().tolist()
                    for jdx, t in enumerate(sched.times)])
    for name, value in rows:
        print(f"lqr: {name} = {value:.6e}")
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "baseline": cmd_solve,
    "reference": cmd_reference,
    "compare": cmd_compare,
    "convergence": cmd_solve,
    "lqr": cmd_lqr,
}


def make_parser():
    parser = argparse.ArgumentParser(prog="krylov-dre")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        _add_problem_args(p)
        _add_config_args(p)
        p.add_argument("--out", default=None, help="artifact directory")
        p.add_argument("--track", default=None, help="entry 'i,j' to dump along time")
        p.add_argument("--samples", type=int, default=0, help="trajectory samples to store")
        if name == "solve":
            p.add_argument("--arnoldi-diagnostics", action="store_true")
        if name == "compare":
            p.add_argument("--methods", default="eba,baseline")
        if name == "lqr":
            p.add_argument("--simulate", action="store_true")
            p.add_argument("--h-sim", type=float, default=1e-4)
    return parser


def cli_run(argv) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Path(args.out) if args.out else Path(f"runs/{args.command}-{int(time.time())}")
    out.mkdir(parents=True, exist_ok=True)
    try:
        problem, spec = build_problem(args)
        config = build_config(args)
        # written before the command runs, so a failed run still records its inputs
        _write_manifest(out, args, spec, config)
        return COMMANDS[args.command](args, out, problem, config)
    except (SolverError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        (out / "error.json").write_text(json.dumps(record, indent=2) + "\n")
        print(f"error: {record['error']}: {record['message']}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
