"""The benchmark's workloads: seeded set-up, the timed operation, output checks.

A workload object holds a run's seed.  ``setup(i)`` (timed as set-up) builds
the run's i-th problem, the first from the run's seed itself and the others
from seeds derived from it, so a run averages over a stream of problems
instead of timing one.  A workload with ``fresh_problems = False`` builds the
run's seed's problem every time instead.  ``prepare`` does untimed work on it
(the reference a check compares with) and ``operate`` runs one closed-loop
operation on it, calling the library through module attributes so that the
tracer's rebinding sees every call.  ``verify`` checks the outputs afterwards,
outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from krylov_dre import baseline, benchmarks, lowrank, lqr, oracles, problem, solver
from krylov_dre.errors import SolverError
from krylov_dre.problem import DREProblem, SolverConfig

from tracing import euler_retakes

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# x0^T X(T_f) x0 at the default seeds must match the recorded values this closely
REFERENCE_RTOL = 1e-7
QUAD_PROBES = 3


@dataclass
class Outcome:
    """What one operation did: library calls attempted and failed, and its results."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)     # typed SolverError messages
    wrong: list = field(default_factory=list)      # failed output checks
    quad: list = field(default_factory=list)       # x0^T X(T_f) x0 per probe
    krylov_m: int = 0
    factor_rank: int = 0
    checks: int = 0                  # checked m of the solve (ConvergenceRecords)
    final_steps: int = 0             # BDF steps of the returned trajectory
    final_retakes: int = 0           # of which retaken as implicit Euler

    def call(self, label, fn, *args, **kwargs):
        """Run one library call; a SolverError counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except SolverError as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, label, ok, detail=""):
        """Output check of a call that returned; a failure counts against it."""
        if not ok:
            self.failed += 1
            self.wrong.append(f"{label}: {detail}")

    def agreement_key(self):
        """Results that tracing must leave exactly unchanged."""
        return (self.krylov_m, self.factor_rank, self.checks,
                self.final_steps, self.final_retakes)


def _probes(seed, n):
    return np.random.default_rng([seed, 1]).standard_normal((n, QUAD_PROBES))


def _quad(Z, X0):
    """x0^T Z Z^T x0 for each probe column."""
    v = Z.T @ X0
    return [float(x) for x in np.einsum("ij,ij->j", v, v)]


def _check_certified(out, label, sol, tol):
    finite = bool(np.isfinite(sol.Z).all())
    res = sol.residual.value if sol.residual is not None else np.inf
    out.check(label, finite and sol.converged and res < tol,
              f"finite={finite} converged={sol.converged} residual={res:.3e} tol={tol:g}")


def _record_solve(out, sol, p):
    out.krylov_m = sol.m
    out.factor_rank = sol.rank
    out.checks = len(sol.trace)
    orders = sol.step_stats["orders"]
    out.final_steps = len(orders)
    out.final_retakes = euler_retakes(orders, p)


class Workload:
    name = ""
    default_seed = 0
    fresh_problems = True

    def __init__(self, seed):
        self.seed = seed
        self.instance = None

    def setup(self, i):
        """Build the run's i-th problem: the run's seed for i = 0, derived seeds after."""
        self.instance = i
        if i == 0 or not self.fresh_problems:
            self.build(self.seed)
        else:
            self.build(int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0]))

    def prepare(self):
        """Untimed work after each set-up."""

    def check_reference(self, out):
        """On the default seed's own problem, compare x0^T X(T_f) x0 with the recorded values."""
        if self.seed != self.default_seed or self.instance != 0:
            return
        recorded = json.loads(REFERENCE_FILE.read_text())[self.name]
        ok = len(recorded) == len(out.quad) and all(
            abs(a - b) <= REFERENCE_RTOL * abs(b) for a, b in zip(out.quad, recorded))
        if not ok:
            out.wrong.append(f"reference: x0'X(Tf)x0 {out.quad} != recorded {recorded}")


class ConvDiff(Workload):
    name = "convdiff-n900"
    default_seed = 11
    # tol sits between the residuals at m=17 and m=18 of every seed tried
    # (1e-10 splits them between m=18 and m=19)
    config = SolverConfig(p=2, h=5e-3, tol=3e-10, m_max=30)

    def build(self, seed):
        self.problem = benchmarks.gen_convdiff2d(30, seed=seed, t_f=1.0)
        self.handle = problem.factorize(self.problem.A)
        self.x0 = _probes(seed, self.problem.n)

    def operate(self):
        out = Outcome()
        sol = out.call("solve", solver.solve, self.problem, self.config, handle=self.handle)
        return out, sol

    def verify(self, out, sol):
        if sol is None:
            return
        _check_certified(out, "solve", sol, self.config.tol)
        _record_solve(out, sol, self.config.p)
        out.quad = _quad(sol.Z, self.x0)


class HeatLQR(Workload):
    name = "heat-lqr-n1600"
    default_seed = 5
    config = SolverConfig(p=2, h=5e-3, tol=1e-10, m_max=20)
    sample_times = np.linspace(0.0, 1.0, 21)

    def build(self, seed):
        self.problem = benchmarks.gen_heat1d_fem(1600, seed=seed, t_f=1.0)
        self.handle = problem.factorize(self.problem.A)
        self.x0 = _probes(seed, self.problem.n)

    def operate(self):
        out = Outcome()
        pr = self.problem
        sol = out.call("solve", solver.solve, pr, self.config,
                       sample_times=self.sample_times, handle=self.handle)
        if sol is None:
            return out, (None, None, None, None)
        sched = out.call("gain_schedule", lqr.gain_schedule, sol.samples, pr.B, pr.t_f)
        cost = out.call("optimal_cost", lqr.optimal_cost, sol, self.x0[:, 0])
        z_inf = out.call("steady_state", lqr.steady_state, pr)
        return out, (sol, sched, cost, z_inf)

    def verify(self, out, result):
        sol, sched, cost, z_inf = result
        if sol is None:
            return
        _check_certified(out, "solve", sol, self.config.tol)
        _record_solve(out, sol, self.config.p)
        out.quad = _quad(sol.Z, self.x0)
        samples_ok = (len(sol.samples) == len(self.sample_times)
                      and all(np.isfinite(Z).all() for _, Z in sol.samples))
        out.check("solve.samples", samples_ok, f"{len(sol.samples)} samples")
        if sched is not None:
            out.check("gain_schedule",
                      len(sched.times) == len(self.sample_times)
                      and all(np.isfinite(g).all() for g in sched.bt_zs),
                      f"{len(sched.times)} gains")
        if cost is not None:
            out.check("optimal_cost", abs(cost.value - out.quad[0]) <= 1e-12 * out.quad[0],
                      f"J={cost.value!r} vs |Z'x0|^2={out.quad[0]!r}")
        if z_inf is not None:
            # X(0) = 0, so X(t) increases towards the steady state
            j_inf = _quad(z_inf, self.x0[:, :1])[0]
            out.check("steady_state",
                      np.isfinite(z_inf).all() and j_inf >= out.quad[0] * (1 - 1e-8),
                      f"x0'Xinf x0={j_inf!r} < x0'X(Tf)x0={out.quad[0]!r}")


class BaselineHeat(Workload):
    name = "baseline-heat-n900"
    default_seed = 7
    # one problem per run: whether its operations fail depends on the seed,
    # not on how many operations fit into the run
    fresh_problems = False
    config = SolverConfig(p=2, h=1e-3, tol=1e-8, m_max=30, care_tol=1e-10, dtol=1e-11)
    agreement_rtol = 1e-5

    def build(self, seed):
        self.problem = benchmarks.gen_heat1d_fem(900, seed=seed, t_f=0.1)
        self.handle = problem.factorize(self.problem.A)
        self.x0 = _probes(seed, self.problem.n)

    def prepare(self):
        # the certified primary solve the baseline is checked against
        self.primary = solver.solve(self.problem, self.config, handle=self.handle)
        out = Outcome()
        _check_certified(out, "primary solve", self.primary, self.config.tol)
        if out.wrong:
            raise SolverError(out.wrong[0])
        self.primary_f = lowrank.SignedFactor.from_psd(self.primary.Z)
        self.primary_norm = lowrank.signed_diff_fro(self.primary_f, None)

    def operate(self):
        out = Outcome()
        sol = out.call("solve_baseline", baseline.solve_baseline, self.problem, self.config)
        return out, sol

    def verify(self, out, sol):
        if sol is None:
            return
        diff = lowrank.signed_diff_fro(self.primary_f, lowrank.SignedFactor.from_psd(sol.Z))
        rel = diff / self.primary_norm
        out.check("solve_baseline", np.isfinite(sol.Z).all() and rel <= self.agreement_rtol,
                  f"relative difference to the primary solve {rel:.3e}")
        out.krylov_m = self.primary.m    # order of the certified factor compared with
        out.factor_rank = sol.rank
        out.quad = _quad(sol.Z, self.x0)


class OracleC6(Workload):
    """The closed-form oracle checked against the dense reference integrator.

    Each problem is built as in the criterion-6 acceptance test, but all are
    of one size, so that every operation does the same amount of work.
    """

    name = "oracle-c6"
    default_seed = 424242
    n = 7
    h_ref = 1e-4
    times = (0.1, 0.5, 1.0)
    max_rel_err = 1e-6

    def __init__(self, seed):
        super().__init__(seed)
        self.conventions = set()   # one per set-up; exactly one may be chosen

    def build(self, seed):
        self.conventions.add(oracles.resolve_convention(force=True))
        n = self.n
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) - (2.5 + rng.uniform()) * np.eye(n)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        L = 0.3 * rng.standard_normal((n, n))
        Z0 = np.linalg.cholesky(L @ L.T + 0.4 * np.eye(n))
        self.problem = DREProblem(A=A, B=B, C=C, Z0=Z0, t_f=1.0)
        self.x0 = _probes(seed, n)

    def operate(self):
        out = Outcome()
        refs = out.call("dense_reference_integrate", oracles.dense_reference_integrate,
                        self.problem, self.h_ref, list(self.times))
        exact = [out.call("exact_solution", oracles.exact_solution, self.problem, t)
                 for t in self.times]
        return out, (refs, exact)

    def verify(self, out, result):
        refs, exact = result
        out.check("resolve_convention", len(self.conventions) == 1,
                  f"conventions chosen: {sorted(self.conventions)}")
        if refs is None:
            return
        errs = [np.linalg.norm(Xe - Xr) / np.linalg.norm(Xr)
                for Xr, Xe in zip(refs, exact) if Xe is not None]
        out.check("exact_solution", max(errs, default=0.0) <= self.max_rel_err,
                  f"worst relative error {max(errs, default=0.0):.3e} > {self.max_rel_err:g}")
        out.quad = [float(x @ refs[-1] @ x) for x in self.x0.T]


WORKLOADS = {w.name: w for w in (ConvDiff, HeatLQR, BaselineHeat, OracleC6)}
