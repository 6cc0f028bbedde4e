"""Span tracing of the library from outside: wrappers around its public functions.

``Tracer.installed()`` rebinds every traced function at each name through
which the library looks it up.  A ``from .dense import solve_lyapunov`` in
another module is a second binding of the same function, so every module
global of the package that refers to a traced function is replaced, not only
the defining one; ``scipy.linalg.schur`` and ``lapack.dtrsyl`` are replaced in
``dense``'s view of those modules only.  The originals are restored on exit.

Each wrapper records a span: its wall time is added to the function's
inclusive total and, minus the time of the spans it encloses, to the self time
of its layer.  Work counts are read from arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from krylov_dre import (
    arnoldi, baseline, bdf, benchmarks, dense, lowrank, lqr, oracles, problem, solver,
)
from krylov_dre.errors import SolverError, StepFailure

LAYERS = ("benchmarks", "problem", "arnoldi", "solver", "bdf", "dense",
          "baseline", "lowrank", "oracles", "lqr")


class _ModuleView:
    """A module's attributes with a few of them replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Accumulates span times, call counts and work counts while installed."""

    def __init__(self):
        self.reset()
        self._patches = []

    def reset(self):
        self.inclusive = defaultdict(float)   # span name -> seconds
        self.calls = defaultdict(int)         # span name -> calls
        self.self_s = defaultdict(float)      # layer -> seconds outside child spans
        self.counts = defaultdict(float)      # work counts
        self.top_s = 0.0                      # seconds covered by outermost spans
        self.handles = []                     # operator handles made by factorize
        self.untimed_cols = [0, 0]            # their matvec and solve columns in excluded()
        self.bases = {}                       # id -> Krylov basis seen by expand
        self._stack = []                      # [span name, seconds of child spans]

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, name, after=None, on_error=None):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.parent()
            self._stack.append([name, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SolverError as exc:
                if on_error is not None:
                    on_error(self, args, kwargs, exc, parent)
                raise
            finally:
                elapsed = time.perf_counter() - start
                _, child_s = self._stack.pop()
                self.inclusive[name] += elapsed
                self.calls[name] += 1
                self.self_s[layer] += elapsed - child_s
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if after is not None:
                after(self, args, kwargs, result, parent)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Replace every package-level binding of fn by wrapper."""
        sites = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("krylov_dre"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding of {fn.__module__}.{fn.__name__} found")

    @contextmanager
    def installed(self):
        try:
            for fn, name, after, on_error in _TRACED:
                self._rebind(fn, self.wrap(fn, name, after, on_error))
            self._set(lowrank.SignedFactor, "compress",
                      self.wrap(lowrank.SignedFactor.compress, "lowrank.compress"))
            self._set(dense, "sla", _ModuleView(
                dense.sla, schur=self.wrap(dense.sla.schur, "dense.schur")))
            self._set(dense, "lapack", _ModuleView(
                dense.lapack, dtrsyl=self.wrap(dense.lapack.dtrsyl, "dense.trsyl")))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    @contextmanager
    def excluded(self):
        """Leave the work done on the kept operator handles in this block out of work_counts."""
        before = [(h.matvecs, h.solves) for h in self.handles]
        try:
            yield
        finally:
            for h, (matvecs, solves) in zip(self.handles, before):
                self.untimed_cols[0] += h.matvecs - matvecs
                self.untimed_cols[1] += h.solves - solves

    def work_counts(self):
        """Counts that are only known once the traced work has finished."""
        return {
            "problem.matvec_cols": sum(h.matvecs for h in self.handles) - self.untimed_cols[0],
            "problem.solve_cols": sum(h.solves for h in self.handles) - self.untimed_cols[1],
            "arnoldi.basis_cols": sum(b.V.shape[1] for b in self.bases.values()),
        }


def _keep_handle(tr, args, kwargs, handle, parent):
    tr.handles.append(handle)


def _keep_basis(tr, args, kwargs, outcome, parent):
    # also called on Breakdown, which leaves a completed basis behind
    tr.bases[id(args[0])] = args[0]


def _count_integration(tr, args, kwargs, traj, parent):
    config = args[5] if len(args) > 5 else kwargs["config"]
    tr.counts["bdf.steps"] += len(traj.orders)
    tr.counts["bdf.newton_iters"] += sum(traj.newton_iters)
    tr.counts["bdf.euler_retakes"] += euler_retakes(traj.orders, config.p)
    if parent == "solver.solve":
        tr.counts["solver.checks"] += 1


def _integration_failed(tr, args, kwargs, exc, parent):
    if parent == "solver.solve":
        tr.counts["solver.checks"] += 1
        if isinstance(exc, StepFailure):
            tr.counts["solver.skipped_m"] += 1


def _count_lyapunov(tr, args, kwargs, X, parent):
    k = np.shape(args[0] if args else kwargs["F"])[0]
    tr.counts["dense.lyap_k3"] += float(k) ** 3


def _count_solve(tr, args, kwargs, sol, parent):
    tr.counts["solver.solves"] += 1


def _count_baseline(tr, args, kwargs, sol, parent):
    tr.counts["baseline.time_steps"] += sol.m


def _steady_state_failed(tr, args, kwargs, exc, parent):
    tr.counts["lqr.steady_state_failures"] += 1


def euler_retakes(orders, p):
    """Steps taken at order 1 although the ramp allowed min(p, k)."""
    return sum(1 for k, order in enumerate(orders, 1) if order < min(p, k))


# (function, span name, hook on return, hook on SolverError)
_TRACED = (
    (benchmarks.gen_convdiff2d, "benchmarks.generate", None, None),
    (benchmarks.gen_heat1d_fem, "benchmarks.generate", None, None),
    (problem.factorize, "problem.factorize", _keep_handle, None),
    (arnoldi.seed, "arnoldi.seed", None, None),
    (arnoldi.expand, "arnoldi.expand", _keep_basis, _keep_basis),
    (arnoldi.projected_matrices, "arnoldi.project", None, None),
    (solver.solve, "solver.solve", _count_solve, None),
    (solver.residual_estimate, "solver.residual", None, None),
    (solver.extract_factor, "solver.extract", None, None),
    (solver._factor_samples, "solver.extract", None, None),
    (bdf.integrate, "bdf.integrate", _count_integration, _integration_failed),
    (dense.care_local_root, "dense.care", None, None),
    (dense.solve_care, "dense.solve_care", None, None),
    (dense.solve_lyapunov, "dense.lyapunov", _count_lyapunov, None),
    (baseline.solve_baseline, "baseline.solve_baseline", _count_baseline, None),
    (baseline.newton_step_large, "baseline.newton_step", None, None),
    (baseline.eba_lyapunov, "baseline.eba_lyapunov", None, None),
    (oracles.resolve_convention, "oracles.resolve_convention", None, None),
    (oracles.dense_reference_integrate, "oracles.reference_integrate", None, None),
    (oracles.exact_solution, "oracles.exact_solution", None, None),
    (lqr.gain_schedule, "lqr.gain_schedule", None, None),
    (lqr.optimal_cost, "lqr.optimal_cost", None, None),
    (lqr.steady_state, "lqr.steady_state", None, _steady_state_failed),
)
