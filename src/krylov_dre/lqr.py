"""Finite-horizon LQR quantities derived from a solved Riccati trajectory.

With X the solution at the final horizon, the optimal cost is
J(x0) = x0^T X(T_f) x0 and the optimal feedback at time t applies
u(t) = -B^T X(T_f - t) x(t); the time reversal is realized by indexing the
stored trajectory backwards, never by a second integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import arnoldi
from .dense import psd_factor, solve_care
from .errors import NotConverged
from .problem import factorize
from .solver import krylov_orders, residual_estimate

DENSE_GAIN_MAX_N = 500
DENSE_STEADY_MAX_N = 200
# Projected steady state: largest Krylov order tried; eigenvalue truncation of
# the returned factor (dense and projected).
STEADY_M_MAX = 60
STEADY_DTOL = 1e-12


@dataclass
class CostReport:
    value: float


@dataclass
class GainSchedule:
    """Factored feedback gains K(t) = -B^T X(T_f - t) on a sampled time grid.

    zs[j] is the factor of X(T_f - times[j]); bt_zs[j] caches B^T zs[j] so a
    gain application costs two skinny products.
    """

    times: np.ndarray
    zs: list
    bt_zs: list

    def apply(self, j, x):
        """u = K(times[j]) @ x without forming the dense gain."""
        return -(self.bt_zs[j] @ (self.zs[j].T @ x))

    def dense_gain(self, j):
        n = self.zs[j].shape[0]
        if n > DENSE_GAIN_MAX_N:
            raise ValueError(f"dense gains limited to n <= {DENSE_GAIN_MAX_N}")
        return -self.bt_zs[j] @ self.zs[j].T


def gain_schedule(samples, B, t_f) -> GainSchedule:
    """Build the schedule from factored trajectory samples [(t, Z_t), ...].

    The samples must cover [0, t_f]; sample times are mapped through
    t -> t_f - t so the schedule is indexed by control time.
    """
    ts = np.array([t for t, _ in samples])
    if ts.min() > 1e-12 or ts.max() < t_f - 1e-12:
        raise ValueError("samples must cover [0, t_f]")
    control_t = t_f - ts[::-1]
    zs = [Z for _, Z in samples][::-1]
    return GainSchedule(times=control_t, zs=zs, bt_zs=[B.T @ Z for Z in zs])


def optimal_cost(solution, x0) -> CostReport:
    """J = ||Z^T x0||^2 from the final-time factor, without forming X."""
    Z = solution if isinstance(solution, np.ndarray) else solution.Z
    v = Z.T @ np.asarray(x0, dtype=float)
    return CostReport(value=float(v @ v))


@dataclass
class SimulationResult:
    times: np.ndarray
    outputs_sq: np.ndarray
    inputs_sq: np.ndarray
    cost: float


def simulate_closed_loop(problem, schedule, x0, h_sim) -> SimulationResult:
    """Implicit-Euler simulation of dx/dt = (A - B B^T X(T_f - t)) x.

    The gain is held constant on each schedule interval (evaluated at the
    interval end, matching the implicit discretization) and the realized cost
    int (y^T y + u^T u) dt is accumulated by the trapezoid rule.  With
    schedule=None the loop is open (u = 0).  h_sim must divide the schedule
    sampling step.
    """
    A = problem.A.toarray() if sp.issparse(problem.A) else np.asarray(problem.A, float)
    n = A.shape[0]
    B, C = problem.B, problem.C
    t_f = problem.t_f
    x = np.asarray(x0, dtype=float).copy()

    if schedule is None:
        edges = np.array([0.0, t_f])
    else:
        edges = schedule.times
        if abs(edges[0]) > 1e-12 or abs(edges[-1] - t_f) > 1e-9:
            raise ValueError("schedule must cover [0, t_f]")

    times = [0.0]
    y = C @ x
    u = np.zeros(B.shape[1]) if schedule is None else schedule.apply(0, x)
    outputs_sq = [float(y @ y)]
    inputs_sq = [float(u @ u)]

    eye = np.eye(n)
    t = 0.0
    for j in range(len(edges) - 1):
        span = edges[j + 1] - edges[j]
        n_sub = int(round(span / h_sim))
        if n_sub < 1 or abs(span / h_sim - n_sub) > 1e-6:
            raise ValueError("h_sim must divide the schedule sampling step")
        if schedule is None:
            M = eye - h_sim * A
            K_idx = None
        else:
            K_idx = j + 1
            K = schedule.dense_gain(K_idx)
            M = eye - h_sim * (A + B @ K)
        lu = sla.lu_factor(M)
        for _ in range(n_sub):
            x = sla.lu_solve(lu, x)
            t += h_sim
            y = C @ x
            u = np.zeros(B.shape[1]) if K_idx is None else schedule.apply(K_idx, x)
            times.append(t)
            outputs_sq.append(float(y @ y))
            inputs_sq.append(float(u @ u))

    o = np.array(outputs_sq)
    i = np.array(inputs_sq)
    ts = np.array(times)
    cost = float(np.trapezoid(o + i, ts))
    return SimulationResult(times=ts, outputs_sq=o, inputs_sq=i, cost=cost)


def steady_state(problem, tol=1e-10, handle=None):
    """Infinite-horizon solution of A^T X + X A - X BB^T X + C^T C = 0.

    The stabilizing CARE Newton (solve_care) on the full equation for
    n <= 200; beyond that, Galerkin projection on the same extended Krylov
    subspaces as the trajectory solver, with the projected equation solved by
    solve_care (warm started across m) and the coupling-block residual as the
    stop test.  Returns a factor Z with X ~ Z Z^T, truncated at STEADY_DTOL,
    in both cases.  Raises NotConverged when STEADY_M_MAX is hit or the basis
    breaks down before the residual passes, and solve_care's errors as they
    come.  handle is the factorization of A when the caller has it already,
    as for solve.
    """
    n = problem.n
    B, C = problem.B, problem.C
    if n <= DENSE_STEADY_MAX_N:
        A = problem.A.toarray() if sp.issparse(problem.A) else np.asarray(problem.A, float)
        X = solve_care(A, B, C.T @ C, tol=tol * 1e-2)
        return psd_factor(X, STEADY_DTOL)[0]

    Y = None
    res = np.inf
    handle = factorize(problem.A) if handle is None else handle
    for basis, _ in krylov_orders(problem, handle, STEADY_M_MAX):
        T_m, B_m, C_m = arnoldi.projected_matrices(basis, B)
        warm = None if Y is None else np.pad(Y, (0, T_m.shape[0] - Y.shape[0]))
        Y = solve_care(T_m.T, B_m, C_m.T @ C_m, x_init=warm, tol=1e-14)
        res = residual_estimate(basis, Y).value
        if res < tol:
            return basis.basis_matrix() @ psd_factor(Y, STEADY_DTOL)[0]
    raise NotConverged(basis.order, res, breakdown=basis.breakdown)
