"""Desk-scale ground truth: closed-form trajectory and a dense reference integrator.

The closed form of dX/dt = A^T X + X A - X BB^T X + C^T C follows from the
Bernoulli substitution.  Let Xt be the stabilizing algebraic solution and
At = A - B B^T Xt its closed loop.  D = X - Xt obeys

    dD/dt = At^T D + D At - D B B^T D,

so W = D^{-1} - Zt, with At Zt + Zt At^T = B B^T, obeys the linear equation
dW/dt = -At W - W At^T, i.e. W(t) = e^{-t At} W(0) e^{-t At^T}.  Inverting,

    X(t) = Xt + e^{t At^T} [ e^{t At} Zt e^{t At^T} + (X0 - Xt)^{-1} - Zt ]^{-1} e^{t At}.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .bdf import integrate
from .dense import solve_care, solve_lyapunov, symmetrize
from .errors import (
    MaxIterations,
    NoStabilizingGuess,
    NotStabilizable,
    SingularBracket,
    UnstableClosedLoop,
)
from .problem import SolverConfig

MAX_ORACLE_N = 200


def _dense_a(problem):
    if problem.n > MAX_ORACLE_N:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_N}, got {problem.n}")
    A = problem.A
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)


def oracle_data(problem):
    """(Xt, At, Zt): algebraic solution, closed loop and Lyapunov companion for the formula."""
    A = _dense_a(problem)
    B, C = problem.B, problem.C
    try:
        Xt = solve_care(A, B, C.T @ C, tol=1e-13)
    except MaxIterations:
        Xt = solve_care(A, B, C.T @ C, tol=1e-10)
    except (NoStabilizingGuess, UnstableClosedLoop) as exc:
        raise NotStabilizable(str(exc)) from exc
    At = A - B @ (B.T @ Xt)
    # solve At Z + Z At^T = B B^T  <=>  (At^T)^T Z + Z At^T - B B^T = 0
    Zt = solve_lyapunov(At.T, -(B @ B.T))
    return Xt, At, Zt


def dense_reference_integrate(problem, h_ref, t_grid, p=2, care_tol=1e-13):
    """Dense BDF(p) integration of the full equation, sampled on t_grid.

    Plays the role of an independent stiff reference at n <= 200: the full
    matrix equation (linear term A^T X + X A) is stepped directly, with a
    dense CARE per step.
    """
    A = _dense_a(problem)
    X0 = problem.Z0 @ problem.Z0.T
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    t_end = float(t_grid.max()) if t_grid.size else 0.0
    for t in t_grid:
        if abs(t / h_ref - round(t / h_ref)) > 1e-6:
            raise ValueError(f"t={t} is not a multiple of h_ref={h_ref}")
    config = SolverConfig(p=p, h=h_ref, care_tol=care_tol, m_max=1).validate()
    traj = integrate(A.T, problem.B, problem.C, X0, t_end, config, sample_times=t_grid)
    out = []
    for t in t_grid:
        idx = int(np.argmin(np.abs(traj.times - t)))
        if abs(traj.times[idx] - t) > 0.5 * h_ref:
            raise ValueError(f"requested time {t} not stored")
        out.append(traj.ys[idx])
    return out


def resolve_convention(force=False):
    """The (Zt equation sign, trailing factor) pair of the closed form: derived, not probed.

    ("as_printed", "plain") is At Zt + Zt At^T = + B B^T with the trailing
    factor e^{t At}; see the module docstring.  force is accepted and ignored.
    """
    return ("as_printed", "plain")


def exact_solution(problem, t):
    """Closed-form X(t); requires n <= 200, X(0) positive definite."""
    X0 = problem.Z0 @ problem.Z0.T
    lam = np.linalg.eigvalsh(symmetrize(X0))
    if lam.min() <= 0.0:
        raise ValueError("closed-form trajectory requires X(0) > 0")
    Xt, At, Zt = oracle_data(problem)
    D0 = X0 - Xt
    E = sla.expm(t * At)
    try:
        inv_d0 = np.linalg.inv(D0)
    except np.linalg.LinAlgError as exc:
        raise SingularBracket("X0 - Xtilde is singular") from exc
    bracket = E @ Zt @ E.T + inv_d0 - Zt
    cond = np.linalg.cond(bracket)
    if not np.isfinite(cond):
        raise SingularBracket("bracketed matrix is singular")
    if cond > 1e12:
        warnings.warn(f"bracket condition number {cond:.2e}", stacklevel=2)
    try:
        core = np.linalg.inv(bracket)
    except np.linalg.LinAlgError as exc:
        raise SingularBracket("bracketed matrix is singular") from exc
    return symmetrize(Xt + E.T @ core @ E)
