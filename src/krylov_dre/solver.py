"""Projection solver: extended block Krylov outer loop around projected BDF.

For m = 1, 2, ... the basis of K^e_m(A^T, C^T) is grown, the projected DRE is
integrated on [0, t_f], and the residual norm of the full equation at the
final time is obtained from the coupling row of T alone:

    ||R_m(t_f)|| = ||T_{m+1,1:m} Y_m(t_f)||,

which is the paper's ||T_{m+1,m} Yhat_m(t_f)|| in exact arithmetic, with
Yhat_m the last 2s rows of Y_m(t_f): the rest of the row vanishes there.  No
n-dimensional product is formed until the factor of the returned solution is
assembled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import arnoldi
from .bdf import integrate
from .dense import SchurFactor, care_local_root, psd_factor, solve_care, symmetrize
from .errors import (Breakdown, IndefiniteY, NotConverged, SolverError, SpectrumIncompatible,
                     StepFailure)
from .problem import DREProblem, SolverConfig, factorize

# Eigenvalues of Y below -PSD_RTOL * sigma_max fail the PSD check of the
# factor extraction; anything above is dropped or kept by the dtol rule.
PSD_RTOL = 1e-8
# Implicit-Euler steps over [0, t_f] of the screen that precedes the
# configured BDF(p) run at each m.
SCREEN_STEPS = 20
# A screen's first WARM_STEPS steps start their CARE from the previous
# order's screen iterates at the same steps.  Warming later steps too costs
# more: the forced iteration of a warm step cancels the stationary-tail skip.
WARM_STEPS = 2
# A screen residual within SCREEN_SAFETY * tol ends screening at m, unless
# the screen was stationary (an Euler screen that went stationary, or an
# accepted root screen): then it sits at the projected CARE root, where the
# configured run ends too, and it is compared with tol itself.  On convdiff2d
# the first Euler screen goes stationary and the later orders are
# root-screened, which read the configured residual at the returned m to
# 5.3e-6 relative or better.  heat1d screens (t_f=1) never go stationary,
# and overestimate the configured residual by up to 4.29x at the returned m.
# A larger overestimate can pass over the first passing order; a higher one
# is returned.
SCREEN_SAFETY = 4.0
# A root screen is accepted when its transient dY is at most ROOT_TRANSIENT *
# ||X~||_2.  The trajectory has then decayed onto the root: X~ + dY cannot
# cancel, as the closed form does on heat1d where ||X~|| >> ||Y(t_f)||, and
# the screen reads the root the configured run ends at.  The value leaves
# room on both sides: convdiff2d transients are at most 8.6e-33 of ||X~||,
# while heat1d ones, which never reach a root screen, are 0.38-1.0 of it at
# t_f=1 and 3.4e-8-4.6e-7 at t_f=50.
ROOT_TRANSIENT = 1e-8


@dataclass
class ResidualEstimate:
    """||T_{m+1,1:m} Y_m||_2 with the coupling row; 0 on clean breakdown."""

    value: float


@dataclass
class ConvergenceRecord:
    """One integration at order m: the screen's or the configured one.

    skipped marks an integration that raised StepFailure (residual inf).
    integrate_s is the integration's wall time; schur_factorizations (failed
    BDF(p) attempts included), euler_retakes and stationary_steps are its
    trajectory's totals, 0 when it was skipped.
    """

    m: int
    residual: float
    rank: int
    matvecs: int
    solves: int
    seconds: float
    screen: bool = False
    skipped: bool = False
    integrate_s: float = 0.0
    schur_factorizations: int = 0
    euler_retakes: int = 0
    stationary_steps: int = 0


@dataclass
class RootScreenRecord:
    """An order screened by its projected CARE root X~, without an integration.

    residual is basis.residual_norm(X~ + dY) and transient ||dY||_2/||X~||_2,
    both inf when root_screen found no root.  accepted marks a transient
    within ROOT_TRANSIENT; an order whose root screen was not accepted got an
    Euler screen.  seconds is the time since the solve started, as in
    ConvergenceRecord, and screen_s the root screen's own wall time.
    """

    m: int
    residual: float
    transient: float
    accepted: bool
    seconds: float
    screen_s: float


@dataclass
class LowRankSolution:
    """Final-time approximation X(t_f) ~ Z Z^T plus convergence metadata."""

    Z: np.ndarray
    rank: int
    residual: ResidualEstimate | None
    m: int
    converged: bool = True
    breakdown: bool = False
    method: str = "eba-bdf"
    y_final: np.ndarray | None = None
    basis: object = None
    trace: list = field(default_factory=list)
    root_screens: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    step_stats: dict = field(default_factory=dict)

    def to_dense(self):
        return self.Z @ self.Z.T


def residual_estimate(basis, y_final) -> ResidualEstimate:
    """Cheap residual norm of the full DRE at the final time: basis.residual_norm.

    Exact for the trajectory satisfying the projected equation; at the
    discrete level it matches the BDF-defect residual up to the per-step CARE
    tolerance.
    """
    return ResidualEstimate(value=basis.residual_norm(np.asarray(y_final)))


def extract_factor(basis, y_final, dtol, residual=None, psd=None) -> LowRankSolution:
    """Recover Z with V Y V^T ~ Z Z^T without forming the n-by-n product.

    Y must be PSD up to a small negative tolerance; eigenvalues below
    -1e-8 * sigma_max raise IndefiniteY, small negatives are dropped.
    psd is psd_factor(Y, dtol) when the caller has it already.
    """
    Y = symmetrize(np.asarray(y_final, dtype=float))
    G, lam = psd_factor(Y, dtol) if psd is None else psd
    if lam.size and lam[-1] < -PSD_RTOL * np.abs(lam).max():
        raise IndefiniteY(
            f"min eigenvalue {lam[-1]:.3e} below -{PSD_RTOL:g}*sigma_max; a smaller h, "
            "a longer t_f or p=1 (which keeps Y PSD) avoids it"
        )
    Z = basis.basis_matrix() @ G
    return LowRankSolution(
        Z=Z,
        rank=Z.shape[1],
        residual=residual,
        m=basis.order,
        breakdown=basis.breakdown,
        y_final=Y,
        basis=basis,
    )


def _project_initial(basis, Z0):
    G = basis.basis_matrix().T @ Z0
    return G @ G.T


def root_screen(T_m, B_m, C_m, Y0, t_f, x_prev, care_tol):
    """Y_m(t_f) in closed form about the projected CARE root: (X~, dY), or None.

    X~, the root of T X + X T^T - X B_m B_m^T X + C_m^T C_m = 0, is reached
    by care_local_root from x_prev (a smaller nested order's root) padded
    with zeros; the first iteration is forced, so the padded rows are solved
    for even when the padded start passes the stop test.  One Schur factor of
    the closed loop Ac = T^T - B_m B_m^T X~ gives its stability and Z, with
    Ac Z + Z Ac^T = B_m B_m^T; a root that is not stabilizing (or whose
    closed loop makes that equation singular) is replaced by solve_care's
    from a cold start.  With E = e^{t_f Ac}, W = E Z E^T - Z and
    D0 = Y0 - X~, the projected DRE's exact trajectory ends at X~ + dY with
    dY = E^T D0 (I + W D0)^{-1} E, the Bernoulli substitution of
    oracles.exact_solution with D0 never inverted.
    None stands for a SolverError, a singular I + W D0 or a non-finite result.
    """
    A, G, Q = T_m.T, B_m @ B_m.T, C_m.T @ C_m
    k = A.shape[0]
    try:
        X = care_local_root(A, B_m, Q, np.pad(x_prev, (0, k - x_prev.shape[0])),
                            tol=care_tol, forced=True)[0]
        closed = A - G @ X
        try:
            factor = SchurFactor(closed.T)
            stable = factor.eigenvalues.real.max() < 0.0
        except SpectrumIncompatible:
            stable = False
        if not stable:
            X = solve_care(A, B_m, Q, tol=care_tol)
            closed = A - G @ X
            factor = SchurFactor(closed.T)
        Z = factor.solve(-G)
        E = sla.expm(t_f * closed)
        D0 = Y0 - X
        dY = E.T @ D0 @ np.linalg.solve(np.eye(k) + (E @ Z @ E.T - Z) @ D0, E)
    except (SolverError, np.linalg.LinAlgError):
        return None
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(dY))):
        return None
    return X, symmetrize(dY)


def krylov_orders(problem, handle, m_max):
    """Grow the extended Krylov basis of (A^T, C^T), yielding (basis, last).

    A yield follows every expansion; last is True on the final yield (m_max
    reached or the subspace found invariant, in which case basis.breakdown is
    set).
    """
    basis = arnoldi.seed(handle, problem.C)
    for m in range(1, m_max + 1):
        try:
            arnoldi.expand(basis, handle)
        except Breakdown:
            yield basis, True
            return
        yield basis, m == m_max


def solve(problem: DREProblem, config: SolverConfig, sample_times=None,
          handle=None) -> LowRankSolution:
    """Run the outer projection loop until the residual stop test passes.

    The projected DRE is re-integrated from t = 0 at every checked m (the
    projected state lives in a different space each time); the residual is
    tested at the final time only.  When config.h takes more than
    SCREEN_STEPS steps to t_f, each m is first screened, and the configured
    BDF(p) runs only to certify.  When order m - 1's screen was stationary,
    order m is screened by root_screen from its end state: the projected
    CARE root plus the closed-form transient, accepted when that transient
    is within ROOT_TRANSIENT of the root.  Every other order, and one whose
    root screen failed or was not accepted, gets an implicit-Euler screen
    with SCREEN_STEPS steps.  The spaces are nested, so an Euler screen that
    follows one that did not go stationary starts the CARE of its first
    WARM_STEPS steps from that screen's iterates padded with zeros;
    configured runs always start from their own history.  The first m whose
    screen residual is within SCREEN_SAFETY * tol ends screening, or within
    tol itself when the screen was stationary (an Euler screen whose
    trajectory reached the projected CARE root, or an accepted root screen;
    the configured run ends at that root too); from there on, in one upward
    pass, each order gets the configured check until one passes.  An Euler
    screen that raises StepFailure and the last m get it too.  So the result
    is the first passing order at or above the candidate, integrated exactly
    as without the screen; it is the unscreened answer whenever the screen
    at that order is within SCREEN_SAFETY * tol, or within tol when
    stationary.  Only this schedule departs from the paper's method, which
    integrates at every order: each returned order is certified by its own
    BDF(p) run.

    Breakdown of the Arnoldi process ends the loop: the returned solution is
    flagged when the residual passes there (exactly 0 for an invariant
    subspace).  Raises NotConverged, with the last configured residual, when
    m_max is hit or the basis breaks down before the residual passes, so
    every returned factor is certified.  The trace holds one record per
    integration, in order; the last is the returned check's.  A root screen
    integrates nothing: root_screens holds one RootScreenRecord per root
    screen, in order.

    sample_times requests factored snapshots X(t) ~ Z_t Z_t^T along the
    converged trajectory, returned in LowRankSolution.samples.
    """
    config.validate()
    handle = factorize(problem.A) if handle is None else handle
    screen = None
    if problem.t_f / config.h > SCREEN_STEPS:
        screen = replace(config, p=1, h=problem.t_f / SCREEN_STEPS)
        warm_times = screen.h * np.arange(1, WARM_STEPS + 1)
    starts = None     # the last screen's iterates at steps 1..WARM_STEPS, when it moved
    root = None       # the last screen's end state, when it was stationary
    trace, root_rows = [], []
    t0 = time.perf_counter()

    def check(cfg, last=False):
        """Integrate at the basis's order with cfg and record it: (row, outcome).

        outcome is (trajectory, estimate, psd factor), or None after a
        StepFailure, which is raised at the last m.
        """
        T_m, B_m, C_m = arnoldi.projected_matrices(basis, problem.B)
        Y0 = _project_initial(basis, problem.Z0)
        screening = cfg is not config
        t_int = time.perf_counter()
        try:
            traj = integrate(T_m, B_m, C_m, Y0, problem.t_f, cfg,
                             sample_times=warm_times if screening else sample_times,
                             starts=starts if screening else None)
        except StepFailure:
            # A too-small subspace can make a projected step equation
            # unsolvable; a richer basis restores it.  Treat like a residual
            # test that does not pass and keep expanding.
            if last:
                raise
            traj = None
        integrate_s = time.perf_counter() - t_int
        if traj is None:
            outcome, residual, rank, stats = None, np.inf, 0, (0, 0, 0)
        else:
            est = residual_estimate(basis, traj.final)
            psd = psd_factor(traj.final, config.dtol)
            outcome, residual, rank = (traj, est, psd), est.value, psd[0].shape[1]
            stats = (sum(traj.schur_factorizations), traj.euler_retakes,
                     traj.stationary_steps)
        row = ConvergenceRecord(
            m=basis.order, residual=residual, rank=rank, matvecs=handle.matvecs,
            solves=handle.solves, seconds=time.perf_counter() - t0, screen=screening,
            skipped=outcome is None, integrate_s=integrate_s, schur_factorizations=stats[0],
            euler_retakes=stats[1], stationary_steps=stats[2],
        )
        trace.append(row)
        return row, outcome

    def screen_by_root(x_prev):
        """Root-screen the basis's order from x_prev and record it: X~ if accepted, else None."""
        T_m, B_m, C_m = arnoldi.projected_matrices(basis, problem.B)
        t_root = time.perf_counter()
        found = root_screen(T_m, B_m, C_m, _project_initial(basis, problem.Z0), problem.t_f,
                            x_prev, config.care_tol)
        X, residual, transient, accepted = None, np.inf, np.inf, False
        if found is not None:
            X, dY = found
            x_norm, dy_norm = float(np.linalg.norm(X, 2)), float(np.linalg.norm(dY, 2))
            accepted = dy_norm <= ROOT_TRANSIENT * x_norm
            transient = dy_norm / x_norm if x_norm > 0.0 else np.inf
            residual = basis.residual_norm(X + dY)
        now = time.perf_counter()
        root_rows.append(RootScreenRecord(m=basis.order, residual=residual, transient=transient,
                                          accepted=accepted, seconds=now - t0,
                                          screen_s=now - t_root))
        return X if accepted else None

    for basis, last in krylov_orders(problem, handle, config.m_max):
        if screen is not None and not last:
            if root is not None:
                root = screen_by_root(root)
            if root is not None:
                if not root_rows[-1].residual <= config.tol:
                    continue
                screen = None
            else:
                row, outcome = check(screen)
                starts = None
                if outcome is not None:
                    traj = outcome[0]
                    if row.stationary_steps:
                        root = traj.final
                    else:
                        starts = traj.ys[1:WARM_STEPS + 1]
                    limit = config.tol if row.stationary_steps else SCREEN_SAFETY * config.tol
                    if not row.residual <= limit:
                        continue
                    # the first passing screen ends screening, whatever m's check gives
                    screen = None
        row, outcome = check(config, last)
        if row.residual < config.tol:
            break
    else:
        raise NotConverged(basis.order, trace[-1].residual, breakdown=basis.breakdown)

    traj, est, psd = outcome
    sol = extract_factor(basis, traj.final, config.dtol, residual=est, psd=psd)
    sol.trace, sol.root_screens = trace, root_rows
    sol.step_stats = traj.step_stats(config.h)
    if sample_times is not None:
        sol.samples = _factor_samples(basis, traj, config.dtol)
    return sol


def _factor_samples(basis, traj, dtol):
    V = basis.basis_matrix()
    return [(float(t), V @ psd_factor(Y, dtol)[0]) for t, Y in zip(traj.times, traj.ys)]
