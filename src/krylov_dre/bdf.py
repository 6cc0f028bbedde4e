"""BDF(p) time stepping for the (projected) differential Riccati equation.

Integrates dY/dt = T Y + Y T^T - Y Bm Bm^T Y + Cm^T Cm on [0, t_f] with a
uniform step h.  Each implicit step is converted into a continuous-time
algebraic Riccati equation solved by warm-started damped Newton; its chord
steps reuse one closed-loop Schur factor across the steps of a BDF order,
since the closed loop moves only O(h) from step to step.  The time loop,
march, is shared with the baseline's BDF on the full equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import care_local_root, symmetrize
from .errors import SolverError, StepFailure, UnsupportedOrder

_BDF_TABLE = {
    1: (1.0, (1.0,)),
    2: (2.0 / 3.0, (4.0 / 3.0, -1.0 / 3.0)),
    3: (6.0 / 11.0, (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)),
}


@dataclass(frozen=True)
class BDFCoefficients:
    p: int
    beta: float
    alpha: tuple


def bdf_coefficients(p) -> BDFCoefficients:
    """Coefficients of the p-step BDF method, p in {1, 2, 3}."""
    if p not in _BDF_TABLE:
        raise UnsupportedOrder(f"BDF order must be 1, 2 or 3, got {p}")
    beta, alpha = _BDF_TABLE[p]
    return BDFCoefficients(p=p, beta=beta, alpha=alpha)


@dataclass
class ProjectedTrajectory:
    """Stored samples of a BDF trajectory plus per-step statistics.

    times/ys hold the initial state, the requested samples and the final
    state; tail holds the last p+1 iterates (oldest first) for
    discrete-residual checks.  newton_iters (chord steps included),
    schur_factorizations (closed-loop Schur factorizations; 0 for a step
    solved by chord steps alone or one that reports none), care_residuals
    and orders are per-step logs of the accepted step solves; euler_retakes
    counts the BDF(p) steps retaken as implicit Euler, whose newton_iters and
    schur_factorizations include the failed attempt.  stationary_steps counts
    the trailing steps that were not taken because the trajectory had become
    stationary; the logs hold their repeated values.
    """

    times: np.ndarray
    ys: list
    tail: list
    newton_iters: list = field(default_factory=list)
    schur_factorizations: list = field(default_factory=list)
    care_residuals: list = field(default_factory=list)
    orders: list = field(default_factory=list)
    euler_retakes: int = 0
    stationary_steps: int = 0

    @property
    def final(self):
        return self.ys[-1]

    def step_stats(self, h):
        """The per-step log in the form of LowRankSolution.step_stats."""
        return {"h": h, "newton_iters": self.newton_iters,
                "schur_factorizations": self.schur_factorizations,
                "care_residuals": self.care_residuals, "orders": self.orders,
                "euler_retakes": self.euler_retakes,
                "stationary_steps": self.stationary_steps}


def step_grid(t_f, h, sample_times=None):
    """Number of steps of size h to t_f and the step indices nearest sample_times.

    Raises ValueError unless h divides t_f into an integer number of steps.
    """
    n_steps = 0
    if t_f != 0:
        steps = t_f / h
        n_steps = int(round(steps))
        if n_steps < 1 or abs(steps - n_steps) > 1e-8 * max(1.0, n_steps):
            raise ValueError(f"t_f/h = {steps} is not a positive integer number of steps")
    sample_idx = set()
    if sample_times is not None:
        for t in np.atleast_1d(sample_times):
            sample_idx.add(min(max(int(round(t / h)), 0), n_steps))
    return n_steps, sample_idx


def march(step, Y0, t_f, h, p, sample_times=None) -> ProjectedTrajectory:
    """BDF(p) time loop from Y0 to t_f with a uniform step h.

    step(k, order, history) takes step k (1, 2, ...) at the given BDF order
    from the last iterates (newest first) and returns (Y, info), where info
    holds the step solve's "iterations" and "residual" and optionally its
    "factorizations".  The order ramps up as min(p, k), so no off-grid
    starting values are needed.  A failed multistep step is retaken as
    implicit Euler with the same k, and its work counts towards the step; a
    failure at order 1 raises StepFailure with the step index, chained to
    its cause.  The initial state, the states nearest to sample_times and
    the final state are recorded.

    A step at order p, not retaken, that reports 0 iterations and returns
    the iterate its whole history holds (bit for bit) ends the loop: the
    next step would see the same order and history, so, with step a
    function of those and of state it changes only while iterating (k may
    matter only to steps that always iterate), every later step returns the
    same iterate.  Their log entries repeat this step's and are counted in
    stationary_steps.
    """
    n_steps, sample_idx = step_grid(t_f, h, sample_times)
    traj = ProjectedTrajectory(times=[0.0], ys=[Y0], tail=[Y0])
    history = [Y0]
    for k in range(1, n_steps + 1):
        order = min(p, k)
        lost = (0, 0)
        try:
            try:
                Y, info = step(k, order, history)
            except SolverError as exc:
                if order == 1:
                    raise
                # The implicit equation of a multistep over a stiff transient
                # can lack a usable root; implicit Euler (local error O(h^2),
                # same as the startup ramp) has one.
                lost = (getattr(exc, "iterations", 0), getattr(exc, "factorizations", 0))
                order = 1
                traj.euler_retakes += 1
                Y, info = step(k, 1, history)
        except SolverError as exc:
            raise StepFailure(k, str(exc)) from exc
        traj.newton_iters.append(info["iterations"] + lost[0])
        traj.schur_factorizations.append(info.get("factorizations", 0) + lost[1])
        traj.care_residuals.append(info["residual"])
        traj.orders.append(order)
        history.insert(0, Y)
        del history[p:]
        traj.tail.append(Y)
        del traj.tail[: max(0, len(traj.tail) - (p + 1))]
        if k == n_steps or k in sample_idx:
            traj.times.append(k * h)
            traj.ys.append(Y)
        # a retaken step ran at order 1 < p; at order p the tail holds the
        # step's p history iterates and Y
        if (info["iterations"] == 0 and order == p
                and all(_same_bits(Y_i, Y) for Y_i in traj.tail[:-1])):
            traj.stationary_steps = n_steps - k
            for log in (traj.newton_iters, traj.schur_factorizations,
                        traj.care_residuals, traj.orders):
                log.extend(log[-1:] * traj.stationary_steps)
            later = [j for j in range(k + 1, n_steps + 1) if j == n_steps or j in sample_idx]
            traj.times += [j * h for j in later]
            traj.ys += [Y] * len(later)
            break

    traj.times = np.array(traj.times)
    return traj


def _same_bits(a, b):
    """True when a and b are arrays with the same shape and bytes."""
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.shape == b.shape and a.tobytes() == b.tobytes())


def integrate(T, B_m, C_m, Y0, t_f, config, sample_times=None,
              starts=None) -> ProjectedTrajectory:
    """BDF(p) integration of the projected DRE from Y0 to t_f by march.

    Step k's CARE Newton starts from the last iterate, except that starts
    (e.g. a smaller nested projection's iterates at steps 1, 2, ...) give
    the starts of steps 1..len(starts), padded with zeros to the order of
    T; such a step takes at least one iteration, so the rows the padding
    left 0 are solved for even when the start already passes the stop test.
    CARE failures end as StepFailure with the step index.
    """
    config.validate()
    h = config.h
    # A BDF step solves the CARE A^T Y + Y A - Y B B^T Y + Q = 0 with
    # A = (h beta T - I/2)^T, B = sqrt(h beta) B_m and
    # Q = h beta C_m^T C_m + sum_i alpha_i Y_{k-i}, symmetric but indefinite
    # for orders >= 2.  Per order: the terms that do not change from step to
    # step, and the last closed-loop Schur factor, which the next step of
    # that order reuses for chord steps.
    terms = {}
    factors = {}
    padded = [np.pad(Y, (0, T.shape[0] - Y.shape[0])) for Y in starts or ()]

    def take_step(k, order, history):
        if order not in terms:
            coeffs = bdf_coefficients(order)
            hb = h * coeffs.beta
            terms[order] = (coeffs.alpha, (hb * T - 0.5 * np.eye(T.shape[0])).T,
                            np.sqrt(hb) * B_m, hb * (C_m.T @ C_m))
        alpha, A, B, q = terms[order]
        for a_i, Y_i in zip(alpha, history):
            q = q + a_i * Y_i
        # The local Newton from the previous step, not solve_care: steps
        # across a stiff transient can have non-stabilizing (or slightly
        # indefinite) roots, which solve_care rejects.
        # A failed attempt's factor is dropped with it; its retake (same k)
        # starts where it did.  So a multistep attempt, which march retakes
        # as implicit Euler, is abandoned at its first sign of a stall.
        forced = k <= len(padded)
        Y, info = care_local_root(A, B, symmetrize(q),
                                  x_start=padded[k - 1] if forced else history[0],
                                  tol=config.care_tol, factor=factors.get(order),
                                  forced=forced, fallback=order > 1)
        factors[order] = info["factor"]
        return Y, info

    Y0 = symmetrize(np.asarray(Y0, dtype=float))
    return march(take_step, Y0, t_f, h, config.p, sample_times)
