"""BDF(p) time stepping for the (projected) differential Riccati equation.

Integrates dY/dt = T Y + Y T^T - Y Bm Bm^T Y + Cm^T Cm on [0, t_f] with a
uniform step h.  Each implicit step is converted into a continuous-time
algebraic Riccati equation solved by warm-started Newton-Kleinman.
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
class CareStepData:
    """Per-step CARE coefficients.

    curly_a = h*beta*T - I/2, curly_b = sqrt(h*beta)*Bm and
    q_step = h*beta*Cm^T Cm + sum_i alpha_i Y_{k-i}.  q_step is symmetric but
    indefinite in general (negative alpha_i for p >= 2).
    """

    curly_a: np.ndarray
    curly_b: np.ndarray
    q_step: np.ndarray


def assemble_care_step(T, B_m, C_m, history, h, coeffs: BDFCoefficients) -> CareStepData:
    """Assemble the CARE defining the next BDF iterate.

    history holds exactly p previous iterates, most recent first.
    """
    if len(history) != coeffs.p:
        raise ValueError(f"history must hold exactly p={coeffs.p} matrices")
    hb = h * coeffs.beta
    k = T.shape[0]
    curly_a = hb * T - 0.5 * np.eye(k)
    curly_b = np.sqrt(hb) * B_m
    q = hb * (C_m.T @ C_m)
    for a_i, Y_i in zip(coeffs.alpha, history):
        q = q + a_i * Y_i
    return CareStepData(curly_a=curly_a, curly_b=curly_b, q_step=symmetrize(q))


def bdf_step(step: CareStepData, warm_start, tol=1e-12, maxit=50):
    """Solve one implicit BDF step, Newton warm started at Y_k.

    The projected DRE has its linear term in the orientation T Y + Y T^T, so
    the CARE kernel (which uses A^T X + X A) receives curly_a transposed.
    The damped local Newton is used because steps across a stiff transient
    can have non-stabilizing (or slightly indefinite) roots that the strict
    stabilizing iteration cannot reach.
    """
    Y, info = care_local_root(
        step.curly_a.T, step.curly_b, step.q_step,
        x_start=warm_start, tol=tol, maxit=maxit, return_info=True,
    )
    return symmetrize(Y), info


@dataclass
class ProjectedTrajectory:
    """Stored samples of the projected trajectory plus per-step statistics.

    times/ys hold the requested samples (always including the final state);
    tail holds the last p+1 iterates (oldest first) for discrete-residual
    checks.  newton_iters and care_residuals are per-step logs.
    """

    times: np.ndarray
    ys: list
    tail: list
    newton_iters: list = field(default_factory=list)
    care_residuals: list = field(default_factory=list)
    orders: list = field(default_factory=list)

    @property
    def final(self):
        return self.ys[-1]


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


def integrate(T, B_m, C_m, Y0, t_f, config, store="final", sample_times=None) -> ProjectedTrajectory:
    """BDF(p) integration of the projected DRE from Y0 to t_f.

    The first p-1 steps use lower-order BDF (implicit Euler first, then
    BDF(2)) so no off-grid starting values are needed.  store is 'final' or
    'all'; sample_times additionally records the states nearest to the given
    times.  CARE failures are wrapped in StepFailure with the step index.
    """
    config.validate()
    p = config.p
    h = config.h
    n_steps, sample_idx = step_grid(t_f, h, sample_times)
    Y = symmetrize(np.asarray(Y0, dtype=float))

    times = [0.0]
    ys = [Y]
    tail = [Y]
    newton_iters = []
    care_residuals = []
    orders = []
    history = [Y]

    for k in range(1, n_steps + 1):
        order = min(p, k)
        coeffs = bdf_coefficients(order)
        step = assemble_care_step(T, B_m, C_m, history[: order], h, coeffs)
        try:
            Y, info = bdf_step(step, history[0], tol=config.care_tol, maxit=config.care_maxit)
        except SolverError as exc:
            if order == 1:
                raise StepFailure(k, str(exc)) from exc
            # The implicit equation of a multistep over a stiff transient can
            # lack a symmetric root entirely; fall back to implicit Euler for
            # this step (local error O(h^2), same as the startup ramp).
            order = 1
            coeffs = bdf_coefficients(1)
            step = assemble_care_step(T, B_m, C_m, history[:1], h, coeffs)
            try:
                Y, info = bdf_step(step, history[0], tol=config.care_tol,
                                   maxit=config.care_maxit)
            except SolverError as exc2:
                raise StepFailure(k, str(exc2)) from exc2
        newton_iters.append(info["iterations"])
        care_residuals.append(info["residual"])
        orders.append(order)
        history.insert(0, Y)
        del history[p:]
        tail.append(Y)
        del tail[: max(0, len(tail) - (p + 1))]
        if store == "all" or k == n_steps or k in sample_idx:
            times.append(k * h)
            ys.append(Y)

    return ProjectedTrajectory(
        times=np.array(times),
        ys=ys,
        tail=tail,
        newton_iters=newton_iters,
        care_residuals=care_residuals,
        orders=orders,
    )
