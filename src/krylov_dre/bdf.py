"""BDF(p) time stepping for the (projected) differential Riccati equation.

Integrates dY/dt = T Y + Y T^T - Y Bm Bm^T Y + Cm^T Cm on [0, t_f] with a
uniform step h.  Each implicit step is converted into a continuous-time
algebraic Riccati equation solved by warm-started Newton-Kleinman; its chord
steps reuse one closed-loop Schur factor across the steps of a BDF order,
since the closed loop moves only O(h) from step to step.
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


@dataclass
class _OrderTerms:
    """The parts of a BDF(p) step CARE that do not change from step to step."""

    coeffs: BDFCoefficients
    curly_a: np.ndarray
    curly_b: np.ndarray
    q_const: np.ndarray


def _order_terms(T, B_m, C_m, h, coeffs: BDFCoefficients) -> _OrderTerms:
    hb = h * coeffs.beta
    return _OrderTerms(
        coeffs=coeffs,
        curly_a=hb * T - 0.5 * np.eye(T.shape[0]),
        curly_b=np.sqrt(hb) * B_m,
        q_const=hb * (C_m.T @ C_m),
    )


def _care_step(terms: _OrderTerms, history) -> CareStepData:
    q = terms.q_const
    for a_i, Y_i in zip(terms.coeffs.alpha, history):
        q = q + a_i * Y_i
    return CareStepData(curly_a=terms.curly_a, curly_b=terms.curly_b, q_step=symmetrize(q))


def assemble_care_step(T, B_m, C_m, history, h, coeffs: BDFCoefficients) -> CareStepData:
    """Assemble the CARE defining the next BDF iterate.

    history holds exactly p previous iterates, most recent first.
    """
    if len(history) != coeffs.p:
        raise ValueError(f"history must hold exactly p={coeffs.p} matrices")
    return _care_step(_order_terms(T, B_m, C_m, h, coeffs), history)


def bdf_step(step: CareStepData, warm_start, tol=1e-12, maxit=50, factor=None):
    """Solve one implicit BDF step, Newton warm started at Y_k.

    The projected DRE has its linear term in the orientation T Y + Y T^T, so
    the CARE kernel (which uses A^T X + X A) receives curly_a transposed.
    The damped local Newton is used because steps across a stiff transient
    can have non-stabilizing (or slightly indefinite) roots that the strict
    stabilizing iteration cannot reach.  factor, the closed-loop Schur factor
    returned in info by an earlier step of the same order, turns on the
    kernel's chord steps.
    """
    return care_local_root(
        step.curly_a.T, step.curly_b, step.q_step,
        x_start=warm_start, tol=tol, maxit=maxit, return_info=True, factor=factor,
    )


@dataclass
class ProjectedTrajectory:
    """Stored samples of the projected trajectory plus per-step statistics.

    times/ys hold the requested samples (always including the final state);
    tail holds the last p+1 iterates (oldest first) for discrete-residual
    checks.  newton_iters (chord steps included), schur_factorizations
    (closed-loop Schur factorizations; 0 for a step solved by chord steps
    alone), care_residuals and orders are per-step logs of the accepted step
    solves; euler_retakes counts the BDF(p) steps retaken as implicit Euler.
    """

    times: np.ndarray
    ys: list
    tail: list
    newton_iters: list = field(default_factory=list)
    schur_factorizations: list = field(default_factory=list)
    care_residuals: list = field(default_factory=list)
    orders: list = field(default_factory=list)
    euler_retakes: int = 0

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
    traj = ProjectedTrajectory(times=[0.0], ys=[Y], tail=[Y])
    history = [Y]
    # Per BDF order (curly_a depends on it through h*beta): the constant
    # terms of its step CARE and the last closed-loop Schur factor, which
    # the next step of that order reuses for chord steps.
    terms = {}
    factors = {}

    def take_step(order):
        if order not in terms:
            terms[order] = _order_terms(T, B_m, C_m, h, bdf_coefficients(order))
        step = _care_step(terms[order], history[:order])
        Y, info = bdf_step(step, history[0], tol=config.care_tol,
                           maxit=config.care_maxit, factor=factors.get(order))
        if info["factor"] is not None:
            factors[order] = info["factor"]
        return Y, info

    for k in range(1, n_steps + 1):
        order = min(p, k)
        try:
            Y, info = take_step(order)
        except SolverError as exc:
            if order == 1:
                raise StepFailure(k, str(exc)) from exc
            # The implicit equation of a multistep over a stiff transient can
            # lack a symmetric root entirely; fall back to implicit Euler for
            # this step (local error O(h^2), same as the startup ramp).
            order = 1
            traj.euler_retakes += 1
            try:
                Y, info = take_step(1)
            except SolverError as exc2:
                raise StepFailure(k, str(exc2)) from exc2
        traj.newton_iters.append(info["iterations"])
        traj.schur_factorizations.append(info["factorizations"])
        traj.care_residuals.append(info["residual"])
        traj.orders.append(order)
        history.insert(0, Y)
        del history[p:]
        traj.tail.append(Y)
        del traj.tail[: max(0, len(traj.tail) - (p + 1))]
        if store == "all" or k == n_steps or k in sample_idx:
            traj.times.append(k * h)
            traj.ys.append(Y)

    traj.times = np.array(traj.times)
    return traj
