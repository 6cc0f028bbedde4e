"""Baseline integrate-then-solve method: BDF on the full n-by-n equation.

Each implicit step is the large CARE

    curly_a^T X + X curly_a - X curly_b curly_b^T X + curly_c^T curly_c = 0,

with curly_a = h*beta*A - I/2 and a stacked constant factor curly_c built from
C and the low-rank history factors.  The CARE is solved by Newton-Kleinman
where every iterate requires one or two large Lyapunov solves, performed by
Galerkin projection onto extended Krylov subspaces of the closed-loop
operator.  Iterates are kept as signed low-rank factors throughout; negative
BDF weights put their columns into a second Lyapunov equation whose solution
is subtracted, so all factors stay real.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .bdf import bdf_coefficients, step_grid
from .dense import psd_factor, solve_lyapunov
from .errors import (
    MaxIterations,
    NoStabilizingGuess,
    NotConverged,
    SolverError,
    SpectrumIncompatible,
    StepFailure,
    UnstableClosedLoop,
)
from .lowrank import SignedFactor
from .problem import factorize
from .solver import ConvergenceRecord, LowRankSolution

# Columns of a stacked constant factor below this relative spectral weight are
# dropped before seeding a Krylov space.
SEED_RTOL = 1e-13
# Newton iterations per implicit step before MaxIterations.
NEWTON_MAXIT = 30


class ClosedLoopOperator:
    """F = S - U W^T without forming F; transposed actions via Woodbury.

    S is an already-factorized operator handle (curly_a), U and W are n-by-l.
    Solves with F^T reuse S's factorization plus an l-by-l correction.
    """

    def __init__(self, s_handle, U, W):
        self.s = s_handle
        self.n = s_handle.n
        self.U = U
        self.W = W
        self._Wt = s_handle.solve_t(W)
        core = np.eye(U.shape[1]) - U.T @ self._Wt
        self._core_lu = sla.lu_factor(core)

    def apply_t(self, V):
        return self.s.apply_t(V) - self.W @ (self.U.T @ V)

    def solve_t(self, V):
        Y = self.s.solve_t(V)
        return Y + self._Wt @ sla.lu_solve(self._core_lu, self.U.T @ Y)

    def dense_t(self):
        """F^T as a dense array, for the saturated small-space shortcut."""
        S = self.s.A
        St = (S.toarray() if sp.issparse(S) else np.asarray(S)).T
        return St - self.W @ self.U.T


def _compress_columns(G, rtol=SEED_RTOL):
    """Drop directions of G G^T below rtol of the dominant one (G ~ full rank out)."""
    if G.shape[1] == 0:
        return G
    P, sig, _ = np.linalg.svd(G, full_matrices=False)
    keep = sig > rtol * sig[0] if sig.size and sig[0] > 0 else np.zeros(sig.shape, bool)
    return P[:, keep] * sig[keep]


def _orth_new(M, V, rtol=1e-10):
    """Orthonormal basis of the part of M outside span(V), with deflation."""
    if M.shape[1] == 0:
        return M
    scale = np.linalg.norm(M, 2)
    if scale == 0.0:
        return M[:, :0]
    if V is not None:
        M = M - V @ (V.T @ M)
        M = M - V @ (V.T @ M)
    P, sig, _ = np.linalg.svd(M, full_matrices=False)
    keep = sig > rtol * scale
    return P[:, keep]


def eba_lyapunov(op, G, tol, m_max, dtol) -> SignedFactor:
    """Solve F^T X + X F + G G^T = 0 with X ~ Z Z^T by Galerkin projection.

    op provides apply_t/solve_t actions of the stable closed-loop F.  The
    subspace grows extended-Krylov style (images of the newest directions
    under F^T and F^{-T}) with rank-revealing deflation at every step: Newton
    iterates tend to live in nearly F-invariant subspaces, making undeflated
    extended seeds rank deficient by construction.  The projection is kept
    exact by maintaining W = F^T V, and the residual norm is the honest
    ||(I - V V^T) F^T V Y||_2 (no Hessenberg structure is assumed), which
    stays valid through deflation and saturation.
    """
    n = op.n
    Gc = _compress_columns(np.asarray(G, dtype=float))
    if Gc.shape[1] == 0:
        return SignedFactor.zero(n)

    if 2 * Gc.shape[1] >= 0.8 * n and hasattr(op, "dense_t"):
        # the seed (nearly) saturates the space within an iteration or two;
        # the Galerkin solve then equals the dense one, so take it directly
        X = solve_lyapunov(op.dense_t().T, Gc @ Gc.T)
        return SignedFactor.from_psd(psd_factor(X, dtol)[0])

    # range(G) must be captured essentially exactly, or the residual estimate
    # silently misses the part of G G^T outside the subspace
    V = _orth_new(Gc, None, rtol=1e-14)
    V = np.hstack([V, _orth_new(op.solve_t(Gc), V)])
    W = op.apply_t(V)
    last = V
    norm_g = float(np.linalg.norm(Gc, 2))
    res = np.inf
    for m in range(1, m_max + 1):
        T = V.T @ W
        G_m = V.T @ Gc
        try:
            Y = solve_lyapunov(T.T, G_m @ G_m.T)
        except SpectrumIncompatible as exc:
            raise UnstableClosedLoop(f"projected closed loop not dissipative: {exc}") from exc
        W_perp = W - V @ T
        g_leak = float(np.linalg.norm(Gc - V @ G_m, 2))
        res = float(np.linalg.norm(W_perp @ Y, 2)) + g_leak * (2 * norm_g + g_leak)
        if res < tol or V.shape[1] >= n:
            # at full dimension the projection is a similarity transform and
            # the projected solve is the dense Bartels-Stewart answer
            return SignedFactor.from_psd(V @ psd_factor(Y, dtol)[0])
        room = n - V.shape[1]
        cand = np.hstack([W[:, -last.shape[1]:], op.solve_t(last)])
        new = _orth_new(cand, V)[:, :room]
        if new.shape[1] == 0:
            # expansion from the newest block stalled; feed the residual
            # directions directly (guaranteed progress while res > 0)
            new = _orth_new(W_perp, V)[:, :room]
        if new.shape[1] == 0:
            raise NotConverged(m, res)
        V = np.hstack([V, new])
        W = np.hstack([W, op.apply_t(new)])
        last = new
    raise NotConverged(m_max, res)


@dataclass
class BaselineStepContext:
    """Frozen per-step data for the Newton iteration on the step CARE."""

    s_handle: object          # factorized curly_a
    curly_b: np.ndarray
    const_pos: np.ndarray     # positive-weight columns of the stacked factor
    const_neg: np.ndarray     # negative-weight columns
    lyap_tol: float
    m_max: int
    dtol: float


def stacked_constant_factor(C, history, h, coeffs):
    """Split sqrt-weighted columns of curly_c^T into positive/negative groups.

    curly_c^T curly_c = h*beta*C^T C + sum_i alpha_i Z_i diag(s_i) Z_i^T; each
    history column lands in the group matching sign(alpha_i * s_column).
    """
    hb = h * coeffs.beta
    pos = [np.sqrt(hb) * C.T]
    neg = []
    for a_i, fac in zip(coeffs.alpha, history):
        if fac.rank == 0 or a_i == 0.0:
            continue
        cols = np.sqrt(abs(a_i)) * fac.Z
        eff = np.sign(a_i) * fac.signs
        pos.append(cols[:, eff > 0])
        neg.append(cols[:, eff < 0])
    n = C.shape[1]
    cat = lambda parts: np.hstack(parts) if parts else np.zeros((n, 0))
    return cat(pos), cat(neg)


def newton_step_large(ctx: BaselineStepContext, X_p: SignedFactor) -> SignedFactor:
    """One large-scale Newton-Kleinman iterate as a signed factor.

    Two Lyapunov equations (positive and negative constant-term groups) are
    solved on their own Krylov spaces and subtracted; the result is column
    compressed.  For p=1 the negative group is empty and a single solve runs.
    """
    W = X_p.apply(ctx.curly_b)
    op = ClosedLoopOperator(ctx.s_handle, ctx.curly_b, W)
    G_pos = np.hstack([ctx.const_pos, W])
    f_pos = eba_lyapunov(op, G_pos, ctx.lyap_tol, ctx.m_max, ctx.dtol)
    if ctx.const_neg.shape[1] == 0:
        return f_pos.compress(ctx.dtol)
    f_neg = eba_lyapunov(op, ctx.const_neg, ctx.lyap_tol, ctx.m_max, ctx.dtol)
    combined = SignedFactor(
        np.hstack([f_pos.Z, f_neg.Z]),
        np.concatenate([f_pos.signs, -f_neg.signs]),
    )
    return combined.compress(ctx.dtol)


def _shifted_operator(A, hb):
    n = A.shape[0]
    if sp.issparse(A):
        return factorize((hb * A - 0.5 * sp.identity(n, format="csc")).tocsc())
    return factorize(hb * np.asarray(A, dtype=float) - 0.5 * np.eye(n))


def _baseline_step(problem, config, handles, history, order, h):
    """One implicit step at the given order: Newton with factored iterates.

    Returns (iterate, residual estimate, constant-term scale).  Raises
    MaxIterations on stall (no 2x improvement of the estimate over the last
    six iterations) or exhaustion.
    """
    coeffs = bdf_coefficients(order)
    s_handle = handles[order]
    curly_b = np.sqrt(h * coeffs.beta) * problem.B
    pos, neg = stacked_constant_factor(problem.C, history[:order], h, coeffs)
    stacked = np.hstack([pos, neg])
    scale = max(float(np.linalg.norm(stacked, 2)) ** 2, 1e-300) if stacked.size else 1.0
    ctx = BaselineStepContext(
        s_handle=s_handle,
        curly_b=curly_b,
        const_pos=pos,
        const_neg=neg,
        lyap_tol=0.25 * config.care_tol * scale,
        m_max=config.m_max,
        dtol=config.dtol,
    )
    starts = [history[0]]
    if history[0].rank > 0:
        # zero is a guaranteed stabilizing start whenever curly_a is stable
        starts.append(SignedFactor.zero(problem.n))
    last_exc = None
    for X_start in starts:
        X_it = X_start
        best, best_at = np.inf, 0
        try:
            for it in range(1, NEWTON_MAXIT + 1):
                X_next = newton_step_large(ctx, X_it)
                diffB = X_next.apply(curly_b) - X_it.apply(curly_b)
                est = float(np.linalg.norm(diffB, 2)) ** 2 + 2 * ctx.lyap_tol
                X_it = X_next
                if est <= config.care_tol * scale:
                    return X_it, est, scale
                if est < 0.5 * best:
                    best, best_at = est, it
                elif it - best_at >= 6:
                    raise MaxIterations(
                        f"baseline Newton stalled: estimate {est:.3e} after {it} iterations"
                    )
            raise MaxIterations(
                f"baseline Newton: estimate {est:.3e} after {NEWTON_MAXIT} iterations"
            )
        except SolverError as exc:
            last_exc = exc
    raise last_exc


def solve_baseline(problem, config, sample_times=None) -> LowRankSolution:
    """Full BDF time loop on the original equation with low-rank Newton steps.

    Startup ramps the order as in the projection solver.  The Newton stop test
    uses only projected quantities: the step-CARE residual at the new iterate
    equals the inner Lyapunov defects minus D curly_b curly_b^T D with
    D = X_{p+1} - X_p, whose norm is computable from the factors.
    """
    config.validate()
    p = config.p
    h = config.h
    n_steps, sample_idx = step_grid(problem.t_f, h, sample_times)

    handles = {}
    for order in range(1, p + 1):
        handles[order] = _shifted_operator(problem.A, h * bdf_coefficients(order).beta)

    X = SignedFactor.from_psd(problem.Z0).compress(config.dtol)
    history = [X]
    trace = []
    samples = [(0.0, X)] if sample_times is not None else []

    t0 = time.perf_counter()
    for k in range(1, n_steps + 1):
        order = min(p, k)
        try:
            X_it, est, scale = _baseline_step(problem, config, handles, history, order, h)
        except SolverError as exc:
            unstable = isinstance(
                exc, (UnstableClosedLoop, SpectrumIncompatible, NoStabilizingGuess))
            if k == 1 and unstable:
                raise NoStabilizingGuess(
                    f"curly_a appears unstable at the first step: {exc}"
                ) from exc
            if order == 1:
                raise StepFailure(k, str(exc)) from exc
            # No usable root for the multistep equation over a stiff
            # transient; retake the step with implicit Euler (PSD-dominated
            # constant term, always solvable).
            try:
                X_it, est, scale = _baseline_step(problem, config, handles, history, 1, h)
            except SolverError as exc2:
                raise StepFailure(k, str(exc2)) from exc2

        X = X_it.compress(config.dtol)
        history.insert(0, X)
        del history[p:]
        trace.append(ConvergenceRecord(
            m=k, residual=est / scale, rank=X.rank,
            matvecs=sum(hh.matvecs for hh in handles.values()),
            solves=sum(hh.solves for hh in handles.values()),
            seconds=time.perf_counter() - t0,
        ))
        if k in sample_idx:
            samples.append((k * h, X))

    Z = X.psd_part(config.dtol)
    sol = LowRankSolution(
        Z=Z, rank=Z.shape[1], residual=None, m=n_steps,
        converged=True, method="bdf-newton-eba",
    )
    sol.trace = trace
    sol.samples = [(t, f.psd_part(config.dtol)) for t, f in samples]
    return sol
