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

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .bdf import bdf_coefficients, march
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
    Solves with F^T reuse S's factorization plus an l-by-l correction.  A
    caller that has S^{-T} W already (from one LU pass over W and the
    right-hand sides it needs next) passes it as St_W, and turns the rest of
    that pass into F^{-T} images with woodbury.
    """

    def __init__(self, s_handle, U, W, St_W=None):
        self.s = s_handle
        self.n = s_handle.n
        self.U = U
        self.W = W
        self._Wt = s_handle.solve_t(W) if St_W is None else St_W
        core = np.eye(U.shape[1]) - U.T @ self._Wt
        self._core_lu = sla.lu_factor(core)

    def apply_t(self, V):
        return self.s.apply_t(V) - self.W @ (self.U.T @ V)

    def solve_t(self, V):
        return self.woodbury(self.s.solve_t(V))

    def woodbury(self, St_V):
        """F^{-T} V from St_V = S^{-T} V."""
        return St_V + self._Wt @ sla.lu_solve(self._core_lu, self.U.T @ St_V)

    def dense_t(self):
        """F^T as a dense array, for the saturated small-space shortcut."""
        S = self.s.A
        St = (S.toarray() if sp.issparse(S) else np.asarray(S)).T
        return St - self.W @ self.U.T


def _orth_new(M, V):
    """Orthonormal basis of the part of M outside span(V), with deflation."""
    scale = np.linalg.norm(M, 2)
    M = M - V @ (V.T @ M)
    M = M - V @ (V.T @ M)
    P, sig, _ = np.linalg.svd(M, full_matrices=False)
    keep = sig > 1e-10 * scale
    return P[:, keep]


def eba_lyapunov(op, G, tol, m_max, dtol, Ft_G=None) -> SignedFactor:
    """Solve F^T X + X F + G G^T = 0 with X ~ Z Z^T by Galerkin projection.

    op provides apply_t/solve_t actions of the stable closed-loop F, and
    dense_t for a seed that (nearly) saturates the space.  Ft_G = F^{-T} G,
    when the caller has it, spares the seed's own solve: the compressed seed
    is Gc = G Q^T with Q the orthonormal kept right factor of G's SVD, so
    F^{-T} Gc = Ft_G Q^T, with no amplified error.  The subspace grows
    extended-Krylov style (images of the newest directions under F^T and
    F^{-T}) with rank-revealing deflation at every step: Newton iterates tend
    to live in nearly F-invariant subspaces, making undeflated extended seeds
    rank deficient by construction.  The projection is kept exact by
    maintaining W = F^T V, and the residual norm is the honest
    ||(I - V V^T) F^T V Y||_2 (no Hessenberg structure is assumed), which
    stays valid through deflation and saturation.
    """
    n = op.n
    # One SVD of G gives the seed basis V, G's compressed columns Gc = V
    # diag(sig) (directions of G G^T below SEED_RTOL of the dominant one
    # dropped) and ||Gc||_2 = sig[0].  range(G) must be captured essentially
    # exactly, or the residual estimate silently misses the part of G G^T
    # outside the subspace.
    G = np.asarray(G, dtype=float)
    P, sig, Qt = np.linalg.svd(G, full_matrices=False)
    keep = sig > SEED_RTOL * sig.max(initial=0.0)
    V, sig = P[:, keep], sig[keep]
    if sig.size == 0:
        return SignedFactor.zero(n)
    Gc = V * sig

    if 2 * Gc.shape[1] >= 0.8 * n:
        # the seed (nearly) saturates the space within an iteration or two;
        # the Galerkin solve then equals the dense one, so take it directly
        X = solve_lyapunov(op.dense_t().T, Gc @ Gc.T)
        return SignedFactor.from_psd(psd_factor(X, dtol)[0])

    if Ft_G is None:
        Ft_G = op.solve_t(G)
    V = np.hstack([V, _orth_new(Ft_G @ Qt[keep].T, V)])
    W = op.apply_t(V)
    last = V
    norm_g = float(sig[0])
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


def newton_step_large(X_p, s_handle, curly_b, pos, neg, lyap_tol, m_max,
                      dtol) -> SignedFactor:
    """One large-scale Newton-Kleinman iterate from X_p as a signed factor.

    s_handle is the factorized curly_a, and pos/neg are the positive- and
    negative-weight columns of the stacked constant factor.  Their two
    Lyapunov equations are solved on their own Krylov spaces (to lyap_tol,
    with at most m_max expansions) and subtracted; the result is column
    compressed at dtol.  For p=1 the negative group is empty and a single
    solve runs.  One LU pass of curly_a serves the closed loop's Woodbury
    core and both seeds: S^{-T} [W, G_pos, neg] with W = X_p curly_b.
    """
    W = X_p.apply(curly_b)
    G_pos = np.hstack([pos, W])
    l, g = W.shape[1], G_pos.shape[1]
    St = s_handle.solve_t(np.hstack([W, G_pos, neg]))
    op = ClosedLoopOperator(s_handle, curly_b, W, St_W=St[:, :l])
    Ft = op.woodbury(St[:, l:])
    f_pos = eba_lyapunov(op, G_pos, lyap_tol, m_max, dtol, Ft_G=Ft[:, :g])
    if neg.shape[1] == 0:
        return f_pos.compress(dtol)
    f_neg = eba_lyapunov(op, neg, lyap_tol, m_max, dtol, Ft_G=Ft[:, g:])
    combined = SignedFactor(
        np.hstack([f_pos.Z, f_neg.Z]),
        np.concatenate([f_pos.signs, -f_neg.signs]),
    )
    return combined.compress(dtol)


def _shifted_operator(A, hb):
    n = A.shape[0]
    if sp.issparse(A):
        return factorize((hb * A - 0.5 * sp.identity(n, format="csc")).tocsc())
    return factorize(hb * np.asarray(A, dtype=float) - 0.5 * np.eye(n))


def _baseline_step(problem, config, handles, history, order, h):
    """One implicit step at the given order: Newton with factored iterates.

    Newton starts from the linear extrapolation 2 X_{k-1} - X_{k-2} of the
    last two iterates (history newest first), compressed at config.dtol;
    it is O(h^2) from the step's root, so one iteration usually passes the
    stop test.  With one history iterate it starts from that iterate.  If
    that start fails, Newton is retried once from zero.  Returns (iterate,
    residual estimate, constant-term scale, Newton iterations of every start
    tried, start fallbacks taken); the iterate is newton_step_large's,
    compressed at config.dtol.  Raises MaxIterations on stall (no 2x
    improvement of the estimate over the last six iterations) or
    exhaustion; the error raised when every start failed carries
    start_fallbacks too.
    """
    coeffs = bdf_coefficients(order)
    curly_b = np.sqrt(h * coeffs.beta) * problem.B
    pos, neg = stacked_constant_factor(problem.C, history[:order], h, coeffs)
    stacked = np.hstack([pos, neg])
    scale = max(float(np.linalg.norm(stacked, 2)) ** 2, 1e-300) if stacked.size else 1.0
    lyap_tol = 0.25 * config.care_tol * scale
    if len(history) >= 2:
        X1, X2 = history[0], history[1]
        first = SignedFactor(np.hstack([np.sqrt(2.0) * X1.Z, X2.Z]),
                             np.concatenate([X1.signs, -X2.signs])).compress(config.dtol)
    else:
        first = history[0]
    starts = [first]
    if first.rank > 0:
        # zero is a guaranteed stabilizing start whenever curly_a is stable
        starts.append(SignedFactor.zero(problem.n))
    last_exc = None
    iterations = 0
    for fallbacks, X_start in enumerate(starts):
        X_it = X_start
        best, best_at = np.inf, 0
        try:
            for it in range(1, NEWTON_MAXIT + 1):
                iterations += 1
                X_next = newton_step_large(X_it, handles[order], curly_b, pos, neg,
                                           lyap_tol, config.m_max, config.dtol)
                diffB = X_next.apply(curly_b) - X_it.apply(curly_b)
                est = float(np.linalg.norm(diffB, 2)) ** 2 + 2 * lyap_tol
                X_it = X_next
                if est <= config.care_tol * scale:
                    return X_it, est, scale, iterations, fallbacks
                if est < 0.5 * best:
                    best, best_at = est, it
                elif it - best_at >= 6:
                    raise MaxIterations(
                        f"baseline Newton stalled: estimate {est:.3e} after {it} iterations",
                        iterations=iterations)
            raise MaxIterations(
                f"baseline Newton: estimate {est:.3e} after {NEWTON_MAXIT} iterations",
                iterations=iterations)
        except SolverError as exc:
            last_exc = exc
    last_exc.start_fallbacks = len(starts) - 1
    raise last_exc


def solve_baseline(problem, config, sample_times=None) -> LowRankSolution:
    """Full BDF time loop (bdf.march) on the original equation with low-rank Newton steps.

    The Newton stop test uses only projected quantities: the step-CARE
    residual at the new iterate equals the inner Lyapunov defects minus
    D curly_b curly_b^T D with D = X_{p+1} - X_p, whose norm is computable
    from the factors.  trace holds one record per step (m is the step
    index), and step_stats the per-step log of march without Schur counts,
    plus start_fallbacks: per step, the Newton starts given up for the zero
    start, a BDF(p) attempt retaken as implicit Euler included.
    A step's residual (trace, care_residuals) is its stop bound (||D curly_b||^2
    + 2 lyap_tol) / scale with lyap_tol = care_tol * scale / 4: never below
    care_tol / 2, however far below the bound the step landed.
    """
    config.validate()
    h = config.h
    handles = {order: _shifted_operator(problem.A, h * bdf_coefficients(order).beta)
               for order in range(1, config.p + 1)}
    trace = []
    fallbacks = []
    t0 = time.perf_counter()

    def step(k, order, history):
        if len(fallbacks) < k:
            fallbacks.append(0)
        try:
            X, est, scale, iterations, fell_back = _baseline_step(
                problem, config, handles, history, order, h)
        except SolverError as exc:
            # march retakes a failed BDF(p) attempt with the same k
            fallbacks[-1] += getattr(exc, "start_fallbacks", 0)
            raise
        fallbacks[-1] += fell_back
        trace.append(ConvergenceRecord(
            m=k, residual=est / scale, rank=X.rank,
            matvecs=sum(hh.matvecs for hh in handles.values()),
            solves=sum(hh.solves for hh in handles.values()),
            seconds=time.perf_counter() - t0,
        ))
        return X, {"iterations": iterations, "residual": est / scale}

    X0 = SignedFactor.from_psd(problem.Z0).compress(config.dtol)
    try:
        traj = march(step, X0, problem.t_f, h, config.p, sample_times)
    except StepFailure as exc:
        cause = exc.__cause__
        if exc.step == 1 and isinstance(
                cause, (UnstableClosedLoop, SpectrumIncompatible, NoStabilizingGuess)):
            raise NoStabilizingGuess(
                f"curly_a appears unstable at the first step: {cause}") from cause
        raise

    Z = traj.final.psd_part(config.dtol)
    sol = LowRankSolution(
        Z=Z, rank=Z.shape[1], residual=None, m=len(traj.orders),
        converged=True, method="bdf-newton-eba",
    )
    sol.trace = trace
    sol.step_stats = traj.step_stats(h)
    # Newton on the full equation factorizes no closed loop
    del sol.step_stats["schur_factorizations"]
    sol.step_stats["start_fallbacks"] = fallbacks
    if sample_times is not None:
        sol.samples = [(float(t), f.psd_part(config.dtol)) for t, f in zip(traj.times, traj.ys)]
    return sol
