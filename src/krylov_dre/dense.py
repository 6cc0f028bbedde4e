"""Dense matrix-equation kernels: Lyapunov, Riccati, PSD factors.

These operate on the small projected matrices (order a few hundred at most).
All solvers symmetrize their output and are pure functions of their inputs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import (MaxIterations, NoStabilizingGuess, SpectrumIncompatible,
                     UnstableClosedLoop)

# A chord step (Newton step solved with a frozen closed-loop Schur factor) is
# kept only if it cuts the CARE residual norm at least CHORD_CONTRACTION-fold;
# one kept with less than CHORD_REFRESH-fold contraction shows the factor has
# drifted from the current closed loop, so it is refreshed on the next step.
CHORD_CONTRACTION = 0.1
CHORD_REFRESH = 1e-3
# Iteration cap of care_local_root, the one CARE Newton.
CARE_MAXIT = 50
# care_local_root halves a Newton step until it reduces the residual and
# gives up below MIN_STEP, or below ABANDON_STEP in a call whose failure has a
# fallback (a BDF(p) attempt that march retakes as implicit Euler).  Such an
# attempt stalls after a few factorizations and is abandoned there instead of
# backtracking through a dozen more; its retake starts where it did, so the
# result moves only if an attempt that would succeed needs a shorter step.
# None does on the 89-case schedule sweep, the tests or the benchmark
# streams: every successful BDF(p) attempt there takes full steps only.
MIN_STEP = 2.0 ** -16
ABANDON_STEP = 2.0 ** -3


def symmetrize(M):
    """Exactly symmetric part (M + M^T)/2."""
    return 0.5 * (M + M.T)


def _fro(M):
    """Frobenius norm of a real matrix, without np.linalg.norm's per-call overhead."""
    return math.sqrt(np.vdot(M, M))


def _schur_eigenvalues(T):
    """Eigenvalues of a real quasi-upper-triangular (Schur form) matrix.

    A nonzero subdiagonal entry T[i+1, i] starts a 2x2 block [[a, b], [c, d]],
    whose eigenvalues are (a+d)/2 +- sqrt(((a-d)/2)^2 + b c); in LAPACK's
    standardized form a = d and b c < 0, so they are a +- i sqrt(-b c).
    """
    eigs = np.diag(T).astype(complex)
    i = np.flatnonzero(np.diag(T, -1))
    if i.size:
        a, d = T[i, i], T[i + 1, i + 1]
        mean = 0.5 * (a + d)
        root = np.sqrt((0.5 * (a - d)) ** 2 + T[i, i + 1] * T[i + 1, i] + 0j)
        eigs[i] = mean + root
        eigs[i + 1] = mean - root
    return eigs


class SchurFactor:
    """Real Schur form F = U T U^T of a Lyapunov coefficient, reusable across right-hand sides.

    The factorization and the check for an eigenvalue pair with
    lambda_i + lambda_j ~ 0 (SpectrumIncompatible, the equation is singular)
    run once; every solve is then a trsyl back-substitution and two
    orthogonal transforms.  eigenvalues holds F's, read off the Schur form.
    """

    def __init__(self, F):
        F = np.asarray(F, dtype=float)
        self.k = F.shape[0]
        if self.k == 0:
            self.eigenvalues = np.zeros(0, complex)
            return
        T, U = sla.schur(F, output="real")
        self.eigenvalues = eigs = _schur_eigenvalues(T)
        scale = max(np.abs(eigs).max(), 1.0)
        pair_sums = np.abs(eigs[:, None] + eigs[None, :])
        if pair_sums.min() <= 1e-12 * scale:
            raise SpectrumIncompatible(
                f"eigenvalue pair sum {pair_sums.min():.2e} below threshold"
            )
        self.T, self.U = T, U

    def solve(self, Q):
        """Symmetric X with F^T X + X F + Q = 0."""
        if self.k == 0:
            return np.zeros((0, 0))
        # T^T Xt + Xt T = s U^T Q U, and X = -U Xt U^T / s
        T, U = self.T, self.U
        Xt, s, info = lapack.dtrsyl(T, T, U.T @ Q @ U, trana="T", tranb="N", isgn=1)
        if info < 0:
            raise SpectrumIncompatible(f"trsyl failed with info={info}")
        return symmetrize(U @ (Xt / -s) @ U.T)


def solve_lyapunov(F, Q):
    """Solve F^T X + X F + Q = 0 for symmetric X (Bartels-Stewart).

    F is reduced to real Schur form once; the quasi-triangular system is then
    solved by LAPACK's trsyl back-substitution.  Raises SpectrumIncompatible
    when F has an eigenvalue pair with lambda_i + lambda_j ~ 0, in which case
    the equation is singular.
    """
    return SchurFactor(F).solve(Q)


def is_stable(M):
    return np.linalg.eigvals(M).real.max() < 0.0


def _bass_stabilizing_start(A, B):
    """Initial stabilizing iterate via the Bass algorithm.

    Solves (A + beta I) P + P (A + beta I)^T = 2 B B^T with beta beyond the
    spectral radius; for a controllable pair P > 0 and X = P^{-1} makes
    A - B B^T X stable.  Returns None when the construction degenerates.
    """
    beta = float(np.linalg.norm(A, 2)) + 1.0
    F = (A + beta * np.eye(A.shape[0])).T
    try:
        P = solve_lyapunov(F, -2.0 * B @ B.T)
    except SpectrumIncompatible:
        return None
    lam = np.linalg.eigvalsh(symmetrize(P))
    if lam.min() <= 1e-12 * max(lam.max(), 1e-300):
        return None
    X = np.linalg.inv(symmetrize(P))
    return symmetrize(X) if is_stable(A - B @ (B.T @ X)) else None


def solve_care(A, B, Q, x_init=None, tol=1e-12):
    """Stabilizing solution of A^T X + X A - X B B^T X + Q = 0.

    care_local_root from a stabilizing start: x_init (e.g. the solution on a
    smaller subspace) when its closed loop A - B B^T x_init is stable, else 0
    when A is stable, else the Bass start; if none exists, NoStabilizingGuess
    is raised.  The backtracking Newton does not keep its iterates
    stabilizing, so the root reached is checked and UnstableClosedLoop raised
    when its closed loop is not stable.  tol and MaxIterations are those of
    care_local_root.  Q may be indefinite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    X = None if x_init is None else symmetrize(np.asarray(x_init, dtype=float))
    if X is None or not is_stable(A - B @ (B.T @ X)):
        # both cold starts are stabilizing by construction
        X = np.zeros(A.shape) if is_stable(A) else _bass_stabilizing_start(A, B)
        if X is None:
            raise NoStabilizingGuess(
                "A unstable, no stabilizing warm start, and Bass initialization failed"
            )
    X = care_local_root(A, B, Q, X, tol=tol)[0]
    if not is_stable(A - B @ (B.T @ X)):
        raise UnstableClosedLoop("CARE Newton reached a root that is not stabilizing")
    return X


def care_local_root(A, B, Q, x_start, tol=1e-12, factor=None, forced=False, fallback=False):
    """Damped Newton for the CARE root nearest a warm start.

    Each step solves the Kleinman Lyapunov equation in delta form and
    backtracks on the residual norm, so convergence does not require the
    iterates (or the root) to be stabilizing -- BDF steps over a stiff
    transient produce exactly such roots.  With a full step accepted the
    iteration coincides with Newton-Kleinman.  Raises MaxIterations when the
    residual cannot be reduced to tol within CARE_MAXIT iterations, or when a
    step has to be cut below MIN_STEP (in particular when the step equation
    has no symmetric solution at all).  fallback marks a call whose failure
    the caller recovers from (bdf.integrate's BDF(p) attempts, which march
    retakes as implicit Euler): it gives up as soon as a step has to be cut
    below ABANDON_STEP.  solve_care is this iteration from a stabilizing
    start, without fallback.

    factor, a SchurFactor of an earlier closed loop A - B B^T X_old (e.g. the
    previous time step's), turns on chord steps: an iteration first takes
    the full step delta solved with that frozen factor and keeps it if the
    true residual falls CHORD_CONTRACTION-fold or passes the stop test;
    otherwise, or after a kept chord step that contracted less than
    CHORD_REFRESH-fold, the factor is refreshed at the current iterate and
    the damped Newton step is taken, after which chord steps use the new
    factor.  Without a factor every iteration is a damped Newton step.  The
    stop test is the true relative residual in both cases.  forced makes the
    first iteration run even at a start that already passes the stop test;
    that iteration keeps any step after which the test still passes, so a
    start at roundoff level is corrected, not reported as a stall.  X and every
    delta are exactly symmetric, and so is each iterate.  Returns (X, info):
    info holds the relative residual, the iterations (chord steps included),
    the Schur factorizations made and the last factor, for the next call; a
    MaxIterations raised carries the iterations and factorizations made
    before it.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = symmetrize(np.asarray(Q, dtype=float))
    X = symmetrize(np.asarray(x_start, dtype=float))
    q_norm = _fro(Q)
    a_norm2 = 2.0 * _fro(A)

    def state(Y):
        """Residual, its norm, the residual denominator and B^T Y at Y."""
        BtY = B.T @ Y
        R = A.T @ Y + Y @ A - BtY.T @ BtY + Q
        den = q_norm + a_norm2 * _fro(Y) + _fro(BtY) ** 2
        return R, _fro(R), max(den, 1e-300), BtY

    chord = chord_mode = factor is not None
    floor = ABANDON_STEP if fallback else MIN_STEP
    R, r, den, BtX = state(X)
    iters = factorizations = 0
    while r > tol * den or forced:
        settled, forced = forced and r <= tol * den, False
        if iters >= CARE_MAXIT:
            raise MaxIterations(
                f"damped CARE Newton: residual {r / den:.3e} after {CARE_MAXIT} steps",
                iters, factorizations,
            )
        iters += 1
        if chord:
            Xc = X + factor.solve(R)
            Rc, rc, den_c, BtXc = state(Xc)
            if np.isfinite(rc) and (rc <= CHORD_CONTRACTION * r or rc <= tol * den_c):
                chord = rc <= CHORD_REFRESH * r
                X, R, r, den, BtX = Xc, Rc, rc, den_c, BtXc
                continue
        factorizations += 1
        try:
            factor = SchurFactor(A - B @ BtX)
            delta = factor.solve(R)
        except SpectrumIncompatible as exc:
            raise MaxIterations(
                f"damped CARE Newton hit a singular linearization: {exc}",
                iters, factorizations,
            ) from exc
        t = 1.0
        while True:
            Xt = X + t * delta
            Rt, rt, den_t, BtXt = state(Xt)
            if ((rt <= (1.0 - 1e-4 * t) * r or settled and rt <= tol * den_t)
                    and np.all(np.isfinite(Rt))):
                break
            t *= 0.5
            if t < floor:
                raise MaxIterations(
                    f"damped CARE Newton stalled at residual {r / den:.3e} "
                    + ("(abandoned for its fallback)" if fallback
                       else "(no symmetric root reachable)"),
                    iters, factorizations,
                )
        X, R, r, den, BtX = Xt, Rt, rt, den_t, BtXt
        chord = chord_mode
    return X, {"iterations": iters, "residual": r / den,
               "factorizations": factorizations, "factor": factor}


def psd_factor(Y, dtol):
    """Small factor G with Y ~ G G^T, and the eigenvalues of Y (descending).

    Keeps the eigenpairs of the symmetric part of Y whose eigenvalue exceeds
    dtol times the largest one and scales the eigenvectors by sqrt(lambda).
    For PSD input this is the truncated SVD: the spectral-norm reconstruction
    error is at most dtol * lambda_max.  Eigenvalues at or below the threshold,
    including negative ones, are dropped (G has no columns for Y <= 0).
    """
    lam, W = np.linalg.eigh(symmetrize(np.asarray(Y, dtype=float)))
    lam, W = lam[::-1], W[:, ::-1]
    lmax = max(lam[0], 0.0) if lam.size else 0.0
    keep = lam > dtol * lmax if lmax > 0.0 else np.zeros(lam.shape, bool)
    return W[:, keep] * np.sqrt(lam[keep]), lam
