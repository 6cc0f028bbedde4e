"""Dense matrix-equation kernels: Lyapunov, Riccati, matrix exponential, PSD factors.

These operate on the small projected matrices (order a few hundred at most).
All solvers symmetrize their output and are pure functions of their inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import MaxIterations, NoStabilizingGuess, SpectrumIncompatible


def symmetrize(M):
    """Exactly symmetric part (M + M^T)/2."""
    return 0.5 * (M + M.T)


def _schur_eigenvalues(T):
    """Eigenvalues of a real quasi-upper-triangular (Schur form) matrix."""
    k = T.shape[0]
    eigs = np.empty(k, dtype=complex)
    i = 0
    while i < k:
        if i + 1 < k and T[i + 1, i] != 0.0:
            eigs[i : i + 2] = np.linalg.eigvals(T[i : i + 2, i : i + 2])
            i += 2
        else:
            eigs[i] = T[i, i]
            i += 1
    return eigs


def lyapunov_residual(F, Q, X):
    """Relative residual ||F^T X + X F + Q||_F / (2 ||F||_F ||X||_F + ||Q||_F)."""
    num = np.linalg.norm(F.T @ X + X @ F + Q, "fro")
    den = 2.0 * np.linalg.norm(F, "fro") * np.linalg.norm(X, "fro") + np.linalg.norm(Q, "fro")
    return num / max(den, 1e-300)


def solve_lyapunov(F, Q):
    """Solve F^T X + X F + Q = 0 for symmetric X (Bartels-Stewart).

    F is reduced to real Schur form once; the quasi-triangular system is then
    solved by LAPACK's trsyl back-substitution.  Raises SpectrumIncompatible
    when F has an eigenvalue pair with lambda_i + lambda_j ~ 0, in which case
    the equation is singular.
    """
    F = np.asarray(F, dtype=float)
    Q = np.asarray(Q, dtype=float)
    k = F.shape[0]
    if k == 0:
        return np.zeros((0, 0))
    T, U = sla.schur(F, output="real")
    eigs = _schur_eigenvalues(T)
    scale = max(np.abs(eigs).max(), 1.0)
    pair_sums = np.abs(eigs[:, None] + eigs[None, :])
    if pair_sums.min() <= 1e-12 * scale:
        raise SpectrumIncompatible(
            f"eigenvalue pair sum {pair_sums.min():.2e} below threshold"
        )
    Qt = U.T @ (-Q) @ U
    Xt, s, info = lapack.dtrsyl(T, T, Qt, trana="T", tranb="N", isgn=1)
    if info < 0:
        raise SpectrumIncompatible(f"trsyl failed with info={info}")
    X = U @ (Xt / s) @ U.T
    return symmetrize(X)


def care_residual(A, B, Q, X):
    """Relative residual of A^T X + X A - X B B^T X + Q = 0 at X."""
    BtX = B.T @ X
    R = A.T @ X + X @ A - BtX.T @ BtX + Q
    den = (
        np.linalg.norm(Q, "fro")
        + 2.0 * np.linalg.norm(A, "fro") * np.linalg.norm(X, "fro")
        + np.linalg.norm(BtX, "fro") ** 2
    )
    return np.linalg.norm(R, "fro") / max(den, 1e-300)


def newton_kleinman_step(A, B, Q, X_p):
    """One Newton-Kleinman iterate for the CARE A^T X + X A - X BB^T X + Q = 0.

    Solves the Lyapunov equation with the closed loop A - B B^T X_p and the
    constant term X_p B B^T X_p + Q.  Requires the closed loop to be stable;
    SpectrumIncompatible from the inner solve means X_p is not stabilizing.
    """
    BtX = B.T @ X_p
    F = A - B @ BtX
    return solve_lyapunov(F, symmetrize(BtX.T @ BtX + Q))


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


def solve_care(A, B, Q, x_init=None, tol=1e-12, maxit=50, return_info=False):
    """Stabilizing solution of A^T X + X A - X B B^T X + Q = 0 by Newton-Kleinman.

    Parameters
    ----------
    x_init : warm start, used when given (the previous timestep's solution in
        the BDF loop).  Otherwise the iteration starts from 0, which requires
        A itself to be stable; if neither holds, NoStabilizingGuess is raised.
    tol : relative residual stopping tolerance.
    maxit : iteration cap; MaxIterations is raised when exceeded.

    Q may be indefinite (BDF steps with negative alpha_i produce indefinite
    constant terms); only a stabilizing start is required.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = symmetrize(np.asarray(Q, dtype=float))
    k = A.shape[0]
    if x_init is not None:
        X = symmetrize(np.asarray(x_init, dtype=float))
    else:
        X = np.zeros((k, k))
        if not is_stable(A):
            X = _bass_stabilizing_start(A, B)
            if X is None:
                raise NoStabilizingGuess(
                    "A unstable, no warm start, and Bass initialization failed"
                )
    if not is_stable(A - B @ (B.T @ X)):
        raise NoStabilizingGuess("initial closed loop A - B B^T X0 is not stable")
    iters = 0
    res = care_residual(A, B, Q, X)
    while res > tol:
        if iters >= maxit:
            raise MaxIterations(
                f"Newton-Kleinman: residual {res:.3e} > {tol:.1e} after {maxit} steps"
            )
        X = newton_kleinman_step(A, B, Q, X)
        if not np.all(np.isfinite(X)):
            raise SpectrumIncompatible("Newton-Kleinman produced non-finite iterate")
        iters += 1
        res = care_residual(A, B, Q, X)
    if return_info:
        return X, {"iterations": iters, "residual": res}
    return X


def care_local_root(A, B, Q, x_start, tol=1e-12, maxit=50, return_info=False):
    """Damped Newton for the CARE root nearest a warm start.

    Each step solves the Kleinman Lyapunov equation in delta form and
    backtracks on the residual norm, so convergence does not require the
    iterates (or the root) to be stabilizing -- BDF steps over a stiff
    transient produce exactly such roots.  With a full step accepted the
    iteration coincides with Newton-Kleinman.  Raises MaxIterations when the
    residual cannot be reduced to tol (in particular when the step equation
    has no symmetric solution at all).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = symmetrize(np.asarray(Q, dtype=float))
    X = symmetrize(np.asarray(x_start, dtype=float))

    def resid(Y):
        BtY = B.T @ Y
        return A.T @ Y + Y @ A - BtY.T @ BtY + Q

    def den(Y):
        return (
            np.linalg.norm(Q, "fro")
            + 2.0 * np.linalg.norm(A, "fro") * np.linalg.norm(Y, "fro")
            + np.linalg.norm(B.T @ Y, "fro") ** 2
        )

    R = resid(X)
    r = np.linalg.norm(R, "fro")
    iters = 0
    while r > tol * max(den(X), 1e-300):
        if iters >= maxit:
            raise MaxIterations(
                f"damped CARE Newton: residual {r / max(den(X), 1e-300):.3e} "
                f"after {maxit} steps"
            )
        F_cl = A - B @ (B.T @ X)
        try:
            delta = solve_lyapunov(F_cl, R)
        except SpectrumIncompatible as exc:
            raise MaxIterations(
                f"damped CARE Newton hit a singular linearization: {exc}"
            ) from exc
        t = 1.0
        while True:
            Xt = symmetrize(X + t * delta)
            Rt = resid(Xt)
            rt = np.linalg.norm(Rt, "fro")
            if rt <= (1.0 - 1e-4 * t) * r and np.all(np.isfinite(Rt)):
                break
            t *= 0.5
            if t < 2.0 ** -16:
                raise MaxIterations(
                    f"damped CARE Newton stalled at residual "
                    f"{r / max(den(X), 1e-300):.3e} (no symmetric root reachable)"
                )
        X, R, r = Xt, Rt, rt
        iters += 1
    if return_info:
        return X, {"iterations": iters, "residual": r / max(den(X), 1e-300)}
    return X


def matrix_exponential(M):
    """Matrix exponential (scaling-and-squaring with Pade kernel)."""
    return sla.expm(np.asarray(M, dtype=float))


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
