import numpy as np
import pytest

from krylov_dre.benchmarks import gen_convdiff2d
from krylov_dre.problem import SolverConfig
from krylov_dre.solver import solve


def random_stable(k, seed, shift=3.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, k)) - shift * np.eye(k)


def dense_a(problem):
    import scipy.sparse as sp

    A = problem.A
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)


def lyapunov_residual(F, Q, X):
    """Relative residual ||F^T X + X F + Q||_F / (2 ||F||_F ||X||_F + ||Q||_F)."""
    num = np.linalg.norm(F.T @ X + X @ F + Q, "fro")
    den = 2.0 * np.linalg.norm(F, "fro") * np.linalg.norm(X, "fro") + np.linalg.norm(Q, "fro")
    return num / max(den, 1e-300)


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


def projected_cost_identity_check(basis, y_final, x0):
    """|x_m0^T Y(T_f) x_m0 - x0^T X_m(T_f) x0|, an algebraic identity check.

    The right-hand side is evaluated through the untruncated product
    V (Y (V^T x0)) so the discrepancy is pure roundoff.
    """
    V = basis.basis_matrix()
    x0 = np.asarray(x0, dtype=float)
    xm0 = V.T @ x0
    lhs = float(xm0 @ (y_final @ xm0))
    rhs = float(x0 @ (V @ (y_final @ (V.T @ x0))))
    return abs(lhs - rhs)


@pytest.fixture(scope="session")
def convdiff49():
    return gen_convdiff2d(7, seed=7, t_f=1.0)


@pytest.fixture(scope="session")
def config49():
    return SolverConfig(p=2, h=1e-3, tol=1e-10, m_max=20)


@pytest.fixture(scope="session")
def solved49(convdiff49, config49):
    sample_times = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    return solve(convdiff49, config49, sample_times=sample_times)
