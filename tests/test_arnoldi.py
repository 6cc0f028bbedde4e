import numpy as np
import pytest
import scipy.sparse as sp

from krylov_dre import arnoldi
from krylov_dre.benchmarks import gen_convdiff2d
from krylov_dre.errors import Breakdown, RankDeficientSeed
from krylov_dre.problem import factorize


def _cd49():
    problem = gen_convdiff2d(7, seed=7)
    return problem, factorize(problem.A)


def test_seed_duplicated_column_rank_deficient():
    handle = factorize(sp.identity(6, format="csc"))
    C = np.zeros((1, 6))
    C[0, 0] = 1.0
    # A = I makes [C^T, A^{-T}C^T] = [c, c], rank 1
    with pytest.raises(RankDeficientSeed):
        arnoldi.seed(handle, C)


def test_seed_eigenvector_rank_deficient():
    handle = factorize(sp.diags([1.0, 2.0, 3.0, 4.0]).tocsc())
    C = np.zeros((1, 4))
    C[0, 0] = 1.0  # e_1 is an eigenvector, so A^{-T} C^T is parallel to C^T
    with pytest.raises(RankDeficientSeed):
        arnoldi.seed(handle, C)


def test_seed_orthogonality_and_lambda_vs_dense_qr():
    problem, handle = _cd49()
    basis = arnoldi.seed(handle, problem.C)
    V1 = basis.V
    assert V1.shape == (49, 4)
    assert np.linalg.norm(V1.T @ V1 - np.eye(4)) <= 1e-12
    # Lambda11 nonsingular and C^T = V1^(1) Lambda11
    assert np.abs(np.diag(basis.Lambda11)).min() > 0
    assert np.linalg.norm(problem.C.T - V1[:, :2] @ basis.Lambda11) <= 1e-12

    # against a dense QR oracle, up to column signs
    U = np.hstack([problem.C.T, np.linalg.solve(problem.A.toarray().T, problem.C.T)])
    Qd, Rd = np.linalg.qr(U)
    s_ours = np.sign(np.diag(V1.T @ U))
    s_dense = np.sign(np.diag(Rd))
    assert np.allclose(V1 * s_ours, Qd * s_dense, atol=1e-10)
    assert np.allclose(s_ours[:2, None] * basis.Lambda11, s_dense[:2, None] * Rd[:2, :2],
                       atol=1e-10)


def test_expand_invariant_subspace_breakdown():
    handle = factorize(sp.diags([1.0, 2.0, 3.0, 4.0]).tocsc())
    C = np.ones((1, 4))
    basis = arnoldi.seed(handle, C)
    arnoldi.expand(basis, handle)  # reaches R^4
    with pytest.raises(Breakdown):
        arnoldi.expand(basis, handle)
    assert basis.breakdown
    assert basis.order == 2
    # after the clean breakdown the square projected matrix is exact
    V = basis.basis_matrix()
    T = basis.t_square()
    assert np.linalg.norm(V.T @ (handle.apply_t(V)) - T) <= 1e-12


def test_arnoldi_relation_every_iteration():
    problem, handle = _cd49()
    basis = arnoldi.seed(handle, problem.C)
    for _ in range(6):
        arnoldi.expand(basis, handle)
        assert arnoldi.orthonormality_deviation(basis) <= 1e-10
        assert arnoldi.relation_residual(basis) <= 1e-10


def _galerkin_defect(basis, handle):
    """||T - V^T A^T V_m||_F / ||T||_F over all of T, coupling row included."""
    exact = basis.V.T @ handle.apply_t(basis.basis_matrix())
    return np.linalg.norm(basis.T - exact) / np.linalg.norm(basis.T)


def test_t_is_galerkin_matrix_every_order():
    # the blocks below the first subdiagonal vanish only in exact
    # arithmetic; T must hold V^T A^T V there too, not structural zeros
    problem, handle = _cd49()
    basis = arnoldi.seed(handle, problem.C)
    for _ in range(10):
        arnoldi.expand(basis, handle)
        assert _galerkin_defect(basis, handle) <= 1e-14
        # t_square() and the coupling row are the two parts of that T
        k = basis.order * basis.w
        assert np.array_equal(basis.t_square(), basis.T[:k])
        assert np.array_equal(basis.t_coupling(), basis.T[k:])
    for m in range(1, basis.order):
        assert _galerkin_defect(basis.truncated(m), handle) <= 1e-14
    # n = 16: the fourth expansion breaks down and T is square
    problem = gen_convdiff2d(4, seed=1)
    handle = factorize(problem.A)
    basis = arnoldi.seed(handle, problem.C)
    with pytest.raises(Breakdown):
        for _ in range(5):
            arnoldi.expand(basis, handle)
    assert basis.T.shape == (16, 16) and basis.t_coupling() is None
    assert _galerkin_defect(basis, handle) <= 1e-14


def test_subspace_nesting_append_only():
    problem, handle = _cd49()
    basis = arnoldi.seed(handle, problem.C)
    arnoldi.expand(basis, handle)
    V_before = basis.truncated(1).basis_matrix().copy()
    arnoldi.expand(basis, handle)
    assert np.array_equal(basis.truncated(1).basis_matrix(), V_before)


def test_projected_matrix_is_galerkin_compression():
    handle = factorize(sp.diags(np.linspace(1.0, 2.0, 8)).tocsc())
    rng = np.random.default_rng(3)
    C = rng.standard_normal((2, 8))
    basis = arnoldi.seed(handle, C)
    arnoldi.expand(basis, handle)
    T1, B1, C1 = arnoldi.projected_matrices(basis, rng.standard_normal((8, 3)))
    V1 = basis.truncated(1).basis_matrix()
    A = np.diag(np.linspace(1.0, 2.0, 8))
    assert np.allclose(T1, V1.T @ A.T @ V1, atol=1e-12)


def test_identity_like_operator_rank_deficient_seed():
    # for scalar multiples of I the second seed block is parallel to the
    # first, so the extended seed cannot be built (and the projected matrix
    # would trivially be a multiple of I)
    handle = factorize((2.5 * sp.identity(6)).tocsc())
    rng = np.random.default_rng(5)
    C = rng.standard_normal((2, 6))
    with pytest.raises(RankDeficientSeed):
        arnoldi.seed(handle, C)


def test_c_m_assembly_matches_multiplication(convdiff49):
    handle = factorize(convdiff49.A)
    basis = arnoldi.seed(handle, convdiff49.C)
    for _ in range(4):
        arnoldi.expand(basis, handle)
    T_m, B_m, C_m = arnoldi.projected_matrices(basis, convdiff49.B)
    V = basis.basis_matrix()
    assert np.linalg.norm(C_m.T - V.T @ convdiff49.C.T) <= 1e-12
    # orthogonal projection contracts the Frobenius norm
    assert np.linalg.norm(B_m, "fro") <= np.linalg.norm(convdiff49.B, "fro") + 1e-14


def test_diagnostics_history(convdiff49):
    handle = factorize(convdiff49.A)
    basis = arnoldi.seed(handle, convdiff49.C)
    for _ in range(4):
        arnoldi.expand(basis, handle)
    rows = arnoldi.diagnostics_history(basis)
    assert [r[0] for r in rows] == [1, 2, 3, 4]
    assert all(r[1] <= 1e-10 and r[2] <= 1e-10 for r in rows)


def test_diagnostics_history_after_breakdown():
    # n = 16 = 4 blocks of 2s = 4 columns: expansion 4 finds the space full
    problem = gen_convdiff2d(4, seed=1)
    handle = factorize(problem.A)
    basis = arnoldi.seed(handle, problem.C)
    with pytest.raises(Breakdown):
        for _ in range(5):
            arnoldi.expand(basis, handle)
    assert basis.breakdown and basis.order == 4
    assert basis.truncated(basis.order) is basis
    rows = arnoldi.diagnostics_history(basis)
    assert [r[0] for r in rows] == [1, 2, 3, 4]
    assert all(r[1] <= 1e-10 and r[2] <= 1e-10 for r in rows)
