import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from krylov_dre.benchmarks import gen_convdiff2d
from krylov_dre.errors import DimensionMismatch, ParseError, SingularA
from krylov_dre.problem import (
    DREProblem,
    SolverConfig,
    config_from_file,
    factorize,
    validate,
)

from conftest import dense_a


def test_validate_consistent_instance():
    problem = gen_convdiff2d(7, seed=0)
    report = validate(problem)
    assert report.valid
    assert (report.n, report.ell, report.s) == (49, 2, 2)
    assert report.rank_b == 2 and report.rank_c == 2


def test_validate_flags_rank_deficient_b():
    problem = gen_convdiff2d(7, seed=0)
    B = problem.B.copy()
    B[:, 1] = B[:, 0]
    bad = DREProblem(A=problem.A, B=B, C=problem.C, Z0=problem.Z0, t_f=1.0)
    report = validate(bad)
    assert not report.valid
    assert any("rank deficient" in msg for msg in report.issues)
    assert report.rank_b == 1


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_validate_zero_a_raises_singular():
    # one pivot test serves both factorizations: SuperLU and LAPACK
    n = 5
    for A in (sp.csc_matrix((n, n)), np.zeros((n, n))):
        problem = DREProblem(
            A=A, B=np.ones((n, 1)), C=np.ones((1, n)), Z0=np.zeros((n, 1)), t_f=1.0,
        )
        with pytest.raises(SingularA):
            validate(problem)


def test_validate_shape_mismatch():
    problem = DREProblem(
        A=np.eye(4), B=np.ones((3, 1)), C=np.ones((1, 4)),
        Z0=np.zeros((4, 1)), t_f=1.0,
    )
    with pytest.raises(DimensionMismatch):
        validate(problem)


def test_factorize_identity_solve():
    h = factorize(sp.identity(6, format="csc"))
    V = np.arange(12.0).reshape(6, 2)
    assert np.allclose(h.solve_t(V), V)


def test_factorize_diagonal_solve():
    h = factorize(sp.diags(np.arange(1.0, 6.0)).tocsc())
    e3 = np.zeros((5, 1))
    e3[2] = 1.0
    assert np.allclose(h.solve_t(e3), e3 / 3.0)


def test_factorize_roundtrip_small_benchmark():
    problem = gen_convdiff2d(3, seed=1)
    h = factorize(problem.A)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((9, 3))
    back = h.apply_t(h.solve_t(V))
    assert np.linalg.norm(back - V) / np.linalg.norm(V) <= 1e-12


def test_factorize_roundtrip_heat_family():
    from krylov_dre.benchmarks import gen_heat1d_fem

    problem = gen_heat1d_fem(32, seed=1)
    h = factorize(problem.A)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((32, 2))
    back = h.apply_t(h.solve_t(V))
    assert np.linalg.norm(back - V) / np.linalg.norm(V) <= 1e-12


def test_dense_operator_matches_sparse():
    problem = gen_convdiff2d(3, seed=1)
    hs = factorize(problem.A)
    hd = factorize(dense_a(problem))
    rng = np.random.default_rng(1)
    V = rng.standard_normal((9, 2))
    for op in ("apply_t", "solve_t"):
        assert np.allclose(getattr(hs, op)(V), getattr(hd, op)(V), atol=1e-11)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adjoint_identity(seed):
    # <A U, W> == <U, A^T W> to high relative accuracy, A U formed from the matrix
    problem = gen_convdiff2d(3, seed=seed % 50)
    h = factorize(problem.A)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((9, 2))
    W = rng.standard_normal((9, 2))
    lhs = np.sum((problem.A @ U) * W)
    rhs = np.sum(U * h.apply_t(W))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_operation_counters():
    h = factorize(sp.identity(4, format="csc"))
    h.apply_t(np.ones((4, 3)))
    h.solve_t(np.ones(4))
    assert h.matvecs == 3
    assert h.solves == 1


@pytest.mark.parametrize("form", ["csc", "ndarray"])
def test_handle_forms_agree_and_count_columns(form):
    A = gen_convdiff2d(3, seed=2).A
    ref = factorize(A)
    h = factorize(A.tocsc() if form == "csc" else A.toarray())
    rng = np.random.default_rng(3)
    for V in (rng.standard_normal(9), rng.standard_normal((9, 4))):
        for op in ("apply_t", "solve_t"):
            before = (h.matvecs, h.solves)
            out = getattr(h, op)(V)
            assert np.linalg.norm(out - getattr(ref, op)(V)) <= 1e-12 * np.linalg.norm(out)
            k = 1 if V.ndim == 1 else V.shape[1]
            added = (h.matvecs - before[0], h.solves - before[1])
            assert added == ((k, 0) if op == "apply_t" else (0, k))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(p=4).validate()
    with pytest.raises(ValueError):
        SolverConfig(h=-1.0).validate()
    assert SolverConfig().validate().p == 2


def test_config_from_file(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text("# comment\np = 3\nh = 0.002\ntol = 1e-8\ncheck_stride = 3\n")
    config = config_from_file(path)
    assert config.p == 3
    assert config.h == pytest.approx(0.002)
    assert config.tol == pytest.approx(1e-8)
    assert config.check_stride == 3


def test_config_from_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "solver.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(ParseError):
        config_from_file(path)


def test_config_from_file_missing(tmp_path):
    with pytest.raises(ParseError):
        config_from_file(tmp_path / "absent.cfg")
