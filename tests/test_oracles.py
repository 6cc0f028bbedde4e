import numpy as np
import pytest

from krylov_dre import dense
from krylov_dre.errors import NotStabilizable
from krylov_dre.oracles import (
    dense_reference_integrate,
    exact_solution,
    oracle_data,
    resolve_convention,
)
from krylov_dre.problem import DREProblem



def _scalar_problem(x0):
    return DREProblem(
        A=np.array([[0.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]),
        Z0=np.array([[np.sqrt(x0)]]), t_f=1.0,
    )


def _seeded_problem(n, seed, t_f=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) - (2.5 + np.sqrt(n) / 2) * np.eye(n)
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((2, n))
    L = 0.3 * rng.standard_normal((n, n))
    Z0 = np.linalg.cholesky(L @ L.T + 0.4 * np.eye(n))
    return DREProblem(A=A, B=B, C=C, Z0=Z0, t_f=t_f)


def test_exact_solution_at_time_zero():
    problem = _seeded_problem(6, seed=1)
    X0 = problem.Z0 @ problem.Z0.T
    X = exact_solution(problem, 0.0)
    assert np.allclose(X, X0, atol=1e-10)


def test_scalar_closed_form_above_fixed_point():
    problem = _scalar_problem(2.0)
    for t in (0.3, 0.7, 1.5):
        expected = (3.0 + np.exp(-2 * t)) / (3.0 - np.exp(-2 * t))
        assert exact_solution(problem, t)[0, 0] == pytest.approx(expected, abs=1e-10)


def test_scalar_closed_form_tanh_shift():
    x0 = 0.5
    problem = _scalar_problem(x0)
    for t in (0.2, 1.0):
        expected = np.tanh(t + np.arctanh(x0))
        assert exact_solution(problem, t)[0, 0] == pytest.approx(expected, abs=1e-10)


def test_convention_resolution_unique():
    # the pair derived from the Bernoulli substitution (module docstring)
    assert resolve_convention() == resolve_convention(force=True) == ("as_printed", "plain")


def test_oracle_data_properties():
    problem = _seeded_problem(8, seed=3)
    Xt, At, Zt = oracle_data(problem)
    A = problem.A
    assert np.linalg.eigvals(At).real.max() < 0
    res = A.T @ Xt + Xt @ A - Xt @ problem.B @ problem.B.T @ Xt + problem.C.T @ problem.C
    assert np.linalg.norm(res, "fro") <= 1e-10 * max(np.linalg.norm(Xt), 1)
    lyap = At @ Zt + Zt @ At.T - problem.B @ problem.B.T
    assert np.linalg.norm(lyap, "fro") <= 1e-10 * max(np.linalg.norm(Zt), 1)


def test_oracle_data_non_stabilizing_root_is_not_stabilizable(monkeypatch):
    # a = b = 1, c = 0: a Newton that ends at the root 0 (closed loop +1)
    # instead of 2 leaves no stabilizing solution for the closed form
    monkeypatch.setattr(dense, "care_local_root", lambda A, B, Q, X, tol: (0.0 * X, {}))
    problem = DREProblem(A=np.array([[1.0]]), B=np.array([[1.0]]), C=np.array([[0.0]]),
                         Z0=np.array([[1.0]]), t_f=1.0)
    with pytest.raises(NotStabilizable):
        oracle_data(problem)


def test_cross_oracle_agreement():
    problem = _seeded_problem(10, seed=5)
    X_int = dense_reference_integrate(problem, 1e-4, [1.0])[0]
    X_formula = exact_solution(problem, 1.0)
    rel = np.linalg.norm(X_formula - X_int) / np.linalg.norm(X_int)
    assert rel <= 1e-6


def test_trajectory_converges_to_algebraic_solution():
    problem = _seeded_problem(10, seed=7, t_f=50.0)
    Xt = oracle_data(problem)[0]
    diff = np.linalg.norm(exact_solution(problem, 50.0) - Xt, "fro")
    assert diff <= 1e-4
    # monotone tail
    ds = [np.linalg.norm(exact_solution(problem, t) - Xt, "fro")
          for t in (5.0, 10.0, 20.0, 50.0)]
    assert all(a >= b for a, b in zip(ds, ds[1:]))


def test_reference_integrator_scalar_tanh():
    problem = DREProblem(
        A=np.array([[0.0]]), B=np.array([[1.0]]), C=np.array([[1.0]]),
        Z0=np.array([[1e-8]]), t_f=1.0,
    )
    X = dense_reference_integrate(problem, 1e-4, [1.0])[0]
    assert abs(X[0, 0] - np.tanh(1.0)) <= 1e-7


def test_reference_integrator_zero_problem():
    n = 4
    problem = DREProblem(
        A=-np.eye(n), B=np.zeros((n, 1)), C=np.zeros((1, n)),
        Z0=np.zeros((n, 1)), t_f=0.5,
    )
    xs = dense_reference_integrate(problem, 1e-3, [0.1, 0.5])
    assert all(np.all(X == 0.0) for X in xs)


def test_reference_integrator_grid_validation():
    problem = _seeded_problem(4, seed=9)
    with pytest.raises(ValueError):
        dense_reference_integrate(problem, 1e-3, [0.0005])


def test_exact_solution_requires_positive_definite_start():
    problem = _seeded_problem(5, seed=11)
    bad = DREProblem(A=problem.A, B=problem.B, C=problem.C,
                     Z0=np.zeros((5, 2)), t_f=1.0)
    with pytest.raises(ValueError):
        exact_solution(bad, 0.5)


def test_oracle_size_guard():
    big = _seeded_problem(8, seed=13)
    big_problem = DREProblem(
        A=np.kron(np.eye(30), big.A), B=np.tile(big.B, (30, 1)),
        C=np.tile(big.C, (1, 30)), Z0=np.tile(big.Z0, (30, 1)), t_f=1.0,
    )
    with pytest.raises(ValueError):
        exact_solution(big_problem, 0.5)
