import numpy as np
import pytest

from krylov_dre import lqr
from krylov_dre.benchmarks import gen_convdiff2d
from krylov_dre.errors import NotConverged
from krylov_dre.lqr import (
    gain_schedule,
    optimal_cost,
    projected_cost_identity_check,
    simulate_closed_loop,
    steady_state,
)
from krylov_dre.problem import DREProblem

from conftest import dense_a


def test_cost_zero_state(solved49):
    assert optimal_cost(solved49, np.zeros(49)).value == 0.0


def test_cost_rank_one_factor():
    Z = np.zeros((5, 1))
    Z[0, 0] = 1.0
    x0 = np.zeros(5)
    x0[0] = 1.0
    assert optimal_cost(Z, x0).value == pytest.approx(1.0)


def test_cost_matches_dense_evaluation(solved49, convdiff49):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(49)
    J = optimal_cost(solved49, x0).value
    basis = solved49.basis
    V = basis.basis_matrix()
    X_dense = V @ solved49.y_final @ V.T
    J_dense = float(x0 @ X_dense @ x0)
    assert abs(J - J_dense) <= 1e-10 * max(J_dense, 1.0)


def test_projected_cost_identity(solved49):
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(49)
    J = optimal_cost(solved49, x0).value
    disc = projected_cost_identity_check(solved49.basis, solved49.y_final, x0)
    assert disc <= 1e-10 * max(J, 1.0)


def test_projected_cost_identity_orthogonal_state(solved49):
    basis = solved49.basis
    V = basis.basis_matrix()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(49)
    x0 = x - V @ (V.T @ x)  # orthogonal to the subspace
    xm0 = V.T @ x0
    lhs = float(xm0 @ solved49.y_final @ xm0)
    assert abs(lhs) <= 1e-18
    assert optimal_cost(solved49, x0).value <= 1e-16


def test_simulation_open_loop_when_b_zero():
    n = 6
    rng = np.random.default_rng(6)
    A = rng.standard_normal((n, n)) - 3 * np.eye(n)
    problem = DREProblem(A=A, B=np.zeros((n, 1)), C=rng.standard_normal((1, n)),
                         Z0=np.zeros((n, 1)), t_f=0.5)
    x0 = rng.standard_normal(n)
    sim = simulate_closed_loop(problem, None, x0, 1e-3)
    assert np.all(sim.inputs_sq == 0.0)
    assert sim.cost > 0.0


def test_simulated_cost_close_to_quadratic_form(solved49, convdiff49):
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(49)
    J = optimal_cost(solved49, x0).value
    sched = gain_schedule(solved49.samples, convdiff49.B, convdiff49.t_f)
    sim = simulate_closed_loop(convdiff49, sched, x0, 1e-4)
    assert abs(sim.cost - J) / J <= 0.01


def test_simulated_cost_first_order_in_h(solved49, convdiff49):
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal(49)
    J = optimal_cost(solved49, x0).value
    sched = gain_schedule(solved49.samples, convdiff49.B, convdiff49.t_f)
    errs = [abs(simulate_closed_loop(convdiff49, sched, x0, h).cost - J)
            for h in (4e-4, 2e-4, 1e-4)]
    for i in range(2):
        assert 1.7 <= errs[i] / errs[i + 1] <= 2.3


def test_scalar_steady_state():
    problem = DREProblem(A=np.array([[0.0]]), B=np.array([[1.0]]),
                         C=np.array([[1.0]]), Z0=np.zeros((1, 1)), t_f=1.0)
    Z = steady_state(problem)
    assert (Z @ Z.T)[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_scalar_long_horizon_cost_approaches_steady_state():
    from krylov_dre.problem import SolverConfig
    from krylov_dre.bdf import integrate

    one = np.ones((1, 1))
    config = SolverConfig(p=2, h=1e-2, care_tol=1e-13)
    traj = integrate(np.zeros((1, 1)), one, one, np.zeros((1, 1)), 12.0, config)
    x0 = 0.7
    # realized optimal cost for large horizon tends to x0^2 * x_inf = x0^2
    assert x0 ** 2 * traj.final[0, 0] == pytest.approx(x0 ** 2, rel=1e-6)


def test_steady_state_dense_residual(convdiff49):
    Z = steady_state(convdiff49, tol=1e-10)
    X = Z @ Z.T
    A = dense_a(convdiff49)
    B, C = convdiff49.B, convdiff49.C
    R = A.T @ X + X @ A - X @ B @ (B.T @ X) + C.T @ C
    den = (np.linalg.norm(C.T @ C, "fro")
           + 2 * np.linalg.norm(A, "fro") * np.linalg.norm(X, "fro")
           + np.linalg.norm(B.T @ X, "fro") ** 2)
    assert np.linalg.norm(R, "fro") / den <= 1e-10


def test_steady_state_large_uses_factor():
    from krylov_dre.benchmarks import gen_heat1d_fem

    problem = gen_heat1d_fem(300, seed=3, alpha=0.05, dt=7e-5, t_f=1.0)
    Z = steady_state(problem, tol=1e-9)
    assert Z.shape[0] == 300
    assert Z.shape[1] < 300
    A = dense_a(problem)
    X = Z @ Z.T
    R = A.T @ X + X @ A - X @ problem.B @ (problem.B.T @ X) \
        + problem.C.T @ problem.C
    assert np.linalg.norm(R, 2) <= 1e-8


def test_gain_schedule_shapes_and_dense_gain(solved49, convdiff49):
    sched = gain_schedule(solved49.samples, convdiff49.B, convdiff49.t_f)
    assert sched.times[0] == 0.0
    assert sched.times[-1] == pytest.approx(convdiff49.t_f)
    K = sched.dense_gain(0)
    assert K.shape == (convdiff49.ell, convdiff49.n)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(49)
    assert np.allclose(sched.apply(0, x), K @ x, atol=1e-12)


def test_gain_schedule_requires_coverage(convdiff49):
    with pytest.raises(ValueError):
        gain_schedule([(0.5, np.zeros((49, 1)))], convdiff49.B, 1.0)


def test_steady_state_partial_breakdown_raises(monkeypatch):
    # the Krylov branch on a problem whose basis breaks down partially at m=2
    monkeypatch.setattr(lqr, "DENSE_STEADY_MAX_N", 0)
    with pytest.raises(NotConverged) as info:
        steady_state(gen_convdiff2d(3, seed=1, t_f=0.1), tol=1e-10)
    assert info.value.breakdown and info.value.last_residual > 1e-10
