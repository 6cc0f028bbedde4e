import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from krylov_dre import dense
from krylov_dre.bdf import (
    assemble_care_step,
    bdf_coefficients,
    bdf_step,
    integrate,
    step_grid,
)
from krylov_dre.errors import UnsupportedOrder
from krylov_dre.problem import SolverConfig

from conftest import random_stable

TANH1 = math.tanh(1.0)


def _scalar_system():
    one = np.ones((1, 1))
    return np.zeros((1, 1)), one, one, np.zeros((1, 1))


def test_coefficients_table_exact():
    c1 = bdf_coefficients(1)
    assert (c1.beta, c1.alpha) == (1.0, (1.0,))
    c2 = bdf_coefficients(2)
    assert c2.beta == 2.0 / 3.0
    assert c2.alpha == (4.0 / 3.0, -1.0 / 3.0)
    c3 = bdf_coefficients(3)
    assert c3.beta == 6.0 / 11.0
    assert c3.alpha == (18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0)


def test_coefficients_consistency():
    # a consistent multistep method reproduces constants: sum alpha_i = 1
    for p in (1, 2, 3):
        assert sum(bdf_coefficients(p).alpha) == pytest.approx(1.0, abs=1e-15)


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        bdf_coefficients(4)


def test_assemble_direct_p1():
    k = 3
    step = assemble_care_step(
        np.zeros((k, k)), np.zeros((k, 1)), np.zeros((1, k)),
        [np.eye(k)], 1.0, bdf_coefficients(1),
    )
    assert np.allclose(step.curly_a, -0.5 * np.eye(k))
    assert np.allclose(step.q_step, np.eye(k))


def test_assemble_p2_formula():
    rng = np.random.default_rng(0)
    k = 4
    T = rng.standard_normal((k, k))
    B = rng.standard_normal((k, 2))
    C = rng.standard_normal((2, k))
    Yk = rng.standard_normal((k, k)); Yk = Yk + Yk.T
    Ykm1 = rng.standard_normal((k, k)); Ykm1 = Ykm1 + Ykm1.T
    h = 1e-3
    step = assemble_care_step(T, B, C, [Yk, Ykm1], h, bdf_coefficients(2))
    expected = (2 * h / 3) * (C.T @ C) + (4.0 / 3.0) * Yk - (1.0 / 3.0) * Ykm1
    assert np.allclose(step.q_step, 0.5 * (expected + expected.T), atol=1e-14)
    assert np.allclose(step.curly_a, (2 * h / 3) * T - 0.5 * np.eye(k))
    assert np.allclose(step.curly_b, math.sqrt(2 * h / 3) * B)


def test_assembled_q_exactly_symmetric():
    rng = np.random.default_rng(1)
    k = 5
    T = rng.standard_normal((k, k))
    C = rng.standard_normal((2, k))
    Y = rng.standard_normal((k, k)); Y = 0.5 * (Y + Y.T)
    step = assemble_care_step(T, rng.standard_normal((k, 2)), C, [Y], 0.01,
                              bdf_coefficients(1))
    assert np.linalg.norm(step.q_step - step.q_step.T) == 0.0


def test_history_length_checked():
    with pytest.raises(ValueError):
        assemble_care_step(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                           [np.zeros((1, 1))], 0.1, bdf_coefficients(2))


def test_bdf_step_stationary_fixed_point():
    from krylov_dre.dense import solve_care

    A = random_stable(4, seed=3)
    rng = np.random.default_rng(4)
    B = rng.standard_normal((4, 1))
    C = rng.standard_normal((1, 4))
    # stationary Y solves T Y + Y T^T - Y B B^T Y + C^T C = 0 with T = A^T
    Y_star = solve_care(A, B, C.T @ C)
    step = assemble_care_step(A.T, B, C, [Y_star], 1e-2, bdf_coefficients(1))
    Y1, info = bdf_step(step, Y_star, tol=1e-13)
    assert np.linalg.norm(Y1 - Y_star, "fro") <= 1e-10 * np.linalg.norm(Y_star, "fro")


def test_scalar_euler_error_bound():
    T, B, C, Y0 = _scalar_system()
    h = 1e-2
    config = SolverConfig(p=1, h=h, care_tol=1e-14)
    traj = integrate(T, B, C, Y0, 1.0, config)
    assert abs(traj.final[0, 0] - TANH1) <= 2 * h


def test_scalar_p2_richardson_ratio():
    T, B, C, Y0 = _scalar_system()
    errs = []
    for h in (4e-3, 2e-3):
        config = SolverConfig(p=2, h=h, care_tol=1e-14)
        traj = integrate(T, B, C, Y0, 1.0, config)
        errs.append(abs(traj.final[0, 0] - TANH1))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_scalar_p2_error_at_unit_time():
    T, B, C, Y0 = _scalar_system()
    config = SolverConfig(p=2, h=1e-3, care_tol=1e-14)
    traj = integrate(T, B, C, Y0, 1.0, config)
    assert abs(traj.final[0, 0] - TANH1) <= 1e-5


@settings(max_examples=4, deadline=None)
@given(p=st.sampled_from([1, 2]))
def test_empirical_order_within_band(p):
    T, B, C, Y0 = _scalar_system()
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        config = SolverConfig(p=p, h=h, care_tol=1e-14)
        errs.append(abs(integrate(T, B, C, Y0, 1.0, config).final[0, 0] - TANH1))
    for i in range(2):
        order = math.log2(errs[i] / errs[i + 1])
        assert p - 0.2 <= order <= p + 0.2


def test_integrate_zero_horizon():
    T, B, C, Y0 = _scalar_system()
    traj = integrate(T, B, C, np.array([[0.7]]), 0.0, SolverConfig())
    assert len(traj.ys) == 1
    assert traj.final[0, 0] == 0.7


def test_integrate_zero_data_stays_zero():
    k = 3
    config = SolverConfig(p=2, h=1e-2)
    traj = integrate(np.zeros((k, k)), np.zeros((k, 1)), np.zeros((1, k)),
                     np.zeros((k, k)), 0.1, config)
    assert np.all(traj.final == 0.0)


def test_integrate_rejects_non_integer_steps():
    T, B, C, Y0 = _scalar_system()
    with pytest.raises(ValueError):
        integrate(T, B, C, Y0, 1.0, SolverConfig(h=3e-3))


def test_step_grid_counts_and_clamps_samples():
    assert step_grid(0.0, 1e-2) == (0, set())
    # samples round to the nearest step and are clamped to [0, n_steps]
    assert step_grid(0.1, 1e-2, [0.0, 0.049, 0.2, -1.0]) == (10, {0, 5, 10})
    with pytest.raises(ValueError):
        step_grid(1.0, 3e-3)


def test_symmetry_and_psd_preserved_p1():
    rng = np.random.default_rng(8)
    k = 5
    T = random_stable(k, seed=9).T
    B = rng.standard_normal((k, 2))
    C = rng.standard_normal((2, k))
    W = rng.standard_normal((k, 2))
    Y0 = W @ W.T
    config = SolverConfig(p=1, h=1e-2, care_tol=1e-13)
    traj = integrate(T, B, C, Y0, 0.2, config, store="all")
    for Y in traj.ys:
        assert np.linalg.norm(Y - Y.T) == 0.0
        assert np.linalg.eigvalsh(Y).min() >= -1e-10 * max(np.linalg.norm(Y, 2), 1)


def test_startup_orders_ramp():
    T, B, C, Y0 = _scalar_system()
    config = SolverConfig(p=3, h=1e-2, care_tol=1e-14)
    traj = integrate(T, B, C, Y0, 0.1, config)
    assert traj.orders[:3] == [1, 2, 3]
    assert set(traj.orders[3:]) == {3}


def test_sample_times_recorded():
    T, B, C, Y0 = _scalar_system()
    config = SolverConfig(p=2, h=1e-2, care_tol=1e-13)
    traj = integrate(T, B, C, Y0, 1.0, config, sample_times=[0.25, 0.5])
    assert {0.25, 0.5, 1.0} <= {round(t, 10) for t in traj.times}


class _CountingSchur:
    """scipy.linalg with schur counted, as the benchmark tracer wraps dense's view of it."""

    def __init__(self):
        self.calls = 0

    def schur(self, *args, **kwargs):
        self.calls += 1
        return sla.schur(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(sla, name)


def test_frozen_schur_factor_serves_many_steps(monkeypatch):
    # a criterion-6 sized problem (n=7, h=1e-4) in the dense orientation
    rng = np.random.default_rng(424242)
    n = 7
    A = rng.standard_normal((n, n)) - (2.5 + rng.uniform()) * np.eye(n)
    B = rng.standard_normal((n, 2))
    C = rng.standard_normal((2, n))
    L = 0.3 * rng.standard_normal((n, n))
    config = SolverConfig(p=2, h=1e-4, care_tol=1e-13)
    counting = _CountingSchur()
    monkeypatch.setattr(dense, "sla", counting)
    traj = integrate(A.T, B, C, L @ L.T + 0.4 * np.eye(n), 0.2, config)
    steps = len(traj.orders)
    assert steps == 2000
    assert 0 < counting.calls < steps / 100
    assert sum(traj.schur_factorizations) == counting.calls
    assert len(traj.schur_factorizations) == steps
    # chord steps count as iterations; every step is still certified
    assert all(f <= i for f, i in zip(traj.schur_factorizations, traj.newton_iters))
    assert max(traj.care_residuals) <= config.care_tol
    assert traj.euler_retakes == 0


def test_bdf_step_chord_matches_newton():
    T = random_stable(4, seed=71).T
    rng = np.random.default_rng(72)
    B = rng.standard_normal((4, 2))
    C = rng.standard_normal((2, 4))
    W = rng.standard_normal((4, 4))
    Y0 = W @ W.T
    coeffs = bdf_coefficients(1)
    first = assemble_care_step(T, B, C, [Y0], 1e-3, coeffs)
    Y1, info1 = bdf_step(first, Y0, tol=1e-13)
    second = assemble_care_step(T, B, C, [Y1], 1e-3, coeffs)
    Y_newton, _ = bdf_step(second, Y1, tol=1e-13)
    Y_chord, info2 = bdf_step(second, Y1, tol=1e-13, factor=info1["factor"])
    assert info1["factorizations"] >= 1 and info2["factorizations"] == 0
    assert np.linalg.norm(Y_chord - Y_newton) <= 1e-10 * np.linalg.norm(Y_newton)
