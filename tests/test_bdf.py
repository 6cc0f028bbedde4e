import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from krylov_dre import arnoldi, bdf, dense, solver
from krylov_dre.bdf import bdf_coefficients, integrate, march, step_grid
from krylov_dre.benchmarks import gen_convdiff2d
from krylov_dre.errors import MaxIterations, StepFailure, UnsupportedOrder
from krylov_dre.problem import SolverConfig, factorize

from conftest import random_stable

TANH1 = math.tanh(1.0)


def _scalar_system():
    one = np.ones((1, 1))
    return np.zeros((1, 1)), one, one, np.zeros((1, 1))


def _random_system(k, seed):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((k, k))
    B = rng.standard_normal((k, 2))
    C = rng.standard_normal((2, k))
    W = rng.standard_normal((k, k))
    return T, B, C, 0.1 * (W @ W.T)


def _rhs(T, B, C, Y):
    """Right-hand side T Y + Y T^T - Y B B^T Y + C^T C of the projected DRE."""
    BtY = B.T @ Y
    return T @ Y + Y @ T.T - BtY.T @ BtY + C.T @ C


def _steps(T, B, C, Y0, h, n, p=2, care_tol=1e-13):
    """Y0 and the first n BDF iterates."""
    config = SolverConfig(p=p, h=h, care_tol=care_tol)
    traj = integrate(T, B, C, Y0, n * h, config, sample_times=np.arange(n + 1) * h)
    assert len(traj.ys) == n + 1
    return traj


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
    # the first step is implicit Euler: Y1 = Y0 + h F(Y1)
    T, B, C, Y0 = _random_system(4, seed=0)
    h = 1e-2
    traj = _steps(T, B, C, Y0, h, 1)
    Y0, Y1 = traj.ys
    assert traj.orders == [1]
    defect = Y0 + h * _rhs(T, B, C, Y1) - Y1
    assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(Y1)


def test_assemble_p2_formula():
    # the second step is BDF(2): Y2 = 4/3 Y1 - 1/3 Y0 + 2h/3 F(Y2)
    T, B, C, Y0 = _random_system(4, seed=0)
    h = 1e-2
    traj = _steps(T, B, C, Y0, h, 2)
    Y0, Y1, Y2 = traj.ys
    assert traj.orders == [1, 2]
    defect = (4.0 / 3.0) * Y1 - (1.0 / 3.0) * Y0 + (2.0 * h / 3.0) * _rhs(T, B, C, Y2) - Y2
    assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(Y2)


def test_assembled_q_exactly_symmetric():
    # BDF(2) steps have an indefinite constant term; every iterate stays exactly symmetric
    T, B, C, Y0 = _random_system(5, seed=1)
    traj = _steps(T, B, C, Y0, 1e-2, 5)
    assert traj.orders == [1, 2, 2, 2, 2]
    for Y in traj.ys:
        assert np.linalg.norm(Y - Y.T) == 0.0


def test_bdf_step_stationary_fixed_point():
    A = random_stable(4, seed=3)
    rng = np.random.default_rng(4)
    B = rng.standard_normal((4, 1))
    C = rng.standard_normal((1, 4))
    # stationary Y solves T Y + Y T^T - Y B B^T Y + C^T C = 0 with T = A^T
    Y_star = sla.solve_continuous_are(A, B, C.T @ C, np.eye(1))
    traj = _steps(A.T, B, C, Y_star, 1e-2, 3)
    for Y in traj.ys[1:]:
        assert np.linalg.norm(Y - Y_star, "fro") <= 1e-10 * np.linalg.norm(Y_star, "fro")


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
    traj = integrate(T, B, C, Y0, 0.2, config, sample_times=np.arange(21) * 1e-2)
    assert len(traj.ys) == 21
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
    # the second step reuses the first step's Schur factor (chord steps only);
    # restarted from Y1 without a factor it takes Newton steps instead
    traj = _steps(T, B, C, W @ W.T, 1e-3, 2, p=1)
    Y1, Y_chord = traj.ys[1:]
    newton = _steps(T, B, C, Y1, 1e-3, 1, p=1)
    assert traj.schur_factorizations[0] >= 1 and traj.schur_factorizations[1] == 0
    assert newton.schur_factorizations[0] >= 1
    Y_newton = newton.final
    assert np.linalg.norm(Y_chord - Y_newton) <= 1e-10 * np.linalg.norm(Y_newton)


def test_retaken_step_counts_failed_attempt(monkeypatch):
    # this problem's returned order (m=9) retakes BDF(2) step 3 as implicit Euler
    runs = {}    # (k, p) of each integration -> its CARE calls
    calls = []

    def recording(*args, **kwargs):
        try:
            Y, info = dense.care_local_root(*args, **kwargs)
        except MaxIterations as exc:
            calls.append(("failed", exc.iterations, exc.factorizations))
            raise
        calls.append(("solved", info["iterations"], info["factorizations"]))
        return Y, info

    def recorded_integration(T, B_m, C_m, Y0, t_f, config, **kwargs):
        calls.clear()
        traj = integrate(T, B_m, C_m, Y0, t_f, config, **kwargs)
        runs[T.shape[0], config.p] = list(calls)
        return traj

    monkeypatch.setattr(bdf, "care_local_root", recording)
    monkeypatch.setattr(solver, "integrate", recorded_integration)
    problem = gen_convdiff2d(10, seed=11, t_f=1.0)
    sol = solver.solve(problem, SolverConfig(p=2, h=5e-3, tol=1e-8, m_max=30))
    stats = sol.step_stats
    calls = runs[sol.basis.basis_matrix().shape[1], 2]
    assert sol.m == 9 and stats["euler_retakes"] == 1 and stats["orders"][:4] == [1, 2, 1, 2]
    failed, retake = calls[2], calls[3]
    assert failed[0] == "failed" and retake[0] == "solved"
    assert stats["newton_iters"][2] == failed[1] + retake[1] > retake[1]
    assert stats["schur_factorizations"][2] == failed[2] + retake[2] > retake[2]
    # one solve per step taken, and one for the failed attempt
    assert len(calls) == len(stats["orders"]) - stats["stationary_steps"] + 1


def test_abandoned_attempt_is_the_euler_step_from_its_history(monkeypatch):
    # order 1 of convdiff n0=15: step 2's BDF(2) attempt stalls and is
    # abandoned; its implicit-Euler retake is the p=1 run's step 2 bit for bit
    problem = gen_convdiff2d(15, seed=1, t_f=1.0)
    basis = next(solver.krylov_orders(problem, factorize(problem.A), 1))[0]
    args = (*arnoldi.projected_matrices(basis, problem.B),
            solver._project_initial(basis, problem.Z0), 0.01)
    failed = []

    def recording(*a, **kwargs):
        try:
            return dense.care_local_root(*a, **kwargs)
        except MaxIterations as exc:
            failed.append(exc)
            raise

    monkeypatch.setattr(bdf, "care_local_root", recording)
    bdf2 = integrate(*args, SolverConfig(p=2, h=5e-3), sample_times=[5e-3])
    euler = integrate(*args, SolverConfig(p=1, h=5e-3), sample_times=[5e-3])
    assert bdf2.orders == euler.orders == [1, 1] and bdf2.euler_retakes == 1
    (abandoned,) = failed
    assert 1 <= abandoned.iterations <= 3
    assert [Y.tobytes() for Y in bdf2.ys] == [Y.tobytes() for Y in euler.ys]
    assert bdf2.care_residuals == euler.care_residuals
    # the abandoned attempt's work counts towards the retaken step
    assert bdf2.newton_iters == [euler.newton_iters[0],
                                 euler.newton_iters[1] + abandoned.iterations]
    assert bdf2.schur_factorizations == [euler.schur_factorizations[0],
                                         euler.schur_factorizations[1]
                                         + abandoned.factorizations]
    # backtracking the attempt down to MIN_STEP costs more and changes no bit
    monkeypatch.setattr(dense, "ABANDON_STEP", dense.MIN_STEP)
    failed.clear()
    stalled = integrate(*args, SolverConfig(p=2, h=5e-3), sample_times=[5e-3])
    assert failed[0].factorizations > abandoned.factorizations
    assert [Y.tobytes() for Y in stalled.ys] == [Y.tobytes() for Y in bdf2.ys]


class _FakeStep:
    """A step function for march: step k returns Y = k, two iterations and one factorization.

    fail maps (k, order) to the MaxIterations the attempt raises instead.
    """

    def __init__(self, fail=None):
        self.fail = fail or {}
        self.calls = []

    def __call__(self, k, order, history):
        assert k == history[0] + 1
        self.calls.append((k, order, list(history)))
        if (k, order) in self.fail:
            raise self.fail[k, order]
        return k, {"iterations": 2, "factorizations": 1, "residual": 1e-3 * k}


def test_march_orders_ramp():
    for p, n, orders in ((2, 5, [1, 2, 2, 2, 2]), (3, 4, [1, 2, 3, 3])):
        step = _FakeStep()
        traj = march(step, 0, n * 0.1, 0.1, p)
        assert traj.orders == orders
        assert traj.euler_retakes == 0
        # each step sees the last min(p, k) iterates, newest first
        assert [hist for _, _, hist in step.calls] == [
            list(range(k - 1, max(k - 1 - p, -1), -1)) for k in range(1, n + 1)]
        assert traj.tail == list(range(max(n - p, 0), n + 1))


def test_march_retakes_failed_multistep_step_as_euler():
    failure = MaxIterations("no root", iterations=5, factorizations=3)
    step = _FakeStep(fail={(3, 2): failure})
    traj = march(step, 0, 0.5, 0.1, 2)
    assert [(k, o) for k, o, _ in step.calls][2:4] == [(3, 2), (3, 1)]
    assert traj.orders == [1, 2, 1, 2, 2]
    assert traj.euler_retakes == 1
    # the failed attempt's work counts towards the retaken step
    assert traj.newton_iters == [2, 2, 5 + 2, 2, 2]
    assert traj.schur_factorizations == [1, 1, 3 + 1, 1, 1]
    assert traj.care_residuals[2] == 3e-3


def test_march_order_one_failure_raises_step_failure():
    for p, failing in ((1, [(3, 1)]), (2, [(3, 2), (3, 1)])):
        fail = {key: MaxIterations(f"attempt {key}") for key in failing}
        with pytest.raises(StepFailure) as info:
            march(_FakeStep(fail=fail), 0, 0.5, 0.1, p)
        assert info.value.step == 3
        assert info.value.__cause__ is fail[3, 1]


def test_march_samples_initial_requested_and_final():
    traj = march(_FakeStep(), 0, 1.0, 0.1, 2, sample_times=[0.2, 0.5])
    assert traj.times == pytest.approx([0.0, 0.2, 0.5, 1.0], abs=1e-15)
    assert traj.ys == [0, 2, 5, 10]
    assert traj.final == 10
    # without requested times only the initial and the final state are kept
    traj = march(_FakeStep(), 0, 1.0, 0.1, 2)
    assert traj.ys == [0, 10]


class _SettlingStep:
    """A step function for march whose iterate stops changing after step settle.

    Step k returns the 2x2 array filled with min(k, settle), with 0 iterations
    once k > settle and two before.
    """

    def __init__(self, settle, fail=None):
        self.settle = settle
        self.fail = fail or {}
        self.calls = []

    def __call__(self, k, order, history):
        self.calls.append(k)
        if (k, order) in self.fail:
            raise self.fail[k, order]
        return np.full((2, 2), float(min(k, self.settle))), {
            "iterations": 0 if k > self.settle else 2, "factorizations": 0,
            "residual": 1e-14 * min(k, self.settle)}


def test_march_stops_at_stationary_tail():
    step = _SettlingStep(settle=2)
    traj = march(step, np.zeros((2, 2)), 1.0, 0.1, 2, sample_times=[0.5, 0.7])
    # step 3 returns step 2's iterate but its history still holds step 1's;
    # from step 4 on every history iterate equals the result
    assert step.calls == [1, 2, 3, 4]
    assert traj.stationary_steps == 6
    assert traj.orders == [1] + [2] * 9
    assert traj.newton_iters == [2, 2] + [0] * 8
    assert traj.care_residuals == [1e-14, 2e-14] + [2e-14] * 8
    assert traj.schur_factorizations == [0] * 10
    assert traj.times == pytest.approx([0.0, 0.5, 0.7, 1.0], abs=1e-15)
    assert all(np.array_equal(Y, np.full((2, 2), 2.0)) for Y in traj.ys[1:])
    assert len(traj.tail) == 3
    assert traj.step_stats(0.1)["stationary_steps"] == 6


def test_march_stationary_needs_order_p_and_no_retake():
    # the ramp (order 1 < p) and a step retaken as implicit Euler never end the loop
    step = _SettlingStep(settle=1)
    traj = march(step, np.full((2, 2), 1.0), 0.5, 0.1, 3)
    assert step.calls == [1, 2, 3]
    assert traj.stationary_steps == 2
    step = _SettlingStep(settle=1, fail={(2, 2): MaxIterations("no root")})
    traj = march(step, np.full((2, 2), 1.0), 1.0, 0.1, 2)
    assert step.calls == [1, 2, 2, 3]
    assert traj.orders == [1, 1] + [2] * 8
    assert traj.euler_retakes == 1
    assert traj.stationary_steps == 7


def test_integrate_stationary_skip_is_exact(monkeypatch):
    # convdiff n0=10 projected at m=6: most BDF(2) steps of the 200 repeat the iterate
    problem = gen_convdiff2d(10, seed=11, t_f=1.0)
    handle = factorize(problem.A)
    basis = arnoldi.seed(handle, problem.C)
    for _ in range(6):
        arnoldi.expand(basis, handle)
    T, B_m, C_m = arnoldi.projected_matrices(basis, problem.B)
    Y0 = solver._project_initial(basis, problem.Z0)
    config = SolverConfig(p=2, h=5e-3)
    times = np.linspace(0.0, 1.0, 11)
    fast = integrate(T, B_m, C_m, Y0, 1.0, config, sample_times=times)
    monkeypatch.setattr(bdf, "_same_bits", lambda a, b: False)
    full = integrate(T, B_m, C_m, Y0, 1.0, config, sample_times=times)
    assert fast.stationary_steps > 100 and full.stationary_steps == 0
    stats = fast.step_stats(config.h)
    stats["stationary_steps"] = 0
    assert stats == full.step_stats(config.h)
    assert np.array_equal(fast.times, full.times)
    assert all(np.array_equal(a, b) for a, b in zip(fast.ys, full.ys))
    assert all(np.array_equal(a, b) for a, b in zip(fast.tail, full.tail))


def _warm_case():
    """convdiff n0=10 projected at order 9, and order 8's implicit-Euler iterates at steps 1-2."""
    problem = gen_convdiff2d(10, seed=11, t_f=1.0)
    handle = factorize(problem.A)
    basis = arnoldi.seed(handle, problem.C)
    for _ in range(9):
        arnoldi.expand(basis, handle)
    coarse = basis.truncated(8)
    prev = integrate(*arnoldi.projected_matrices(coarse, problem.B),
                     solver._project_initial(coarse, problem.Z0), 1.0,
                     SolverConfig(p=1, h=0.05), sample_times=[0.05, 0.1])
    return (*arnoldi.projected_matrices(basis, problem.B),
            solver._project_initial(basis, problem.Z0), prev.ys[1:3], basis)


def test_integrate_warm_starts_first_steps():
    # order 8's iterates, padded with zeros, start order 9's steps 1-2; each
    # of those takes an iteration
    T, B_m, C_m, Y0, starts, basis = _warm_case()
    config = SolverConfig(p=1, h=0.05)
    cold = integrate(T, B_m, C_m, Y0, 1.0, config)
    warm = integrate(T, B_m, C_m, Y0, 1.0, config, starts=starts)
    assert warm.newton_iters[0] >= 1 and warm.newton_iters[1] >= 1
    assert sum(warm.schur_factorizations[:2]) < sum(cold.schur_factorizations[:2])
    assert np.linalg.norm(warm.final - cold.final) <= 1e-9 * np.linalg.norm(cold.final)
    # the new block's rows are solved for, not left at the padding's zeros
    assert np.linalg.norm(warm.final[-basis.w:]) == pytest.approx(
        np.linalg.norm(cold.final[-basis.w:]), rel=1e-6)
    # no starts, or an empty list, is the cold integration bit for bit
    none = integrate(T, B_m, C_m, Y0, 1.0, config, starts=[])
    assert none.step_stats(config.h) == cold.step_stats(config.h)
    assert np.array_equal(none.final, cold.final)


def test_integrate_retakes_warm_step_from_its_start(monkeypatch):
    # step 2's BDF(2) attempt fails; its implicit-Euler retake starts from the
    # same padded iterate, and step 3 from step 2's result
    T, B_m, C_m, Y0, starts, _ = _warm_case()
    calls = []

    def failing_second(A, B, Q, x_start, **kwargs):
        calls.append((x_start, kwargs["forced"]))
        if len(calls) == 2:
            raise MaxIterations("no root", iterations=3, factorizations=1)
        return dense.care_local_root(A, B, Q, x_start, **kwargs)

    monkeypatch.setattr(bdf, "care_local_root", failing_second)
    traj = integrate(T, B_m, C_m, Y0, 1.0, SolverConfig(p=2, h=0.05),
                     sample_times=[0.05, 0.1], starts=starts)
    assert traj.orders[:3] == [1, 1, 2] and traj.euler_retakes == 1
    padded = [np.pad(Y, (0, T.shape[0] - Y.shape[0])) for Y in starts]
    assert np.array_equal(calls[0][0], padded[0])
    assert np.array_equal(calls[1][0], padded[1]) and np.array_equal(calls[2][0], padded[1])
    assert calls[3][0] is traj.ys[2]
    assert [forced for _, forced in calls[:4]] == [True, True, True, False]
