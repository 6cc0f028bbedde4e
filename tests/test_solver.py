from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats

from krylov_dre import arnoldi, solver
from krylov_dre.benchmarks import gen_convdiff2d, gen_heat1d_fem
from krylov_dre.bdf import bdf_coefficients, integrate
from krylov_dre.dense import solve_care
from krylov_dre.errors import IndefiniteY, NotConverged, StepFailure
from krylov_dre.oracles import dense_reference_integrate
from krylov_dre.problem import DREProblem, SolverConfig, factorize
from krylov_dre.solver import extract_factor, krylov_orders, residual_estimate, solve

from conftest import dense_a


def _dense_discrete_residual(problem, sol):
    """BDF-defect residual of the full equation at the final time, assembled
    densely from its definition (independent of the Arnoldi identities)."""
    A = dense_a(problem)
    B, C = problem.B, problem.C
    basis = sol.basis
    V = basis.basis_matrix()
    p = sol.step_stats["orders"][-1]
    h = sol.step_stats["h"]
    coeffs = bdf_coefficients(p)
    tail = sol.tail_xs
    X_new = tail[-1]
    hist = [tail[-2 - i] for i in range(p)]
    xdot = (X_new - sum(a * Xi for a, Xi in zip(coeffs.alpha, hist))) / (h * coeffs.beta)
    R = xdot - (A.T @ X_new + X_new @ A - X_new @ B @ (B.T @ X_new) + C.T @ C)
    return R


@pytest.fixture(scope="module")
def solved49_with_tail(convdiff49):
    # tight per-step tolerance so the defect identities are not masked by the
    # inner solves (the discrepancy scales like care_tol / (h beta))
    config = SolverConfig(p=2, h=1e-3, tol=1e-10, m_max=20, care_tol=1e-14)
    sol = solve(convdiff49, config)
    V = sol.basis.basis_matrix()
    # recover the last p+1 dense iterates for defect checks
    from krylov_dre.bdf import integrate
    from krylov_dre.arnoldi import projected_matrices

    T_m, B_m, C_m = projected_matrices(sol.basis, convdiff49.B)
    G = V.T @ convdiff49.Z0
    traj = integrate(T_m, B_m, C_m, G @ G.T, convdiff49.t_f, config)
    sol.tail_xs = [V @ Y @ V.T for Y in traj.tail]
    sol.tail_ys = traj.tail
    sol._galerkin_R = _dense_discrete_residual(convdiff49, sol)
    return sol


def _full_space_problem():
    # n = 2s: the seed exhausts R^n, so the first expansion breaks down
    rng = np.random.default_rng(1)
    A = sp.csc_matrix(np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1 * rng.standard_normal((4, 4)))
    C = rng.standard_normal((2, 4))
    Z0 = 0.1 * rng.standard_normal((4, 2))
    return DREProblem(A=A, B=rng.standard_normal((4, 1)), C=C, Z0=Z0, t_f=0.1)


def test_krylov_orders_yields_every_order_and_last(convdiff49):
    handle = factorize(convdiff49.A)
    seen = [(basis.order, last, basis.breakdown)
            for basis, last in krylov_orders(convdiff49, handle, m_max=3)]
    assert seen == [(1, False, False), (2, False, False), (3, True, False)]


def test_krylov_orders_breakdown_ends_iteration():
    problem = _full_space_problem()
    seen = [(basis.order, last, basis.breakdown)
            for basis, last in krylov_orders(problem, factorize(problem.A), m_max=5)]
    assert seen == [(1, True, True)]


def test_full_space_projection_residual_zero():
    # the seed exhausts R^n at m=1 and the residual is exactly 0
    problem = _full_space_problem()
    config = SolverConfig(p=2, h=1e-3, tol=1e-8, m_max=5)
    sol = solve(problem, config)
    assert sol.breakdown
    assert sol.residual.value == 0.0
    assert sol.m == 1


def test_residual_estimate_zero_final_state(convdiff49):
    handle = factorize(convdiff49.A)
    basis = arnoldi.seed(handle, convdiff49.C)
    arnoldi.expand(basis, handle)
    est = residual_estimate(basis, np.zeros((4, 4)))
    assert est.value == 0.0


def test_residual_matches_dense_defect(solved49_with_tail):
    dense_norm = np.linalg.norm(solved49_with_tail._galerkin_R, 2)
    cheap = solved49_with_tail.residual.value
    assert abs(dense_norm - cheap) <= 1e-9


def test_galerkin_condition_discrete(solved49_with_tail):
    basis = solved49_with_tail.basis
    V = basis.basis_matrix()
    R = solved49_with_tail._galerkin_R
    assert np.linalg.norm(V.T @ R @ V, 2) <= 1e-9


def test_perturbed_equation_identity(solved49_with_tail, convdiff49):
    # with F = V_m T_{m+1,1:m}^T V_{m+1}^T, the whole coupling row, the
    # defect of the perturbed equation collapses to the projected defect
    sol = solved49_with_tail
    basis = sol.basis
    R = sol._galerkin_R
    F = basis.basis_matrix() @ basis.t_coupling().T @ basis.block(basis.order).T
    X_new = sol.tail_xs[-1]
    defect2 = R + F.T @ X_new + X_new @ F
    assert np.linalg.norm(defect2, 2) <= 1e-9


def test_extract_factor_identity_y(convdiff49):
    handle = factorize(convdiff49.A)
    basis = arnoldi.seed(handle, convdiff49.C)
    for _ in range(3):
        arnoldi.expand(basis, handle)
    k = basis.order * basis.w
    out = extract_factor(basis, np.eye(k), dtol=1e-10)
    assert out.rank == k
    assert np.allclose(out.Z.T @ out.Z, np.eye(k), atol=1e-10)


def test_extract_factor_constructed_rank(convdiff49):
    handle = factorize(convdiff49.A)
    basis = arnoldi.seed(handle, convdiff49.C)
    for _ in range(3):
        arnoldi.expand(basis, handle)
    k = basis.order * basis.w
    rng = np.random.default_rng(2)
    W = rng.standard_normal((k, 3))
    out = extract_factor(basis, W @ W.T, dtol=1e-10)
    assert out.rank == 3
    V = basis.basis_matrix()
    assert np.linalg.norm(V @ (W @ W.T) @ V.T - out.Z @ out.Z.T, 2) \
        <= 1e-10 * np.linalg.norm(W @ W.T, 2)


def test_extract_factor_aggressive_truncation(convdiff49):
    handle = factorize(convdiff49.A)
    basis = arnoldi.seed(handle, convdiff49.C)
    arnoldi.expand(basis, handle)
    k = basis.order * basis.w
    Y = np.diag(np.logspace(0, -6, k))
    out = extract_factor(basis, Y, dtol=0.5)
    V = basis.basis_matrix()
    err = np.linalg.norm(V @ Y @ V.T - out.Z @ out.Z.T, 2)
    assert err <= 0.5 * 1.0 + 1e-12
    assert out.rank == 1


def test_extract_factor_indefinite_raises(convdiff49):
    handle = factorize(convdiff49.A)
    basis = arnoldi.seed(handle, convdiff49.C)
    arnoldi.expand(basis, handle)
    k = basis.order * basis.w
    Y = np.diag([1.0] * (k - 1) + [-1e-3])
    with pytest.raises(IndefiniteY, match="a smaller h, a longer t_f or p=1"):
        extract_factor(basis, Y, dtol=1e-10)


def test_solver_converges_n100_like_reference_row():
    problem = gen_convdiff2d(10, seed=11, t_f=1.0)
    config = SolverConfig(p=2, h=1e-3, tol=1e-10, m_max=25)
    sol = solve(problem, config)
    assert sol.converged
    assert sol.m <= 14  # reference-scale run converges around m ~ 9
    assert sol.residual.value < 1e-10


def test_not_converged_raises():
    problem = gen_convdiff2d(7, seed=7, t_f=0.5)
    config = SolverConfig(p=2, h=1e-2, tol=1e-13, m_max=2)
    with pytest.raises(NotConverged):
        solve(problem, config)


def test_partial_breakdown_raises_not_converged():
    # the basis breaks down at m=6 with 24 of the 25 columns; the orthogonal
    # remainder leaves a residual of 1.6e-7 > tol, so no factor is certified
    problem = gen_convdiff2d(5, seed=3, t_f=0.1)
    config = SolverConfig(p=2, h=1e-3, tol=1e-8)
    with pytest.raises(NotConverged) as info:
        solve(problem, config)
    assert info.value.breakdown and info.value.m_max == 6
    assert 1e-8 < info.value.last_residual < 1e-6


def test_breakdown_certificate_holds_against_dense_reference():
    # breakdown at m=25 certifies 0.0, which holds only if T is V^T A^T V to
    # roundoff in every block: the blocks below the first subdiagonal vanish
    # in exact arithmetic, and leaving them 0 put X 1.0e-3 off the reference
    problem = gen_convdiff2d(10, seed=3, t_f=0.01)
    config = SolverConfig(p=1, h=1e-3, tol=1e-6, m_max=30)
    sol = solve(problem, config)
    assert sol.breakdown and sol.m == 25 and sol.residual.value == 0.0
    X = dense_reference_integrate(problem, config.h, [problem.t_f], p=1)[0]
    assert np.linalg.norm(sol.to_dense() - X, 2) <= 1e-10 * np.linalg.norm(X, 2)


def test_trace_rank_is_factor_rank(solved49):
    assert solved49.trace[-1].rank == solved49.rank == solved49.Z.shape[1]


def test_step_stats_report_factorizations_and_retakes(solved49):
    ss = solved49.step_stats
    assert len(ss["schur_factorizations"]) == len(ss["orders"]) == len(ss["newton_iters"])
    # the frozen closed-loop factor serves most steps
    assert sum(ss["schur_factorizations"]) < len(ss["orders"]) / 10
    assert ss["euler_retakes"] == 0


def test_monotone_workload_in_tolerance():
    problem = gen_convdiff2d(10, seed=11, t_f=1.0)
    ms, ranks = [], []
    for tol in (1e-6, 1e-8, 1e-10):
        config = SolverConfig(p=2, h=1e-2, tol=tol, m_max=25)
        sol = solve(problem, config)
        ms.append(sol.m)
        ranks.append(sol.rank)
    assert ms == sorted(ms)
    assert ranks == sorted(ranks)


def test_scale_equivariance_of_residual_curve():
    base = gen_convdiff2d(7, seed=7, t_f=0.5)
    scaled = DREProblem(A=base.A, B=base.B, C=10.0 * base.C, Z0=base.Z0, t_f=0.5)
    config = SolverConfig(p=2, h=1e-2, tol=1e-8, m_max=20)
    sol_a = solve(base, config)
    sol_b = solve(scaled, config)
    res_a = {r.m: r.residual for r in sol_a.trace}
    res_b = {r.m: r.residual for r in sol_b.trace}
    common = sorted(set(res_a) & set(res_b))[:4]
    assert common
    for m in common:
        ratio = res_b[m] / res_a[m]
        assert 5.0 <= ratio <= 500.0


def test_error_decreases_with_residual_rank_correlation(convdiff49):
    from krylov_dre.arnoldi import expand, projected_matrices, seed
    from krylov_dre.bdf import integrate
    from krylov_dre.oracles import dense_reference_integrate

    X_ref = dense_reference_integrate(convdiff49, 1e-3, [convdiff49.t_f])[0]
    handle = factorize(convdiff49.A)
    basis = seed(handle, convdiff49.C)
    config = SolverConfig(p=2, h=1e-3, care_tol=1e-13)
    residuals, errors = [], []
    for _ in range(7):
        expand(basis, handle)
        T_m, B_m, C_m = projected_matrices(basis, convdiff49.B)
        V = basis.basis_matrix()
        G = V.T @ convdiff49.Z0
        traj = integrate(T_m, B_m, C_m, G @ G.T, convdiff49.t_f, config)
        residuals.append(residual_estimate(basis, traj.final).value)
        errors.append(np.linalg.norm(V @ traj.final @ V.T - X_ref, "fro"))
    rho = scipy.stats.spearmanr(residuals, errors).statistic
    assert rho > 0.9


def test_trace_and_step_stats_populated(solved49):
    assert solved49.trace
    assert solved49.trace[-1].residual < 1e-10
    assert all(r.matvecs > 0 for r in solved49.trace)
    assert solved49.step_stats["orders"][-1] == 2
    assert max(solved49.step_stats["newton_iters"]) <= 10


# Screened check schedule: convdiff n0=10 returns m=9 (screen and configured
# residuals agree to 3 digits), heat1d n=400 returns m=9 (the screen
# overestimates by up to 4x); both take 200 BDF(2) steps.
SCREEN_CASES = {
    "convdiff-n100": (lambda: gen_convdiff2d(10, seed=11, t_f=1.0),
                      SolverConfig(p=2, h=5e-3, tol=1e-8, m_max=30), None),
    "heat1d-n400": (lambda: gen_heat1d_fem(400, seed=3, t_f=1.0),
                    SolverConfig(p=2, h=5e-3, tol=1e-10, m_max=20), np.linspace(0.0, 1.0, 11)),
}


def _unscreened(problem, config, sample_times=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "SCREEN_STEPS", 10**9)
        return solve(problem, config, sample_times=sample_times)


@pytest.fixture(scope="module")
def screen_cases():
    cases = {}
    for name, (make, config, samples) in SCREEN_CASES.items():
        problem = make()
        cases[name] = (problem, config, samples, _unscreened(problem, config, samples))
    return cases


def _assert_same_solution(sol, ref):
    assert (sol.m, sol.rank, sol.residual.value, sol.breakdown) == \
        (ref.m, ref.rank, ref.residual.value, ref.breakdown)
    assert np.array_equal(sol.Z, ref.Z)
    assert np.array_equal(sol.y_final, ref.y_final)
    assert sol.step_stats == ref.step_stats
    assert [t for t, _ in sol.samples] == [t for t, _ in ref.samples]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(sol.samples, ref.samples))
    last = sol.trace[-1]
    assert (last.m, last.residual, last.rank, last.screen) == (sol.m, sol.residual.value,
                                                               sol.rank, False)
    assert sol.basis.order == sol.m


def _configured_orders(sol):
    return [r.m for r in sol.trace if not r.screen]


def _screened_orders(sol):
    """Orders with an Euler screen or an accepted root screen, ascending."""
    return sorted([r.m for r in sol.trace if r.screen]
                  + [r.m for r in sol.root_screens if r.accepted])


def _report_screens_non_stationary(monkeypatch, config):
    """Zero every screen's stationary_steps, so that solve compares each screen
    with SCREEN_SAFETY * tol, as it does on heat1d, and a convdiff screen can
    steer the candidate through SCREEN_SAFETY."""
    def screen(T, B_m, C_m, Y0, t_f, cfg, sample_times=None, starts=None):
        traj = integrate(T, B_m, C_m, Y0, t_f, cfg, sample_times=sample_times, starts=starts)
        if cfg is not config:
            traj.stationary_steps = 0
        return traj

    monkeypatch.setattr(solver, "integrate", screen)


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_screened_solve_equals_unscreened(screen_cases, name):
    problem, config, samples, ref = screen_cases[name]
    assert not any(r.screen for r in ref.trace)
    assert _configured_orders(ref) == list(range(1, ref.m + 1))
    sol = solve(problem, config, sample_times=samples)
    _assert_same_solution(sol, ref)
    # every order screened up to the candidate m, whose configured check
    # passes and is the only one run
    assert _screened_orders(sol) == list(range(1, sol.m + 1))
    assert _configured_orders(sol) == [sol.m]
    assert not any(r.skipped for r in sol.trace)
    # convdiff's first screen goes stationary, so every later order is
    # screened by its root; heat1d's never do
    euler = [r.m for r in sol.trace if r.screen]
    if name.startswith("convdiff"):
        assert euler == [1] and sol.trace[0].stationary_steps > 0
        assert all(r.accepted for r in sol.root_screens)
        assert all(0.0 < r.screen_s <= r.seconds for r in sol.root_screens)
        seconds = [r.seconds for r in sol.root_screens]
        assert seconds == sorted(seconds) and seconds[-1] < sol.trace[-1].seconds
    else:
        assert euler == list(range(1, sol.m + 1)) and sol.root_screens == []


def test_early_screen_candidate_walks_up(screen_cases, monkeypatch):
    # heat1d screens never go stationary, so SCREEN_SAFETY steers the candidate
    problem, config, samples, ref = screen_cases["heat1d-n400"]
    monkeypatch.setattr(solver, "SCREEN_SAFETY", 1e6)
    sol = solve(problem, config, sample_times=samples)
    _assert_same_solution(sol, ref)
    candidate = max(r.m for r in sol.trace if r.screen)
    assert candidate < sol.m - 1
    # the candidate fails, then every later order gets the configured check
    assert _configured_orders(sol) == list(range(candidate, sol.m + 1))


@pytest.mark.parametrize("name, candidate", [("convdiff-n100", 11), ("heat1d-n400", 12)],
                         ids=["convdiff-n100", "heat1d-n400"])
def test_late_screen_candidate_is_returned(screen_cases, monkeypatch, name, candidate):
    # screening to far below tol passes over the first passing order; the
    # candidate's own configured check passes and is returned
    problem, config, samples, ref = screen_cases[name]
    _report_screens_non_stationary(monkeypatch, config)
    monkeypatch.setattr(solver, "SCREEN_SAFETY", 1e-3)
    sol = solve(problem, config, sample_times=samples)
    assert candidate > ref.m
    assert max(r.m for r in sol.trace if r.screen) == sol.m == candidate
    assert _configured_orders(sol) == [candidate]
    last = sol.trace[-1]
    assert sol.residual.value < config.tol
    assert (last.m, last.residual, last.rank, last.screen) == (sol.m, sol.residual.value,
                                                               sol.rank, False)
    assert sol.basis.order == sol.m
    # the unscreened basis is the nested slice of the returned one
    cut = sol.basis.truncated(ref.m)
    assert np.array_equal(cut.V, ref.basis.V) and np.array_equal(cut.T, ref.basis.T)


def _failing_root_screen(monkeypatch, problem, failing):
    """Make root_screen find no root at the given order."""
    w, real = 2 * problem.s, solver.root_screen

    def root_screen(T_m, *args):
        return None if T_m.shape[0] == failing * w else real(T_m, *args)

    monkeypatch.setattr(solver, "root_screen", root_screen)


# (order whose root and Euler screens fail, the rows after its configured
# check, last screened order, configured orders): at 3 the configured check
# fails and screening goes on, by an Euler screen at 4, to the unscreened
# answer; at 9, the unscreened answer, it passes and is returned.
@pytest.mark.parametrize("failing, following, screened, configured", [
    (3, [(4, True, False)], 9, [3, 9]),
    (9, [], 9, [9]),
], ids=["configured-fails", "configured-passes"])
def test_screen_step_failure_falls_back_to_configured_check(screen_cases, monkeypatch, failing,
                                                            following, screened, configured):
    problem, config, samples, ref = screen_cases["convdiff-n100"]
    w = 2 * problem.s

    def failing_screen(T, B_m, C_m, Y0, t_f, cfg, sample_times=None, starts=None):
        if cfg is not config and T.shape[0] == failing * w:
            raise StepFailure(1, "screen step failed")
        return integrate(T, B_m, C_m, Y0, t_f, cfg, sample_times=sample_times, starts=starts)

    monkeypatch.setattr(solver, "integrate", failing_screen)
    _failing_root_screen(monkeypatch, problem, failing)
    sol = solve(problem, config, sample_times=samples)
    assert sol.m == configured[-1] and sol.residual.value < config.tol
    if sol.m == ref.m:
        _assert_same_solution(sol, ref)
    rows = [(r.m, r.screen, r.skipped) for r in sol.trace]
    i = rows.index((failing, True, True))
    assert rows[i:i + 3] == [(failing, True, True), (failing, False, False)] + following
    assert np.isinf(sol.trace[i].residual)
    assert _screened_orders(sol) == list(range(1, screened + 1))
    assert _configured_orders(sol) == configured
    # the failed root screen is reported, the others are accepted
    failed = [r for r in sol.root_screens if not r.accepted]
    assert [(r.m, r.residual, r.transient) for r in failed] == [(failing, np.inf, np.inf)]
    unscreened = {r.m: r.residual for r in ref.trace}
    assert all(r.residual == unscreened[r.m] for r in sol.trace
               if not r.screen and r.m in unscreened)
    # every row reports its integration's work, and a skipped one none
    last, stats = sol.trace[-1], sol.step_stats
    assert (last.schur_factorizations, last.euler_retakes, last.stationary_steps) == \
        (sum(stats["schur_factorizations"]), stats["euler_retakes"], stats["stationary_steps"])
    assert all(0.0 < r.integrate_s <= r.seconds for r in sol.trace)
    assert all((r.schur_factorizations > 0) != r.skipped for r in sol.trace)
    skipped = sol.trace[i]
    assert (skipped.euler_retakes, skipped.stationary_steps) == (0, 0)


def test_not_converged_reports_configured_residual(screen_cases):
    problem, config, samples, _ = screen_cases["convdiff-n100"]
    short = SolverConfig(p=config.p, h=config.h, tol=config.tol, m_max=5)
    with pytest.raises(NotConverged) as ref:
        _unscreened(problem, short)
    with pytest.raises(NotConverged) as info:
        solve(problem, short)
    assert info.value.m_max == ref.value.m_max == 5
    assert info.value.last_residual == ref.value.last_residual


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_warm_screens_match_cold_screens(screen_cases, monkeypatch, name):
    # screening to far below tol reaches the orders whose padded start passes
    # the step CARE's stop test; a warm screen must not read 0 there
    problem, config, samples, _ = screen_cases[name]
    _report_screens_non_stationary(monkeypatch, config)
    monkeypatch.setattr(solver, "SCREEN_SAFETY", 1e-3)
    warm = solve(problem, config, sample_times=samples)
    monkeypatch.setattr(solver, "WARM_STEPS", 0)
    cold = solve(problem, config, sample_times=samples)
    _assert_same_solution(warm, cold)
    warm_rows = {r.m: r for r in warm.trace if r.screen}
    cold_rows = {r.m: r for r in cold.trace if r.screen}
    assert sorted(warm_rows) == sorted(cold_rows) == list(range(1, max(cold_rows) + 1))
    assert not any(r.skipped for r in warm_rows.values())
    for m, row in cold_rows.items():
        assert row.residual > 0.0
        assert abs(warm_rows[m].residual - row.residual) <= 1e-3 * row.residual
    assert sum(r.schur_factorizations for r in warm_rows.values()) < \
        sum(r.schur_factorizations for r in cold_rows.values())


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_failing_candidate_walks_up_without_lower_check(screen_cases, monkeypatch, name):
    problem, config, samples, ref = screen_cases[name]
    _report_screens_non_stationary(monkeypatch, config)
    monkeypatch.setattr(solver, "SCREEN_SAFETY", 1e-3)
    screens = {r.m: r.residual for r in solve(problem, config, sample_times=samples).trace
               if r.screen}
    # the screen at m - 1 is the first to pass; its configured check fails
    monkeypatch.setattr(solver, "SCREEN_SAFETY", screens[ref.m - 1] / config.tol * (1 + 1e-6))
    sol = solve(problem, config, sample_times=samples)
    _assert_same_solution(sol, ref)
    candidate = max(r.m for r in sol.trace if r.screen)
    assert candidate == sol.m - 1
    # no configured check below the candidate
    assert _configured_orders(sol) == [candidate, sol.m]


def test_stationary_screen_above_tol_gets_no_check(screen_cases):
    # with tol between the configured residuals at m - 1 and m, the screen at
    # m - 1 reads within SCREEN_SAFETY * tol but above tol; it is a root
    # screen, so it stands for its order's failing configured check
    problem, config, samples, ref = screen_cases["convdiff-n100"]
    configured = {r.m: r.residual for r in ref.trace}
    config = replace(config, tol=configured[ref.m - 1] / 2)
    assert configured[ref.m] < config.tol
    sol = solve(problem, config, sample_times=samples)
    _assert_same_solution(sol, _unscreened(problem, config, samples))
    below = [r for r in sol.root_screens if r.m == sol.m - 1]
    assert len(below) == 1 and below[0].accepted
    assert config.tol < below[0].residual <= solver.SCREEN_SAFETY * config.tol
    assert not any(r.m == sol.m - 1 for r in sol.trace)
    assert _configured_orders(sol) == [sol.m]


@pytest.mark.parametrize("name", sorted(SCREEN_CASES) + ["convdiff-n225", "convdiff-n400"])
def test_stationary_screens_read_the_configured_residual(screen_cases, monkeypatch, name):
    # a stationary screen ends at the projected CARE root, as the configured
    # run does, and a root screen reads that root; heat1d screens (t_f=1)
    # never get there
    if name in screen_cases:
        problem, config, samples, ref = screen_cases[name]
    else:
        n0 = {"convdiff-n225": 15, "convdiff-n400": 20}[name]
        problem = gen_convdiff2d(n0, seed=11, t_f=1.0)
        config, samples = SCREEN_CASES["convdiff-n100"][1:]
        ref = _unscreened(problem, config, samples)
    configured = {r.m: r.residual for r in ref.trace}
    sol = solve(problem, config, sample_times=samples)
    if name.startswith("heat1d"):
        assert sol.root_screens == []
    else:
        assert len(sol.root_screens) == sol.m - 1
    for r in sol.root_screens:
        assert r.accepted and abs(r.residual - configured[r.m]) <= 1e-5 * configured[r.m]
    # with every root screen failing, each order gets an Euler screen
    monkeypatch.setattr(solver, "root_screen", lambda *args: None)
    screens = [r for r in solve(problem, config, sample_times=samples).trace if r.screen]
    stationary = [r for r in screens if r.stationary_steps > 0]
    if name.startswith("heat1d"):
        assert screens and not stationary
    else:
        assert stationary == screens and [r.m for r in screens] == list(range(1, sol.m + 1))
    for r in stationary:
        assert abs(r.residual - configured[r.m]) <= 1e-3 * configured[r.m]


def test_root_screen_solves_the_padded_rows():
    # from m=16 on convdiff n=900 the previous order's root, padded with
    # zeros, already passes order m's CARE stop test; an unforced Newton
    # would stop there and the screen would read that start's residual
    problem = gen_convdiff2d(30, seed=11, t_f=1.0)
    x_prev = np.zeros((0, 0))
    for basis, _ in krylov_orders(problem, factorize(problem.A), 18):
        T_m, B_m, C_m = arnoldi.projected_matrices(basis, problem.B)
        X, dY = solver.root_screen(T_m, B_m, C_m, solver._project_initial(basis, problem.Z0),
                                   problem.t_f, x_prev, 1e-12)
        cold = basis.residual_norm(solve_care(T_m.T, B_m, C_m.T @ C_m, tol=1e-12))
        assert abs(basis.residual_norm(X + dY) - cold) <= 1e-5 * cold
        assert np.linalg.norm(dY, 2) <= solver.ROOT_TRANSIENT * np.linalg.norm(X, 2)
        x_prev = X


def test_heat1d_never_root_screens(screen_cases, monkeypatch):
    # heat1d screens never go stationary, so the Euler schedule is untouched
    problem, config, samples, ref = screen_cases["heat1d-n400"]

    def root_screen(*args):
        raise AssertionError("a heat1d order was root-screened")

    monkeypatch.setattr(solver, "root_screen", root_screen)
    sol = solve(problem, config, sample_times=samples)
    _assert_same_solution(sol, ref)
    assert sol.root_screens == []
    screens = [r for r in sol.trace if r.screen]
    assert [r.m for r in screens] == list(range(1, sol.m + 1))
    assert not any(r.stationary_steps for r in screens)


@pytest.mark.parametrize("failing", [2, 6])
def test_failed_root_screen_gets_euler_screen(screen_cases, monkeypatch, failing):
    # an order whose root screen fails gets a cold Euler screen, which goes
    # stationary, so the next order is root-screened from its end state
    problem, config, samples, ref = screen_cases["convdiff-n100"]
    calls = []

    def spy(T, B_m, C_m, Y0, t_f, cfg, sample_times=None, starts=None):
        calls.append((T.shape[0] // (2 * problem.s), cfg is config, starts is None))
        return integrate(T, B_m, C_m, Y0, t_f, cfg, sample_times=sample_times, starts=starts)

    monkeypatch.setattr(solver, "integrate", spy)
    _failing_root_screen(monkeypatch, problem, failing)
    sol = solve(problem, config, sample_times=samples)
    _assert_same_solution(sol, ref)
    assert calls == [(1, False, True), (failing, False, True), (sol.m, True, True)]
    assert sol.trace[1].stationary_steps > 0
    assert _screened_orders(sol) == list(range(1, sol.m + 1))
    assert [r.m for r in sol.root_screens if not r.accepted] == [failing]


def test_transient_above_bound_gets_euler_screen(screen_cases, monkeypatch):
    # with a zero bound no root screen is accepted: every order is screened
    # by a cold Euler screen, and the answer does not move
    problem, config, samples, ref = screen_cases["convdiff-n100"]
    monkeypatch.setattr(solver, "ROOT_TRANSIENT", 0.0)
    sol = solve(problem, config, sample_times=samples)
    _assert_same_solution(sol, ref)
    assert [r.m for r in sol.trace if r.screen] == list(range(1, sol.m + 1))
    assert [r.m for r in sol.root_screens] == list(range(2, sol.m + 1))
    assert all(not r.accepted and 0.0 < r.transient < 1e-20 and np.isfinite(r.residual)
               for r in sol.root_screens)



def test_step_failure_at_last_order_is_raised(monkeypatch):
    # below m_max a failed integration skips its order; at m_max it is raised
    make, config, _ = SCREEN_CASES["convdiff-n100"]
    problem, short = make(), SolverConfig(p=config.p, h=config.h, tol=config.tol, m_max=3)
    w = 2 * problem.s
    calls, failures = [], []

    def failing(T, B_m, C_m, Y0, t_f, cfg, sample_times=None, starts=None):
        calls.append((T.shape[0] // w, cfg is short))
        failures.append(StepFailure(1, "no root"))
        raise failures[-1]

    monkeypatch.setattr(solver, "integrate", failing)
    with pytest.raises(StepFailure) as info:
        solve(problem, short)
    assert calls == [(1, False), (1, True), (2, False), (2, True), (3, True)]
    assert info.value is failures[-1]
