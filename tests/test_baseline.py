import numpy as np
import pytest
import scipy.linalg as sla

from krylov_dre import baseline
from krylov_dre.baseline import (
    ClosedLoopOperator,
    eba_lyapunov,
    newton_step_large,
    solve_baseline,
    stacked_constant_factor,
    _shifted_operator,
)
from krylov_dre.bdf import bdf_coefficients
from krylov_dre.benchmarks import gen_convdiff2d, gen_heat1d_fem
from krylov_dre.dense import solve_lyapunov
from krylov_dre.errors import (MaxIterations, NoStabilizingGuess, NotConverged, StepFailure,
                               UnstableClosedLoop)
from krylov_dre.lowrank import SignedFactor, signed_diff_fro
from krylov_dre.problem import DREProblem, SolverConfig, factorize

from conftest import dense_a, lyapunov_residual, random_stable


class _DenseOp:
    """Plain dense operator with the handle protocol, for inner-solver tests."""

    def __init__(self, F):
        self.F = F
        self.n = F.shape[0]

    def apply_t(self, V):
        return self.F.T @ V

    def solve_t(self, V):
        return np.linalg.solve(self.F.T, V)


def test_eba_lyapunov_rank_one():
    n = 6
    G = np.zeros((n, 1))
    G[0, 0] = 1.0
    f = eba_lyapunov(_DenseOp(-np.eye(n)), G, tol=1e-12, m_max=10, dtol=1e-12)
    X = f.to_dense()
    expected = np.zeros((n, n))
    expected[0, 0] = 0.5
    assert np.allclose(X, expected, atol=1e-12)


def test_eba_lyapunov_zero_forcing():
    f = eba_lyapunov(_DenseOp(-np.eye(5)), np.zeros((5, 2)), 1e-10, 10, 1e-12)
    assert f.rank == 0


def test_eba_lyapunov_matches_dense_oracle():
    # shift beyond the circular-law radius sqrt(49) so F is genuinely stable
    F = random_stable(49, seed=13, shift=9.0)
    rng = np.random.default_rng(14)
    G = rng.standard_normal((49, 2))
    f = eba_lyapunov(_DenseOp(F), G, tol=1e-11, m_max=40, dtol=1e-13)
    X_dense = solve_lyapunov(F, G @ G.T)
    rel = np.linalg.norm(f.to_dense() - X_dense, "fro") / np.linalg.norm(X_dense, "fro")
    assert rel <= 1e-8


def test_closed_loop_operator_woodbury():
    rng = np.random.default_rng(21)
    n = 20
    import scipy.sparse as sp

    S = sp.csc_matrix(random_stable(n, seed=22, shift=4.0))
    U = rng.standard_normal((n, 2))
    W = rng.standard_normal((n, 2))
    op = ClosedLoopOperator(factorize(S), U, W)
    F = S.toarray() - U @ W.T
    V = rng.standard_normal((n, 3))
    assert np.allclose(op.apply_t(V), F.T @ V, atol=1e-10)
    assert np.allclose(op.solve_t(V), np.linalg.solve(F.T, V), atol=1e-9)


def test_one_lu_pass_matches_closed_loop_solves():
    # newton_step_large's single pass S^{-T} [W, G] with the Woodbury
    # correction afterwards, and eba_lyapunov's F^{-T} Gc = (F^{-T} G) Q^T,
    # against separate closed-loop solves
    rng = np.random.default_rng(23)
    n = 30
    s_handle = factorize(random_stable(n, seed=24, shift=9.0))
    U, W = rng.standard_normal((n, 2)), 0.3 * rng.standard_normal((n, 2))
    G = rng.standard_normal((n, 3)) @ rng.standard_normal((3, 5))     # rank 3 of 5 columns
    St = s_handle.solve_t(np.hstack([W, G]))
    op = ClosedLoopOperator(s_handle, U, W, St_W=St[:, :2])
    Ft_G = op.woodbury(St[:, 2:])
    P, sig, Qt = np.linalg.svd(G, full_matrices=False)
    keep = sig > baseline.SEED_RTOL * sig[0]
    assert keep.sum() == 3
    Gc = P[:, keep] * sig[keep]
    ref = ClosedLoopOperator(s_handle, U, W).solve_t(Gc)
    assert np.linalg.norm(Ft_G @ Qt[keep].T - ref) <= 1e-12 * np.linalg.norm(ref)
    # and eba_lyapunov with the precomputed image solves the same equation
    F = s_handle.A - U @ W.T
    assert np.linalg.eigvals(F).real.max() < 0
    X = eba_lyapunov(op, G, tol=1e-12, m_max=20, dtol=1e-13, Ft_G=Ft_G).to_dense()
    assert lyapunov_residual(F, G @ G.T, X) <= 1e-12


def test_stacked_factor_sign_split():
    rng = np.random.default_rng(31)
    n = 8
    C = rng.standard_normal((2, n))
    Zk = SignedFactor(rng.standard_normal((n, 3)), np.array([1.0, 1.0, -1.0]))
    Zk1 = SignedFactor(rng.standard_normal((n, 2)), np.array([1.0, 1.0]))
    h = 1e-2
    coeffs = bdf_coefficients(2)
    pos, neg = stacked_constant_factor(C, [Zk, Zk1], h, coeffs)
    hb = h * coeffs.beta
    expected = hb * C.T @ C + (4 / 3) * Zk.to_dense() - (1 / 3) * Zk1.to_dense()
    got = pos @ pos.T - neg @ neg.T
    assert np.allclose(got, expected, atol=1e-12)
    # alpha_0 > 0: +1 columns of Z_k land in pos, -1 columns in neg;
    # alpha_1 < 0: +1 columns of Z_{k-1} land in neg
    assert pos.shape[1] == 2 + 2
    assert neg.shape[1] == 1 + 2


def test_stacked_factor_p1_no_negative_group():
    rng = np.random.default_rng(32)
    C = rng.standard_normal((2, 6))
    Zk = SignedFactor.from_psd(rng.standard_normal((6, 2)))
    pos, neg = stacked_constant_factor(C, [Zk], 1e-2, bdf_coefficients(1))
    assert neg.shape[1] == 0


def _newton_context(problem, order, h, config):
    coeffs = bdf_coefficients(order)
    s_handle = _shifted_operator(problem.A, h * coeffs.beta)
    curly_b = np.sqrt(h * coeffs.beta) * problem.B
    return s_handle, curly_b, coeffs


def test_newton_step_large_matches_dense_kernel():
    problem = gen_convdiff2d(7, seed=7, t_f=1.0)
    config = SolverConfig(p=2, h=1e-3, care_tol=1e-12, dtol=1e-13)
    h = config.h
    s_handle, curly_b, coeffs = _newton_context(problem, 2, h, config)
    rng = np.random.default_rng(41)
    hist = [SignedFactor.from_psd(0.1 * rng.standard_normal((49, 3))),
            SignedFactor.from_psd(0.1 * rng.standard_normal((49, 3)))]
    pos, neg = stacked_constant_factor(problem.C, hist, h, coeffs)
    X_p = SignedFactor.from_psd(0.1 * rng.standard_normal((49, 4)))
    got = newton_step_large(X_p, s_handle, curly_b, pos, neg, lyap_tol=1e-12, m_max=60,
                            dtol=1e-13).to_dense()

    # dense oracle: one Kleinman step on the assembled step CARE, a Lyapunov
    # equation with the closed loop at X_p and the constant X_p B B^T X_p + Q
    A_step = (h * coeffs.beta) * dense_a(problem) - 0.5 * np.eye(49)
    Q = pos @ pos.T - neg @ neg.T
    BtX = curly_b.T @ X_p.to_dense()
    expected = solve_lyapunov(A_step - curly_b @ BtX, BtX.T @ BtX + Q)
    rel = np.linalg.norm(got - expected, "fro") / np.linalg.norm(expected, "fro")
    assert rel <= 1e-8


def test_newton_step_large_fixed_point():
    problem = gen_convdiff2d(5, seed=3, t_f=1.0)
    config = SolverConfig(p=1, h=1e-2, care_tol=1e-12, dtol=1e-13)
    h = config.h
    s_handle, curly_b, coeffs = _newton_context(problem, 1, h, config)
    hist = [SignedFactor.from_psd(problem.Z0)]
    pos, neg = stacked_constant_factor(problem.C, hist, h, coeffs)
    A_step = (h * coeffs.beta) * dense_a(problem) - 0.5 * np.eye(25)
    Q = pos @ pos.T
    X_star = sla.solve_continuous_are(A_step, curly_b, Q, np.eye(curly_b.shape[1]))
    lam, W = np.linalg.eigh(X_star)
    keep = lam > 1e-13 * lam.max()
    f_star = SignedFactor.from_psd(W[:, keep] * np.sqrt(lam[keep]))
    stepped = newton_step_large(f_star, s_handle, curly_b, pos, neg, lyap_tol=1e-13,
                                m_max=60, dtol=1e-13)
    assert signed_diff_fro(stepped, f_star) <= 1e-8 * max(signed_diff_fro(f_star, None), 1.0)


def test_solve_baseline_zero_problem():
    import scipy.sparse as sp

    n = 10
    A = sp.csc_matrix(random_stable(n, seed=51, shift=3.0))
    problem = DREProblem(A=A, B=np.ones((n, 1)), C=np.zeros((1, n)),
                         Z0=np.zeros((n, 1)), t_f=0.05)
    config = SolverConfig(p=2, h=1e-2)
    sol = solve_baseline(problem, config)
    assert sol.rank == 0
    assert sol.Z.shape == (n, 0)


def test_solve_baseline_agrees_with_projection_solver():
    from krylov_dre.solver import solve

    problem = gen_convdiff2d(5, seed=3, t_f=0.5)
    config = SolverConfig(p=2, h=2e-3, tol=1e-10, m_max=15, care_tol=1e-12,
                          dtol=1e-12)
    sol = solve(problem, config)
    base = solve_baseline(problem, config)
    diff = signed_diff_fro(SignedFactor.from_psd(sol.Z),
                           SignedFactor.from_psd(base.Z))
    ref = signed_diff_fro(SignedFactor.from_psd(sol.Z), None)
    assert diff / ref <= 1e-6


def test_baseline_newton_takes_one_iteration_per_smooth_step():
    # from the extrapolated history a step's Newton starts O(h^2) from its
    # root: past the start-up transient one iteration passes the stop test
    # (2.0 per step from the last iterate)
    problem = gen_heat1d_fem(900, seed=7, t_f=0.05)
    config = SolverConfig(p=2, h=1e-3, tol=1e-8, m_max=30, care_tol=1e-10, dtol=1e-11)
    sol = solve_baseline(problem, config)
    iters = sol.step_stats["newton_iters"]
    assert len(iters) == 50 and np.mean(iters[5:]) <= 1.3
    assert sol.step_stats["start_fallbacks"] == [0] * 50


def test_solve_baseline_trajectory_samples():
    problem = gen_convdiff2d(3, seed=5, t_f=0.1)
    config = SolverConfig(p=2, h=1e-2)
    sol = solve_baseline(problem, config, sample_times=[0.0, 0.05, 0.1])
    ts = [t for t, _ in sol.samples]
    assert ts == [0.0, 0.05, 0.1]
    stats = sol.step_stats
    assert stats["orders"][:2] == [1, 2] and len(stats["orders"]) == 10
    assert len(stats["newton_iters"]) == len(stats["care_residuals"]) == 10
    assert max(stats["care_residuals"]) <= config.care_tol


def _scripted_steps(monkeypatch, fail):
    """Replace the Newton step by one that keeps the iterate, failing on (k, order) in fail."""
    accepted = []

    def step(problem, config, handles, history, order, h):
        k = len(accepted) + 1
        if (k, order) in fail:
            raise fail[k, order]
        accepted.append(order)
        return history[0], 1e-12, 1.0, 1, 0

    monkeypatch.setattr(baseline, "_baseline_step", step)
    return gen_convdiff2d(3, seed=5, t_f=0.1), SolverConfig(p=2, h=1e-2)


def test_solve_baseline_retakes_failed_step_as_euler(monkeypatch):
    failure = MaxIterations("no root", iterations=4)
    failure.start_fallbacks = 1
    problem, config = _scripted_steps(monkeypatch, {(3, 2): failure})
    sol = solve_baseline(problem, config)
    stats = sol.step_stats
    assert stats["orders"] == [1, 2, 1] + [2] * 7
    assert stats["euler_retakes"] == 1
    assert stats["newton_iters"] == [1, 1, 4 + 1] + [1] * 7
    # the failed attempt's start fallback counts towards its step
    assert stats["start_fallbacks"] == [0, 0, 1] + [0] * 7
    assert stats["care_residuals"] == [1e-12] * 10
    assert "schur_factorizations" not in stats
    assert [r.m for r in sol.trace] == list(range(1, 11))


def test_solve_baseline_first_step_failures(monkeypatch):
    problem, config = _scripted_steps(monkeypatch, {(1, 1): UnstableClosedLoop("unstable")})
    with pytest.raises(NoStabilizingGuess):
        solve_baseline(problem, config)
    problem, config = _scripted_steps(monkeypatch, {(1, 1): MaxIterations("stalled")})
    with pytest.raises(StepFailure) as info:
        solve_baseline(problem, config)
    assert info.value.step == 1


def test_eba_lyapunov_unstable_projection_raises():
    # F has the eigenvalue pair +-1 on span(e1, e2), which the seed spans
    F = np.diag([1.0, -1.0] + [-2.0 - j for j in range(8)])
    G = np.zeros((10, 1))
    G[:2, 0] = 1.0
    with pytest.raises(UnstableClosedLoop):
        eba_lyapunov(_DenseOp(F), G, tol=1e-12, m_max=10, dtol=1e-12)


def test_eba_lyapunov_not_converged_raises():
    F = random_stable(49, seed=13, shift=9.0)
    G = np.random.default_rng(14).standard_normal((49, 2))
    with pytest.raises(NotConverged) as info:
        eba_lyapunov(_DenseOp(F), G, tol=1e-30, m_max=1, dtol=1e-13)
    assert info.value.m_max == 1 and info.value.last_residual > 0.0
    # an exactly invariant seed space leaves nothing to expand by: with no
    # residual small enough the solver stops instead of looping
    G = np.zeros((6, 1))
    G[0, 0] = 1.0
    with pytest.raises(NotConverged) as info:
        eba_lyapunov(_DenseOp(-np.eye(6)), G, tol=0.0, m_max=10, dtol=1e-12)
    assert info.value.m_max == 1 and info.value.last_residual == 0.0


def _scripted_newton(monkeypatch, script):
    """One implicit-Euler _baseline_step on convdiff n0=3 with a scripted Newton iterate.

    The i-th large Newton iterate (i = 1, 2, ... over all starts) is X_p +
    d_i r u u^T, with d_i = script(i) (which may raise instead), u a unit
    vector with u^T B != 0 and r chosen so that the step's estimate is
    (d_i^2 + 1/2) times its stop threshold.  Returns the problem, config and
    the list of the iterates X_p the calls started from.
    """
    problem, config = gen_convdiff2d(3, seed=5, t_f=0.1), SolverConfig(p=1, h=1e-2)
    u = problem.B[:, :1] / np.linalg.norm(problem.B[:, 0])
    starts = []

    def newton(X_p, s_handle, curly_b, pos, neg, lyap_tol, m_max, dtol):
        starts.append(X_p)
        # the threshold is care_tol * scale = 4 * lyap_tol
        r = np.sqrt(4 * lyap_tol) / np.linalg.norm(u.T @ curly_b)
        step = SignedFactor.from_psd(np.sqrt(script(len(starts)) * r) * u)
        return SignedFactor(np.hstack([X_p.Z, step.Z]), np.append(X_p.signs, 1.0))

    monkeypatch.setattr(baseline, "newton_step_large", newton)
    return problem, config, starts


def test_baseline_step_stalls(monkeypatch):
    # the estimate stays at 1.5 thresholds: no 2x gain in six iterations
    problem, config, starts = _scripted_newton(monkeypatch, lambda i: 1.0)
    with pytest.raises(MaxIterations, match="stalled") as info:
        baseline._baseline_step(problem, config, {1: None}, [SignedFactor.zero(problem.n)],
                                1, config.h)
    assert info.value.iterations == len(starts) == 7


def test_baseline_step_runs_out_of_iterations(monkeypatch):
    # the estimate falls 4x per iteration but is still 4.5 thresholds at the last
    problem, config, starts = _scripted_newton(
        monkeypatch, lambda i: 2.0 ** (baseline.NEWTON_MAXIT + 1 - i))
    with pytest.raises(MaxIterations, match=f"after {baseline.NEWTON_MAXIT} iterations") as info:
        baseline._baseline_step(problem, config, {1: None}, [SignedFactor.zero(problem.n)],
                                1, config.h)
    assert info.value.iterations == len(starts) == baseline.NEWTON_MAXIT


def test_baseline_step_falls_back_to_zero_start(monkeypatch):
    # from the last iterate Newton stalls; from zero it passes at its 2nd iterate
    problem, config, starts = _scripted_newton(monkeypatch, lambda i: 1.0 if i <= 8 else 0.0)
    last = SignedFactor.from_psd(problem.Z0)
    X, est, scale, iterations, fallbacks = baseline._baseline_step(
        problem, config, {1: None}, [last], 1, config.h)
    assert iterations == len(starts) == 9 and fallbacks == 1
    assert starts[0] is last and starts[7].rank == 0
    assert X.rank == 2 and est <= config.care_tol * scale
    # when the zero start fails too, its failure is raised
    problem, config, starts = _scripted_newton(monkeypatch, lambda i: 1.0)
    with pytest.raises(MaxIterations, match="stalled") as info:
        baseline._baseline_step(problem, config, {1: None}, [last], 1, config.h)
    assert info.value.iterations == len(starts) == 14
    assert info.value.start_fallbacks == 1


def test_baseline_step_starts_from_the_extrapolated_history(monkeypatch):
    problem, config, starts = _scripted_newton(monkeypatch, lambda i: 0.0)
    rng = np.random.default_rng(61)
    X1 = SignedFactor(rng.standard_normal((problem.n, 3)), np.array([1.0, 1.0, -1.0]))
    X2 = SignedFactor.from_psd(rng.standard_normal((problem.n, 2)))
    X, est, scale, iterations, fallbacks = baseline._baseline_step(
        problem, config, {1: None}, [X1, X2], 1, config.h)
    assert (iterations, fallbacks) == (1, 0) and len(starts) == 1
    # 2 X_{k-1} - X_{k-2}, compressed: rank 5, at most dtol below the exact sum
    pred = 2 * X1.to_dense() - X2.to_dense()
    assert starts[0].rank == 5
    assert np.linalg.norm(starts[0].to_dense() - pred, 2) <= 1e-12 * np.linalg.norm(pred, 2)


def test_solve_baseline_reports_a_start_fallback(monkeypatch, tmp_path):
    from krylov_dre.cli import cli_run
    from test_bitwise_dump import _load_dump

    # steps 1 and 2 pass at once; step 3's extrapolated start stalls for 7
    # iterations and its zero start passes at once
    script = lambda i: 1.0 if 3 <= i <= 9 else 0.0
    problem, _, starts = _scripted_newton(monkeypatch, script)
    config = SolverConfig(p=2, h=1e-2)
    sol = solve_baseline(problem, config)
    stats = sol.step_stats
    assert stats["start_fallbacks"] == [0, 0, 1] + [0] * 7
    assert stats["newton_iters"] == [1, 1, 8] + [1] * 7
    assert stats["euler_retakes"] == 0 and starts[9].rank == 0

    dump = _load_dump(monkeypatch)
    out = dump.solution(sol)
    assert "start_fallbacks" in out["work"]["step_stats"]
    stats["start_fallbacks"] = [0] * 10
    quiet = dump.solution(sol)
    assert quiet["work"] != out["work"] and dump.compare({"b": out}, {"b": quiet}) == [
        "b: work counts differ"]

    _scripted_newton(monkeypatch, script)
    code = cli_run(["baseline", "--family", "convdiff2d", "--n0", "3", "--tf", "0.1",
                    "--h", "1e-2", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    log = (tmp_path / "bdf_log.csv").read_text().splitlines()
    assert log[0].split(",")[-1] == "start_fallbacks"
    assert [int(row.split(",")[-1]) for row in log[1:]] == [0, 0, 1] + [0] * 7
