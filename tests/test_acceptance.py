"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.  Wall-clock budgets are asserted with the stated
limits; the numeric tolerances are pinned in each test body.
"""

import csv
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from krylov_dre import arnoldi
from krylov_dre.baseline import solve_baseline
from krylov_dre.bdf import bdf_coefficients, integrate
from krylov_dre.benchmarks import gen_convdiff2d, gen_heat1d_fem, load_matrixmarket
from krylov_dre.cli import cli_run
from krylov_dre.dense import psd_factor, solve_care, solve_lyapunov
from krylov_dre.lowrank import SignedFactor, signed_diff_fro
from krylov_dre.lqr import (
    gain_schedule,
    optimal_cost,
    simulate_closed_loop,
    steady_state,
)
from krylov_dre.oracles import dense_reference_integrate, exact_solution
from krylov_dre.problem import DREProblem, SolverConfig, factorize
from krylov_dre.solver import residual_estimate, solve

from conftest import (care_residual, dense_a, lyapunov_residual,
                      projected_cost_identity_check)


def _report(num, name, runtime, budget, detail):
    assert runtime < budget, f"criterion {num} exceeded budget: {runtime:.1f}s >= {budget}s"
    print(f"\nACCEPTANCE {num} ({name}): PASS — {detail} [{runtime:.1f}s < {budget}s]")


def test_criterion_1_residual_formula_identity():
    t0 = time.perf_counter()
    problem = gen_convdiff2d(7, seed=7, t_f=1.0)
    config = SolverConfig(p=2, h=1e-3, tol=1e-10, m_max=20, care_tol=1e-14)
    sol = solve(problem, config)
    basis = sol.basis
    V = basis.basis_matrix()

    T_m, B_m, C_m = arnoldi.projected_matrices(basis, problem.B)
    G = V.T @ problem.Z0
    traj = integrate(T_m, B_m, C_m, G @ G.T, problem.t_f, config)
    p = traj.orders[-1]
    coeffs = bdf_coefficients(p)
    tail = [V @ Y @ V.T for Y in traj.tail]
    X_new = tail[-1]
    hist = [tail[-2 - i] for i in range(p)]
    xdot = (X_new - sum(a * Xi for a, Xi in zip(coeffs.alpha, hist))) / (config.h * coeffs.beta)
    A = dense_a(problem)
    R = xdot - (A.T @ X_new + X_new @ A
                - X_new @ problem.B @ (problem.B.T @ X_new) + problem.C.T @ problem.C)
    dense_norm = np.linalg.norm(R, 2)
    cheap = residual_estimate(basis, traj.final).value
    gap = abs(dense_norm - cheap)
    assert gap <= 1e-9
    _report(1, "residual formula identity", time.perf_counter() - t0, 10,
            f"|dense {dense_norm:.3e} - cheap {cheap:.3e}| = {gap:.2e} <= 1e-9")


def test_criterion_2_cross_method_agreement():
    t0 = time.perf_counter()
    problem = gen_convdiff2d(7, seed=7, t_f=1.0)
    config = SolverConfig(p=2, h=1e-3, tol=1e-10, m_max=20)
    sol = solve(problem, config)
    base = solve_baseline(problem, config)
    X_ref = dense_reference_integrate(problem, config.h / 10.0, [1.0])[0]
    nr = np.linalg.norm
    X_eba, X_base = sol.to_dense(), base.Z @ base.Z.T
    ref_norm = nr(X_ref, "fro")
    diffs = {
        "eba-baseline": nr(X_eba - X_base, "fro") / ref_norm,
        "eba-reference": nr(X_eba - X_ref, "fro") / ref_norm,
        "baseline-reference": nr(X_base - X_ref, "fro") / ref_norm,
    }
    assert all(d <= 1e-5 for d in diffs.values()), diffs
    worst = max(diffs.values())
    _report(2, "cross-method agreement at n=49", time.perf_counter() - t0, 60,
            f"worst pairwise rel fro diff {worst:.2e} <= 1e-5")


def test_criterion_3_convergence_in_m_n900(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "n900"
    code = cli_run([
        "convergence", "--family", "convdiff2d", "--n0", "30", "--tf", "1.0",
        "--p", "2", "--h", "1e-3", "--tol", "1e-10", "--m-max", "30",
        "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    with open(out / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    ms = [int(r["m"]) for r in rows]
    res = [float(r["residual"]) for r in rows]
    first_below = next(m for m, r in zip(ms, res) if r < 1e-7)
    assert first_below <= 20
    assert res[-1] < 1e-10
    _report(3, "convergence in m at n=900", time.perf_counter() - t0, 120,
            f"residual < 1e-7 at m={first_below} (<=20), final {res[-1]:.2e} < tol; "
            f"CSV with {len(rows)} rows emitted")


def test_criterion_4_heat_fem_n1600():
    t0 = time.perf_counter()
    problem = gen_heat1d_fem(1600, seed=5, t_f=1.0)
    config = SolverConfig(p=2, h=1e-3, tol=1e-10, m_max=20)
    sol = solve(problem, config)
    assert sol.m <= 14
    assert sol.residual.value < 1e-9
    _report(4, "heat FEM benchmark at n=1600", time.perf_counter() - t0, 60,
            f"m={sol.m} <= 14, residual {sol.residual.value:.2e} < 1e-9")


def test_criterion_5_bdf_orders():
    t0 = time.perf_counter()
    one = np.ones((1, 1))
    T1, Y0 = np.zeros((1, 1)), np.zeros((1, 1))
    orders = {}
    err_h3 = None
    for p in (1, 2):
        errs = []
        for h in (4e-3, 2e-3, 1e-3):
            config = SolverConfig(p=p, h=h, care_tol=1e-14)
            traj = integrate(T1, one, one, Y0, 1.0, config)
            errs.append(abs(traj.final[0, 0] - math.tanh(1.0)))
        orders[p] = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for q in orders[p]:
            assert p - 0.2 <= q <= p + 0.2
        if p == 2:
            err_h3 = errs[-1]
            assert err_h3 <= 1e-5
    _report(5, "BDF empirical orders", time.perf_counter() - t0, 5,
            f"orders p=1:{np.round(orders[1], 3)} p=2:{np.round(orders[2], 3)}, "
            f"p=2 error at h=1e-3: {err_h3:.2e} <= 1e-5")


def test_criterion_6_oracle_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for ss in np.random.SeedSequence(424242).spawn(5):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(6, 21))
        A = rng.standard_normal((n, n)) - (2.5 + rng.uniform()) * np.eye(n)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        L = 0.3 * rng.standard_normal((n, n))
        Z0 = np.linalg.cholesky(L @ L.T + 0.4 * np.eye(n))
        problem = DREProblem(A=A, B=B, C=C, Z0=Z0, t_f=1.0)
        Xs = dense_reference_integrate(problem, 1e-4, [0.1, 0.5, 1.0])
        for t, Xr in zip([0.1, 0.5, 1.0], Xs):
            Xe = exact_solution(problem, t)
            worst = max(worst, np.linalg.norm(Xe - Xr) / np.linalg.norm(Xr))
    assert worst <= 1e-6
    _report(6, "closed-form oracle consistency", time.perf_counter() - t0, 30,
            f"worst rel diff {worst:.2e} <= 1e-6")


def test_criterion_7_steady_state_trend():
    t0 = time.perf_counter()
    problem = gen_heat1d_fem(400, seed=3, alpha=0.05, dt=7e-5, t_f=50.0)
    config = SolverConfig(p=2, h=0.025, tol=1e-8, m_max=25)
    ts = np.arange(0.0, 50.0 + 1e-9, 5.0)
    sol = solve(problem, config, sample_times=ts)
    Zinf = steady_state(problem, tol=1e-10)
    finf = SignedFactor.from_psd(Zinf)
    dists = {t: signed_diff_fro(SignedFactor.from_psd(Z), finf)
             for t, Z in sol.samples}
    final = dists[50.0]
    assert final <= 1e-3
    window = [dists[t] for t in (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)]
    assert all(a > b for a, b in zip(window, window[1:])), window
    _report(7, "steady-state approach", time.perf_counter() - t0, 300,
            f"||X(50)-Xinf||_F = {final:.2e} <= 1e-3, decreasing over t in [10,50]")


def test_criterion_8_lqr_identities():
    t0 = time.perf_counter()
    problem = gen_convdiff2d(7, seed=7, t_f=1.0)
    config = SolverConfig(p=2, h=1e-3, tol=1e-10, m_max=20)
    sample_times = np.arange(0.0, 1.0 + 1e-12, 1e-2)
    sol = solve(problem, config, sample_times=sample_times)
    rng = np.random.default_rng(99)
    x0 = rng.standard_normal(49)
    J = optimal_cost(sol, x0).value
    disc = projected_cost_identity_check(sol.basis, sol.y_final, x0)
    assert disc <= 1e-10 * J
    sched = gain_schedule(sol.samples, problem.B, problem.t_f)
    sim = simulate_closed_loop(problem, sched, x0, 1e-4)
    rel = abs(sim.cost - J) / J
    assert rel <= 0.01
    _report(8, "LQR identities", time.perf_counter() - t0, 60,
            f"cost identity {disc / J:.2e} <= 1e-10 rel; realized cost within "
            f"{rel:.2%} of x0'X(Tf)x0")


def _mm_problem(tmp_path):
    a = tmp_path / "a.mtx"
    a.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "6 6 11\n" + "\n".join(
                     f"{i} {i} -{2 + 0.25 * i}" for i in range(1, 7)) + "\n"
                 + "\n".join(f"{i} {i + 1} 0.5" for i in range(1, 6)) + "\n")
    b = tmp_path / "b.mtx"
    b.write_text("%%MatrixMarket matrix array real general\n6 1\n"
                 + "\n".join("1.0" for _ in range(6)) + "\n")
    c = tmp_path / "c.mtx"
    c.write_text("%%MatrixMarket matrix array real general\n1 6\n"
                 + "\n".join(f"0.{i}25" for i in range(1, 7)) + "\n")
    return load_matrixmarket(str(a), str(b), str(c), t_f=1.0)


def test_criterion_9_property_suites(tmp_path):
    t0 = time.perf_counter()
    # Arnoldi orthonormality + relation on all benchmark families
    worst_dev, worst_rel = 0.0, 0.0
    fams = [gen_convdiff2d(7, seed=7), gen_heat1d_fem(200, seed=5),
            _mm_problem(tmp_path)]
    for problem in fams:
        handle = factorize(problem.A)
        basis = arnoldi.seed(handle, problem.C)
        for _ in range(6):
            try:
                arnoldi.expand(basis, handle)
            except Exception:
                break
        for m, dev, rel in arnoldi.diagnostics_history(basis):
            worst_dev, worst_rel = max(worst_dev, dev), max(worst_rel, rel)
    assert worst_dev <= 1e-10 and worst_rel <= 1e-10

    # Lyapunov / CARE substitution residuals
    worst_lyap, worst_care = 0.0, 0.0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((8, 8)) - 4.0 * np.eye(8)
        G = rng.standard_normal((8, 2))
        X = solve_lyapunov(F, G @ G.T)
        worst_lyap = max(worst_lyap, lyapunov_residual(F, G @ G.T, X))
        B = rng.standard_normal((8, 2))
        C = rng.standard_normal((2, 8))
        Xc = solve_care(F, B, C.T @ C)
        worst_care = max(worst_care, care_residual(F, B, C.T @ C, Xc))
    assert worst_lyap <= 1e-10 and worst_care <= 1e-10

    # truncated factorization reconstruction bounds
    for seed, dtol in ((4, 1e-10), (5, 1e-6), (6, 0.3)):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((12, 12))
        Y = W @ W.T
        G, _ = psd_factor(Y, dtol)
        smax = np.abs(np.linalg.eigvalsh(Y)).max()
        assert np.linalg.norm(Y - G @ G.T, 2) <= dtol * smax * (1 + 1e-12)

    # generator determinism
    a1, a2 = gen_convdiff2d(6, seed=123), gen_convdiff2d(6, seed=123)
    assert (a1.A != a2.A).nnz == 0
    assert np.array_equal(a1.B, a2.B) and np.array_equal(a1.C, a2.C) \
        and np.array_equal(a1.Z0, a2.Z0)
    h1, h2 = gen_heat1d_fem(64, seed=9), gen_heat1d_fem(64, seed=9)
    assert np.array_equal(h1.A, h2.A) and np.array_equal(h1.B, h2.B) \
        and np.array_equal(h1.C, h2.C)

    _report(9, "property suites", time.perf_counter() - t0, 60,
            f"arnoldi dev {worst_dev:.1e}, relation {worst_rel:.1e}, "
            f"lyap {worst_lyap:.1e}, care {worst_care:.1e}, truncation + determinism OK")


def test_scaling_trend_projection_beats_full_integration():
    t0 = time.perf_counter()
    ratios = {}
    for n in (100, 900):
        problem = gen_heat1d_fem(n, seed=7, t_f=0.05)
        config = SolverConfig(p=2, h=1e-3, tol=1e-8, m_max=30,
                              care_tol=1e-10, dtol=1e-11)
        t1 = time.perf_counter()
        sol = solve(problem, config)
        t_eba = time.perf_counter() - t1
        t1 = time.perf_counter()
        base = solve_baseline(problem, config)
        t_base = time.perf_counter() - t1
        ratios[n] = t_base / t_eba
        diff = signed_diff_fro(SignedFactor.from_psd(sol.Z),
                               SignedFactor.from_psd(base.Z))
        ref = max(signed_diff_fro(SignedFactor.from_psd(sol.Z), None), 1e-300)
        assert diff / ref <= 1e-5
    assert ratios[900] > 3.0
    _report("scaling", "projection-first beats integrate-then-solve",
            time.perf_counter() - t0, 120,
            f"baseline/primary time ratio n=100: {ratios[100]:.1f}, "
            f"n=900: {ratios[900]:.1f} (> 3 required at n=900)")
