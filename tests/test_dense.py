import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.linalg as sla

from krylov_dre import dense
from krylov_dre.dense import (
    SchurFactor,
    _schur_eigenvalues,
    care_local_root,
    solve_care,
    psd_factor,
    solve_lyapunov,
)
from krylov_dre.errors import (MaxIterations, NoStabilizingGuess, SpectrumIncompatible,
                               UnstableClosedLoop)

from conftest import care_residual, lyapunov_residual, random_stable


# ---------------------------------------------------------------- Lyapunov

def test_lyapunov_scalar():
    X = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert X[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_lyapunov_commuting_case():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((5, 5))
    S = S + S.T
    X = solve_lyapunov(-np.eye(5), S)
    assert np.allclose(X, S / 2.0, atol=1e-13)


def test_lyapunov_random_stable_psd():
    F = random_stable(8, seed=11, shift=4.0)
    rng = np.random.default_rng(12)
    G = rng.standard_normal((8, 3))
    Q = G @ G.T
    X = solve_lyapunov(F, Q)
    assert lyapunov_residual(F, Q, X) <= 1e-10
    assert np.linalg.eigvalsh(X).min() >= -1e-12 * np.linalg.norm(X, 2)


def test_lyapunov_spectrum_incompatible():
    F = np.diag([1.0, -1.0])  # eigenvalue pair sums to zero
    with pytest.raises(SpectrumIncompatible):
        solve_lyapunov(F, np.eye(2))


# ---------------------------------------------------------------- CARE

def test_care_scalar_examples():
    x = solve_care(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert x[0, 0] == pytest.approx(1.0, abs=1e-12)
    x = solve_care(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]))
    assert x[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_care_fixed_point_returns_warm_start():
    A = random_stable(5, seed=4)
    rng = np.random.default_rng(5)
    B = rng.standard_normal((5, 2))
    C = rng.standard_normal((2, 5))
    X = solve_care(A, B, C.T @ C)
    X2 = solve_care(A, B, C.T @ C, x_init=X)
    # zero iterations: the warm start comes back as it went in
    assert np.array_equal(X2, X)


def test_care_unstable_warm_start_falls_back_to_cold_start():
    A = random_stable(5, seed=61)
    rng = np.random.default_rng(62)
    B = rng.standard_normal((5, 2))
    C = rng.standard_normal((2, 5))
    warm = -50.0 * np.eye(5)
    assert np.linalg.eigvals(A - B @ (B.T @ warm)).real.max() > 0.0
    X = solve_care(A, B, C.T @ C, x_init=warm)
    assert np.array_equal(X, solve_care(A, B, C.T @ C))


def test_care_stabilizing_and_residual():
    A = random_stable(6, seed=21)
    rng = np.random.default_rng(22)
    B = rng.standard_normal((6, 2))
    C = rng.standard_normal((2, 6))
    X = solve_care(A, B, C.T @ C)
    assert care_residual(A, B, C.T @ C, X) <= 1e-12
    cl = A - B @ (B.T @ X)
    assert np.linalg.eigvals(cl).real.max() < 0.0


def test_newton_quadratic_convergence(monkeypatch):
    A = random_stable(6, seed=31)
    rng = np.random.default_rng(32)
    B = rng.standard_normal((6, 2))
    C = rng.standard_normal((2, 6))
    Q = C.T @ C
    X_star = sla.solve_continuous_are(A, B, Q, np.eye(2))
    # each Newton step factors the closed loop A - B B^T X_i of its iterate
    loops = []

    class Recording(SchurFactor):
        def __init__(self, F):
            loops.append(F)
            super().__init__(F)

    monkeypatch.setattr(dense, "SchurFactor", Recording)
    X, info = care_local_root(A, B, Q, x_start=np.zeros((6, 6)), tol=1e-14)
    assert info["iterations"] == 5 and info["residual"] <= 1e-14
    assert np.linalg.norm(X - X_star) <= 1e-12 * np.linalg.norm(X_star)
    # ||B B^T (X_i - X*)||, monotone after the first step, with at least one
    # clearly quadratic contraction in the tail
    errs = np.array([np.linalg.norm(F - (A - B @ (B.T @ X_star))) for F in loops])
    assert np.all(np.diff(errs[1:]) < 0)
    tail = errs[errs > 1e-13]
    ratios = tail[1:] / tail[:-1] ** 2
    assert ratios.min() < 10.0


def test_care_no_stabilizing_guess():
    # (A, B) with an uncontrollable unstable mode cannot be stabilized
    A = np.diag([1.0, -2.0])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(NoStabilizingGuess):
        solve_care(A, B, np.eye(2))


def test_care_no_stabilizing_guess_with_warm_start():
    # neither the warm start nor a cold start stabilizes the uncontrollable mode
    A = np.diag([1.0, -2.0])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(NoStabilizingGuess):
        solve_care(A, B, np.eye(2), x_init=np.eye(2))


def test_care_max_iterations(monkeypatch):
    A = random_stable(4, seed=41)
    rng = np.random.default_rng(42)
    B = rng.standard_normal((4, 1))
    monkeypatch.setattr(dense, "CARE_MAXIT", 1)
    with pytest.raises(MaxIterations, match="after 1 steps"):
        solve_care(A, B, np.eye(4), tol=1e-15)


def test_care_non_stabilizing_root_raises(monkeypatch):
    # a = b = 1, q = 0 has the roots 0 (closed loop +1) and 2 (closed loop -1);
    # the Bass start is stabilizing, so only the check of the root catches 0
    monkeypatch.setattr(dense, "care_local_root", lambda A, B, Q, X, tol: (0.0 * X, {}))
    with pytest.raises(UnstableClosedLoop):
        solve_care(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]))


def _care_5x5():
    """A, B, Q and the stabilizing root from scipy, independent of care_local_root."""
    A = random_stable(5, seed=51)
    rng = np.random.default_rng(52)
    B = rng.standard_normal((5, 2))
    C = rng.standard_normal((2, 5))
    return A, B, C.T @ C, sla.solve_continuous_are(A, B, C.T @ C, np.eye(2))


def test_care_local_root_matches_strict_solver():
    A, B, Q, X_strict = _care_5x5()
    X_local, _ = care_local_root(A, B, Q, x_start=X_strict + 1e-3 * np.eye(5))
    assert np.allclose(X_local, X_strict, atol=1e-9)


def test_care_local_root_no_root_raises():
    # scalar -q y^2 + p y + s = 0 with negative discriminant has no real root
    A = np.array([[-0.5]])     # p = 2a = -1
    B = np.array([[2.0]])      # q = 4
    Q = np.array([[-1.0]])     # s = -1; disc = 1 - 16 < 0
    with pytest.raises(MaxIterations):
        care_local_root(A, B, Q, x_start=np.zeros((1, 1)))


def test_care_local_root_no_root_raises_with_factor():
    # chord steps cannot reach a root that does not exist either
    A, B, Q = np.array([[-0.5]]), np.array([[2.0]]), np.array([[-1.0]])
    with pytest.raises(MaxIterations):
        care_local_root(A, B, Q, x_start=np.zeros((1, 1)), factor=SchurFactor(A))


def _stalling_care():
    """A, B and an indefinite Q whose CARE has no symmetric root reachable from 0."""
    rng = np.random.default_rng(6)
    A = random_stable(3, seed=6)
    B = rng.standard_normal((3, 1))
    W = rng.standard_normal((3, 3))
    return A, B, -(W @ W.T) - 2.0 * np.eye(3)


def test_care_local_root_with_fallback_abandons_a_stall(monkeypatch):
    A, B, Q = _stalling_care()
    with pytest.raises(MaxIterations, match="abandoned") as abandoned:
        care_local_root(A, B, Q, x_start=np.zeros((3, 3)), fallback=True)
    assert abandoned.value.iterations <= 3
    assert abandoned.value.factorizations == abandoned.value.iterations
    # without a fallback the same call backtracks down to MIN_STEP = 2^-16
    assert dense.MIN_STEP == 2.0 ** -16 < dense.ABANDON_STEP
    with pytest.raises(MaxIterations, match="no symmetric root reachable") as stalled:
        care_local_root(A, B, Q, x_start=np.zeros((3, 3)))
    assert stalled.value.iterations > abandoned.value.iterations
    # the flag changes only that floor
    monkeypatch.setattr(dense, "MIN_STEP", dense.ABANDON_STEP)
    with pytest.raises(MaxIterations) as floored:
        care_local_root(A, B, Q, x_start=np.zeros((3, 3)))
    assert floored.value.iterations == abandoned.value.iterations


def test_care_local_root_forced_iteration_at_a_root():
    # a start that already passes the stop test (the root, to roundoff)
    # takes one iteration when forced, and the test still passes after it
    A, B, Q, X_ref = _care_5x5()
    X_root, info = care_local_root(A, B, Q, x_start=X_ref)
    assert info["iterations"] == 0
    X, forced = care_local_root(A, B, Q, x_start=X_root, forced=True)
    assert forced["iterations"] == 1 and forced["residual"] <= 1e-12
    assert np.allclose(X, X_root, rtol=0.0, atol=1e-12 * np.abs(X_root).max())


def test_care_local_root_stale_factor_same_root():
    A, B, Q, X_root = _care_5x5()
    start = X_root + 1e-3 * np.eye(5)
    tol = 1e-12
    X_plain, plain = care_local_root(A, B, Q, x_start=start, tol=tol)
    # closed loop of a far-away X: its chord steps stall and the factor is refreshed
    stale = SchurFactor(A - B @ (B.T @ (30.0 * X_root)))
    X_chord, chord = care_local_root(A, B, Q, x_start=start, tol=tol, factor=stale)
    assert plain["residual"] <= tol and chord["residual"] <= tol
    assert care_residual(A, B, Q, X_chord) <= tol
    assert np.linalg.norm(X_chord - X_plain) <= 1e3 * tol * np.linalg.norm(X_plain)
    assert chord["factorizations"] >= 1 and chord["factor"] is not stale
    assert np.linalg.norm(X_chord - X_chord.T) == 0.0


def test_care_local_root_fresh_factor_needs_no_factorization():
    A, B, Q, X_root = _care_5x5()
    start = X_root + 1e-6 * np.eye(5)
    factor = SchurFactor(A - B @ (B.T @ X_root))
    X, info = care_local_root(A, B, Q, x_start=start, tol=1e-12, factor=factor)
    assert info["factorizations"] == 0 and info["factor"] is factor
    assert info["iterations"] >= 1 and info["residual"] <= 1e-12
    assert np.allclose(X, X_root, atol=1e-9)


def test_schur_factor_solves_many_right_hand_sides():
    F = random_stable(6, seed=61)
    rng = np.random.default_rng(62)
    factor = SchurFactor(F)
    for _ in range(3):
        W = rng.standard_normal((6, 6))
        Q = W + W.T
        X = factor.solve(Q)
        assert np.array_equal(X, solve_lyapunov(F, Q))
        assert lyapunov_residual(F, Q, X) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(0, 12))
def test_schur_eigenvalues_match_eigvals(seed, k):
    # Q D Q^T with D quasi-triangular: 2x2 blocks [[a, b], [-c, a]] (b, c > 0)
    # give complex pairs, the rest real eigenvalues
    rng = np.random.default_rng(seed)
    D = np.triu(rng.standard_normal((k, k)), 1)
    i = 0
    while i < k:
        if i + 1 < k and rng.uniform() < 0.6:
            a, b, c = rng.standard_normal(), rng.uniform(0.1, 3), rng.uniform(0.1, 3)
            D[i:i + 2, i:i + 2] = [[a, b], [-c, a]]
            i += 2
        else:
            D[i, i] = rng.standard_normal()
            i += 1
    Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    T, _ = sla.schur(Q @ D @ Q.T, output="real")
    ours = np.sort_complex(_schur_eigenvalues(T))
    ref = np.sort_complex(np.linalg.eigvals(T)) if k else np.zeros(0, complex)
    assert ours.shape == (k,)
    assert np.allclose(ours, ref, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------- truncation

def test_truncate_identity():
    G, lam = psd_factor(np.eye(4), 1e-8)
    assert G.shape[1] == 4
    assert np.allclose(lam[: G.shape[1]], 1.0)


def test_truncate_threshold_cut():
    G, _ = psd_factor(np.diag([1.0, 1e-12]), 1e-8)
    assert G.shape[1] == 1


def test_truncate_constructed_rank():
    rng = np.random.default_rng(61)
    W = rng.standard_normal((10, 3))
    Y = W @ W.T
    G, lam = psd_factor(Y, 1e-10)
    assert G.shape[1] == 3
    assert np.linalg.norm(Y - G @ G.T, 2) <= 1e-10 * lam[0]


def test_truncate_zero_matrix():
    G, _ = psd_factor(np.zeros((5, 5)), 1e-8)
    assert G.shape == (5, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 12),
       dtol=st.sampled_from([1e-12, 1e-8, 1e-4, 0.5]))
def test_truncate_reconstruction_property(seed, k, dtol):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((k, k))
    Y = W @ W.T
    G, lam = psd_factor(Y, dtol)
    rank = G.shape[1]
    sigma_max = np.abs(np.linalg.eigvalsh(Y)).max()
    assert np.linalg.norm(Y - G @ G.T, 2) <= dtol * sigma_max * (1 + 1e-12)
    assert np.all(lam[:rank] >= dtol * sigma_max * (1 - 1e-12)) or rank == 0
    # orthonormal columns once the square roots of the eigenvalues are divided out
    if rank:
        U = G / np.sqrt(lam[:rank])
        assert np.linalg.norm(U.T @ U - np.eye(rank)) <= 1e-12
