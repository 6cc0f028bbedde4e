import numpy as np
from hypothesis import given, settings, strategies as st

from krylov_dre.lowrank import SignedFactor, signed_diff_fro


def _random_signed(rng, n, r):
    Z = rng.standard_normal((n, r))
    signs = rng.choice([-1.0, 1.0], size=r)
    return SignedFactor(Z, signs)


def test_zero_factor():
    f = SignedFactor.zero(5)
    assert f.rank == 0
    assert signed_diff_fro(f, None) == 0.0
    assert f.compress(1e-10).rank == 0


def test_dense_roundtrip():
    rng = np.random.default_rng(0)
    f = _random_signed(rng, 6, 3)
    X = f.to_dense()
    assert np.allclose(X, X.T)
    fro = signed_diff_fro(f, None)
    assert abs(np.linalg.norm(X, "fro") - fro) <= 1e-10 * fro


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12), r=st.integers(0, 8))
def test_compress_preserves_matrix(seed, n, r):
    rng = np.random.default_rng(seed)
    f = _random_signed(rng, n, min(r, n))
    fc = f.compress(1e-12)
    X, Xc = f.to_dense(), fc.to_dense()
    scale = max(np.linalg.norm(X, 2), 1e-300)
    assert np.linalg.norm(X - Xc, 2) <= 1e-10 * scale
    assert fc.rank <= min(f.rank, n)


def test_compress_drops_redundant_columns():
    rng = np.random.default_rng(7)
    Z = rng.standard_normal((8, 2))
    f = SignedFactor(np.hstack([Z, Z[:, :1]]), np.array([1.0, 1.0, 1.0]))
    fc = f.compress(1e-12)
    assert fc.rank == 2


def test_signed_diff_matches_dense():
    rng = np.random.default_rng(9)
    f1 = _random_signed(rng, 7, 4)
    f2 = _random_signed(rng, 7, 2)
    expected = np.linalg.norm(f1.to_dense() - f2.to_dense(), "fro")
    assert abs(signed_diff_fro(f1, f2) - expected) <= 1e-10 * max(expected, 1.0)
    fro2 = np.linalg.norm(f2.to_dense(), "fro")
    assert abs(signed_diff_fro(SignedFactor.zero(7), f2) - fro2) <= 1e-10 * fro2


def test_psd_part_clips_negative_directions():
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((6, 3))
    f = SignedFactor(Z, np.array([1.0, 1.0, -1.0]))
    Zp = f.psd_part(1e-12)
    Xp = Zp @ Zp.T
    lam = np.linalg.eigvalsh(f.to_dense())
    # PSD projection keeps the positive spectral part
    expected_trace = lam[lam > 0].sum()
    assert np.trace(Xp) <= expected_trace + 1e-10
    assert np.linalg.eigvalsh(Xp).min() >= -1e-12 * max(np.linalg.norm(Xp, 2), 1)


def test_apply_matches_dense():
    rng = np.random.default_rng(13)
    f = _random_signed(rng, 6, 3)
    V = rng.standard_normal((6, 2))
    assert np.allclose(f.apply(V), f.to_dense() @ V, atol=1e-12)
