"""Signed low-rank factors X ~ Z diag(signs) Z^T and factored norm arithmetic.

Used by the baseline time stepper, whose Newton iterates are differences of
PSD factors, and for forming norms of (differences of) factored matrices
without ever assembling an n-by-n product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import psd_factor


@dataclass
class SignedFactor:
    """X ~ Z @ diag(signs) @ Z.T with signs in {-1.0, +1.0}."""

    Z: np.ndarray
    signs: np.ndarray

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, 0)), np.zeros(0))

    @classmethod
    def from_psd(cls, Z):
        return cls(Z, np.ones(Z.shape[1]))

    @property
    def rank(self):
        return self.Z.shape[1]

    def to_dense(self):
        return (self.Z * self.signs) @ self.Z.T

    def apply(self, V):
        """X @ V without forming X."""
        return self.Z @ (self.signs[:, None] * (self.Z.T @ V))

    def _qr_core(self):
        """Thin QR Z = Q R and the small symmetric core R diag(signs) R^T."""
        Q, R = np.linalg.qr(self.Z)
        return Q, 0.5 * ((R * self.signs) @ R.T + R @ (self.signs[:, None] * R.T))

    def compress(self, dtol):
        """Column compression: minimal rank keeping |eigenvalues| > dtol * max.

        A thin QR of Z reduces the problem to the eigendecomposition of the
        small core R diag(signs) R^T.
        """
        if self.rank == 0:
            return SignedFactor(self.Z.copy(), self.signs.copy())
        Q, core = self._qr_core()
        lam, W = np.linalg.eigh(core)
        order = np.argsort(np.abs(lam))[::-1]
        lam, W = lam[order], W[:, order]
        amax = np.abs(lam[0]) if lam.size else 0.0
        keep = np.abs(lam) > dtol * amax if amax > 0.0 else np.zeros(lam.shape, bool)
        lam, W = lam[keep], W[:, keep]
        Z = Q @ (W * np.sqrt(np.abs(lam)))
        return SignedFactor(Z, np.sign(lam))

    def psd_part(self, dtol):
        """Projection onto the PSD cone, returned as a plain factor Z (X ~ Z Z^T)."""
        if self.rank == 0:
            return self.Z.copy()
        Q, core = self._qr_core()
        return Q @ psd_factor(core, dtol)[0]


def signed_diff_fro(f1: SignedFactor, f2: SignedFactor | None):
    """||X1 - X2||_F from factors, without forming an n-by-n matrix.

    A thin QR of the stacked columns M = [Z1, Z2] reduces the difference to
    the small symmetric core R diag(signs1, -signs2) R^T (_qr_core), whose
    eigenvalues give the norm.  Going through the core (rather than trace identities on
    the Gram matrix) keeps the cancellation error at the eps * ||X|| level,
    so near-identical factors still resolve.
    """
    diff = f1 if f2 is None else SignedFactor(np.hstack([f1.Z, f2.Z]),
                                              np.concatenate([f1.signs, -f2.signs]))
    if diff.rank == 0:
        return 0.0
    lam = np.linalg.eigvalsh(diff._qr_core()[1])
    return float(np.sqrt(np.sum(lam**2)))
