"""Extended block Arnoldi process for the transposed pair (A^T, C^T).

Builds an orthonormal basis of K^e_m(A^T, C^T) = Range[C^T, A^{-T}C^T,
A^T C^T, A^{-2T}C^T, ...] block by block, together with the projected matrix
T = V^T A^T V.  The products A^T V_j that the expansion forms are kept, and T
is filled from them as V^T (A^T V): each expansion appends the column of the
block it multiplied and the row of the block it appended.  So T is the
Galerkin matrix to roundoff at every order, including its blocks below the
first subdiagonal, which vanish only in exact arithmetic.

After m expansions the Arnoldi relation

    A^T V_m = V_m T_m + V_{m+1} T_{m+1,1:m}

holds to working accuracy, with V_m the first 2ms basis columns and
T_{m+1,1:m} the last block row of T, [0 ... 0 T_{m+1,m}] in exact arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import Breakdown, RankDeficientSeed

# Relative threshold on QR diagonals below which a block is declared rank
# deficient (seed -> RankDeficientSeed, expansion -> Breakdown), and on
# A^T V - V T after breakdown below which the subspace counts as invariant.
RANK_RTOL = 1e-12


class ExtendedKrylovBasis:
    """Orthonormal block basis of K^e(A^T, C^T) plus projected matrices.

    Attributes
    ----------
    V : stacked orthonormal blocks, n-by-(blocks*2s).
    AtV : the products A^T V_j of the expanded blocks, n-by-(expansions*2s).
    T : projected matrix V^T AtV; shape (blocks*2s)-by-(expansions*2s).
    Lambda11 : s-by-s upper-triangular factor of the seed QR, with
        C^T = V_1^(1) Lambda11.
    m : number of completed expansions.
    breakdown : True once an expansion found no new block; the last block's
        product is kept and T is square.
    """

    def __init__(self, V, Lambda11, s):
        self.V = V
        self.Lambda11 = Lambda11
        self.s = s
        self.w = 2 * s
        self.m = 0
        self.breakdown = False
        self.AtV = np.zeros((V.shape[0], 0))
        self.T = np.zeros((self.w, 0))

    @property
    def order(self):
        """Largest m for which T_m (and, unless breakdown, T_{m+1,1:m}) is available."""
        return self.m + 1 if self.breakdown else self.m

    def block(self, j):
        """The (j+1)-th basis block, n-by-2s (0-indexed)."""
        return self.V[:, j * self.w : (j + 1) * self.w]

    def basis_matrix(self):
        return self.V[:, : self.order * self.w]

    def t_square(self):
        k = self.order * self.w
        return self.T[:k, :k]

    def t_coupling(self):
        """T_{m+1,1:m}, the last block row of T; None after breakdown."""
        return None if self.breakdown else self.T[-self.w :, :]

    def residual_norm(self, Y):
        """||(I - V_m V_m^T) A^T V_m Y||_2: the full equation's residual norm at
        V_m Y V_m^T when Y solves the projected equation.

        That is ||T_{m+1,1:m} Y||_2 before breakdown.  After it, the remainder
        A^T V - V T takes the coupling row's place, and the residual is
        exactly 0 when that is within RANK_RTOL of ||A^T V||_2: the subspace
        is invariant.
        """
        if not self.breakdown:
            return float(np.linalg.norm(self.t_coupling() @ Y, 2))
        rest = self.AtV - self.V @ self.T
        if np.linalg.norm(rest, 2) <= RANK_RTOL * np.linalg.norm(self.AtV, 2):
            return 0.0
        return float(np.linalg.norm(rest @ Y, 2))

    def truncated(self, m):
        """The basis as it stood after m <= order expansions.

        Blocks, products and projected entries are never rewritten once
        appended, so V, AtV and T of order m are leading slices (views) of the
        current ones.
        """
        if m == self.order:
            return self
        if not 1 <= m < self.order:
            raise ValueError(f"cannot cut a basis of order {self.order} to order {m}")
        cut = ExtendedKrylovBasis(self.V[:, : (m + 1) * self.w], self.Lambda11, self.s)
        cut.m = m
        cut.AtV = self.AtV[:, : m * self.w]
        cut.T = self.T[: (m + 1) * self.w, : m * self.w]
        return cut


def seed(handle, C) -> ExtendedKrylovBasis:
    """Start the process: QR of [C^T, A^{-T}C^T] gives V_1 and Lambda11.

    Raises RankDeficientSeed when the R factor has a relatively tiny diagonal
    entry (C^T rank deficient, or A^{-T}C^T parallel to C^T).
    """
    Ct = np.ascontiguousarray(C.T, dtype=float)
    U = np.hstack([Ct, handle.solve_t(Ct)])
    Q, R = np.linalg.qr(U)
    if np.abs(np.diag(R)).min() <= RANK_RTOL * np.linalg.norm(U, 2):
        raise RankDeficientSeed(
            "QR of [C^T, A^{-T}C^T] is numerically rank deficient"
        )
    s = C.shape[0]
    return ExtendedKrylovBasis(Q, R[:s, :s], s)


def expand(basis: ExtendedKrylovBasis, handle) -> ExtendedKrylovBasis:
    """Append the next block and the corresponding projected row and column.

    The candidate block is [A^T V_m^(1), A^{-T} V_m^(2)], orthogonalized by
    block Gram-Schmidt with one full reorthogonalization pass (the residual
    stop test silently degrades if orthonormality drifts, so two passes are
    always performed).  On rank deficiency the projected matrix is completed
    to square, the breakdown flag is set and Breakdown is raised; the caller
    should accept the current basis, whose residual then comes from the
    remainder A^T V - V T (see residual_norm).
    """
    if basis.breakdown:
        raise Breakdown("cannot expand after breakdown")
    s, w = basis.s, basis.w
    j = basis.m
    Vj = basis.block(j)
    AtVj = handle.apply_t(Vj)
    W = handle.solve_t(np.ascontiguousarray(Vj[:, s:]))

    cand = np.hstack([AtVj[:, :s], W])
    cand_scale = np.linalg.norm(cand, 2)
    for _ in range(2):
        cand = cand - basis.V @ (basis.V.T @ cand)

    Q, R = np.linalg.qr(cand)
    k = (j + 1) * w
    AtV = basis.AtV
    basis.AtV = np.hstack([AtV, AtVj])

    if np.abs(np.diag(R)).min() <= RANK_RTOL * max(cand_scale, 1e-300):
        basis.T = np.hstack([basis.T, basis.V.T @ AtVj])
        basis.breakdown = True
        raise Breakdown(f"rank-deficient block at expansion {j + 1}")

    basis.V = np.hstack([basis.V, Q])
    T = np.zeros((k + w, k))
    T[:k, : j * w] = basis.T
    T[k:, : j * w] = Q.T @ AtV
    T[:, j * w :] = basis.V.T @ AtVj
    basis.T = T
    basis.m += 1
    return basis


def projected_matrices(basis: ExtendedKrylovBasis, B):
    """Return (T_m, B_m, C_m) for the current order m.

    B_m = V_m^T B is formed by multiplication; C_m = [Lambda11^T, 0] is
    assembled from the seed QR factor, never recomputed as V_m^T C^T.
    """
    if basis.order < 1:
        raise ValueError("projected_matrices requires at least one expansion")
    T_m = basis.t_square().copy()
    B_m = basis.basis_matrix().T @ B
    C_m = np.zeros((basis.s, T_m.shape[0]))
    C_m[:, : basis.s] = basis.Lambda11.T
    return T_m, B_m, C_m


def orthonormality_deviation(basis: ExtendedKrylovBasis):
    """Frobenius norm of V^T V - I over all stored blocks."""
    G = basis.V.T @ basis.V
    return float(np.linalg.norm(G - np.eye(G.shape[0]), "fro"))


def relation_residual(basis: ExtendedKrylovBasis):
    """Relative deviation of A^T V_m = V_m T_m + V_{m+1} T_{m+1,1:m}.

    m is the current order; after breakdown the relation reads
    A^T V_m = V_m T_m.  The left-hand side is the kept AtV.
    """
    lhs = basis.AtV
    return float(np.linalg.norm(lhs - basis.V @ basis.T, "fro")
                 / max(np.linalg.norm(lhs, "fro"), 1e-300))


def diagnostics_history(basis: ExtendedKrylovBasis):
    """One diagnostics row per completed iteration of a finished basis.

    Row m reports the diagnostics of basis.truncated(m): the orthonormality
    deviation of all blocks present after expansion m and the relation
    residual at order m.  Intended for CSV dumps.
    """
    cuts = map(basis.truncated, range(1, basis.order + 1))
    return [(cut.order, orthonormality_deviation(cut), relation_residual(cut))
            for cut in cuts]
