"""Problem container, operator handles with cached factorizations, solver configuration.

The differential Riccati equation solved throughout is

    dX/dt = A^T X + X A - X B B^T X + C^T C,   X(0) = Z0 Z0^T,

on [0, T_f], with A n-by-n nonsingular, B n-by-ell, C s-by-n and ell, s << n.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, ParseError, SingularA

# Relative pivot threshold below which a factorization is declared singular.
PIVOT_RTOL = 1e-13


@dataclass
class DREProblem:
    """A differential Riccati equation instance.

    A may be a scipy sparse matrix or a dense ndarray; Z0 is the low-rank
    initial factor with X(0) = Z0 @ Z0.T.
    """

    A: object
    B: np.ndarray
    C: np.ndarray
    Z0: np.ndarray
    t_f: float

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def ell(self):
        return self.B.shape[1]

    @property
    def s(self):
        return self.C.shape[0]


@dataclass
class SolverConfig:
    """Knobs shared by the projection solver, the baseline and the integrators.

    h must divide t_f into an integer number of steps.  check_stride controls
    how often the (comparatively expensive) projected integration and residual
    test are performed along the outer Krylov iteration; 1 is the right choice
    for small problems, 3 pays off on large ones.
    """

    p: int = 2
    h: float = 1e-3
    tol: float = 1e-10
    m_max: int = 50
    dtol: float = 1e-12
    check_stride: int = 1
    care_tol: float = 1e-12

    def validate(self):
        if self.p not in (1, 2, 3):
            raise ValueError(f"BDF order p must be in {{1,2,3}}, got {self.p}")
        if self.h <= 0 or self.tol <= 0 or self.dtol <= 0:
            raise ValueError("h, tol and dtol must be positive")
        if self.check_stride < 1 or self.m_max < 1:
            raise ValueError("check_stride and m_max must be >= 1")
        return self


@dataclass
class ValidationReport:
    valid: bool
    n: int
    ell: int
    s: int
    rank_b: int
    rank_c: int
    issues: list = field(default_factory=list)


class OperatorHandle:
    """Actions of A^T and A^{-T} on n-by-k blocks, with op counters.

    A is factorized once: by SuperLU when it is scipy sparse, by LAPACK
    otherwise.  Immutable after construction; safe for concurrent read-only
    use.  Counters record the number of columns pushed through each kind of
    action and are not synchronized.
    """

    def __init__(self, A):
        if sp.issparse(A):
            A = A.tocsc()
            try:
                lu = spla.splu(A)
            except RuntimeError as exc:
                raise SingularA(f"sparse LU failed: {exc}") from exc
            d = np.abs(lu.U.diagonal())
            self._solve_t = lambda V: lu.solve(np.asarray(V), trans="T")
        else:
            A = np.asarray(A, dtype=float)
            lu_piv = sla.lu_factor(A, check_finite=False)
            d = np.abs(np.diag(lu_piv[0]))
            self._solve_t = lambda V: sla.lu_solve(lu_piv, V, trans=1, check_finite=False)
        if d.size == 0 or d.min() <= PIVOT_RTOL * max(d.max(), 1e-300):
            raise SingularA(f"near-singular A: LU pivots span "
                            f"[{d.min(initial=0.0):.2e}, {d.max(initial=0.0):.2e}]")
        self.n = A.shape[0]
        self.A = A
        self.matvecs = 0
        self.solves = 0

    def apply_t(self, V):
        self.matvecs += 1 if V.ndim == 1 else V.shape[1]
        return self.A.T @ V

    def solve_t(self, V):
        self.solves += 1 if V.ndim == 1 else V.shape[1]
        return self._solve_t(V)


def factorize(A) -> OperatorHandle:
    """Factorize A once and return a handle for repeated apply_t/solve_t actions.

    Raises SingularA when the factorization fails or produces a pivot below
    the relative threshold.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    return OperatorHandle(A)


def validate(problem: DREProblem) -> ValidationReport:
    """Check dimensions, full rank of B and C, and factorizability of A.

    Shape inconsistencies raise DimensionMismatch and a singular A raises
    SingularA; rank deficiencies of B or C are reported, not raised.
    """
    A, B, C, Z0 = problem.A, problem.B, problem.C, problem.Z0
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    n = A.shape[0]
    if B.ndim != 2 or B.shape[0] != n:
        raise DimensionMismatch(f"B must be {n}-by-ell, got {B.shape}")
    if C.ndim != 2 or C.shape[1] != n:
        raise DimensionMismatch(f"C must be s-by-{n}, got {C.shape}")
    if Z0.ndim != 2 or Z0.shape[0] != n:
        raise DimensionMismatch(f"Z0 must be {n}-by-r0, got {Z0.shape}")
    if problem.t_f < 0:
        raise DimensionMismatch("t_f must be nonnegative")

    issues = []
    rank_b = int(np.linalg.matrix_rank(B))
    rank_c = int(np.linalg.matrix_rank(C))
    if rank_b < B.shape[1]:
        issues.append(f"B is rank deficient: rank {rank_b} < {B.shape[1]} columns")
    if rank_c < C.shape[0]:
        issues.append(f"C is rank deficient: rank {rank_c} < {C.shape[0]} rows")

    factorize(A)  # raises SingularA on failure

    return ValidationReport(
        valid=not issues,
        n=n,
        ell=B.shape[1],
        s=C.shape[0],
        rank_b=rank_b,
        rank_c=rank_c,
        issues=issues,
    )


def config_from_file(path) -> SolverConfig:
    """Read a key=value text file into a SolverConfig.

    Blank lines and lines starting with '#' are ignored; unknown keys raise
    ParseError.
    """
    kinds = {f.name: f.type for f in fields(SolverConfig)}
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in kinds:
                    raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = int(val) if kinds[key] == "int" else float(val)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    return SolverConfig(**values).validate()
