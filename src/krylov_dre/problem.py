"""Problem container, operator handles with cached factorizations, solver configuration.

The differential Riccati equation solved throughout is

    dX/dt = A^T X + X A - X B B^T X + C^T C,   X(0) = Z0 Z0^T,

on [0, T_f], with A n-by-n nonsingular, B n-by-ell, C s-by-n and ell, s << n.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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

    h must divide t_f into an integer number of steps.
    """

    p: int = 2
    h: float = 1e-3
    tol: float = 1e-10
    m_max: int = 50
    dtol: float = 1e-12
    care_tol: float = 1e-12

    def validate(self):
        if self.p not in (1, 2, 3):
            raise ValueError(f"BDF order p must be in {{1,2,3}}, got {self.p}")
        for name in ("h", "tol", "dtol", "care_tol"):
            value = getattr(self, name)
            # NaN fails every comparison, so a NaN tolerance would pass every stop test
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        return self


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
