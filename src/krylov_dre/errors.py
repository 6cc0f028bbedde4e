"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for all solver failures."""


class DimensionMismatch(SolverError):
    """Operands have inconsistent shapes."""


class SingularA(SolverError):
    """The coefficient operator cannot be factorized (singular or near-singular)."""


class SingularMassStiffness(SolverError):
    """The (M - dt*K) pencil of the heat benchmark cannot be factorized."""


class RankDeficientSeed(SolverError):
    """The QR factor of the seed block [C^T, A^{-T}C^T] is numerically rank deficient."""


class Breakdown(SolverError):
    """The new Krylov block is rank deficient: the subspace is invariant.

    Benign for the outer solvers; the current basis should be accepted.
    """


class SpectrumIncompatible(SolverError):
    """A Lyapunov coefficient matrix has an eigenvalue pair with lambda_i + lambda_j ~ 0."""


class NoStabilizingGuess(SolverError):
    """No stabilizing start is available for the stabilizing CARE Newton (solve_care)."""


class MaxIterations(SolverError):
    """An iterative kernel hit its iteration cap before reaching its tolerance.

    iterations and factorizations count the work done before it stopped, for
    callers that retake the solve another way.
    """

    def __init__(self, message, iterations=0, factorizations=0):
        super().__init__(message)
        self.iterations = iterations
        self.factorizations = factorizations


class NotConverged(SolverError):
    """An outer iteration stopped without passing the residual stop test.

    It hit m_max, or (breakdown=True) its Krylov basis could not be expanded
    past order m_max.
    """

    def __init__(self, m_max, last_residual, breakdown=False):
        stop = (f"Krylov basis breakdown at m={m_max}" if breakdown
                else f"no convergence after m_max={m_max} iterations")
        super().__init__(f"{stop} (last residual {last_residual:.3e})")
        self.m_max = m_max
        self.last_residual = last_residual
        self.breakdown = breakdown


class StepFailure(SolverError):
    """A time step failed; carries the step index."""

    def __init__(self, step, message=""):
        super().__init__(f"step {step} failed{': ' if message else ''}{message}")
        self.step = step


class IndefiniteY(SolverError):
    """A matrix expected to be PSD has significantly negative eigenvalues."""


class UnsupportedOrder(SolverError):
    """BDF order outside {1, 2, 3}."""


class UnstableClosedLoop(SolverError):
    """A closed-loop operator required to be stable is not."""


class NotStabilizable(SolverError):
    """The pair (A, B) does not admit a stabilizing solution (as detected numerically)."""


class SingularBracket(SolverError):
    """The bracketed matrix of the closed-form trajectory formula is singular."""


class ParseError(SolverError):
    """A matrix or config file could not be parsed."""
