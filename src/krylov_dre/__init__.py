"""Low-rank solvers for large-scale differential Riccati equations.

The primary method projects the equation onto extended block Krylov subspaces
and integrates the small projected equation with BDF(p); a coupling-row
residual test controls the subspace dimension.  A full-size BDF/Newton
baseline, desk-scale oracles, LQR post-processing and benchmark generators
round out the package.
"""

__version__ = "0.1.0"

from .problem import DREProblem, SolverConfig, factorize  # noqa: F401
from .solver import solve  # noqa: F401
from .baseline import solve_baseline  # noqa: F401
