"""Exception hierarchy shared across the package."""


class AnisompError(Exception):
    """Base class for all package-specific failures."""


class NonConvergence(AnisompError):
    """Fixed-point / Newton solver exhausted its iteration budget."""


class BranchViolation(AnisompError):
    """Solver converged to a solution in the wrong half-plane."""


class DegenerateDenominator(AnisompError):
    """Implicit-function denominator vanished (spectral edge)."""


class EdgeDegeneracy(AnisompError):
    """Two support edges coincide within the regularity margin."""


class QuadratureFailure(AnisompError):
    """Quadrature or principal-value extrapolation did not converge."""


class PositivityViolation(AnisompError):
    """A provably nonnegative variance evaluated materially negative."""


class OutsideDomain(AnisompError):
    """Spectral parameter placed outside the admissible domain."""


class NearSingular(AnisompError):
    """Real spectral parameter too close to a sample eigenvalue."""


class EigenFailure(AnisompError):
    """Symmetric eigensolver failed to converge."""


class ResolventDegenerate(AnisompError):
    """Resolvent bilinear form vanished; inversion impossible."""


class DegenerateData(AnisompError):
    """Input data matrix carries no usable signal (zero scale or rank)."""


class DegenerateVariance(AnisompError):
    """Sample variance too small for a distributional test."""


class BudgetExceeded(AnisompError):
    """Requested experiment exceeds the size budget ``experiments.DEFAULT_BUDGET``."""
