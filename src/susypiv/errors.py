"""Exception types shared across the package."""


class SusypivError(Exception):
    """Base class for all library errors."""


class PoleParameter(SusypivError):
    """Hypergeometric series parameter sits on a pole (nonpositive integer b)."""


class PoleArgument(SusypivError):
    """Gamma evaluated at a nonpositive integer."""


class NoConvergence(SusypivError):
    """Series failed to meet the term tolerance within its term budget, or overflowed."""


class DegreeTooLarge(SusypivError):
    """Oscillator quantum number beyond the stable recurrence range."""


class SingularPoint(SusypivError):
    """Evaluation point too close to a zero of a construction denominator."""


class NotNormalizable(SusypivError):
    """Quadrature norm undefined: tails not decayed or integral out of range."""


class BadFamily(SusypivError):
    """Solution family index outside {1, 2, 3}."""


class EvaluationFailed(SusypivError):
    """A finite-difference stencil point could not be evaluated."""


class AllPointsExcluded(SusypivError):
    """Every grid point fell inside a singular-exclusion region."""
