"""Exception types shared across the package."""


class SusypivError(Exception):
    """Base class for all library errors."""


class PoleParameter(SusypivError):
    """Hypergeometric series parameter sits on a pole (nonpositive integer b)."""


class PoleArgument(SusypivError):
    """Gamma evaluated at a nonpositive integer."""


class NoConvergence(SusypivError):
    """A series did not converge, a value or its input left the double range,
    or the seed chain would need more centres than it allows."""


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


class LevelAnnihilated(SusypivError):
    """The transformed state of an oscillator level vanishes identically."""
