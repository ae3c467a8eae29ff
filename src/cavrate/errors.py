"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the routine."""


class SingularDenominator(ArithmeticError):
    """A closed-form denominator collapsed to (numerical) zero.

    For passive media the interface determinants stay well away from
    zero, so this signals bad input rather than a physical resonance.
    """


class IllConditioned(ArithmeticError):
    """The general-N layer recursion produced an untrustworthy result."""


class QuadratureFailure(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""


class ConfigError(ValueError):
    """Invalid sweep configuration; message identifies the offending field."""


class ExpansionRangeWarning(UserWarning):
    """Small-cavity expansion evaluated outside its comfort zone."""
