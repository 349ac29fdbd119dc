"""Exception hierarchy shared across the package."""


class JspecError(Exception):
    """Base class for all package-specific failures."""


class SequenceError(JspecError, ValueError):
    """Invalid weight-sequence specification (non-positive terms, bad parameters)."""


class CancellationFailure(JspecError, ArithmeticError):
    """A compensated series evaluation cannot certify the requested tolerance.

    Raised when the cancellation index times the effective arithmetic epsilon
    (plus truncation bounds) exceeds what the caller asked for.  The caller
    should fall back to a truncated-matrix route.
    """


class ConvergenceFailure(JspecError, RuntimeError):
    """An adaptive truncation did not meet its stop rule within its budget.

    For ``point_spectrum``: no section size certified an eigenvalue bracket
    within the tolerance, or a double-double Sturm count found a section
    eigenvalue further from its true value than a tolerance finer than the
    modelled rounding margin allows; for the series and sums: no truncation
    brought the certified remainder below it.
    """


class MassNegative(JspecError, ArithmeticError):
    """A computed spectral mass came out non-positive.

    This signals a wrong root or a broken evaluation and is a hard failure,
    never something to paper over.
    """


class TailDominates(JspecError, ArithmeticError):
    """The estimated omitted tail of a spectral sum exceeds the tolerance.

    More eigenvalues are needed before the requested check is meaningful.
    """


class ParameterOutOfRange(JspecError, ValueError):
    """Identity-check parameters violate the hypotheses of the identity."""


class TruncationTooCoarse(JspecError, ArithmeticError):
    """The certified truncation bound of a nested sum exceeds the tolerance."""


class DivergentArgument(JspecError, ValueError):
    """A basic hypergeometric series was called outside its convergence region."""
