"""Exception hierarchy shared by all tflkit modules."""


class TflError(Exception):
    """Base class for every error raised by tflkit."""


class ExprSyntaxError(TflError):
    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} (at position {position})")
        self.position = position
        self.expected = tuple(expected)


class UnknownVariable(TflError):
    def __init__(self, name, position=None):
        where = "" if position is None else f" (at position {position})"
        super().__init__(f"unknown variable '{name}'{where}")
        self.name = name
        self.position = position


class DomainError(TflError):
    """Evaluation outside the expression's domain (ln of a non-positive
    argument, division by zero)."""


class DegreeOverflow(TflError):
    """Wedge product would exceed the dimension of the ambient manifold."""


class RegularityViolation(TflError):
    """A rank assumption failed: symbolic generic rank disagrees with the
    numeric rank at the base point or at perturbed sample points."""


class InconclusiveZeroTest(TflError):
    """A pivot/rank decision depended on a zero test that could not be
    decided either way."""


class InvarianceViolation(TflError):
    """The supplied feedback does not render the target manifold invariant."""


class RankDeficientN(TflError):
    """The Jacobian of the target manifold's defining functions drops rank
    at the base point."""


class PointNotOnL(TflError):
    """A point handed to an on-manifold operation does not satisfy the
    lifted manifold's defining functions."""


class NotOnN(TflError, ValueError):
    """The base point, or the supplied parametrization, does not satisfy
    the defining functions of the target manifold.  Also a ValueError,
    since it rejects an invalid argument."""


class NotStateOnly(TflError, ValueError):
    """f, g, u* or a defining function of N involves an input or the time
    variable.  Also a ValueError, since it rejects an invalid argument."""


class SamplingFailed(TflError):
    """Sampling could not produce the requested number of points on N."""


class IntegrationFailed(TflError):
    """The integrator could not span its closure; `residual` lists the
    generators it left."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual or []


class HintRejected(TflError):
    """A user-supplied first-integral hint has a differential outside the
    target ideal."""


class AdaptationFailed(TflError):
    """A map could not be adapted to L or made subordinate to the output."""


class IndependenceViolation(TflError):
    """Differentials expected to be linearly independent are not."""


class CertificateMismatch(TflError):
    """A produced output failed its own re-verification; internal error."""


class CompletionFailed(TflError):
    """No coordinate completion extends the partial chart to full rank."""


class ProblemFormatError(TflError):
    def __init__(self, message, line=None):
        where = "" if line is None else f" (line {line})"
        super().__init__(f"{message}{where}")
        self.line = line


class DimensionMismatch(TflError):
    """Problem-file sections disagree about n or m."""
