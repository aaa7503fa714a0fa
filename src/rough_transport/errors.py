"""Exception types raised by the package.

Every domain error derives from ``RoughTransportError`` so callers can catch
the whole family; configuration problems have their own small hierarchy.
"""


class RoughTransportError(Exception):
    """Base class for all package errors."""


# --- field library -----------------------------------------------------------

class BadKernelError(RoughTransportError):
    """A mollifier kernel does not integrate to one under its own quadrature."""


class SplitViolationError(RoughTransportError):
    """The declared growth split fails |b|/(1+|x|) <= b1 + b2 at a sample."""

    def __init__(self, message, t=None, x=None, lhs=None, rhs=None):
        super().__init__(message)
        self.t = t
        self.x = x
        self.lhs = lhs
        self.rhs = rhs


class NonFiniteDampingError(RoughTransportError):
    """The damping c is NaN or infinite at a node outside the eta cut-off."""


# --- flow --------------------------------------------------------------------

class StepBlowupError(RoughTransportError):
    """A trajectory left the escape radius during integration."""

    def __init__(self, message, seed_index=None):
        super().__init__(message)
        self.seed_index = seed_index


class DivergenceUnboundedError(RoughTransportError):
    """The divergence path integral is inconsistent with the field metadata."""


class DomainTooSmallError(RoughTransportError):
    """Too much test-function mass lies outside the quadrature domain."""


# --- solution representation -------------------------------------------------

class AllTruncatedError(RoughTransportError):
    """Every node of a trajectory fell inside the singular truncation radius."""


class JacobianVanishedError(RoughTransportError):
    """A Jacobian sample is nonpositive; inputs are inconsistent."""


# --- weak form ---------------------------------------------------------------

class SupportOverflowError(RoughTransportError):
    """A compactly supported test function exceeds the quadrature box."""


class UnboundedDampingError(RoughTransportError):
    """A bounded-damping diagnostic received a singular damping field."""


# --- BMO toolkit -------------------------------------------------------------

class EmptyBallError(RoughTransportError):
    """A ball in the family contains no grid cell."""


class NonFiniteProfileError(RoughTransportError):
    """A BMO profile sample is NaN or infinite."""


class DegenerateFitError(RoughTransportError):
    """Fewer than three nonempty superlevels; no decay fit possible."""


class NegativeInputError(RoughTransportError):
    """A nonnegative-input routine received negative samples."""


class LambdaTooSmallError(RoughTransportError):
    """A superlevel parameter lambda was not above 2^(d+2)."""


class BadSplitError(RoughTransportError):
    """The oscillating divergence part is not compactly supported as declared."""


# --- configuration / pipeline ------------------------------------------------

class ConfigError(RoughTransportError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Malformed or unknown-key configuration input."""

    def __init__(self, message, line=None, column=None, suggestion=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.suggestion = suggestion


class ValidationError(ConfigError):
    """A structurally valid configuration violates invariants."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class PipelineError(RoughTransportError):
    """A module error annotated with the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
