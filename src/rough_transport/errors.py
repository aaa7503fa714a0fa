"""Exception types raised by the package.

Every domain error derives from ``RoughTransportError`` so callers can catch
the whole family.
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
    """Trajectory ``seed_index`` left the escape radius (``what``) at time ``t``."""

    def __init__(self, seed_index, what, t):
        super().__init__(f"trajectory {seed_index} {what} at t={t:.6g}")
        self.seed_index, self.what, self.t = seed_index, what, t

    def renamed(self, seed_index, t=None):
        """The same failure of seed ``seed_index``, at time ``t`` if given."""
        return StepBlowupError(seed_index, self.what, self.t if t is None else t)


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

class InadmissibleRenormalizerError(RoughTransportError):
    """A built renormalizer fails an admissibility condition on the sweep."""


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

class ParseError(RoughTransportError):
    """Malformed or unknown-key configuration input."""

    def __init__(self, message, line=None, column=None, suggestion=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.suggestion = suggestion


class ValidationError(RoughTransportError):
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
