"""Exception types shared across the package.

Every failure mode that a caller is expected to catch has its own class so
that the CLI can map them onto exit codes without string matching.
"""


class QsumError(Exception):
    """Base class for all library errors.  Where a sample point or a limit
    produced the failure, ``witness`` holds it."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ValidationError(QsumError):
    """A problem description violates a structural or analytic condition."""


class ConvergenceError(QsumError):
    """An iterative evaluation failed to converge within its term cap."""


class OverflowFailure(QsumError):
    """A quantity left the representable floating-point range.

    Raised instead of silently returning ``inf`` so downstream code never
    propagates non-finite values.  Where a sample point produced the value,
    ``witness`` holds it.
    """


class EnvelopeViolation(QsumError):
    """Sector touches the zero region of the q-exponential, or the fitted
    growth envelope fails at a sampled point."""


class GridMismatch(QsumError):
    """Two grid-sampled functions do not share the same grid."""


class StripViolation(QsumError):
    """Evaluation point lies outside the certified horizontal strip."""


class BadDirection(QsumError):
    """No admissible sector exists around the requested direction."""


class SmallDelta(QsumError):
    """Measured separation between the symbol ratio and the q-exponential
    image is below tolerance; the denominator may vanish.  ``witness`` holds
    the ``(tau, m)`` of the nearest pair."""


class BoundViolation(QsumError):
    """A certified lower bound failed at a sample point."""


class DivergentInversion(QsumError):
    """Reciprocal series of the denominator symbol cannot be formed."""


class NoContraction(QsumError):
    """Successive fixed-point corrections grow; outside the small-data regime."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class OrderOverflow(QsumError):
    """An operation would need series orders beyond the requested truncation."""


class QuadratureStall(QsumError):
    """Node doubling failed to stabilise a quadrature value."""


class DomainTooLarge(QsumError):
    """Requested evaluation point lies beyond the certified radius.

    Where the limit hit is a depth measure, ``witness`` is a dict naming
    the point and the measure that exceeded it.
    """


class DomainViolation(QsumError):
    """A shifted contour point escapes the analyticity disc."""


class ZeroDivision(QsumError):
    """A quadrature node landed on (or too close to) a q-exponential zero.

    A valid sector configuration keeps the image curve away from the zero
    set, so hitting this means the configuration is corrupted rather than
    the quadrature being unlucky.
    """
