"""Exception hierarchy shared by all schwarz_lab modules."""

from __future__ import annotations


class SchwarzLabError(Exception):
    """Base class for every error raised by this package; `path`, if given, is
    the JSON pointer of the offending entry, and str() leads with it."""

    def __init__(self, message: str = "", path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


class BadParams(SchwarzLabError):
    """A constructor or operation received parameters outside its documented range."""


class DimensionMismatch(SchwarzLabError):
    """Vector or map dimensions are inconsistent."""


class ZeroVector(SchwarzLabError):
    """An operation that needs a nonzero vector received zero."""


class NotOnBoundary(SchwarzLabError):
    """Point fails the unit-sphere (or distinguished-boundary) membership test."""


class OutsideBall(SchwarzLabError):
    """Vector argument expected inside the open unit ball."""


class HypothesisFailed(SchwarzLabError):
    """A theorem hypothesis required for the computation does not hold."""


class PoleHit(SchwarzLabError):
    """A Moebius denominator vanished during evaluation."""


class InsufficientClearance(SchwarzLabError):
    """A Moebius denominator at a point or probe of a derivative is under the clearance floor."""


class NoConvergence(SchwarzLabError):
    """Extrapolation ladder failed to contract."""


class SchemaError(SchwarzLabError):
    """Suite configuration failed schema validation; `path` locates it in the suite."""
