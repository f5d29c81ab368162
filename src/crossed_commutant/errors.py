"""Exception types shared across the engine."""
from __future__ import annotations


class EngineError(Exception):
    """Base class for every domain error raised by this package."""


class NonIncreasingPoints(EngineError):
    """Jump points must be strictly increasing."""


class PointOutsideInterval(EngineError):
    """An added point does not lie strictly inside its target interval."""


class DuplicatePoint(EngineError):
    """The same point value was added more than once."""


class ZeroCellCount(EngineError):
    """Abstract refinements need at least one cell per piece."""


class UnknownPiece(EngineError):
    """A refinement names a piece the base partition does not have."""


class PartitionMismatch(EngineError):
    """Operands live on different partitions or have the wrong length."""


class MapDoesNotDescend(EngineError):
    """The fine permutation induces no well defined coarse permutation."""


class LiftInconsistent(EngineError):
    """A refined orbit length is not a multiple of its parent orbit length."""


class UnequalChildCounts(EngineError):
    """Pieces expected to carry identical child structure do not."""


class InfeasibleProfile(EngineError):
    """The requested multiplier profile fails the admissibility conditions."""


class ScaleExceeded(EngineError):
    """The requested enumeration is beyond desk scale."""


class InstanceFormatError(EngineError):
    """An instance document is malformed; ``problems`` lists the findings."""

    def __init__(self, problems: list[str] | tuple[str, ...]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
