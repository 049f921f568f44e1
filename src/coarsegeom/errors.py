"""Exception hierarchy.

Every ``CoarseGeomError`` carries a ``payload`` dict with
machine-readable witnesses (offending indices, measured values) so the
CLI can emit structured error reports.
"""

from __future__ import annotations

from typing import Any


class CoarseGeomError(Exception):
    """Base class for the library's precondition and certificate errors."""

    def __init__(self, message: str, **payload: Any):
        super().__init__(message)
        self.payload = payload

    def to_dict(self) -> dict:
        return {
            "error": type(self).__name__,
            "message": str(self),
            **self.payload,
        }


class NonPositiveScale(ValueError):
    """A tolerance, radius, scale or constant out of range (``space.check_scale``):
    a usage error with no payload, since its value may be nan."""


# --- distance table validation ---
# the errors of ``space.check_table`` are also ValueErrors, the class a
# ``FiniteMetricSpace`` documents for a table it refuses

class NonFiniteEntry(CoarseGeomError, ValueError):
    pass


class NegativeEntryError(CoarseGeomError, ValueError):
    pass


class DiagonalError(CoarseGeomError, ValueError):
    pass


class AsymmetryError(CoarseGeomError, ValueError):
    pass


class TriangleError(CoarseGeomError):
    pass


class NonFiniteCoordinate(CoarseGeomError):
    pass


class TooFewPoints(CoarseGeomError):
    pass


class UnknownPoint(CoarseGeomError):
    """A point id from outside is not one of the space's 0..n-1."""


class MalformedInput(CoarseGeomError):
    """A JSON artifact from outside is not an object holding the keys,
    with the JSON value types, that its reader needs."""


# --- nets and partitions ---

class NotANet(CoarseGeomError):
    pass


class NotSeparated(CoarseGeomError):
    pass


class IncompleteCover(CoarseGeomError):
    pass


class PartitionGap(CoarseGeomError):
    pass


class InvalidPartition(CoarseGeomError):
    """Cells given from outside overlap, miss their member, or leave its K-ball."""


# --- maps ---

class NotBijective(CoarseGeomError):
    pass


class NetCoverViolation(CoarseGeomError):
    pass


class InjectivityFailure(CoarseGeomError):
    pass


class NotDense(CoarseGeomError):
    pass


class SizeMismatch(CoarseGeomError):
    pass


class TooLarge(CoarseGeomError):
    pass


class CertificateError(CoarseGeomError):
    """A claimed (lambda, c) or closeness bound fails its exhaustive scan."""


# --- convexity ---

class NotQuasiConvexAtScale(CoarseGeomError):
    pass


class GraphDisconnected(CoarseGeomError):
    pass


# --- higson ---

class OverlappingBalls(CoarseGeomError):
    pass


class EmptyTail(CoarseGeomError):
    pass
