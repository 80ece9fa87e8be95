"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine programming errors (``TypeError`` and friends pass
through untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed graph construction or invalid node lookups."""


class SimulationError(ReproError):
    """Raised when a simulation detects misuse.

    Examples: a protocol yields an unknown action, a node acts after
    terminating, or a run exceeds its configured round limit.
    """


class ProtocolError(SimulationError):
    """Raised when a protocol violates the node execution contract."""


class SynchronizationError(SimulationError):
    """Raised when phase barriers in a multi-segment protocol drift.

    Algorithm 2 of the paper relies on every node agreeing on the round
    at which each segment (competition, deep checks, LowDegreeMIS,
    shallow check) starts.  The engine checks these barriers in debug
    mode and raises this error on drift, which would otherwise corrupt
    results silently.
    """


class ConfigurationError(ReproError):
    """Raised for invalid constants profiles or experiment parameters."""


class ValidationError(ReproError):
    """Raised when an output set fails MIS validation in strict mode."""
