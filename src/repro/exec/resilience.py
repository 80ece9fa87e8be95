"""Resilient trial execution: timeouts, bounded retries, quarantine.

One hung or crashing worker must not kill a multi-hour campaign.  This
module supplies the pieces the executor layer composes:

* :class:`RetryPolicy` — per-trial timeout plus bounded retries with
  exponential backoff and deterministic jitter (derived from the trial
  seed, so replays back off identically);
* :class:`QuarantineRecord` — the durable account of a trial that
  exhausted its retries (seed, attempts, exception type, message,
  traceback).  Its :meth:`~QuarantineRecord.to_record` form persists
  through the result cache, so ``--resume`` skips poisoned seeds
  instead of re-dying on them;
* :class:`QuarantinedTrial` — the in-band result slot a quarantined
  seed occupies, keeping result lists aligned with seed lists while
  making partial failure explicit;
* :class:`TrialTimeoutError` and :class:`WorkerCrashed` — the failures
  the supervisor of :func:`repro.exec.pool.run_in_pool` reports for an
  attempt it killed at its deadline or that died without a result.

Counters (``exec.trials.retries`` / ``.timeouts`` / ``.quarantined`` /
``.quarantine_skips``) tick through the ambient :mod:`repro.obs`
registry whenever one is recording.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError, ReproError
from .seeds import derive_seed

__all__ = [
    "TrialTimeoutError",
    "WorkerCrashed",
    "RetryPolicy",
    "QuarantineRecord",
    "QuarantinedTrial",
    "is_quarantine_record",
]

#: Marker key identifying a quarantine record inside the result cache.
QUARANTINE_KEY = "quarantined"


class TrialTimeoutError(ReproError):
    """A trial exceeded its :attr:`RetryPolicy.timeout_s` budget."""


class WorkerCrashed(ReproError):
    """A pool worker died (segfault, ``os._exit``) without a result."""


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before quarantining a seed.

    ``max_retries`` extra attempts follow the first (so a trial runs at
    most ``max_retries + 1`` times); ``timeout_s`` bounds each attempt's
    wall time.  Backoff before retry ``k`` (1-based) is
    ``min(backoff_cap_s, backoff_base_s * 2**(k-1))`` scaled by
    ``1 + jitter * u`` with ``u`` drawn deterministically from the trial
    seed — retries desynchronize across seeds yet replay identically.
    """

    max_retries: int = 0
    timeout_s: Optional[float] = None
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be a non-negative int, "
                f"got {self.max_retries!r}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigurationError(
                f"timeout_s must be positive or None, got {self.timeout_s!r}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError(
                f"backoff must be non-negative, got base={self.backoff_base_s!r} "
                f"cap={self.backoff_cap_s!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter!r}"
            )

    @property
    def active(self) -> bool:
        """Whether this policy changes anything versus fail-fast."""
        return self.max_retries > 0 or self.timeout_s is not None

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_s(self, seed: int, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based) of ``seed``."""
        base = min(
            self.backoff_cap_s, self.backoff_base_s * 2.0 ** (attempt - 1)
        )
        if base <= 0:
            return 0.0
        rng = random.Random(derive_seed(seed, f"retry:{attempt}"))
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class QuarantineRecord:
    """Durable account of a seed that exhausted its retry budget."""

    seed: int
    attempts: int
    error_type: str
    message: str
    traceback: str

    def to_record(self) -> Dict:
        """Cache-record form (round-trips through the JSONL shards)."""
        return {
            QUARANTINE_KEY: True,
            "seed": self.seed,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }

    @classmethod
    def from_record(cls, record: Dict) -> "QuarantineRecord":
        return cls(
            seed=record["seed"],
            attempts=record["attempts"],
            error_type=record["error_type"],
            message=record["message"],
            traceback=record.get("traceback", ""),
        )

    def describe(self) -> str:
        return (
            f"seed {self.seed}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


def is_quarantine_record(record: object) -> bool:
    """Whether a cache record marks a quarantined seed (vs an outcome).

    Outcome records need not be dicts (callers may cache any JSON
    value), so anything non-dict is by definition not a quarantine.
    """
    return isinstance(record, dict) and bool(record.get(QUARANTINE_KEY))


@dataclass(frozen=True)
class QuarantinedTrial:
    """Result-slot placeholder for a quarantined seed.

    ``from_cache`` distinguishes a quarantine decided this battery from
    one replayed out of the cache by ``--resume``.
    """

    record: QuarantineRecord
    from_cache: bool = False
