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
* :func:`run_resilient_sequential` — the in-process retry loop
  (timeouts via ``SIGALRM``, so they only interrupt pure-Python trials
  on the main thread; the process pool's kill-based timeouts in
  :func:`repro.exec.pool.run_resilient_in_pool` have no such limits).

Counters (``exec.trials.retries`` / ``.timeouts`` / ``.quarantined`` /
``.quarantine_skips``) tick through the ambient :mod:`repro.obs`
registry whenever one is recording.
"""

from __future__ import annotations

import random
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, ReproError
from ..obs.registry import get_registry
from .seeds import derive_seed

__all__ = [
    "TrialTimeoutError",
    "RetryPolicy",
    "QuarantineRecord",
    "QuarantinedTrial",
    "is_quarantine_record",
    "time_limit",
    "run_resilient_sequential",
]

#: (exception type name, message, formatted traceback) — the portable
#: form a failure travels in (tracebacks don't pickle; strings do).
TrialError = Tuple[str, str, str]

#: Marker key identifying a quarantine record inside the result cache.
QUARANTINE_KEY = "quarantined"


class TrialTimeoutError(ReproError):
    """A trial exceeded its :attr:`RetryPolicy.timeout_s` budget."""


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


@contextmanager
def time_limit(seconds: Optional[float]):
    """Raise :class:`TrialTimeoutError` if the body outlives ``seconds``.

    Implemented with ``SIGALRM``, so it is a no-op off the main thread
    or on platforms without the signal (the pool path uses process
    kills instead and needs no cooperation from the trial).

    A body that returns past the deadline raises too: the alarm's
    exception can be swallowed on the way out (Python only reports an
    exception raised inside a gc callback or ``__del__``), and a body
    may catch it itself.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    message = f"trial exceeded timeout of {seconds:g}s"

    def on_alarm(signum, frame):
        raise TrialTimeoutError(message)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    deadline = time.monotonic() + seconds
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if time.monotonic() >= deadline:
        raise TrialTimeoutError(message)


def describe_error(exc: BaseException) -> TrialError:
    return (type(exc).__name__, str(exc), traceback.format_exc())


def run_resilient_sequential(
    run_one: Callable[[int], object],
    pending: List[Tuple[int, int]],
    policy: RetryPolicy,
    on_result: Callable[[int, object], None],
    on_failure: Callable[[int, int, int, TrialError], None],
) -> None:
    """Retry loop over ``(index, seed)`` pairs, in order.

    Successful attempts report through ``on_result(index, outcome)``;
    seeds that exhaust the policy report through
    ``on_failure(index, seed, attempts, error)`` and execution moves on
    — a poisoned seed never aborts the battery.  ``KeyboardInterrupt``
    and ``SystemExit`` still propagate: quarantine is for trial
    failures, not for the operator.
    """
    registry = get_registry()
    for index, seed in pending:
        attempt = 1
        while True:
            try:
                with time_limit(policy.timeout_s):
                    outcome = run_one(seed)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # quarantine anything else
                if registry.enabled and isinstance(exc, TrialTimeoutError):
                    registry.counter("exec.trials.timeouts").inc()
                if attempt >= policy.max_attempts:
                    on_failure(index, seed, attempt, describe_error(exc))
                    break
                if registry.enabled:
                    registry.counter("exec.trials.retries").inc()
                delay = policy.backoff_s(seed, attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
            else:
                on_result(index, outcome)
                break
