"""Trial units: the service's dedupable currency.

A *trial unit* is one fully-specified trial — algorithm, constants
profile, collision model, topology family, size, master seed, round
budget, fault spec.  Every job a client submits decomposes into units,
and a unit's identity is the same content-addressed
:func:`repro.exec.cache.trial_key` hash the CLI's ``--cache`` path
computes, which is what makes global dedup work: two jobs that overlap
on a cell share cached results and in-flight computation, and results
are bit-identical to the scalar engine's run of the same cell (under
``--engine auto`` a CLI battery of 32 or more trials, or any battery at
n >= 4096, runs the batch engine, whose trials cache under their own
keys).

Execution goes through :func:`repro.analysis.runner.run_trials` with a
single seed on the scalar engine, so a unit's outcome record is
byte-for-byte the record the CLI path caches for that seed when it runs
the scalar engine (same decoupled seed derivation, same validation,
same encoding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..catalog import DEFAULT_MODEL, PROFILES, PROTOCOLS
from ..errors import ConfigurationError
from ..exec.cache import trial_key

__all__ = ["TrialUnitSpec", "normalize_unit", "execute_unit"]


@dataclass(frozen=True)
class TrialUnitSpec:
    """One trial's full identity, JSON-serializable."""

    algorithm: str
    profile: str
    model: str
    topology: str
    n: int
    seed: int
    max_rounds: Optional[int] = None
    faults: Optional[str] = None

    @property
    def graph_spec(self) -> str:
        """The cache's stable topology identity (matches the CLI path)."""
        return f"workload:{self.topology}/n={self.n}"

    def to_record(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "profile": self.profile,
            "model": self.model,
            "topology": self.topology,
            "n": self.n,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "faults": self.faults,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TrialUnitSpec":
        return cls(
            algorithm=record["algorithm"],
            profile=record["profile"],
            model=record["model"],
            topology=record["topology"],
            n=int(record["n"]),
            seed=int(record["seed"]),
            max_rounds=record.get("max_rounds"),
            faults=record.get("faults"),
        )


# Protocol objects and parsed fault plans are pure functions of their
# spec strings; memoizing them keeps key derivation for thousands of
# units per submission cheap.
_PROTOCOL_CACHE: Dict[Tuple[str, str], Any] = {}
_FAULTS_CACHE: Dict[str, Any] = {}


def _protocol_for(algorithm: str, profile: str):
    key = (algorithm, profile)
    protocol = _PROTOCOL_CACHE.get(key)
    if protocol is None:
        protocol = PROTOCOLS[algorithm](PROFILES[profile]())
        _PROTOCOL_CACHE[key] = protocol
    return protocol


def _faults_for(spec: Optional[str]):
    """Parse a fault spec string; noop plans normalize to ``None``."""
    if not spec:
        return None
    plan = _FAULTS_CACHE.get(spec)
    if plan is None:
        from ..faults import parse_fault_spec

        plan = parse_fault_spec(spec)
        _FAULTS_CACHE[spec] = plan
    return None if plan.is_noop else plan


def normalize_unit(record: Dict[str, Any]) -> TrialUnitSpec:
    """Validate and canonicalize one unit-shaped spec fragment.

    Raises :class:`~repro.errors.ConfigurationError` with an actionable
    message on unknown algorithms/models/profiles/topologies, so the
    HTTP layer can answer 400 instead of surfacing a worker crash.
    """
    from ..analysis.workloads import workload_names
    from ..radio.models import model_by_name

    algorithm = record.get("algorithm")
    if algorithm not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(PROTOCOLS)}"
        )
    profile = record.get("profile", "practical")
    if profile not in PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
        )
    model = record.get("model") or DEFAULT_MODEL[algorithm]
    try:
        model_by_name(model)
    except Exception:
        raise ConfigurationError(f"unknown collision model {model!r}") from None
    topology = record.get("topology", "gnp")
    if topology not in workload_names():
        raise ConfigurationError(
            f"unknown topology {topology!r}; choose from {workload_names()}"
        )
    n = record.get("n", 128)
    if not isinstance(n, int) or n < 1:
        raise ConfigurationError(f"n must be a positive integer, got {n!r}")
    seed = record.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    max_rounds = record.get("max_rounds")
    if max_rounds is not None and (
        not isinstance(max_rounds, int) or max_rounds < 1
    ):
        raise ConfigurationError(
            f"max_rounds must be a positive integer or null, got {max_rounds!r}"
        )
    faults = record.get("faults") or None
    _faults_for(faults)  # validate the grammar up front
    return TrialUnitSpec(
        algorithm=algorithm,
        profile=profile,
        model=model,
        topology=topology,
        n=n,
        seed=seed,
        max_rounds=max_rounds,
        faults=faults,
    )


def unit_key(unit: TrialUnitSpec) -> str:
    """The unit's content-addressed identity.

    Identical — ingredient for ingredient — to the key
    :func:`repro.analysis.runner.run_trials` derives for the same cell
    on the scalar engine (batched trials carry an engine tag), so the
    service's dedup index and the CLI's ``--cache`` path share one
    keyspace.
    """
    return trial_key(
        protocol=_protocol_for(unit.algorithm, unit.profile),
        model_name=unit.model,
        graph_spec=unit.graph_spec,
        seed=unit.seed,
        max_rounds=unit.max_rounds,
        faults=_faults_for(unit.faults),
    )


def execute_unit(unit: TrialUnitSpec) -> Dict[str, Any]:
    """Run one trial unit and return its cache-record form.

    The unit runs on the scalar engine, the engine its key names, with
    its own faults and no cache; every other setting is the installed
    :class:`~repro.exec.executor.ExecutionDefaults`.  Returns the
    outcome record (:func:`_outcome_to_record` encoding) or, when an
    active retry policy exhausts its budget, the quarantine record —
    exactly what the executor layer would have persisted.

    An active policy runs the unit in the supervised pool (kill-based
    timeouts, seed-deterministic backoff), giving the service per-tenant
    isolation: one tenant's hanging protocol config cannot wedge a shard
    worker.  Without one the unit runs in-process.
    """
    from ..analysis.runner import _outcome_to_record, run_trials
    from ..analysis.workloads import build_workload
    from ..radio.models import model_by_name

    protocol = _protocol_for(unit.algorithm, unit.profile)
    model = model_by_name(unit.model)
    plan = _faults_for(unit.faults)
    summary = run_trials(
        lambda g_seed: build_workload(unit.topology, unit.n, g_seed),
        protocol,
        model,
        [unit.seed],
        max_rounds=unit.max_rounds,
        cache=False,
        graph_spec=unit.graph_spec,
        faults=plan if plan is not None else False,
        engine="scalar",
    )
    if summary.quarantined:
        return summary.quarantined[0].record.to_record()
    return _outcome_to_record(summary.outcomes[0])
