"""Content-addressed trial-result cache.

Every trial a battery runs is fully determined by its identity: the
protocol (class + configuration, including the constants profile), the
collision model, the graph specification, the master seed, the round
budget, and the seed-derivation mode.  :func:`trial_key` hashes that
identity into a stable SHA-256 key; :class:`ResultCache` maps keys to
JSON records persisted as JSONL shards under ``.repro-cache/``.

Because keys are content-addressed, the cache needs no invalidation
logic: change any ingredient (say, bump a constants multiplier) and the
key changes, so stale entries are simply never looked up again.  An
interrupted campaign resumes for free — every completed trial was
persisted the moment it finished — and re-running a partially-changed
grid recomputes only the changed cells.

The cache stores plain dicts (the caller serializes its outcome type),
keeping this module free of dependencies on the analysis layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

try:  # POSIX-only; the cache degrades to lock-free appends without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ResultCache",
    "graph_fingerprint",
    "protocol_fingerprint",
    "trial_key",
]

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = Path(".repro-cache")


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """Reduce a value to a JSON-stable representation for hashing."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    return repr(value)


def protocol_fingerprint(protocol: Any) -> Dict[str, Any]:
    """Canonical identity of a protocol object: class + configuration.

    Captures every public instance attribute (the constants profile
    expands to its field values), so two protocol objects fingerprint
    equal iff they would behave identically.
    """
    try:
        config = {
            name: _canonical(attr)
            for name, attr in sorted(vars(protocol).items())
            if not name.startswith("_")
        }
    except TypeError:  # __slots__ or exotic objects: fall back to repr
        config = {"repr": repr(protocol)}
    return {
        "type": type(protocol).__name__,
        "name": getattr(protocol, "name", type(protocol).__name__),
        "config": config,
    }


def graph_fingerprint(graph: Any) -> str:
    """Stable spec string for a concrete graph: name, size, edge hash."""
    hasher = hashlib.sha256()
    hasher.update(f"{graph.name}|{graph.num_nodes}|".encode("utf-8"))
    edges = (
        graph.iter_edges()
        if hasattr(graph, "iter_edges")
        else sorted(graph.edges)
    )
    for u, v in edges:
        hasher.update(f"{u},{v};".encode("ascii"))
    return f"graph:{graph.name}:{graph.num_nodes}:{hasher.hexdigest()[:16]}"


def trial_key(
    *,
    protocol: Any,
    model_name: str,
    graph_spec: str,
    seed: int,
    max_rounds: Optional[int] = None,
    faults: Any = None,
    engine: str = "scalar",
    sparsify: Optional[int] = None,
) -> str:
    """Content-addressed key of one trial's full identity.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, when given) joins
    the identity only when present, so fault-free trials keep their
    historical keys and existing caches stay valid.  ``engine`` joins
    the same way: scalar trials keep their historical keys, while the
    batched backend — whose counter-based RNG makes its results
    distributionally equivalent but not bit-identical to scalar runs —
    can never collide with a scalar entry for the same seed.
    ``sparsify`` (the batch engine's fan-out cap) also joins only when
    set: sparsified counts are an approximation, so those results must
    never alias the exact ones.
    """
    payload = {
        "protocol": protocol_fingerprint(protocol),
        "model": model_name,
        "graph": graph_spec,
        "seed": seed,
        "max_rounds": max_rounds,
        # A constant, kept in the payload so existing keys stay valid.
        "seed_mode": "decoupled",
    }
    if faults is not None:
        fault_payload = _canonical(faults)
        # A churn-free plan drops the key entirely so every fault-plan
        # key minted before the churn field existed stays valid.
        if isinstance(fault_payload, dict) and fault_payload.get("churn") is None:
            fault_payload.pop("churn", None)
        payload["faults"] = fault_payload
    if engine != "scalar":
        payload["engine"] = engine
    if sparsify is not None:
        # The window tag retires keys minted when a window could be cut
        # from a residual row, whose values depended on batch makeup.
        payload["sparsify"] = {"cap": int(sparsify), "window": "full-row"}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Persistent store
# ----------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss/write counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_record(self) -> Dict[str, float]:
        """JSON-serializable form, embedded in telemetry summaries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": round(self.hit_rate, 6),
        }


class ResultCache:
    """JSONL-backed key → record store, sharded by key prefix.

    Records append to ``<root>/<key[:2]>.jsonl`` as they are produced
    (one line per trial, flushed immediately), so an interrupted run
    loses at most the trial in flight.  Shards load lazily on first
    lookup; malformed lines — e.g. a half-written tail from a crash —
    are skipped rather than fatal.

    Writes are safe under concurrency from both threads and processes:
    each record lands as a single ``O_APPEND`` ``os.write`` of one full
    line, serialized by an exclusive ``flock`` on the shard file (where
    available), so concurrent writers — e.g. the campaign service's
    sharded workers — can target the same shard without interleaving or
    dropping records.  In-memory state is guarded by a thread lock.
    Different processes still keep independent in-memory indexes: a
    record written by another process after this process loaded the
    shard is not visible until a fresh instance reloads it.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.stats = CacheStats()
        self._shards: Dict[str, Dict[str, Dict]] = {}
        self._lock = threading.RLock()

    def _shard_path(self, prefix: str) -> Path:
        return self.root / f"{prefix}.jsonl"

    def _shard(self, prefix: str) -> Dict[str, Dict]:
        shard = self._shards.get(prefix)
        if shard is None:
            shard = {}
            path = self._shard_path(prefix)
            if path.exists():
                for line in path.read_text().splitlines():
                    try:
                        entry = json.loads(line)
                        shard[entry["key"]] = entry["record"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        continue  # torn write; the trial just re-runs
            self._shards[prefix] = shard
        return shard

    def _append_line(self, path: Path, data: bytes) -> None:
        """Atomically append one full line to a shard file.

        A single ``os.write`` to an ``O_APPEND`` descriptor under an
        exclusive ``flock`` — the unit other processes observe is the
        whole line, never a torn prefix.
        """
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                os.write(fd, data)
            finally:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def get(self, key: str) -> Optional[Dict]:
        """Look up a trial record; counts a hit or a miss."""
        with self._lock:
            record = self._shard(key[:2]).get(key)
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return record

    def put(self, key: str, record: Dict) -> None:
        """Persist one trial record (atomic append) and index it."""
        line = json.dumps({"key": key, "record": record}, sort_keys=True)
        with self._lock:
            self._shard(key[:2])[key] = record
            self.root.mkdir(parents=True, exist_ok=True)
            self._append_line(
                self._shard_path(key[:2]), (line + "\n").encode("utf-8")
            )
            self.stats.writes += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._shard(key[:2])

    def __len__(self) -> int:
        """Number of distinct cached trials on disk (loads all shards)."""
        with self._lock:
            total = 0
            seen = set()
            if self.root.exists():
                for path in self.root.glob("*.jsonl"):
                    seen.add(path.stem)
            seen.update(self._shards)
            for prefix in seen:
                total += len(self._shard(prefix))
            return total

    def __bool__(self) -> bool:
        # An *empty* cache is still a cache: never let ``__len__`` make
        # a fresh instance falsy in ``cache or ...`` expressions.
        return True

    def clear(self) -> None:
        """Drop every cached record, in memory and on disk."""
        with self._lock:
            self._shards.clear()
            if self.root.exists():
                for path in self.root.glob("*.jsonl"):
                    path.unlink()

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, stats={self.stats})"
