"""Array-native batched engine backend.

Runs whole same-cell trial batteries as struct-of-arrays numpy state:

* :mod:`~repro.radio.batch.table` — the declarative per-phase
  transition-table protocol ABI plus a scalar interpreter that is
  bit-identical to the hand-written coroutines;
* :mod:`~repro.radio.batch.tables` — builders for the batchable
  protocols (Algorithm 1 CD/beeping, Algorithm 4 backoffs, and the
  blind/backoff baselines);
* :mod:`~repro.radio.batch.registry` — exact-class builder registry;
* :mod:`~repro.radio.batch.rng` — vectorized counter-based RNG;
* :mod:`~repro.radio.batch.engine` — the vectorized round loop.

Protocols without a registered table fall back to the scalar engine;
``repro.analysis.runner.run_trials`` arbitrates via its ``engine``
parameter (``"auto"``/``"scalar"``/``"batch"``).
"""

from .registry import compile_table_for, register_table
from .table import (
    Edge,
    TableProgram,
    TableProtocolAdapter,
    TableState,
    as_table_protocol,
    run_table,
)

__all__ = [
    "Edge",
    "TableState",
    "TableProgram",
    "TableProtocolAdapter",
    "run_table",
    "as_table_protocol",
    "register_table",
    "compile_table_for",
]
