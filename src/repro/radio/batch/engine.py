"""The vectorized round loop: B same-cell trials as struct-of-arrays.

State layout — one flat axis of ``M = B * n`` node slots, node ``v`` of
trial ``t`` at index ``t * n + v``:

* ``pc``        int16   current table state (:data:`~.table.HALT` = halted)
* ``wake``      int64   next round the node acts (the scalar engine's
                        per-node clock ``_now``)
* ``regs``      int64   ``(num_registers, M)`` register file
* ``counters``  uint64  RNG draw counters (see :mod:`~.rng`)
* ``decided``   int8    0 undecided / 1 IN_MIS / 2 OUT_MIS
* ``finish``    int64   the node's clock when it halted
* ``tx_rounds`` / ``listen_rounds`` int64 energy tallies

Each iteration of the main loop advances *one* populated round across
the whole batch: find the minimum wake time among live nodes (sleep
blocks are skipped wholesale, like the scalar engine's event queue),
emit every acting node's action as mask arithmetic, resolve collisions
for all B trials at once, then walk each state's edge chains over
compressed index arrays.  Soft (epsilon/sleep) states are resolved to a
fixpoint inside the same iteration, mirroring how the scalar engine
processes consecutive ``Sleep`` yields without consuming a round.

Collision resolution has one kernel, a *residual* CSR over flat slots.
Every trial graph's CSR is written once into one int64
``indptr``/``indices`` pair (slot ``t * n + v``; a shared graph becomes
B row blocks).  That pair is the full graph, which validation and the
sparsification windows read, and also the kernel's first compression.
As nodes halt, the kernel recompresses to a CSR over only the
still-live slots, dropping edges to halted slots, and every collision
round counts into a compact live-indexed array, so per-round cost
scales with the awake residual graph rather than with M.  Recompression
is geometric (triggered when the live set halves) and reads the
previous compression, so total rebuild work is O(E log n) amortized.
Halted nodes never transmit or listen, so counts at live listeners are
exactly the full-graph counts.

An opt-in **sparsification** knob (``sparsify=cap``) bounds each
transmitter's per-round fan-out: a transmitter whose degree exceeds
``cap`` delivers to a contiguous ``cap``-wide window of its *full*
neighbor row at a pseudorandom offset keyed by ``(node stream key,
round)``.  Windows never depend on the residual graph, so results are
deterministic per trial and independent of batch composition.  This
approximates collision counts for no-CD competition rounds (where
listeners only distinguish silence from noise, so capped fan-out
preserves the 0/1/many buckets w.h.p. on high-degree rows); with
``cap >= Delta`` it is provably a no-op.  Results under sparsification
are cached under distinct keys (see :func:`repro.exec.cache.trial_key`).

Accounting matches the scalar engine exactly: an awake action in round
``r`` advances the node's clock to ``r + 1``; ``Sleep(d)`` adds ``d``;
``finish`` is the clock at halt; a trial's ``rounds`` is the maximum
finish over its nodes.  Validation (MIS independence + domination +
decidedness) is vectorized over the batch as well — both checks derive
from one neighbor-count pass over the full graph, so a batched battery
never materializes per-trial ``RunResult`` objects *or* Python edge
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import ProtocolError, SimulationError
from ...graphs.graph import Graph
from ...obs.registry import get_registry
from ..engine import DEFAULT_MAX_ROUNDS, _HINT_SLACK
from ..node import Protocol
from .registry import compile_table_for
from .rng import GOLDEN, draw, geometric_from_draws, mix64, node_keys, ranks_from_draws
from .table import (
    EMIT_BIT,
    EMIT_EPS,
    EMIT_LE,
    EMIT_LISTEN,
    EMIT_SLEEP,
    EMIT_TRANSMIT,
    HALT,
    NODE_ID,
    OBS_HEARD,
    OBS_NEXT,
    OBS_SILENCE,
    OBS_TX,
    Edge,
    TableProgram,
)

__all__ = [
    "BatchResult",
    "run_batch",
    "compile_batch_program",
    "MAX_RANK_WIDTH",
]

#: Widest rank that is packed into a single int64 register.  Wider
#: ranks (large-n cells, where ``rank_bits(n)`` passes 62) switch to
#: the *wide-rank* representation: the register stores the node's RNG
#: stream anchor and each bit is derived on demand from counter-based
#: draws — same i.i.d. uniform bits, no width limit.
MAX_RANK_WIDTH = 62

@dataclass(frozen=True)
class BatchResult:
    """Vectorized per-trial results of one batched battery.

    All arrays are indexed by trial position (the order of ``seeds``).
    ``failure_kinds`` mirrors
    :func:`repro.analysis.validation.ValidationReport.failure_kinds`
    ordering: undecided, independence, domination.
    """

    seeds: Tuple[int, ...]
    protocol_name: str
    model_name: str
    num_nodes: int
    valid: np.ndarray  # (B,) bool
    mis_size: np.ndarray  # (B,) int64
    rounds: np.ndarray  # (B,) int64
    max_energy: np.ndarray  # (B,) int64
    mean_energy: np.ndarray  # (B,) float64
    undecided: np.ndarray  # (B,) bool
    independence: np.ndarray  # (B,) bool (violated)
    domination: np.ndarray  # (B,) bool (violated)
    mis: np.ndarray  # (B, n) bool

    @property
    def trials(self) -> int:
        return len(self.seeds)

    def failure_kinds(self, index: int) -> List[str]:
        kinds = []
        if self.undecided[index]:
            kinds.append("undecided")
        if self.independence[index]:
            kinds.append("independence")
        if self.domination[index]:
            kinds.append("domination")
        return kinds


# ----------------------------------------------------------------------
# Graph-side kernels
# ----------------------------------------------------------------------


def _gather_rows(starts: np.ndarray, degrees: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Concatenate ``indices[starts[i] : starts[i] + degrees[i]]`` rows."""
    total = int(degrees.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    cum = np.cumsum(degrees) - degrees
    gather = np.repeat(starts - cum, degrees) + np.arange(total)
    return indices[gather]


def _sparsified_rows(
    starts: np.ndarray,
    degrees: np.ndarray,
    cap: int,
    keys: np.ndarray,
    salt: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Degree-sampled fan-out: rows over ``cap`` shrink to a ``cap``-wide
    window at a deterministic pseudorandom offset.

    The offset is ``mix64(key ^ round * GOLDEN) mod (degree - cap + 1)``
    per transmitter — a pure function of the node's RNG stream key and
    the round number, so it is reproducible per trial seed and
    independent of batch composition.  Rows at or under ``cap`` pass
    through untouched (hence ``cap >= Delta`` is an exact no-op).
    """
    over = degrees > cap
    if not bool(over.any()):
        return starts, degrees
    window = (degrees[over] - cap + 1).astype(np.uint64)
    # Wrap the salt multiply in Python ints: numpy warns on scalar
    # uint64 overflow even though modular wrap-around is exactly the
    # arithmetic this hash wants.
    salt_key = np.uint64((int(salt) * int(GOLDEN)) & 0xFFFFFFFFFFFFFFFF)
    offsets = mix64(keys[over] ^ salt_key) % window
    starts = starts.copy()
    degrees = degrees.copy()
    starts[over] += offsets.astype(starts.dtype)
    degrees[over] = cap
    return starts, degrees


class _ResidualCSR:
    """The collision kernel: a sleep-set compressed CSR over flat slots.

    The constructor writes every trial graph's CSR into one preallocated
    int64 pair (slot ``t * n + v``), which stays as the full graph for
    :meth:`full_counts` and the sparsification windows, and is adopted
    without a copy as the first compression (``_pos``/``_flat`` are the
    identity).  ``_pos`` maps flat ids to compact indices of the most
    recent compression, and ``_flat`` is its inverse.  The machine calls
    :meth:`refresh` with the current live set every vector round; when
    the live set falls to half the last compression's size, the
    structure is rebuilt *from the previous compressed structure*, so
    each rebuild costs O(previous residual), and the geometric trigger
    bounds total rebuild work by O(E log n).

    Between rebuilds some compact targets may have since halted; they
    accumulate counts harmlessly (halted slots never listen).  Counts
    read at live listeners are exact: every transmitter is live, and a
    live-live edge is never dropped.
    """

    REBUILD_FACTOR = 0.5

    def __init__(
        self,
        graphs: Sequence[Graph],
        sparsify: Optional[int],
        keys: np.ndarray,
    ):
        n = graphs[0].num_nodes
        m = len(graphs) * n
        csrs = [graph.csr() for graph in graphs]
        indptr = np.empty(m + 1, dtype=np.int64)
        indices = np.empty(sum(int(p[-1]) for p, _ in csrs), dtype=np.int64)
        end = 0
        for t, (graph_indptr, graph_indices) in enumerate(csrs):
            np.add(graph_indptr[:-1], end, out=indptr[t * n : (t + 1) * n])
            edges = graph_indices.size
            np.add(graph_indices, t * n, out=indices[end : end + edges])
            end += edges
        indptr[m] = end
        self._full_indptr = self._indptr = indptr
        self._full_indices = self._indices = indices
        self._spar = sparsify
        self._keys = keys
        self.rebuilds = 0
        self.m = m
        # Identity maps; refresh reads _flat before it writes _pos,
        # so the two may share one array until the first rebuild.
        self._pos = self._flat = np.arange(m, dtype=np.int64)
        self._alive = np.ones(m, dtype=bool)
        self._size = m
        self._trigger = int(m * self.REBUILD_FACTOR)

    def refresh(self, live: np.ndarray) -> None:
        """Recompress to ``live`` once it has halved since the last
        compression, reading the rows of that compression."""
        if live.size > self._trigger:
            return
        self._alive[:] = False
        self._alive[live] = True
        prev = self._pos[live]
        starts = self._indptr[prev]
        degrees = self._indptr[prev + 1] - starts
        targets_flat = self._flat[_gather_rows(starts, degrees, self._indices)]
        keep = self._alive[targets_flat]
        rows = np.repeat(np.arange(live.size, dtype=np.int64), degrees)
        kept_degrees = np.bincount(rows[keep], minlength=live.size)
        indptr = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(kept_degrees, out=indptr[1:])
        self._pos[live] = np.arange(live.size, dtype=np.int64)
        self._flat = live.copy()
        self._indptr = indptr
        self._indices = self._pos[targets_flat[keep]]
        self._size = int(live.size)
        self._trigger = int(live.size * self.REBUILD_FACTOR)
        self.rebuilds += 1

    def counts_at(
        self, tx_index: np.ndarray, listeners: np.ndarray, salt: int
    ) -> np.ndarray:
        if self._spar is None:
            positions = self._pos[tx_index]
            starts = self._indptr[positions]
            degrees = self._indptr[positions + 1] - starts
            targets = _gather_rows(starts, degrees, self._indices)
        else:
            # Windows come from full rows, so they never depend on
            # which other trials share the battery; masking by _alive
            # keeps stale compact ids of halted slots from aliasing.
            starts = self._full_indptr[tx_index]
            degrees = self._full_indptr[tx_index + 1] - starts
            starts, degrees = _sparsified_rows(
                starts, degrees, self._spar, self._keys[tx_index], salt
            )
            targets = _gather_rows(starts, degrees, self._full_indices)
            targets = self._pos[targets[self._alive[targets]]]
        counts = np.bincount(targets, minlength=self._size)
        return counts[self._pos[listeners]]

    def full_counts(self, sources: np.ndarray) -> np.ndarray:
        """Neighbor counts over the full graph, indexed by flat slot."""
        starts = self._full_indptr[sources]
        degrees = self._full_indptr[sources + 1] - starts
        targets = _gather_rows(starts, degrees, self._full_indices)
        return np.bincount(targets, minlength=self.m)


# ----------------------------------------------------------------------
# The engine proper
# ----------------------------------------------------------------------


class _BatchMachine:
    def __init__(
        self,
        program: TableProgram,
        graphs: Sequence[Graph],
        model: Any,
        seeds: Sequence[int],
        max_rounds: int,
        *,
        sparsify: Optional[int] = None,
    ):
        self.program = program
        self.model = model
        self.max_rounds = max_rounds
        batch = len(seeds)
        n = graphs[0].num_nodes
        self.batch = batch
        self.n = n
        m = batch * n
        self.m = m

        width = program.rank_width
        if width < 0:
            raise ProtocolError(
                f"table {program.protocol_name!r}: negative rank width {width}"
            )
        self.width = width
        # Ranks wider than an int64 register keep only their stream
        # anchor in the register; bits are materialized on demand (one
        # 64-bit draw word per 64 bit positions).
        self.wide_ranks = width > MAX_RANK_WIDTH
        self.rank_words = (width + 63) >> 6 if self.wide_ranks else 1

        if sparsify is not None and sparsify < 1:
            raise ProtocolError(
                f"sparsify cap must be a positive degree, got {sparsify}"
            )
        self.keys = node_keys(np.asarray(seeds, dtype=np.int64), n)
        self.kernel = _ResidualCSR(graphs, sparsify, self.keys)

        # Whether a listener hears something, indexed by its
        # transmitter-count bucket: 0, 1, many.
        one = model.observation_one
        self.heard = np.array(
            [
                model.observation_zero.heard_something,
                True if one is None else one.heard_something,
                model.observation_many.heard_something,
            ],
            dtype=bool,
        )

        # Struct-of-arrays node state.
        self.pc = np.full(m, program.start, dtype=np.int16)
        self.wake = np.zeros(m, dtype=np.int64)
        self.regs = np.zeros((program.num_registers, m), dtype=np.int64)
        node_column = np.tile(np.arange(n, dtype=np.int64), batch)
        for register, value in enumerate(program.init):
            if value is NODE_ID:
                self.regs[register] = node_column
            elif value:
                self.regs[register] = value
        self.counters = np.zeros(m, dtype=np.uint64)
        self.decided = np.zeros(m, dtype=np.int8)
        self.finish = np.zeros(m, dtype=np.int64)
        self.tx_rounds = np.zeros(m, dtype=np.int64)
        self.listen_rounds = np.zeros(m, dtype=np.int64)

        self.soft = np.array(
            [state.emit in (EMIT_EPS, EMIT_SLEEP) for state in program.states],
            dtype=bool,
        )
        self.vector_rounds = 0

    # -- edge chains ----------------------------------------------------

    def _rank_bit(
        self, value_reg: int, pos_reg: int, index: np.ndarray
    ) -> np.ndarray:
        """Bit of each node's rank at its position register (MSB-first)."""
        pos = self.regs[pos_reg, index]
        if self.wide_ranks:
            anchor = self.regs[value_reg, index].astype(np.uint64)
            word = (pos >> 6).astype(np.uint64)
            draws = draw(self.keys[index], anchor + word)
            shift = np.uint64(63) - (pos.astype(np.uint64) & np.uint64(63))
            return ((draws >> shift) & np.uint64(1)).astype(np.int64)
        shift = (self.width - 1) - pos
        return (self.regs[value_reg, index] >> shift) & 1

    def _guard_mask(self, edge: Edge, index: np.ndarray) -> np.ndarray:
        mask = np.ones(index.shape, dtype=bool)
        regs = self.regs
        for guard in edge.guards:
            kind = guard[0]
            if kind == "bit":
                _, value_reg, pos_reg, want = guard
                mask &= self._rank_bit(value_reg, pos_reg, index) == want
            else:
                _, reg, const = guard
                values = regs[reg, index]
                if kind == "eq":
                    mask &= values == const
                elif kind == "ne":
                    mask &= values != const
                elif kind == "lt":
                    mask &= values < const
                elif kind == "le":
                    mask &= values <= const
                elif kind == "ge":
                    mask &= values >= const
                else:  # "gt"
                    mask &= values > const
        return mask

    def _draw(self, index: np.ndarray) -> np.ndarray:
        variates = draw(self.keys[index], self.counters[index])
        self.counters[index] += np.uint64(1)
        return variates

    def _apply_chain(
        self, chain: Tuple[Edge, ...], index: np.ndarray, state_index: int
    ) -> None:
        remaining = index
        for edge in chain:
            if not remaining.size:
                return
            mask = self._guard_mask(edge, remaining)
            selected = remaining[mask]
            remaining = remaining[~mask]
            if not selected.size:
                continue
            for op in edge.ops:
                kind = op[0]
                if kind == "set":
                    self.regs[op[1], selected] = op[2]
                elif kind == "add":
                    self.regs[op[1], selected] += op[2]
                elif kind == "rank":
                    if self.wide_ranks:
                        # Anchor the rank at the node's current stream
                        # position and reserve one draw word per 64 bits.
                        self.regs[op[1], selected] = self.counters[
                            selected
                        ].astype(np.int64)
                        self.counters[selected] += np.uint64(self.rank_words)
                    else:
                        self.regs[op[1], selected] = ranks_from_draws(
                            self._draw(selected), self.width
                        )
                else:  # "geom"
                    self.regs[op[1], selected] = geometric_from_draws(
                        self._draw(selected), op[2]
                    )
            if edge.decide is not None:
                self.decided[selected] = 1 if edge.decide == "in" else 2
            # set_info is a scalar-only side channel (node_info dicts);
            # batched batteries aggregate outcomes and never read it.
            self.pc[selected] = edge.next
            if edge.next == HALT:
                self.finish[selected] = self.wake[selected]
        if remaining.size:
            raise SimulationError(
                f"table {self.program.protocol_name!r}: no edge matched in "
                f"state {state_index} (batch of {self.batch})"
            )

    def _resolve_soft(self, index: np.ndarray) -> None:
        states = self.program.states
        work = index
        while work.size:
            live = work[self.pc[work] >= 0]
            work = live[self.soft[self.pc[live]]]
            if not work.size:
                return
            codes = self.pc[work]
            for state_index in np.unique(codes):
                state = states[state_index]
                subset = work[codes == state_index]
                if state.emit == EMIT_SLEEP:
                    duration = np.full(
                        subset.shape, state.sleep_base, dtype=np.int64
                    )
                    for reg, coeff in state.sleep_coeffs:
                        duration += coeff * self.regs[reg, subset]
                    if (duration < 1).any():
                        raise ProtocolError(
                            f"table {self.program.protocol_name!r}: sleep "
                            f"state {state_index} evaluated to a "
                            "non-positive duration"
                        )
                    self.wake[subset] += duration
                self._apply_chain(
                    state.edges[OBS_NEXT], subset, state_index
                )

    # -- main loop ------------------------------------------------------

    def run(self) -> None:
        states = self.program.states
        self._resolve_soft(np.arange(self.m, dtype=np.int64))
        # The live set shrinks monotonically; filter it incrementally
        # instead of re-scanning all M slots every round.  The kernel
        # sees every shrink so it can recompress.
        live = np.arange(self.m, dtype=np.int64)
        while True:
            live = live[self.pc[live] >= 0]
            if not live.size:
                return
            self.kernel.refresh(live)
            wake_live = self.wake[live]
            current = int(wake_live.min())
            if current >= self.max_rounds:
                raise SimulationError(
                    f"batched {self.program.protocol_name!r} exceeded "
                    f"max_rounds={self.max_rounds}"
                )
            act = live[wake_live == current]
            self.vector_rounds += 1
            codes = self.pc[act]

            # Emission pass: who transmits, who listens.
            groups: List[Tuple[int, str, np.ndarray]] = []
            tx_parts = [np.zeros(0, np.int64)]
            listen_parts = [np.zeros(0, np.int64)]
            for state_index in np.unique(codes):
                state = states[state_index]
                subset = act[codes == state_index]
                emit = state.emit
                if emit == EMIT_TRANSMIT:
                    tx_parts.append(subset)
                    groups.append((state_index, OBS_NEXT, subset))
                elif emit == EMIT_LISTEN:
                    listen_parts.append(subset)
                    groups.append((state_index, "listen", subset))
                else:
                    if emit == EMIT_BIT:
                        transmitting = self._rank_bit(
                            state.a, state.b, subset
                        ).astype(bool)
                    else:  # EMIT_LE
                        transmitting = (
                            self.regs[state.a, subset]
                            <= self.regs[state.b, subset]
                        )
                    tx_parts.append(subset[transmitting])
                    listen_parts.append(subset[~transmitting])
                    groups.append((state_index, OBS_TX, subset[transmitting]))
                    groups.append((state_index, "listen", subset[~transmitting]))

            tx_index = np.concatenate(tx_parts)
            self.tx_rounds[tx_index] += 1

            # One counts pass for all listeners this round, sliced back
            # per group below — the kernel indexes by listener, so the
            # cost is O(residual), never O(M).
            listeners_all = np.concatenate(listen_parts)
            if listeners_all.size and tx_index.size:
                counts = self.kernel.counts_at(tx_index, listeners_all, current)
            else:
                counts = np.zeros(listeners_all.size, dtype=np.int64)
            heard = self.heard[np.minimum(counts, 2)]

            # The acted nodes consumed this round.
            self.wake[act] = current + 1

            # Transition pass.
            cursor = 0
            for state_index, obs_class, subset in groups:
                if obs_class == "listen":
                    heard_mask = heard[cursor : cursor + subset.size]
                    cursor += subset.size
                    if not subset.size:
                        continue
                    state = states[state_index]
                    self.listen_rounds[subset] += 1
                    self._apply_chain(
                        state.edges[OBS_HEARD], subset[heard_mask], state_index
                    )
                    self._apply_chain(
                        state.edges[OBS_SILENCE],
                        subset[~heard_mask],
                        state_index,
                    )
                else:
                    if not subset.size:
                        continue
                    state = states[state_index]
                    self._apply_chain(
                        state.edges[obs_class], subset, state_index
                    )
            self._resolve_soft(act)


def _validate(
    machine: _BatchMachine,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    batch, n = machine.batch, machine.n
    decided = machine.decided
    mis_flat = decided == 1
    mis = mis_flat.reshape(batch, n)
    if n == 0:
        empty = np.zeros(batch, dtype=bool)
        return empty, empty, empty, mis
    undecided = (decided == 0).reshape(batch, n).any(axis=1)

    # One full-graph neighbor-count pass answers both checks without
    # touching Python edge tuples: a slot with an MIS neighbor has
    # count > 0, so an MIS slot with count > 0 violates independence,
    # and a slot that is neither in the MIS nor counted is undominated.
    neighbor_counts = machine.kernel.full_counts(np.flatnonzero(mis_flat))
    has_mis_neighbor = neighbor_counts > 0
    independence = (mis_flat & has_mis_neighbor).reshape(batch, n).any(axis=1)
    covered = mis_flat | has_mis_neighbor
    domination = (~covered).reshape(batch, n).any(axis=1)
    return undecided, independence, domination, mis


def compile_batch_program(
    protocol: Protocol, graphs: Sequence[Graph]
) -> Optional[TableProgram]:
    """One table program covering every trial graph, or ``None``.

    Programs are compiled per ``(n, Delta)`` cell; sampled trial graphs
    of the same ``n`` may differ in max degree.  Compile once per
    distinct degree and accept the battery only when every compilation
    yields the *same* program — i.e. the table doesn't actually depend
    on Delta (Algorithm 1), or all trial graphs agree on it.  Frozen
    dataclasses make that a plain equality check.
    """
    if not graphs:
        return None
    n = graphs[0].num_nodes
    program: Optional[TableProgram] = None
    for delta in sorted({graph.max_degree() for graph in graphs}):
        candidate = compile_table_for(protocol, n, delta)
        if candidate is None:
            return None
        if program is None:
            program = candidate
        elif candidate != program:
            return None
    return program


def run_batch(
    graphs: Union[Graph, Sequence[Graph]],
    protocol: Protocol,
    model: Any,
    seeds: Sequence[int],
    *,
    program: Optional[TableProgram] = None,
    max_rounds: Optional[int] = None,
    sparsify: Optional[int] = None,
) -> BatchResult:
    """Run ``len(seeds)`` trials of one cell through the batched engine.

    ``graphs`` is either one shared :class:`Graph` or a per-trial
    sequence (same ``n`` and max degree — the batchability contract
    ``run_trials`` enforces before dispatching here).  Each trial ``i``
    uses ``seeds[i]`` exactly as the scalar engine would: the result is
    a pure function of ``(graph_i, protocol, model, seeds[i])``,
    independent of batch size or composition.

    ``sparsify`` caps per-round transmitter fan-out at the given degree
    (an approximation for no-CD competition rounds; exact when the cap
    is at least the graph's max degree).  Sparsified trials are just as
    independent of batch composition: each window is cut from the
    transmitter's full neighbor row.

    Raises :class:`~repro.errors.ProtocolError` when the protocol has no
    table for this cell — callers decide fallback policy *before*
    getting here.
    """
    graph_list = (
        [graphs] * len(seeds) if isinstance(graphs, Graph) else list(graphs)
    )
    if len(graph_list) != len(seeds):
        raise ProtocolError(
            f"run_batch: {len(graph_list)} graphs for {len(seeds)} seeds"
        )
    if not seeds:
        raise ProtocolError("run_batch: empty seed battery")
    n = graph_list[0].num_nodes
    for graph in graph_list[1:]:
        if graph.num_nodes != n:
            raise ProtocolError(
                "run_batch: all trial graphs must share n; got "
                f"{graph.num_nodes} vs {n}"
            )
    if program is None:
        program = compile_batch_program(protocol, graph_list)
        if program is None:
            raise ProtocolError(
                f"protocol {protocol.name!r} has no single transition "
                f"table covering this battery (n={n})"
            )
    if max_rounds is None:
        # Per-trial graphs may disagree on Delta; the watchdog takes the
        # loosest per-trial bound (it guards hangs, not semantics).
        hints = [
            protocol.max_rounds_hint(n, d)
            for d in {graph.max_degree() for graph in graph_list}
        ]
        hint = None if any(h is None for h in hints) else max(hints)
        max_rounds = _HINT_SLACK * hint if hint else DEFAULT_MAX_ROUNDS

    machine = _BatchMachine(
        program,
        graph_list,
        model,
        seeds,
        max_rounds,
        sparsify=sparsify,
    )
    machine.run()
    undecided, independence, domination, mis = _validate(machine)
    valid = ~(undecided | independence | domination)
    if n:
        awake = (machine.tx_rounds + machine.listen_rounds).reshape(
            machine.batch, n
        )
        max_energy = awake.max(axis=1).astype(np.int64)
        mean_energy = awake.mean(axis=1).astype(np.float64)
        rounds = machine.finish.reshape(machine.batch, n).max(axis=1)
    else:
        max_energy = np.zeros(machine.batch, dtype=np.int64)
        mean_energy = np.zeros(machine.batch, dtype=np.float64)
        rounds = np.zeros(machine.batch, dtype=np.int64)

    registry = get_registry()
    if registry.enabled:
        registry.counter("engine.batch.batches").inc()
        registry.counter("engine.batch.trials").inc(machine.batch)
        registry.counter("engine.batch.vector_rounds").inc(
            machine.vector_rounds
        )
        registry.counter("engine.batch.residual_rebuilds").inc(
            machine.kernel.rebuilds
        )

    return BatchResult(
        seeds=tuple(seeds),
        protocol_name=protocol.name,
        model_name=model.name,
        num_nodes=n,
        valid=valid,
        mis_size=mis.sum(axis=1).astype(np.int64),
        rounds=rounds,
        max_energy=max_energy,
        mean_energy=mean_energy,
        undecided=undecided,
        independence=independence,
        domination=domination,
        mis=mis,
    )
