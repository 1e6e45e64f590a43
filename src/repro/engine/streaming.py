"""Bounded-memory streaming simulation.

The in-memory engines (:mod:`repro.engine.vectorized`,
:mod:`repro.engine.batched`) require the whole trace as numpy columns,
so peak memory is O(trace).  This module simulates the same predictors
over an *iterator of chunks* (typically a
:class:`~repro.trace.io.TraceReader` over a chunked ``.rbt`` v2 file)
with peak memory O(chunk), by carrying every piece of predictor state
across chunk boundaries explicitly:

* **history registers** — the global history register and the
  per-address BHT rows are carried as integers/arrays; in-chunk history
  windows are computed exactly as in the vectorized engine and the
  carried bits are OR-ed into each step's window at its genuine depth;
* **counter tables** — pattern-history, bias, and chooser tables are
  carried as arrays, and the segmented scans resume each segment from
  its entry's carried value (the per-segment-initial form of
  :func:`~repro.engine.scan.segmented_saturating_scan`);
* **component state** — tournament and class-routed-hybrid streams
  carry their components' streams recursively.

Every path is **bit-identical** to the corresponding cold-start
in-memory simulation (pinned by ``tests/test_engine_streaming.py`` over
every registered predictor family and chunk lengths down to 1):
:func:`simulate_stream` equals :func:`repro.engine.simulate`, and
:func:`simulate_sweep_stream` equals
:func:`repro.engine.batched.simulate_sweep`.  Predictors outside the
vectorized family (YAGS, bi-mode, filter, DHLF, oracle, …) stream
through the stateful reference predictor, which is trivially
chunk-oblivious.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import ConfigurationError
from ..predictors.agree import AgreePredictor
from ..predictors.bimodal import BimodalPredictor
from ..predictors.hybrid import ClassRoutedHybrid
from ..predictors.static import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    OraclePredictor,
    ProfileStaticPredictor,
)
from ..predictors.tournament import TournamentPredictor
from ..predictors.twolevel import TwoLevelPredictor
from ..trace.stream import Trace
from .batched import DEFAULT_MAX_CHUNK_ELEMENTS, _spec_of, compiled_batch
from .results import SimulationResult
from .scan import (
    counter_step_table,
    segmented_automaton_scan,
    segmented_saturating_scan,
    stable_key_order,
)
from .vectorized import (
    _global_window,
    _pht_indices,
    _slot_groups,
    _windows_in_groups,
)

__all__ = [
    "simulate_stream",
    "simulate_sweep_stream",
    "stream_simulator",
    "supports_stream_vectorized",
]


def _as_columns(chunk) -> tuple[np.ndarray, np.ndarray, str]:
    """(pcs, outcomes, name) of a chunk (a Trace or a (pcs, outcomes) pair)."""
    if isinstance(chunk, Trace):
        return chunk.pcs, chunk.outcomes, chunk.name
    pcs, outcomes = chunk
    return np.asarray(pcs, dtype=np.int64), np.asarray(outcomes, dtype=np.uint8), ""


# -- carried state building blocks -------------------------------------------


def _last_in_group(new_group: np.ndarray) -> np.ndarray:
    """Mask of each group's final element, from its new-group mask."""
    last = np.empty(len(new_group), dtype=bool)
    last[-1] = True
    last[:-1] = new_group[1:]
    return last


class _GlobalHistoryState:
    """A k-bit global history register carried across chunks."""

    __slots__ = ("bits", "mask", "value")

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.value = 0

    def windows(self, outcomes: np.ndarray) -> np.ndarray:
        """History before each step (carried bits included), advancing
        the register past the chunk."""
        n = len(outcomes)
        hist = _global_window(outcomes, self.bits)
        k = min(self.bits, n)
        if k and self.value:
            # Step i has i in-chunk predecessors; its bits i.. come from
            # the carried register's low bits, shifted into place.
            shifts = np.arange(k)
            hist[:k] |= (self.value & (self.mask >> shifts)) << shifts
        if n:
            self.value = ((int(hist[n - 1]) << 1) | int(outcomes[n - 1])) & self.mask
        return hist


class _SlotHistoryState:
    """Per-address (BHT) history rows carried across chunks."""

    __slots__ = ("entries", "bits", "mask", "table")

    def __init__(self, entries: int, bits: int) -> None:
        self.entries = entries
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.table = np.zeros(entries, dtype=np.int64)

    def windows(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        """Per-step history windows (carried rows included), advancing
        every touched BHT row past the chunk."""
        n = len(pcs)
        slots = pcs & (self.entries - 1)
        order, new_group, group_start_pos = _slot_groups(
            slots, self.entries.bit_length() - 1
        )
        sorted_out = outcomes[order]
        in_chunk = _windows_in_groups(sorted_out, group_start_pos, self.bits)
        depth = np.arange(n) - group_start_pos
        sorted_slots = slots[order]
        carried = self.table[sorted_slots]
        shift = np.minimum(depth, self.bits)
        combined = in_chunk | ((carried & (self.mask >> shift)) << shift)
        last = _last_in_group(new_group)
        self.table[sorted_slots[last]] = (
            (combined[last] << 1) | sorted_out[last]
        ) & self.mask
        hist = np.empty(n, dtype=np.int64)
        hist[order] = combined
        return hist


class _CounterTableState:
    """A table of saturating counters carried across chunks.

    :meth:`states_before` is the streaming analogue of the in-memory
    grouped scan: each segment resumes from its entry's carried value,
    and the table advances past the chunk's final step of each entry.
    """

    __slots__ = ("index_bits", "max_state", "table")

    def __init__(self, index_bits: int, counter_bits: int, initial: int) -> None:
        self.index_bits = index_bits
        self.max_state = (1 << counter_bits) - 1
        self.table = np.full(1 << index_bits, initial, dtype=np.uint8)

    def states_before(self, indices: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Counter value before each step, in original order; updates
        the carried table."""
        n = len(indices)
        order = stable_key_order(indices, self.index_bits)
        sorted_indices = indices[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        starts[1:] = sorted_indices[1:] != sorted_indices[:-1]
        sorted_inputs = inputs[order]
        init = self.table[sorted_indices]
        state_sorted = segmented_saturating_scan(
            sorted_inputs, starts, init, self.max_state
        )
        last = _last_in_group(starts)
        final = state_sorted[last].astype(np.int64) + np.where(
            sorted_inputs[last].astype(bool), 1, -1
        )
        self.table[sorted_indices[last]] = np.clip(final, 0, self.max_state).astype(
            np.uint8
        )
        states = np.empty(n, dtype=np.uint8)
        states[order] = state_sorted
        return states


# -- per-family stream simulators ---------------------------------------------


class _TwoLevelStream:
    """Streaming two-level/bimodal simulation with carried L1 + PHT state."""

    def __init__(
        self,
        *,
        history_kind: str,
        history_bits: int,
        pht_index_bits: int,
        index_scheme: str,
        bht_entries: int | None,
        counter_bits: int,
    ) -> None:
        self.history_bits = history_bits
        self.pht_index_bits = pht_index_bits
        self.index_scheme = index_scheme
        self.threshold = 1 << (counter_bits - 1)
        self.pht = _CounterTableState(pht_index_bits, counter_bits, self.threshold)
        self.history: _GlobalHistoryState | _SlotHistoryState | None = None
        if history_bits:
            if history_kind == "global":
                self.history = _GlobalHistoryState(history_bits)
            elif history_kind == "per-address":
                if bht_entries is None:
                    raise ConfigurationError("per-address history requires bht_entries")
                self.history = _SlotHistoryState(bht_entries, history_bits)
            else:  # pragma: no cover - constructor-guarded
                raise ConfigurationError(f"unknown history kind {history_kind!r}")

    def _histories(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        if self.history is None:
            return np.zeros(len(pcs), dtype=np.int64)
        if isinstance(self.history, _GlobalHistoryState):
            return self.history.windows(outcomes)
        return self.history.windows(pcs, outcomes)

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        out_i64 = outcomes.astype(np.int64)
        histories = self._histories(pcs, out_i64)
        indices = _pht_indices(
            pcs,
            histories,
            index_scheme=self.index_scheme,
            history_bits=self.history_bits,
            pht_index_bits=self.pht_index_bits,
        )
        state_before = self.pht.states_before(indices, outcomes)
        return (state_before >= self.threshold).astype(np.uint8)


class _AgreeStream:
    """Streaming agree predictor: carried bias latch + GHR + agree PHT."""

    def __init__(self, predictor: AgreePredictor) -> None:
        self.bias_entries = predictor.bias_entries
        self.bias = np.zeros(self.bias_entries, dtype=np.int64)
        self.latched = np.zeros(self.bias_entries, dtype=bool)
        self.history = _GlobalHistoryState(predictor.history.bits)
        self.pht = _CounterTableState(
            predictor.pht.index_bits, predictor.pht.bits, predictor.pht.initial
        )
        self.threshold = 1 << (predictor.pht.bits - 1)

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        out_i64 = outcomes.astype(np.int64)

        slots = pcs & (self.bias_entries - 1)
        order, new_group, group_start_pos = _slot_groups(
            slots, self.bias_entries.bit_length() - 1
        )
        sorted_slots = slots[order]
        latched = self.latched[sorted_slots]
        first_original = order[group_start_pos]
        first_out = out_i64[first_original]
        # A latched slot keeps its carried bias for the whole chunk; an
        # unlatched slot latches from its first in-chunk outcome, with
        # the pre-latch default-taken prediction on that first step.
        bias_after_sorted = np.where(latched, self.bias[sorted_slots], first_out)
        bias_predict_sorted = np.where(
            latched, bias_after_sorted, np.where(new_group, 1, bias_after_sorted)
        )
        last = _last_in_group(new_group)
        self.bias[sorted_slots[last]] = bias_after_sorted[last]
        self.latched[sorted_slots[last]] = True

        bias_after = np.empty(n, dtype=np.int64)
        bias_after[order] = bias_after_sorted
        bias_predict = np.empty(n, dtype=np.int64)
        bias_predict[order] = bias_predict_sorted

        agree_inputs = (out_i64 == bias_after).astype(np.uint8)
        histories = self.history.windows(out_i64)
        indices = _pht_indices(
            pcs,
            histories,
            index_scheme="xor",
            history_bits=self.history.bits,
            pht_index_bits=self.pht.index_bits,
        )
        state_before = self.pht.states_before(indices, agree_inputs)
        agree = state_before >= self.threshold
        return np.where(agree, bias_predict, 1 - bias_predict).astype(np.uint8)


class _TournamentStream:
    """Streaming tournament: carried component streams + chooser table."""

    def __init__(self, predictor: TournamentPredictor) -> None:
        self.first = stream_simulator(predictor.first)
        self.second = stream_simulator(predictor.second)
        chooser = predictor.chooser
        self.entries = chooser.entries
        self.index_bits = chooser.index_bits
        self.threshold = 1 << (chooser.bits - 1)
        self.table = np.full(chooser.entries, chooser.initial, dtype=np.uint8)
        self.step_table = np.vstack(
            [
                counter_step_table(chooser.bits),
                np.arange(1 << chooser.bits, dtype=np.uint8)[None],
            ]
        )

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        first = self.first.feed(pcs, outcomes)
        second = self.second.feed(pcs, outcomes)
        first_correct = first == outcomes
        second_correct = second == outcomes
        hold = np.uint8(2)
        symbols = np.where(
            first_correct == second_correct, hold, second_correct.astype(np.uint8)
        )

        slots = pcs & (self.entries - 1)
        order = stable_key_order(slots, self.index_bits)
        sorted_slots = slots[order]
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        starts[1:] = sorted_slots[1:] != sorted_slots[:-1]
        sorted_symbols = symbols[order]
        init = self.table[sorted_slots]
        state_sorted = segmented_automaton_scan(
            self.step_table, sorted_symbols, starts, init
        )
        last = _last_in_group(starts)
        self.table[sorted_slots[last]] = self.step_table[
            sorted_symbols[last].astype(np.int64), state_sorted[last]
        ]
        chooser_state = np.empty(n, dtype=np.uint8)
        chooser_state[order] = state_sorted
        return np.where(chooser_state >= self.threshold, second, first).astype(np.uint8)


class _HybridStream:
    """Streaming class-routed hybrid: carried per-component sub-streams."""

    def __init__(self, predictor: ClassRoutedHybrid) -> None:
        self.predictor = predictor
        self.components = [stream_simulator(c) for c in predictor.components]
        self._route_cache: dict[int, int] = {}

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        unique_pcs, codes = np.unique(pcs, return_inverse=True)
        cache = self._route_cache
        route = np.empty(len(unique_pcs), dtype=np.int64)
        for i, pc in enumerate(unique_pcs.tolist()):
            index = cache.get(pc)
            if index is None:
                index = self.predictor.route_index(pc)
                cache[pc] = index
            route[i] = index
        component_of_step = route[codes]

        predictions = np.zeros(n, dtype=np.uint8)
        for index, component in enumerate(self.components):
            mask = component_of_step == index
            if np.any(mask):
                predictions[mask] = component.feed(pcs[mask], outcomes[mask])
        return predictions


class _StaticStream:
    """Stateless predictors: per-step predictions need no carried state."""

    def __init__(self, predictor) -> None:
        self.predictor = predictor
        self._directions: dict[int, int] = {}

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        if isinstance(self.predictor, AlwaysTakenPredictor):
            return np.ones(n, dtype=np.uint8)
        if isinstance(self.predictor, AlwaysNotTakenPredictor):
            return np.zeros(n, dtype=np.uint8)
        unique_pcs, codes = np.unique(pcs, return_inverse=True)
        cache = self._directions
        directions = np.empty(len(unique_pcs), dtype=np.uint8)
        for i, pc in enumerate(unique_pcs.tolist()):
            direction = cache.get(pc)
            if direction is None:
                direction = int(self.predictor.predict(pc))
                cache[pc] = direction
            directions[i] = direction
        return directions[codes]


class _ReferenceStream:
    """Any predictor, one record at a time — the streaming ground truth.

    The predictor object *is* the carried state, exactly as in
    :func:`repro.engine.reference.simulate_reference` without the
    per-segment reset.
    """

    def __init__(self, predictor) -> None:
        predictor.reset()
        self.predictor = predictor
        self.is_oracle = isinstance(predictor, OraclePredictor)

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
        n = len(pcs)
        predictions = np.empty(n, dtype=np.uint8)
        predictor = self.predictor
        predict = predictor.predict
        update = predictor.update
        for i in range(n):
            pc = int(pcs[i])
            taken = bool(outcomes[i])
            if self.is_oracle:
                predictor.prime(taken)
            predictions[i] = 1 if predict(pc) else 0
            update(pc, taken)
        return predictions


_STATIC_TYPES = (AlwaysTakenPredictor, AlwaysNotTakenPredictor, ProfileStaticPredictor)


def supports_stream_vectorized(predictor) -> bool:
    """True if ``predictor`` streams through the vectorized kernels
    (mirrors :func:`repro.engine.supports_vectorized`)."""
    if isinstance(
        predictor, (TwoLevelPredictor, BimodalPredictor, AgreePredictor) + _STATIC_TYPES
    ):
        return True
    if isinstance(predictor, TournamentPredictor):
        return supports_stream_vectorized(predictor.first) and supports_stream_vectorized(
            predictor.second
        )
    if isinstance(predictor, ClassRoutedHybrid):
        return all(supports_stream_vectorized(c) for c in predictor.components)
    return False


def stream_simulator(predictor, *, engine: str = "auto", backend: str | None = None):
    """A chunk-at-a-time simulator for ``predictor``.

    The returned object's ``feed(pcs, outcomes)`` yields the per-step
    predictions for one chunk, carrying all predictor state to the
    next call.  ``engine`` mirrors :func:`repro.engine.simulate`:
    ``"auto"`` picks the vectorized kernels when supported, a compiled
    per-record kernel (:mod:`repro.engine.backend`) when the family has
    one, and the stateful reference predictor otherwise.  ``backend``
    selects the compiled-kernel implementation (default:
    ``REPRO_ENGINE_BACKEND``, else auto-detect).
    """
    if engine == "reference":
        return _ReferenceStream(predictor)
    if engine not in ("auto", "vectorized", "batched"):
        raise ConfigurationError(f"unknown engine {engine!r}")
    if not supports_stream_vectorized(predictor):
        if engine in ("vectorized", "batched"):
            raise ConfigurationError(
                f"streaming {engine} engine cannot simulate "
                f"{type(predictor).__name__}; use engine='reference' or 'auto'"
            )
        from .backend import compiled_stream  # lazy: backend imports predictors

        compiled = compiled_stream(predictor, backend)
        if compiled is not None:
            return compiled
        return _ReferenceStream(predictor)
    if isinstance(predictor, BimodalPredictor):
        return _TwoLevelStream(
            history_kind="global",
            history_bits=0,
            pht_index_bits=predictor.table.index_bits,
            index_scheme="concat",
            bht_entries=None,
            counter_bits=predictor.table.bits,
        )
    if isinstance(predictor, TwoLevelPredictor):
        spec = _spec_of(predictor)
        return _TwoLevelStream(
            history_kind=spec.history_kind,
            history_bits=spec.history_bits,
            pht_index_bits=spec.pht_index_bits,
            index_scheme=spec.index_scheme,
            bht_entries=spec.bht_entries,
            counter_bits=spec.counter_bits,
        )
    if isinstance(predictor, AgreePredictor):
        return _AgreeStream(predictor)
    if isinstance(predictor, TournamentPredictor):
        return _TournamentStream(predictor)
    if isinstance(predictor, ClassRoutedHybrid):
        return _HybridStream(predictor)
    assert isinstance(predictor, _STATIC_TYPES)
    return _StaticStream(predictor)


# -- per-PC accumulation ------------------------------------------------------


class _StreamAccumulator:
    """Per-PC execution and (multi-config) miss counts across chunks.

    Rows are assigned to PCs first-seen; :meth:`columns` re-sorts by PC
    so results align with the in-memory engines' ``np.unique`` axis.
    """

    def __init__(self, num_configs: int) -> None:
        self._rows: dict[int, int] = {}
        self._capacity = 1024
        self._executions = np.zeros(self._capacity, dtype=np.int64)
        self._misses = np.zeros((num_configs, self._capacity), dtype=np.int64)

    def _grow(self, needed: int) -> None:
        while self._capacity < needed:
            self._capacity *= 2
        executions = np.zeros(self._capacity, dtype=np.int64)
        executions[: len(self._executions)] = self._executions
        misses = np.zeros((self._misses.shape[0], self._capacity), dtype=np.int64)
        misses[:, : self._misses.shape[1]] = self._misses
        self._executions = executions
        self._misses = misses

    def add(self, pcs: np.ndarray, missed_per_config: list[np.ndarray]) -> None:
        unique_pcs, codes = np.unique(pcs, return_inverse=True)
        rows_map = self._rows
        rows = np.empty(len(unique_pcs), dtype=np.int64)
        for i, pc in enumerate(unique_pcs.tolist()):
            row = rows_map.get(pc)
            if row is None:
                row = len(rows_map)
                rows_map[pc] = row
            rows[i] = row
        if len(rows_map) > self._capacity:
            self._grow(len(rows_map))
        self._executions[rows] += np.bincount(codes, minlength=len(unique_pcs))
        for config, missed in enumerate(missed_per_config):
            self._misses[config][rows] += np.bincount(
                codes[missed], minlength=len(unique_pcs)
            )

    def columns(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(sorted unique pcs, executions, per-config miss counts)."""
        count = len(self._rows)
        pcs = np.fromiter(self._rows.keys(), dtype=np.int64, count=count)
        order = np.argsort(pcs, kind="stable")
        pcs = pcs[order]
        executions = self._executions[:count][order]
        misses = [row[:count][order] for row in self._misses]
        return pcs, executions, misses


# -- public entry points ------------------------------------------------------


def simulate_stream(
    predictor,
    chunks: Iterable,
    *,
    engine: str = "auto",
    backend: str | None = None,
    trace_name: str | None = None,
) -> SimulationResult:
    """Simulate one predictor over a chunk iterator.

    Bit-identical to ``simulate(predictor, concat(chunks))`` with peak
    memory O(chunk).  ``predictor`` may be a stateful
    :class:`~repro.predictors.base.BranchPredictor` or a declarative
    :class:`~repro.spec.PredictorSpec`; chunks are
    :class:`~repro.trace.stream.Trace` objects (e.g. a
    :class:`~repro.trace.io.TraceReader`) or ``(pcs, outcomes)`` pairs.
    ``backend`` picks the compiled-kernel implementation for the
    reference-path families (see :mod:`repro.engine.backend`).
    """
    from ..spec import build_predictor  # lazy: spec imports engine

    predictor = build_predictor(predictor)
    simulator = stream_simulator(predictor, engine=engine, backend=backend)
    accumulator = _StreamAccumulator(1)
    name = trace_name
    for chunk in chunks:
        pcs, outcomes, chunk_name = _as_columns(chunk)
        if name is None and chunk_name:
            name = chunk_name
        if len(pcs) == 0:
            continue
        predictions = simulator.feed(pcs, outcomes)
        accumulator.add(pcs, [predictions != outcomes])
    pcs, executions, misses = accumulator.columns()
    return SimulationResult(
        pcs,
        executions,
        misses[0],
        predictor_name=predictor.name,
        trace_name=name or "",
    )


class BatchedStream:
    """Chunked driver of the batched multi-configuration engine.

    Shares one global-history window, one per-BHT-geometry window and
    stacked per-segment-initial counter scans across every two-level
    configuration in the batch, exactly like
    :func:`repro.engine.batched.predictions_batched` — but fed chunk by
    chunk, with all carried state (history registers at the *longest*
    requested length per geometry, one PHT per unique configuration)
    advancing across chunk boundaries.
    """

    def __init__(
        self,
        predictors,
        *,
        max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    ) -> None:
        if max_chunk_elements < 1:
            raise ConfigurationError("max_chunk_elements must be positive")
        self.max_chunk_elements = max_chunk_elements
        specs = [_spec_of(p) for p in predictors]

        # Shared carried history state: global at the longest global
        # length; one BHT per geometry at that geometry's longest length
        # (shorter configs mask the same windows down).
        global_bits = max(
            (s.history_bits for s in specs if s.history_kind == "global"), default=0
        )
        self._global = _GlobalHistoryState(global_bits) if global_bits else None
        bht_bits: dict[int, int] = {}
        for s in specs:
            if s.history_kind == "per-address" and s.history_bits > 0:
                bht_bits[s.bht_entries] = max(
                    bht_bits.get(s.bht_entries, 0), s.history_bits
                )
        self._bht = {
            entries: _SlotHistoryState(entries, bits)
            for entries, bits in bht_bits.items()
        }

        # Unique configurations (identical geometries share one PHT).
        self._slot_of_spec: list[int] = []
        self._unique: list = []
        self._tables: list[np.ndarray] = []
        slot_by_key: dict[tuple, int] = {}
        for s in specs:
            key = s.dedupe_key()
            slot = slot_by_key.get(key)
            if slot is None:
                slot = len(self._unique)
                slot_by_key[key] = slot
                self._unique.append(s)
                initial = 1 << (s.counter_bits - 1)
                self._tables.append(
                    np.full(1 << s.pht_index_bits, initial, dtype=np.uint8)
                )
            self._slot_of_spec.append(slot)

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> list[np.ndarray]:
        """Per-step predictions of every predictor for one chunk."""
        n = len(pcs)
        if n == 0:
            return [np.zeros(0, dtype=np.uint8) for _ in self._slot_of_spec]
        out_i64 = outcomes.astype(np.int64)
        global_hist = self._global.windows(out_i64) if self._global else None
        bht_hist = {
            entries: state.windows(pcs, out_i64)
            for entries, state in self._bht.items()
        }

        unique_indices: list[np.ndarray] = []
        for s in self._unique:
            if s.history_bits == 0:
                hist = np.zeros(n, dtype=np.int64)
            elif s.history_kind == "global":
                hist = global_hist & ((1 << s.history_bits) - 1)
            else:
                hist = bht_hist[s.bht_entries] & ((1 << s.history_bits) - 1)
            unique_indices.append(
                _pht_indices(
                    pcs,
                    hist,
                    index_scheme=s.index_scheme,
                    history_bits=s.history_bits,
                    pht_index_bits=s.pht_index_bits,
                )
            )

        unique_predictions: list[np.ndarray | None] = [None] * len(self._unique)
        by_counter_bits: dict[int, list[int]] = {}
        for slot, s in enumerate(self._unique):
            by_counter_bits.setdefault(s.counter_bits, []).append(slot)
        per_chunk = max(1, self.max_chunk_elements // n)
        for counter_bits, slots in by_counter_bits.items():
            threshold = 1 << (counter_bits - 1)
            max_state = (1 << counter_bits) - 1
            for start in range(0, len(slots), per_chunk):
                group = slots[start : start + per_chunk]
                stacked = self._stacked_scan(
                    group, unique_indices, outcomes, threshold, max_state, n
                )
                for slot, predictions in zip(group, stacked):
                    unique_predictions[slot] = predictions
        return [unique_predictions[slot] for slot in self._slot_of_spec]

    def _stacked_scan(
        self,
        group: list[int],
        unique_indices: list[np.ndarray],
        outcomes: np.ndarray,
        threshold: int,
        max_state: int,
        n: int,
    ) -> list[np.ndarray]:
        """One stacked per-segment-initial scan over several configs,
        advancing each config's carried PHT."""
        count = len(group)
        stride = 1 << max(self._unique[slot].pht_index_bits for slot in group)
        keys = np.empty(count * n, dtype=np.int64)
        init = np.empty(count * n, dtype=np.uint8)
        for i, slot in enumerate(group):
            indices = unique_indices[slot]
            keys[i * n : (i + 1) * n] = indices + i * stride
            init[i * n : (i + 1) * n] = self._tables[slot][indices]
        inputs = np.tile(outcomes, count)

        order = stable_key_order(keys, (count * stride - 1).bit_length())
        sorted_keys = keys[order]
        starts = np.empty(count * n, dtype=bool)
        starts[0] = True
        starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
        sorted_inputs = inputs[order]

        state_before = segmented_saturating_scan(
            sorted_inputs, starts, init[order], max_state
        )

        # Advance every touched counter past its final step in the chunk.
        last = _last_in_group(starts)
        final = state_before[last].astype(np.int64) + np.where(
            sorted_inputs[last].astype(bool), 1, -1
        )
        final = np.clip(final, 0, max_state).astype(np.uint8)
        last_keys = sorted_keys[last]
        for i, slot in enumerate(group):
            mask = (last_keys >= i * stride) & (last_keys < (i + 1) * stride)
            self._tables[slot][last_keys[mask] - i * stride] = final[mask]

        predictions = np.empty(count * n, dtype=np.uint8)
        predictions[order] = (state_before >= threshold).astype(np.uint8)
        return [predictions[i * n : (i + 1) * n] for i in range(count)]


def _check_workers(workers) -> None:
    """Validate the retired ``workers=`` keyword: ``None``, ``"auto"``
    or a positive count, as before; the value itself is unused."""
    if workers is None or workers == "auto":
        return
    try:
        count = int(workers)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ConfigurationError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )


def simulate_batched_stream(
    predictors,
    chunks: Iterable,
    *,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    trace_name: str | None = None,
    workers: int | str | None = None,
    backend: str | None = None,
) -> list[SimulationResult]:
    """Streaming counterpart of :func:`repro.engine.simulate_batched`.

    Bit-identical results with peak memory O(chunk × configs-per-pass)
    instead of O(trace).  ``backend`` picks the route exactly as in
    :func:`~repro.engine.simulate_batched`: a compiled backend runs the
    ``twolevel_step`` kernel per unique geometry and chunk
    (:class:`~repro.engine.batched.CompiledBatch`), ``python`` the
    stacked numpy scans of :class:`BatchedStream`.  ``workers`` is
    still accepted and validated (a positive count or ``"auto"``) but
    changes nothing: the sweep runs on the calling thread.
    """
    _check_workers(workers)
    if max_chunk_elements < 1:
        raise ConfigurationError("max_chunk_elements must be positive")
    predictors = list(predictors)
    driver = compiled_batch(predictors, backend)
    if driver is None:
        driver = BatchedStream(predictors, max_chunk_elements=max_chunk_elements)
    accumulator = _StreamAccumulator(len(predictors))
    name = trace_name
    for chunk in chunks:
        pcs, outcomes, chunk_name = _as_columns(chunk)
        if name is None and chunk_name:
            name = chunk_name
        if len(pcs) == 0:
            continue
        all_predictions = driver.feed(pcs, outcomes)
        accumulator.add(
            pcs, [predictions != outcomes for predictions in all_predictions]
        )
    pcs, executions, misses = accumulator.columns()
    return [
        SimulationResult(
            pcs,
            executions,
            miss_counts,
            predictor_name=predictor.name,
            trace_name=name or "",
        )
        for predictor, miss_counts in zip(predictors, misses)
    ]


def simulate_sweep_stream(
    chunks: Iterable,
    *,
    kinds=("pas", "gas"),
    history_lengths=None,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    trace_name: str | None = None,
    workers: int | str | None = None,
    backend: str | None = None,
):
    """Streaming counterpart of :func:`repro.engine.batched.simulate_sweep`.

    The paper's full PAs/GAs sweep over a trace too big to hold in
    memory: one pass over the chunk iterator, results bit-identical to
    the in-memory sweep.  ``workers`` and ``backend`` as in
    :func:`simulate_batched_stream` (``workers`` is validated, unused).
    """
    from ..predictors.paper_configs import HISTORY_LENGTHS, paper_predictor
    from .batched import BatchedSweepResult

    if history_lengths is None:
        history_lengths = tuple(HISTORY_LENGTHS)
    keys = [(kind, int(k)) for kind in kinds for k in history_lengths]
    predictors = [paper_predictor(kind, k) for kind, k in keys]
    results = simulate_batched_stream(
        predictors,
        chunks,
        max_chunk_elements=max_chunk_elements,
        trace_name=trace_name,
        workers=workers,
        backend=backend,
    )

    miss_counts: dict[tuple[str, int], np.ndarray] = {}
    names: dict[tuple[str, int], str] = {}
    pcs = np.zeros(0, dtype=np.int64)
    executions = np.zeros(0, dtype=np.int64)
    resolved_name = trace_name or ""
    for key, result in zip(keys, results):
        pcs, executions = result.pcs, result.executions
        resolved_name = result.trace_name
        miss_counts[key] = result.mispredictions
        names[key] = result.predictor_name
    return BatchedSweepResult(resolved_name, pcs, executions, miss_counts, names)
