"""Batched multi-configuration sweep engine.

The paper's history sweep simulates 2 predictor kinds × 17 history
lengths over every benchmark trace.  Running each configuration through
:func:`~repro.engine.vectorized.simulate_vectorized` independently
repeats three expensive steps 34 times per trace: the ``np.unique``
PC encoding, the sliding-window history reconstruction, and the
argsort + segmented-scan pipeline.  This engine shares all of them:

1. **Histories once, masked per length.**  The k-bit history is the
   low k bits of the K-bit one (K ≥ k), so one window computation at
   the longest requested length serves every shorter length.  Global
   histories need exactly one window; per-address histories need one
   per distinct BHT geometry (the paper's PAs budget changes BHT entry
   counts with k, giving ~5 groups instead of 16 windows).
2. **One PC encoding.**  ``np.unique`` over the trace runs once and its
   codes are reused for every configuration's per-PC miss attribution.
3. **Stacked segmented scans.**  All configurations' (PHT index,
   outcome) streams are laid out in a single ``(config, n)`` stack with
   disjoint key ranges, so one stable argsort and one segmented
   saturating scan simulate every counter of every configuration —
   each Hillis–Steele doubling pass amortizes across the whole sweep.
   Stacks are chunked (``max_chunk_elements``) to bound peak memory.

Every prediction is bit-exact with simulating each configuration
separately (and hence with the reference engine); the equivalence is
pinned by ``tests/test_engine_batched.py``.

**Compiled route.**  When :func:`~repro.engine.backend.resolve_backend`
gives a compiled backend (``cext`` or ``numba``),
:func:`simulate_batched` skips the numpy scans entirely: each unique
geometry runs the per-record ``twolevel_step`` kernel
(:mod:`repro.engine.compiled`) once over the trace, which is several
times faster than the scans (see ``docs/PERFORMANCE.md``).  The numpy
pipeline above is the fallback for the ``python`` backend and stays
available directly as :func:`predictions_batched`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..predictors.bimodal import BimodalPredictor
from ..predictors.paper_configs import HISTORY_LENGTHS, paper_predictor
from ..predictors.twolevel import TwoLevelPredictor
from ..trace.stream import Trace
from .backend import _kernel_table, _KernelStream, resolve_backend
from .results import SimulationResult
from .scan import segmented_saturating_scan, stable_key_order
from .vectorized import _bht_window, _global_window, _pht_indices

__all__ = [
    "CompiledBatch",
    "compiled_batch",
    "predictions_batched",
    "simulate_batched",
    "simulate_sweep",
    "supports_batched",
    "BatchedSweepResult",
]

#: Default bound on elements per stacked scan.  Small chunks win twice:
#: the sort/scan working set stays cache-resident, and short traces
#: still stack many configurations per chunk so the doubling passes
#: amortize across the sweep (measured optimum ~128k elements; larger
#: chunks only add memory traffic).
DEFAULT_MAX_CHUNK_ELEMENTS = 1 << 17


def supports_batched(predictor) -> bool:
    """True if ``predictor`` can join a batched multi-config pass."""
    return isinstance(predictor, (TwoLevelPredictor, BimodalPredictor))


def predictions_batched(
    predictors,
    trace: Trace,
    *,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
) -> list[np.ndarray]:
    """Per-step predictions for many two-level predictors in one pass.

    Bit-exact with calling
    :func:`~repro.engine.vectorized.predictions_vectorized` on each
    predictor separately, but history windows, sorts and scans are
    shared across the whole batch.

    Parameters
    ----------
    predictors:
        Two-level family predictors (:class:`TwoLevelPredictor` or
        :class:`BimodalPredictor`).  Duplicated geometries are detected
        and simulated once.
    trace:
        Branch stream in program order.
    max_chunk_elements:
        Upper bound on ``len(predictors_in_chunk) * len(trace)`` per
        stacked scan, bounding peak memory.
    """
    if max_chunk_elements < 1:
        raise ConfigurationError("max_chunk_elements must be positive")
    specs = [_spec_of(p) for p in predictors]
    n = len(trace)
    if n == 0:
        return [np.zeros(0, dtype=np.uint8) for _ in specs]

    pcs = trace.pcs
    outcomes = trace.outcomes.astype(np.int64)

    # -- shared history windows (longest length per geometry, masked down)
    global_bits = max((s.history_bits for s in specs if s.history_kind == "global"), default=0)
    global_hist = _global_window(outcomes, global_bits) if global_bits else None
    bht_bits: dict[int, int] = {}
    for s in specs:
        if s.history_kind == "per-address" and s.history_bits > 0:
            bht_bits[s.bht_entries] = max(bht_bits.get(s.bht_entries, 0), s.history_bits)
    bht_hist = {
        entries: _bht_window(pcs, outcomes, bits, entries)
        for entries, bits in bht_bits.items()
    }

    # -- per-config PHT index arrays, deduplicating identical geometries
    # (the paper's PAs-h0 and GAs-h0 are the same machine).
    slot_of_spec: list[int] = []
    unique_indices: list[np.ndarray] = []
    unique_specs: list[_Spec] = []
    slot_by_key: dict[tuple, int] = {}
    for s in specs:
        key = s.dedupe_key()
        slot = slot_by_key.get(key)
        if slot is None:
            if s.history_bits == 0:
                hist = np.zeros(n, dtype=np.int64)
            elif s.history_kind == "global":
                hist = global_hist & ((1 << s.history_bits) - 1)
            else:
                hist = bht_hist[s.bht_entries] & ((1 << s.history_bits) - 1)
            slot = len(unique_indices)
            slot_by_key[key] = slot
            unique_indices.append(
                _pht_indices(
                    pcs,
                    hist,
                    index_scheme=s.index_scheme,
                    history_bits=s.history_bits,
                    pht_index_bits=s.pht_index_bits,
                )
            )
            unique_specs.append(s)
        slot_of_spec.append(slot)

    # -- stacked segmented scans, grouped by counter width and chunked
    unique_predictions: list[np.ndarray | None] = [None] * len(unique_specs)
    outcomes_u8 = trace.outcomes
    by_counter_bits: dict[int, list[int]] = {}
    for slot, s in enumerate(unique_specs):
        by_counter_bits.setdefault(s.counter_bits, []).append(slot)
    per_chunk = max(1, max_chunk_elements // n)
    for counter_bits, slots in by_counter_bits.items():
        initial = 1 << (counter_bits - 1)  # weakly taken
        max_state = (1 << counter_bits) - 1
        for start in range(0, len(slots), per_chunk):
            chunk = slots[start : start + per_chunk]
            stacked = _stacked_scan(
                [unique_indices[slot] for slot in chunk],
                [unique_specs[slot].pht_index_bits for slot in chunk],
                outcomes_u8,
                initial=initial,
                max_state=max_state,
            )
            for slot, predictions in zip(chunk, stacked):
                unique_predictions[slot] = predictions

    return [unique_predictions[slot] for slot in slot_of_spec]


def simulate_batched(
    predictors,
    trace: Trace,
    *,
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    backend: str | None = None,
) -> list[SimulationResult]:
    """Cold-start simulation of many predictors with per-PC attribution.

    Each returned result is exactly what ``simulate_reference`` (or
    ``simulate_vectorized``) would produce for that predictor, but the
    PC encoding is shared across the batch.  ``backend`` (default:
    ``REPRO_ENGINE_BACKEND``, else auto-detect) picks the compiled
    per-record kernel; the ``python`` backend runs the shared numpy
    scans of :func:`predictions_batched` instead.
    """
    if max_chunk_elements < 1:
        raise ConfigurationError("max_chunk_elements must be positive")
    predictors = list(predictors)
    batch = compiled_batch(predictors, backend)
    if batch is None:
        all_predictions = predictions_batched(
            predictors, trace, max_chunk_elements=max_chunk_elements
        )
    else:
        all_predictions = batch.feed(trace.pcs, trace.outcomes)
    unique_pcs, codes = np.unique(trace.pcs, return_inverse=True)
    executions = np.bincount(codes, minlength=len(unique_pcs)).astype(np.int64)
    results = []
    for predictor, predictions in zip(predictors, all_predictions):
        # Mispredictions are 0/1, so counting the missed codes directly
        # beats a float-weighted bincount over the whole trace.
        miss_counts = np.bincount(
            codes[predictions != trace.outcomes], minlength=len(unique_pcs)
        ).astype(np.int64)
        results.append(
            SimulationResult(
                unique_pcs,
                executions,
                miss_counts,
                predictor_name=predictor.name,
                trace_name=trace.name,
            )
        )
    return results


class BatchedSweepResult:
    """Per-(kind, history length) simulation results over one trace.

    All results share one sorted unique-PC axis and one executions
    column; :meth:`result` materializes the standard
    :class:`SimulationResult` view for a configuration.
    """

    def __init__(
        self,
        trace_name: str,
        pcs: np.ndarray,
        executions: np.ndarray,
        miss_counts: dict[tuple[str, int], np.ndarray],
        predictor_names: dict[tuple[str, int], str],
    ) -> None:
        self.trace_name = trace_name
        self.pcs = pcs
        self.executions = executions
        self._miss_counts = miss_counts
        self._predictor_names = predictor_names

    def keys(self) -> list[tuple[str, int]]:
        """The simulated (kind, history length) pairs."""
        return list(self._miss_counts)

    def mispredictions(self, kind: str, history_bits: int) -> np.ndarray:
        """Per-PC misprediction counts for one configuration."""
        try:
            return self._miss_counts[(kind, history_bits)]
        except KeyError:
            raise ConfigurationError(
                f"sweep did not simulate ({kind!r}, {history_bits})"
            ) from None

    def result(self, kind: str, history_bits: int) -> SimulationResult:
        """The full :class:`SimulationResult` for one configuration."""
        return SimulationResult(
            self.pcs,
            self.executions,
            self.mispredictions(kind, history_bits),
            predictor_name=self._predictor_names[(kind, history_bits)],
            trace_name=self.trace_name,
        )


def simulate_sweep(
    trace: Trace,
    *,
    kinds=("pas", "gas"),
    history_lengths=tuple(HISTORY_LENGTHS),
    max_chunk_elements: int = DEFAULT_MAX_CHUNK_ELEMENTS,
    backend: str | None = None,
) -> BatchedSweepResult:
    """Simulate the paper's PAs/GAs sweep over ``trace`` in one pass.

    Bit-exact with simulating ``paper_predictor(kind, k)`` separately
    for every (kind, k), at a fraction of the cost (see
    ``docs/ENGINES.md``).  ``backend`` as in :func:`simulate_batched`.
    """
    keys = [(kind, int(k)) for kind in kinds for k in history_lengths]
    predictors = [paper_predictor(kind, k) for kind, k in keys]
    results = simulate_batched(
        predictors, trace, max_chunk_elements=max_chunk_elements, backend=backend
    )

    miss_counts: dict[tuple[str, int], np.ndarray] = {}
    names: dict[tuple[str, int], str] = {}
    pcs = np.zeros(0, dtype=np.int64)
    executions = np.zeros(0, dtype=np.int64)
    for key, result in zip(keys, results):
        pcs, executions = result.pcs, result.executions
        miss_counts[key] = result.mispredictions
        names[key] = result.predictor_name
    return BatchedSweepResult(trace.name, pcs, executions, miss_counts, names)


# -- internals ---------------------------------------------------------------


class _Spec:
    """Geometry of one two-level configuration, decoupled from the object."""

    __slots__ = (
        "history_kind",
        "history_bits",
        "pht_index_bits",
        "index_scheme",
        "bht_entries",
        "counter_bits",
    )

    def __init__(
        self, history_kind, history_bits, pht_index_bits, index_scheme, bht_entries, counter_bits
    ):
        self.history_kind = history_kind
        self.history_bits = history_bits
        self.pht_index_bits = pht_index_bits
        self.index_scheme = index_scheme
        self.bht_entries = bht_entries
        self.counter_bits = counter_bits

    def dedupe_key(self) -> tuple:
        # With zero history bits the history kind and BHT are irrelevant:
        # every variant is the same PC-indexed counter table.
        if self.history_bits == 0:
            return ("none", 0, self.pht_index_bits, self.index_scheme, None, self.counter_bits)
        return (
            self.history_kind,
            self.history_bits,
            self.pht_index_bits,
            self.index_scheme,
            self.bht_entries if self.history_kind == "per-address" else None,
            self.counter_bits,
        )


def _spec_of(predictor) -> _Spec:
    if isinstance(predictor, BimodalPredictor):
        return _Spec("global", 0, predictor.table.index_bits, "concat", None, predictor.table.bits)
    if isinstance(predictor, TwoLevelPredictor):
        return _Spec(
            predictor.history_kind,
            predictor.history_bits,
            predictor.pht_index_bits,
            predictor.index_scheme,
            predictor.bht.entries if predictor.bht is not None else None,
            predictor.pht.bits,
        )
    raise ConfigurationError(
        f"batched engine cannot simulate {type(predictor).__name__}; "
        "use simulate() per predictor"
    )


def _twolevel_stream(spec: _Spec, kernel) -> _KernelStream:
    """One geometry's ``twolevel_step`` params and cold-start flat state:
    weakly-taken PHT, zeroed BHT rows (a 1-element dummy without
    per-address history) and a zeroed global register.  The backing half
    of ``filter_step`` takes the same params and state."""
    per_address = spec.history_kind == "per-address" and spec.history_bits > 0
    bht_rows = spec.bht_entries if per_address else 1
    params = [
        1 if spec.history_kind == "per-address" else 0,
        1 if spec.index_scheme == "xor" else 0,
        spec.history_bits,
        (1 << spec.pht_index_bits) - 1,
        spec.pht_index_bits - spec.history_bits,
        bht_rows - 1,
        1 << (spec.counter_bits - 1),
        (1 << spec.counter_bits) - 1,
        (1 << spec.history_bits) - 1,
    ]
    state = (
        np.full(1 << spec.pht_index_bits, 1 << (spec.counter_bits - 1), dtype=np.uint8),
        np.zeros(bht_rows, dtype=np.int64),
    )
    return _KernelStream(kernel, [0], params, state)


class CompiledBatch:
    """Many two-level configurations advanced by the compiled
    ``twolevel_step`` kernel, one call per unique geometry per chunk.

    Same ``feed(pcs, outcomes) -> [predictions per predictor]``
    protocol as :class:`repro.engine.streaming.BatchedStream`: every
    configuration's PHT, BHT rows and global register are carried as
    flat arrays across calls, so a whole trace and any chunk split of it
    give identical predictions.  Identical geometries (the paper's
    PAs-h0 and GAs-h0) share one state, as in :func:`predictions_batched`.
    """

    def __init__(self, predictors, kernel) -> None:
        self._streams: list[_KernelStream] = []
        self._slot_of_spec: list[int] = []
        slot_by_key: dict[tuple, int] = {}
        for spec in (_spec_of(p) for p in predictors):
            key = spec.dedupe_key()
            slot = slot_by_key.get(key)
            if slot is None:
                slot = slot_by_key[key] = len(self._streams)
                self._streams.append(_twolevel_stream(spec, kernel))
            self._slot_of_spec.append(slot)

    def feed(self, pcs: np.ndarray, outcomes: np.ndarray) -> list[np.ndarray]:
        """Per-step predictions of every predictor for one chunk."""
        unique = [stream.feed(pcs, outcomes) for stream in self._streams]
        return [unique[slot] for slot in self._slot_of_spec]


def compiled_batch(predictors, backend: str | None = None) -> CompiledBatch | None:
    """A :class:`CompiledBatch` for ``predictors`` when ``backend``
    resolves to a compiled one (``cext``/``numba``), else None — the
    caller then runs the numpy scans."""
    resolved = resolve_backend(backend)
    if resolved == "python":
        return None
    return CompiledBatch(predictors, _kernel_table(resolved)["twolevel_step"])


def _stacked_scan(
    index_arrays: list[np.ndarray],
    pht_index_bits: list[int],
    outcomes: np.ndarray,
    *,
    initial: int,
    max_state: int,
) -> list[np.ndarray]:
    """Segmented counter scans for several configs in one stacked pass."""
    n = len(outcomes)
    count = len(index_arrays)
    # Offset each config into a disjoint key range so one stable sort
    # groups (config, PHT entry) segments while preserving time order.
    stride = 1 << max(pht_index_bits)
    keys = np.empty(count * n, dtype=np.int64)
    for i, indices in enumerate(index_arrays):
        keys[i * n : (i + 1) * n] = indices + i * stride
    inputs = np.tile(outcomes, count)

    order = stable_key_order(keys, (count * stride - 1).bit_length())
    sorted_keys = keys[order]
    starts = np.empty(count * n, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]

    state_before = segmented_saturating_scan(inputs[order], starts, initial, max_state)
    predictions = np.empty(count * n, dtype=np.uint8)
    predictions[order] = (state_before >= initial).astype(np.uint8)
    return [predictions[i * n : (i + 1) * n] for i in range(count)]
