"""Chunk-split invariance of the streaming sweep and the scan algebra under it.

The intra-trace worker pool is gone (the compiled ``twolevel_step``
sweep replaced it), but the contracts it was held to remain and are
pinned here.  The algebra layer: the interned clamp monoid the numpy
fallback composes narrow counters with (step/composition laws,
associativity), its segmented id scan replaying correctly from *any*
entry state, and the carried global history register (feeding two
chunks equals feeding their concatenation).  The pipeline layer:
``simulate_batched_stream(..., workers=N)`` — ``workers`` is still
accepted and validated but changes nothing — is bit-identical to the
in-memory engine for every worker count and chunk split, including
one-record chunks and a single chunk, on the compiled path and on the
numpy fallback alike.
"""

import itertools

import numpy as np
import pytest

from repro.engine.batched import simulate_batched, simulate_sweep
from repro.engine.scan import _clamp_monoid, _monoid_after_ids, segmented_saturating_scan
from repro.engine.streaming import (
    _GlobalHistoryState,
    simulate_batched_stream,
    simulate_sweep_stream,
)
from repro.errors import ConfigurationError
from repro.spec import BimodalSpec, TwoLevelSpec
from repro.trace.stream import Trace

WORKER_COUNTS = (1, 2, 4)
CHUNK_LENGTHS = (1, 7, 997, 1 << 20)
# ``None`` resolves like every caller does (compiled when available);
# ``python`` forces the numpy scans.
STREAM_BACKENDS = (None, "python")


def make_trace(n=3000, seed=7, static=90, name="parallel-test"):
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, static, n) * 4 + 0x8000
    outcomes = np.zeros(n, dtype=np.uint8)
    state: dict[int, int] = {}
    noise = rng.random(n)
    for i in range(n):
        pc = int(pcs[i])
        s = state.get(pc, pc & 0x7)
        outcomes[i] = 1 if (((s >> 2) ^ s) & 1) or noise[i] < 0.2 else 0
        state[pc] = ((s << 1) | int(outcomes[i])) & 0xFF
    return Trace(pcs, outcomes, name=name)


TRACE = make_trace()


def chunks_of(trace, k):
    for start in range(0, len(trace), k):
        yield trace[start : start + k]


def clamp_word(word, state, max_state):
    for step in word:
        state = max(state - 1, 0) if step == 0 else min(state + 1, max_state)
    return state


class TestClampMonoid:
    @pytest.mark.parametrize("max_state", (1, 3, 7))
    def test_steps_and_composition_match_brute_force(self, max_state):
        monoid = _clamp_monoid(max_state)
        rng = np.random.default_rng(max_state)
        for _ in range(50):
            word = rng.integers(0, 2, rng.integers(1, 12)).tolist()
            fid = monoid.step_ids[word[0]]
            for step in word[1:]:
                fid = monoid.compose[monoid.step_ids[step], fid]
            for init in range(max_state + 1):
                assert monoid.values[fid, init] == clamp_word(word, init, max_state)

    def test_associativity_exhaustive_small(self):
        monoid = _clamp_monoid(3)
        ids = range(len(monoid.values))
        for a, b, c in itertools.product(ids, repeat=3):
            assert (
                monoid.compose[monoid.compose[c, b], a]
                == monoid.compose[c, monoid.compose[b, a]]
            )


class TestSegmentedMonoidScan:
    @pytest.mark.parametrize("max_state", (1, 3, 7))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_init_independent_replay(self, max_state, seed):
        rng = np.random.default_rng(seed)
        n = 300
        taken = rng.integers(0, 2, n).astype(np.uint8)
        starts = np.zeros(n, dtype=bool)
        starts[0] = True
        starts[rng.integers(1, n, 12)] = True
        after_ids = _monoid_after_ids(taken, starts, max_state)
        monoid = _clamp_monoid(max_state)
        for init in range(max_state + 1):
            before = segmented_saturating_scan(taken, starts, init, max_state)
            state = init
            for i in range(n):
                if starts[i]:
                    state = init
                assert before[i] == state
                state = clamp_word([int(taken[i])], state, max_state)
                assert monoid.values[after_ids[i], init] == state

    def test_empty_input(self):
        before = segmented_saturating_scan(
            np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=bool), 1, 3
        )
        assert len(before) == 0


class TestHistoryEffects:
    @pytest.mark.parametrize("bits", (1, 4, 12))
    @pytest.mark.parametrize("seed", (0, 3))
    def test_compose_equals_concatenate(self, bits, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a = rng.integers(0, 2, rng.integers(0, 20)).astype(np.uint8)
            b = rng.integers(0, 2, rng.integers(0, 20)).astype(np.uint8)
            split = _GlobalHistoryState(bits)
            windows = np.concatenate([split.windows(a), split.windows(b)])
            whole = _GlobalHistoryState(bits)
            assert np.array_equal(windows, whole.windows(np.concatenate([a, b])))
            assert split.value == whole.value

    @pytest.mark.parametrize("bits", (1, 4, 12))
    def test_apply_matches_shift_register(self, bits):
        rng = np.random.default_rng(bits)
        mask = (1 << bits) - 1
        for _ in range(40):
            outcomes = rng.integers(0, 2, rng.integers(0, 20)).astype(np.uint8)
            register = _GlobalHistoryState(bits)
            register.value = int(rng.integers(0, mask + 1))
            expected = register.value
            windows = register.windows(outcomes)
            for i, bit in enumerate(outcomes):
                assert windows[i] == expected
                expected = ((expected << 1) | int(bit)) & mask
            assert register.value == expected

    def test_zero_bits_register_absorbs_everything(self):
        register = _GlobalHistoryState(0)
        windows = register.windows(np.array([1, 0, 1], dtype=np.uint8))
        assert not windows.any()
        assert register.value == 0


class TestResolveWorkers:
    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            simulate_batched_stream([BimodalSpec().build()], iter(()), workers=0)
        with pytest.raises(ConfigurationError):
            simulate_batched_stream([BimodalSpec().build()], iter(()), workers="lots")


SWEEP_SPECS = [
    BimodalSpec(entries=1 << 10),
    TwoLevelSpec(history_kind="global", history_bits=8, index_scheme="xor"),
    TwoLevelSpec(history_kind="global", history_bits=6, index_scheme="concat"),
    TwoLevelSpec(history_kind="per-address", history_bits=6, bht_entries=64),
    TwoLevelSpec(
        history_kind="per-address",
        history_bits=10,
        bht_entries=128,
        index_scheme="xor",
    ),
    TwoLevelSpec(history_kind="global", history_bits=0),
]


class TestParallelSweepBitIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunk_len", CHUNK_LENGTHS)
    def test_matches_in_memory_batched(self, workers, chunk_len):
        base = simulate_batched([spec.build() for spec in SWEEP_SPECS], TRACE)
        for backend in STREAM_BACKENDS:
            results = simulate_batched_stream(
                [spec.build() for spec in SWEEP_SPECS],
                chunks_of(TRACE, chunk_len),
                workers=workers,
                backend=backend,
            )
            for expected, got in zip(base, results):
                assert np.array_equal(got.pcs, expected.pcs)
                assert np.array_equal(got.executions, expected.executions)
                assert np.array_equal(got.mispredictions, expected.mispredictions)

    def test_small_chunk_budget_forces_config_batches(self):
        base = simulate_batched([spec.build() for spec in SWEEP_SPECS], TRACE)
        results = simulate_batched_stream(
            [spec.build() for spec in SWEEP_SPECS],
            chunks_of(TRACE, 997),
            workers=2,
            max_chunk_elements=1 << 11,
            backend="python",
        )
        for expected, got in zip(base, results):
            assert np.array_equal(got.mispredictions, expected.mispredictions)

    @pytest.mark.parametrize("workers", (2, "auto"))
    def test_workers_param_on_streaming_entry_points(self, workers):
        base = simulate_batched([spec.build() for spec in SWEEP_SPECS], TRACE)
        results = simulate_batched_stream(
            [spec.build() for spec in SWEEP_SPECS],
            chunks_of(TRACE, 512),
            workers=workers,
        )
        for expected, got in zip(base, results):
            assert np.array_equal(got.mispredictions, expected.mispredictions)

    def test_env_workers_used_by_default(self, monkeypatch):
        # A leftover REPRO_SWEEP_WORKERS from the retired worker pool is
        # ignored: the default path runs and its bytes are unchanged.
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        base = simulate_batched([spec.build() for spec in SWEEP_SPECS], TRACE)
        results = simulate_batched_stream(
            [spec.build() for spec in SWEEP_SPECS], chunks_of(TRACE, 512)
        )
        for expected, got in zip(base, results):
            assert np.array_equal(got.mispredictions, expected.mispredictions)

    def test_sweep_stream_parallel_matches_sweep(self):
        lengths = (2, 4, 6)
        base = simulate_sweep(TRACE, history_lengths=lengths)
        result = simulate_sweep_stream(
            chunks_of(TRACE, 512), history_lengths=lengths, workers=2
        )
        for key in base.keys():
            assert np.array_equal(
                result.mispredictions(*key), base.mispredictions(*key)
            )

    def test_unsupported_predictors_fall_back_sequential(self):
        # Wide counters take the arithmetic clamp scan on the numpy
        # fallback and the kernel's 1-8-bit path when compiled: either
        # way, workers>1 must change neither the route nor the results.
        wide = TwoLevelSpec(history_bits=4, counter_bits=4)
        base = simulate_batched([wide.build()], TRACE)
        for backend in STREAM_BACKENDS:
            results = simulate_batched_stream(
                [wide.build()], chunks_of(TRACE, 512), workers=4, backend=backend
            )
            assert np.array_equal(
                results[0].mispredictions, base[0].mispredictions
            )

    def test_empty_trace(self):
        predictors = [spec.build() for spec in SWEEP_SPECS]
        results = simulate_batched_stream(predictors, iter(()), workers=2)
        assert len(results) == len(SWEEP_SPECS)
        for result in results:
            assert result.total_executions == 0
