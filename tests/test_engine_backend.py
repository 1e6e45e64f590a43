"""Bit-identity and selection contract of the compiled kernel backends.

The acceptance contract of the ``REPRO_ENGINE_BACKEND`` layer: for
every available backend, every reference-path family (YAGS, bi-mode,
filter, DHLF) and every chunk split — including one record per chunk
and one chunk for the whole trace — the compiled per-record kernels
produce byte-identical predictions to the stateful reference
predictors.  The two-level kernel behind the batched sweep is checked
by generation: random legal geometries, traces and chunk splits
(empty and 1-record chunks included) against the reference engine.
Selection rules (explicit argument > environment > auto,
unavailable-by-name raises, ``python`` always works) are pinned here
too; docs/PERFORMANCE.md documents the same matrix for users.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    simulate,
    simulate_batched,
    simulate_batched_stream,
    simulate_reference,
    simulate_stream,
    simulate_sweep,
    simulate_sweep_stream,
)
from repro.engine.backend import (
    BACKENDS,
    _kernel_table,
    backend_availability,
    compiled_stream,
    resolve_backend,
    supports_compiled,
)
from repro.engine.batched import CompiledBatch
from repro.engine.streaming import stream_simulator
from repro.errors import ConfigurationError
from repro.predictors.paper_configs import HISTORY_LENGTHS, paper_spec
from repro.session import Session
from repro.spec import (
    BimodalSpec,
    BiModeSpec,
    DhlfSpec,
    FilterSpec,
    StaticSpec,
    TwoLevelSpec,
    YagsSpec,
)
from repro.trace.stream import Trace

# One record per chunk, a small odd split, a prime split, and one
# chunk holding the whole trace (ISSUE 10's reconciliation grid).
CHUNK_LENGTHS = (1, 7, 997, 1 << 20)


def make_trace(n=3000, seed=23, static=120, name="backend-test"):
    """A trace with per-PC structure so every family actually learns."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, static, n) * 4 + 0x4000
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

# Every family with a compiled kernel, with non-default geometry so
# masks/tags/thresholds are exercised, plus filter over both supported
# backings (global/xor two-level and bimodal).
FAMILY_SPECS = {
    "yags": YagsSpec(),
    "yags-small": YagsSpec(
        history_bits=5, cache_index_bits=7, choice_index_bits=9, tag_bits=5
    ),
    "bimode": BiModeSpec(),
    "bimode-small": BiModeSpec(history_bits=5, direction_index_bits=8),
    "filter": FilterSpec(),
    "filter-bimodal": FilterSpec(backing=BimodalSpec(entries=256)),
    "filter-xor": FilterSpec(
        backing=TwoLevelSpec(
            history_kind="global", history_bits=8, index_scheme="xor"
        )
    ),
    "dhlf": DhlfSpec(),
    "dhlf-small": DhlfSpec(pht_index_bits=8, interval=64),
}


def available_backends():
    return [
        name for name, (usable, _) in backend_availability().items() if usable
    ]


def chunks_of(trace, k):
    for start in range(0, len(trace), k):
        yield trace[start : start + k]


def reference_predictions(spec, trace):
    stream = stream_simulator(spec.build(), engine="reference")
    return stream.feed(trace.pcs, trace.outcomes)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", sorted(FAMILY_SPECS))
    @pytest.mark.parametrize("chunk_len", CHUNK_LENGTHS)
    def test_predictions_identical_across_chunk_splits(
        self, backend, name, chunk_len
    ):
        spec = FAMILY_SPECS[name]
        expected = reference_predictions(spec, TRACE)
        stream = compiled_stream(spec.build(), backend)
        assert stream is not None, f"{name} should have a compiled kernel"
        got = np.concatenate(
            [
                stream.feed(chunk.pcs, chunk.outcomes)
                for chunk in chunks_of(TRACE, chunk_len)
            ]
        )
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", sorted(FAMILY_SPECS))
    def test_simulate_result_identical(self, backend, name):
        spec = FAMILY_SPECS[name]
        base = simulate(spec, TRACE, engine="reference")
        result = simulate(spec, TRACE, backend=backend)
        assert np.array_equal(result.pcs, base.pcs)
        assert np.array_equal(result.executions, base.executions)
        assert np.array_equal(result.mispredictions, base.mispredictions)

    @pytest.mark.parametrize("backend", available_backends())
    def test_simulate_stream_routes_to_kernels(self, backend):
        spec = FAMILY_SPECS["yags"]
        base = simulate(spec, TRACE, engine="reference")
        result = simulate_stream(spec, chunks_of(TRACE, 997), backend=backend)
        assert np.array_equal(result.mispredictions, base.mispredictions)


class TestBackendSelection:
    def test_python_always_available(self):
        availability = backend_availability()
        assert set(availability) == {"python", "numba", "cext"}
        assert availability["python"][0] is True

    def test_resolve_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
        assert resolve_backend() == "python"
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "")
        assert resolve_backend() in ("python", "numba", "cext")

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "nonsense")
        assert resolve_backend("python") == "python"

    def test_auto_resolves_to_concrete_backend(self):
        resolved = resolve_backend("auto")
        assert resolved in ("python", "numba", "cext")
        assert backend_availability()[resolved][0] if resolved != "python" else True

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            resolve_backend("fortran")

    def test_unavailable_backend_by_name_raises(self):
        for name in ("numba", "cext"):
            usable, _ = backend_availability()[name]
            if not usable:
                with pytest.raises(ConfigurationError, match="unavailable"):
                    resolve_backend(name)

    def test_env_backend_used_by_auto_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "python")
        base = simulate(FAMILY_SPECS["dhlf"], TRACE, engine="reference")
        result = simulate(FAMILY_SPECS["dhlf"], TRACE)
        assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_supports_compiled(self):
        assert supports_compiled(YagsSpec().build())
        assert supports_compiled(BiModeSpec().build())
        assert supports_compiled(DhlfSpec().build())
        assert supports_compiled(FilterSpec().build())
        assert not supports_compiled(StaticSpec().build())
        assert not supports_compiled(TwoLevelSpec(history_bits=4).build())
        assert compiled_stream(StaticSpec().build()) is None

    def test_backends_tuple_is_the_cli_contract(self):
        assert BACKENDS == ("auto", "python", "numba", "cext")


class TestSessionAndCliPlumbing:
    def test_session_backend_forwarded(self):
        base = simulate(FAMILY_SPECS["bimode"], TRACE, engine="reference")
        session = Session(backend="python")
        result = session.simulate(TRACE, FAMILY_SPECS["bimode"])
        assert np.array_equal(result.mispredictions, base.mispredictions)

    def test_session_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            Session(backend="fortran")

    def test_cli_backend_flag(self, capsys):
        from repro.cli import main

        spec = '{"kind": "dhlf", "pht_index_bits": 8, "interval": 64}'
        workload = '{"kind": "kernel", "name": "bubble_sort", "size": 32}'
        code = main(
            [
                "simulate",
                "--spec",
                spec,
                "--workload",
                workload,
                "--backend",
                "python",
            ]
        )
        assert code == 0
        with_backend = capsys.readouterr().out
        code = main(
            ["simulate", "--spec", spec, "--workload", workload,
             "--engine", "reference"]
        )
        assert code == 0
        assert capsys.readouterr().out == with_backend

    def test_cli_backends_command(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "available" in out


# -- the two-level sweep kernel: a generative differential oracle -------------

#: Kernel backends the oracle runs; numba joins only where it imports.
ORACLE_BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            not backend_availability()[name][0],
            reason=f"{name} unavailable: {backend_availability()[name][1]}",
        ),
    )
    for name in ("python", "numba", "cext")
]


@st.composite
def twolevel_specs(draw):
    """A legal two-level or bimodal spec, or one of the paper's 34."""
    family = draw(st.sampled_from(["two-level", "bimodal", "paper"]))
    if family == "paper":
        return paper_spec(
            draw(st.sampled_from(["pas", "gas"])), draw(st.sampled_from(HISTORY_LENGTHS))
        )
    counter_bits = draw(st.integers(1, 8))
    if family == "bimodal":
        return BimodalSpec(entries=1 << draw(st.integers(0, 12)), counter_bits=counter_bits)
    history_bits = draw(st.integers(0, 16))
    index_scheme = draw(st.sampled_from(["concat", "xor"]))
    low = max(history_bits, 1) if index_scheme == "concat" else 1
    history_kind = draw(st.sampled_from(["global", "per-address"]))
    return TwoLevelSpec(
        history_kind=history_kind,
        history_bits=history_bits,
        pht_index_bits=draw(st.integers(low, 16)),
        index_scheme=index_scheme,
        bht_entries=1 << draw(st.integers(0, 10)) if history_kind == "per-address" else None,
        counter_bits=counter_bits,
    )


@st.composite
def oracle_traces(draw, max_len=400):
    """A spec95-model trace or a raw random one."""
    from repro.workloads.synthetic.spec95 import InputSet, make_population

    n = draw(st.integers(0, max_len))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        population = make_population(InputSet("gcc", f"oracle-{seed}", 0))
        return population.generate(n, name="spec95-model")
    rng = np.random.default_rng(seed)
    span = draw(st.sampled_from([4, 64, 1 << 20]))
    pcs = rng.integers(0, span, n) * 4 + 0x1000
    return Trace(pcs, rng.integers(0, 2, n).astype(np.uint8), name="random")


@st.composite
def chunk_splits(draw, trace):
    """``trace`` cut into chunks, empty and 1-record chunks included."""
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 7, 64, 257]), max_size=12))
    chunks, start = [], 0
    for size in sizes:
        chunks.append(trace[start : start + size])
        start = min(start + size, len(trace))
    chunks.append(trace[start:])
    return chunks


class TestTwoLevelKernelOracle:
    @pytest.mark.parametrize("backend", ORACLE_BACKENDS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_reference(self, backend, data):
        specs = data.draw(st.lists(twolevel_specs(), min_size=1, max_size=3))
        trace = data.draw(oracle_traces())
        chunks = data.draw(chunk_splits(trace))
        batch = CompiledBatch(
            [spec.build() for spec in specs], _kernel_table(backend)["twolevel_step"]
        )
        fed = [batch.feed(chunk.pcs, chunk.outcomes) for chunk in chunks]
        for i, spec in enumerate(specs):
            got = np.concatenate([predictions[i] for predictions in fed])
            assert np.array_equal(got, reference_predictions(spec, trace)), spec

    @pytest.mark.parametrize("backend", ORACLE_BACKENDS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_batched_entry_points_match_reference(self, backend, data):
        specs = data.draw(st.lists(twolevel_specs(), min_size=1, max_size=3))
        trace = data.draw(oracle_traces())
        chunks = data.draw(chunk_splits(trace))
        predictors = [spec.build() for spec in specs]
        in_memory = simulate_batched(predictors, trace, backend=backend)
        streamed = simulate_batched_stream(predictors, chunks, backend=backend)
        for spec, a, b in zip(specs, in_memory, streamed):
            want = simulate_reference(spec.build(), trace)
            for got in (a, b):
                assert np.array_equal(got.pcs, want.pcs)
                assert np.array_equal(got.executions, want.executions)
                assert np.array_equal(got.mispredictions, want.mispredictions), spec


def _sweep_bytes(sweep) -> list[bytes]:
    parts = [sweep.pcs.tobytes(), sweep.executions.tobytes()]
    for key in sorted(sweep.keys()):
        parts.append(sweep.mispredictions(*key).tobytes())
        parts.append(sweep.result(*key).predictor_name.encode())
    return parts


@pytest.mark.skipif(
    resolve_backend("auto") == "python", reason="no compiled backend on this host"
)
class TestSweepFallbackParity:
    """The paper sweep gives the same bytes on the compiled route and on
    the numpy fallback (``REPRO_ENGINE_BACKEND=python``)."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_sweeps_identical_on_both_routes(self, data):
        import os

        trace = data.draw(oracle_traces(max_len=300))
        chunks = data.draw(chunk_splits(trace))
        routes = []
        for backend in (None, "python"):
            previous = os.environ.get("REPRO_ENGINE_BACKEND")
            if backend is not None:
                os.environ["REPRO_ENGINE_BACKEND"] = backend
            try:
                routes.append(
                    (
                        _sweep_bytes(simulate_sweep(trace)),
                        _sweep_bytes(simulate_sweep_stream(chunks, trace_name=trace.name)),
                    )
                )
            finally:
                if previous is None:
                    os.environ.pop("REPRO_ENGINE_BACKEND", None)
                else:
                    os.environ["REPRO_ENGINE_BACKEND"] = previous
        (compiled, compiled_stream_), (numpy_, numpy_stream) = routes
        assert compiled == numpy_ == compiled_stream_ == numpy_stream


class TestRetiredWorkersKeyword:
    """``workers=`` survives on the streaming sweep entry points as a
    validated no-op (callers that still pass it keep working)."""

    @pytest.mark.parametrize("workers", [None, 1, 2, "auto"])
    def test_workers_keyword_accepted_and_inert(self, workers):
        trace = make_trace(n=500)
        expected = _sweep_bytes(simulate_sweep(trace))
        sweep = simulate_sweep_stream(
            chunks_of(trace, 97), trace_name=trace.name, workers=workers
        )
        assert _sweep_bytes(sweep) == expected

    @pytest.mark.parametrize("workers", [0, -2, "many", 1.5j])
    def test_workers_keyword_still_validated(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            simulate_sweep_stream(chunks_of(make_trace(n=50), 10), workers=workers)
