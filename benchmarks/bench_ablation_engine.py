"""Ablation: simulation engines (throughput + exactness).

DESIGN.md commits to exactly-equivalent fast paths; this bench measures
the speedups and re-checks bit-exactness on a realistic trace:

* vectorized vs reference, single configuration,
* batched multi-config sweep — numpy scans and the compiled two-level
  kernel — vs per-configuration vectorized runs (all 34 paper
  configurations in one pass),
* the vectorized combining families (agree / tournament / hybrid) that
  previously forced the reference engine.
"""

import numpy as np
import pytest

from repro.engine import (
    simulate_reference,
    simulate_sweep,
    simulate_vectorized,
)
from repro.engine.backend import resolve_backend
from repro.predictors import (
    AgreePredictor,
    TournamentPredictor,
    make_gshare,
    paper_gas,
    paper_pas,
    paper_predictor,
)
from repro.predictors.paper_configs import HISTORY_LENGTHS
from repro.workloads.synthetic import SPEC95_INPUTS, input_trace


@pytest.fixture(scope="module")
def trace():
    go = next(i for i in SPEC95_INPUTS if i.benchmark == "go")
    return input_trace(go, scale=0.25)


@pytest.mark.parametrize("kind,history", [("gas", 8), ("pas", 8)])
def test_engines_agree_exactly(trace, kind, history):
    make = paper_gas if kind == "gas" else paper_pas
    ref = simulate_reference(make(history), trace)
    vec = simulate_vectorized(make(history), trace)
    assert ref.total_mispredictions == vec.total_mispredictions
    assert np.array_equal(ref.mispredictions, vec.mispredictions)


def test_sweep_engines_agree_exactly(trace):
    sweep = simulate_sweep(trace)
    for kind in ("pas", "gas"):
        for k in (0, 4, 12, 16):
            vec = simulate_vectorized(paper_predictor(kind, k), trace)
            assert np.array_equal(
                sweep.result(kind, k).mispredictions, vec.mispredictions
            )


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_engine_throughput(benchmark, trace, engine):
    simulate = simulate_vectorized if engine == "vectorized" else simulate_reference
    benchmark.group = "engine-throughput"
    result = benchmark(lambda: simulate(paper_gas(8), trace))
    assert result.total_executions == len(trace)


@pytest.mark.parametrize("mode", ["batched", "compiled", "per-config"])
def test_sweep_throughput(benchmark, trace, mode):
    """The paper's full 34-configuration sweep over one trace: the numpy
    batched scans (the ``python`` backend's route), the compiled
    two-level kernel, and per-configuration vectorized runs."""
    benchmark.group = "sweep-throughput"
    if mode in ("batched", "compiled"):
        if mode == "batched":
            backend = "python"
        else:
            backend = resolve_backend("auto")
            if backend == "python":
                pytest.skip("no compiled backend available (numba and cext both absent)")
        result = benchmark(lambda: simulate_sweep(trace, backend=backend))
        misses = result.result("gas", 8).total_mispredictions
        assert misses == simulate_vectorized(paper_gas(8), trace).total_mispredictions
        benchmark.extra_info["backend"] = backend
    else:
        def per_config():
            return [
                simulate_vectorized(paper_predictor(kind, k), trace)
                for kind in ("pas", "gas")
                for k in HISTORY_LENGTHS
            ]
        results = benchmark(per_config)
        misses = results[len(HISTORY_LENGTHS) + 8].total_mispredictions
    assert misses > 0


@pytest.mark.parametrize(
    "family",
    ["agree", "tournament"],
)
def test_combining_family_throughput(benchmark, trace, family):
    """Vectorized combining predictors (previously reference-only)."""
    benchmark.group = "combining-throughput"
    if family == "agree":
        make = lambda: AgreePredictor(12)
    else:
        make = lambda: TournamentPredictor(
            make_gshare(12, pht_index_bits=13), paper_pas(6)
        )
    predictor = make()
    result = benchmark(lambda: simulate_vectorized(predictor, trace))
    ref = simulate_reference(make(), trace)
    assert result.total_mispredictions == ref.total_mispredictions
