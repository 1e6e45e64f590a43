"""Compiled kernel backends against the reference path.

Measures the ``REPRO_ENGINE_BACKEND`` layer against the stateful
reference path it replaces (see docs/PERFORMANCE.md): per-record
kernel throughput for every *available* backend on one reference-path
family (YAGS) plus the stateful reference loop — the compiled backends
must be ≥ 4× the reference path.  The compiled two-level sweep is
measured next to its numpy fallback by ``sweep_throughput`` in
``bench_ablation_engine.py``.

Every timed body re-checks bit-exactness against the reference
engine, so a snapshot can never record a fast wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate, simulate_reference
from repro.engine.backend import backend_availability
from repro.spec import YagsSpec
from repro.workloads.synthetic import SPEC95_INPUTS, input_trace

#: Compiled per-record kernels must beat the stateful reference loop by
#: at least this factor (the ISSUE 10 acceptance bar).
COMPILED_SPEEDUP_FLOOR = 4.0


def available_backends() -> list[str]:
    return [
        name for name, (usable, _) in backend_availability().items() if usable
    ]


@pytest.fixture(scope="module")
def trace():
    go = next(i for i in SPEC95_INPUTS if i.benchmark == "go")
    return input_trace(go, scale=0.25)


@pytest.fixture(scope="module")
def yags_reference(trace):
    return simulate_reference(YagsSpec().build(), trace)


def test_backends_bit_identical(trace, yags_reference):
    for backend in available_backends():
        result = simulate(YagsSpec(), trace, backend=backend)
        assert np.array_equal(
            result.mispredictions, yags_reference.mispredictions
        )


@pytest.mark.parametrize("backend", ["reference", *available_backends()])
def test_backend_throughput(benchmark, trace, yags_reference, backend):
    """Per-record YAGS throughput: reference loop vs each kernel backend."""
    benchmark.group = "backend-throughput"
    spec = YagsSpec()
    if backend == "reference":
        result = benchmark(lambda: simulate_reference(spec.build(), trace))
    else:
        result = benchmark(lambda: simulate(spec, trace, backend=backend))
    assert result.total_mispredictions == yags_reference.total_mispredictions
    benchmark.extra_info["records"] = len(trace)


def test_compiled_speedup_floor(trace, yags_reference):
    """The fastest compiled backend clears the 4× acceptance bar.

    Timed by hand (not pytest-benchmark) so the assertion also runs
    under plain pytest; the snapshot numbers come from
    ``test_backend_throughput`` above.
    """
    import time

    compiled = [b for b in available_backends() if b != "python"]
    if not compiled:
        pytest.skip("no compiled backend available (numba and cext both absent)")
    spec = YagsSpec()

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
            assert (
                result.total_mispredictions
                == yags_reference.total_mispredictions
            )
        return min(times)

    reference_time = best_of(lambda: simulate_reference(spec.build(), trace), 1)
    compiled_time = min(
        best_of(lambda b=b: simulate(spec, trace, backend=b))
        for b in compiled
    )
    assert compiled_time * COMPILED_SPEEDUP_FLOOR <= reference_time, (
        f"compiled {compiled_time:.3f}s vs reference {reference_time:.3f}s: "
        f"below the {COMPILED_SPEEDUP_FLOOR}x floor"
    )
