"""Predictor simulation engines.

:func:`simulate` is the front door: it dispatches to the fastest engine
that supports the predictor and produces identical
:class:`SimulationResult` objects whichever engine runs.

Engine-selection guide (see ``docs/ENGINES.md`` for the full story):

``reference`` (:func:`simulate_reference`)
    Step-accurate Python loop: predict, compare, train — exactly the
    paper's modified ``sim-bpred``.  Supports **every** predictor
    (YAGS, bi-mode, filter, DHLF, oracle, …).  The semantic ground
    truth; ~10⁵ steps/s.

``vectorized`` (:func:`simulate_vectorized`)
    Array simulation of one predictor via sliding-window histories and
    segmented counter scans.  Supports the two-level family
    (PAs/GAs/gshare/gselect/pshare/bimodal), static predictors, the
    agree predictor, tournament predictors, and class-routed hybrids
    whose components are themselves supported.  Bit-exact with the
    reference engine at 50–100× the speed.

``batched`` (:func:`simulate_batched` / :func:`simulate_sweep`)
    Multi-configuration engine: simulates *many* two-level
    configurations over one trace in a single pass, sharing the PC
    encoding and deduplicating identical geometries.  This is what
    :func:`repro.analysis.history_sweep.run_sweep` uses for the
    paper's 34-configuration sweep.  When the backend resolves to
    ``cext`` or ``numba`` each geometry runs the compiled
    ``twolevel_step`` kernel; under ``python`` the batch shares history
    windows and stacked segmented scans instead (bit-exact either way).

``auto``
    Vectorized when supported, a compiled per-record kernel for the
    YAGS/bi-mode/filter/DHLF families, reference otherwise.
    Sweep-level code additionally upgrades to the batched engine on
    ``"auto"``.

``streaming`` (:func:`simulate_stream` / :func:`simulate_sweep_stream`)
    Bounded-memory counterparts of the above: consume an *iterator of
    trace chunks* (e.g. a :class:`~repro.trace.io.TraceReader` over a
    chunked ``.rbt`` v2 file) with peak memory O(chunk) instead of
    O(trace), carrying all predictor state across chunk boundaries.
    Bit-identical to the in-memory engines; see ``docs/TRACES.md``.

Callers can pass either a stateful
:class:`~repro.predictors.base.BranchPredictor` or a declarative
:class:`~repro.spec.PredictorSpec` — specs are built on the way in.
For many jobs at once, prefer :class:`repro.session.Session`, which
plans spec jobs into batched invocations (see ``docs/API.md``).
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..predictors.base import BranchPredictor
from ..spec import PredictorSpec, build_predictor
from ..trace.stream import Trace
from .batched import (
    BatchedSweepResult,
    predictions_batched,
    simulate_batched,
    simulate_sweep,
    supports_batched,
)
from .backend import (
    BACKENDS,
    backend_availability,
    compiled_stream,
    resolve_backend,
    supports_compiled,
)
from .reference import simulate_reference
from .results import BranchResult, SimulationResult
from .scan import counter_step_table, segmented_automaton_scan, segmented_saturating_scan
from .streaming import (
    simulate_batched_stream,
    simulate_stream,
    simulate_sweep_stream,
    stream_simulator,
    supports_stream_vectorized,
)
from .vectorized import predictions_vectorized, simulate_vectorized, supports_vectorized

__all__ = [
    "simulate",
    "simulate_reference",
    "simulate_vectorized",
    "simulate_batched",
    "simulate_sweep",
    "simulate_stream",
    "simulate_batched_stream",
    "simulate_sweep_stream",
    "stream_simulator",
    "predictions_vectorized",
    "predictions_batched",
    "supports_vectorized",
    "supports_batched",
    "supports_stream_vectorized",
    "BACKENDS",
    "backend_availability",
    "compiled_stream",
    "resolve_backend",
    "supports_compiled",
    "BatchedSweepResult",
    "SimulationResult",
    "BranchResult",
    "segmented_automaton_scan",
    "segmented_saturating_scan",
    "counter_step_table",
]


def simulate(
    predictor: BranchPredictor | PredictorSpec,
    trace: Trace,
    *,
    engine: str = "auto",
    backend: str | None = None,
) -> SimulationResult:
    """Simulate a predictor over a trace.

    Parameters
    ----------
    predictor:
        Any branch predictor, or a declarative
        :class:`~repro.spec.PredictorSpec` (built on entry).
    trace:
        Branch stream in program order.
    engine:
        ``"auto"`` (vectorized when supported, compiled per-record
        kernels for the YAGS/bi-mode/filter/DHLF families, reference
        otherwise), ``"vectorized"`` (error if unsupported),
        ``"batched"`` (two-level family only; single-predictor entry to
        the multi-config engine), or ``"reference"``.
    backend:
        Compiled-kernel implementation for the reference-path families
        (``python``/``numba``/``cext``/``auto``; see
        :mod:`repro.engine.backend` and docs/PERFORMANCE.md).  Default:
        ``REPRO_ENGINE_BACKEND``, else auto-detect.
    """
    predictor = build_predictor(predictor)
    if engine == "auto":
        if supports_vectorized(predictor):
            return simulate_vectorized(predictor, trace)
        compiled = _simulate_compiled(predictor, trace, backend)
        if compiled is not None:
            return compiled
        return simulate_reference(predictor, trace)
    if engine == "vectorized":
        return simulate_vectorized(predictor, trace)
    if engine == "batched":
        return simulate_batched([predictor], trace)[0]
    if engine == "reference":
        return simulate_reference(predictor, trace)
    raise ConfigurationError(
        f"unknown engine {engine!r}; expected 'auto', 'vectorized', "
        "'batched' or 'reference'"
    )


def _simulate_compiled(
    predictor: BranchPredictor, trace: Trace, backend: str | None
) -> SimulationResult | None:
    """Whole-trace simulation through a compiled per-record kernel, or
    None when the family has none (caller falls back to reference)."""
    import numpy as np

    from .backend import compiled_stream

    stream = compiled_stream(predictor, backend)
    if stream is None:
        return None
    predictions = stream.feed(trace.pcs, trace.outcomes)
    unique_pcs, codes = np.unique(trace.pcs, return_inverse=True)
    executions = np.bincount(codes, minlength=len(unique_pcs)).astype(np.int64)
    miss_counts = np.bincount(
        codes[predictions != trace.outcomes], minlength=len(unique_pcs)
    ).astype(np.int64)
    return SimulationResult(
        unique_pcs,
        executions,
        miss_counts,
        predictor_name=predictor.name,
        trace_name=trace.name,
    )
