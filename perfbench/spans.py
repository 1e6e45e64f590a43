"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``repro`` layers
(listed in :data:`TARGETS`) with timers.  Every call becomes a span
holding wall time, thread CPU time, process CPU time and, where the
arguments or result show them, records and bytes.  Spans nest per
thread by call; a span's self time is its duration minus the durations
of its direct children, which never overlap because they ran on the
same thread.

Nothing under ``src/`` changes: :meth:`Tracer.install` rebinds each
target in every loaded ``repro`` module that holds it (``from x import
f`` copies the name, so the defining module alone is not enough) and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Span", "Tracer", "TARGETS", "layer_metrics", "predictor_kinds"]


@dataclass
class Span:
    name: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    pcpu: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    child_wall: float = 0.0
    child_pcpu: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_wall(self) -> float:
        return self.wall - self.child_wall

    @property
    def self_pcpu(self) -> float:
        return self.pcpu - self.child_pcpu

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans from wrapped functions; install/uninstall is cheap."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.kinds: dict[type, str] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            thread=threading.get_ident(),
            parent=stack[-1] if stack else None,
            start=time.perf_counter(),
            cpu=time.thread_time(),
            pcpu=time.process_time(),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        span.pcpu = time.process_time() - span.pcpu
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_wall += span.wall
            parent.child_pcpu += span.pcpu
        return span

    def reset(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, note: Callable | None) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per item, so a consumer's work between items is
            # not charged to the producer.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                generator = fn(*args, **kwargs)
                while True:
                    index = tracer.begin(name)
                    try:
                        item = next(generator)
                    except StopIteration:
                        tracer.end(index)
                        return
                    except BaseException:
                        tracer.end(index)
                        raise
                    span = tracer.end(index)
                    if note is not None:
                        note(tracer, span, args, kwargs, item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.end(index)
            if note is not None:
                note(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; a no-op when already installed."""
        if self._patches:
            return
        if not self.kinds:
            self.kinds = predictor_kinds()
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m]
        for name, module_name, qualname, note in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owners = [getattr(module, owner_name)]
                if qualname == "WorkloadSpec.materialize":
                    owners = _spec_classes_with(owners[0], "materialize")
                for owner in owners:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, name, note))
                    else:
                        wrapped = self._wrap(raw, name, note)
                    self._rebind(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name, note)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def _spec_classes_with(base: type, attr: str) -> list[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda cls: cls.__qualname__)


def predictor_kinds() -> dict[type, str]:
    """Predictor class -> registered spec kind, from each kind's default."""
    from repro.spec import BimodalSpec, HybridSpec, StaticSpec, spec_from_dict, spec_kinds

    kinds: dict[type, str] = {type(StaticSpec(direction=False).build()): "static"}
    for kind in spec_kinds():
        spec = (
            HybridSpec(components=(BimodalSpec(),))
            if kind == "hybrid"
            else spec_from_dict({"kind": kind})
        )
        kinds[type(spec.build())] = kind
    return kinds


# -- notes: attributes read from arguments and results -------------------


def _note_records(tracer, span, args, kwargs, result):
    span.attrs["records"] = len(result)


def _kind(tracer, predictor) -> str:
    """The registered kind of a predictor or of a spec (specs carry it)."""
    from repro.spec import PredictorSpec

    if isinstance(predictor, PredictorSpec):
        return predictor.kind
    return tracer.kinds.get(type(predictor), "other")


def _note_predictor(tracer, span, args, kwargs, result):
    span.attrs["kinds"] = [_kind(tracer, args[0])]


def _note_batch(tracer, span, args, kwargs, result):
    predictors, trace = list(args[0]), args[1]
    span.attrs["kinds"] = [_kind(tracer, p) for p in predictors]
    span.attrs["steps"] = len(trace) * len(predictors)


def _note_hit(tracer, span, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _note_chunk(tracer, span, args, kwargs, result):
    span.attrs["records"] = len(result)
    span.attrs["bytes"] = result.pcs.nbytes + (len(result) + 7) // 8


def _note_ingest(tracer, span, args, kwargs, result):
    span.attrs["lines"] = result.lines
    span.attrs["skipped"] = result.skipped_lines


def _note_put(tracer, span, args, kwargs, result):
    store, digest = args[0], args[1]
    path = store.object_path(digest)
    span.attrs["bytes"] = path.stat().st_size if path is not None else 0


#: (span name, module, qualified attribute, note).  A dotted attribute is
#: a class member, patched on the class; a bare one is a module function,
#: rebound in every ``repro`` module that imported it.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("workload_spec.materialize", "repro.workload_spec", "WorkloadSpec.materialize", _note_records),
    ("ingest.ingest_perf", "repro.ingest.perf", "ingest_perf", _note_ingest),
    ("ingest.parse", "repro.ingest.perf", "PerfParser.chunks", None),
    ("trace_io.write", "repro.trace.io", "write_chunks", None),
    ("trace_io.read", "repro.trace.io", "TraceReader.chunk", _note_chunk),
    ("classify.profile", "repro.classify.profile", "ProfileTable.from_trace", None),
    ("classify.profile", "repro.classify.profile", "ProfileTable.from_chunks", None),
    ("engine.simulate", "repro.engine", "simulate", _note_predictor),
    ("engine.reference", "repro.engine.reference", "simulate_reference", None),
    ("engine.vectorized", "repro.engine.vectorized", "simulate_vectorized", None),
    ("engine.compiled", "repro.engine.backend", "compiled_stream", _note_hit),
    ("engine.batched", "repro.engine.batched", "simulate_batched", _note_batch),
    ("engine.sweep", "repro.engine.batched", "simulate_sweep", None),
    ("engine.stream", "repro.engine.streaming", "simulate_stream", None),
    ("engine.batched_stream", "repro.engine.streaming", "simulate_batched_stream", None),
    ("engine.sweep_stream", "repro.engine.streaming", "simulate_sweep_stream", None),
    ("session.run", "repro.session", "Session.run", None),
    ("session.plan", "repro.session", "Session.plan", None),
    ("pipeline.plan", "repro.pipeline.executor", "Pipeline.plan", None),
    ("pipeline.plan", "repro.pipeline.executor", "Pipeline.plan_experiments", None),
    ("pipeline.execute", "repro.pipeline.executor", "Pipeline.execute", None),
    ("pipeline.node", "repro.pipeline.artifacts", "ArtifactNode.compute_guarded", None),
    ("pipeline.store.get", "repro.pipeline.store", "ArtifactStore.get", _note_hit),
    ("pipeline.store.put", "repro.pipeline.store", "ArtifactStore.put", _note_put),
    ("experiments.render", "repro.pipeline.artifacts", "RenderNode.compute", None),
    ("service.http", "repro.service.client", "ServiceClient.submit", None),
    ("service.http", "repro.service.client", "ServiceClient.job", None),
]

_SWEEP = ("engine.batched", "engine.sweep")
_STREAM_SWEEP = ("engine.batched_stream", "engine.sweep_stream")
_ENGINE_FRONT = ("engine.simulate", "engine.batched", "engine.stream", "engine.batched_stream")


def _ancestors(spans: list[Span], span: Span):
    parent = span.parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], kinds: list[str]) -> dict[str, float]:
    """The per-layer metrics of one traced workload run."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_sum(*names: str) -> float:
        return sum(s.self_wall for n in names for s in by_name[n])

    def total(name: str, attr: str) -> float:
        return float(sum(s.attrs.get(attr, 0) for s in by_name[name]))

    def outermost(name: str) -> list[Span]:
        return [s for s in by_name[name]
                if not any(a.name == name for a in _ancestors(spans, s))]

    materialized = outermost("workload_spec.materialize")
    lines = total("ingest.ingest_perf", "lines")
    skipped = total("ingest.ingest_perf", "skipped")
    hits = total("pipeline.store.get", "hit")
    computed = len(by_name["pipeline.node"])

    family = dict.fromkeys(kinds, 0.0)
    for name in _ENGINE_FRONT:
        for span in by_name[name]:
            up = [a.name for a in _ancestors(spans, span)]
            if "session.run" not in up or any(n in _ENGINE_FRONT for n in up):
                continue
            share = span.wall / len(span.attrs.get("kinds") or ["other"])
            for kind in span.attrs.get("kinds") or ["other"]:
                family[kind] = family.get(kind, 0.0) + share

    metrics = {
        "workload_spec.materialize_s": self_sum("workload_spec.materialize"),
        "workload_spec.records": float(sum(s.attrs.get("records", 0) for s in materialized)),
        "ingest.parse_s": self_sum("ingest.parse", "ingest.ingest_perf"),
        "ingest.lines": lines,
        "ingest.skipped_frac": skipped / lines if lines else 0.0,
        "trace_io.write_s": self_sum("trace_io.write"),
        "trace_io.read_s": self_sum("trace_io.read"),
        "trace_io.bytes_read": total("trace_io.read", "bytes"),
        "classify.profile_s": self_sum("classify.profile"),
        "engine.sweep_s": self_sum(*_SWEEP),
        "engine.sweep_steps": total("engine.batched", "steps"),
        "engine.stream_sweep_s": self_sum(*_STREAM_SWEEP),
        "engine.stream_sweep_cpu_s": sum(s.self_pcpu for n in _STREAM_SWEEP for s in by_name[n]),
        "engine.calls.reference": float(len(by_name["engine.reference"])),
        "engine.calls.vectorized": float(len(by_name["engine.vectorized"])),
        "engine.calls.compiled": total("engine.compiled", "hit"),
        "engine.calls.batched": float(len(by_name["engine.batched"]) + len(by_name["engine.batched_stream"])),
        "session.plan_s": self_sum("session.plan"),
        "pipeline.store.put_s": self_sum("pipeline.store.put"),
        "pipeline.store.get_s": self_sum("pipeline.store.get"),
        "pipeline.store.bytes_put": total("pipeline.store.put", "bytes"),
        "pipeline.store.hit_frac": hits / (hits + computed) if hits + computed else 0.0,
        "pipeline.nodes_computed": float(computed),
        "experiments.render_s": self_sum("experiments.render"),
        "service.http_ms": 1000 * _median([s.wall for s in by_name["service.http"]]),
    }
    for kind in kinds:
        metrics[f"session.family.{kind}_s"] = family[kind]
    return metrics
