"""The benchmark's workloads: seeded inputs, one run, and its output check.

Each workload is a class with three steps, all driven by ``worker.py``:

``make_inputs(seed, work)``
    Generates the inputs from the seed alone (files under ``work`` and a
    JSON-able description).  The program under test only ever sees these
    generated files and requests.
``expected(inputs, work)``
    Computes the digest every run must reproduce, through a different
    path of the program than the measured one, and cross-checks a short
    prefix of each trace against ``simulate_reference``, the stateful
    ground truth.
``Runner(inputs, expected, work).run_once()``
    One workload run, the unit that ``run_s`` times.  It returns an
    :class:`Outcome`; :meth:`Runner.check` digests it afterwards, outside
    the timed region, and lists every mismatch.

Why these two (each layer likely to be optimised does most of the work
in one workload and little in the other):

``paper-cold``
    The batch path.  ``run all`` into a fresh store: what a reproduction
    costs; the batched sweep, materialize, profile, store and render
    dominate.  A short single-spec ``Session`` over every registered
    kind follows, so the reference and vectorized paths are measured
    too.  Last, a seeded perf ``brstack`` capture goes through ingest,
    RBT v2 and the chunked 2-worker stream sweep: the parser, trace I/O
    and the parallel stream engine work only here.
``serve-mixed``
    A closed loop of one client against an in-process server: the only
    workload that measures the service layer, and the one on which the
    sweep, ingest and trace I/O do almost nothing.

The capture was a workload of its own (``perf-stream``) and the
single-spec ``Session`` was one too, on four longer traces.  On a
shared 2-vCPU virtual machine the host's speed drifts by up to 1.5x
for tens of seconds at a time, so a run must be long to average it out,
and the time limit on all runs together allows long runs only for two
workloads.  The long single-spec ``Session`` was also nearly all
interpreter-bound reference loop, whose ten seeded runs spread past any
bound the benchmark may set.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro
import repro.ingest
import repro.trace.io
from repro.engine import simulate, simulate_batched, simulate_reference, simulate_sweep
from repro.experiments.registry import all_experiment_ids
from repro.predictors.paper_configs import HISTORY_LENGTHS, paper_spec
from repro.spec import BimodalSpec, HybridSpec, TwoLevelSpec, spec_from_dict, spec_kinds
from repro.workload_spec import Spec95InputSpec, SuiteSpec, kernel_suite, spec95_suite
from repro.workloads.synthetic.spec95 import SPEC95_INPUTS, InputSet, make_population

#: Records of each trace prefix cross-checked against simulate_reference.
PREFIX = 2000

#: Sweep configurations cross-checked on each prefix.
CHECK_HISTORIES = (0, 6, 12, 16)

SWEEP_CONFIGS = 2 * len(HISTORY_LENGTHS)

#: The 24 gcc inputs of Table 1.  Each clamps to the same reduced length,
#: so a seed that picks among them changes the content, not the size.
GCC_INPUTS = tuple(s.label for s in SPEC95_INPUTS if s.benchmark == "gcc")


def cpu_seconds() -> float:
    """User plus system CPU of this process (all threads) and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


class Clock:
    """Wall and CPU seconds of one timed region."""

    def __enter__(self) -> "Clock":
        self.wall, self.cpu = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = time.perf_counter() - self.wall
        self.cpu = cpu_seconds() - self.cpu


@dataclass
class Outcome:
    """What one workload run produced."""

    clock: Clock
    #: Seconds from submitting each operation to collecting its result:
    #: serve-mixed's requests; paper-cold's one operation is the run.
    latencies: list[float]
    #: Records x predictor configurations simulated.
    steps: int
    result: Any = None
    failed: int = 0
    #: serve-mixed only: one dict per request (created, job times, status).
    requests: list[dict[str, Any]] = field(default_factory=list)


def _sha(*parts: Any) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True).encode())
    return digest.hexdigest()


def _result_arrays(result) -> tuple:
    return (result.pcs, result.executions, result.mispredictions)


def _reference_mismatches(traces, specs, route) -> list[str]:
    """Simulate each spec on each trace prefix via ``route`` and via
    ``simulate_reference``; name every pair that differs."""
    bad = []
    for trace in traces:
        prefix = trace[:PREFIX]
        got = route(specs, prefix)
        for spec, result in zip(specs, got):
            want = simulate_reference(spec.build(), prefix)
            if _sha(*_result_arrays(result)) != _sha(*_result_arrays(want)):
                bad.append(f"{trace.name}: {spec.kind} {getattr(spec, 'name', '')} differs from reference")
    return bad


def _sweep_check_specs() -> list:
    return [paper_spec(kind, k) for kind in ("pas", "gas") for k in CHECK_HISTORIES]


# -- paper-cold -------------------------------------------------------------


def zoo_specs() -> list:
    """One spec of each registered kind at its default geometry."""
    specs = []
    for kind in spec_kinds():
        if kind == "hybrid":
            # A hybrid has no default components; take two defaults.
            specs.append(HybridSpec(components=(BimodalSpec(), TwoLevelSpec())))
        else:
            specs.append(spec_from_dict({"kind": kind}))
    return specs


class PaperCold:
    """``repro run all`` on the spec95 primary suite into a fresh store,
    then one ``Session`` over a default spec of each registered kind on
    the suite's gcc trace, then a perf capture (:class:`PerfCapture`).

    The second part is what ``repro simulate --spec`` does, one spec of
    each kind: the single-spec paths (reference, vectorized, compiled)
    that the sweep never takes.  Its trace is short, so the
    interpreter-bound reference loops stay a small share of the run.
    """

    name = "paper-cold"
    scale = 0.1

    @classmethod
    def suite(cls, inputs) -> SuiteSpec:
        primary = spec95_suite("primary", scale=cls.scale)
        members = tuple(
            Spec95InputSpec.of(inputs["gcc_input"], scale=cls.scale)
            if m.benchmark == "gcc" else m
            for m in primary.members
        )
        return SuiteSpec(name=primary.name, members=members)

    @classmethod
    def make_inputs(cls, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        return {"gcc_input": GCC_INPUTS[int(rng.integers(len(GCC_INPUTS)))],
                "capture": PerfCapture.make_inputs(seed, work)}

    @classmethod
    def _run(cls, inputs, cache_dir, engine: str):
        context = repro.ExperimentContext(
            scale=cls.scale, suite=cls.suite(inputs), cache_dir=cache_dir, jobs=1, engine=engine
        )
        rendered = {}
        for experiment_id in all_experiment_ids():
            report = context.pipeline.run_experiments([experiment_id])
            value = report.values.get(f"render:{experiment_id}")
            rendered[experiment_id] = None if value is None else (value.rendered, value.paper_note)
        return context, rendered

    @staticmethod
    def gcc_trace(context, inputs):
        (trace,) = [t for t in context.traces if t.name == inputs["gcc_input"]]
        return trace

    @staticmethod
    def digest(context, rendered, zoo) -> str:
        sweep = context.pipeline.value("sweep")
        grids = []
        for kind in sorted(sweep.grids):
            grid = sweep.grids[kind]
            grids += [grid.taken_misses, grid.transition_misses, grid.joint_misses,
                      grid.joint_executions]
        for result in zoo:
            grids += [result.predictor_name, *_result_arrays(result)]
        return _sha(rendered, sweep.total_dynamic, *grids)

    @staticmethod
    def session(specs, trace) -> list:
        run = repro.Session()
        jobs = [run.submit(trace, spec) for spec in specs]
        done = run.run()
        return [done[job] for job in jobs]

    @classmethod
    def expected(cls, inputs, work: Path) -> dict:
        # The per-configuration vectorized engine, a memory-only store and
        # engine.simulate per spec: a different path to the same bits.
        context, rendered = cls._run(inputs, None, "vectorized")
        traces = context.traces
        gcc, specs = cls.gcc_trace(context, inputs), zoo_specs()
        bad = _reference_mismatches(
            traces, _sweep_check_specs(), lambda specs, t: simulate_batched([s.build() for s in specs], t)
        )
        bad += _reference_mismatches([gcc], specs, cls.session)
        capture = PerfCapture.expected(inputs["capture"], work)
        steps = sum(len(t) for t in traces) * SWEEP_CONFIGS + len(gcc) * len(specs)
        return {
            "digest": cls.digest(context, rendered, [simulate(spec, gcc) for spec in specs]),
            "capture": capture,
            "steps": steps + capture["steps"],
            "checks": len(traces) + 1 + capture["checks"],
            "mismatches": bad + capture["mismatches"],
        }

    class Runner:
        def __init__(self, inputs, expected, work: Path) -> None:
            self.inputs, self.expected, self.work = inputs, expected, work
            self.specs = zoo_specs()
            self.capture = PerfCapture.Runner(inputs["capture"], expected["capture"], work)
            self.count = 0

        def run_once(self) -> Outcome:
            self.count += 1
            store = self.work / f"store-{self.count}"
            with Clock() as clock:
                context, rendered = PaperCold._run(self.inputs, store, "auto")
                zoo = PaperCold.session(self.specs, PaperCold.gcc_trace(context, self.inputs))
                capture = self.capture.run_once()
            return Outcome(clock, [clock.wall], self.expected["steps"],
                           (context, rendered, zoo, store, capture))

        def check(self, outcome: Outcome) -> list[str]:
            context, rendered, zoo, store, capture = outcome.result
            bad = self.capture.check(capture)
            shutil.rmtree(store, ignore_errors=True)
            missing = [k for k, v in rendered.items() if v is None]
            if missing:
                return bad + [f"experiments failed: {missing}"]
            if PaperCold.digest(context, rendered, zoo) != self.expected["digest"]:
                bad.append("paper-cold digest differs from the expected one")
            return bad


# -- paper-cold's perf capture -----------------------------------------------


class PerfCapture:
    """A perf ``brstack`` dump -> RBT v2 -> chunked profile and sweep:
    the out-of-core path for a real capture, which bypasses the
    in-memory engines."""

    records = 80_000
    entries_per_line = 32
    chunk_len = 1 << 13
    workers = 2
    garbage_rate = 0.01

    @classmethod
    def source_trace(cls, seed: int):
        """A spec95-model trace: the gcc joint class mix, seeded."""
        population = make_population(InputSet("gcc", f"perfbench-{seed}", 0))
        trace = population.generate(cls.records, name="capture")
        return repro.Trace(0x400000 + trace.pcs, trace.outcomes, name="capture")

    @classmethod
    def make_inputs(cls, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        trace = cls.source_trace(seed)
        pcs, outcomes = trace.pcs.tolist(), trace.outcomes.tolist()
        mispredicted = (rng.random(len(pcs)) < 0.05).tolist()
        path = work / "capture.perf.txt"
        lines = garbage = 0
        with path.open("w") as out:
            out.write("# ========\n# captured on: perfbench (seeded)\n# ========\n#\n")
            for sample, start in enumerate(range(0, len(pcs), cls.entries_per_line)):
                header = f"bench 4242/4242 {1000 + sample * 1e-4:.6f}: branches:u: "
                if rng.random() < cls.garbage_rate:
                    out.write(header + "[unknown] (lost samples)\n")
                    lines += 1
                    garbage += 1
                entries = []
                for i in range(start, min(start + cls.entries_per_line, len(pcs))):
                    pc = pcs[i]
                    flag = ("M" if mispredicted[i] else "P") if outcomes[i] else "N"
                    entries.append(f"0x{pc:x}/0x{pc + 0x40:x}/{flag}/-/-/{1 + i % 7}/COND")
                out.write(header + " ".join(entries) + "\n")
                lines += 1
        return {"seed": seed, "dump": path.name, "records": len(pcs), "lines": lines,
                "skipped_lines": garbage, "source": _sha(trace.pcs, trace.outcomes)}

    @staticmethod
    def digest(report, profile, sweep) -> str:
        counts = [report.records, report.lines, report.matched_lines, report.skipped_lines,
                  report.skipped_entries]
        misses = [sweep.mispredictions(kind, k) for kind, k in sorted(sweep.keys())]
        return _sha(counts, profile.pcs, profile.executions, profile.taken_classes,
                    profile.transition_classes, sweep.pcs, sweep.executions, *misses)

    @classmethod
    def expected(cls, inputs, work: Path) -> dict:
        from repro.classify import ProfileTable
        from repro.engine import simulate_sweep_stream
        from repro.ingest import IngestReport, ingest_perf
        from repro.trace.io import TraceReader

        seed_trace = cls.source_trace(inputs["seed"])
        mismatches = []
        if _sha(seed_trace.pcs, seed_trace.outcomes) != inputs["source"]:
            mismatches.append("source trace is not reproducible from the seed")
        # One real ingest: the trace read back must be the source trace.
        rbt = work / "check.rbt"
        ingest_perf(work / inputs["dump"], rbt, chunk_len=cls.chunk_len)
        with TraceReader(rbt) as reader:
            back = reader.read()
        if _sha(back.pcs, back.outcomes) != inputs["source"]:
            mismatches.append("ingested trace differs from the rendered source trace")
        rbt.unlink()
        # The counts the generator wrote, an in-memory profile and the
        # in-memory one-thread sweep.
        written = IngestReport(
            records=inputs["records"], lines=inputs["lines"], skipped_lines=inputs["skipped_lines"],
            matched_lines=inputs["lines"] - inputs["skipped_lines"],
        )
        digest = cls.digest(written, ProfileTable.from_trace(seed_trace), simulate_sweep(seed_trace))

        def streamed(specs, prefix):
            chunks = [prefix[i:i + PREFIX // 4] for i in range(0, len(prefix), PREFIX // 4)]
            sweep = simulate_sweep_stream(chunks, history_lengths=CHECK_HISTORIES,
                                          workers=cls.workers)
            return [sweep.result(kind, k) for kind in ("pas", "gas") for k in CHECK_HISTORIES]

        mismatches += _reference_mismatches([seed_trace], _sweep_check_specs(), streamed)
        return {"digest": digest, "steps": inputs["records"] * SWEEP_CONFIGS, "checks": 3,
                "mismatches": mismatches}

    class Runner:
        def __init__(self, inputs, expected, work: Path) -> None:
            self.inputs, self.expected, self.work = inputs, expected, work
            self.rbt = work / "capture.rbt"

        def run_once(self) -> Outcome:
            # Module attributes are looked up per call, so a traced run
            # reaches the tracer's wrappers.
            with Clock() as clock:
                report = repro.ingest.ingest_perf(
                    self.work / self.inputs["dump"], self.rbt, chunk_len=PerfCapture.chunk_len
                )
                with repro.trace.io.TraceReader(self.rbt) as reader:
                    profile = repro.ProfileTable.from_chunks(reader.chunks(), name=reader.name)
                with repro.trace.io.TraceReader(self.rbt) as reader:
                    sweep = repro.engine.simulate_sweep_stream(
                        reader.chunks(), workers=PerfCapture.workers
                    )
            return Outcome(clock, [clock.wall], self.expected["steps"], (report, profile, sweep))

        def check(self, outcome: Outcome) -> list[str]:
            self.rbt.unlink(missing_ok=True)
            if PerfCapture.digest(*outcome.result) != self.expected["digest"]:
                return ["perf capture digest differs from the expected one"]
            return []


# -- serve-mixed ------------------------------------------------------------


class ServeMixed:
    """A closed loop of one client against an in-process ``repro serve``.

    A round replays one seeded request sequence against a new server on
    an empty store, block by block.  A block submits a fresh small
    ``kernels`` job, then at once its duplicate (deduped onto the job
    while it runs), waits for both answers, then repeats one finished
    job of an earlier block.  The client starts the next block only when
    the last one has returned; it waits for a running job by polling its
    status.

    No observed traffic sets the proportions, so the three classes get
    equal shares: each block is one fresh job, its duplicate and one
    repeat.  That is an assumption, not a measurement.  The run reports
    each class's latency on its own (``service.fresh_latency_ms`` and the
    like), so a change in the end-to-end latencies can be traced to the
    class that moved.

    One client, not two: client and server share one process and its
    interpreter lock on a 2-vCPU host, and with two client threads the
    lock's hand-offs made ten seeded runs spread by a quarter to a third
    of their median.  The pipelined duplicate keeps two requests in
    flight on one job without a second thread.
    """

    name = "serve-mixed"
    suites = 4
    #: The job shape of ``benchmarks/bench_serve.py`` and the CI service
    #: smoke job: a ``kernels`` suite at scale 0.05 with a short history
    #: grid.  The jobs stay small; the sweep itself is paper-cold's to
    #: measure.
    scale = 0.05
    history_lengths = (0, 2, 4)
    #: Two jobs per suite: the second reads the suite's traces, profiles
    #: and sweep back from the store.
    experiments = ("fig3", "fig10")
    #: Seconds between a waiting client's status requests, as in
    #: ``benchmarks/bench_serve.py``.  The server's event stream polls
    #: every 50 ms, about a fresh job's compute time, so waiting on it
    #: put the p95 latency on a poll-tick edge that moved by 40% between
    #: runs.
    poll = 0.005

    @classmethod
    def make_inputs(cls, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        fresh = []
        for _ in range(cls.suites):
            suite = kernel_suite(cls.scale, seed=int(rng.integers(1 << 30))).to_dict()
            for experiment in cls.experiments:
                fresh.append({"experiments": [experiment], "suite": suite,
                              "scale": cls.scale, "history_lengths": list(cls.history_lengths)})
        # Every round has one shape, so the seed changes content, not
        # timing: block j is fresh job j, its duplicate, then a repeat of
        # a job of an earlier block (none in the first block).
        blocks = [[0, None]] + [[job, int(rng.integers(job))] for job in range(1, len(fresh))]
        return {"fresh": fresh, "blocks": blocks}

    @classmethod
    def expected(cls, inputs, work: Path) -> dict:
        # One-shot runs with a memory-only store: what the service must
        # reproduce byte for byte.
        rendered, contexts = [], {}
        for request in inputs["fresh"]:
            key = json.dumps(request["suite"], sort_keys=True)
            if key not in contexts:
                contexts[key] = repro.ExperimentContext(
                    scale=cls.scale, suite=repro.workload_spec_from_dict(request["suite"]),
                    cache_dir=None, history_lengths=cls.history_lengths,
                )
            (experiment,) = request["experiments"]
            rendered.append(contexts[key].pipeline.value(f"render:{experiment}").rendered)
        traces = [context.traces for context in contexts.values()]
        bad = _reference_mismatches(
            traces[0], _sweep_check_specs(),
            lambda specs, t: simulate_batched([s.build() for s in specs], t),
        )
        # Each suite's sweep is simulated once per round.
        steps = sum(len(t) for suite in traces for t in suite) * 2 * len(cls.history_lengths)
        return {"rendered": rendered, "steps": steps, "checks": 1, "mismatches": bad}

    class Runner:
        def __init__(self, inputs, expected, work: Path) -> None:
            self.inputs, self.expected, self.work = inputs, expected, work
            self.count = 0

        def _submit(self, client, index: int) -> tuple[dict[str, Any], dict | None]:
            """Submit request ``index``; its record and the job as answered."""
            from repro.errors import QueueFull

            record: dict[str, Any] = {"fresh": index, "status": "ok",
                                      "start": time.perf_counter()}
            try:
                job = client.submit(self.inputs["fresh"][index])
            except QueueFull:
                record["status"] = "refused"
                return record, None
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                record["status"] = f"error: {type(exc).__name__}: {exc}"
                return record, None
            record["created"] = bool(job.get("created_job"))
            record["kind"] = (
                "fresh" if record["created"]
                else "repeat" if job["state"] in ("done", "failed") else "duplicate"
            )
            return record, job

        def _collect(self, client, record: dict[str, Any], job: dict | None) -> dict[str, Any]:
            """Wait for a submitted job, then time and check its answer."""
            start = record.pop("start")
            if job is None:
                return record
            try:
                if job["state"] not in ("done", "failed"):
                    job = client.wait(job["id"], poll=ServeMixed.poll)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                record["status"] = f"error: {type(exc).__name__}: {exc}"
                return record
            record["latency"] = time.perf_counter() - start
            index = record["fresh"]
            (experiment,) = self.inputs["fresh"][index]["experiments"]
            result = job.get("results", {}).get(f"render:{experiment}", {})
            if job["state"] != "done" or result.get("rendered") != self.expected["rendered"][index]:
                record["status"] = "wrong output"
            if record["created"] and job.get("started") and job.get("finished"):
                record["queue_wait"] = job["started"] - job["created"]
                record["compute"] = job["finished"] - job["started"]
            return record

        def run_once(self) -> Outcome:
            from repro.service import Scheduler, ServiceClient

            self.count += 1
            store = self.work / f"serve-{self.count}"
            scheduler = Scheduler(store)
            records: list[dict[str, Any]] = []
            with _ServerThread(scheduler) as server:
                client = ServiceClient("127.0.0.1", server.port)
                with Clock() as clock:
                    for job, repeat in self.inputs["blocks"]:
                        pair = [self._submit(client, job), self._submit(client, job)]
                        records += [self._collect(client, *submitted) for submitted in pair]
                        if repeat is not None:
                            records.append(self._collect(client, *self._submit(client, repeat)))
            shutil.rmtree(store, ignore_errors=True)
            failed = sum(1 for r in records if r["status"] != "ok")
            latencies = [r["latency"] for r in records if r["status"] == "ok"]
            return Outcome(clock, latencies, self.expected["steps"], failed=failed,
                           requests=records)

        def check(self, outcome: Outcome) -> list[str]:
            return sorted({r["status"] for r in outcome.requests if r["status"] != "ok"})


class _ServerThread:
    """A scheduler and its HTTP front end on a thread of their own."""

    def __init__(self, scheduler) -> None:
        from repro.service import ServiceServer

        self.server = ServiceServer(scheduler, port=0)
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, name="perfbench-server")

    @property
    def port(self) -> int:
        return self.server.port

    def _main(self) -> None:
        import asyncio

        self._loop = asyncio.new_event_loop()
        self._stop = asyncio.Event()

        async def main() -> None:
            await self.server.start()
            self._ready.set()
            await self._stop.wait()
            await self.server.stop()

        try:
            self._loop.run_until_complete(main())
        except BaseException as exc:  # noqa: BLE001 - re-raised in __enter__
            self._error = exc
        finally:
            self._ready.set()
            self._loop.close()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=60) or self._error is not None:
            raise RuntimeError(f"server did not start: {self._error!r}")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


WORKLOADS = {w.name: w for w in (PaperCold, ServeMixed)}
