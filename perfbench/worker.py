"""Child-process side of the benchmark; ``run.py`` starts one per step.

``probe --workload W``
    Set-up only: import ``repro``, resolve the compiled backend and, for
    ``serve-mixed``, start a server and wait until it accepts a
    connection.  Prints ``ready`` at that point.
``prepare --workload W --seed N --work DIR``
    Generates the inputs from the seed, computes the expected digest and
    runs the reference cross-checks; writes ``DIR/prepared.json``.
``measure --workload W --work DIR --seconds S --trace 0|1``
    A fresh process that only runs the workload: one warm-up run, then
    runs until ``S`` seconds have passed.  With ``--trace 1`` untraced
    and traced runs alternate, and the spans of the traced ones are
    reduced to per-layer metrics.  Writes ``DIR/measured.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import socket
import sys
import tempfile
import time
from pathlib import Path

MIN_LATENCY_SAMPLES = 200


def probe(workload: str) -> None:
    import repro  # noqa: F401 - the import is what set-up pays for
    from repro.engine import resolve_backend

    resolve_backend("auto")
    if workload != "serve-mixed":
        print("ready", flush=True)
        return
    from repro.service import Scheduler

    from workloads import _ServerThread

    with tempfile.TemporaryDirectory(prefix="probe-") as store:
        with _ServerThread(Scheduler(store)) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30):
                print("ready", flush=True)


def host_block() -> dict:
    import numpy

    from repro.engine import backend_availability, resolve_backend

    return {
        "numpy": numpy.__version__,
        "backends": {name: ok for name, (ok, _why) in backend_availability().items()},
        "auto_backend": resolve_backend("auto"),
    }


def prepare(workload: str, seed: int, work: Path) -> None:
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    inputs = spec.make_inputs(seed, work)
    expected = spec.expected(inputs, work)
    payload = {"inputs": inputs, "expected": expected, "host": host_block()}
    (work / "prepared.json").write_text(json.dumps(payload, sort_keys=True))


def measure(workload: str, work: Path, seconds: float, trace: bool) -> None:
    import resource

    from workloads import WORKLOADS, Clock, Outcome

    prepared = json.loads((work / "prepared.json").read_text())
    runner = WORKLOADS[workload].Runner(prepared["inputs"], prepared["expected"], work)
    tracer = None
    if trace:
        from repro.spec import spec_kinds
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        kinds = list(spec_kinds())

    runs: list[dict] = []
    problems: list[str] = []

    def one(traced: bool) -> dict:
        if traced:
            tracer.reset()
            tracer.install()
        raised = False
        try:
            with Clock() as clock:
                outcome = runner.run_once()
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            problems.append(f"{workload} run raised {type(exc).__name__}: {exc}")
            # Nothing completed: no latency, no simulated steps.
            outcome, raised = Outcome(clock, [], 0, failed=1), True
        finally:
            if traced:
                tracer.uninstall()
        run = {
            "traced": traced,
            "wall": outcome.clock.wall,
            "cpu": outcome.clock.cpu,
            "latencies": outcome.latencies,
            "steps": outcome.steps,
            "failed": outcome.failed,
            "attempted": max(1, len(outcome.requests)),
            "requests": outcome.requests,
        }
        if traced:
            spans = tracer.reset()
            run["layers"] = layer_metrics(spans, kinds)
            run["spans"] = [
                {"name": s.name, "thread": s.thread, "parent": s.parent, "start": s.start,
                 "wall": s.wall, "self": s.self_wall, "cpu": s.cpu, "attrs": s.attrs}
                for s in spans
            ]
        mismatches = [] if raised else runner.check(outcome)
        if mismatches:
            problems.extend(mismatches)
            run["failed"] = max(run["failed"], 1)
        # Each run starts from a collected heap, so peak memory does not
        # depend on when the collector last ran.
        del outcome
        gc.collect()
        return run

    def enough() -> bool:
        if time.perf_counter() < deadline or len(runs) < (4 if trace else 3):
            return False
        if workload != "serve-mixed" or trace:
            return True
        # The p95 latency needs ten samples beyond it.
        return sum(len(r["latencies"]) for r in runs) >= MIN_LATENCY_SAMPLES

    warmup = one(False)  # lazy imports and first-call set-up; checked, not timed
    deadline = time.perf_counter() + seconds
    while not enough():
        runs.append(one(trace and len(runs) % 2 == 1))
    payload = {
        "warmup": {"attempted": warmup["attempted"], "failed": warmup["failed"]},
        "runs": runs,
        "problems": sorted(set(problems)),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    (work / "measured.json").write_text(json.dumps(payload))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "prepare", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "probe":
        probe(args.workload)
    elif args.mode == "prepare":
        prepare(args.workload, args.seed, args.work)
    else:
        measure(args.workload, args.work, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
