"""End-to-end benchmark of the reproduction: one command, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` does a separate traced run and prints the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the host and provenance block and each metric by name and unit.

Each step runs in a child process (``worker.py``) so that set-up and
peak memory are measured in fresh processes:

1. ``setup_s``: ten fresh processes each import ``repro`` and resolve
   the compiled backend (``serve-mixed``: until the server accepts a
   connection); the median of the ten, from spawn to ready.  Five run
   before the measured runs and five after them, so that a slow spell of
   a shared host, which lasts seconds, moves fewer of them.
2. ``prepare``: seeded inputs, the expected digest through another path
   of the program, and reference cross-checks on trace prefixes.
3. ``measure``: a fresh process runs the workload for ``--seconds``.

All times are host time.  Operations that raise, HTTP 429 refusals and
output digest mismatches count in ``failed``.  Everything the benchmark
writes stays under ``.perfbench-work/`` in the checkout, including the
compiled-kernel cache (``REPRO_CEXT_CACHE``) and the spans of the traced
run (``spans-<workload>-<seed>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The declared metrics; their names, order and units are the output's.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
#: Set-up probes made before, and again after, the measured runs.
SETUP_PROBES = 5
PROBE_TIMEOUT = 30.0
PREPARE_TIMEOUT = 60.0
#: What a measuring process may take beyond ``--seconds``.
MEASURE_SLACK = 60.0

PROVENANCE = {
    "predictor_state": (
        "predictor tables start empty on every trace and are never warmed, "
        "as in the paper's sim-bpred"
    ),
    "validation": (
        "simulated statistics are checked for bit-identity only; the model "
        "is not validated against hardware, so no error figure is given"
    ),
    "time": "all times are host time; no metric uses simulated time",
}


class StepFailed(Exception):
    pass


def child_env(work: Path, cache: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_CEXT_CACHE"] = str(cache)
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_step(args: list[str], env: dict[str, str], timeout: float) -> None:
    command = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{args[0]} did not finish within {timeout:g} s") from None
    if done.returncode != 0:
        raise StepFailed(f"{args[0]} exited {done.returncode}:\n{done.stderr[-4000:]}")


def probe_setup(workload: str, env: dict[str, str]) -> float:
    """Seconds from spawning a fresh process to its ``ready`` line."""
    command = [sys.executable, str(HERE / "worker.py"), "probe", "--workload", workload]
    start = time.perf_counter()
    process = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        ready = time.perf_counter() - start
        _out, err = process.communicate(timeout=PROBE_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise StepFailed("set-up probe did not finish") from None
    if line.strip() != "ready" or process.returncode != 0:
        raise StepFailed(f"set-up probe failed:\n{err[-4000:]}")
    return ready


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs,
    from ``/proc/stat``; None where the kernel does not report it."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method (exact for a single value).

    When no operation completed there is no latency; it reads 0, and the
    result is reported as not correct.
    """
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(measured: dict, setup: list[float]) -> dict[str, float]:
    runs = measured["runs"]
    latencies = [x for r in runs for x in r["latencies"]]
    wall = sum(r["wall"] for r in runs)
    return {
        "run_s": statistics.median(r["wall"] for r in runs),
        "cpu_s": statistics.median(r["cpu"] for r in runs),
        "peak_rss_mib": measured["peak_rss_kib"] / 1024,
        "sim_steps_per_s": statistics.median(r["steps"] / r["wall"] for r in runs),
        "setup_s": statistics.median(setup),
        "latency_p50_ms": 1000 * quantile(latencies, 50),
        "latency_p95_ms": 1000 * quantile(latencies, 95),
        "jobs_per_s": len(latencies) / wall,
    }


def median_ms(records: list[dict], key: str) -> float:
    values = [r[key] for r in records if key in r]
    return 1000 * statistics.median(values) if values else 0.0


def service_metrics(run: dict) -> dict[str, float]:
    """The service layer as seen on the wire in one run."""
    requests = run["requests"]
    created = [r for r in requests if r.get("created") and "compute" in r]
    answered = [r for r in requests if "created" in r]
    ok = [r for r in answered if r["status"] == "ok"]

    return {
        "service.queue_wait_ms": median_ms(created, "queue_wait"),
        "service.compute_ms": median_ms(created, "compute"),
        **{f"service.{kind}_latency_ms": median_ms([r for r in ok if r["kind"] == kind], "latency")
           for kind in ("fresh", "duplicate", "repeat")},
        "service.dedupe_frac": (
            sum(1 for r in answered if not r["created"]) / len(answered) if answered else 0.0
        ),
        "service.refused": float(sum(1 for r in requests if r["status"] == "refused")),
    }


def per_layer(measured: dict) -> dict[str, float]:
    traced = [r for r in measured["runs"] if r["traced"]]
    plain = [r for r in measured["runs"] if not r["traced"]]
    per_run = [{**r["layers"], **service_metrics(r)} for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall"] for r in traced) / statistics.median(r["wall"] for r in plain)
        - 1
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench-work"
    cache = base / "cext"
    work = base / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cache.mkdir(parents=True, exist_ok=True)
    env = child_env(work, cache)
    cache_warm = any(cache.glob("*.so"))
    common = ["--workload", args.workload, "--work", str(work)]
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setup = [probe_setup(args.workload, env) for _ in range(probes)]
        run_step(["prepare", *common, "--seed", str(args.seed)], env, PREPARE_TIMEOUT)
        steal = steal_seconds()
        run_step(["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                 env, args.seconds + MEASURE_SLACK)
        if steal is not None:
            steal = steal_seconds() - steal
        setup += [probe_setup(args.workload, env) for _ in range(probes)]
        prepared = json.loads((work / "prepared.json").read_text())
        measured = json.loads((work / "measured.json").read_text())
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(measured)
        spans = [{"wall": r["wall"], "spans": r["spans"]} for r in measured["runs"] if r["traced"]]
        (base / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics = end_to_end(measured, setup)

    expected = prepared["expected"]
    runs = measured["runs"]
    counted = [measured["warmup"], *runs]
    attempted = expected["checks"] + sum(r["attempted"] for r in counted)
    failed = len(expected["mismatches"]) + sum(r["failed"] for r in counted)
    problems = expected["mismatches"] + measured["problems"]

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "runs": len(runs),
        "latency_samples": sum(len(r["latencies"]) for r in runs),
        "setup_probes": len(setup),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **prepared["host"],
        "cext_cache_warm_at_start": cache_warm,
        "host_steal_s_while_measuring": steal,
        **PROVENANCE,
    }
    declared = BENCH["per_layer" if args.trace else "end_to_end"]
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in problems:
        print(f"failure: {problem}")
    for metric in declared:
        print(f"{metric['name']} {metrics[metric['name']]:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
