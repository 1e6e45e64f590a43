"""The benchmark's own tests.

Run from the root of a checkout (they take about a minute, since each
workload is run once traced)::

    python3 -m pytest perfbench/selftest.py

They check BENCHMARK.json against the rules its consumers apply, that the
command prints exactly the metrics it declares, and, from traced runs,
that each workload stresses the layers it is meant to.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, trace: int, seconds: float = 1, cwd: Path = ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    workloads = BENCH["workloads"]
    assert 2 <= len(workloads) <= 8
    from workloads import WORKLOADS

    assert [w["name"] for w in workloads] == list(WORKLOADS)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_names_and_units():
    end_to_end, per_layer = BENCH["end_to_end"], BENCH["per_layer"]
    names = [m["name"] for m in end_to_end + per_layer]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for metric in end_to_end + per_layer:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


# -- the tracer -------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    outer = tracer.begin("engine.outer")
    inner = tracer.begin("pipeline.inner")
    tracer.end(inner)
    tracer.end(outer)
    spans = tracer.reset()
    assert spans[1].parent == 0
    assert spans[0].self_wall == pytest.approx(spans[0].wall - spans[1].wall)
    assert spans[1].self_wall == spans[1].wall
    assert by_layer({s.name: s.self_wall for s in spans}) == {
        "engine": spans[0].self_wall, "pipeline": spans[1].wall}


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_come_from_the_seed(workload, tmp_path):
    from workloads import WORKLOADS

    def inputs(seed: int, name: str) -> str:
        work = tmp_path / name
        work.mkdir()
        made = WORKLOADS[workload].make_inputs(seed, work)
        files = sorted(p.read_bytes() for p in work.iterdir())
        return json.dumps(made, sort_keys=True) + repr(files)

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a2") != inputs(4, "c")


# -- the command ------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_run("paper-cold", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_a_raising_run_is_counted_as_failed(tmp_path, monkeypatch):
    import worker
    import workloads

    class Broken:
        class Runner:
            def __init__(self, inputs, expected, work):
                pass

            def run_once(self):
                raise OSError("disk full")

    monkeypatch.setitem(workloads.WORKLOADS, "broken", Broken)
    (tmp_path / "prepared.json").write_text(json.dumps({"inputs": {}, "expected": {}}))
    worker.measure("broken", tmp_path, 0.0, False)
    measured = json.loads((tmp_path / "measured.json").read_text())
    assert measured["warmup"] == {"attempted": 1, "failed": 1}
    assert all(r["failed"] == r["attempted"] == 1 for r in measured["runs"])
    assert measured["problems"] == ["broken run raised OSError: disk full"]
    assert run.end_to_end(measured, [0.5])["latency_p95_ms"] == 0.0


def test_end_to_end_metrics_are_the_declared_ones():
    result = result_of(bench_run("serve-mixed", 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for metric in BENCH["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of one traced run of each workload, and for each
    traced workload run the share of its wall time each span name took
    as self time."""
    found = {}
    for workload in run.WORKLOADS:
        result = result_of(bench_run(workload, 1))
        assert result["correct"], workload
        runs = json.loads((ROOT / ".perfbench-work" / f"spans-{workload}-5.json").read_text())
        shares = []
        for traced_run in runs:
            share: dict[str, float] = {}
            for span in traced_run["spans"]:
                share[span["name"]] = share.get(span["name"], 0.0) + span["self"] / traced_run["wall"]
            shares.append(share)
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        found[workload] = (metrics, shares)
    return found


def by_layer(share: dict[str, float]) -> dict[str, float]:
    layers: dict[str, float] = {}
    for name, value in share.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return layers


def test_per_layer_metrics_are_the_declared_ones(traced):
    for workload, (metrics, _shares) in traced.items():
        assert list(metrics) == [m["name"] for m in BENCH["per_layer"]], workload


def test_engine_sweep_dominates_paper_cold_only(traced):
    def sweep(share):
        return sum(share.get(name, 0.0) for name in (
            "engine.batched", "engine.sweep", "engine.batched_stream", "engine.sweep_stream"))

    for share in traced["paper-cold"][1]:
        layers = by_layer(share)
        assert max(layers, key=layers.get) == "engine"
        assert sweep(share) > 0.4
    for share in traced["serve-mixed"][1]:
        assert sweep(share) < 0.1


def test_ingest_and_trace_io_only_on_paper_cold(traced):
    for workload, (metrics, _shares) in traced.items():
        busy = workload == "paper-cold"
        for name in ("ingest.parse_s", "ingest.lines", "trace_io.read_s", "trace_io.bytes_read",
                     "engine.stream_sweep_s"):
            assert (metrics[name] > 0) == busy, (workload, name)


def test_service_layer_only_on_serve_mixed(traced):
    for workload, (metrics, _shares) in traced.items():
        assert (metrics["service.http_ms"] > 0) == (workload == "serve-mixed"), workload
    served = traced["serve-mixed"][0]
    assert served["service.dedupe_frac"] > 0
    # Each request class of the mix is reported on its own, so a gain
    # cannot come from the mix ratio alone.
    assert 0 < served["service.repeat_latency_ms"] < served["service.fresh_latency_ms"]
    assert served["service.duplicate_latency_ms"] > 0


def test_paper_cold_runs_every_family(traced):
    metrics = traced["paper-cold"][0]
    assert metrics["engine.calls.reference"] + metrics["engine.calls.compiled"] > 0
    assert metrics["engine.calls.vectorized"] > 0
    for kind in (m["name"] for m in BENCH["per_layer"] if m["name"].startswith("session.family.")):
        assert metrics[kind] > 0, kind
