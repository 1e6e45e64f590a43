"""Fault-tolerant execution tests: retry policy, fault taxonomy, chaos
convergence, worker crashes, timeouts, kill + resume, and store crash
consistency (see docs/FAULTS.md).

The chaos tests rely on the fault harness being deterministic: every
seed used here was chosen so the injected faults clear within the retry
budget, and because decisions are pure hashes of (seed, site, token)
the same faults fire on every run, on any machine, at any jobs count.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, PipelineError
from repro.experiments import ExperimentContext, registry as registry_module
from repro.experiments.base import Experiment, ExperimentResult, artifact_inputs
from repro.faults import FaultPlan
from repro.pipeline import FaultKind, RetryPolicy, RunReport
from repro.pipeline.executor import TRANSIENT_FAULTS

SMALL = dict(inputs="primary", scale=0.02, history_lengths=(0, 2))

#: Seeds verified to converge under max_attempts=3 with the CHAOS_RULES
#: below: at least one node needs a retry, none exhausts its budget.
CHAOS_SEEDS = (3, 5, 6)
CHAOS_RULES = "store-write=0.3,delay=0.2:0.005"


def small_context(cache_dir, **overrides):
    return ExperimentContext(cache_dir=cache_dir, **{**SMALL, **overrides})


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Fault-free reference values every chaos run must reproduce."""
    context = small_context(tmp_path_factory.mktemp("baseline"))
    report = context.pipeline.run_experiments(["fig3"])
    assert report.ok, report.failures
    return {
        "misclassification": context.pipeline.value("misclassification"),
        "fig3": report.value("render:fig3").rendered,
    }


class TestRetryPolicy:
    def test_default_is_single_attempt(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert not policy.should_retry(FaultKind.WORKER_CRASH, 1)

    def test_transient_faults_retried(self):
        policy = RetryPolicy(max_attempts=3)
        for kind in TRANSIENT_FAULTS:
            assert policy.should_retry(kind, 1)
            assert policy.should_retry(kind, 2)
            assert not policy.should_retry(kind, 3)

    def test_node_errors_never_retried(self):
        policy = RetryPolicy(max_attempts=5)
        assert not policy.should_retry(FaultKind.NODE_ERROR, 1)

    def test_retry_on_is_configurable(self):
        policy = RetryPolicy(max_attempts=2, retry_on=frozenset({FaultKind.TIMEOUT}))
        assert policy.should_retry(FaultKind.TIMEOUT, 1)
        assert not policy.should_retry(FaultKind.STORE_IO, 1)

    def test_delay_deterministic(self):
        policy = RetryPolicy(max_attempts=4)
        assert policy.delay("sweep:gcc", 2) == policy.delay("sweep:gcc", 2)
        assert policy.delay("sweep:gcc", 2) != policy.delay("sweep:li", 2)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base=0.1, backoff_factor=2.0,
            backoff_max=0.4, jitter=0.0,
        )
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.4)
        assert policy.delay("k", 9) == pytest.approx(0.4)  # capped

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=1.0, jitter=0.25)
        for attempt in range(1, 20):
            assert 1.0 <= policy.delay("k", attempt) < 1.25

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


class TestFaultClassification:
    def test_node_error_not_retried(self, tmp_path, monkeypatch):
        from repro.pipeline import artifacts as artifacts_module

        calls = []

        def explode(trace, config):
            calls.append(trace.name)
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(artifacts_module, "sweep_trace", explode)
        context = small_context(tmp_path, retry=RetryPolicy(max_attempts=3))
        report = context.pipeline.run_experiments(["fig3"])
        failure = report.failure_for("sweep:compress/bigtest.in")
        assert failure is not None
        assert failure.kind is FaultKind.NODE_ERROR
        assert failure.attempts == 1  # retrying a deterministic bug is futile
        # Each sweep part was attempted exactly once.
        assert len(calls) == len(set(calls))

    def test_store_fault_retried_to_success(self, tmp_path, baseline):
        # Seed 3 makes several store writes fail on early attempts and
        # clear on retry; the run must converge bit-identically.
        plan = FaultPlan.from_text(f"seed=3,{CHAOS_RULES}")
        context = small_context(
            tmp_path, retry=RetryPolicy(max_attempts=3), faults=plan
        )
        value = context.pipeline.value("misclassification")
        assert value == baseline["misclassification"]
        report_nodes = context.pipeline.executor._report.nodes
        retried = [k for k, r in report_nodes.items() if r.attempts > 1]
        assert retried  # the seed guarantees at least one retry happened
        assert all("store-io" in report_nodes[k].faults for k in retried)

    def test_store_fault_exhausts_attempts(self, tmp_path):
        # Probability 1: the fault never clears, so STORE_IO is terminal.
        plan = FaultPlan.from_text("seed=1,store-write=1@sweep:compress")
        context = small_context(
            tmp_path, retry=RetryPolicy(max_attempts=2, backoff_base=0.0), faults=plan
        )
        report = context.pipeline.execute(context.pipeline.plan(["sweep"]))
        failure = report.failure_for("sweep:compress/bigtest.in")
        assert failure is not None
        assert failure.kind is FaultKind.STORE_IO
        assert failure.attempts == 2
        assert "sweep" in report.skipped
        assert report.skip_causes["sweep"] == "sweep:compress/bigtest.in"

    def test_skipped_value_names_actual_ancestor(self, tmp_path, monkeypatch):
        # Two unrelated failures: the skip message must name the key's
        # own failed ancestor, not every failure in the run.
        @artifact_inputs("traces")
        def broken(context):
            raise RuntimeError("fig15 renderer bug")

        monkeypatch.setitem(
            registry_module.EXPERIMENTS,
            "fig15",
            Experiment("fig15", "t", "Figure 15", broken, broken.requires),
        )
        plan = FaultPlan.from_text("seed=1,store-write=1@sweep:compress")
        context = small_context(
            tmp_path, retry=RetryPolicy(max_attempts=1), faults=plan
        )
        report = context.pipeline.run_experiments(["fig1", "fig15"])
        assert {f.key for f in report.failures} == {
            "sweep:compress/bigtest.in",
            "render:fig15",
        }
        with pytest.raises(PipelineError) as excinfo:
            report.value("render:fig1")
        assert "sweep:compress/bigtest.in" in str(excinfo.value)
        assert "fig15" not in str(excinfo.value)

    def test_failure_summary_carries_kind_and_attempts(self, tmp_path):
        plan = FaultPlan.from_text("seed=1,store-write=1@sweep:compress")
        context = small_context(
            tmp_path, retry=RetryPolicy(max_attempts=2, backoff_base=0.0), faults=plan
        )
        report = context.pipeline.execute(context.pipeline.plan(["sweep"]))
        summary = report.failure_for("sweep:compress/bigtest.in").summary()
        assert "[store-io after 2 attempts]" in summary


class TestTimeouts:
    def test_inline_timeout_then_retry_succeeds(self, tmp_path, baseline):
        # The delay rule matches the attempt-1 token only: attempt 1
        # sleeps past the limit and is cancelled, attempt 2 runs clean.
        plan = FaultPlan.from_text("seed=1,delay=1:2.0@bigtest.in#a1")
        context = small_context(
            tmp_path,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            node_timeout=0.5,
            faults=plan,
        )
        value = context.pipeline.value("misclassification")
        assert value == baseline["misclassification"]
        record = context.pipeline.executor._report.nodes["sweep:compress/bigtest.in"]
        assert record.attempts == 2
        assert record.faults == ["timeout"]

    def test_inline_timeout_exhausts(self, tmp_path):
        plan = FaultPlan.from_text("seed=1,delay=1:2.0@bigtest.in")
        context = small_context(
            tmp_path, retry=RetryPolicy(max_attempts=1), node_timeout=0.4, faults=plan
        )
        report = context.pipeline.execute(
            context.pipeline.plan(["sweep:compress/bigtest.in"])
        )
        failure = report.failure_for("sweep:compress/bigtest.in")
        assert failure is not None and failure.kind is FaultKind.TIMEOUT
        assert "wall-clock" in failure.error

    def test_pool_timeout_classified(self, tmp_path):
        plan = FaultPlan.from_text("seed=1,delay=1:2.0@bigtest.in")
        context = small_context(
            tmp_path, jobs=2, retry=RetryPolicy(max_attempts=1),
            node_timeout=0.4, faults=plan,
        )
        report = context.pipeline.execute(context.pipeline.plan(["sweep"]))
        failure = report.failure_for("sweep:compress/bigtest.in")
        assert failure is not None and failure.kind is FaultKind.TIMEOUT


class TestWorkerCrash:
    def test_pool_recovers_from_worker_death(self, tmp_path, baseline):
        # One worker os._exit()s mid-node on its first attempt (exactly
        # like an OOM kill); the pool is rebuilt, in-flight work requeues
        # and the run converges bit-identically.
        plan = FaultPlan.from_text("seed=1,crash=1@bigtest.in#a1")
        context = small_context(
            tmp_path, jobs=2, retry=RetryPolicy(max_attempts=4), faults=plan
        )
        value = context.pipeline.value("misclassification")
        assert value == baseline["misclassification"]
        record = context.pipeline.executor._report.nodes["sweep:compress/bigtest.in"]
        assert "worker-crash" in record.faults
        assert record.attempts >= 2

    def test_worker_death_without_retries_fails_cleanly(self, tmp_path):
        plan = FaultPlan.from_text("seed=1,crash=1@bigtest.in")
        context = small_context(tmp_path, jobs=2, faults=plan)
        report = context.pipeline.execute(context.pipeline.plan(["sweep"]))
        failure = report.failure_for("sweep:compress/bigtest.in")
        assert failure is not None
        assert failure.kind is FaultKind.WORKER_CRASH
        assert "sweep" in report.skipped


class TestChaosConvergence:
    """The acceptance bar: seeded faults + retries == fault-free results."""

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_converges_bit_identical(self, tmp_path, baseline, seed, jobs):
        plan = FaultPlan.from_text(f"seed={seed},{CHAOS_RULES}")
        context = small_context(
            tmp_path,
            jobs=jobs,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            faults=plan,
        )
        report = context.pipeline.run_experiments(["fig3"])
        assert report.ok, [f.summary() for f in report.failures]
        assert report.value("render:fig3").rendered == baseline["fig3"]
        value = context.pipeline.value("misclassification")
        assert value == baseline["misclassification"]

    def test_chaos_run_records_faults_in_report(self, tmp_path):
        plan = FaultPlan.from_text(f"seed=3,{CHAOS_RULES}")
        context = small_context(
            tmp_path, retry=RetryPolicy(max_attempts=3, backoff_base=0.01), faults=plan
        )
        context.pipeline.value("misclassification")
        doc = json.loads((tmp_path / "run-report.json").read_text())
        faulted = [
            key for key, node in doc["nodes"].items() if node.get("faults")
        ]
        assert faulted
        assert all(
            doc["nodes"][key]["status"] == "computed" for key in faulted
        )


class TestResume:
    def test_resume_recomputes_only_missing(self, tmp_path, baseline):
        # First run: sweep parts fail without retries, everything above
        # them is skipped; what completed is checkpointed.
        plan = FaultPlan.from_text("seed=5,store-write=0.6@sweep:")
        context = small_context(tmp_path, faults=plan)
        report = context.pipeline.execute(context.pipeline.plan(["misclassification"]))
        failed = {f.key for f in report.failures}
        assert failed and report.run_report_path == tmp_path / "run-report.json"

        # Resume fault-free: prior completions come from the store, only
        # the failed subgraph recomputes.
        resumed_context = small_context(tmp_path, resume=True)
        plan2 = resumed_context.pipeline.plan(["misclassification"])
        assert plan2.num_from_prior > 0
        assert "completed by prior run" in plan2.describe()
        report2 = resumed_context.pipeline.execute(plan2)
        assert report2.ok
        ledger = resumed_context.pipeline.executor._report.nodes
        recomputed = {k for k, r in ledger.items() if r.status == "computed"}
        assert recomputed <= failed | {"sweep", "misclassification"}
        resumed = {k for k, r in ledger.items() if r.resumed}
        assert resumed and resumed.isdisjoint(recomputed)
        assert report2.value("misclassification") == baseline["misclassification"]

    def test_stale_report_ignored_on_config_change(self, tmp_path):
        context = small_context(tmp_path)
        context.pipeline.value("traces")
        # A different scale re-keys every node: no record may be trusted.
        changed = ExperimentContext(
            cache_dir=tmp_path, resume=True,
            **{**SMALL, "scale": 0.03},
        )
        plan = changed.pipeline.plan(["traces"])
        assert plan.num_from_prior == 0

    def test_kill_mid_run_then_resume(self, tmp_path):
        """kill -9 mid-pipeline (via an inline crash fault), then resume:
        only the nodes the killed run did not finish recompute."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.experiments import ExperimentContext\n"
            "ctx = ExperimentContext(cache_dir=sys.argv[2], inputs='primary',\n"
            "                        scale=0.02, history_lengths=(0, 2),\n"
            "                        resume='--resume' in sys.argv)\n"
            "ctx.pipeline.value('misclassification')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        cache = str(tmp_path)
        env = dict(os.environ)

        # Run 1: the whole process dies while computing sweep:go (inline
        # crash == SIGKILL for resume purposes).
        env["REPRO_FAULTS"] = "seed=1,crash=1@sweep:go"
        proc = subprocess.run(
            [sys.executable, "-c", script, src, cache],
            env=env, capture_output=True, timeout=300,
        )
        from repro.faults import CRASH_EXIT_CODE

        assert proc.returncode == CRASH_EXIT_CODE
        interim = json.loads((tmp_path / "run-report.json").read_text())
        done_before = {
            key for key, node in interim["nodes"].items()
            if node["status"] in ("computed", "cached")
        }
        assert "traces" in done_before
        assert "sweep:go/9stone21.in" not in done_before

        # Run 2: resume without faults; it must finish.
        env.pop("REPRO_FAULTS")
        proc = subprocess.run(
            [sys.executable, "-c", script, src, cache, "--resume"],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        final = json.loads((tmp_path / "run-report.json").read_text())
        for key in done_before:
            assert final["nodes"][key]["status"] == "cached"
            assert final["nodes"][key].get("resumed") is True
        computed = {
            key for key, node in final["nodes"].items()
            if node["status"] == "computed"
        }
        assert computed and computed.isdisjoint(done_before)


class TestCrashConsistency:
    def test_failed_put_leaves_no_litter(self, tmp_path, monkeypatch):
        from repro.pipeline import store as store_module

        context = small_context(tmp_path)

        def refuse(arrays, meta):
            raise OSError("disk full")

        monkeypatch.setattr(store_module, "pack_object", refuse)
        report = context.pipeline.execute(context.pipeline.plan(["traces"]))
        failure = report.failure_for("traces")
        assert failure is not None and failure.kind is FaultKind.STORE_IO
        assert "disk full" in failure.error
        objects = tmp_path / "objects"
        assert not list(objects.glob("*.tmp"))
        # The store must not claim an artifact it failed to persist.
        digest = context.pipeline.plan(["traces"]).digest_of("traces")
        assert not context.store.has(digest)

    def test_gc_sweeps_stale_tmp_litter_only(self, tmp_path):
        from repro.pipeline.store import TMP_LITTER_MIN_AGE

        context = small_context(tmp_path)
        context.pipeline.value("traces")
        objects = tmp_path / "objects"
        stale = objects / "deadbeef.blob.12345.tmp"
        stale.write_bytes(b"x" * 64)
        old = time.time() - TMP_LITTER_MIN_AGE - 60
        os.utime(stale, (old, old))
        fresh = objects / "cafef00d.blob.12346.tmp"
        fresh.write_bytes(b"y" * 64)

        live = context.pipeline.planner.live_digests(context.store)
        removed, reclaimed = context.store.gc(live)
        assert not stale.exists()  # crashed-writer litter is swept
        assert fresh.exists()  # a live writer's temp file is not
        assert removed >= 1 and reclaimed >= 64
        fresh.unlink()

    def test_half_flushed_manifest_recovers(self, tmp_path):
        context = small_context(tmp_path)
        context.pipeline.value("traces")
        manifest_path = tmp_path / "manifest.json"
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])  # torn write
        fresh = small_context(tmp_path)
        assert fresh.store.manifest() == {}  # corrupt reads as empty
        # Objects are addressed by digest, not the manifest: the cache
        # still hits, and the next flush rebuilds a valid manifest.
        report = fresh.pipeline.execute(fresh.pipeline.plan(["traces"]))
        assert "traces" in report.cached
        fresh.pipeline.value("profile:suite")
        assert json.loads(manifest_path.read_text())

    def test_corrupt_object_then_resume_recomputes(self, tmp_path, baseline):
        # A corrupt fault garbles the traces object *after* a successful
        # write: this run is fine (it holds the value in memory), but
        # the next one reads damage and must recompute, not crash.
        plan = FaultPlan.from_text("seed=1,corrupt=1@traces")
        chaotic = small_context(tmp_path, faults=plan)
        chaotic.pipeline.value("traces")

        fresh = small_context(tmp_path, resume=True)
        digest = fresh.pipeline.plan(["traces"]).digest_of("traces")
        assert fresh.store.has(digest)  # the damaged file is present...
        value = fresh.pipeline.value("misclassification")
        assert value == baseline["misclassification"]
        ledger = fresh.pipeline.executor._report.nodes
        assert ledger["traces"].status == "computed"  # ...but was recomputed

    def test_concurrent_executors_share_one_cache(self, tmp_path):
        """Two processes hammer the same cache directory at once: both
        finish, and the manifest keeps both runs' records (the flush
        read-merge-write runs under the cross-process lock)."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.experiments import ExperimentContext\n"
            "ctx = ExperimentContext(cache_dir=sys.argv[2], inputs='primary',\n"
            "                        scale=0.02, history_lengths=(0, 2))\n"
            "ctx.pipeline.value('misclassification')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, src, str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr.decode()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        check = small_context(tmp_path)
        plan = check.pipeline.plan(["misclassification"])
        for key in plan.nodes:
            assert check.store.has(plan.digest_of(key)), key
            assert plan.digest_of(key) in manifest, key

    def test_flush_failure_does_not_mask_report(self, tmp_path, monkeypatch, caplog):
        context = small_context(tmp_path)

        def refuse():
            raise OSError("manifest path locked")

        monkeypatch.setattr(context.store, "flush_manifest", refuse)
        with caplog.at_level("WARNING", logger="repro.pipeline"):
            report = context.pipeline.execute(context.pipeline.plan(["traces"]))
        assert report.ok  # the report survives; the flush failure is logged
        assert "could not flush store manifest" in caplog.text


class TestCLI:
    def test_resume_requires_cache(self, capsys):
        from repro.cli import main

        code = main(["run", "fig15", "--resume", "--no-cache"])
        assert code == 1
        assert "--resume needs the artifact store" in capsys.readouterr().err

    def test_retries_validated(self, capsys):
        from repro.cli import main

        code = main(["run", "fig15", "--retries", "0"])
        assert code == 1
        assert "--retries" in capsys.readouterr().err

    def test_node_timeout_validated(self, capsys):
        from repro.cli import main

        code = main(["run", "fig15", "--node-timeout", "-2"])
        assert code == 1
        assert "--node-timeout" in capsys.readouterr().err

    def test_run_with_fault_knobs(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        args = [
            "run", "fig15", "--scale", "0.02", "--cache-dir", str(tmp_path / "c"),
            "--retries", "2", "--node-timeout", "60",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out
        # And again with --resume: everything is served from the store.
        assert main(args + ["--resume"]) == 0

    def test_failed_run_points_at_run_report(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.pipeline import artifacts as artifacts_module

        def explode(trace, config):
            raise RuntimeError("sweep died")

        monkeypatch.setattr(artifacts_module, "sweep_trace", explode)
        code = main(
            ["run", "all", "--scale", "0.02", "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "run-report.json" in err
        assert "--resume" in err


def test_no_numpy_scalar_leak():
    # Guard: SMALL history tuple stays plain ints (hashing stability).
    assert all(isinstance(h, int) and not isinstance(h, np.bool_) for h in SMALL["history_lengths"])
