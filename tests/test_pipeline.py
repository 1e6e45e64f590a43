"""Tests for the experiment pipeline: artifact DAG, content-addressed
store, planner dedup, parallel executor, fault isolation, gc."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, PipelineError
from repro.experiments import (
    ExperimentContext,
    all_experiment_ids,
    default_context,
    run_experiment,
)
from repro.experiments import registry as registry_module
from repro.experiments.base import Experiment, ExperimentResult, artifact_inputs
from repro.pipeline import ArtifactStore, Pipeline, PipelineConfig, Planner

SMALL = dict(inputs="primary", scale=0.02, history_lengths=(0, 2))


def small_context(cache_dir, **overrides):
    return ExperimentContext(cache_dir=cache_dir, **{**SMALL, **overrides})


class TestConfig:
    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(scale=0)

    def test_inputs_validated(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(inputs="bogus")

    def test_engine_validated(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(engine="gpu")

    def test_jobs_validated(self):
        with pytest.raises(ConfigurationError):
            Pipeline(PipelineConfig(), jobs=0)


class TestPlanner:
    def test_plan_all_dedupes_shared_sweep(self):
        planner = Planner(PipelineConfig(**SMALL))
        plan = planner.plan_experiments(all_experiment_ids())
        # fig1-fig14 + table2 all consume ONE sweep node.
        sweep_nodes = [k for k in plan.nodes if k.startswith("sweep") and ":" not in k]
        assert sweep_nodes == ["sweep"]
        consumers = plan.nodes["sweep"].consumers
        for fig in ("render:fig5", "render:fig12", "render:table2"):
            assert fig in consumers
        assert len(consumers) == 15

    def test_plan_is_topologically_ordered(self):
        planner = Planner(PipelineConfig(**SMALL))
        plan = planner.plan_experiments(all_experiment_ids())
        seen = set()
        for key, planned in plan.nodes.items():
            assert set(planned.node.deps) <= seen, key
            seen.add(key)

    def test_plan_trims_to_ancestors(self):
        planner = Planner(PipelineConfig(**SMALL))
        plan = planner.plan_experiments(["table1"])
        assert list(plan.nodes) == ["render:table1"]
        plan = planner.plan_experiments(["fig15"])
        assert "traces" in plan.nodes
        assert "sweep" not in plan.nodes  # fig15 does not need the sweep

    def test_plan_describe_marks_sharing(self, tmp_path):
        context = small_context(tmp_path)
        text = context.pipeline.plan_experiments(all_experiment_ids()).describe()
        assert "sweep" in text
        assert "shared by 15 consumers" in text

    def test_unknown_target_rejected(self):
        with pytest.raises(PipelineError):
            Planner(PipelineConfig(**SMALL)).plan(["render:fig99"])

    def test_trace_names_need_no_generation(self):
        names = Planner(PipelineConfig(inputs="all")).trace_names()
        assert len(names) == 34
        assert "compress/bigtest.in" in names


class TestContentAddressing:
    def digest(self, key, **cfg):
        return Planner(PipelineConfig(**{**SMALL, **cfg})).plan([key]).digest_of(key)

    def test_scale_change_rekeys_everything(self):
        for key in ("traces", "profile:suite", "sweep", "render:fig5"):
            assert self.digest(key, scale=0.02) != self.digest(key, scale=0.04), key

    def test_history_change_rekeys_sweep_but_not_traces(self):
        assert self.digest("sweep", history_lengths=(0, 2)) != self.digest(
            "sweep", history_lengths=(0, 4)
        )
        assert self.digest("traces", history_lengths=(0, 2)) == self.digest(
            "traces", history_lengths=(0, 4)
        )

    def test_engine_does_not_rekey(self):
        # Engines are bit-exact, so artifacts are engine-agnostic.
        assert self.digest("sweep", engine="auto") == self.digest(
            "sweep", engine="reference"
        )

    def test_runner_code_change_rekeys_render(self, tmp_path, monkeypatch):
        # Editing rendering code must not serve the stale pre-edit
        # artifact from a warm store.
        context = small_context(tmp_path)
        before = context.render("fig1")
        old_digest = context.pipeline.plan(["render:fig1"]).digest_of("render:fig1")

        @artifact_inputs("sweep")
        def edited(ctx):
            return ExperimentResult("fig1", "edited", "EDITED RENDER")

        monkeypatch.setitem(
            registry_module.EXPERIMENTS,
            "fig1",
            Experiment("fig1", "edited", "Figure 1", edited, edited.requires),
        )
        warm = small_context(tmp_path)
        assert warm.pipeline.plan(["render:fig1"]).digest_of("render:fig1") != old_digest
        assert warm.render("fig1").rendered == "EDITED RENDER"
        # The sweep artifact itself stays warm (only the render re-keys).
        assert warm.pipeline.plan(["sweep"]).nodes["sweep"].cached
        assert before.rendered != "EDITED RENDER"

    def test_rendering_constant_change_rekeys_render(self, monkeypatch):
        # The fingerprint also covers module-level data constants the
        # rendering code reads (not just function bytecode).
        import repro.experiments.missrates as missrates

        planner = Planner(PipelineConfig(**SMALL))
        before = planner.plan(["render:fig9"]).digest_of("render:fig9")
        unrelated = planner.plan(["render:fig5"]).digest_of("render:fig5")
        monkeypatch.setattr(missrates, "LINEPLOT_CLASSES", (0, 2, 9, 10))
        assert planner.plan(["render:fig9"]).digest_of("render:fig9") != before
        # Renders not reading the constant keep their address.
        assert planner.plan(["render:fig5"]).digest_of("render:fig5") == unrelated

    def test_warm_store_reuses_across_contexts(self, tmp_path):
        first = small_context(tmp_path)
        _ = first.sweep
        computed = small_context(tmp_path).pipeline.plan(["sweep"])
        assert computed.nodes["sweep"].cached
        assert all(planned.cached for planned in computed.nodes.values())


class TestStoreRecovery:
    def test_corrupted_object_recomputed(self, tmp_path):
        context = small_context(tmp_path)
        sweep_a = context.sweep
        digest = context.pipeline.plan(["sweep"]).digest_of("sweep")
        path = context.store.object_path(digest)
        path.write_bytes(b"this is not a zip file")

        fresh = small_context(tmp_path)
        assert fresh.pipeline.plan(["sweep"]).nodes["sweep"].cached  # file exists...
        sweep_b = fresh.sweep  # ...but corrupt: silently recomputed
        assert np.array_equal(
            sweep_b.grid("pas").taken_misses, sweep_a.grid("pas").taken_misses
        )
        # The rewritten object is valid again.
        assert small_context(tmp_path).sweep.total_dynamic == sweep_a.total_dynamic

    def test_truncated_object_recomputed(self, tmp_path):
        context = small_context(tmp_path)
        _ = context.sweep
        digest = context.pipeline.plan(["sweep"]).digest_of("sweep")
        path = context.store.object_path(digest)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert small_context(tmp_path).sweep.grid("pas").history_lengths == (0, 2)

    def test_corrupt_manifest_resets_empty(self, tmp_path):
        context = small_context(tmp_path)
        _ = context.sweep
        context.store.manifest_path.write_text("{broken json")
        assert ArtifactStore(tmp_path).manifest() == {}
        # Objects are untouched; the store still hits.
        assert small_context(tmp_path).pipeline.plan(["sweep"]).nodes["sweep"].cached

    def test_memory_only_store_writes_nothing(self, tmp_path):
        context = small_context(None)
        _ = context.sweep
        assert context.store.root is None
        assert not list(tmp_path.rglob("*.blob"))
        # ...but memoizes in process.
        assert context.pipeline.plan(["sweep"]).nodes["sweep"].cached


class TestExecutor:
    def test_jobs_parallel_bit_identical(self, tmp_path):
        rendered = {}
        for jobs in (1, 4):
            context = ExperimentContext(
                cache_dir=tmp_path / f"jobs{jobs}", jobs=jobs, **SMALL
            )
            report = context.pipeline.run_experiments(all_experiment_ids())
            assert report.ok, report.failures
            rendered[jobs] = {
                experiment_id: report.value(f"render:{experiment_id}").rendered
                for experiment_id in all_experiment_ids()
            }
        assert rendered[1] == rendered[4]
        # Content addressing agrees too: both stores hold identical object sets.
        names = lambda d: sorted(p.name for p in (d / "objects").glob("*.blob"))
        assert names(tmp_path / "jobs1") == names(tmp_path / "jobs4")

    def test_warm_run_recomputes_nothing(self, tmp_path):
        context = small_context(tmp_path)
        first = context.pipeline.run_experiments(all_experiment_ids())
        assert first.ok
        warm = small_context(tmp_path).pipeline.run_experiments(all_experiment_ids())
        assert warm.ok
        assert warm.computed == []
        # Only the render leaves are even loaded.
        assert sorted(warm.cached) == sorted(
            f"render:{experiment_id}" for experiment_id in all_experiment_ids()
        )

    def test_failing_runner_isolated(self, tmp_path, monkeypatch):
        @artifact_inputs("sweep")
        def explode(context):
            raise RuntimeError("boom")

        broken = Experiment("fig5", "broken", "Figure 5", explode, explode.requires)
        monkeypatch.setitem(registry_module.EXPERIMENTS, "fig5", broken)
        context = small_context(tmp_path)
        report = context.pipeline.run_experiments(all_experiment_ids())
        assert not report.ok
        assert [f.key for f in report.failures] == ["render:fig5"]
        assert "boom" in report.failures[0].error
        # Everything not downstream of the failure still rendered.
        for experiment_id in all_experiment_ids():
            if experiment_id != "fig5":
                assert report.value(f"render:{experiment_id}").rendered
        with pytest.raises(PipelineError):
            report.value("render:fig5")

    def test_failing_shared_artifact_skips_dependents(self, tmp_path, monkeypatch):
        from repro.pipeline import artifacts as artifacts_module

        def explode(trace, config):
            raise RuntimeError("sweep died")

        monkeypatch.setattr(artifacts_module, "sweep_trace", explode)
        context = small_context(tmp_path)
        report = context.pipeline.run_experiments(["fig1", "fig15", "table1"])
        assert [f.key for f in report.failures] == [
            f"sweep:{name}" for name in context.pipeline.planner.trace_names()
        ]
        assert "render:fig1" in report.skipped
        # Independent subgraphs still completed.
        assert report.value("render:fig15").rendered
        assert report.value("render:table1").rendered
        with pytest.raises(PipelineError, match="skipped"):
            report.value("render:fig1")

    def test_unencodable_render_data_isolated(self, tmp_path, monkeypatch):
        # A runner returning non-JSON data is a node failure, not a
        # crashed run (persistence faults stay inside fault isolation).
        @artifact_inputs("sweep")
        def bad_data(context):
            return ExperimentResult("fig5", "t", "rendered", data={"n": np.int64(3)})

        monkeypatch.setitem(
            registry_module.EXPERIMENTS,
            "fig5",
            Experiment("fig5", "t", "Figure 5", bad_data, bad_data.requires),
        )
        report = small_context(tmp_path).pipeline.run_experiments(all_experiment_ids())
        assert [f.key for f in report.failures] == ["render:fig5"]
        assert "not JSON serializable" in report.failures[0].error
        assert report.value("render:fig1").rendered

    def test_per_trace_nodes_narrow_their_deps(self, tmp_path):
        # Workers receive one trace, not the whole suite artifact.
        context = small_context(tmp_path)
        traces = context.traces
        plan = context.pipeline.plan(["sweep"])
        node = plan.nodes[f"sweep:{traces[1].name}"].node
        narrowed = node.narrow({"traces": traces})
        assert [t.name for t in narrowed["traces"]] == [traces[1].name]
        profile_node = context.pipeline.plan([f"profile:{traces[0].name}"]).nodes[
            f"profile:{traces[0].name}"
        ].node
        assert len(profile_node.narrow({"traces": traces})["traces"]) == 1

    def test_unneeded_missing_ancestors_left_alone(self, tmp_path):
        # Transitive need: with sweep and renders warm, deleting a
        # sweep part AND the traces object must not trigger recompute.
        context = small_context(tmp_path)
        assert context.pipeline.run_experiments(all_experiment_ids()).ok
        name = context.pipeline.planner.trace_names()[0]
        for key in ("traces", f"sweep:{name}"):
            digest = context.pipeline.plan([key]).digest_of(key)
            context.store.object_path(digest).unlink()
        warm = small_context(tmp_path).pipeline.run_experiments(all_experiment_ids())
        assert warm.ok
        assert warm.computed == []

    def test_custom_experiment_runs_its_own_runner(self, tmp_path):
        @artifact_inputs()
        def custom(context):
            return ExperimentResult("fig1", "custom", "CUSTOM RENDER")

        mine = Experiment("fig1", "custom", "Figure 1", custom, ())
        result = mine.run(small_context(tmp_path))
        assert result.rendered == "CUSTOM RENDER"  # not the registry's fig1

    def test_runner_can_use_misclassification_role(self, tmp_path, monkeypatch):
        @artifact_inputs("misclassification")
        def uses_report(context):
            report = context.misclassification()
            return ExperimentResult("fig1", "t", f"mis={report.taken_identified:.1f}")

        monkeypatch.setitem(
            registry_module.EXPERIMENTS,
            "fig1",
            Experiment("fig1", "t", "Figure 1", uses_report, uses_report.requires),
        )
        report = small_context(tmp_path).pipeline.run_experiments(["fig1"])
        assert report.ok, report.failures
        assert report.value("render:fig1").rendered.startswith("mis=")

    def test_pipeline_value_raises_on_failure(self, tmp_path, monkeypatch):
        from repro.workload_spec import SuiteSpec

        monkeypatch.setattr(
            SuiteSpec, "traces", lambda self: 1 / 0
        )
        with pytest.raises(PipelineError, match="traces"):
            small_context(tmp_path).traces


class TestSuites:
    """The pipeline on non-spec95 workload universes (generic WorkloadNode)."""

    def kernels(self, scale=0.25):
        from repro.workload_spec import kernel_suite

        return kernel_suite(scale)

    def test_run_all_on_kernel_suite(self, tmp_path):
        context = ExperimentContext(
            cache_dir=tmp_path, suite=self.kernels(), history_lengths=(0, 2)
        )
        report = context.pipeline.run_experiments(all_experiment_ids())
        assert report.ok, report.failures
        # Per-member artifacts are keyed by kernel labels.
        assert set(context.profiles) == set(context.suite.labels())
        # Warm rerun recomputes nothing.
        warm = ExperimentContext(
            cache_dir=tmp_path, suite=self.kernels(), history_lengths=(0, 2)
        ).pipeline.run_experiments(all_experiment_ids())
        assert warm.ok and warm.computed == []

    def test_suite_content_addresses_artifacts(self):
        def digest(suite, key="traces"):
            return (
                Planner(PipelineConfig(suite=suite, history_lengths=(0, 2)))
                .plan([key])
                .digest_of(key)
            )

        # Equal suite content -> equal addresses (across distinct objects)...
        assert digest(self.kernels()) == digest(self.kernels())
        # ...different content (a member size) -> different addresses.
        assert digest(self.kernels()) != digest(self.kernels(scale=0.5))
        # Different universes never collide.
        spec95 = Planner(PipelineConfig(**SMALL)).plan(["traces"]).digest_of("traces")
        assert digest(self.kernels()) != spec95

    def test_suite_equivalent_to_inputs_scale_sugar(self):
        from repro.workload_spec import spec95_suite

        sugar = PipelineConfig(**SMALL)
        explicit = PipelineConfig(
            suite=spec95_suite("primary", SMALL["scale"]),
            history_lengths=SMALL["history_lengths"],
        )
        for key in ("traces", "sweep"):
            assert (
                Planner(sugar).plan([key]).digest_of(key)
                == Planner(explicit).plan([key]).digest_of(key)
            ), key

    def test_mixed_custom_suite(self, tmp_path):
        from repro.trace import Trace, save_trace
        from repro.workload_spec import KernelSpec, SuiteSpec, TraceFileSpec

        path = tmp_path / "saved.rbt"
        save_trace(
            Trace([16, 20] * 300, [1, 0] * 300, name="saved"), path
        )
        suite = SuiteSpec(
            name="mixed",
            members=(KernelSpec(name="sieve", size=64), TraceFileSpec.of(path)),
        )
        context = ExperimentContext(
            cache_dir=tmp_path / "store", suite=suite, history_lengths=(0, 1)
        )
        assert [t.name for t in context.traces] == ["vm/sieve", "saved"]
        assert context.sweep.total_dynamic == sum(len(t) for t in context.traces)

    def test_parallel_jobs_bit_identical_on_kernels(self, tmp_path):
        rendered = {}
        for jobs in (1, 2):
            context = ExperimentContext(
                cache_dir=tmp_path / f"jobs{jobs}",
                suite=self.kernels(),
                history_lengths=(0, 2),
                jobs=jobs,
            )
            report = context.pipeline.run_experiments(["fig5", "fig15"])
            assert report.ok, report.failures
            rendered[jobs] = {
                key: value.rendered if hasattr(value, "rendered") else value
                for key, value in report.values.items()
                if key.startswith("render:")
            }
        assert rendered[1] == rendered[2]


class TestGc:
    def test_gc_drops_stale_scales(self, tmp_path):
        old = small_context(tmp_path, scale=0.01)
        _ = old.sweep
        stale = {e.digest for e in old.store.entries()}
        current = small_context(tmp_path)
        _ = current.sweep
        before = len(current.store.entries())

        live = current.pipeline.planner.live_digests(current.store)
        removed, reclaimed = current.store.gc(live)
        assert removed == len(stale)
        assert reclaimed > 0
        left = {e.digest for e in ArtifactStore(tmp_path).entries()}
        assert left.isdisjoint(stale)
        assert len(left) == before - removed
        # The surviving current-config artifacts still hit.
        assert small_context(tmp_path).pipeline.plan(["sweep"]).nodes["sweep"].cached

    def test_gc_on_disabled_store_is_noop(self):
        assert ArtifactStore(None).gc(set()) == (0, 0)


class TestByteDeterminism:
    """Two runs over the same cache must be bit-for-bit bookkeeping."""

    def test_run_report_byte_identical_across_warm_runs(self, tmp_path, monkeypatch):
        from repro.pipeline import runreport
        from repro.pipeline.runreport import RUN_REPORT_NAME

        # Populate the cache, then freeze the only wall-clock input the
        # report schema has (started/updated stamps).
        assert small_context(tmp_path).pipeline.run_experiments(["fig1", "fig3"]).ok
        monkeypatch.setattr(runreport, "_utcnow", lambda: "2026-01-01T00:00:00")

        report_path = tmp_path / RUN_REPORT_NAME
        payloads = []
        for _ in range(2):
            report_path.unlink()
            assert small_context(tmp_path).pipeline.run_experiments(["fig1", "fig3"]).ok
            payloads.append(report_path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_gc_and_manifest_byte_identical_across_runs(self, tmp_path):
        # Stale-scale artifacts give gc something to collect.
        _ = small_context(tmp_path, scale=0.01).sweep
        context = small_context(tmp_path)
        assert context.pipeline.run_experiments(["fig1"]).ok
        live = context.pipeline.planner.live_digests(context.store)

        # The decision is deterministic: two dry runs agree, and the
        # real pass removes exactly what they predicted.
        predicted = context.store.gc(live, dry_run=True)
        assert context.store.gc(live, dry_run=True) == predicted
        assert context.store.gc(live) == predicted
        assert predicted[0] > 0

        manifest_path = context.store.manifest_path
        after_gc = manifest_path.read_bytes()

        # A second run over the gc'd cache is fully warm: it must not
        # rewrite a byte of the manifest, and a second gc finds nothing.
        rerun = small_context(tmp_path)
        assert rerun.pipeline.run_experiments(["fig1"]).ok
        assert rerun.store.gc(live) == (0, 0)
        assert manifest_path.read_bytes() == after_gc


class TestFacade:
    def test_context_properties_route_through_store(self, tmp_path):
        context = small_context(tmp_path)
        assert [t.name for t in context.traces] == context.pipeline.planner.trace_names()
        assert set(context.profiles) == set(context.pipeline.planner.trace_names())
        assert context.merged_profile.name == "suite"
        report = context.misclassification()
        assert report.taken_identified > 0
        kinds = {e["kind"] for e in context.store.entries()}
        assert {"workload-traces", "trace-profile", "suite-profile", "misclassification"} <= kinds

    def test_render_cached_as_artifact(self, tmp_path):
        context = small_context(tmp_path)
        first = context.render("fig1")
        assert isinstance(first, ExperimentResult)
        again = small_context(tmp_path).render("fig1")
        assert again.rendered == first.rendered
        assert again.data == first.data

    def test_run_experiment_shares_default_context(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(registry_module, "_default_context", None)
        result = run_experiment("table1")
        assert result.experiment_id == "table1"
        shared = default_context()
        assert default_context() is shared  # one pipeline per process...
        assert (tmp_path / ".repro-cache" / "objects").exists()
        # ...and repeated calls hit its store rather than recomputing.
        plan = shared.pipeline.plan(["render:table1"])
        assert plan.nodes["render:table1"].cached
