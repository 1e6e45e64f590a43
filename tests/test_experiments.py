"""Integration tests: every registered experiment runs and its data has
the paper's qualitative shape (at reduced scale)."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentContext,
    all_experiment_ids,
    get_experiment,
    run_experiment,
)


@pytest.fixture(scope="module")
def context(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return ExperimentContext(
        inputs="primary",
        scale=0.25,
        history_lengths=(0, 1, 2, 4, 8),
        cache_dir=cache,
    )


class TestRegistry:
    def test_all_seventeen_registered(self):
        ids = all_experiment_ids()
        assert len(ids) == 17
        assert ids[0] == "table1"
        assert "table2" in ids
        assert {f"fig{i}" for i in range(1, 16)} <= set(ids)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_experiment_metadata(self):
        exp = get_experiment("fig13")
        assert exp.paper_artifact == "Figure 13"


class TestEveryExperimentRuns:
    @pytest.mark.parametrize("experiment_id", all_experiment_ids())
    def test_runs_and_renders(self, context, experiment_id):
        result = run_experiment(experiment_id, context)
        assert result.experiment_id == experiment_id
        assert result.rendered.strip()
        assert result.data


class TestExperimentShapes:
    def test_table1_has_34_rows(self, context):
        data = run_experiment("table1", context).data
        assert len(data["rows"]) == 34

    def test_fig1_bimodal_distribution(self, context):
        percent = run_experiment("fig1", context).data["percent_per_class"]
        # End classes dominate (paper: 26.6% and 36.3%).
        assert percent[0] > 15
        assert percent[10] > 25
        assert max(percent[1:10]) < percent[10]

    def test_fig2_transition_skew(self, context):
        percent = run_experiment("fig2", context).data["percent_per_class"]
        # Class 0 holds the majority (paper: 60.8%).
        assert percent[0] > 45
        assert percent[0] > 3 * percent[2]

    def test_fig3_easy_edges(self, context):
        data = run_experiment("fig3", context).data
        for key in ("pas_miss", "gas_miss"):
            miss = data[key]
            assert miss[0] < 0.08 and miss[10] < 0.08
            assert max(miss[3:8]) > miss[0]

    def test_fig4_pas_high_transition_easy(self, context):
        data = run_experiment("fig4", context).data
        # PAs predicts transition classes 9/10 well; both metrics agree
        # that the middle is the hard region.
        assert data["pas_miss"][10] < 0.2
        assert data["pas_miss"][5] > data["pas_miss"][10]
        assert data["gas_miss"][5] > 0.2

    def test_fig6_history_zero_catastrophe(self, context):
        rates = np.asarray(run_experiment("fig6", context).data["miss_rates"])
        # Transition class 10 at history 0 is near 50%+; with history it drops.
        assert rates[0, 10] > 0.4
        assert rates[1:, 10].min() < 0.1

    def test_fig9_static_classes_flat(self, context):
        series = run_experiment("fig9", context).data["series"]
        assert max(series["tac 0"]) < 0.1
        assert max(series["tac 10"]) < 0.1

    def test_table2_misclassification(self, context):
        data = run_experiment("table2", context).data
        # Paper: 62.90 / 71.62 / 72.19; our calibrated suite within a
        # few points of each.
        assert data["taken_identified"] == pytest.approx(62.9, abs=6)
        assert data["pas_transition_identified"] == pytest.approx(72.2, abs=6)
        assert data["pas_misclassified"] > 4  # transition identifies more

    def test_fig13_hard_cell_dark(self, context):
        hard = run_experiment("fig13", context).data["hard_cell_miss"]
        assert hard is not None and hard > 0.3

    def test_fig15_ijpeg_clustered(self):
        # Figure 15 needs full-length traces (hard-branch statistics are
        # sparse) but no sweep, so it gets its own cheap context.
        full = ExperimentContext(
            inputs="primary", scale=1.0, history_lengths=(0,), cache_dir=None
        )
        data = run_experiment("fig15", full).data
        # ijpeg's hard branches occur back to back (paper's exception):
        # distances 1-2 dominate and the 8+ bucket nearly empties.
        assert data["ijpeg"]["fractions"][0] + data["ijpeg"]["fractions"][1] > 0.5
        assert data["ijpeg"]["fractions"][-1] < 0.3
        # Most other benchmarks are dominated by the 8+ bucket.
        friendly = [b for b, d in data.items() if d["dual_path_friendly"]]
        assert len(friendly) >= 5
        assert "ijpeg" not in friendly


class TestContextCaching:
    def test_sweep_cache_roundtrip(self, tmp_path):
        make = lambda: ExperimentContext(
            inputs="primary",
            scale=0.02,
            history_lengths=(0, 2),
            cache_dir=tmp_path,
        )
        first = make()
        sweep_a = first.sweep
        assert list((tmp_path / "objects").glob("*.blob"))
        second = make()
        sweep_b = second.sweep  # loaded from the store
        assert second.pipeline.plan(["sweep"]).nodes["sweep"].cached
        assert sweep_b.total_dynamic == sweep_a.total_dynamic
        assert np.array_equal(
            sweep_b.grid("pas").taken_misses, sweep_a.grid("pas").taken_misses
        )

    def test_cache_disabled(self, tmp_path):
        context = ExperimentContext(
            inputs="primary", scale=0.02, history_lengths=(0,), cache_dir=None
        )
        _ = context.sweep
        assert not list(tmp_path.rglob("*.blob"))

    def test_mismatched_history_cache_ignored(self, tmp_path):
        a = ExperimentContext(
            inputs="primary", scale=0.02, history_lengths=(0, 2), cache_dir=tmp_path
        )
        _ = a.sweep
        b = ExperimentContext(
            inputs="primary", scale=0.02, history_lengths=(0, 4), cache_dir=tmp_path
        )
        assert b.sweep.grid("pas").history_lengths == (0, 4)

    def test_history_tuple_changes_content_address(self, tmp_path):
        # Distinct non-contiguous sweeps sharing endpoints address
        # different artifacts (the old filename scheme collided them).
        def sweep_digest(lengths):
            context = ExperimentContext(
                inputs="primary", scale=0.02, history_lengths=lengths, cache_dir=tmp_path
            )
            return context.pipeline.plan(["sweep"]).digest_of("sweep")

        assert sweep_digest((0, 2, 4)) != sweep_digest((0, 1, 2, 3, 4))
        # Same tuple still maps to the same address (the cache still hits).
        assert sweep_digest((0, 2, 4)) == sweep_digest((0, 2, 4))

    def test_distinct_sweeps_coexist_in_store(self, tmp_path):
        sparse = ExperimentContext(
            inputs="primary", scale=0.02, history_lengths=(0, 4), cache_dir=tmp_path
        )
        _ = sparse.sweep
        dense = ExperimentContext(
            inputs="primary", scale=0.02, history_lengths=(0, 2, 4), cache_dir=tmp_path
        )
        _ = dense.sweep
        # Both sweep artifacts coexist; neither overwrote the other.
        kinds = [e["kind"] for e in sparse.store.entries()]
        assert kinds.count("sweep-grids") == 2
        reloaded = ExperimentContext(
            inputs="primary", scale=0.02, history_lengths=(0, 4), cache_dir=tmp_path
        )
        assert reloaded.pipeline.plan(["sweep"]).nodes["sweep"].cached
        assert reloaded.sweep.grid("gas").history_lengths == (0, 4)


class TestContextSession:
    def test_session_uses_context_engine(self):
        context = ExperimentContext(cache_dir=None, engine="reference")
        session = context.session()
        assert session.engine == "reference"
