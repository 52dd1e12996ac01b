"""Integration tests for the experiment harness (tiny configuration).

These tests exercise every figure/table module end to end on a deliberately
tiny configuration so the whole suite stays fast; the asserted properties are
the qualitative shapes the paper reports, not absolute numbers.
"""

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_hierarchical_ablation,
    run_initialization_ablation,
    run_strategy_ablation,
)
from repro.experiments.config import (
    ExperimentConfig,
    paper_scale_config,
    small_scale_config,
    smoke_test_config,
)
from repro.experiments.context import ExperimentContext
from repro.experiments.figure1c import run_figure1c
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.model_comparison import run_model_comparison
from repro.experiments.reporting import EXPERIMENT_RUNNERS, run_all
from repro.experiments.table1 import run_table1
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        num_graphs=8,
        num_nodes=6,
        dataset_depths=(1, 2, 3),
        dataset_restarts=2,
        target_depths=(2, 3),
        evaluation_optimizers=("L-BFGS-B",),
        naive_restarts=2,
        num_test_graphs=2,
        num_regular_graphs=2,
        regular_depths=(1, 2, 3),
        regular_restarts=2,
        max_iterations=500,
        seed=7,
    )


@pytest.fixture(scope="module")
def tiny_context(tiny_config):
    return ExperimentContext(tiny_config)


class TestConfigs:
    def test_presets_are_valid(self):
        assert small_scale_config().num_graphs == 40
        assert smoke_test_config().num_graphs == 8
        assert paper_scale_config().num_graphs == 330
        assert paper_scale_config().dataset_restarts == 20

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_graphs=2)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset_depths=(2, 3))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(target_depths=(6,))
        with pytest.raises(ConfigurationError):
            ExperimentConfig(train_fraction=1.5)

    def test_scaled_override(self):
        config = small_scale_config().scaled(num_graphs=10, seed=1)
        assert config.num_graphs == 10
        assert config.seed == 1


class TestContextCaching:
    def test_stages_are_cached(self, tiny_context):
        assert tiny_context.ensemble() is tiny_context.ensemble()
        assert tiny_context.dataset() is tiny_context.dataset()
        assert tiny_context.predictor() is tiny_context.predictor()

    def test_split_sizes(self, tiny_config, tiny_context):
        train, test = tiny_context.split()
        assert len(train) + len(test) == tiny_config.num_graphs

    def test_test_problems_respect_limit(self, tiny_config, tiny_context):
        assert len(tiny_context.test_problems()) == tiny_config.num_test_graphs


class TestFigureExperiments:
    def test_figure1c_shape(self, tiny_config, tiny_context):
        result = run_figure1c(tiny_config, tiny_context)
        ar = result.ar_by_depth()
        fc = result.fc_by_depth()
        # AR improves and FC grows with depth (Fig. 1(c) motivation).
        assert ar[3] >= ar[1] - 0.02
        assert fc[3] > fc[1]
        assert "Fig. 1(c)" in result.to_text()

    def test_figure2_trends(self, tiny_config, tiny_context):
        result = run_figure2(tiny_config, tiny_context)
        assert len(result.table) > 0
        # At the tiny test scale (6-node graphs, 2 restarts) the monotone
        # trends are noisy, so only the structure is asserted here; the
        # paper-shape assertion lives in the benchmark harness.
        for row in result.trend_table:
            assert 0.0 <= row["gamma_increasing_fraction"] <= 1.0
            assert 0.0 <= row["beta_decreasing_fraction"] <= 1.0
        stages = [row["stage"] for row in result.table]
        assert max(stages) == max(d for d in tiny_config.regular_depths)

    def test_figure3_produces_all_depths(self, tiny_config, tiny_context):
        result = run_figure3(tiny_config, tiny_context)
        depths = {row["depth"] for row in result.table}
        assert depths == set(tiny_config.regular_depths)
        assert len(result.correlation_table) == 2

    def test_figure5_correlations(self, tiny_config, tiny_context):
        result = run_figure5(tiny_config, tiny_context)
        assert -1.0 <= result.gamma1_beta1_correlation <= 1.0
        # gamma_1 responses should correlate positively with gamma1OPT(p=1).
        assert result.correlation("gamma_1", "gamma1") > 0.0
        for row in result.correlation_table:
            for key in ("r_vs_gamma1", "r_vs_beta1", "r_vs_p"):
                assert -1.0 <= row[key] <= 1.0

    def test_figure6_error_reports(self, tiny_config, tiny_context):
        result = run_figure6(tiny_config, tiny_context)
        assert {row["target_depth"] for row in result.table} == set(
            tiny_config.target_depths
        )
        for row in result.table:
            assert row["mean_abs_percent_error"] >= 0.0
        assert result.mean_error(2) == result.table.rows[0]["mean_abs_percent_error"]


class TestTable1AndModels:
    def test_table1_structure_and_reduction(self, tiny_config, tiny_context):
        result = run_table1(tiny_config, tiny_context)
        expected_rows = len(tiny_config.evaluation_optimizers) * len(
            tiny_config.target_depths
        )
        assert len(result.table) == expected_rows
        assert len(result.summaries) == expected_rows
        summary = result.summary_for("L-BFGS-B", 3)
        assert summary.naive_mean_fc > 0
        assert summary.two_level_mean_fc > 0
        # The headline FC-reduction claim is asserted at realistic scale in
        # the benchmark harness; with only two tiny test graphs the sign of
        # the reduction is noisy, so only sanity bounds are checked here.
        assert -100.0 < summary.mean_fc_reduction_percent <= 100.0
        assert np.isfinite(result.average_fc_reduction)
        assert result.max_fc_reduction >= result.average_fc_reduction

    def test_model_comparison_metrics(self, tiny_config, tiny_context):
        result = run_model_comparison(tiny_config, tiny_context)
        models = {row["model"] for row in result.table}
        assert models == {"GPR", "LM", "RTREE", "RSVM"}
        for row in result.table:
            # Metrics are averaged over response variables, so by Jensen's
            # inequality mean(RMSE) <= sqrt(mean(MSE)).
            assert 0.0 < row["rmse"] <= np.sqrt(row["mse"]) + 1e-9
            assert row["mae"] >= 0.0
        assert result.best_model_by_rmse() in models


class TestAblations:
    def test_initialization_ablation(self, tiny_config, tiny_context):
        result = run_initialization_ablation(tiny_config, tiny_context)
        strategies = {row["strategy"] for row in result.table}
        assert strategies == {"random", "linear-ramp", "interp-p1", "ml-two-level"}
        assert result.mean_fc("random", 2) > 0

    def test_strategy_ablation(self, tiny_config, tiny_context):
        result = run_strategy_ablation(tiny_config, tiny_context)
        assert {row["strategy"] for row in result.table} == {"pooled", "per-depth"}

    def test_hierarchical_ablation(self, tiny_config, tiny_context):
        result = run_hierarchical_ablation(tiny_config, tiny_context, intermediate_depth=2)
        approaches = {row["approach"] for row in result.table}
        assert "two-level" in approaches
        assert any("hierarchical" in approach for approach in approaches)


class TestReporting:
    def test_run_all_subset_writes_files(self, tiny_config, tmp_path):
        results = run_all(
            tiny_config, tmp_path / "results", include=["figure5", "figure6"]
        )
        assert set(results) == {"figure5", "figure6"}
        assert (tmp_path / "results" / "figure5.txt").exists()
        assert (tmp_path / "results" / "figure6.csv").exists()
        assert (tmp_path / "results" / "summary.txt").exists()

    def test_unknown_experiment_rejected(self, tiny_config, tmp_path):
        with pytest.raises(KeyError):
            run_all(tiny_config, tmp_path, include=["figure99"])

    def test_registry_contains_all_paper_artifacts(self):
        for name in ("figure1c", "figure2", "figure3", "figure5", "figure6", "table1"):
            assert name in EXPERIMENT_RUNNERS


class TestDissipationSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.experiments.dissipation_sweep import run_dissipation_sweep

        config = ExperimentConfig(num_nodes=4, seed=5)
        return run_dissipation_sweep(
            config,
            dissipation_rates=(0.0, 0.1),
            anneal_times=(1.0, 8.0),
            num_graphs=2,
            rtol=1e-6,
            atol=1e-8,
        )

    def test_table_shape(self, sweep):
        assert len(list(sweep.table)) == 4  # 2 rates x 2 times
        assert sweep.num_graphs == 2
        row = sweep.row(0.0, 1.0)
        assert row["num_graphs"] == 2
        assert "rate" in sweep.to_text()

    def test_closed_system_improves_with_time(self, sweep):
        assert sweep.mean_ratio(0.0, 8.0) > sweep.mean_ratio(0.0, 1.0)
        assert sweep.best_anneal_time(0.0) == 8.0

    def test_dissipation_degrades_long_anneals(self, sweep):
        assert sweep.ratio_degradation(0.1, 8.0) > 0.0
        assert sweep.mean_ratio(0.1, 8.0) < sweep.mean_ratio(0.0, 8.0)

    def test_validation(self):
        from repro.experiments.dissipation_sweep import run_dissipation_sweep

        with pytest.raises(ConfigurationError, match="non-empty"):
            run_dissipation_sweep(dissipation_rates=())
        with pytest.raises(ConfigurationError, match=">= 0"):
            run_dissipation_sweep(dissipation_rates=(-0.1,))
        with pytest.raises(ConfigurationError, match="capped"):
            run_dissipation_sweep(
                ExperimentConfig(num_nodes=13),
                dissipation_rates=(0.1,),
            )

    def test_unknown_row_raises(self, sweep):
        with pytest.raises(KeyError):
            sweep.row(0.5, 1.0)
        with pytest.raises(KeyError):
            sweep.best_anneal_time(0.7)


class TestNoiseRobustness:
    def test_rejects_non_exact_base_context(self):
        from repro.execution import ExecutionContext
        from repro.experiments.noise_robustness import run_noise_robustness

        with pytest.raises(ConfigurationError, match="exact"):
            run_noise_robustness(
                ExperimentConfig(),
                context=ExecutionContext(shots=8),
                shot_budgets=(8,),
                noise_strengths=(0.0,),
                num_graphs=1,
            )
