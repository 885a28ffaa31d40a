"""Tests for reliability analysis (Appendix F, Fig. 6) and the metrics (Section III-C)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import (
    EpisodeMetrics,
    MetricsCollector,
    NodeParameters,
    ReliabilityAnalysis,
    confidence_interval,
    healthy_nodes_transition_matrix,
    mean_time_to_failure,
    metric_divergence_report,
    reliability_function,
    summarize_runs,
)


class TestHealthyNodesChain:
    def test_rows_stochastic(self):
        matrix = healthy_nodes_transition_matrix(10, 0.1)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_no_spontaneous_births(self):
        matrix = healthy_nodes_transition_matrix(5, 0.2)
        for s in range(6):
            for s_next in range(s + 1, 6):
                assert matrix[s, s_next] == pytest.approx(0.0)

    def test_absorbing_threshold(self):
        matrix = healthy_nodes_transition_matrix(5, 0.2, absorbing_threshold=2)
        for s in range(3):
            assert matrix[s, s] == 1.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            healthy_nodes_transition_matrix(0, 0.1)
        with pytest.raises(ValueError):
            healthy_nodes_transition_matrix(5, 1.5)


class TestMTTF:
    def test_zero_when_starting_failed(self):
        matrix = healthy_nodes_transition_matrix(5, 0.2)
        assert mean_time_to_failure(matrix, failure_threshold=3, initial_state=2) == 0.0

    def test_single_node_geometric(self):
        p_fail = 0.25
        matrix = healthy_nodes_transition_matrix(1, p_fail)
        mttf = mean_time_to_failure(matrix, failure_threshold=0, initial_state=1)
        assert mttf == pytest.approx(1.0 / p_fail, rel=1e-9)

    def test_more_nodes_live_longer(self):
        """The Fig. 6a shape: MTTF grows with N_1."""
        analysis = ReliabilityAnalysis(NodeParameters(p_a=0.025), f=3, k=1)
        curve = analysis.mttf_curve([10, 20, 40, 80])
        assert np.all(np.diff(curve) > 0)

    def test_higher_attack_rate_reduces_mttf(self):
        """The Fig. 6a ordering across p_A curves."""
        aggressive = ReliabilityAnalysis(NodeParameters(p_a=0.1), f=3, k=1).mttf(50)
        mild = ReliabilityAnalysis(NodeParameters(p_a=0.01), f=3, k=1).mttf(50)
        assert mild > aggressive

    def test_validates_initial_state(self):
        matrix = healthy_nodes_transition_matrix(5, 0.2)
        with pytest.raises(ValueError):
            mean_time_to_failure(matrix, failure_threshold=1, initial_state=99)


class TestReliabilityFunction:
    def test_monotone_decreasing(self):
        analysis = ReliabilityAnalysis(NodeParameters(p_a=0.05), f=3, k=1)
        curve = analysis.reliability_curve(25, 100)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_bounded_in_unit_interval(self):
        analysis = ReliabilityAnalysis(NodeParameters(p_a=0.05), f=3, k=1)
        curve = analysis.reliability_curve(25, 100)
        assert np.all((curve >= -1e-12) & (curve <= 1.0 + 1e-12))

    def test_more_nodes_more_reliable(self):
        """The Fig. 6b ordering: larger N_1 gives higher reliability at every t."""
        analysis = ReliabilityAnalysis(NodeParameters(p_a=0.05), f=3, k=1)
        small = analysis.reliability_curve(25, 60)
        large = analysis.reliability_curve(100, 60)
        assert np.all(large >= small - 1e-9)
        assert large[30] > small[30]

    def test_reliability_is_survival_of_mttf(self):
        """MTTF = sum_{t>=0} P[T > t] = 1 + sum_{t>=1} R(t)."""
        analysis = ReliabilityAnalysis(NodeParameters(p_a=0.1), f=1, k=1)
        mttf = analysis.mttf(10)
        curve = analysis.reliability_curve(10, 2000)
        assert 1.0 + float(curve.sum()) == pytest.approx(mttf, rel=1e-2)

    def test_direct_reliability_function(self):
        matrix = healthy_nodes_transition_matrix(4, 0.3)
        curve = reliability_function(matrix, failure_threshold=1, initial_state=4, horizon=20)
        assert curve.shape == (20,)
        assert curve[0] > curve[-1]


class TestMetricsCollector:
    def test_availability_counts_steps_within_f(self):
        collector = MetricsCollector(f=1)
        collector.record_step(healthy=3, compromised=1, crashed=0)
        collector.record_step(healthy=2, compromised=2, crashed=0)
        assert collector.availability() == pytest.approx(0.5)

    def test_empty_collector_defaults(self):
        collector = MetricsCollector(f=1)
        metrics = collector.finalize()
        assert metrics.availability == 1.0
        assert metrics.time_to_recovery == 0.0
        assert metrics.recovery_frequency == 0.0

    def test_recovery_frequency_is_per_node(self):
        collector = MetricsCollector(f=1)
        for _ in range(10):
            collector.record_step(healthy=4, compromised=0, crashed=0, recoveries=1)
        assert collector.recovery_frequency() == pytest.approx(10 / 40)

    def test_time_to_recovery_accounting(self):
        collector = MetricsCollector(f=1)
        collector.record_compromise("a")
        collector.record_step(4, 1, 0)
        collector.record_step(4, 1, 0)
        collector.record_recovery_start("a")
        collector.record_step(5, 0, 0, recoveries=1)
        assert collector.time_to_recovery() == pytest.approx(2.0)

    def test_unrecovered_compromise_is_censored(self):
        collector = MetricsCollector(f=1, max_time_to_recovery=100)
        collector.record_compromise("a")
        for _ in range(5):
            collector.record_step(2, 1, 0)
        assert collector.time_to_recovery() == pytest.approx(5.0)

    def test_censoring_respects_ceiling(self):
        collector = MetricsCollector(f=1, max_time_to_recovery=3)
        collector.record_compromise("a")
        for _ in range(10):
            collector.record_step(2, 1, 0)
        assert collector.time_to_recovery() == pytest.approx(3.0)

    def test_negative_counts_rejected(self):
        collector = MetricsCollector(f=1)
        with pytest.raises(ValueError):
            collector.record_step(-1, 0, 0)

    def test_f_must_be_non_negative(self):
        with pytest.raises(ValueError):
            MetricsCollector(f=-1)

    def test_finalize_counts(self):
        collector = MetricsCollector(f=1)
        collector.record_compromise("a")
        collector.record_step(2, 1, 0, recoveries=1)
        collector.record_recovery_start("a")
        metrics = collector.finalize()
        assert metrics.compromises == 1
        assert metrics.recoveries == 1
        assert metrics.episode_length == 1
        assert metrics.average_nodes == pytest.approx(3.0)


class TestStatistics:
    def test_confidence_interval_single_sample(self):
        mean, half = confidence_interval([5.0])
        assert mean == 5.0
        assert half == 0.0

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 1.0, size=50)
        mean, half = confidence_interval(samples)
        assert abs(mean - 10.0) < half + 0.5
        assert half > 0.0

    def test_confidence_interval_zero_variance(self):
        mean, half = confidence_interval([2.0, 2.0, 2.0])
        assert mean == 2.0
        assert half == 0.0

    def test_confidence_interval_requires_samples(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=300,
        ),
        confidence=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
    )
    def test_confidence_interval_matches_the_scipy_form(self, samples, confidence):
        values = np.asarray(samples)
        sem = stats.sem(values)
        expected_half = (
            0.0
            if sem == 0.0
            else float(sem * stats.t.ppf(0.5 + confidence / 2.0, values.size - 1))
        )
        assert confidence_interval(samples, confidence) == (
            float(values.mean()),
            expected_half,
        )

    def test_summarize_runs(self):
        runs = [
            EpisodeMetrics(0.9, 2.0, 0.1, 3.0, 100),
            EpisodeMetrics(0.8, 4.0, 0.2, 3.0, 100),
        ]
        summary = summarize_runs(runs)
        assert summary["availability"][0] == pytest.approx(0.85)
        assert summary["time_to_recovery"][0] == pytest.approx(3.0)

    def test_summarize_runs_requires_runs(self):
        with pytest.raises(ValueError):
            summarize_runs([])

    def test_metric_divergence_report_ranks_informative_metric_higher(self, rng):
        """The Appendix H analysis: a well-separated metric has larger KL divergence."""
        report = metric_divergence_report(
            {
                "ids_alerts": (rng.normal(10, 2, 500), rng.normal(30, 2, 500)),
                "blocks_read": (rng.normal(10, 2, 500), rng.normal(10.5, 2, 500)),
            }
        )
        assert report["ids_alerts"] > report["blocks_read"]

    def test_metric_divergence_constant_metric_is_zero(self):
        report = metric_divergence_report({"constant": ([1.0] * 10, [1.0] * 10)})
        assert report["constant"] == 0.0

    def test_metric_divergence_requires_samples(self):
        with pytest.raises(ValueError):
            metric_divergence_report({"empty": ([], [1.0])})
