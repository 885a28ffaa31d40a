"""Intrusion tolerance metrics (Section III-C) and statistical utilities.

The paper quantifies intrusion tolerance with three metrics:

* ``T^(R)`` -- average time-to-recovery: the average number of time-steps
  from the moment a node is compromised until recovery starts;
* ``T^(A)`` -- average availability: the fraction of time where the number
  of compromised and crashed nodes is at most ``f``; and
* ``F^(R)`` -- frequency of recoveries: the fraction of time-steps where a
  recovery occurs.

This module provides incremental estimators for these metrics
(:class:`MetricsCollector`), the Student-t confidence intervals used in all
tables and figures, and the Kullback-Leibler metric-selection analysis of
Appendix H (:func:`metric_divergence_report`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .observation import kl_divergence

__all__ = [
    "EpisodeMetrics",
    "MetricsCollector",
    "confidence_interval",
    "summarize_runs",
    "summarize_metric_arrays",
    "metric_divergence_report",
]


@dataclass(frozen=True)
class EpisodeMetrics:
    """Metrics of one evaluation episode.

    Attributes:
        availability: Average availability ``T^(A)`` in ``[0, 1]``.
        time_to_recovery: Average time-to-recovery ``T^(R)`` in time-steps.
            Following Table 7, episodes in which compromised nodes are never
            recovered report the episode length (e.g. ``10^3``).
        recovery_frequency: Fraction of time-steps with at least one recovery.
        average_nodes: Average number of nodes (the global objective ``J``).
        episode_length: Number of time-steps in the episode.
        recoveries: Total number of recovery actions executed.
        compromises: Total number of compromise events.
    """

    availability: float
    time_to_recovery: float
    recovery_frequency: float
    average_nodes: float
    episode_length: int
    recoveries: int = 0
    compromises: int = 0


class MetricsCollector:
    """Incremental estimator of ``T^(A)``, ``T^(R)``, ``F^(R)`` and ``J``.

    Usage::

        collector = MetricsCollector(f=1)
        for each time step:
            collector.record_step(
                healthy=..., compromised=..., crashed=...,
                recoveries=..., compromise_events=..., recovery_of_compromised=...)
        metrics = collector.finalize()

    Time-to-recovery accounting: the collector tracks, for every node that
    becomes compromised, how many steps elapse before that node is recovered
    (``record_compromise`` / ``record_recovery_start``).  Nodes still
    compromised at the end of the episode contribute the episode length, the
    same convention as the ``10^3`` entries of Table 7.
    """

    def __init__(self, f: int, max_time_to_recovery: float | None = None) -> None:
        if f < 0:
            raise ValueError("f must be non-negative")
        self.f = f
        self.max_time_to_recovery = max_time_to_recovery
        self._steps = 0
        self._available_steps = 0
        self._steps_with_recovery = 0
        self._total_recoveries = 0
        self._total_nodes = 0.0
        self._total_node_steps = 0
        self._open_compromises: dict[object, int] = {}
        self._completed_recovery_delays: list[int] = []
        self._total_compromises = 0

    # -- per-step updates -------------------------------------------------------
    def record_step(
        self,
        healthy: int,
        compromised: int,
        crashed: int,
        recoveries: int = 0,
    ) -> None:
        """Record the node-state census and recovery count of one time-step."""
        if min(healthy, compromised, crashed, recoveries) < 0:
            raise ValueError("counts must be non-negative")
        self._steps += 1
        total_nodes = healthy + compromised + crashed
        self._total_nodes += total_nodes
        self._total_node_steps += max(total_nodes, 1)
        if compromised + crashed <= self.f:
            self._available_steps += 1
        if recoveries > 0:
            self._steps_with_recovery += 1
        self._total_recoveries += recoveries
        for node_id in list(self._open_compromises):
            self._open_compromises[node_id] += 1

    def record_compromise(self, node_id: object) -> None:
        """Register that ``node_id`` became compromised at the current step."""
        if node_id not in self._open_compromises:
            self._open_compromises[node_id] = 0
            self._total_compromises += 1

    def record_recovery_start(self, node_id: object) -> None:
        """Register that recovery of ``node_id`` started at the current step."""
        delay = self._open_compromises.pop(node_id, None)
        if delay is not None:
            self._completed_recovery_delays.append(delay)

    # -- results ----------------------------------------------------------------
    @property
    def steps(self) -> int:
        return self._steps

    def availability(self) -> float:
        if self._steps == 0:
            return 1.0
        return self._available_steps / self._steps

    def recovery_frequency(self) -> float:
        """Per-node recovery frequency ``F^(R)``: recoveries per node-step.

        This is the per-node quantity that appears in the objective of
        Problem 1 (Eq. 5) and in Table 7: PERIODIC with period ``Delta_R``
        has ``F^(R) ~= 1 / Delta_R`` regardless of the system size.

        The estimate is clamped to ``[0, 1]``: a frequency cannot exceed
        one, but a degenerate census (more recoveries reported than nodes
        present in a step) could otherwise push the ratio above it.
        """
        if self._total_node_steps == 0:
            return 0.0
        return min(self._total_recoveries / self._total_node_steps, 1.0)

    def time_to_recovery(self) -> float:
        """Average time-to-recovery ``T^(R)``.

        Compromises still unresolved at the end of the episode are censored:
        they contribute the time elapsed since the compromise (capped at
        ``max_time_to_recovery``), which reproduces the ``10^3``-style
        entries of Table 7 for strategies that never recover.
        """
        ceiling = self.max_time_to_recovery if self.max_time_to_recovery is not None else float(self._steps)
        delays: list[float] = [float(d) for d in self._completed_recovery_delays]
        delays.extend(min(float(elapsed), float(ceiling)) for elapsed in self._open_compromises.values())
        if not delays:
            return 0.0
        return float(np.mean(delays))

    def average_nodes(self) -> float:
        if self._steps == 0:
            return 0.0
        return self._total_nodes / self._steps

    def finalize(self) -> EpisodeMetrics:
        return EpisodeMetrics(
            availability=self.availability(),
            time_to_recovery=self.time_to_recovery(),
            recovery_frequency=self.recovery_frequency(),
            average_nodes=self.average_nodes(),
            episode_length=self._steps,
            recoveries=self._total_recoveries,
            compromises=self._total_compromises,
        )


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and Student-t half-width, the convention used by all paper tables.

    The standard error is ``std(ddof=1) / sqrt(n)``, the arithmetic of
    ``scipy.stats.sem`` without its per-call dispatch, and the t quantile
    is cached per ``(confidence, df)``.
    """
    values = np.asarray(
        samples if isinstance(samples, np.ndarray) else list(samples), dtype=float
    )
    if values.size == 0:
        raise ValueError("at least one sample is required")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    sem = values.std(ddof=1) / math.sqrt(values.size)
    if sem == 0.0 or math.isnan(sem):
        return mean, 0.0
    half_width = float(sem * _t_quantile(confidence, values.size - 1))
    return mean, half_width


@functools.lru_cache(maxsize=256)
def _t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t quantile ``t_{(1 + confidence) / 2, df}``.

    ``special.stdtrit(df, q)`` is the function ``stats.t.ppf`` evaluates,
    so the result is bit-equal to ``float(stats.t.ppf(q, df))`` without
    importing ``scipy.stats``.
    """
    from scipy import special

    return float(special.stdtrit(df, 0.5 + confidence / 2.0))


def summarize_runs(
    runs: Sequence[EpisodeMetrics], confidence: float = 0.95
) -> dict[str, tuple[float, float]]:
    """Aggregate per-seed episode metrics into (mean, ci) pairs per metric."""
    if not runs:
        raise ValueError("at least one run is required")
    return {
        "availability": confidence_interval([r.availability for r in runs], confidence),
        "time_to_recovery": confidence_interval([r.time_to_recovery for r in runs], confidence),
        "recovery_frequency": confidence_interval([r.recovery_frequency for r in runs], confidence),
        "average_nodes": confidence_interval([r.average_nodes for r in runs], confidence),
    }


def summarize_metric_arrays(
    metric_arrays: Mapping[str, Sequence[float]], confidence: float = 0.95
) -> dict[str, tuple[float, float]]:
    """Aggregate per-episode metric arrays into ``(mean, ci)`` pairs.

    The array-native counterpart of :func:`summarize_runs`, used to
    summarize the per-episode statistics produced by the batch simulation
    engine (:mod:`repro.sim`), where each metric arrives as one array over
    episodes instead of a list of :class:`EpisodeMetrics` objects.
    """
    if not metric_arrays:
        raise ValueError("at least one metric array is required")
    return {
        name: confidence_interval(np.asarray(values, dtype=float).ravel(), confidence)
        for name, values in metric_arrays.items()
    }


def metric_divergence_report(
    metric_samples: Mapping[str, tuple[Iterable[float], Iterable[float]]],
    num_bins: int = 30,
) -> dict[str, float]:
    """KL-divergence ranking of candidate detection metrics (Appendix H, Fig. 18).

    Args:
        metric_samples: Mapping from metric name to a pair
            ``(samples_no_intrusion, samples_intrusion)``.
        num_bins: Number of histogram bins used to discretize continuous
            metrics before computing the divergence.

    Returns:
        Mapping from metric name to ``D_KL(Z_{O|H} || Z_{O|C})``, higher means
        the metric carries more information for detecting intrusions.
    """
    report: dict[str, float] = {}
    for name, (healthy_samples, intrusion_samples) in metric_samples.items():
        healthy = np.asarray(list(healthy_samples), dtype=float)
        intrusion = np.asarray(list(intrusion_samples), dtype=float)
        if healthy.size == 0 or intrusion.size == 0:
            raise ValueError(f"metric {name!r} must have samples for both conditions")
        low = min(healthy.min(), intrusion.min())
        high = max(healthy.max(), intrusion.max())
        if low == high:
            report[name] = 0.0
            continue
        bins = np.linspace(low, high, num_bins + 1)
        healthy_hist, _ = np.histogram(healthy, bins=bins)
        intrusion_hist, _ = np.histogram(intrusion, bins=bins)
        report[name] = kl_divergence(
            healthy_hist.astype(float) + 1e-6, intrusion_hist.astype(float) + 1e-6
        )
    return report
