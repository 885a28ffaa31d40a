"""Reliability analysis: MTTF and the reliability function (Appendix F, Fig. 6).

The number of healthy nodes in a system without recoveries is a Markov chain
on ``{0, 1, ..., N}``.  Service fails when fewer than ``f + 1`` nodes are
healthy, i.e. when the chain enters the absorbing set
``F = {0, ..., f}``.  Appendix F derives:

* the mean time to failure (MTTF) as the mean hitting time of ``F``,
  obtained by solving a linear system (Gaussian elimination); and
* the reliability function ``R(t) = P[T^(f) > t]`` via the
  Chapman-Kolmogorov equation, ``R(t) = sum_{s not in F} (e_{s1}^T P^t)_s``.

The transition matrix ``P`` is built from the per-node failure probability:
with independent nodes each healthy node fails (crashes or is compromised)
with probability ``p_fail = 1 - (1 - p_a)(1 - p_c1)`` per step, so the
number of healthy nodes follows a binomial thinning process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .node_model import NodeParameters

__all__ = [
    "ReliabilityAnalysis",
    "healthy_nodes_transition_matrix",
    "mean_time_to_failure",
    "reliability_function",
]


def healthy_nodes_transition_matrix(
    num_nodes: int,
    per_node_failure_probability: float,
    absorbing_threshold: int | None = None,
) -> np.ndarray:
    """Transition matrix of the healthy-node-count Markov chain.

    Args:
        num_nodes: Maximum number of nodes ``N`` (states are ``0..N``).
        per_node_failure_probability: Probability that a healthy node fails
            during one time-step.
        absorbing_threshold: If given, states ``0..absorbing_threshold`` are
            made absorbing (used for MTTF computations where the failure set
            ``F = {0..f}`` is absorbing).

    Returns:
        Row-stochastic matrix ``P`` of shape ``(N + 1, N + 1)`` where
        ``P[s, s']`` is the probability of going from ``s`` healthy nodes to
        ``s'`` healthy nodes in one step (without recoveries, ``s' <= s``).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0.0 <= per_node_failure_probability <= 1.0:
        raise ValueError("per_node_failure_probability must be a probability")
    from scipy import stats

    size = num_nodes + 1
    matrix = np.zeros((size, size))
    for s in range(size):
        if absorbing_threshold is not None and s <= absorbing_threshold:
            matrix[s, s] = 1.0
            continue
        # Each of the s healthy nodes fails independently with probability p.
        failures = np.arange(s + 1)
        probs = stats.binom.pmf(failures, s, per_node_failure_probability)
        for num_failures, prob in zip(failures, probs):
            matrix[s, s - num_failures] += prob
    return matrix


def mean_time_to_failure(
    transition_matrix: np.ndarray,
    failure_threshold: int,
    initial_state: int,
) -> float:
    """Mean hitting time of ``F = {0..failure_threshold}`` from ``initial_state``.

    Solves the linear system of Appendix F:
    ``E[T | s] = 0`` for ``s in F`` and
    ``E[T | s] = 1 + sum_{s' not in F} P[s, s'] E[T | s']`` otherwise.
    """
    size = transition_matrix.shape[0]
    if initial_state < 0 or initial_state >= size:
        raise ValueError("initial_state outside the state space")
    if initial_state <= failure_threshold:
        return 0.0
    transient = [s for s in range(size) if s > failure_threshold]
    index = {s: i for i, s in enumerate(transient)}
    n = len(transient)
    # (I - Q) h = 1, where Q is the transient-to-transient block.
    q = np.zeros((n, n))
    for s in transient:
        for s_next in transient:
            q[index[s], index[s_next]] = transition_matrix[s, s_next]
    rhs = np.ones(n)
    hitting_times = np.linalg.solve(np.eye(n) - q, rhs)
    return float(hitting_times[index[initial_state]])


def reliability_function(
    transition_matrix: np.ndarray,
    failure_threshold: int,
    initial_state: int,
    horizon: int,
) -> np.ndarray:
    """Reliability ``R(t) = P[T^(f) > t]`` for ``t = 1..horizon`` (Eq. 18).

    To measure the *first* hitting time the failure set is made absorbing
    before iterating the Chapman-Kolmogorov equation.
    """
    size = transition_matrix.shape[0]
    matrix = transition_matrix.copy()
    for s in range(min(failure_threshold + 1, size)):
        matrix[s, :] = 0.0
        matrix[s, s] = 1.0
    distribution = np.zeros(size)
    distribution[initial_state] = 1.0
    curve = np.empty(horizon)
    for t in range(horizon):
        distribution = distribution @ matrix
        curve[t] = distribution[failure_threshold + 1:].sum()
    return curve


@dataclass
class ReliabilityAnalysis:
    """Convenience wrapper reproducing Figure 6 from node parameters.

    Attributes:
        params: Per-node failure parameters (only ``p_a`` and ``p_c1`` are
            used; recoveries and updates are disabled as in Fig. 6).
        f: Tolerance threshold.
        k: Maximum parallel recoveries (enters the failure condition
            ``N_t < 2f + k + 1`` used by Fig. 6's caption).
    """

    params: NodeParameters
    f: int = 3
    k: int = 1

    @property
    def per_node_failure_probability(self) -> float:
        return 1.0 - (1.0 - self.params.p_a) * (1.0 - self.params.p_c1)

    def failure_threshold(self, initial_nodes: int) -> int:
        """Largest healthy-node count that still counts as failed.

        Figure 6 defines system failure as ``N_t < 2f + k + 1``; with the
        healthy-node chain this corresponds to the absorbing set
        ``{0, ..., 2f + k}`` (capped below the initial node count).
        """
        threshold = 2 * self.f + self.k
        return min(threshold, max(initial_nodes - 1, 0))

    def transition_matrix(self, initial_nodes: int) -> np.ndarray:
        return healthy_nodes_transition_matrix(
            initial_nodes, self.per_node_failure_probability
        )

    def mttf(self, initial_nodes: int) -> float:
        """Mean time to failure ``E[T^(f)]`` starting from ``initial_nodes``."""
        matrix = self.transition_matrix(initial_nodes)
        return mean_time_to_failure(
            matrix, self.failure_threshold(initial_nodes), initial_nodes
        )

    def mttf_curve(self, initial_node_counts: list[int]) -> np.ndarray:
        """MTTF as a function of ``N_1`` (Figure 6a)."""
        return np.array([self.mttf(n) for n in initial_node_counts])

    def reliability_curve(self, initial_nodes: int, horizon: int) -> np.ndarray:
        """Reliability function ``R(t)`` for ``t = 1..horizon`` (Figure 6b)."""
        matrix = self.transition_matrix(initial_nodes)
        return reliability_function(
            matrix, self.failure_threshold(initial_nodes), initial_nodes, horizon
        )
