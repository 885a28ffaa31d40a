"""Observation models ``Z_i(o | s)`` for the node POMDP (Equation 3).

The node controller never observes the hidden state directly; it observes
``o_{i,t}``, the number of IDS alerts (weighted by priority) received during
the last time interval.  The paper uses two observation models:

* a *Beta-Binomial* model for the analytical experiments (Appendix E), with
  parameters ``BetaBin(n=10, alpha=0.7, beta=3)`` when healthy and
  ``BetaBin(n=10, alpha=1, beta=0.7)`` when compromised; and
* an *empirical* model ``\\hat{Z}_i`` estimated by maximum likelihood from
  alert traces collected on the testbed (Figure 11).

Both are provided here, together with the structural checks used by
Theorem 1: assumption (D) (full support) and assumption (E) (the TP-2 /
monotone likelihood ratio property), and the Kullback-Leibler divergence
used in Figure 14 and Appendix H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .node_model import NODE_STATES, NodeState

__all__ = [
    "ObservationModel",
    "BetaBinomialObservationModel",
    "EmpiricalObservationModel",
    "DiscreteObservationModel",
    "kl_divergence",
    "is_tp2",
]


def _normalize(pmf: np.ndarray) -> np.ndarray:
    total = pmf.sum()
    if total <= 0:
        raise ValueError("probability mass function must have positive mass")
    return pmf / total


def kl_divergence(p: np.ndarray, q: np.ndarray, epsilon: float = 1e-12) -> float:
    """Kullback-Leibler divergence ``D_KL(p || q)`` between two discrete pmfs.

    Zero-probability entries of ``q`` are floored at ``epsilon`` so the
    divergence stays finite, mirroring how the paper computes divergences
    between empirical alert distributions (Appendix H).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same support")
    p = _normalize(p)
    q = _normalize(np.maximum(q, epsilon))
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def is_tp2(matrix: np.ndarray, atol: float = 1e-12) -> bool:
    """Check whether a non-negative matrix is totally positive of order 2.

    A matrix ``M`` is TP-2 if every 2x2 minor is non-negative, i.e.
    ``M[i, j] * M[k, l] >= M[i, l] * M[k, j]`` for ``i < k`` and ``j < l``.
    Assumption (E) of Theorem 1 requires the observation matrix (rows indexed
    by states ordered H < C, columns by observations) to be TP-2, which is the
    monotone likelihood ratio property.
    """
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    for i in range(rows - 1):
        for j in range(cols - 1):
            for k in range(i + 1, rows):
                for l in range(j + 1, cols):
                    minor = matrix[i, j] * matrix[k, l] - matrix[i, l] * matrix[k, j]
                    if minor < -atol:
                        return False
    return True


class ObservationModel:
    """Base class for observation models over a finite alert-count alphabet.

    Subclasses must populate ``self._pmfs``, a mapping from
    :class:`NodeState` to a pmf over ``self.observations``.  The crashed
    state, which produces no observations in the paper (the node simply stops
    reporting), defaults to the healthy-state distribution unless specified,
    so that belief updates remain well defined.
    """

    def __init__(
        self,
        observations: Sequence[int],
        pmfs: Mapping[NodeState, np.ndarray],
    ) -> None:
        self.observations = np.asarray(list(observations), dtype=int)
        if len(self.observations) < 2:
            raise ValueError("observation space must contain at least two symbols")
        self._pmfs: dict[NodeState, np.ndarray] = {}
        for state in NODE_STATES:
            if state in pmfs:
                pmf = _normalize(np.asarray(pmfs[state], dtype=float))
            elif NodeState.HEALTHY in pmfs:
                pmf = _normalize(np.asarray(pmfs[NodeState.HEALTHY], dtype=float))
            else:
                raise ValueError("observation model requires at least the healthy pmf")
            if pmf.shape[0] != self.observations.shape[0]:
                raise ValueError("pmf length must match number of observations")
            self._pmfs[state] = pmf

    # -- queries --------------------------------------------------------------
    @property
    def num_observations(self) -> int:
        return int(self.observations.shape[0])

    def pmf(self, state: NodeState) -> np.ndarray:
        """Return the observation pmf ``Z(. | state)``."""
        return self._pmfs[state].copy()

    def probability(self, observation: int, state: NodeState) -> float:
        """Return ``Z(observation | state)``."""
        index = self._index_of(observation)
        return float(self._pmfs[state][index])

    def matrix(self) -> np.ndarray:
        """Observation matrix with rows ``(H, C, crash)`` and columns ``O``."""
        return np.vstack([self._pmfs[state] for state in NODE_STATES])

    def sampling_cdf(self) -> np.ndarray:
        """Per-state sampling CDFs, shape ``(|S|, |O|)``.

        Each row is the cumulative sum of the state's pmf normalized by its
        final entry — exactly the CDF that ``numpy.random.Generator.choice``
        inverts internally, so ``searchsorted(cdf[s], u, side='right')`` on a
        uniform draw ``u`` reproduces :meth:`sample` bit for bit.  Used by
        the vectorized simulator in :mod:`repro.sim`.
        """
        cdf = self.matrix().cumsum(axis=1)
        cdf /= cdf[:, -1:]
        return cdf

    def index_of(self, observation: int) -> int:
        """Index of ``observation`` in the support array :attr:`observations`."""
        matches = np.nonzero(self.observations == observation)[0]
        if matches.size == 0:
            raise ValueError(f"observation {observation} outside the model support")
        return int(matches[0])

    def indices_of(self, observations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of` over an array of observation values."""
        observations = np.asarray(observations)
        if np.all(np.diff(self.observations) > 0):
            indices = np.searchsorted(self.observations, observations)
            indices = np.clip(indices, 0, self.num_observations - 1)
        else:
            indices = np.array([self.index_of(int(o)) for o in observations.ravel()])
            indices = indices.reshape(observations.shape)
        if not np.array_equal(self.observations[indices], observations):
            raise ValueError("some observations lie outside the model support")
        return indices

    def _index_of(self, observation: int) -> int:
        return self.index_of(observation)

    # -- sampling -------------------------------------------------------------
    def sample(self, state: NodeState, rng: np.random.Generator) -> int:
        """Sample an observation ``o ~ Z(. | state)``."""
        pmf = self._pmfs[state]
        index = int(rng.choice(self.num_observations, p=pmf))
        return int(self.observations[index])

    def sample_many(
        self, state: NodeState, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        pmf = self._pmfs[state]
        indices = rng.choice(self.num_observations, size=count, p=pmf)
        return self.observations[indices]

    # -- Theorem 1 assumptions -------------------------------------------------
    def satisfies_assumption_d(self) -> bool:
        """Assumption D: every observation has positive probability in every state."""
        return all(np.all(self._pmfs[state] > 0.0) for state in (NodeState.HEALTHY, NodeState.COMPROMISED))

    def satisfies_assumption_e(self) -> bool:
        """Assumption E: the (H, C) observation matrix is TP-2."""
        matrix = np.vstack([self._pmfs[NodeState.HEALTHY], self._pmfs[NodeState.COMPROMISED]])
        return is_tp2(matrix)

    # -- information measures ---------------------------------------------------
    def detection_divergence(self) -> float:
        """``D_KL(Z(.|H) || Z(.|C))``: how informative observations are (Fig. 14)."""
        return kl_divergence(self._pmfs[NodeState.HEALTHY], self._pmfs[NodeState.COMPROMISED])

    def divergence_to(self, other: "ObservationModel", state: NodeState) -> float:
        """``D_KL(self(.|state) || other(.|state))`` on the common support."""
        if not np.array_equal(self.observations, other.observations):
            raise ValueError("observation models must share the same support")
        return kl_divergence(self._pmfs[state], other._pmfs[state])


@dataclass(frozen=True)
class BetaBinomialParameters:
    """Parameters of one Beta-Binomial alert distribution."""

    n: int
    alpha: float
    beta: float

    def pmf(self) -> np.ndarray:
        from scipy import special

        support = np.arange(self.n)
        return np.array(
            [
                float(
                    special.comb(self.n - 1, o)
                    * special.beta(o + self.alpha, self.n - 1 - o + self.beta)
                    / special.beta(self.alpha, self.beta)
                )
                for o in support
            ]
        )


class BetaBinomialObservationModel(ObservationModel):
    """The Beta-Binomial observation model of Appendix E.

    The paper uses ``Z(.|H) = BetaBin(n=10, alpha=0.7, beta=3)`` and
    ``Z(.|C) = BetaBin(n=10, alpha=1, beta=0.7)`` over the alert-count
    alphabet ``O = {0, ..., 9}``.  Compromised replicas skew the distribution
    toward larger alert counts, which yields the TP-2 property required by
    assumption (E).
    """

    def __init__(
        self,
        n: int = 10,
        healthy_alpha: float = 0.7,
        healthy_beta: float = 3.0,
        compromised_alpha: float = 1.0,
        compromised_beta: float = 0.7,
    ) -> None:
        healthy = BetaBinomialParameters(n, healthy_alpha, healthy_beta)
        compromised = BetaBinomialParameters(n, compromised_alpha, compromised_beta)
        observations = list(range(n))
        super().__init__(
            observations,
            {
                NodeState.HEALTHY: healthy.pmf(),
                NodeState.COMPROMISED: compromised.pmf(),
            },
        )
        self.healthy_params = healthy
        self.compromised_params = compromised


class DiscreteObservationModel(ObservationModel):
    """Observation model defined directly by per-state pmfs.

    Useful for tests, ablations, and for constructing perturbed models when
    studying sensitivity to detection accuracy (Figure 14).
    """

    def __init__(
        self,
        observations: Sequence[int],
        healthy_pmf: Sequence[float],
        compromised_pmf: Sequence[float],
        crashed_pmf: Sequence[float] | None = None,
    ) -> None:
        pmfs = {
            NodeState.HEALTHY: np.asarray(healthy_pmf, dtype=float),
            NodeState.COMPROMISED: np.asarray(compromised_pmf, dtype=float),
        }
        if crashed_pmf is not None:
            pmfs[NodeState.CRASHED] = np.asarray(crashed_pmf, dtype=float)
        super().__init__(observations, pmfs)


class EmpiricalObservationModel(ObservationModel):
    """Maximum-likelihood estimate ``\\hat{Z}_i`` from alert samples (Fig. 11).

    The estimator histograms alert counts observed while the node was healthy
    and while it was under intrusion, with add-``smoothing`` pseudo-counts so
    that assumption (D) (full support) holds even for finite samples.  By the
    Glivenko-Cantelli theorem the estimate converges almost surely to the
    true distribution as the number of samples grows, which is the argument
    the paper uses to justify fitting ``\\hat{Z}`` from 25 000 samples.
    """

    def __init__(
        self,
        healthy_samples: Iterable[int],
        compromised_samples: Iterable[int],
        num_observations: int | None = None,
        smoothing: float = 1.0,
    ) -> None:
        healthy = np.asarray(list(healthy_samples), dtype=int)
        compromised = np.asarray(list(compromised_samples), dtype=int)
        if healthy.size == 0 or compromised.size == 0:
            raise ValueError("both sample sets must be non-empty")
        if np.any(healthy < 0) or np.any(compromised < 0):
            raise ValueError("alert counts must be non-negative")
        if num_observations is None:
            num_observations = int(max(healthy.max(), compromised.max())) + 1
        observations = list(range(num_observations))
        healthy_counts = np.bincount(
            np.clip(healthy, 0, num_observations - 1), minlength=num_observations
        ).astype(float)
        compromised_counts = np.bincount(
            np.clip(compromised, 0, num_observations - 1), minlength=num_observations
        ).astype(float)
        healthy_counts += smoothing
        compromised_counts += smoothing
        super().__init__(
            observations,
            {
                NodeState.HEALTHY: healthy_counts,
                NodeState.COMPROMISED: compromised_counts,
            },
        )
        self.num_healthy_samples = int(healthy.size)
        self.num_compromised_samples = int(compromised.size)

    @classmethod
    def from_traces(
        cls,
        traces: Iterable[tuple[int, bool]],
        num_observations: int | None = None,
        smoothing: float = 1.0,
    ) -> "EmpiricalObservationModel":
        """Fit from ``(alert_count, intrusion_flag)`` pairs."""
        healthy: list[int] = []
        compromised: list[int] = []
        for count, intrusion in traces:
            (compromised if intrusion else healthy).append(int(count))
        return cls(healthy, compromised, num_observations=num_observations, smoothing=smoothing)


def poisson_observation_model(
    num_observations: int,
    healthy_rate: float,
    compromised_rate: float,
) -> DiscreteObservationModel:
    """Convenience constructor: truncated-Poisson alert model.

    Used by the emulation layer as the generative process for background
    alerts (healthy) versus intrusion alerts (compromised); the Poisson
    family with ``compromised_rate > healthy_rate`` is TP-2.
    """
    if compromised_rate <= healthy_rate:
        raise ValueError("compromised rate must exceed healthy rate for a useful detector")
    from scipy import stats

    support = np.arange(num_observations)
    healthy = stats.poisson.pmf(support, healthy_rate)
    compromised = stats.poisson.pmf(support, compromised_rate)
    healthy[-1] += stats.poisson.sf(num_observations - 1, healthy_rate)
    compromised[-1] += stats.poisson.sf(num_observations - 1, compromised_rate)
    return DiscreteObservationModel(list(support), healthy, compromised)
