"""Strategy-as-policy adapters for the vectorized environments.

A *vector policy* maps a :class:`~repro.envs.base.VectorObservation` to a
boolean ``(B, N)`` recover mask.  :class:`StrategyPolicy` turns any of the
package's decision objects into one:

* the core strategy classes of :mod:`repro.core.strategies` (via their
  native ``action_batch``);
* arbitrary scalar :class:`~repro.core.strategies.RecoveryStrategy`
  implementations (via the element-wise fallback of
  :func:`~repro.sim.strategies.as_batch_strategy`);
* learned policies such as :class:`~repro.solvers.ppo.PPOPolicy`, which
  exposes both ``action`` and ``action_batch``;
* per-node heterogeneous strategy lists, or the
  ``recovery_strategy_factory`` of an emulation
  :class:`~repro.emulation.environment.EvaluationPolicy` — so the same
  evaluation policy object drives the simulation and testbed backends
  unmodified.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.strategies import RecoveryStrategy
from ..sim.strategies import BatchStrategy, as_batch_strategy
from .base import VectorObservation

__all__ = ["VectorPolicy", "StrategyPolicy"]


@runtime_checkable
class VectorPolicy(Protocol):
    """Interface of a batched environment policy."""

    def act(
        self, observation: VectorObservation, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Boolean recover mask of shape ``(B, N)`` for this observation."""
        ...


class StrategyPolicy:
    """Run recovery strategies as a vector-environment policy.

    Args:
        strategies: One strategy shared by every node slot, or a sequence
            with one strategy per slot.  Scalar strategies are batched via
            :func:`~repro.sim.strategies.as_batch_strategy`.
    """

    def __init__(
        self, strategies: RecoveryStrategy | BatchStrategy | Sequence
    ) -> None:
        if isinstance(strategies, (list, tuple)):
            self._per_node: list[BatchStrategy] | None = [
                as_batch_strategy(s) for s in strategies
            ]
            self._shared: BatchStrategy | None = None
        else:
            self._per_node = None
            self._shared = as_batch_strategy(strategies)

    @classmethod
    def from_factory(cls, factory, num_nodes: int) -> "StrategyPolicy":
        """Build a per-slot policy from a node-id -> strategy factory.

        Accepts the ``recovery_strategy_factory`` of an emulation
        :class:`~repro.emulation.environment.EvaluationPolicy`, keyed by
        synthetic slot identifiers.
        """
        return cls([factory(f"slot-{j}") for j in range(num_nodes)])

    @property
    def strategies(self) -> BatchStrategy | tuple[BatchStrategy, ...]:
        """The shared batched strategy, or the tuple of per-slot ones."""
        if self._per_node is not None:
            return tuple(self._per_node)
        return self._shared

    def _strategy_for(self, node: int) -> BatchStrategy:
        if self._per_node is not None:
            if node >= len(self._per_node):
                raise ValueError(
                    f"policy has {len(self._per_node)} per-node strategies, "
                    f"got node index {node}"
                )
            return self._per_node[node]
        assert self._shared is not None
        return self._shared

    def act(
        self, observation: VectorObservation, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        del rng  # strategies are deterministic in the belief
        recover = np.zeros(observation.beliefs.shape, dtype=bool)
        for j in range(observation.num_nodes):
            recover[:, j] = self._strategy_for(j).action_batch(
                observation.beliefs[:, j], observation.time_since_recovery[:, j]
            )
        return recover & observation.active
