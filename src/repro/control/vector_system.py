"""Vectorized system-level controller: Section V-B over ``B`` fleets at once.

:class:`VectorSystemController` is the batched refactor of the scalar
:class:`~repro.core.system_controller.SystemController` (which is kept as
the bit-parity reference): one :meth:`step` advances the replication
feedback loop of ``B`` independent fleet episodes as array operations —
eviction of non-reporting nodes, the CMDP state ``s_t`` of Eq. 8, a
replication-strategy decision ``pi(a | s_t)`` and the Proposition 1
emergency-add invariant ``N_t >= 2f + 1 + k``.

Decisions are **bit-identical** to ``B`` scalar controllers under shared
seeds.  Two properties make that exact rather than statistical:

1. *Sequential state accumulation.*  The CMDP state sums ``1 - b_i`` over
   node slots in slot order with the same float additions the scalar
   controller's Python ``sum`` performs (non-reporting slots contribute an
   exact ``+0.0``), so ``floor`` never diverges at integer boundaries.
2. *Per-episode controller streams.*  Episode ``b`` consumes the uniforms
   of ``numpy.random.default_rng(children[b])`` — the same generator a
   scalar controller seeded with ``children[b]`` draws from — pre-generated
   into a ``(B, horizon)`` buffer by :func:`~repro.sim.seeding.uniform_streams`
   and consumed one column per step, exactly
   when a stochastic strategy (``MixedReplicationStrategy``,
   ``TabularReplicationStrategy``) would call ``rng.random()``.

Class-aware strategies (``{wait, add(c_1), ..., add(c_C)}`` on
heterogeneous fleets) keep both properties: the decision samples one
uniform per step through the same inverse-CDF rule the scalar strategy's
``action`` applies (:func:`~repro.core.strategies.sample_action_index`)
over identical cumulative probability rows, and the chosen class index
rides on the decision record (:attr:`VectorSystemDecision.add_class`).

``tests/test_control_plane.py`` asserts the resulting decision parity per
strategy class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.strategies import (
    AdaptiveHeuristicReplicationStrategy,
    NeverAddStrategy,
    ReplicationStrategy,
    ReplicationThresholdStrategy,
    strategy_is_class_aware,
)
from ..sim.seeding import Streams, resolve_entropy, uniform_streams

__all__ = [
    "VectorSystemDecision",
    "VectorSystemController",
    "strategy_consumes_rng",
    "expected_healthy_nodes_batch",
]


def strategy_consumes_rng(strategy: ReplicationStrategy) -> bool:
    """Whether ``strategy.action`` draws one uniform per step.

    Mirrors the scalar convention: the deterministic strategies
    (:class:`~repro.core.strategies.ReplicationThresholdStrategy`,
    :class:`~repro.core.strategies.NeverAddStrategy`,
    :class:`~repro.core.strategies.AdaptiveHeuristicReplicationStrategy`)
    ignore their generator, while the randomized ones call ``rng.random()``
    exactly once per :meth:`action`.  Custom strategies may override the
    classification with a boolean ``consumes_rng`` attribute.
    """
    flag = getattr(strategy, "consumes_rng", None)
    if flag is not None:
        return bool(flag)
    return not isinstance(
        strategy,
        (
            ReplicationThresholdStrategy,
            NeverAddStrategy,
            AdaptiveHeuristicReplicationStrategy,
        ),
    )


def expected_healthy_nodes_batch(
    beliefs: np.ndarray, reporting: np.ndarray, smax: int
) -> np.ndarray:
    """Per-episode CMDP state ``s_t = floor(sum_i (1 - b_i))`` (Eq. 8).

    Masks the ``(B, N)`` block once, then accumulates slot by slot
    (vectorized over episodes, never ``sum(axis=1)``) so the float
    addition order matches the scalar controller's Python ``sum`` over its
    belief dict — the bit-parity requirement; a masked slot contributes an
    exact ``+0.0``.
    """
    healthy = np.where(reporting, 1.0 - np.asarray(beliefs, dtype=float), 0.0)
    total = np.zeros(healthy.shape[0])
    for j in range(healthy.shape[1]):
        total += healthy[:, j]
    return np.clip(np.floor(total), 0, smax).astype(np.int64)


@dataclass(frozen=True)
class VectorSystemDecision:
    """Outcome of one batched system-controller step (all arrays over ``B``).

    Attributes:
        state: CMDP states ``s_t``, shape ``(B,)``.
        add_node: Whether a node addition was requested, shape ``(B,)``.
        emergency_add: Whether the addition was forced by the Prop. 1
            invariant rather than the strategy, shape ``(B,)``.
        evicted: Per-slot eviction mask (registered but not reporting),
            shape ``(B, S)``.
        add_probability: The strategy's ``pi(a=1 | s_t)`` used for the
            decision, shape ``(B,)`` (1/0 for forced/capped overrides are
            *not* folded in — this is the policy probability, which the PPO
            replication trainer consumes).  For class-aware strategies this
            is the total add mass ``1 - pi(wait | s_t)``.
        capped: Whether a requested addition was dropped because the
            physical cluster is exhausted (``N_t >= smax``), shape ``(B,)``.
        node_count_after_eviction: ``N_t`` after removing evicted nodes,
            before any addition, shape ``(B,)``.
        add_class: Chosen container-class index per episode (into the
            strategy's ``class_names``), shape ``(B,)``; ``-1`` where no
            class was chosen (wait, emergency add, capped).  ``None`` for
            classless strategies.
        action_probabilities: The full per-action distribution
            ``pi(. | s_t)`` the decision was sampled from, shape
            ``(B, 1 + C)``; ``None`` for classless strategies.  The
            class-aware PPO replication trainer consumes it.
    """

    state: np.ndarray
    add_node: np.ndarray
    emergency_add: np.ndarray
    evicted: np.ndarray
    add_probability: np.ndarray
    capped: np.ndarray
    node_count_after_eviction: np.ndarray
    add_class: np.ndarray | None = None
    action_probabilities: np.ndarray | None = None


class VectorSystemController:
    """Batched feedback controller for the replication factors of ``B`` fleets.

    Args:
        f: Tolerance threshold of the consensus protocol.
        k: Maximum number of parallel recoveries (Prop. 1).
        strategy: Replication strategy ``pi``; defaults to never adding.
            Strategies are applied through a precomputed probability table
            ``pi(a=1 | s)`` over ``s in {0, ..., smax}`` unless they expose
            ``add_probability_batch(states, node_counts)`` (the learned PPO
            replication policy does, because its probability conditions on
            the current node count as well).
        smax: Maximum number of nodes (and largest CMDP state).
        enforce_invariant: Whether to force additions when ``N_t`` would
            drop below ``2f + 1 + k``.
        num_episodes: Batch size ``B``.
        horizon: Maximum number of :meth:`step` calls (bounds the
            pre-generated uniform buffer of stochastic strategies).
        seed: Seed of the per-episode controller streams; episode ``b``
            draws from child ``b`` of ``SeedSequence(seed)``.
        streams: Explicit ``(root, spawn_keys)`` segments overriding
            ``seed``, one key per episode in episode order (see
            :func:`~repro.sim.seeding.uniform_streams`) — how the
            two-level controller shares one seed tree between the engine
            and the system level.
    """

    def __init__(
        self,
        f: int,
        k: int = 1,
        strategy: ReplicationStrategy | None = None,
        smax: int = 13,
        enforce_invariant: bool = True,
        num_episodes: int = 1,
        horizon: int = 1000,
        seed: int | None = None,
        streams: Streams | None = None,
    ) -> None:
        if f < 0:
            raise ValueError("f must be non-negative")
        if k < 1:
            raise ValueError("k must be >= 1")
        if smax < 1:
            raise ValueError("smax must be >= 1")
        if num_episodes < 1:
            raise ValueError("num_episodes must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.f = f
        self.k = k
        self.smax = smax
        self.strategy: ReplicationStrategy = (
            strategy if strategy is not None else NeverAddStrategy()
        )
        self.enforce_invariant = enforce_invariant
        self.num_episodes = num_episodes
        self.horizon = horizon
        self._stochastic = strategy_consumes_rng(self.strategy)
        self._class_aware = strategy_is_class_aware(self.strategy)
        self._batch_probability = None
        self._class_batch_probability = None
        self._table = None
        self._class_cumulative = None
        if self._class_aware:
            # Class-aware strategies are applied through the cumulative
            # per-action table (or the count-conditioned batched variant);
            # the scalar controller samples with np.cumsum over the same
            # rows, so the inverse-CDF comparison is bit-identical.
            if not self._stochastic:
                raise ValueError(
                    "class-aware replication strategies must consume rng "
                    "(consumes_rng=True): the batched controller samples "
                    "them through the shared per-episode uniform buffer, "
                    "matching the scalar controller's rng.random() draws"
                )
            self.class_names: tuple[str, ...] | None = tuple(self.strategy.class_names)
            self._class_batch_probability = getattr(
                self.strategy, "action_probabilities_batch", None
            )
            if self._class_batch_probability is None:
                table = np.stack(
                    [
                        np.asarray(self.strategy.action_probabilities(s), dtype=float)
                        for s in range(smax + 1)
                    ]
                )
                self._class_cumulative = np.cumsum(table, axis=1)
                self._class_table = table
        else:
            self.class_names = None
            self._batch_probability = getattr(
                self.strategy, "add_probability_batch", None
            )
            if self._batch_probability is None:
                self._table = np.array(
                    [self.strategy.add_probability(s) for s in range(smax + 1)]
                )
        self._uniforms: np.ndarray | None = None
        if self._stochastic:
            if streams is None:
                streams = [(resolve_entropy(seed), range(num_episodes))]
            self._uniforms = uniform_streams(streams, horizon)
            if self._uniforms.shape[0] != num_episodes:
                raise ValueError(
                    f"need one stream per episode ({num_episodes}), "
                    f"got {self._uniforms.shape[0]}"
                )
        self._step_index = 0
        self.total_additions = np.zeros(num_episodes, dtype=np.int64)
        self.total_evictions = np.zeros(num_episodes, dtype=np.int64)
        self.emergency_additions = np.zeros(num_episodes, dtype=np.int64)

    # -- helpers -----------------------------------------------------------------
    @property
    def minimum_nodes(self) -> int:
        """Smallest admissible replication factor ``2f + 1 + k`` (Prop. 1d)."""
        return 2 * self.f + 1 + self.k

    # -- control loop ------------------------------------------------------------
    def step(
        self,
        beliefs: np.ndarray,
        reporting: np.ndarray,
        registered: np.ndarray | None = None,
        node_counts: np.ndarray | None = None,
    ) -> VectorSystemDecision:
        """Run one step of the global control loop for every episode.

        Args:
            beliefs: Reported beliefs per slot, shape ``(B, S)``; only
                entries where ``reporting & registered`` holds are read.
            reporting: Slots that reported a belief this step, ``(B, S)``.
            registered: Slots the controller expects reports from; members
                that fail to report are evicted.  Defaults to exactly the
                reporting slots (no eviction), as in the scalar controller.
            node_counts: Current replication factors ``N_t``, shape
                ``(B,)``; defaults to the registered counts.

        Returns:
            The batched decision record.
        """
        beliefs = np.asarray(beliefs, dtype=float)
        reporting = np.asarray(reporting, dtype=bool)
        if beliefs.shape[0] != self.num_episodes:
            raise ValueError(
                f"expected {self.num_episodes} episodes, got {beliefs.shape[0]}"
            )
        if registered is None:
            registered = reporting
        registered = np.asarray(registered, dtype=bool)
        evicted = registered & ~reporting
        self.total_evictions += evicted.sum(axis=1)

        live = reporting & registered
        state = expected_healthy_nodes_batch(beliefs, live, self.smax)

        if node_counts is None:
            node_counts = registered.sum(axis=1)
        node_counts = np.asarray(node_counts, dtype=np.int64)
        count_after_eviction = node_counts - evicted.sum(axis=1)

        add_class = None
        action_probabilities = None
        if self._class_aware:
            if self._class_batch_probability is not None:
                action_probabilities = np.asarray(
                    self._class_batch_probability(state, count_after_eviction),
                    dtype=float,
                )
                cumulative = np.cumsum(action_probabilities, axis=1)
            else:
                action_probabilities = self._class_table[state]
                cumulative = self._class_cumulative[state]
            if self._step_index >= self.horizon:
                raise RuntimeError(
                    "controller horizon exhausted: construct the controller "
                    "with a larger horizon"
                )
            # One uniform per episode per step, consumed by the same
            # inverse-CDF rule the scalar strategy's `action` applies
            # (strategies.sample_action_index) — identical comparisons over
            # identical cumulative rows.
            uniforms = self._uniforms[:, self._step_index]
            num_actions = cumulative.shape[1]
            action = np.minimum(
                (cumulative <= uniforms[:, None]).sum(axis=1), num_actions - 1
            )
            add = action > 0
            add_class = np.where(add, action - 1, -1).astype(np.int64)
            probs = 1.0 - action_probabilities[:, 0]
        else:
            if self._batch_probability is not None:
                probs = np.asarray(
                    self._batch_probability(state, count_after_eviction), dtype=float
                )
            else:
                probs = self._table[state]
            if self._stochastic:
                if self._step_index >= self.horizon:
                    raise RuntimeError(
                        "controller horizon exhausted: construct the controller "
                        "with a larger horizon"
                    )
                # One uniform per episode per step, drawn exactly when the
                # scalar strategy would call rng.random().
                add = self._uniforms[:, self._step_index] < probs
            else:
                add = probs > 0.5
        self._step_index += 1

        emergency = np.zeros_like(add)
        if self.enforce_invariant:
            emergency = ~add & (count_after_eviction < self.minimum_nodes)
            add = add | emergency
            self.emergency_additions += emergency

        # The physical cluster is exhausted; the request is dropped.
        capped = add & (count_after_eviction >= self.smax)
        add = add & ~capped
        emergency = emergency & ~capped
        if add_class is not None:
            # Emergency and capped overrides carry no class choice: the
            # emergency add activates the first free slot of any class.
            add_class = np.where(add & (add_class >= 0), add_class, -1)

        self.total_additions += add
        return VectorSystemDecision(
            state=state,
            add_node=add,
            emergency_add=emergency,
            evicted=evicted,
            add_probability=probs,
            capped=capped,
            node_count_after_eviction=count_after_eviction,
            add_class=add_class,
            action_probabilities=action_probabilities,
        )
