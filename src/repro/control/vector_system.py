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
2. *Per-episode controller streams.*  The ``i``-th episode whose strategy
   draws randomness (the per-row :attr:`VectorSystemController.consumes_rng`
   mask) consumes the uniforms of ``numpy.random.default_rng(children[i])``
   — the same generator a scalar controller seeded with ``children[i]``
   draws from — pre-generated into row ``i`` of a buffer by
   :func:`~repro.sim.seeding.uniform_streams` and consumed one column per
   step, exactly when a stochastic strategy (``MixedReplicationStrategy``,
   ``TabularReplicationStrategy``) would call ``rng.random()``.

The strategy is per-row data too: each episode reads its own row of a
``(B, smax + 1)`` table ``pi(a=1 | s)``, so fleets with different
strategies, ``k`` and invariant flags step in one call.

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
        k: Maximum number of parallel recoveries (Prop. 1): one for every
            episode, or a ``(B,)`` array with one per episode.
        strategy: Replication strategy ``pi``; defaults to never adding.  A
            list of ``(rows, strategy)`` pairs, whose ``rows`` slices tile
            ``[0, B)``, gives each block of episodes its own strategy (the
            members of a cohort).  Strategies are applied through a
            ``(B, smax + 1)`` probability table ``pi(a=1 | s)`` unless they
            expose ``add_probability_batch(states, node_counts)`` (the
            learned PPO replication policy does, because its probability
            conditions on the current node count as well) or are
            class-aware; those act on their own rows, one call each.
        smax: Maximum number of nodes (and largest CMDP state).
        enforce_invariant: Whether to force additions when ``N_t`` would
            drop below ``2f + 1 + k``: one flag, or a ``(B,)`` array.
        num_episodes: Batch size ``B``.
        horizon: Maximum number of :meth:`step` calls (bounds the
            pre-generated uniform buffer of stochastic strategies).
        seed: Seed of the per-episode controller streams; the ``i``-th
            episode whose strategy draws randomness (:attr:`consumes_rng`)
            draws from child ``i`` of ``SeedSequence(seed)``.
        streams: Explicit ``(root, spawn_keys)`` segments overriding
            ``seed``, one key per episode of :attr:`consumes_rng` in
            episode order (see :func:`~repro.sim.seeding.uniform_streams`)
            — how the two-level controller shares one seed tree between the
            engine and the system level.
    """

    def __init__(
        self,
        f: int,
        k: int | np.ndarray = 1,
        strategy: ReplicationStrategy | None | list = None,
        smax: int = 13,
        enforce_invariant: bool | np.ndarray = True,
        num_episodes: int = 1,
        horizon: int = 1000,
        seed: int | None = None,
        streams: Streams | None = None,
    ) -> None:
        k = np.asarray(k, dtype=np.int64)
        if f < 0:
            raise ValueError("f must be non-negative")
        if np.any(k < 1):
            raise ValueError("k must be >= 1")
        if smax < 1:
            raise ValueError("smax must be >= 1")
        if num_episodes < 1:
            raise ValueError("num_episodes must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.smax = smax
        self.enforce_invariant = np.asarray(enforce_invariant, dtype=bool)
        #: Smallest admissible replication factor ``2f + 1 + k`` (Prop. 1d).
        self.minimum_nodes = 2 * f + 1 + k
        self.num_episodes = num_episodes
        self.horizon = horizon
        if not isinstance(strategy, list):
            strategy = [(slice(0, num_episodes), strategy)]
        self._rows = np.arange(num_episodes)
        self._table = np.zeros((num_episodes, smax + 1))
        #: Episodes whose strategy draws one uniform per step.
        self.consumes_rng = np.zeros(num_episodes, dtype=bool)
        self._batch_parts = []
        self._class_parts = []
        for rows, member in strategy:
            member = member if member is not None else NeverAddStrategy()
            stochastic = strategy_consumes_rng(member)
            self.consumes_rng[rows] = stochastic
            if strategy_is_class_aware(member):
                if not stochastic:
                    raise ValueError(
                        "class-aware replication strategies must consume rng "
                        "(consumes_rng=True): the batched controller samples "
                        "them through the shared per-episode uniform buffer, "
                        "matching the scalar controller's rng.random() draws"
                    )
                self._class_parts.append((rows, _ClassPolicy(member, smax)))
                continue
            batch = getattr(member, "add_probability_batch", None)
            if batch is not None:
                self._batch_parts.append((rows, batch))
            else:
                self._table[rows] = [member.add_probability(s) for s in range(smax + 1)]
        self._class_width = 1 + max(
            (policy.num_classes for _, policy in self._class_parts), default=0
        )
        self._uniforms: np.ndarray | None = None
        draws = int(self.consumes_rng.sum())
        if draws:
            if streams is None:
                streams = [(resolve_entropy(seed), range(draws))]
            uniforms = uniform_streams(streams, horizon)
            if uniforms.shape[0] != draws:
                raise ValueError(
                    f"need one stream per episode that draws randomness "
                    f"({draws}), got {uniforms.shape[0]}"
                )
            self._uniforms = uniforms
        self._step_index = 0
        self.total_additions = np.zeros(num_episodes, dtype=np.int64)
        self.total_evictions = np.zeros(num_episodes, dtype=np.int64)
        self.emergency_additions = np.zeros(num_episodes, dtype=np.int64)

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

        probs = self._table[self._rows, state]
        for rows, batch in self._batch_parts:
            probs[rows] = batch(state[rows], count_after_eviction[rows])
        if self._uniforms is None:
            add = probs > 0.5
        else:
            if self._step_index >= self.horizon:
                raise RuntimeError(
                    "controller horizon exhausted: construct the controller "
                    "with a larger horizon"
                )
            # One uniform per episode per step, drawn exactly when the
            # scalar strategy would call rng.random().
            uniforms = np.zeros(self.num_episodes)
            uniforms[self.consumes_rng] = self._uniforms[:, self._step_index]
            add = np.where(self.consumes_rng, uniforms < probs, probs > 0.5)
        self._step_index += 1

        add_class = None
        action_probabilities = None
        if self._class_parts:
            add_class = np.full(self.num_episodes, -1, dtype=np.int64)
            action_probabilities = np.zeros((self.num_episodes, self._class_width))
            for rows, policy in self._class_parts:
                # The same inverse-CDF rule the scalar strategy's `action`
                # applies (strategies.sample_action_index) — identical
                # comparisons over identical cumulative rows.
                table, cumulative = policy(state[rows], count_after_eviction[rows])
                action = np.minimum(
                    (cumulative <= uniforms[rows, None]).sum(axis=1),
                    cumulative.shape[1] - 1,
                )
                add[rows] = action > 0
                add_class[rows] = action - 1
                probs[rows] = 1.0 - table[:, 0]
                action_probabilities[rows, : table.shape[1]] = table

        emergency = ~add & (count_after_eviction < self.minimum_nodes)
        emergency &= self.enforce_invariant
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


class _ClassPolicy:
    """A class-aware strategy's ``pi(. | s)`` rows and their cumulative sums.

    Served from a per-state table, or from the strategy's
    ``action_probabilities_batch(states, node_counts)`` when it has one
    (the count-conditioned learned policy); the scalar controller samples
    with ``np.cumsum`` over the same rows, so the draw is bit-identical.
    """

    def __init__(self, strategy, smax: int) -> None:
        self.num_classes = len(strategy.class_names)
        self._batch = getattr(strategy, "action_probabilities_batch", None)
        if self._batch is None:
            self._table = np.stack(
                [
                    np.asarray(strategy.action_probabilities(s), dtype=float)
                    for s in range(smax + 1)
                ]
            )
            self._cumulative = np.cumsum(self._table, axis=1)

    def __call__(
        self, states: np.ndarray, node_counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._batch is None:
            return self._table[states], self._cumulative[states]
        table = np.asarray(self._batch(states, node_counts), dtype=float)
        return table, np.cumsum(table, axis=1)
