"""Learned replication control: PPO trained on the batched fleet environment.

The paper's system level is solved with planning (Algorithm 2) against a
fitted kernel ``f_S``.  This module adds the model-free contender the
ROADMAP calls for: a PPO policy trained *directly* on closed-loop
:class:`~repro.envs.FleetVectorEnv` rollouts driven by the
:class:`~repro.control.two_level.TwoLevelController` — no ``f_S`` estimate
in the loop.  The policy reuses the compact network and clipped-surrogate
update of :mod:`repro.solvers.ppo`; its two features are the CMDP state
``s_t / smax`` and the current replication factor ``N_t / smax``, and its
Bernoulli output is the add probability ``pi(a=1 | s_t, N_t)``.

The reward is the scaled Lagrangian of Problem 2,

.. math::

    r_t = -\\big(N_t / s_{max} + \\lambda_A \\, [s_t \\text{ unavailable}]\\big),

so the trained policy trades the average node count against the
availability constraint exactly as the Theorem 2 mixture does.  The result
wraps the network as a :class:`PPOReplicationStrategy`, a drop-in
:class:`~repro.core.strategies.ReplicationStrategy` for both the scalar
:class:`~repro.core.system_controller.SystemController` and the batched
control plane — which is how it enters Table 7 as a learned contender.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.strategies import RecoveryStrategy
from ..envs.policies import VectorPolicy
from ..sim import FleetScenario
from ..sim.strategies import BatchStrategy
from ..solvers.ppo import PPOConfig, PPOPolicy, _discounted_reverse_cumsum
from .two_level import TwoLevelController, TwoLevelResult

__all__ = [
    "PPOReplicationStrategy",
    "ClassAwarePPOReplicationStrategy",
    "PPOReplicationResult",
    "default_replication_config",
    "train_ppo_replication",
]


def default_replication_config() -> PPOConfig:
    """PPO hyper-parameters tuned for the system-level CMDP.

    The replication problem has a two-dimensional discrete feature space
    and a centered, tightly bounded reward, so it tolerates — and needs —
    a far more aggressive learning rate than the node-level belief MDP to
    move its Bernoulli output within a modest update budget.
    """
    return PPOConfig(
        hidden_size=32,
        learning_rate=5e-2,
        entropy_coefficient=1e-3,
        updates=40,
        rollout_episodes=16,
    )


class PPOReplicationStrategy:
    """A trained PPO network as a replication strategy ``pi(a | s, N)``.

    Conforms to the :class:`~repro.core.strategies.ReplicationStrategy`
    protocol (``add_probability`` / ``action``) and additionally exposes
    the batched, count-conditioned ``add_probability_batch`` consumed by
    :class:`~repro.control.vector_system.VectorSystemController`.

    Args:
        policy: The trained policy/value network.
        smax: Maximum node count (feature normalization constant).
        reference_node_count: Node count assumed by the scalar
            ``add_probability(state)`` marginal (the batched path always
            conditions on the actual per-episode count).
    """

    #: One uniform is consumed per decision, like the randomized strategies.
    consumes_rng = True

    def __init__(
        self, policy: PPOPolicy, smax: int, reference_node_count: int
    ) -> None:
        if smax < 1:
            raise ValueError("smax must be >= 1")
        self.policy = policy
        self.smax = smax
        self.reference_node_count = reference_node_count

    def add_probability_batch(
        self, states: np.ndarray, node_counts: np.ndarray
    ) -> np.ndarray:
        """Add probabilities for a batch of ``(s_t, N_t)`` pairs."""
        features = np.stack(
            [
                np.asarray(states, dtype=float) / self.smax,
                np.asarray(node_counts, dtype=float) / self.smax,
            ],
            axis=1,
        )
        return self.policy.recover_probability(features)

    def add_probability(self, state: int) -> float:
        """Scalar marginal at the reference node count."""
        probs = self.add_probability_batch(
            np.array([state]), np.array([self.reference_node_count])
        )
        return float(probs[0])

    def action(self, state: int, rng: np.random.Generator) -> int:
        return 1 if rng.random() < self.add_probability(state) else 0


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class ClassAwarePPOReplicationStrategy:
    """A learned class-indexed replication policy ``pi(a | s, N)``.

    Factors the ``1 + C``-action policy into the Bernoulli *add* head of
    the shared :class:`~repro.solvers.ppo.PPOPolicy` network and a linear
    softmax *class* head over the same ``(s_t / smax, N_t / smax)``
    features:

    .. math::

        \\pi(\\text{wait} | s, N) = 1 - p(s, N), \\qquad
        \\pi(\\text{add}(c) | s, N) = p(s, N) \\, q_c(s, N).

    Because ``log pi`` decomposes into ``log p + log q_c``, the PPO update
    decouples: the add head trains with the existing binary
    clipped-surrogate update, and the class head trains with its own
    clipped surrogate on the add steps (:meth:`update_class_head` — plain
    softmax policy gradient with the PPO ratio clip).

    Conforms to the
    :class:`~repro.core.strategies.ClassAwareReplicationStrategy` protocol
    and exposes the count-conditioned ``action_probabilities_batch``
    consumed by the batched system controller.
    """

    consumes_rng = True

    def __init__(
        self,
        policy: PPOPolicy,
        smax: int,
        reference_node_count: int,
        class_names: Sequence[str],
        rng: np.random.Generator,
    ) -> None:
        if smax < 1:
            raise ValueError("smax must be >= 1")
        if len(class_names) == 0:
            raise ValueError("at least one class is required")
        self.policy = policy
        self.smax = smax
        self.reference_node_count = reference_node_count
        self.class_names = tuple(class_names)
        num_classes = len(self.class_names)
        # Near-uniform initial class preferences; the scale keeps early
        # rollouts exploratory across classes.
        self.class_weights = 0.01 * rng.normal(size=(2, num_classes))
        self.class_bias = np.zeros(num_classes)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def _features(self, states: np.ndarray, node_counts: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                np.asarray(states, dtype=float) / self.smax,
                np.asarray(node_counts, dtype=float) / self.smax,
            ],
            axis=1,
        )

    def class_probabilities(self, features: np.ndarray) -> np.ndarray:
        """Softmax class preferences ``q(. | s, N)``, shape ``(B, C)``."""
        return _softmax(features @ self.class_weights + self.class_bias)

    def action_probabilities_batch(
        self, states: np.ndarray, node_counts: np.ndarray
    ) -> np.ndarray:
        """Joint distributions over ``{wait, add(c)}``, shape ``(B, 1 + C)``."""
        features = self._features(states, node_counts)
        add = self.policy.recover_probability(features)
        classes = self.class_probabilities(features)
        return np.concatenate(
            [(1.0 - add)[:, None], add[:, None] * classes], axis=1
        )

    def action_probabilities(self, state: int) -> np.ndarray:
        """Scalar marginal at the reference node count."""
        return self.action_probabilities_batch(
            np.array([state]), np.array([self.reference_node_count])
        )[0]

    def add_probability(self, state: int) -> float:
        return float(1.0 - self.action_probabilities(state)[0])

    def action(self, state: int, rng: np.random.Generator) -> int:
        from ..core.strategies import sample_action_index

        cumulative = np.cumsum(self.action_probabilities(state))
        return sample_action_index(cumulative, rng.random())

    def update_class_head(
        self,
        features: np.ndarray,
        taken_classes: np.ndarray,
        advantages: np.ndarray,
        old_class_probs: np.ndarray,
        learning_rate: float,
        clip_epsilon: float,
    ) -> None:
        """One clipped-surrogate ascent step on the class head.

        Operates on add steps only (``taken_classes`` indexes the chosen
        class): maximizes ``min(r A, clip(r) A)`` with
        ``r = q_new(c) / q_old(c)``; the gradient of ``log q_c`` w.r.t.
        the softmax logits is ``onehot(c) - q``.
        """
        if features.shape[0] == 0:
            return
        logits = features @ self.class_weights + self.class_bias
        probs = _softmax(logits)
        idx = np.arange(features.shape[0])
        ratio = probs[idx, taken_classes] / np.maximum(old_class_probs, 1e-12)
        # PPO clip: zero the gradient where the ratio already moved past
        # the clip range in the advantage's direction.
        clipped = ((ratio > 1.0 + clip_epsilon) & (advantages > 0)) | (
            (ratio < 1.0 - clip_epsilon) & (advantages < 0)
        )
        coefficient = np.where(clipped, 0.0, ratio * advantages)
        onehot = np.zeros_like(probs)
        onehot[idx, taken_classes] = 1.0
        grad_logits = coefficient[:, None] * (onehot - probs) / features.shape[0]
        self.class_weights += learning_rate * features.T @ grad_logits
        self.class_bias += learning_rate * grad_logits.sum(axis=0)


@dataclass
class PPOReplicationResult:
    """Training diagnostics of the learned replication policy.

    Attributes:
        strategy: The trained strategy (wraps ``policy``).
        policy: The underlying network.
        history: Mean node count ``J`` per update.
        availability_history: Mean availability ``T^(A)`` per update.
        evaluation: Fresh closed-loop evaluation of the final policy.
        wall_clock_seconds: Total training time.
    """

    strategy: PPOReplicationStrategy | ClassAwarePPOReplicationStrategy
    policy: PPOPolicy
    history: list[float] = field(default_factory=list)
    availability_history: list[float] = field(default_factory=list)
    evaluation: TwoLevelResult | None = None
    wall_clock_seconds: float = 0.0


def train_ppo_replication(
    scenario: FleetScenario,
    recovery_policy: VectorPolicy | RecoveryStrategy | BatchStrategy | Sequence,
    config: PPOConfig | None = None,
    availability_penalty: float = 3.0,
    initial_nodes: int | None = None,
    k: int = 1,
    seed: int | None = None,
    evaluation_episodes: int = 100,
    class_aware: bool = False,
) -> PPOReplicationResult:
    """Train a PPO replication policy in closed loop on the batch engine.

    Each update runs ``config.rollout_episodes`` full fleet episodes
    through the two-level controller with the current policy at the system
    level, then performs the clipped-surrogate update on the recorded
    system trace (emergency adds and ``smax``-capped requests enter the
    buffer as forced actions, mirroring how the node-level PPO treats
    BTR-forced recoveries).

    Args:
        scenario: Fleet scenario (``num_nodes`` slots = ``smax``; ``f`` set).
        recovery_policy: Node-level recovery policy/strategy.
        config: PPO hyper-parameters (``horizon`` is taken from the
            scenario; ``rollout_episodes`` is the batch size ``B``).
        availability_penalty: Lagrange weight ``lambda_A`` on unavailable
            steps in the reward.
        initial_nodes: Initial replication factor ``N_1``.
        k: Maximum parallel recoveries per step.
        seed: Seed for network initialization, rollout seeds and the final
            evaluation; training is deterministic given the seed.
        evaluation_episodes: Batch size of the final evaluation run (0
            skips it).
        class_aware: Learn a class-indexed policy
            ``pi(a | s, N)`` over ``{wait, add(c_1), ..., add(c_C)}``
            instead of the classless Bernoulli: the add head trains exactly
            as before and a softmax class head learns *which* container
            class to add from the same rollouts
            (:class:`ClassAwarePPOReplicationStrategy`).  Requires a
            labelled (mixed) scenario.
    """
    config = config if config is not None else default_replication_config()
    rng = np.random.default_rng(seed)
    policy = PPOPolicy(config, rng)
    smax = scenario.num_nodes
    minimum = 2 * (scenario.f or 0) + 1 + k
    reference_count = (
        initial_nodes if initial_nodes is not None else min(minimum, smax)
    )
    strategy: PPOReplicationStrategy | ClassAwarePPOReplicationStrategy
    if class_aware:
        if scenario.node_labels is None:
            raise ValueError(
                "class_aware=True requires a labelled scenario; build it "
                "with FleetScenario.mixed(...)"
            )
        strategy = ClassAwarePPOReplicationStrategy(
            policy,
            smax=smax,
            reference_node_count=reference_count,
            class_names=tuple(scenario.class_slots()),
            rng=rng,
        )
    else:
        strategy = PPOReplicationStrategy(
            policy,
            smax=smax,
            reference_node_count=reference_count,
        )
    controller = TwoLevelController(
        scenario,
        config.rollout_episodes,
        recovery_policy,
        replication_strategy=strategy,
        initial_nodes=initial_nodes,
        k=k,
        record_system_trace=True,
    )

    history: list[float] = []
    availability_history: list[float] = []
    start = time.perf_counter()
    for _ in range(config.updates):
        result = controller.run(seed=int(rng.integers(2 ** 31)))
        trace = controller.system_trace
        horizon, batch = trace.states.shape

        features = np.stack(
            [trace.states / smax, trace.decision_counts / smax], axis=2
        )  # (T, B, 2)
        actions = trace.actions.astype(np.int64)
        rewards = -(
            trace.node_counts / smax
            + availability_penalty * (~trace.available)
        )
        # The replication CMDP is an average-cost problem: center the rewards
        # so the discounted returns lose their constant drift.  Without this
        # the horizon truncation imprints a time trend on the advantages
        # (early steps accumulate ~1/(1-gamma*lambda) more negative deltas
        # than late steps) that, after normalization, systematically blames
        # whatever action dominates the early steps.
        rewards = rewards - rewards.mean()
        # Forced steps (emergency add, smax-capped wait) enter the buffer
        # with the *executed* action at probability one — an emergency add
        # behaves like the node PPO's BTR-forced recovery, a capped request
        # like a forced wait.  Folding the override into the add
        # probability (rather than marking it 1.0 unconditionally) keeps
        # the taken-action probability at 1 for both, so the importance
        # ratios stay bounded.
        old_probs = np.where(
            trace.forced, actions.astype(float), trace.add_probabilities
        )

        values = policy.value(features.reshape(horizon * batch, 2)).reshape(
            horizon, batch
        )
        next_values = np.vstack([values[1:], np.zeros((1, batch))])
        deltas = rewards + config.discount * next_values - values
        advantages = _discounted_reverse_cumsum(
            deltas, config.discount * config.gae_lambda
        )
        returns = _discounted_reverse_cumsum(rewards, config.discount)
        # Episodes advance in lockstep, so the cross-episode mean at each
        # timestep is a state-independent baseline; subtracting it removes
        # the shared per-step noise the value network has not learned yet.
        advantages = advantages - advantages.mean(axis=1, keepdims=True)

        flat_features = features.transpose(1, 0, 2).reshape(horizon * batch, 2)
        flat_actions = actions.T.reshape(-1)
        flat_advantages = advantages.T.reshape(-1)
        flat_returns = returns.T.reshape(-1)
        flat_old_probs = old_probs.T.reshape(-1)
        if flat_advantages.std() > 1e-8:
            flat_advantages = (
                flat_advantages - flat_advantages.mean()
            ) / flat_advantages.std()

        history.append(float(result.average_nodes.mean()))
        availability_history.append(float(result.availability.mean()))
        for _ in range(config.epochs_per_update):
            policy.update(
                flat_features,
                flat_actions,
                flat_advantages,
                flat_returns,
                flat_old_probs,
            )
        if class_aware and trace.add_classes is not None:
            # The class head trains on the add steps where the strategy
            # chose a class (emergency/capped overrides carry none): the
            # joint log-probability decomposes as log p + log q_c, so the
            # conditional class surrogate uses the same advantages.
            chosen = trace.add_classes
            mask = chosen >= 0
            if mask.any():
                class_features = features[mask]
                taken = chosen[mask]
                rows = trace.action_probabilities[mask]
                add_mass = np.maximum(1.0 - rows[:, 0], 1e-12)
                old_q = rows[np.arange(taken.size), 1 + taken] / add_mass
                class_advantages = advantages[mask]
                std = class_advantages.std()
                if std > 1e-8:
                    class_advantages = (
                        class_advantages - class_advantages.mean()
                    ) / std
                for _ in range(config.epochs_per_update):
                    strategy.update_class_head(
                        class_features,
                        taken,
                        class_advantages,
                        old_q,
                        learning_rate=config.learning_rate,
                        clip_epsilon=config.clip_epsilon,
                    )
    elapsed = time.perf_counter() - start

    evaluation = None
    if evaluation_episodes > 0:
        evaluator = TwoLevelController(
            scenario,
            evaluation_episodes,
            recovery_policy,
            replication_strategy=strategy,
            initial_nodes=initial_nodes,
            k=k,
            engine=controller.engine,
        )
        evaluation = evaluator.run(seed=int(rng.integers(2 ** 31)))
    return PPOReplicationResult(
        strategy=strategy,
        policy=policy,
        history=history,
        availability_history=availability_history,
        evaluation=evaluation,
        wall_clock_seconds=elapsed,
    )
