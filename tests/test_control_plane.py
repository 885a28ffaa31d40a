"""Tests for the closed-loop two-level control plane (``repro.control``).

The load-bearing guarantee is *bit parity*: the vectorized system
controller and the batched two-level loop must take decision-for-decision
identical trajectories to the scalar :class:`SystemController` reference
under shared seeds — that is what makes the 5x+ closed-loop speedup a free
lunch rather than a model change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control import (
    PPOReplicationStrategy,
    TwoLevelController,
    VectorSystemController,
    evaluate_replication_closed_loop,
    expected_healthy_nodes_batch,
    fit_system_model_from_env,
    fit_system_model_from_pairs,
    fit_system_model_from_trace,
    identify_replication_strategies,
    strategy_consumes_rng,
    train_ppo_replication,
)
from repro.core import (
    BetaBinomialObservationModel,
    MixedReplicationStrategy,
    NeverAddStrategy,
    NodeParameters,
    NoRecoveryStrategy,
    ReplicationThresholdStrategy,
    SystemController,
    TabularReplicationStrategy,
    ThresholdStrategy,
)
from repro.envs import FleetVectorEnv, StrategyPolicy, rollout
from repro.sim import FleetScenario
from repro.solvers.ppo import PPOConfig


REPLICATION_STRATEGIES = {
    "never": NeverAddStrategy(),
    "threshold": ReplicationThresholdStrategy(beta=4),
    "mixed": MixedReplicationStrategy(
        ReplicationThresholdStrategy(3), ReplicationThresholdStrategy(5), kappa=0.37
    ),
    "tabular": TabularReplicationStrategy(
        {0: 1.0, 1: 1.0, 2: 0.8, 3: 0.5, 4: 0.25, 5: 0.0},
        default_add_probability=0.0,
    ),
}


@pytest.fixture
def observation_model():
    return BetaBinomialObservationModel()


def _fleet_scenario(observation_model, **overrides):
    defaults = dict(num_nodes=6, horizon=40, f=1)
    defaults.update(overrides)
    return FleetScenario.homogeneous(
        NodeParameters(p_a=0.12, p_c1=0.02, p_c2=0.06, delta_r=15),
        observation_model,
        **defaults,
    )


class TestVectorSystemControllerParity:
    """One vectorized controller == B scalar controllers, bit for bit."""

    @pytest.mark.parametrize("name", sorted(REPLICATION_STRATEGIES))
    def test_decision_parity_under_shared_seeds(self, name):
        strategy = REPLICATION_STRATEGIES[name]
        batch, slots, steps, smax = 8, 7, 30, 7
        seed = 1234
        rng = np.random.default_rng(99)

        vector = VectorSystemController(
            f=1,
            k=1,
            strategy=strategy,
            smax=smax,
            num_episodes=batch,
            horizon=steps,
            seed=seed,
        )
        children = np.random.SeedSequence(seed).spawn(batch)
        scalars = [
            SystemController(f=1, k=1, strategy=strategy, smax=smax, seed=child)
            for child in children
        ]

        for _ in range(steps):
            beliefs = rng.random((batch, slots))
            registered = rng.random((batch, slots)) < 0.85
            reporting = registered & (rng.random((batch, slots)) < 0.9)
            counts = registered.sum(axis=1)
            decision = vector.step(
                beliefs, reporting=reporting, registered=registered, node_counts=counts
            )
            for b, controller in enumerate(scalars):
                reported = {
                    j: float(beliefs[b, j])
                    for j in range(slots)
                    if reporting[b, j]
                }
                scalar = controller.step(
                    reported_beliefs=reported,
                    registered_nodes={j for j in range(slots) if registered[b, j]},
                    current_node_count=int(counts[b]),
                )
                assert decision.state[b] == scalar.state
                assert bool(decision.add_node[b]) == scalar.add_node
                assert bool(decision.emergency_add[b]) == scalar.emergency_add
                assert decision.evicted[b].sum() == len(scalar.evicted_nodes)
        for b, controller in enumerate(scalars):
            assert vector.total_additions[b] == controller.total_additions
            assert vector.total_evictions[b] == controller.total_evictions
            assert vector.emergency_additions[b] == controller.emergency_additions

    def test_state_matches_scalar_formula(self):
        controller = SystemController(f=1, smax=10)
        beliefs = np.array([[0.1, 0.2, 0.9, 0.4]])
        reporting = np.array([[True, True, True, False]])
        state = expected_healthy_nodes_batch(beliefs, reporting, smax=10)
        assert state[0] == controller.expected_healthy_nodes(
            {0: 0.1, 1: 0.2, 2: 0.9}
        )

    def test_strategy_classification(self):
        assert not strategy_consumes_rng(ReplicationThresholdStrategy(beta=2))
        assert not strategy_consumes_rng(NeverAddStrategy())
        assert strategy_consumes_rng(REPLICATION_STRATEGIES["mixed"])
        assert strategy_consumes_rng(REPLICATION_STRATEGIES["tabular"])

    def test_stochastic_horizon_exhaustion_raises(self):
        controller = VectorSystemController(
            f=1,
            strategy=REPLICATION_STRATEGIES["mixed"],
            smax=4,
            num_episodes=2,
            horizon=1,
            seed=0,
        )
        beliefs = np.zeros((2, 4))
        reporting = np.ones((2, 4), dtype=bool)
        controller.step(beliefs, reporting)
        with pytest.raises(RuntimeError):
            controller.step(beliefs, reporting)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            VectorSystemController(f=-1)
        with pytest.raises(ValueError):
            VectorSystemController(f=1, k=0)
        with pytest.raises(ValueError):
            VectorSystemController(f=1, smax=0)
        with pytest.raises(ValueError):
            VectorSystemController(f=1, num_episodes=0)
        with pytest.raises(ValueError):
            VectorSystemController(
                f=1,
                strategy=REPLICATION_STRATEGIES["mixed"],
                num_episodes=3,
                streams=[(0, range(2))],
            )


class TestTwoLevelControllerParity:
    """Full closed-loop trace parity between the batched and scalar paths."""

    @pytest.mark.parametrize("name", ["never", "threshold", "mixed", "tabular"])
    def test_closed_loop_trace_parity(self, observation_model, name):
        scenario = _fleet_scenario(observation_model)
        controller = TwoLevelController(
            scenario,
            num_envs=6,
            recovery_policy=ThresholdStrategy(0.7),
            replication_strategy=REPLICATION_STRATEGIES[name],
            initial_nodes=4,
            record_decisions=True,
        )
        batched = controller.run(seed=77)
        batched_trace = controller.last_decision_trace
        scalar = controller.run_scalar_reference(seed=77)
        scalar_trace = controller.last_decision_trace

        for t in range(scenario.horizon):
            assert np.array_equal(batched_trace.states[t], scalar_trace.states[t])
            assert np.array_equal(batched_trace.adds[t], scalar_trace.adds[t])
            assert np.array_equal(
                batched_trace.emergencies[t], scalar_trace.emergencies[t]
            )
            assert np.array_equal(
                batched_trace.evictions[t], scalar_trace.evictions[t]
            )
        assert np.array_equal(batched.additions, scalar.additions)
        assert np.array_equal(batched.emergency_additions, scalar.emergency_additions)
        assert np.array_equal(batched.evictions, scalar.evictions)
        assert np.array_equal(batched.availability, scalar.availability)
        assert np.array_equal(batched.average_nodes, scalar.average_nodes)
        assert np.allclose(batched.average_cost, scalar.average_cost)
        assert np.allclose(batched.recovery_frequency, scalar.recovery_frequency)

    def test_different_seeds_differ(self, observation_model):
        scenario = _fleet_scenario(observation_model)
        controller = TwoLevelController(
            scenario,
            num_envs=8,
            recovery_policy=ThresholdStrategy(0.7),
            replication_strategy=REPLICATION_STRATEGIES["threshold"],
            initial_nodes=4,
        )
        first = controller.run(seed=0)
        second = controller.run(seed=1)
        assert not np.array_equal(first.availability, second.availability)


class TestTwoLevelSemantics:
    def test_recovery_limit_grants_k_per_step(self, observation_model):
        # Crash-free nodes, a policy that requests recovery everywhere and
        # no BTR deadline: exactly k of the N active slots recover per step.
        scenario = FleetScenario.homogeneous(
            NodeParameters(p_a=0.1, p_c1=0.0, p_c2=0.0, delta_r=float("inf")),
            observation_model,
            num_nodes=3,
            horizon=30,
            f=1,
        )
        controller = TwoLevelController(
            scenario,
            num_envs=4,
            recovery_policy=ThresholdStrategy(0.0),
            initial_nodes=3,
            k=1,
            enforce_invariant=False,
        )
        result = controller.run(seed=3)
        assert np.allclose(result.recovery_frequency, 1.0 / 3.0)

        unlimited = TwoLevelController(
            scenario,
            num_envs=4,
            recovery_policy=ThresholdStrategy(0.0),
            initial_nodes=3,
            k=1,
            enforce_invariant=False,
            respect_recovery_limit=False,
        )
        assert np.allclose(unlimited.run(seed=3).recovery_frequency, 1.0)

    def test_emergency_adds_maintain_quorum(self, observation_model):
        scenario = _fleet_scenario(observation_model, num_nodes=7)
        controller = TwoLevelController(
            scenario,
            num_envs=10,
            recovery_policy=ThresholdStrategy(0.7),
            replication_strategy=None,
            initial_nodes=4,
            enforce_invariant=True,
        )
        result = controller.run(seed=11)
        # Crash-prone nodes get evicted; the Prop. 1 invariant replaces them.
        assert result.evictions.sum() > 0
        assert result.emergency_additions.sum() > 0
        assert np.array_equal(result.additions, result.emergency_additions)
        minimum = 2 * scenario.f + 1 + controller.k
        assert result.average_nodes.mean() > minimum - 1.0

        passive = TwoLevelController(
            scenario,
            num_envs=10,
            recovery_policy=ThresholdStrategy(0.7),
            replication_strategy=None,
            initial_nodes=4,
            enforce_invariant=False,
        )
        drained = passive.run(seed=11)
        assert drained.additions.sum() == 0
        assert drained.average_nodes.mean() < result.average_nodes.mean()

    def test_requires_tolerance_threshold(self, observation_model):
        scenario = FleetScenario.homogeneous(
            NodeParameters(), observation_model, num_nodes=4, horizon=10
        )
        with pytest.raises(ValueError):
            TwoLevelController(scenario, 2, ThresholdStrategy(0.5))

    def test_validates_initial_nodes(self, observation_model):
        scenario = _fleet_scenario(observation_model)
        with pytest.raises(ValueError):
            TwoLevelController(
                scenario, 2, ThresholdStrategy(0.5), initial_nodes=99
            )

    def test_system_trace_shapes(self, observation_model):
        scenario = _fleet_scenario(observation_model, horizon=25)
        controller = TwoLevelController(
            scenario,
            num_envs=3,
            recovery_policy=ThresholdStrategy(0.7),
            replication_strategy=REPLICATION_STRATEGIES["threshold"],
            initial_nodes=4,
            record_system_trace=True,
        )
        controller.run(seed=0)
        trace = controller.system_trace
        assert trace.states.shape == (25, 3)
        assert trace.actions.dtype == bool
        transitions = trace.transitions()
        assert transitions.shape == (24 * 3, 3)
        assert transitions[:, 0].min() >= 0
        assert set(np.unique(transitions[:, 1])) <= {0, 1}


class TestSystemIdentification:
    def test_fit_from_pairs_shift_structure(self):
        pairs = np.array([[3, 2], [3, 3], [2, 2], [2, 1], [4, 3], [3, 2]])
        model = fit_system_model_from_pairs(pairs, smax=5, f=1, smoothing=0.25)
        assert np.allclose(model.transition.sum(axis=2), 1.0)
        assert model.num_observed_transitions == 2 * len(pairs)
        # Eq. 8 structure: adding a node shifts the successor distribution
        # up by one.  No observed successor sits at the smax boundary here,
        # so the shift is exact (no clipped mass).
        for s in range(4):
            np.testing.assert_allclose(
                model.transition[1, s, 1:], model.transition[0, s, :-1]
            )

    def test_fit_from_env_round_trip(self, observation_model):
        scenario = _fleet_scenario(observation_model, num_nodes=5, horizon=30)
        env = FleetVectorEnv(scenario, num_envs=40)
        rollout(env, StrategyPolicy(ThresholdStrategy(0.7)), seed=0)
        model = fit_system_model_from_env(env, epsilon_a=0.5)
        assert model.smax == 5
        assert model.f == scenario.f
        assert np.allclose(model.transition.sum(axis=2), 1.0)
        assert np.all(model.transition > 0.0)  # Laplace smoothing
        assert model.num_observed_transitions == 2 * 30 * 40

    def test_fit_from_trace_uses_observed_actions(self, observation_model):
        scenario = _fleet_scenario(observation_model, horizon=30)
        controller = TwoLevelController(
            scenario,
            num_envs=20,
            recovery_policy=ThresholdStrategy(0.7),
            replication_strategy=REPLICATION_STRATEGIES["threshold"],
            initial_nodes=4,
            record_system_trace=True,
        )
        controller.run(seed=0)
        model = fit_system_model_from_trace(
            controller.system_trace, smax=scenario.num_nodes, f=scenario.f
        )
        assert np.allclose(model.transition.sum(axis=2), 1.0)
        assert model.num_observed_transitions == 29 * 20

    def test_identify_and_reevaluate_loop(self, observation_model):
        scenario = _fleet_scenario(observation_model, num_nodes=5, horizon=40)
        result = identify_replication_strategies(
            scenario,
            ThresholdStrategy(0.7),
            num_fit_episodes=50,
            num_eval_episodes=20,
            epsilon_a=0.4,
            seed=0,
            initial_nodes=4,
        )
        assert result.lp.feasible
        assert "never-add" in result.closed_loop and "lp" in result.closed_loop
        for summary in result.closed_loop.values():
            availability, _ = summary["availability"]
            assert 0.0 <= availability <= 1.0
        never_nodes = result.closed_loop["never-add"]["average_nodes"][0]
        lp_nodes = result.closed_loop["lp"]["average_nodes"][0]
        assert lp_nodes >= never_nodes - 1e-9

    def test_closed_loop_evaluation_runs(self, observation_model):
        scenario = _fleet_scenario(observation_model, horizon=25)
        result = evaluate_replication_closed_loop(
            scenario,
            num_envs=10,
            recovery_policy=ThresholdStrategy(0.7),
            replication_strategy=REPLICATION_STRATEGIES["mixed"],
            seed=0,
            initial_nodes=4,
        )
        assert result.num_episodes == 10
        summary = result.summary()
        assert set(summary) == {
            "availability",
            "average_nodes",
            "average_cost",
            "recovery_frequency",
        }

    def test_fit_from_pairs_validates_shape(self):
        with pytest.raises(ValueError):
            fit_system_model_from_pairs(np.zeros((3, 3)), smax=5, f=1)


class TestPPOReplication:
    def test_training_smoke(self, observation_model):
        scenario = _fleet_scenario(observation_model, num_nodes=5, horizon=30)
        config = PPOConfig(
            updates=3, rollout_episodes=8, hidden_size=16, learning_rate=5e-2
        )
        result = train_ppo_replication(
            scenario,
            ThresholdStrategy(0.7),
            config=config,
            seed=0,
            initial_nodes=4,
            evaluation_episodes=10,
        )
        assert len(result.history) == 3
        assert len(result.availability_history) == 3
        assert result.evaluation is not None
        for s in range(scenario.num_nodes + 1):
            assert 0.0 <= result.strategy.add_probability(s) <= 1.0

    def test_strategy_is_scalar_compatible(self, observation_model):
        scenario = _fleet_scenario(observation_model, num_nodes=5, horizon=20)
        config = PPOConfig(updates=1, rollout_episodes=4, hidden_size=8)
        result = train_ppo_replication(
            scenario,
            ThresholdStrategy(0.7),
            config=config,
            seed=0,
            initial_nodes=4,
            evaluation_episodes=0,
        )
        strategy = result.strategy
        assert strategy_consumes_rng(strategy)
        controller = SystemController(f=1, strategy=strategy, smax=5, seed=0)
        decision = controller.step({0: 0.2, 1: 0.1, 2: 0.3}, current_node_count=3)
        assert decision.add_node in (True, False)

    def test_training_is_deterministic_given_seed(self, observation_model):
        scenario = _fleet_scenario(observation_model, num_nodes=5, horizon=20)
        config = PPOConfig(updates=2, rollout_episodes=4, hidden_size=8)
        first = train_ppo_replication(
            scenario, ThresholdStrategy(0.7), config=config, seed=5,
            initial_nodes=4, evaluation_episodes=0,
        )
        second = train_ppo_replication(
            scenario, ThresholdStrategy(0.7), config=config, seed=5,
            initial_nodes=4, evaluation_episodes=0,
        )
        assert first.history == second.history
        np.testing.assert_array_equal(first.policy.w1, second.policy.w1)

    def test_reference_probability_batch_agreement(self):
        rng = np.random.default_rng(0)
        from repro.solvers.ppo import PPOPolicy

        policy = PPOPolicy(PPOConfig(hidden_size=8), rng)
        strategy = PPOReplicationStrategy(policy, smax=6, reference_node_count=4)
        batch = strategy.add_probability_batch(np.array([2]), np.array([4]))
        assert strategy.add_probability(2) == pytest.approx(float(batch[0]))


class TestBaselineInteroperability:
    def test_no_recovery_baseline_runs(self, observation_model):
        scenario = _fleet_scenario(observation_model, horizon=30)
        controller = TwoLevelController(
            scenario,
            num_envs=6,
            recovery_policy=NoRecoveryStrategy(),
            initial_nodes=4,
            enforce_invariant=False,
        )
        result = controller.run(seed=0)
        # Without recoveries and with BTR disabled... the scenario enforces
        # BTR at delta_r=15, so recoveries still happen at the deadline.
        assert np.all(result.availability <= 1.0)
        assert result.steps == 30
