"""Tests for the emulation substrate: containers, IDS, attacker, services, nodes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.consensus import ByzantineBehavior
from repro.core import NodeParameters, NodeState, ThresholdStrategy
from repro.emulation import (
    AttackPhase,
    Attacker,
    AttackerConfig,
    BackgroundClientPopulation,
    CONTAINER_CATALOG,
    EmulatedNode,
    PHYSICAL_NODES,
    SnortLikeIDS,
    collect_alert_dataset,
    container_by_replica_id,
    default_emulation_observation_model,
    fit_empirical_model,
)


class TestContainerCatalog:
    def test_ten_container_images(self):
        """Table 4 lists ten replica containers."""
        assert len(CONTAINER_CATALOG) == 10

    def test_thirteen_physical_nodes(self):
        """Table 3 lists thirteen physical servers."""
        assert len(PHYSICAL_NODES) == 13

    def test_every_container_has_kill_chain(self):
        """Table 6: every replica has at least a scan plus an exploit step."""
        for container in CONTAINER_CATALOG:
            assert len(container.intrusion_steps) >= 2
            assert "scan" in container.intrusion_steps[0].lower()

    def test_every_container_has_background_services(self):
        """Table 5: every replica runs at least one background service."""
        for container in CONTAINER_CATALOG:
            assert len(container.background_services) >= 1

    def test_intrusion_alert_rates_exceed_healthy_rates(self):
        for container in CONTAINER_CATALOG:
            assert container.alert_rate_intrusion > container.alert_rate_healthy

    def test_lookup_by_replica_id(self):
        assert container_by_replica_id(4).vulnerabilities == ("CVE-2017-7494",)
        with pytest.raises(KeyError):
            container_by_replica_id(42)

    def test_unique_replica_ids(self):
        ids = [c.replica_id for c in CONTAINER_CATALOG]
        assert len(set(ids)) == len(ids)


class TestIDS:
    def test_intrusion_raises_alert_counts(self, rng):
        ids = SnortLikeIDS(CONTAINER_CATALOG[0])
        healthy = [ids.sample_alerts(False, rng) for _ in range(300)]
        intrusion = [ids.sample_alerts(True, rng) for _ in range(300)]
        assert np.mean(intrusion) > np.mean(healthy) * 2

    def test_background_clients_increase_benign_alerts(self, rng):
        ids = SnortLikeIDS(CONTAINER_CATALOG[0])
        quiet = [ids.sample_alerts(False, rng, background_clients=0) for _ in range(300)]
        busy = [ids.sample_alerts(False, rng, background_clients=100) for _ in range(300)]
        assert np.mean(busy) > np.mean(quiet)

    def test_collect_alert_dataset_labels(self):
        samples = collect_alert_dataset(CONTAINER_CATALOG[1], num_samples=200, seed=0)
        assert len(samples) == 200
        assert any(s.intrusion_active for s in samples)
        assert any(not s.intrusion_active for s in samples)

    def test_collect_dataset_validation(self):
        with pytest.raises(ValueError):
            collect_alert_dataset(CONTAINER_CATALOG[0], num_samples=1)
        with pytest.raises(ValueError):
            collect_alert_dataset(CONTAINER_CATALOG[0], num_samples=10, intrusion_fraction=0.0)

    def test_fit_empirical_model_is_tp2_informative(self):
        """The fitted \\hat{Z} separates the intrusion and no-intrusion conditions (Fig. 11)."""
        samples = collect_alert_dataset(CONTAINER_CATALOG[0], num_samples=2000, seed=1)
        model = fit_empirical_model(samples)
        assert model.detection_divergence() > 0.5
        assert model.satisfies_assumption_d()

    def test_fit_empirical_model_requires_both_labels(self):
        samples = collect_alert_dataset(CONTAINER_CATALOG[0], num_samples=100, seed=1)
        only_healthy = [s for s in samples if not s.intrusion_active]
        with pytest.raises(ValueError):
            fit_empirical_model(only_healthy)

    def test_default_emulation_model_cached(self):
        a = default_emulation_observation_model()
        b = default_emulation_observation_model()
        assert a is b


class TestAttacker:
    def test_attack_progresses_to_compromise(self, rng):
        attacker = Attacker(AttackerConfig(start_probability=1.0, step_success_probability=1.0), seed=0)
        container = CONTAINER_CATALOG[0]
        attacker.select_targets([("n1", container)])
        for _ in range(len(container.intrusion_steps)):
            state = attacker.step_node("n1", container, True)
        assert state.phase is AttackPhase.COMPROMISED
        assert attacker.total_compromises == 1

    def test_respects_concurrency_limit(self):
        attacker = Attacker(
            AttackerConfig(start_probability=1.0, max_concurrent_attacks=1), seed=0
        )
        candidates = [(f"n{i}", CONTAINER_CATALOG[i]) for i in range(3)]
        started = attacker.select_targets(candidates)
        assert len(started) == 1

    def test_post_compromise_behavior_selected(self, rng):
        attacker = Attacker(AttackerConfig(start_probability=1.0, step_success_probability=1.0), seed=0)
        container = CONTAINER_CATALOG[0]
        attacker.select_targets([("n1", container)])
        for _ in range(len(container.intrusion_steps)):
            state = attacker.step_node("n1", container, True)
        assert state.post_compromise_behavior in (
            ByzantineBehavior.PARTICIPATE,
            ByzantineBehavior.SILENT,
            ByzantineBehavior.ARBITRARY,
        )

    def test_crash_mid_attack_aborts(self):
        attacker = Attacker(AttackerConfig(start_probability=1.0), seed=0)
        container = CONTAINER_CATALOG[0]
        attacker.select_targets([("n1", container)])
        state = attacker.step_node("n1", container, node_is_healthy=False)
        assert state.phase is AttackPhase.IDLE

    def test_forget_resets_state(self):
        attacker = Attacker(AttackerConfig(start_probability=1.0), seed=0)
        attacker.select_targets([("n1", CONTAINER_CATALOG[0])])
        attacker.forget("n1")
        assert attacker.state_of("n1").phase is AttackPhase.IDLE

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackerConfig(start_probability=2.0)
        with pytest.raises(ValueError):
            AttackerConfig(step_success_probability=0.0)
        with pytest.raises(ValueError):
            AttackerConfig(max_concurrent_attacks=0)
        with pytest.raises(ValueError):
            AttackerConfig(behaviors=())


class TestBackgroundServices:
    def test_population_reaches_steady_state(self):
        population = BackgroundClientPopulation(arrival_rate=20, mean_service_time=4, seed=0)
        sizes = [population.step() for _ in range(300)]
        steady = np.mean(sizes[100:])
        assert abs(steady - population.expected_steady_state()) < 20

    def test_population_validation(self):
        with pytest.raises(ValueError):
            BackgroundClientPopulation(arrival_rate=-1)
        with pytest.raises(ValueError):
            BackgroundClientPopulation(mean_service_time=0)


class TestEmulatedNode:
    def _node(self, rng, **kwargs):
        return EmulatedNode(
            node_id="n1",
            params=NodeParameters(p_a=0.1),
            observation_model=default_emulation_observation_model(),
            strategy=ThresholdStrategy(0.75),
            rng=rng,
            **kwargs,
        )

    def test_starts_healthy(self, rng):
        node = self._node(rng)
        assert node.state is NodeState.HEALTHY
        assert node.is_alive

    def test_mark_compromised(self, rng):
        node = self._node(rng)
        node.mark_compromised()
        assert node.is_compromised
        assert node.compromises == 1

    def test_recover_restores_health_and_swaps_container(self, rng):
        node = self._node(rng)
        node.mark_compromised()
        node.recover()
        assert node.state is NodeState.HEALTHY
        assert node.recoveries == 1
        assert node.controller.belief == pytest.approx(0.1)

    def test_crashed_node_cannot_recover(self, rng):
        node = self._node(rng)
        node.state = NodeState.CRASHED
        node.recover()
        assert node.state is NodeState.CRASHED

    def test_crash_probability_respected(self):
        rng = np.random.default_rng(0)
        node = EmulatedNode(
            node_id="n1",
            params=NodeParameters(p_a=0.01, p_c1=1.0 - 1e-9),
            observation_model=default_emulation_observation_model(),
            strategy=ThresholdStrategy(0.75),
            rng=rng,
        )
        assert node.maybe_crash()
        assert node.state is NodeState.CRASHED

    def test_observe_and_decide_returns_belief_and_action(self, rng):
        node = self._node(rng)
        action, belief, observation = node.observe_and_decide(intrusion_activity=False)
        assert 0.0 <= belief <= 1.0
        assert observation >= 0

    def test_intrusion_activity_raises_belief(self, rng):
        node = self._node(rng)
        benign_beliefs = [node.observe_and_decide(False)[1] for _ in range(5)]
        node_attack = self._node(np.random.default_rng(1))
        attack_beliefs = [node_attack.observe_and_decide(True)[1] for _ in range(5)]
        assert np.mean(attack_beliefs) > np.mean(benign_beliefs)
