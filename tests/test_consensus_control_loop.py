"""Tests for the consensus-backed control loop (controller-driven MinBFT).

Covers the safety-audit helper, the stepwise/pipelined client workload with
served-availability accounting, the ``on_step`` observer hook of the batched
controller, and the :class:`~repro.control.ConsensusBackedFleet` integration
that mirrors controller decisions onto a live cluster: safety, validity,
liveness and the TOLERANCE vs NO-RECOVERY availability gap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.consensus import (
    ByzantineBehavior,
    ClientWorkload,
    MinBFTClient,
    MinBFTCluster,
    audit_safety,
)
from repro.control import ConsensusBackedFleet, TwoLevelController
from repro.core import (
    BetaBinomialObservationModel,
    NodeParameters,
    NoRecoveryStrategy,
    ThresholdStrategy,
    check_validity,
)
from repro.core.strategies import ReplicationThresholdStrategy
from repro.sim import FleetScenario


def small_scenario(num_nodes: int = 8, horizon: int = 20) -> FleetScenario:
    return FleetScenario.homogeneous(
        NodeParameters(p_a=0.1),
        BetaBinomialObservationModel(),
        num_nodes=num_nodes,
        horizon=horizon,
        f=1,
    )


class TestSafetyAudit:
    def test_healthy_cluster_passes(self):
        cluster = MinBFTCluster(num_replicas=4, seed=0)
        client = MinBFTClient("client-0", cluster)
        for i in range(3):
            client.write_and_wait("x", i)
        cluster.run(ticks=20)
        audit = audit_safety(cluster)
        assert audit.ok
        assert audit.consistent and audit.no_duplicates
        assert len(audit.audited) == 4
        assert audit.divergent == ()
        assert audit.duplicated == {}

    def test_detects_divergent_log(self):
        from repro.consensus import ClientRequest

        cluster = MinBFTCluster(num_replicas=4, seed=1)
        client = MinBFTClient("client-0", cluster)
        client.write_and_wait("x", 1)
        cluster.run(ticks=20)
        # Corrupt one replica's state machine directly: its log is no longer
        # a prefix of the others'.
        rogue = ClientRequest(
            client_id="rogue", request_id=1, operation="write", key="x", value=9
        )
        cluster.replicas["replica-3"].state_machine = type(
            cluster.replicas["replica-3"].state_machine
        )()
        cluster.replicas["replica-3"].state_machine.apply(rogue, 1)
        audit = audit_safety(cluster)
        assert not audit.consistent
        assert "replica-3" in audit.divergent
        assert not audit.ok

    def test_detects_duplicate_execution(self):
        cluster = MinBFTCluster(num_replicas=4, seed=2)
        client = MinBFTClient("client-0", cluster)
        client.write_and_wait("x", 1)
        cluster.run(ticks=20)
        replica = cluster.replicas["replica-1"]
        # Simulate the pre-fix recovery bug: the same request re-executes in
        # a later incarnation of the replica.
        identifier = replica.execution_log[0][0]
        replica.execution_log.append((identifier, 99))
        audit = audit_safety(cluster)
        assert not audit.no_duplicates
        assert audit.duplicated["replica-1"] == (identifier,)

    def test_byzantine_replicas_excluded(self):
        cluster = MinBFTCluster(num_replicas=4, seed=3)
        client = MinBFTClient("client-0", cluster)
        client.write_and_wait("x", 1)
        cluster.compromise("replica-2", ByzantineBehavior.ARBITRARY)
        audit = audit_safety(cluster)
        assert "replica-2" not in audit.audited
        assert len(audit.audited) == 3


class TestStepwiseWorkload:
    def test_pump_keeps_pipeline_full(self):
        cluster = MinBFTCluster(num_replicas=4, seed=4)
        workload = ClientWorkload(cluster, num_clients=2, pipeline=3)
        workload.start()
        assert workload.submitted == 6
        workload.pump(60)
        assert workload.completed_requests > 0
        # Closed loop: outstanding never exceeds the pipeline.
        for client in workload.clients:
            assert client.pending_count <= 3
        assert workload.submitted == workload.completed_requests + sum(
            client.pending_count for client in workload.clients
        )

    def test_served_availability_all_served_with_loose_deadline(self):
        cluster = MinBFTCluster(num_replicas=4, seed=5)
        workload = ClientWorkload(
            cluster, num_clients=2, pipeline=1, deadline_ticks=1000
        )
        workload.pump(80)
        assert workload.completed_requests > 0
        assert workload.served_availability == 1.0
        assert workload.due_requests == workload.served_requests

    def test_served_availability_counts_missed_deadlines(self):
        # Deadline below the protocol round-trip: every due request misses.
        cluster = MinBFTCluster(num_replicas=4, seed=6)
        workload = ClientWorkload(
            cluster, num_clients=2, pipeline=1, deadline_ticks=1
        )
        workload.pump(60)
        assert workload.due_requests > 0
        assert workload.served_requests == 0
        assert workload.served_availability == 0.0
        # A request counted missed at expiry is not double-counted when it
        # later completes.
        assert workload.due_requests <= workload.submitted

    def test_stats_keys_and_run_compatibility(self):
        cluster = MinBFTCluster(num_replicas=4, seed=7)
        workload = ClientWorkload(cluster, num_clients=2)
        stats = workload.run(total_ticks=100)
        for key in (
            "completed_requests",
            "throughput_rps",
            "mean_latency_ticks",
            "ticks",
            "served_availability",
            "served_requests",
            "due_requests",
            "submitted_requests",
        ):
            assert key in stats
        assert stats["ticks"] == 100.0
        assert stats["completed_requests"] > 0
        assert stats["throughput_rps"] > 0

    def test_retry_restores_liveness_after_lost_requests(self):
        # Crash a replica before its replies go out; with retries the client
        # still reaches the f + 1 reply quorum once it recovers.
        cluster = MinBFTCluster(num_replicas=4, seed=8)
        workload = ClientWorkload(
            cluster, num_clients=1, pipeline=1, retry_interval=8
        )
        workload.start()
        cluster.crash("replica-0")
        cluster.crash("replica-1")
        workload.pump(10)
        before = workload.completed_requests
        cluster.network.restart("replica-0")
        cluster.network.restart("replica-1")
        workload.pump(80)
        assert workload.completed_requests > before

    def test_validation(self):
        cluster = MinBFTCluster(num_replicas=4, seed=9)
        with pytest.raises(ValueError):
            ClientWorkload(cluster, pipeline=0)
        with pytest.raises(ValueError):
            ClientWorkload(cluster, retry_interval=-1)


class TestOnStepHook:
    def test_observer_sees_every_step(self):
        scenario = small_scenario(horizon=15)
        controller = TwoLevelController(
            scenario,
            num_envs=3,
            recovery_policy=ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
        )
        events = []
        controller.run(seed=0, on_step=events.append)
        assert [event.t for event in events] == list(range(15))
        for event in events:
            assert event.active.shape == (3, scenario.num_nodes)
            assert event.activated.shape == (3,)
            # An activated slot is active after the step.
            for episode, slot in enumerate(event.activated):
                if slot >= 0:
                    assert event.active[episode, slot]

    def test_observer_availability_matches_result(self):
        scenario = small_scenario(horizon=25)
        controller = TwoLevelController(
            scenario,
            num_envs=2,
            recovery_policy=ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
        )
        availability = []
        result = controller.run(seed=1, on_step=lambda e: availability.append(e.available))
        fraction = np.stack(availability).mean(axis=0)
        np.testing.assert_allclose(fraction, result.availability)

    def test_run_without_observer_unchanged(self):
        scenario = small_scenario(horizon=15)

        def build():
            return TwoLevelController(
                scenario,
                num_envs=2,
                recovery_policy=ThresholdStrategy(0.75),
                replication_strategy=ReplicationThresholdStrategy(1),
            )

        plain = build().run(seed=2)
        observed = build().run(seed=2, on_step=lambda e: None)
        np.testing.assert_allclose(plain.availability, observed.availability)
        np.testing.assert_allclose(plain.average_cost, observed.average_cost)


class TestConsensusBackedFleet:
    def build(self, horizon: int = 20, **kwargs) -> ConsensusBackedFleet:
        defaults = dict(
            recovery_policy=ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
            num_clients=3,
            pipeline=2,
            ticks_per_step=12,
        )
        defaults.update(kwargs)
        return ConsensusBackedFleet(small_scenario(horizon=horizon), **defaults)

    def test_closed_loop_serves_requests_safely(self):
        fleet = self.build()
        result = fleet.run(seed=0)
        assert result.workload["completed_requests"] > 0
        assert 0.0 <= result.availability <= 1.0
        assert 0.0 <= result.served_availability <= 1.0
        assert result.safety_ok
        # Reconfigurations happened and each one was audited.
        operations = result.recoveries + result.evictions + result.additions
        assert operations > 0
        assert len(result.audits) > 0
        assert len(result.final_membership) >= 1

    def test_same_seed_reproduces_run(self):
        first = self.build().run(seed=7)
        second = self.build().run(seed=7)
        assert first.workload == second.workload
        assert first.recoveries == second.recoveries
        assert first.evictions == second.evictions
        assert first.additions == second.additions
        assert first.availability == second.availability

    def test_cluster_membership_tracks_controller(self):
        fleet = self.build()
        result = fleet.run(seed=3)
        assert fleet.cluster is not None
        # Every mirrored addition created a replica beyond the initial ones;
        # membership = initial + additions - evictions (skipped ones stay).
        expected = (
            fleet.controller.initial_nodes + result.additions - result.evictions
        )
        assert len(fleet.cluster.membership) == expected

    def test_strict_mode_default_and_error_type(self):
        from repro.control import ConsensusSafetyError

        fleet = self.build()
        assert fleet.strict
        assert issubclass(ConsensusSafetyError, AssertionError)

    @pytest.fixture(scope="class", params=[0, 5, 11])
    def horizon_40_runs(self, request):
        """TOLERANCE and NO-RECOVERY fleets run on one 40-step scenario and seed."""
        tolerance = self.build(horizon=40)
        no_recovery = self.build(horizon=40, recovery_policy=NoRecoveryStrategy())
        return [
            (fleet, fleet.run(seed=request.param)) for fleet in (tolerance, no_recovery)
        ]

    def test_executed_requests_were_issued_by_clients(self, horizon_40_runs):
        """Validity: every request a correct, live replica executed was issued
        by a workload client.  A replica's ``execution_log`` spans all its
        incarnations (recovery resets the state machine, not the log); a
        client's request ids run 1, 2, ... and each one issued is either
        completed or still pending."""
        (fleet, _), _ = horizon_40_runs
        cluster = fleet.cluster
        issued = {
            (client.client_id, request_id)
            for client in fleet.workload.clients
            for request_id in range(1, len(client.completed) + client.pending_count + 1)
        }
        executed = {
            identifier
            for replica_id, replica in cluster.replicas.items()
            if replica.byzantine is ByzantineBehavior.NONE
            and not cluster.network.is_crashed(replica_id)
            for identifier, _sequence in replica.execution_log
        }
        assert executed
        assert check_validity(executed, issued)
        assert not check_validity(executed | {("rogue", 1)}, issued)

    def test_requests_complete_while_replicas_churn(self, horizon_40_runs):
        """Liveness: the service keeps serving while the attacker compromises
        replicas and the controllers recover, evict and add them."""
        (_, tolerance), _ = horizon_40_runs
        workload = tolerance.workload
        assert 0 < workload["completed_requests"] <= workload["submitted_requests"]

    def test_no_recovery_degrades_availability(self, horizon_40_runs):
        (_, tolerance), (_, no_recovery) = horizon_40_runs
        assert no_recovery.recoveries == 0
        assert no_recovery.availability < tolerance.availability
        assert no_recovery.availability < 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ticks_per_step": 0},
            {"num_clients": 0},
            {"num_clients": -2},
            {"pipeline": 0},
            {"deadline_ticks": 0},
            {"deadline_ticks": -3},
            {"retry_interval": -1},
            {"checkpoint_interval": -1},
        ],
        ids=lambda kwargs: ",".join(f"{key}={value}" for key, value in kwargs.items()),
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            self.build(**kwargs)
