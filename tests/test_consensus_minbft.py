"""Tests for the reconfigurable MinBFT protocol (Appendix G, Fig. 17)."""

from __future__ import annotations

import pytest

from repro.consensus import (
    ByzantineBehavior,
    MinBFTClient,
    MinBFTCluster,
    MinBFTConfig,
    NetworkConfig,
)
from repro.core import check_safety


@pytest.fixture
def cluster():
    return MinBFTCluster(num_replicas=4, seed=0)


@pytest.fixture
def client(cluster):
    return MinBFTClient("client-0", cluster)


class TestNormalCase:
    def test_write_completes_with_quorum(self, cluster, client):
        result = client.write_and_wait("x", 1)
        assert result is not None
        assert result.result == 1

    def test_read_returns_written_value(self, cluster, client):
        client.write_and_wait("x", 42)
        result = client.read_and_wait("x")
        assert result is not None
        assert result.result == 42

    def test_all_replicas_execute_same_sequence(self, cluster, client):
        for i in range(5):
            client.write_and_wait(f"k{i}", i)
        cluster.run(ticks=30)
        sequences = list(cluster.executed_sequences().values())
        assert check_safety(sequences)
        assert all(len(seq) == 5 for seq in sequences)

    def test_state_digests_agree(self, cluster, client):
        for i in range(4):
            client.write_and_wait("x", i)
        cluster.run(ticks=30)
        digests = set(cluster.state_digests().values())
        assert len(digests) == 1

    def test_tolerance_threshold_hybrid_model(self):
        """MinBFT tolerates f = (N - 1 - k) / 2 failures."""
        assert MinBFTCluster(num_replicas=4).f == 1
        assert MinBFTCluster(num_replicas=6).f == 2
        assert MinBFTCluster(num_replicas=7).f == 2  # k = 1
        assert MinBFTCluster(num_replicas=10).f == 4

    def test_requires_two_replicas(self):
        with pytest.raises(ValueError):
            MinBFTCluster(num_replicas=1)

    def test_unsigned_request_is_ignored(self, cluster):
        from repro.consensus import ClientRequest

        # Requests with signatures that do not verify are dropped (validity);
        # unsigned requests are accepted only if signature is None is allowed —
        # here we inject a forged signature and expect no execution.
        from repro.consensus.crypto import Signature

        forged = ClientRequest(
            client_id="client-x", request_id=2, operation="write", key="x", value=1,
            signature=Signature(signer="client-x", tag="not-a-real-tag"),
        )
        leader = cluster.current_leader()
        cluster.network.send("client-x", leader, forged)
        cluster.run(ticks=30)
        assert all(
            replica.executed_sequence == 0 for replica in cluster.replicas.values()
        )

    def test_throughput_positive_under_load(self):
        from repro.consensus import ClientWorkload

        cluster = MinBFTCluster(num_replicas=4, seed=1)
        workload = ClientWorkload(cluster, num_clients=2)
        stats = workload.run(total_ticks=150)
        assert stats["completed_requests"] > 0
        assert stats["throughput_rps"] > 0


class TestByzantineFaults:
    def test_silent_replica_does_not_block_progress(self, cluster, client):
        cluster.compromise("replica-2", ByzantineBehavior.SILENT)
        result = client.write_and_wait("x", 5)
        assert result is not None and result.result == 5

    def test_arbitrary_replica_does_not_corrupt_state(self, cluster, client):
        cluster.compromise("replica-3", ByzantineBehavior.ARBITRARY)
        for i in range(4):
            client.write_and_wait("x", i)
        cluster.run(ticks=30)
        correct = [
            replica
            for replica_id, replica in cluster.replicas.items()
            if replica_id != "replica-3"
        ]
        digests = {replica.state_machine.state_digest() for replica in correct}
        assert len(digests) == 1
        assert correct[0].state_machine.read("x") == 3

    def test_crashed_replica_tolerated(self, cluster, client):
        cluster.crash("replica-1")
        result = client.write_and_wait("x", 7)
        assert result is not None and result.result == 7

    def test_recovery_restores_replica_state(self, cluster, client):
        cluster.compromise("replica-2", ByzantineBehavior.SILENT)
        for i in range(3):
            client.write_and_wait("x", i)
        cluster.recover_replica("replica-2")
        cluster.run(ticks=30)
        recovered = cluster.replicas["replica-2"]
        healthy = cluster.replicas["replica-0"]
        assert recovered.state_machine.state_digest() == healthy.state_machine.state_digest()

    def test_too_many_byzantine_replicas_break_progress(self):
        """With more than f compromised (silent) replicas, requests cannot complete."""
        cluster = MinBFTCluster(num_replicas=4, seed=2)
        client = MinBFTClient("client-0", cluster)
        cluster.compromise("replica-1", ByzantineBehavior.SILENT)
        cluster.compromise("replica-2", ByzantineBehavior.SILENT)
        cluster.compromise("replica-3", ByzantineBehavior.SILENT)
        result = client.write_and_wait("x", 1, max_ticks=80)
        assert result is None


class TestViewChange:
    def test_crashed_leader_is_replaced(self):
        config = MinBFTConfig(view_change_timeout=10)
        cluster = MinBFTCluster(num_replicas=4, config=config, seed=3)
        client = MinBFTClient("client-0", cluster)
        leader = cluster.current_leader()
        cluster.crash(leader)
        result = client.write_and_wait("x", 123, max_ticks=400)
        assert result is not None
        assert result.result == 123
        assert cluster.current_leader() != leader

    def test_silent_leader_triggers_view_change(self):
        config = MinBFTConfig(view_change_timeout=10)
        cluster = MinBFTCluster(num_replicas=4, config=config, seed=4)
        client = MinBFTClient("client-0", cluster)
        leader = cluster.current_leader()
        cluster.compromise(leader, ByzantineBehavior.SILENT)
        result = client.write_and_wait("x", 9, max_ticks=400)
        assert result is not None and result.result == 9

    def test_view_number_increases_after_view_change(self):
        config = MinBFTConfig(view_change_timeout=10)
        cluster = MinBFTCluster(num_replicas=4, config=config, seed=5)
        client = MinBFTClient("client-0", cluster)
        initial_views = {r.view for r in cluster.replicas.values()}
        leader = cluster.current_leader()
        cluster.crash(leader)
        client.write_and_wait("x", 1, max_ticks=400)
        surviving_views = {
            r.view for rid, r in cluster.replicas.items() if rid != leader
        }
        assert max(surviving_views) > max(initial_views)


class TestReconfiguration:
    def test_join_adds_replica_and_preserves_service(self, cluster, client):
        client.write_and_wait("x", 1)
        new_id = cluster.add_replica()
        assert new_id in cluster.membership
        assert len(cluster.membership) == 5
        result = client.write_and_wait("y", 2)
        assert result is not None and result.result == 2

    def test_joined_replica_receives_state_transfer(self, cluster, client):
        for i in range(3):
            client.write_and_wait("x", i)
        new_id = cluster.add_replica()
        cluster.run(ticks=30)
        assert cluster.replicas[new_id].state_machine.read("x") == 2

    def test_evict_removes_replica_and_preserves_service(self, cluster, client):
        client.write_and_wait("x", 1)
        cluster.evict_replica("replica-3")
        assert "replica-3" not in cluster.membership
        result = client.write_and_wait("y", 2)
        assert result is not None and result.result == 2

    def test_evicting_unknown_replica_is_noop(self, cluster):
        before = list(cluster.membership)
        cluster.evict_replica("replica-99")
        assert cluster.membership == before

    def test_join_then_evict_round_trip(self, cluster, client):
        new_id = cluster.add_replica()
        cluster.evict_replica(new_id)
        assert len(cluster.membership) == 4
        result = client.write_and_wait("z", 3)
        assert result is not None and result.result == 3

    def test_checkpointing_garbage_collects_logs(self):
        config = MinBFTConfig(checkpoint_interval=3)
        cluster = MinBFTCluster(num_replicas=4, config=config, seed=6)
        client = MinBFTClient("client-0", cluster)
        for i in range(8):
            client.write_and_wait("x", i)
        cluster.run(ticks=50)
        for replica in cluster.replicas.values():
            assert replica.last_checkpoint_sequence >= 3
            assert all(seq > replica.last_checkpoint_sequence - 1 for seq in replica.prepare_log) or \
                len(replica.prepare_log) < 8


class TestLossyNetwork:
    def test_progress_with_packet_loss(self):
        """Liveness with NETEM-style loss and reliable retransmission (Prop. 1b)."""
        cluster = MinBFTCluster(
            num_replicas=4,
            network_config=NetworkConfig(loss_probability=0.05, reliable=True),
            seed=7,
        )
        client = MinBFTClient("client-0", cluster)
        result = client.write_and_wait("x", 11, max_ticks=400)
        assert result is not None and result.result == 11


class TestCommitQuorumKeying:
    """Regression: commit votes are keyed by (sequence, digest) so a corrupted
    COMMIT arriving before its PREPARE cannot count toward the honest quorum."""

    def test_corrupted_commit_before_prepare_does_not_reach_quorum(self):
        from repro.consensus import Commit

        cluster = MinBFTCluster(num_replicas=4, seed=11)
        client = MinBFTClient("client-0", cluster)
        leader = cluster.replicas["replica-0"]
        byzantine = cluster.replicas["replica-1"]
        target = cluster.replicas["replica-2"]
        assert leader.is_leader

        # The leader prepares a request; pick the Prepare off its log without
        # stepping the network, so delivery order can be forced by hand.
        request = client._build_request("write", "x", 1)
        leader._handle_request(request, tick=0)
        prepare = leader.prepare_log[1]

        # A Byzantine replica's COMMIT for a corrupted digest, certified by
        # its own (real) USIG, delivered to the target BEFORE the Prepare —
        # the digest cross-check against the prepare log cannot run yet.
        bad_digest = "ff" * 32
        corrupted = Commit(
            view=0,
            sequence=1,
            request_digest=bad_digest,
            replica_id="replica-1",
            prepare_ui=prepare.ui,
            ui=byzantine.usig.create_ui(Commit.content_digest_of(0, 1, bad_digest)),
        )
        target.on_message("replica-1", corrupted, 0)
        target.on_message("replica-0", prepare, 0)

        # The target's own COMMIT is its only vote for the honest digest
        # (quorum is f + 1 = 2): the corrupted vote must not fill the gap.
        honest_votes = target.commit_votes[(1, request.payload_digest)]
        assert honest_votes == {"replica-2"}
        assert target.executed_sequence == 0
        assert target.state_machine.executed_requests() == ()


class TestRecoveryClearsProtocolState:
    """Regression: recover_replica must clear stale quorums; duplicate
    execution across the recovery is detected by the safety audit."""

    def test_no_duplicate_execution_with_traffic_during_recovery(self):
        from repro.consensus import audit_safety

        cluster = MinBFTCluster(num_replicas=4, seed=12)
        client = MinBFTClient("client-0", cluster)
        for i in range(3):
            client.write_and_wait("x", i)
        cluster.run(ticks=20)
        # Submit a request and recover replica-2 while its PREPARE/COMMITs
        # are still in flight: pre-fix, the stale prepare log and commit
        # votes re-execute sequences 1..3 on the fresh state machine before
        # state transfer completes.
        client.write("x", 99)
        cluster.recover_replica("replica-2")
        cluster.run(ticks=60)
        audit = audit_safety(cluster)
        assert audit.no_duplicates, audit.duplicated
        assert audit.consistent
        recovered = cluster.replicas["replica-2"]
        identifiers = [entry[0] for entry in recovered.execution_log]
        assert len(identifiers) == len(set(identifiers))

    def test_recovery_rekeys_usig(self):
        cluster = MinBFTCluster(num_replicas=4, seed=13)
        client = MinBFTClient("client-0", cluster)
        client.write_and_wait("x", 1)
        stale_ui = cluster.replicas["replica-2"].usig.create_ui("stale")
        cluster.recover_replica("replica-2")
        verifier = cluster.replicas["replica-0"].verifier
        assert not verifier.verify("stale", stale_ui, enforce_order=False)

    def test_recovered_replica_does_not_regress_sequencing(self):
        """A recovered replica that missed state transfer must not restart
        sequencing below the cluster's watermark (it would execute a
        divergent history on its fresh state machine)."""
        cluster = MinBFTCluster(num_replicas=4, seed=14)
        client = MinBFTClient("client-0", cluster)
        for i in range(4):
            client.write_and_wait("x", i)
        cluster.run(ticks=20)
        watermark = max(r.executed_sequence for r in cluster.replicas.values())
        cluster.recover_replica("replica-1")
        recovered = cluster.replicas["replica-1"]
        assert recovered.known_sequence >= watermark
        # A fresh proposal from the recovered replica (were it leader) would
        # start above the watermark, never at 1.
        assert max(recovered.executed_sequence, recovered.known_sequence) >= watermark


class TestLeaderEviction:
    """Regression: evicting the leader must produce a real NEW-VIEW from the
    designated successor, not a silent membership prune."""

    def test_evicting_leader_advances_view(self, cluster, client):
        client.write_and_wait("x", 1)
        leader = cluster.current_leader()
        views_before = {
            rid: r.view for rid, r in cluster.replicas.items() if rid != leader
        }
        cluster.evict_replica(leader)
        assert leader not in cluster.membership
        for rid, replica in cluster.replicas.items():
            assert replica.view > views_before[rid], (
                f"{rid} never adopted the NEW-VIEW after leader eviction"
            )
            assert leader not in replica.membership

    def test_service_continues_after_leader_eviction(self, cluster, client):
        client.write_and_wait("x", 1)
        leader = cluster.current_leader()
        cluster.evict_replica(leader)
        result = client.write_and_wait("y", 2, max_ticks=400)
        assert result is not None and result.result == 2

    def test_successor_is_new_leader(self, cluster, client):
        client.write_and_wait("x", 1)
        leader = cluster.current_leader()
        cluster.evict_replica(leader)
        new_leader = cluster.current_leader()
        assert new_leader != leader
        assert new_leader in cluster.membership


class TestVoteAuthentication:
    """Regression: a vote counts only under the replica that sent it.

    One Byzantine replica must not fill an f + 1 quorum alone — by claiming
    another replica's id, or by replaying another replica's vote — and a
    replica must adopt a state-transfer snapshot only when it is the state
    the quorum's digest names.
    """

    @staticmethod
    def _lagging_target(cluster, client):
        from repro.consensus.state_machine import KeyValueStateMachine

        for i in range(3):
            client.write_and_wait("x", i)
        cluster.run(ticks=20)
        target = cluster.replicas["replica-3"]
        target.state_machine = KeyValueStateMachine()
        target.executed_sequence = 0
        return target

    @staticmethod
    def _response(replica_id, source, store=None):
        """A STATE response carrying ``source``'s digest, optionally a forged store."""
        from repro.consensus import StateTransferResponse

        snapshot = source.state_machine.snapshot()
        if store is not None:
            snapshot = {**snapshot, "store": store}
        return StateTransferResponse(
            replica_id=replica_id,
            last_executed=source.executed_sequence,
            state_snapshot=snapshot,
            state_digest=source.state_machine.state_digest(),
            executed_requests=source.state_machine.executed_requests(),
        )

    def test_state_votes_under_another_id_do_not_form_a_quorum(self, cluster, client):
        from repro.consensus import StateTransferResponse
        from repro.consensus.state_machine import KeyValueStateMachine

        target = self._lagging_target(cluster, client)
        forged = {"store": {"x": "forged"}, "applied": [], "last_sequence": 99}
        # A self-consistent forgery: its digest is that of the forged state.
        machine = KeyValueStateMachine()
        machine.restore(forged)
        for claimed in ("replica-1", "replica-2"):
            target.on_message(
                "replica-1",
                StateTransferResponse(
                    replica_id=claimed,
                    last_executed=99,
                    state_snapshot=forged,
                    state_digest=machine.state_digest(),
                    executed_requests=(),
                ),
                0,
            )
        assert target.executed_sequence == 0
        assert target.state_machine.read("x") is None

    def test_forged_snapshot_completing_a_quorum_is_not_adopted(self, cluster, client):
        target = self._lagging_target(cluster, client)
        honest = cluster.replicas["replica-2"]
        expected = honest.state_machine.state_digest()
        target.on_message("replica-2", self._response("replica-2", honest), 0)
        forged = self._response("replica-1", honest, store={"x": "forged"})
        target.on_message("replica-1", forged, 0)
        assert target.executed_sequence == 0
        assert target.state_machine.read("x") is None
        # The next honest response of the same quorum is adopted.
        source = cluster.replicas["replica-0"]
        target.on_message("replica-0", self._response("replica-0", source), 0)
        assert target.executed_sequence == honest.executed_sequence
        assert target.state_machine.state_digest() == expected

    def test_commit_votes_count_only_under_their_sender(self):
        from repro.consensus import Commit

        cluster = MinBFTCluster(num_replicas=4, seed=11)
        client = MinBFTClient("client-0", cluster)
        leader = cluster.replicas["replica-0"]
        byzantine = cluster.replicas["replica-1"]
        target = cluster.replicas["replica-3"]
        request = client._build_request("write", "x", 1)
        leader._handle_request(request, tick=0)
        prepare = leader.prepare_log[1]
        target.on_message("replica-0", prepare, 0)
        honest_key = (1, request.payload_digest)
        assert target.commit_votes[honest_key] == {"replica-3"}

        content = Commit.content_digest_of(0, 1, request.payload_digest)
        # Replica-1 votes under replica-2's id with its own (valid) UI ...
        spoofed = Commit(
            view=0,
            sequence=1,
            request_digest=request.payload_digest,
            replica_id="replica-2",
            prepare_ui=prepare.ui,
            ui=byzantine.usig.create_ui(content),
        )
        target.on_message("replica-1", spoofed, 0)
        # ... and replays replica-2's own COMMIT as if it had sent it.
        cluster.replicas["replica-2"].on_message("replica-0", prepare, 0)
        replayed = Commit(
            view=0,
            sequence=1,
            request_digest=request.payload_digest,
            replica_id="replica-2",
            prepare_ui=prepare.ui,
            ui=cluster.replicas["replica-2"].usig.create_ui(content),
        )
        target.on_message("replica-1", replayed, 0)
        assert target.commit_votes[honest_key] == {"replica-3"}
        assert target.executed_sequence == 0
        # Its own vote, sent as itself, still counts.
        own = Commit(
            view=0,
            sequence=1,
            request_digest=request.payload_digest,
            replica_id="replica-1",
            prepare_ui=prepare.ui,
            ui=byzantine.usig.create_ui(content),
        )
        target.on_message("replica-1", own, 0)
        assert target.commit_votes[honest_key] == {"replica-1", "replica-3"}
        assert target.executed_sequence == 1

    def test_a_prepare_counts_only_from_the_leader(self):
        from repro.consensus import Prepare

        cluster = MinBFTCluster(num_replicas=4, seed=11)
        client = MinBFTClient("client-0", cluster)
        byzantine = cluster.replicas["replica-1"]
        target = cluster.replicas["replica-2"]
        request = client._build_request("write", "x", 1)
        content = Prepare.content_digest_of(0, 1, request.payload_digest)
        # Replica-1 claims the leader's role with a UI from its own USIG ...
        injected = Prepare(
            view=0,
            sequence=1,
            request=request,
            leader_id="replica-0",
            ui=byzantine.usig.create_ui(content),
        )
        target.on_message("replica-1", injected, 0)
        # ... or relays a PREPARE under the leader's name that it signed itself.
        target.on_message("replica-0", injected, 0)
        assert target.prepare_log == {}
        assert request.identifier not in target.pending_client_requests
        # The leader's own PREPARE is accepted.
        leader = cluster.replicas["replica-0"]
        leader._handle_request(request, tick=0)
        target.on_message("replica-0", leader.prepare_log[1], 0)
        assert target.prepare_log[1] is leader.prepare_log[1]
