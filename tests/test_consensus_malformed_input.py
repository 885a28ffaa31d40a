"""Malformed messages from Byzantine senders are dropped, never raised on.

A compromised replica controls every field of what it sends: a UI without
a signature, a signer that is a list, a list where a sequence number goes,
an empty membership, a snapshot without its keys.  Each case below is
certified by the sender's own USIG where that is what a real attack would
need to pass verification, so the message reaches the handler that used to
raise out of ``SimulatedNetwork.step`` and end the run.  The replicas'
derived state (the set of prepared requests, the quorum size) is checked
against the state it is derived from.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.consensus import (
    ClientRequest,
    Commit,
    KeyRegistry,
    MinBFTClient,
    MinBFTCluster,
    NewView,
    Prepare,
    Signature,
    StateTransferResponse,
)
from repro.consensus.usig import USIG, USIGVerifier


def _commit_with_signature(cluster, signature):
    honest = cluster.replicas["replica-1"].usig.create_ui(
        Commit.content_digest_of(0, 9, "ff" * 32)
    )
    ui = dataclasses.replace(honest, signature=signature)
    return [Commit(0, 9, "ff" * 32, "replica-1", ui, ui)]


def commit_without_signature(cluster):
    return _commit_with_signature(cluster, None)


def commit_with_list_signer(cluster):
    return _commit_with_signature(cluster, Signature(["a"], "t"))


def request_with_list_signer(cluster):
    return [ClientRequest("client-0", 99, "write", "x", 1, signature=Signature(["a"], "t"))]


def commit_with_list_sequence(cluster):
    usig = cluster.replicas["replica-1"].usig
    ui = usig.create_ui(Commit.content_digest_of(0, [9], "ff" * 32))
    return [Commit(0, [9], "ff" * 32, "replica-1", ui, ui)]


def prepare_with_unencodable_value(cluster):
    # A compromised leader certifies a request whose value json cannot encode.
    leader = cluster.replicas["replica-0"]
    request = ClientRequest("client-0", 99, "write", "x", {1: "a", "b": 2})
    ui = leader.usig.create_ui("aa" * 32)
    return [Prepare(0, 50, request, "replica-0", ui)]


def new_view_without_members(cluster):
    usig = cluster.replicas["replica-1"].usig
    ui = usig.create_ui(NewView.content_digest_of(1, (), 0))
    return [NewView(1, "replica-1", (), 0, ui)]


def state_response_without_snapshot(cluster):
    # Votes are keyed by the claimed replica id, so one sender can claim two.
    return [
        StateTransferResponse(claimed, 10**6, {}, "ee" * 32, ())
        for claimed in ("replica-1", "replica-2")
    ]


MALFORMED = [
    commit_without_signature,
    commit_with_list_signer,
    request_with_list_signer,
    commit_with_list_sequence,
    prepare_with_unencodable_value,
    new_view_without_members,
    state_response_without_snapshot,
]


@pytest.mark.parametrize("build", MALFORMED, ids=[build.__name__ for build in MALFORMED])
def test_malformed_message_does_not_end_the_run(build):
    cluster = MinBFTCluster(num_replicas=4, seed=5)
    client = MinBFTClient("client-0", cluster)
    assert client.write_and_wait("x", 1) is not None
    for message in build(cluster):
        for destination in cluster.membership:
            cluster.network.send("replica-1", destination, message)
    cluster.run(ticks=5)
    assert client.write_and_wait("x", 2) is not None
    executed = set(cluster.executed_sequences().values())
    assert len(executed) == 1  # every replica executed the same history


@pytest.mark.parametrize(
    "signature",
    [None, Signature(["a"], "t"), Signature("usig:replica-0", None), "not-a-signature"],
    ids=["none", "list-signer", "none-tag", "str"],
)
def test_verifier_rejects_a_ui_of_the_wrong_shape(signature):
    registry = KeyRegistry()
    verifier = USIGVerifier(registry)
    ui = USIG("replica-0", registry).create_ui("aa" * 32)
    assert verifier.verify("aa" * 32, ui, enforce_order=False)
    forged = dataclasses.replace(ui, signature=signature)
    assert verifier.verify("aa" * 32, forged, enforce_order=False) is False
    assert verifier.verify("aa" * 32, dataclasses.replace(ui, counter=[1])) is False
    assert verifier.verify("aa" * 32, "not-a-ui") is False


def _assert_derived_state(cluster):
    for replica in cluster.replicas.values():
        identifiers = [prepare.request.identifier for prepare in replica.prepare_log.values()]
        assert replica.prepared_requests == Counter(identifiers)
        f = max((len(replica.membership) - 1 - replica.config.k) // 2, 0)
        assert (replica.f, replica.quorum_size) == (f, f + 1)


def test_derived_state_follows_log_and_membership_changes():
    """Insert, checkpoint prune, view change, recovery, join and evict."""
    cluster = MinBFTCluster(num_replicas=4, seed=1)
    client = MinBFTClient("client-0", cluster)
    for value in range(12):  # past one checkpoint interval
        assert client.write_and_wait("x", value) is not None
    _assert_derived_state(cluster)
    assert any(replica.last_checkpoint_sequence > 0 for replica in cluster.replicas.values())

    client.write("y", 0)
    crashed = cluster.current_leader()
    cluster.crash(crashed)
    cluster.run(ticks=120)  # view change filters every prepare log
    assert cluster.current_leader() != crashed
    _assert_derived_state(cluster)

    cluster.recover_replica("replica-2")
    _assert_derived_state(cluster)

    new_id = cluster.add_replica()
    _assert_derived_state(cluster)
    cluster.evict_replica(new_id)
    _assert_derived_state(cluster)
