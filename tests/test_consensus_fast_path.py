"""Tests for the consensus fast path: canonical bytes computed once per message.

Covers the fixed-layout canonical encoder against ``json.dumps`` (the
encoding every digest and tag is defined by), the per-instance digests of
client requests, UIs and the USIG-certified message kinds, tamper and
key-rotation checks that the per-instance caches cannot hide, the rejection
of malformed signature tags, and a pinned outcome fingerprint of a small
controller-driven MinBFT run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    Checkpoint,
    ClientRequest,
    Commit,
    KeyRegistry,
    MinBFTClient,
    MinBFTCluster,
    NewView,
    Prepare,
    Signature,
    ViewChange,
    digest,
)
from repro.consensus.crypto import FlatLayout
from repro.consensus.usig import USIG, USIGVerifier
from repro.control import ConsensusBackedFleet
from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
from repro.core.strategies import ReplicationThresholdStrategy
from repro.sim import FleetScenario


def json_bytes(payload: object) -> bytes:
    """The reference canonical form every digest and tag is defined over."""
    return json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")


def json_digest(payload: object) -> str:
    return hashlib.sha256(json_bytes(payload)).hexdigest()


# Identifiers exercise JSON escaping: quotes, backslashes, control and
# non-ASCII characters (encoded as \uXXXX, surrogate pairs above the BMP).
ids = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['a"b', "back\\slash", "é", "☃", "\U0001f600", "{0}", "x\ny", ""]),
)
# Integer fields, including what json.dumps treats differently from a
# plain int: bool (true/false) and NumPy integers (repr(), as a string).
numbers = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
)
values = st.recursive(
    st.one_of(
        st.none(),
        numbers,
        ids,
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(ids, children, max_size=3),
    ),
    max_leaves=6,
)
hex_digests = st.binary(min_size=32, max_size=32).map(bytes.hex)


def make_ui() -> object:
    return USIG("replica-0", KeyRegistry()).create_ui("d" * 64)


class TestCanonicalEncoding:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(ids, min_size=1, max_size=5, unique=True), st.data())
    def test_flat_layout_matches_json(self, keys, data):
        row = [data.draw(values) for _ in keys]
        payload = dict(zip(keys, row))
        assert FlatLayout(*keys).encode(*row) == json_bytes(payload)

    def test_digest_takes_canonical_bytes_as_they_are(self):
        payload = {"view": 1, "sequence": 2}
        assert digest(json_bytes(payload)) == digest(payload) == json_digest(payload)


class TestMessageDigests:
    """Each message kind's cached bytes/digest equal the json.dumps form."""

    @settings(max_examples=150, deadline=None)
    @given(ids, numbers, ids, ids, values)
    def test_client_request(self, client_id, request_id, operation, key, value):
        request = ClientRequest(client_id, request_id, operation, key, value)
        payload = {
            "client_id": client_id,
            "request_id": request_id,
            "operation": operation,
            "key": key,
            "value": value,
        }
        assert request.payload_bytes == json_bytes(payload)
        assert request.payload_digest == json_digest(payload)

    @settings(max_examples=100, deadline=None)
    @given(ids, numbers, hex_digests)
    def test_unique_identifier(self, replica_id, counter, message_digest):
        ui = dataclasses.replace(
            make_ui(), replica_id=replica_id, counter=counter, message_digest=message_digest
        )
        payload = {"replica": replica_id, "counter": counter, "digest": message_digest}
        assert ui.payload_bytes == json_bytes(payload)

    @settings(max_examples=100, deadline=None)
    @given(numbers, numbers, ids, ids, numbers, values)
    def test_prepare(self, view, sequence, client_id, leader_id, request_id, value):
        request = ClientRequest(client_id, request_id, "write", "x", value)
        prepare = Prepare(view, sequence, request, leader_id, make_ui())
        request_digest = json_digest(
            {
                "client_id": client_id,
                "request_id": request_id,
                "operation": "write",
                "key": "x",
                "value": value,
            }
        )
        expected = json_digest({"view": view, "sequence": sequence, "request": request_digest})
        assert prepare.content_digest == expected
        assert Prepare.content_digest_of(view, sequence, request.payload_digest) == expected

    @settings(max_examples=100, deadline=None)
    @given(numbers, numbers, ids, ids)
    def test_commit(self, view, sequence, request_digest, replica_id):
        commit = Commit(view, sequence, request_digest, replica_id, make_ui(), make_ui())
        expected = json_digest({"view": view, "sequence": sequence, "digest": request_digest})
        assert commit.content_digest == expected
        assert Commit.content_digest_of(view, sequence, request_digest) == expected

    @settings(max_examples=100, deadline=None)
    @given(numbers, ids, ids)
    def test_checkpoint(self, sequence, state_digest, replica_id):
        checkpoint = Checkpoint(sequence, state_digest, replica_id, make_ui())
        expected = json_digest({"sequence": sequence, "digest": state_digest})
        assert checkpoint.content_digest == expected

    @settings(max_examples=100, deadline=None)
    @given(numbers, numbers, ids, ids)
    def test_view_change(self, new_view, last_executed, replica_id, checkpoint_digest):
        message = ViewChange(new_view, last_executed, replica_id, checkpoint_digest, make_ui())
        expected = json_digest(
            {"new_view": new_view, "last_executed": last_executed, "checkpoint": checkpoint_digest}
        )
        assert message.content_digest == expected

    @settings(max_examples=100, deadline=None)
    @given(numbers, ids, st.lists(ids, max_size=4).map(tuple), numbers)
    def test_new_view(self, view, leader_id, membership, starting_sequence):
        message = NewView(view, leader_id, membership, starting_sequence, make_ui())
        expected = json_digest(
            {"view": view, "membership": membership, "starting_sequence": starting_sequence}
        )
        assert message.content_digest == expected


class TestTamperingIsDetected:
    """``dataclasses.replace`` builds a new instance; its digest is its own."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("client_id", "client-1"),
            ("request_id", 2),
            ("operation", "read"),
            ("key", "y"),
            ("value", 8),
        ],
    )
    def test_client_request(self, field, value):
        registry = KeyRegistry()
        key = registry.create("client-0")
        unsigned = ClientRequest("client-0", 1, "write", "x", 7)
        request = dataclasses.replace(unsigned, signature=key.sign(unsigned.payload_bytes))
        assert registry.verify(request.payload_bytes, request.signature)
        tampered = dataclasses.replace(request, **{field: value})
        assert not registry.verify(tampered.payload_bytes, tampered.signature)

    @staticmethod
    def _cluster_messages():
        """A PREPARE, a COMMIT and a CHECKPOINT certified by real USIGs."""
        cluster = MinBFTCluster(num_replicas=4, seed=3)
        client = MinBFTClient("client-0", cluster)
        leader = cluster.replicas["replica-0"]
        request = client._build_request("write", "x", 1)
        leader._handle_request(request, tick=0)
        prepare = leader.prepare_log[1]
        follower = cluster.replicas["replica-1"]
        commit = Commit(
            view=0,
            sequence=1,
            request_digest=request.payload_digest,
            replica_id="replica-1",
            prepare_ui=prepare.ui,
            ui=follower.usig.create_ui(
                Commit.content_digest_of(0, 1, request.payload_digest)
            ),
        )
        checkpoint = Checkpoint(
            sequence=1,
            state_digest="ab" * 32,
            replica_id="replica-1",
            ui=follower.usig.create_ui(Checkpoint.content_digest_of(1, "ab" * 32)),
        )
        verifier = cluster.replicas["replica-2"].verifier
        return verifier, prepare, commit, checkpoint

    @pytest.mark.parametrize(
        "kind, changes",
        [
            ("prepare", {"view": 1}),
            ("prepare", {"sequence": 2}),
            ("prepare", {"request": ClientRequest("client-0", 1, "write", "x", 2)}),
            ("commit", {"view": 1}),
            ("commit", {"sequence": 2}),
            ("commit", {"request_digest": "ff" * 32}),
            ("checkpoint", {"sequence": 2}),
            ("checkpoint", {"state_digest": "cd" * 32}),
        ],
    )
    def test_certified_messages(self, kind, changes):
        verifier, prepare, commit, checkpoint = self._cluster_messages()
        message = {"prepare": prepare, "commit": commit, "checkpoint": checkpoint}[kind]
        # Populate the original's caches first: the copy must not inherit them.
        assert verifier.verify(message.content_digest, message.ui, enforce_order=False)
        tampered = dataclasses.replace(message, **changes)
        assert tampered.content_digest != message.content_digest
        assert not verifier.verify(tampered.content_digest, tampered.ui, enforce_order=False)

    @pytest.mark.parametrize(
        "changes",
        [{"replica_id": "replica-1"}, {"counter": 5}, {"message_digest": "ee" * 32}],
    )
    def test_unique_identifier(self, changes):
        registry = KeyRegistry()
        usig = USIG("replica-0", registry)
        verifier = USIGVerifier(registry)
        ui = usig.create_ui("aa" * 32)
        assert verifier.verify("aa" * 32, ui, enforce_order=False)
        tampered = dataclasses.replace(ui, **changes)
        assert tampered.payload_bytes != ui.payload_bytes
        assert not verifier.verify(tampered.message_digest, tampered, enforce_order=False)


def test_rotation_revokes_a_ui_with_cached_bytes():
    registry = KeyRegistry()
    usig = USIG("replica-0", registry)
    verifier = USIGVerifier(registry)
    ui = usig.create_ui("aa" * 32)
    assert ui.payload_bytes  # encoded and cached under the old key
    assert verifier.verify("aa" * 32, ui, enforce_order=False)
    USIG("replica-0", registry, fresh_key=True)
    assert not verifier.verify("aa" * 32, ui, enforce_order=False)


class TestMalformedSignatures:
    """A forged tag of the wrong shape is rejected, never raised on."""

    @pytest.mark.parametrize(
        "tag",
        ["é" * 64, None, b"00" * 32, 0, "0" * 63 + "☃"],
        ids=["non-ascii", "none", "bytes", "int", "last-char-non-ascii"],
    )
    def test_registry_rejects(self, tag):
        registry = KeyRegistry()
        registry.create("a")
        assert registry.verify({"x": 1}, Signature("a", tag)) is False

    def test_forged_ui_from_a_byzantine_sender_does_not_end_the_run(self):
        cluster = MinBFTCluster(num_replicas=4, seed=5)
        client = MinBFTClient("client-0", cluster)
        assert client.write_and_wait("x", 1) is not None
        byzantine = cluster.replicas["replica-1"]
        honest = byzantine.usig.create_ui(Commit.content_digest_of(0, 9, "ff" * 32))
        for tag in ("é" * 64, None):
            forged_ui = dataclasses.replace(
                honest, signature=Signature(honest.signature.signer, tag)
            )
            forged = Commit(0, 9, "ff" * 32, "replica-1", forged_ui, forged_ui)
            for destination in cluster.membership:
                cluster.network.send("replica-1", destination, forged)
        cluster.run(ticks=5)
        assert client.write_and_wait("x", 2) is not None


#: sha256 of the outcome of :func:`consensus_fingerprint`, recorded before
#: the canonical-bytes caches existed: digests, tags and message traffic
#: must not move at a fixed seed.
PINNED_FINGERPRINT = "ca4e108a6c3b8951128114cff0fce02872f578efb8a4c8dead8f43f51504b05a"


def consensus_fingerprint() -> str:
    """Hash of a small controller-driven MinBFT run with churn.

    Seed 0 of this scenario recovers, evicts and adds replicas and marks
    replicas Byzantine (corrupted PREPAREs and COMMITs), so the hash covers
    the normal case, reconfiguration and rejected messages.
    """
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1, p_c2=0.1),
        BetaBinomialObservationModel(),
        num_nodes=8,
        horizon=15,
        f=1,
    )
    fleet = ConsensusBackedFleet(
        scenario,
        recovery_policy=ThresholdStrategy(0.75),
        replication_strategy=ReplicationThresholdStrategy(1),
        num_clients=4,
        pipeline=2,
    )
    result = fleet.run(seed=0)
    cluster = fleet.cluster
    assert (result.recoveries, result.evictions, result.additions) == (5, 2, 2)
    assert result.compromises > 0 and result.safety_ok
    outcome = (
        sorted(result.workload.items()),
        [
            (replica_id, replica.execution_log, replica.state_machine.state_digest())
            for replica_id, replica in sorted(cluster.replicas.items())
        ],
        cluster.network.messages_delivered,
        result.final_membership,
    )
    return hashlib.sha256(repr(outcome).encode("utf-8")).hexdigest()


def test_pinned_consensus_fingerprint():
    assert consensus_fingerprint() == PINNED_FINGERPRINT
