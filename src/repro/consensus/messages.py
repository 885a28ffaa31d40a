"""Protocol messages of the reconfigurable MinBFT implementation (Fig. 17).

Each dataclass corresponds to one arrow type in the time-space diagrams of
Appendix G: REQUEST, PREPARE, COMMIT, REPLY for the normal case;
VIEW-CHANGE / NEW-VIEW for leader replacement; CHECKPOINT for garbage
collection; STATE for state transfer after recovery; and JOIN / EVICT plus
their replies for reconfiguration requested by the system controller.
Messages are plain frozen dataclasses carried over the simulated network by
value.

Each message kind that a USIG certifies (PREPARE, COMMIT, CHECKPOINT,
VIEW-CHANGE, NEW-VIEW) defines its certified content in one place: a
``content_digest_of(...)`` static method that the sender calls before the
UI exists, and a ``content_digest`` property that a receiver compares with
the UI's digest.  The property is computed from the instance's own frozen
fields on first use and cached on the instance; so is a client request's
``payload_bytes``/``payload_digest``.  One broadcast message object reaches
all ``n - 1`` receivers, so the canonical encoding and the SHA-256 run once
per message rather than once per receiver, while every receiver still
computes the HMAC of the UI or signature it checks.  A tampered message —
including one a Byzantine replica builds — is a new instance (frozen
fields; ``dataclasses.replace`` constructs anew), whose digest is computed
from its own fields, so the cache cannot carry a stale digest over to it.
A request ``value`` that is a mutable container must not be mutated once
the request is built: its bytes are encoded once, like every other field.

Every message a replica handles also has a ``well_formed`` property,
cached the same way: whether each field a handler reads has the type the
protocol gives it (ids and digests ``str``, views and sequence numbers
``int``, signatures of their own class).  A replica drops a message that
is not well formed before it reads any field, and ``USIGVerifier.verify``
rejects a UI that is not one, so a Byzantine sender's list-typed sequence
or missing signature is rejected like a forged one instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .crypto import FlatLayout, Signature, digest
from .usig import UniqueIdentifier

__all__ = [
    "ClientRequest",
    "Prepare",
    "Commit",
    "Reply",
    "Checkpoint",
    "ViewChange",
    "NewView",
    "StateTransferRequest",
    "StateTransferResponse",
    "JoinRequest",
    "EvictRequest",
    "ReconfigurationReply",
]


_REQUEST_PAYLOAD = FlatLayout("client_id", "request_id", "operation", "key", "value")
_PREPARE_CONTENT = FlatLayout("view", "sequence", "request")
_COMMIT_CONTENT = FlatLayout("view", "sequence", "digest")
_CHECKPOINT_CONTENT = FlatLayout("sequence", "digest")
_VIEW_CHANGE_CONTENT = FlatLayout("new_view", "last_executed", "checkpoint")


def _well_formed_signature(value: object) -> bool:
    """``None`` (unsigned) or a :class:`Signature` whose signer and tag are ``str``."""
    return value is None or (
        type(value) is Signature and type(value.signer) is str and type(value.tag) is str
    )


def _is_identifier(value: object) -> bool:
    """A request identifier ``(client_id, request_id)``."""
    return (
        type(value) is tuple
        and len(value) == 2
        and type(value[0]) is str
        and type(value[1]) is int
    )


@dataclass(frozen=True)
class ClientRequest:
    """A signed client request (read or write) with a unique identifier."""

    client_id: str
    request_id: int
    operation: str  # "read" or "write"
    key: str
    value: object | None
    signature: Signature | None = None

    @cached_property
    def identifier(self) -> tuple[str, int]:
        return (self.client_id, self.request_id)

    @cached_property
    def payload_bytes(self) -> bytes:
        """Canonical bytes of the signable content (every field but the signature)."""
        return _REQUEST_PAYLOAD.encode(
            self.client_id, self.request_id, self.operation, self.key, self.value
        )

    @cached_property
    def payload_digest(self) -> str:
        """SHA-256 of :attr:`payload_bytes`: the request digest PREPAREs and COMMITs carry."""
        return digest(self.payload_bytes)

    @cached_property
    def well_formed(self) -> bool:
        if not (
            type(self.client_id) is str
            and type(self.request_id) is int
            and type(self.operation) is str
            and type(self.key) is str
        ):
            return False
        if not _well_formed_signature(self.signature):
            return False
        try:
            self.payload_bytes  # a value json.dumps cannot encode
        except (TypeError, ValueError, RecursionError):
            return False
        return True


@dataclass(frozen=True)
class Prepare:
    """PREPARE sent by the leader: assigns a sequence number via its USIG."""

    view: int
    sequence: int
    request: ClientRequest
    leader_id: str
    ui: UniqueIdentifier

    @staticmethod
    def content_digest_of(view: int, sequence: int, request_digest: str) -> str:
        """Digest of the content a PREPARE's UI certifies."""
        return digest(_PREPARE_CONTENT.encode(view, sequence, request_digest))

    @cached_property
    def content_digest(self) -> str:
        return self.content_digest_of(self.view, self.sequence, self.request.payload_digest)

    @cached_property
    def well_formed(self) -> bool:
        return (
            type(self.view) is int
            and type(self.sequence) is int
            and type(self.leader_id) is str
            and type(self.request) is ClientRequest
            and self.request.well_formed
        )


@dataclass(frozen=True)
class Commit:
    """COMMIT sent by every replica after accepting a PREPARE."""

    view: int
    sequence: int
    request_digest: str
    replica_id: str
    prepare_ui: UniqueIdentifier
    ui: UniqueIdentifier

    @staticmethod
    def content_digest_of(view: int, sequence: int, request_digest: str) -> str:
        """Digest of the content a COMMIT's UI certifies."""
        return digest(_COMMIT_CONTENT.encode(view, sequence, request_digest))

    @cached_property
    def content_digest(self) -> str:
        return self.content_digest_of(self.view, self.sequence, self.request_digest)

    @cached_property
    def well_formed(self) -> bool:
        return (
            type(self.view) is int
            and type(self.sequence) is int
            and type(self.request_digest) is str
            and type(self.replica_id) is str
        )


@dataclass(frozen=True)
class Reply:
    """REPLY sent to the client after executing the request."""

    view: int
    replica_id: str
    client_id: str
    request_id: int
    result: object
    sequence: int


@dataclass(frozen=True)
class Checkpoint:
    """CHECKPOINT message carrying a digest of the replica state at a sequence number."""

    sequence: int
    state_digest: str
    replica_id: str
    ui: UniqueIdentifier

    @staticmethod
    def content_digest_of(sequence: int, state_digest: str) -> str:
        """Digest of the content a CHECKPOINT's UI certifies."""
        return digest(_CHECKPOINT_CONTENT.encode(sequence, state_digest))

    @cached_property
    def content_digest(self) -> str:
        return self.content_digest_of(self.sequence, self.state_digest)

    @cached_property
    def well_formed(self) -> bool:
        return (
            type(self.sequence) is int
            and type(self.state_digest) is str
            and type(self.replica_id) is str
        )


@dataclass(frozen=True)
class ViewChange:
    """VIEW-CHANGE vote for moving to ``new_view``."""

    new_view: int
    last_executed: int
    replica_id: str
    checkpoint_digest: str
    ui: UniqueIdentifier

    @staticmethod
    def content_digest_of(new_view: int, last_executed: int, checkpoint_digest: str) -> str:
        """Digest of the content a VIEW-CHANGE's UI certifies."""
        return digest(_VIEW_CHANGE_CONTENT.encode(new_view, last_executed, checkpoint_digest))

    @cached_property
    def content_digest(self) -> str:
        return self.content_digest_of(self.new_view, self.last_executed, self.checkpoint_digest)

    @cached_property
    def well_formed(self) -> bool:
        return (
            type(self.new_view) is int
            and type(self.last_executed) is int
            and type(self.replica_id) is str
            and type(self.checkpoint_digest) is str
        )


@dataclass(frozen=True)
class NewView:
    """NEW-VIEW announcement from the leader of ``view``; includes the membership."""

    view: int
    leader_id: str
    membership: tuple[str, ...]
    starting_sequence: int
    ui: UniqueIdentifier

    @staticmethod
    def content_digest_of(
        view: int, membership: tuple[str, ...], starting_sequence: int
    ) -> str:
        """Digest of the content a NEW-VIEW's UI certifies (not flat: a list of ids)."""
        return digest(
            {"view": view, "membership": membership, "starting_sequence": starting_sequence}
        )

    @cached_property
    def content_digest(self) -> str:
        return self.content_digest_of(self.view, self.membership, self.starting_sequence)

    @cached_property
    def well_formed(self) -> bool:
        return (
            type(self.view) is int
            and type(self.starting_sequence) is int
            and type(self.leader_id) is str
            and type(self.membership) is tuple
            and len(self.membership) > 0
            and all(type(replica_id) is str for replica_id in self.membership)
        )


@dataclass(frozen=True)
class StateTransferRequest:
    """Request by a recovering/joining replica for the current service state."""

    replica_id: str
    last_executed: int

    @cached_property
    def well_formed(self) -> bool:
        return type(self.replica_id) is str and type(self.last_executed) is int


@dataclass(frozen=True)
class StateTransferResponse:
    """State snapshot sent by a healthy replica (STATE in Fig. 17d)."""

    replica_id: str
    last_executed: int
    state_snapshot: dict
    state_digest: str
    executed_requests: tuple[tuple[str, int], ...]

    @cached_property
    def well_formed(self) -> bool:
        """The fields a vote reads; :meth:`state_well_formed` checks the rest."""
        return (
            type(self.replica_id) is str
            and type(self.last_executed) is int
            and type(self.state_digest) is str
        )

    def state_well_formed(self) -> bool:
        """Whether the snapshot and history have the layout a replica restores.

        Checked only when the response is about to be adopted: it is linear
        in the history, and most responses are only counted as votes.
        """
        snapshot = self.state_snapshot
        return (
            type(self.executed_requests) is tuple
            and all(map(_is_identifier, self.executed_requests))
            and type(snapshot) is dict
            and type(snapshot.get("store")) is dict
            and type(snapshot.get("applied")) is list
            and all(map(_is_identifier, snapshot["applied"]))
            and type(snapshot.get("last_sequence")) is int
            and type(snapshot.get("history_digest", "")) is str
        )


@dataclass(frozen=True)
class JoinRequest:
    """Reconfiguration request from the system controller: add ``new_replica_id``."""

    new_replica_id: str
    issued_by: str
    signature: Signature | None = None

    @cached_property
    def well_formed(self) -> bool:
        return (
            type(self.new_replica_id) is str
            and type(self.issued_by) is str
            and _well_formed_signature(self.signature)
        )


@dataclass(frozen=True)
class EvictRequest:
    """Reconfiguration request from the system controller: evict ``replica_id``."""

    replica_id: str
    issued_by: str
    signature: Signature | None = None

    @cached_property
    def well_formed(self) -> bool:
        return (
            type(self.replica_id) is str
            and type(self.issued_by) is str
            and _well_formed_signature(self.signature)
        )


@dataclass(frozen=True)
class ReconfigurationReply:
    """JOIN-REPLY / EXIT-REPLY acknowledging a completed reconfiguration."""

    kind: str  # "join" or "evict"
    replica_id: str
    view: int
    membership: tuple[str, ...]
    sender_id: str
