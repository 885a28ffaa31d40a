"""Reconfigurable MinBFT: the intrusion-tolerant consensus substrate (Appendix G).

MinBFT is a BFT state-machine-replication protocol for the *hybrid* failure
model: every replica has a trusted USIG component that fails only by
crashing, which raises the tolerance threshold to ``f = (N - 1) / 2``
(compared with PBFT's ``(N - 1) / 3``).  The normal-case message pattern is

    client --REQUEST--> all replicas
    leader --PREPARE(UI)--> all replicas
    every replica --COMMIT(UI)--> all replicas
    every replica --REPLY--> client          (client waits for f + 1 matches)

complemented by VIEW-CHANGE / NEW-VIEW (leader replacement), CHECKPOINT
(garbage collection), STATE (state transfer to recovering or joining
replicas), and JOIN / EVICT (reconfiguration triggered by the system
controller), as shown in Figure 17 of the paper.

This module implements the protocol over the simulated authenticated
network of :mod:`repro.consensus.network`.  Byzantine behaviour of
compromised replicas is injected through :class:`ByzantineBehavior`,
mirroring the attacker options of Section VIII-A: after compromising a
replica the attacker either participates normally, stops participating, or
participates with corrupted messages.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .crypto import KeyRegistry, digest
from .messages import (
    Checkpoint,
    ClientRequest,
    Commit,
    EvictRequest,
    JoinRequest,
    NewView,
    Prepare,
    ReconfigurationReply,
    Reply,
    StateTransferRequest,
    StateTransferResponse,
    ViewChange,
)
from .network import NetworkConfig, SimulatedNetwork
from .state_machine import KeyValueStateMachine, snapshot_digest
from .usig import USIG, UniqueIdentifier, USIGVerifier

__all__ = [
    "ByzantineBehavior",
    "MinBFTConfig",
    "MinBFTReplica",
    "MinBFTCluster",
]


class ByzantineBehavior(enum.Enum):
    """Post-compromise behaviour of a replica (Section VIII-A)."""

    NONE = "none"  # not compromised / behaves correctly
    SILENT = "silent"  # stops participating in the protocol
    ARBITRARY = "arbitrary"  # participates with corrupted messages
    PARTICIPATE = "participate"  # compromised but follows the protocol


@dataclass(frozen=True)
class MinBFTConfig:
    """Protocol configuration.

    Attributes:
        checkpoint_interval: Number of executed requests between checkpoints
            (the ``cp`` parameter, Appendix E uses 100).
        view_change_timeout: Ticks a replica waits for an accepted request to
            execute before voting for a view change (``T_vc``).
        k: Number of simultaneous recoveries tolerated (enters the quorum
            size ``f = (N - 1 - k) / 2`` of the reconfigurable variant).
    """

    checkpoint_interval: int = 10
    view_change_timeout: int = 30
    k: int = 1


def _votes_as(message: Commit | Checkpoint | ViewChange, sender: str) -> bool:
    """Whether a UI-certified vote may count under the replica id it claims.

    The claimed ``replica_id`` must be the network's authenticated sender
    and the replica whose USIG certified the message: otherwise one
    Byzantine replica could vote under other replicas' ids (or replay
    their votes as its own) and fill a quorum alone.
    """
    ui = message.ui
    return (
        message.replica_id == sender
        and type(ui) is UniqueIdentifier
        and ui.replica_id == sender
    )


def _snapshot_matches(response: StateTransferResponse) -> bool:
    """Whether a STATE response's snapshot is the state its digest names.

    Checked only on adoption: the f + 1 replicas of a quorum agree on the
    digest, but the snapshot restored is that of the response completing
    the quorum, which a Byzantine replica may have forged.
    """
    snapshot = response.state_snapshot
    return (
        response.executed_requests == tuple(snapshot["applied"])
        and snapshot_digest(snapshot) == response.state_digest
    )


class MinBFTReplica:
    """One MinBFT replica attached to a simulated network."""

    def __init__(
        self,
        replica_id: str,
        membership: list[str],
        registry: KeyRegistry,
        network: SimulatedNetwork,
        config: MinBFTConfig | None = None,
    ) -> None:
        self.process_id = replica_id
        self.replica_id = replica_id
        self.config = config if config is not None else MinBFTConfig()
        self.network = network
        self.registry = registry
        self.membership = sorted(membership)
        self.view = 0
        self.usig = USIG(replica_id, registry)
        self.verifier = USIGVerifier(registry)
        self.state_machine = KeyValueStateMachine()
        self.byzantine = ByzantineBehavior.NONE
        self._rng = np.random.default_rng(abs(hash(replica_id)) % (2 ** 32))

        # Normal-case protocol state.  Commit votes are keyed by
        # ``(sequence, request_digest)``: a corrupted COMMIT that arrives
        # before its PREPARE (jitter reordering skips the digest check) must
        # vote for *its own* digest, never toward the f + 1 quorum of the
        # honest one.
        self.next_sequence = 0  # leader only
        #: Highest sequence number seen in any verified PREPARE, COMMIT or
        #: NEW-VIEW.  A leader never assigns a sequence at or below this
        #: watermark, so a recovered replica that could not complete state
        #: transfer (e.g. too many compromised peers to form the f + 1
        #: response quorum) cannot restart sequencing from zero and execute
        #: a divergent history on its fresh state machine — it proposes
        #: *above* the watermark and stays safely behind until state
        #: transfer succeeds.
        self.known_sequence = 0
        self._last_state_request_tick = 0
        self.prepare_log: dict[int, Prepare] = {}
        #: Request identifier -> number of ``prepare_log`` entries holding
        #: it (after a view change one request can sit at two sequences),
        #: kept in step with the log by ``_accept_prepare`` and
        #: ``_drop_prepare`` so ``_send_prepare`` needs no log scan.
        self.prepared_requests: dict[tuple[str, int], int] = {}
        self.commit_votes: dict[tuple[int, str], set[str]] = defaultdict(set)
        self.executed_sequence = 0
        self.pending_client_requests: dict[tuple[str, int], tuple[ClientRequest, int]] = {}
        self.executed_request_ids: set[tuple[str, int]] = set()
        self.replies_sent = 0
        # Replies to executed requests, kept until the next stable checkpoint
        # so retransmitted client requests can be answered without
        # re-execution (clients retry under churn).
        self.reply_cache: dict[tuple[str, int], Reply] = {}
        #: Append-only observer log of ``(request identifier, sequence)``
        #: pairs in execution order.  Unlike the state machine it survives
        #: recovery (a recovered replica starts a fresh container but the
        #: *observer* still saw the old replies), which is what lets the
        #: safety audit detect duplicate execution across recoveries.
        self.execution_log: list[tuple[tuple[str, int], int]] = []

        # View change state.
        self.view_change_votes: dict[int, set[str]] = defaultdict(set)
        self.in_view_change = False

        # Checkpoint state.
        self.last_checkpoint_sequence = 0
        self.checkpoint_votes: dict[tuple[int, str], set[str]] = defaultdict(set)

        network.register(self)

    # -- roles ---------------------------------------------------------------------
    @property
    def membership(self) -> list[str]:
        """Sorted replica ids of the group; assigning it recomputes the quorum."""
        return self._membership

    @membership.setter
    def membership(self, replica_ids: list[str]) -> None:
        self._membership = replica_ids
        #: Tolerance threshold of the hybrid model, ``f = (N - 1 - k) / 2``.
        self.f = max((len(replica_ids) - 1 - self.config.k) // 2, 0)
        #: Commit quorum: ``f + 1`` matching COMMITs suffice under hybrid failures.
        self.quorum_size = self.f + 1

    @property
    def num_replicas(self) -> int:
        return len(self._membership)

    def leader_of(self, view: int) -> str:
        membership = self._membership
        return membership[view % len(membership)]

    @property
    def is_leader(self) -> bool:
        return self.leader_of(self.view) == self.replica_id

    # -- failure injection -------------------------------------------------------------
    def set_byzantine(self, behavior: ByzantineBehavior) -> None:
        self.byzantine = behavior

    def recover(self) -> None:
        """Local recovery: reset Byzantine behaviour; state transfer refreshes the log."""
        self.byzantine = ByzantineBehavior.NONE

    def _acting_correctly(self) -> bool:
        return self.byzantine in (ByzantineBehavior.NONE, ByzantineBehavior.PARTICIPATE)

    # -- message handling -------------------------------------------------------------
    def on_message(self, sender: str, payload: object, tick: int) -> None:
        if self.byzantine is ByzantineBehavior.SILENT:
            return
        handler = self._HANDLERS.get(type(payload))
        # Drop what is not a MinBFT message, and a message with a field of
        # the wrong type (Byzantine input) before any handler reads it.
        if handler is not None and payload.well_formed:
            handler(self, payload, tick, sender)

    # -- normal case -----------------------------------------------------------------
    def _handle_request(
        self, request: ClientRequest, tick: int, sender: str | None = None
    ) -> None:
        if request.identifier in self.executed_request_ids:
            # Retransmission of an executed request: re-send the cached
            # reply (the original may have been lost to a crash or raced a
            # reconfiguration) instead of executing again.
            reply = self.reply_cache.get(request.identifier)
            if reply is not None and self._acting_correctly():
                self.network.send(self.replica_id, request.client_id, reply)
            return
        if request.signature is not None and not self.registry.verify(
            request.payload_bytes, request.signature
        ):
            return  # Validity: drop requests that were not signed by a client.
        if request.identifier not in self.pending_client_requests:
            self.pending_client_requests[request.identifier] = (request, tick)
        if self.is_leader and self._acting_correctly():
            self._send_prepare(request)

    def _send_prepare(self, request: ClientRequest) -> None:
        if request.identifier in self.prepared_requests:
            return
        self.next_sequence = (
            max(self.next_sequence, self.executed_sequence, self.known_sequence) + 1
        )
        sequence = self.next_sequence
        ui = self.usig.create_ui(
            Prepare.content_digest_of(self.view, sequence, request.payload_digest)
        )
        prepare = Prepare(
            view=self.view,
            sequence=sequence,
            request=request,
            leader_id=self.replica_id,
            ui=ui,
        )
        if self.byzantine is ByzantineBehavior.ARBITRARY:
            # Corrupted leader: send a prepare for a garbled request digest.
            prepare = Prepare(
                view=self.view,
                sequence=sequence,
                request=request,
                leader_id=self.replica_id,
                ui=self.usig.create_ui(digest({"garbage": self._rng.integers(1 << 30)})),
            )
        for destination in self.membership:
            if destination != self.replica_id:
                self.network.send(self.replica_id, destination, prepare)
        self._accept_prepare(prepare)

    def _handle_prepare(self, prepare: Prepare, tick: int, sender: str) -> None:
        if prepare.view != self.view:
            return
        if prepare.leader_id != self.leader_of(prepare.view):
            return
        # Only the leader proposes: the network sender, the claimed leader
        # and the UI's signer must be one replica.
        if sender != prepare.leader_id or getattr(prepare.ui, "replica_id", None) != sender:
            return
        if not self.verifier.verify(prepare.content_digest, prepare.ui, enforce_order=False):
            return
        self.pending_client_requests.setdefault(prepare.request.identifier, (prepare.request, tick))
        self._accept_prepare(prepare)

    def _accept_prepare(self, prepare: Prepare) -> None:
        self.known_sequence = max(self.known_sequence, prepare.sequence)
        if prepare.sequence in self.prepare_log:
            return
        self.prepare_log[prepare.sequence] = prepare
        identifier = prepare.request.identifier
        self.prepared_requests[identifier] = self.prepared_requests.get(identifier, 0) + 1
        if not self._acting_correctly():
            if self.byzantine is ByzantineBehavior.ARBITRARY:
                self._send_commit(prepare, corrupt=True)
            return
        self._send_commit(prepare, corrupt=False)

    def _send_commit(self, prepare: Prepare, corrupt: bool) -> None:
        request_digest = prepare.request.payload_digest
        if corrupt:
            request_digest = digest({"corrupted": self._rng.integers(1 << 30)})
        ui = self.usig.create_ui(
            Commit.content_digest_of(prepare.view, prepare.sequence, request_digest)
        )
        commit = Commit(
            view=prepare.view,
            sequence=prepare.sequence,
            request_digest=request_digest,
            replica_id=self.replica_id,
            prepare_ui=prepare.ui,
            ui=ui,
        )
        for destination in self.membership:
            if destination != self.replica_id:
                self.network.send(self.replica_id, destination, commit)
        self._register_commit(commit)

    def _handle_commit(self, commit: Commit, tick: int, sender: str) -> None:
        del tick
        if commit.view != self.view or not _votes_as(commit, sender):
            return
        if not self.verifier.verify(commit.content_digest, commit.ui, enforce_order=False):
            return
        prepare = self.prepare_log.get(commit.sequence)
        if prepare is not None and commit.request_digest != prepare.request.payload_digest:
            return  # Corrupted commit from a Byzantine replica.
        self._register_commit(commit)

    def _register_commit(self, commit: Commit) -> None:
        self.known_sequence = max(self.known_sequence, commit.sequence)
        self.commit_votes[(commit.sequence, commit.request_digest)].add(commit.replica_id)
        self._try_execute()

    def _try_execute(self) -> None:
        """Execute committed requests in sequence order (Safety)."""
        while True:
            next_sequence = self.executed_sequence + 1
            prepare = self.prepare_log.get(next_sequence)
            if prepare is None:
                return
            # Only COMMITs matching the prepared request's digest count
            # toward the quorum: votes for a corrupted digest accumulate
            # under their own key and never reach f + 1.
            votes = self.commit_votes.get((next_sequence, prepare.request.payload_digest), ())
            if len(votes) < self.quorum_size:
                return
            if not self._acting_correctly():
                return
            result = self.state_machine.apply(prepare.request, next_sequence)
            self.executed_sequence = next_sequence
            self.executed_request_ids.add(prepare.request.identifier)
            if not result.duplicate:
                # Only effectful applies enter the observer log: idempotent
                # re-deliveries (view-change re-proposals) are benign, while
                # a re-execution on a *fresh* state machine after recovery
                # is the duplicate the safety audit must catch.
                self.execution_log.append((prepare.request.identifier, next_sequence))
            self.pending_client_requests.pop(prepare.request.identifier, None)
            reply = Reply(
                view=self.view,
                replica_id=self.replica_id,
                client_id=prepare.request.client_id,
                request_id=prepare.request.request_id,
                result=result.value,
                sequence=next_sequence,
            )
            self.network.send(self.replica_id, prepare.request.client_id, reply)
            self.reply_cache[prepare.request.identifier] = reply
            self.replies_sent += 1
            if (
                self.config.checkpoint_interval > 0
                and self.executed_sequence - self.last_checkpoint_sequence
                >= self.config.checkpoint_interval
            ):
                self._send_checkpoint()

    # -- checkpoints -------------------------------------------------------------------
    def _send_checkpoint(self) -> None:
        state_digest = self.state_machine.state_digest()
        checkpoint = Checkpoint(
            sequence=self.executed_sequence,
            state_digest=state_digest,
            replica_id=self.replica_id,
            ui=self.usig.create_ui(
                Checkpoint.content_digest_of(self.executed_sequence, state_digest)
            ),
        )
        for destination in self.membership:
            if destination != self.replica_id:
                self.network.send(self.replica_id, destination, checkpoint)
        self._register_checkpoint(checkpoint)

    def _handle_checkpoint(self, checkpoint: Checkpoint, tick: int, sender: str) -> None:
        if not _votes_as(checkpoint, sender) or not self.verifier.verify(
            checkpoint.content_digest, checkpoint.ui, enforce_order=False
        ):
            return
        self._register_checkpoint(checkpoint)

    def _register_checkpoint(self, checkpoint: Checkpoint) -> None:
        key = (checkpoint.sequence, checkpoint.state_digest)
        self.checkpoint_votes[key].add(checkpoint.replica_id)
        if len(self.checkpoint_votes[key]) >= self.quorum_size:
            if checkpoint.sequence > self.last_checkpoint_sequence:
                self.last_checkpoint_sequence = checkpoint.sequence
                self._garbage_collect(checkpoint.sequence)

    def _drop_prepare(self, sequence: int) -> None:
        identifier = self.prepare_log.pop(sequence).request.identifier
        remaining = self.prepared_requests[identifier] - 1
        if remaining:
            self.prepared_requests[identifier] = remaining
        else:
            del self.prepared_requests[identifier]

    def _garbage_collect(self, stable_sequence: int) -> None:
        for sequence in [seq for seq in self.prepare_log if seq <= stable_sequence]:
            self._drop_prepare(sequence)
        for key in list(self.commit_votes):
            if key[0] <= stable_sequence:
                del self.commit_votes[key]
        self.reply_cache = {
            identifier: reply
            for identifier, reply in self.reply_cache.items()
            if reply.sequence > stable_sequence
        }

    # -- view changes -------------------------------------------------------------------
    def on_tick(self, tick: int) -> None:
        """Timer processing; the cluster calls this once per network tick."""
        if not self._acting_correctly():
            return
        if self.in_view_change:
            return
        timeout = self.config.view_change_timeout
        if (
            self.known_sequence > self.executed_sequence + self.config.checkpoint_interval
            and tick - self._last_state_request_tick >= timeout
        ):
            # Lagging badly (e.g. recovery while too many peers were
            # compromised to answer the first transfer): retry state
            # transfer until an f + 1 response quorum forms.
            self._last_state_request_tick = tick
            self.request_state_transfer()
        for request, received_at in list(self.pending_client_requests.values()):
            if tick - received_at > timeout:
                self._start_view_change(self.view + 1)
                return

    def _start_view_change(self, new_view: int) -> None:
        self.in_view_change = True
        state_digest = self.state_machine.state_digest()
        message = ViewChange(
            new_view=new_view,
            last_executed=self.executed_sequence,
            replica_id=self.replica_id,
            checkpoint_digest=state_digest,
            ui=self.usig.create_ui(
                ViewChange.content_digest_of(new_view, self.executed_sequence, state_digest)
            ),
        )
        for destination in self.membership:
            if destination != self.replica_id:
                self.network.send(self.replica_id, destination, message)
        self._register_view_change(message)

    def _handle_view_change(self, message: ViewChange, tick: int, sender: str) -> None:
        if not _votes_as(message, sender) or not self.verifier.verify(
            message.content_digest, message.ui, enforce_order=False
        ):
            return
        self._register_view_change(message)

    def _register_view_change(self, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        self.view_change_votes[message.new_view].add(message.replica_id)
        votes = self.view_change_votes[message.new_view]
        if len(votes) >= self.quorum_size:
            # Join the view change if we have not already.
            if not self.in_view_change and self.replica_id not in votes:
                self._start_view_change(message.new_view)
            if self.leader_of(message.new_view) == self.replica_id and self._acting_correctly():
                self._announce_new_view(message.new_view)

    def _announce_new_view(self, view: int) -> None:
        membership = tuple(self.membership)
        new_view = NewView(
            view=view,
            leader_id=self.replica_id,
            membership=membership,
            starting_sequence=self.executed_sequence,
            ui=self.usig.create_ui(
                NewView.content_digest_of(view, membership, self.executed_sequence)
            ),
        )
        for destination in self.membership:
            if destination != self.replica_id:
                self.network.send(self.replica_id, destination, new_view)
        self._apply_new_view(new_view)

    def _handle_new_view(self, message: NewView, tick: int, sender: str) -> None:
        if not self.verifier.verify(message.content_digest, message.ui, enforce_order=False):
            return
        if message.leader_id != sorted(message.membership)[message.view % len(message.membership)]:
            return
        self._apply_new_view(message)

    def _apply_new_view(self, message: NewView) -> None:
        if message.view < self.view:
            return
        self.known_sequence = max(self.known_sequence, message.starting_sequence)
        self.view = message.view
        self.membership = sorted(message.membership)
        self.in_view_change = False
        self.view_change_votes = defaultdict(set)
        # Drop uncommitted protocol state from older views; pending client
        # requests are re-proposed by the new leader.
        for sequence in [seq for seq in self.prepare_log if seq > self.executed_sequence]:
            self._drop_prepare(sequence)
        self.commit_votes = defaultdict(set, {
            key: votes for key, votes in self.commit_votes.items()
            if key[0] <= self.executed_sequence
        })
        self.next_sequence = max(self.executed_sequence, self.known_sequence)
        if self.is_leader and self._acting_correctly():
            for request, _ in list(self.pending_client_requests.values()):
                self._send_prepare(request)

    # -- state transfer --------------------------------------------------------------------
    def request_state_transfer(self) -> None:
        """Ask the other replicas for the current state (Fig. 17d)."""
        request = StateTransferRequest(
            replica_id=self.replica_id, last_executed=self.executed_sequence
        )
        for destination in self.membership:
            if destination != self.replica_id:
                self.network.send(self.replica_id, destination, request)

    def _handle_state_request(
        self, request: StateTransferRequest, tick: int, sender: str
    ) -> None:
        if not self._acting_correctly():
            return
        snapshot = self.state_machine.snapshot()
        response = StateTransferResponse(
            replica_id=self.replica_id,
            last_executed=self.executed_sequence,
            state_snapshot=snapshot,
            state_digest=self.state_machine.state_digest(),
            executed_requests=self.state_machine.executed_requests(),
        )
        self.network.send(self.replica_id, request.replica_id, response)

    def _handle_state_response(
        self, response: StateTransferResponse, tick: int, sender: str
    ) -> None:
        # Adopt a state that is ahead of ours and confirmed by f + 1 replicas.
        # A STATE response carries no UI: the network's sender is its only
        # authentication.
        if response.replica_id != sender:
            return
        key = ("state", response.last_executed, response.state_digest)
        self.checkpoint_votes[key].add(response.replica_id)
        if (
            len(self.checkpoint_votes[key]) >= self.quorum_size
            and response.last_executed > self.executed_sequence
            and response.state_well_formed()
            and _snapshot_matches(response)
        ):
            self.state_machine.restore(response.state_snapshot)
            self.executed_sequence = response.last_executed
            self.executed_request_ids = set(response.executed_requests)
            self.known_sequence = max(self.known_sequence, response.last_executed)
            self.next_sequence = max(self.executed_sequence, self.known_sequence)

    # -- reconfiguration ----------------------------------------------------------------------
    def _handle_join(self, request: JoinRequest, tick: int, sender: str) -> None:
        if request.new_replica_id in self.membership:
            return
        new_membership = tuple(sorted(self.membership + [request.new_replica_id]))
        self._reconfigure(new_membership, kind="join", subject=request.new_replica_id,
                          reply_to=request.issued_by)

    def _handle_evict(self, request: EvictRequest, tick: int, sender: str) -> None:
        if request.replica_id not in self.membership:
            return
        remaining = [r for r in self.membership if r != request.replica_id]
        if not remaining:
            return
        self._reconfigure(tuple(sorted(remaining)), kind="evict", subject=request.replica_id,
                          reply_to=request.issued_by)

    def _reconfigure(
        self, new_membership: tuple[str, ...], kind: str, subject: str, reply_to: str
    ) -> None:
        """Apply a membership change through a view change (Fig. 17e-f).

        The current leader announces the NEW-VIEW; other replicas adopt it
        when they receive the announcement.  When the change removes the
        current leader itself (leader eviction), the *designated successor*
        — the leader of ``view + 1`` under the new membership — is entitled
        to announce instead: without this, an EVICT of the leader handed to
        a follower would silently no-op and the cluster would never produce
        the NEW-VIEW that actually reconfigures the group.
        """
        if not self._acting_correctly():
            return
        new_view = self.view + 1
        if not self.is_leader:
            successor = sorted(new_membership)[new_view % len(new_membership)]
            leader_removed = self.leader_of(self.view) not in new_membership
            if not (leader_removed and successor == self.replica_id):
                # Followers update their local membership lazily via NEW-VIEW.
                return
        announcement = NewView(
            view=new_view,
            leader_id=sorted(new_membership)[new_view % len(new_membership)],
            membership=new_membership,
            starting_sequence=self.executed_sequence,
            ui=self.usig.create_ui(
                NewView.content_digest_of(new_view, new_membership, self.executed_sequence)
            ),
        )
        targets = set(new_membership) | set(self.membership)
        for destination in targets:
            if destination != self.replica_id:
                self.network.send(self.replica_id, destination, announcement)
        self._apply_new_view(announcement)
        reply = ReconfigurationReply(
            kind=kind,
            replica_id=subject,
            view=self.view,
            membership=new_membership,
            sender_id=self.replica_id,
        )
        self.network.send(self.replica_id, reply_to, reply)

    #: Message type -> handler (exact types: one lookup per delivered message).
    _HANDLERS = {
        ClientRequest: _handle_request,
        Prepare: _handle_prepare,
        Commit: _handle_commit,
        ViewChange: _handle_view_change,
        NewView: _handle_new_view,
        Checkpoint: _handle_checkpoint,
        StateTransferRequest: _handle_state_request,
        StateTransferResponse: _handle_state_response,
        JoinRequest: _handle_join,
        EvictRequest: _handle_evict,
    }


class MinBFTCluster:
    """Orchestrates a MinBFT replica group over a simulated network.

    The cluster owns the network, the key registry, and the replicas; it
    provides helpers for driving the simulation (ticks), submitting client
    requests, injecting failures, and reconfiguring membership — the same
    operations the TOLERANCE architecture performs through its controllers.
    """

    def __init__(
        self,
        num_replicas: int = 4,
        config: MinBFTConfig | None = None,
        network_config: NetworkConfig | None = None,
        seed: int | None = None,
    ) -> None:
        if num_replicas < 2:
            raise ValueError("MinBFT requires at least two replicas")
        self.config = config if config is not None else MinBFTConfig()
        self.registry = KeyRegistry()
        self.network = SimulatedNetwork(network_config, seed=seed)
        self._replica_counter = itertools.count(num_replicas)
        replica_ids = [f"replica-{i}" for i in range(num_replicas)]
        self.replicas: dict[str, MinBFTReplica] = {}
        for replica_id in replica_ids:
            self.replicas[replica_id] = MinBFTReplica(
                replica_id, replica_ids, self.registry, self.network, self.config
            )

    # -- membership --------------------------------------------------------------------
    @property
    def membership(self) -> list[str]:
        return sorted(self.replicas)

    @property
    def f(self) -> int:
        any_replica = next(iter(self.replicas.values()))
        return any_replica.f

    def current_leader(self) -> str:
        """Leader according to the most advanced live replica's view."""
        live = [
            replica
            for replica_id, replica in self.replicas.items()
            if not self.network.is_crashed(replica_id)
        ]
        candidates = live if live else list(self.replicas.values())
        reference = max(candidates, key=lambda replica: replica.view)
        return reference.leader_of(reference.view)

    def add_replica(self, issued_by: str = "system-controller") -> str:
        """Add a new replica and reconfigure the group (JOIN, Fig. 17e)."""
        new_id = f"replica-{next(self._replica_counter)}"
        replica = MinBFTReplica(
            new_id, self.membership + [new_id], self.registry, self.network, self.config
        )
        self.replicas[new_id] = replica
        join = JoinRequest(new_replica_id=new_id, issued_by=issued_by)
        self.network.send(issued_by, self.current_leader(), join)
        self.run(ticks=10)
        replica.request_state_transfer()
        self.run(ticks=10)
        return new_id

    def evict_replica(self, replica_id: str, issued_by: str = "system-controller") -> None:
        """Evict a replica and reconfigure the group (EVICT, Fig. 17f).

        Evicting the current leader hands the EVICT to the remaining
        replicas, whose designated successor (the leader of the next view
        under the shrunk membership) announces the NEW-VIEW — see
        :meth:`MinBFTReplica._reconfigure`.
        """
        if replica_id not in self.replicas:
            return
        evict = EvictRequest(replica_id=replica_id, issued_by=issued_by)
        leader = self.current_leader()
        if leader == replica_id:
            # The leader cannot be trusted to evict itself: deliver the
            # EVICT to every remaining replica; the entitlement rule in
            # _reconfigure lets exactly the designated successor announce.
            for other in self.membership:
                if other != replica_id:
                    self.network.send(issued_by, other, evict)
        else:
            self.network.send(issued_by, leader, evict)
        self.run(ticks=10)
        self.network.unregister(replica_id)
        self.replicas.pop(replica_id, None)
        # Cleanup for replicas that missed the NEW-VIEW announcement (e.g.
        # crashed at eviction time); live replicas adopted it via the
        # protocol above.
        for replica in self.replicas.values():
            if replica_id in replica.membership:
                replica.membership = [r for r in replica.membership if r != replica_id]

    # -- failure injection --------------------------------------------------------------
    def compromise(self, replica_id: str, behavior: ByzantineBehavior) -> None:
        self.replicas[replica_id].set_byzantine(behavior)

    def crash(self, replica_id: str) -> None:
        self.network.crash(replica_id)

    def recover_replica(self, replica_id: str) -> None:
        """Recover a replica: new container, re-keyed USIG, state transfer.

        The fresh container starts with *no* protocol state: besides the
        state machine, the prepare log, commit votes and checkpoint state
        are cleared — stale quorums left in place would let the replica
        re-execute old requests and send duplicate replies before state
        transfer completes.  The USIG is re-provisioned with a fresh key,
        revoking anything the compromised container may have signed.
        """
        replica = self.replicas[replica_id]
        replica.recover()
        replica.state_machine = KeyValueStateMachine()
        replica.executed_sequence = 0
        replica.executed_request_ids = set()
        replica.reply_cache = {}
        replica.next_sequence = 0
        replica.prepare_log = {}
        replica.prepared_requests = {}
        replica.commit_votes = defaultdict(set)
        replica.pending_client_requests = {}
        replica.view_change_votes = defaultdict(set)
        replica.in_view_change = False
        replica.last_checkpoint_sequence = 0
        replica.checkpoint_votes = defaultdict(set)
        replica.usig = USIG(replica_id, self.registry, fresh_key=True)
        self.network.restart(replica_id)
        replica.request_state_transfer()
        self.run(ticks=10)

    # -- simulation ---------------------------------------------------------------------
    def run(self, ticks: int = 50) -> None:
        for _ in range(ticks):
            self.network.step()
            for replica in list(self.replicas.values()):
                replica.on_tick(self.network.tick)

    def executed_sequences(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """Executed request identifiers per replica (safety audits)."""
        return {
            replica_id: replica.state_machine.executed_requests()
            for replica_id, replica in self.replicas.items()
        }

    def state_digests(self) -> dict[str, str]:
        return {
            replica_id: replica.state_machine.state_digest()
            for replica_id, replica in self.replicas.items()
        }
