"""The replicated service: a deterministic key-value state machine.

The paper's testbed replicates a web service offering two deterministic
operations: a *read* that returns the current state and a *write* that
updates it (Section VII-B).  The consensus layer is agnostic to the service
semantics as long as operations are deterministic, which is what
:class:`KeyValueStateMachine` provides.  Replicas apply committed requests
in sequence-number order; equality of state digests across replicas is the
safety check used by the tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .crypto import digest
from .messages import ClientRequest

__all__ = ["OperationResult", "KeyValueStateMachine", "snapshot_digest"]


def _fold_history(history_digest: str, identifier: tuple[str, int]) -> str:
    """The rolling history digest after applying ``identifier``."""
    return hashlib.sha256(
        f"{history_digest}|{identifier[0]}:{identifier[1]}".encode("utf-8")
    ).hexdigest()


def _state_digest(store: dict, history_digest: str, count: int) -> str:
    return digest({
        "store": sorted(store.items(), key=lambda kv: kv[0]),
        "history": history_digest,
        "count": count,
    })


def snapshot_digest(snapshot: dict) -> str | None:
    """The :meth:`~KeyValueStateMachine.state_digest` of a machine restored from ``snapshot``.

    The history digest is recomputed from the snapshot's applied list
    (linear in the history), so a snapshot whose store or history differs
    from the state a digest names cannot pass for it.  ``None`` when the
    snapshot's own ``history_digest`` disagrees with its applied list.
    """
    history = ""
    for identifier in snapshot["applied"]:
        history = _fold_history(history, identifier)
    if snapshot.get("history_digest", history) != history:
        return None
    return _state_digest(snapshot["store"], history, len(snapshot["applied"]))


@dataclass(frozen=True)
class OperationResult:
    """Result of applying one operation to the state machine.

    ``duplicate`` marks an idempotent no-op: the request identifier was
    already applied by *this* state machine incarnation (e.g. re-proposed
    at a new sequence after a view change), so no state changed.  Effectful
    applies report ``duplicate=False`` — the safety audit counts only those
    when checking for duplicate execution across recoveries.
    """

    success: bool
    value: object | None
    sequence: int
    duplicate: bool = False


class KeyValueStateMachine:
    """Deterministic key-value store replicated by MinBFT.

    Operations:
        * ``write(key, value)`` -- store ``value`` under ``key``;
        * ``read(key)`` -- return the value stored under ``key`` (or ``None``).

    The machine tracks the sequence of applied request identifiers so that
    safety (identical request sequences on all healthy replicas) can be
    audited, and exposes snapshot/restore for state transfer.
    """

    def __init__(self) -> None:
        self._store: dict[str, object] = {}
        self._applied: list[tuple[str, int]] = []
        self._last_sequence = 0
        self._applied_set: set[tuple[str, int]] = set()
        # Rolling digest of the applied-request history: updated in O(1)
        # per apply so that state_digest() stays O(|store|) instead of
        # re-serializing the entire history (which made checkpointing
        # quadratic in the number of executed requests).
        self._history_digest = ""

    # -- execution -----------------------------------------------------------------
    def apply(self, request: ClientRequest, sequence: int) -> OperationResult:
        """Apply a committed request at ``sequence``; idempotent per request id."""
        if request.identifier in self._applied_set:
            # Duplicate delivery (e.g. after a view change): return the stored value.
            value = self._store.get(request.key)
            return OperationResult(success=True, value=value, sequence=sequence, duplicate=True)
        if request.operation == "write":
            self._store[request.key] = request.value
            result_value: object | None = request.value
        elif request.operation == "read":
            result_value = self._store.get(request.key)
        else:
            return OperationResult(success=False, value=None, sequence=sequence)
        self._applied.append(request.identifier)
        self._applied_set.add(request.identifier)
        self._extend_history(request.identifier)
        self._last_sequence = sequence
        return OperationResult(success=True, value=result_value, sequence=sequence)

    def _extend_history(self, identifier: tuple[str, int]) -> None:
        self._history_digest = _fold_history(self._history_digest, identifier)

    # -- introspection ----------------------------------------------------------------
    @property
    def last_sequence(self) -> int:
        return self._last_sequence

    def executed_requests(self) -> tuple[tuple[str, int], ...]:
        """Identifiers of applied requests, in execution order (safety audits)."""
        return tuple(self._applied)

    def read(self, key: str) -> object | None:
        return self._store.get(key)

    def state_digest(self) -> str:
        """Digest of the full state; equal digests imply equal states.

        The applied-request history enters through the rolling
        ``_history_digest`` (plus the count), so the cost is O(|store|)
        rather than O(|history|) — checkpointing every ``k`` requests
        stays linear in the run length instead of quadratic.
        """
        return _state_digest(self._store, self._history_digest, len(self._applied))

    # -- state transfer -----------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "store": dict(self._store),
            "applied": list(self._applied),
            "last_sequence": self._last_sequence,
            "history_digest": self._history_digest,
        }

    def restore(self, snapshot: dict) -> None:
        self._store = dict(snapshot["store"])
        self._applied = [tuple(item) for item in snapshot["applied"]]
        self._applied_set = set(self._applied)
        self._last_sequence = int(snapshot["last_sequence"])
        if "history_digest" in snapshot:
            self._history_digest = str(snapshot["history_digest"])
        else:
            # Snapshot from an older producer: recompute from the history.
            self._history_digest = ""
            for identifier in self._applied:
                self._extend_history(identifier)
