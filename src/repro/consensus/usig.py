"""USIG: the Unique Sequential Identifier Generator trusted component.

MinBFT tolerates ``f = (N - 1) / 2`` Byzantine replicas — instead of the
``(N - 1) / 3`` of PBFT — by equipping every replica with a small trusted
service that assigns *unique, monotonically increasing* counter values to
messages and certifies the assignment.  A compromised replica can refuse to
use its USIG, but it cannot equivocate: it cannot assign the same counter
value to two different messages, and it cannot skip values unnoticed.

In the TOLERANCE architecture the USIG lives in the privileged domain
(provided by the virtualization layer), so it fails only by crashing — the
hybrid failure model.  This module simulates the service: the tamper-proof
property is modelled by keeping the counter and the signing secret inside
the :class:`USIG` object, which the Byzantine-behaviour code in the
emulation never touches directly.

Like a real USIG, the service certifies a message *digest*: callers pass the
digest of the content to certify (protocol messages compute theirs once,
see :mod:`repro.consensus.messages`), and the verifier compares it with the
one the UI was issued for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .crypto import FlatLayout, KeyPair, KeyRegistry, Signature

__all__ = ["UniqueIdentifier", "USIG", "USIGVerifier"]

#: The signed payload of a UI: ``{"replica", "counter", "digest"}``.
_UI_PAYLOAD = FlatLayout("replica", "counter", "digest")


@dataclass(frozen=True)
class UniqueIdentifier:
    """Certificate binding a counter value to a message digest (the "UI")."""

    replica_id: str
    counter: int
    message_digest: str
    signature: Signature

    @cached_property
    def payload_bytes(self) -> bytes:
        """Canonical bytes of the signed payload, encoded once per instance.

        A UI reaches every replica as the same object, so the ``n - 1``
        receivers share one encoding; each still computes its own HMAC over
        it.  Altering a field builds a new instance, which encodes afresh.
        """
        return _UI_PAYLOAD.encode(self.replica_id, self.counter, self.message_digest)


class USIG:
    """Trusted monotonic counter service of one replica."""

    def __init__(
        self, replica_id: str, registry: KeyRegistry, fresh_key: bool = False
    ) -> None:
        self.replica_id = replica_id
        owner = f"usig:{replica_id}"
        # ``fresh_key`` models re-provisioning the trusted component when a
        # replica recovers into a new container: the old signing secret is
        # revoked in the registry, so stale in-flight messages signed by the
        # compromised container stop verifying.
        self._key: KeyPair = (
            registry.rotate(owner) if fresh_key else registry.get_or_create(owner)
        )
        self._counter = 0

    @property
    def counter(self) -> int:
        """Value of the last assigned counter (0 when none assigned yet)."""
        return self._counter

    def create_ui(self, message_digest: str) -> UniqueIdentifier:
        """Assign the next counter value to ``message_digest`` and certify it."""
        self._counter += 1
        payload = _UI_PAYLOAD.encode(self.replica_id, self._counter, message_digest)
        signature = self._key.sign(payload)
        return UniqueIdentifier(
            replica_id=self.replica_id,
            counter=self._counter,
            message_digest=message_digest,
            signature=signature,
        )


class USIGVerifier:
    """Verifier of UIs produced by any replica's USIG.

    Besides signature verification, the verifier tracks the highest counter
    value seen per replica and enforces the FIFO property: a correct receiver
    only accepts counter values in strictly increasing order without gaps,
    which is what prevents equivocation and message reordering.
    """

    def __init__(self, registry: KeyRegistry) -> None:
        self._registry = registry
        self._last_seen: dict[str, int] = {}

    def verify(
        self, message_digest: str, ui: UniqueIdentifier, enforce_order: bool = True
    ) -> bool:
        """Check ``ui``'s signature and that it certifies ``message_digest``.

        The HMAC is computed on every call; only the canonical bytes it runs
        over are shared between receivers of the same UI.  Anything that is
        not a UI carrying a :class:`Signature` (a Byzantine sender's forgery)
        is rejected, never raised on; a signer or tag of the wrong type
        fails the signer comparison or :meth:`KeyPair.verify`.
        """
        if type(ui) is not UniqueIdentifier or type(ui.signature) is not Signature:
            return False
        if ui.signature.signer != f"usig:{ui.replica_id}":
            return False
        if not self._registry.verify(ui.payload_bytes, ui.signature):
            return False
        if message_digest != ui.message_digest:
            return False
        if enforce_order:
            expected = self._last_seen.get(ui.replica_id, 0) + 1
            if ui.counter != expected:
                return False
            self._last_seen[ui.replica_id] = ui.counter
        return True

    def last_counter(self, replica_id: str) -> int:
        return self._last_seen.get(replica_id, 0)

    def reset(self, replica_id: str, counter: int = 0) -> None:
        """Reset the expected counter (used after state transfer / view change)."""
        self._last_seen[replica_id] = counter
