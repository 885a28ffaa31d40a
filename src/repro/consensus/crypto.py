"""Cryptographic primitives for the consensus substrate.

The paper's implementation signs client requests and protocol messages with
RSA-1024 and relies on the assumption that the attacker cannot forge
signatures (Proposition 1a).  For the simulation we provide HMAC-based
signatures with per-key secrets managed by a :class:`KeyRegistry`: they give
the same *interface* guarantees (only the holder of the signing secret can
produce a valid signature; anyone with the registry can verify) without the
cost of real public-key cryptography.  The registry also doubles as the
trusted PKI that an authenticated network provides.

Everything that is hashed or signed is first put in canonical form: the
bytes of ``json.dumps(payload, sort_keys=True, default=repr)``.  The
protocol's own payloads are flat ``{str: int | str}`` dicts, which
:class:`FlatLayout` writes directly, byte for byte as ``json.dumps`` would;
:func:`digest`, :meth:`KeyPair.sign` and :meth:`KeyRegistry.verify` also
accept those canonical ``bytes`` as they are, so a message encoded once can
be hashed and checked by every receiver without serializing it again.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
from dataclasses import dataclass

__all__ = ["Signature", "KeyPair", "KeyRegistry", "FlatLayout", "digest"]

_encode_str = json.encoder.encode_basestring_ascii


class FlatLayout:
    """Canonical encoder of a flat payload with a fixed set of keys.

    ``FlatLayout("view", "sequence").encode(v, s)`` returns the canonical
    bytes of ``{"view": v, "sequence": s}`` from a format string built once,
    with the keys already sorted.  Values other than plain ``str``/``int``/
    ``None`` fall back to ``json.dumps``, so the output is always
    byte-identical to ``json.dumps(payload, sort_keys=True, default=repr)``.
    The type checks are exact: ``bool`` (``true`` in JSON), NumPy integers
    (written through ``repr``) and ``str``/``int`` subclasses fall back.
    """

    __slots__ = ("keys", "_template")

    def __init__(self, *keys: str) -> None:
        self.keys = keys
        order = sorted(range(len(keys)), key=keys.__getitem__)
        fields = (
            _encode_str(keys[i]).replace("{", "{{").replace("}", "}}") + f": {{{i}}}"
            for i in order
        )
        self._template = "{{" + ", ".join(fields) + "}}"

    def encode(self, *values: object) -> bytes:
        texts = []
        for value in values:
            kind = type(value)
            if kind is str:
                texts.append(_encode_str(value))
            elif kind is int:
                texts.append(int.__repr__(value))
            elif value is None:
                texts.append("null")
            else:
                return _canonical(dict(zip(self.keys, values)))
        return self._template.format(*texts).encode("ascii")


def _canonical(payload: object) -> bytes:
    """Deterministic byte serialization of a payload for hashing/signing."""
    return json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")


def digest(payload: object) -> str:
    """SHA-256 digest of a payload, or of canonical ``bytes`` taken as they are."""
    data = payload if type(payload) is bytes else _canonical(payload)
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Signature:
    """A signature: the signer identity plus the authentication tag."""

    signer: str
    tag: str


class KeyPair:
    """Signing key of one principal (replica, client, or controller).

    The secret is keyed into one HMAC object at construction; every tag is
    computed on a ``copy()`` of it, which skips re-deriving the inner and
    outer pads from the raw secret on each call.
    """

    def __init__(self, owner: str, secret: bytes | None = None) -> None:
        self.owner = owner
        secret = secret if secret is not None else secrets.token_bytes(32)
        self._mac = hmac.new(secret, digestmod=hashlib.sha256)

    def _tag(self, payload: object) -> str:
        mac = self._mac.copy()
        mac.update(payload if type(payload) is bytes else _canonical(payload))
        return mac.hexdigest()

    def sign(self, payload: object) -> Signature:
        return Signature(signer=self.owner, tag=self._tag(payload))

    def verify(self, payload: object, signature: Signature) -> bool:
        if signature.signer != self.owner:
            return False
        tag = signature.tag
        # compare_digest raises on non-ASCII or non-str input; a forged
        # signature must be rejected, not crash the receiver.
        if not isinstance(tag, str) or not tag.isascii():
            return False
        return hmac.compare_digest(self._tag(payload), tag)


class KeyRegistry:
    """Registry of key pairs; models the PKI shared by all correct processes.

    A compromised replica can sign messages with *its own* key (Byzantine
    behaviour), but it cannot forge another principal's signature because it
    never learns other principals' secrets — which is exactly assumption (a)
    of Proposition 1.
    """

    def __init__(self) -> None:
        self._keys: dict[str, KeyPair] = {}

    def create(self, owner: str) -> KeyPair:
        if owner in self._keys:
            raise ValueError(f"key for {owner!r} already exists")
        key = KeyPair(owner)
        self._keys[owner] = key
        return key

    def get_or_create(self, owner: str) -> KeyPair:
        if owner not in self._keys:
            self._keys[owner] = KeyPair(owner)
        return self._keys[owner]

    def rotate(self, owner: str) -> KeyPair:
        """Replace ``owner``'s key with a fresh one (revoking the old one).

        Signatures produced under the previous key no longer verify — this
        is how a recovered replica's re-keyed USIG invalidates anything the
        attacker may have signed with the compromised container's secret.
        """
        key = KeyPair(owner)
        self._keys[owner] = key
        return key

    def verify(self, payload: object, signature: Signature) -> bool:
        key = self._keys.get(signature.signer)
        if key is None:
            return False
        return key.verify(payload, signature)

    def known_principals(self) -> list[str]:
        return sorted(self._keys)
