"""Key pairs, key stores, and the pluggable signature-scheme interface.

Every ZugChain node and every data center holds a key pair (§III-B, §III-D).
Protocol code signs and verifies through :class:`SignatureScheme`, never
touching the concrete algorithm, so tests and simulations can choose the
real Ed25519 implementation or the fast HMAC stand-in per run.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Iterable

from repro.crypto import ed25519
from repro.util.errors import CryptoError

SIGNATURE_SIZE = 64
PUBLIC_KEY_SIZE = 32


class SignatureScheme:
    """Interface shared by all signature schemes."""

    name = "abstract"

    def derive_keypair(self, seed: bytes) -> "KeyPair":
        raise NotImplementedError

    def sign(self, secret: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError


class Ed25519Scheme(SignatureScheme):
    """RFC 8032 Ed25519 from :mod:`repro.crypto.ed25519`."""

    name = "ed25519"

    def derive_keypair(self, seed: bytes) -> "KeyPair":
        secret = hashlib.sha256(b"ed25519-seed" + seed).digest()
        public = ed25519.secret_to_public(secret)
        return KeyPair(scheme=self, secret=secret, public=public)

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return ed25519.sign(secret, message)

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        return ed25519.verify(public, message, signature)


_SHA256_BLOCK = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))
#: The two SHA-256 states of one HMAC key: inner and outer pad block absorbed.
_KeyedPads = tuple["hashlib._Hash", "hashlib._Hash"]


def _keyed_pads(key: bytes) -> _KeyedPads:
    """HMAC-SHA256's key schedule (RFC 2104): the hash states after the pad blocks.

    ``hmac.new`` derives both per MAC; a key that signs thousands of votes
    pays for them once and :func:`_mac` copies the states instead.
    """
    if len(key) > _SHA256_BLOCK:  # RFC 2104 hashes such a key first; no MAC key here is one
        raise CryptoError(f"MAC key of {len(key)} bytes exceeds the {_SHA256_BLOCK}-byte block")
    block = key.ljust(_SHA256_BLOCK, b"\x00")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def _mac(pads: _KeyedPads, message: bytes) -> bytes:
    """``hmac.new(key, message, sha256).digest()`` for the key behind ``pads``."""
    inner, outer = pads
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


class HmacScheme(SignatureScheme):
    """HMAC-SHA256 "signature" with Ed25519-shaped keys and signatures.

    Not an asymmetric scheme — the "public key" is a key identifier and
    verification recomputes the MAC from a shared derivation.  It exists so
    large deterministic simulations do not pay pure-Python Ed25519 wall-clock
    cost; simulated CPU charges are identical (:mod:`repro.sim.resources`).
    Signature and key sizes match Ed25519 so wire sizes are unchanged.
    """

    name = "hmac"

    def derive_keypair(self, seed: bytes) -> "KeyPair":
        secret = hashlib.sha256(b"hmac-seed" + seed).digest()
        # The "public key" commits to the secret; verify() re-derives the MAC
        # key from the public key, emulating public verifiability in-process.
        public = hashlib.sha256(b"hmac-public" + secret).digest()
        return KeyPair(scheme=self, secret=secret, public=public)

    def __init__(self) -> None:
        # The MAC key is a pure function of the public key, and that of the
        # secret, and HMAC's key schedule a pure function of the MAC key.
        # Only participants' keys reach sign/verify, so both tables are as
        # large as the membership.  What they hold is a *key*, set up: each
        # MAC is still computed from its message, and no verdict is kept.
        self._mac_keys: dict[bytes, _KeyedPads] = {}      # by public key
        self._signing_keys: dict[bytes, _KeyedPads] = {}  # by secret

    def _mac_key(self, public: bytes) -> _KeyedPads:
        pads = self._mac_keys.get(public)
        if pads is None:
            pads = self._mac_keys[public] = _keyed_pads(
                hashlib.sha256(b"hmac-mac-key" + public).digest())
        return pads

    def sign(self, secret: bytes, message: bytes) -> bytes:
        pads = self._signing_keys.get(secret)
        if pads is None:
            public = hashlib.sha256(b"hmac-public" + secret).digest()
            pads = self._signing_keys[secret] = self._mac_key(public)
        mac = _mac(pads, message)
        return mac + mac  # pad to 64 bytes, matching Ed25519 signature size

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        if len(signature) != SIGNATURE_SIZE:
            return False
        mac = _mac(self._mac_key(public), message)
        return hmac.compare_digest(signature, mac + mac)


@dataclass(frozen=True)
class KeyPair:
    """A node's or data center's signing identity."""

    scheme: SignatureScheme
    secret: bytes
    public: bytes

    def sign(self, message: bytes) -> bytes:
        return self.scheme.sign(self.secret, message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.scheme.verify(self.public, message, signature)


@dataclass
class KeyStore:
    """Registry of known public keys, indexed by participant id.

    Models the permissioned setup: participants are authenticated at startup
    (§II-B) and membership changes only during maintenance.
    """

    scheme: SignatureScheme
    _public_keys: dict[str, bytes] = field(default_factory=dict)

    def register(self, participant_id: str, public: bytes) -> None:
        if len(public) != PUBLIC_KEY_SIZE:
            raise CryptoError(f"public key for {participant_id!r} must be {PUBLIC_KEY_SIZE} bytes")
        existing = self._public_keys.get(participant_id)
        if existing is not None and existing != public:
            raise CryptoError(f"conflicting key registration for {participant_id!r}")
        self._public_keys[participant_id] = public

    def public_key(self, participant_id: str) -> bytes:
        try:
            return self._public_keys[participant_id]
        except KeyError:
            raise CryptoError(f"unknown participant {participant_id!r}") from None

    def known(self, participant_id: str) -> bool:
        return participant_id in self._public_keys

    def participants(self) -> list[str]:
        return sorted(self._public_keys)

    def verify(self, participant_id: str, message: bytes, signature: bytes) -> bool:
        """Verify ``signature`` by the registered key of ``participant_id``.

        Unknown participants verify as False rather than raising: a Byzantine
        sender can claim any id, and protocol code treats that as a bad
        signature, not a crash.
        """
        public = self._public_keys.get(participant_id)
        if public is None:
            return False
        return self.scheme.verify(public, message, signature)


def derive_keys(
    scheme: SignatureScheme, participant_ids: Iterable[str]
) -> tuple[dict[str, KeyPair], KeyStore]:
    """The permissioned setup: each participant's key pair, derived from its
    id, and the key store that knows all of their public keys.

    Ids are the only input, so a process that derives the same membership
    (a multiprocess worker, a data center) arrives at the same keys.
    """
    keystore = KeyStore(scheme=scheme)
    keypairs: dict[str, KeyPair] = {}
    for participant_id in participant_ids:
        pair = keypairs[participant_id] = scheme.derive_keypair(participant_id.encode())
        keystore.register(participant_id, pair.public)
    return keypairs, keystore


def default_scheme(fast: bool = True) -> SignatureScheme:
    """Scheme selector used by scenario builders (fast HMAC by default)."""
    return HmacScheme() if fast else Ed25519Scheme()
