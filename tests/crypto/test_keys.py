"""Key pair, key store, and scheme interchangeability tests."""

import hashlib
import hmac

import pytest
from hypothesis import assume, given, strategies as st

from repro.crypto import Ed25519Scheme, HmacScheme, KeyStore, default_scheme
from repro.crypto.keys import _keyed_pads, _mac
from repro.util import CryptoError


@pytest.fixture(params=["hmac", "ed25519"])
def scheme(request):
    return HmacScheme() if request.param == "hmac" else Ed25519Scheme()


def test_derive_is_deterministic(scheme):
    a = scheme.derive_keypair(b"node-0")
    b = scheme.derive_keypair(b"node-0")
    assert a.secret == b.secret
    assert a.public == b.public


def test_sign_verify_roundtrip(scheme):
    pair = scheme.derive_keypair(b"node-0")
    sig = pair.sign(b"preprepare")
    assert len(sig) == 64
    assert pair.verify(b"preprepare", sig)
    assert not pair.verify(b"prepare", sig)


def test_cross_key_rejection(scheme):
    a = scheme.derive_keypair(b"node-0")
    b = scheme.derive_keypair(b"node-1")
    sig = a.sign(b"msg")
    assert not scheme.verify(b.public, b"msg", sig)


def test_keystore_verify(scheme):
    store = KeyStore(scheme=scheme)
    pair = scheme.derive_keypair(b"node-0")
    store.register("node-0", pair.public)
    assert store.verify("node-0", b"msg", pair.sign(b"msg"))
    assert not store.verify("node-0", b"msg", b"\x00" * 64)


def test_keystore_unknown_participant_fails_closed(scheme):
    store = KeyStore(scheme=scheme)
    pair = scheme.derive_keypair(b"node-0")
    assert not store.verify("ghost", b"msg", pair.sign(b"msg"))
    with pytest.raises(CryptoError):
        store.public_key("ghost")


def test_keystore_conflicting_registration_rejected(scheme):
    store = KeyStore(scheme=scheme)
    a = scheme.derive_keypair(b"node-0")
    b = scheme.derive_keypair(b"node-1")
    store.register("node-0", a.public)
    store.register("node-0", a.public)  # idempotent
    with pytest.raises(CryptoError):
        store.register("node-0", b.public)


def test_keystore_rejects_malformed_key(scheme):
    store = KeyStore(scheme=scheme)
    with pytest.raises(CryptoError):
        store.register("node-0", b"short")


def test_default_scheme_selector():
    assert default_scheme(fast=True).name == "hmac"
    assert default_scheme(fast=False).name == "ed25519"


def test_keystore_participants_sorted(scheme):
    store = KeyStore(scheme=scheme)
    for name in ("node-2", "node-0", "node-1"):
        store.register(name, scheme.derive_keypair(name.encode()).public)
    assert store.participants() == ["node-0", "node-1", "node-2"]
    assert store.known("node-1")
    assert not store.known("node-9")


def test_hmac_derives_each_mac_key_once_and_still_checks_every_mac(monkeypatch):
    scheme = HmacScheme()
    pairs = [scheme.derive_keypair(seed) for seed in (b"node-0", b"node-1")]
    derivations = []
    real_sha256 = hashlib.sha256
    monkeypatch.setattr(
        hashlib, "sha256",
        lambda *args: derivations.append(args) or real_sha256(*args),
    )
    for round_no in range(3):
        for pair in pairs:
            message = b"msg-%d" % round_no
            signature = pair.sign(message)
            # The reference: keys re-derived from scratch, as before the memo.
            mac_key = real_sha256(b"hmac-mac-key" + pair.public).digest()
            mac = hmac.new(mac_key, message, real_sha256).digest()
            assert signature == mac + mac
            assert scheme.verify(pair.public, message, signature)
            # A verdict is never remembered: the same triple with one bit
            # flipped fails, and the good one passes again afterwards.
            forged = bytes([signature[0] ^ 1]) + signature[1:]
            assert not scheme.verify(pair.public, message, forged)
            assert not scheme.verify(pair.public, message + b"!", signature)
            assert not scheme.verify(pair.public, message, signature[:-1])
            assert scheme.verify(pair.public, message, signature)
    # Two hashes per key pair (secret -> public, public -> MAC key), not per call.
    derived = [args[0][:11] for args in derivations if args and args[0].startswith(b"hmac-")]
    assert sorted(derived) == [b"hmac-mac-ke"] * len(pairs) + [b"hmac-public"] * len(pairs)


def reference_mac(public: bytes, message: bytes) -> bytes:
    """The MAC as the stdlib computes it, keys re-derived from scratch."""
    mac_key = hashlib.sha256(b"hmac-mac-key" + public).digest()
    return hmac.new(mac_key, message, hashlib.sha256).digest()


@given(seed=st.binary(max_size=64), other_seed=st.binary(max_size=64),
       message=st.binary(max_size=4096))
def test_hmac_scheme_is_the_stdlib_hmac_and_keeps_no_verdict(seed, other_seed, message):
    assume(seed != other_seed)
    scheme = HmacScheme()
    pair = scheme.derive_keypair(seed)
    signature = pair.sign(message)
    assert signature == reference_mac(pair.public, message) * 2
    assert scheme.verify(pair.public, message, signature)
    flipped = bytes([signature[0] ^ 1]) + signature[1:]
    assert not scheme.verify(pair.public, message, flipped)
    assert not scheme.verify(pair.public, message + b"\x00", signature)
    assert not scheme.verify(pair.public, message, signature[:-1])
    other = scheme.derive_keypair(other_seed)
    assert not scheme.verify(other.public, message, signature)
    assert scheme.verify(other.public, message, other.sign(message))
    assert scheme.verify(pair.public, message, signature)


def test_keyed_pads_match_rfc_4231_case_2_and_refuse_what_they_do_not_pad():
    # A 4-byte key: the pad-to-block case, the only one a 32-byte MAC key takes.
    pads = _keyed_pads(b"Jefe")
    expected = bytes.fromhex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    assert _mac(pads, b"what do ya want for nothing?") == expected
    assert _mac(pads, b"what do ya want for nothing?") == expected  # the states were copied, not consumed
    assert _mac(_keyed_pads(b"k" * 64), b"m") == hmac.new(b"k" * 64, b"m", hashlib.sha256).digest()
    with pytest.raises(CryptoError):
        _keyed_pads(b"k" * 65)  # RFC 2104 hashes a longer key first; no MAC key here is one


def test_hmac_verify_still_compares_in_constant_time(monkeypatch):
    scheme = HmacScheme()
    pair = scheme.derive_keypair(b"node-0")
    signature = pair.sign(b"msg")
    compared = []
    real_compare = hmac.compare_digest
    monkeypatch.setattr(hmac, "compare_digest",
                        lambda a, b: compared.append((a, b)) or real_compare(a, b))
    assert scheme.verify(pair.public, b"msg", signature)
    assert not scheme.verify(pair.public, b"other", signature)
    assert compared == [(signature, signature),
                        (signature, reference_mac(pair.public, b"other") * 2)]


def test_hmac_key_tables_stay_as_large_as_the_membership():
    scheme = HmacScheme()
    pairs = [scheme.derive_keypair(b"node-%d" % index) for index in range(4)]
    for count in range(1000):
        pair = pairs[count % len(pairs)]
        message = count.to_bytes(4, "big")
        assert scheme.verify(pair.public, message, pair.sign(message))
    assert len(scheme._signing_keys) == len(scheme._mac_keys) == len(pairs)
    # Signer and verifier of one participant share one keyed state, never consumed.
    for pair in pairs:
        assert scheme._signing_keys[pair.secret] is scheme._mac_keys[pair.public]
