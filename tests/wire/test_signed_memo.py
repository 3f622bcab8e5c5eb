"""The signed-bytes memo: a message is hashed once, and checked every time.

``SignedStruct`` keeps what ``signing_payload()`` returned on the instance and
``signed()`` hands it to the signed copy, because the simulator gives every
recipient the same frozen object.  What is kept is the *input* of the
signature check, never its verdict.  These tests pin both halves: the payload
is derived once across ``signed()`` and any number of ``verify()`` calls, and
every one of those calls still reaches the key pair or key store — a tampered
copy, a wrong signer, a short signature and an unknown participant all fail.
Like the size memo (``test_size_algebra.py``) it is invisible to what a
message *is*.
"""

import dataclasses
import pickle

import pytest

from repro.bft.messages import Commit, Prepare
from repro.crypto import KeyStore
from repro.crypto.keys import KeyPair
from repro.wire.codec import _SIGNED_MEMO as SIGNED_MEMO
from repro.wire.codec import UNSIGNED, SignedStruct
from repro.wire.messages import SignedRequest
from repro.wire import registered_types

from tests.wire.golden_bytes import DC_PAIR, FIXTURES, PAIR, SCHEME

SIGNING_TYPES = [cls for _, cls in sorted(registered_types().items())
                 if issubclass(cls, SignedStruct)]
signing_types = pytest.mark.parametrize("cls", SIGNING_TYPES, ids=lambda cls: cls.__name__)


def keystore_for(message, pair=PAIR) -> KeyStore:
    keystore = KeyStore(scheme=SCHEME)
    keystore.register(getattr(message, message.SIGNER), pair.public)
    return keystore


def test_the_payload_is_derived_once_across_signed_and_three_verifies(monkeypatch):
    derivations = []

    @dataclasses.dataclass(frozen=True)
    class CountingCommit(Commit):       # local: keeps it out of other modules' class sweeps
        def signing_payload(self) -> bytes:
            derivations.append(self.replica_id)
            return super().signing_payload()

    signs, verifies = [], []
    real_sign, real_verify = KeyPair.sign, KeyStore.verify
    monkeypatch.setattr(KeyPair, "sign",
                        lambda self, payload: signs.append(payload) or real_sign(self, payload))
    monkeypatch.setattr(KeyStore, "verify",
                        lambda self, *args: verifies.append(args) or real_verify(self, *args))

    vote = CountingCommit(view=0, seq=7, digest=b"\x07" * 32, replica_id="node-1").signed(PAIR)
    recipients = [keystore_for(vote) for _ in range(3)]
    assert all(vote.verify(keystore) for keystore in recipients)

    assert derivations == ["node-1"]
    # ... while the key pair signed once and every recipient's store checked.
    assert len(signs) == 1 and len(verifies) == 3
    assert {args[1] for args in verifies} == set(signs) == {Commit.signing_payload(vote)}


def test_verify_asks_the_keystore_every_time_and_keeps_no_verdict(monkeypatch):
    vote = FIXTURES[Prepare]()
    good, bad = keystore_for(vote), keystore_for(vote, DC_PAIR)
    calls = []
    real_verify = KeyStore.verify
    monkeypatch.setattr(KeyStore, "verify",
                        lambda self, *args: calls.append(self) or real_verify(self, *args))
    # Alternating stores: a cached True (or False) would answer one of them wrongly.
    assert [vote.verify(store) for store in (good, bad, good, bad)] == [True, False, True, False]
    assert calls == [good, bad, good, bad]
    assert set(vars(vote)) - {field.name for field in dataclasses.fields(vote)} <= {
        SIGNED_MEMO, "_encoded_size"}


@signing_types
def test_the_memo_holds_exactly_what_signing_payload_returns(cls):
    message = FIXTURES[cls]()
    cold = dataclasses.replace(message)
    assert SIGNED_MEMO not in vars(cold)
    assert cold.verify(keystore_for(cold, DC_PAIR if "dc" in getattr(cold, cls.SIGNER) else PAIR))
    assert vars(cold)[SIGNED_MEMO] == cold.signing_payload() == message.signing_payload()


@signing_types
def test_a_memoised_message_is_the_same_message(cls):
    fresh = dataclasses.replace(FIXTURES[cls]())            # decoded-like: no memo
    warm = FIXTURES[cls]()
    warm.verify(keystore_for(warm))
    if cls is not SignedRequest:                            # create() signs without a copy
        assert SIGNED_MEMO in vars(warm)
    assert SIGNED_MEMO not in vars(fresh)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert warm.encode() == fresh.encode()
    revived = pickle.loads(pickle.dumps(warm))
    assert revived == fresh and revived.encode() == fresh.encode()
    assert revived.verify(keystore_for(revived)) == fresh.verify(keystore_for(fresh))


@signing_types
def test_replacing_any_signed_field_starts_cold_and_fails_verify(cls):
    signer_pair = DC_PAIR if "dc" in getattr(FIXTURES[cls](), cls.SIGNER) else PAIR
    message = dataclasses.replace(FIXTURES[cls](), signature=UNSIGNED).signed(signer_pair)
    keystore = keystore_for(message, signer_pair)
    assert message.verify(keystore)
    for field in dataclasses.fields(message):
        value = getattr(message, field.name)
        if field.name in ("signature", cls.SIGNER):
            continue
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, int):
            changed = value + 1
        elif isinstance(value, bytes) and value:
            changed = bytes([value[0] ^ 1]) + value[1:]
        elif isinstance(value, tuple) and value:
            changed = value[:-1]
        else:
            continue
        forged = dataclasses.replace(message, **{field.name: changed})
        assert SIGNED_MEMO not in vars(forged)
        if forged.signing_payload() != message.signing_payload():   # the field is signed
            assert not forged.verify(keystore), field.name
    forged_signer = dataclasses.replace(message, **{cls.SIGNER: "node-9"})
    keystore.register("node-9", signer_pair.public)
    assert SIGNED_MEMO not in vars(forged_signer) and not forged_signer.verify(keystore)


def test_a_byzantine_digest_swap_hashes_afresh():
    vote = Commit(view=0, seq=7, digest=b"\x07" * 32, replica_id="node-1").signed(PAIR)
    keystore = keystore_for(vote)
    assert vote.verify(keystore)
    forged = dataclasses.replace(vote, digest=b"\x08" * 32)
    assert SIGNED_MEMO not in vars(forged)
    assert not forged.verify(keystore)
    assert vars(forged)[SIGNED_MEMO] != vars(vote)[SIGNED_MEMO]
    assert vote.verify(keystore)                                    # the original is untouched


def test_wrong_signer_truncated_signature_and_unknown_participant_fail():
    vote = Commit(view=0, seq=7, digest=b"\x07" * 32, replica_id="node-1").signed(PAIR)
    keystore = keystore_for(vote)
    keystore.register("node-2", DC_PAIR.public)
    assert vote.verify(keystore)
    # A warm memo must not rescue any of these.
    assert not dataclasses.replace(vote, replica_id="node-2").verify(keystore)
    assert not dataclasses.replace(vote, signature=vote.signature[:32]).verify(keystore)
    assert not dataclasses.replace(vote, signature=UNSIGNED).verify(keystore)
    assert not vote.verify(KeyStore(scheme=SCHEME))                 # unknown participant
    assert not vote.signed(DC_PAIR).verify(keystore)                # signed by someone else
    assert vote.verify(keystore)
