"""What seeding an export chain signs, and the certificates it hands out.

The digests were recorded from a seed that signed every height's
certificate up front; whatever the seed signs and when, a certificate read
at any height must be byte-identical to that one.
"""

import hashlib

import pytest

from repro.bft import BftConfig
from repro.crypto import HmacScheme
from repro.crypto.keys import KeyPair, derive_keys
from repro.export import seed_chain_and_checkpoints
from repro.export.scenario import ExportScenario, ExportScenarioConfig

IDS = ("node-0", "node-1", "node-2", "node-3")
KEYPAIRS, _ = derive_keys(HmacScheme(), IDS)
CONFIG = BftConfig(replica_ids=IDS)

#: sha256 over ``cert.encode()`` for heights 1..50, in height order.
CERTS_OF_50 = "9edf717119406671803fee46d4f196cbd9213710b49de72aea4e47d2ed3d6e98"
#: sha256 of the head certificate's encoding after 2000 blocks.
HEAD_CERT_OF_2000 = "f8f80aef5fd1ce16dc9d99bbf3805f248d5fb1273598cca431a2cd95ed1dc402"
#: Signatures one export round of a 200-block seed makes (replies, deletes).
ROUND_SIGNS = 12


def test_every_certificate_of_a_50_block_seed_is_pinned():
    _, certs = seed_chain_and_checkpoints(CONFIG, KEYPAIRS, n_blocks=50)
    assert sorted(certs) == list(range(1, 51))
    digest = hashlib.sha256()
    for height in range(1, 51):
        digest.update(certs[height].encode())
    assert digest.hexdigest() == CERTS_OF_50


def test_head_certificate_of_a_2000_block_seed_is_pinned():
    _, certs = seed_chain_and_checkpoints(CONFIG, KEYPAIRS, n_blocks=2000)
    assert hashlib.sha256(certs[2000].encode()).hexdigest() == HEAD_CERT_OF_2000


@pytest.fixture
def signs(monkeypatch):
    """Counts every ``KeyPair.sign`` call made while the test runs."""
    made = []
    real_sign = KeyPair.sign
    monkeypatch.setattr(KeyPair, "sign",
                        lambda self, payload: made.append(payload) or real_sign(self, payload))
    return made


def test_seeding_signs_the_requests_and_the_head_certificate_only(signs):
    config = ExportScenarioConfig(n_blocks=200)
    scenario = ExportScenario(config)
    quorum = scenario.bft_config.quorum
    assert len(signs) == 200 * config.requests_per_block + quorum

    # The round reads the head's certificate, signed above; what it signs is
    # its own messages, as many as when every certificate was signed up front.
    signs.clear()
    round_ = scenario.run_export()
    assert round_.complete and round_.blocks_exported == 200
    assert len(signs) == ROUND_SIGNS
    assert list(scenario._certs._signed) == [200]

    signs.clear()
    first = scenario._certs[57]
    assert len(signs) == quorum
    assert scenario._certs.get(57) is first and scenario._certs[57] is first
    assert len(signs) == quorum


def test_membership_length_and_iteration_sign_nothing(signs):
    _, certs = seed_chain_and_checkpoints(CONFIG, KEYPAIRS, n_blocks=5, requests_per_block=1)
    signs.clear()
    assert len(certs) == 5 and list(certs) == [1, 2, 3, 4, 5]
    assert 3 in certs and 0 not in certs and 6 not in certs and "3" not in certs
    assert certs.get(0) is None and certs.get(6) is None
    assert signs == []
    with pytest.raises(KeyError):
        certs[6]
