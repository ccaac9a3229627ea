"""Location-hiding encryption (Figure 15) in isolation.

Runs over the Bloom-filter encryption keys the HSMs hold.  Only
``TestBfePkeVariant`` punctures, on keys of its own, so one unpunctured key
universe serves the rest of the module.
"""

import dataclasses
import random
from collections import namedtuple

import pytest

from repro.core.lhe import (
    RECOVERY_CIPHERTEXT,
    LheCiphertext,
    LheError,
    LocationHidingEncryption,
    lhe_context,
    share_owner,
)
from repro.crypto.bfe import BFE_BODY, BloomFilterEncryption, PuncturedKeyError
from repro.crypto.bloom import BloomParams
from repro.crypto.gcm import AuthenticationError
from repro.crypto.shamir import SHARE
from repro.storage.blockstore import InMemoryBlockStore

N, CLUSTER, T = 12, 4, 2
Keypair = namedtuple("Keypair", "public secret")


@pytest.fixture(scope="module")
def keys():
    rng = random.Random(4)
    params = BloomParams.for_punctures(4, failure_exponent=4)
    return [
        Keypair(*BloomFilterEncryption.keygen(params, InMemoryBlockStore(), rng))
        for _ in range(N)
    ]


@pytest.fixture(scope="module")
def lhe():
    return LocationHidingEncryption(N, CLUSTER, T)


def decrypt_all(lhe, keys, ct, pin):
    cluster = lhe.select(ct.salt, pin)
    publics = [kp.public for kp in keys]
    context = lhe.context_for(ct, publics, pin)
    shares = []
    for position, index in enumerate(cluster):
        shares.append(lhe.decrypt_share(keys[index].secret, position, ct, context))
    return lhe.reconstruct(ct, shares, context), context


class TestRoundtrip:
    def test_encrypt_decrypt(self, lhe, keys):
        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(publics, "1234", b"disk image", username="alice")
        message, _ = decrypt_all(lhe, keys, ct, "1234")
        assert message == b"disk image"

    def test_threshold_subset_suffices(self, lhe, keys):
        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(publics, "1234", b"msg", username="alice")
        cluster = lhe.select(ct.salt, "1234")
        context = lhe.context_for(ct, publics, "1234")
        shares = [None] * CLUSTER
        for position in range(T):
            shares[position] = lhe.decrypt_share(
                keys[cluster[position]].secret, position, ct, context
            )
        assert lhe.reconstruct(ct, shares, context) == b"msg"

    def test_below_threshold_fails(self, lhe, keys):
        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(publics, "1234", b"msg", username="alice")
        context = lhe.context_for(ct, publics, "1234")
        cluster = lhe.select(ct.salt, "1234")
        shares = [None] * CLUSTER
        shares[0] = lhe.decrypt_share(keys[cluster[0]].secret, 0, ct, context)
        with pytest.raises(LheError):
            lhe.reconstruct(ct, shares, context)

    def test_explicit_salt_reuse_pins_cluster(self, lhe, keys):
        publics = [kp.public for kp in keys]
        ct1 = lhe.encrypt(publics, "1234", b"v1", username="alice")
        ct2 = lhe.encrypt(publics, "1234", b"v2", username="alice", salt=ct1.salt)
        assert lhe.select(ct1.salt, "1234") == lhe.select(ct2.salt, "1234")


class TestSelect:
    def test_deterministic(self, lhe):
        assert lhe.select(b"salt", "0000") == lhe.select(b"salt", "0000")

    def test_pin_changes_cluster(self, lhe):
        assert lhe.select(b"salt", "0000") != lhe.select(b"salt", "1111")

    def test_cluster_size(self, lhe):
        assert len(lhe.select(b"salt", "0000")) == CLUSTER

    def test_wrong_pin_selects_wrong_cluster_whp(self, lhe, keys):
        # A fixed salt keeps this deterministic: with replacement at
        # N=12/n=4, a *random* salt sees an exact-set collision among 500
        # wrong PINs ~30% of the time, which is a coin-flip, not a test.
        # This salt's cluster has 4 distinct members and zero collisions.
        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(
            publics, "1234", b"msg", username="alice", salt=b"lhe-select-salt0"
        )
        right = set(lhe.select(ct.salt, "1234"))
        overlaps = sum(
            len(right & set(lhe.select(ct.salt, f"{p:04d}"))) == CLUSTER
            for p in range(0, 500)
            if f"{p:04d}" != "1234"
        )
        assert overlaps == 0


class TestBinding:
    def test_wrong_pin_shares_unusable(self, lhe, keys):
        """Decrypting with the wrong PIN's cluster fails at the PKE layer
        (context binds the cluster) — the HSMs never see the PIN itself."""
        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(publics, "1234", b"msg", username="alice")
        wrong_cluster = lhe.select(ct.salt, "9999")
        wrong_context = lhe_context(
            "alice", ct.salt, lhe._cluster_key_digest([publics[i] for i in wrong_cluster])
        )
        with pytest.raises(AuthenticationError):
            lhe.decrypt_share(keys[wrong_cluster[0]].secret, 0, ct, wrong_context)

    def test_share_is_bound_to_its_username(self, lhe, keys):
        """A share's plaintext is the share alone; its owner is the
        payload's associated data, so it opens for no other username."""
        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(publics, "1234", b"msg", username="alice")
        cluster = lhe.select(ct.salt, "1234")
        context = lhe.context_for(ct, publics, "1234")
        secret, share_ct = keys[cluster[0]].secret, ct.share_ciphertexts[0]
        plaintext = BloomFilterEncryption.decrypt(
            secret, share_ct, context=share_owner("alice", context)
        )
        assert len(plaintext) == 19 and SHARE.decode(plaintext).x == 1
        for wrong in (share_owner("bob", context), context, context + b"alice"):
            with pytest.raises(AuthenticationError):
                BloomFilterEncryption.decrypt(secret, share_ct, context=wrong)
        with pytest.raises(AuthenticationError):
            lhe.decrypt_share(secret, 0, dataclasses.replace(ct, username="bob"), context)

    def test_corrupt_share_recovered_robustly(self, lhe, keys):
        from repro.crypto.shamir import Share

        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(publics, "1234", b"msg", username="alice")
        cluster = lhe.select(ct.salt, "1234")
        context = lhe.context_for(ct, publics, "1234")
        shares = [
            lhe.decrypt_share(keys[idx].secret, pos, ct, context)
            for pos, idx in enumerate(cluster)
        ]
        shares[0] = Share(x=shares[0].x, y=shares[0].y ^ 1)  # malicious HSM
        assert lhe.reconstruct(ct, shares, context) == b"msg"


class TestCiphertext:
    def test_hash_is_content_sensitive(self, lhe, keys):
        publics = [kp.public for kp in keys]
        ct1 = lhe.encrypt(publics, "1234", b"m1", username="alice")
        ct2 = lhe.encrypt(publics, "1234", b"m2", username="alice")
        assert ct1.ciphertext_hash() != ct2.ciphertext_hash()
        assert ct1.ciphertext_hash() == ct1.ciphertext_hash()

    def test_size_accounting(self, lhe, keys):
        publics = [kp.public for kp in keys]
        ct = lhe.encrypt(publics, "1234", b"m" * 100, username="alice")
        assert ct.size_bytes() > 100
        assert ct.cluster_size == CLUSTER

    def test_wrong_key_count_rejected(self, lhe, keys):
        with pytest.raises(ValueError):
            lhe.encrypt([keys[0].public], "1234", b"m")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LocationHidingEncryption(4, 5, 2)
        with pytest.raises(ValueError):
            LocationHidingEncryption(10, 4, 0)


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class TestRepeatedDevice:
    """The cluster is drawn with replacement and every share is under one
    ephemeral, so a device named at two positions is told apart only by
    the position its masks bind."""

    @pytest.fixture(scope="class")
    def repeated(self, lhe, keys):
        publics = [kp.public for kp in keys]
        salt = next(
            salt for salt in (bytes([i]) * 16 for i in range(256))
            if len(set(lhe.select(salt, "1234"))) == CLUSTER - 1
        )
        ct = lhe.encrypt(publics, "1234", b"msg", username="alice", salt=salt)
        cluster = lhe.select(salt, "1234")
        first, second = (
            [position for position, index in enumerate(cluster) if cluster.count(index) == 2]
        )
        return ct, cluster, first, second, lhe.context_for(ct, publics, "1234")

    def test_wrap_xors_differ_at_every_slot(self, repeated):
        """Without the position the two shares' masks would be equal, so
        their wraps' XOR would be ``K_a ⊕ K_b`` at every slot: a repeat an
        observer could see."""
        ct, _, first, second, _ = repeated
        a, b = ct.share_ciphertexts[first], ct.share_ciphertexts[second]
        assert a.tag == b.tag and a.ephemeral == b.ephemeral
        xors = [_xor(x, y) for x, y in zip(a.wrapped_keys, b.wrapped_keys)]
        assert len(xors) == len(a.wrapped_keys) and len(set(xors)) == len(xors)

    def test_each_share_opens_only_at_its_own_position(self, lhe, keys, repeated):
        ct, cluster, first, second, context = repeated
        secret = keys[cluster[first]].secret
        assert cluster[first] == cluster[second]
        for position, other in ((first, second), (second, first)):
            share = ct.share_ciphertexts[position]
            owner = share_owner("alice", context)
            SHARE.decode(BloomFilterEncryption.decrypt(secret, share, owner))
            moved = dataclasses.replace(share, position=other)
            with pytest.raises(AuthenticationError):
                BloomFilterEncryption.decrypt(secret, moved, owner)
        message, _ = decrypt_all(lhe, keys, ct, "1234")
        assert message == b"msg"

    def test_the_ciphertext_encodes_one_point(self, repeated):
        ct = repeated[0]
        ephemeral = ct.share_ciphertexts[0].ephemeral
        assert all(share.ephemeral == ephemeral for share in ct.share_ciphertexts)
        assert [share.position for share in ct.share_ciphertexts] == list(range(CLUSTER))
        encoded = RECOVERY_CIPHERTEXT.encode(ct)
        assert encoded.count(ephemeral.to_bytes()) == 1
        # Every share after the first adds its wraps and payload, no point.
        first = dataclasses.replace(ct, share_ciphertexts=ct.share_ciphertexts[:1])
        others = sum(len(BFE_BODY.encode(share.body())) for share in ct.share_ciphertexts[1:])
        assert len(encoded) == len(RECOVERY_CIPHERTEXT.encode(first)) + others


class TestBfePkeVariant:
    def test_roundtrip_with_puncturable_pke(self):
        """The deployment configuration: the cluster HSMs' shares recover the
        message, and once each has punctured, no share opens again."""
        params = BloomParams.for_punctures(4, failure_exponent=4)
        pairs = [
            BloomFilterEncryption.keygen(params, InMemoryBlockStore(), random.Random(i))
            for i in range(6)
        ]
        publics = [pub for pub, _ in pairs]
        lhe = LocationHidingEncryption(6, 3, 2)
        ct = lhe.encrypt(publics, "4321", b"data", username="bob")
        cluster = lhe.select(ct.salt, "4321")
        context = lhe.context_for(ct, publics, "4321")
        shares = [
            lhe.decrypt_share(pairs[idx][1], pos, ct, context)
            for pos, idx in enumerate(cluster)
        ]
        assert lhe.reconstruct(ct, shares, context) == b"data"
        for pos, idx in enumerate(cluster):
            BloomFilterEncryption.puncture(pairs[idx][1], ct.share_ciphertexts[pos])
        for pos, idx in enumerate(cluster):
            with pytest.raises(PuncturedKeyError):
                lhe.decrypt_share(pairs[idx][1], pos, ct, context)
