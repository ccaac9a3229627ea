"""Bloom-filter (puncturable) encryption."""

import dataclasses

import pytest

from repro.crypto.bfe import (
    BfePublicKey,
    BloomFilterEncryption as BFE,
    PuncturedKeyError,
)
from repro.crypto.bloom import BloomParams
from repro.crypto.gcm import AuthenticationError
from repro.metering import metered
from repro.storage.blockstore import InMemoryBlockStore

from test_securedel import CountingBlockStore, _union


@pytest.fixture(scope="module")
def small_params():
    return BloomParams.for_punctures(8, failure_exponent=4)


@pytest.fixture
def keypair(small_params):
    return BFE.keygen(small_params, InMemoryBlockStore())


class TestRoundtrip:
    def test_encrypt_decrypt(self, keypair):
        pub, sec = keypair
        (ct,) = BFE.encrypt([pub], [b"payload"], context=b"ctx")
        assert BFE.decrypt(sec, ct, context=b"ctx") == b"payload"

    def test_context_binding(self, keypair):
        pub, sec = keypair
        (ct,) = BFE.encrypt([pub], [b"payload"], context=b"user-a")
        with pytest.raises(Exception):
            BFE.decrypt(sec, ct, context=b"user-b")

    def test_large_payload(self, keypair):
        pub, sec = keypair
        message = bytes(range(256)) * 40
        (ct,) = BFE.encrypt([pub], [message], context=b"c")
        assert BFE.decrypt(sec, ct, context=b"c") == message


class TestPuncturing:
    def test_punctured_ciphertext_is_dead(self, keypair):
        pub, sec = keypair
        (ct,) = BFE.encrypt([pub], [b"secret"], context=b"c")
        BFE.puncture(sec, ct, context=b"c")
        with pytest.raises(PuncturedKeyError):
            BFE.decrypt(sec, ct, context=b"c")

    def test_other_ciphertexts_survive(self, keypair):
        pub, sec = keypair
        (ct1,) = BFE.encrypt([pub], [b"one"], context=b"c")
        (ct2,) = BFE.encrypt([pub], [b"two"], context=b"c")
        BFE.puncture(sec, ct1, context=b"c")
        assert BFE.decrypt(sec, ct2, context=b"c") == b"two"

    def test_puncture_is_idempotent(self, keypair):
        pub, sec = keypair
        (ct,) = BFE.encrypt([pub], [b"x"], context=b"c")
        BFE.puncture(sec, ct, context=b"c")
        BFE.puncture(sec, ct, context=b"c")
        assert sec.punctures_done == 2
        # slots deleted counted once
        assert sec.slots_deleted <= sec.params.num_hashes

    def test_rotation_trigger(self, keypair):
        pub, sec = keypair
        assert not sec.needs_rotation()
        punctures = 0
        while not sec.needs_rotation() and punctures < 50:
            (ct,) = BFE.encrypt([pub], [b"x"], context=b"c")
            BFE.puncture(sec, ct, context=b"c")
            punctures += 1
        assert sec.needs_rotation()
        assert sec.fraction_deleted() >= 0.5

    def test_forward_security_with_full_state(self, small_params):
        """Even an attacker holding every provider-side block *and* the
        post-puncture HSM root key cannot decrypt a punctured ciphertext."""
        store = InMemoryBlockStore()
        pub, sec = BFE.keygen(small_params, store)
        (ct,) = BFE.encrypt([pub], [b"forward secret"], context=b"c")
        BFE.puncture(sec, ct, context=b"c")
        # Attacker clones all current storage + HSM state; still dead:
        with pytest.raises(PuncturedKeyError):
            BFE.decrypt(sec, ct, context=b"c")


class TestDecryptAndPuncture:
    """The HSM's one operation: one authenticated walk over the tag's k
    paths, decrypt, accept, one re-key."""

    @pytest.fixture
    def counted(self, small_params):
        store = CountingBlockStore()
        pub, sec = BFE.keygen(small_params, store)
        store.gets = store.puts = 0
        return pub, sec, store

    def test_decrypts_then_the_ciphertext_is_dead(self, counted):
        pub, sec, _ = counted
        (ct,) = BFE.encrypt([pub], [b"share"], context=b"c")
        assert BFE.decrypt_and_puncture(sec, ct, context=b"c") == b"share"
        assert (sec.punctures_done, sec.slots_deleted) == (1, sec.params.num_hashes)
        with pytest.raises(PuncturedKeyError):
            BFE.decrypt(sec, ct, context=b"c")
        with pytest.raises(PuncturedKeyError):
            BFE.decrypt_and_puncture(sec, ct, context=b"c")
        assert sec.punctures_done == 1

    def test_one_walk_one_rekey(self, counted):
        """gets = |union of the k paths| + the leaf it decrypted from,
        puts = |union of the live paths|, and the root key moves once."""
        pub, sec, store = counted
        (ct,) = BFE.encrypt([pub], [b"share"], context=b"c")
        slots = sec.params.slots_for_tag(ct.tag)
        union = _union(sec.tree, slots)
        assert len(union) < len(slots) * sec.tree.height
        BFE.decrypt_and_puncture(sec, ct, context=b"c")
        assert (store.gets, store.puts) == (len(union) + 1, len(union))

    def test_partly_punctured_tag(self, counted):
        """Slots another puncture already took are skipped by the decrypt
        and by the re-key: the puts are the union of the *live* paths."""
        pub, sec, store = counted
        (ct,) = BFE.encrypt([pub], [b"share"], context=b"c")
        slots = sec.params.slots_for_tag(ct.tag)
        sec.tree.delete(slots[0])
        store.gets = store.puts = 0
        assert BFE.decrypt_and_puncture(sec, ct, context=b"c") == b"share"
        assert store.gets == len(_union(sec.tree, slots)) + 1
        assert store.puts == len(_union(sec.tree, slots[1:]))
        assert sec.slots_deleted == len(slots) - 1

    def test_accept_raising_leaves_everything_untouched(self, counted):
        pub, sec, store = counted
        (ct,) = BFE.encrypt([pub], [b"share"], context=b"c")
        root_before, blocks_before = sec.tree.root_key, dict(store._blocks)
        seen = []

        class Refused(Exception):
            pass

        def accept(plaintext):
            seen.append(plaintext)
            raise Refused()

        with pytest.raises(Refused):
            BFE.decrypt_and_puncture(sec, ct, context=b"c", accept=accept)
        assert seen == [b"share"]
        assert store.puts == 0
        assert sec.tree.root_key == root_before and store._blocks == blocks_before
        assert (sec.punctures_done, sec.slots_deleted) == (0, 0)
        assert BFE.decrypt(sec, ct, context=b"c") == b"share"

    def test_wrong_context_leaves_everything_untouched(self, counted):
        pub, sec, store = counted
        (ct,) = BFE.encrypt([pub], [b"share"], context=b"user-a")
        root_before = sec.tree.root_key
        with pytest.raises(AuthenticationError):
            BFE.decrypt_and_puncture(sec, ct, context=b"user-b")
        assert store.puts == 0 and sec.tree.root_key == root_before
        assert (sec.punctures_done, sec.slots_deleted) == (0, 0)

    def test_puncture_tag_is_one_batched_delete(self, counted):
        pub, sec, store = counted
        (ct,) = BFE.encrypt([pub], [b"x"], context=b"c")
        union = _union(sec.tree, sec.params.slots_for_tag(ct.tag))
        BFE.puncture_tag(sec, ct.tag)
        assert (store.gets, store.puts) == (len(union), len(union))
        assert sec.slots_deleted == sec.params.num_hashes
        BFE.puncture_tag(sec, ct.tag)  # idempotent: walks, writes nothing
        assert (store.gets, store.puts) == (2 * len(union), len(union))
        assert (sec.punctures_done, sec.slots_deleted) == (2, sec.params.num_hashes)

    @pytest.mark.parametrize("already_gone", [0, 1, 2])
    def test_model_is_charged_decrypt_then_puncture(self, small_params, already_gone):
        """The modeled device is the paper's: Decrypt walks to the first
        surviving slot, Puncture hashes the tag again and deletes one slot
        at a time.  The fused call reports exactly what the two calls do."""
        tag = b"t" * 32
        counts = []
        for fused in (False, True):
            pub, sec = BFE.keygen(small_params, InMemoryBlockStore())
            (ct,) = BFE.encrypt([pub], [b"share"], context=b"c", tag=tag)
            for slot in sec.params.slots_for_tag(tag)[:already_gone]:
                sec.tree.delete(slot)
            with metered() as meter:
                if fused:
                    BFE.decrypt_and_puncture(sec, ct, context=b"c")
                else:
                    BFE.decrypt(sec, ct, context=b"c")
                    BFE.puncture(sec, ct, context=b"c")
            counts.append(dict(meter.counts))
        assert counts[0] == counts[1]


class TestPublicKey:
    def test_size_accounting(self, keypair):
        pub, _ = keypair
        assert pub.size_bytes() == 33 * pub.params.num_slots

    def test_commitment_differs_between_keys(self, small_params):
        pub1, _ = BFE.keygen(small_params, InMemoryBlockStore())
        pub2, _ = BFE.keygen(small_params, InMemoryBlockStore())
        assert pub1.commitment != pub2.commitment

    def test_from_slots_rebuilds_the_key(self, keypair):
        """The commitment is a function of the slot keys alone: the same
        slots give an equal key, and changing one slot changes it."""
        pub, _ = keypair
        slots = list(pub.slot_pubkeys)
        twin = BfePublicKey.from_slots(pub.params, slots)
        assert twin == pub and hash(twin) == hash(pub)
        slots[-1] = slots[0]
        assert BfePublicKey.from_slots(pub.params, slots).commitment != pub.commitment


class TestKemWraps:
    """A wrap is ``K`` XORed with its slot's mask and carries no tag: the
    payload's tag is the one check, made at the first live slot only."""

    @staticmethod
    def _ciphertext(small_params):
        pub, sec = BFE.keygen(small_params, InMemoryBlockStore())
        (ct,) = BFE.encrypt([pub], [b"share"], context=b"c")
        return sec, ct, sec.params.slots_for_tag(ct.tag)

    @pytest.mark.parametrize("live", range(4))  # k = 4 at ``small_params``
    def test_every_slot_alone_unmasks_k(self, small_params, live):
        """Each wrap on its own opens the payload, with the slots before it
        deleted (the decrypt goes on to the next live slot) and those after
        it too.  With all k deleted it is ``PuncturedKeyError``
        (``TestPuncturing``)."""
        sec, ct, slots = self._ciphertext(small_params)
        for slot in slots[:live] + slots[live + 1:]:
            sec.tree.delete(slot)
        with metered() as meter:
            assert BFE.decrypt(sec, ct, context=b"c") == b"share"
        assert (meter.counts["ec_mult"], meter.counts["elgamal_dec"]) == (1, 1)

    @pytest.mark.parametrize("position", range(4))
    def test_a_bad_wrap_is_refused_after_one_multiply(self, small_params, position):
        """A flipped wrap, the first live slot's or any other, changes the
        payload key: refused, and no further slot's ECDH is run."""
        sec, ct, _ = self._ciphertext(small_params)
        wraps = list(ct.wrapped_keys)
        wraps[position] = bytes([wraps[position][0] ^ 1]) + wraps[position][1:]
        forged = dataclasses.replace(ct, wrapped_keys=tuple(wraps))
        with metered() as meter, pytest.raises(AuthenticationError):
            BFE.decrypt(sec, forged, context=b"c")
        assert (meter.counts["ec_mult"], meter.counts["elgamal_dec"]) == (1, 1)
        assert BFE.decrypt(sec, ct, context=b"c") == b"share"

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_a_wrap_count_other_than_k_is_refused(self, small_params, change):
        sec, ct, _ = self._ciphertext(small_params)
        wraps = ct.wrapped_keys[:-1] if change == "drop" else ct.wrapped_keys + (bytes(16),)
        with metered() as meter, pytest.raises(AuthenticationError):
            BFE.decrypt(sec, dataclasses.replace(ct, wrapped_keys=wraps), context=b"c")
        assert meter.counts["ec_mult"] == 0
