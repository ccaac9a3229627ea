"""The symmetric fast path: byte-sliced AES, nibble-table GHASH, int-XOR CTR.

Three properties hold the layer in place.  It must agree byte for byte
with the byte-wise cipher and bit-serial GF(2^128) multiply it replaced
(kept in ``tests/reference_symmetric.py``) — one block or many, one key or
a key per lane, a message or a batch of them; it must not move what the
ambient meter or the block store sees under seeded entropy — the paper's
cost model prices blocks, not implementations; and it must not buy its
speed with a cache of key material, because forward secrecy by secure
deletion means a deleted key's schedule dies with the call that built it.
"""

import ast
import gc
import hashlib
import inspect
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reference_symmetric as ref
from repro.chaos.entropy import DeterministicEntropy
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.crypto import aes as aes_module
from repro.crypto import gcm as gcm_module
from repro.crypto.aes import MAX_LANES, Aes128, encrypt_blocks
from repro.crypto.gcm import (
    ONE_TIME_NONCE,
    AuthenticationError,
    ae_cost,
    ae_decrypt,
    ae_encrypt,
    open_each,
    seal_each,
)
from repro.metering import OpMeter, metered
from repro.storage import securedel as securedel_module
from repro.storage.blockstore import InMemoryBlockStore
from repro.storage.securedel import SecureDeletionTree

KEYS = st.binary(min_size=16, max_size=16)
BLOCKS = st.binary(min_size=16, max_size=16)
NONCES = st.binary(min_size=12, max_size=12)
# Plaintext lengths around the block edges, and batches around the width cap.
AE_LENGTHS = (0, 1, 15, 16, 17, 32, 33, 100)


def _schedule_words(key: bytes):
    """The fast cipher's key schedule — one lane's round-key rows —
    flattened to FIPS-197's w[0..43]."""
    return [
        (round_key >> shift) & 0xFFFFFFFF
        for round_key in aes_module._schedule(int.from_bytes(key, "big"), 1)
        for shift in (96, 64, 32, 0)
    ]


def _hash_table(key: bytes):
    """The GHASH table a message under ``key`` multiplies by: H out of the
    fused cipher call every message makes."""
    return gcm_module._key_streams([(Aes128(key), 0)], bytes(12))[0][0]


def _seal_one(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One message through the kernel under a chosen nonce, laid out as
    :func:`ae_encrypt` lays it out: ``nonce ‖ ciphertext ‖ tag``."""
    return nonce + gcm_module._seal([(key, plaintext, aad)], nonce)[0]


def _random_messages(rng: random.Random, lengths, aad=None):
    """A ``(key, plaintext, aad)`` for each length; ``aad`` random (up to
    40 bytes) unless given."""
    return [
        (rng.randbytes(16), rng.randbytes(length), rng.randbytes(rng.randrange(40)) if aad is None else aad)
        for length in lengths
    ]


def _sealed(messages):
    """``(key, ciphertext ‖ tag, aad)`` for each message, through one
    :func:`seal_each`."""
    return [(key, blob, aad) for (key, _, aad), blob in zip(messages, seal_each(messages))]


def _reference_blocks(key: bytes, data: bytes) -> bytes:
    cipher = ref.ReferenceAes128(key)
    return b"".join(cipher.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16))


class TestAgainstReference:
    @given(key=KEYS, block=BLOCKS)
    @settings(max_examples=60, deadline=None)
    def test_encrypt_block(self, key, block):
        assert Aes128(key).encrypt_block(block) == ref.ReferenceAes128(key).encrypt_block(block)

    @given(key=KEYS)
    @settings(max_examples=30, deadline=None)
    def test_key_schedule(self, key):
        expected = [
            int.from_bytes(bytes(rk[i : i + 4]), "big")
            for rk in ref.ReferenceAes128(key).round_keys
            for i in range(0, 16, 4)
        ]
        assert _schedule_words(key) == expected

    @given(key=KEYS, aad=st.binary(max_size=70), ciphertext=st.binary(max_size=130))
    @settings(max_examples=40, deadline=None)
    def test_ghash(self, key, aad, ciphertext):
        h = int.from_bytes(ref.ReferenceAes128(key).encrypt_block(bytes(16)), "big")
        assert gcm_module._ghash(_hash_table(key), aad, ciphertext) == ref.ghash(h, aad, ciphertext)

    @given(x=st.integers(0, (1 << 128) - 1), key=KEYS)
    @settings(max_examples=60, deadline=None)
    def test_field_multiply(self, x, key):
        table = _hash_table(key)
        h = int.from_bytes(ref.ReferenceAes128(key).encrypt_block(bytes(16)), "big")
        assert gcm_module._mul_h(table, x) == ref.gf128_mul(x, h)

    @pytest.mark.parametrize("x", [0, 1, 1 << 127, (1 << 128) - 1, 0xE1 << 120, 0xF, 0xF << 124])
    def test_field_multiply_edges(self, x):
        for key in (bytes(16), bytes(range(16)), b"\xff" * 16):
            h = int.from_bytes(ref.ReferenceAes128(key).encrypt_block(bytes(16)), "big")
            assert gcm_module._mul_h(_hash_table(key), x) == ref.gf128_mul(x, h)

    @given(key=KEYS, nonce=NONCES, aad=st.binary(max_size=70), plaintext=st.binary(max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_gcm_encrypt_decrypt(self, key, nonce, aad, plaintext):
        sealed = _seal_one(key, nonce, plaintext, aad)
        assert sealed == nonce + ref.ReferenceAesGcm(key).encrypt(nonce, plaintext, aad)
        assert ae_decrypt(key, sealed, aad) == plaintext
        assert ref.ReferenceAesGcm(key).decrypt(nonce, sealed[12:], aad) == plaintext

    @given(key=KEYS, nonce=NONCES, plaintext=st.binary(min_size=1, max_size=64), bit=st.integers(0, 7))
    @settings(max_examples=20, deadline=None)
    def test_both_reject_the_same_tampering(self, key, nonce, plaintext, bit):
        sealed = bytearray(_seal_one(key, nonce, plaintext)[12:])
        sealed[len(sealed) // 2] ^= 1 << bit
        with pytest.raises(AuthenticationError):
            ae_decrypt(key, nonce + bytes(sealed))
        with pytest.raises(AuthenticationError):
            ref.ReferenceAesGcm(key).decrypt(nonce, bytes(sealed))


class TestByteSlicedKernel:
    """Many lanes in one call, each under its own schedule: every lane must
    come out what the oracle makes of that block alone, on both sides of
    the width cap."""

    @given(
        key=KEYS,
        data=st.integers(1, 2 * MAX_LANES + 1).flatmap(
            lambda n: st.binary(min_size=16 * n, max_size=16 * n)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_key_many_blocks(self, key, data):
        assert encrypt_blocks([(Aes128(key), data)]) == _reference_blocks(key, data)

    @pytest.mark.parametrize("blocks", range(1, 2 * MAX_LANES + 2))
    def test_every_width_to_twice_the_cap(self, blocks):
        rng = random.Random(blocks)
        key, data = rng.randbytes(16), rng.randbytes(16 * blocks)
        assert encrypt_blocks([(Aes128(key), data)]) == _reference_blocks(key, data)

    @given(
        runs=st.lists(st.tuples(KEYS, st.integers(0, MAX_LANES + 3)), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_lanes_with_distinct_keys(self, runs, seed):
        """Runs of any length under distinct keys, straddling calls."""
        rng = random.Random(seed)
        runs = [(key, rng.randbytes(16 * blocks)) for key, blocks in runs]
        expected = b"".join(_reference_blocks(key, data) for key, data in runs)
        assert encrypt_blocks([(Aes128(key), data) for key, data in runs]) == expected

    def test_a_key_per_lane(self):
        rng = random.Random(5)
        lanes = [(rng.randbytes(16), rng.randbytes(16)) for _ in range(2 * MAX_LANES + 1)]
        out = encrypt_blocks([(Aes128(key), block) for key, block in lanes])
        assert out == b"".join(_reference_blocks(key, block) for key, block in lanes)

    def test_calls_are_packed_to_the_cap(self):
        """Runs are packed into calls of exactly ``MAX_LANES`` lanes but the
        last, straddling where they must: no call is wider (the memory
        bound the cap exists for) and none needlessly narrower."""
        counts = (20, 2 * MAX_LANES, 3, 0, MAX_LANES - 1)
        runs = [(Aes128(bytes(16)), bytes(16 * n)) for n in counts]
        widths = [len(blocks) // 16 for _, blocks in aes_module._calls(runs)]
        total = sum(counts)
        assert widths == [MAX_LANES] * (total // MAX_LANES) + [total % MAX_LANES]

    def test_rejects_a_partial_block(self):
        with pytest.raises(ValueError):
            encrypt_blocks([(Aes128(bytes(16)), bytes(17))])

    @given(
        lengths=st.lists(st.sampled_from(AE_LENGTHS), min_size=1, max_size=24),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_seal_each_matches_sequential(self, lengths, seed):
        messages = _random_messages(random.Random(seed), lengths)
        sealed = seal_each(messages)
        assert sealed == [seal_each([message])[0] for message in messages]
        reference = [ref.ReferenceAesGcm(k).encrypt(ONE_TIME_NONCE, pt, aad) for k, pt, aad in messages]
        assert sealed == reference

    @pytest.mark.parametrize("length", AE_LENGTHS)
    def test_seal_each_straddles_the_cap(self, length):
        """Enough messages of one length that groups fill, split and carry
        over the cap; every one opens under its own key."""
        count = 2 * MAX_LANES // ae_cost(length)[0] + 3
        messages = _random_messages(random.Random(length), [length] * count, aad=b"aad")
        for (key, pt, aad), blob in zip(messages, seal_each(messages), strict=True):
            assert blob == ref.ReferenceAesGcm(key).encrypt(ONE_TIME_NONCE, pt, aad)
            assert ae_decrypt(key, ONE_TIME_NONCE + blob, aad) == pt

    def test_seal_each_keeps_input_order(self):
        """The iterable is consumed once, in order, and sealed in that order,
        so keys drawn inside it are drawn in the caller's sequential order
        and land where the caller puts them."""
        drawn = []

        def messages():
            for i in range(3 * MAX_LANES):
                drawn.append(i)
                yield bytes([i]) * 16, bytes(32), b""

        sealed = seal_each(messages())
        assert drawn == list(range(3 * MAX_LANES))
        assert sealed == [seal_each([(bytes([i]) * 16, bytes(32), b"")])[0] for i in drawn]

    @given(
        lengths=st.lists(st.sampled_from(AE_LENGTHS), min_size=1, max_size=24),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_open_each_matches_sequential(self, lengths, seed):
        messages = _random_messages(random.Random(seed), lengths)
        sealed = _sealed(messages)
        opened = list(open_each(sealed))
        assert opened == [pt for _, pt, _ in messages]
        assert opened == [next(open_each([message])) for message in sealed]
        assert opened == [
            ref.ReferenceAesGcm(key).decrypt(ONE_TIME_NONCE, blob, aad) for key, blob, aad in sealed
        ]

    @pytest.mark.parametrize("length", AE_LENGTHS)
    def test_open_each_straddles_the_cap(self, length):
        count = 2 * MAX_LANES // ae_cost(length)[0] + 3
        messages = _random_messages(random.Random(100 + length), [length] * count, aad=b"aad")
        assert list(open_each(_sealed(messages))) == [pt for _, pt, _ in messages]

    def test_open_each_is_lazy_and_in_order(self):
        """The input is consumed a group at a time, and each plaintext is
        yielded before the next group is even drawn: a consumer can bill
        per message between yields, as it would between sequential calls."""
        messages = _random_messages(random.Random(9), [32] * (2 * MAX_LANES), aad=b"")
        sealed = _sealed(messages)
        drawn = []

        def source():
            for i, message in enumerate(sealed):
                drawn.append(i)
                yield message

        opened = open_each(source())
        assert drawn == []
        assert next(opened) == messages[0][1]
        per_group = MAX_LANES // ae_cost(32)[0]
        assert drawn == list(range(per_group + 1))  # one group, and the message that closed it
        assert list(opened) == [pt for _, pt, _ in messages[1:]]


class TestStandardVectors:
    def test_fips197_a1_key_expansion(self):
        """FIPS-197 Appendix A.1: the 44 schedule words of the 2b7e… key."""
        schedule = _schedule_words(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert len(schedule) == 44
        assert schedule[:4] == [0x2B7E1516, 0x28AED2A6, 0xABF71588, 0x09CF4F3C]
        assert schedule[4:8] == [0xA0FAFE17, 0x88542CB1, 0x23A33939, 0x2A6C7605]
        assert schedule[8] == 0xF2C295F2
        assert schedule[20] == 0xD4D1C6F8
        assert schedule[36:40] == [0xAC7766F3, 0x19FADC21, 0x28D12941, 0x575C006E]
        assert schedule[40:] == [0xD014F9A8, 0xC9EE2589, 0xE13F0CC8, 0xB6630CA6]

    # NIST GCM spec test cases 3 and 4 share key, IV and the plaintext prefix.
    KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    IV = bytes.fromhex("cafebabefacedbaddecaf888")
    PLAINTEXT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
    )
    CIPHERTEXT = bytes.fromhex(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    )

    def test_nist_case_3_four_blocks(self):
        tag = bytes.fromhex("4d5c2af327cd64a62cf35abd2ba6fab4")
        assert _seal_one(self.KEY, self.IV, self.PLAINTEXT) == self.IV + self.CIPHERTEXT + tag
        assert ae_decrypt(self.KEY, self.IV + self.CIPHERTEXT + tag) == self.PLAINTEXT

    def test_nist_case_4_partial_block_and_unaligned_aad(self):
        aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
        tag = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")
        sealed = self.IV + self.CIPHERTEXT[:60] + tag
        assert _seal_one(self.KEY, self.IV, self.PLAINTEXT[:60], aad) == sealed
        assert ae_decrypt(self.KEY, sealed, aad) == self.PLAINTEXT[:60]

    def test_reference_passes_the_same_vectors(self):
        """The reference is only worth diffing against if it is right."""
        tag = bytes.fromhex("4d5c2af327cd64a62cf35abd2ba6fab4")
        assert ref.ReferenceAesGcm(self.KEY).encrypt(self.IV, self.PLAINTEXT) == self.CIPHERTEXT + tag
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert ref.ReferenceAes128(key).encrypt_block(block) == bytes.fromhex(
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        )


class TestMeteringInvariance:
    METERED_OPS = ("aes_block", "sha256_block", "flash_read_bytes", "io_bytes")
    # Captured by running this exact workload on the byte-wise AES / bit-serial
    # GHASH tree (PR 11).  The fast path changes wall-clock only: same blocks,
    # same entropy draws in the same order, so same ciphertext bytes at rest.
    # Re-captured at PR 19 (was 4813 / 2090 / 1568): the seeded cluster is
    # (3, 3, 0) and the client no longer sends HSM 3 the second request it
    # could only refuse — 4 slots x h=7 nodes x 4 blocks = 112 AES blocks and
    # 4 x 7 x 16 = 448 flash bytes of authenticated opens that ended in
    # PuncturedKeyError — and opens one reply and the payload once instead
    # of two replies and the payload twice (5 + 4 blocks; t = 1).  Nothing
    # that is written moved: the store digest below is PR 16's, unedited.
    # Re-derived when certificates shrank to a quorum (was sha256_block
    # 2069): 2 epochs x 4 acceptors each verify a 3-of-4 aggregate
    # (q = 0.75), so 8 message hashes go, and verify_extension hashes each
    # of the 16 audited insertions' identifiers once, not twice.
    # Re-derived when certificates became one Schnorr multisignature (was
    # sha256_block 2045): an epoch's ECDSA hashing (4 signatures at 2
    # blocks, 3 x 4 verifications at 1: 20) became 34 blocks (4 nonce
    # commitments, 3 signers x 3 openings, a 3-block challenge for 3
    # signers and 4 acceptors), +28 over the 2 epochs; and the 4 keys'
    # proofs of possession add 24 (2 blocks to derive each nonce and 2 for
    # each challenge, made at keygen and checked by the fleet).
    # Re-derived when the lane began checking each certificate before
    # committing it (was sha256_block 2097): one check an epoch on this
    # thread hashes the transition message (3 blocks) and the challenge
    # (3 blocks), +12 over the 2 epochs.
    # Re-derived when a recovery ciphertext stopped carrying its one-time
    # nonces and fixed fields' lengths (was sha256_block 2109): −5 in
    # ``ciphertext_hash``, SHA-256 over the ciphertext's encoding (16
    # blocks) instead of over its label and 27 length-prefixed parts (21).
    # Re-derived when a recovery ciphertext's shares stopped carrying their
    # series tag, kind byte and point length (was sha256_block 2104): −2 in
    # ``ciphertext_hash``, over an encoding 111 bytes shorter.
    # Re-derived when a share's k wraps became KEM masks (was aes_block
    # 4692, sha256_block 2104): a BFE encryption seals no wraps (−4 x 3
    # blocks) and a decryption opens none (−3), over 6 encryptions (the
    # backup's 3 shares and the nested backup's 3) and 2 decryptions, −78;
    # the payload key's KDF adds 6 sha256_block to each of those 8, and
    # ``ciphertext_hash`` over an encoding 192 bytes shorter hashes 3 fewer.
    # Re-derived when a recovery ciphertext's n shares came to share one
    # ephemeral (was sha256_block 2147): ``ciphertext_hash`` over an
    # encoding 66 bytes shorter (591 against 657 bytes) hashes 10 blocks,
    # not 11.  The slot-mask KDF stays at 2 blocks with its position.
    # Re-derived when a share's plaintext became the 19-byte share, its
    # owner bound as associated data (was aes_block 4614, sha256_block
    # 2146).  aes_block −22: each share payload seals in 4 blocks, not 6
    # (the 63-byte plaintext of this 25-character username; 3 shares) or 7
    # (the nested backup's 29-character one; 3 shares), −15; each of the 2
    # devices serving a share opens its payload in 2 blocks fewer and seals
    # its 19-byte reply in 1 fewer, −6; the client opens the 1 reply it
    # needs in 1 fewer.  sha256_block −2: ``ciphertext_hash`` over an
    # encoding 132 bytes shorter (459 against 591) hashes 8 blocks, not 10.
    # At t = 1 the sharer draws nothing, so the store digest did not move.
    # The client draws from its own seeded stream since key-tree nodes
    # stopped drawing a 12-byte nonce: with one stream for provisioning and
    # client, a keygen's draw count picked the backups' salts, so 12 bytes
    # a node fewer moved the cluster (3, 3, 0) to (2, 3, 0) and these counts
    # with it, though no operation's cost moved.  The client's seed is the
    # first after provisioning's whose cluster, (3, 1, 3), again puts one
    # device in twice among two: the parent's code counts 4592 / 2144 /
    # 1120 under this split too.  ``io_bytes`` is pinned with it: the
    # parent's code moves 74632 bytes, and every one of the 1204 nodes
    # billed here (1064 puts, 46 gets, 94 modeled walk and delete nodes)
    # is 12 bytes shorter without its nonce, −14448.
    PARENT_COUNTS = {"aes_block": 4592, "sha256_block": 2144, "flash_read_bytes": 1120, "io_bytes": 60184}
    # Re-captured at PR 16 (was e87aa60f…): decrypt-and-puncture re-keys the
    # union of a tag's k paths in one pass, so the nodes the paths share are
    # rewritten once instead of k times — fewer puts, fewer fresh-key and
    # nonce draws, and every later draw lands on different bytes.  The counts
    # above are what the *modeled* device does and did not move.
    # Re-captured again (was 669a6229…) when the backup stopped drawing 16
    # nonces (a 12-byte one for each of 3 x 5 one-time AE messages and the
    # LHE payload): the re-key's fresh keys and nonces are later draws of
    # the seeded stream.  A copy of the code that draws and discards those
    # 16 nonces writes the old digest, block for block.
    # Re-captured again (was 087682dd…) when the HSM's ElGamal reply began
    # sealing under the one-time nonce and stopped drawing 12 bytes: a copy
    # that draws and discards them writes the old digest.
    # Re-captured again (was cda7e445…) when an LHE encryption began
    # drawing one scalar for its n shares instead of one each: the re-key's
    # draws come two scalars earlier in each of the two encryptions.  A
    # copy that draws and discards those scalars writes the old digest.
    # Re-captured again (was 5229d692…) when a key-tree node stopped
    # drawing and carrying its nonce and the client got its own stream:
    # the parent's code writes e4a8e8b0… under the split, and a copy of
    # this code that draws and discards the 12 bytes writes 3d5c7363…,
    # each of its 1020 blocks the parent's key, plaintext and address
    # sealed under ``ONE_TIME_NONCE``.  Without the discards every fresh
    # key is a later draw of the stream.
    PARENT_STORE_DIGEST = "4cce333eae8433bb276cd316c8cc55b4d76c0a886cb50548adfce84160710d02"

    @staticmethod
    def run_fixed_workload():
        """One seeded N=4 backup+recovery; returns (op counts, sha256 over
        every HSM's outsourced key-tree blocks in (hsm, address) order).
        Provisioning and the client draw from two seeded streams, so how
        much a keygen draws cannot pick the backups' salts."""
        meter = OpMeter()
        with meter.attached():
            with DeterministicEntropy(0x5AFE71):
                params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=16)
                deployment = Deployment.create(params, rng=random.Random(12))
            with DeterministicEntropy(0x5AFE74):
                client = deployment.new_client("symmetric-invariance-user")
                client.backup(b"fixed symmetric payload", pin="4711")
                recovered = client.recover(pin="4711")
        assert recovered == b"fixed symmetric payload"
        digest = hashlib.sha256()
        for index in sorted(deployment.provider.hsm_stores):
            blocks = deployment.provider.hsm_stores[index]._blocks
            for addr in sorted(blocks):
                digest.update(index.to_bytes(4, "big") + addr.to_bytes(8, "big"))
                digest.update(len(blocks[addr]).to_bytes(4, "big") + blocks[addr])
        counts = {op: meter.counts[op] for op in TestMeteringInvariance.METERED_OPS}
        return counts, digest.hexdigest()

    def test_fixed_workload_unchanged(self):
        counts, store_digest = self.run_fixed_workload()
        assert counts == self.PARENT_COUNTS
        assert store_digest == self.PARENT_STORE_DIGEST

    def test_one_block_counts_one(self):
        with metered() as meter:
            Aes128(bytes(16)).encrypt_block(bytes(16))
        assert meter.counts["aes_block"] == 1

    def test_ae_call_block_count(self):
        """Key set-up is one block (H), the tag mask one, CTR one per 16 bytes."""
        with metered() as meter:
            _seal_one(bytes(16), bytes(12), bytes(33), aad=b"a")
        assert meter.counts["aes_block"] == 1 + 1 + 3

    def test_tree_walk_block_count(self):
        """Opening a tree level in one cipher call must not change how many
        blocks a read or delete costs: the H block is charged per node, as
        one AE call per node charged it."""
        tree = SecureDeletionTree.setup(InMemoryBlockStore(), [bytes([i]) * 32 for i in range(8)])
        with metered() as meter:
            tree.read(5)
        read_blocks = meter.counts["aes_block"]
        with metered() as meter:
            tree.delete(5)
        delete_blocks = meter.counts["aes_block"]
        # height 3: 3 internal nodes of 32 bytes (H + mask + 2 CTR) and, for a
        # read, one 32-byte leaf; a delete decrypts the path twice and
        # re-encrypts it once.
        assert read_blocks == 4 * 4
        assert delete_blocks == 3 * 4 * 3

    def test_refused_open_bills_h_and_mask(self):
        """The fused call computes the keystream before the tag is checked;
        a refused open is still billed what the block-at-a-time open cost:
        the hash subkey and the tag mask."""
        blob = bytearray(ae_encrypt(bytes(16), bytes(100), b"aad"))
        blob[-1] ^= 1
        with metered() as meter:
            with pytest.raises(AuthenticationError):
                ae_decrypt(bytes(16), bytes(blob), b"aad")
        assert meter.counts["aes_block"] == 2

    @pytest.mark.parametrize("length", AE_LENGTHS)
    def test_open_and_seal_bill_ae_cost(self, length):
        with metered() as meter:
            blob = ae_encrypt(bytes(16), bytes(length))
        assert meter.counts["aes_block"] == ae_cost(length)[0]
        with metered() as meter:
            ae_decrypt(bytes(16), blob)
        assert meter.counts["aes_block"] == ae_cost(length)[0]

    def test_seal_each_bills_the_sequential_sum(self):
        rng = random.Random(3)
        lengths = [rng.choice(AE_LENGTHS) for _ in range(3 * MAX_LANES)]
        messages = _random_messages(rng, lengths)
        with metered() as meter:
            seal_each(messages)
        assert meter.counts["aes_block"] == sum(ae_cost(length)[0] for length in lengths)

    def test_open_each_bills_the_sequential_sum(self):
        rng = random.Random(4)
        lengths = [rng.choice(AE_LENGTHS) for _ in range(3 * MAX_LANES)]
        sealed = _sealed(_random_messages(rng, lengths))
        with metered() as meter:
            list(open_each(sealed))
        assert meter.counts["aes_block"] == sum(ae_cost(length)[0] for length in lengths)

    @pytest.mark.parametrize("fault", ["tag", "short"])
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_open_each_refuses_mid_group_as_sequential_calls(self, fault, position):
        """A bad message in the middle of a group: the ones before it are
        yielded and billed in full, it is billed 2 blocks (a bad tag) or
        nothing (too short to carry one), and nothing after it is billed —
        what a loop of one-message opens leaves on the meter."""
        messages = _random_messages(random.Random(position), [32, 0, 17, 32, 100, 16, 1, 33])
        sealed = _sealed(messages)
        key, blob, aad = sealed[position]
        sealed[position] = (key, blob[:8] if fault == "short" else blob[:-1] + bytes([blob[-1] ^ 1]), aad)

        def outcome(opener):
            opened = []
            with metered() as meter:
                with pytest.raises(AuthenticationError):
                    for plaintext in opener(sealed):
                        opened.append(plaintext)
            return opened, dict(meter.counts)

        batched = outcome(open_each)
        assert batched == outcome(lambda items: (next(open_each([item])) for item in items))
        assert batched[0] == [pt for _, pt, _ in messages[:position]]
        owed = sum(ae_cost(len(pt))[0] for _, pt, _ in messages[:position])
        assert batched[1].get("aes_block", 0) == owed + (2 if fault == "tag" else 0)


def _derived_material(key: bytes):
    """What a cache of ``key`` could hold: the bytes, the int, the schedule
    words and 128-bit round keys, the rows a kernel call XORs them on as
    (one key across 1 to ``MAX_LANES`` lanes), the GHASH subkey and its
    table entries."""
    cipher = ref.ReferenceAes128(key)
    h = int.from_bytes(cipher.encrypt_block(bytes(16)), "big")
    material = {key, int.from_bytes(key, "big"), h, h.to_bytes(16, "big")}
    material.update(gcm_module._nibble_multiples(h))
    for index, rk in enumerate(cipher.round_keys):
        if index:
            material.add(bytes(rk))
            material.update(int.from_bytes(bytes(rk[i : i + 4]), "big") for i in range(0, 16, 4))
        material.update(int.from_bytes(bytes(rk) * n, "big") for n in range(1, MAX_LANES + 1))
    material.discard(0)
    return material


def _reachable_values(root, limit=2_000_000):
    """Every int/bytes reachable from ``root`` through containers, object
    ``__dict__``/``__slots__`` and function closures/defaults."""
    seen, stack, found = set(), [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert len(seen) < limit, "module graph unexpectedly large"
        if isinstance(obj, (int, bytes, bytearray)):
            found.add(bytes(obj) if isinstance(obj, bytearray) else obj)
        elif isinstance(obj, (str, float, type(None))) or inspect.ismodule(obj):
            continue
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in (obj.__closure__ or ()))
            stack.extend(obj.__defaults__ or ())
            stack.append(getattr(obj, "__wrapped__", None))
            stack.append(getattr(obj, "__dict__", None))
        elif inspect.isclass(obj):
            if obj.__module__.startswith("repro."):
                stack.append(dict(vars(obj)))
        else:
            if type(obj).__module__.startswith(("repro.", "functools")):
                stack.append(getattr(obj, "__dict__", None))
                stack.extend(getattr(obj, slot, None) for slot in getattr(type(obj), "__slots__", ()))
            for probe in ("cache_info", "__wrapped__", "__func__"):
                stack.append(getattr(obj, probe, None))
    return found


def _path_keys(tree, store, index):
    """Root-to-leaf keys of ``index``, recomputed from the stored nodes."""
    keys = [tree.root_key]
    addrs = tree._path_addrs(index)
    for addr, child_addr in zip(addrs, addrs[1:]):
        (payload,) = open_each([(keys[-1], store.get(addr), securedel_module._addr_aad(addr))])
        keys.append(payload[:16] if child_addr % 2 == 0 else payload[16:])
    return keys


GUARDED_MODULES = (aes_module, gcm_module, securedel_module)


class TestForwardSecrecy:
    def test_deleted_keys_unreachable_from_module_globals(self):
        store = InMemoryBlockStore()
        tree = SecureDeletionTree.setup(store, [bytes([i]) * 32 for i in range(16)])
        index = 9
        tree.read(index)
        old_keys = _path_keys(tree, store, index)
        assert old_keys[0] == tree.root_key and len(old_keys) == tree.height + 1
        old_material = set().union(*(_derived_material(k) for k in old_keys))
        tree.delete(index)
        assert tree.root_key != old_keys[0]
        del tree
        gc.collect()
        for module in GUARDED_MODULES:
            leaked = _reachable_values(vars(module)) & old_material
            assert not leaked, f"{module.__name__} still holds deleted key material"

    def test_batched_delete_leaves_no_key_behind(self):
        """The multi-path walk holds every child key on the union while it
        is open.  Once it has re-keyed, neither the module globals nor the
        spent walk object (kept alive here on purpose) reach an old path key
        or a fresh child key; the tree handle reaches the new root key and
        nothing else."""
        store = InMemoryBlockStore()
        tree = SecureDeletionTree.setup(store, [bytes([i]) * 32 for i in range(16)])
        indices = [3, 4, 9, 10]
        old_keys = {k for index in indices for k in _path_keys(tree, store, index)}
        walk = tree.walk(indices)
        assert walk.read(9) == bytes([9]) * 32
        assert walk.delete() == len(indices)
        new_keys = {k for index in (2, 5, 8, 11) for k in _path_keys(tree, store, index)}
        assert tree.root_key in new_keys and not old_keys & new_keys
        fresh_child_keys = new_keys - {tree.root_key}
        forbidden = set().union(*(_derived_material(k) for k in old_keys | fresh_child_keys))
        gc.collect()
        held_by_walk = {name: value for name, value in vars(walk).items() if name != "_tree"}
        assert not _reachable_values(held_by_walk) & forbidden
        assert not _reachable_values(vars(tree)) & forbidden
        for module in GUARDED_MODULES:
            leaked = _reachable_values(vars(module)) & forbidden
            assert not leaked, f"{module.__name__} still holds deleted key material"

    def test_batched_seals_leave_no_key_behind(self):
        """A ``seal_each`` over fresh keys, then a tree set-up and a batched
        delete (both sealed lane-wise): once the calls return, nothing
        derived from any of those keys — round keys, rows, H — is
        reachable from the modules' globals."""
        rng = random.Random(17)
        keys = [rng.randbytes(16) for _ in range(2 * MAX_LANES)]
        seal_each([(key, rng.randbytes(32), b"aad") for key in keys])
        store = InMemoryBlockStore()
        tree = SecureDeletionTree.setup(store, [bytes([i]) * 32 for i in range(16)])
        indices = [1, 6, 12]
        dead = set(keys).union(*(_path_keys(tree, store, index) for index in indices))
        assert tree.walk(indices).delete() == len(indices)
        del tree
        gc.collect()
        forbidden = set().union(*(_derived_material(k) for k in dead))
        for module in GUARDED_MODULES:
            leaked = _reachable_values(vars(module)) & forbidden
            assert not leaked, f"{module.__name__} still holds deleted key material"

    def test_a_level_batched_walk_refused_mid_level_leaves_no_key_behind(self):
        """A walk down four-wide levels, refused at the third node of the
        fifth level: the keys opened above and beside it — held by the
        walk's frames while the level's call ran — are reachable from no
        module once the error is out."""
        store = InMemoryBlockStore()
        tree = SecureDeletionTree.setup(store, [bytes([i]) * 32 for i in range(64)])
        indices = [5, 20, 40, 60]
        opened = set().union(*(_path_keys(tree, store, index)[:-1] for index in indices))
        bad = sorted(tree._path_addrs(index)[4] for index in indices)[2]
        store._blocks[bad] = bytes(len(store._blocks[bad]))
        with pytest.raises(AuthenticationError):
            tree.walk(indices)
        gc.collect()
        forbidden = set().union(*(_derived_material(k) for k in opened))
        for module in GUARDED_MODULES:
            leaked = _reachable_values(vars(module)) & forbidden
            assert not leaked, f"{module.__name__} still holds opened key material"

    def test_open_each_refused_mid_group_leaves_no_key_behind(self):
        """Six key-carrying messages in one group, the fourth with a bad
        tag: neither a message key's round keys or H table nor an opened
        payload key outlives the refused call in any module."""
        rng = random.Random(29)
        messages = [(rng.randbytes(16), rng.randbytes(32), b"node") for _ in range(6)]
        sealed = _sealed(messages)
        key, blob, aad = sealed[3]
        sealed[3] = (key, blob[:-1] + bytes([blob[-1] ^ 1]), aad)
        opened = open_each(sealed)
        payloads = [next(opened) for _ in range(3)]
        with pytest.raises(AuthenticationError):
            next(opened)
        del opened
        gc.collect()
        dead = {k for k, _, _ in messages}
        dead.update(p[:16] for p in payloads)
        dead.update(p[16:] for p in payloads)
        forbidden = set().union(*(_derived_material(k) for k in dead))
        for module in GUARDED_MODULES:
            leaked = _reachable_values(vars(module)) & forbidden
            assert not leaked, f"{module.__name__} still holds opened key material"

    def test_kernel_constants_fixed_and_small(self):
        """The byte-sliced kernel's masks are built once at import for the
        widest call: a few KB of key-independent ints.  Calls of every
        width from 1 to 64 blocks and batches of 1 to 64 seals add no
        module-level object — no cache by width, by key or by anything."""

        def module_state():
            return {
                module.__name__: (sorted(vars(module)), _reachable_values(vars(module)))
                for module in GUARDED_MODULES
            }

        before = module_state()
        constants = [v for v in _reachable_values(vars(aes_module)) if isinstance(v, int)]
        assert sum(sys.getsizeof(v) for v in constants) < 8 * 1024
        rng = random.Random(23)
        used = []
        for width in range(1, 65):
            used.append(rng.randbytes(16))
            encrypt_blocks([(Aes128(used[-1]), rng.randbytes(16 * width))])
            seal_each(_random_messages(rng, [32] * width))
        gc.collect()
        assert module_state() == before
        assert not set(constants) & set().union(*(_derived_material(k) for k in used[:8]))

    def test_walker_finds_a_planted_cache(self):
        """The guard above is only as good as the walk: plant the kinds of
        cache a later change might add and check each is seen."""
        key = bytes(range(1, 17))
        material = _derived_material(key)
        schedule = Aes128(key)
        planted = {
            "module dict": {"_CACHE": {key: schedule}},
            "closure": {"f": (lambda k=key: k)},
            "object": {"_LAST": schedule},
            "gcm streams": {"_LAST": gcm_module._key_streams([(schedule, 0)], bytes(12))},
        }
        for label, namespace in planted.items():
            assert _reachable_values(namespace) & material, label

    @pytest.mark.parametrize("module", GUARDED_MODULES, ids=lambda m: m.__name__)
    def test_no_memoising_decorators(self, module):
        """``lru_cache``/``cache`` hold strong references to their arguments
        for the life of the process — exactly the lifetime a deleted key
        must not have."""
        tree = ast.parse(inspect.getsource(module))
        banned = {"lru_cache", "cache", "cached_property"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not banned & {alias.name for alias in node.names}, module.__name__
            if isinstance(node, ast.Attribute) and node.attr in banned:
                assert not (isinstance(node.value, ast.Name) and node.value.id == "functools")
            if isinstance(node, ast.Name):
                assert node.id not in banned, module.__name__

    def test_one_cipher_implementation(self):
        """``src/`` holds exactly one AES and one GHASH, with no switch."""
        assert not hasattr(Aes128, "decrypt_block")
        assert not hasattr(aes_module, "_INV_SBOX")
        assert not hasattr(aes_module, "_T0") and not hasattr(aes_module, "_build_round_tables")
        assert not hasattr(gcm_module, "_ghash_key_tables")
        assert list(inspect.signature(Aes128.__init__).parameters) == ["self", "key"]
        # One AE form a key lifetime: seal_each / open_each for a key that
        # seals one message, ae_encrypt / ae_decrypt for the one that seals
        # again; no AE object, no second one-time spelling, no per-node opener.
        assert not hasattr(gcm_module, "AesGcm") and not hasattr(securedel_module, "_open")
        assert not hasattr(gcm_module, "seal_one_time") and not hasattr(gcm_module, "open_one_time")
