"""Every frame and every WAL byte is the parent's.

PR 20 re-expressed both byte-format modules (``core/wire.py``,
``storage/journal.py``) as codec values.  The digests below were captured at
the parent commit (PR 19, hand-written encoders) *before any source edit* by
running exactly this file, and are never edited: a format that moves by one
byte moves a digest.

The four crypto layouts (a commitment opening, a Merkle path, a Shamir
share and a share plaintext) became codec values later; their standalone
bytes below were written by the hand-written encoders they replaced.

The *frames* digests are still those.  The two ``store`` digests and the
record-kinds digest were re-captured once, at PR 23, which moved the HSMs'
key arrays out of the WAL on purpose: a key block is no longer a kind-4
record (plus a column of the snapshot) but one block at
``2**62 + hsm * 2**40 + address`` of the same store.  Every surviving
record kind's payload is byte-identical to the parent's.
"""

import hashlib
import random

import pytest

from repro.chaos.entropy import DeterministicEntropy
from repro.core.client import RecoveryError
from repro.core.lhe import SHARE_PLAINTEXT
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.crypto.commit import OPENING, CommitmentOpening
from repro.crypto.merkle import MERKLE_PROOF, MerkleProof
from repro.crypto.shamir import DEFAULT_MODULUS, SHARE, Share
from repro.log.distributed import CertifiedTransition
from repro.service.channel import HsmWireEndpoint, ProviderWireEndpoint
from repro.storage.blockstore import InMemoryBlockStore
from repro.storage.journal import ProviderJournal, RestoredState


def _absorb(digest, *chunks: bytes) -> None:
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(4, "big") + chunk)


def _absorb_store(digest, store: InMemoryBlockStore) -> None:
    for addr in sorted(store._blocks):
        digest.update(addr.to_bytes(8, "big"))
        _absorb(digest, store._blocks[addr])


class TestFormatsUnchanged:
    # "frames" captured at d8983dc, "store" at PR 23; see the module docstring.
    PARENT_DIGESTS = {
        1: {
            "frames": "ec138a5d07910af82fa09c8f22a36c048a9cdbf8fd62439fd99d407201f339b5",
            "store": "c18adeb49e1a5ffc39ff1f60163f4ccba5158daab0eeab823fcca1f223b44e38",
        },
        2: {
            "frames": "5718053bfaf1ec80ef93fae8e355fc7ef8212c257b9f6c75c1401793b38a4d35",
            "store": "854a9c2a7029e7ac927b54fd176fa73917dce2bb7ef925e5dd829350d812e9a6",
        },
    }
    PARENT_RECORD_KINDS_DIGEST = (
        "810a5db3b3f96ac5deedeea231f6676226f83d440225da78cd8906066524bca7"
    )

    @staticmethod
    def run_seeded_workload(shards: int, monkeypatch):
        """Backup + incremental + recover + wrong-PIN recover on a durable
        deployment, single-threaded over the default wire transport; then a
        snapshot and one more backup.  Returns (sha256 over every provider
        and HSM-leg request and reply frame in order, sha256 over the
        durable store's blocks in address order before the snapshot and
        again after the post-snapshot backup)."""
        frames = hashlib.sha256()
        seen = [0]

        def recording(method):
            def handle(self, request_bytes: bytes) -> bytes:
                reply_bytes = method(self, request_bytes)
                _absorb(frames, request_bytes, reply_bytes)
                seen[0] += 1
                return reply_bytes

            return handle

        monkeypatch.setattr(
            ProviderWireEndpoint, "handle", recording(ProviderWireEndpoint.handle)
        )
        monkeypatch.setattr(
            HsmWireEndpoint,
            "handle_decrypt_share",
            recording(HsmWireEndpoint.handle_decrypt_share),
        )
        store = InMemoryBlockStore()
        blocks = hashlib.sha256()
        with DeterministicEntropy(0xF0F0 + shards):
            params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=16)
            deployment = Deployment.create(
                params, rng=random.Random(20), shards=shards, store=store
            )
            client = deployment.new_client("formats-user")
            client.enable_incremental_backups(pin="2468")
            client.incremental_backup(b"increment")
            client.backup(b"formats payload", pin="2468")
            assert client.recover_incrementals(pin="2468") == [b"increment"]
            assert client.recover(pin="2468") == b"formats payload"
            client.backup(b"second payload", pin="2468")
            with pytest.raises(RecoveryError):
                client.recover(pin="1111")
            assert client.audit_my_recovery_attempts()
            assert seen[0] > 20
            frames_digest = frames.hexdigest()
            _absorb_store(blocks, store)
            deployment.provider.snapshot()
            client.backup(b"post-snapshot payload", pin="2468")
        _absorb_store(blocks, store)
        # The bytes at rest are worth pinning only if they still restore.
        restored = Deployment.restore(params, store, deployment.fleet, shards=shards)
        assert restored.provider.log.digest == deployment.provider.log.digest
        assert restored.provider.backup_count("formats-user") == 4
        return frames_digest, blocks.hexdigest()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_seeded_workload_bytes_unchanged(self, shards, monkeypatch):
        frames, store = self.run_seeded_workload(shards, monkeypatch)
        assert {"frames": frames, "store": store} == self.PARENT_DIGESTS[shards]

    @staticmethod
    def write_every_record_kind() -> InMemoryBlockStore:
        """One record of every journal kind (both commit shapes, an
        uncompacted snapshot) from fixed values."""
        store = InMemoryBlockStore()
        journal = ProviderJournal(store)
        digests = [bytes([byte]) * 32 for byte in (0xAA, 0xBB, 0xCC, 0xDD)]
        entries = [(b"rec|a|0", b"h1"), (b"rec|b|7", b"")]
        journal.record_incremental("alice", b"inc-1")
        journal.record_reply("bob", 3, b"escrowed-reply")
        seq = journal.record_intent(1, 2, digests[0], digests[1], digests[2], entries)
        journal.record_commit(
            1,
            seq,
            CertifiedTransition(
                old_digest=digests[0],
                new_digest=digests[1],
                root=digests[2],
                aggregate=((1, 2), (3 << 200, 4)),
                signer_ids=(1, 3),
                shard=1,
                num_shards=2,
            ),
        )
        seq = journal.record_intent(0, 2, digests[1], digests[2], digests[3], [])
        journal.record_commit(0, seq, None)
        seq = journal.record_intent(0, 2, digests[2], digests[3], digests[0], entries)
        journal.record_rollback(0, seq)
        journal.record_publish(digests[3])
        journal.record_gc(1)
        state = journal.replay_state()
        assert not state.open_intents and state.garbage_collections == 1
        journal.write_snapshot(state, compact=False)
        journal.write_snapshot(RestoredState(), compact=False)
        return store

    def test_every_record_kind_bytes_unchanged(self):
        blocks = hashlib.sha256()
        _absorb_store(blocks, self.write_every_record_kind())
        assert blocks.hexdigest() == self.PARENT_RECORD_KINDS_DIGEST


class TestCryptoLayoutsUnchanged:
    """Each crypto layout's standalone bytes for one fixed value, as the
    hand-written ``to_bytes`` wrote them.  The opening and the Merkle path
    are also inside the pinned frames (the path only at shards=2); a share
    and its plaintext cross the wire only encrypted."""

    SHARE_VALUE = Share(x=7, y=DEFAULT_MODULUS - 1)
    PINNED = {
        "opening": (
            OPENING,
            CommitmentOpening("zoë", (3, 1, 4, 1, 5), b"\xcc" * 32, bytes(range(32))),
            "00047a6fc3ab00050000000300000001000000040000000100000005"
            + "cc" * 32 + bytes(range(32)).hex(),
        ),
        "merkle_proof": (
            MERKLE_PROOF,
            MerkleProof(
                index=5,
                path=((b"\x11" * 32, True), (b"\x22" * 32, False), (b"\x33" * 32, True)),
            ),
            "000000000000000500000003" + "01" + "11" * 32 + "00" + "22" * 32 + "01" + "33" * 32,
        ),
        "share": (
            SHARE,
            SHARE_VALUE,
            "00000007ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632550",
        ),
        "share_plaintext": (
            SHARE_PLAINTEXT,
            ("zoë", SHARE_VALUE),
            "00047a6fc3ab00000007ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632550",
        ),
    }

    @pytest.mark.parametrize("layout", sorted(PINNED))
    def test_standalone_bytes_unchanged(self, layout):
        codec, value, pinned = self.PINNED[layout]
        assert codec.encode(value).hex() == pinned
        assert codec.decode(bytes.fromhex(pinned)) == value
