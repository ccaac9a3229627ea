"""Every frame and every WAL byte is the parent's.

PR 20 re-expressed both byte-format modules (``core/wire.py``,
``storage/journal.py``) as codec values.  The digests below were captured at
the parent commit (PR 19, hand-written encoders) *before any source edit* by
running exactly this file, and are never edited: a format that moves by one
byte moves a digest.

The crypto layouts (a commitment opening, a Shamir share and a share
plaintext) became codec values later; their standalone bytes below were
written by the hand-written encoders they replaced.  The share's moved
once on purpose, and the share plaintext gave way to the share's owner
(see ``TestCryptoLayoutsUnchanged``).

The shards=1 *frames* digest is still that one.  The shards=2 frames
digest moved once, when a sharded log's proof became its lane's plain
proof, and was compared frame by frame against the parent's: of the 34
frames, 11 (3 PROVEN replies, 8 decrypt-share requests) each lost the
93-byte root-anchored envelope — the shard and arity ``u32``s, the 36-byte
lane-digest blob and the 49-byte Merkle-path blob — their proof-kind byte
went 2 → 1 and the enclosing nested length dropped by 93.  Every other
byte is the parent's.  The two ``store`` digests and the
record-kinds digest were re-captured twice, each time for a retired record
kind, and compared block by block against the parent's store:

- when the HSMs' key arrays moved out of the WAL on purpose: a key block
  is no longer a kind-4 record (plus a column of the snapshot) but one
  block at ``2**62 + hsm * 2**40 + address`` of the same store;
- when kind 8 (the batcher's published cross-shard root) was retired: the
  record-kinds writer no longer writes one, and the snapshot lost its
  trailing root blob — 4 bytes (an empty blob's length) in the seeded
  workload, which never published a root.  The only other moved bytes
  are the chain hashes of the records after those and the anchor.

Every surviving record kind's payload is byte-identical to the parent's.

The shards=1 ``store`` digest moved once more, when a certificate came to
carry a quorum of signatures instead of every committee device's, and was
compared block by block against the parent's store.  At N = 4 and
q = 0.75 the quorum is 3: each of the 4 ``EPOCH_COMMIT`` records decodes
to the parent's shard, intent seq and the first 3 of its 4 signer ids and
signatures, and the snapshot to the parent's state with each certified
transition trimmed the same way.  The other moved blocks are chain hashes
and the anchor; every HSM key block and every other payload is the
parent's.  The shards=2 committees have 2 devices and need both, so
nothing there moved.

All three store digests moved once more, when a certificate's signature
lost its scheme tag and a lane its stored epoch count, and each was
compared block by block against the parent's store, each store's records
decoded by the codecs of the code that wrote them:

- ``store`` at shards=1: each of the 4 ``EPOCH_COMMIT`` records is 14
  bytes shorter (239 → 225) — the scheme-name text (a ``u32`` length
  and 10 bytes) is gone, and the aggregate's ``u32`` byte length
  became a ``u32`` count of ``(r, s)`` pairs — and decodes to the
  parent's shard, intent seq, signer ids and aggregate.  The snapshot is
  60 bytes shorter (9760 → 9700): 14 per certified transition, for the
  same two fields, times 4, plus the shard row's 4-byte epoch ``u32``;
  it decodes to the parent's state, whose epoch count equalled the
  lane's chain length.
- ``store`` at shards=2: each of the 5 commits is 14 bytes shorter (171 →
  157); the snapshot is 78 bytes shorter (9670 → 9592): 5 transitions at
  14 bytes and two shard rows at 4.
- the record-kinds store: the signed commit is 14 bytes shorter (171 →
  157), the unsigned one is the parent's 13 bytes.  The first snapshot is
  26 bytes shorter (491 → 465): its signed transition lost 14 bytes, its
  unsigned one 4 (the parent stored an empty signer-id list beside an
  absent aggregate; an absent signature is now one flag byte), and each
  of its two shard rows 4.  The empty snapshot is the parent's 24 bytes.

Every other moved block is a chain hash or the anchor; every HSM key
block and every other payload is the parent's, and both frames digests
did not move.

All three store digests moved once more, when a certificate became one
Schnorr multisignature: a signature is the signer ids plus a 33-byte
compressed ``R`` and a 32-byte ``s`` instead of a ``u32`` count and a
64-byte ``(r, s)`` pair a signer, which is ``64·k − 61`` bytes fewer for
``k`` signers.  The per-kind block sizes of each store were compared with
the parent's, and only these moved:

- ``store`` at shards=1 (quorum 3): each of the 4 ``EPOCH_COMMIT`` records
  225 → 94 bytes; the snapshot 9700 → 9176 (4 transitions at 131).
- ``store`` at shards=2 (quorum 2): each of the 5 commits 157 → 90; the
  snapshot 9592 → 9257 (5 transitions at 67).
- the record-kinds store: its fixed certificate became ``(3·G, 4·2^200)``
  for the two signers; the signed commit 157 → 90 and the first snapshot
  465 → 398.

Every other moved block is a chain hash or the anchor; both frames digests
did not move, since certificates never cross the client wire.

All four workload digests moved once more, when a recovery ciphertext
stopped carrying bytes its reader already knows: the five AE messages of
each share ciphertext (k = 4 wraps and the payload) and the LHE payload
seal under one-time keys with the constant ``gcm.ONE_TIME_NONCE``, so
none carries its 12-byte nonce, and a field whose length the format
fixes lost its ``u32`` length (a share ciphertext's tag and wraps, the
salt, and an inclusion proof's ``idh``, ``other``, ``left`` and
``right``).  A share ciphertext is 80 bytes shorter (349 → 269: 5
nonces, the tag's and 4 wraps' lengths) and a recovery ciphertext at
n = 3 256 bytes shorter (3 × 80, the salt's length, the payload's nonce);
a proof of s steps is 8·s + 8 bytes shorter.  The workload was compared
frame by frame and block by block against the parent's on a copy of this
code that draws and discards the 16 nonces the parent drew (so the
entropy stream, and with it every salt and cluster, is the parent's):
every frame lines up with the parent's, and only these moved:

- each ``upload_backup`` request and ``fetch_backup`` reply: −256 (7 and 3
  of them at shards=1, 14 and 6 at shards=2);
- each decrypt-share request: −80 for its share ciphertext, plus 8·s + 8
  for its proof (−104 at s = 2, −112 at s = 3);
- each ``log_and_prove`` reply: −(8·s + 8) for its proof (−24, −32);
- the one WAL record of the post-snapshot backup: 1215 → 959 (−256) at
  both arities, and the snapshot, which holds the 6 stored backups:
  9209 → 7673 at shards=1 and 9290 → 7754 at shards=2 (−6 × 256).

Every other frame and block is the parent's, chain hashes and the anchor
aside.  The committed digests are of this code, whose entropy stream is
16 nonces a recovery ciphertext shorter, so later salts, clusters and
keys differ from the parent's (shards=1 sends 32 frames, not 37: its
clusters name fewer distinct devices).  ``PARENT_RECORD_KINDS_DIGEST``
did not move: no record of that store holds a ciphertext or a proof.

All four workload digests moved once more, when a recovery ciphertext
stopped sending what its reader already holds: its shares lost the 32-byte
series tag (rebuilt from the username and salt), the one-row kind byte and
the ``u32`` length in front of the ephemeral point (a point's SEC1 prefix
gives its length), 37 bytes a share and 111 a ciphertext at n = 3; an
inclusion proof lost its kind byte; and the HSM's hashed-ElGamal reply,
whose key seals one message, lost its 12-byte nonce.  The workload was
compared frame by frame and block by block against the parent's on a copy
of this code that draws and discards the 12 nonce bytes the parent drew
for each reply (so the entropy stream is the parent's): every frame lines
up with the parent's, and only these moved, at both arities:

- each ``upload_backup`` request and ``fetch_backup`` reply: −111 (7 and 3);
- each decrypt-share request: −9 (its share's point length, the response
  key's length, the proof's kind byte);
- each OK decrypt-share reply and each ``store_reply`` request: −12 (4
  each; the refusals are the parent's bytes);
- each ``log_and_prove`` reply: −1 (3), and its request and the
  ``recovery_attempts_for`` reply kept their lengths but carry other
  commitments, which bind ``ciphertext_hash``;
- each backup WAL record: −111 (954 → 843 for the user's, 990 → 879 for
  a recovery key's; 6 before the snapshot and the post-snapshot one), each
  escrowed-reply record −12 (154 → 142, 4 of them), and the snapshot −714
  (6 × 111 + 4 × 12: 7471 → 6757 at shards=1, 7653 → 6939 at shards=2).
  The intent and commit records kept their lengths, with other
  commitments and certificates.

Every other frame and block is the parent's, chain hashes and the anchor
aside.  The committed digests are of this code, whose entropy stream is 12
bytes a reply shorter (shards=1 sends 33 frames, not 32).

All four workload digests moved once more, when a share ciphertext's k
wraps became 16-byte KEM masks (``K`` XORed with a slot's KDF output, no
GCM tag), 64 bytes a share and 192 a recovery ciphertext at n = 3.  The
entropy stream did not change, so the workload was compared frame by frame
and block by block against the parent's directly: both arities send the
parent's 35 frames in the parent's order, and only these moved:

- each ``upload_backup`` request and ``fetch_backup`` reply: −192 (7 and 3);
- each decrypt-share request: −64 (11 of them);
- the wrong-PIN recovery's replies from devices the share was not
  encrypted to (3 at shards=1, 1 at shards=2): they said "punctured"
  (status 2) after trying every slot and now say "refused" (status 1)
  after the first live one, 8 bytes shorter for the device's message;
- each backup WAL record: −192 (843 → 651 for the user's, 879 → 687 for a
  recovery key's; 6 before the snapshot and the post-snapshot one, 848 →
  656), and the snapshot −1152 (6 × 192: 6757 → 5605 at shards=1, 6939 →
  5787 at shards=2).

Every other frame and block is the parent's, chain hashes and the anchor
aside.

All four workload digests moved once more, when the n shares of a
recovery ciphertext came to share one ephemeral (one ``r``, one 33-byte
point carried once) and each share's slot masks to bind its position:
33·(n − 1) = 66 bytes a recovery ciphertext at n = 3, while a decrypt
request's stand-alone share gained its ``u16`` position.  The code draws
one scalar an encryption, not n, so the workload was compared frame by
frame and block by block against the parent's on a copy of this code that
draws and discards the parent's 2nd and 3rd scalars where the parent drew
them (so the entropy stream, and with it every salt and cluster, is the
parent's): both arities send the parent's 32 frames in the parent's order,
and only these moved:

- each ``upload_backup`` request and ``fetch_backup`` reply: −66 (7 and 3);
- each decrypt-share request: +2 (7 of them, the wrong-PIN recovery's 3
  refusals included; every reply is the parent's length);
- each backup WAL record: −66 (651 → 585 for the user's, 687 → 621 for a
  recovery key's; 6 before the snapshot and the post-snapshot one, 656 →
  590), and the snapshot −396 (6 × 66: 5605 → 5209 at shards=1, 5787 →
  5391 at shards=2).

Every other frame and block is the parent's length, chain hashes, the
anchor and the commitments that bind ``ciphertext_hash`` aside.  The
committed digests are of this code, whose entropy stream is two scalars a
recovery ciphertext shorter (shards=1 sends 34 frames, not 32: its
clusters name more distinct devices).

All four workload digests moved once more, when a share's plaintext
became the 19-byte ``shamir.SHARE`` over GF(2^128 + 51) (``u16`` x,
17-byte y) and its owner the payload's associated data: 19 + |username|
bytes a share shorter, 17 a reply.  The workload's threshold is 1, so the
sharer draws no coefficient and the entropy stream is the parent's (a
copy of this code that draws the parent's 32 bytes a coefficient writes
the same digests); it was compared frame by frame and block by block
against the parent's directly.  Both arities send the parent's frames in
the parent's order, and only these moved:

- each ``upload_backup`` request: −93 for the user's (3 × (19 + 12), 4 of
  them), −105 for a recovery key's (its username is 4 characters longer,
  3 of them); each ``fetch_backup`` reply −93 (3);
- each decrypt-share request: −31 (8 at shards=1, 7 at shards=2, the
  wrong-PIN recovery's 3 refusals included);
- each OK decrypt-share reply and each ``store_reply`` request: −17 (5
  each at shards=1, 4 at shards=2; the refusals are the parent's bytes);
- each backup WAL record: −93 for the user's (585 → 492, 584 → 491,
  583 → 490, the post-snapshot one 590 → 497) and −105 for a recovery
  key's (621 → 516, 3 of them); each escrowed-reply record −17 (142 →
  125); the snapshot −679 at shards=1 (3 × 93 + 3 × 105 + 5 × 17: 5298
  → 4619) and −662 at shards=2 (4 replies: 5391 → 4729).

Every other frame and block is the parent's length, chain hashes, the
anchor and the commitments that bind ``ciphertext_hash`` aside.
``PARENT_RECORD_KINDS_DIGEST`` did not move.

All five digests moved once more, when every blob and text length, every
sequence count, the provider frames' attempt numbers and counts and a
recovery ciphertext's threshold, N and config epoch became minimal LEB128
varints (one byte below 128 where they were ``u32``s: −3 each), and an
inclusion proof's subtree hash (a step's ``other``, ``left``, ``right``)
became ``00`` for the empty subtree's digest and ``01`` and the 32 bytes
otherwise (−31 an empty one, +1 any other).  The entropy stream did not
change.  The workload was compared frame by frame and record by record
against the parent's on a copy of this code that keeps the parent's
spelling where a spelling feeds a hash or a tag (the share owner, which
is associated data, and ``ciphertext_hash``), so every drawn and derived
value is the parent's: both arities send the parent's frames and write the
parent's records in the parent's order, every one decodes (each with its
own code's codecs) to a value equal to the parent's, and so every moved
byte is a length, a count, a header integer or a subtree flag.  By kind,
at shards=1 (shards=2 alike unless given):

- each ``upload_backup`` request −41 (7): the username's length, the
  nested ciphertext's (2 bytes now, past 127) and the ciphertext's 36 —
  the username's length, the three header integers, the share count, each
  of 3 shares' wrap count and payload length, the payload's length;
  each ``fetch_backup`` reply −38 (3);
- each request naming only a username −3 (5), and ``fetch_backup``'s
  (username, ``i32``) −3 (3); each (username, attempt) request −6 (3);
  ``upload_incremental`` −6; ``log_and_prove`` −9 (3); ``store_reply`` −9
  (5, 4 at shards=2); each COUNT reply −3 (10); the incrementals reply
  −6 and the entries reply −21 (its count and 3 entries' 6 lengths);
- a proof of s steps with e empty subtrees among its s + 2 changes by
  −1 − 2·s − 32·e (count −3, each value's length −3, −31 or +1 a
  subtree): each ``log_and_prove`` reply −74, −106 or −108 (s = 2, e = 2;
  s = 2, e = 3; s = 3, e = 3), with its identifier's and the nested
  proof's lengths (at shards=2 −138 twice, s = 2, e = 4, and −106); each
  acknowledgement is the parent's 2 bytes; each decrypt-share request −23 (its username,
  identifier, commitment, opening, context and nested share lengths, and
  the share's wrap count and payload length) plus its proof's: −94, −126,
  −128 (s = 2, e = 2; s = 2, e = 3; s = 3, e = 3), at shards=2 −158 (s =
  2, e = 4) and −126; each decrypt-share reply −3 (its ElGamal blob's or
  its message's length);
- each backup WAL record −41 (7), the incremental and each reply record
  −6 (their username's and blob's lengths; a reply's attempt stays a
  ``u32`` in the journal), each intent record −18 or −36 (its 3 digests'
  lengths, the entry count, 2 lengths an entry: 1 or 4 entries; 2 at
  shards=2, −24), each commit −3 (its signer count), and the snapshot
  −396 (4586 → 4190; at shards=2 −411, 4696 → 4285);
- the record-kinds store: the incremental and reply records −6, the
  intents −12 (no entries) and −24 twice (2 entries), the signed commit −3, the
  unsigned commit, the rollback and the GC record unchanged (no length or
  count in them), the first snapshot −63 (398 → 335) and the empty one
  −12 (its four map counts: 24 → 12).

In this code the share owner is spelled with a varint context length too,
so each share payload's GCM tag is another 16 bytes, and
``ciphertext_hash`` hashes the new spelling, so the commitments, the log's
digests, the proofs' hashes and the certificates that bind it are other
bytes of the same lengths (38 of 93 frames and records at shards=1 differ
from the copy's in value, 36 of 90 at shards=2, none of the record-kinds
store).

All four workload digests moved once more, when a key-tree node stopped
drawing and carrying a 12-byte nonce and an unsharded log began signing
the shard-stamped transition message.  The frames are the parent's bytes
on a copy of this code that draws and discards 12 bytes where each node
drew its nonce and signs S = 1's old message: no frame carries a key-tree
node or a certificate.  On that copy the store differs from the parent's
in the HSMs' key regions only — each of the 1,020 key blocks 12 bytes
shorter at both arities, every journal block the parent's.  Signing the
new message at S = 1 then moves 3 journal blocks at shards=1, none in
length: the snapshot's certificates and, by the chain, the WAL anchor
and the record after the snapshot (shards=2 signs what it signed).
Without the discarded draws every later draw of the stream is another —
the backups' salts, clusters, shares and replies — and every digest moves
with them.
``PARENT_RECORD_KINDS_DIGEST`` did not move: its commit is a stored
certificate, not a signed message.
"""

import hashlib
import random

import pytest

from repro.chaos.entropy import DeterministicEntropy
from repro.core import wire
from repro.core.client import RecoveryError
from repro.core.lhe import SHARE_OWNER
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.crypto.commit import OPENING, CommitmentOpening
from repro.crypto.ec import P256
from repro.crypto.shamir import DEFAULT_MODULUS, SHARE, Share
from repro.log.authdict import InclusionProof, PathStep, empty_digest
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
    # Re-captured when key-tree nodes stopped carrying a nonce and S = 1
    # signed the sharded transition message; see the module docstring.
    PARENT_DIGESTS = {
        1: {
            "frames": "b006bc748690ffc34ae40a0dd6e6a198cf3e967b3c25f11dc0f4dc9713bfe04b",
            "store": "5fe6e5755f473425fa2d917e242cf9e6fa81e37f5dd8ebdfcdbab4a5164fd684",
        },
        2: {
            "frames": "86a50f305e00107e1cd95f3c987b04970683738a719dc36b1df75b6b76155a49",
            "store": "8f83cb91acab30038f292c3ac0b14b6d3e9b46e4d0151d188e90d6f17108ba64",
        },
    }
    PARENT_RECORD_KINDS_DIGEST = (
        "5af7d1a3732a92fa74caf3cc4203b0c72998618085105519eeae54346fe5d5de"
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
        restored = Deployment.restore(params, store, deployment.fleet)
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
                aggregate=(P256.generator * 3, 4 << 200),
                signer_ids=(1, 3),
                shard=1,
                num_shards=2,
            ),
        )
        seq = journal.record_intent(0, 2, digests[1], digests[2], digests[3], [])
        journal.record_commit(0, seq, None)
        seq = journal.record_intent(0, 2, digests[2], digests[3], digests[0], entries)
        journal.record_rollback(0, seq)
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

    def test_plain_proof_bytes_unchanged(self):
        """The one proof layout left is the lane's plain proof: the
        shards=2 frames lost the sharded envelope and nothing else.  These
        bytes are the parent encoder's with the ``u32`` lengths of the
        four 32-byte hashes (a step's ``idh`` and ``other``, ``left``,
        ``right``) gone, and then its kind byte (``01``, the one kind);
        the step's 3-byte value keeps its length.  Then the step count
        and the value's length became one-byte varints (``00000001`` →
        ``01``, ``00000003`` → ``03``) and each subtree hash got its flag
        byte, ``01`` before the 32 bytes, or ``00`` alone for the empty
        subtree's digest (the second proof: the same step over two empty
        children, 64 bytes shorter)."""
        proof = InclusionProof(
            steps=(PathStep(idh=b"\x11" * 32, value=b"\x22" * 3, other=b"\x33" * 32),),
            left=b"\x44" * 32,
            right=b"\x55" * 32,
        )
        step = "01" + "11" * 32 + "03" + "22" * 3 + "01" + "33" * 32
        pinned = step + "01" + "44" * 32 + "01" + "55" * 32
        assert wire.encode_inclusion_proof(proof).hex() == pinned
        assert wire.decode_inclusion_proof(bytes.fromhex(pinned)) == proof
        leaf = InclusionProof(steps=proof.steps, left=empty_digest(), right=empty_digest())
        assert wire.encode_inclusion_proof(leaf).hex() == step + "00" + "00"
        assert wire.decode_inclusion_proof(bytes.fromhex(step + "0000")) == leaf


class TestCryptoLayoutsUnchanged:
    """Each crypto layout's standalone bytes for one fixed value, as the
    hand-written ``to_bytes`` wrote them.  The opening is also inside the
    pinned frames; a share crosses the wire only encrypted, and its owner
    (the share payload's associated data) not at all.  The share's bytes
    moved once on purpose, when Shamir moved from the P-256 order to
    GF(2^128 + 51): ``x`` went ``u32`` → ``u16`` and ``y`` 32 → 17 bytes
    (``00000007`` + the 32-byte order − 1 before); the owner replaced the
    ``(username, share)`` plaintext, whose username it encodes the same
    way.  The owner's context length moved once, when a blob's length
    became a varint (``00000003`` → ``03``)."""

    SHARE_VALUE = Share(x=7, y=DEFAULT_MODULUS - 1)
    PINNED = {
        "opening": (
            OPENING,
            CommitmentOpening("zoë", (3, 1, 4, 1, 5), b"\xcc" * 32, bytes(range(32))),
            "00047a6fc3ab00050000000300000001000000040000000100000005"
            + "cc" * 32 + bytes(range(32)).hex(),
        ),
        "share": (
            SHARE,
            SHARE_VALUE,
            "0007" + "01" + "00" * 15 + "32",
        ),
        "share_owner": (
            SHARE_OWNER,
            ("zoë", b"\xcc" * 3),
            "00047a6fc3ab" + "03" + "cc" * 3,
        ),
    }

    @pytest.mark.parametrize("layout", sorted(PINNED))
    def test_standalone_bytes_unchanged(self, layout):
        codec, value, pinned = self.PINNED[layout]
        assert codec.encode(value).hex() == pinned
        assert codec.decode(bytes.fromhex(pinned)) == value
