"""The durability layer: WAL integrity, journal protocol, tamper detection.

Covers the claims the write-ahead design stands on:

1. **Round-trip** — records appended to the WAL replay verbatim, across
   process restarts (a fresh ``WriteAheadLog`` over the same store).
2. **Integrity** — every tampering move ``TamperingBlockStore`` can make
   (corrupt a block, swap two blocks, replay a stale version) is *detected*
   during replay/restore, never silently restored; truncation of the tail
   is caught by the ``expected_head`` check, which restore cannot make (it
   holds no trusted head, so a dropped tail restores without it).
3. **Write-ahead protocol** — epoch intents resolve to exactly one commit
   or rollback; record sequences no crash can produce are rejected.
4. **Snapshots** — anchoring + compaction preserve the restored state and
   a stale (replayed) anchor dangles and fails loudly.
5. **Ownership** — the HSMs' key arrays share the store but not the WAL:
   the journal holds no key block, and tampering with one is caught by the
   device at the read (a typed refusal), not by the chain at restore.
"""

import dataclasses
import random

import pytest

from repro.chaos.entropy import DeterministicEntropy
from repro.core.client import RecoveryError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.wire import WireFormatError
from repro.crypto.ec import P256, ECPoint
from repro.hsm.device import HsmRefusedError
from repro.log.distributed import CertifiedTransition, LogUpdateRejected
from repro.log.sharded import shard_of
from repro.storage.blockstore import InMemoryBlockStore, TamperingBlockStore
from repro.storage.journal import (
    K_BACKUP,
    K_EPOCH_COMMIT,
    K_EPOCH_INTENT,
    K_REPLY,
    JournalReplayError,
    ProviderJournal,
    RECORD_CODECS,
    RestoredState,
    decode_state,
    encode_state,
)
from repro.storage.wal import WalCorruptionError, WriteAheadLog


# ---------------------------------------------------------------------------
# WriteAheadLog
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_replay_round_trip(self):
        wal = WriteAheadLog(InMemoryBlockStore())
        records = [(1, b"alpha"), (2, b""), (7, b"x" * 300)]
        for kind, payload in records:
            wal.append(kind, payload)
        assert [(k, p) for _, k, p in wal.replay()] == records
        assert len(wal) == 3

    def test_reopen_continues_the_chain(self):
        store = InMemoryBlockStore()
        first = WriteAheadLog(store)
        first.append(1, b"pre-crash")
        head = first.head
        reopened = WriteAheadLog(store)  # the "restarted process"
        assert reopened.head == head
        reopened.append(2, b"post-crash")
        assert [(k, p) for _, k, p in reopened.replay()] == [
            (1, b"pre-crash"),
            (2, b"post-crash"),
        ]

    def test_stale_writer_append_is_fenced(self):
        """A pre-restore handle left around after a restart must not fork
        the chain: once the live handle appends, the stale one's next
        append targets an occupied address and fails loudly instead of
        silently clobbering the live writer's records."""
        store = InMemoryBlockStore()
        stale = WriteAheadLog(store)
        stale.append(1, b"shared-prefix")
        live = WriteAheadLog(store)  # the restarted process
        live.append(2, b"live-only")
        with pytest.raises(WalCorruptionError, match="another writer"):
            stale.append(3, b"fork attempt")
        # The live chain is untouched.
        assert [(k, p) for _, k, p in live.replay(live.head)] == [
            (1, b"shared-prefix"),
            (2, b"live-only"),
        ]

    def test_kind_must_fit_one_byte(self):
        wal = WriteAheadLog(InMemoryBlockStore())
        with pytest.raises(ValueError):
            wal.append(256, b"")
        with pytest.raises(ValueError):
            wal.append(-1, b"")

    def test_corrupted_record_detected(self):
        store = TamperingBlockStore()
        wal = WriteAheadLog(store)
        for i in range(4):
            wal.append(1, b"record-%d" % i)
        store.corrupt(2, bit=7)
        with pytest.raises(WalCorruptionError):
            list(wal.replay())
        # A restart over the tampered store fails during open, too.
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(store)

    def test_swapped_records_detected(self):
        store = TamperingBlockStore()
        wal = WriteAheadLog(store)
        wal.append(1, b"first")
        wal.append(1, b"second")
        store.swap(1, 2)
        with pytest.raises(WalCorruptionError):
            list(wal.replay())

    def test_replayed_block_detected(self):
        """Serving one record's (valid) bytes at another's address is the
        positional-replay attack; the position-bound chain hash catches it."""
        store = TamperingBlockStore()
        wal = WriteAheadLog(store)
        wal.append(1, b"first")
        wal.append(1, b"second")
        store.intercept = lambda addr, block: (
            store.history[1][0] if addr == 2 else block
        )
        with pytest.raises(WalCorruptionError):
            list(wal.replay())

    def test_truncated_tail_detected_via_expected_head(self):
        store = InMemoryBlockStore()
        wal = WriteAheadLog(store)
        wal.append(1, b"kept")
        wal.append(1, b"dropped by the adversary")
        head = wal.head
        store.delete(2)
        # A pure chain walk cannot see a clean truncation...
        assert [p for _, _, p in WriteAheadLog(store).replay()] == [b"kept"]
        # ...but a head reconciled from outside the store can.
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog(store).replay(expected_head=head))

    def test_anchor_and_compaction_preserve_replay(self):
        store = InMemoryBlockStore()
        wal = WriteAheadLog(store)
        for i in range(5):
            wal.append(1, b"old-%d" % i)
        wal.append(9, b"snapshot")  # the record the anchor will name
        wal.anchor_now()
        assert wal.compact_before(6) == 5
        wal.append(1, b"tail")
        replayed = [(k, p) for _, k, p in WriteAheadLog(store).replay()]
        assert replayed == [(9, b"snapshot"), (1, b"tail")]

    def test_anchor_refuses_empty_log(self):
        with pytest.raises(ValueError):
            WriteAheadLog(InMemoryBlockStore()).anchor_now()

    def test_corrupted_anchor_detected(self):
        store = TamperingBlockStore()
        wal = WriteAheadLog(store)
        wal.append(9, b"snapshot")
        wal.anchor_now()
        store.corrupt(0, bit=100)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(store)

    def test_stale_anchor_replay_detected(self):
        """An adversary serving yesterday's anchor (pointing at a compacted
        snapshot) must not silently resurrect old state."""
        store = TamperingBlockStore()
        wal = WriteAheadLog(store)
        wal.append(9, b"snapshot-one")
        wal.anchor_now()
        wal.append(1, b"newer work")
        wal.append(9, b"snapshot-two")
        wal.anchor_now()
        wal.compact_before(3)  # snapshot-one's record is gone
        store.replay(0, version=0)  # serve the stale anchor on the next read
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(store)


# ---------------------------------------------------------------------------
# Certificate-signature serialization (inside an EPOCH_COMMIT record)
# ---------------------------------------------------------------------------
COMMIT = RECORD_CODECS[K_EPOCH_COMMIT]


class TestAggregateCodec:
    def test_signature_round_trips(self):
        signature = ((0, 5), (P256.generator * 12345, 3**100))
        data = COMMIT.encode((0, 7, signature))
        assert COMMIT.decode(data) == (0, 7, signature)
        # flag, two u32 signer ids behind their one-byte varint count, a
        # 33-byte compressed R and a 32-byte s: no scheme tag, no byte length.
        assert len(data) == 4 + 8 + 1 + (1 + 2 * 4) + 33 + 32
        with pytest.raises(WireFormatError):
            COMMIT.decode(data[:-1])  # s cut short
        bad_point = bytearray(data)
        bad_point[4 + 8 + 1 + 9] = 4  # R's prefix byte is no SEC1 compressed form
        with pytest.raises(WireFormatError):
            COMMIT.decode(bytes(bad_point))

    def test_unserializable_aggregate_degrades_to_none(self):
        class HasToBytes:  # the shape the journal once tagged "bls"
            def to_bytes(self):
                return b"\x01" * 96

        G = P256.generator
        for aggregate in (
            object(), HasToBytes(), ((1, 2), (3, 4)), (G,), (ECPoint(None, None), 1),
            (G, -1), (G, 1 << 256), (G, "1"), None,
        ):
            data = COMMIT.encode((0, 7, ((0, 1), aggregate)))
            assert COMMIT.decode(data) == (0, 7, None)


# ---------------------------------------------------------------------------
# ProviderJournal: the write-ahead epoch protocol
# ---------------------------------------------------------------------------
def _transition(old=b"\xaa" * 32, new=b"\xbb" * 32, root=b"\xcc" * 32):
    return CertifiedTransition(
        old_digest=old,
        new_digest=new,
        root=root,
        aggregate=(P256.generator * 2, 34),
        signer_ids=(0, 1),
        shard=0,
        num_shards=1,
    )


class TestProviderJournal:
    def test_escrow_records_round_trip(self):
        journal = ProviderJournal(InMemoryBlockStore())
        journal.record_incremental("alice", b"inc-1")
        journal.record_incremental("alice", b"inc-2")
        journal.record_reply("bob", 3, b"escrowed-reply")
        state = journal.replay_state()
        assert state.incrementals == {"alice": [b"inc-1", b"inc-2"]}
        assert state.replies == {("bob", 3): [b"escrowed-reply"]}

    def test_intent_commit_applies_entries(self):
        journal = ProviderJournal(InMemoryBlockStore())
        entries = [(b"rec|a|0", b"h1"), (b"rec|b|0", b"h2")]
        seq = journal.record_intent(0, 1, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, entries)
        journal.record_commit(0, seq, _transition())
        state = journal.replay_state()
        assert state.open_intents == {}
        assert state.shard_entries[0] == entries
        # The committed transition replays equal to the one that was recorded.
        assert state.shard_transitions[0] == [_transition()]

    def test_intent_rollback_drops_entries(self):
        journal = ProviderJournal(InMemoryBlockStore())
        seq = journal.record_intent(
            0, 1, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, [(b"rec|a|0", b"h")]
        )
        journal.record_rollback(0, seq)
        state = journal.replay_state()
        assert state.open_intents == {}
        assert state.shard_entries.get(0, []) == []
        assert state.shard_transitions.get(0, []) == []

    def test_crash_leaves_an_open_intent(self):
        journal = ProviderJournal(InMemoryBlockStore())
        journal.record_intent(
            2, 4, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, [(b"rec|a|0", b"h")]
        )
        state = journal.replay_state()
        assert list(state.open_intents) == [2]
        assert state.open_intents[2].entries == [(b"rec|a|0", b"h")]

    def test_double_intent_on_one_lane_rejected(self):
        journal = ProviderJournal(InMemoryBlockStore())
        args = (1, 2, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, [])
        journal.record_intent(*args)
        journal.record_intent(*args)  # no crash of run_update can do this
        with pytest.raises(JournalReplayError):
            journal.replay_state()

    def test_commit_without_intent_rejected(self):
        journal = ProviderJournal(InMemoryBlockStore())
        journal.record_commit(0, 99, _transition())
        with pytest.raises(JournalReplayError):
            journal.replay_state()

    def test_rollback_without_intent_rejected(self):
        journal = ProviderJournal(InMemoryBlockStore())
        journal.record_rollback(0, 99)
        with pytest.raises(JournalReplayError):
            journal.replay_state()

    def test_gc_clears_entries_but_keeps_escrow(self):
        journal = ProviderJournal(InMemoryBlockStore())
        seq = journal.record_intent(
            0, 1, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, [(b"rec|a|0", b"h")]
        )
        journal.record_commit(0, seq, _transition())
        journal.record_incremental("alice", b"inc")
        journal.record_gc(1)
        state = journal.replay_state()
        assert state.shard_entries[0] == []
        assert state.garbage_collections == 1
        assert state.incrementals == {"alice": [b"inc"]}

    def test_snapshot_refuses_open_intents(self):
        journal = ProviderJournal(InMemoryBlockStore())
        journal.record_intent(0, 1, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, [])
        with pytest.raises(ValueError):
            journal.write_snapshot(journal.replay_state())

    def test_snapshot_compacts_and_replays_identically(self):
        store = InMemoryBlockStore()
        journal = ProviderJournal(store)
        entries = [(b"rec|a|0", b"h1")]
        seq = journal.record_intent(
            0, 1, b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32, entries
        )
        journal.record_commit(0, seq, _transition())
        journal.record_reply("bob", 0, b"reply")
        before = journal.replay_state()
        blocks_before = len(store)
        journal.write_snapshot(before)
        assert len(store) < blocks_before  # history reclaimed
        journal.record_incremental("carol", b"post-snapshot")
        after = ProviderJournal(store).replay_state()  # a restarted process
        assert after.shard_entries == before.shard_entries
        assert after.replies == before.replies
        assert after.incrementals == {"carol": [b"post-snapshot"]}

    def test_state_codec_round_trips(self):
        state = RestoredState(
            num_shards=2,
            shard_entries={0: [(b"id", b"v")], 1: []},
            shard_transitions={
                0: [
                    # The lane is not stored with the transition: decoding
                    # fills it from the shard row and the state's arity.
                    CertifiedTransition(
                        old_digest=b"\xaa" * 32,
                        new_digest=b"\xbb" * 32,
                        root=b"\xcc" * 32,
                        aggregate=(P256.generator, 0),
                        signer_ids=(1, 3),
                        shard=0,
                        num_shards=2,
                    )
                ],
                1: [],
            },
            garbage_collections=2,
            incrementals={"alice": [b"blob"]},
            replies={("bob", 1): [b"reply-a", b"reply-b"]},
        )
        decoded = decode_state(encode_state(state))
        assert decoded == state


# ---------------------------------------------------------------------------
# Tampering x restore (deployment level): each byte is vouched for by its
# owner — a WAL record by the provider's chain (restore fails), a key-array
# block by the device that wrote it (restore succeeds, the device refuses)
# ---------------------------------------------------------------------------
def _region_addr(hsm_index: int, addr: int) -> int:
    """Where the durable store keeps address ``addr`` of HSM ``hsm_index``'s
    key array (the layout of ``blockstore.RegionStore``, pinned here)."""
    return (1 << 62) + hsm_index * (1 << 40) + addr


def _crashed_deployment():
    """A durable N=4 deployment on a TamperingBlockStore at the moment its
    provider process dies: one recovery behind it (so key-tree nodes have
    stale versions to serve) and one backup not yet recovered."""
    store = TamperingBlockStore()
    params = SystemParams.for_testing(num_hsms=4, cluster_size=4)
    # Seeded salts: clusters are drawn with replacement, and the key-array
    # tests need enough distinct devices besides the afflicted one.
    with DeterministicEntropy(1):
        dep = Deployment.create(params, rng=random.Random(7), store=store)
        client = dep.new_client("alice", transport="direct")
        client.backup(b"warm-up", "1234")
        assert client.recover("1234") == b"warm-up"
        client.backup(b"secret", "1234")
    return params, store, dep


def _survivor(store):
    copy = TamperingBlockStore()
    copy._blocks = dict(store._blocks)
    copy.history.update({addr: list(v) for addr, v in store.history.items()})
    return copy


class TestTamperedRestore:
    @pytest.fixture(scope="class")
    def tampered_setup(self):
        params, store, dep = _crashed_deployment()
        # Addresses 1..5, which the tests below tamper with, are WAL records.
        assert len(dep.provider.journal.wal) >= 5
        return params, store, dep

    def test_honest_store_restores(self, tampered_setup):
        # The control for the tests below: a pristine copy restores fine.
        params, store, dep = tampered_setup
        restored = Deployment.restore(params, _survivor(store), dep.fleet)
        assert restored.provider.journal is not None
        assert restored.provider.log.digest == dep.provider.log.digest

    def test_corrupted_block_detected_on_restore(self, tampered_setup):
        params, store, dep = tampered_setup
        survivor = _survivor(store)
        survivor.corrupt(3, bit=11)
        with pytest.raises(WalCorruptionError):
            Deployment.restore(params, survivor, dep.fleet)

    def test_swapped_blocks_detected_on_restore(self, tampered_setup):
        params, store, dep = tampered_setup
        survivor = _survivor(store)
        survivor.swap(2, 5)
        with pytest.raises(WalCorruptionError):
            Deployment.restore(params, survivor, dep.fleet)

    def test_replayed_block_detected_on_restore(self, tampered_setup):
        params, store, dep = tampered_setup
        survivor = _survivor(store)
        survivor.intercept = lambda addr, block: (
            survivor.history[1][0] if addr == 4 else block
        )
        with pytest.raises(WalCorruptionError):
            Deployment.restore(params, survivor, dep.fleet)

    def test_a_dropped_newest_record_restores_without_it(self):
        """The limitation, pinned: restore holds no trusted head to replay
        against, so a store that drops its newest record (here the only
        backup) restores cleanly, one backup short."""
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3)
        store = InMemoryBlockStore()
        with DeterministicEntropy(3):
            dep = Deployment.create(params, rng=random.Random(7), store=store)
            dep.new_client("alice", transport="direct").backup(b"secret", "1234")
        wal = dep.provider.journal.wal
        assert [kind for _, kind, _ in wal.replay()] == [K_EPOCH_INTENT, K_EPOCH_COMMIT, K_BACKUP]
        store.delete(len(wal))
        restored = Deployment.restore(params, store, dep.fleet)
        assert (dep.provider.backup_count("alice"), restored.provider.backup_count("alice")) == (1, 0)


def _corrupt(store, victim):
    store.corrupt(_region_addr(victim, 1), bit=200)


def _swap(store, victim):
    store.swap(_region_addr(victim, 2), _region_addr(victim, 3))


def _serve_stale(store, victim):
    root = _region_addr(victim, 1)
    assert len(store.history[root]) > 1  # the warm-up recovery re-keyed it
    store._blocks[root] = store.history[root][0]


def _withhold(store, victim):
    store.delete(_region_addr(victim, 1))


class TestTamperedKeyArray:
    """The provider's chain no longer covers key blocks: whatever it does to
    one is caught where the paper catches it — by the device, at the read."""

    @pytest.mark.parametrize("fault", [_corrupt, _swap, _serve_stale, _withhold])
    def test_restore_succeeds_and_the_device_refuses(self, fault):
        params, store, dep = _crashed_deployment()
        survivor = _survivor(store)
        ciphertext = dep.provider.fetch_backup("alice")
        cluster = dep.clients[0].lhe.select(ciphertext.salt, "1234")
        victim = cluster[0]
        assert len(set(cluster) - {victim}) >= params.threshold
        fault(survivor, victim)

        restored = Deployment.restore(params, survivor, dep.fleet)
        assert restored.provider.log.digest == dep.provider.log.digest

        def region():
            low, high = _region_addr(victim, 0), _region_addr(victim + 1, 0)
            return {a: b for a, b in survivor._blocks.items() if low <= a < high}

        client = restored.new_client("alice")
        secret = dep.fleet[victim].extract_secrets().bfe_secret
        before = (region(), secret.tree.root_key, secret.punctures_done)
        session = client.begin_recovery("1234")
        with pytest.raises(HsmRefusedError):
            client._channels(victim).decrypt_share(client._share_request(session, 0))
        assert (region(), secret.tree.root_key, secret.punctures_done) == before
        assert client.request_shares(session) == len(set(cluster) - {victim})
        assert client.finish_recovery(session) == b"secret"

        attempts = restored.provider.next_attempt_number("alice")
        # A seeded salt: at N = 4 a random one draws the wrong PIN the right
        # cluster once in 256 times, and then the wrong PIN recovers.
        with DeterministicEntropy(2):
            client.backup(b"again", "1234")
            with pytest.raises(RecoveryError):
                client.recover("9999")
        assert restored.provider.next_attempt_number("alice") == attempts + 1


class TestJournalHoldsNoKeyBlocks:
    def test_only_what_the_provider_vouches_for_is_journaled(self):
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=16)
        store = InMemoryBlockStore()
        with DeterministicEntropy(0xF0F1):
            dep = Deployment.create(params, rng=random.Random(20), store=store)
            wal = dep.provider.journal.wal
            assert [kind for _, kind, _ in wal.replay()] == [K_EPOCH_INTENT, K_EPOCH_COMMIT]
            client = dep.new_client("formats-user")
            client.backup(b"formats payload", pin="2468")
            cluster = client.lhe.select(dep.provider.fetch_backup("formats-user").salt, "2468")
            records = len(wal)
            assert client.recover(pin="2468") == b"formats payload"
        # The recovery key's backup, one epoch, one escrowed reply per
        # device asked — and no record per key-tree put.
        assert [kind for _, kind, _ in wal.replay()][records:] == [
            K_BACKUP, K_EPOCH_INTENT, K_EPOCH_COMMIT, *[K_REPLY] * len(set(cluster))
        ]

    def test_sharded_genesis_is_one_epoch_per_lane(self):
        params = SystemParams.for_testing(num_hsms=12, cluster_size=3, max_punctures=8)
        dep = Deployment.create(
            params, rng=random.Random(20), shards=4, store=InMemoryBlockStore()
        )
        assert len(dep.provider.journal.wal) == 8

    def test_retired_kind_is_refused_not_reused(self):
        journal = ProviderJournal(InMemoryBlockStore())
        journal.wal.append(4, b"\x00\x00\x00\x05" + b"\x00" * 8 + b"\x00\x00\x00\x00")
        with pytest.raises(JournalReplayError, match="kind 4"):
            journal.replay_state()
        # 8 carried the batcher's published cross-shard root (one blob).
        journal = ProviderJournal(InMemoryBlockStore())
        journal.wal.append(8, b"\x00\x00\x00\x20" + b"\xdd" * 32)
        with pytest.raises(JournalReplayError, match="kind 8"):
            journal.replay_state()


# ---------------------------------------------------------------------------
# A lane's epoch count is its certified chain's length, live and restored
# ---------------------------------------------------------------------------
class TestRepeatedIdentifiers:
    def test_committed_entries_that_repeat_an_identifier_fail_the_replay(self):
        """A journal that commits one identifier twice (the same entries
        journaled by two epochs) is refused with the replay's typed error,
        not the dictionary's ``KeyError``."""
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=8)
        store = InMemoryBlockStore()
        dep = Deployment.create(params, rng=random.Random(25), store=store)
        lane = dep.provider.log.shards[0]
        journal = dep.provider.journal
        seq = journal.record_intent(
            0, 1, lane.digest, b"\xbb" * 32, b"\xcc" * 32, lane.ordered_entries[:1]
        )
        journal.record_commit(0, seq, None)
        with pytest.raises(JournalReplayError, match="repeat an identifier"):
            Deployment.restore(params, store, dep.fleet)


class TestRestoredEpochs:
    def test_restored_lane_counts_the_live_lanes_epochs(self):
        """Epochs before a snapshot, epochs after it and a rolled-back one:
        the restored lanes count what the live lanes count."""
        params = dataclasses.replace(
            SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=8),
            log_shards=2,
        )
        store = InMemoryBlockStore()
        dep = Deployment.create(params, rng=random.Random(24), store=store)
        log = dep.provider.log

        def commit(tag: str, count: int) -> None:
            for i in range(count):
                log.insert(b"rec|%s-%d|0" % (tag.encode("ascii"), i), b"h")
                dep.run_log_update()

        commit("before", 3)
        dep.provider.snapshot()
        commit("after", 2)
        # A committee of 2 needs both signers: lane 0's next epoch fails.
        dep.fleet[0].fail_stop()
        identifier = next(
            b"rec|doomed-%d|0" % i for i in range(256)
            if shard_of(b"rec|doomed-%d|0" % i, 2) == 0
        )
        log.insert(identifier, b"h")
        epochs = [lane.epoch for lane in log.shards]
        with pytest.raises(LogUpdateRejected):
            dep.run_log_update()
        assert [lane.epoch for lane in log.shards] == epochs
        dep.fleet[0].restart()

        restored = Deployment.restore(params, store, dep.fleet).provider.log
        assert [lane.epoch for lane in restored.shards] == epochs
        assert [len(lane.certified_transitions) for lane in restored.shards] == epochs
        assert restored.epoch == log.epoch == sum(epochs)
