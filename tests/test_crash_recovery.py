"""Crash recovery: kill the provider mid-epoch, restart, lose nothing.

The headline scenario the durability layer exists for: the provider
process dies *after* one shard lane committed its epoch and before the
tick that ran it returned.  On restart:

- no certified digest is lost — any epoch a committee device adopted is
  repaired to COMMIT (the fleet is ground truth; devices only accept a
  digest after verifying a quorum aggregate);
- no half-committed epoch survives — an intent no device adopted is
  repaired to ROLLBACK, its entries vanish, and the sessions (which never
  received inclusion proofs) simply retry;
- everything escrowed before the crash (backups, replies, HSM key blocks,
  attempt counters) is rebuilt from the journal.

``CrashingBlockStore`` models the kill: the (N+1)-th block put raises and
the test restarts from exactly the blocks that landed before it.
"""

import random

import pytest

from repro.chaos.entropy import DeterministicEntropy
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError
from repro.crypto.gcm import AuthenticationError
from repro.log.sharded import shard_of
from repro.storage.blockstore import CrashError, CrashingBlockStore, InMemoryBlockStore
from repro.storage.journal import ProviderJournal
from repro.storage.securedel import DeletedBlockError

SHARDS = 2


def durable_params(**kwargs) -> SystemParams:
    defaults = dict(num_hsms=8, cluster_size=4)
    defaults.update(kwargs)
    return SystemParams.for_testing(**defaults)


def seeded_backup(client, secret: bytes, pin: str, seed: int) -> None:
    """``client.backup`` under seeded entropy: its salt, and so its cluster,
    is the same every run, and never one of fewer than t distinct devices
    (which no recovery can open yet: ROADMAP item 13)."""
    with DeterministicEntropy(seed):
        client.backup(secret, pin)


def identifier_on_shard(shard: int, tag: str = "crash") -> bytes:
    """A recovery identifier that routes to ``shard`` under SHARDS lanes."""
    return next(
        b"rec|%s-%d|0" % (tag.encode("ascii"), i)
        for i in range(256)
        if shard_of(b"rec|%s-%d|0" % (tag.encode("ascii"), i), SHARDS) == shard
    )


# ---------------------------------------------------------------------------
# Round trips (no crash): restore rebuilds the full deployment
# ---------------------------------------------------------------------------
class TestRestoreRoundTrip:
    def test_restore_preserves_digest_escrow_and_counters(self):
        store = InMemoryBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(11), shards=SHARDS, store=store)
        alice = dep.new_client("alice", transport="direct")
        seeded_backup(alice, b"alice-secret", "1234", seed=1)
        assert alice.recover("1234") == b"alice-secret"
        digest = dep.provider.log.digest

        # ``params`` still says one shard: restore reads the count from the fleet.
        restored = Deployment.restore(params, store, dep.fleet)
        assert restored.provider.log.num_shards == restored.params.log_shards == SHARDS
        assert restored.provider.log.digest == digest
        # Attempt counters were re-derived from the committed entries.
        assert restored.provider.next_attempt_number(
            "alice"
        ) == restored.provider.scan_attempt_number("alice")
        # The restored deployment serves new work end to end (the old
        # backup's BFE tag was punctured by the pre-crash recovery, so a
        # fresh backup proves liveness).
        alice2 = restored.new_client("alice", transport="direct")
        seeded_backup(alice2, b"alice-next", "1234", seed=2)
        assert alice2.recover("1234") == b"alice-next"

    def test_snapshot_compaction_then_restore(self):
        store = InMemoryBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(12), shards=SHARDS, store=store)
        bob = dep.new_client("bob", transport="direct")
        seeded_backup(bob, b"bob-secret", "9999", seed=3)
        blocks_before = len(store)
        dep.provider.snapshot()
        assert len(store) < blocks_before  # history actually reclaimed
        restored = Deployment.restore(params, store, dep.fleet)
        assert restored.provider.log.digest == dep.provider.log.digest
        assert restored.new_client("bob", transport="direct").recover("9999") == b"bob-secret"

    def test_gc_survives_restart(self):
        store = InMemoryBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(13), shards=SHARDS, store=store)
        dep.provider.log.insert(b"rec|gc-user|0", b"h")
        dep.run_log_update()
        dep.garbage_collect_log()
        restored = Deployment.restore(params, store, dep.fleet)
        assert restored.provider.log.garbage_collections == 1
        assert restored.provider.log.digest == dep.provider.log.digest
        assert restored.provider.log.ordered_entries == []

    def test_snapshot_requires_a_journal(self):
        dep = Deployment.create(durable_params(), rng=random.Random(14))
        with pytest.raises(ProviderError):
            dep.provider.snapshot()

    def test_journal_and_fleet_disagreeing_on_shards_is_refused(self):
        """A 2-shard journal handed an unsharded fleet is refused before
        reconciliation appends anything: its open intent stays open."""
        store = CrashingBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(16), shards=SHARDS, store=store)
        dep.provider.log.insert(identifier_on_shard(1, tag="arity"), b"h")
        store.crash_after(1)  # the intent lands, its commit record does not
        with pytest.raises(CrashError):
            dep.provider.log.run_shard_update(1, dep.fleet.hsms)
        survivor = store.blocks
        records = len(survivor)
        unsharded = Deployment.create(params, rng=random.Random(17)).fleet
        with pytest.raises(ProviderError, match="shard"):
            Deployment.restore(params, survivor, unsharded)
        assert len(survivor) == records
        assert list(ProviderJournal(survivor).replay_state().open_intents) == [1]


# ---------------------------------------------------------------------------
# The headline: kill mid-epoch, restart, reconcile
# ---------------------------------------------------------------------------
class TestKillMidEpoch:
    def test_lane_commit_survives_crash_before_publish(self):
        """The headline: shard 0's lane commits its epoch, then the process
        dies while shard 1's commit record is being written — before the
        tick that ran both lanes returns.  Restart must keep shard
        0's certified digest intact and resolve shard 1 atomically: its
        commit record never landed, so no device ever heard of its epoch
        (acceptance fans out only after the commit is durable) and the
        intent rolls back cleanly — complete or roll back, never half."""
        store = CrashingBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(21), shards=SHARDS, store=store)
        log = dep.provider.log
        log.insert(identifier_on_shard(0), b"h-shard0")
        log.insert(identifier_on_shard(1), b"h-shard1")

        log.run_shard_update(0, dep.fleet.hsms)  # lane 0 commits cleanly
        digest0 = log.shards[0].digest
        digest1_before = next(
            h.shard_digest(1) for h in dep.fleet.hsms if h.index % SHARDS == 1
        )

        # Lane 1: the intent record lands (put 1), then the process dies on
        # the commit record's put — after the quorum signed, before any
        # device was asked to accept.
        store.crash_after(1)
        with pytest.raises(CrashError):
            log.run_shard_update(1, dep.fleet.hsms)
        # Acceptance is gated on the durable commit: no device moved.
        assert all(
            h.shard_digest(1) == digest1_before
            for h in dep.fleet.hsms
            if h.index % SHARDS == 1
        )

        # The durable image ends mid-transaction: one open intent.
        survivor = store.blocks
        assert list(ProviderJournal(survivor).replay_state().open_intents) == [1]

        restored = Deployment.restore(params, survivor, dep.fleet)
        rlog = restored.provider.log
        # Lane 0's certified digest survived; lane 1 rolled back atomically.
        assert rlog.shards[0].digest == digest0
        assert rlog.shards[1].digest == digest1_before
        assert ProviderJournal(survivor).replay_state().open_intents == {}
        assert (identifier_on_shard(0), b"h-shard0") in rlog.ordered_entries
        committed_ids = [i for i, _ in rlog.ordered_entries]
        assert identifier_on_shard(1) not in committed_ids
        # The rolled-back session retries on the restored deployment and the
        # whole fleet converges on the published root.
        rlog.insert(identifier_on_shard(1), b"h-shard1")
        restored.run_log_update()
        assert (identifier_on_shard(1), b"h-shard1") in rlog.ordered_entries
        assert dep.fleet[0].log_digest == rlog.digest

    def test_committed_epochs_survive_a_crash_before_publish(self):
        """Both lanes commit durably; the process dies before the batcher
        reads the combined root.  Restart loses nothing: both certified
        digests restore with their quorum aggregates replayable."""
        store = CrashingBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(23), shards=SHARDS, store=store)
        log = dep.provider.log
        log.insert(identifier_on_shard(0, tag="pub"), b"h0")
        log.insert(identifier_on_shard(1, tag="pub"), b"h1")
        log.run_shard_update(0, dep.fleet.hsms)
        log.run_shard_update(1, dep.fleet.hsms)
        # The process dies here, before the tick that ran both lanes returns.
        restored = Deployment.restore(params, store.blocks, dep.fleet)
        rlog = restored.provider.log
        assert rlog.digest == log.digest
        for shard in range(SHARDS):
            assert rlog.shards[shard].digest == log.shards[shard].digest
            # The restored transition chain kept its quorum aggregates, so
            # it can still be offered to devices that missed it.
            assert all(
                t.aggregate is not None
                for t in rlog.shards[shard].certified_transitions
            )

    def test_crash_before_certification_rolls_back(self):
        """The process dies after writing the intent but its committee never
        reached quorum (and the rollback record was lost with the process):
        restart must roll the epoch back atomically — the entries vanish and
        the session can retry."""
        store = CrashingBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(22), shards=SHARDS, store=store)
        log = dep.provider.log
        identifier = identifier_on_shard(1, tag="doomed")
        log.insert(identifier, b"h-doomed")
        digest_before = log.shards[1].digest

        # Fail half of shard 1's committee (quorum 0.75 * 4 needs 3 signers)
        # and die on the very next record write after the intent.
        committee = [h for h in dep.fleet.hsms if h.index % SHARDS == 1]
        for hsm in committee[:2]:
            hsm.fail_stop()
        store.crash_after(1)
        with pytest.raises(CrashError):
            log.run_shard_update(1, dep.fleet.hsms)
        # No device moved: quorum loss is detected before any acceptance.
        assert all(h.shard_digest(1) == digest_before for h in committee[2:])

        survivor = store.blocks
        assert list(ProviderJournal(survivor).replay_state().open_intents) == [1]
        dep.fleet.restart_all()
        restored = Deployment.restore(params, survivor, dep.fleet)
        rlog = restored.provider.log
        # Rolled back atomically: digest unchanged, the entry is gone, and
        # the journal holds no open transaction.
        assert rlog.shards[1].digest == digest_before
        assert identifier not in [i for i, _ in rlog.ordered_entries]
        assert ProviderJournal(survivor).replay_state().open_intents == {}
        # The write-once identifier was never committed, so the session's
        # retry goes through on the restored deployment.
        rlog.insert(identifier, b"h-doomed")
        restored.run_log_update()
        assert (identifier, b"h-doomed") in rlog.ordered_entries


# ---------------------------------------------------------------------------
# Key rotation survives a restart
# ---------------------------------------------------------------------------
class TestRotationIsDurable:
    def test_rotated_key_tree_survives_restart(self):
        """A device rotates into the store it owns, so after a restart it
        reads its new key tree back from the durable store and answers
        every session whose cluster names it.  (A rotation into a
        throwaway store left the durable region holding the old tree, and
        the restored device refused every such share.)"""
        store = InMemoryBlockStore()
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=16)
        dep = Deployment.create(params, rng=random.Random(5), store=store)
        info = dep.fleet[0].rotate_keys()
        dep.membership.record_rotation(info)
        dep.run_log_update()

        restored = Deployment.restore(params, store, dep.fleet)
        named = 0
        for seed in range(64):
            if named == 3:
                break
            client = restored.new_client(f"rotated-{seed}", transport="direct")
            seeded_backup(client, b"rotated secret", "0001", seed=seed)
            session = client.begin_recovery("0001")
            client.request_shares(session, "0001")
            assert client.finish_recovery(session) == b"rotated secret"
            if 0 in session.cluster:
                named += 1
                assert 0 in session.answered_hsms
        assert named == 3


# ---------------------------------------------------------------------------
# Service-level restart (RecoveryService.restart)
# ---------------------------------------------------------------------------
class TestServiceRestart:
    def test_restart_revives_the_service(self):
        store = InMemoryBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(31), shards=SHARDS, store=store)
        service = dep.recovery_service(transport="direct", tick_interval=0.01)
        with service:
            alice = service.new_client("alice")
            seeded_backup(alice, b"pre-crash", "1234", seed=4)
            assert alice.recover("1234") == b"pre-crash"
        revived = service.restart()
        with revived:
            alice2 = revived.new_client("alice")
            seeded_backup(alice2, b"post-crash", "1234", seed=5)
            assert alice2.recover("1234") == b"post-crash"
        # Sessions served after restart start from re-derived counters.
        provider = revived.provider
        assert provider.next_attempt_number("alice") == provider.scan_attempt_number(
            "alice"
        )

    def test_restart_requires_durability(self):
        dep = Deployment.create(durable_params(), rng=random.Random(32))
        service = dep.recovery_service(transport="direct")
        with pytest.raises(ProviderError, match="durable"):
            service.restart()


# ---------------------------------------------------------------------------
# Durability x transport faults: crash while the provider leg is flaky
# ---------------------------------------------------------------------------
class TestCrashRestoreUnderFlakyChannel:
    """The durable provider crashes while client traffic rides a seeded
    FlakyProviderChannel — the two fault layers the chaos campaign mixes.
    Frame drops and corruption must never corrupt what the journal holds:
    restore from the survivor image must agree with an independent replay
    and serve fresh traffic."""

    # A recovery makes ~a dozen provider RPCs; ok_weight=60 keeps the
    # per-call fault rate ~10% so a visible fraction of sessions complete
    # while the rest die to injected faults (the schedule is seed-pinned).
    def _flaky_client(self, dep, params, username, seed, ok_weight=60):
        from repro.core.client import Client
        from repro.service.channel import ProviderWireEndpoint, direct_channels
        from repro.sim.faults import FlakyProviderChannel

        return Client(
            username=username,
            params=params,
            provider=FlakyProviderChannel(
                ProviderWireEndpoint(dep.provider), seed=seed, ok_weight=ok_weight
            ),
            channels=direct_channels(dep.fleet),
            mpk=dep.fleet.master_public_key(),
        )

    def _crash_mid_traffic_then_restore(self):
        """The three phases; callers pin the entropy, so which block put the
        armed crash lands on is a function of their seed."""
        import traceback

        from repro.core.client import RecoveryError
        from repro.core.wire import WireFormatError
        from repro.sim.faults import FrameDropped

        clean = (ProviderError, RecoveryError, WireFormatError, FrameDropped)
        store = CrashingBlockStore()
        params = durable_params()
        dep = Deployment.create(params, rng=random.Random(41), shards=SHARDS, store=store)

        # Phase 1: flaky traffic against the healthy store — some sessions
        # complete, some die to injected frame faults (all typed).
        recovered = []
        for i in range(10):
            client = self._flaky_client(dep, params, f"flaky-{i}", seed=100 + i)
            secret = b"secret-%d" % i
            try:
                client.backup(secret, "4242")
                assert client.recover("4242") == secret
                recovered.append(f"flaky-{i}")
            except clean:
                continue
        assert recovered, "fault schedule starved every session; adjust seeds"

        # Phase 2: arm the store and keep driving flaky traffic until the
        # provider process dies mid-write.
        store.crash_after(5)
        crash = None
        for i in range(40):
            client = self._flaky_client(dep, params, f"kill-{i}", seed=500 + i)
            try:
                client.backup(b"doomed", "1111")
                client.recover("1111")
            except CrashError as exc:
                crash = exc
                break
            except clean:
                continue
        assert crash is not None, "armed crash never fired"
        assert any(
            frame.name == "delete" and frame.filename.endswith("securedel.py")
            for frame in traceback.extract_tb(crash.__traceback__)
        ), "crash landed outside SecureDeletionTree.delete: re-pick the seeds"

        # Phase 3: restart from exactly the durably-written blocks.
        survivor = store.blocks
        restored = Deployment.restore(params, survivor, dep.fleet)

        # An independent journal replay agrees with the restored provider
        # (digest chain, counters, escrow) and no open intent survived.
        from repro.chaos.invariants import run_invariant_checks

        usernames = recovered + [f"kill-{i}" for i in range(3)]
        assert run_invariant_checks(
            restored.provider, usernames, {}, include_journal=True
        ) == []
        for username in usernames:
            assert restored.provider.next_attempt_number(
                username
            ) == restored.provider.scan_attempt_number(username)

        # Liveness: the restored deployment serves a fresh (healthy-channel)
        # client end to end.
        fresh = restored.new_client("post-crash", transport="direct")
        fresh.backup(b"post-crash-secret", "2468")
        assert fresh.recover("2468") == b"post-crash-secret"
        return restored

    # With the entropy pinned the armed crash (the 6th put after arming) is
    # reproducible — and on every seed tried (0..59 before PR 16, 0..23
    # after) it lands inside the first puncture's re-key (the ``delete``
    # frame of ``securedel.py``), which is several puts: the nodes already
    # rewritten are sealed under keys their parent never learned, so that
    # subtree of that HSM's key array is unreadable after restart.  Since
    # PR 16 a recovery that lands on the torn subtree no longer dies — the
    # union walk sees the bad tag before anything is decrypted, the device
    # refuses with a typed error and the client finishes from its other
    # shares — so post-crash traffic passes on every seed, and the torn
    # subtree has to be looked for directly.  One test per view:

    def test_crash_mid_traffic_on_flaky_leg_then_restore(self):
        """Seed 0: journal, counters and liveness all hold after a crash
        inside a re-key."""
        with DeterministicEntropy(0):
            self._crash_mid_traffic_then_restore()

    @pytest.mark.xfail(
        strict=True,
        raises=AuthenticationError,
        reason="torn key tree: ROADMAP item 1",
    )
    def test_crash_inside_delete_tears_the_key_tree(self):
        """Seed 3: after the restart every key-tree leaf must be readable
        or ``DeletedBlockError`` — the torn subtree's leaves die with a GCM
        tag mismatch instead.  Tracked, reproducible, and strict — the fix
        (an atomic or journaled re-key) must flip this to a pass."""
        with DeterministicEntropy(3):
            restored = self._crash_mid_traffic_then_restore()
        for device in restored.fleet.hsms:
            secret = device.extract_secrets().bfe_secret
            for slot in range(secret.params.num_slots):
                try:
                    secret.tree.read(slot)
                except DeletedBlockError:
                    pass
