"""The Figure 5 update protocol: audits, aggregation, GC, catch-up."""

import dataclasses
import random

import pytest

from repro.crypto.bloom import BloomParams
from repro.hsm.device import HsmRefusedError
from repro.hsm.fleet import HsmFleet
from repro.log.authdict import verify_includes
from repro.log.distributed import (
    DistributedLog,
    EcdsaMultiSig,
    LogConfig,
    LogUpdateRejected,
    Transition,
    audit_chunk_indices,
)
from repro.log.sharded import ShardedLog


CFG = LogConfig(audit_count=3, quorum_fraction=0.75, max_garbage_collections=2)


@pytest.fixture(scope="module")
def fleet():
    params = BloomParams.for_punctures(4, failure_exponent=4)
    return HsmFleet(8, params, log_config=CFG, rng=random.Random(1))


def _fresh(fleet, log):
    fleet.restart_all()
    # re-sync devices to a fresh empty log
    for hsm in fleet:
        hsm._shard_digests[0] = log.digest
        hsm.garbage_collections_seen = 0
    return log


@pytest.fixture
def log(fleet):
    return _fresh(fleet, DistributedLog(CFG))


class TestSignedBytes:
    def test_signed_message_bytes_are_pinned(self):
        """What a quorum signs, captured from the two module-level message
        functions before ``Transition.message`` replaced them:
        ``num_shards == 1`` is the legacy unsharded message."""
        old, new, root = b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32
        assert Transition(old, new, root).message().hex() == (
            "255b06b804420cb48bc4575794b11f7a9b698b96a6420a8fdf2b09ced1ca63b5"
        )
        sharded = Transition(old, new, root, shard=2, num_shards=4)
        assert sharded.message().hex() == (
            "2923099617b0200c64b59b9e060cb71b880815def7f9ba8db3ff76c35125fea6"
        )
        assert sharded.certified((), (1, 3)).message() == sharded.message()


class TestHappyPath:
    def test_update_propagates_digest(self, fleet, log):
        for i in range(12):
            log.insert(f"u{i}".encode(), b"h")
        log.run_update(fleet.hsms)
        for hsm in fleet:
            assert hsm.log_digest == log.digest

    def test_inclusion_proof_accepted_by_hsm_digest(self, fleet, log):
        log.insert(b"user", b"commitment")
        log.run_update(fleet.hsms)
        proof = log.prove_includes(b"user", b"commitment")
        assert verify_includes(fleet[0].log_digest, b"user", b"commitment", proof)

    def test_multiple_rounds(self, fleet, log):
        for round_no in range(3):
            for i in range(5):
                log.insert(f"r{round_no}-u{i}".encode(), b"h")
            log.run_update(fleet.hsms)
            assert fleet[0].log_digest == log.digest

    def test_empty_round(self, fleet, log):
        before = log.digest
        log.run_update(fleet.hsms)
        assert log.digest == before
        assert fleet[0].log_digest == before

    def test_duplicate_identifier_rejected_at_insert(self, fleet, log):
        log.insert(b"dup", b"v1")
        with pytest.raises(KeyError):
            log.insert(b"dup", b"v2")
        log.run_update(fleet.hsms)
        with pytest.raises(KeyError):
            log.insert(b"dup", b"v3")

    def test_pending_setter_rebuilds_duplicate_index(self, log):
        """The O(1) duplicate index must track wholesale replacement of the
        pending queue (rollback and adversarial subclasses assign it)."""
        log.insert(b"a", b"1")
        log.pending = [(b"b", b"2"), (b"c", b"3")]
        log.insert(b"a", b"1")  # no longer pending: fine again
        with pytest.raises(KeyError):
            log.insert(b"b", b"other")

    def test_pending_getter_is_a_snapshot(self, log):
        """In-place mutation of the returned list must not desync the
        duplicate index — the getter hands out a copy."""
        log.insert(b"snap", b"1")
        log.pending.clear()  # mutates the copy, not the queue
        assert log.pending == [(b"snap", b"1")]
        with pytest.raises(KeyError):
            log.insert(b"snap", b"2")  # still queued, still a duplicate

    def test_has_pending_tracks_queue_without_snapshot(self, log):
        """The O(1) emptiness probe the batcher polls every tick; it must
        agree with ``pending`` through insert, setter, and commit."""
        assert not log.has_pending
        log.insert(b"hp", b"1")
        assert log.has_pending
        log.pending = []
        assert not log.has_pending
        log.pending = [(b"hp2", b"2")]
        assert log.has_pending
        log.prepare_update(num_chunks=1)
        assert not log.has_pending

    def test_chunk_serialization_cached_and_forgery_visible(self, log):
        import dataclasses

        from repro.log.distributed import ChunkPackage

        log.insert(b"cs1", b"x")
        log.insert(b"cs2", b"y")
        round_ = log.prepare_update(num_chunks=1)
        package = round_.chunks[0]
        assert package.serialized_proofs() is package.serialized_proofs()  # cached
        assert package.proofs_consistent()
        assert package.wire_size() > 0
        forged = dataclasses.replace(package, proofs=package.proofs[:1])
        assert not forged.proofs_consistent()  # fresh cache, tamper detected


class TestAuditSelection:
    def test_deterministic(self):
        a = audit_chunk_indices(b"root", 3, 100, 8)
        assert a == audit_chunk_indices(b"root", 3, 100, 8)

    def test_depends_on_root_and_node(self):
        assert audit_chunk_indices(b"r1", 3, 100, 8) != audit_chunk_indices(b"r2", 3, 100, 8)
        assert audit_chunk_indices(b"r1", 3, 100, 8) != audit_chunk_indices(b"r1", 4, 100, 8)

    def test_distinct_and_in_range(self):
        picks = audit_chunk_indices(b"r", 0, 10, 6)
        assert len(set(picks)) == len(picks) == 6
        assert all(0 <= p < 10 for p in picks)

    def test_want_more_than_available(self):
        assert sorted(audit_chunk_indices(b"r", 0, 3, 10)) == [0, 1, 2]

    def test_zero_chunks(self):
        assert audit_chunk_indices(b"r", 0, 0, 4) == []


class TestTamperDetection:
    def test_forged_chunk_proofs_detected(self, fleet, log):
        for i in range(8):
            log.insert(f"t{i}".encode(), b"h")
        round_ = log.prepare_update(num_chunks=4)
        round_.chunks[2] = dataclasses.replace(round_.chunks[2], proofs=())
        rejected = 0
        for hsm in fleet.online():
            try:
                hsm.audit_log_update(round_)
            except LogUpdateRejected:
                rejected += 1
        assert rejected >= 1  # audit_count=3 of 4 chunks: overwhelming odds

    def test_wrong_base_digest_rejected(self, fleet, log):
        log.insert(b"x", b"h")
        round_ = log.prepare_update(num_chunks=2)
        bad = dataclasses.replace(round_, old_digest=b"\x00" * 32)
        with pytest.raises(LogUpdateRejected):
            fleet[0].audit_log_update(bad)

    def test_wrong_final_digest_rejected(self, fleet, log):
        log.insert(b"y", b"h")
        round_ = log.prepare_update(num_chunks=1)
        bad = dataclasses.replace(round_, new_digest=b"\x00" * 32)
        rejected = 0
        for hsm in fleet.online():
            try:
                hsm.audit_log_update(bad)
            except LogUpdateRejected:
                rejected += 1
        assert rejected == len(fleet.online())  # single chunk: all audit it

    def test_bad_aggregate_signature_rejected(self, fleet, log):
        log.insert(b"z", b"h")
        round_ = log.prepare_update(num_chunks=1)
        sigs = [h.audit_log_update(round_) for h in fleet.online()]
        aggregate = EcdsaMultiSig.aggregate(sigs)
        signers = tuple(h.index for h in fleet.online())
        # Tamper with the signer list (claim a different quorum)
        with pytest.raises(LogUpdateRejected):
            fleet[0].accept_log_digest(round_, aggregate, signers[:-1])

    def test_below_quorum_rejected(self, fleet, log):
        log.insert(b"q", b"h")
        round_ = log.prepare_update(num_chunks=1)
        few = list(fleet.online())[:2]
        sigs = [h.audit_log_update(round_) for h in few]
        aggregate = EcdsaMultiSig.aggregate(sigs)
        with pytest.raises(LogUpdateRejected):
            fleet[0].accept_log_digest(round_, aggregate, tuple(h.index for h in few))

    def test_unknown_signer_rejected(self, fleet, log):
        log.insert(b"w", b"h")
        round_ = log.prepare_update(num_chunks=1)
        sigs = [h.audit_log_update(round_) for h in fleet.online()]
        aggregate = EcdsaMultiSig.aggregate(sigs)
        signers = tuple(h.index for h in fleet.online())[:-1] + (999,)
        with pytest.raises(LogUpdateRejected):
            fleet[0].accept_log_digest(round_, aggregate, signers)

    def test_duplicate_signer_rejected(self, fleet, log):
        log.insert(b"v", b"h")
        round_ = log.prepare_update(num_chunks=1)
        sigs = [h.audit_log_update(round_) for h in fleet.online()]
        aggregate = EcdsaMultiSig.aggregate(sigs)
        signers = tuple(h.index for h in fleet.online())
        padded = signers[:-1] + (signers[0],)
        with pytest.raises(LogUpdateRejected):
            fleet[0].accept_log_digest(round_, aggregate, padded)


class TestFailureAndCatchUp:
    def test_update_succeeds_with_failed_hsm(self, fleet, log):
        fleet[5].fail_stop()
        try:
            log.insert(b"f1", b"h")
            log.run_update(fleet.hsms)
            assert fleet[0].log_digest == log.digest
            assert fleet[5].log_digest != log.digest
        finally:
            fleet[5].restart()

    def test_failed_certification_rolls_the_provider_back(self, fleet, log):
        """A quorum-less epoch must not leave the provider's digest ahead of
        the fleet: the insertions return to pending and a later epoch (once
        quorum is back) commits them."""
        log.insert(b"rb1", b"h")
        log.run_update(fleet.hsms)
        digest_before = log.digest
        for hsm in list(fleet)[:4]:  # 4/8 online < 0.75 quorum
            hsm.fail_stop()
        log.insert(b"rb2", b"h")
        with pytest.raises(LogUpdateRejected):
            log.run_update(fleet.hsms)
        assert log.digest == digest_before  # rolled back, not stranded ahead
        assert log.pending == [(b"rb2", b"h")]
        assert log.get(b"rb2") is None
        fleet.restart_all()
        log.run_update(fleet.hsms)  # the insertion rides the next epoch
        assert log.get(b"rb2") == b"h"
        assert fleet[0].log_digest == log.digest

    def test_hsm_failing_mid_accept_does_not_brick_the_log(self, fleet, log):
        """A device that fail-stops between signing and accepting d' must
        not strand the epoch: the transition is certified (a quorum
        signed), the survivors adopt d', and the victim catches up from the
        certified chain after restarting."""
        from repro.hsm.device import HsmUnavailableError

        log.insert(b"ma1", b"h")
        log.run_update(fleet.hsms)
        victim = fleet[3]

        def die_mid_accept(*args, **kwargs):
            victim.fail_stop()
            raise HsmUnavailableError("died between signing and accepting")

        victim.accept_log_digest = die_mid_accept
        try:
            log.insert(b"ma2", b"h")
            log.run_update(fleet.hsms)  # must succeed despite the mid-accept death
        finally:
            del victim.accept_log_digest
        assert log.get(b"ma2") == b"h"
        assert fleet[0].log_digest == log.digest
        assert victim.log_digest != log.digest
        victim.restart()
        log.insert(b"ma3", b"h")
        log.run_update(fleet.hsms)
        assert victim.log_digest == log.digest  # caught up via certified chain

    def test_rejoined_hsm_catches_up(self, fleet, log):
        fleet[6].fail_stop()
        log.insert(b"c1", b"h")
        log.run_update(fleet.hsms)
        log.insert(b"c2", b"h")
        log.run_update(fleet.hsms)
        fleet[6].restart()
        log.insert(b"c3", b"h")
        log.run_update(fleet.hsms)
        assert fleet[6].log_digest == log.digest


class TestMalformedAggregate:
    """The aggregate reaches a device from the untrusted provider (or a
    replayed journal record): any shape must be a typed rejection."""

    SHAPES = {
        "none": lambda sigs, message: None,
        "int": lambda sigs, message: 7,
        "item-none": lambda sigs, message: sigs[:-1] + (None,),
        "item-short": lambda sigs, message: sigs[:-1] + ((1,),),
        "item-str": lambda sigs, message: sigs[:-1] + (("a", 2),),
        "item-float": lambda sigs, message: sigs[:-1] + ((1.5, 2),),
        "item-bool": lambda sigs, message: sigs[:-1] + ((True, 2),),
        # A valid signature over the right message, by a key outside the
        # signer directory.
        "item-rogue": lambda sigs, message: sigs[:-1] + (
            EcdsaMultiSig.sign(EcdsaMultiSig.keygen(random.Random(1)).secret, message),
        ),
        "items-swapped": lambda sigs, message: (sigs[1], sigs[0]) + sigs[2:],
        "blob": lambda sigs, message: bytes(97),  # the size of a BLS aggregate
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_device_rejects_and_keeps_its_digest(self, fleet, log, shape):
        laggard = fleet[6]
        laggard.fail_stop()
        log.insert(b"mal-" + shape.encode(), b"h")
        log.run_update(fleet.hsms)
        laggard.restart()
        genuine = log.certified_transitions[-1]
        stale = laggard.log_digest
        assert stale == genuine.old_digest != log.digest
        forged = dataclasses.replace(
            genuine,
            aggregate=self.SHAPES[shape](tuple(genuine.aggregate), genuine.message()),
        )
        with pytest.raises(LogUpdateRejected):
            laggard.accept_certified_transition(forged)
        assert laggard.log_digest == stale
        laggard.accept_certified_transition(genuine)
        assert laggard.log_digest == log.digest

    def test_malformed_item_meters_like_a_range_check_failure(self):
        """One ``ecdsa_verify`` per item up to and including the bad one."""
        from repro.metering import metered

        scheme = EcdsaMultiSig
        keys = [scheme.keygen(random.Random(seed)) for seed in range(4)]
        sigs = [scheme.sign(kp.secret, b"m") for kp in keys]
        for bad in (None, (1,), ("a", 2), (1.5, 2), (0, 1)):
            with metered() as meter:
                assert not scheme.verify_aggregate(keys, b"m", sigs[:2] + [bad] + sigs[3:])
            assert meter.counts["ecdsa_verify"] == 3
        for aggregate in (None, 7):
            with metered() as meter:
                assert not scheme.verify_aggregate(keys, b"m", aggregate)
            assert meter.counts["ecdsa_verify"] == 0  # as a wrong-length aggregate


class TestGarbageCollection:
    @pytest.fixture
    def log(self, fleet):
        """GC belongs to the provider's log: a one-shard ShardedLog."""
        return _fresh(fleet, ShardedLog(CFG))

    def test_gc_resets_log(self, fleet, log):
        log.insert(b"g1", b"h")
        log.run_update(fleet.hsms)
        log.garbage_collect(fleet.hsms)
        assert log.digest == ShardedLog(CFG).digest
        assert fleet[0].log_digest == log.digest
        # the old log is archived for auditors
        assert [e for e in log.archived_logs[-1]] == [(b"g1", b"h")]
        # the identifier is reusable after GC
        log.insert(b"g1", b"h2")
        log.run_update(fleet.hsms)

    def test_laggard_after_gc_is_replayed_the_newest_generation(self, fleet, log):
        """Every GC restarts the certified chain at the empty digest, so a
        device that sat through the GC and missed the first epoch after it
        must be replayed from the *latest* transition starting there.
        Replaying the archived generation strands it on the collected log's
        final digest, and it then refuses every later epoch."""
        for identifier in (b"gen1-a", b"gen1-b"):
            log.insert(identifier, b"h")
            log.run_update(fleet.hsms)
        log.garbage_collect(fleet.hsms)
        laggard = fleet[5]
        laggard.fail_stop()
        log.insert(b"gen2-a", b"h")
        log.run_update(fleet.hsms)
        laggard.restart()
        for identifier in (b"gen2-b", b"gen2-c"):
            log.insert(identifier, b"h")
            log.run_update(fleet.hsms)
            assert laggard.log_digest == log.digest

    def test_gc_budget_enforced(self, fleet, log):
        log.garbage_collect(fleet.hsms)
        log.garbage_collect(fleet.hsms)
        with pytest.raises(HsmRefusedError):
            log.garbage_collect(fleet.hsms)
