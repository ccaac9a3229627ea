"""The Figure 5 update protocol: audits, aggregation, GC, catch-up."""

import dataclasses
import hashlib
import random

import pytest

from repro.crypto.bloom import BloomParams
from repro.crypto.ec import N, ECPoint
from repro.hsm.device import HsmDevice, HsmRefusedError
from repro.hsm.fleet import HsmFleet
from repro.log.authdict import verify_includes
from repro.log.distributed import (
    DistributedLog,
    LogConfig,
    LogUpdateRejected,
    SchnorrMultiSig,
    Transition,
    audit_chunk_indices,
    quorum_size,
)
from repro.log.sharded import ShardedLog

from multisig_rounds import certificate, run_rounds


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
        """What a quorum signs, captured from the module-level sharded
        message function before ``Transition.message`` replaced it.  An
        unsharded log signs the same message with shard 0 of 1 (it signed
        ``sha256(b"log-transition", old, new, root)``, 255b06b8…, until
        the arities were made one): ``hashing.sha256`` over the six parts,
        each after its 8-byte length, 172 bytes where the old one hashed
        142 — 3 blocks either way."""
        old, new, root = b"\xaa" * 32, b"\xbb" * 32, b"\xcc" * 32
        parts = (b"log-transition-shard", bytes(4), (1).to_bytes(4, "big"), old, new, root)
        spelled = b"".join(len(part).to_bytes(8, "big") + part for part in parts)
        assert len(spelled) == 172
        assert Transition(old, new, root).message() == hashlib.sha256(spelled).digest()
        assert Transition(old, new, root).message().hex() == (
            "63d71b227e82e7b7fe7a3019cdf78fec196a2d4a2b78e03c17635ecb2bf61cbd"
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

    @pytest.mark.parametrize("num_chunks", [0, -1])
    def test_round_without_chunks_is_refused(self, fleet, log, num_chunks):
        """A round that claims no chunks gives every device an empty audit
        set: unrefused, it would get any d' signed and adopted."""
        log.insert(b"nc", b"h")
        round_ = log.prepare_update(num_chunks=1)
        bad = dataclasses.replace(
            round_, new_digest=b"\x00" * 32, num_chunks=num_chunks, chunks=[]
        )
        before = [hsm.shard_digest(0) for hsm in fleet]
        for hsm in fleet.online():
            with pytest.raises(LogUpdateRejected, match="no chunks"):
                hsm.audit_log_update(bad)
        assert [hsm.shard_digest(0) for hsm in fleet] == before

    def test_bad_aggregate_signature_rejected(self, fleet, log):
        log.insert(b"z", b"h")
        round_ = log.prepare_update(num_chunks=1)
        aggregate, signers = run_rounds(fleet.online(), round_)
        # Tamper with the signer list (claim a different quorum)
        with pytest.raises(LogUpdateRejected):
            fleet[0].accept_log_digest(round_, aggregate, signers[:-1])

    def test_below_quorum_rejected(self, fleet, log):
        log.insert(b"q", b"h")
        round_ = log.prepare_update(num_chunks=1)
        few = list(fleet.online())[:2]
        aggregate, signers = run_rounds(few, round_)
        with pytest.raises(LogUpdateRejected):
            fleet[0].accept_log_digest(round_, aggregate, signers)

    def test_unknown_signer_rejected(self, fleet, log):
        log.insert(b"w", b"h")
        round_ = log.prepare_update(num_chunks=1)
        aggregate, signers = run_rounds(fleet.online(), round_)
        signers = signers[:-1] + (999,)
        with pytest.raises(LogUpdateRejected):
            fleet[0].accept_log_digest(round_, aggregate, signers)

    def test_duplicate_signer_rejected(self, fleet, log):
        log.insert(b"v", b"h")
        round_ = log.prepare_update(num_chunks=1)
        aggregate, signers = run_rounds(fleet.online(), round_)
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


def _quorum_fleet(num_hsms, quorum_fraction, num_shards=1):
    cfg = LogConfig(audit_count=2, quorum_fraction=quorum_fraction, num_shards=num_shards)
    params = BloomParams.for_punctures(4, failure_exponent=4)
    return HsmFleet(num_hsms, params, log_config=cfg, rng=random.Random(43)), ShardedLog(cfg)


def _run_epoch(fleet, log, tag):
    for i in range(2 * len(fleet)):
        log.insert(f"{tag}-{i}".encode(), b"h")
    log.run_update(fleet.hsms)


def _accept_verifications(monkeypatch):
    """Record each device's ``ecdsa_verify`` count per accept, by index."""
    accepts = {}
    original = HsmDevice.accept_log_digest

    def accept(self, round_, aggregate, signer_ids):
        before = self.meter.counts["ecdsa_verify"]
        original(self, round_, aggregate, signer_ids)
        accepts.setdefault(self.index, []).append(self.meter.counts["ecdsa_verify"] - before)

    monkeypatch.setattr(HsmDevice, "accept_log_digest", accept)
    return accepts


class TestQuorumCertificate:
    """A certificate carries the first ``quorum_size`` signers, the fewest a
    device accepts, however many devices audited; a device checks it once,
    whatever the quorum's size."""

    def test_twelve_devices_check_one_nine_signer_certificate_each(self, monkeypatch):
        fleet, log = _quorum_fleet(12, 0.75)
        assert quorum_size(0.75, 12) == 9
        accepts = _accept_verifications(monkeypatch)
        _run_epoch(fleet, log, "wide")
        (transition,) = log.shards[0].certified_transitions
        assert len(transition.signer_ids) == 9
        nonce, s = transition.aggregate
        assert isinstance(nonce, ECPoint) and 1 <= s < N
        assert transition.signer_ids == tuple(range(9))  # signer order
        assert accepts == {i: [1] for i in range(12)}
        assert all(hsm.log_digest == log.digest for hsm in fleet)

    @pytest.mark.parametrize(
        "num_hsms, quorum_fraction, num_shards",
        [(4, 0.6, 1), (6, 0.75, 2)],
        ids=["q0.6-N4", "q0.75-S2"],
    )
    def test_fractional_quorum_is_rounded_up(self, num_hsms, quorum_fraction, num_shards):
        """q·|C| is 2.4 and 2.25: a certificate needs 3 signers, so 3 are
        accepted by every committee device and 2 are refused."""
        fleet, log = _quorum_fleet(num_hsms, quorum_fraction, num_shards)
        _run_epoch(fleet, log, "first")
        for lane in log.shards:
            committee = log.committee(lane.shard_index, fleet.hsms)
            quorum = quorum_size(quorum_fraction, len(committee))
            assert quorum == 3
            (transition,) = lane.certified_transitions
            assert len(transition.signer_ids) == quorum
            assert all(h.shard_digest(lane.shard_index) == lane.digest for h in committee)

        for i in range(4 * num_shards):
            log.insert(f"second-{i}".encode(), b"h")
        assert log.shards_with_pending() == list(range(num_shards))
        for lane in log.shards:
            committee = log.committee(lane.shard_index, fleet.hsms)
            round_ = lane.prepare_update(num_chunks=len(committee))
            two = run_rounds(committee[:2], round_)
            three = run_rounds(committee[:3], round_)
            for hsm in committee:
                with pytest.raises(LogUpdateRejected, match="only 2 committee signers"):
                    hsm.accept_log_digest(round_, *two)
                hsm.accept_log_digest(round_, *three)
                assert hsm.shard_digest(lane.shard_index) == lane.digest

    def test_restarted_devices_adopt_the_quorum_certificate(self, monkeypatch):
        """Ten of twelve online still certify with nine; the two restarted
        devices adopt that certificate from their offer queue at the next
        epoch's audit, one check, then accept the new one."""
        fleet, log = _quorum_fleet(12, 0.75)
        down = [3, 7]
        for index in down:
            fleet[index].fail_stop()
        _run_epoch(fleet, log, "down")
        (missed,) = log.shards[0].certified_transitions
        assert len(missed.signer_ids) == 9
        assert not set(down) & set(missed.signer_ids)

        fleet.restart(down)
        before = {hsm.index: hsm.meter.counts["ecdsa_verify"] for hsm in fleet}
        accepts = _accept_verifications(monkeypatch)
        _run_epoch(fleet, log, "back")
        latest = log.shards[0].certified_transitions[-1]
        assert len(latest.signer_ids) == 9
        assert accepts == {i: [1] for i in range(12)}
        spent = {h.index: h.meter.counts["ecdsa_verify"] - before[h.index] for h in fleet}
        assert spent == {i: 2 if i in down else 1 for i in range(12)}
        assert all(hsm.log_digest == log.digest for hsm in fleet)


class TestMalformedAggregate:
    """The aggregate reaches a device from the untrusted provider (or a
    replayed journal record): any shape must be a typed rejection.  An
    "item" is one of the certificate's two, ``R`` and ``s``."""

    SHAPES = {
        "none": lambda cert, message: None,
        "int": lambda cert, message: 7,
        "item-none": lambda cert, message: (None, cert[1]),
        "item-short": lambda cert, message: (cert[0],),
        "item-str": lambda cert, message: (cert[0], str(cert[1])),
        "item-float": lambda cert, message: (cert[0], float(cert[1])),
        "item-bool": lambda cert, message: (cert[0], True),
        # A valid certificate over the right message, by a key outside the
        # signer directory.
        "item-rogue": lambda cert, message: certificate(
            [SchnorrMultiSig.keygen(random.Random(1))], message
        ),
        "items-swapped": lambda cert, message: (cert[1], cert[0]),
        "blob": lambda cert, message: bytes(97),  # the size of a BLS aggregate
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
            aggregate=self.SHAPES[shape](genuine.aggregate, genuine.message()),
        )
        laggard.offer_certified_transition(forged)
        with pytest.raises(LogUpdateRejected):
            laggard.log_digest
        assert laggard.log_digest == stale
        laggard.offer_certified_transition(genuine)
        assert laggard.log_digest == log.digest

    def test_malformed_item_meters_like_a_range_check_failure(self):
        """A bad ``s`` costs the one ``ecdsa_verify`` a failed check costs;
        an aggregate that is not an ``(R, s)`` pair costs none."""
        from repro.metering import metered

        scheme = SchnorrMultiSig
        keypairs = [scheme.keygen(random.Random(seed)) for seed in range(4)]
        key = scheme.aggregate_key(range(4), [kp.public for kp in keypairs])
        nonce, s = certificate(keypairs, b"m")
        for bad in (None, "a", 1.5, 0, N, s ^ 1):
            with metered() as meter:
                assert not scheme.verify_aggregate(key, b"m", (nonce, bad))
            assert meter.counts["ecdsa_verify"] == 1
        for aggregate in (None, 7, (ECPoint(None, None), s), (nonce,)):
            with metered() as meter:
                assert not scheme.verify_aggregate(key, b"m", aggregate)
            assert meter.counts["ecdsa_verify"] == 0  # not a certificate's shape


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
