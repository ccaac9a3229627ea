"""The sharded log: routing, determinism, lane isolation, audits.

Covers the three claims the sharded design stands on:

1. **Determinism** — a fixed seeded workload produces byte-identical shard
   digests and cross-shard root no matter how the lanes are scheduled
   (sequential, shuffled, or truly parallel through the service's lane
   workers), because shard content depends only on the insertion stream.
2. **Invariance at one shard** — the shard-aware refactor of the device
   and log code meters *exactly* the seed's operation counts for an
   unsharded deployment (workload and constants in
   ``unsharded_invariance.py``, captured from the pre-refactor tree).
3. **Isolation** — a shard whose epoch fails rolls back and fails alone;
   sibling lanes commit, and the write-once guarantee never spans lanes
   incorrectly (an identifier belongs to exactly one shard).
"""

import dataclasses
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.entropy import DeterministicEntropy
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError
from repro.core.wire import PROOF_PLAIN, encode_inclusion_proof
from repro.hsm.device import HsmRefusedError, HsmStaleProofError
from repro.log import AuditFailure, ExternalAuditor
from repro.log.authdict import AuthenticatedDictionary, verify_includes
from repro.log.distributed import DistributedLog, LogConfig, LogUpdateRejected
from repro.log.sharded import CrossShardRoot, ShardedLog, cross_shard_root, shard_of
from repro.metering import OpMeter
from unsharded_invariance import invariance_counts, invariance_deployment, invariance_moved

SHARDS = 4


def small_params(**kwargs) -> SystemParams:
    defaults = dict(num_hsms=8, cluster_size=3, max_punctures=48)
    defaults.update(kwargs)
    return SystemParams.for_testing(**defaults)


def fixed_workload(count: int = 48):
    """A deterministic insertion stream (identifier, value) pairs."""
    return [
        (b"rec|det-user-%d|0" % i, b"commitment-%d" % i) for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Routing and the cross-shard root
# ---------------------------------------------------------------------------
class TestShardRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for i in range(200):
            identifier = b"id-%d" % i
            shard = shard_of(identifier, SHARDS)
            assert 0 <= shard < SHARDS
            assert shard == shard_of(identifier, SHARDS)

    def test_single_shard_short_circuits_without_hashing(self):
        meter = OpMeter()
        with meter.attached():
            assert shard_of(b"anything", 1) == 0
        assert meter.snapshot().get("sha256_block", 0) == 0

    def test_workload_spreads_across_shards(self):
        shards = {shard_of(identifier, SHARDS) for identifier, _ in fixed_workload(64)}
        assert shards == set(range(SHARDS))

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_one_log_type_at_every_arity(self, shards):
        """The provider's log is a ShardedLog at every S; at S = 1 its
        anchor is the lane digest, and at every S a proof is the lane's
        plain proof."""
        params = dataclasses.replace(
            SystemParams.for_testing(num_hsms=4, cluster_size=2), log_shards=shards
        )
        dep = Deployment.create(params, rng=random.Random(60 + shards))
        log = dep.provider.log
        assert isinstance(log, ShardedLog) and len(log.shards) == shards
        log.insert(b"rec|arity|0", b"h-arity")
        log.run_update(dep.fleet.hsms)
        assert log.digest == cross_shard_root(log.shard_digests)
        assert all(hsm.log_digest == log.digest for hsm in dep.fleet.hsms)
        proof = log.prove_includes(b"rec|arity|0", b"h-arity")
        assert encode_inclusion_proof(proof)[0] == PROOF_PLAIN
        lane_digest = log.shard_for(b"rec|arity|0").digest
        assert verify_includes(lane_digest, b"rec|arity|0", b"h-arity", proof)
        if shards == 1:
            assert log.digest == lane_digest

    def test_proof_is_none_until_its_lane_commits(self):
        log = ShardedLog(LogConfig(num_shards=SHARDS))
        log.insert(b"rec|pending|0", b"h-pending")
        assert log.prove_includes(b"rec|pending|0", b"h-pending") is None
        for k in log.shards_with_pending():
            log.shards[k].prepare_update(num_chunks=1)
        proof = log.prove_includes(b"rec|pending|0", b"h-pending")
        lane_digest = log.shard_for(b"rec|pending|0").digest
        assert verify_includes(lane_digest, b"rec|pending|0", b"h-pending", proof)
        assert log.prove_includes(b"rec|pending|0", b"h-other") is None

    def test_duplicate_check_spans_pending_and_committed(self):
        log = ShardedLog(LogConfig(num_shards=SHARDS))
        log.insert(b"dup", b"v1")
        with pytest.raises(KeyError):
            log.insert(b"dup", b"v2")


@pytest.fixture(scope="module")
def sharded_deployment():
    return Deployment.create(small_params(), rng=random.Random(41), shards=SHARDS)


class TestCrossShardAnchor:
    def test_device_anchor_matches_published_root(self, sharded_deployment):
        dep = sharded_deployment
        log = dep.provider.log
        assert dep.fleet[0].log_digest == log.digest
        assert log.digest == cross_shard_root(log.shard_digests)

    def test_lane_proof_verifies_only_under_its_lane_digest(self, sharded_deployment):
        """What a device checks: the proof against its own digest for the
        lane the identifier routes to — no other lane's, and not the root."""
        dep = sharded_deployment
        log = dep.provider.log
        log.insert(b"rec|anchor|0", b"h-anchor")
        log.run_update(dep.fleet.hsms)
        proof = log.prove_includes(b"rec|anchor|0", b"h-anchor")
        lane = shard_of(b"rec|anchor|0", SHARDS)
        device = dep.fleet[0]
        assert device.log_digest == log.digest  # adopts any offered epochs
        assert verify_includes(device.shard_digest(lane), b"rec|anchor|0", b"h-anchor", proof)
        for other in range(SHARDS):
            if other != lane:
                assert not verify_includes(
                    device.shard_digest(other), b"rec|anchor|0", b"h-anchor", proof
                )
        assert not verify_includes(log.digest, b"rec|anchor|0", b"h-anchor", proof)

    def test_every_lane_digest_moves_the_root(self):
        """The auditors' anchor binds each lane's digest and its place."""
        digests = [bytes([k]) * 32 for k in range(SHARDS)]
        root = cross_shard_root(digests)
        for k in range(SHARDS):
            forged = list(digests)
            forged[k] = b"\xee" * 32
            assert cross_shard_root(forged) != root
        swapped = [digests[1], digests[0]] + digests[2:]
        assert cross_shard_root(swapped) != root


# ---------------------------------------------------------------------------
# Incremental root maintenance: byte-identical to the from-scratch recompute
# ---------------------------------------------------------------------------
class TestIncrementalRoot:
    """``ShardedLog.digest`` is maintained with O(log S) path updates; it
    — and a bare :class:`CrossShardRoot` fed the same digest moves — must
    stay byte-identical to :func:`cross_shard_root` recomputed from scratch
    after *any* mutation sequence."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_root_matches_scratch_after_any_dirty_sequence(self, data):
        num_shards = data.draw(st.sampled_from([2, 3, 5, 8]))
        log = ShardedLog(LogConfig(num_shards=num_shards))
        bare = CrossShardRoot()
        committed = {}
        counter = 0
        for _ in range(data.draw(st.integers(1, 10))):
            op = data.draw(st.sampled_from(["commit", "wipe", "read"]))
            if op == "commit":
                for _ in range(data.draw(st.integers(1, 4))):
                    identifier = b"prop|%d|0" % counter
                    value = b"v-%d" % counter
                    counter += 1
                    log.insert(identifier, value)
                    committed[identifier] = value
                for k in log.shards_with_pending():
                    log.shards[k].prepare_update(num_chunks=1)
            elif op == "wipe":
                # GC-style reset of one lane by direct mutation: the
                # compare-on-read dirtiness check must pick it up even
                # though no ShardedLog method was called.
                k = data.draw(st.integers(0, num_shards - 1))
                log.shards[k].dict = AuthenticatedDictionary()
                log.shards[k].ordered_entries = []
                committed = {
                    i: v
                    for i, v in committed.items()
                    if shard_of(i, num_shards) != k
                }
            digests = log.shard_digests
            assert log.digest == bare.root(digests) == cross_shard_root(digests)
        for identifier, value in committed.items():
            proof = log.prove_includes(identifier, value)
            assert proof is not None
            assert verify_includes(log.shard_for(identifier).digest, identifier, value, proof)


# ---------------------------------------------------------------------------
# Determinism across lane scheduling
# ---------------------------------------------------------------------------
class TestShardDeterminism:
    @staticmethod
    def _fresh(seed: int = 51) -> Deployment:
        # Identical rng => identical keys => identical membership entries,
        # so digests are comparable across deployments.
        return Deployment.create(small_params(), rng=random.Random(seed), shards=SHARDS)

    def test_digests_identical_across_runs_and_lane_orders(self):
        roots = []
        digest_sets = []
        for schedule in ("sequential", "sequential", "reversed", "shuffled"):
            dep = self._fresh()
            log = dep.provider.log
            for identifier, value in fixed_workload():
                log.insert(identifier, value)
            lanes = log.shards_with_pending()
            if schedule == "reversed":
                lanes = list(reversed(lanes))
            elif schedule == "shuffled":
                random.Random(99).shuffle(lanes)
            for shard in lanes:
                log.run_shard_update(shard, dep.fleet.hsms)
            digest_sets.append([d.hex() for d in log.shard_digests])
            roots.append(log.digest.hex())
        assert len(set(roots)) == 1
        assert all(ds == digest_sets[0] for ds in digest_sets)

    def test_parallel_lanes_match_sequential_digests(self):
        sequential = self._fresh()
        log_a = sequential.provider.log
        for identifier, value in fixed_workload():
            log_a.insert(identifier, value)
        log_a.run_update(sequential.fleet.hsms)

        parallel = self._fresh()
        service = parallel.recovery_service()
        log_b = parallel.provider.log
        for identifier, value in fixed_workload():
            log_b.insert(identifier, value)
        service.pool.start()
        try:
            outcomes = service.run_shard_epochs(log_b.shards_with_pending())
        finally:
            service.stop()
        assert all(error is None for error in outcomes.values())
        assert log_b.shard_digests == log_a.shard_digests
        assert log_b.digest == log_a.digest
        # Devices in both deployments converged on the same anchor.
        assert parallel.fleet[0].log_digest == sequential.fleet[0].log_digest


# ---------------------------------------------------------------------------
# Metering invariance at shards=1 (the seed's exact operation counts)
# ---------------------------------------------------------------------------
class TestUnshardedInvariance:
    # The workload and its constants are unsharded_invariance's, shared
    # with benchmarks/bench_sharded_epochs.py.
    def test_seed_counts_and_digest_unchanged(self):
        dep = invariance_deployment()
        assert isinstance(dep.provider.log, ShardedLog)
        assert invariance_moved(*invariance_counts(dep)) == []


# ---------------------------------------------------------------------------
# Lane isolation: one bad shard never takes the others down
# ---------------------------------------------------------------------------
class TestLaneIsolation:
    def test_failed_shard_rolls_back_alone(self):
        dep = Deployment.create(small_params(), rng=random.Random(61), shards=SHARDS)
        log = dep.provider.log
        for identifier, value in fixed_workload(32):
            log.insert(identifier, value)
        lanes = log.shards_with_pending()
        poisoned = lanes[0]
        digests_before = log.shard_digests
        pending_before = {k: len(log.shards[k].pending) for k in lanes}

        original = log.shards[poisoned].certify_round

        def sabotage(round_, hsms):
            raise LogUpdateRejected("injected shard failure")

        log.shards[poisoned].certify_round = sabotage
        try:
            with pytest.raises(LogUpdateRejected):
                log.run_update(dep.fleet.hsms)
        finally:
            log.shards[poisoned].certify_round = original

        # The poisoned shard rolled back: digest unchanged, insertions
        # re-queued.  Every sibling lane committed.
        assert log.shards[poisoned].digest == digests_before[poisoned]
        assert len(log.shards[poisoned].pending) == pending_before[poisoned]
        for lane in lanes:
            if lane == poisoned:
                continue
            assert log.shards[lane].digest != digests_before[lane]
            assert not log.shards[lane].pending
        # The next epoch commits the re-queued insertions.
        log.run_update(dep.fleet.hsms)
        assert not log.pending
        assert dep.fleet[0].log_digest == log.digest

    def test_batched_service_fails_only_the_bad_lane(self):
        dep = Deployment.create(small_params(), rng=random.Random(62), shards=SHARDS)
        service = dep.recovery_service(lease_timeout=5.0)
        log = dep.provider.log
        # Find usernames landing on two different shards.
        users = {}
        for i in range(64):
            name = f"lane-{i}"
            users.setdefault(shard_of(b"rec|%s|0" % name.encode(), SHARDS), name)
            if len(users) >= 2:
                break
        (bad_shard, bad_user), (_, good_user) = sorted(users.items())[:2]

        original = log.shards[bad_shard].certify_round
        log.shards[bad_shard].certify_round = lambda *a: (_ for _ in ()).throw(
            LogUpdateRejected("injected lane failure")
        )
        service.pool.start()
        try:
            bad = service.batcher.submit(bad_user, 0, b"h-bad")
            good = service.batcher.submit(good_user, 0, b"h-good")
            served = service.tick()
            assert served == 1
            identifier, proof = good.wait(timeout=5)
            assert verify_includes(log.shard_for(identifier).digest, identifier, b"h-good", proof)
            with pytest.raises(ProviderError):
                bad.wait(timeout=5)
            stats_failures = service.batcher.epoch_failures
            assert stats_failures == 1
            assert service.batcher.epochs_run >= 1
        finally:
            log.shards[bad_shard].certify_round = original
            service.stop()
            service.batcher.release(good_user, 0)


# ---------------------------------------------------------------------------
# Device-side shard checks
# ---------------------------------------------------------------------------
class TestDeviceShardChecks:
    def test_wrong_arity_round_rejected(self, sharded_deployment):
        unsharded = DistributedLog(LogConfig(audit_count=2))
        unsharded.insert(b"foreign", b"v")
        round_ = unsharded.prepare_update(num_chunks=1)
        with pytest.raises(LogUpdateRejected, match="shard"):
            sharded_deployment.fleet[0].audit_log_update(round_)

    def test_proof_under_another_digest_reads_as_stale(self, sharded_deployment):
        """A genuine proof under a digest the device does not hold for the
        identifier's lane (here one from a log holding only this entry)
        asks for a refresh — the client retry path."""
        dep = sharded_deployment
        client = dep.new_client("other-digest")
        client.backup(b"x", pin="2222")
        session = client.begin_recovery("2222", backup_recovery_key=False)
        alone = AuthenticatedDictionary()
        alone.insert(session.log_identifier, session.commitment)
        session.inclusion_proof = alone.prove_includes(session.log_identifier, session.commitment)
        request = client._share_request(session, 0)
        with pytest.raises(HsmStaleProofError):
            dep.fleet[session.cluster[0]].decrypt_share(request)

    def test_shard_shopping_is_refused(self):
        """A genuine proof from a lane the identifier does not route to is
        refused: the device routes the identifier itself, so write-once
        never spans lanes.  A deployment of its own: the misrouted entry
        would fail later audits of the shared one."""
        dep = Deployment.create(small_params(), rng=random.Random(43), shards=SHARDS)
        log = dep.provider.log
        client = dep.new_client("shard-shopper")
        with DeterministicEntropy(43):  # a cluster of >= t distinct devices
            client.backup(b"payload", pin="1111")
        session = client.begin_recovery("1111", backup_recovery_key=False)
        identifier, commitment = session.log_identifier, session.commitment
        foreign = (shard_of(identifier, SHARDS) + 1) % SHARDS
        log.shards[foreign].insert(identifier, commitment)
        log.run_shard_update(foreign, dep.fleet.hsms)
        shopped = log.shards[foreign].prove_includes(identifier, commitment)
        assert verify_includes(log.shards[foreign].digest, identifier, commitment, shopped)
        device = dep.fleet[session.cluster[0]]
        # The device adopts the foreign lane's epoch too, so it holds the
        # digest the shopped proof verifies under.
        assert device.log_digest == log.digest
        honest = session.inclusion_proof
        session.inclusion_proof = shopped
        request = client._share_request(session, 0)
        with pytest.raises(HsmRefusedError):
            device.decrypt_share(request)
        # Restore the honest proof: recovery then completes.
        session.inclusion_proof = honest
        obtained = client.request_shares(session, "1111")
        assert obtained >= dep.params.threshold
        assert client.finish_recovery(session) == b"payload"


# ---------------------------------------------------------------------------
# Membership events in a log sharded at provisioning
# ---------------------------------------------------------------------------
class TestReshardMigration:
    def test_membership_events_keep_flowing_after_reshard(self):
        """A log's shard count is fixed at genesis; membership events keep
        landing in it: a rotation event logged into the sharded log still
        verifies against the published keys."""
        dep = Deployment.create(small_params(), rng=random.Random(74), shards=SHARDS)
        assert isinstance(dep.provider.log, ShardedLog)
        dep.verify_published_keys()
        info = dep.fleet[0].rotate_keys()
        dep.membership.record_rotation(info)
        dep.provider.log.run_update(dep.fleet.hsms)
        dep.verify_published_keys()
        assert dep.fleet[0].log_digest == dep.provider.log.digest


# ---------------------------------------------------------------------------
# Sharded audits
# ---------------------------------------------------------------------------
class TestShardedAudits:
    def _audited_log(self, shards=SHARDS):
        log = ShardedLog(LogConfig(num_shards=shards))
        for identifier, value in fixed_workload(24):
            log.shard_for(identifier).dict.insert(identifier, value)
            log.shard_for(identifier).ordered_entries.append((identifier, value))
        return log

    def test_honest_snapshot_passes(self):
        for shards in (SHARDS, 1):
            log = self._audited_log(shards)
            ExternalAuditor().audit_sharded_snapshot(log.shard_entries(), log.digest)
        # ``log`` is the one-shard log here: the unsharded audit spelling
        ExternalAuditor().audit_snapshot(log.ordered_entries, log.digest)

    def test_tampered_value_detected(self):
        for shards in (SHARDS, 1):
            log = self._audited_log(shards)
            entries = log.shard_entries()
            lane = min(1, shards - 1)
            entries[lane][0] = (entries[lane][0][0], b"forged")
            with pytest.raises(AuditFailure):
                ExternalAuditor().audit_sharded_snapshot(entries, log.digest)
        with pytest.raises(AuditFailure):
            ExternalAuditor().audit_snapshot(entries[0], log.digest)

    def test_misplaced_entry_detected(self):
        log = self._audited_log()
        entries = log.shard_entries()
        donor = next(k for k, es in enumerate(entries) if es)
        target = (donor + 1) % SHARDS
        entries[target].append(entries[donor].pop(0))
        with pytest.raises(AuditFailure, match="hashes"):
            ExternalAuditor().audit_sharded_snapshot(entries, log.digest)


# ---------------------------------------------------------------------------
# Committee certification and lazy foreign adoption
# ---------------------------------------------------------------------------
class TestCommitteeCertification:
    def test_device_and_provider_agree_on_committees(self, sharded_deployment):
        dep = sharded_deployment
        log = dep.provider.log
        for shard in range(SHARDS):
            provider_side = [h.index for h in log.committee(shard, dep.fleet.hsms)]
            assert provider_side == dep.fleet[0].committee_for(shard)
            assert all(i % SHARDS == shard for i in provider_side)

    def test_foreign_devices_adopt_lazily(self):
        dep = Deployment.create(small_params(), rng=random.Random(101), shards=SHARDS)
        log = dep.provider.log
        # Commit one epoch on a single shard only.
        identifier = b"rec|lazy-adoption|0"
        shard = shard_of(identifier, SHARDS)
        log.insert(identifier, b"h-lazy")
        log.run_shard_update(shard, dep.fleet.hsms)
        committee = {h.index for h in log.committee(shard, dep.fleet.hsms)}
        foreign = next(h for h in dep.fleet.hsms if h.index not in committee)
        member = next(h for h in dep.fleet.hsms if h.index in committee)
        # The committee member adopted eagerly; the foreign device still
        # holds the queued offer and a stale raw shard digest.
        assert member.shard_digest(shard) == log.shards[shard].digest
        assert foreign.shard_digest(shard) != log.shards[shard].digest
        # Reading the anchor verifies + applies the offer.
        assert foreign.log_digest == log.digest
        assert foreign.shard_digest(shard) == log.shards[shard].digest

    def test_stale_offer_is_dropped_and_bogus_offer_rejected(self):
        from repro.log.distributed import CertifiedTransition

        dep = Deployment.create(small_params(), rng=random.Random(102), shards=SHARDS)
        foreign = dep.fleet[1]
        shard = next(k for k in range(SHARDS) if foreign.index % SHARDS != k)

        # A stale offer (does not extend the device's chain) is dropped.
        stale = CertifiedTransition(
            old_digest=b"\xaa" * 32,
            new_digest=b"\xbb" * 32,
            root=b"\xcc" * 32,
            aggregate=(),
            signer_ids=(),
            shard=shard,
            num_shards=SHARDS,
        )
        foreign.offer_certified_transition(stale)
        assert isinstance(foreign.log_digest, bytes)  # no exception

        # A forged offer that *claims* to extend the chain is an attack:
        # verification fails loudly.
        forged = CertifiedTransition(
            old_digest=foreign.shard_digest(shard),
            new_digest=b"\xbb" * 32,
            root=b"\xcc" * 32,
            aggregate=(),
            signer_ids=(),
            shard=shard,
            num_shards=SHARDS,
        )
        foreign.offer_certified_transition(forged)
        with pytest.raises(LogUpdateRejected):
            foreign.log_digest

    def test_off_committee_signers_cannot_certify_a_shard(self):
        """Compromised devices from *other* committees must not be able to
        forge a shard's transitions: quorum counts committee members only."""
        from repro.crypto.ec import ECKeyPair
        from repro.log.distributed import CertifiedTransition, Transition
        from multisig_rounds import certificate

        dep = Deployment.create(small_params(), rng=random.Random(104), shards=SHARDS)
        victim = dep.fleet[0]  # shard 0's committee is {0, 4}
        stolen = [dep.fleet[i].extract_secrets() for i in (1, 2)]  # off-committee
        old = victim.shard_digest(0)
        fake_new, root = b"\xab" * 32, b"\xcd" * 32
        message = Transition(old, fake_new, root, 0, SHARDS).message()
        keypairs = [
            ECKeyPair(s.sig_secret, dep.fleet[s.index].public_info().sig_public) for s in stolen
        ]
        forged = CertifiedTransition(
            old_digest=old,
            new_digest=fake_new,
            root=root,
            aggregate=certificate(keypairs, message),
            signer_ids=(1, 2),
            shard=0,
            num_shards=SHARDS,
        )
        # A valid two-signer certificate — a fleet-wide count would accept it
        # (0.75 * committee of 2 -> 1.5), but neither signer is on committee 0.
        victim.offer_certified_transition(forged)
        with pytest.raises(LogUpdateRejected, match="committee"):
            victim.log_digest
        assert victim.shard_digest(0) == old

    def test_shed_offers_heal_next_epoch(self):
        """A device that lost queued offers (overflow / dropped forgery) is
        re-fed the missing chain suffix by the next epoch's frontier check —
        lag, never a permanent gap."""
        dep = Deployment.create(small_params(), rng=random.Random(105), shards=SHARDS)
        log = dep.provider.log
        identifier = b"rec|heal-a|0"
        shard = shard_of(identifier, SHARDS)
        log.insert(identifier, b"h1")
        log.run_shard_update(shard, dep.fleet.hsms)
        committee = {h.index for h in log.committee(shard, dep.fleet.hsms)}
        foreign = next(h for h in dep.fleet.hsms if h.index not in committee)
        # Simulate shed offers: wipe this shard's queue (genesis + first
        # epoch) before the device ever synced it.
        with foreign._offer_lock:
            foreign._offers.pop(shard, None)
        # Next epoch on the same shard offers the full missing suffix.
        second = next(
            b"rec|heal-%d|0" % i
            for i in range(256)
            if shard_of(b"rec|heal-%d|0" % i, SHARDS) == shard
        )
        log.insert(second, b"h2")
        log.run_shard_update(shard, dep.fleet.hsms)
        assert foreign.log_digest == log.digest  # gap healed, chain replayed

    def test_committee_quorum_enforced(self):
        dep = Deployment.create(small_params(), rng=random.Random(103), shards=SHARDS)
        log = dep.provider.log
        identifier = b"rec|quorum|0"
        shard = shard_of(identifier, SHARDS)
        log.insert(identifier, b"h")
        log.run_shard_update(shard, dep.fleet.hsms)
        genuine = log.shards[shard].certified_transitions[-1]
        import dataclasses

        # Strip the aggregate down to a single signer: below the committee
        # quorum (0.75 * committee size 2 -> needs 2), so devices refuse.
        unders = dataclasses.replace(
            genuine,
            signer_ids=genuine.signer_ids[:1],
            aggregate=genuine.aggregate[:1],
        )
        lagging = Deployment.create(
            small_params(), rng=random.Random(103), shards=SHARDS
        )  # same seed: same keys, same pre-epoch digests
        victim = lagging.fleet[int(genuine.signer_ids[0])]
        old = victim.shard_digest(shard)
        victim.offer_certified_transition(unders)
        with pytest.raises(LogUpdateRejected, match="signers"):
            victim.log_digest
        assert victim.shard_digest(shard) == old


# ---------------------------------------------------------------------------
# Sharded garbage collection
# ---------------------------------------------------------------------------
class TestShardedGarbageCollection:
    def test_gc_resets_every_lane_and_charges_once(self):
        dep = Deployment.create(small_params(), rng=random.Random(81), shards=SHARDS)
        log = dep.provider.log
        for identifier, value in fixed_workload(16):
            log.insert(identifier, value)
        log.run_update(dep.fleet.hsms)
        seen_before = dep.fleet[0].garbage_collections_seen
        dep.garbage_collect_log()
        assert dep.fleet[0].garbage_collections_seen == seen_before + 1
        assert log.garbage_collections == 1
        empty = ShardedLog(LogConfig(num_shards=SHARDS))
        assert log.digest == empty.digest
        assert dep.fleet[0].log_digest == log.digest
        assert log.archived_logs[-1]  # history preserved for auditors

    def test_post_gc_offers_are_the_newest_generation_only(self):
        """A GC wipes every device's digests and offer queues and restarts
        every chain at the empty digest: the next epoch must offer an
        off-committee device the newest generation's suffix — not the
        archived chain, which also starts at the empty digest."""
        dep = Deployment.create(small_params(), rng=random.Random(82), shards=SHARDS)
        log = dep.provider.log
        same_lane = [
            i for i in (b"rec|gen-%d|0" % n for n in range(256)) if shard_of(i, SHARDS) == 1
        ]
        foreign = dep.fleet[0]  # on shard 0's committee, so off shard 1's
        for identifier in same_lane[:2]:
            log.insert(identifier, b"h")
            log.run_shard_update(1, dep.fleet.hsms)
        dep.garbage_collect_log()
        log.insert(same_lane[2], b"h")
        log.run_shard_update(1, dep.fleet.hsms)
        with foreign._offer_lock:
            offered = list(foreign._offers[1])
        assert offered == log.shards[1].certified_transitions[-1:]
        assert foreign.log_digest == log.digest


# ---------------------------------------------------------------------------
# Concurrent sessions over lanes (integration, small)
# ---------------------------------------------------------------------------
class TestShardedService:
    def test_concurrent_recoveries_across_lanes(self):
        dep = Deployment.create(small_params(), rng=random.Random(91), shards=SHARDS)
        service = dep.recovery_service(tick_interval=0.01, lease_timeout=5.0)
        clients = [service.new_client(f"lanes-{i}") for i in range(6)]
        errors = []

        def run(i):
            try:
                clients[i].backup(b"m%d" % i, pin="1111")
                assert clients[i].recover("1111") == b"m%d" % i
            except Exception as exc:  # noqa: BLE001
                errors.append((i, repr(exc)))

        with service:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        stats = service.stats()
        assert stats["shard_lanes"] == SHARDS
        assert stats["sessions_served"] == 6
        assert stats["epoch_failures"] == 0
        assert sum(stats["epoch_sessions"]) == 6
