"""Key rotation (§9.1) and log garbage collection (§6.2) at system level."""

import dataclasses
import random

import pytest

from repro.chaos.entropy import DeterministicEntropy
from repro.core.client import RecoveryError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.hsm.device import HsmRefusedError
from repro.log.distributed import LogUpdateRejected
from repro.log.membership import MembershipViolation
from test_crash_recovery import seeded_backup


@pytest.fixture
def tiny_deployment():
    """Very small Bloom keys so rotation triggers after a few recoveries."""
    params = SystemParams.for_testing(
        num_hsms=8, cluster_size=3, max_punctures=2, bloom_failure_exponent=3
    )
    return Deployment.create(params, rng=random.Random(21))


class TestRotation:
    def test_rotation_triggers_after_wear(self, tiny_deployment):
        dep = tiny_deployment
        rotated = []
        for i in range(8):
            client = dep.new_client(f"wear{i}")
            client.backup(b"data", pin="1234")
            assert client.recover(pin="1234") == b"data"
            rotated.extend(dep.rotate_keys_if_needed())
        assert rotated  # some HSM wore out and rotated

    def test_rotation_bumps_epochs_and_updates_clients(self, tiny_deployment):
        dep = tiny_deployment
        client = dep.new_client("epoch-watcher")
        assert client._config_epoch() == 0
        dep.fleet[0].rotate_keys()
        # deployment-level rotation refresh
        dep.rotate_keys_if_needed()  # no-op but harmless
        client.refresh_mpk(dep.fleet.master_public_key())
        assert client._config_epoch() == 1

    def test_backup_recover_works_after_rotation(self, tiny_deployment):
        dep = tiny_deployment
        for hsm in dep.fleet:
            hsm.rotate_keys()
        client = dep.new_client("post-rotate")
        client.refresh_mpk(dep.fleet.master_public_key())
        client.backup(b"fresh keys", pin="1234")
        assert client.recover(pin="1234") == b"fresh keys"

    def test_stale_mpk_backup_unrecoverable_after_rotation(self, tiny_deployment):
        """A backup encrypted to pre-rotation keys dies with them — which is
        why clients download rotated keys daily (2 MB/day in the paper)."""
        dep = tiny_deployment
        client = dep.new_client("stale")
        client.backup(b"doomed", pin="1234")
        ct = dep.provider.fetch_backup("stale")
        cluster = set(client.lhe.select(ct.salt, "1234"))
        for index in cluster:
            dep.fleet[index].rotate_keys()
        with pytest.raises(RecoveryError):
            client.recover(pin="1234")

    def test_failed_rotation_epoch_still_refreshes_clients(self, tiny_deployment):
        """A device destroys its old keys as it rotates, so a client must
        hold the rotated mpk even when the epoch logging the rotation fails:
        the retry rotates nothing, and a stale client would back up to
        destroyed keys."""
        dep = tiny_deployment
        watcher = dep.new_client("watcher")
        with DeterministicEntropy(21):
            for i in range(8):
                if any(hsm.needs_rotation() for hsm in dep.fleet):
                    break
                client = dep.new_client(f"wear{i}")
                client.backup(b"data", pin="1234")
                assert client.recover(pin="1234") == b"data"
        worn = [hsm.index for hsm in dep.fleet if hsm.needs_rotation()]
        assert worn
        # Three fail-stopped bystanders leave 5 of 8 signers: no quorum at q = 0.75.
        for hsm in [hsm for hsm in dep.fleet if hsm.index not in worn][:3]:
            hsm.fail_stop()
        with pytest.raises(LogUpdateRejected, match="need 6 for a quorum"):
            dep.rotate_keys_if_needed()
        assert watcher.mpk == dep.fleet.master_public_key()
        dep.restart_all_hsms()
        assert dep.rotate_keys_if_needed() == []
        assert watcher.mpk == dep.fleet.master_public_key()
        # The rotations' membership events were not lost with the epoch.
        dep.provider.log.run_update(dep.fleet.hsms)
        dep.verify_published_keys()
        watcher.backup(b"after rotation", pin="1234")
        assert watcher.recover(pin="1234") == b"after rotation"


class TestGarbageCollection:
    def test_gc_resets_attempt_budget(self, tiny_deployment):
        dep = tiny_deployment
        client = dep.new_client("gc-user")
        client.backup(b"data", pin="5678")
        budget = dep.params.max_attempts_per_user
        for guess in range(budget):
            try:
                client.recover(pin=f"{guess:04d}")
            except RecoveryError:
                pass
        with pytest.raises(RecoveryError):
            client.recover(pin="5678")
        dep.garbage_collect_log()
        # After GC the user has budget again (and the backup survived).
        assert client.recover(pin="5678") == b"data"

    def test_gc_archives_old_log(self, tiny_deployment):
        dep = tiny_deployment
        client = dep.new_client("archived")
        client.backup(b"data", pin="1234")
        client.recover(pin="1234")
        entries_before = list(dep.provider.log.ordered_entries)
        dep.garbage_collect_log()
        assert dep.provider.log.archived_logs[-1] == entries_before

    def test_gc_budget_bounds_resets(self, tiny_deployment):
        dep = tiny_deployment
        for _ in range(dep.params.max_garbage_collections):
            dep.garbage_collect_log()
        with pytest.raises(HsmRefusedError):
            dep.garbage_collect_log()

    @staticmethod
    def down_through_a_gc(seeds):
        """HSM 3 misses an epoch and the GC after it; three backups, each
        under its seed (its salt, and so its cluster, fixed as in
        ``test_crash_recovery.seeded_backup``), are recovered around it."""
        params = SystemParams.for_testing(num_hsms=8, cluster_size=4)
        dep = Deployment.create(params, rng=random.Random(23))
        client = dep.new_client("gc-downtime")
        seeds = iter(seeds)
        seeded_backup(client, b"before", "2468", next(seeds))
        dep.fleet[3].fail_stop()
        client.recover(pin="2468")  # an epoch HSM 3 misses
        dep.garbage_collect_log()
        dep.fleet[3].restart()
        for secret in (b"after-1", b"after-2"):
            seeded_backup(client, secret, "2468", next(seeds))  # a recovery punctures its backup
            assert client.recover(pin="2468") == secret
        return dep

    def test_device_down_through_a_gc_does_not_stall_the_log(self):
        """A device that misses an epoch and then the GC after it is left
        in the collected generation: the certified chain cannot bring it to
        the new generation's digest, so it sits every round out instead of
        failing each epoch, and recoveries keep logging their attempts.
        Seeds 1, 2 and 4 name HSMs (0, 2, 7, 5), (3, 5, 0, 1) and
        (0, 1, 2, 5): at least t = 2 distinct devices besides HSM 3."""
        dep = self.down_through_a_gc(seeds=(1, 2, 4))
        assert dep.provider.log.digest == dep.fleet[0].log_digest
        assert dep.fleet[3].log_digest != dep.provider.log.digest

    @pytest.mark.xfail(
        strict=True,
        raises=RecoveryError,
        reason="one decrypt-and-puncture must answer every cluster position"
        " a device holds: ROADMAP item 13",
    )
    def test_one_device_cluster_does_not_recover_around_a_gc(self):
        """Seed 565's salt names HSM 5 at all four positions, so the first
        recovery gets one share of the two it needs; 1 in 512 random salts
        does this at N = 8, n = 4."""
        self.down_through_a_gc(seeds=(565, 2, 4))

    @pytest.mark.xfail(
        strict=True,
        raises=MembershipViolation,
        reason="ROADMAP item 11: a GC empties every lane, genesis membership included",
    )
    def test_gc_keeps_the_fleet_membership_verifiable(self):
        """An honest fleet's published keys still verify after a GC: the
        collected log must carry the fleet's current membership into the
        new generation, or every client's mpk check refuses the fleet."""
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=8)
        dep = Deployment.create(params, rng=random.Random(1))
        dep.verify_published_keys()
        dep.garbage_collect_log()
        dep.verify_published_keys()

    @pytest.mark.parametrize("shards", [None, 2])
    def test_refused_gc_archives_and_resets_nothing(self, shards):
        """A GC the devices refuse leaves the log as it was: no archive, no
        count, entries kept — unsharded and sharded alike."""
        params = dataclasses.replace(
            SystemParams.for_testing(num_hsms=4, cluster_size=3),
            max_garbage_collections=2,
        )
        dep = Deployment.create(params, rng=random.Random(22), shards=shards)
        log = dep.provider.log
        for _ in range(2):
            dep.garbage_collect_log()
        log.insert(b"rec|kept|0", b"h")
        dep.run_log_update()
        entries = list(log.ordered_entries)
        with pytest.raises(HsmRefusedError):
            dep.garbage_collect_log()
        assert log.garbage_collections == 2
        assert len(log.archived_logs) == 2
        assert log.ordered_entries == entries
