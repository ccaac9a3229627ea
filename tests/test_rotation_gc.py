"""Key rotation (§9.1) and log garbage collection (§6.2) at system level."""

import dataclasses
import random

import pytest

from repro.core.client import RecoveryError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.hsm.device import HsmRefusedError


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
        dep.fleet[0].rotate_keys(dep.provider.storage_for_hsm(0))
        # deployment-level rotation refresh
        dep.rotate_keys_if_needed()  # no-op but harmless
        client.refresh_mpk(dep.fleet.master_public_key())
        assert client._config_epoch() == 1

    def test_backup_recover_works_after_rotation(self, tiny_deployment):
        dep = tiny_deployment
        for hsm in dep.fleet:
            hsm.rotate_keys(dep.provider.storage_for_hsm(hsm.index))
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
            dep.fleet[index].rotate_keys(dep.provider.storage_for_hsm(index))
        with pytest.raises(RecoveryError):
            client.recover(pin="1234")


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

    def test_device_down_through_a_gc_does_not_stall_the_log(self):
        """A device that misses an epoch and then the GC after it is left
        in the collected generation: the certified chain cannot bring it to
        the new generation's digest, so it sits every round out instead of
        failing each epoch, and recoveries keep logging their attempts."""
        params = SystemParams.for_testing(num_hsms=8, cluster_size=4)
        dep = Deployment.create(params, rng=random.Random(23))
        client = dep.new_client("gc-downtime")
        client.backup(b"before", pin="2468")
        dep.fleet[3].fail_stop()
        client.recover(pin="2468")  # an epoch HSM 3 misses
        dep.garbage_collect_log()
        dep.fleet[3].restart()
        for secret in (b"after-1", b"after-2"):
            client.backup(secret, pin="2468")  # a recovery punctures its backup
            assert client.recover(pin="2468") == secret
        assert dep.provider.log.digest == dep.fleet[0].log_digest
        assert dep.fleet[3].log_digest != dep.provider.log.digest

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
