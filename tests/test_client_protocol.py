"""End-to-end protocol integration (Figure 3)."""

import pytest

from repro.core.client import RecoveryError


class TestBackupRecover:
    def test_roundtrip(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        message = b"full disk image contents" * 20
        index = client.backup(message, pin="1234")
        assert client.recover(pin="1234", backup_index=index) == message

    def test_wrong_pin_fails(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"secret", pin="1234")
        with pytest.raises(RecoveryError):
            client.recover(pin="4321")

    def test_invalid_pin_format_rejected_locally(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        with pytest.raises(ValueError):
            client.backup(b"x", pin="12")
        with pytest.raises(ValueError):
            client.backup(b"x", pin="abcd")

    def test_multiple_backups_latest_default(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"version 1", pin="1234")
        client.backup(b"version 2", pin="1234")
        assert client.recover(pin="1234") == b"version 2"

    def test_backup_requires_no_hsm_interaction(self, shared_deployment, unique_user):
        """Scalability property 2: backup is HSM-free (paper §4.1)."""
        before = shared_deployment.fleet.total_op_counts()
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        after = shared_deployment.fleet.total_op_counts()
        assert before == after

    def test_recovery_contacts_only_cluster(self, shared_deployment, unique_user):
        """Scalability: exactly n HSMs do public-key work per recovery."""
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        ct = shared_deployment.provider.fetch_backup(unique_user)
        cluster = set(client.lhe.select(ct.salt, "1234"))
        before = {
            h.index: dict(h.meter.counts) for h in shared_deployment.fleet
        }
        client.recover(pin="1234")
        for hsm in shared_deployment.fleet:
            delta = hsm.meter.counts.get("elgamal_dec", 0) - before[hsm.index].get(
                "elgamal_dec", 0
            )
            if hsm.index in cluster:
                assert delta >= 1
            else:
                assert delta == 0


class TestForwardSecurity:
    def test_recovered_ciphertext_cannot_be_recovered_again(
        self, shared_deployment, unique_user
    ):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        assert client.recover(pin="1234") == b"data"
        with pytest.raises(RecoveryError):
            client.recover(pin="1234")

    def test_salt_reuse_revokes_whole_series(self, shared_deployment, unique_user):
        """§8 multiple-ciphertexts: same salt -> same cluster -> recovering
        the newest backup punctures every older one too."""
        client = shared_deployment.new_client(unique_user)
        client.backup(b"day 1", pin="1234")
        client.backup(b"day 2", pin="1234", reuse_salt=True)
        client.backup(b"day 3", pin="1234", reuse_salt=True)
        assert client.recover(pin="1234", backup_index=2) == b"day 3"
        for index in (0, 1):
            with pytest.raises(RecoveryError):
                client.recover(pin="1234", backup_index=index)


class TestAttemptLimits:
    def test_guess_budget_enforced(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="7777")
        max_attempts = shared_deployment.params.max_attempts_per_user
        failures = 0
        for guess in range(max_attempts):
            try:
                client.recover(pin=f"{guess:04d}")
            except RecoveryError:
                failures += 1
        assert failures == max_attempts
        # Even the *correct* PIN is now refused: the budget is spent.
        with pytest.raises(RecoveryError):
            client.recover(pin="7777")

    def test_attempts_visible_in_log(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        assert client.audit_my_recovery_attempts() == []
        try:
            client.recover(pin="0000")
        except RecoveryError:
            pass
        attempts = client.audit_my_recovery_attempts()
        assert len(attempts) == 1  # the victim can see the break-in attempt


class TestFaultTolerance:
    # The cluster samples HSM indices *with replacement* (Hash -> [N]^n) and
    # a device answers once per session, so a recovery has one share per
    # *distinct* live cluster device: both tests count those.  The salt is
    # random, so besides it they take one pinned salt whose cluster,
    # [9, 10, 10, 9], has fewer distinct devices than positions.
    SALTS = [None, bytes.fromhex("8d5a62b98f5979958fa3e35002ee1bbf")]

    @staticmethod
    def _backed_up_cluster(deployment, username, salt):
        """A client with one backup under ``salt`` and the backup's distinct
        cluster devices; every device is (back) online."""
        deployment.restart_all_hsms()
        client = deployment.new_client(f"{username}-{'pinned' if salt else 'random'}")
        client._last_salt = salt
        client.backup(b"data", pin="1234", reuse_salt=salt is not None)
        ct = deployment.provider.fetch_backup(client.username)
        return client, list(dict.fromkeys(client.lhe.select(ct.salt, "1234")))

    def test_recovery_with_failed_minority(self, fresh_deployment, unique_user):
        for salt in self.SALTS:
            client, devices = self._backed_up_cluster(fresh_deployment, unique_user, salt)
            # Kill up to t-1 devices while at least t distinct ones survive.
            threshold = client.params.threshold
            for index in devices[: min(threshold - 1, len(devices) - threshold)]:
                fresh_deployment.fleet[index].fail_stop()
            assert client.recover(pin="1234") == b"data"

    def test_recovery_fails_below_threshold(self, fresh_deployment, unique_user):
        for salt in self.SALTS:
            client, devices = self._backed_up_cluster(fresh_deployment, unique_user, salt)
            # Leave fewer than t distinct devices alive.
            for index in devices[client.params.threshold - 1 :]:
                fresh_deployment.fleet[index].fail_stop()
            with pytest.raises(RecoveryError):
                client.recover(pin="1234")


class TestMpkRefresh:
    def test_backup_after_rotation_uses_new_keys(self, fresh_deployment, unique_user):
        client = fresh_deployment.new_client(unique_user)
        hsm = fresh_deployment.fleet[0]
        hsm.rotate_keys()
        client.refresh_mpk(fresh_deployment.fleet.master_public_key())
        client.backup(b"post-rotation", pin="1234")
        assert client.recover(pin="1234") == b"post-rotation"
