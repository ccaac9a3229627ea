"""Service-provider storage and log-facing behaviour."""

import pytest

from repro.core.identifiers import attempt_identifier
from repro.core.provider import ProviderError, ServiceProvider
from repro.log.distributed import LogConfig


@pytest.fixture
def provider():
    return ServiceProvider(LogConfig(audit_count=2))


class TestBackupStorage:
    def test_upload_fetch_roundtrip(self, provider):
        index = provider.upload_backup("alice", "ct-0")
        assert index == 0
        assert provider.fetch_backup("alice") == "ct-0"

    def test_multiple_versions(self, provider):
        provider.upload_backup("alice", "ct-0")
        provider.upload_backup("alice", "ct-1")
        assert provider.backup_count("alice") == 2
        assert provider.fetch_backup("alice", 0) == "ct-0"
        assert provider.fetch_backup("alice", -1) == "ct-1"

    def test_missing_user(self, provider):
        with pytest.raises(ProviderError):
            provider.fetch_backup("ghost")

    def test_incrementals(self, provider):
        provider.upload_incremental("alice", b"day1")
        provider.upload_incremental("alice", b"day2")
        assert provider.fetch_incrementals("alice") == [b"day1", b"day2"]
        assert provider.fetch_incrementals("bob") == []


class TestAttemptNumbering:
    def test_first_attempt_is_zero(self, provider):
        assert provider.next_attempt_number("alice") == 0

    def test_pending_attempts_counted(self, provider):
        provider.log_recovery_attempt("alice", 0, b"h0")
        assert provider.next_attempt_number("alice") == 1

    def test_committed_attempts_counted(self, provider):
        provider.log_recovery_attempt("alice", 0, b"h0")
        provider.log.shards[0].prepare_update(num_chunks=1)  # commit without HSMs
        assert provider.next_attempt_number("alice") == 1

    def test_numbering_is_per_user(self, provider):
        provider.log_recovery_attempt("alice", 0, b"h0")
        assert provider.next_attempt_number("bob") == 0

    def test_duplicate_attempt_rejected(self, provider):
        provider.log_recovery_attempt("alice", 0, b"h0")
        with pytest.raises(KeyError):
            provider.log_recovery_attempt("alice", 0, b"h1")

    def test_counter_agrees_with_reference_scan(self, provider):
        """The O(1) counters must match the full-log rescan at every step."""
        for step in range(4):
            for user in ("alice", "bob"):
                assert provider.next_attempt_number(user) == provider.scan_attempt_number(
                    user
                )
            provider.log_recovery_attempt("alice", step, b"h%d" % step)
            if step % 2:  # counters must survive pending -> committed moves
                provider.log.shards[0].prepare_update(num_chunks=1)
        assert provider.next_attempt_number("alice") == 4
        assert provider.scan_attempt_number("alice") == 4

    def test_reserve_is_atomic_across_threads(self, provider):
        import threading

        claimed = []

        def worker():
            for _ in range(25):
                claimed.append(provider.reserve_attempt_number("alice"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == list(range(100))

    def test_garbage_collection_resets_counters(self, provider):
        provider.log_recovery_attempt("alice", 0, b"h0")
        provider.reserve_attempt_number("alice")
        assert provider.next_attempt_number("alice") == 2
        provider.log.garbage_collect(hsms=[])
        assert provider.next_attempt_number("alice") == 0
        assert provider.scan_attempt_number("alice") == 0
        # and the counters start counting again in the new generation
        provider.log_recovery_attempt("alice", 0, b"h0")
        assert provider.next_attempt_number("alice") == 1


class TestReplyEscrow:
    def test_store_and_fetch(self, provider):
        provider.store_reply("alice", 0, b"reply-a")
        provider.store_reply("alice", 0, b"reply-b")
        assert provider.fetch_replies("alice", 0) == [b"reply-a", b"reply-b"]
        assert provider.fetch_replies("alice", 1) == []


class TestWiring:
    def test_update_runner_required(self, provider):
        with pytest.raises(ProviderError):
            provider.run_log_update()

    def test_hsm_store_is_stable(self, provider):
        store = provider.storage_for_hsm(3)
        assert provider.storage_for_hsm(3) is store

    def test_monitoring_view(self, provider):
        provider.log_recovery_attempt("alice", 0, b"h0")
        provider.log.shards[0].prepare_update(num_chunks=1)
        attempts = provider.recovery_attempts_for("alice")
        assert attempts == [(attempt_identifier("alice", 0), b"h0")]
