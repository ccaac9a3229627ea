"""The serving layer: epoch batcher, channels, worker queues, service."""

import random
import threading
import time

import pytest

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError, ServiceProvider
from repro.crypto.bfe import PuncturedKeyError
from repro.hsm.device import HsmRefusedError, HsmUnavailableError
from repro.log.authdict import verify_includes
from repro.log.distributed import LogConfig
from repro.service.batcher import EpochBatcher, EpochTicket, ServiceTimeout
from repro.service.channel import WireChannel, HsmWireEndpoint, wire_channels
from repro.service.workers import HsmWorkerPool


# ---------------------------------------------------------------------------
# EpochBatcher (standalone provider; epochs commit via prepare_update)
# ---------------------------------------------------------------------------
@pytest.fixture
def batcher_provider():
    return ServiceProvider(LogConfig(audit_count=2))


def commit_lanes(provider):
    """A lane runner that commits each listed lane with a bare
    ``prepare_update`` — no device fleet, so the tests isolate the
    batcher's own bookkeeping."""

    def lane_runner(shards):
        for k in shards:
            provider.log.shards[k].prepare_update(num_chunks=1)
        return dict.fromkeys(shards)

    return lane_runner


class TestEpochBatcher:
    def test_one_tick_serves_all_waiters(self, batcher_provider):
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        tickets = [
            batcher.submit(f"user{i}", 0, b"commit%d" % i) for i in range(3)
        ]
        assert batcher.pending_sessions() == 3
        assert batcher.tick() == 3
        assert batcher.epochs_run == 1
        assert list(batcher.epoch_sessions) == [3]
        for i, ticket in enumerate(tickets):
            identifier, proof = ticket.wait(timeout=1)
            assert verify_includes(
                batcher_provider.log.digest, identifier, b"commit%d" % i, proof
            )

    def test_tick_without_work_is_a_noop(self, batcher_provider):
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        assert batcher.tick() == 0
        assert batcher.epochs_run == 0

    def test_duplicate_insertion_fails_that_ticket_only(self, batcher_provider):
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        good = batcher.submit("dup", 0, b"h0")
        bad = batcher.submit("dup", 0, b"h1")
        batcher.tick()
        good.wait(timeout=1)
        with pytest.raises(ProviderError):
            bad.wait(timeout=1)

    def test_wait_without_tick_times_out(self, batcher_provider):
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        ticket = batcher.submit("alone", 0, b"h")
        with pytest.raises(ServiceTimeout):
            ticket.wait(timeout=0.05)

    def test_leases_defer_the_next_epoch(self, batcher_provider):
        batcher = EpochBatcher(
            batcher_provider, commit_lanes(batcher_provider), lease_timeout=10.0
        )
        batcher.submit("leaseholder", 0, b"h")
        batcher.tick()
        assert batcher.outstanding_leases() == 1

        batcher.submit("next", 0, b"h2")
        second_tick_done = threading.Event()
        thread = threading.Thread(
            target=lambda: (batcher.tick(), second_tick_done.set())
        )
        thread.start()
        # The share phase of "leaseholder" is still open: no second epoch.
        assert not second_tick_done.wait(0.15)
        assert batcher.epochs_run == 1
        batcher.release("leaseholder", 0)
        assert second_tick_done.wait(2)
        thread.join()
        assert batcher.epochs_run == 2
        assert batcher.lease_timeouts == 0

    def test_lease_timeout_keeps_the_log_live(self, batcher_provider):
        batcher = EpochBatcher(
            batcher_provider, commit_lanes(batcher_provider), lease_timeout=0.05
        )
        batcher.submit("crashed-client", 0, b"h")
        batcher.tick()  # lease taken, never released
        batcher.submit("healthy", 0, b"h2")
        assert batcher.tick() == 1  # proceeds despite the abandoned lease
        assert batcher.lease_timeouts == 1
        assert batcher.outstanding_leases() == 1  # the new session's lease

    def test_ticket_is_single_use_state(self):
        ticket = EpochTicket()
        ticket.resolve((b"id", "proof"))
        assert ticket.wait(timeout=0) == (b"id", "proof")


# ---------------------------------------------------------------------------
# Worker pool: per-device FIFO execution
# ---------------------------------------------------------------------------
class TestHsmWorkerPool:
    def test_requires_start(self):
        pool = HsmWorkerPool(2)
        with pytest.raises(RuntimeError):
            pool.call(0, lambda: 1)

    def test_call_returns_result_and_counts(self):
        pool = HsmWorkerPool(2)
        pool.start()
        try:
            assert pool.call(1, lambda: 41 + 1) == 42
            assert pool.jobs_processed == [0, 1]
        finally:
            pool.stop()

    def test_exceptions_propagate_to_caller(self):
        pool = HsmWorkerPool(1)
        pool.start()
        try:
            with pytest.raises(ValueError, match="boom"):
                pool.call(0, lambda: (_ for _ in ()).throw(ValueError("boom")))
        finally:
            pool.stop()

    def test_stop_before_start_does_not_poison_queues(self):
        pool = HsmWorkerPool(2)
        pool.stop()  # must be a no-op, not a sentinel enqueue
        pool.start()
        try:
            assert pool.call(0, lambda: "alive") == "alive"
        finally:
            pool.stop()
        pool.stop()  # double-stop is also safe
        pool.start()
        try:
            assert pool.call(1, lambda: "restarted") == "restarted"
        finally:
            pool.stop()

    def test_device_never_runs_two_jobs_at_once(self):
        pool = HsmWorkerPool(2)
        pool.start()
        busy = [False] * 2
        overlaps = []

        def job(device):
            if busy[device]:
                overlaps.append(device)
            busy[device] = True
            time.sleep(0.002)
            busy[device] = False
            return device

        try:
            threads = [
                threading.Thread(target=pool.call, args=(i % 2, lambda i=i: job(i % 2)))
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            pool.stop()
        assert overlaps == []
        assert sum(pool.jobs_processed) == 16


# ---------------------------------------------------------------------------
# Channels: wire transport and error mapping
# ---------------------------------------------------------------------------
class TestWireChannel:
    def test_recovery_over_wire_channel(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user, transport="wire")
        client.backup(b"wire payload", pin="1234")
        assert client.recover("1234") == b"wire payload"

    def test_unavailable_crosses_the_wire(self, fresh_deployment, unique_user):
        client = fresh_deployment.new_client(unique_user)
        client.backup(b"x", pin="1234")
        session = client.begin_recovery("1234", backup_recovery_key=False)
        target = session.cluster[0]
        fresh_deployment.fleet[target].fail_stop()
        channel = wire_channels(fresh_deployment.fleet)(target)
        with pytest.raises(HsmUnavailableError):
            channel.decrypt_share(client._share_request(session, 0))
        fresh_deployment.fleet[target].restart()

    def test_puncture_crosses_the_wire(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"x", pin="1234")
        session = client.begin_recovery("1234", backup_recovery_key=False)
        channel = WireChannel(
            HsmWireEndpoint(shared_deployment.fleet[session.cluster[0]])
        )
        request = client._share_request(session, 0)
        channel.decrypt_share(request)  # first decryption punctures
        with pytest.raises(PuncturedKeyError):
            channel.decrypt_share(request)

    def test_a_malformed_request_is_refused_on_the_wire(
        self, shared_deployment, unique_user
    ):
        """A request that does not decode gets a REPLY_REFUSED frame, not an
        exception out of the endpoint, and the device's key tree is left as
        it was: the honest request still decrypts afterwards."""
        from repro.core import wire

        client = shared_deployment.new_client(unique_user)
        client.backup(b"x", pin="1234")
        session = client.begin_recovery("1234", backup_recovery_key=False)
        device = shared_deployment.fleet[session.cluster[0]]
        request = client._share_request(session, 0)
        honest = wire.encode_decrypt_request(request)
        endpoint = HsmWireEndpoint(device)
        blocks = dict(device._store._blocks)
        for malformed in (b"\x00", honest[: len(honest) // 2]):
            # The transport swaps the client's frame for the malformed one.
            channel = WireChannel(lambda _frame, bad=malformed: endpoint.handle_decrypt_share(bad))
            with pytest.raises(HsmRefusedError, match="malformed request"):
                channel.decrypt_share(request)
        assert device._store._blocks == blocks
        WireChannel(endpoint).decrypt_share(request)

    def test_a_reply_the_wire_cannot_carry_is_a_refusal(self, shared_deployment, unique_user):
        """A faulty device's reply whose ephemeral is the identity has no
        encoding: the endpoint answers REPLY_REFUSED, and a reply frame
        that does not decode is a refusal on the client's side too."""
        from repro.crypto.ec import ECPoint
        from repro.crypto.elgamal import ElGamalCiphertext

        client = shared_deployment.new_client(unique_user)
        client.backup(b"x", pin="1234")
        session = client.begin_recovery("1234", backup_recovery_key=False)
        device = shared_deployment.fleet[session.cluster[0]]
        request = client._share_request(session, 0)

        class IdentityReply:
            def decrypt_share(self, request):
                return ElGamalCiphertext(ECPoint(None, None), device.decrypt_share(request).body)

        with pytest.raises(HsmRefusedError, match="unencodable reply"):
            WireChannel(HsmWireEndpoint(IdentityReply())).decrypt_share(request)
        for junk in (b"", b"\x01", b"\x01\x00\x00\x00\x00\x37" + bytes(55)):
            with pytest.raises(HsmRefusedError, match="malformed reply"):
                WireChannel(lambda _frame, reply=junk: reply).decrypt_share(request)

    def test_stale_proof_refresh_survives_an_interleaved_epoch(
        self, fresh_deployment, unique_user
    ):
        """An epoch committing between proof receipt and the share phase
        must not kill the session: HSMs answer REPLY_STALE_PROOF, the
        client refreshes its proof and retries."""
        from repro.hsm.device import HsmStaleProofError

        client = fresh_deployment.new_client(unique_user)
        client.backup(b"stale proof survivor", pin="1234")
        session = client.begin_recovery("1234", backup_recovery_key=False)
        # Another epoch commits: every HSM's digest moves past the proof.
        fresh_deployment.provider.log.insert(b"interloper", b"v")
        fresh_deployment.run_log_update()
        stale_proof = session.inclusion_proof
        channel = wire_channels(fresh_deployment.fleet)(session.cluster[0])
        with pytest.raises(HsmStaleProofError):  # distinct status on the wire
            channel.decrypt_share(client._share_request(session, 0))
        obtained = client.request_shares(session, "1234")
        assert obtained >= fresh_deployment.params.threshold
        assert session.inclusion_proof != stale_proof  # the client refreshed
        assert client.finish_recovery(session) == b"stale proof survivor"

    def test_refusal_crosses_the_wire(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"x", pin="1234")
        session = client.begin_recovery("1234", backup_recovery_key=False)
        # An HSM outside the committed cluster must refuse.
        outside = next(
            i for i in range(len(shared_deployment.fleet)) if i not in session.cluster
        )
        channel = wire_channels(shared_deployment.fleet)(outside)
        with pytest.raises(HsmRefusedError):
            channel.decrypt_share(client._share_request(session, 0))


# ---------------------------------------------------------------------------
# RecoveryService end-to-end (small; the heavy run is the slow stress test)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def service_deployment():
    params = SystemParams.for_testing(num_hsms=8, cluster_size=3, max_punctures=48)
    return Deployment.create(params, rng=random.Random(29))


class TestRecoveryService:
    def test_concurrent_sessions_share_an_epoch(self, service_deployment):
        service = service_deployment.recovery_service(
            tick_interval=0.01, lease_timeout=5.0
        )
        clients = [service.new_client(f"svc-share-{i}") for i in range(4)]
        errors = []

        def run(i):
            try:
                clients[i].backup(b"m%d" % i, pin="1111")
                assert clients[i].recover("1111") == b"m%d" % i
            except Exception as exc:  # noqa: BLE001
                errors.append((i, repr(exc)))

        with service:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        stats = service.stats()
        assert stats["sessions_served"] == 4
        # Batching: strictly fewer epochs than sessions, one epoch per tick.
        assert stats["epochs_run"] < 4
        assert stats["epochs_run"] == len(stats["epoch_sessions"])
        assert sum(stats["epoch_sessions"]) == 4

    def test_manual_ticks_are_deterministic(self, service_deployment):
        service = service_deployment.recovery_service(lease_timeout=5.0)
        service.pool.start()  # workers but no ticker: the test owns epochs
        client = service.new_client("svc-manual")
        try:
            client.backup(b"manual", pin="2222")
            done = []
            thread = threading.Thread(
                target=lambda: done.append(client.recover("2222"))
            )
            thread.start()
            # One session pending -> exactly one epoch serves it.
            while service.batcher.pending_sessions() == 0:
                time.sleep(0.005)
            assert service.tick() == 1
            thread.join(timeout=30)
            assert done == [b"manual"]
        finally:
            # stop() without start(): joins the device workers started
            # above and the lane worker the manual tick started on demand.
            service.stop()
        assert not service.pool.running and not service._lane_pool.running

    def test_failed_epoch_fails_batch_but_not_the_service(self):
        """Losing quorum mid-service must fail that batch's sessions cleanly
        and leave the log recoverable (the epoch rolls back), not brick
        every future epoch."""
        params = SystemParams.for_testing(num_hsms=6, cluster_size=3, max_punctures=16)
        deployment = Deployment.create(params, rng=random.Random(31))
        with deployment.recovery_service(
            tick_interval=0.01, lease_timeout=2.0
        ) as service:
            victim = service.new_client("svc-noquorum")
            victim.backup(b"doomed", pin="1111")
            deployment.fail_random_hsms(3, random.Random(1))  # 3/6 < 0.75 quorum
            with pytest.raises(ProviderError):
                victim.recover("1111")
            deployment.restart_all_hsms()
            survivor = service.new_client("svc-afterquorum")
            survivor.backup(b"alive", pin="2222")
            assert survivor.recover("2222") == b"alive"
        stats = service.stats()
        assert stats["epoch_failures"] >= 1
        # provider and fleet digests agree again
        assert deployment.fleet[0].log_digest == deployment.provider.log.digest

    def test_stop_keeps_the_workers_up_under_a_running_epoch(self, service_deployment):
        """Regression: ``stop`` used to forget the ticker after its join
        timed out and then stop the pools under the still-running epoch.
        It must raise, leave everything up, and succeed when called again."""
        service = service_deployment.recovery_service(
            tick_interval=0.01, lease_timeout=30.0, session_timeout=0.2
        )
        batcher = service.batcher
        with service:
            batcher.submit("svc-stop-holder", 0, b"h").wait(timeout=30)
            # The holder's lease blocks the lone lane: the ticker sits inside
            # the tick that wants to commit this second session.
            blocked = batcher.submit("svc-stop-blocked", 0, b"h2")
            with pytest.raises(ServiceTimeout):
                service.stop()
            assert service._ticker is not None and service._ticker.is_alive()
            assert service.pool.running and service._lane_pool.running
            batcher.release("svc-stop-holder", 0)
            blocked.wait(timeout=30)  # the epoch completed on live workers
        assert service._ticker is None
        assert not service.pool.running and not service._lane_pool.running

    def test_facade_reserves_unique_attempts(self, service_deployment):
        service = service_deployment.recovery_service()
        facade = service._facade
        seen = []

        def reserve():
            for _ in range(20):
                seen.append(facade.next_attempt_number("svc-reserve"))

        threads = [threading.Thread(target=reserve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == list(range(80))

    def test_facade_backups_cross_the_wire(self, service_deployment):
        service = service_deployment.recovery_service()
        client = service.new_client("svc-wireback")
        sent = []
        original_upload = client.provider.upload_backup

        def spy(username, ciphertext):
            sent.append(ciphertext)  # the client's live object
            return original_upload(username, ciphertext)

        client.provider.upload_backup = spy
        try:
            client.backup(b"round trip", pin="4444")
        finally:
            del client.provider.upload_backup
        # The provider never stored the client's live object: the endpoint
        # reconstructed a value-equal ciphertext from wire bytes.
        assert len(sent) == 1
        assert client.provider.wire_stats()["frames_sent"] >= 1
        stored = service_deployment.provider.fetch_backup("svc-wireback")
        assert stored == sent[0]
        assert stored is not sent[0]

    def test_facades_are_enumerations_not_pass_throughs(self, service_deployment):
        service = service_deployment.recovery_service()
        device = service_deployment.fleet[0]
        fifo = service._epoch_fleet[0]
        assert fifo.index == 0 and fifo.is_failed is False
        # Its public keys are: the lane checks a certificate against them.
        assert fifo.public_info() == device.public_info()
        for name in ("decrypt_share", "extract_secrets", "rotate_keys", "log_digest",
                     "fail_stop", "install_signer_directory",
                     "accept_garbage_collection", "shard_digest"):
            assert hasattr(device, name), name  # real device surface...
            with pytest.raises(AttributeError):
                getattr(fifo, name)  # ...not reachable through the view
        # A missed transition reaches a device only as an offer.
        with pytest.raises(AttributeError):
            getattr(fifo, "accept_certified_transition")
        assert {n for n in dir(type(fifo)) if not n.startswith("_")} == {
            "audit_log_update", "reveal_nonce", "sign_transition",
            "audit_specific_chunks", "accept_log_digest",
            "index", "is_failed", "public_info", "offered_frontier",
            "offer_certified_transition",
        }
        # The signature scheme is not device state.
        assert not hasattr(device, "multisig_scheme")
        assert not hasattr(fifo, "multisig_scheme")
        facade = service._facade
        for name in ("log", "journal", "run_log_update"):
            assert hasattr(service.provider, name), name
            with pytest.raises(AttributeError):
                getattr(facade, name)


# ---------------------------------------------------------------------------
# Batcher regressions: abandoned leases, lane history, malformed sessions
# ---------------------------------------------------------------------------
class TestBatcherRegressions:
    def test_timed_out_session_takes_no_lease(self, batcher_provider):
        """Regression: a ticket whose ``wait`` timed out used to be resolved
        anyway and granted an epoch lease nobody would ever release,
        stalling the *next* tick for the full lease_timeout."""
        batcher = EpochBatcher(
            batcher_provider, commit_lanes(batcher_provider), lease_timeout=30.0
        )
        ghost = batcher.submit("ghost", 0, b"h-ghost")
        with pytest.raises(ServiceTimeout):
            ghost.wait(timeout=0.05)  # the session walks away
        assert batcher.tick() == 0  # the entry commits, nobody is served
        assert batcher.outstanding_leases() == 0
        assert batcher.abandoned_sessions == 1
        assert batcher.sessions_served == 0

        # The next tick is NOT delayed by a leaked lease: it serves a live
        # session immediately instead of draining for lease_timeout.
        live = batcher.submit("alive", 0, b"h-live")
        start = time.monotonic()
        assert batcher.tick() == 1
        assert time.monotonic() - start < 5.0
        live.wait(timeout=1)

    def test_every_committed_entry_is_served_or_abandoned(self, batcher_provider):
        """The batcher keeps no count of committed entries: every entry an
        epoch commits belongs to a session it served or one that walked
        away, and a rejected insertion commits nothing."""
        batcher = EpochBatcher(
            batcher_provider, commit_lanes(batcher_provider), lease_timeout=30.0
        )
        ghost = batcher.submit("walks-away", 0, b"h-ghost")
        with pytest.raises(ServiceTimeout):
            ghost.wait(timeout=0.05)
        live = [batcher.submit(f"stays-{i}", 0, b"h-%d" % i) for i in range(2)]
        duplicate = batcher.submit("stays-0", 0, b"h-again")
        assert batcher.tick() == 2
        for ticket in live:
            ticket.wait(timeout=1)
        with pytest.raises(ProviderError):
            duplicate.wait(timeout=1)
        committed = sum(len(shard.ordered_entries) for shard in batcher_provider.log.shards)
        assert committed == 3
        assert committed == batcher.sessions_served + batcher.abandoned_sessions
        assert "entries_committed" not in batcher.stats()

    def test_resolution_beats_abandonment_when_racing(self, batcher_provider):
        """A ticket resolved before ``wait`` re-checks under the lock is
        served normally (the timeout lapsed but the result arrived)."""
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        ticket = batcher.submit("racer", 0, b"h-race")
        batcher.tick()  # resolves before wait is even called
        identifier, proof = ticket.wait(timeout=0.0)
        assert identifier
        assert batcher.outstanding_leases() == 1

    def test_all_lanes_failing_appends_no_history_row(self):
        """Regression: a tick where EVERY lane failed used to append an
        epoch_sessions/epoch_digests row even though no epoch committed,
        desynchronizing the history from the epochs that happened.  Holds
        for the lone lane of an unsharded log and for four lanes alike."""
        for num_shards in LANE_ARITIES:
            deployment = Deployment.create(
                SystemParams.for_testing(num_hsms=8, cluster_size=4),
                rng=random.Random(17),
                shards=num_shards,
            )
            failing = EpochBatcher(
                deployment.provider,
                lane_runner=lambda shards: {
                    shard: RuntimeError("lane down") for shard in shards
                },
            )
            tickets = [
                failing.submit(f"lane-user-{i}", 0, b"h%d" % i) for i in range(4)
            ]
            assert failing.tick() == 0
            assert list(failing.epoch_sessions) == []
            assert list(failing.epoch_digests) == []
            assert failing.epoch_failures >= 1
            assert failing.epochs_run == 0
            for ticket in tickets:
                with pytest.raises(ProviderError, match="epoch failed") as caught:
                    ticket.wait(timeout=1)
                assert isinstance(caught.value.__cause__, RuntimeError)
            # History stays paired — the invariant the desync broke.
            assert len(failing.epoch_sessions) == len(failing.epoch_digests)

    def test_partial_lane_failure_appends_one_row(self):
        """One committed lane out of two still records exactly one paired
        history row for the tick (and fails only its own tickets)."""
        deployment = Deployment.create(
            SystemParams.for_testing(num_hsms=8, cluster_size=4),
            rng=random.Random(18),
            shards=2,
        )
        log = deployment.provider.log

        def half_runner(shards):
            outcomes = {}
            for shard in shards:
                if shard == min(shards):
                    log.run_shard_update(shard, deployment.fleet.hsms)
                    outcomes[shard] = None
                else:
                    outcomes[shard] = RuntimeError("lane down")
            return outcomes

        batcher = EpochBatcher(deployment.provider, lane_runner=half_runner)
        for i in range(12):  # enough sessions to hit both shards
            batcher.submit(f"half-user-{i}", 0, b"h%d" % i)
        served = batcher.tick()
        assert 0 < served < 12
        assert len(batcher.epoch_sessions) == len(batcher.epoch_digests) == 1
        assert batcher.epoch_sessions[0] == served

    def test_malformed_session_fails_its_ticket(self, batcher_provider):
        """Regression: a ValueError from the insertion (reserved '|' in the
        username, negative attempt) used to escape ``submit`` raw instead
        of failing the ticket like the duplicate-identifier KeyError."""
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        bad_name = batcher.submit("bad|user", 0, b"h")
        bad_attempt = batcher.submit("fine", -1, b"h")
        good = batcher.submit("fine", 0, b"h")
        assert batcher.tick() == 1
        with pytest.raises(ProviderError, match="[|]"):
            bad_name.wait(timeout=1)
        with pytest.raises(ProviderError):
            bad_attempt.wait(timeout=1)
        good.wait(timeout=1)  # the batch itself is unaffected


# ---------------------------------------------------------------------------
# Per-shard epoch leases: lane independence, timeout accounting
# ---------------------------------------------------------------------------
#: The single-lane tests run at both arities: an unsharded log is one lane.
LANE_ARITIES = (1, 4)


def _stub_lane_batcher(num_shards=4, lease_timeout=30.0):
    """A provider (unsharded at ``num_shards=1``) whose lanes commit via
    bare ``prepare_update`` (:func:`commit_lanes`)."""
    provider = ServiceProvider(LogConfig(audit_count=2, num_shards=num_shards))
    return provider, EpochBatcher(
        provider, commit_lanes(provider), lease_timeout=lease_timeout
    )


def _user_on_shard(shard, num_shards, tag):
    """A username whose attempt-0 identifier routes to ``shard`` (the
    routing hashes the full identifier, so this is how tests pin a session
    to a lane)."""
    from repro.core.identifiers import attempt_identifier
    from repro.log.sharded import shard_of

    i = 0
    while True:
        name = f"{tag}-{i}"
        if shard_of(attempt_identifier(name, 0), num_shards) == shard:
            return name
        i += 1


class TestPerShardLeases:
    def test_idle_tick_skips_lease_drain(self):
        """A tick with nothing submitted and nothing pending returns via
        the O(1) emptiness probe — it must not sit out ``lease_timeout``
        draining leases it has no epoch to break."""
        for num_shards in LANE_ARITIES:
            _, batcher = _stub_lane_batcher(num_shards, lease_timeout=30.0)
            batcher.submit("idler", 0, b"h")
            batcher.tick()
            assert batcher.outstanding_leases() == 1
            start = time.monotonic()
            assert batcher.tick() == 0
            assert time.monotonic() - start < 5.0
            assert batcher.lease_timeouts == 0
            assert batcher.outstanding_leases() == 1  # untouched, not expired

    def test_each_dropped_straggler_counts_one_timeout(self):
        """Regression: the timeout path used to clear the whole lease set
        but count a single timeout no matter how many stragglers it
        dropped."""
        for num_shards in LANE_ARITIES:
            _, batcher = _stub_lane_batcher(num_shards, lease_timeout=0.05)
            lane = num_shards - 1
            for i in range(3):
                straggler = _user_on_shard(lane, num_shards, f"straggler{i}")
                batcher.submit(straggler, 0, b"h%d" % i)
            assert batcher.tick() == 3  # three leases, never released
            batcher.submit(_user_on_shard(lane, num_shards, "fresh"), 0, b"h-fresh")
            assert batcher.tick() == 1  # waits out, then drops all three
            assert batcher.lease_timeouts == 3
            assert batcher.stats()["lease_timeouts_by_shard"] == {lane: 3}

    def test_late_release_after_timeout_clear_is_noop(self):
        """A straggler's ``release`` arriving after its lease was already
        dropped by a timeout-clear must change nothing — in particular it
        must not drop the lease a *new* session now holds."""
        for num_shards in LANE_ARITIES:
            _, batcher = _stub_lane_batcher(num_shards, lease_timeout=0.05)
            lane = num_shards - 1
            straggler = _user_on_shard(lane, num_shards, "straggler")
            batcher.submit(straggler, 0, b"h")
            batcher.tick()
            batcher.submit(_user_on_shard(lane, num_shards, "healthy"), 0, b"h2")
            assert batcher.tick() == 1  # straggler's lease expired and dropped
            assert batcher.lease_timeouts == 1
            assert batcher.outstanding_leases() == 1  # healthy's lease
            batcher.release(straggler, 0)  # finally calls home: no-op
            assert batcher.outstanding_leases() == 1
            assert batcher.lease_timeouts == 1

    def test_late_release_cannot_wake_the_wrong_lane(self):
        """Two-lane variant: after a straggler's lane times out, its late
        ``release`` must not wake a tick blocked on a *different* lane's
        leases — that tick stays blocked."""
        provider, batcher = _stub_lane_batcher(lease_timeout=0.5)
        straggler = _user_on_shard(0, 4, "wla")
        holder = _user_on_shard(1, 4, "wlb")
        batcher.submit(straggler, 0, b"h-a")
        batcher.submit(holder, 0, b"h-b")
        assert batcher.tick() == 2  # both lanes leased
        # Expire lane 0: queue work for it alone, so the tick blocks on its
        # drain, waits out the 0.5 s, and drops the straggler lease.
        batcher.submit(_user_on_shard(0, 4, "wlc"), 0, b"h-a1")
        assert batcher.tick() == 1
        assert batcher.lease_timeouts == 1
        assert batcher.stats()["lease_timeouts_by_shard"] == {0: 1}
        # Lane 1's lease and the newly served lane-0 lease survive.
        assert batcher.outstanding_leases(0) == 1
        assert batcher.outstanding_leases(1) == 1
        # A tick needing lane 1 blocks until that lane drains.  The expired
        # straggler's late release must not wake it.
        batcher.submit(_user_on_shard(1, 4, "wld"), 0, b"h-b1")
        tick_done = threading.Event()
        thread = threading.Thread(
            target=lambda: (batcher.tick(), tick_done.set()), daemon=True
        )
        thread.start()
        time.sleep(0.05)
        batcher.release(straggler, 0)  # late: lease long gone
        assert not tick_done.wait(0.1)  # still draining lane 1
        batcher.release(holder, 0)  # the real holder releases
        assert tick_done.wait(2)
        thread.join(timeout=2)

    def test_straggler_lane_does_not_delay_other_lanes(self):
        """One shard's session holds its lease toward a 30 s timeout while
        other shards' ticks commit epochs unimpeded — their latency is
        milliseconds-scale, never ``lease_timeout``-bound."""
        provider, batcher = _stub_lane_batcher(lease_timeout=30.0)
        straggler = _user_on_shard(0, 4, "sla")
        first = _user_on_shard(1, 4, "slb")
        batcher.submit(straggler, 0, b"h-a")
        batcher.submit(first, 0, b"h-b")
        assert batcher.tick() == 2
        batcher.release(first, 0)  # the straggler never releases: lane 0 busy
        for round_no in range(1, 4):
            # Work lands on the busy lane too: it must defer, not block.
            batcher.submit(_user_on_shard(0, 4, f"sla{round_no}"), 0, b"h-a2")
            fast = _user_on_shard(1, 4, f"slb{round_no}")
            batcher.submit(fast, 0, b"h-b2")
            tick_done = threading.Event()
            served = []
            thread = threading.Thread(
                target=lambda: (served.append(batcher.tick()), tick_done.set()),
                daemon=True,
            )
            start = time.monotonic()
            thread.start()
            assert tick_done.wait(5)  # would be ~30 s if lease-bound
            assert time.monotonic() - start < 5.0
            thread.join(timeout=2)
            assert served == [1]  # lane 1 committed; lane 0 deferred
            batcher.release(fast, 0)
        assert batcher.lease_timeouts == 0  # nobody waited the straggler out
        assert batcher.outstanding_leases(0) == 1
        assert batcher.outstanding_leases(1) == 0
        stats = batcher.stats()
        assert stats["outstanding_leases_by_shard"] == {0: 1}
        assert stats["pending_sessions"] == 3  # lane 0's deferred sessions


# ---------------------------------------------------------------------------
# On-demand epochs: the demand signal, the quiet period, a ticker that lives
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def ticker_deployment():
    params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=16)
    return Deployment.create(params, rng=random.Random(37))


def _recording_lanes(batcher):
    """Wrap the batcher's lane runner (when each epoch started) and its
    ``tick`` (when each tick that ran one returned); returns both lists."""
    epoch_starts, tick_returns = [], []
    run_lanes, tick = batcher._lane_runner, batcher.tick

    def lane_runner(shards):
        epoch_starts.append(time.monotonic())
        return run_lanes(shards)

    def recording_tick():
        epochs_before = len(epoch_starts)
        try:
            return tick()
        finally:
            if len(epoch_starts) > epochs_before:
                tick_returns.append(time.monotonic())

    batcher._lane_runner, batcher.tick = lane_runner, recording_tick
    return epoch_starts, tick_returns


class TestOnDemandEpochs:
    def test_idle_service_serves_a_lone_recovery_at_once(self, ticker_deployment):
        """``tick_interval`` is a fallback poll and a quiet period after an
        epoch, not a sampling period: a session that finds the service idle
        does not wait for a poll to come round (it waited ~0.7 s here when
        the ticker slept ``tick_interval`` between looks)."""
        service = ticker_deployment.recovery_service(
            tick_interval=1.0, lease_timeout=5.0
        )
        client = service.new_client("demand-lone")
        client.backup(b"on demand", pin="1111")
        with service:
            time.sleep(0.3)  # idle: mid-way between two would-be polls
            start = time.monotonic()
            assert client.recover("1111") == b"on demand"
            assert time.monotonic() - start < 0.4

    def test_back_to_back_epochs_keep_the_quiet_period(self, ticker_deployment):
        """Under load the gap after an epoch is what it always was: the
        next epoch starts no earlier than ``tick_interval`` after the tick
        that ran the last one returned."""
        interval = 0.3
        service = ticker_deployment.recovery_service(
            tick_interval=interval, lease_timeout=5.0
        )
        batcher = service.batcher
        epoch_starts, tick_returns = _recording_lanes(batcher)
        with service:
            batcher.submit("demand-b2b-first", 0, b"h1").wait(timeout=30)
            batcher.release("demand-b2b-first", 0)
            batcher.submit("demand-b2b-second", 0, b"h2").wait(timeout=30)
            batcher.release("demand-b2b-second", 0)
        assert len(epoch_starts) == 2
        assert epoch_starts[1] - tick_returns[0] >= interval
        assert epoch_starts[1] - tick_returns[0] < 3 * interval  # and not a poll later

    def test_no_wakeup_is_lost(self, ticker_deployment):
        """8 threads x 20 sessions against a 5 s fallback poll (the quiet
        period switched off so the epochs can run back to back): a lost
        wake-up would park a session until the poll.  Every other tick a
        session is also submitted from inside the ticker thread, between
        the signal's ``clear`` and the tick's queue swap."""
        service = ticker_deployment.recovery_service(
            tick_interval=5.0, lease_timeout=5.0
        )
        batcher = service.batcher
        batcher.quiet_remaining = lambda period: 0.0
        tick, ticks, squeezed = batcher.tick, [0], []

        def tick_with_a_submit_squeezed_in():
            ticks[0] += 1
            if ticks[0] % 2 == 0 and len(squeezed) < 20:
                squeezed.append(
                    batcher.submit(f"demand-squeezed-{len(squeezed)}", 0, b"hs")
                )
                served = tick()
                try:  # taken by the very tick it raced, not left for the poll
                    squeezed[-1].wait(timeout=0)
                except Exception as exc:  # noqa: BLE001
                    errors.append(("ticker", repr(exc)))
                batcher.release(f"demand-squeezed-{len(squeezed) - 1}", 0)
                return served
            return tick()

        batcher.tick = tick_with_a_submit_squeezed_in
        waits, errors = [], []

        def run(worker):
            try:
                for i in range(20):
                    start = time.monotonic()
                    batcher.submit(f"demand-w{worker}-{i}", 0, b"h").wait(timeout=4.0)
                    waits.append(time.monotonic() - start)
                    batcher.release(f"demand-w{worker}-{i}", 0)
            except Exception as exc:  # noqa: BLE001
                errors.append((worker, repr(exc)))

        with service:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(waits) == 160 and max(waits) < 2.5
        assert squeezed and service.stats()["sessions_served"] == 160 + len(squeezed)

    def test_release_of_a_deferred_lane_raises_the_signal(self):
        """A lane deferred on a straggler becomes runnable at ``release``:
        with sessions queued that is demand, and a driver asleep on a long
        fallback (30 s here) runs the lane's epoch without waiting for it.
        A release with nothing queued is not demand."""
        _, batcher = _stub_lane_batcher(lease_timeout=30.0)
        holder = _user_on_shard(0, 4, "dsa")
        batcher.submit(holder, 0, b"h-a")
        assert batcher.tick() == 1  # lane 0 leased
        deferred = batcher.submit(_user_on_shard(0, 4, "dsb"), 0, b"h-b")
        other = _user_on_shard(1, 4, "dsc")
        batcher.submit(other, 0, b"h-c")
        assert batcher.tick() == 1  # lane 1 ran, lane 0 deferred
        batcher.release(other, 0)  # drains lane 1; lane 0's session is queued
        batcher.wait_for_demand(0)  # consume the signals raised so far

        def drive():
            batcher.wait_for_demand(30.0)
            batcher.tick()

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        time.sleep(0.05)
        start = time.monotonic()
        batcher.release(holder, 0)
        deferred.wait(timeout=5)
        assert time.monotonic() - start < 2.0
        driver.join(timeout=5)
        assert not driver.is_alive()

        batcher.release(_user_on_shard(0, 4, "dsb"), 0)
        assert batcher.pending_sessions() == 0
        assert not batcher._wake.is_set()  # nothing queued: no demand

    def test_stop_does_not_sit_out_the_poll(self, ticker_deployment):
        service = ticker_deployment.recovery_service(tick_interval=30.0)
        service.start()
        last = service.batcher.submit("demand-stop", 0, b"h")  # an epoch, then asleep
        last.wait(timeout=30)
        time.sleep(0.05)
        start = time.monotonic()
        service.stop()
        assert time.monotonic() - start < 1.0
        assert service._ticker is None

    def test_stop_still_drains_a_last_session(self, ticker_deployment):
        """The final drain tick stays: a session queued inside the quiet
        period is served by ``stop``, not abandoned to its timeout."""
        service = ticker_deployment.recovery_service(tick_interval=30.0)
        batcher = service.batcher
        service.start()
        batcher.submit("demand-drain-first", 0, b"h1").wait(timeout=30)
        batcher.release("demand-drain-first", 0)
        late = batcher.submit("demand-drain-late", 0, b"h2")  # 30 s of quiet ahead
        service.stop()
        late.wait(timeout=0)

    def test_manual_tick_service_runs_no_epoch_unasked(self, ticker_deployment):
        """Never ``start()``ed: the signal is raised and nobody acts on it."""
        service = ticker_deployment.recovery_service(tick_interval=0.01)
        service.pool.start()
        try:
            ticket = service.batcher.submit("demand-manual", 0, b"h")
            time.sleep(0.1)
            assert service.stats()["epochs_run"] == 0
            with pytest.raises(ServiceTimeout):
                ticket.wait(timeout=0.05)
            assert service.tick() == 0  # committed; the session had walked away
            assert service.stats()["epochs_run"] == 1
        finally:
            service.stop()


class TestQuietPeriodClock:
    """The clock behind the quiet period keys on "a lane ran" — not on
    ``tick``'s return value, which is sessions served."""

    def test_idle_ticks_do_not_push_it(self, batcher_provider):
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        assert batcher.tick() == 0
        assert batcher.quiet_remaining(30.0) <= 0
        batcher.submit("clock-user", 0, b"h")
        assert batcher.tick() == 1
        time.sleep(0.05)
        before = batcher.quiet_remaining(30.0)
        assert 0 < before < 30.0
        assert batcher.tick() == 0  # the fallback poll finding nothing
        assert batcher.quiet_remaining(30.0) <= before

    def test_an_epoch_that_serves_nobody_counts(self, batcher_provider):
        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        batcher_provider.log.insert(b"out-of-band", b"value")
        assert batcher.tick() == 0  # committed an entry, served no session
        assert batcher.epochs_run == 1
        assert batcher.quiet_remaining(30.0) > 0

    def test_a_tick_whose_lanes_all_failed_counts(self, batcher_provider):
        batcher = EpochBatcher(
            batcher_provider,
            lane_runner=lambda shards: dict.fromkeys(shards, RuntimeError("down")),
        )
        ticket = batcher.submit("clock-failed", 0, b"h")
        assert batcher.tick() == 0
        with pytest.raises(ProviderError, match="epoch failed"):
            ticket.wait(timeout=1)
        assert batcher.quiet_remaining(30.0) > 0


class TestTickFailures:
    def test_raising_tick_fails_the_tickets_it_took(self, batcher_provider):
        """A lane runner that raises instead of reporting: the waiters are
        already off the queue, so they get a typed error with the cause
        attached instead of a session_timeout, and the batcher lives on."""

        def broken(shards):
            raise RuntimeError("lane pool gone")

        batcher = EpochBatcher(batcher_provider, lane_runner=broken)
        tickets = [batcher.submit(f"poisoned-{i}", 0, b"h%d" % i) for i in range(3)]
        with pytest.raises(RuntimeError, match="lane pool gone"):
            batcher.tick()
        for ticket in tickets:
            with pytest.raises(ProviderError, match="tick failed") as caught:
                ticket.wait(timeout=0)
            assert isinstance(caught.value.__cause__, RuntimeError)
        stats = batcher.stats()
        assert stats["tick_failures"] == 1 and stats["pending_sessions"] == 0
        assert stats["outstanding_leases"] == 0
        assert batcher.quiet_remaining(30.0) > 0  # the lanes were entered

    def test_failure_after_the_lanes_committed_spares_served_sessions(
        self, batcher_provider, monkeypatch
    ):
        """A proof failing after the epoch committed: the session already
        served keeps its proof and lease, the next one gets a typed error."""
        log = batcher_provider.log
        prove, proved = log.prove_includes, []

        def prove_once(identifier, value):
            proved.append(identifier)
            if len(proved) == 2:
                raise OSError("proof store gone")
            return prove(identifier, value)

        batcher = EpochBatcher(batcher_provider, commit_lanes(batcher_provider))
        served = batcher.submit("served", 0, b"h")
        refused = batcher.submit("refused", 0, b"h2")
        monkeypatch.setattr(log, "prove_includes", prove_once)
        with pytest.raises(OSError):
            batcher.tick()
        identifier, proof = served.wait(timeout=0)
        assert verify_includes(log.digest, identifier, b"h", proof)
        with pytest.raises(ProviderError, match="tick failed") as caught:
            refused.wait(timeout=0)
        assert isinstance(caught.value.__cause__, OSError)
        assert batcher.outstanding_leases() == 1
        assert batcher.stats()["tick_failures"] == 1

    def test_ticker_survives_a_poisoned_tick(self, ticker_deployment, capfd):
        """Regression: an exception escaping ``tick`` used to kill the
        epoch-ticker thread, and every later session died of
        ``ServiceTimeout`` ("is the ticker running?")."""
        service = ticker_deployment.recovery_service(
            tick_interval=0.01, lease_timeout=5.0, session_timeout=10.0
        )
        batcher = service.batcher
        run_lanes, poisoned = batcher._lane_runner, []

        def poison_once(shards):
            if not poisoned:
                poisoned.append(True)
                raise RuntimeError("poisoned tick")
            return run_lanes(shards)

        batcher._lane_runner = poison_once
        client = service.new_client("demand-survivor")
        client.backup(b"still served", pin="2222")
        with service:
            with pytest.raises(ProviderError, match="tick failed") as caught:
                batcher.submit("demand-poisoned", 0, b"h").wait(timeout=5)
            assert isinstance(caught.value.__cause__, RuntimeError)
            assert service._ticker.is_alive()
            assert client.recover("2222") == b"still served"
        assert service.stats()["tick_failures"] == 1
        assert "poisoned tick" in capfd.readouterr().err  # traceback reported
