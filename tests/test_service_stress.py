"""Stress/property harness: >= 16 threaded clients through RecoveryService.

Each thread runs interleaved backup/recovery sessions against one shared
deployment while the service ticker commits batched log epochs underneath.
The run is seeded (deployment RNG, fixed usernames/PINs) and the
assertions are schedule-independent, so the test is deterministic:

- every session recovers its exact plaintext;
- the log stays consistent (replaying the ordered public entries
  reproduces the provider's digest; nothing left pending);
- attempt numbers are unique and contiguous per user, and the O(1)
  counters agree with the reference full-log scan;
- every session's inclusion proof verifies against the digest of the
  shared epoch that served it, and epochs really are shared (strictly
  fewer epochs than sessions).
"""

import random
import threading

import pytest

from repro.core.identifiers import parse_attempt_identifier
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.log.authdict import AuthenticatedDictionary, verify_includes

NUM_CLIENTS = 16
SECOND_ROUND_CLIENTS = 6  # these also run a second backup+recovery


@pytest.mark.slow
def test_sixteen_threaded_clients_interleave_backup_and_recovery():
    params = SystemParams.for_testing(
        num_hsms=12, cluster_size=3, max_punctures=96
    )
    deployment = Deployment.create(params, rng=random.Random(0xD06F00D))
    service = deployment.recovery_service(
        transport="wire", tick_interval=0.01, lease_timeout=10.0
    )
    clients = [service.new_client(f"stress-{i:02d}") for i in range(NUM_CLIENTS)]

    errors = []
    sessions = []  # (username, attempt, identifier, commitment, proof)
    sessions_lock = threading.Lock()

    def one_session(i: int, round_no: int) -> None:
        client = clients[i]
        pin = f"{(7 * i + round_no) % 10000:04d}"
        message = f"blob-{i}-{round_no}".encode("utf-8")
        client.backup(message, pin=pin)
        session = client.begin_recovery(pin)
        # Capture the proof exactly as the shared epoch resolved it (the
        # share phase may later refresh it).
        with sessions_lock:
            sessions.append(
                (
                    session.username,
                    session.attempt,
                    session.log_identifier,
                    session.commitment,
                    session.inclusion_proof,
                )
            )
        client.request_shares(session, pin)
        recovered = client.finish_recovery(session)
        assert recovered == message, f"client {i} round {round_no}: wrong plaintext"

    def run(i: int) -> None:
        try:
            one_session(i, 0)
            if i < SECOND_ROUND_CLIENTS:
                one_session(i, 1)
        except Exception as exc:  # noqa: BLE001 - collected and reported below
            errors.append(f"client {i}: {exc!r}")

    with service:
        threads = [
            threading.Thread(target=run, args=(i,), name=f"stress-client-{i}")
            for i in range(NUM_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert errors == []
    total_sessions = NUM_CLIENTS + SECOND_ROUND_CLIENTS
    assert len(sessions) == total_sessions

    # -- the epochs were shared -------------------------------------------------
    stats = service.stats()
    assert stats["sessions_served"] == total_sessions
    assert stats["epochs_run"] == len(stats["epoch_sessions"])
    assert sum(stats["epoch_sessions"]) == total_sessions
    assert stats["epochs_run"] < total_sessions  # batching actually batched
    # History rows are appended in lockstep (a tick that commits nothing
    # appends nothing): sessions and digests always pair up.
    assert len(stats["epoch_sessions"]) == len(service.batcher.epoch_digests)
    assert service.batcher.abandoned_sessions == 0

    # -- every session holds a valid proof from the epoch that served it -------
    digests = service.batcher.epoch_digests
    for username, attempt, identifier, commitment, proof in sessions:
        assert any(
            verify_includes(digest, identifier, commitment, proof)
            for digest in digests
        ), f"no epoch digest validates the proof for {username} attempt {attempt}"

    # -- unique, contiguous attempt numbers per user -----------------------------
    provider = deployment.provider
    by_user = {}
    for (username, attempt, _, _, _) in sessions:
        by_user.setdefault(username, []).append(attempt)
    for username, attempts in by_user.items():
        assert sorted(attempts) == list(range(len(attempts))), username
        # O(1) counters agree with the reference full-log rescan.
        assert provider.next_attempt_number(username) == provider.scan_attempt_number(
            username
        )

    # -- log consistency ---------------------------------------------------------
    assert not provider.log.pending
    replayed = AuthenticatedDictionary.from_entries(provider.log.ordered_entries)
    assert replayed.digest == provider.log.digest
    logged = [identifier for identifier, _ in provider.log.items()]
    assert len(logged) == len(set(logged))
    # every recovery identifier in the log parses and stays under the limit
    recovery_ids = [i for i in logged if i.startswith(b"rec|")]
    for identifier in recovery_ids:
        username, attempt = parse_attempt_identifier(identifier)
        assert attempt < params.max_attempts_per_user
    # exactly one logged attempt per session (nested recovery-key material is
    # a backup, so it stores a ciphertext but logs nothing)
    assert len(recovery_ids) == total_sessions
