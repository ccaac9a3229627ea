"""Service throughput: batched log epochs vs one epoch per recovery.

The paper's deployment batches all client log insertions into one update
epoch every ~10 minutes; the seed reproduction instead ran a full epoch
inside every recovery (``ServiceProvider.log_and_prove``), so nothing could
be served concurrently.  This benchmark drives the same deployment shape
both ways and measures:

- throughput vs concurrency through ``RecoveryService`` (batched epochs:
  sessions overlap freely; the per-HSM FIFO queues are the only
  serialization), and
- the same workload with per-request epochs — the seed's path as it still
  exists: plain ``Deployment.new_client`` clients, whose ``log_and_prove``
  runs a whole epoch inside every recovery.  That epoch invalidates every
  other in-flight inclusion proof, so the baseline serializes recoveries
  under one lock; this lock is what batching removes.

It also checks the acceptance property: a batched run of >= 8 concurrent
recoveries commits exactly one log epoch per batch tick, and batched
throughput beats per-request throughput.  Two exact rows hold the client's
share of the work on that run: the fleet serves one decrypt-and-puncture
request per *distinct* member of each session's cluster (clusters are drawn
with replacement; a repeated member's second request could only be
refused), and each client opens ``threshold`` escrowed replies, not all it
holds.  A final pass runs the same
batched workload over the byte-framed provider RPC channel vs the
direct-call reference path and reports the wire overhead (ratio, frames,
bytes per session) into the emitted ``BENCH_*.json``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py -s
      or:  PYTHONPATH=src python benchmarks/bench_service_throughput.py
"""

import contextlib
import random
import threading
import time

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.hsm.device import HsmDevice, HsmStaleProofError

try:
    from reporting import emit, table
except ImportError:  # running as a script from the repo root
    from benchmarks.reporting import emit, table

CONCURRENCY_LEVELS = (2, 8, 16)
SESSIONS = 16  # recoveries per measured run
HSMS = 12
CLUSTER = 3


def _fresh_deployment(seed: int = 23) -> Deployment:
    params = SystemParams.for_testing(
        num_hsms=HSMS, cluster_size=CLUSTER, max_punctures=4 * SESSIONS
    )
    return Deployment.create(params, rng=random.Random(seed))


def _fresh_service(seed: int = 23, transport: str = "wire"):
    deployment = _fresh_deployment(seed)
    service = deployment.recovery_service(
        transport=transport, tick_interval=0.01, lease_timeout=5.0
    )
    return deployment, service


@contextlib.contextmanager
def _share_request_outcomes():
    """Record how every decrypt-and-puncture request a device receives while
    the block runs ends: ``None`` for a reply, else the exception type."""
    original = HsmDevice.decrypt_share
    outcomes = []

    def recorded(device, request):
        try:
            reply = original(device, request)
        except Exception as exc:
            outcomes.append(type(exc))
            raise
        outcomes.append(None)
        return reply

    HsmDevice.decrypt_share = recorded
    try:
        yield outcomes
    finally:
        HsmDevice.decrypt_share = original


def _run_sessions(new_client, concurrency: int, recover_guard=None):
    """Run ``SESSIONS`` backup+recovery pairs over ``concurrency`` threads,
    each on a client from ``new_client(name)``; ``recover_guard`` (a lock)
    serializes the recoveries.  Returns (elapsed seconds, error list)."""
    clients = [new_client(f"bench-{concurrency}-{i}") for i in range(SESSIONS)]
    recover_guard = recover_guard or contextlib.nullcontext()
    errors = []
    queue = list(range(SESSIONS))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                if not queue:
                    return
                i = queue.pop()
            try:
                message = b"payload-%d" % i
                clients[i].backup(message, pin="4242")
                with recover_guard:
                    recovered = clients[i].recover("4242")
                if recovered != message:
                    errors.append(f"session {i}: wrong plaintext")
            except Exception as exc:  # noqa: BLE001 - benchmarks report, not crash
                errors.append(f"session {i}: {exc!r}")

    start = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start, errors


def test_service_throughput():
    rows = []
    batched_best = 0.0
    acceptance = {}

    # Per-request baseline: no service, one epoch inside every recovery.
    deployment = _fresh_deployment()
    epochs_before = deployment.provider.log.epoch
    elapsed, errors = _run_sessions(
        deployment.new_client, SESSIONS, recover_guard=threading.Lock()
    )
    assert not errors, errors
    epochs = deployment.provider.log.epoch - epochs_before
    assert epochs == SESSIONS  # exactly the seed's one epoch per recovery
    per_request_rate = SESSIONS / elapsed
    rows.append(("per-request", SESSIONS, SESSIONS, f"{elapsed:.2f}", epochs,
                 f"{per_request_rate:.1f}"))

    for concurrency in CONCURRENCY_LEVELS:
        deployment, service = _fresh_service()
        epochs_before = deployment.provider.log.epoch
        with service, _share_request_outcomes() as outcomes:
            elapsed, errors = _run_sessions(service.new_client, concurrency)
        assert not errors, errors
        epochs = deployment.provider.log.epoch - epochs_before
        rate = SESSIONS / elapsed
        rows.append(
            ("batched", concurrency, SESSIONS, f"{elapsed:.2f}", epochs, f"{rate:.1f}")
        )
        batched_best = max(batched_best, rate)
        if concurrency >= 8:
            # Salts are live entropy here, so the expected request count is
            # read off the clusters this run's sessions actually drew.  A
            # request bounced for a stale proof never reached the key tree
            # and was re-sent with a fresh one: not a second request.
            served = sum(outcome is not HsmStaleProofError for outcome in outcomes)
            clusters = [
                client.lhe.select(
                    deployment.provider.fetch_backup(client.username).salt, "4242"
                )
                for client in service.clients
            ]
            acceptance = {
                "stats": service.stats(),
                "epochs": epochs,
                "concurrency": concurrency,
                "threshold": deployment.params.threshold,
                "hsm_requests_per_recovery": served / SESSIONS,
                "distinct_members_per_cluster": sum(len(set(c)) for c in clusters) / SESSIONS,
                "client_reply_opens_per_recovery": sum(
                    client.meter.counts["elgamal_dec"] for client in service.clients
                ) / SESSIONS,
            }

    # Acceptance: >= 8 concurrent recoveries, exactly one epoch per tick that
    # served sessions, and batched beats per-request throughput.
    stats = acceptance["stats"]
    assert stats["sessions_served"] >= 8
    assert stats["epochs_run"] == len(stats["epoch_sessions"])  # one epoch per tick
    assert stats["epochs_run"] < stats["sessions_served"]  # epochs are shared
    assert batched_best > per_request_rate
    # The client asks each distinct cluster member once and opens t replies.
    hsm_requests = acceptance["hsm_requests_per_recovery"]
    reply_opens = acceptance["client_reply_opens_per_recovery"]
    assert hsm_requests == acceptance["distinct_members_per_cluster"] <= CLUSTER
    assert reply_opens == acceptance["threshold"]

    # Wire overhead of the provider RPC leg: the same batched workload over
    # the byte-framed channel vs the direct-call reference path, plus the
    # frames/bytes the wire channel actually moved.
    wire_elapsed = direct_elapsed = None
    wire_traffic = {}
    for transport in ("wire", "direct"):
        _, service = _fresh_service(seed=29, transport=transport)
        with service:
            elapsed, errors = _run_sessions(service.new_client, max(CONCURRENCY_LEVELS))
        assert not errors, errors
        if transport == "wire":
            wire_elapsed = elapsed
            wire_traffic = service.stats()["provider_wire"]
        else:
            direct_elapsed = elapsed
    wire_overhead = wire_elapsed / direct_elapsed
    wire_bytes = wire_traffic["bytes_sent"] + wire_traffic["bytes_received"]

    # Project the measured arrival rate onto the paper's 10-minute epoch.
    sessions_per_epoch = batched_best * 600.0
    lines = table(
        ("mode", "threads", "sessions", "seconds", "epochs", "sess/s"),
        rows,
        (14, 9, 10, 9, 8, 8),
    )
    lines.append("")
    lines.append(
        f"batched {batched_best:.1f} sess/s vs per-request "
        f"{per_request_rate:.1f} sess/s "
        f"({batched_best / per_request_rate:.1f}x)"
    )
    lines.append(
        "at this rate with the paper's 10-min epoch: "
        f"{sessions_per_epoch:.0f} sessions share each epoch "
        f"({sessions_per_epoch:.0f}x less log-update work), mean added wait 5 min"
    )
    lines.append(
        f"per recovery: {hsm_requests:.2f} HSM share requests (= distinct members "
        f"of its n={CLUSTER} cluster), {reply_opens:.0f} client reply open(s) "
        f"(= t={acceptance['threshold']})"
    )
    lines.append(
        f"provider RPC wire overhead: {wire_overhead:.2f}x vs direct "
        f"({wire_traffic['frames_sent']} frames, "
        f"{wire_bytes / SESSIONS:.0f} B/session)"
    )
    lines.append("paper: one batch epoch every ~10 min serves every pending insertion")
    emit(
        "service_throughput",
        "Service throughput: batched epochs vs per-request epochs",
        lines,
        data={
            "results": [
                {
                    "mode": mode,
                    "threads": concurrency,
                    "sessions": sessions,
                    "seconds": float(seconds),
                    "epochs": epochs,
                    "sessions_per_sec": float(rate),
                }
                for mode, concurrency, sessions, seconds, epochs, rate in rows
            ],
            "metrics": {
                "batched_sessions_per_sec": batched_best,
                "per_request_sessions_per_sec": per_request_rate,
                "batching_speedup": batched_best / per_request_rate,
                "modeled_sessions_per_epoch": sessions_per_epoch,
                "hsm_requests_per_recovery": hsm_requests,
                "client_reply_opens_per_recovery": reply_opens,
                "provider_wire_overhead_vs_direct": wire_overhead,
                "provider_wire_frames": wire_traffic["frames_sent"],
                "provider_wire_request_bytes": wire_traffic["bytes_sent"],
                "provider_wire_reply_bytes": wire_traffic["bytes_received"],
                "provider_wire_bytes_per_session": wire_bytes / SESSIONS,
            },
        },
    )


if __name__ == "__main__":
    test_service_throughput()
