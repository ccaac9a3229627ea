"""The count pass: exact operation and byte counts, no threads, no clock.

A few sessions on the single-threaded direct deployment path
(``Deployment.new_client(transport="wire")``, one epoch per recovery, no
service threads) under ``DeterministicEntropy(seed)``.  Every count is a
pure function of ``(workload shape, seed)``: the pass runs twice and the
caller fails unless the two results are identical.  These are counts a later
change may cite as counts — never as speed-ups, since they omit all waiting.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro import metering
from repro.chaos.entropy import DeterministicEntropy
from repro.hsm import costmodel

from workloads import Workload, create_deployment, new_user

SESSIONS = 4


def count_pass(
    workload: Workload,
    seed: int,
    sessions: int = SESSIONS,
    max_punctures: Optional[int] = None,
) -> Dict[str, float]:
    """Counts per operation (recovery or backup) for ``workload``'s shape."""
    with DeterministicEntropy(seed):
        rng = random.Random(seed)
        deployment = create_deployment(workload, rng, max_punctures)
        journal = deployment.provider.journal
        users = [
            new_user(rng, deployment.new_client(f"count-{seed}-{i}", transport="wire"))
            for i in range(sessions)
        ]
        if workload.op == "recover":
            for user in users:
                user.client.backup(user.payload, user.pin)

        fleet_before = deployment.fleet.total_op_counts()
        wire_before = [user.client.provider.wire_stats() for user in users]
        stored_before = journal.store.total_bytes() if journal is not None else 0
        with metering.metered() as ambient:
            for user in users:
                if workload.op == "backup":
                    user.client.backup(user.payload, user.pin)
                elif user.client.recover(user.pin) != user.payload:
                    raise AssertionError("count pass: recovered plaintext differs")
        fleet_after = deployment.fleet.total_op_counts()

    fleet = {op: fleet_after[op] - fleet_before.get(op, 0) for op in fleet_after}
    wire = {
        key: sum(
            user.client.provider.wire_stats()[key] - before[key]
            for user, before in zip(users, wire_before)
        )
        for key in ("frames_sent", "bytes_sent", "bytes_received")
    }
    priced = {op: units for op, units in fleet.items() if op in costmodel.CATEGORY}
    stored = (journal.store.total_bytes() if journal is not None else 0) - stored_before
    counts = {
        "hsm_model_ms": costmodel.CostModel().seconds(priced) * 1e3,
        "wire_frames": wire["frames_sent"],
        "wire_bytes": wire["bytes_sent"] + wire["bytes_received"],
        "wal_appends": ambient.counts["wal_records"],
        "stored_bytes": stored,
        "aes_blocks": ambient.counts["aes_block"],
    }
    for op in ("ec_mult", "ecdsa_verify", "aes_block", "sha256_block", "hmac"):
        counts["hsm_" + op] = fleet.get(op, 0)
    return {key: value / sessions for key, value in counts.items()}
