"""Crash-recovery restore cost: replay time vs journal size.

Grows a durable deployment (append-only journal on an in-memory block
store) through an increasing number of committed epochs, then measures
what a restart actually costs:

- **replay** — ``ProviderJournal.replay_state``: walk the hash-chained
  WAL and fold every record into the restored state image;
- **restore** — ``Deployment.restore``: replay plus rebuilding the
  provider (logs, escrow, attempt counters) and re-pointing every device
  at its key-array region of the store (the key blocks live there in
  place; no record carries one and none is replayed);
- **snapshot** — ``ServiceProvider.snapshot``: collapse history into one
  SNAPSHOT record + anchor, then restore again from the compacted store.

Restore cost scales with journal length; the snapshot path is the
mitigation (restore-from-snapshot pays only for live state — entries and
escrow — never for replay history).  Two correctness gates (exit code 1
on failure):

- every restore — full-replay and post-snapshot — reproduces the exact
  pre-crash log digest at every scale;
- snapshot compaction actually reclaims WAL records at every scale.

Results go to stdout and to the machine-readable
``benchmarks/out/BENCH_recovery.json`` (schema 1, see
``docs/BENCH_SCHEMA.md``).

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_recovery.py [--quick]``
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.storage.blockstore import InMemoryBlockStore
from repro.storage.journal import ProviderJournal

try:
    from reporting import emit, table
except ImportError:  # running as a module from the repo root
    from benchmarks.reporting import emit, table

HSMS = 4
CLUSTER = 3
ENTRIES_PER_EPOCH = 8
EPOCHS_PER_BACKUP = 2  # escrow traffic grows with the journal, like a real run


def _params() -> SystemParams:
    return SystemParams.for_testing(
        num_hsms=HSMS, cluster_size=CLUSTER, audit_count=2
    )


def _grow(params: SystemParams, epochs: int):
    """A durable deployment with ``epochs`` committed epochs journalled."""
    store = InMemoryBlockStore()
    dep = Deployment.create(params, rng=random.Random(97), store=store)
    for i in range(max(1, epochs // EPOCHS_PER_BACKUP)):
        client = dep.new_client(f"bench-user-{i}", transport="direct")
        client.backup(b"recovery-bench-%d" % i, pin=f"{i:04d}")
    for epoch in range(epochs):
        for i in range(ENTRIES_PER_EPOCH):
            dep.provider.log.insert(
                b"bench|u%d-%d|0" % (epoch, i), b"commitment-%d-%d" % (epoch, i)
            )
        dep.run_log_update()
    return dep, store


def _wal_records(dep) -> int:
    """WAL records a restart would replay (the key arrays sharing the store
    are not records and are not counted)."""
    return sum(1 for _ in dep.provider.journal.wal.replay())


def _timed(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds (restore is idempotent)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: fewer scales, single timing repeat",
    )
    parser.add_argument(
        "--epochs", type=int, nargs="*", default=None,
        help="journal scales to measure (committed epochs)",
    )
    args = parser.parse_args(argv)
    scales = args.epochs or ([2, 8] if args.quick else [4, 16, 64])
    repeats = 1 if args.quick else 3

    rows = []
    results = []
    metrics = {}
    digest_ok = True
    compaction_ok = True
    for epochs in scales:
        params = _params()
        dep, store = _grow(params, epochs)
        digest = dep.provider.log.digest
        records = _wal_records(dep)

        replay_s = _timed(lambda: ProviderJournal(store).replay_state(), repeats)
        restored = {}

        def full_restore():
            restored["dep"] = Deployment.restore(params, store, dep.fleet)

        restore_s = _timed(full_restore, repeats)
        digest_ok &= restored["dep"].provider.log.digest == digest

        snapshot_start = time.perf_counter()
        dep.provider.snapshot()
        snapshot_s = time.perf_counter() - snapshot_start
        compacted = _wal_records(dep)
        compaction_ok &= compacted < records

        def snap_restore():
            restored["snap"] = Deployment.restore(params, store, dep.fleet)

        snap_restore_s = _timed(snap_restore, repeats)
        digest_ok &= restored["snap"].provider.log.digest == digest

        rows.append(
            (
                epochs,
                epochs * ENTRIES_PER_EPOCH,
                records,
                f"{replay_s * 1000:.1f}",
                f"{restore_s * 1000:.1f}",
                compacted,
                f"{snap_restore_s * 1000:.1f}",
            )
        )
        results.append(
            {
                "epochs": epochs,
                "entries": epochs * ENTRIES_PER_EPOCH,
                "wal_records": records,
                "replay_ms": replay_s * 1000,
                "restore_ms": restore_s * 1000,
                "snapshot_ms": snapshot_s * 1000,
                "compacted_records": compacted,
                "restore_after_snapshot_ms": snap_restore_s * 1000,
            }
        )

    last = results[-1]
    metrics["max_epochs"] = last["epochs"]
    metrics["wal_records_at_max"] = last["wal_records"]
    metrics["replay_ms_at_max"] = last["replay_ms"]
    metrics["restore_ms_at_max"] = last["restore_ms"]
    metrics["restore_after_snapshot_ms_at_max"] = last["restore_after_snapshot_ms"]
    metrics["compaction_ratio_at_max"] = (
        last["wal_records"] / last["compacted_records"]
    )
    metrics["restore_records_per_sec_at_max"] = (
        last["wal_records"] / (last["restore_ms"] / 1000)
    )

    lines = table(
        ("epochs", "entries", "records", "replay ms", "restore ms",
         "snap records", "snap-restore ms"),
        rows,
        (7, 9, 8, 11, 12, 13, 17),
    )
    lines.append("")
    lines.append(
        f"journal = hash-chained WAL on a block store; one escrowed backup "
        f"per {EPOCHS_PER_BACKUP} epochs + {ENTRIES_PER_EPOCH} log entries "
        "per epoch"
    )
    lines.append(
        f"compaction at the largest scale reclaims "
        f"{metrics['compaction_ratio_at_max']:.0f}x "
        "(one snapshot record replaces the replay history)"
    )
    lines.append(
        "gates: every restore reproduces the pre-crash digest, and "
        "compaction shrinks the WAL -> "
        + ("PASS" if digest_ok and compaction_ok else "FAIL")
    )

    emit(
        "recovery",
        "Crash recovery: restore time vs journal size",
        lines,
        data={"results": results, "metrics": metrics},
    )
    if not digest_ok or not compaction_ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
