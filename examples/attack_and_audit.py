#!/usr/bin/env python3
"""Attacks from the paper's threat model, run against the live system.

Demonstrates, in order:

1. a brute-force PIN guesser being stopped by the global attempt limit and
   leaving a public audit trail;
2. the adaptive HSM-corruption attacker of Theorem 10 / Remark 5 failing to
   find the hidden cluster;
3. forward security: compromising *every* HSM after the user recovered
   reveals nothing;
4. a cheating provider's log rewrite being caught both by the HSM fleet and
   by an external auditor;
5. the same single-HSM theft that is fatal to today's fixed-cluster systems
   (the baseline) being harmless to SafetyPin;
6. a relay between the client and the HSMs swapping the reply key for its
   own being refused by every device, with nothing punctured.

Run:  python examples/attack_and_audit.py
"""

import random

from repro import Deployment, SystemParams
from repro.adversary.attacks import (
    AdaptiveCorruptionAttacker,
    CheatingProvider,
    ReplyKeySwappingRelay,
    decrypt_with_stolen_secrets,
)
from repro.baseline.system import BaselineSystem
from repro.core.client import Client, RecoveryError
from repro.crypto.elgamal import HashedElGamal
from repro.log.auditor import AuditFailure, ExternalAuditor
from repro.log.distributed import LogConfig, LogUpdateRejected
from repro.service.channel import provider_channel, proving_channels, wire_channels


def brute_force_demo(deployment: Deployment) -> None:
    print("== 1. Brute-force PIN guessing through the protocol ==")
    victim = deployment.new_client("victim")
    victim.backup(b"bank credentials", pin="8362")

    attacker = deployment.new_client("victim")  # attacker knows the username
    guesses = 0
    for pin in (f"{p:04d}" for p in range(10_000)):
        try:
            attacker.recover(pin)
            print("  !! attacker got in")
            return
        except RecoveryError as exc:
            guesses += 1
            if "exhausted" in str(exc):
                break
    print(f"  attacker stopped after {guesses} guesses "
          f"(limit: {deployment.params.max_attempts_per_user} per user)")
    print(f"  victim's audit view shows {len(victim.audit_my_recovery_attempts())} "
          "logged break-in attempts — the attack is public")


def adaptive_corruption_demo(deployment: Deployment) -> None:
    print("\n== 2. Adaptive HSM corruption (Theorem 10 attacker) ==")
    client = deployment.new_client("diplomat")
    client.backup(b"cables", pin="4410")
    ciphertext = deployment.provider.fetch_backup("diplomat")

    budget = max(2, deployment.params.tolerated_compromises)
    attacker = AdaptiveCorruptionAttacker(deployment.fleet, client.lhe, budget)
    candidate_pins = [f"{p:04d}" for p in range(40) if f"{p:04d}" != "4410"]
    result = attacker.run(ciphertext, candidate_pins, client.mpk)
    print(f"  attacker corrupted HSMs {attacker.corrupted} "
          f"(budget {budget} = f_secret*N) and tested {len(candidate_pins)} PINs")
    print(f"  plaintext recovered: {result!r}  — location hiding held")


def forward_security_demo(deployment: Deployment) -> None:
    print("\n== 3. Total compromise after recovery ==")
    client = deployment.new_client("journalist")
    client.backup(b"sources", pin="9102")
    ciphertext = deployment.provider.fetch_backup("journalist")
    client.recover(pin="9102")
    stolen = deployment.fleet.compromise(range(len(deployment.fleet)))
    result = decrypt_with_stolen_secrets(
        client.lhe, ciphertext, stolen, "9102", client.mpk
    )
    print(f"  ALL {len(stolen)} HSMs compromised post-recovery; "
          f"attacker decrypts: {result!r}  — puncturable keys held")


def cheating_provider_demo() -> None:
    print("\n== 4. Cheating service provider vs the distributed log ==")
    from repro.crypto.bloom import BloomParams
    from repro.hsm.fleet import HsmFleet

    cfg = LogConfig(audit_count=3, quorum_fraction=0.75)
    fleet = HsmFleet(
        8, BloomParams.for_punctures(4, failure_exponent=4),
        log_config=cfg, rng=random.Random(9),
    )
    log = CheatingProvider(cfg)
    log.insert(b"rec|victim|0", b"honest-commitment")
    log.run_update(fleet.hsms)
    print("  honest round certified; provider now rewrites the entry...")

    log.rewrite_entry(b"rec|victim|0", b"forged-commitment")
    try:
        log.insert(b"rec|other|0", b"x")
        log.run_update(fleet.hsms)
        print("  !! fleet certified a forked log")
    except LogUpdateRejected as exc:
        print(f"  fleet refused the forked log: {exc}")

    auditor = ExternalAuditor("lets-encrypt")
    try:
        auditor.audit_snapshot(log.ordered_entries, fleet[0].log_digest)
        print("  !! auditor missed the rewrite")
    except AuditFailure:
        print("  external auditor also caught the rewrite on full replay")


def single_theft_demo(deployment: Deployment) -> None:
    print("\n== 5. One stolen HSM: baseline vs SafetyPin ==")
    baseline = BaselineSystem()
    for i in range(3):
        baseline.new_client(f"user{i}").backup(bytes([i]) * 16, pin="123456")
    stolen_key = baseline.clusters[0][0].extract_secrets()
    broken = 0
    for i in range(3):
        ct = baseline.fetch(f"user{i}")
        plaintext = HashedElGamal.decrypt(stolen_key, ct.body, context=b"baseline")
        broken += plaintext[32:] == bytes([i]) * 16
    print(f"  baseline: stealing ONE HSM broke {broken}/3 users' backups")

    client = deployment.new_client("sp-user")
    client.backup(b"safe data", pin="5050")
    ciphertext = deployment.provider.fetch_backup("sp-user")
    stolen = deployment.fleet.compromise([0])
    result = decrypt_with_stolen_secrets(client.lhe, ciphertext, stolen, "5050", client.mpk)
    print(f"  SafetyPin: stealing one HSM (even with the right PIN known) "
          f"recovers: {result!r}")


def relay_demo(deployment: Deployment) -> None:
    print("\n== 6. A relay swapping the reply key ==")
    relay = ReplyKeySwappingRelay(wire_channels(deployment.fleet))
    client = Client(
        "relayed", deployment.params, provider_channel(deployment.provider),
        proving_channels(
            relay,
            deployment.provider.prove_inclusion,
            deployment.provider.store_reply,
            deployment.provider.backup_share,
        ),
        deployment.fleet.master_public_key(),
    )
    client.backup(b"wire transfer codes", pin="6174")
    ciphertext = deployment.provider.fetch_backup("relayed")
    try:
        client.recover(pin="6174")
        print("  !! recovery went through the relay")
    except RecoveryError:
        pass
    context = client.lhe.context_for(ciphertext.username, ciphertext.salt, client.mpk, "6174")
    print(f"  {relay.refused} swapped requests refused (the key is in the logged "
          f"commitment); relay read {len(relay.shares)} shares and opens: "
          f"{relay.open_backup(client.lhe, ciphertext, context)!r}")
    recovered = deployment.new_client("relayed").recover(pin="6174")
    print(f"  nothing was punctured: without the relay the user recovers {recovered!r}")


def main() -> None:
    params = SystemParams.for_testing(
        num_hsms=16, cluster_size=4, pin_length=4, max_punctures=16
    )
    deployment = Deployment.create(params)
    brute_force_demo(deployment)
    adaptive_corruption_demo(deployment)
    forward_security_demo(deployment)
    cheating_provider_demo()
    single_theft_demo(deployment)
    relay_demo(deployment)
    print("\nAll six attacks behaved exactly as the paper's analysis predicts.")


if __name__ == "__main__":
    main()
