"""Command-line interface for exploring the SafetyPin reproduction.

Drives an in-memory deployment through the library's public API:

    python -m repro.cli demo                 # end-to-end walkthrough
    python -m repro.cli plan --users 1e9     # deployment sizing (§9.2)
    python -m repro.cli params               # paper parameters + bounds
    python -m repro.cli attack               # run the threat-model attacks
    python -m repro.cli loadtest --clients 16  # concurrent service sessions

(Backups are in-process: the CLI is a teaching/evaluation tool, not a
persistence layer.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import Deployment, SystemParams
    from repro.core.client import RecoveryError

    params = SystemParams.for_testing(
        num_hsms=args.hsms, cluster_size=args.cluster, pin_length=len(args.pin)
    )
    print(f"provisioning {params.num_hsms} HSMs (n={params.cluster_size}, "
          f"t={params.threshold})...")
    dep = Deployment.create(params)
    client = dep.new_client(args.user)
    message = args.message.encode("utf-8")
    client.backup(message, pin=args.pin)
    print(f"backed up {len(message)} bytes for {args.user!r}")
    recovered = client.recover(pin=args.pin)
    assert recovered == message
    print("recovered successfully; HSMs punctured their keys")
    try:
        client.recover(pin=args.pin)
        print("ERROR: second recovery should have failed")
        return 1
    except RecoveryError:
        print("second recovery correctly refused (forward security)")
    print(f"log entries for {args.user!r}: "
          f"{len(client.audit_my_recovery_attempts())}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.bounds import minimum_cluster_size, security_loss_bits
    from repro.hsm.devices import SAFENET_A700, SOLOKEY, YUBIHSM2
    from repro.sim.capacity import plan_deployment

    users = float(args.users)
    n = minimum_cluster_size(10 ** args.pin_digits)
    print(f"cluster size n = {n} for {args.pin_digits}-digit PINs")
    plans = [plan_deployment(d, users, cluster_size=n) for d in (SOLOKEY, YUBIHSM2, SAFENET_A700)]
    for plan in plans:
        print(f"  {plan.describe()}")
    print(f"security loss vs PIN guessing at the SoloKey plan: "
          f"{security_loss_bits(plans[0].quantity, n):.2f} bits")
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    from repro.analysis.bounds import (
        audit_failure_probability,
        correctness_failure_exact,
        security_advantage_bound,
    )
    from repro.core.params import SystemParams

    params = SystemParams.for_paper()
    bloom = params.bloom_params()
    print("paper deployment parameters:")
    print(f"  N = {params.num_hsms} HSMs, n = {params.cluster_size}, "
          f"t = {params.threshold}")
    print(f"  PIN space |P| = {params.pin_space_size:,}")
    print(f"  f_secret = {params.f_secret} "
          f"(tolerates {params.tolerated_compromises} stolen HSMs)")
    print(f"  f_live = {params.f_live} "
          f"(tolerates {params.tolerated_failures} failed HSMs)")
    print(f"  Bloom key: {bloom.num_slots:,} slots x 32 B = "
          f"{bloom.secret_key_bytes() / 1e6:.0f} MB, k = {bloom.num_hashes}")
    print("derived security bounds:")
    print(f"  audit miss prob (C=128): "
          f"{audit_failure_probability(params.f_secret, params.audit_count):.2e}")
    print(f"  recovery failure prob: "
          f"{correctness_failure_exact(params.cluster_size, params.threshold, params.f_live):.2e}")
    print(f"  attacker advantage bound (Thm 10): "
          f"{security_advantage_bound(params.num_hsms, params.cluster_size, params.pin_space_size):.2e}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import dataclasses
    import random
    import threading
    import time

    from repro import Deployment, SystemParams

    params = SystemParams.for_testing(
        num_hsms=args.hsms,
        cluster_size=args.cluster,
        max_punctures=max(16, 4 * args.clients),
    )
    params = dataclasses.replace(params, log_shards=args.shards)
    shard_note = f", {args.shards} log shards" if args.shards > 1 else ""
    print(f"provisioning {params.num_hsms} HSMs for {args.clients} concurrent "
          f"clients (batched epochs, {args.transport} transport"
          f"{shard_note})...")
    dep = Deployment.create(params, rng=random.Random(args.seed))
    service = dep.recovery_service(
        transport=args.transport, tick_interval=args.tick_interval
    )
    clients = [service.new_client(f"load-{i}") for i in range(args.clients)]
    errors: List[str] = []

    def session(i: int) -> None:
        try:
            message = f"payload-{i}".encode("utf-8")
            pin = f"{1000 + i:04d}"[: params.pin_length]
            clients[i].backup(message, pin=pin)
            if clients[i].recover(pin) != message:
                errors.append(f"client {i}: wrong plaintext")
        except Exception as exc:  # noqa: BLE001 - report, don't crash the bench
            errors.append(f"client {i}: {exc!r}")

    epochs_before = dep.provider.log.epoch
    with service:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=session, args=(i,)) for i in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
    stats = service.stats()
    print(f"{args.clients} backup+recovery sessions in {elapsed:.2f}s "
          f"({args.clients / max(elapsed, 1e-9):.1f} sessions/s)")
    epochs = dep.provider.log.epoch - epochs_before
    lanes = stats["shard_lanes"]
    lane_note = f" across {lanes} shard lanes" if lanes > 1 else ""
    print(f"log epochs committed: {epochs}{lane_note} "
          f"(sessions per epoch: {stats['epoch_sessions']})")
    busiest = max(stats["jobs_per_device"])
    print(f"busiest HSM queue served {busiest} requests")
    if "provider_wire" in stats:
        pw = stats["provider_wire"]
        print(f"provider RPC wire traffic: {pw['frames_sent']} frames, "
              f"{pw['bytes_sent']} request bytes, "
              f"{pw['bytes_received']} reply bytes")
    if errors:
        for line in errors:
            print("ERROR:", line)
        return 1
    print("all sessions recovered their backups")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    import runpy
    import os

    script = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "examples",
        "attack_and_audit.py",
    )
    if os.path.exists(script):
        runpy.run_path(script, run_name="__main__")
        return 0
    # Fallback when examples/ is not shipped: run the core attack inline.
    from repro import Deployment, SystemParams
    from repro.adversary.attacks import decrypt_with_stolen_secrets

    dep = Deployment.create(SystemParams.for_testing())
    client = dep.new_client("victim")
    client.backup(b"secret", pin="1234")
    ct = dep.provider.fetch_backup("victim")
    stolen = dep.fleet.compromise([0])
    # The cluster is drawn with replacement, so HSM 0 may hold t positions.
    held = client.lhe.select(ct.salt, "1234").count(0)
    print(f"one stolen HSM holding {held} of t = {client.lhe.threshold} positions"
          " decrypts:", decrypt_with_stolen_secrets(client.lhe, ct, stolen, "1234", client.mpk))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="SafetyPin reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end backup/recovery walkthrough")
    demo.add_argument("--hsms", type=int, default=16)
    demo.add_argument("--cluster", type=int, default=4)
    demo.add_argument("--user", default="alice")
    demo.add_argument("--pin", default="4927")
    demo.add_argument("--message", default="hello from safetypin")
    demo.set_defaults(func=_cmd_demo)

    plan = sub.add_parser("plan", help="deployment sizing (§9.2)")
    plan.add_argument("--users", default="1e9")
    plan.add_argument("--pin-digits", type=int, default=6)
    plan.set_defaults(func=_cmd_plan)

    params = sub.add_parser("params", help="paper parameters and bounds")
    params.set_defaults(func=_cmd_params)

    attack = sub.add_parser("attack", help="run the threat-model attack demos")
    attack.set_defaults(func=_cmd_attack)

    loadtest = sub.add_parser(
        "loadtest", help="concurrent recovery sessions through the service layer"
    )
    loadtest.add_argument("--clients", type=int, default=16)
    loadtest.add_argument("--hsms", type=int, default=16)
    loadtest.add_argument("--cluster", type=int, default=4)
    loadtest.add_argument("--transport", choices=("wire", "direct"), default="wire")
    loadtest.add_argument(
        "--tick-interval", type=float, default=0.02,
        help="seconds of quiet kept after an epoch, and the ticker's fallback"
        " poll; an idle service starts a session's epoch at once",
    )
    loadtest.add_argument(
        "--shards", type=int, default=1,
        help="log shards / parallel epoch lanes",
    )
    loadtest.add_argument("--seed", type=int, default=7)
    loadtest.set_defaults(func=_cmd_loadtest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
