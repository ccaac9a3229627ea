"""The fixed seeded shards=1 workload and the counts it must meter.

Sharding must cost nothing when it is off: an unsharded deployment runs
exactly the operations of the pre-sharding tree.  This module holds the
one copy of that check's workload and constants.
``tests/test_sharded_log.py::TestUnshardedInvariance`` asserts it, and
``benchmarks/bench_sharded_epochs.py`` gates on it (that script puts
``tests/`` on its path, as ``bench_crypto_hotpath.py`` does for
``reference_comb``).

The constants were captured on the pre-sharding tree by running
:func:`invariance_counts`.  They have moved once since, by derivation
and not for sharding: a certificate carries a quorum of
signatures (6 of 8 at q = 0.75) instead of all 8, which is 2 fewer
``ecdsa_verify`` and 2 fewer ``sha256_block`` (the message hash) for each
of 8 acceptors an epoch, and ``verify_extension`` hashes each identifier
once, which is 1 ``sha256_block`` fewer an audited insertion.

They moved again when a certificate became one Schnorr multisignature of
the same 6 signers.  Each of 8 acceptors checks it once, so
``ecdsa_verify`` is divided by 6 (144 → 24 ambient over the 3 epochs, 192
→ 32 on the devices, which also ran the genesis epoch), and the
RFC 6979 ``hmac`` of each ECDSA signature is gone (24 → 0).  A nonce's
``k·G`` replaces a signature's, so ambient ``ec_mult`` stays 24; each of
the 8 devices' proof of possession adds one at keygen (416 → 424).  An
epoch's hashing went from 64 blocks (8 signatures at 2, 48 verifications
at 1) to 86 (8 nonce commitments, 6 signers x 6 openings, and a 3-block
challenge for each of 6 signers and 8 acceptors): ``sha256_block`` +66
ambient (3 epochs) and +120 on the devices (4 epochs, plus 8 proofs at 2
blocks for the nonce and 2 for the challenge).  The digest did not move.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.metering import OpMeter

SEED_AMBIENT = {"sha256_block": 8156, "ec_mult": 24, "ecdsa_verify": 24, "hmac": 0}
SEED_DEVICE = {"sha256_block": 8434, "ec_mult": 424, "ecdsa_verify": 32}
SEED_DIGEST = "c0dc9c0d982ec92dda58e216f616687823120537da44e64da9d32170452f8e2b"


def invariance_deployment() -> Deployment:
    """The workload's unsharded 8-device deployment, before any epoch."""
    params = SystemParams.for_testing(num_hsms=8, cluster_size=3, audit_count=2)
    return Deployment.create(params, rng=random.Random(1234))


def invariance_counts(dep: Optional[Deployment] = None):
    """Run three 16-insertion epochs on ``dep`` (a fresh
    :func:`invariance_deployment` by default).  Returns the ambient
    meter's counts, the fleet's summed device counts and the final digest
    in hex."""
    dep = dep or invariance_deployment()
    meter = OpMeter()
    with meter.attached():
        for epoch in range(3):
            for i in range(16):
                dep.provider.log.insert(
                    b"bench|u%d-%d|0" % (epoch, i), b"commitment-%d-%d" % (epoch, i)
                )
            dep.provider.log.run_update(dep.fleet.hsms)
    device = {}
    for hsm in dep.fleet.hsms:
        for key, value in hsm.meter.snapshot().items():
            device[key] = device.get(key, 0) + value
    return meter.snapshot(), device, dep.provider.log.digest.hex()


def invariance_moved(ambient, device, digest):
    """The names of the constants a run's counts miss (empty if none)."""
    moved = [f"ambient {k}" for k, v in SEED_AMBIENT.items() if ambient.get(k, 0) != v]
    moved += [f"device {k}" for k, v in SEED_DEVICE.items() if device.get(k, 0) != v]
    if digest != SEED_DIGEST:
        moved.append("digest")
    return moved
