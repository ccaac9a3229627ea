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
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.metering import OpMeter

SEED_AMBIENT = {"sha256_block": 8090, "ec_mult": 24, "ecdsa_verify": 144, "hmac": 24}
SEED_DEVICE = {"sha256_block": 8314, "ec_mult": 416, "ecdsa_verify": 192}
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
