"""Figure 8: log-audit time vs data-center size.

The paper inserts 10K recovery attempts into a ~100M-entry log and measures
how long one HSM spends auditing as the fleet grows: work per HSM is
C · (I/N) insertions, so audit time falls from ~50 s toward ~20 s as N goes
from 100 to 10K (the floor is the per-epoch fixed cost).

We regenerate the curve by (1) metering the *real* verifier
(``verify_extension`` of one insertion proof) on a live authenticated
dictionary to get exact operation counts per insertion, (2) scaling the path
length to a 100M-entry tree, and (3) pricing on the SoloKey cost model.  The
ablation at the end shows why the randomized-audit design exists: having
every HSM check every insertion would not scale at all.
"""

import math

from repro.crypto.hashing import sha256
from repro.hsm.costmodel import CostModel
from repro.hsm.devices import SOLOKEY
from repro.log.authdict import AuthenticatedDictionary, verify_extension
from repro.metering import metered

from reporting import emit, emit_rows

INSERTIONS = 10_000  # I: the batch size measured in the paper
LOG_ENTRIES = 100_000_000  # steady-state log size (~one month of recoveries)
AUDIT_COUNT = 128  # C = λ
MODEL = CostModel(SOLOKEY)


def _measured_per_insertion_counts():
    """Meter real insertion-proof verification; return per-depth-step and
    fixed operation counts."""
    d = AuthenticatedDictionary()
    for i in range(512):
        d.insert(b"seed%d" % i, b"v")
    old = d.digest
    proof = d.insert_with_proof(b"probe", b"v")
    depth = len(proof.steps)
    with metered() as meter:
        assert verify_extension(old, d.digest, [proof])
    blocks = meter.counts.get("sha256_block", 0)
    return blocks / max(1, depth), depth


def _per_insertion_seconds(log_entries: int) -> float:
    blocks_per_step, _ = _measured_per_insertion_counts()
    depth = math.log2(log_entries)
    # Hash work for the two root recomputations plus the proof bytes a chunk
    # transfer moves per insertion (~3 hashes of 32 B per path step).
    counts = {
        "sha256_block": blocks_per_step * depth,
        "io_bytes": depth * 96,
    }
    return MODEL.seconds(counts)


def audit_seconds(num_hsms: int) -> float:
    """Modeled per-HSM audit time for one 10K-insertion epoch."""
    per_insert = _per_insertion_seconds(LOG_ENTRIES)
    chunks_audited = min(AUDIT_COUNT, num_hsms)
    insertions_audited = chunks_audited * math.ceil(INSERTIONS / num_hsms)
    # Fixed per-epoch costs: sign the transition, verify the BLS aggregate.
    fixed = MODEL.seconds({"bls_sign": 1, "pairing": 2, "sha256_block": 64})
    return insertions_audited * per_insert + fixed


def test_fig8_log_audit_time(benchmark):
    # Benchmark the real primitive being modeled: one insertion verification.
    d = AuthenticatedDictionary()
    for i in range(1024):
        d.insert(b"x%d" % i, b"v")
    old = d.digest
    proof = d.insert_with_proof(b"bench", b"v")
    new = d.digest
    benchmark(lambda: verify_extension(old, new, [proof]))

    sizes = [100, 500, 1000, 2500, 5000, 10_000]
    times = {n: audit_seconds(n) for n in sizes}
    emit_rows(
        "fig8_log_audit",
        "Figure 8: log-audit time vs data-center size",
        [
            ("N (HSMs)", 10, lambda r: r["num_hsms"]),
            ("audit time", 14, lambda r: f"{r['audit_seconds']:.1f} s"),
        ],
        [{"num_hsms": n, "audit_seconds": times[n]} for n in sizes],
        notes=[
            "paper: ~50 s at small N falling to ~20 s at N=10K (Fig. 8)",
            f"shape check: t(100)/t(10K) = {times[100] / times[10_000]:.1f}x "
            "(paper: ~2.5x)",
        ],
        metrics={"shape_ratio_100_vs_10k": times[100] / times[10_000]},
    )

    # The paper's qualitative claims must hold:
    assert all(times[a] >= times[b] for a, b in zip(sizes, sizes[1:]))
    assert times[100] / times[10_000] > 1.5


def test_fig8_ablation_audit_everything(benchmark):
    """Ablation: if every HSM verified every insertion (the strawman the
    paper rejects), per-HSM time would be flat in N — adding hardware would
    buy zero throughput."""
    per_insert = _per_insertion_seconds(LOG_ENTRIES)
    benchmark(lambda: _per_insertion_seconds(LOG_ENTRIES))
    full_check = INSERTIONS * per_insert
    sampled = audit_seconds(3100)
    emit(
        "fig8_ablation",
        "Ablation: randomized chunk audit vs verify-everything",
        [
            f"verify everything: {full_check:8.1f} s per HSM per epoch (any N)",
            f"randomized audit:  {sampled:8.1f} s per HSM per epoch at N=3,100",
            f"speedup: {full_check / sampled:.1f}x, growing linearly with N",
        ],
        data={
            "metrics": {
                "verify_everything_s": full_check,
                "randomized_audit_s": sampled,
                "speedup": full_check / sampled,
            }
        },
    )
    assert full_check > 2 * sampled
