"""Figure 9: decrypt-and-puncture time vs punctures-before-rotation.

The paper sweeps the supported puncture count from 10 to 100K (secret keys
from 3 KB to 30 MB) and shows (a) total time growing logarithmically in the
key size and (b) the cost dominated by I/O and symmetric operations from
the outsourced-storage scheme, not by public-key work.

Every point is the one closed form the planner prices
(``BloomFilterEncryption.decrypt_and_puncture_counts`` — pinned to the
metered real operation by ``tests/test_capacity.py``) on the SoloKey model.
The sweep's x-axis is ``BloomParams.for_punctures(p, failure_exponent=16)``;
the paper-scale row is the deployed key, ``BloomParams.paper_deployment()``.
"""

from repro.crypto.bfe import BloomFilterEncryption as BFE
from repro.crypto.bloom import BloomParams
from repro.hsm.costmodel import CostBreakdown, CostModel
from repro.hsm.devices import SOLOKEY
from repro.sim.capacity import SHARE_PLAINTEXT_LEN, build_throughput_model

from reporting import emit, table

MODEL = CostModel(SOLOKEY)
SWEEP = (10, 100, 1000, 10_000, 100_000)


def modeled_breakdown(params: BloomParams) -> CostBreakdown:
    """One SoloKey decrypt-and-puncture of a key share at ``params``."""
    return MODEL.breakdown(BFE.decrypt_and_puncture_counts(params, SHARE_PLAINTEXT_LEN))


def _split(breakdown: CostBreakdown) -> dict:
    return {
        "io_s": breakdown.io,
        "symmetric_s": breakdown.symmetric + breakdown.flash,
        "public_key_s": breakdown.public_key,
        "total_s": breakdown.total,
    }


def test_fig9_decrypt_puncture_sweep(benchmark):
    sweep = {p: BloomParams.for_punctures(p, failure_exponent=16) for p in SWEEP}
    results = benchmark(lambda: {p: modeled_breakdown(params) for p, params in sweep.items()})

    rows = []
    for punctures, params in sweep.items():
        breakdown = results[punctures]
        rows.append(
            (
                f"{punctures:,}",
                f"{params.secret_key_bytes() / 1024:,.0f} KB",
                f"{breakdown.io * 1000:,.0f}",
                f"{(breakdown.symmetric + breakdown.flash) * 1000:,.0f}",
                f"{breakdown.public_key * 1000:,.0f}",
                f"{breakdown.total:,.2f} s",
            )
        )
    lines = table(
        ("punctures", "key size", "io ms", "sym ms", "pk ms", "total"),
        rows,
        (12, 12, 10, 10, 10, 10),
    )
    lines.append("")
    lines.append("paper: 0.25 s -> ~1 s over the same sweep; I/O + symmetric dominate")
    totals = [results[p].total for p in SWEEP]
    emit(
        "fig9_puncture",
        "Figure 9: decrypt+puncture vs puncture budget",
        lines,
        data={
            "results": [{"punctures": p, **_split(results[p])} for p in SWEEP],
            "metrics": {
                "total_s_at_10_punctures": totals[0],
                "total_s_at_100k_punctures": totals[-1],
                "growth_over_four_decades": totals[-1] / totals[0],
            },
        },
    )

    # Shape assertions from the paper:
    assert totals == sorted(totals)  # grows with key size
    # logarithmic growth: 4 decades of punctures < 16x time
    assert totals[-1] / totals[0] < 16
    big = results[100_000]
    assert big.io + big.symmetric + big.flash > big.public_key  # I/O+sym dominate


def test_fig9_symmetric_work_dominates_at_paper_scale(benchmark):
    breakdown = benchmark(lambda: modeled_breakdown(BloomParams.paper_deployment()))
    emit(
        "fig9_paper_scale",
        "Decrypt+puncture at the deployed key (m = 2^21 slots, k = 4)",
        [
            f"io:        {breakdown.io:.3f} s",
            f"symmetric: {breakdown.symmetric + breakdown.flash:.3f} s",
            f"public key:{breakdown.public_key:.3f} s",
            f"total:     {breakdown.total:.3f} s",
        ],
        data={"metrics": _split(breakdown)},
    )
    # The key-tree walk's AES blocks are the larger half, the one ElGamal
    # decryption the constant under it, node transfers over CDC a rounding
    # error; and this row is the planner's price, to the bit.
    assert breakdown.symmetric > breakdown.public_key > 10 * breakdown.io
    assert breakdown.total == build_throughput_model(SOLOKEY).decrypt_puncture_seconds
