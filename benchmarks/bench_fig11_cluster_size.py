"""Figure 11: recovery time and security loss vs cluster size n.

The paper sweeps n from 40 to 100: recovery time grows slowly (1.01 s to
~1.25 s — only the client-side location-hiding work scales with n; the
per-HSM puncturable work is parallel) while the bits of security lost
relative to ideal PIN guessing *shrink* as log2(3N/n) (6.81 -> 5.49 bits in
the figure, which corresponds to N=1,500; we print N=3,100 and N=1,500).

The companion ablation prices the design the paper rejects in §1:

    "One way to achieve SafetyPin's security goal would be to
    threshold-encrypt the client's hashed PIN and backup key in such a way
    that decrypting the client's backup key would require the participation
    of 6% of all HSMs in the system.  Unfortunately, this approach lacks
    scalability."

In a t-of-N threshold ElGamal KEM over P-256 (Shamir-shared secret key,
Lagrange recombination in the exponent), each of the ``t ≈ 0.06·N``
participating HSMs does one point multiplication — a partial decryption
``(g^r)^{x_i}``, one ``elgamal_dec`` — for *every* recovery.  So the
per-recovery work grows linearly with N instead of staying constant:
adding HSMs adds work, not capacity.  The design is priced here from the
device cost model, not implemented.
"""

from repro.analysis.bounds import security_loss_bits

from bench_fig10_breakdown import HSM, safetypin_recovery_seconds
from reporting import emit_rows


def recovery_seconds(cluster_size: int) -> float:
    """Figure 10's bar with n replies opened: only that term scales with n."""
    return safetypin_recovery_seconds(client_opens=cluster_size)["total"]


def test_fig11_cluster_size_sweep(benchmark):
    benchmark(lambda: recovery_seconds(40))

    rows = [
        {
            "cluster_size": n,
            "recovery_s": recovery_seconds(n),
            "loss_bits_n3100": security_loss_bits(3100, n),
            "loss_bits_n1500": security_loss_bits(1500, n),
        }
        for n in range(40, 101, 10)
    ]
    times = [r["recovery_s"] for r in rows]
    emit_rows(
        "fig11_cluster_size",
        "Figure 11: recovery time vs cluster size",
        [
            ("n", 6, lambda r: r["cluster_size"]),
            ("recovery", 12, lambda r: f"{r['recovery_s']:.2f} s"),
            ("loss bits (N=3100)", 20, lambda r: f"{r['loss_bits_n3100']:.2f}"),
            ("loss bits (N=1500)", 20, lambda r: f"{r['loss_bits_n1500']:.2f}"),
        ],
        rows,
        notes=[
            "paper: annotations 6.81..5.49 bits — log2(3N/n) at N=1,500, not the 3,100",
            "of its deployment: log2(4500/40) = 6.81, log2(4500/100) = 5.49",
        ],
        metrics={
            "recovery_s_at_n40": times[0],
            "recovery_s_at_n100": times[-1],
            "growth_n40_to_n100": times[-1] / times[0],
        },
    )

    assert times == sorted(times)  # grows with n ...
    assert times[-1] / times[0] < 1.6  # ... but slowly
    losses = [r["loss_bits_n3100"] for r in rows]
    assert losses == sorted(losses, reverse=True)


def test_fig11_ablation_threshold_whole_fleet(benchmark):
    """§1's rejected design: threshold-encrypt to 6% of the entire fleet.

    Per-recovery HSM work then grows with N — adding HSMs adds security but
    zero throughput, which is exactly why location-hiding clusters exist.
    """

    def rejected_design_seconds(num_hsms: int) -> float:
        # One partial decryption (``(g^r)^{x_i}``: one ``elgamal_dec``) per
        # participant, and the client waits for them all.
        participants = max(1, int(num_hsms * 0.06))
        return participants * HSM.seconds({"elgamal_dec": 1})

    benchmark(lambda: rejected_design_seconds(3100))
    emit_rows(
        "fig11_ablation",
        "Ablation: hidden clusters vs fleet-wide threshold",
        [
            ("N", 8, lambda r: r["fleet_size"]),
            ("SafetyPin (n=40)", 18, lambda r: f"{r['safetypin_s']:.2f} s"),
            ("threshold-6% design", 22, lambda r: f"{r['rejected_threshold_s']:.1f} s"),
        ],
        [
            {
                "fleet_size": n_fleet,
                "safetypin_s": recovery_seconds(40),
                "rejected_threshold_s": rejected_design_seconds(n_fleet),
            }
            for n_fleet in (500, 1000, 3100, 10_000)
        ],
        notes=["SafetyPin is flat in N; the rejected design degrades linearly"],
        metrics={
            "safetypin_s": recovery_seconds(40),
            "rejected_threshold_s_at_n3100": rejected_design_seconds(3100),
        },
    )
    assert rejected_design_seconds(10_000) > 10 * recovery_seconds(40)
