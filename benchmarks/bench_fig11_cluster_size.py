"""Figure 11: recovery time and security loss vs cluster size n.

The paper sweeps n from 40 to 100: recovery time grows slowly (1.01 s to
~1.25 s — only the client-side location-hiding work scales with n; the
per-HSM puncturable work is parallel) while the bits of security lost
relative to ideal PIN guessing *shrink* as log2(3N/n) (6.81 -> 5.49 bits in
the figure, which corresponds to N=1,500; we print N=3,100 and N=1,500).

The companion ablation prices the design the paper rejects in §1: threshold
decryption across a fixed 6% of the whole fleet, whose per-recovery work
grows linearly with N instead of staying constant.
"""

from repro.analysis.bounds import security_loss_bits

from bench_fig10_breakdown import HSM, safetypin_recovery_seconds
from reporting import emit, table


def recovery_seconds(cluster_size: int) -> float:
    """Figure 10's bar with n replies opened: only that term scales with n."""
    return safetypin_recovery_seconds(client_opens=cluster_size)["total"]


def test_fig11_cluster_size_sweep(benchmark):
    benchmark(lambda: recovery_seconds(40))

    sizes = list(range(40, 101, 10))
    rows = []
    for n in sizes:
        rows.append(
            (
                n,
                f"{recovery_seconds(n):.2f} s",
                f"{security_loss_bits(3100, n):.2f}",
                f"{security_loss_bits(1500, n):.2f}",
            )
        )
    lines = table(
        ("n", "recovery", "loss bits (N=3100)", "loss bits (N=1500)"),
        rows,
        (6, 12, 20, 20),
    )
    lines.append("")
    lines.append("paper: annotations 6.81..5.49 bits — log2(3N/n) at N=1,500, not the 3,100")
    lines.append("of its deployment: log2(4500/40) = 6.81, log2(4500/100) = 5.49")
    times = [recovery_seconds(n) for n in sizes]
    emit(
        "fig11_cluster_size",
        "Figure 11: recovery time vs cluster size",
        lines,
        data={
            "results": [
                {
                    "cluster_size": n,
                    "recovery_s": recovery_seconds(n),
                    "loss_bits_n3100": security_loss_bits(3100, n),
                    "loss_bits_n1500": security_loss_bits(1500, n),
                }
                for n in sizes
            ],
            "metrics": {
                "recovery_s_at_n40": times[0],
                "recovery_s_at_n100": times[-1],
                "growth_n40_to_n100": times[-1] / times[0],
            },
        },
    )

    assert times == sorted(times)  # grows with n ...
    assert times[-1] / times[0] < 1.6  # ... but slowly
    losses = [security_loss_bits(3100, n) for n in sizes]
    assert losses == sorted(losses, reverse=True)


def test_fig11_ablation_threshold_whole_fleet(benchmark):
    """§1's rejected design: threshold-encrypt to 6% of the entire fleet.

    Per-recovery HSM work then grows with N — adding HSMs adds security but
    zero throughput, which is exactly why location-hiding clusters exist.
    """

    def rejected_design_seconds(num_hsms: int) -> float:
        # One partial decryption (``repro.crypto.threshold``: one
        # ``elgamal_dec``) per participant, and the client waits for them all.
        participants = max(1, int(num_hsms * 0.06))
        return participants * HSM.seconds({"elgamal_dec": 1})

    benchmark(lambda: rejected_design_seconds(3100))
    rows = []
    for n_fleet in (500, 1000, 3100, 10_000):
        safetypin = recovery_seconds(40)
        rejected = rejected_design_seconds(n_fleet)
        rows.append((n_fleet, f"{safetypin:.2f} s", f"{rejected:.1f} s"))
    lines = table(("N", "SafetyPin (n=40)", "threshold-6% design"), rows, (8, 18, 22))
    lines.append("")
    lines.append("SafetyPin is flat in N; the rejected design degrades linearly")
    emit(
        "fig11_ablation",
        "Ablation: hidden clusters vs fleet-wide threshold",
        lines,
        data={
            "results": [
                {
                    "fleet_size": n_fleet,
                    "safetypin_s": recovery_seconds(40),
                    "rejected_threshold_s": rejected_design_seconds(n_fleet),
                }
                for n_fleet in (500, 1000, 3100, 10_000)
            ],
            "metrics": {
                "safetypin_s": recovery_seconds(40),
                "rejected_threshold_s_at_n3100": rejected_design_seconds(3100),
            },
        },
    )
    assert rejected_design_seconds(10_000) > 10 * recovery_seconds(40)
