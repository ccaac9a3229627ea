"""Every paper number that hangs on the price of one decrypt-and-puncture,
beside ours, in one table that can fail: ``BENCH_paper_fidelity.json``.

A row is ``name, ours, paper, ratio, tolerance, cause`` with ratio =
ours / paper.  A ratio outside 1 ± tolerance needs a written ``cause`` or
the gate fails; "open" causes say what is known and name ROADMAP item 3(c),
they do not guess.  "Ours" is read from the ``metrics`` of the figure
scripts' own records, all at ``BloomParams.paper_deployment()`` — so run
those scripts first (CI's perf-smoke step lists them before this file).
"""

import json
import os

from repro.hsm.devices import SOLOKEY
from repro.sim.capacity import build_throughput_model

import _harness
from reporting import emit, table

TOLERANCE = 0.10
PRICE = (
    "open, ROADMAP 3(c): the closed form bills (3k+1)·h = 273 key-tree node operations of"
    " 4 AES blocks (0.30 s), one ElGamal decryption (0.15 s) and 16 KB of transfers"
    " (0.01 s); what the paper's other 0.22 s was spent on is not known"
)
RATE = (
    "open, ROADMAP 3(c): follows the price — 2^18 jobs per 77.0 h rotating + 37.3 h serving;"
    " the paper's 1,503.9/h is a 174 h cycle, which its own 75 h and 56 % (134 h) do not give"
)
FLEET = "jobs_per_hour_per_hsm's ratio inverted: nothing else in the planner differs"
SCALED = FLEET + ", carried over by Table 2's g^x rates"
TOTAL = "the three Figure 10 slices summed, each with its own cause"

# (record, metric, paper, cause): ours is BENCH_<record>.json's metrics[metric].
CATALOG = [
    ("fig9_paper_scale", "total_s", 0.68, PRICE),
    ("fig12_anchor", "rotation_h", 75, ""),
    ("fig12_anchor", "rotation_duty", 0.56, RATE),
    ("fig12_anchor", "jobs_per_hour_per_hsm", 1503.9, RATE),
    ("fig12_anchor", "solokeys_needed", 3037, FLEET),
    ("fig12_anchor", "budget_usd", 60.7e3, FLEET),
    ("table14_deployment", "solokey_qty", 3037, FLEET),
    ("table14_deployment", "solokey_cost_usd", 60.7e3, FLEET),
    ("table14_deployment", "yubihsm2_qty", 1732, SCALED),
    ("table14_deployment", "yubihsm2_cost_usd", 1.1e6, SCALED),
    ("table14_deployment", "safenet_qty", 40, ""),
    ("table14_deployment", "safenet_cost_usd", 738.7e3, ""),
    ("fig13_tail_latency", "hsms_any_finite_at_1e9", 3037, FLEET),
    ("fig10_recovery", "recovery_log_s", 0.15,
     "open, ROADMAP 3(c): ours is one inclusion proof's hashes and bytes and nothing per"
     " HSM; where the paper's 0.15 s goes is not known"),
    ("fig10_recovery", "recovery_location_hiding_s", 0.18,
     "open, ROADMAP 3(c): the HSM's reply encryption alone (elgamal_enc = two g^x at"
     " 7.69/s) is 0.26 s, more than the paper's whole slice"),
    ("fig10_recovery", "recovery_puncturable_s", 0.68, PRICE),
    ("fig10_recovery", "recovery_total_s", 1.01, TOTAL),
    ("fig11_cluster_size", "recovery_s_at_n40", 1.01, TOTAL),
    ("fig11_cluster_size", "growth_n40_to_n100", 1.25 / 1.01, ""),
    ("secure_deletion_ablation", "naive_reencrypt_s", 48 * 60,
     "open, ROADMAP 3(c): 2 x 2^22 AES blocks at Table 7's 3,703.7/s are 37.7 min and"
     " 128 MB over CDC 1.1 min; 48 min at that rate is 2.5 block operations per 16 bytes"),
    ("secure_deletion_ablation", "decrypt_puncture_s", 48 * 60 / 4423, PRICE),
    ("secure_deletion_ablation", "throughput_gain", 4423, "its two rows above, divided"),
]


def fidelity_rows():
    rows = []
    for record, metric, paper, cause in CATALOG:
        with open(os.path.join(_harness.OUT_DIR, f"BENCH_{record}.json")) as handle:
            ours = json.load(handle)["metrics"][metric]
        rows.append({"name": f"{record}.{metric}", "ours": ours, "paper": paper,
                     "ratio": ours / paper, "tolerance": TOLERANCE, "cause": cause})
    return rows


def unexplained(rows):
    """Names of the rows the gate rejects: out of tolerance, no cause."""
    return [r["name"] for r in rows if abs(r["ratio"] - 1) > r["tolerance"] and not r["cause"]]


def test_paper_fidelity_table():
    rows = fidelity_rows()
    blanked = unexplained([{**r, "cause": ""} for r in rows])
    cells = [
        (r["name"], f"{r['ours']:,.4g}", f"{r['paper']:,.4g}", f"{r['ratio']:.2f}",
         "  " + r["cause"])
        for r in rows
    ]
    emit(
        "paper_fidelity",
        f"Paper fidelity (tolerance ±{TOLERANCE:.0%}): what one decrypt-and-puncture prices",
        table(("record.metric", "ours", "paper", "ratio", "  cause"), cells, (46, 12, 12, 7, 0)),
        data={
            "results": rows,
            "metrics": {
                "rows": len(rows),
                "rows_out_of_tolerance": len(blanked),
                "rows_unexplained": len(unexplained(rows)),
            },
        },
    )
    assert unexplained(rows) == []
    # The gate can fail: with its cause blanked the price row is rejected,
    # and a row inside its tolerance never needed one.
    assert "fig9_paper_scale.total_s" in blanked and "fig12_anchor.rotation_h" not in blanked
    # One price: every record that prints it carries the planner's float.
    ours = {r["name"]: r["ours"] for r in rows}
    assert (
        build_throughput_model(SOLOKEY).decrypt_puncture_seconds
        == ours["fig9_paper_scale.total_s"]
        == ours["fig10_recovery.recovery_puncturable_s"]
        == ours["secure_deletion_ablation.decrypt_puncture_s"]
    )
