"""Figure 10: save / recovery time breakdown, SafetyPin vs baseline.

The paper's measurements (Pixel 4 client, SoloKey HSMs, n=40, N=3,100):

    save:     baseline 0.003 s | SafetyPin 0.37 s (0.34 public-key + LHE)
    recovery: baseline 0.17 s  | SafetyPin 1.01 s
              = log 0.15 + location-hiding 0.18 + puncturable 0.68

We regenerate both bars on the Pixel 4 / SoloKey cost models; the
puncturable slice is the planner's one price for a decrypt-and-puncture at
``BloomParams.paper_deployment()``.  The recovery bar's four paper values
are rows of ``BENCH_paper_fidelity.json``.  The pytest benchmark times a
real end-to-end backup+recovery at test scale.
"""

import dataclasses
import math
import random
from itertools import cycle, islice

import pytest

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.crypto.bloom import BloomParams
from repro.hsm.costmodel import CostModel
from repro.hsm.devices import PIXEL4, SOLOKEY
from repro.sim.capacity import build_throughput_model

from reporting import emit, table

N, CLUSTER, K_HASHES = 3100, 40, BloomParams.paper_deployment().num_hashes
THRESHOLD = SystemParams.for_paper().threshold  # t = n/2 = 20
PHONE = CostModel(PIXEL4)
HSM = CostModel(SOLOKEY)
LOG_DEPTH = math.log2(100e6)


def safetypin_save_seconds() -> dict:
    """Client-side backup: n BFE share encryptions + payload AES."""
    pk_counts = {"ec_mult": CLUSTER * (K_HASHES + 1)}
    lhe_counts = {"aes_block": 4096 / 16 + CLUSTER * 8, "sha256_block": CLUSTER * 6}
    return {
        "public_key": PHONE.seconds(pk_counts),
        "lhe_other": PHONE.seconds(lhe_counts),
    }


def safetypin_recovery_seconds(client_opens: int = CLUSTER) -> dict:
    """Per-component recovery latency (cluster works in parallel, so HSM
    terms are one device's work; client terms add).

    ``client_opens`` is how many HSM replies the phone decrypts.  The
    paper's bar prices all n = 40; the reproduction's client stops once the
    backup opens — t = 20 when no reply is corrupt."""
    log_counts = {
        "sha256_block": 3 * LOG_DEPTH + 32,  # inclusion proof + commitment
        "io_bytes": LOG_DEPTH * 96 + 2048,  # proof + opening transfer
    }
    log_s = HSM.seconds(log_counts)
    puncturable_s = build_throughput_model(SOLOKEY).decrypt_puncture_seconds
    # Location-hiding: HSM encrypts its reply to the per-recovery key; the
    # client decrypts replies and reconstructs.
    lhe_s = HSM.seconds({"elgamal_enc": 1}) + PHONE.seconds(
        {"ec_mult": client_opens, "aes_block": 64}
    )
    return {
        "log": log_s,
        "location_hiding": lhe_s,
        "puncturable": puncturable_s,
        "total": log_s + lhe_s + puncturable_s,
    }


def baseline_save_seconds() -> float:
    return PHONE.seconds({"elgamal_enc": 1})


def baseline_recovery_seconds() -> float:
    return HSM.seconds({"elgamal_dec": 1, "io_bytes": 200, "sha256_block": 4})


@pytest.fixture(scope="module")
def small_deployment():
    params = SystemParams.for_testing(num_hsms=8, cluster_size=3, max_punctures=64)
    return Deployment.create(params, rng=random.Random(17))


def test_fig10_save_breakdown(benchmark, small_deployment):
    counter = iter(range(10_000))

    def do_backup():
        client = small_deployment.new_client(f"save-bench-{next(counter)}")
        client.backup(b"disk" * 256, pin="1234")

    benchmark(do_backup)

    ours = safetypin_save_seconds()
    total = sum(ours.values())
    base = baseline_save_seconds()
    lines = [
        f"SafetyPin save:  public-key {ours['public_key']:.3f} s + "
        f"other {ours['lhe_other']:.3f} s = {total:.3f} s   (paper: 0.34 + 0.03 = 0.37 s)",
        f"baseline save:   {base:.4f} s                        (paper: 0.003 s)",
        f"ratio: {total / base:.0f}x   (paper: ~120x)",
    ]
    emit(
        "fig10_save",
        "Figure 10 (left): time to save",
        lines,
        data={
            "metrics": {
                "save_public_key_s": ours["public_key"],
                "save_lhe_other_s": ours["lhe_other"],
                "save_total_s": total,
                "baseline_save_s": base,
                "save_ratio": total / base,
            }
        },
    )
    assert 0.1 < total < 1.5
    assert base < 0.02
    assert total / base > 20


def test_fig10_recovery_breakdown(benchmark, small_deployment):
    counter = iter(range(10_000))

    def do_roundtrip():
        client = small_deployment.new_client(f"rec-bench-{next(counter)}")
        client.backup(b"disk" * 64, pin="1234")
        assert client.recover(pin="1234") == b"disk" * 64

    benchmark.pedantic(do_roundtrip, rounds=3, iterations=1)

    ours = safetypin_recovery_seconds()
    happy = safetypin_recovery_seconds(client_opens=THRESHOLD)
    base = baseline_recovery_seconds()
    rows = [
        ("log", f"{ours['log']:.2f} s"),
        ("location-hiding", f"{ours['location_hiding']:.2f} s"),
        ("puncturable", f"{ours['puncturable']:.2f} s"),
        ("total", f"{ours['total']:.2f} s"),
        ("baseline", f"{base:.2f} s"),
    ]
    lines = table(("component", "modeled"), rows, (18, 12))
    lines.append("")
    lines.append(
        f"this client opens replies until the backup opens: t={THRESHOLD} of "
        f"n={CLUSTER} when none is corrupt -> location-hiding "
        f"{happy['location_hiding']:.2f} s, total {happy['total']:.2f} s"
    )
    emit(
        "fig10_recovery",
        "Figure 10 (right): time to recover",
        lines,
        data={
            "metrics": {
                "recovery_log_s": ours["log"],
                "recovery_location_hiding_s": ours["location_hiding"],
                "recovery_puncturable_s": ours["puncturable"],
                "recovery_total_s": ours["total"],
                "recovery_location_hiding_at_t_opens_s": happy["location_hiding"],
                "recovery_total_at_t_opens_s": happy["total"],
                "baseline_recovery_s": base,
            }
        },
    )

    # Shape: puncturable encryption dominates and SafetyPin is several-fold
    # slower than the baseline.  The slice is (3k+1)·h = 273 key-tree node
    # operations of 4 AES blocks at the paper's k = 4, h = 21 plus one
    # ElGamal decryption; priced at k = 16, h = 25 — 1,225 node operations —
    # the same walk is 1.65 s, which is all the 3.6x there was to explain.
    assert ours["puncturable"] > ours["log"]
    assert ours["puncturable"] > ours["location_hiding"] > happy["location_hiding"]
    assert ours["total"] > 2 * base


#: The size probe's recovery ciphertext, and the same ciphertext with n =
#: 40 shares, encoded by the parent commit's ``wire.encode_recovery_ciphertext``
#: (same deployment, user, PIN and payload): each share carried the 32-byte
#: series tag, a kind byte and a 4-byte length in front of its ephemeral.
PARENT_CT_BYTES = 893
PARENT_CT_BYTES_AT_N40 = 10_883


def layout_bytes(n: int, k: int, username: str, message_len: int) -> int:
    """What ``lhe.RECOVERY_CIPHERTEXT`` spends on a recovery ciphertext of
    ``n`` shares at ``k`` Bloom hashes, derived from the layout: the version
    byte, the 16-byte salt, the username text, three ``u32``s and the share
    count; per share the 33-byte ephemeral (its prefix gives its length),
    the wrap count and k wraps of 32 bytes (16-byte key ‖ GCM tag), and the
    payload blob (the share plaintext — username ``u16`` text, ``u32`` x,
    32-byte y — and its GCM tag); then the LHE payload blob (the message
    and its tag).  No one-time AE message carries a nonce, and no share its
    tag (the reader derives it from the username and salt) or a kind."""
    name = len(username.encode("utf-8"))
    share_plaintext = 2 + name + 4 + 32
    share = 33 + (4 + 32 * k) + (4 + share_plaintext + 16)
    return 1 + 16 + (4 + name) + 12 + 4 + n * share + (4 + message_len + 16)


def test_fig10_ciphertext_sizes(benchmark, small_deployment):
    """§9.2: SafetyPin recovery ciphertexts are 16.5 KB vs 130 B baseline.
    Sizes are encoded bytes, what the provider stores and relays; the
    paper's n = 40 is the probe's ciphertext encoded with 40 shares (each
    of its shares' bodies is as long as the others)."""
    client = small_deployment.new_client("size-probe")
    client.backup(b"x" * 16, pin="1234")
    small_ct = small_deployment.provider.fetch_backup("size-probe")
    benchmark(lambda: small_ct.size_bytes())

    encoded = small_ct.size_bytes()
    k = small_deployment.params.bloom_params().num_hashes
    bound = layout_bytes(small_ct.cluster_size, k, "size-probe", 16)
    paper_ct = dataclasses.replace(
        small_ct, share_ciphertexts=tuple(islice(cycle(small_ct.share_ciphertexts), CLUSTER))
    )
    paper_scale = paper_ct.size_bytes()
    gates = {"safetypin_ct_bytes_max": bound}
    failures = [f"safetypin_ct_bytes = {encoded} > derived layout {bound}"] if encoded > bound else []
    from repro.baseline.system import BaselineSystem

    baseline_ct = BaselineSystem().new_client("b").backup(b"k" * 16, pin="123456")
    lines = [
        f"SafetyPin n={small_ct.cluster_size}, k={k}: {encoded} B encoded "
        f"(parent: {PARENT_CT_BYTES} B; derived layout: {bound} B)",
        f"SafetyPin at n={CLUSTER}: {paper_scale} B = {paper_scale / 1000:.1f} KB encoded "
        f"(parent: {PARENT_CT_BYTES_AT_N40} B; derived layout: "
        f"{layout_bytes(CLUSTER, k, 'size-probe', 16)} B; paper: 16.5 KB)",
        f"baseline: {baseline_ct.size_bytes()} B (paper: ~130 B)",
    ]
    emit(
        "fig10_sizes",
        "Recovery-ciphertext sizes",
        lines,
        data={
            "metrics": {
                "safetypin_ct_bytes": encoded,
                "parent_safetypin_ct_bytes": PARENT_CT_BYTES,
                "safetypin_ct_bytes_at_n40": paper_scale,
                "parent_safetypin_ct_bytes_at_n40": PARENT_CT_BYTES_AT_N40,
                "baseline_ct_bytes": baseline_ct.size_bytes(),
            },
            "gates": gates,
            "gate_failures": failures,
        },
    )
    assert not failures, failures
    assert paper_scale == layout_bytes(CLUSTER, k, "size-probe", 16)
    assert 4 < paper_scale / 1000 < 40
    assert baseline_ct.size_bytes() < 250
