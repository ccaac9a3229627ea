"""Throughput / cost planning (Figure 12, Table 14)."""

import json
import os
import random
import re
import runpy

import pytest

from repro.cli import main
from repro.crypto.bfe import BloomFilterEncryption as BFE
from repro.crypto.bloom import BloomParams
from repro.crypto.hashing import kdf
from repro.hsm.costmodel import CostModel
from repro.hsm.devices import SAFENET_A700, SOLOKEY, YUBIHSM2
from repro.metering import metered
from repro.sim.capacity import (
    SHARE_PLAINTEXT_LEN,
    HsmThroughputModel,
    build_throughput_model,
    fig12_series,
    plan_deployment,
    recoveries_per_year,
    storage_cost_per_year,
)
from repro.sim.queueing import MM1Queue, min_fleet_for_latency
from repro.storage import securedel
from repro.storage.blockstore import InMemoryBlockStore
from repro.storage.securedel import walk_counts

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.fixture(scope="module")
def solokey_model():
    return build_throughput_model(SOLOKEY)


def _metered(op):
    with metered() as meter:
        result = op()
    return result, meter.counts


def _fresh_key(num_slots, num_hashes):
    params = BloomParams(num_slots, num_hashes, max_punctures=8, failure_exponent=4)
    (public, secret), keygen_counts = _metered(
        lambda: BFE.keygen(params, InMemoryBlockStore(), random.Random(num_slots))
    )
    return params, public, secret, keygen_counts


# (m, k, plaintext bytes): k != 4, two m that are not powers of two, and
# plaintexts on both sides of a 16-byte CTR block boundary.
SHAPES = [(64, 4, 5), (100, 3, 43), (37, 1, 16), (256, 8, 48), (300, 2, 100)]


class TestOnePrice:
    """The planner's op counts are the metered operations' own, exactly."""

    @pytest.mark.parametrize("num_slots,num_hashes,plaintext_len", SHAPES)
    def test_decrypt_and_puncture_counts_are_the_metered_operation(
        self, num_slots, num_hashes, plaintext_len
    ):
        params, public, secret, _ = _fresh_key(num_slots, num_hashes)
        (ciphertext,) = BFE.encrypt([public], [b"s" * plaintext_len], context=b"ctx")
        _, real = _metered(lambda: BFE.decrypt_and_puncture(secret, ciphertext, context=b"ctx"))
        closed = BFE.decrypt_and_puncture_counts(params, plaintext_len)
        assert set(closed) == {"aes_block", "io_bytes", "flash_read_bytes", "elgamal_dec"}
        assert {op: real[op] for op in closed} == dict(closed)
        # Left out of the closed form, by design: the multiply already
        # inside the ElGamal row (ROADMAP 4(b): the count pass bills both),
        # and the tag hashing + KDFs, bounded here rather than modeled: 16
        # for the tag's slots and the slot mask, plus the payload key's KDF
        # over K, the tag, the ephemeral and the k wraps.
        assert real["ec_mult"] == 1
        with metered() as payload_kdf:
            kdf("bfe-payload", bytes(16), bytes(32), bytes(33), *[bytes(16)] * num_hashes)
        assert 0 < real["sha256_block"] <= 16 + payload_kdf.counts["sha256_block"]
        assert set(real) == set(closed) | {"ec_mult", "sha256_block"}

    @pytest.mark.parametrize("num_slots,num_hashes,plaintext_len", SHAPES)
    def test_keygen_counts_are_the_metered_operation(self, num_slots, num_hashes, plaintext_len):
        params, _, _, real = _fresh_key(num_slots, num_hashes)
        closed = BFE.keygen_counts(params)
        assert set(closed) == {"ec_mult", "aes_block", "io_bytes"}
        assert {op: real[op] for op in closed} == dict(closed)
        # The Merkle commitment over the slot keys is the one op left out.
        assert set(real) == set(closed) | {"sha256_block"}
        assert real["sha256_block"] <= 3 * num_slots + 16

    def test_one_tree_level_costs_what_the_walk_bills(self):
        """h+1 against h: one more open per walk, one more re-open and seal
        per live target, each at ``_bill_walks``' own constants."""
        step = walk_counts(8, reads=1, deletes=4, live=3)
        step.subtract(walk_counts(7, reads=1, deletes=4, live=3))
        assert step == {
            "flash_read_bytes": 5 * securedel.KEY_LEN,
            "io_bytes": 11 * securedel._NODE_LEN,
            "aes_block": 11 * securedel._NODE_AES_BLOCKS,
        }

    def test_a_changed_node_cost_moves_the_planner_and_breaks_equality(self, monkeypatch):
        """What the equality tests above catch: bill a node at 5 blocks and
        the closed form follows the bill — the planner's price moves — while
        the AE calls the host really makes still report 4."""
        params, public, secret, _ = _fresh_key(64, 4)
        before = BFE.decrypt_and_puncture_counts(params, 16)
        price = build_throughput_model(SOLOKEY).decrypt_puncture_seconds
        monkeypatch.setattr(securedel, "_NODE_AES_BLOCKS", securedel._NODE_AES_BLOCKS + 1)
        after = BFE.decrypt_and_puncture_counts(params, 16)
        assert after["aes_block"] - before["aes_block"] == (3 * 4 + 1) * secret.tree.height
        assert build_throughput_model(SOLOKEY).decrypt_puncture_seconds > price
        (ciphertext,) = BFE.encrypt([public], [b"s" * 16], context=b"ctx")
        _, real = _metered(lambda: BFE.decrypt_and_puncture(secret, ciphertext, context=b"ctx"))
        assert before["aes_block"] < real["aes_block"] < after["aes_block"]

    def test_default_model_is_the_paper_deployment(self, solokey_model):
        paper = BloomParams.paper_deployment()
        assert solokey_model == build_throughput_model(SOLOKEY, paper)
        counts = BFE.decrypt_and_puncture_counts(paper, SHARE_PLAINTEXT_LEN)
        # 1104 until the wrap became an XOR: its open's 3 blocks went; 1101
        # until the payload became the 19-byte share, one CTR block (its
        # 29 fewer bytes are not transferred: only the leaf is fetched).
        # io_bytes 16,440 until a key-tree node stopped carrying its nonce:
        # 273 node transfers and the leaf's, 12 bytes each fewer (−3,288).
        assert SHARE_PLAINTEXT_LEN == 19
        assert counts["aes_block"] == 1100 and counts["io_bytes"] == 274 * 48 == 13_152
        assert solokey_model.decrypt_puncture_seconds == CostModel(SOLOKEY).seconds(counts)
        assert solokey_model.rotation_seconds == CostModel(SOLOKEY).seconds(
            BFE.keygen_counts(paper)
        )
        assert solokey_model.punctures_before_rotation == 1 << 18


class TestThroughputModel:
    """The values PR 21 recorded (ROADMAP item 3), to 10 %: a test here
    fails when the model moves.  The paper's own figures are beside them in
    ``BENCH_paper_fidelity.json``."""

    def test_decrypt_puncture_order_of_magnitude(self, solokey_model):
        """0.456 s (paper Figure 10: 0.68 s of the 1.01 s recovery)."""
        assert solokey_model.decrypt_puncture_seconds == pytest.approx(0.4563, rel=0.1)

    def test_rotation_is_hours(self, solokey_model):
        """77.05 h (§9.1: roughly 75 hours on a SoloKey)."""
        assert solokey_model.rotation_seconds / 3600 == pytest.approx(77.05, rel=0.1)

    def test_rotation_duty_near_half(self, solokey_model):
        """67.4 % (§9.1: roughly 56 % of an HSM's cycles)."""
        assert solokey_model.rotation_duty_fraction == pytest.approx(0.6736, rel=0.1)

    def test_recoveries_per_hour_near_paper(self, solokey_model):
        """2,291.8 (§9.1: 1,503.9 decrypt-and-puncture operations per hour)."""
        assert solokey_model.recoveries_per_hour == pytest.approx(2291.8, rel=0.1)

    def test_faster_device_higher_throughput(self):
        solo = build_throughput_model(SOLOKEY)
        safenet = build_throughput_model(SAFENET_A700)
        assert safenet.recoveries_per_hour > solo.recoveries_per_hour


class TestFleetThroughput:
    def test_paper_fleet_supports_a_billion(self, solokey_model):
        """§9.2: N = 3,100 SoloKeys support ~1B recoveries/year at n=40."""
        annual = recoveries_per_year(3100, 40, solokey_model)
        assert annual == pytest.approx(1.556e9, rel=0.1)

    def test_scaling_is_linear_in_fleet(self, solokey_model):
        one = recoveries_per_year(1000, 40, solokey_model)
        two = recoveries_per_year(2000, 40, solokey_model)
        assert two == pytest.approx(2 * one)

    def test_larger_cluster_costs_throughput(self, solokey_model):
        at40 = recoveries_per_year(1000, 40, solokey_model)
        at80 = recoveries_per_year(1000, 80, solokey_model)
        assert at80 == pytest.approx(at40 / 2)


class TestDeploymentPlanning:
    def test_solokey_plan_near_table14(self, solokey_model):
        """1,993 SoloKeys (Table 14: 3,037, 189 tolerated-evil, ≈$60.7K)."""
        plan = plan_deployment(SOLOKEY, 1e9, throughput=solokey_model)
        assert plan.quantity == pytest.approx(1993, rel=0.1)
        assert plan.tolerated_evil == plan.quantity // 16
        assert plan.hardware_cost_usd == plan.quantity * 20.0
        assert plan.recoveries_per_year >= 1e9

    def test_one_fleet_for_one_question(self, capsys):
        """``repro.cli plan``, the example (its table, its "Chosen" line and
        its "any finite" queueing fleet) and the committed Table 14 record
        all size the same SoloKey fleet for 1 B recoveries a year."""
        quantity = plan_deployment(SOLOKEY, 1e9).quantity
        assert main(["plan", "--users", "1e9", "--pin-digits", "6"]) == 0
        cli = capsys.readouterr().out
        assert int(re.search(r"SoloKey\s+qty=\s*(\d+)", cli).group(1)) == quantity
        runpy.run_path(os.path.join(REPO, "examples", "capacity_planning.py"), run_name="__main__")
        example = capsys.readouterr().out
        for pattern in (r"SoloKey\s+([\d,]+)", r"Chosen: ([\d,]+) SoloKeys",
                        r"any finite: N = ([\d,]+)"):
            assert int(re.search(pattern, example).group(1).replace(",", "")) == quantity
        with open(os.path.join(REPO, "benchmarks", "out", "BENCH_table14_deployment.json")) as f:
            assert json.load(f)["results"][0] == {
                "device": "SoloKey", "quantity": quantity, "f_secret": 1 / 16,
                "tolerated_evil": quantity // 16, "hardware_cost_usd": quantity * 20.0,
            }

    def test_yubihsm_plan_costlier(self, solokey_model):
        solo = plan_deployment(SOLOKEY, 1e9, throughput=solokey_model)
        yubi = plan_deployment(YUBIHSM2, 1e9)
        assert yubi.hardware_cost_usd > solo.hardware_cost_usd

    def test_safenet_needs_few_units(self):
        """Table 14: a cluster of 40 SafeNet A700s meets 1B/year — 11 would
        carry the load, but a recovery needs n distinct HSMs."""
        plan = plan_deployment(SAFENET_A700, 1e9)
        assert plan.quantity == 40
        assert plan.hardware_cost_usd == pytest.approx(738.7e3, rel=1e-3)
        assert plan_deployment(SAFENET_A700, 1e9, cluster_size=60).quantity == 60

    def test_load_that_fills_whole_hsms_gets_one_more(self):
        """The plan is Figure 13's any-finite fleet: 100 HSMs' worth of load
        on 100 HSMs is ρ = 1, an unstable queue."""
        unit = HsmThroughputModel(SOLOKEY, 1.0, 0.0, 1, log_audit_fraction=0.0)
        assert unit.recoveries_per_hour == 3600.0
        plan = plan_deployment(SOLOKEY, 100 * 3600 * 24 * 365, cluster_size=1, throughput=unit)
        assert plan.quantity == 101 == min_fleet_for_latency(100.0, 1.0, None)
        assert MM1Queue(1.0, 100.0 / plan.quantity).stable

    def test_min_quantity_respected(self):
        plan = plan_deployment(SAFENET_A700, 1e9, min_quantity=800)
        assert plan.quantity == 800

    def test_describe_renders(self, solokey_model):
        text = plan_deployment(SOLOKEY, 1e9, throughput=solokey_model).describe()
        assert "SoloKey" in text and "N_evil" in text


class TestFig12:
    def test_series_monotone_and_ordered(self):
        budgets = [0.5e6, 1e6, 2e6, 5e6]
        series = fig12_series([SOLOKEY, YUBIHSM2, SAFENET_A700], budgets)
        for device, points in series.items():
            values = [annual for _, annual in points]
            assert values == sorted(values)
        # the paper's headline: per dollar, SoloKeys beat the big iron
        solo_at_1m = dict(series[SOLOKEY.name])[1e6]
        yubi_at_1m = dict(series[YUBIHSM2.name])[1e6]
        assert solo_at_1m > yubi_at_1m


class TestStorageCost:
    def test_table14_footnote(self):
        """'Estimated cost of storing 4 GB × 10^9 users per year: $600M'."""
        assert storage_cost_per_year(1e9, 4.0) == pytest.approx(600e6)
