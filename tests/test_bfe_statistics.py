"""Statistical behaviour of Bloom-filter encryption under puncturing.

These tests measure the false-positive dynamics that drive the paper's
key-rotation policy: as punctures accumulate, unrelated ciphertexts start
dying at exactly the rate the Bloom analysis predicts.
"""

import random

import pytest

from repro.crypto.bfe import BloomFilterEncryption as BFE, PuncturedKeyError
from repro.crypto.bloom import BloomParams
from repro.storage.blockstore import InMemoryBlockStore


@pytest.fixture(scope="module")
def worn_key():
    """A keypair punctured halfway to its design limit."""
    params = BloomParams.for_punctures(32, failure_exponent=4)
    pub, sec = BFE.keygen(params, InMemoryBlockStore())
    rng = random.Random(29)
    for i in range(16):
        tag = bytes(rng.randrange(256) for _ in range(16))
        BFE.puncture_tag(sec, tag)
    return params, pub, sec


class TestFalsePositiveRate:
    def test_measured_rate_matches_prediction(self, worn_key):
        params, pub, sec = worn_key
        predicted = params.failure_probability(sec.punctures_done)
        trials = 120
        dead = 0
        for i in range(trials):
            (ct,) = BFE.encrypt([pub], [b"probe"], context=b"trial%d" % i)
            try:
                BFE.decrypt(sec, ct, context=b"trial%d" % i)
            except PuncturedKeyError:
                dead += 1
        measured = dead / trials
        # Binomial noise band around the analytic prediction.
        sigma = (max(predicted, 0.01) * 1.0 / trials) ** 0.5
        assert abs(measured - predicted) < 6 * sigma + 0.12

    def test_slots_deleted_tracks_occupancy_model(self, worn_key):
        params, _, sec = worn_key
        # With k slots per puncture and random tags, deletions ≈ m(1-e^{-kd/m}).
        import math

        expected = params.num_slots * (
            1 - math.exp(-params.num_hashes * sec.punctures_done / params.num_slots)
        )
        assert sec.slots_deleted == pytest.approx(expected, rel=0.35)


class TestRotationPolicy:
    def test_rotation_triggers_before_design_limit(self):
        """The paper rotates at half-deleted, which arrives within ~m/(2k)
        punctures — well before the failure-rate design point."""
        params = BloomParams.for_punctures(32, failure_exponent=4)
        pub, sec = BFE.keygen(params, InMemoryBlockStore())
        rng = random.Random(31)
        punctures = 0
        while not sec.needs_rotation() and punctures < 10 * params.max_punctures:
            BFE.puncture_tag(sec, bytes(rng.randrange(256) for _ in range(16)))
            punctures += 1
        # ln(2)·m/k punctures reach 50% occupancy in expectation.
        import math

        expected = math.log(2) * params.num_slots / params.num_hashes
        assert punctures == pytest.approx(expected, rel=0.5)

    def test_paper_deployment_rotation_point(self):
        params = BloomParams.paper_deployment()
        # At the deterministic worst case (disjoint tags), rotation lands at
        # exactly 2^18 punctures: m/2 slots deleted, 4 per puncture.
        assert params.num_slots // (2 * params.num_hashes) == 1 << 18
        # Failure rate for survivors at that point: (1 - e^-0.5)^4 ≈ 2.4%.
        assert params.failure_probability(1 << 18) == pytest.approx(0.024, abs=0.01)
