"""The crypto fast-path layer: comb tables, cached windows, multi-scalar.

Every fast path must agree bit-for-bit with plain double-and-add (an
independent reference built here from point additions only), and none of
them may change what the ambient meter sees — the paper's cost accounting
(`ec_mult`, `ecdsa_verify`, `sha256_block`) prices operations, not
implementations.
"""

import gc
import random
import secrets

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.crypto.ec import N, P256, ECPoint, multi_mult, naive_mult
from repro.crypto.field import PrimeField, batch_inverse_mod
from repro.log.distributed import EcdsaMultiSig
from repro.metering import OpMeter, metered

G = P256.generator

# Scalars where window/comb algorithms historically go wrong: zero, the
# identity, all-ones digits, values at and just past the group order.
EDGE_SCALARS = [0, 1, 2, 15, 16, 0xFFFF, N - 1, N, N + 1, (1 << 256) - 1]


def double_and_add(point: ECPoint, scalar: int) -> ECPoint:
    """Textbook double-and-add from point additions only — shares no code
    with any multiplication path in ``repro.crypto.ec``."""
    scalar %= N
    result = ECPoint(None, None)
    addend = point
    while scalar:
        if scalar & 1:
            result = result + addend
        addend = addend + addend
        scalar >>= 1
    return result


@pytest.fixture(scope="module")
def named_points():
    rng = random.Random(0xEC)
    return {
        "generator": G,
        "random": G * rng.randrange(1, N),
        "small": G * 3,
    }


class TestAgainstDoubleAndAdd:
    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_fixed_base_edge_scalars(self, scalar):
        assert G * scalar == double_and_add(G, scalar)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_cached_window_edge_scalars(self, scalar, named_points):
        point = named_points["random"]
        assert point * scalar == double_and_add(point, scalar)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_naive_reference_edge_scalars(self, scalar, named_points):
        point = named_points["random"]
        assert naive_mult(point, scalar) == double_and_add(point, scalar)

    @given(scalar=st.integers(0, N + 7))
    @settings(max_examples=20, deadline=None)
    def test_fixed_base_random_scalars(self, scalar):
        assert G * scalar == double_and_add(G, scalar)

    @given(scalar=st.integers(0, N + 7), seed=st.integers(1, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_cached_window_random_points(self, scalar, seed):
        point = G * random.Random(seed).randrange(1, N)
        expected = double_and_add(point, scalar)
        assert point * scalar == expected
        # Second multiply hits the cached table and must agree.
        assert point * scalar == expected

    @given(
        scalars=st.lists(st.integers(0, N + 7), min_size=1, max_size=6),
        seed=st.integers(1, 2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_mult_matches_sum(self, scalars, seed):
        rng = random.Random(seed)
        pairs = []
        for i, scalar in enumerate(scalars):
            point = G if i % 3 == 0 else G * rng.randrange(1, N)
            pairs.append((scalar, point))
        expected = ECPoint(None, None)
        for scalar, point in pairs:
            expected = expected + double_and_add(point, scalar)
        assert multi_mult(pairs) == expected

    def test_multi_mult_empty_and_zero(self):
        assert multi_mult([]).is_infinity
        assert multi_mult([(0, G), (N, G * 5)]).is_infinity
        assert multi_mult([(0, G), (7, G)]) == double_and_add(G, 7)

    def test_multi_mult_infinity_point(self):
        assert multi_mult([(5, ECPoint(None, None)), (3, G)]) == double_and_add(G, 3)


def precomputed(point: ECPoint) -> ECPoint:
    """A fresh instance with the same coordinates, carrying a comb table."""
    copy = ECPoint(point.x, point.y)
    copy.precompute()
    return copy


# Where a comb goes wrong: empty and single columns, block boundaries, the
# group order, a scalar whose every column is zero but one, one tooth only.
COMB_EDGE_SCALARS = [
    0, 1, 2, N - 1, N, (1 << 32) - 1, 1 << 32, 1 << 224,
    sum(1 << (32 * tooth) for tooth in range(8)),  # column 0 only, all teeth
    0xDEADBEEF << 96,  # tooth 3 only
]


class TestComb:
    @pytest.mark.parametrize("scalar", COMB_EDGE_SCALARS)
    def test_comb_edge_scalars(self, scalar, named_points):
        for point in named_points.values():
            assert precomputed(point) * scalar == naive_mult(point, scalar)

    @given(scalar=st.integers(0, (1 << 256) - 1), seed=st.integers(1, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_comb_random_points(self, scalar, seed):
        point = G * random.Random(seed).randrange(1, N)
        assert precomputed(point) * scalar == naive_mult(point, scalar)

    def test_table_shape_and_idempotence(self, named_points):
        point = precomputed(named_points["random"])
        table = point._comb
        assert table[0] is None and len(table) == 256
        assert table[1] == (point.x, point.y)
        assert ECPoint(*table[0b101]) == naive_mult(point, 1 + (1 << 64))
        point.precompute()
        assert point._comb is table  # the second call builds nothing
        infinity = ECPoint(None, None)
        infinity.precompute()
        assert infinity._comb is None and (infinity * 5).is_infinity

    def test_generator_copies_share_one_table(self):
        copy = ECPoint(G.x, G.y)
        assert copy * 77 == naive_mult(G, 77)
        assert copy._comb is G._comb and len(G._comb) == 256

    @given(
        scalars=st.lists(st.integers(0, N + 7), min_size=1, max_size=6),
        seed=st.integers(1, 2**32),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_mult_mixed_tiers_matches_sum(self, scalars, seed):
        rng = random.Random(seed)
        pairs = []
        for i, scalar in enumerate(scalars):
            point = G * rng.randrange(1, N)
            pairs.append((scalar, (G, precomputed(point), point)[i % 3]))
        expected = ECPoint(None, None)
        for scalar, point in pairs:
            expected = expected + naive_mult(ECPoint(point.x, point.y), scalar)
        assert multi_mult(pairs) == expected

    def test_verdicts_identical_with_and_without_comb(self):
        scheme = EcdsaMultiSig()
        keypairs = [scheme.keygen(random.Random(seed)) for seed in range(3)]
        message = b"epoch transition"
        cases = []
        for kp in keypairs:
            r, s = scheme.sign(kp.secret, message)
            cases += [
                (kp.public, (r, s)),
                (kp.public, (r ^ 1, s)),
                (kp.public, (r, s ^ 1)),
                (keypairs[0].public if kp is not keypairs[0] else keypairs[1].public, (r, s)),
            ]
        plain = [(ECPoint(pk.x, pk.y), message, sig) for pk, sig in cases]
        combed = [(precomputed(pk), message, sig) for pk, sig in cases]
        assert all(item[0]._comb is None for item in plain)
        verdicts = [P256.ecdsa_verify(*item) for item in plain]
        assert verdicts == [True, False, False, False] * 3
        assert [P256.ecdsa_verify(*item) for item in combed] == verdicts
        assert P256.ecdsa_verify_batch(combed) == verdicts
        assert P256.ecdsa_verify_all(combed[::4]) and P256.ecdsa_verify_all(plain[::4])
        assert not P256.ecdsa_verify_all(combed) and not P256.ecdsa_verify_all(plain)

    def test_only_the_generator_and_the_signer_directory_carry_a_comb(self):
        """Promotion is explicit: after a backup + recovery exactly N + 1
        tables exist — no BFE slot key, ephemeral point or client-side copy
        grew one — and restoring the deployment builds none."""
        from repro.storage.blockstore import InMemoryBlockStore

        def combed_points():
            gc.collect()
            return [
                obj for obj in gc.get_objects()
                if type(obj) is ECPoint and obj._comb is not None
            ]

        before = {id(point._comb) for point in combed_points()}
        store = InMemoryBlockStore()
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3)
        deployment = Deployment.create(params, rng=random.Random(7), store=store)
        client = deployment.new_client("comb-population-user")
        client.backup(b"payload", pin="1234")
        assert client.recover(pin="1234") == b"payload"

        directory = {
            (info.sig_public.x, info.sig_public.y)
            for info in deployment.fleet.master_public_key()
        }
        tables = {}
        for point in combed_points():
            if id(point._comb) not in before:
                tables[id(point._comb)] = point
        tables[id(G._comb)] = G
        assert len(tables) == len(directory) + 1 == 5
        assert {(p.x, p.y) for p in tables.values()} == directory | {(G.x, G.y)}
        assert all(len(p._comb) - 1 == 255 for p in tables.values())

        restored = Deployment.restore(params, store, deployment.fleet)
        again = restored.new_client("comb-population-user-2")
        again.backup(b"payload", pin="4321")
        assert again.recover(pin="4321") == b"payload"
        new_tables = {id(p._comb) for p in combed_points()} - before - set(tables)
        assert not new_tables


class TestBatchInverse:
    @given(
        values=st.lists(st.integers(1, N - 1), min_size=1, max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_pow(self, values):
        assert batch_inverse_mod(values, N) == [pow(v, -1, N) for v in values]

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse_mod([3, 0, 5], N)

    def test_empty(self):
        assert batch_inverse_mod([], N) == []

    def test_field_wrapper(self):
        field = PrimeField(97)
        elements = [field(v) for v in (1, 5, 42, 96)]
        assert field.batch_inverse(elements) == [e.inverse() for e in elements]


class TestBatchVerify:
    @pytest.fixture(scope="class")
    def signed(self):
        scheme = EcdsaMultiSig()
        keypairs = [scheme.keygen(random.Random(seed)) for seed in range(6)]
        message = b"epoch transition"
        sigs = [scheme.sign(kp.secret, message) for kp in keypairs]
        return scheme, keypairs, message, sigs

    def test_batch_matches_sequential(self, signed):
        scheme, keypairs, message, sigs = signed
        items = [(kp.public, message, sig) for kp, sig in zip(keypairs, sigs)]
        # Corrupt a couple of entries in characteristic ways.
        items[2] = (keypairs[2].public, b"wrong message", sigs[2])
        items[4] = (keypairs[4].public, message, (0, 1))  # out-of-range r
        sequential = [P256.ecdsa_verify(*item) for item in items]
        assert P256.ecdsa_verify_batch(items) == sequential
        assert sequential == [True, True, False, True, False, True]

    def test_verify_aggregate_accepts_and_rejects(self, signed):
        scheme, keypairs, message, sigs = signed
        aggregate = scheme.aggregate(sigs)
        assert scheme.verify_aggregate(keypairs, message, aggregate)
        bad = scheme.aggregate([sigs[1]] + sigs[1:])  # first sig swapped
        assert not scheme.verify_aggregate(keypairs, message, bad)
        assert not scheme.verify_aggregate(keypairs[:-1], message, aggregate)

    def test_infinity_public_key_rejected_not_crashed(self, signed):
        """An attacker-supplied identity point as a signer key must land on
        the returns-False path, as the pre-fast-path verifier did."""
        scheme, keypairs, message, sigs = signed
        infinity = ECPoint(None, None)
        assert not P256.ecdsa_verify(infinity, message, sigs[0])
        assert P256.ecdsa_verify_batch([(infinity, message, sigs[0])]) == [False]
        publics = [infinity] + [kp.public for kp in keypairs[1:]]
        assert not scheme.verify_aggregate(publics, message, scheme.aggregate(sigs))

    def test_verify_all_short_circuits_computation(self, signed):
        """ecdsa_verify_all must stop at the first failing chunk: a bad
        aggregate costs one chunk of work, not all N verifications."""
        from repro.crypto import ec as ec_module

        scheme, keypairs, message, sigs = signed
        items = [(kp.public, message, sig) for kp, sig in zip(keypairs, sigs)]
        assert P256.ecdsa_verify_all(items)
        assert not P256.ecdsa_verify_all([(keypairs[0].public, b"bad", sigs[0])] + items)
        calls = []
        original = ec_module._Curve._verify_chunk

        def counting(self, chunk):
            calls.append(len(chunk))
            return original(self, chunk)

        ec_module._Curve._verify_chunk = counting
        try:
            many = [(keypairs[0].public, b"wrong", sigs[0])] + items * 4
            assert not P256.ecdsa_verify_all(many)
        finally:
            ec_module._Curve._verify_chunk = original
        assert sum(calls) <= ec_module._VERIFY_CHUNK  # only the first chunk ran

    def test_aggregate_metering_matches_short_circuit(self, signed):
        """The sequential loop metered one ecdsa_verify per signature up to
        and including the first failure; the batch path must report the
        same counts or the modeled device costs drift."""
        scheme, keypairs, message, sigs = signed
        aggregate = scheme.aggregate(sigs)
        with metered() as meter:
            scheme.verify_aggregate(keypairs, message, aggregate)
        assert meter.counts["ecdsa_verify"] == len(sigs)
        bad = scheme.aggregate(sigs[:3] + [(1, 1)] + sigs[4:])
        with metered() as meter:
            scheme.verify_aggregate(keypairs, message, bad)
        assert meter.counts["ecdsa_verify"] == 4  # stops at first bad signature


class TestMeteringInvariance:
    METERED_OPS = ("ec_mult", "ecdsa_verify", "sha256_block")
    # Captured by running this exact workload on the pre-fast-path seed
    # implementation (PR 2 tree).  The acceleration layer must not move any
    # of these: it changes wall-clock, not the paper's cost model.
    SEED_COUNTS = {"ec_mult": 339, "ecdsa_verify": 72, "sha256_block": 2585}

    def run_fixed_workload(self):
        """One seeded backup+recovery; all randomness from one PRNG so the
        operation trace is a pure function of the code, not the run."""
        stream = random.Random(0xC0FFEE)
        originals = (secrets.token_bytes, secrets.randbelow)
        secrets.token_bytes = lambda n=32: stream.getrandbits(8 * n).to_bytes(n, "big")
        secrets.randbelow = lambda bound: stream.randrange(bound)
        try:
            meter = OpMeter()
            with meter.attached():
                params = SystemParams.for_testing(num_hsms=6, cluster_size=3)
                deployment = Deployment.create(params, rng=random.Random(7))
                client = deployment.new_client("meter-invariance-user")
                client.backup(b"fixed workload payload", pin="1234")
                recovered = client.recover(pin="1234")
            assert recovered == b"fixed workload payload"
            return {op: meter.counts[op] for op in self.METERED_OPS}
        finally:
            secrets.token_bytes, secrets.randbelow = originals

    def test_fixed_workload_counts_unchanged(self):
        assert self.run_fixed_workload() == self.SEED_COUNTS

    def test_single_mult_still_counts_one(self):
        point = G * 7
        with metered() as meter:
            _ = G * 12345          # fixed-base comb path
            _ = point * 54321      # cached-window path
            _ = naive_mult(point, 99)  # baseline path
        assert meter.counts["ec_mult"] == 3
