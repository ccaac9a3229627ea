"""The crypto fast-path layer: one chain under comb tables, signed-window
ladders and multi-scalar sums.

Every fast path must agree bit-for-bit with plain double-and-add (an
independent reference built here from point additions only), and none of
them may change what the ambient meter sees — the paper's cost accounting
(`ec_mult`, `ecdsa_verify`, `sha256_block`) prices operations, not
implementations.
"""

import gc
import hashlib
import inspect
import random
import secrets

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.crypto import ec as ec_module
from repro.crypto.ec import (
    N,
    P256,
    ECKeyPair,
    ECPoint,
    combed_sum,
    generator_mult_each,
    mult_each,
    multi_mult,
    naive_mult,
    point_sum,
)
from repro.crypto.field import batch_inverse_mod
from repro.log.distributed import AggregateKey, SchnorrMultiSig
from repro.metering import OpMeter, metered
from repro.storage.blockstore import InMemoryBlockStore

import reference_ecdsa
from multisig_rounds import certificate, per_key_check
from reference_comb import (
    UNSIGNED_TEETH,
    jacobian_comb_fill,
    one_table_generator_mult_each,
    unsigned_build_comb,
)
from reference_ecdsa import VERIFY_CHUNK, ecdsa_sign, ecdsa_verify_all, verify_quorum_list


def ecdsa_verify(public, message, signature):
    return ecdsa_verify_all([(public, message, signature)])


G = P256.generator
GENERATOR_TABLES = ec_module._GENERATOR_COMB_TABLES
TEETH = ec_module._COMB_TEETH
GENERATOR_WIDTH = ec_module._comb_width(GENERATOR_TABLES, TEETH)
SLOT_TEETH = ec_module._SLOT_COMB_TEETH
SLOT_STRIDE = ec_module._comb_stride(SLOT_TEETH)  # 43
# The two comb shapes as (teeth, tables): the generator's, and the small
# one of a slot key or an aggregate key.
TIERS = ((TEETH, GENERATOR_TABLES), (SLOT_TEETH, 1))

# Scalars where window/comb algorithms historically go wrong: zero, the
# identity, all-ones digits, values at and just past the group order.
EDGE_SCALARS = [0, 1, 2, 15, 16, 0xFFFF, N - 1, N, N + 1, (1 << 256) - 1]


def signed_sum(index: int, teeth: int, shift: int = 0) -> int:
    """The exponent entry ``index`` of a signed comb's sub-table scaled by
    ``2^shift`` holds: ``+2^(c(t−1))`` for the top tooth, and ``±2^(cj)``
    for each lower tooth j, + where bit j of ``index`` is set."""
    stride = ec_module._comb_stride(teeth)
    return sum(
        (1 if j == teeth - 1 or index >> j & 1 else -1) << (stride * j + shift)
        for j in range(teeth)
    )


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
        # A second multiply builds the table again and must agree.
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


class TestSignedDigits:
    @given(scalar=st.integers(0, (1 << 256) - 1))
    @settings(max_examples=200, deadline=None)
    def test_recoding_reproduces_the_scalar(self, scalar):
        digits = ec_module._signed_digits(scalar)
        assert sum(digit << position for position, digit in digits) == scalar
        assert all(digit & 1 and abs(digit) <= 15 for _, digit in digits)
        positions = [position for position, _ in digits]
        # Never two non-empty columns within five, and the ladder is long
        # enough for the carry out of a 256-bit scalar.
        assert all(b - a >= 5 for a, b in zip(positions, positions[1:]))
        assert all(0 <= position < ec_module._LADDER_COLUMNS for position in positions)

    def test_small_and_carrying_scalars(self):
        assert ec_module._signed_digits(0) == []
        assert ec_module._signed_digits(1) == [(0, 1)]
        assert ec_module._signed_digits(15) == [(0, 15)]
        assert ec_module._signed_digits(17) == [(0, -15), (5, 1)]
        assert ec_module._signed_digits(16) == [(4, 1)]
        top = ec_module._signed_digits((1 << 256) - 1)
        assert top == [(0, -1), (256, 1)]


def reference_chain(columns):
    """``_chain``'s contract spelled with the general-purpose primitives."""
    acc = ec_module._INFINITY
    for column in columns:
        acc = ec_module._jac_double(acc)
        for x, y in column:
            acc = ec_module._jac_add(acc, (x, y, 1))
    return ec_module._jac_to_affine_batch([acc])[0]


def chain(columns):
    return ec_module._jac_to_affine_batch([ec_module._chain(columns)])[0]


class TestChain:
    """The one doubling-and-adding loop, on columns built by hand."""

    @pytest.fixture(scope="class")
    def pts(self):
        base = G * 0xC0FFEE
        multiples = {k: naive_mult(base, k) for k in (1, 2, 3, 4, 5, 7)}
        return {k: (p.x, p.y) for k, p in multiples.items()} | {
            -k: (p.x, (-p.y) % ec_module.P) for k, p in multiples.items()
        }

    def test_empty_and_leading_empty_columns(self, pts):
        assert chain([]) is None and chain([(), (), ()]) is None
        assert chain([(), (), (pts[1],), ()]) == pts[2]
        assert chain([(pts[1],)]) == pts[1]

    def test_column_equal_to_the_accumulator_doubles(self, pts):
        # acc = P, doubled to 2P, then "+ 2P": the mixed formula's h == 0.
        assert chain([(pts[1],), (pts[2],)]) == pts[4]
        assert chain([(pts[1], pts[1])]) == pts[2]  # same point twice in one column
        assert chain([(pts[1],), (pts[2],), (pts[-1],)]) == pts[7]

    def test_negated_accumulator_cancels_and_the_chain_restarts(self, pts):
        assert chain([(pts[1],), (pts[-2],)]) is None
        # ∞ is not doubled; the next point restarts the accumulator ...
        assert chain([(pts[1],), (pts[-2],), (pts[3],)]) == pts[3]
        assert chain([(pts[1],), (pts[-2], pts[3])]) == pts[3]
        # ... and the chain carries on from there: 2·3P + P = 7P.
        assert chain([(pts[1],), (pts[-2],), (), (pts[3],), (pts[1],)]) == pts[7]

    @given(
        picks=st.lists(
            st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, -1, -2, -3, -4, -5, -7]), max_size=3),
            max_size=7,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_double_and_general_add(self, pts, picks):
        columns = [tuple(pts[k] for k in column) for column in picks]
        assert chain(columns) == reference_chain(columns)


class TestColumnBuilders:
    def test_window_table_holds_the_odd_multiples(self, named_points):
        point = named_points["random"]
        table, other = ec_module._build_windows([(point.x, point.y), (G.x, G.y)])
        assert [ECPoint(*entry) for entry in table] == [
            naive_mult(point, k) for k in range(1, 16, 2)
        ]
        assert ECPoint(*other[7]) == naive_mult(G, 15)

    def test_no_comb_subset_sum_is_a_multiple_of_the_order(self):
        """``_build_comb`` relies on it, at every tier: no entry of any
        sub-table is infinity, and no lock-step batch of the fill adds
        inverse points (``sub[m] + 2·B_j`` with ``sub[m] = −2·B_j``)."""
        for teeth, tables in TIERS:
            stride, width = ec_module._comb_stride(teeth), ec_module._comb_width(tables, teeth)
            assert teeth * stride >= 256 and (tables - 1) * width < stride
            for shift in range(0, tables * width, width):
                for index in range(1 << (teeth - 1)):
                    entry = signed_sum(index, teeth, shift)
                    assert entry % N
                    for j in range(index.bit_length(), teeth - 1):  # the fill's additions
                        assert (entry + (2 << (stride * j + shift))) % N

    def test_every_comb_entry_is_its_signed_sum(self, named_points):
        """Every entry of every sub-table of both shapes — the generator's
        five, a slot or aggregate key's one — is finite and is
        ``naive_mult`` of its signed exponent sum."""
        point = named_points["random"]
        for (teeth, tables), base in zip(TIERS, (G, point)):
            (comb,) = ec_module._build_comb([(base.x, base.y)], tables, teeth)
            width = ec_module._comb_width(tables, teeth)
            assert len(comb) == tables and ec_module._comb_teeth(comb) == teeth
            for sub_table, entries in enumerate(comb):
                assert len(entries) == 1 << (teeth - 1) and None not in entries
                for index, entry in enumerate(entries):
                    multiple = signed_sum(index, teeth, sub_table * width)
                    assert ECPoint(*entry) == naive_mult(base, multiple % N)
        assert G._comb_table() == ec_module._build_comb([(G.x, G.y)], GENERATOR_TABLES, TEETH)[0]

    def test_comb_table_is_the_jacobian_fill_entry_for_entry(self, named_points):
        """The unsigned reference engine's lock-step fill — the baseline the
        hot-path bench times the signed combs against — against the
        Jacobian fill it replaced: a one-table 9-tooth comb, and every
        sub-table of the generator's five against the fill of the
        generator scaled by its sub-table's 2^(i·w)."""
        rng = random.Random(24)
        for point in [G, *named_points.values(), G * rng.randrange(1, N)]:
            assert unsigned_build_comb([(point.x, point.y)]) == [[jacobian_comb_fill(point.x, point.y)]]
        (comb,) = unsigned_build_comb([(G.x, G.y)], GENERATOR_TABLES)
        assert len(comb) == GENERATOR_TABLES
        for sub_table, entries in enumerate(comb):
            scaled = naive_mult(G, 1 << (sub_table * ec_module._comb_width(GENERATOR_TABLES, UNSIGNED_TEETH)))
            assert entries == jacobian_comb_fill(scaled.x, scaled.y)

    @given(scalar=st.integers(1, N - 1))
    @settings(max_examples=100, deadline=None)
    def test_signed_indices_reproduce_the_scalar(self, scalar):
        """At both tooth counts every position's index, read as a ±1 digit
        per tooth, sums back to the scalar mod N, and ``N − k`` reads the
        complement of ``k``'s indices (an even scalar is a negated odd one)."""
        for teeth in (TEETH, SLOT_TEETH):
            stride = ec_module._comb_stride(teeth)
            indices = ec_module._comb_indices(scalar, teeth)
            assert len(indices) == stride
            digits = sum(
                (1 if index >> j & 1 else -1) << (stride * j + position)
                for position, index in enumerate(indices)
                for j in range(teeth)
            )
            assert digits % N == scalar
            complement = [index ^ ((1 << teeth) - 1) for index in indices]
            assert ec_module._comb_indices(N - scalar, teeth) == complement

    def test_comb_entry_negates_below_the_top_tooth(self, named_points):
        """An index with the top tooth set reads its entry, one without it
        the negation of the complement's."""
        point = named_points["random"]
        ((table,),) = ec_module._build_comb([(point.x, point.y)], 1, SLOT_TEETH)
        half = len(table) - 1
        for index in range(1 << SLOT_TEETH):
            entry = ECPoint(*ec_module._comb_entry(table, index))
            if index > half:
                assert entry == ECPoint(*table[index & half])
            else:
                assert entry == -ECPoint(*table[~index & half])

    @given(scalar=st.integers(1, N - 1), other=st.integers(1, N - 1), seed=st.integers(1, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_comb_columns_ride_the_ladders_last_steps(self, scalar, other, seed):
        point = G * random.Random(seed).randrange(1, N)
        key, slot = summed_key(point), slot_key(point)
        (table,) = ec_module._build_windows([(point.x, point.y)])
        for base, width in ((G, GENERATOR_WIDTH), (key, SLOT_STRIDE), (slot, SLOT_STRIDE)):
            comb = base._comb_table()
            columns = [()] * ec_module._LADDER_COLUMNS
            indices = ec_module._comb_indices(scalar, ec_module._comb_teeth(comb))
            ec_module._comb_columns(columns, indices, comb)
            assert not any(columns[:-width])
            ec_module._ladder_columns(columns, ec_module._signed_digits(other), table)
            expected = naive_mult(base, scalar) + naive_mult(point, other)
            assert ECPoint._from_jac(ec_module._chain(columns)) == expected


def summed_key(point: ECPoint) -> ECPoint:
    """A fresh instance with the same coordinates, combed the way an
    aggregate key is: by :func:`combed_sum` (a sum of one key)."""
    key = combed_sum([point])
    assert key == point and ec_module._comb_teeth(key._comb) == SLOT_TEETH
    return key


def slot_key(point: ECPoint) -> ECPoint:
    """A fresh instance with the same coordinates, combed the way a slot key
    is: by its first ``mult_each``."""
    copy = ECPoint(point.x, point.y)
    mult_each([copy], 1)
    assert ec_module._comb_teeth(copy._comb) == SLOT_TEETH
    return copy


# The signed recoding's own edges: k and N − k (an even scalar is read as
# the negation of an odd one, every index complemented), N − 2, 2^255, the
# scalars whose recoded digits below the top are all −1 (1) or all +1
# (N − 1), and those whose lower teeth's digits are all +1
# (2^(c(t−1) + 1) − 1) or all −1 (its negation, N minus it), at every
# tooth count: the 10-tooth comb's, the slot comb's and the 5-tooth slot
# comb's it replaced.
PARITY_SCALARS = [3, 0x1EADBEEF << 87, 0x5A17 * (N // 0x10001)]
SIGNED_EDGE_SCALARS = [
    1, N - 1, 2, N - 2, 1 << 255,
    *(N - k for k in PARITY_SCALARS), *PARITY_SCALARS,
    *(
        scalar
        for teeth in (TEETH, 5, SLOT_TEETH)
        for stride in (ec_module._comb_stride(teeth),)
        for scalar in ((2 << (stride * (teeth - 1))) - 1, N + 1 - (2 << (stride * (teeth - 1))))
    ),
]

# Where a comb goes wrong: empty and single columns, block boundaries, the
# group order, a scalar whose every column is zero but one, one tooth only —
# for the 26-bit stride, for the 29-bit stride of the unsigned 9-tooth comb
# and (still arbitrary scalars worth keeping) for the 32-bit stride the
# table had before that — and the generator's sub-table boundaries:
# scalars whose only set bits are bits i·w − 1 and i·w of a tooth (the
# last column of sub-table i − 1 and the first of sub-table i), at the 26-
# and the 29-bit stride; then the signed recoding's edges.
SUB_TABLE_BOUNDARIES = [i * GENERATOR_WIDTH for i in range(1, GENERATOR_TABLES)]
COMB_EDGE_SCALARS = [
    (1 << 26) - 1, 1 << 26, 1 << 234,
    sum(1 << (26 * tooth) for tooth in range(10)),  # column 0 only, all teeth
    0x3FFFFF << 234,  # top tooth only (bits 234..255)
    *(3 << (26 * 9 + edge - 1) for edge in SUB_TABLE_BOUNDARIES if 26 * 9 + edge < 256),  # top tooth
    sum(3 << (26 * tooth + edge - 1) for tooth in range(9) for edge in SUB_TABLE_BOUNDARIES),
    sum(1 << (26 * tooth + edge) for tooth in range(9) for edge in SUB_TABLE_BOUNDARIES),
    0, 1, 2, N - 1, N, (1 << 29) - 1, 1 << 29, 1 << 232,
    sum(1 << (29 * tooth) for tooth in range(9)),  # column 0 only, all teeth
    0xFFFFFF << 232,  # top tooth only (bits 232..255)
    0x1EADBEEF << 87,  # tooth 3 only
    (1 << 32) - 1, 1 << 32, 1 << 224,
    sum(1 << (32 * tooth) for tooth in range(8)),
    0xDEADBEEF << 96,
    *(3 << (edge - 1) for edge in SUB_TABLE_BOUNDARIES),  # tooth 0, one boundary
    *(3 << (29 * 8 + edge - 1) for edge in SUB_TABLE_BOUNDARIES if 29 * 8 + edge < 256),  # top tooth
    sum(3 << (29 * tooth + edge - 1) for tooth in range(8) for edge in SUB_TABLE_BOUNDARIES),
    sum(1 << (29 * tooth + edge) for tooth in range(8) for edge in SUB_TABLE_BOUNDARIES),
    *SIGNED_EDGE_SCALARS,
]
COMB_EDGE_SCALARS = list(dict.fromkeys(COMB_EDGE_SCALARS))  # one test id a value


class TestComb:
    @pytest.mark.parametrize("scalar", COMB_EDGE_SCALARS)
    def test_comb_edge_scalars(self, scalar, named_points):
        """Through the generator's sub-tables (``G * s``, a lone lane below
        the lock step's crossover, a Straus sum with an aggregate key) and
        through the 6-tooth table of an aggregate key over every named
        point, the generator's coordinates included."""
        assert ECPoint(G.x, G.y) * scalar == naive_mult(G, scalar)
        for point in named_points.values():
            assert summed_key(point) * scalar == naive_mult(point, scalar)
        assert generator_mult_each([scalar]) == [naive_mult(G, scalar)]
        key = summed_key(named_points["random"])
        expected = naive_mult(G, scalar) + naive_mult(key, scalar + 1)
        assert multi_mult([(scalar, G), (scalar + 1, key)]) == expected

    @given(scalar=st.integers(0, (1 << 256) - 1), seed=st.integers(1, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_comb_random_points(self, scalar, seed):
        point = G * random.Random(seed).randrange(1, N)
        assert summed_key(point) * scalar == naive_mult(point, scalar)

    def test_table_shape_and_idempotence(self, named_points):
        point = summed_key(named_points["random"])
        comb = point._comb
        (table,) = comb  # an aggregate key's comb is one table
        assert len(table) == 1 << (SLOT_TEETH - 1) and None not in table
        all_minus = (1 << (SLOT_STRIDE * (SLOT_TEETH - 1))) - sum(
            1 << (SLOT_STRIDE * j) for j in range(SLOT_TEETH - 1)
        )
        assert ECPoint(*table[0]) == naive_mult(point, all_minus)
        assert ECPoint(*table[0b101]) == naive_mult(point, signed_sum(0b101, SLOT_TEETH) % N)
        mult_each([point], 5)
        assert point._comb_table() is comb  # reading it again builds nothing
        for infinity in (combed_sum([]), combed_sum([point, -point])):
            assert infinity.is_infinity and infinity._comb is None
            assert (infinity * 5).is_infinity

    def test_generator_copies_share_one_table(self):
        """Every instance with the generator's coordinates — multiplied,
        read for its comb or met by ``mult_each`` — shares the one comb of
        S sub-tables."""
        copy, read, met = (ECPoint(G.x, G.y) for _ in range(3))
        assert copy * 77 == naive_mult(G, 77)
        assert read._comb_table() is G._comb
        mult_each([met], 5)
        assert all(point._comb is G._comb for point in (copy, read, met))
        assert len(G._comb) == GENERATOR_TABLES
        assert all(None not in sub and len(sub) == 512 for sub in G._comb)
        assert ECPoint(*G._comb[1][0b11]) == naive_mult(G, signed_sum(0b11, TEETH, GENERATOR_WIDTH) % N)

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
            pairs.append((scalar, (G, summed_key(point), point)[i % 3]))
        expected = ECPoint(None, None)
        for scalar, point in pairs:
            expected = expected + naive_mult(ECPoint(point.x, point.y), scalar)
        assert multi_mult(pairs) == expected

    def test_verdicts_identical_with_and_without_comb(self):
        """A certificate check reads the aggregate key's comb when it has
        one and ladders the key otherwise, and the written-out per-key
        oracle reads each key's comb or ladders it; the verdict is the same
        every way."""
        keypairs = [SchnorrMultiSig.keygen(random.Random(seed)) for seed in range(3)]
        message = b"epoch transition"
        nonce, s = certificate(keypairs, message)
        other = SchnorrMultiSig.keygen(random.Random(99)).public
        publics = [kp.public for kp in keypairs]
        cases = [
            (publics, (nonce, s)),
            (publics, (nonce, s ^ 1)),
            (publics, (-nonce, s)),
            (publics[:2] + [other], (nonce, s)),
            (publics[:2], (nonce, s)),
        ]
        plain = [([ECPoint(pk.x, pk.y) for pk in keys], sig) for keys, sig in cases]
        combed = [([summed_key(pk) for pk in keys], sig) for keys, sig in cases]
        assert all(pk._comb is None for keys, _ in plain for pk in keys)
        laddered_sums = [AggregateKey((), point_sum(keys)) for keys, _ in plain]
        assert all(key.point._comb is None for key in laddered_sums)
        verdicts = [
            SchnorrMultiSig.verify_aggregate(key, message, sig)
            for key, (_, sig) in zip(laddered_sums, plain)
        ]
        assert verdicts == [True, False, False, False, False]
        combed_sums = [SchnorrMultiSig.aggregate_key(range(len(keys)), keys) for keys, _ in plain]
        assert all(key.point._comb is not None for key in combed_sums)
        assert [
            SchnorrMultiSig.verify_aggregate(key, message, sig)
            for key, (_, sig) in zip(combed_sums, plain)
        ] == verdicts
        for keyed in (plain, combed):
            assert [per_key_check(keys, message, sig) for keys, sig in keyed] == verdicts

    def test_only_the_generator_carries_a_ten_tooth_comb(self):
        """After create, two backups, a recovery and a restore, exactly one
        10-tooth comb exists — the generator's, of S sub-tables — and no
        signer-directory key carries a comb of any shape: a key's proof of
        possession and a share check run on a ladder.  Every other comb
        the workload made is the small one (``SLOT_TEETH`` teeth) of a BFE
        slot key that the client's ``mult_each`` met or of a signer set's
        aggregate key that a device or a lane holds."""
        from repro.storage.blockstore import InMemoryBlockStore

        def combed_points():
            gc.collect()
            return [
                obj for obj in gc.get_objects() if type(obj) is ECPoint and obj._comb is not None
            ]

        before = {id(point._comb) for point in combed_points()}
        store = InMemoryBlockStore()
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3)
        deployment = Deployment.create(params, rng=random.Random(7), store=store)
        client = deployment.new_client("comb-population-user")
        client.backup(b"payload", pin="1234")
        # One salt, so the same slots: this backup reads the combs the first built.
        client.backup(b"payload", pin="1234", reuse_salt=True)
        assert client.recover(pin="1234") == b"payload"
        restored = Deployment.restore(params, store, deployment.fleet)
        again = restored.new_client("comb-population-user-2")
        again.backup(b"payload", pin="4321")
        assert again.recover(pin="4321") == b"payload"

        points = combed_points()
        ten_tooth = {id(p._comb) for p in points if ec_module._comb_teeth(p._comb) == TEETH}
        assert ten_tooth == {id(G._comb)}
        assert [len(sub) for sub in G._comb] == [1 << (TEETH - 1)] * GENERATOR_TABLES

        directory = [info.sig_public for info in deployment.fleet.master_public_key()]
        directory += [key for hsm in deployment.fleet for key in hsm._sig_directory.values()]
        assert len({(key.x, key.y) for key in directory}) == params.num_hsms
        assert all(key._comb is None for key in directory)

        slot_keys = {
            (key.x, key.y)
            for info in deployment.fleet.master_public_key()
            for key in info.bfe_public.slot_pubkeys
        }
        held = [key for hsm in deployment.fleet for key in hsm._aggregate_keys.values()]
        held += [lane._signer_key for dep in (deployment, restored) for lane in dep.provider.log.shards]
        aggregate_keys = {(key.point.x, key.point.y) for key in held if key is not None}
        assert aggregate_keys and not aggregate_keys & slot_keys
        small = [p for p in points if id(p._comb) not in before and p._comb is not G._comb]
        assert small and {(p.x, p.y) for p in small} <= slot_keys | aggregate_keys
        assert all(len(p._comb) == 1 and ec_module._comb_teeth(p._comb) == SLOT_TEETH for p in small)


class TestMultEach:
    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_edge_scalars_over_every_tier(self, scalar, named_points):
        fresh = ECPoint(named_points["small"].x, named_points["small"].y)
        multiplied = ECPoint(named_points["random"].x, named_points["random"].y)
        multiplied * 3  # a plain multiply leaves the point as it was
        key = summed_key(multiplied)
        comb = key._comb
        points = [
            G, ECPoint(G.x, G.y), key, multiplied, fresh,
            ECPoint(None, None), multiplied, fresh, slot_key(fresh),
        ]
        assert fresh._comb is None and multiplied._comb is None
        products = mult_each(points, scalar)
        assert products == [naive_mult(ECPoint(p.x, p.y), scalar) for p in points]
        # Every finite point now holds a comb: the generator's and the
        # aggregate key's as they were, a slot comb on the others.
        assert G._comb is points[1]._comb and len(G._comb) == GENERATOR_TABLES
        assert key._comb is comb
        assert all(p._comb is not None for p in points if not p.is_infinity)
        for point in (multiplied, fresh, points[-1]):
            assert len(point._comb) == 1 and ec_module._comb_teeth(point._comb) == SLOT_TEETH

    @given(
        scalar=st.integers(0, (1 << 256) - 1),
        seeds=st.lists(st.integers(1, 2**32), min_size=1, max_size=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_separate_multiplications(self, scalar, seeds):
        """A first call gives each point its slot comb, a later one reads
        the same comb, and every call is ``P * s``."""
        points = [G * random.Random(seed).randrange(1, N) for seed in seeds]
        assert mult_each(points, scalar) == [naive_mult(p, scalar) for p in points]
        assert all(len(p._comb) == 1 for p in points)
        assert all(len(p._comb[0]) == 1 << (SLOT_TEETH - 1) for p in points)
        combs = [p._comb for p in points]
        assert mult_each(points, scalar) == [p * scalar for p in points]  # combs read again
        assert all(p._comb is comb for p, comb in zip(points, combs))

    @pytest.mark.parametrize("scalar", [0, 1, N - 1, N + 1, (1 << 256) - 1])
    def test_multi_mult_over_all_four_tiers(self, scalar, named_points):
        """Combed, once-multiplied, fresh and generator-copy terms in one
        Straus sum."""
        multiplied = ECPoint(named_points["random"].x, named_points["random"].y)
        multiplied * 3
        fresh = ECPoint(named_points["small"].x, named_points["small"].y)
        points = [
            summed_key(multiplied), multiplied, fresh, ECPoint(G.x, G.y), ECPoint(None, None)
        ]
        pairs = [(scalar + i, point) for i, point in enumerate(points)]
        expected = ECPoint(None, None)
        for s, point in pairs:
            expected = expected + naive_mult(ECPoint(point.x, point.y), s)
        assert multi_mult(pairs) == expected

    def test_a_zero_scalar_runs_no_chain(self, named_points, monkeypatch):
        """A zero scalar has no signed comb reading: every product is the
        identity without a chain being run over the combs."""
        points = [slot_key(named_points["random"]), G, ECPoint(None, None)]
        G._comb_table()
        monkeypatch.setattr(ec_module, "_chain", None)  # not reached
        for scalar in (0, N, 2 * N):
            assert all(p.is_infinity for p in mult_each(points, scalar))

    def test_metering_is_one_mult_per_point(self, named_points):
        points = [named_points["random"], ECPoint(None, None), G]
        with metered() as meter:
            mult_each(points, 12345)
            mult_each([], 12345)
            mult_each(points[:1], 0)
        assert meter.counts["ec_mult"] == 4

    def test_bfe_encrypt_reports_what_k_separate_multiplies_did(self):
        from repro.crypto.bfe import BloomFilterEncryption
        from repro.crypto.bloom import BloomParams
        from repro.storage.blockstore import InMemoryBlockStore

        params = BloomParams.for_punctures(4, failure_exponent=4)
        public, secret = BloomFilterEncryption.keygen(
            params, InMemoryBlockStore(), random.Random(5)
        )
        with metered() as meter:
            (ciphertext,) = BloomFilterEncryption.encrypt([public], [b"share"], context=b"ctx")
        k = params.num_hashes
        assert len(ciphertext.wrapped_keys) == k
        assert meter.counts["ec_mult"] == k + 1 and meter.counts["elgamal_enc"] == k
        assert BloomFilterEncryption.decrypt(secret, ciphertext, context=b"ctx") == b"share"

    def test_lhe_encrypt_bills_one_ephemeral_and_one_comb_a_distinct_key(self, monkeypatch):
        """A location-hiding encryption at (n, k) is one ``g^r`` and one
        ``mult_each`` over the cluster's n·k slot keys: 1 + n·k ``ec_mult``
        and n·k ``elgamal_enc``, every product ``naive_mult``'s.  A device
        the cluster names twice lists its k slot keys twice, and each of
        them gets one comb."""
        from repro.core.lhe import LocationHidingEncryption
        from repro.crypto import bfe as bfe_module
        from repro.crypto.bfe import BloomFilterEncryption
        from repro.crypto.bloom import BloomParams
        from repro.storage.blockstore import InMemoryBlockStore

        params = BloomParams.for_punctures(4, failure_exponent=4)
        publics = [
            BloomFilterEncryption.keygen(params, InMemoryBlockStore(), random.Random(40 + i))[0]
            for i in range(3)
        ]
        lhe = LocationHidingEncryption(3, 3, 2)
        salt = next(
            salt for salt in (bytes([i]) * 16 for i in range(256))
            if len(set(lhe.select(salt, "2580"))) == 2
        )
        calls, built = [], []

        def spy_mult_each(points, scalar):
            products = mult_each(points, scalar)
            calls.append((list(points), scalar, products))
            return products

        def spy_build_comb(points, tables, teeth):
            if teeth == SLOT_TEETH:
                built.append(len(points))
            return build_comb(points, tables, teeth)

        build_comb = ec_module._build_comb
        monkeypatch.setattr(bfe_module, "mult_each", spy_mult_each)
        monkeypatch.setattr(ec_module, "_build_comb", spy_build_comb)
        with metered() as meter:
            ciphertext = lhe.encrypt(publics, "2580", b"message", username="u", salt=salt)
        n, k = lhe.cluster_size, params.num_hashes
        assert meter.counts["ec_mult"] == 1 + n * k and meter.counts["elgamal_enc"] == n * k
        ((points, scalar, products),) = calls
        assert len(points) == n * k
        assert products == [naive_mult(ECPoint(p.x, p.y), scalar) for p in points]
        assert {share.ephemeral for share in ciphertext.share_ciphertexts} == {naive_mult(G, scalar)}
        assert built == [len({id(point) for point in points})] == [2 * k]


def tooth_boundary_scalars(teeth: int) -> list:
    """Scalars whose only set bits sit at the tooth boundaries of a comb of
    ``teeth`` teeth: the top bit of one tooth and the bottom bit of the
    next (bits c − 1 and c, 2c − 1 and 2c, ...), every tooth's top bit with
    bit 255, and every tooth's bottom bit."""
    stride, inner = ec_module._comb_stride(teeth), range(1, teeth)
    return [
        *(3 << (stride * tooth - 1) for tooth in inner),
        *(1 << (stride * tooth - 1) for tooth in inner),
        *(1 << (stride * tooth) for tooth in inner),
        sum(1 << (stride * tooth - 1) for tooth in inner) | (1 << 255),
        sum(1 << (stride * tooth) for tooth in range(teeth)),
        sum(3 << (stride * tooth - 1) for tooth in inner) | (1 << 255),
    ]


# Where a slot comb goes wrong: its tooth boundaries at the 6-tooth comb's
# 43-bit stride, 2^43 ± 1, 2^86 ± 1 and the later teeth's bottom bits with
# their N − x twins, the same boundaries at the 52-bit stride of the
# 5-tooth comb before it and the 64-bit stride of the unsigned 4-tooth
# comb before that, and the signed recoding's edges.
SIX_TOOTH_EDGES = [
    (1 << 43) - 1, (1 << 43) + 1, (1 << 86) - 1, (1 << 86) + 1, 1 << 129, 1 << 172, 1 << 215,
]
SLOT_TOOTH_SCALARS = [
    *tooth_boundary_scalars(6),
    *SIX_TOOTH_EDGES,
    *(N - edge for edge in SIX_TOOTH_EDGES),
    *tooth_boundary_scalars(5),
    *SIGNED_EDGE_SCALARS,
    *tooth_boundary_scalars(4),
]


class TestCombedSlotKeys:
    """A slot key ``mult_each`` has met carries the slot comb from its
    first multiply on, and every product over it is the ladder's."""

    @pytest.fixture(scope="class")
    def slot(self, named_points):
        return slot_key(named_points["random"])

    @pytest.mark.parametrize("scalar", list(dict.fromkeys(EDGE_SCALARS + SLOT_TOOTH_SCALARS)))
    def test_products_are_naive_mult(self, scalar, slot):
        expected = naive_mult(slot, scalar)
        assert mult_each([slot, slot], scalar) == [expected, expected]
        assert slot * scalar == expected

    def test_no_subset_sum_is_infinity(self, slot):
        (table,) = slot._comb
        assert len(table) == 1 << (SLOT_TEETH - 1)
        for index, entry in enumerate(table):
            multiple = signed_sum(index, SLOT_TEETH)
            assert multiple % N and entry is not None
            assert ECPoint(*entry) == naive_mult(slot, multiple % N)
        assert ec_module._build_comb([(slot.x, slot.y)], 1, SLOT_TEETH) == [slot._comb]

    def test_a_batch_builds_each_points_own_comb(self, named_points):
        """One batch, a point repeated in it, against the one-point builder
        — for slot-key combs and for combs of the generator's shape — and
        every slot-key entry against ``naive_mult`` of its signed sum."""
        rng = random.Random(33)
        points = [named_points["random"], G * rng.randrange(1, N), named_points["random"], G]
        affine = [(p.x, p.y) for p in points]
        assert ec_module._build_comb([], 1, SLOT_TEETH) == []
        for teeth, tables in TIERS:
            combs = ec_module._build_comb(affine, tables, teeth)
            assert combs == [ec_module._build_comb([a], tables, teeth)[0] for a in affine]
            assert combs[0] == combs[2] and combs[0] is not combs[2]
        for point, (table,) in zip(points, ec_module._build_comb(affine, 1, SLOT_TEETH)):
            assert len(table) == 1 << (SLOT_TEETH - 1)
            for index, entry in enumerate(table):
                assert ECPoint(*entry) == naive_mult(point, signed_sum(index, SLOT_TEETH) % N)

    def test_the_first_mult_each_builds_the_comb(self, named_points):
        point = ECPoint(named_points["small"].x, named_points["small"].y)
        point * 5  # a plain multiply builds nothing on the point ...
        point * 7
        assert point._comb is None
        mult_each([point], 11)  # ... mult_each gives it the comb
        assert ec_module._comb_teeth(point._comb) == SLOT_TEETH
        comb = point._comb
        mult_each([point], 13)
        point * 17
        assert point._comb_table() is comb  # a point holding a comb keeps it
        other = ECPoint(named_points["small"].x, named_points["small"].y)
        mult_each([other], 17)  # never multiplied before: the comb at once
        assert other._comb == comb

    def test_five_and_six_tooth_combs_agree(self, named_points):
        """The same keys under the 5-tooth comb the slot comb replaced and
        under the 6-tooth one: bit-for-bit equal products, alone and in one
        call that reads the scalar at both tooth counts, and each call
        meters one ``ec_mult`` a point."""
        rng = random.Random(45)
        keys = [named_points["random"], named_points["small"]] + [G * rng.randrange(1, N) for _ in range(3)]
        affine = [(key.x, key.y) for key in keys]
        five, six = [ECPoint(*a) for a in affine], [ECPoint(*a) for a in affine]
        for points, teeth in ((five, 5), (six, 6)):
            for point, comb in zip(points, ec_module._build_comb(affine, 1, teeth)):
                point._comb = comb
        for scalar in (1, 2, N - 1, (1 << 215) | (1 << 43), rng.randrange(1, N)):
            products = []
            for points in (five, six, five + six):
                with metered() as meter:
                    products.append(mult_each(points, scalar))
                assert meter.counts["ec_mult"] == len(points)
            assert [(p.x, p.y) for p in products[0]] == [(p.x, p.y) for p in products[1]]
            assert products[2] == products[0] + products[1]
        assert products[0] == [naive_mult(key, scalar) for key in keys]
        assert [ec_module._comb_teeth(p._comb) for p in five + six] == [5] * 5 + [6] * 5

    @given(scalars=st.lists(st.integers(0, N + 7), min_size=3, max_size=6), seed=st.integers(1, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_straus_sums_read_a_slot_comb(self, scalars, seed, slot):
        """A slot key beside an aggregate key's comb and the generator (one
        43-column comb chain), and beside a ladder point too."""
        rng = random.Random(seed)
        key = summed_key(G * rng.randrange(1, N))
        plain = G * rng.randrange(1, N)
        points = [slot, key, ECPoint(G.x, G.y), plain, slot, G]
        pairs = list(zip(scalars, points))
        expected = ECPoint(None, None)
        for scalar, point in pairs:
            expected = expected + naive_mult(ECPoint(point.x, point.y), scalar)
        assert multi_mult(pairs) == expected
        combed = [pair for pair in pairs if pair[1] is not plain]
        expected = ECPoint(None, None)
        for scalar, point in combed:
            expected = expected + naive_mult(ECPoint(point.x, point.y), scalar)
        assert multi_mult(combed) == expected
        assert multi_mult([(5, plain), (3, slot)]) == naive_mult(plain, 5) + naive_mult(slot, 3)
        assert plain._comb is None  # Straus sums build no comb

    def test_decrypt_share_and_finish_build_no_comb(self, monkeypatch):
        """Only a client's encryption combs a point: the HSM's ``(g^r)^sk``
        and reply encryption and the client's opening of the replies
        multiply one-off points, which stay as they were."""
        params = SystemParams.for_testing(num_hsms=4, cluster_size=3)
        deployment = Deployment.create(params, rng=random.Random(32))
        client = deployment.new_client("slot-comb-user")
        client.backup(b"payload", pin="1234")
        session = client.begin_recovery("1234")

        built = []
        build = ec_module._build_comb
        monkeypatch.setattr(
            ec_module, "_build_comb", lambda *args, **kw: built.append(args) or build(*args, **kw)
        )
        client.request_shares(session, "1234")
        assert client.finish_recovery(session) == b"payload"
        assert built == []
        one_off = [session.response_keypair.public] + [
            ct.ephemeral for ct in session.ciphertext.share_ciphertexts
        ]
        assert all(point._comb is None for point in one_off)


def add_each(lefts, rights):
    """``_add_each`` over ECPoints, infinity included."""

    def affine(point):
        return None if point.is_infinity else (point.x, point.y)

    sums = ec_module._add_each([affine(p) for p in lefts], [affine(p) for p in rights])
    return [ECPoint._from_affine(entry) for entry in sums]


class TestLockStep:
    """Shared-inversion affine additions, and the generator's comb walked
    over them for many scalars at once."""

    @given(
        seeds=st.lists(
            st.tuples(st.integers(1, N - 1), st.integers(1, N - 1)), min_size=0, max_size=12
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_add_each_is_point_addition_lane_for_lane(self, seeds):
        lefts = [G * a for a, _ in seeds]
        rights = [G * b for _, b in seeds]  # a == b (a doubling) is drawn too
        assert add_each(lefts, rights) == [p + q for p, q in zip(lefts, rights)]

    def test_add_each_never_returns_a_wrong_point(self):
        """Equal x-coordinates and infinities, alone and beside ordinary
        lanes.  No reduced scalar reaches the inverse-points branch through
        a comb, so it is driven here."""
        infinity = ECPoint(None, None)
        p, q, r = G * 5, G * 11, G * 23
        lanes = [
            (p, q),
            (p, p),  # the tangent
            (p, -p),  # inverse points: the zero denominator
            (infinity, q),
            (p, infinity),
            (infinity, infinity),
            (q, r),
        ]
        for picked in (lanes, lanes[:2], lanes[2:3], lanes[:1] + lanes[3:], lanes[3:6], [(r, r)] * 3):
            lefts, rights = zip(*picked)
            assert add_each(lefts, rights) == [a + b for a, b in picked]
        assert add_each([], []) == []

    @given(scalars=st.lists(st.integers(0, (1 << 256) - 1), min_size=0, max_size=64))
    @settings(max_examples=10, deadline=None)
    def test_batch_is_naive_mult_lane_for_lane(self, scalars):
        assert generator_mult_each(scalars) == [naive_mult(G, s) for s in scalars]

    def test_a_device_sized_batch(self):
        """Against ``naive_mult`` and against the one-table lock step the
        hot-path bench times it against."""
        rng = random.Random(185)
        scalars = [rng.randrange(1, N) for _ in range(185)]
        products = generator_mult_each(scalars)
        assert products == [naive_mult(G, s) for s in scalars]
        one_table = jacobian_comb_fill(G.x, G.y)
        assert one_table_generator_mult_each(scalars, one_table) == products

    def test_edge_lanes_in_one_batch(self, monkeypatch):
        """Zero and the order (lanes of infinities), scalars whose unsigned
        reading had empty leading or middle columns or one column only (a
        signed comb adds an entry at every column), the signed recoding's
        edges, duplicates — with enough ordinary lanes beside them that the
        batch runs in lock step."""
        rng = random.Random(29)
        twice = rng.randrange(1, N)
        scalars = [
            0, 1, 2, N - 1, N, N + 1, 1 << 29, (1 << 256) - 1,
            (1 << 256) - 1 - N,  # the same scalar, reduced
            sum(1 << (29 * tooth) for tooth in range(9)),  # the 9-tooth comb's last column only
            0x1EADBEEF << 87,  # one tooth
            (1 << 232) - 1,  # the 9-tooth comb's top tooth empty
            (1 << 234) - 1,  # the 10-tooth comb's top tooth empty
            twice, twice, *COMB_EDGE_SCALARS,
        ] + [rng.randrange(1, N) for _ in range(8)]
        assert len(scalars) >= 2 * ec_module._LOCKSTEP_MIN_LANES
        G._comb_table()
        # A zero lane adds infinities, so no batch meets inverse points and
        # falls back to the Jacobian formulas.
        monkeypatch.setattr(ec_module, "_jac_add", None)
        products = generator_mult_each(scalars)
        monkeypatch.undo()
        assert products == [naive_mult(G, s) for s in scalars]
        assert products[0].is_infinity and products[4].is_infinity

    @pytest.mark.parametrize("lanes", [ec_module._LOCKSTEP_MIN_LANES - 1, ec_module._LOCKSTEP_MIN_LANES])
    def test_both_sides_of_the_crossover(self, lanes):
        """One batch just below ``_LOCKSTEP_MIN_LANES`` (the per-scalar
        chain) and one at it (the lock step), edge lanes in both, equal the
        per-scalar chain lane for lane."""
        rng = random.Random(lanes)
        scalars = [0, 1, N - 1, N - 2, 1 << 255] + [rng.randrange(1, N) for _ in range(lanes - 5)]
        chains = [ECPoint._from_jac(G._mult_jac(s)) for s in scalars]
        assert generator_mult_each(scalars) == chains == [naive_mult(G, s) for s in scalars]

    def test_short_batches_loop_the_single_scalar_chain(self, monkeypatch):
        G._comb_table()
        monkeypatch.setattr(ec_module, "_add_each", None)  # not reached
        scalars = list(range(ec_module._LOCKSTEP_MIN_LANES - 1))
        assert generator_mult_each(scalars) == [G * s for s in scalars]

    def test_metering_is_one_mult_per_scalar(self):
        for lanes in (0, 3, 40):
            with metered() as meter:
                generator_mult_each(list(range(1, lanes + 1)))
            assert meter.counts["ec_mult"] == lanes and set(meter.counts) <= {"ec_mult"}

    # BloomFilterEncryption.keygen(for_punctures(32, 4), store, Random(7)) on
    # the tree before keygen rode the lock step (PR 23): m = 185 slots.
    PARENT_COMMITMENT = "43e2a5c5f29829369ad3b66497f3a8e1c8f88b635231c0d66e3ac9fb391573f8"
    PARENT_SLOT_KEYS_SHA256 = "66a63800a04fb4dc52d0405c5573bc7e4b78cd1c6a120104d3adedb8bb4d7e95"

    def test_keygen_yields_the_parents_key(self):
        from repro.crypto.bfe import BloomFilterEncryption
        from repro.crypto.bloom import BloomParams

        params = BloomParams.for_punctures(32, failure_exponent=4)
        with metered() as meter:
            public, secret = BloomFilterEncryption.keygen(
                params, InMemoryBlockStore(), random.Random(7)
            )
        assert meter.counts["ec_mult"] == params.num_slots == 185
        assert public.commitment.hex() == self.PARENT_COMMITMENT
        slot_keys = b"".join(key.to_bytes() for key in public.slot_pubkeys)
        assert hashlib.sha256(slot_keys).hexdigest() == self.PARENT_SLOT_KEYS_SHA256
        for slot, key in enumerate(public.slot_pubkeys):
            assert naive_mult(G, int.from_bytes(secret.tree.read(slot), "big")) == key


class TestNothingKeyedByAScalarOutlivesItsCall:
    """``TestForwardSecrecy`` for the curve: tables are multiples of the
    public point only, and recoded digits die with the call."""

    def test_ephemeral_times_secret_leaves_no_trace(self):
        from test_symmetric_fastpath import _reachable_values

        rng = random.Random(0x5EC)
        secret, other = rng.randrange(1, N), rng.randrange(1, N)
        ephemeral_key = rng.randrange(1, N)
        ephemeral = G * ephemeral_key  # a key nothing provisioned
        proof = SchnorrMultiSig.prove_possession(0, ECKeyPair(ephemeral_key, ephemeral))
        twin, third = (ECPoint(ephemeral.x, ephemeral.y) for _ in range(2))
        key = summed_key(G * rng.randrange(1, N))
        slot = G * rng.randrange(1, N)  # no comb yet: it is built under the secret
        assert slot._comb is None
        ephemeral_before = [getattr(ephemeral, name) for name in ECPoint.__slots__]
        gc.collect()
        module_before = _reachable_values(vars(ec_module))

        shared = ephemeral * secret
        twin * other
        (each,) = mult_each([third], secret)
        (slot_shared,) = mult_each([slot], secret)
        summed = multi_mult([(secret, G), (secret, key), (secret, slot)])
        one_off_sum = multi_mult([(secret, ephemeral), (other, G)])
        assert SchnorrMultiSig.verify_possession(0, ephemeral, proof)
        assert each == shared

        # The only state a multiply leaves is a slot key's comb, and it is
        # the same comb whatever the scalar was — the one built during a
        # multiply by the secret included.  ``P * s``, a Straus sum and a
        # verification leave every slot of a comb-less point as it was.
        assert [getattr(ephemeral, name) for name in ECPoint.__slots__] == ephemeral_before
        assert twin._comb is None
        for point in (third, slot):
            assert ec_module._build_comb([(point.x, point.y)], 1, SLOT_TEETH) == [point._comb]
            assert len(point._comb[0]) == 1 << (SLOT_TEETH - 1)  # the signed 2^(t−1)-entry comb
        # The aggregate key's signed comb holds the sums it was built with:
        # the negated entries a multiply reads are made in the call, not stored.
        assert ec_module._build_comb([(key.x, key.y)], 1, SLOT_TEETH) == [key._comb]
        # So does the generator's, which every multiply above read.
        assert ec_module._build_comb([(G.x, G.y)], GENERATOR_TABLES, TEETH) == [G._comb]
        gc.collect()
        assert _reachable_values(vars(ec_module)) == module_before
        derived = {
            secret, shared.x, shared.y, summed.x, summed.y, slot_shared.x, slot_shared.y,
            one_off_sum.x, one_off_sum.y,
        }
        for point in (ephemeral, third, key, slot, G):
            assert not derived & _reachable_values([point._comb])

    def test_a_lock_step_batch_leaves_no_trace(self):
        from test_symmetric_fastpath import _reachable_values

        rng = random.Random(0x10C5)
        secrets_list = [rng.randrange(1, N) for _ in range(2 * ec_module._LOCKSTEP_MIN_LANES)]
        G._comb_table()
        gc.collect()
        module_before = _reachable_values(vars(ec_module))
        table_before = list(G._comb)

        generator_mult_each(secrets_list)

        # The module graph holds the generator and its comb: nothing was
        # added to it, and the table is the one that was there.
        gc.collect()
        assert _reachable_values(vars(ec_module)) == module_before
        assert G._comb == table_before


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


class TestBatchVerify:
    """The reference quorum list (``tests/reference_ecdsa.py``): a textbook
    ECDSA on the library's chain and batch normalization must be the
    verifier it was — batched, early-aborting, and metered as the
    sequential loop."""

    @pytest.fixture(scope="class")
    def signed(self):
        keypairs = [SchnorrMultiSig.keygen(random.Random(seed)) for seed in range(6)]
        message = b"epoch transition"
        sigs = [ecdsa_sign(kp.secret, message) for kp in keypairs]
        return [kp.public for kp in keypairs], message, sigs

    def test_batch_matches_sequential(self, signed):
        publics, message, sigs = signed
        items = [(pk, message, sig) for pk, sig in zip(publics, sigs)]
        # Corrupt a couple of entries in characteristic ways.
        items[2] = (publics[2], b"wrong message", sigs[2])
        items[4] = (publics[4], message, (0, 1))  # out-of-range r
        sequential = [ecdsa_verify(*item) for item in items]
        assert reference_ecdsa._verify_chunk(items) == sequential
        assert sequential == [True, True, False, True, False, True]

    def test_verify_aggregate_accepts_and_rejects(self, signed):
        publics, message, sigs = signed
        assert verify_quorum_list(publics, message, tuple(sigs))
        bad = tuple([sigs[1]] + sigs[1:])  # first sig swapped
        assert not verify_quorum_list(publics, message, bad)
        assert not verify_quorum_list(publics[:-1], message, tuple(sigs))

    def test_infinity_public_key_rejected_not_crashed(self, signed):
        """An identity point as a signer key lands on the returns-False
        path of the reference list (the certificate check's case is
        ``TestSchnorrVerify``'s)."""
        publics, message, sigs = signed
        infinity = ECPoint(None, None)
        assert not ecdsa_verify(infinity, message, sigs[0])
        assert reference_ecdsa._verify_chunk([(infinity, message, sigs[0])]) == [False]
        assert not verify_quorum_list([infinity] + publics[1:], message, tuple(sigs))

    def test_verify_all_short_circuits_computation(self, signed):
        """ecdsa_verify_all must stop at the first failing chunk: a bad
        list costs one chunk of work, not all N verifications."""
        publics, message, sigs = signed
        items = [(pk, message, sig) for pk, sig in zip(publics, sigs)]
        assert ecdsa_verify_all(items)
        assert not ecdsa_verify_all([(publics[0], b"bad", sigs[0])] + items)
        calls = []
        original = reference_ecdsa._verify_chunk

        def counting(chunk):
            calls.append(len(chunk))
            return original(chunk)

        reference_ecdsa._verify_chunk = counting
        try:
            many = [(publics[0], b"wrong", sigs[0])] + items * 4
            assert not ecdsa_verify_all(many)
        finally:
            reference_ecdsa._verify_chunk = original
        assert sum(calls) <= VERIFY_CHUNK  # only the first chunk ran

    @pytest.mark.parametrize("position", range(VERIFY_CHUNK))
    def test_bad_signature_at_each_position_of_a_chunk(self, signed, position):
        """The chunk's ``s`` values are inverted together; whatever sits at
        whichever position, verdicts and ``ecdsa_verify`` counts are the
        sequential short-circuiting loop's."""
        publics, message, sigs = signed
        count = VERIFY_CHUNK + 2  # one full chunk and a partial one
        good = [
            (publics[i % len(publics)], message, sigs[i % len(sigs)])
            for i in range(count)
        ]
        r, s = good[position][2]
        spoiled = {
            "malformed": (r, str(s)),
            "short": (r,),
            "out of range": (r, N),
            "zero": (r, 0),
            "wrong": (r, s ^ 1),
        }
        for label, signature in spoiled.items():
            items = list(good)
            items[position] = (good[position][0], message, signature)
            sequential = [ecdsa_verify(*item) for item in items]
            assert sequential == [i != position for i in range(count)], label
            assert reference_ecdsa._verify_chunk(items) == sequential, label
            with metered() as all_meter:
                assert not ecdsa_verify_all(items), label
            assert all_meter.counts["ecdsa_verify"] == position + 1, label

    def test_aggregate_metering_matches_short_circuit(self, signed):
        """The reference list meters one ecdsa_verify per signature up to
        and including the first failure (the certificate check meters one:
        ``TestSchnorrVerify::test_a_check_meters_one_verification``)."""
        publics, message, sigs = signed
        with metered() as meter:
            verify_quorum_list(publics, message, tuple(sigs))
        assert meter.counts["ecdsa_verify"] == len(sigs)
        bad = tuple(sigs[:3] + [(1, 1)] + sigs[4:])
        with metered() as meter:
            verify_quorum_list(publics, message, bad)
        assert meter.counts["ecdsa_verify"] == 4  # stops at first bad signature


class TestSchnorrVerify:
    """``P256.schnorr_verify`` checks one key: an aggregate key on its
    6-tooth comb, a signer key (a proof of possession, one signer's share)
    on a ladder.  Either way a check is one ``ecdsa_verify``."""

    def test_one_key_and_no_signer_comb(self):
        """No ECDSA is left in the library, the verification entry takes
        one key, and nothing gives a signer key a comb."""
        assert not any(name.startswith("ecdsa") for name in dir(P256))
        assert "count_ops" not in inspect.signature(multi_mult).parameters
        assert list(inspect.signature(P256.schnorr_verify).parameters) == [
            "public", "challenge", "nonce", "s",
        ]
        assert not hasattr(ECPoint, "precompute")
        assert not hasattr(SchnorrMultiSig, "precompute_signer_key")

    def test_a_share_check_on_a_ladder_matches_it_on_a_comb(self):
        """One signer's share, and a proof of possession, checked against
        the bare key (a ladder) and against the same key combed: the same
        verdicts, good or spoiled, and the bare key builds no comb."""
        keypairs = [SchnorrMultiSig.keygen(random.Random(seed)) for seed in range(3)]
        sessions = [SchnorrMultiSig.nonce(random.Random(10 + seed)) for seed in range(3)]
        key = SchnorrMultiSig.aggregate_key(range(3), [kp.public for kp in keypairs])
        nonce = point_sum([point for _, point in sessions])
        challenge = SchnorrMultiSig.challenge(key, nonce, b"epoch transition")
        for kp, (secret, point) in zip(keypairs, sessions):
            share = SchnorrMultiSig.sign(kp.secret, secret, challenge)
            bare = ECPoint(kp.public.x, kp.public.y)
            for s, good in ((share, True), (share ^ 1, False), (0, False), (N, False), (str(share), False)):
                verdicts = {
                    P256.schnorr_verify(public, challenge, point, s)
                    for public in (bare, summed_key(kp.public))
                }
                assert verdicts == {good}
            proof = SchnorrMultiSig.prove_possession(4, kp)
            assert SchnorrMultiSig.verify_possession(4, bare, proof)
            assert not SchnorrMultiSig.verify_possession(5, bare, proof)
            assert bare._comb is None

    def test_infinity_public_key_rejected_not_crashed(self):
        """An identity point as a signer key lands on the returns-False
        path, in the certificate check and in the per-key oracle alike."""
        message = b"epoch transition"
        infinity = ECPoint(None, None)
        keypairs = [SchnorrMultiSig.keygen(random.Random(seed)) for seed in range(3)]
        cert = certificate(keypairs, message)
        keys = [kp.public for kp in keypairs]

        def key(publics):
            return SchnorrMultiSig.aggregate_key(range(len(publics)), publics)

        assert SchnorrMultiSig.verify_aggregate(key(keys), message, cert)
        assert not SchnorrMultiSig.verify_aggregate(key([infinity] + keys[1:]), message, cert)
        # The sum ignores an identity term, so the key itself must refuse it.
        assert not SchnorrMultiSig.verify_aggregate(key(keys + [infinity]), message, cert)
        assert not per_key_check(keys + [infinity], message, cert)
        assert not P256.schnorr_verify(infinity, 5, *cert)

    def test_a_check_meters_one_verification(self):
        """The certificate check meters one ``ecdsa_verify``, whatever the
        signer count and whether or not it holds; so does a signer key's."""
        message = b"epoch transition"
        keypairs = [SchnorrMultiSig.keygen(random.Random(seed)) for seed in range(6)]
        nonce, s = certificate(keypairs, message)
        key = SchnorrMultiSig.aggregate_key(range(6), [kp.public for kp in keypairs])
        for good in (True, False):
            with metered() as meter:
                assert SchnorrMultiSig.verify_aggregate(
                    key, message, (nonce, s if good else s ^ 1)
                ) == good
            assert meter.counts["ecdsa_verify"] == 1
        proof = SchnorrMultiSig.prove_possession(0, keypairs[0])
        with metered() as meter:
            assert SchnorrMultiSig.verify_possession(0, keypairs[0].public, proof)
        assert meter.counts["ecdsa_verify"] == 1


class TestMeteringInvariance:
    METERED_OPS = ("ec_mult", "ecdsa_verify", "sha256_block", "io_bytes")
    # Captured by running this exact workload on the pre-fast-path seed
    # implementation (PR 2 tree).  The acceleration layer must not move any
    # of these: it changes wall-clock, not the paper's cost model.
    # Re-captured at PR 19 (was ec_mult 339, sha256_block 2585): the client
    # asks each distinct cluster HSM once and opens t replies.  This seeded
    # cluster is (0, 0, 2): the second request to HSM 0 — hashing the tag to
    # its slots and walking their key-tree paths, only to answer
    # PuncturedKeyError — is not sent, and with t = 1 the second of the two
    # replies is not opened (the one ec_mult).  No multiply got cheaper and
    # ecdsa_verify did not move.
    # Re-derived when certificates shrank to a quorum (was ecdsa_verify 72,
    # sha256_block 2554): the workload's 2 epochs each fan a 5-of-6
    # aggregate (q = 0.75) out to 6 acceptors instead of a 6-of-6 one, so
    # 12 verifications go, each 1 ecdsa_verify + 1 sha256_block (the
    # message hash); and verify_extension hashes each of the 24 audited
    # insertions' identifiers once, not twice (24 sha256_block).
    # Re-derived when certificates became one Schnorr multisignature (was
    # ec_mult 338, ecdsa_verify 60, sha256_block 2518).  ec_mult +6: each
    # of the 6 keys' proof of possession is one k·G (a Schnorr nonce costs
    # the k·G an ECDSA signature did).  ecdsa_verify 18: 2 epochs x 6
    # acceptors x 1 check, plus the fleet's 6 possession checks.
    # sha256_block +80: -84 for ECDSA (12 signatures x 2 blocks, 60
    # verifications x 1), +24 for the proofs (6 nonce derivations x 2
    # blocks, 12 challenges x 2), +62 for nonce commitments (12 commits,
    # 2 epochs x 5 signers x 5 openings) and +66 for certificate
    # challenges (3 blocks x 11 computations an epoch: 5 signers, 6
    # acceptors).
    # Re-derived when the lane began checking each certificate before
    # committing it (was ecdsa_verify 18, sha256_block 2598): one check an
    # epoch on this thread, 1 ecdsa_verify plus 6 sha256_block (a 3-block
    # transition message and a 3-block challenge), over the 2 epochs.
    # Re-derived when a recovery ciphertext stopped carrying its one-time
    # nonces and fixed fields' lengths (was sha256_block 2610): −5 in
    # ``ciphertext_hash``, now SHA-256 over the 943-byte encoding (16
    # blocks) instead of over its label and 27 length-prefixed parts (21);
    # −6 in the recovery-key backup's ``slots_for_tag``.  That backup draws
    # its salt after the first backup's 16 dropped nonces, so its series
    # tag is another, and the rejection sampler needs 2 blocks fewer to
    # find the tag's 4 distinct slots, once for each of 3 share
    # ciphertexts.  No multiply or check moved.
    # Re-derived when a recovery ciphertext's shares stopped carrying their
    # series tag, kind byte and point length (was sha256_block 2599): −2 in
    # ``ciphertext_hash``, SHA-256 over an encoding 111 bytes shorter (832
    # against 943: 14 blocks, not 16).  The reply's dropped nonce draw moves
    # nothing here: a copy that draws and discards it counts the same.
    # Re-derived when a share's k wraps became KEM masks (was sha256_block
    # 2597): +6 a BFE encryption or decryption for the payload key's KDF
    # (over K, the tag, the ephemeral and 4 wraps: 4 blocks, 2 to expand),
    # over 6 encryptions (the backup's 3 shares and the recovery-key
    # backup's 3) and 2 decryptions, and −3 in ``ciphertext_hash`` over an
    # encoding 192 bytes shorter (640 against 832: 11 blocks, not 14).
    # Re-derived when a recovery ciphertext's n shares came to share one
    # ephemeral (was ec_mult 344, sha256_block 2642): ec_mult −4, one
    # ``g^r`` instead of n = 3 in each of the 2 LHE encryptions (the backup
    # and the recovery-key backup); sha256_block −1 in ``ciphertext_hash``,
    # over an encoding 66 bytes shorter (574 against 640: 10 blocks, not
    # 11).  The slot-mask KDF's 2-byte position keeps it at 2 blocks (124
    # bytes hashed, not 114).  The one ``r`` drawn where n were moves no
    # count: a copy that draws and discards the other two counts the same.
    # Re-derived when a share's plaintext became the 19-byte share, its
    # owner bound as associated data (was sha256_block 2641): −2 in
    # ``ciphertext_hash``, over an encoding 120 bytes shorter (454 against
    # 574: 3 × (2 + 21 + 36 − 19) for this 21-character username; 8 blocks,
    # not 10).  At t = 1 the sharer draws nothing, so the stream is the
    # parent's.
    # Re-derived when lengths, counts and header integers became varints
    # (was sha256_block 2639): −1 in ``ciphertext_hash``, over an encoding
    # 36 bytes shorter (418 against 454: the username's length, the three
    # header integers, the share count, 3 shares' wrap counts and payload
    # lengths and the payload's length, 3 bytes each; 448 bytes hashed with
    # the label and both parts' 8-byte lengths, 7 blocks, not 8).  Nothing
    # draws differently, and no multiply or check moved.
    # Re-derived when the client began drawing from its own stream, as
    # key-tree nodes stopped drawing a 12-byte nonce (was sha256_block
    # 2638).  With one stream a keygen's draw count picked the backups'
    # salts and series tags.  Under the split the backup's cluster is
    # (2, 0, 2), two distinct devices as (0, 0, 2) was, and the rejection
    # sampler in ``slots_for_tag`` needs 14 blocks fewer (34 → 20) for the
    # new tags; the parent's code counts 340 / 20 / 2624 under the split
    # too.  ``io_bytes`` is pinned with it: the parent's code moves 65760
    # bytes, and every one of the 920 nodes billed here (794 puts, 34 gets,
    # 92 modeled walk and delete nodes) is 12 bytes shorter without its
    # nonce, −11040.
    SEED_COUNTS = {"ec_mult": 340, "ecdsa_verify": 20, "sha256_block": 2624, "io_bytes": 54720}

    def run_fixed_workload(self):
        """One seeded backup+recovery; all randomness from seeded PRNGs so
        the operation trace is a pure function of the code, not the run.
        Provisioning and the client draw from two streams, so how much a
        keygen draws cannot pick the backups' salts."""

        def draw_from(stream):
            secrets.token_bytes = lambda n=32: stream.getrandbits(8 * n).to_bytes(n, "big")
            secrets.randbelow = lambda bound: stream.randrange(bound)

        originals = (secrets.token_bytes, secrets.randbelow)
        try:
            meter = OpMeter()
            with meter.attached():
                draw_from(random.Random(0xC0FFEE))
                params = SystemParams.for_testing(num_hsms=6, cluster_size=3)
                deployment = Deployment.create(params, rng=random.Random(7))
                draw_from(random.Random(0xC0FFEF))
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
            _ = point * 54321      # window-ladder path
            _ = naive_mult(point, 99)  # baseline path
        assert meter.counts["ec_mult"] == 3
