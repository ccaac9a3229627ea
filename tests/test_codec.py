"""The codec layer: every primitive and combinator round-trips, and every
decoder keeps the strictness contract ``repro.core.codec`` states once —
malformed bytes raise :class:`WireFormatError` and nothing else.

Also here, because they are properties of codecs composed in
``core/wire.py``: a decrypt-share request has exactly one byte string (no
nested blob tolerates appended bytes), and a Merkle path that runs off its
input is a wire error, not an ``IndexError``.
"""

from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import wire
from repro.core.codec import (
    BLOB, I32, TEXT, U8, U32, U64, Reader, WireFormatError,
    converted, mapping, nested, optional, prefixed, record, seq, tagged, tuple_of, union,
)
from test_wire_properties import decrypt_requests, sharded_proofs

_SETTINGS = dict(max_examples=40, deadline=None)

blobs = st.binary(max_size=24)
u32s = st.integers(min_value=0, max_value=(1 << 32) - 1)


@dataclass(frozen=True)
class Pair:
    """A constructor that rejects some field values, as the crypto types do."""

    left: int
    right: bytes

    def __post_init__(self):
        if self.left == 13:
            raise ValueError("unlucky left")


#: (name, codec, strategy generating its values)
CODECS = [
    ("U8", U8, st.integers(0, 255)),
    ("U32", U32, u32s),
    ("I32", I32, st.integers(-(1 << 31), (1 << 31) - 1)),
    ("U64", U64, st.integers(0, (1 << 64) - 1)),
    ("BLOB", BLOB, blobs),
    ("TEXT", TEXT, st.text(max_size=12)),
    ("seq", seq(U32), st.lists(u32s, max_size=5)),
    ("seq-tuple", seq(BLOB, tuple), st.lists(blobs, max_size=5).map(tuple)),
    ("optional", optional(BLOB), st.none() | blobs),
    ("nested", nested(tuple_of(U8, BLOB)), st.tuples(st.integers(0, 255), blobs)),
    ("converted", converted(TEXT, str, int), st.integers(-999, 999)),
    ("tuple_of", tuple_of(U32, TEXT, BLOB), st.tuples(u32s, st.text(max_size=8), blobs)),
    ("mapping", mapping(TEXT, seq(U8)),
     st.dictionaries(st.text(max_size=6), st.lists(st.integers(0, 255), max_size=3), max_size=4)),
    ("mapping-tuple-key", mapping(tuple_of(TEXT, U32), BLOB),
     st.dictionaries(st.tuples(st.text(max_size=6), u32s), blobs, max_size=4)),
    ("record", record(Pair, left=U32, right=BLOB),
     st.builds(Pair, left=u32s.filter(lambda n: n != 13), right=blobs)),
    ("prefixed", prefixed(3, BLOB, "widget version"), blobs),
    ("tagged", tagged("case", {1: U32, 7: BLOB}),
     st.tuples(st.just(1), u32s) | st.tuples(st.just(7), blobs)),
    ("union", union("kind", (1, int, U32), (2, bytes, BLOB)), u32s | blobs),
]


@pytest.mark.parametrize("name, codec, values", CODECS, ids=[row[0] for row in CODECS])
class TestEveryCodec:
    @given(data=st.data())
    @settings(**_SETTINGS)
    def test_round_trip_and_strictness(self, name, codec, values, data):
        value = data.draw(values)
        encoded = codec.encode(value)
        assert codec.decode(encoded) == value
        for cut in range(len(encoded)):  # truncation at every cut
            with pytest.raises(WireFormatError):
                codec.decode(encoded[:cut])
        with pytest.raises(WireFormatError):  # one trailing byte
            codec.decode(encoded + b"\x00")

    @given(junk=st.binary(max_size=40))
    @settings(**_SETTINGS)
    def test_junk_is_canonical_or_a_wire_error(self, name, codec, values, junk):
        try:
            value = codec.decode(junk)
        except WireFormatError:
            return  # the only acceptable failure
        if name != "converted":  # this file's str/int example: int("07") == 7
            assert codec.encode(value) == junk


class TestPrimitives:
    @pytest.mark.parametrize(
        "codec, low, high",
        [(U8, 0, 255), (U32, 0, (1 << 32) - 1), (I32, -(1 << 31), (1 << 31) - 1),
         (U64, 0, (1 << 64) - 1)],
    )
    def test_integer_range_is_enforced_on_encode(self, codec, low, high):
        assert codec.decode(codec.encode(low)) == low
        assert codec.decode(codec.encode(high)) == high
        for outside in (low - 1, high + 1):
            with pytest.raises(WireFormatError, match="out of range"):
                codec.encode(outside)

    def test_fixed_layouts(self):
        assert U32.encode(1) == b"\x00\x00\x00\x01"
        assert I32.encode(-1) == b"\xff\xff\xff\xff"
        assert U64.encode(1 << 40) == b"\x00\x00\x01\x00\x00\x00\x00\x00"
        assert BLOB.encode(b"ab") == b"\x00\x00\x00\x02ab"
        assert TEXT.encode("é") == b"\x00\x00\x00\x02\xc3\xa9"

    def test_invalid_utf8_is_a_wire_error(self):
        with pytest.raises(WireFormatError, match="UTF-8"):
            TEXT.decode(b"\x00\x00\x00\x01\xff")


class TestCombinators:
    def test_seq_rejects_limit_plus_one(self):
        bounded = seq(U8, limit=3, what="widget")
        assert bounded.decode(bounded.encode([1, 2, 3])) == [1, 2, 3]
        with pytest.raises(WireFormatError, match="implausible widget count"):
            bounded.decode(U32.encode(4) + bytes(4))

    def test_seq_hostile_count_is_refused_before_reading(self):
        with pytest.raises(WireFormatError, match="implausible"):
            seq(BLOB, limit=4096).decode(b"\xff\xff\xff\xff")
        with pytest.raises(WireFormatError, match="truncated"):
            seq(BLOB).decode(b"\xff\xff\xff\xff")  # unbounded: runs out of input

    def test_optional_rejects_flag_two(self):
        maybe = optional(U8, "optional-widget")
        assert maybe.encode(None) == b"\x00" and maybe.encode(9) == b"\x01\x09"
        with pytest.raises(WireFormatError, match="bad optional-widget flag 2"):
            maybe.decode(b"\x02\x09")

    def test_prefixed_rejects_any_other_byte(self):
        versioned = prefixed(3, U8, "widget version")
        assert versioned.encode(9) == b"\x03\x09" and versioned.decode(b"\x03\x09") == 9
        with pytest.raises(WireFormatError, match="unsupported widget version 4"):
            versioned.decode(b"\x04\x09")

    def test_union_rejects_unknown_tag_and_unencodable_type(self):
        either = union("widget kind", (1, int, U32), (2, bytes, BLOB))
        assert either.encode(5)[0] == 1 and either.encode(b"x")[0] == 2
        with pytest.raises(WireFormatError, match="unknown widget kind 3"):
            either.decode(b"\x03" + U32.encode(5))
        with pytest.raises(WireFormatError, match="no widget kind for a str"):
            either.encode("five")

    def test_union_picks_the_first_matching_row(self):
        # bool is an int: row order decides, as isinstance chains do.
        either = union("kind", (1, bool, U8), (2, int, U32))
        assert either.encode(True) == b"\x01\x01"
        assert either.encode(7) == b"\x02" + U32.encode(7)

    def test_tagged_rejects_unknown_tag_both_ways(self):
        cases = tagged("status", {0: BLOB, 4: TEXT})
        assert cases.decode(cases.encode((4, "gone"))) == (4, "gone")
        with pytest.raises(WireFormatError, match="unknown status 9"):
            cases.encode((9, "x"))
        with pytest.raises(WireFormatError, match="unknown status 9"):
            cases.decode(b"\x09" + TEXT.encode("x"))

    def test_converted_turns_value_error_into_wire_error(self):
        number = converted(TEXT, str, int)
        assert number.decode(TEXT.encode("42")) == 42
        with pytest.raises(WireFormatError, match="invalid literal"):
            number.decode(TEXT.encode("forty-two"))

    def test_converted_does_not_mask_a_bug_in_its_helper(self):
        # Only ValueError is the sender's fault; wire._as_blob catches the
        # IndexError of a crypto parser running off untrusted bytes itself.
        first_byte = converted(BLOB, lambda n: bytes([n]), lambda data: data[0])
        assert first_byte.decode(BLOB.encode(b"\x07")) == 7
        with pytest.raises(IndexError):
            first_byte.decode(BLOB.encode(b""))

    def test_record_turns_constructor_value_error_into_wire_error(self):
        pair = record(Pair, left=U32, right=BLOB)
        assert pair.decode(pair.encode(Pair(1, b"r"))) == Pair(1, b"r")
        with pytest.raises(WireFormatError, match="unlucky left"):
            pair.decode(U32.encode(13) + BLOB.encode(b"r"))

    def test_record_encodes_fields_in_the_order_given(self):
        flipped = record(Pair, right=BLOB, left=U32)
        assert flipped.encode(Pair(1, b"r")) == BLOB.encode(b"r") + U32.encode(1)
        assert flipped.decode(flipped.encode(Pair(1, b"r"))) == Pair(1, b"r")

    def test_tuple_of_refuses_the_wrong_arity(self):
        with pytest.raises(WireFormatError, match="expected 2 fields, got 3"):
            tuple_of(U8, U8).encode((1, 2, 3))

    @given(items=st.dictionaries(st.text(max_size=6), u32s, max_size=6), seed=st.randoms())
    @settings(**_SETTINGS)
    def test_mapping_encodes_in_sorted_key_order(self, items, seed):
        table = mapping(TEXT, U32)
        keys = list(items)
        seed.shuffle(keys)
        shuffled = {key: items[key] for key in keys}
        assert list(shuffled) == keys  # insertion order really differs
        encoded = table.encode(shuffled)
        assert encoded == table.encode(items)
        assert encoded == U32.encode(len(items)) + b"".join(
            TEXT.encode(key) + U32.encode(items[key]) for key in sorted(items)
        )
        assert table.decode(encoded) == items

    def test_mapping_refuses_unsorted_and_repeated_keys(self):
        table = mapping(U8, U8)
        assert table.decode(b"\x00\x00\x00\x02\x01\x09\x02\x09") == {1: 9, 2: 9}
        for pairs in (b"\x02\x09\x01\x09", b"\x01\x09\x01\x08"):
            with pytest.raises(WireFormatError, match="sorted order"):
                table.decode(b"\x00\x00\x00\x02" + pairs)

    def test_primitive_reads_are_the_reader_methods(self):
        # The replay-speed finding the module docstring records.
        assert BLOB.read is Reader.blob and TEXT.read is Reader.text


class TestOneByteStringPerRequest:
    """``decode(b)`` succeeding means ``encode(decode(b)) == b`` — also for
    the blobs *inside* a decrypt-share request, whose own parsers
    (``CommitmentOpening.from_bytes``, ``MerkleProof.from_bytes``) do not
    check what follows the value."""

    @staticmethod
    def blobs_of(request):
        """The request frame's eight top-level blobs, in wire order."""
        blobs = [
            request.username.encode("utf-8"),
            request.log_identifier,
            request.commitment,
            request.opening.to_bytes(),
            wire.encode_inclusion_proof(request.inclusion_proof),
            wire.encode_bfe_ciphertext(request.share_ciphertext),
            request.context,
            request.response_key.to_bytes(),
        ]
        assert TestOneByteStringPerRequest.frame(blobs) == wire.encode_decrypt_request(request)
        return blobs

    @staticmethod
    def frame(blobs) -> bytes:
        return bytes([wire.WIRE_VERSION]) + b"".join(map(BLOB.encode, blobs))

    #: The blobs that hold a structured value (the others are opaque bytes:
    #: lengthening one makes a *different* valid request).
    STRUCTURED = {"opening": 3, "inclusion_proof": 4, "share_ciphertext": 5, "response_key": 7}

    @given(request=decrypt_requests())
    @settings(max_examples=10, deadline=None)
    def test_padded_opening_is_rejected(self, request):
        blobs = self.blobs_of(request)
        blobs[3] += b"xyz"
        with pytest.raises(WireFormatError, match="non-canonical"):
            wire.decode_decrypt_request(self.frame(blobs))

    @given(
        request=decrypt_requests(),
        which=st.sampled_from(sorted(STRUCTURED)),
        extra=st.binary(min_size=1, max_size=6),
    )
    @settings(**_SETTINGS)
    def test_lengthened_nested_blob_never_decodes(self, request, which, extra):
        blobs = self.blobs_of(request)
        blobs[self.STRUCTURED[which]] += extra
        with pytest.raises(WireFormatError):
            wire.decode_decrypt_request(self.frame(blobs))

    @given(request=decrypt_requests(), extra=st.binary(min_size=1, max_size=6))
    @settings(**_SETTINGS)
    def test_lengthened_blob_two_levels_down_never_decodes(self, request, extra):
        """The point inside the share ciphertext, and the Merkle path inside
        a sharded proof."""
        blobs = self.blobs_of(request)
        ct = request.share_ciphertext
        head = BLOB.encode(ct.tag) + BLOB.encode(ct.ephemeral.to_bytes())
        assert blobs[5].startswith(head)
        padded = list(blobs)
        padded[5] = (
            BLOB.encode(ct.tag) + BLOB.encode(ct.ephemeral.to_bytes() + extra)
            + blobs[5][len(head):]
        )
        with pytest.raises(WireFormatError):
            wire.decode_decrypt_request(self.frame(padded))
        proof = request.inclusion_proof
        assume(hasattr(proof, "shard_path"))
        plain = wire.encode_inclusion_proof(proof.inclusion)[1:]
        padded = list(blobs)
        padded[4] = (
            bytes([wire.PROOF_SHARDED]) + U32.encode(proof.shard) + U32.encode(proof.num_shards)
            + BLOB.encode(proof.shard_digest) + BLOB.encode(proof.shard_path.to_bytes() + extra)
            + plain
        )
        with pytest.raises(WireFormatError):
            wire.decode_decrypt_request(self.frame(padded))

    @given(proof=sharded_proofs())
    @settings(max_examples=10, deadline=None)
    def test_merkle_path_running_off_its_input_is_a_wire_error(self, proof):
        """``MerkleProof.from_bytes`` indexes past a truncated path: at the
        parent commit that ``IndexError`` escaped ``decode_inclusion_proof``."""
        path = proof.shard_path.to_bytes()
        claims_one_more = path[:8] + (len(proof.shard_path.path) + 1).to_bytes(4, "big") + path[12:]
        frame = (
            bytes([wire.PROOF_SHARDED]) + U32.encode(proof.shard) + U32.encode(proof.num_shards)
            + BLOB.encode(proof.shard_digest) + BLOB.encode(claims_one_more)
            + wire.encode_inclusion_proof(proof.inclusion)[1:]
        )
        with pytest.raises(WireFormatError):
            wire.decode_inclusion_proof(frame)
