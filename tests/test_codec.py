"""The codec layer: every primitive and combinator round-trips, and every
decoder keeps the strictness contract ``repro.core.codec`` states once —
malformed bytes raise :class:`WireFormatError` and nothing else.  So do the
crypto layouts built from them (``OPENING``, ``SHARE``,
``SHARE_OWNER``, the self-delimiting ``ec.POINT``), and the inclusion
proof a request carries nested.

Also here, because they are properties of codecs composed in
``core/wire.py``: a decrypt-share request has exactly one byte string (no
nested blob tolerates appended bytes), and an opening or an inclusion
proof that is padded, cut short, over-counted or (the proof) behind the
kind byte it no longer carries is a wire error on its own and inside a
request frame.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import wire
from repro.core.codec import (
    BLOB, I32, TEXT, TEXT16, U8, U16, U32, U64, U136, U256, Reader, WireFormatError,
    converted, fixed, mapping, nested, optional, prefixed, record, seq, tagged, tuple_of,
)
from repro.core.lhe import SHARE_OWNER
from repro.crypto.commit import OPENING, CommitmentOpening
from repro.crypto.ec import POINT, P256, ECPoint
from repro.crypto.shamir import SHARE, Share
from test_wire_properties import decrypt_requests, inclusion_proofs

_SETTINGS = dict(max_examples=40, deadline=None)

blobs = st.binary(max_size=24)
u32s = st.integers(min_value=0, max_value=(1 << 32) - 1)
digests = st.binary(min_size=32, max_size=32)
shares = st.builds(Share, x=st.integers(0, (1 << 16) - 1), y=st.integers(0, (1 << 136) - 1))


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
    ("U16", U16, st.integers(0, (1 << 16) - 1)),
    ("U136", U136, st.integers(0, (1 << 136) - 1)),
    ("U256", U256, st.integers(0, (1 << 256) - 1)),
    ("TEXT16", TEXT16, st.text(max_size=12)),
    ("fixed", fixed(3), st.binary(min_size=3, max_size=3)),
    ("seq-u16-count", seq(U8, count=U16), st.lists(st.integers(0, 255), max_size=5)),
    # The crypto layouts.
    ("OPENING", OPENING, st.builds(
        CommitmentOpening, username=st.text(max_size=12),
        cluster=st.lists(u32s, max_size=5).map(tuple), ciphertext_hash=digests, randomness=digests,
    )),
    ("SHARE", SHARE, shares),
    ("SHARE_OWNER", SHARE_OWNER, st.tuples(st.text(max_size=12), blobs)),
    ("POINT", POINT, st.sampled_from([ECPoint(None, None), P256.generator, P256.generator * 3])),
    # The one inclusion-proof layout, at every arity.
    ("INCLUSION_PROOF", wire.INCLUSION_PROOF, inclusion_proofs),
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
         (U64, 0, (1 << 64) - 1), (U16, 0, (1 << 16) - 1), (U136, 0, (1 << 136) - 1),
         (U256, 0, (1 << 256) - 1)],
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
        assert U16.encode(1) == b"\x00\x01"
        assert U136.encode(1) == bytes(16) + b"\x01"
        assert U256.encode(1) == bytes(31) + b"\x01"
        assert TEXT16.encode("é") == b"\x00\x02\xc3\xa9"
        assert fixed(2).encode(b"ab") == b"ab"
        assert seq(U8, count=U16).encode([7]) == b"\x00\x01\x07"

    def test_fixed_refuses_another_length(self):
        with pytest.raises(WireFormatError, match="digest must be 2 bytes, got 3"):
            fixed(2, "digest").encode(b"abc")

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
        # Only ValueError is the sender's fault.  Every layout reads its
        # input through a Reader, which raises WireFormatError when it runs
        # out, so anything else escaping a helper is a bug and surfaces.
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
    the blobs *inside* a decrypt-share request: each is one whole message
    of its layout's codec (``nested``), so bytes after it are refused."""

    @staticmethod
    def blobs_of(request):
        """The request frame's seven top-level blobs and its response key
        (a point, which delimits itself), in wire order."""
        blobs = [
            request.username.encode("utf-8"),
            request.log_identifier,
            request.commitment,
            OPENING.encode(request.opening),
            wire.encode_inclusion_proof(request.inclusion_proof),
            wire.encode_bfe_ciphertext(request.share_ciphertext),
            request.context,
            request.response_key.to_bytes(),
        ]
        assert TestOneByteStringPerRequest.frame(blobs) == wire.encode_decrypt_request(request)
        return blobs

    @staticmethod
    def frame(blobs) -> bytes:
        *nested_blobs, response_key = blobs
        return bytes([wire.WIRE_VERSION]) + b"".join(map(BLOB.encode, nested_blobs)) + response_key

    #: The blobs that hold a structured value (the others are opaque bytes:
    #: lengthening one makes a *different* valid request).
    STRUCTURED = {"opening": 3, "inclusion_proof": 4, "share_ciphertext": 5, "response_key": 7}

    @given(request=decrypt_requests())
    @settings(max_examples=10, deadline=None)
    def test_padded_opening_is_rejected(self, request):
        blobs = self.blobs_of(request)
        blobs[3] += b"xyz"
        with pytest.raises(WireFormatError, match="3 trailing bytes"):
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

    @given(request=decrypt_requests(), prefix=st.integers(0, 255).filter(lambda b: b not in (0, 2, 3)))
    @settings(**_SETTINGS)
    def test_bad_point_prefix_two_levels_down_never_decodes(self, request, prefix):
        """The point inside the share ciphertext (after its fixed tag) has
        no length: its prefix byte says how long it is, and a prefix no
        point has is refused."""
        blobs = self.blobs_of(request)
        ct = request.share_ciphertext
        assert blobs[5].startswith(ct.tag + ct.ephemeral.to_bytes())
        mangled = list(blobs)
        mangled[5] = ct.tag + bytes([prefix]) + blobs[5][len(ct.tag) + 1:]
        with pytest.raises(WireFormatError, match=f"unknown point prefix {prefix}"):
            wire.decode_decrypt_request(self.frame(mangled))


def over_counted_opening(data: bytes) -> bytes:
    """An opening encoding whose cluster count (after the username) claims
    one index more."""
    at = 2 + U16.decode(data[:2])
    return data[:at] + U16.encode(U16.decode(data[at:at + 2]) + 1) + data[at + 2:]


#: Ways to break an encoding its encoder never writes (a trailing byte is
#: ``TestOneByteStringPerRequest``'s case).
OPENING_MANGLES = {"cut short": lambda data: data[:-1], "over-long count": over_counted_opening}
PROOF_MANGLES = {
    "cut short": lambda data: data[:-1],
    # the step count, the proof's first field
    "over-long count": lambda data: U32.encode(U32.decode(data[:4]) + 1) + data[4:],
    # the kind byte an older sender wrote in front of the proof
    "kind byte in front": lambda data: b"\x01" + data,
}


class TestCryptoLayoutsAreStrict:
    """Each crypto layout, and the inclusion proof, refuses bytes its
    encoder never writes, on its own and inside a decrypt-share request
    frame.  The opening and the proof travel in the frame in the clear; a
    share travels encrypted, so the device refuses a malformed one
    (``test_hsm_device.TestMalformedSharePlaintext``), and its owner is
    associated data the device builds, never sent.  Truncation at every
    cut and a trailing byte, standalone, are ``TestEveryCodec`` rows."""

    @pytest.mark.parametrize("mangle", sorted(OPENING_MANGLES))
    @given(request=decrypt_requests())
    @settings(max_examples=10, deadline=None)
    def test_mangled_opening_is_refused(self, mangle, request):
        mangled = OPENING_MANGLES[mangle](OPENING.encode(request.opening))
        with pytest.raises(WireFormatError):
            OPENING.decode(mangled)
        blobs = TestOneByteStringPerRequest.blobs_of(request)
        blobs[3] = mangled
        with pytest.raises(WireFormatError):
            wire.decode_decrypt_request(TestOneByteStringPerRequest.frame(blobs))

    @pytest.mark.parametrize("mangle", sorted(PROOF_MANGLES))
    @given(request=decrypt_requests())
    @settings(max_examples=10, deadline=None)
    def test_mangled_inclusion_proof_is_refused(self, mangle, request):
        mangled = PROOF_MANGLES[mangle](wire.encode_inclusion_proof(request.inclusion_proof))
        with pytest.raises(WireFormatError):
            wire.decode_inclusion_proof(mangled)
        blobs = TestOneByteStringPerRequest.blobs_of(request)
        blobs[4] = mangled
        with pytest.raises(WireFormatError):
            wire.decode_decrypt_request(TestOneByteStringPerRequest.frame(blobs))

    @given(username=st.text(max_size=12), context=blobs)
    @settings(**_SETTINGS)
    def test_over_long_username_length_is_refused(self, username, context):
        data = SHARE_OWNER.encode((username, context))
        with pytest.raises(WireFormatError):
            SHARE_OWNER.decode(U16.encode(U16.decode(data[:2]) + 1) + data[2:])


class TestPoint:
    """``ec.POINT`` is a point's SEC1 encoding with no length: the prefix
    byte says how many bytes follow."""

    def test_identity_is_one_byte_and_a_finite_point_33(self):
        identity, point = ECPoint(None, None), P256.generator * 5
        assert POINT.encode(identity) == b"\x00" and POINT.decode(b"\x00") == identity
        encoded = POINT.encode(point)
        assert len(encoded) == 33 and encoded[0] in (2, 3)
        assert POINT.decode(encoded) == point

    def test_any_other_prefix_is_refused(self):
        body = POINT.encode(P256.generator)[1:]
        for prefix in set(range(256)) - {0, 2, 3}:
            with pytest.raises(WireFormatError, match=f"unknown point prefix {prefix}"):
                POINT.decode(bytes([prefix]) + body)

    def test_truncation_and_an_off_curve_x_are_refused(self):
        encoded = POINT.encode(P256.generator * 7)
        for cut in range(len(encoded)):
            with pytest.raises(WireFormatError):
                POINT.decode(encoded[:cut])
        x = 0
        while True:  # the first x with no point on the curve
            x += 1
            try:
                ECPoint.from_bytes(b"\x02" + x.to_bytes(32, "big"))
            except ValueError:
                break
        with pytest.raises(WireFormatError, match="not on curve"):
            POINT.decode(b"\x02" + x.to_bytes(32, "big"))
