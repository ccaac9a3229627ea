"""Property-based wire-format tests: every message type round-trips, and
malformed bytes are rejected — never mis-decoded, never a foreign crash.

The service layer's Channel transport moves *all* client↔HSM traffic
through ``core/wire.py``, so these properties are load-bearing: a decoder
that crashes on junk is a DoS vector, and a non-canonical encoding would
let the untrusted provider present two byte strings for one message.

Canonicality property used throughout: if ``decode(b)`` succeeds then
``encode(decode(b)) == b`` — corrupt bytes either raise
:class:`WireFormatError` or decode to the object that re-encodes to
exactly those bytes (i.e. the corruption changed the message, never the
parse).

``TestCatalogs`` checks the tables those frames and the journal's records
are spelled in: ``wire.PROVIDER_OPS`` and ``journal.RECORD_CODECS``.
"""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import wire
from repro.core.codec import BLOB, VARINT
from repro.core.lhe import SALT_LEN, LheCiphertext, RecoveryHeader, series_tag
from repro.crypto.bfe import BFE_BODY, TAG_BYTES, WRAP_BYTES, BfeCiphertext
from repro.crypto.commit import commit_recovery
from repro.crypto.ec import P256, ECPoint
from repro.crypto.elgamal import ElGamalCiphertext
from repro.hsm.device import DecryptShareRequest
from repro.log.authdict import InclusionProof, PathStep, empty_digest
from repro.storage import journal

# Valid curve points are expensive to make; sample from a fixed pool.
_POINTS = tuple(P256.keygen(random.Random(seed)).public for seed in range(8))

points = st.sampled_from(_POINTS)
blobs = st.binary(max_size=48)
digests = st.binary(min_size=32, max_size=32)
#: The lengths the formats fix: a BFE wrap (a 16-byte masked key, no tag
#: or nonce) and a recovery ciphertext's salt.  A tag is a digest.
wraps = st.binary(min_size=WRAP_BYTES, max_size=WRAP_BYTES)
salts = st.binary(min_size=SALT_LEN, max_size=SALT_LEN)
u32s = st.integers(min_value=0, max_value=(1 << 32) - 1)
usernames = st.text(
    alphabet=st.characters(blacklist_characters="|", blacklist_categories=("Cs",)),
    max_size=16,
)

bfe_ciphertexts = st.builds(
    BfeCiphertext,
    tag=digests,
    ephemeral=points,
    position=st.integers(min_value=0, max_value=(1 << 16) - 1),
    wrapped_keys=st.lists(wraps, max_size=5).map(tuple),
    payload=blobs,
)

elgamal_ciphertexts = st.builds(ElGamalCiphertext, ephemeral=points, body=blobs)


@st.composite
def _recovery_ciphertexts(draw):
    """A recovery ciphertext whose shares carry the series tag of its drawn
    username and salt, one drawn ephemeral and their index as position: the
    one tag, ephemeral and positions the format can carry."""
    salt, username, ephemeral = draw(salts), draw(usernames), draw(points)
    shares = draw(st.lists(bfe_ciphertexts, min_size=1, max_size=4))
    tag = series_tag(username, salt)
    return LheCiphertext(
        salt=salt,
        username=username,
        share_ciphertexts=tuple(
            dataclasses.replace(share, tag=tag, ephemeral=ephemeral, position=position)
            for position, share in enumerate(shares)
        ),
        payload=draw(blobs),
        threshold=draw(u32s),
        num_hsms=draw(u32s),
        config_epoch=draw(u32s),
    )


recovery_ciphertexts = _recovery_ciphertexts()

#: ``fetch_backup``'s reply value: a header carries no username, ephemeral
#: or share, so any drawn fields are one it can carry.
recovery_headers = st.builds(
    RecoveryHeader, salt=salts, threshold=u32s, num_hsms=u32s, config_epoch=u32s,
    ciphertext_hash=digests, payload=blobs,
)

#: A subtree hash: the empty subtree's digest (one byte on the wire) or any other.
subtrees = st.just(empty_digest()) | digests
inclusion_proofs = st.builds(
    InclusionProof,
    steps=st.lists(
        st.builds(PathStep, idh=digests, value=blobs, other=subtrees), max_size=6
    ).map(tuple),
    left=subtrees,
    right=subtrees,
)


@st.composite
def decrypt_requests(draw):
    username = draw(usernames)
    cluster = tuple(draw(st.lists(st.integers(0, 1000), min_size=1, max_size=4)))
    _, opening = commit_recovery(username, cluster, draw(digests), draw(points))
    return DecryptShareRequest(
        attempt=draw(st.integers(0, 2**32 - 1)),
        opening=opening,
        inclusion_proof=draw(inclusion_proofs),
        share_ciphertext=draw(bfe_ciphertexts),
        context=draw(blobs),
    )


def _assert_rejects_mangling(encoded: bytes, decode) -> None:
    """Truncations always raise; mutations never mis-decode (see module
    docstring for the canonicality property)."""
    cuts = range(len(encoded)) if len(encoded) < 40 else range(0, len(encoded), 7)
    for cut in cuts:
        with pytest.raises(wire.WireFormatError):
            decode(encoded[:cut])
    with pytest.raises(wire.WireFormatError):
        decode(encoded + b"\x00")


_SETTINGS = dict(max_examples=30, deadline=None)


class TestBfeCiphertextWire:
    @given(ct=bfe_ciphertexts)
    @settings(**_SETTINGS)
    def test_roundtrip_and_mangling(self, ct):
        encoded = wire.encode_bfe_ciphertext(ct)
        assert wire.decode_bfe_ciphertext(encoded) == ct
        _assert_rejects_mangling(encoded, wire.decode_bfe_ciphertext)

    @given(junk=st.binary(max_size=64))
    @settings(**_SETTINGS)
    def test_junk_is_canonical_or_rejected(self, junk):
        try:
            decoded = wire.decode_bfe_ciphertext(junk)
        except wire.WireFormatError:
            return
        assert wire.encode_bfe_ciphertext(decoded) == junk


class TestRecoveryCiphertextWire:
    """A share inside a recovery ciphertext travels without its tag: the
    reader rebuilds the series tag from the username and salt beside it."""

    @given(ct=recovery_ciphertexts, tag=digests, which=st.integers(0, 3))
    @settings(**_SETTINGS)
    def test_a_share_under_another_tag_is_unencodable(self, ct, tag, which):
        assume(tag != series_tag(ct.username, ct.salt))
        shares = list(ct.share_ciphertexts)
        which %= len(shares)
        shares[which] = dataclasses.replace(shares[which], tag=tag)
        with pytest.raises(wire.WireFormatError, match="series tag"):
            wire.encode_recovery_ciphertext(dataclasses.replace(ct, share_ciphertexts=tuple(shares)))

    @given(ct=recovery_ciphertexts)
    @settings(**_SETTINGS)
    def test_decode_rebuilds_the_series_tag(self, ct):
        """And the shares' one ephemeral, encoded once, and each share's
        position, its index."""
        tag = series_tag(ct.username, ct.salt)
        ephemeral = ct.share_ciphertexts[0].ephemeral
        encoded = wire.encode_recovery_ciphertext(ct)
        assert tag not in encoded and encoded.count(ephemeral.to_bytes()) == 1
        decoded = wire.decode_recovery_ciphertext(encoded)
        assert [share.tag for share in decoded.share_ciphertexts] == [tag] * ct.cluster_size
        assert [share.position for share in decoded.share_ciphertexts] == list(range(ct.cluster_size))
        assert {share.ephemeral for share in decoded.share_ciphertexts} == {ephemeral}
        assert decoded == ct

    @given(ct=recovery_ciphertexts, other=points, which=st.integers(0, 3))
    @settings(**_SETTINGS)
    def test_a_share_with_an_ephemeral_of_its_own_is_unencodable(self, ct, other, which):
        assume(len(ct.share_ciphertexts) > 1 and other != ct.share_ciphertexts[0].ephemeral)
        shares = list(ct.share_ciphertexts)
        which %= len(shares)
        shares[which] = dataclasses.replace(shares[which], ephemeral=other)
        with pytest.raises(wire.WireFormatError, match="ephemeral of its own"):
            wire.encode_recovery_ciphertext(dataclasses.replace(ct, share_ciphertexts=tuple(shares)))

    @given(ct=recovery_ciphertexts, shift=st.integers(1, (1 << 16) - 1), which=st.integers(0, 3))
    @settings(**_SETTINGS)
    def test_a_share_whose_position_is_not_its_index_is_unencodable(self, ct, shift, which):
        shares = list(ct.share_ciphertexts)
        which %= len(shares)
        misplaced = (which + shift) % (1 << 16)
        shares[which] = dataclasses.replace(shares[which], position=misplaced)
        with pytest.raises(wire.WireFormatError, match="position not its index"):
            wire.encode_recovery_ciphertext(dataclasses.replace(ct, share_ciphertexts=tuple(shares)))

    @given(ct=recovery_ciphertexts)
    @settings(**_SETTINGS)
    def test_no_share_is_unencodable_and_undecodable(self, ct):
        """With no share there is no ephemeral to carry, and the bytes that
        would stand for one are refused."""
        with pytest.raises(wire.WireFormatError, match="no shares"):
            wire.encode_recovery_ciphertext(dataclasses.replace(ct, share_ciphertexts=()))
        one = dataclasses.replace(ct, share_ciphertexts=ct.share_ciphertexts[:1])
        encoded = wire.encode_recovery_ciphertext(one)
        body = len(BFE_BODY.encode(one.share_ciphertexts[0].body())) + len(BLOB.encode(ct.payload))
        emptied = encoded[:-body - 1] + VARINT.encode(0) + BLOB.encode(ct.payload)
        with pytest.raises(wire.WireFormatError, match="no shares"):
            wire.decode_recovery_ciphertext(emptied)

    @given(ct=recovery_ciphertexts)
    @settings(**_SETTINGS)
    def test_roundtrip_and_mangling(self, ct):
        encoded = wire.encode_recovery_ciphertext(ct)
        assert wire.decode_recovery_ciphertext(encoded) == ct
        _assert_rejects_mangling(encoded, wire.decode_recovery_ciphertext)

    @given(ct=recovery_ciphertexts, flip=st.integers(min_value=0, max_value=1 << 30))
    @settings(**_SETTINGS)
    def test_corruption_never_misdecodes(self, ct, flip):
        encoded = bytearray(wire.encode_recovery_ciphertext(ct))
        encoded[flip % len(encoded)] ^= 1 + (flip % 255)
        corrupted = bytes(encoded)
        try:
            decoded = wire.decode_recovery_ciphertext(corrupted)
        except wire.WireFormatError:
            return
        assert wire.encode_recovery_ciphertext(decoded) == corrupted


class TestInclusionProofWire:
    @given(proof=inclusion_proofs)
    @settings(**_SETTINGS)
    def test_roundtrip_and_mangling(self, proof):
        encoded = wire.encode_inclusion_proof(proof)
        assert wire.decode_inclusion_proof(encoded) == proof
        _assert_rejects_mangling(encoded, wire.decode_inclusion_proof)

    @given(proof=inclusion_proofs, kind=st.integers(0, 255))
    @settings(**_SETTINGS)
    def test_a_kind_byte_in_front_is_refused(self, proof, kind):
        """A proof has one kind and carries no kind byte: the proof an
        older sender wrote behind one is a wire error, whatever the byte."""
        encoded = wire.encode_inclusion_proof(proof)
        with pytest.raises(wire.WireFormatError):
            wire.decode_inclusion_proof(bytes([kind]) + encoded)

    @given(
        proof=inclusion_proofs,
        lane=st.integers(0, 7),
        lane_digest=digests,
        path=st.lists(st.tuples(digests, st.booleans()), max_size=3),
    )
    @settings(**_SETTINGS)
    def test_retired_sharded_envelope_is_refused(self, proof, lane, lane_digest, path):
        """The root-anchored envelope an older sender wrote (kind 2: lane,
        arity, lane digest, Merkle path to the cross-shard root, then the
        plain body) is a wire error, not a proof."""
        merkle_path = (lane.to_bytes(8, "big") + len(path).to_bytes(4, "big") + b"".join(
            bytes([is_left]) + sibling for sibling, is_left in path
        ))
        envelope = (
            b"\x02" + lane.to_bytes(4, "big") + (8).to_bytes(4, "big")
            + BLOB.encode(lane_digest) + BLOB.encode(merkle_path)
            + wire.encode_inclusion_proof(proof)
        )
        with pytest.raises(wire.WireFormatError):
            wire.decode_inclusion_proof(envelope)


class TestFixedLengthFields:
    """A field whose length the format fixes carries no length prefix, so
    the encoder refuses any other length rather than write bytes a
    decoder would split differently."""

    @staticmethod
    def _refuses(encode, value):
        with pytest.raises(wire.WireFormatError, match="must be"):
            encode(value)

    @given(ct=bfe_ciphertexts, which=st.sampled_from(["tag", "wrap"]), bad=st.binary(max_size=48))
    @settings(**_SETTINGS)
    def test_bfe_tag_and_wraps(self, ct, which, bad):
        assume(len(bad) != (TAG_BYTES if which == "tag" else WRAP_BYTES))
        if which == "tag":
            ct = dataclasses.replace(ct, tag=bad)
        else:
            ct = dataclasses.replace(ct, wrapped_keys=ct.wrapped_keys + (bad,))
        self._refuses(wire.encode_bfe_ciphertext, ct)

    @given(ct=recovery_ciphertexts,
           salt=st.binary(max_size=40).filter(lambda b: len(b) != SALT_LEN))
    @settings(**_SETTINGS)
    def test_salt(self, ct, salt):
        # The shares keep the series tag of the new salt: only its length is wrong.
        tag = series_tag(ct.username, salt)
        shares = tuple(dataclasses.replace(share, tag=tag) for share in ct.share_ciphertexts)
        ct = dataclasses.replace(ct, salt=salt, share_ciphertexts=shares)
        self._refuses(wire.encode_recovery_ciphertext, ct)

    @given(proof=inclusion_proofs,
           field=st.sampled_from(["idh", "other", "left", "right"]),
           bad=st.binary(max_size=40).filter(lambda b: len(b) != 32))
    @settings(**_SETTINGS)
    def test_proof_hashes(self, proof, field, bad):
        if field in ("left", "right"):
            proof = dataclasses.replace(proof, **{field: bad})
        else:
            step = PathStep(idh=b"\x00" * 32, value=b"v", other=b"\x00" * 32)
            proof = dataclasses.replace(
                proof, steps=proof.steps + (dataclasses.replace(step, **{field: bad}),)
            )
        self._refuses(wire.encode_inclusion_proof, proof)


_FIELD_STRATEGIES = {
    "text": usernames,
    "blob": blobs,
    "varint": u32s,
    "i32": st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    "recovery_ct": recovery_ciphertexts,
    "recovery_header": recovery_headers,
    "opt_proof": st.one_of(st.none(), inclusion_proofs),
    "blobs": st.lists(blobs, max_size=4),
    "entries": st.lists(st.tuples(blobs, blobs), max_size=4),
    "err_status": st.sampled_from(wire._PROVIDER_ERROR_STATUSES),
}

_CATALOG = Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"


def _constants(module, prefix):
    """The module's ``prefix*`` constants as ``{name: value}``."""
    return {name: value for name, value in vars(module).items() if name.startswith(prefix)}


def _assert_unique(values):
    values = list(values)
    assert len(set(values)) == len(values), values


class TestCatalogs:
    """The op and record tables are whole: rows and tag values are unique,
    every field kind has a codec and a strategy, every declared tag is
    where the decoders look it up, and ARCHITECTURE.md has a row for each.
    One property a test, so a defect names the property it breaks."""

    _DECLARED = [
        (wire, "PROV_REPLY_", wire.PROVIDER_REPLY_SCHEMAS),
        (wire, "PROV_ERR_", wire._PROVIDER_ERROR_STATUSES),
        (journal, "K_", journal.RECORD_CODECS),
    ]
    _DECLARED_IDS = ["reply", "error", "record"]

    def test_op_tags_are_unique(self):
        _assert_unique(op.tag for op in wire.PROVIDER_OPS)

    def test_op_methods_are_unique(self):
        _assert_unique(op.method for op in wire.PROVIDER_OPS)

    @staticmethod
    def _field_kinds():
        schemas = [op.request for op in wire.PROVIDER_OPS]
        schemas += wire.PROVIDER_REPLY_SCHEMAS.values()
        return {kind for schema in schemas for _, kind in schema}

    def test_every_field_kind_has_a_codec(self):
        assert self._field_kinds() - set(wire.FIELD_CODECS) == set()

    def test_every_field_kind_has_a_strategy(self):
        assert self._field_kinds() - set(_FIELD_STRATEGIES) == set()

    @pytest.mark.parametrize("module, prefix, listed", _DECLARED, ids=_DECLARED_IDS)
    def test_declared_values_are_unique(self, module, prefix, listed):
        _assert_unique(_constants(module, prefix).values())

    @pytest.mark.parametrize("module, prefix, listed", _DECLARED, ids=_DECLARED_IDS)
    def test_declared_values_are_exactly_the_listed_ones(self, module, prefix, listed):
        # Reply kinds are the keys of PROVIDER_REPLY_SCHEMAS, error
        # statuses are _PROVIDER_ERROR_STATUSES, record kinds the keys
        # of RECORD_CODECS.
        assert set(_constants(module, prefix).values()) == set(listed)

    @staticmethod
    def _missing_rows(wanted):
        # A row starts `| value | `name` |`.
        rows = {
            tuple(cell.strip() for cell in line.split("|")[1:3])
            for line in _CATALOG.read_text().splitlines() if line.startswith("|")
        }
        return [row for row in wanted if row not in rows]

    def test_every_op_has_a_catalog_row(self):
        wanted = [(str(op.tag), f"`{op.method}`") for op in wire.PROVIDER_OPS]
        assert self._missing_rows(wanted) == []

    def test_every_record_kind_has_a_catalog_row(self):
        # The record catalog names a kind without its ``K_``.
        kinds = _constants(journal, "K_").items()
        assert self._missing_rows([(str(v), f"`{name[2:]}`") for name, v in kinds]) == []


@st.composite
def _framed(draw, schemas):
    tag = draw(st.sampled_from(sorted(schemas)))
    fields = {
        name: draw(_FIELD_STRATEGIES[kind]) for name, kind in schemas[tag]
    }
    return tag, fields


def provider_requests():
    return _framed(wire.PROVIDER_REQUEST_SCHEMAS)


def provider_replies():
    return _framed(wire.PROVIDER_REPLY_SCHEMAS)


def _op_tag(method: str) -> int:
    """The request tag of the catalog row that calls ``method``."""
    return next(op.tag for op in wire.PROVIDER_OPS if op.method == method)


def _normalized(value):
    """Entry lists decode to tuples; compare values, not container types."""
    if isinstance(value, list):
        return [tuple(v) if isinstance(v, (tuple, list)) else v for v in value]
    return value


class TestProviderRequestWire:
    """Every provider RPC request op round-trips and rejects malformation."""

    @given(frame=provider_requests())
    @settings(**_SETTINGS)
    def test_roundtrip_and_mangling(self, frame):
        op, fields = frame
        encoded = wire.encode_provider_request(op, fields)
        assert wire.decode_provider_request(encoded) == (op, fields)
        _assert_rejects_mangling(encoded, wire.decode_provider_request)

    @given(frame=provider_requests(), tag=st.integers(min_value=0, max_value=255))
    @settings(**_SETTINGS)
    def test_wrong_tag_never_misdecodes(self, frame, tag):
        """Rewriting the op byte either raises the typed wire error or
        decodes canonically as the other op — never crashes, never parses
        one op's body as another's silently."""
        op, fields = frame
        encoded = bytearray(wire.encode_provider_request(op, fields))
        encoded[1] = tag
        mutated = bytes(encoded)
        try:
            decoded_op, decoded_fields = wire.decode_provider_request(mutated)
        except wire.WireFormatError:
            return
        assert (
            wire.encode_provider_request(decoded_op, decoded_fields) == mutated
        )

    def test_unknown_op_rejected(self):
        frame = wire.encode_provider_request(
            _op_tag("backup_count"), {"username": "u"}
        )
        for bad_op in (0, 99, 255):
            mutated = bytes([frame[0], bad_op]) + frame[2:]
            with pytest.raises(wire.WireFormatError):
                wire.decode_provider_request(mutated)

    def test_bad_version_rejected(self):
        frame = wire.encode_provider_request(
            _op_tag("next_attempt_number"), {"username": "u"}
        )
        with pytest.raises(wire.WireFormatError):
            wire.decode_provider_request(bytes([7]) + frame[1:])

    def test_mismatched_fields_refused_on_encode(self):
        with pytest.raises(wire.WireFormatError):
            wire.encode_provider_request(
                _op_tag("next_attempt_number"), {"user": "u"}
            )
        with pytest.raises(wire.WireFormatError):
            wire.encode_provider_request(200, {})

    @given(junk=st.binary(max_size=96))
    @settings(**_SETTINGS)
    def test_junk_raises_only_the_typed_wire_error(self, junk):
        try:
            op, fields = wire.decode_provider_request(junk)
        except wire.WireFormatError:
            return
        assert wire.encode_provider_request(op, fields) == junk


class TestProviderReplyWire:
    """Every provider RPC reply kind round-trips and rejects malformation."""

    @given(frame=provider_replies())
    @settings(**_SETTINGS)
    def test_roundtrip_and_mangling(self, frame):
        kind, fields = frame
        encoded = wire.encode_provider_reply(kind, fields)
        decoded_kind, decoded_fields = wire.decode_provider_reply(encoded)
        assert decoded_kind == kind
        assert {n: _normalized(v) for n, v in decoded_fields.items()} == {
            n: _normalized(v) for n, v in fields.items()
        }
        _assert_rejects_mangling(encoded, wire.decode_provider_reply)

    @given(frame=provider_replies(), tag=st.integers(min_value=0, max_value=255))
    @settings(**_SETTINGS)
    def test_wrong_tag_never_misdecodes(self, frame, tag):
        kind, fields = frame
        encoded = bytearray(wire.encode_provider_reply(kind, fields))
        encoded[1] = tag
        mutated = bytes(encoded)
        try:
            decoded_kind, decoded_fields = wire.decode_provider_reply(mutated)
        except wire.WireFormatError:
            return
        assert (
            wire.encode_provider_reply(decoded_kind, decoded_fields) == mutated
        )

    @given(status=st.sampled_from(wire._PROVIDER_ERROR_STATUSES), message=st.text(max_size=48))
    @settings(**_SETTINGS)
    def test_error_frame_roundtrip(self, status, message):
        encoded = wire.encode_provider_error(status, message)
        kind, fields = wire.decode_provider_reply(encoded)
        assert kind == wire.PROV_REPLY_ERROR
        assert fields == {"status": status, "message": message}
        _assert_rejects_mangling(encoded, wire.decode_provider_reply)

    def test_unknown_error_status_rejected(self):
        with pytest.raises(wire.WireFormatError):
            wire.encode_provider_error(42, "nope")
        encoded = bytearray(wire.encode_provider_error(wire.PROV_ERR_PROVIDER, "x"))
        encoded[2] = 42  # the status byte follows [version, kind]
        with pytest.raises(wire.WireFormatError):
            wire.decode_provider_reply(bytes(encoded))

    @given(junk=st.binary(max_size=96))
    @settings(**_SETTINGS)
    def test_junk_raises_only_the_typed_wire_error(self, junk):
        try:
            kind, fields = wire.decode_provider_reply(junk)
        except wire.WireFormatError:
            return
        assert wire.encode_provider_reply(kind, fields) == junk


class TestDecryptRequestWire:
    @given(request=decrypt_requests())
    @settings(**_SETTINGS)
    def test_roundtrip_and_mangling(self, request):
        encoded = wire.encode_decrypt_request(request)
        assert wire.decode_decrypt_request(encoded) == request
        _assert_rejects_mangling(encoded, wire.decode_decrypt_request)


class TestDecryptReplyWire:
    @given(reply=elgamal_ciphertexts)
    @settings(**_SETTINGS)
    def test_ok_roundtrip_and_mangling(self, reply):
        encoded = wire.encode_decrypt_reply(reply)
        status, decoded = wire.decode_decrypt_reply(encoded)
        assert status == wire.REPLY_OK
        assert decoded == reply
        _assert_rejects_mangling(encoded, wire.decode_decrypt_reply)

    @given(
        status=st.sampled_from(
            (
                wire.REPLY_REFUSED,
                wire.REPLY_PUNCTURED,
                wire.REPLY_UNAVAILABLE,
                wire.REPLY_STALE_PROOF,
            )
        ),
        message=st.text(max_size=48),
    )
    @settings(**_SETTINGS)
    def test_error_roundtrip_and_mangling(self, status, message):
        encoded = wire.encode_decrypt_error(status, message)
        assert wire.decode_decrypt_reply(encoded) == (status, message)
        _assert_rejects_mangling(encoded, wire.decode_decrypt_reply)

    def test_an_identity_ephemeral_is_unencodable(self):
        """``ElGamalCiphertext.from_bytes`` reads a 33-byte point, so the
        identity's 1-byte encoding cannot travel: the encoder refuses it
        rather than write 55 bytes its own decoder rejects."""
        with pytest.raises(wire.WireFormatError, match="finite point"):
            wire.encode_decrypt_reply(ElGamalCiphertext(ECPoint(None, None), bytes(48)))

    def test_ok_is_not_an_error_status(self):
        with pytest.raises(wire.WireFormatError):
            wire.encode_decrypt_error(wire.REPLY_OK, "nope")

    def test_unknown_status_rejected(self):
        encoded = bytearray(wire.encode_decrypt_error(wire.REPLY_REFUSED, "x"))
        encoded[1] = 9
        with pytest.raises(wire.WireFormatError):
            wire.decode_decrypt_reply(bytes(encoded))

    @given(junk=st.binary(max_size=64))
    @settings(**_SETTINGS)
    def test_junk_never_crashes(self, junk):
        try:
            wire.decode_decrypt_reply(junk)
        except wire.WireFormatError:
            pass
