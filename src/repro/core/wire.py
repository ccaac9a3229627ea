"""Wire formats: byte-level (de)serialization for protocol messages.

Everything that crosses a trust boundary in SafetyPin — recovery
ciphertexts uploaded to the provider, decrypt-share requests sent to HSMs,
HSM replies — is a byte string in deployment.  This module defines a
compact, self-describing TLV-ish encoding with explicit versioning so the
formats can evolve.

All decoders are *strict*: trailing bytes, truncation, bad versions, and
out-of-range lengths raise :class:`WireFormatError` rather than producing
partially-parsed objects (these inputs arrive from untrusted parties).
"""

from __future__ import annotations

import struct
from typing import Dict, List, NamedTuple, Tuple

from repro.core.lhe import LheCiphertext
from repro.crypto.bfe import BfeCiphertext
from repro.crypto.commit import CommitmentOpening
from repro.crypto.ec import ECPoint
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.merkle import MerkleProof
from repro.log.authdict import InclusionProof, PathStep
from repro.log.sharded import ShardedInclusionProof

WIRE_VERSION = 1


class WireFormatError(Exception):
    """Malformed or truncated wire data."""


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def take(self, count: int) -> bytes:
        if count < 0 or self._offset + count > len(self._data):
            raise WireFormatError("truncated message")
        out = self._data[self._offset : self._offset + count]
        self._offset += count
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid UTF-8") from exc

    def finish(self) -> None:
        if self._offset != len(self._data):
            raise WireFormatError(
                f"{len(self._data) - self._offset} trailing bytes"
            )


def _u32(value: int) -> bytes:
    if not (0 <= value < 1 << 32):
        raise WireFormatError("u32 out of range")
    return struct.pack(">I", value)


def _blob(data: bytes) -> bytes:
    return _u32(len(data)) + data


def _text(value: str) -> bytes:
    return _blob(value.encode("utf-8"))


# ---------------------------------------------------------------------------
# BFE ciphertexts
# ---------------------------------------------------------------------------
def encode_bfe_ciphertext(ct: BfeCiphertext) -> bytes:
    """Serialize a Bloom-filter-encryption ciphertext."""
    parts = [
        _blob(ct.tag),
        _blob(ct.ephemeral.to_bytes()),
        _u32(len(ct.wrapped_keys)),
    ]
    parts.extend(_blob(w) for w in ct.wrapped_keys)
    parts.append(_blob(ct.payload))
    return b"".join(parts)


def _decode_bfe_ciphertext(reader: _Reader) -> BfeCiphertext:
    tag = reader.blob()
    try:
        ephemeral = ECPoint.from_bytes(reader.blob())
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc
    count = reader.u32()
    if count > 4096:
        raise WireFormatError("implausible wrapped-key count")
    wrapped = tuple(reader.blob() for _ in range(count))
    payload = reader.blob()
    return BfeCiphertext(tag=tag, ephemeral=ephemeral, wrapped_keys=wrapped, payload=payload)


def decode_bfe_ciphertext(data: bytes) -> BfeCiphertext:
    """Strictly decode a BFE ciphertext (raises on any malformation)."""
    reader = _Reader(data)
    ct = _decode_bfe_ciphertext(reader)
    reader.finish()
    return ct


# ---------------------------------------------------------------------------
# Recovery (LHE) ciphertexts
# ---------------------------------------------------------------------------
def encode_recovery_ciphertext(ct: LheCiphertext) -> bytes:
    """Serialize the client's uploaded recovery ciphertext (§4.1)."""
    parts = [
        bytes([WIRE_VERSION]),
        _blob(ct.salt),
        _text(ct.username),
        _u32(ct.threshold),
        _u32(ct.num_hsms),
        _u32(ct.config_epoch),
        _u32(len(ct.share_ciphertexts)),
    ]
    for share_ct in ct.share_ciphertexts:
        if isinstance(share_ct, BfeCiphertext):
            parts.append(b"\x01" + encode_bfe_ciphertext(share_ct))
        elif isinstance(share_ct, ElGamalCiphertext):
            parts.append(b"\x02" + _blob(share_ct.to_bytes()))
        else:
            raise WireFormatError(f"unencodable share ciphertext {type(share_ct)}")
    parts.append(_blob(ct.payload))
    return b"".join(parts)


def decode_recovery_ciphertext(data: bytes) -> LheCiphertext:
    """Strictly decode a recovery ciphertext uploaded by a client."""
    reader = _Reader(data)
    version = reader.u8()
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    salt = reader.blob()
    username = reader.text()
    threshold = reader.u32()
    num_hsms = reader.u32()
    config_epoch = reader.u32()
    count = reader.u32()
    if count > 4096:
        raise WireFormatError("implausible share count")
    shares: List[object] = []
    for _ in range(count):
        kind = reader.u8()
        if kind == 1:
            shares.append(_decode_bfe_ciphertext(reader))
        elif kind == 2:
            try:
                shares.append(ElGamalCiphertext.from_bytes(reader.blob()))
            except ValueError as exc:
                raise WireFormatError(str(exc)) from exc
        else:
            raise WireFormatError(f"unknown share-ciphertext kind {kind}")
    payload = reader.blob()
    reader.finish()
    return LheCiphertext(
        salt=salt,
        username=username,
        share_ciphertexts=tuple(shares),
        payload=payload,
        threshold=threshold,
        num_hsms=num_hsms,
        config_epoch=config_epoch,
    )


# ---------------------------------------------------------------------------
# Decrypt-share replies (HSM -> client, step Ð of Figure 3)
# ---------------------------------------------------------------------------
#: The HSM decrypted and punctured; the payload is an ElGamal ciphertext.
REPLY_OK = 0
#: The HSM refused the request (bad proof, wrong cluster, policy violation).
REPLY_REFUSED = 1
#: The share was already recovered; the Bloom-filter key is punctured.
REPLY_PUNCTURED = 2
#: The device has fail-stopped (benign hardware failure).
REPLY_UNAVAILABLE = 3
#: The inclusion proof is stale (a later epoch advanced the digest);
#: the client should refresh its proof and retry.
REPLY_STALE_PROOF = 4

_REPLY_ERROR_STATUSES = (
    REPLY_REFUSED,
    REPLY_PUNCTURED,
    REPLY_UNAVAILABLE,
    REPLY_STALE_PROOF,
)


def encode_decrypt_reply(reply: ElGamalCiphertext) -> bytes:
    """Serialize a successful decrypt-share reply."""
    return bytes([WIRE_VERSION, REPLY_OK]) + _blob(reply.to_bytes())


def encode_decrypt_error(status: int, message: str) -> bytes:
    """Serialize a refusal/puncture/unavailable outcome as wire bytes.

    Errors must cross the transport as data, not as shared Python exception
    objects: the client re-raises from the status code alone.
    """
    if status not in _REPLY_ERROR_STATUSES:
        raise WireFormatError(f"not an error reply status: {status}")
    return bytes([WIRE_VERSION, status]) + _text(message)


def decode_decrypt_reply(data: bytes):
    """Decode a reply into ``(status, payload)``.

    ``payload`` is an :class:`ElGamalCiphertext` for :data:`REPLY_OK` and a
    human-readable message string for the error statuses.
    """
    reader = _Reader(data)
    version = reader.u8()
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    status = reader.u8()
    if status == REPLY_OK:
        try:
            payload: object = ElGamalCiphertext.from_bytes(reader.blob())
        except ValueError as exc:
            raise WireFormatError(str(exc)) from exc
    elif status in _REPLY_ERROR_STATUSES:
        payload = reader.text()
    else:
        raise WireFormatError(f"unknown reply status {status}")
    reader.finish()
    return status, payload


# ---------------------------------------------------------------------------
# Log inclusion proofs
# ---------------------------------------------------------------------------
#: Proof-kind tags: a plain BST proof against a single log digest, or a
#: sharded proof carrying the shard routing and the Merkle path from the
#: shard digest to the cross-shard root.
PROOF_PLAIN = 1
PROOF_SHARDED = 2


def _encode_plain_proof(proof: InclusionProof) -> bytes:
    parts = [_u32(len(proof.steps))]
    for step in proof.steps:
        parts.append(_blob(step.idh))
        parts.append(_blob(step.value))
        parts.append(_blob(step.other))
    parts.append(_blob(proof.left))
    parts.append(_blob(proof.right))
    return b"".join(parts)


def _decode_plain_proof(reader: _Reader) -> InclusionProof:
    count = reader.u32()
    if count > 4096:
        raise WireFormatError("implausible proof depth")
    steps = tuple(
        PathStep(idh=reader.blob(), value=reader.blob(), other=reader.blob())
        for _ in range(count)
    )
    left = reader.blob()
    right = reader.blob()
    return InclusionProof(steps=steps, left=left, right=right)


def encode_inclusion_proof(proof) -> bytes:
    """Serialize a plain or sharded inclusion proof (tagged by kind)."""
    if isinstance(proof, ShardedInclusionProof):
        return b"".join(
            [
                bytes([PROOF_SHARDED]),
                _u32(proof.shard),
                _u32(proof.num_shards),
                _blob(proof.shard_digest),
                _blob(proof.shard_path.to_bytes()),
                _encode_plain_proof(proof.inclusion),
            ]
        )
    return bytes([PROOF_PLAIN]) + _encode_plain_proof(proof)


def decode_inclusion_proof(data: bytes):
    """Decode a proof; returns :class:`InclusionProof` or
    :class:`ShardedInclusionProof` according to the kind tag."""
    reader = _Reader(data)
    kind = reader.u8()
    if kind == PROOF_PLAIN:
        proof: object = _decode_plain_proof(reader)
    elif kind == PROOF_SHARDED:
        shard = reader.u32()
        num_shards = reader.u32()
        if not (2 <= num_shards <= 4096):
            raise WireFormatError("implausible shard count")
        if shard >= num_shards:
            raise WireFormatError("shard index out of range")
        shard_digest = reader.blob()
        path_bytes = reader.blob()
        try:
            shard_path = MerkleProof.from_bytes(path_bytes)
        except ValueError as exc:
            raise WireFormatError(str(exc)) from exc
        if shard_path.to_bytes() != path_bytes:
            raise WireFormatError("non-canonical shard path")
        proof = ShardedInclusionProof(
            shard=shard,
            num_shards=num_shards,
            shard_digest=shard_digest,
            shard_path=shard_path,
            inclusion=_decode_plain_proof(reader),
        )
    else:
        raise WireFormatError(f"unknown inclusion-proof kind {kind}")
    reader.finish()
    return proof


# ---------------------------------------------------------------------------
# Decrypt-share requests (client -> HSM, step Ï of Figure 3)
# ---------------------------------------------------------------------------
def encode_decrypt_request(request) -> bytes:
    """Serialize a client's decrypt-share request to one HSM."""
    from repro.hsm.device import DecryptShareRequest  # avoid import cycle

    assert isinstance(request, DecryptShareRequest)
    return b"".join(
        [
            bytes([WIRE_VERSION]),
            _text(request.username),
            _blob(request.log_identifier),
            _blob(request.commitment),
            _blob(request.opening.to_bytes()),
            _blob(encode_inclusion_proof(request.inclusion_proof)),
            _blob(encode_bfe_ciphertext(request.share_ciphertext)),
            _blob(request.context),
            _blob(request.response_key.to_bytes()),
        ]
    )


def decode_decrypt_request(data: bytes):
    """Strictly decode a decrypt-share request (device side)."""
    from repro.hsm.device import DecryptShareRequest

    reader = _Reader(data)
    version = reader.u8()
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    username = reader.text()
    log_identifier = reader.blob()
    commitment = reader.blob()
    try:
        opening = CommitmentOpening.from_bytes(reader.blob())
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc
    proof = decode_inclusion_proof(reader.blob())
    share_ct = decode_bfe_ciphertext(reader.blob())
    context = reader.blob()
    try:
        response_key = ECPoint.from_bytes(reader.blob())
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc
    reader.finish()
    return DecryptShareRequest(
        username=username,
        log_identifier=log_identifier,
        commitment=commitment,
        opening=opening,
        inclusion_proof=proof,
        share_ciphertext=share_ct,
        context=context,
        response_key=response_key,
    )


# ---------------------------------------------------------------------------
# Provider RPC frames (client -> provider -> client)
# ---------------------------------------------------------------------------
# Every provider interaction crosses the untrusted operator's network, so
# the whole surface is framed: ``[version u8][op u8][body]`` requests and
# ``[version u8][kind u8][body]`` replies, with bodies described by the
# op table and the reply schemas below.  Inclusion proofs ride the same tagged
# PROOF_PLAIN/PROOF_SHARDED envelope as the client->HSM leg, and failures
# travel as typed PROV_REPLY_ERROR frames — a provider can answer with an
# error *status*, never with a live Python exception.

#: Reply kind tags.
PROV_REPLY_ACK = 1
PROV_REPLY_COUNT = 2
PROV_REPLY_BACKUP = 3
PROV_REPLY_BLOBS = 4
PROV_REPLY_PROOF = 5
PROV_REPLY_PROVEN = 6
PROV_REPLY_ENTRIES = 7
PROV_REPLY_LOGGED = 8
PROV_REPLY_ERROR = 9

#: Error statuses carried by :data:`PROV_REPLY_ERROR` frames.
PROV_ERR_PROVIDER = 1      # the provider refused/failed (ProviderError)
PROV_ERR_BAD_REQUEST = 2   # the provider could not decode the request
PROV_ERR_TIMEOUT = 3       # the epoch service timed out (ServiceTimeout)

_PROVIDER_ERROR_STATUSES = (
    PROV_ERR_PROVIDER,
    PROV_ERR_BAD_REQUEST,
    PROV_ERR_TIMEOUT,
)

#: Bound on list-valued reply fields (blobs, log entries) — far above any
#: honest reply, low enough that a hostile length prefix cannot OOM us.
_MAX_LIST_ITEMS = 65536


def _i32(value: int) -> bytes:
    if not (-(1 << 31) <= value < 1 << 31):
        raise WireFormatError("i32 out of range")
    return struct.pack(">i", value)


def _encode_opt_proof(proof) -> bytes:
    if proof is None:
        return b"\x00"
    return b"\x01" + _blob(encode_inclusion_proof(proof))


def _decode_opt_proof(reader: _Reader):
    flag = reader.u8()
    if flag == 0:
        return None
    if flag != 1:
        raise WireFormatError(f"bad optional-proof flag {flag}")
    return decode_inclusion_proof(reader.blob())


def _encode_blob_list(blobs) -> bytes:
    return _u32(len(blobs)) + b"".join(_blob(b) for b in blobs)


def _decode_blob_list(reader: _Reader) -> List[bytes]:
    count = reader.u32()
    if count > _MAX_LIST_ITEMS:
        raise WireFormatError("implausible blob count")
    return [reader.blob() for _ in range(count)]


def _encode_entry_list(entries) -> bytes:
    parts = [_u32(len(entries))]
    for identifier, value in entries:
        parts.append(_blob(identifier))
        parts.append(_blob(value))
    return b"".join(parts)


def _decode_entry_list(reader: _Reader) -> List[Tuple[bytes, bytes]]:
    count = reader.u32()
    if count > _MAX_LIST_ITEMS:
        raise WireFormatError("implausible entry count")
    return [(reader.blob(), reader.blob()) for _ in range(count)]


def _encode_err_status(status: int) -> bytes:
    if status not in _PROVIDER_ERROR_STATUSES:
        raise WireFormatError(f"unknown provider error status {status}")
    return bytes([status])


def _decode_err_status(reader: _Reader) -> int:
    status = reader.u8()
    if status not in _PROVIDER_ERROR_STATUSES:
        raise WireFormatError(f"unknown provider error status {status}")
    return status


_FIELD_ENCODERS = {
    "text": _text,
    "blob": _blob,
    "u32": _u32,
    "i32": _i32,
    "recovery_ct": lambda ct: _blob(encode_recovery_ciphertext(ct)),
    "proof": lambda proof: _blob(encode_inclusion_proof(proof)),
    "opt_proof": _encode_opt_proof,
    "blobs": _encode_blob_list,
    "entries": _encode_entry_list,
    "err_status": _encode_err_status,
}

_FIELD_DECODERS = {
    "text": _Reader.text,
    "blob": _Reader.blob,
    "u32": _Reader.u32,
    "i32": lambda reader: struct.unpack(">i", reader.take(4))[0],
    "recovery_ct": lambda reader: decode_recovery_ciphertext(reader.blob()),
    "proof": lambda reader: decode_inclusion_proof(reader.blob()),
    "opt_proof": _decode_opt_proof,
    "blobs": _decode_blob_list,
    "entries": _decode_entry_list,
    "err_status": _decode_err_status,
}


class ProviderOp(NamedTuple):
    """One row of the provider op catalog."""

    tag: int                              # request op tag on the wire
    method: str                           # provider method the op calls
    request: Tuple[Tuple[str, str], ...]  # ordered (field name, field kind)
    reply: int                            # reply kind the op answers with
    defaults: Tuple = ()                  # values for omitted trailing fields


#: The provider surface, one row per op — the only place an op is spelled.
#: The request schemas below, the endpoint's dispatch and the methods of
#: every ``ProviderChannel`` and service facade are derived from it; a
#: row's tag, field order and field kinds *are* its wire format.
PROVIDER_OPS: Tuple[ProviderOp, ...] = (
    ProviderOp(1, "upload_backup",
               (("username", "text"), ("ciphertext", "recovery_ct")),
               PROV_REPLY_COUNT),
    ProviderOp(2, "fetch_backup",
               (("username", "text"), ("index", "i32")),
               PROV_REPLY_BACKUP, (-1,)),
    ProviderOp(3, "backup_count", (("username", "text"),), PROV_REPLY_COUNT),
    ProviderOp(4, "upload_incremental",
               (("username", "text"), ("blob", "blob")),
               PROV_REPLY_ACK),
    ProviderOp(5, "fetch_incrementals", (("username", "text"),), PROV_REPLY_BLOBS),
    ProviderOp(6, "next_attempt_number", (("username", "text"),), PROV_REPLY_COUNT),
    ProviderOp(7, "reserve_attempt_number", (("username", "text"),), PROV_REPLY_COUNT),
    ProviderOp(8, "log_recovery_attempt",
               (("username", "text"), ("attempt", "u32"), ("commitment", "blob")),
               PROV_REPLY_LOGGED),
    ProviderOp(9, "log_and_prove",
               (("username", "text"), ("attempt", "u32"), ("commitment", "blob")),
               PROV_REPLY_PROVEN),
    ProviderOp(10, "prove_inclusion",
               (("identifier", "blob"), ("value", "blob")),
               PROV_REPLY_PROOF),
    ProviderOp(11, "share_phase_done",
               (("username", "text"), ("attempt", "u32")),
               PROV_REPLY_ACK),
    ProviderOp(12, "store_reply",
               (("username", "text"), ("attempt", "u32"), ("reply", "blob")),
               PROV_REPLY_ACK),
    ProviderOp(13, "fetch_replies",
               (("username", "text"), ("attempt", "u32")),
               PROV_REPLY_BLOBS),
    ProviderOp(14, "recovery_attempts_for", (("username", "text"),), PROV_REPLY_ENTRIES),
)

#: Body schema per request op: ordered (field name, field kind) pairs.
PROVIDER_REQUEST_SCHEMAS: Dict[int, Tuple[Tuple[str, str], ...]] = {
    op.tag: op.request for op in PROVIDER_OPS
}

#: Body schema per reply kind.
PROVIDER_REPLY_SCHEMAS: Dict[int, Tuple[Tuple[str, str], ...]] = {
    PROV_REPLY_ACK: (),
    PROV_REPLY_COUNT: (("value", "u32"),),
    PROV_REPLY_BACKUP: (("ciphertext", "recovery_ct"),),
    PROV_REPLY_BLOBS: (("blobs", "blobs"),),
    PROV_REPLY_PROOF: (("proof", "opt_proof"),),
    PROV_REPLY_PROVEN: (("identifier", "blob"), ("proof", "proof")),
    PROV_REPLY_ENTRIES: (("entries", "entries"),),
    PROV_REPLY_LOGGED: (("identifier", "blob"),),
    PROV_REPLY_ERROR: (("status", "err_status"), ("message", "text")),
}


def _encode_framed(tag: int, fields: Dict, schemas: Dict, what: str) -> bytes:
    schema = schemas.get(tag)
    if schema is None:
        raise WireFormatError(f"unknown {what} tag {tag}")
    if set(fields) != {name for name, _ in schema}:
        raise WireFormatError(
            f"{what} {tag} fields {sorted(fields)} do not match its schema"
        )
    parts = [bytes([WIRE_VERSION, tag])]
    for name, kind in schema:
        parts.append(_FIELD_ENCODERS[kind](fields[name]))
    return b"".join(parts)


def _decode_framed(data: bytes, schemas: Dict, what: str):
    reader = _Reader(data)
    version = reader.u8()
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    tag = reader.u8()
    schema = schemas.get(tag)
    if schema is None:
        raise WireFormatError(f"unknown {what} tag {tag}")
    fields = {name: _FIELD_DECODERS[kind](reader) for name, kind in schema}
    reader.finish()
    return tag, fields


def encode_provider_request(op: int, fields: Dict) -> bytes:
    """Serialize one provider RPC request (tagged by ``op``)."""
    return _encode_framed(op, fields, PROVIDER_REQUEST_SCHEMAS, "provider request")


def decode_provider_request(data: bytes):
    """Strictly decode a provider request into ``(op, fields)``."""
    return _decode_framed(data, PROVIDER_REQUEST_SCHEMAS, "provider request")


def encode_provider_reply(kind: int, fields: Dict) -> bytes:
    """Serialize one provider RPC reply (tagged by ``kind``)."""
    return _encode_framed(kind, fields, PROVIDER_REPLY_SCHEMAS, "provider reply")


def encode_provider_error(status: int, message: str) -> bytes:
    """Serialize a typed provider failure as a :data:`PROV_REPLY_ERROR` frame."""
    return encode_provider_reply(
        PROV_REPLY_ERROR, {"status": status, "message": message}
    )


def decode_provider_reply(data: bytes):
    """Strictly decode a provider reply into ``(kind, fields)``."""
    return _decode_framed(data, PROVIDER_REPLY_SCHEMAS, "provider reply")
