"""Wire formats: the byte layout of every protocol message.

Everything that crosses a trust boundary in SafetyPin — recovery
ciphertexts uploaded to the provider, decrypt-share requests sent to HSMs,
HSM replies, and the 14 provider RPC frames — is a byte string in
deployment.  Each message is one :class:`~repro.core.codec.Codec` value
below, built from the primitives and combinators of ``repro.core.codec``,
so its encoder and decoder are one expression; the public ``encode_*`` /
``decode_*`` names are those values' two directions.  Formats carry an
explicit version byte (``codec.WIRE_VERSION``) so they can evolve.  The
crypto layouts a message carries are codec values declared beside their
types and used here: ``commit.OPENING`` travels ``nested``, and a
recovery ciphertext is ``lhe.RECOVERY_CIPHERTEXT`` over ``bfe.BFE_BODY``
(declared there so ``LheCiphertext`` can measure and hash its own
encoding; it carries the one ephemeral its shares were encrypted under,
and its reader rebuilds each share's series tag and takes its position
from its index, while the stand-alone ``bfe.BFE_CIPHERTEXT`` of a
decrypt request carries its tag, its ephemeral and its ``u16`` position).
A field whose length is fixed by construction (a digest, a tag, a salt, a
BFE wrap) is ``fixed(n)`` with no length prefix, and a point
(``ec.POINT``) is its SEC1 encoding, whose prefix byte gives its length.
Only the ElGamal reply keeps its own ``to_bytes`` / ``from_bytes`` and
travels as a blob (``_ELGAMAL``).

All decoders are *strict* — the contract is stated once, in
``repro.core.codec``: trailing bytes, truncation, bad versions, unknown
tags and implausible counts raise :class:`WireFormatError` rather than
producing partially-parsed objects (these inputs arrive from untrusted
parties), and a decoded message re-encodes to exactly the bytes received.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.core.codec import (
    BLOB, I32, TEXT, U8, U32, WIRE_VERSION, Codec, WireFormatError,
    converted, fixed, nested, optional, record, seq, tagged, tuple_of, versioned,
)
from repro.core.lhe import RECOVERY_CIPHERTEXT
from repro.crypto.bfe import BFE_CIPHERTEXT
from repro.crypto.commit import OPENING
from repro.crypto.ec import POINT
from repro.crypto.elgamal import ElGamalCiphertext
from repro.hsm.device import DecryptShareRequest
from repro.log.authdict import InclusionProof, PathStep


def _elgamal_bytes(ciphertext: ElGamalCiphertext) -> bytes:
    # ``from_bytes`` reads a 33-byte point, so the identity's 1-byte
    # encoding is a value this layout cannot carry.
    if ciphertext.ephemeral.is_infinity:
        raise WireFormatError("an ElGamal ephemeral must be a finite point")
    return ciphertext.to_bytes()


#: An ElGamal ciphertext (point ‖ body) keeps its own strict ``to_bytes`` /
#: ``from_bytes`` and travels as a blob.
_ELGAMAL = converted(BLOB, _elgamal_bytes, ElGamalCiphertext.from_bytes)

# ---------------------------------------------------------------------------
# BFE and recovery (LHE) ciphertexts: declared beside their types
# ---------------------------------------------------------------------------
encode_bfe_ciphertext = BFE_CIPHERTEXT.encode
decode_bfe_ciphertext = BFE_CIPHERTEXT.decode
encode_recovery_ciphertext = RECOVERY_CIPHERTEXT.encode
decode_recovery_ciphertext = RECOVERY_CIPHERTEXT.decode


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

#: A reply is ``(status, payload)``: an :class:`ElGamalCiphertext` under
#: :data:`REPLY_OK`, a human-readable message under the error statuses.
_DECRYPT_REPLY = versioned(tagged(
    "reply status", {REPLY_OK: _ELGAMAL, **dict.fromkeys(_REPLY_ERROR_STATUSES, TEXT)},
))
decode_decrypt_reply = _DECRYPT_REPLY.decode


def encode_decrypt_reply(reply: ElGamalCiphertext) -> bytes:
    """Serialize a successful decrypt-share reply."""
    return _DECRYPT_REPLY.encode((REPLY_OK, reply))


def encode_decrypt_error(status: int, message: str) -> bytes:
    """Serialize a refusal/puncture/unavailable outcome as wire bytes.

    Errors must cross the transport as data, not as shared Python exception
    objects: the client re-raises from the status code alone.
    """
    if status not in _REPLY_ERROR_STATUSES:
        raise WireFormatError(f"not an error reply status: {status}")
    return _DECRYPT_REPLY.encode((status, message))


# ---------------------------------------------------------------------------
# Log inclusion proofs
# ---------------------------------------------------------------------------
#: A node's identifier hash and every subtree hash are SHA-256 digests; a
#: step's value is a log record of any length and keeps its blob length.
_HASH = fixed(32, "proof hash")

#: An inclusion proof: the BST proof against one lane's digest, the one
#: kind at every arity, so it carries no kind byte.
INCLUSION_PROOF = record(
    InclusionProof,
    steps=seq(record(PathStep, idh=_HASH, value=BLOB, other=_HASH), tuple, 4096, "proof-step"),
    left=_HASH, right=_HASH,
)
encode_inclusion_proof = INCLUSION_PROOF.encode
decode_inclusion_proof = INCLUSION_PROOF.decode


# ---------------------------------------------------------------------------
# Decrypt-share requests (client -> HSM, step Ï of Figure 3)
# ---------------------------------------------------------------------------
DECRYPT_REQUEST = versioned(record(
    DecryptShareRequest, username=TEXT, log_identifier=BLOB, commitment=BLOB,
    opening=nested(OPENING), inclusion_proof=nested(INCLUSION_PROOF),
    share_ciphertext=nested(BFE_CIPHERTEXT), context=BLOB, response_key=POINT,
))
encode_decrypt_request = DECRYPT_REQUEST.encode
decode_decrypt_request = DECRYPT_REQUEST.decode


# ---------------------------------------------------------------------------
# Provider RPC frames (client -> provider -> client)
# ---------------------------------------------------------------------------
# Every provider interaction crosses the untrusted operator's network, so
# the whole surface is framed: ``[version u8][op u8][body]`` requests and
# ``[version u8][kind u8][body]`` replies, with bodies described by the
# op table and the reply schemas below.  Inclusion proofs travel as on
# the client->HSM leg, and failures
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


def _err_status(status: int) -> int:
    if status not in _PROVIDER_ERROR_STATUSES:
        raise WireFormatError(f"unknown provider error status {status}")
    return status


#: One codec per field kind a request row or a reply schema may name.
FIELD_CODECS: Dict[str, Codec] = {
    "text": TEXT,
    "blob": BLOB,
    "u32": U32,
    "i32": I32,
    "recovery_ct": nested(RECOVERY_CIPHERTEXT),
    "proof": nested(INCLUSION_PROOF),
    "opt_proof": optional(nested(INCLUSION_PROOF), "optional-proof"),
    "blobs": seq(BLOB, list, _MAX_LIST_ITEMS, "blob"),
    "entries": seq(tuple_of(BLOB, BLOB), list, _MAX_LIST_ITEMS, "entry"),
    "err_status": converted(U8, _err_status, _err_status),
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


def _frame(what: str, schemas: Dict[int, Tuple[Tuple[str, str], ...]]) -> Codec:
    """``[version][tag][body]`` as a ``(tag, {field: value})`` pair; the body
    is the fields of the tag's schema, in schema order."""

    def body(tag: int, schema) -> Codec:
        names = [name for name, _ in schema]

        def values(fields: Dict):
            if set(fields) != set(names):
                raise WireFormatError(
                    f"{what} {tag} fields {sorted(fields)} do not match its schema"
                )
            return [fields[name] for name in names]

        return converted(
            tuple_of(*(FIELD_CODECS[kind] for _, kind in schema)),
            values,
            lambda row: dict(zip(names, row)),
        )

    return versioned(
        tagged(f"{what} tag", {tag: body(tag, schema) for tag, schema in schemas.items()})
    )


_PROVIDER_REQUEST = _frame("provider request", PROVIDER_REQUEST_SCHEMAS)
_PROVIDER_REPLY = _frame("provider reply", PROVIDER_REPLY_SCHEMAS)
#: Strictly decode a provider request into ``(op, fields)`` / a provider
#: reply into ``(kind, fields)``.
decode_provider_request = _PROVIDER_REQUEST.decode
decode_provider_reply = _PROVIDER_REPLY.decode


def encode_provider_request(op: int, fields: Dict) -> bytes:
    """Serialize one provider RPC request (tagged by ``op``)."""
    return _PROVIDER_REQUEST.encode((op, fields))


def encode_provider_reply(kind: int, fields: Dict) -> bytes:
    """Serialize one provider RPC reply (tagged by ``kind``)."""
    return _PROVIDER_REPLY.encode((kind, fields))


def encode_provider_error(status: int, message: str) -> bytes:
    """Serialize a typed provider failure as a :data:`PROV_REPLY_ERROR` frame."""
    return encode_provider_reply(
        PROV_REPLY_ERROR, {"status": status, "message": message}
    )
