"""The client-side transport boundaries: client ↔ HSM and client ↔ provider.

A :class:`Channel` is the only way client code reaches an HSM: one
``decrypt_share`` method.  The default transport (:class:`WireChannel`)
serializes the request and the reply through ``repro.core.wire`` — the
client and the device exchange *bytes*, never live Python objects, so the
trust boundary of the paper (everything between client and HSM crosses the
untrusted provider's network) is real in the reproduction too.

A :class:`ProviderChannel` is the same idea for the client ↔ provider leg:
backup upload/fetch, incremental blobs, attempt reservation, log-and-prove,
inclusion-proof refresh, and reply escrow.  The default transport
(:class:`WireProviderChannel` over a :class:`ProviderWireEndpoint`) frames
every call through the tagged provider RPC encoding in ``repro.core.wire``;
failures come back as typed ``PROV_REPLY_ERROR`` frames and are re-raised
client-side as :class:`~repro.core.provider.ProviderError` (or
:class:`~repro.service.batcher.ServiceTimeout` for epoch timeouts) — a
Python exception object never crosses the boundary.
:class:`DirectProviderChannel` is the no-serialization reference path kept
for tests and micro-benchmarks.

Error outcomes (refused / punctured / fail-stopped) cross the wire as
status codes and are re-raised client-side as the same exception types the
devices throw, so protocol code is transport-agnostic.

Each ``decrypt_share`` bottoms out in HSM-side ElGamal/BFE point
multiplications, which since the crypto fast-path layer ride the generator's
comb and per-key cached window tables in ``repro.crypto.ec`` — the channel
turnaround (and therefore per-HSM queue drain rate in
``service.workers``) tracks those table-backed rates rather than the naive
rebuild-per-call cost.

Thread safety: channels are stateless pass-throughs (safe to share across
threads); serialization of *device* state is not their job — wrap them
with ``service.workers.queued_channels`` so every call lands on the
device's single FIFO worker, as the service does.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import wire
from repro.core.provider import ProviderError
from repro.crypto.bfe import PuncturedKeyError
from repro.crypto.elgamal import ElGamalCiphertext
from repro.hsm.device import (
    DecryptShareRequest,
    HsmRefusedError,
    HsmStaleProofError,
    HsmUnavailableError,
)

#: Maps an HSM index to the Channel reaching that device.
ChannelFactory = Callable[[int], "Channel"]

#: The single status↔exception table, most-derived exception types first so
#: the encoding side can pick the first isinstance match (HsmStaleProofError
#: subclasses HsmRefusedError).  Both transport directions derive from it.
_ERROR_STATUS_BY_TYPE = (
    (HsmStaleProofError, wire.REPLY_STALE_PROOF),
    (HsmUnavailableError, wire.REPLY_UNAVAILABLE),
    (PuncturedKeyError, wire.REPLY_PUNCTURED),
    (HsmRefusedError, wire.REPLY_REFUSED),
)
_ERROR_TYPES = tuple(exc_type for exc_type, _ in _ERROR_STATUS_BY_TYPE)
_STATUS_EXCEPTIONS = {status: exc_type for exc_type, status in _ERROR_STATUS_BY_TYPE}


def _status_for(exc: Exception) -> int:
    for exc_type, status in _ERROR_STATUS_BY_TYPE:
        if isinstance(exc, exc_type):
            return status
    raise TypeError(f"no wire status for {type(exc)}")  # pragma: no cover


class Channel:
    """Narrow interface between a client and one HSM."""

    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Ask the device to decrypt one share (raises on refusal)."""
        raise NotImplementedError


class DirectChannel(Channel):
    """In-process shortcut: call the device object directly.

    Kept for tests and micro-benchmarks that want to exclude serialization
    cost; production wiring uses :class:`WireChannel`.
    """

    def __init__(self, device) -> None:
        self._device = device

    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Call the device object directly (no serialization)."""
        return self._device.decrypt_share(request)


class HsmWireEndpoint:
    """Device-side half of the wire transport: bytes in, bytes out.

    Decodes the request, runs the device, and encodes the outcome —
    including the error outcomes, which become status replies rather than
    exceptions crossing the boundary.
    """

    def __init__(self, device) -> None:
        self._device = device

    def handle_decrypt_share(self, request_bytes: bytes) -> bytes:
        """Decode, run the device, encode the outcome (reply or status)."""
        request = wire.decode_decrypt_request(request_bytes)
        try:
            reply = self._device.decrypt_share(request)
        except _ERROR_TYPES as exc:
            return wire.encode_decrypt_error(_status_for(exc), str(exc))
        return wire.encode_decrypt_reply(reply)


class WireChannel(Channel):
    """Default transport: every request/reply round-trips through bytes."""

    def __init__(self, endpoint: HsmWireEndpoint) -> None:
        self._endpoint = endpoint

    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Round-trip through bytes; re-raise error statuses client-side."""
        reply_bytes = self._endpoint.handle_decrypt_share(
            wire.encode_decrypt_request(request)
        )
        status, payload = wire.decode_decrypt_reply(reply_bytes)
        if status == wire.REPLY_OK:
            return payload
        raise _STATUS_EXCEPTIONS[status](payload)


def wire_channels(devices: Sequence) -> ChannelFactory:
    """A factory of wire channels over an indexable device collection."""
    cache: Dict[int, WireChannel] = {}

    def factory(index: int) -> Channel:
        if index not in cache:
            cache[index] = WireChannel(HsmWireEndpoint(devices[index]))
        return cache[index]

    return factory


def direct_channels(devices: Sequence) -> ChannelFactory:
    """A factory of direct (no serialization) channels."""
    cache: Dict[int, DirectChannel] = {}

    def factory(index: int) -> Channel:
        if index not in cache:
            cache[index] = DirectChannel(devices[index])
        return cache[index]

    return factory


# ---------------------------------------------------------------------------
# The client <-> provider transport boundary
# ---------------------------------------------------------------------------
class ProviderChannel:
    """Narrow interface between a client and the service provider.

    One method per RPC op of the provider surface (the frame catalog in
    ``repro.core.wire``).  Client code holds a ProviderChannel, never a
    live :class:`~repro.core.provider.ServiceProvider`.
    """

    def upload_backup(self, username: str, ciphertext) -> int:
        """Store a recovery ciphertext; returns its per-user index."""
        raise NotImplementedError

    def fetch_backup(self, username: str, index: int = -1):
        """Fetch one stored recovery ciphertext (default: newest)."""
        raise NotImplementedError

    def backup_count(self, username: str) -> int:
        """How many recovery ciphertexts the provider holds for a user."""
        raise NotImplementedError

    def upload_incremental(self, username: str, blob: bytes) -> None:
        """Append one AE-encrypted incremental backup blob (§8)."""
        raise NotImplementedError

    def fetch_incrementals(self, username: str) -> List[bytes]:
        """All incremental blobs stored for a user, oldest first."""
        raise NotImplementedError

    def next_attempt_number(self, username: str) -> int:
        """First unused attempt slot for a user in the current log."""
        raise NotImplementedError

    def reserve_attempt_number(self, username: str) -> int:
        """Atomically claim the next attempt slot for a user."""
        raise NotImplementedError

    def log_recovery_attempt(
        self, username: str, attempt: int, commitment: bytes
    ) -> bytes:
        """Queue (rec|user|attempt -> commitment) for the next epoch."""
        raise NotImplementedError

    def log_and_prove(self, username: str, attempt: int, commitment: bytes):
        """Insert, wait for an epoch, return ``(identifier, proof)``."""
        raise NotImplementedError

    def prove_inclusion(self, identifier: bytes, value: bytes):
        """A fresh proof against the current digest (None if uncommitted)."""
        raise NotImplementedError

    def share_phase_done(self, username: str, attempt: int) -> None:
        """Liveness hint: this attempt's share phase is over."""
        raise NotImplementedError

    def store_reply(self, username: str, attempt: int, encrypted_reply: bytes) -> None:
        """Escrow one encrypted HSM reply for device-failure recovery (§8)."""
        raise NotImplementedError

    def fetch_replies(self, username: str, attempt: int) -> List[bytes]:
        """All escrowed replies for one recovery attempt."""
        raise NotImplementedError

    def recovery_attempts_for(self, username: str) -> List[Tuple[bytes, bytes]]:
        """All logged attempts for a user (what a monitoring client checks)."""
        raise NotImplementedError


class DirectProviderChannel(ProviderChannel):
    """In-process reference path: call the provider object directly.

    Kept so tests and benchmarks can measure exactly what the wire framing
    costs; production wiring uses :class:`WireProviderChannel`.
    """

    def __init__(self, provider) -> None:
        self._provider = provider

    def upload_backup(self, username: str, ciphertext) -> int:
        """Delegate to the provider object (no serialization)."""
        return self._provider.upload_backup(username, ciphertext)

    def fetch_backup(self, username: str, index: int = -1):
        """Delegate to the provider object (no serialization)."""
        return self._provider.fetch_backup(username, index)

    def backup_count(self, username: str) -> int:
        """Delegate to the provider object (no serialization)."""
        return self._provider.backup_count(username)

    def upload_incremental(self, username: str, blob: bytes) -> None:
        """Delegate to the provider object (no serialization)."""
        self._provider.upload_incremental(username, blob)

    def fetch_incrementals(self, username: str) -> List[bytes]:
        """Delegate to the provider object (no serialization)."""
        return self._provider.fetch_incrementals(username)

    def next_attempt_number(self, username: str) -> int:
        """Delegate to the provider object (no serialization)."""
        return self._provider.next_attempt_number(username)

    def reserve_attempt_number(self, username: str) -> int:
        """Delegate to the provider object (no serialization)."""
        return self._provider.reserve_attempt_number(username)

    def log_recovery_attempt(
        self, username: str, attempt: int, commitment: bytes
    ) -> bytes:
        """Delegate to the provider object (no serialization)."""
        return self._provider.log_recovery_attempt(username, attempt, commitment)

    def log_and_prove(self, username: str, attempt: int, commitment: bytes):
        """Delegate to the provider object (no serialization)."""
        return self._provider.log_and_prove(username, attempt, commitment)

    def prove_inclusion(self, identifier: bytes, value: bytes):
        """Delegate to the provider object (no serialization)."""
        return self._provider.prove_inclusion(identifier, value)

    def share_phase_done(self, username: str, attempt: int) -> None:
        """Delegate to the provider object (no serialization)."""
        self._provider.share_phase_done(username, attempt)

    def store_reply(self, username: str, attempt: int, encrypted_reply: bytes) -> None:
        """Delegate to the provider object (no serialization)."""
        self._provider.store_reply(username, attempt, encrypted_reply)

    def fetch_replies(self, username: str, attempt: int) -> List[bytes]:
        """Delegate to the provider object (no serialization)."""
        return self._provider.fetch_replies(username, attempt)

    def recovery_attempts_for(self, username: str) -> List[Tuple[bytes, bytes]]:
        """Delegate to the provider object (no serialization)."""
        return self._provider.recovery_attempts_for(username)


class ProviderWireEndpoint:
    """Provider-side half of the wire transport: bytes in, bytes out.

    Decodes each request frame, dispatches to the provider surface, and
    encodes the outcome.  *Every* failure becomes a typed error frame:
    malformed requests answer ``PROV_ERR_BAD_REQUEST``, provider refusals
    answer ``PROV_ERR_PROVIDER``, epoch timeouts answer
    ``PROV_ERR_TIMEOUT``, and — defense in depth — a raw ``KeyError`` /
    ``IndexError`` / ``ValueError`` escaping the provider is converted
    rather than propagated, so no Python exception ever crosses the wire.
    """

    def __init__(self, provider) -> None:
        self._provider = provider

    def handle(self, request_bytes: bytes) -> bytes:
        """Serve one framed request; always returns a reply frame."""
        from repro.service.batcher import ServiceTimeout

        try:
            op, fields = wire.decode_provider_request(request_bytes)
        except wire.WireFormatError as exc:
            return wire.encode_provider_error(wire.PROV_ERR_BAD_REQUEST, str(exc))
        try:
            kind, reply = _PROVIDER_RPC_HANDLERS[op](self._provider, fields)
            # Encoding inside the try: a provider returning an
            # out-of-contract value (unencodable field) must also answer
            # with an error frame, not crash the connection handler.
            return wire.encode_provider_reply(kind, reply)
        except ServiceTimeout as exc:
            return wire.encode_provider_error(wire.PROV_ERR_TIMEOUT, str(exc))
        except (ProviderError, wire.WireFormatError) as exc:
            return wire.encode_provider_error(wire.PROV_ERR_PROVIDER, str(exc))
        except (KeyError, IndexError, ValueError) as exc:
            return wire.encode_provider_error(
                wire.PROV_ERR_PROVIDER, f"{type(exc).__name__}: {exc}"
            )


#: op -> handler(provider, fields) -> (reply kind, reply fields).
_PROVIDER_RPC_HANDLERS = {
    wire.PROV_UPLOAD_BACKUP: lambda p, f: (
        wire.PROV_REPLY_COUNT,
        {"value": p.upload_backup(f["username"], f["ciphertext"])},
    ),
    wire.PROV_FETCH_BACKUP: lambda p, f: (
        wire.PROV_REPLY_BACKUP,
        {"ciphertext": p.fetch_backup(f["username"], f["index"])},
    ),
    wire.PROV_BACKUP_COUNT: lambda p, f: (
        wire.PROV_REPLY_COUNT,
        {"value": p.backup_count(f["username"])},
    ),
    wire.PROV_UPLOAD_INCREMENTAL: lambda p, f: (
        wire.PROV_REPLY_ACK,
        _ack(p.upload_incremental(f["username"], f["blob"])),
    ),
    wire.PROV_FETCH_INCREMENTALS: lambda p, f: (
        wire.PROV_REPLY_BLOBS,
        {"blobs": p.fetch_incrementals(f["username"])},
    ),
    wire.PROV_NEXT_ATTEMPT: lambda p, f: (
        wire.PROV_REPLY_COUNT,
        {"value": p.next_attempt_number(f["username"])},
    ),
    wire.PROV_RESERVE_ATTEMPT: lambda p, f: (
        wire.PROV_REPLY_COUNT,
        {"value": p.reserve_attempt_number(f["username"])},
    ),
    wire.PROV_LOG_ATTEMPT: lambda p, f: (
        wire.PROV_REPLY_LOGGED,
        {
            "identifier": p.log_recovery_attempt(
                f["username"], f["attempt"], f["commitment"]
            )
        },
    ),
    wire.PROV_LOG_AND_PROVE: lambda p, f: (
        wire.PROV_REPLY_PROVEN,
        dict(
            zip(
                ("identifier", "proof"),
                p.log_and_prove(f["username"], f["attempt"], f["commitment"]),
            )
        ),
    ),
    wire.PROV_PROVE_INCLUSION: lambda p, f: (
        wire.PROV_REPLY_PROOF,
        {"proof": p.prove_inclusion(f["identifier"], f["value"])},
    ),
    wire.PROV_SHARE_PHASE_DONE: lambda p, f: (
        wire.PROV_REPLY_ACK,
        _ack(p.share_phase_done(f["username"], f["attempt"])),
    ),
    wire.PROV_STORE_REPLY: lambda p, f: (
        wire.PROV_REPLY_ACK,
        _ack(p.store_reply(f["username"], f["attempt"], f["reply"])),
    ),
    wire.PROV_FETCH_REPLIES: lambda p, f: (
        wire.PROV_REPLY_BLOBS,
        {"blobs": p.fetch_replies(f["username"], f["attempt"])},
    ),
    wire.PROV_LIST_ATTEMPTS: lambda p, f: (
        wire.PROV_REPLY_ENTRIES,
        {"entries": p.recovery_attempts_for(f["username"])},
    ),
}


def _ack(_unused) -> Dict:
    """Empty reply body for side-effect-only ops."""
    return {}


class WireProviderChannel(ProviderChannel):
    """Default transport: every provider call round-trips through bytes.

    ``transport`` is any ``bytes -> bytes`` callable (an endpoint's
    ``handle``, an in-memory loopback, or a fault-injecting test wrapper).
    Error frames re-raise as :class:`ProviderError` /
    :class:`~repro.service.batcher.ServiceTimeout`; a malformed reply
    raises :class:`~repro.core.wire.WireFormatError`.

    Traffic counters (``frames_sent`` / ``bytes_sent`` /
    ``bytes_received``) accumulate under a lock, so benchmarks can report
    the wire overhead of the provider leg; the channel itself is a
    stateless pass-through otherwise and safe to share across threads.
    """

    #: Lock contract, checked by `repro.lintkit`'s lock-discipline pass.
    _GUARDED_BY = {
        "frames_sent": "_counter_lock",
        "bytes_sent": "_counter_lock",
        "bytes_received": "_counter_lock",
    }

    def __init__(self, transport) -> None:
        if isinstance(transport, ProviderWireEndpoint):
            transport = transport.handle
        self._transport: Callable[[bytes], bytes] = transport
        self._counter_lock = threading.Lock()
        self.frames_sent = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def wire_stats(self) -> Dict[str, int]:
        """Snapshot of the traffic counters (frames and bytes both ways)."""
        with self._counter_lock:
            return {
                "frames_sent": self.frames_sent,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
            }

    def _call(self, op: int, fields: Dict, expected_kind: int) -> Dict:
        request = wire.encode_provider_request(op, fields)
        reply_bytes = self._transport(request)
        with self._counter_lock:
            self.frames_sent += 1
            self.bytes_sent += len(request)
            self.bytes_received += len(reply_bytes)
        kind, reply = wire.decode_provider_reply(reply_bytes)
        if kind == wire.PROV_REPLY_ERROR:
            self._raise_error(reply["status"], reply["message"])
        if kind != expected_kind:
            raise wire.WireFormatError(
                f"unexpected reply kind {kind} to provider op {op}"
            )
        return reply

    @staticmethod
    def _raise_error(status: int, message: str) -> None:
        from repro.service.batcher import ServiceTimeout

        if status == wire.PROV_ERR_TIMEOUT:
            raise ServiceTimeout(message)
        raise ProviderError(message)

    def upload_backup(self, username: str, ciphertext) -> int:
        """Round-trip the upload through bytes; returns the stored index."""
        return self._call(
            wire.PROV_UPLOAD_BACKUP,
            {"username": username, "ciphertext": ciphertext},
            wire.PROV_REPLY_COUNT,
        )["value"]

    def fetch_backup(self, username: str, index: int = -1):
        """Fetch one recovery ciphertext as wire bytes and decode it."""
        return self._call(
            wire.PROV_FETCH_BACKUP,
            {"username": username, "index": index},
            wire.PROV_REPLY_BACKUP,
        )["ciphertext"]

    def backup_count(self, username: str) -> int:
        """Ask how many backups the provider holds for a user."""
        return self._call(
            wire.PROV_BACKUP_COUNT, {"username": username}, wire.PROV_REPLY_COUNT
        )["value"]

    def upload_incremental(self, username: str, blob: bytes) -> None:
        """Append one incremental blob over the wire."""
        self._call(
            wire.PROV_UPLOAD_INCREMENTAL,
            {"username": username, "blob": blob},
            wire.PROV_REPLY_ACK,
        )

    def fetch_incrementals(self, username: str) -> List[bytes]:
        """Fetch every incremental blob over the wire."""
        return self._call(
            wire.PROV_FETCH_INCREMENTALS,
            {"username": username},
            wire.PROV_REPLY_BLOBS,
        )["blobs"]

    def next_attempt_number(self, username: str) -> int:
        """Ask for the first unused attempt slot."""
        return self._call(
            wire.PROV_NEXT_ATTEMPT, {"username": username}, wire.PROV_REPLY_COUNT
        )["value"]

    def reserve_attempt_number(self, username: str) -> int:
        """Atomically reserve the next attempt slot over the wire."""
        return self._call(
            wire.PROV_RESERVE_ATTEMPT, {"username": username}, wire.PROV_REPLY_COUNT
        )["value"]

    def log_recovery_attempt(
        self, username: str, attempt: int, commitment: bytes
    ) -> bytes:
        """Queue a log insertion over the wire; returns its identifier."""
        return self._call(
            wire.PROV_LOG_ATTEMPT,
            {"username": username, "attempt": attempt, "commitment": commitment},
            wire.PROV_REPLY_LOGGED,
        )["identifier"]

    def log_and_prove(self, username: str, attempt: int, commitment: bytes):
        """Insert + wait for an epoch; decodes ``(identifier, proof)``."""
        reply = self._call(
            wire.PROV_LOG_AND_PROVE,
            {"username": username, "attempt": attempt, "commitment": commitment},
            wire.PROV_REPLY_PROVEN,
        )
        return reply["identifier"], reply["proof"]

    def prove_inclusion(self, identifier: bytes, value: bytes):
        """Fetch a fresh proof (or None) through the tagged proof envelope."""
        return self._call(
            wire.PROV_PROVE_INCLUSION,
            {"identifier": identifier, "value": value},
            wire.PROV_REPLY_PROOF,
        )["proof"]

    def share_phase_done(self, username: str, attempt: int) -> None:
        """Send the share-phase-done liveness hint as a frame."""
        self._call(
            wire.PROV_SHARE_PHASE_DONE,
            {"username": username, "attempt": attempt},
            wire.PROV_REPLY_ACK,
        )

    def store_reply(self, username: str, attempt: int, encrypted_reply: bytes) -> None:
        """Escrow one encrypted HSM reply over the wire."""
        self._call(
            wire.PROV_STORE_REPLY,
            {"username": username, "attempt": attempt, "reply": encrypted_reply},
            wire.PROV_REPLY_ACK,
        )

    def fetch_replies(self, username: str, attempt: int) -> List[bytes]:
        """Fetch the escrowed replies for one attempt over the wire."""
        return self._call(
            wire.PROV_FETCH_REPLIES,
            {"username": username, "attempt": attempt},
            wire.PROV_REPLY_BLOBS,
        )["blobs"]

    def recovery_attempts_for(self, username: str) -> List[Tuple[bytes, bytes]]:
        """Fetch the user's logged attempts as (identifier, value) pairs."""
        return self._call(
            wire.PROV_LIST_ATTEMPTS, {"username": username}, wire.PROV_REPLY_ENTRIES
        )["entries"]


def provider_channel(provider, transport: str = "wire") -> ProviderChannel:
    """Wrap a provider(-facade) in the channel flavor ``transport`` names.

    ``"wire"`` builds the byte-level loopback
    (:class:`WireProviderChannel` over a :class:`ProviderWireEndpoint`);
    ``"direct"`` builds the no-serialization reference path.
    """
    if transport == "wire":
        return WireProviderChannel(ProviderWireEndpoint(provider))
    if transport == "direct":
        return DirectProviderChannel(provider)
    raise ValueError(f"unknown transport {transport!r}")
