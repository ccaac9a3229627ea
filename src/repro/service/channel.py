"""The client-side transport boundaries: client ↔ HSM and client ↔ provider.

A :class:`Channel` is the only way client code reaches an HSM: one
``decrypt_share`` method.  The default transport (:class:`WireChannel`)
serializes the request and the reply through ``repro.core.wire`` — the
client and the device exchange *bytes*, never live Python objects, so the
trust boundary of the paper (everything between client and HSM crosses the
untrusted provider's network) is real in the reproduction too.

A :class:`ProviderChannel` is the same idea for the client ↔ provider leg.
Its surface is the closed op catalog ``wire.PROVIDER_OPS``, one row per op
and spelled nowhere else: :func:`catalog_methods` derives each concrete
channel's methods from the rows and :class:`ProviderWireEndpoint`
dispatches on them.  The default transport (:class:`WireProviderChannel`
over the endpoint) frames every call through ``repro.core.wire``; failures
come back as typed ``PROV_REPLY_ERROR`` frames and are re-raised
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
comb and signed-window ladders in ``repro.crypto.ec`` — the channel
turnaround (and therefore per-HSM queue drain rate in
``service.workers``) tracks those rates rather than the naive fixed-window
cost.

Thread safety: channels are stateless pass-throughs (safe to share across
threads); serialization of *device* state is not their job — wrap them
with ``service.workers.queued_channels`` so every call lands on the
device's single FIFO worker, as the service does.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Sequence, Tuple

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
from repro.service.batcher import ServiceTimeout

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
        """Decode, run the device, encode the outcome (reply or status).  A
        request that does not decode is refused before the device sees it,
        and a reply the wire cannot carry is answered as a refusal."""
        try:
            request = wire.decode_decrypt_request(request_bytes)
        except wire.WireFormatError as exc:
            return wire.encode_decrypt_error(wire.REPLY_REFUSED, f"malformed request: {exc}")
        try:
            reply = self._device.decrypt_share(request)
        except _ERROR_TYPES as exc:
            return wire.encode_decrypt_error(_status_for(exc), str(exc))
        try:
            return wire.encode_decrypt_reply(reply)
        except wire.WireFormatError as exc:
            return wire.encode_decrypt_error(wire.REPLY_REFUSED, f"unencodable reply: {exc}")


class WireChannel(Channel):
    """Default transport: every request/reply round-trips through bytes.
    ``transport`` is an :class:`HsmWireEndpoint` or any ``bytes -> bytes``
    callable standing in for one (a fault-injecting wrapper, say)."""

    def __init__(self, transport) -> None:
        if isinstance(transport, HsmWireEndpoint):
            transport = transport.handle_decrypt_share
        self._transport: Callable[[bytes], bytes] = transport

    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Round-trip through bytes; re-raise error statuses client-side.
        A reply frame that does not decode is a refusal."""
        reply_bytes = self._transport(wire.encode_decrypt_request(request))
        try:
            status, payload = wire.decode_decrypt_reply(reply_bytes)
        except wire.WireFormatError as exc:
            raise HsmRefusedError(f"malformed reply: {exc}") from exc
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
_OPS_BY_TAG = {op.tag: op for op in wire.PROVIDER_OPS}


def catalog_methods(cls):
    """Class decorator: give ``cls`` one method per row of
    ``wire.PROVIDER_OPS`` that its body does not define itself.  A
    generated method takes the row's fields positionally, makes the arity
    check ``def`` would have made (so a wrong call raises before any frame
    is sent), fills omitted trailing fields from the row's defaults and
    calls ``self._invoke(op, args)``.  It is set in ``cls``'s *own*
    ``__dict__`` — per concrete class, never on a shared base — because the
    benchmark's tracer patches a method where ``vars(cls)`` holds it."""
    for op in wire.PROVIDER_OPS:
        if op.method not in vars(cls):
            setattr(cls, op.method, _catalog_method(op))
    return cls


def _catalog_method(op: wire.ProviderOp):
    most = len(op.request)
    least = most - len(op.defaults)

    def method(self, *args):
        if not least <= len(args) <= most:
            raise TypeError(
                f"{op.method}() takes {least} to {most} arguments, got {len(args)}"
            )
        return self._invoke(op, args + op.defaults[len(args) - least:])

    method.__name__ = op.method
    method.__doc__ = f"Provider op {op.tag} (see ``wire.PROVIDER_OPS``)."
    return method


class ProviderChannel:
    """Narrow interface between a client and the service provider: client
    code holds a ProviderChannel, never a live
    :class:`~repro.core.provider.ServiceProvider`.  A concrete channel
    defines ``_invoke(op, args)`` and takes its methods from the op catalog
    through :func:`catalog_methods`."""


@catalog_methods
class DirectProviderChannel(ProviderChannel):
    """In-process reference path: call the provider object directly.

    Kept so tests and benchmarks can measure exactly what the wire framing
    costs; production wiring uses :class:`WireProviderChannel`.
    """

    def __init__(self, provider) -> None:
        self._provider = provider

    def _invoke(self, op: wire.ProviderOp, args: Tuple):
        return getattr(self._provider, op.method)(*args)


class ProviderWireEndpoint:
    """Provider-side half of the wire transport: bytes in, bytes out.

    Decodes each request frame, calls the provider method its catalog row
    names, and encodes the outcome.  *Every* failure becomes a typed error
    frame: malformed requests answer ``PROV_ERR_BAD_REQUEST``, provider
    refusals ``PROV_ERR_PROVIDER``, epoch timeouts ``PROV_ERR_TIMEOUT``,
    and — defense in depth — a raw ``KeyError`` / ``IndexError`` /
    ``ValueError`` escaping the provider, or the ``TypeError`` /
    ``AttributeError`` of encoding a wrong-typed return value, is converted
    rather than propagated, so no Python exception ever crosses the wire.
    """

    def __init__(self, provider) -> None:
        self._provider = provider

    def handle(self, request_bytes: bytes) -> bytes:
        """Serve one framed request; always returns a reply frame."""
        try:
            tag, fields = wire.decode_provider_request(request_bytes)
        except wire.WireFormatError as exc:
            return wire.encode_provider_error(wire.PROV_ERR_BAD_REQUEST, str(exc))
        op = _OPS_BY_TAG[tag]
        try:
            result = getattr(self._provider, op.method)(
                *(fields[name] for name, _ in op.request)
            )
            # The reply schema's arity says how a result travels: two
            # fields are the tuple, one is the value, none is an ack (zip
            # then drops the result).
            schema = wire.PROVIDER_REPLY_SCHEMAS[op.reply]
            values = result if len(schema) > 1 else (result,)
            reply = {name: value for (name, _), value in zip(schema, values)}
            # Encoding inside the try: a provider returning an
            # out-of-contract value (unencodable field) must also answer
            # with an error frame, not crash the connection handler.
            return wire.encode_provider_reply(op.reply, reply)
        except ServiceTimeout as exc:
            return wire.encode_provider_error(wire.PROV_ERR_TIMEOUT, str(exc))
        except (ProviderError, wire.WireFormatError) as exc:
            return wire.encode_provider_error(wire.PROV_ERR_PROVIDER, str(exc))
        except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
            return wire.encode_provider_error(
                wire.PROV_ERR_PROVIDER, f"{type(exc).__name__}: {exc}"
            )


@catalog_methods
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

    def _invoke(self, op: wire.ProviderOp, args: Tuple):
        request = wire.encode_provider_request(
            op.tag, dict(zip((name for name, _ in op.request), args))
        )
        reply_bytes = self._transport(request)
        with self._counter_lock:
            self.frames_sent += 1
            self.bytes_sent += len(request)
            self.bytes_received += len(reply_bytes)
        kind, reply = wire.decode_provider_reply(reply_bytes)
        if kind == wire.PROV_REPLY_ERROR:
            if reply["status"] == wire.PROV_ERR_TIMEOUT:
                raise ServiceTimeout(reply["message"])
            raise ProviderError(reply["message"])
        if kind != op.reply:
            raise wire.WireFormatError(
                f"unexpected reply kind {kind} to provider op {op.tag}"
            )
        values = tuple(reply[name] for name, _ in wire.PROVIDER_REPLY_SCHEMAS[kind])
        if len(values) > 1:
            return values
        return values[0] if values else None


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
