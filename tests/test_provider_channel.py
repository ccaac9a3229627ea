"""The provider RPC surface: loopback round-trips, typed errors, and the
wire-vs-direct equivalence acceptance property.

The untrusted provider is a *network service*: every interaction of the
client's provider leg (backup storage, attempt logging, proof refresh,
reply escrow) crosses ``core/wire`` frames through a ``ProviderChannel``.
These tests pin three contracts:

- each RPC method round-trips through the in-memory byte loopback;
- failures cross the boundary as typed error frames (``ProviderError`` /
  ``ServiceTimeout`` client-side) — never a raw ``KeyError`` /
  ``IndexError`` or a live exception object;
- a fixed seeded backup+recovery workload is *byte-identical* between the
  wire path and the direct-call reference path: same op-count metering,
  same log digest, same log entries, same plaintexts.
"""

import random
import secrets

import pytest

from repro.core import wire
from repro.core.identifiers import attempt_identifier
from repro.core.lhe import LheCiphertext, series_tag
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError, ServiceProvider
from repro.crypto.bfe import BfeCiphertext
from repro.crypto.ec import P256
from repro.log.authdict import InclusionProof, PathStep
from repro.metering import OpMeter
from repro.service.batcher import ServiceTimeout
from repro.service.channel import (
    DirectProviderChannel,
    ProviderWireEndpoint,
    WireProviderChannel,
)
from repro.service.recovery import BatchedProviderFacade


def _loopback(provider) -> WireProviderChannel:
    return WireProviderChannel(ProviderWireEndpoint(provider))


def _ciphertext(tag: bytes = b"ct") -> LheCiphertext:
    """A stand-in recovery ciphertext: its one share (a ciphertext carries
    at least one, under its series tag) opens nowhere."""
    salt = (b"salt-" + tag).ljust(16, b".")  # a salt is 16 bytes
    share = BfeCiphertext(series_tag("wire-user", salt), P256.generator, 0, (), b"share-" + tag)
    return LheCiphertext(
        salt=salt,
        username="wire-user",
        share_ciphertexts=(share,),
        payload=b"payload-" + tag,
        threshold=2,
        num_hsms=4,
    )


class TestLoopbackRoundTrips:
    """Every RPC method crosses bytes and lands on the real provider."""

    def test_backup_storage(self):
        provider = ServiceProvider()
        channel = _loopback(provider)
        assert channel.upload_backup("wire-user", _ciphertext(b"0")) == 0
        assert channel.upload_backup("wire-user", _ciphertext(b"1")) == 1
        assert channel.backup_count("wire-user") == 2
        # A fetch answers with the stored ciphertext's header only.
        assert channel.fetch_backup("wire-user", 0) == _ciphertext(b"0").header()
        assert channel.fetch_backup("wire-user") == _ciphertext(b"1").header()
        # The stored object is a decoded copy, never the caller's object.
        original = _ciphertext(b"2")
        channel.upload_backup("wire-user", original)
        assert provider.fetch_backup("wire-user") == original
        assert provider.fetch_backup("wire-user") is not original

    def test_incrementals_and_reply_escrow(self):
        channel = _loopback(ServiceProvider())
        channel.upload_incremental("wire-user", b"day1")
        channel.upload_incremental("wire-user", b"day2")
        assert channel.fetch_incrementals("wire-user") == [b"day1", b"day2"]
        channel.store_reply("wire-user", 0, b"reply-blob")
        assert channel.fetch_replies("wire-user", 0) == [b"reply-blob"]
        assert channel.fetch_replies("wire-user", 7) == []

    def test_attempt_numbering_and_logging(self):
        channel = _loopback(ServiceProvider())
        assert channel.next_attempt_number("wire-user") == 0
        assert channel.reserve_attempt_number("wire-user") == 0
        assert channel.reserve_attempt_number("wire-user") == 1
        assert channel.log_recovery_attempt("wire-user", 2, b"commit") is None
        assert channel.prove_inclusion(attempt_identifier("wire-user", 2), b"commit") is None
        assert channel.next_attempt_number("wire-user") == 3
        channel.share_phase_done("wire-user", 2)  # plain provider: no-op ack

    def test_prove_inclusion_absent_is_none(self):
        channel = _loopback(ServiceProvider())
        assert channel.prove_inclusion(b"never-committed", b"v") is None

    def test_recovery_attempts_empty(self):
        channel = _loopback(ServiceProvider())
        assert channel.recovery_attempts_for("wire-user") == []

    def test_traffic_counters_accumulate(self):
        channel = _loopback(ServiceProvider())
        channel.upload_backup("wire-user", _ciphertext())
        channel.backup_count("wire-user")
        stats = channel.wire_stats()
        assert stats["frames_sent"] == 2
        assert stats["bytes_sent"] > 0 and stats["bytes_received"] > 0


_PROOF = InclusionProof(
    steps=(PathStep(idh=b"i" * 32, value=b"v", other=b"o" * 32),),
    left=b"l" * 32,
    right=b"r" * 32,
)

#: One canned value per field kind: the table is the test vector.
_CANNED = {
    "text": "wire-user",
    "blob": b"\x00blob\xff",
    "varint": 7,
    "i32": -1,
    "recovery_ct": _ciphertext(),
    "recovery_header": _ciphertext().header(),
    "opt_proof": _PROOF,
    "blobs": [b"day1", b"", b"day3"],
    "entries": [(b"id-0", b"h0"), (b"id-1", b"h1")],
}


class _RecordingProvider:
    """Answers every catalog method with the canned value of the row's
    reply schema (none for an ack) and records ``(method, positional
    args)``."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, method):
        (op,) = [op for op in wire.PROVIDER_OPS if op.method == method]
        values = [_CANNED[kind] for _, kind in wire.PROVIDER_REPLY_SCHEMAS[op.reply]]

        def call(*args):
            self.calls.append((method, args))
            return values[0] if values else None

        return call


class TestCatalogDerivation:
    """Both channel classes and the service facade are generated from
    ``wire.PROVIDER_OPS``; every row is exercised, not just the rows a
    whole recovery happens to reach."""

    @pytest.mark.parametrize("op", wire.PROVIDER_OPS, ids=lambda op: op.method)
    def test_every_catalog_row_round_trips(self, op):
        args = tuple(_CANNED[kind] for _, kind in op.request)
        wired_provider, direct_provider = _RecordingProvider(), _RecordingProvider()
        wired, direct = _loopback(wired_provider), DirectProviderChannel(direct_provider)
        wired_result = getattr(wired, op.method)(*args)
        assert wired_result == getattr(direct, op.method)(*args)
        assert wired_provider.calls == direct_provider.calls == [(op.method, args)]
        assert wired.wire_stats()["frames_sent"] == 1
        if op.defaults:  # omitted trailing fields take the row's defaults
            short = args[: -len(op.defaults)]
            assert getattr(wired, op.method)(*short) == wired_result
            assert getattr(direct, op.method)(*short) == wired_result
            assert wired_provider.calls[-1] == (op.method, short + op.defaults)
            assert direct_provider.calls[-1] == (op.method, short + op.defaults)

    @pytest.mark.parametrize("make", [_loopback, DirectProviderChannel])
    def test_wrong_arity_is_a_type_error_before_any_frame(self, make):
        provider = _RecordingProvider()
        channel = make(provider)
        for method, args in (
            ("backup_count", ()),
            ("backup_count", ("u", 1)),
            ("fetch_backup", ()),
            ("fetch_backup", ("u", 0, 1)),
            ("store_reply", ("u", 0)),
        ):
            with pytest.raises(TypeError, match=method):
                getattr(channel, method)(*args)
        with pytest.raises(TypeError):
            channel.backup_count(username="u")  # positional, in row order
        assert provider.calls == []
        if isinstance(channel, WireProviderChannel):
            assert channel.wire_stats()["frames_sent"] == 0

    @pytest.mark.parametrize(
        "cls", [WireProviderChannel, DirectProviderChannel, BatchedProviderFacade]
    )
    def test_each_class_owns_every_catalog_method(self, cls):
        # benchmarks/e2e/tracer.py patches vars(owner)[attr]: the methods
        # must live in the concrete class's own __dict__, not on a base.
        for op in wire.PROVIDER_OPS:
            assert callable(vars(cls)[op.method]), (cls.__name__, op.method)


class TestTypedErrors:
    """Failures travel as typed frames, never as raw Python exceptions."""

    def test_out_of_range_fetch_is_provider_error(self):
        provider = ServiceProvider()
        provider.upload_backup("u", _ciphertext())
        for surface in (provider, DirectProviderChannel(provider), _loopback(provider)):
            with pytest.raises(ProviderError, match="out of range"):
                surface.fetch_backup("u", 5)
            with pytest.raises(ProviderError, match="out of range"):
                surface.fetch_backup("u", -2)

    def test_unknown_username_fetch_is_provider_error(self):
        for surface in (ServiceProvider(), _loopback(ServiceProvider())):
            with pytest.raises(ProviderError, match="no backups"):
                surface.fetch_backup("ghost")

    def test_duplicate_log_attempt_is_typed_over_the_wire(self):
        provider = ServiceProvider()
        channel = _loopback(provider)
        channel.log_recovery_attempt("u", 0, b"h0")
        # Directly the provider raises KeyError (the batcher relies on it);
        # across the wire it must become a typed ProviderError frame.
        with pytest.raises(KeyError):
            provider.log_recovery_attempt("u", 0, b"h1")
        with pytest.raises(ProviderError):
            channel.log_recovery_attempt("u", 0, b"h1")

    def test_malformed_request_answers_bad_request_frame(self):
        endpoint = ProviderWireEndpoint(ServiceProvider())
        for junk in (b"", b"\x01", b"\x01\x63", b"\xff" * 40):
            kind, fields = wire.decode_provider_reply(endpoint.handle(junk))
            assert kind == wire.PROV_REPLY_ERROR
            assert fields["status"] == wire.PROV_ERR_BAD_REQUEST

    def test_service_timeout_crosses_as_typed_status(self):
        class TimingOutProvider:
            def log_and_prove(self, username, attempt, commitment):
                raise ServiceTimeout("no epoch committed within 0.1s")

        channel = _loopback(TimingOutProvider())
        with pytest.raises(ServiceTimeout):
            channel.log_and_prove("u", 0, b"c")

    def test_unencodable_reply_answers_typed_error_frame(self):
        class OutOfContractProvider:
            def backup_count(self, username):
                return 1 << 40  # does not fit the COUNT reply's varint (a u32)

        channel = _loopback(OutOfContractProvider())
        with pytest.raises(ProviderError, match="u32 out of range"):
            channel.backup_count("u")

        # A wrong-*typed* return is out of contract too: whatever the codec
        # raises on it answers with an error frame naming the type.
        class WrongTypedProvider:
            def prove_inclusion(self, identifier, value):
                return 5

            def backup_count(self, username):
                return "seven"

            def fetch_incrementals(self, username):
                return [1, 2]

        channel = _loopback(WrongTypedProvider())
        with pytest.raises(ProviderError, match="int"):
            channel.prove_inclusion(b"id", b"v")
        with pytest.raises(ProviderError, match="TypeError"):
            channel.backup_count("u")
        with pytest.raises(ProviderError, match="TypeError"):
            channel.fetch_incrementals("u")

    def test_unexpected_reply_kind_is_wire_error(self):
        channel = WireProviderChannel(
            lambda request: wire.encode_provider_reply(wire.PROV_REPLY_ACK, {})
        )
        with pytest.raises(wire.WireFormatError):
            channel.backup_count("u")


class TestWireDirectEquivalence:
    """Acceptance: the byte-framed provider leg changes *nothing* about the
    computation — op counts, log digest, log entries, and plaintexts are
    byte-identical to the direct-call reference path."""

    METERED_OPS = ("ec_mult", "ecdsa_verify", "sha256_block", "aes_block")

    def run_seeded_workload(self, transport: str):
        """One fixed backup/recovery workload; all randomness from one PRNG
        so the trace is a pure function of the code path under test."""
        stream = random.Random(0xFEEDFACE)
        originals = (secrets.token_bytes, secrets.randbelow)
        secrets.token_bytes = lambda n=32: stream.getrandbits(8 * n).to_bytes(n, "big")
        secrets.randbelow = lambda bound: stream.randrange(bound)
        try:
            meter = OpMeter()
            with meter.attached():
                params = SystemParams.for_testing(
                    num_hsms=6, cluster_size=3, max_punctures=32
                )
                deployment = Deployment.create(params, rng=random.Random(7))
                client = deployment.new_client("equiv-user", transport=transport)
                client.enable_incremental_backups(pin="1234")
                client.incremental_backup(b"increment-1")
                client.backup(b"equivalence payload", pin="1234")
                increments = client.recover_incrementals(pin="1234")
                recovered = client.recover(pin="1234")
                attempts = client.audit_my_recovery_attempts()
                escrowed = client.provider.fetch_replies("equiv-user", 1)
            provider = deployment.provider
            return {
                "ops": {op: meter.counts[op] for op in self.METERED_OPS},
                "digest": provider.log.digest,
                "entries": list(provider.log.ordered_entries),
                "recovered": recovered,
                "increments": increments,
                "attempts": attempts,
                "escrowed": escrowed,
            }
        finally:
            secrets.token_bytes, secrets.randbelow = originals

    def test_wire_path_is_byte_identical_to_direct(self):
        direct = self.run_seeded_workload("direct")
        wired = self.run_seeded_workload("wire")
        assert direct["recovered"] == b"equivalence payload"
        assert direct["increments"] == [b"increment-1"]
        assert wired["ops"] == direct["ops"]
        assert wired["digest"] == direct["digest"]
        assert wired["entries"] == direct["entries"]
        assert wired == direct
