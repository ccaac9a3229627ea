"""Fault injection: a lossy/hostile transport must surface typed errors and
can never corrupt log or counter state.

``FlakyProviderChannel`` / ``FlakyChannel`` (``repro.sim.faults``) wrap the
provider RPC and client->HSM wire transports with deterministic seeded
frame faults — drops, duplicates (retransmission), bit-flips, truncation,
trailing garbage.  Sessions run through ``RecoveryService`` (provider leg)
and a plain deployment (HSM leg); each may fail, but only with an error
from the clean set, and afterwards:

- the O(1) attempt counters agree with the reference full-log scan;
- replaying the public log entries reproduces the provider's digest and
  nothing is left pending;
- a healthy client can still back up and recover.
"""

import random

import pytest

from repro.core.client import Client, RecoveryError
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.core.provider import ProviderError
from repro.core.wire import WireFormatError
from repro.log.authdict import AuthenticatedDictionary
from repro.service.channel import WireProviderChannel, provider_channel, proving_channels
from repro.sim.faults import FlakyChannel, FlakyProviderChannel, FrameDropped

#: The only exception types a faulty transport may surface.  Everything
#: else (KeyError, IndexError, struct.error, ...) is a harness bug.
CLEAN_ERRORS = (ProviderError, WireFormatError, RecoveryError, FrameDropped)

FAULT_SEEDS = range(10)


def _assert_state_uncorrupted(provider, usernames, exact: bool = False) -> None:
    """Counters never fall behind the reference scan; the digest replays.

    A dropped frame may *burn* a reserved attempt slot (the counter runs
    ahead of the log — by design, that only under-serves the user), but a
    counter behind the scan would hand out an already-logged attempt
    number: that is corruption.  ``exact=True`` asserts equality for runs
    whose provider leg was healthy (every reservation reached the log).
    """
    for username in usernames:
        counter = provider.next_attempt_number(username)
        scan = provider.scan_attempt_number(username)
        assert counter >= scan, f"attempt counter behind the log for {username!r}"
        if exact:
            assert counter == scan, f"attempt counters diverged for {username!r}"
    assert not provider.log.pending
    replayed = AuthenticatedDictionary.from_entries(provider.log.ordered_entries)
    assert replayed.digest == provider.log.digest


def test_flaky_provider_channel_surfaces_clean_errors_only():
    params = SystemParams.for_testing(num_hsms=8, cluster_size=3, max_punctures=96)
    deployment = Deployment.create(params, rng=random.Random(0xFA01))
    service = deployment.recovery_service(tick_interval=0.01, lease_timeout=0.5)
    usernames, faults_seen, failures = [], 0, 0
    with service:
        healthy_channel = service.provider_channel
        for seed in FAULT_SEEDS:
            flaky = FlakyProviderChannel(service.provider_endpoint, seed=seed)
            service.provider_channel = flaky
            username = f"prov-flaky-{seed}"
            usernames.append(username)
            client = service.new_client(username)
            message = b"payload-%d" % seed
            try:
                client.backup(message, pin="2468")
                assert client.recover("2468") == message
            except CLEAN_ERRORS:
                failures += 1
            faults_seen += sum(
                count
                for mode, count in flaky.faults.faults_injected.items()
                if mode != "ok"
            )
        # The injector must have actually fired, and the service must keep
        # serving: a healthy client succeeds on the same deployment.
        assert faults_seen > 0
        service.provider_channel = healthy_channel
        survivor = service.new_client("prov-flaky-survivor")
        usernames.append("prov-flaky-survivor")
        survivor.backup(b"still alive", pin="1357")
        assert survivor.recover("1357") == b"still alive"
    _assert_state_uncorrupted(deployment.provider, usernames)


def test_flaky_hsm_channel_never_corrupts_state():
    params = SystemParams.for_testing(num_hsms=8, cluster_size=3, max_punctures=96)
    deployment = Deployment.create(params, rng=random.Random(0xFA02))
    usernames, faults_seen = [], 0
    for seed in FAULT_SEEDS:
        channels = {
            index: FlakyChannel(deployment.fleet[index], seed=seed * 31 + index)
            for index in range(params.num_hsms)
        }
        username = f"hsm-flaky-{seed}"
        usernames.append(username)
        client = Client(
            username=username,
            params=params,
            provider=provider_channel(deployment.provider, "wire"),
            channels=proving_channels(
                channels.__getitem__,
                deployment.provider.prove_inclusion,
                deployment.provider.store_reply,
                deployment.provider.backup_share,
            ),
            mpk=deployment.fleet.master_public_key(),
        )
        message = b"payload-%d" % seed
        try:
            client.backup(message, pin="8642")
            assert client.recover("8642") == message
        except CLEAN_ERRORS:
            pass
        faults_seen += sum(
            count
            for channel in channels.values()
            for mode, count in channel.faults.faults_injected.items()
            if mode != "ok"
        )
    assert faults_seen > 0
    # A healthy client on the same deployment still recovers.
    survivor = deployment.new_client("hsm-flaky-survivor")
    usernames.append("hsm-flaky-survivor")
    survivor.backup(b"still alive", pin="9753")
    assert survivor.recover("9753") == b"still alive"
    _assert_state_uncorrupted(deployment.provider, usernames, exact=True)


def test_fault_injection_is_deterministic_per_seed():
    """Same seed -> same fault schedule (the suite must be reproducible)."""
    provider = Deployment.create(
        SystemParams.for_testing(num_hsms=4, cluster_size=2),
        rng=random.Random(3),
    ).provider

    def trace(seed: int):
        from repro.service.channel import ProviderWireEndpoint

        flaky = FlakyProviderChannel(ProviderWireEndpoint(provider), seed=seed)
        for call in range(20):
            try:
                flaky.backup_count(f"determinism-{call}")
            except CLEAN_ERRORS:
                pass
        return list(flaky.faults.faults_injected.items())

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)  # and the schedule really varies by seed
