"""Property-based tests over location-hiding encryption.

Uses the deployed Bloom-filter encryption with a small fixed key universe
(never punctured) so hypothesis can explore messages, PINs, thresholds, and
failure patterns without paying keygen per example.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.lhe import LheError, LocationHidingEncryption
from repro.crypto.bfe import BloomFilterEncryption
from repro.crypto.bloom import BloomParams
from repro.storage.blockstore import InMemoryBlockStore

N_KEYS = 10
_RNG = random.Random(43)
_PAIRS = [
    BloomFilterEncryption.keygen(
        BloomParams.for_punctures(1, failure_exponent=1), InMemoryBlockStore(), _RNG
    )
    for _ in range(N_KEYS)
]
PUBLICS = [public for public, _ in _PAIRS]
SECRETS = [secret for _, secret in _PAIRS]


def _decrypt(lhe, ct, pin, drop=frozenset()):
    cluster = lhe.select(ct.salt, pin)
    context = lhe.context_for(ct.username, ct.salt, PUBLICS, pin)
    shares = []
    for position, index in enumerate(cluster):
        if position in drop:
            shares.append(None)
        else:
            shares.append(lhe.decrypt_share(SECRETS[index], position, ct, context))
    return lhe.reconstruct(ct, shares, context)


@given(
    message=st.binary(max_size=300),
    pin=st.text(alphabet="0123456789", min_size=4, max_size=4),
    username=st.text(
        alphabet=st.characters(min_codepoint=48, max_codepoint=122), max_size=12
    ),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_roundtrip_property(message, pin, username):
    lhe = LocationHidingEncryption(N_KEYS, 4, 2)
    ct = lhe.encrypt(PUBLICS, pin, message, username=username)
    assert _decrypt(lhe, ct, pin) == message


@given(
    threshold=st.integers(1, 4),
    extra=st.integers(0, 2),
    data=st.data(),
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_threshold_subset_reconstructs(threshold, extra, data):
    cluster_size = threshold + extra
    lhe = LocationHidingEncryption(N_KEYS, cluster_size, threshold)
    ct = lhe.encrypt(PUBLICS, "7777", b"msg", username="prop")
    # Drop everything except a random size-`threshold` subset of positions.
    keep = set(
        data.draw(
            st.permutations(list(range(cluster_size)))
        )[:threshold]
    )
    drop = frozenset(range(cluster_size)) - keep
    assert _decrypt(lhe, ct, "7777", drop=drop) == b"msg"


@given(data=st.data())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_below_threshold_never_reconstructs(data):
    lhe = LocationHidingEncryption(N_KEYS, 4, 3)
    ct = lhe.encrypt(PUBLICS, "1212", b"msg", username="prop")
    keep = set(data.draw(st.permutations([0, 1, 2, 3]))[:2])  # t-1 shares
    drop = frozenset(range(4)) - keep
    with pytest.raises(LheError):
        _decrypt(lhe, ct, "1212", drop=drop)


@given(
    pin_a=st.text(alphabet="0123456789", min_size=4, max_size=4),
    pin_b=st.text(alphabet="0123456789", min_size=4, max_size=4),
    salt=st.binary(min_size=8, max_size=16),
)
@settings(max_examples=40)
def test_select_determinism_and_sensitivity(pin_a, pin_b, salt):
    lhe = LocationHidingEncryption(1000, 8, 4)
    sel_a = lhe.select(salt, pin_a)
    assert sel_a == lhe.select(salt, pin_a)
    if pin_a != pin_b:
        # With 1000^8 cluster assignments, distinct PINs virtually never
        # collide; a collision here would indicate a seeding bug.
        assert sel_a != lhe.select(salt, pin_b)
