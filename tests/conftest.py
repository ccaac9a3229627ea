"""Shared fixtures.

Protocol-level tests share one session-scoped deployment where possible
(HSM keygen is the expensive part); tests that fail-stop or compromise HSMs
build their own so they cannot poison neighbours.
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import SystemParams
from repro.core.protocol import Deployment


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def shared_params() -> SystemParams:
    # A generous puncture budget: the shared deployment serves dozens of
    # recoveries across the whole test session.
    return SystemParams.for_testing(
        num_hsms=16, cluster_size=4, pin_length=4, max_punctures=32
    )


@pytest.fixture(scope="session")
def shared_deployment(shared_params) -> Deployment:
    """A 16-HSM deployment shared by non-destructive integration tests.

    Tests using it must create fresh usernames and must not fail-stop or
    compromise HSMs (use ``fresh_deployment`` for that).
    """
    return Deployment.create(shared_params, rng=random.Random(7))


@pytest.fixture
def fresh_deployment(shared_params) -> Deployment:
    """A private deployment for destructive tests."""
    return Deployment.create(shared_params, rng=random.Random(11))


_COUNTER = {"n": 0}


@pytest.fixture
def unique_user() -> str:
    """A username never used before in this session."""
    _COUNTER["n"] += 1
    return f"user-{_COUNTER['n']}"


