"""Deployment glue: one object wiring fleet, provider, and clients.

``Deployment`` is the top of the public API: it provisions the HSM fleet
(with their outsourced key stores hosted *at the provider*, as in the
paper), installs the log-update runner, hands authenticated copies of the
master public key to clients, and drives maintenance (key rotation, garbage
collection, fault injection).
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional

from repro.core.client import Client
from repro.core.params import SystemParams
from repro.core.provider import ProviderError, ServiceProvider
from repro.hsm.fleet import HsmFleet
from repro.log.distributed import SchnorrMultiSig
from repro.log.membership import MembershipRegistry, MembershipVerifier
from repro.storage.blockstore import BlockStore
from repro.storage.journal import ProviderJournal, reconcile_open_intents


class Deployment:
    """A complete SafetyPin installation."""

    def __init__(
        self,
        params: SystemParams,
        fleet: HsmFleet,
        provider: ServiceProvider,
        restored: bool = False,
    ) -> None:
        """``restored=True`` (the :meth:`restore` path) skips genesis
        provisioning: the membership events and their certifying epoch are
        already in the restored log, so re-recording them would violate the
        log's write-once identifiers."""
        self.params = params
        self.fleet = fleet
        self.provider = provider
        self.clients: List[Client] = []
        # §6 third use: membership changes are logged before taking effect.
        self.membership = MembershipRegistry(provider.log)
        if restored:
            self.membership.resume_from(provider.log.items())
        else:
            self.membership.record_fleet(fleet.master_public_key())
            provider.run_log_update()

    # -- construction ---------------------------------------------------------
    @staticmethod
    def create(
        params: SystemParams,
        multisig: Optional[SchnorrMultiSig] = None,
        rng: Optional[random.Random] = None,
        shards: Optional[int] = None,
        store: Optional[BlockStore] = None,
    ) -> "Deployment":
        """Provision a deployment: HSM keygen, signer directory, log wiring.

        ``multisig`` does nothing: transitions are always signed with
        :class:`SchnorrMultiSig`.  It accepts ``None`` or a
        ``SchnorrMultiSig`` (``EcdsaMultiSig`` is its former name; anything
        else is a ``TypeError``) and keeps its position only
        because the end-to-end benchmark's workloads still pass it; it goes
        with the next change to that benchmark.

        ``params.log_shards`` is fixed here for the deployment's life
        (:meth:`restore` reads it back from the fleet).  ``shards``, a
        second spelling that overrides it, stays (like ``multisig``) only
        until the next change to the end-to-end benchmark, which passes it.

        ``store`` opts into durability: the provider journals every escrow
        mutation and committed epoch to it, each HSM writes its key array
        in place in its own region of it, and :meth:`restore` rebuilds the
        whole deployment from the same store after a crash.
        """
        if multisig is not None and not isinstance(multisig, SchnorrMultiSig):
            raise TypeError(f"transitions are signed with SchnorrMultiSig, not {multisig!r}")
        if shards is not None:
            params = dataclasses.replace(params, log_shards=shards)
        provider = ServiceProvider(params.log_config(), store=store)
        fleet = HsmFleet(
            num_hsms=params.num_hsms,
            bloom_params=params.bloom_params(),
            log_config=params.log_config(),
            rng=rng,
            store_factory=provider.storage_for_hsm,
        )
        provider.install_update_runner(lambda: provider.log.run_update(fleet.hsms))
        return Deployment(params=params, fleet=fleet, provider=provider)

    @staticmethod
    def restore(
        params: SystemParams,
        store: BlockStore,
        fleet: HsmFleet,
    ) -> "Deployment":
        """Rebuild a crashed deployment from its durable journal.

        Models the paper's restart reality: the provider *process* died
        (losing all memory), but the block store and the HSM fleet —
        separate trusted hardware whose keys and digests live inside their
        tamper boundaries — survived.  The journal is replayed (verifying
        the WAL chain, so corrupted / swapped / replayed records are
        detected, never silently restored), any epoch left half-committed
        by the crash is reconciled against the fleet's digests (completed
        if any committee device adopted it, rolled back otherwise — the
        epoch is atomic either way), each device is re-pointed at its
        key-array region of the store (nothing to replay: the device
        authenticates what it reads there), and the service wiring is rebuilt.

        The shard count is the fleet's (devices are the trusted side and
        fixed it at provisioning); a journal that disagrees is refused with
        :class:`ProviderError` before reconciliation writes anything.
        """
        num_shards = fleet.hsms[0].num_shards
        params = dataclasses.replace(params, log_shards=num_shards)
        journal = ProviderJournal(store)
        state = journal.replay_state()
        if state.num_shards != num_shards:
            raise ProviderError(
                f"journal holds {state.num_shards}-shard state but the fleet"
                f" tracks {num_shards} shards"
            )
        reconcile_open_intents(state, journal, fleet.hsms)
        provider = ServiceProvider.restore(params.log_config(), journal, state)
        for hsm in fleet.hsms:
            hsm.rehost_store(provider.storage_for_hsm(hsm.index))
        provider.install_update_runner(lambda: provider.log.run_update(fleet.hsms))
        return Deployment(params=params, fleet=fleet, provider=provider, restored=True)

    # -- clients -----------------------------------------------------------------
    def new_client(self, username: str, transport: str = "wire") -> Client:
        """Create a client holding the authentic mpk.  It stores no PIN:
        every PIN-consuming operation takes the PIN explicitly.

        The client reaches HSMs only through the narrow ``Channel``
        interface and the provider only through the matching
        ``ProviderChannel``; the default ``"wire"`` transport serializes
        every request/reply on both legs through ``repro.core.wire`` (pass
        ``"direct"`` for the no-serialization reference path used by tests
        and micro-benchmarks).
        """
        from repro.service.channel import (
            direct_channels,
            provider_channel,
            wire_channels,
        )

        factory = (wire_channels if transport == "wire" else direct_channels)(self.fleet)
        client = Client(
            username=username,
            params=self.params,
            provider=provider_channel(self.provider, transport),
            channels=factory,
            mpk=self.fleet.master_public_key(),
        )
        self.clients.append(client)
        return client

    def recovery_service(self, **kwargs) -> "object":
        """A concurrent :class:`~repro.service.recovery.RecoveryService`
        front end over this deployment (batched epochs, per-HSM queues; one
        epoch lane per log shard)."""
        from repro.service.recovery import RecoveryService

        return RecoveryService(self, **kwargs)

    # -- maintenance ----------------------------------------------------------------
    def run_log_update(self) -> None:
        self.provider.run_log_update()

    def rotate_keys_if_needed(self) -> List[int]:
        """Rotate any HSM whose Bloom key is half-deleted (§9.1).

        Returns the indices rotated.  Clients get the rotated keys before
        the epoch that logs them: the old keys are already destroyed, so a
        failed epoch (its error propagates) must not leave them in use.
        """
        rotated = []
        for hsm in self.fleet.online():
            if hsm.needs_rotation():
                info = hsm.rotate_keys()
                self.membership.record_rotation(info)
                rotated.append(hsm.index)
        if rotated:
            mpk = self.fleet.master_public_key()
            for client in self.clients:
                client.refresh_mpk(mpk)
            self.provider.run_log_update()
        return rotated

    def verify_published_keys(self) -> None:
        """Client-side mpk verification against the logged membership
        history (raises MembershipViolation on any substitution)."""
        MembershipVerifier.verify_mpk(
            self.fleet.master_public_key(), list(self.provider.log.items())
        )

    def garbage_collect_log(self) -> None:
        self.provider.log.garbage_collect(self.fleet.hsms)

    # -- fault injection ----------------------------------------------------------------
    def fail_random_hsms(self, count: int, rng: Optional[random.Random] = None) -> List[int]:
        return self.fleet.fail_random(count, rng)

    def restart_all_hsms(self) -> None:
        self.fleet.restart_all()
