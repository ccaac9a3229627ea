"""Fleet management: provisioning and operating N HSMs.

The fleet object owns device construction, installs the signer directory on
every device (the paper's "aggregate public key" distribution at setup)
once each key's proof of possession checks out,
publishes the master public key ``mpk = (pk_1, ..., pk_N)``, and provides
fault-injection and compromise helpers used by the evaluation.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.crypto.bloom import BloomParams
from repro.hsm.device import HsmDevice, HsmPublicInfo
from repro.log.distributed import LogConfig, SchnorrMultiSig
from repro.storage.blockstore import BlockStore


class HsmFleet:
    """All HSMs in one data center."""

    def __init__(
        self,
        num_hsms: int,
        bloom_params: BloomParams,
        log_config: Optional[LogConfig] = None,
        rng: Optional[random.Random] = None,
        store_factory: Optional[Callable[[int], BlockStore]] = None,
    ) -> None:
        if num_hsms < 1:
            raise ValueError("fleet needs at least one HSM")
        self.log_config = log_config or LogConfig()
        self.hsms: List[HsmDevice] = [
            HsmDevice(
                index=i,
                bloom_params=bloom_params,
                log_config=self.log_config,
                rng=rng,
                store=store_factory(i) if store_factory is not None else None,
            )
            for i in range(num_hsms)
        ]
        directory = self.signer_directory(h.public_info() for h in self.hsms)
        for hsm in self.hsms:
            hsm.install_signer_directory(directory)

    @staticmethod
    def signer_directory(infos: Iterable[HsmPublicInfo]) -> Dict[int, object]:
        """``index -> signing key`` for the devices' public infos, each key's
        proof of possession checked once here rather than on every device
        (N checks, not N²).  Certificates sum their signers' keys, so a key
        with no valid proof — a rogue ``a·G − Σ X_honest`` would let its
        maker sign for the whole set — is a ``ValueError``.  Each key gets
        its comb here (:meth:`SchnorrMultiSig.precompute_signer_key`, the
        only place a signer key gets one), first, so the check rides it."""
        directory: Dict[int, object] = {}
        for info in infos:
            SchnorrMultiSig.precompute_signer_key(info.sig_public)
            if not SchnorrMultiSig.verify_possession(info.index, info.sig_public, info.sig_proof):
                raise ValueError(f"HSM {info.index}: signing key has no valid proof of possession")
            directory[info.index] = info.sig_public
        return directory

    # -- public key material -------------------------------------------------
    def __len__(self) -> int:
        return len(self.hsms)

    def __getitem__(self, index: int) -> HsmDevice:
        return self.hsms[index]

    def __iter__(self):
        return iter(self.hsms)

    def master_public_key(self) -> List[HsmPublicInfo]:
        """The paper's mpk: every HSM's public info, in index order.

        Clients must obtain this authentically (the paper suggests logging
        membership changes and hardware attestation); here the deployment
        hands it over at client creation.
        """
        return [h.public_info() for h in self.hsms]

    def online(self) -> List[HsmDevice]:
        return [h for h in self.hsms if not h.is_failed]

    # -- fault / compromise injection -------------------------------------------
    def fail_random(self, count: int, rng: Optional[random.Random] = None) -> List[int]:
        """Fail-stop ``count`` random live HSMs; return their indices."""
        rng = rng or random.Random()
        online = [h.index for h in self.online()]
        if count < 0:
            raise ValueError(f"cannot fail a negative number of HSMs ({count})")
        if count > len(online):
            raise ValueError(
                f"cannot fail {count} HSMs: only {len(online)} of {len(self.hsms)}"
                " are online"
            )
        victims = rng.sample(online, count)
        for index in victims:
            self.hsms[index].fail_stop()
        return victims

    def restart_all(self) -> None:
        for hsm in self.hsms:
            hsm.restart()

    def restart(self, indices: Sequence[int]) -> None:
        """Bring specific failed HSMs back online (a replacement wave:
        chaos scenarios fail a batch via :meth:`fail_random` and later
        restart exactly that batch, modeling device replacement)."""
        for index in indices:
            self.hsms[index].restart()

    def compromise(self, indices: Sequence[int]):
        """Extract secrets from the given HSMs (the adaptive attacker)."""
        return [self.hsms[i].extract_secrets() for i in indices]

    # -- aggregate metering ------------------------------------------------------
    def total_op_counts(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for hsm in self.hsms:
            for op, units in hsm.meter.counts.items():
                totals[op] = totals.get(op, 0) + units
        return totals

    def reset_meters(self) -> None:
        for hsm in self.hsms:
            hsm.meter.reset()
