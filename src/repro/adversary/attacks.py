"""Concrete attacks from the paper's threat model.

These run against the real protocol objects — no mocks — so a passing
security test means the deployed code path actually resisted the attack.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.lhe import LheCiphertext, LheError, LocationHidingEncryption
from repro.crypto.bfe import BfeSecretKey, PuncturedKeyError
from repro.crypto.ec import P256
from repro.crypto.elgamal import ElGamalCiphertext, HashedElGamal
from repro.crypto.gcm import AuthenticationError
from repro.crypto.shamir import SHARE, Share
from repro.hsm.device import DecryptShareRequest, HsmRefusedError, StolenSecrets
from repro.log.distributed import DistributedLog, UpdateRound


# ---------------------------------------------------------------------------
# Brute-force PIN guessing through the front door
# ---------------------------------------------------------------------------
class BruteForcePinAttacker:
    """Tries PINs via the legitimate recovery protocol.

    The distributed log limits attempts per username; the attack must die
    after ``max_attempts_per_user`` guesses no matter how many PINs remain.
    """

    def __init__(self, client_factory, username: str) -> None:
        # client_factory() -> a Client bound to the victim's username (the
        # attacker controls the provider, so it can impersonate the account).
        self._client_factory = client_factory
        self.username = username
        self.guesses_made = 0

    def run(self, pin_candidates: Iterable[str]) -> Optional[bytes]:
        """Guess until success or until the system refuses more attempts."""
        from repro.core.client import RecoveryError

        client = self._client_factory()
        for pin in pin_candidates:
            self.guesses_made += 1
            try:
                return client.recover(pin)
            except RecoveryError:
                continue
            except KeyError:
                break  # log refused the attempt identifier
        return None


# ---------------------------------------------------------------------------
# Adaptive HSM corruption (Theorem 10 / Remark 5)
# ---------------------------------------------------------------------------
def open_with_keys(
    lhe: LocationHidingEncryption,
    ciphertext: LheCiphertext,
    keys: Mapping[int, BfeSecretKey],
    pin: str,
    mpk: Sequence,
) -> Optional[bytes]:
    """Open ``ciphertext`` under ``pin`` with only the HSM keys in ``keys``.

    Each cluster position whose key is held is decrypted, every other one is
    ⊥, and the plaintext is reconstructed — or ``None`` if it does not open.
    Appendix A's games (both challengers and the Remark 5 adversary) and the
    stolen-key attack all open shares here.
    """
    cluster = lhe.select(ciphertext.salt, pin)
    context = lhe.context_for(ciphertext.username, ciphertext.salt, mpk, pin)

    def shares() -> Iterator[Optional[Share]]:
        for position, index in enumerate(cluster):
            if index not in keys:
                yield None
                continue
            try:
                yield lhe.decrypt_share(keys[index], position, ciphertext, context)
            except (PuncturedKeyError, AuthenticationError, LheError):
                yield None

    try:
        return lhe.reconstruct(ciphertext, shares(), context)
    except LheError:
        return None


def decrypt_with_stolen_secrets(
    lhe: LocationHidingEncryption,
    ciphertext: LheCiphertext,
    stolen: Sequence[StolenSecrets],
    pin_guess: str,
    mpk: Sequence,
) -> Optional[bytes]:
    """Attempt decryption of ``ciphertext`` using only stolen HSM secrets.

    Succeeds only if (a) ``pin_guess`` is the right PIN *and* (b) the stolen
    set covers >= t members of the hidden cluster — exactly the win
    condition of the security game.
    """
    keys = {s.index: s.bfe_secret for s in stolen}
    return open_with_keys(lhe, ciphertext, keys, pin_guess, mpk)


class AdaptiveCorruptionAttacker:
    """Remark 5's generic attack: corrupt a budget of HSMs chosen *after*
    seeing the ciphertext, testing one PIN guess per ``n`` corruptions."""

    def __init__(self, fleet, lhe: LocationHidingEncryption, budget: int) -> None:
        self.fleet = fleet
        self.lhe = lhe
        self.budget = budget
        self.corrupted: List[int] = []

    def run(
        self,
        ciphertext: LheCiphertext,
        pin_candidates: Sequence[str],
        mpk: Sequence,
    ) -> Optional[bytes]:
        stolen: List[StolenSecrets] = []
        seen = set()
        for pin in pin_candidates:
            cluster = self.lhe.select(ciphertext.salt, pin)
            for index in cluster:
                if index in seen:
                    continue
                if len(seen) >= self.budget:
                    break
                seen.add(index)
                stolen.append(self.fleet[index].extract_secrets())
            self.corrupted = sorted(seen)
            result = decrypt_with_stolen_secrets(self.lhe, ciphertext, stolen, pin, mpk)
            if result is not None:
                return result
            if len(seen) >= self.budget:
                break
        return None


# ---------------------------------------------------------------------------
# A relay that redirects the HSMs' replies
# ---------------------------------------------------------------------------
class ReplyKeySwappingRelay:
    """Carries a client's decrypt requests to the HSMs — the provider's
    network, say — and swaps the reply key for its own, so that a device
    would encrypt the share to the relay.  It reads each share it gets,
    re-encrypts it to the client's key and passes it on, so the client
    notices nothing.

    The reply key is part of the opening whose commitment the log holds, so
    a swapped request names an entry no device's log has: each device
    refuses it before anything is punctured, and the relay reads nothing.

    Use an instance as the channel factory under a client's proving relay
    (``proving_channels(relay, provider.prove_inclusion,
    provider.store_reply, provider.backup_share)``): ``relay(index)``
    carries the proven request to HSM ``index``.
    """

    def __init__(self, channels: Callable[[int], object]) -> None:
        self._channels = channels
        self._keypair = P256.keygen()
        self.shares: List[Share] = []
        self.refused = 0

    def __call__(self, index: int) -> SimpleNamespace:
        return SimpleNamespace(decrypt_share=lambda request: self._relay(index, request))

    def _relay(self, index: int, request: DecryptShareRequest) -> ElGamalCiphertext:
        opening = request.opening
        swapped = dataclasses.replace(
            request, opening=dataclasses.replace(opening, response_key=self._keypair.public)
        )
        try:
            reply = self._channels(index).decrypt_share(swapped)
        except HsmRefusedError:
            self.refused += 1
            raise
        context = b"recovery-reply" + opening.username.encode("utf-8")
        share_bytes = HashedElGamal.decrypt(self._keypair.secret, reply, context=context)
        self.shares.append(SHARE.decode(share_bytes))
        return HashedElGamal.encrypt(opening.response_key, share_bytes, context=context)

    def open_backup(
        self, lhe: LocationHidingEncryption, ciphertext: LheCiphertext, context: bytes
    ) -> Optional[bytes]:
        """The backup, if the shares the relay read open it, else ``None``."""
        try:
            return lhe.reconstruct(ciphertext, self.shares, context)
        except LheError:
            return None


# ---------------------------------------------------------------------------
# Cheating service provider
# ---------------------------------------------------------------------------
class CheatingProvider(DistributedLog):
    """A provider that tries to break the log's append-only property.

    Attack surface implemented:

    - :meth:`rewrite_entry`: silently replace the value of a defined
      identifier, then try to get the fleet to certify the resulting state
      (the attack that would let it reset PIN-attempt counters).
    - :meth:`forge_round_dropping_entry`: present a round whose proofs omit
      one of the claimed insertions.
    - :meth:`equivocate`: produce two different rounds on the same base
      digest, attempting to show different logs to different HSMs.
    """

    def rewrite_entry(self, identifier: bytes, new_value: bytes) -> None:
        """Mutate provider-side state behind the HSMs' backs."""
        entries = [
            (i, new_value if i == identifier else v)
            for i, v in self.dict.items()
        ]
        from repro.log.authdict import AuthenticatedDictionary

        self.dict = AuthenticatedDictionary.from_entries(entries)
        self.ordered_entries = [
            (i, new_value if i == identifier else v) for i, v in self.ordered_entries
        ]

    def forge_round_dropping_entry(self, hsm_count: int) -> UpdateRound:
        """Build a round whose extension proofs skip the first pending entry
        while the claimed new digest still includes it."""
        if not self.pending:
            raise ValueError("no pending entries to forge against")
        dropped, *rest = self.pending
        honest_round = self.prepare_update(num_chunks=max(1, hsm_count))
        # Serve proofs with the first insertion removed from its chunk.
        for i, chunk in enumerate(honest_round.chunks):
            if any(p.identifier == dropped[0] for p in chunk.proofs):
                forged = tuple(
                    p for p in chunk.proofs if p.identifier != dropped[0]
                )
                honest_round.chunks[i] = dataclasses.replace(chunk, proofs=forged)
                break
        return honest_round

    def equivocate(
        self, entries_a: List[Tuple[bytes, bytes]], entries_b: List[Tuple[bytes, bytes]]
    ) -> Tuple[UpdateRound, UpdateRound]:
        """Two alternative rounds from the same base digest."""
        import copy

        base_pending = list(self.pending)
        snapshot = copy.deepcopy(self)
        self.pending = base_pending + entries_a
        round_a = self.prepare_update(num_chunks=1)
        snapshot.pending = base_pending + entries_b
        round_b = snapshot.prepare_update(num_chunks=1)
        return round_a, round_b
