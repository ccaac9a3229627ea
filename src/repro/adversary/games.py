"""Appendix A's experiments as executable games.

The paper defines location-hiding encryption's correctness (Experiment 2)
and security (Experiment 4) as games between a challenger and an adversary.
This module implements both games verbatim over the real LHE scheme, so the
test suite can *measure* the quantities the theorems bound:

- Experiment 2 run many times estimates the recovery-failure probability,
  compared against Theorem 9's binomial bound;
- Experiment 4 run against the Remark 5 adversary estimates the attacker's
  advantage, compared against Theorem 10's ``3N/(n|P|)`` bound and the
  generic lower bound ``f·N/(n|P|)``.

Games run over the deployed instantiation, Bloom-filter encryption (§7),
at small parameters so thousands of trials fit in test time.  The
challenger draws its N keypairs once per ``estimate_*`` call and reuses
them across trials: a game punctures no key, so a trial depends only on
Select, the failure draw and the corruptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.adversary.attacks import open_with_keys
from repro.core.lhe import LocationHidingEncryption
from repro.crypto.bfe import BfePublicKey, BfeSecretKey, BloomFilterEncryption
from repro.crypto.bloom import BloomParams
from repro.storage.blockstore import InMemoryBlockStore

Keypairs = List[Tuple[BfePublicKey, BfeSecretKey]]


@dataclass
class GameParams:
    """Experiment parameters (N, n, t, |P|, f_live, f_secret)."""

    num_hsms: int = 12
    cluster_size: int = 4
    threshold: int = 2
    pin_digits: int = 1  # |P| = 10
    f_live: float = 1 / 8
    f_secret: float = 1 / 4

    @property
    def pin_space(self) -> List[str]:
        return [f"{p:0{self.pin_digits}d}" for p in range(10**self.pin_digits)]


def _scheme(params: GameParams) -> LocationHidingEncryption:
    return LocationHidingEncryption(params.num_hsms, params.cluster_size, params.threshold)


def challenger_keys(params: GameParams, rng: random.Random) -> Keypairs:
    """The challenger's N keypairs: the smallest Bloom key (no game punctures)."""
    bloom = BloomParams.for_punctures(1, failure_exponent=1)
    return [
        BloomFilterEncryption.keygen(bloom, InMemoryBlockStore(), rng)
        for _ in range(params.num_hsms)
    ]


# ---------------------------------------------------------------------------
# Experiment 2: correctness
# ---------------------------------------------------------------------------
def correctness_experiment(
    params: GameParams, keys: Keypairs, pin: str, message: bytes, rng: random.Random
) -> bool:
    """One run of Experiment 2; returns True iff recovery succeeded.

    Each key fails independently with probability f_live; decryption uses
    only surviving keys.
    """
    lhe = _scheme(params)
    publics = [public for public, _ in keys]
    ct = lhe.encrypt(publics, pin, message, username="exp2")
    live = {i: secret for i, (_, secret) in enumerate(keys) if rng.random() >= params.f_live}
    return open_with_keys(lhe, ct, live, pin, publics) == message


def estimate_correctness_failure(
    params: GameParams, trials: int, seed: int = 0
) -> float:
    rng = random.Random(seed)
    keys = challenger_keys(params, rng)
    failures = 0
    for t in range(trials):
        pin = rng.choice(params.pin_space)
        if not correctness_experiment(params, keys, pin, b"msg", rng):
            failures += 1
    return failures / trials


# ---------------------------------------------------------------------------
# Experiment 4: security
# ---------------------------------------------------------------------------
class Remark5Adversary:
    """The generic attack of Remark 5, playing Experiment 4.

    Strategy: pick candidate PINs; for each, corrupt that PIN's cluster
    (within the f_secret·N budget) and try to decrypt the challenge.  Guess
    the bit from any successful decryption; otherwise flip a coin.
    """

    def __init__(self, pins_to_try: Optional[int] = None) -> None:
        self.pins_to_try = pins_to_try

    def play(
        self,
        params: GameParams,
        lhe: LocationHidingEncryption,
        publics: Sequence,
        salt: bytes,
        ciphertext,
        msg0: bytes,
        msg1: bytes,
        corrupt,  # corrupt(index) -> secret key (challenger-enforced budget)
        rng: random.Random,
    ) -> int:
        budget = int(params.f_secret * params.num_hsms)
        corrupted: dict = {}
        candidates = list(params.pin_space)
        rng.shuffle(candidates)
        if self.pins_to_try is not None:
            candidates = candidates[: self.pins_to_try]
        for pin in candidates:
            cluster = lhe.select(salt, pin)
            needed = [i for i in set(cluster) if i not in corrupted]
            if len(corrupted) + len(needed) > budget:
                continue  # cannot afford this PIN's cluster
            for index in needed:
                corrupted[index] = corrupt(index)
            plaintext = open_with_keys(lhe, ciphertext, corrupted, pin, publics)
            if plaintext == msg0:
                return 0
            if plaintext == msg1:
                return 1
        return rng.randrange(2)


def security_experiment(
    params: GameParams, keys: Keypairs, adversary, beta: int, rng: random.Random
) -> int:
    """One run of Experiment 4 with challenge bit ``beta``; returns the
    adversary's guess."""
    lhe = _scheme(params)
    publics = [public for public, _ in keys]
    salt = bytes(rng.randrange(256) for _ in range(16))
    pin = rng.choice(params.pin_space)
    msg0, msg1 = b"message-zero!!!!", b"message-one!!!!!"
    ct = lhe.encrypt(
        publics, pin, msg1 if beta else msg0, username="exp4", salt=salt
    )

    budget = int(params.f_secret * params.num_hsms)
    handed_out = set()

    def corrupt(index: int):
        handed_out.add(index)
        if len(handed_out) > budget:
            raise RuntimeError("adversary exceeded its corruption budget")
        return keys[index][1]

    return adversary.play(
        params, lhe, publics, salt, ct, msg0, msg1, corrupt, rng
    )


def estimate_advantage(
    params: GameParams, adversary, trials: int, seed: int = 0
) -> float:
    """|Pr[guess=1 | beta=1] − Pr[guess=1 | beta=0]| over ``trials`` runs."""
    rng = random.Random(seed)
    keys = challenger_keys(params, rng)
    ones_when_one = 0
    ones_when_zero = 0
    half = trials // 2
    for _ in range(half):
        ones_when_one += security_experiment(params, keys, adversary, 1, rng)
    for _ in range(half):
        ones_when_zero += security_experiment(params, keys, adversary, 0, rng)
    return abs(ones_when_one / half - ones_when_zero / half)
