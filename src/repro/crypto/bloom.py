"""Bloom-filter parameterization for Bloom-filter encryption.

Bloom-filter encryption (Derler et al., EUROCRYPT 2018) indexes a ciphertext
tag into ``k`` slots of an ``m``-slot filter.  A puncture deletes those
slots' secret keys; a *later* ciphertext fails to decrypt only if **all** of
its ``k`` slots have been deleted — the Bloom-filter false-positive event.

This module holds the (m, k) parameter mathematics and the tag-to-slots
hashing; the encryption scheme itself lives in ``repro.crypto.bfe``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.crypto.hashing import distinct_indices


@dataclass(frozen=True)
class BloomParams:
    """Parameters of a Bloom filter sized for a puncturable-encryption key.

    ``num_slots`` is the paper's secret-key array length (the key is "roughly
    λ·P group elements" for P punctures at failure 2^-λ), ``num_hashes`` the
    per-ciphertext slot count.
    """

    num_slots: int
    num_hashes: int
    max_punctures: int
    failure_exponent: int

    @staticmethod
    def for_punctures(max_punctures: int, failure_exponent: int = 16) -> "BloomParams":
        """Size a filter so that after ``max_punctures`` punctures, a fresh
        ciphertext fails to decrypt with probability at most
        ``2^-failure_exponent``.

        Standard Bloom-filter sizing: for n inserted items and false-positive
        rate p, m = -n ln p / (ln 2)^2 and k = (m/n) ln 2.  A puncture plays
        the role of an insertion; decryption failure of an unrelated
        ciphertext is exactly a false positive.
        """
        if max_punctures < 1:
            raise ValueError("max_punctures must be >= 1")
        if failure_exponent < 1:
            raise ValueError("failure_exponent must be >= 1")
        ln_p = -failure_exponent * math.log(2.0)
        m = math.ceil(-max_punctures * ln_p / (math.log(2.0) ** 2))
        k = max(1, round((m / max_punctures) * math.log(2.0)))
        return BloomParams(
            num_slots=m,
            num_hashes=k,
            max_punctures=max_punctures,
            failure_exponent=failure_exponent,
        )

    @staticmethod
    def paper_deployment() -> "BloomParams":
        """The evaluated configuration (§9.1, §9.2).

        The paper sets keys "to allow 2^20 punctures" with a 64 MB secret
        array and rotates after "roughly 2^18 decryptions" (when half the
        slots are gone).  That corresponds to m = 2^21 slots (2^21 × 32 B =
        64 MB) and k = 4 hashes: 2^18 punctures × 4 slots = 2^20 = m/2.
        The decryption-failure rate for not-yet-recovered ciphertexts at
        rotation time is (1 − e^{−1/2})^4 ≈ 2.4% — the bandwidth-vs-f_live
        trade-off the paper describes explicitly.
        """
        return BloomParams(
            num_slots=1 << 21,
            num_hashes=4,
            max_punctures=1 << 20,
            failure_exponent=5,
        )

    def slots_for_tag(self, tag: bytes) -> List[int]:
        """The ``k`` slot indices for a ciphertext tag (distinct, ordered).

        :func:`~repro.crypto.hashing.distinct_indices` rejects duplicates,
        so a tag maps to ``num_hashes`` *distinct* slots (duplicates would
        weaken the deletion guarantee).
        """
        if self.num_hashes > self.num_slots:
            raise ValueError("more hashes than slots")
        return distinct_indices((b"bfe-slots", tag), self.num_slots, self.num_hashes)

    def failure_probability(self, punctures_done: int) -> float:
        """Probability that a fresh ciphertext is undecryptable after
        ``punctures_done`` punctures (the false-positive rate)."""
        if punctures_done <= 0:
            return 0.0
        fraction_deleted = 1.0 - math.exp(
            -self.num_hashes * punctures_done / self.num_slots
        )
        return fraction_deleted**self.num_hashes

    def secret_key_bytes(self, element_size: int = 32) -> int:
        """Size of the secret-key array (paper: >64 MB at 2^20 punctures)."""
        return self.num_slots * element_size
