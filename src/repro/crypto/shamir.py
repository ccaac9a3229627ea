"""Shamir secret sharing over GF(p) (Shamir, CACM 1979).

SafetyPin splits the AES transport key into ``t``-of-``n`` shares, encrypts
one share to each HSM in the PIN-selected cluster, and reconstructs from any
``t`` decrypted shares (Figure 15).  We share over the P-256 scalar field so
a share is the same size as a curve scalar; 128-bit AES keys embed with room
to spare.

``Reconstruct`` in the paper tolerates *missing* shares (fail-stop HSMs), not
corrupted ones; :meth:`ShamirSharer.reconstruct` mirrors that, and
:meth:`ShamirSharer.reconstruct_robust` additionally implements the paper's
majority vote over the attached message ciphertexts.

Shares, coefficients and secrets are plain ints mod p; the polynomial and
the Lagrange weights are :mod:`repro.crypto.field`'s helpers, so
reconstructing a share set costs a single ``pow(x, -1, p)`` regardless of
the threshold.  A share's byte layout (the plaintext an HSM replies with)
is one codec value, :data:`SHARE`.
"""

from __future__ import annotations

import secrets as _secrets
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.codec import U32, U256, record
from repro.crypto.field import eval_poly, lagrange_at_zero, random_element

# The P-256 group order: a convenient ~256-bit prime field.
DEFAULT_MODULUS = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


@dataclass(frozen=True)
class Share:
    """One Shamir share: the evaluation point ``x`` and value ``y``."""

    x: int
    y: int


#: A share's bytes: ``x`` as a ``u32``, then ``y`` in 32 bytes.
SHARE = record(Share, x=U32, y=U256)


class ShamirSharer:
    """t-of-n sharing of byte-string secrets embedded in GF(p)."""

    def __init__(self, threshold: int, num_shares: int, modulus: int = DEFAULT_MODULUS) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if num_shares < threshold:
            raise ValueError("need at least `threshold` shares")
        if num_shares >= modulus:
            raise ValueError("too many shares for field size")
        self.threshold = threshold
        self.num_shares = num_shares
        self.modulus = modulus

    # -- sharing -----------------------------------------------------------------
    def share(self, secret: bytes, rng=None) -> List[Share]:
        """Split ``secret`` (at most 31 bytes for the default field) into
        ``num_shares`` shares, any ``threshold`` of which reconstruct it."""
        value = int.from_bytes(secret, "big")
        if value >= self.modulus:
            raise ValueError("secret too large to embed in field")
        coeffs = [value] + [random_element(self.modulus, rng) for _ in range(self.threshold - 1)]
        return [
            Share(x=x, y=eval_poly(coeffs, x, self.modulus)) for x in range(1, self.num_shares + 1)
        ]

    def _interpolate(self, shares: Sequence[Share], length: int) -> bytes:
        """The secret ``shares`` reconstruct (``ValueError`` on a repeated
        ``x`` or a value that does not fit ``length`` bytes)."""
        weights = lagrange_at_zero([s.x for s in shares], self.modulus)
        value = sum(s.y * weight for s, weight in zip(shares, weights)) % self.modulus
        try:
            return value.to_bytes(length, "big")
        except OverflowError:
            # Corrupt shares can interpolate to a full-width field element;
            # surface that as an invalid candidate, not a crash.
            raise ValueError("reconstructed value does not fit the secret length")

    def reconstruct(self, shares: Iterable[Optional[Share]], secret_length: int = 16) -> bytes:
        """Reconstruct from any >= threshold non-``None`` shares.

        ``None`` entries model fail-stopped HSMs (the paper's ⊥ shares)."""
        available = [s for s in shares if s is not None]
        if len(available) < self.threshold:
            raise ValueError(
                f"need {self.threshold} shares, only {len(available)} available"
            )
        return self._interpolate(available[: self.threshold], secret_length)

    def reconstruct_robust(
        self,
        shares: Sequence[Optional[Share]],
        verifier,
        secret_length: int = 16,
        max_attempts: int = 64,
    ) -> bytes:
        """Reconstruct when some shares may be *wrong*, not just missing.

        ``verifier(candidate_secret) -> bool`` decides whether a candidate is
        the true secret (in SafetyPin: does the AES-GCM tag of the backup
        ciphertext verify under this key?).  We try random subsets of size
        ``threshold``; with a bounded number of bad shares this terminates
        quickly in expectation.
        """
        available = [s for s in shares if s is not None]
        if len(available) < self.threshold:
            raise ValueError("not enough shares for robust reconstruction")
        rng = _secrets.SystemRandom()
        for _ in range(max_attempts):
            subset = [available[i] for i in rng.sample(range(len(available)), self.threshold)]
            try:
                candidate = self._interpolate(subset, secret_length)
            except ValueError:
                continue  # a repeated x, or a corrupt subset interpolated out of range
            if verifier(candidate):
                return candidate
        raise ValueError("robust reconstruction failed: too many corrupt shares")
