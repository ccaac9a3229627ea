"""Location-hiding encryption (paper §5, Figure 15, Appendix A).

The client encrypts its backup so that decryption requires secret keys held
by a *hidden* cluster of ``n`` HSMs out of ``N``: the cluster is
``Hash(salt, pin)``, so an attacker who cannot guess the PIN does not know
which keys to steal.  Construction (Figure 15):

1. sample an AES transport key ``k`` and a random salt;
2. split ``k`` into ``t``-of-``n`` Shamir shares;
3. ``(i_1..i_n) = Hash(salt, pin)`` selects the cluster;
4. encrypt share ``j`` (prefixed with the username, binding ciphertexts to
   accounts) to ``pk_{i_j}`` with a key-private PKE;
5. output (salt, the n share ciphertexts, AE_k(msg)).

The PKE is pluggable: :class:`ElGamalPke` gives exactly the hashed-ElGamal
instantiation analysed in Appendix A; :class:`BfePke` (the deployment
default) swaps in Bloom-filter encryption so HSMs can puncture after
recovery (§7).  Both are key-private, which the location-hiding property
requires.

Domain separation follows Appendix A.4: the PKE context binds the username,
the salt, and a digest of the n cluster public keys.

Hot-path note: step 4 performs one PKE encryption per cluster member, and
every one of those rides the crypto fast path in ``repro.crypto.ec`` — the
generator's comb for each ephemeral ``g^r`` and, for the (long-lived) HSM
public keys, the 5-tooth signed comb ``mult_each`` builds on a BFE slot key's
first use and reads on every later one (a hashed-ElGamal key rides a
window ladder over a table built in the call) — while reconstruction's
Shamir recombination takes its Lagrange weights from
``repro.crypto.field.lagrange_at_zero``, one batched inversion for all.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.codec import TEXT16, tuple_of
from repro.crypto.bfe import BfeCiphertext, BfePublicKey, BfeSecretKey, BloomFilterEncryption
from repro.crypto.ec import ECPoint
from repro.crypto.elgamal import ElGamalCiphertext, HashedElGamal
from repro.crypto.gcm import AuthenticationError, ae_decrypt, ae_encrypt
from repro.crypto.hashing import hash_to_indices, sha256
from repro.crypto.shamir import SHARE, Share, ShamirSharer

TRANSPORT_KEY_LEN = 16
SALT_LEN = 16


class LheError(Exception):
    """Raised on malformed or unreconstructable LHE ciphertexts."""


# ---------------------------------------------------------------------------
# Pluggable key-private PKE
# ---------------------------------------------------------------------------
class ElGamalPke:
    """Figure 15's instantiation: hashed ElGamal over P-256."""

    name = "hashed-elgamal"

    def encrypt(self, public: ECPoint, plaintext: bytes, context: bytes, tag=None):
        return HashedElGamal.encrypt(public, plaintext, context=context)

    def decrypt(self, secret: int, ciphertext: ElGamalCiphertext, context: bytes) -> bytes:
        return HashedElGamal.decrypt(secret, ciphertext, context=context)

    def public_of(self, info) -> ECPoint:
        """Extract an encryption key from an HSM public-info record."""
        return info if isinstance(info, ECPoint) else info.public


class BfePke:
    """The deployment PKE: puncturable Bloom-filter encryption (§7).

    The puncture ``tag`` is derived from (username, salt) by the LHE layer,
    so every backup a user makes under one salt shares its Bloom slots: one
    recovery punctures the entire series (§8).
    """

    name = "bloom-filter-encryption"

    def encrypt(self, public: BfePublicKey, plaintext: bytes, context: bytes, tag=None):
        return BloomFilterEncryption.encrypt(public, plaintext, context=context, tag=tag)

    def decrypt(self, secret: BfeSecretKey, ciphertext: BfeCiphertext, context: bytes) -> bytes:
        return BloomFilterEncryption.decrypt(secret, ciphertext, context=context)

    def public_of(self, info) -> BfePublicKey:
        return info if isinstance(info, BfePublicKey) else info.bfe_public


# ---------------------------------------------------------------------------
# Ciphertext
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LheCiphertext:
    """The recovery ciphertext the client uploads (§4.1).

    ``config_epoch`` identifies the HSM key epoch in service when the backup
    was created, so the provider can route recovery to the right keys after
    rotations (the paper's "configuration-epoch number").
    """

    salt: bytes
    username: str
    share_ciphertexts: Tuple[object, ...]
    payload: bytes
    threshold: int
    num_hsms: int
    config_epoch: int = 0

    @property
    def cluster_size(self) -> int:
        return len(self.share_ciphertexts)

    def ciphertext_hash(self) -> bytes:
        """Digest bound into the recovery commitment."""
        parts = [
            self.salt,
            self.username.encode("utf-8"),
            self.payload,
            self.threshold.to_bytes(4, "big"),
            self.num_hsms.to_bytes(4, "big"),
            self.config_epoch.to_bytes(4, "big"),
        ]
        for ct in self.share_ciphertexts:
            if isinstance(ct, BfeCiphertext):
                parts.append(ct.tag)
                parts.append(ct.ephemeral.to_bytes())
                parts.extend(ct.wrapped_keys)
                parts.append(ct.payload)
            elif isinstance(ct, ElGamalCiphertext):
                parts.append(ct.to_bytes())
            else:  # pragma: no cover - unknown PKE ciphertext type
                parts.append(repr(ct).encode())
        return sha256(b"lhe-ciphertext", *parts)

    def size_bytes(self) -> int:
        """Approximate wire size (paper: 16.5 KB at n=40)."""
        total = len(self.salt) + len(self.payload) + 12
        for ct in self.share_ciphertexts:
            total += len(ct)
        return total


#: What each share ciphertext encrypts: the paper prepends the username to
#: the share.  The HSM reads it through this codec before it punctures.
SHARE_PLAINTEXT = tuple_of(TEXT16, SHARE)


def lhe_context(username: str, salt: bytes, cluster_key_digest: bytes) -> bytes:
    """Appendix A.4 domain separation: username || salt || cluster keys."""
    return sha256(b"lhe-context", username.encode("utf-8"), salt, cluster_key_digest)


# ---------------------------------------------------------------------------
# The scheme
# ---------------------------------------------------------------------------
class LocationHidingEncryption:
    """Figure 15's five routines, parameterized by (N, n, t, PKE)."""

    def __init__(
        self,
        num_hsms: int,
        cluster_size: int,
        threshold: int,
        pke=None,
    ) -> None:
        if not (1 <= threshold <= cluster_size <= num_hsms):
            raise ValueError("need 1 <= t <= n <= N")
        self.num_hsms = num_hsms
        self.cluster_size = cluster_size
        self.threshold = threshold
        self.pke = pke if pke is not None else BfePke()
        self._sharer = ShamirSharer(threshold, cluster_size)

    # -- Select -----------------------------------------------------------------
    def select(self, salt: bytes, pin: str) -> List[int]:
        """``Select(salt, pin) -> (i_1, ..., i_n)`` — the hidden cluster."""
        return hash_to_indices(salt, pin, self.num_hsms, self.cluster_size)

    # -- Encrypt ------------------------------------------------------------------
    def encrypt(
        self,
        public_keys: Sequence,
        pin: str,
        message: bytes,
        username: str = "",
        salt: Optional[bytes] = None,
        config_epoch: int = 0,
    ) -> LheCiphertext:
        """Encrypt ``message`` under the PIN-selected hidden cluster.

        ``public_keys`` is the full mpk — one entry per HSM, index-aligned.
        Runs entirely on the client: no HSM interaction (scalability).
        """
        if len(public_keys) != self.num_hsms:
            raise ValueError(
                f"expected {self.num_hsms} public keys, got {len(public_keys)}"
            )
        if salt is None:
            salt = secrets.token_bytes(SALT_LEN)
        transport_key = secrets.token_bytes(TRANSPORT_KEY_LEN)
        shares = self._sharer.share(transport_key)
        cluster = self.select(salt, pin)

        cluster_pks = [self.pke.public_of(public_keys[i]) for i in cluster]
        key_digest = self._cluster_key_digest(cluster_pks)
        context = lhe_context(username, salt, key_digest)
        # All of this user's backups under this salt share one puncture tag,
        # so recovering any of them revokes the whole series (§8).
        series_tag = sha256(b"safetypin-series", username.encode("utf-8"), salt)

        share_cts = [
            self.pke.encrypt(pk, SHARE_PLAINTEXT.encode((username, share)), context, tag=series_tag)
            for share, pk in zip(shares, cluster_pks)
        ]
        payload = ae_encrypt(transport_key, message, aad=context)
        return LheCiphertext(
            salt=salt,
            username=username,
            share_ciphertexts=tuple(share_cts),
            payload=payload,
            threshold=self.threshold,
            num_hsms=self.num_hsms,
            config_epoch=config_epoch,
        )

    def _cluster_key_digest(self, cluster_pks: Sequence) -> bytes:
        parts = []
        for pk in cluster_pks:
            if isinstance(pk, BfePublicKey):
                parts.append(pk.commitment)
            elif isinstance(pk, ECPoint):
                parts.append(pk.to_bytes())
            else:  # pragma: no cover
                parts.append(repr(pk).encode())
        return sha256(b"cluster-keys", *parts)

    def context_for(self, ciphertext: LheCiphertext, public_keys: Sequence, pin: str) -> bytes:
        cluster = self.select(ciphertext.salt, pin)
        cluster_pks = [self.pke.public_of(public_keys[i]) for i in cluster]
        return lhe_context(
            ciphertext.username, ciphertext.salt, self._cluster_key_digest(cluster_pks)
        )

    # -- Decrypt (single share; runs on one HSM) -------------------------------------
    def decrypt_share(
        self, secret, position: int, ciphertext: LheCiphertext, context: bytes
    ) -> Share:
        """``Decrypt(sk_{i_j}, i_j, ct) -> σ_j``: recover one Shamir share."""
        plaintext = self.pke.decrypt(
            secret, ciphertext.share_ciphertexts[position], context
        )
        username, share = SHARE_PLAINTEXT.decode(plaintext)
        if username != ciphertext.username:
            raise LheError("share is bound to a different username")
        return share

    # -- Reconstruct -----------------------------------------------------------------
    def reconstruct(
        self, ciphertext: LheCiphertext, shares: Iterable[Optional[Share]], context: bytes
    ) -> bytes:
        """``Reconstruct(σ_1, ..., σ_n) -> msg`` (tolerates missing shares).

        Uses the AE tag of the payload as the share verifier, which also
        gives the robust majority-style behaviour of Figure 15's
        ``Reconstruct`` when some shares are corrupt.

        ``shares`` is drawn lazily: the first ``t`` non-⊥ shares are
        interpolated, and only if the payload does not open under that key
        is the rest of the iterable consumed for the robust search — a
        caller that produces shares at a cost (the client decrypting HSM
        replies) pays for ``t`` of them on the happy path.  The payload is
        opened once: the plaintext returned is the one the verifying open
        produced.
        """
        shares = iter(shares)
        drawn = list(islice((s for s in shares if s is not None), self.threshold))
        if len(drawn) < self.threshold:
            raise LheError(f"need {self.threshold} shares, have {len(drawn)}")
        opened: List[bytes] = []

        def verifier(candidate_key: bytes) -> bool:
            try:
                opened.append(ae_decrypt(candidate_key, ciphertext.payload, aad=context))
            except AuthenticationError:
                return False
            return True

        try:
            if verifier(self._sharer.reconstruct(drawn, TRANSPORT_KEY_LEN)):
                return opened[0]
        except ValueError:
            pass
        # Some share was wrong (e.g. a malicious HSM): try robust subsets
        # over everything the caller can still produce.
        self._sharer.reconstruct_robust(drawn + list(shares), verifier, TRANSPORT_KEY_LEN)
        return opened[0]
