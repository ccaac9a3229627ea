"""Location-hiding encryption (paper §5, Figure 15, Appendix A).

The client encrypts its backup so that decryption requires secret keys held
by a *hidden* cluster of ``n`` HSMs out of ``N``: the cluster is
``Hash(salt, pin)``, so an attacker who cannot guess the PIN does not know
which keys to steal.  Construction (Figure 15):

1. sample an AES transport key ``k`` and a random salt;
2. split ``k`` into ``t``-of-``n`` Shamir shares;
3. ``(i_1..i_n) = Hash(salt, pin)`` selects the cluster;
4. encrypt share ``j`` to ``pk_{i_j}`` with a key-private PKE, its
   associated data binding it to the account (:func:`share_owner`);
5. output (salt, the n share ciphertexts, AE_k(msg)).

Appendix A analyses the construction over hashed ElGamal; the PKE here is
the one the HSMs run, Bloom-filter encryption (§7), so a device can
puncture after recovery.  It is key-private too, which location hiding
requires, and Appendix A's games (``repro.adversary.games``) play it.

Domain separation follows Appendix A.4: the PKE context binds the username,
the salt, and a digest of the n cluster public keys.

Step 4 is one multi-recipient BFE encryption: the n shares reuse one
``r``, so the recovery ciphertext carries one ephemeral ``g^r``, and
each share's masks bind its position, so a device the cluster names twice
gets unrelated masks at its two positions (see ``repro.crypto.bfe``).

Hot-path note: step 4 is one ``g^r`` on the generator's comb and one
``repro.crypto.ec.mult_each`` over the cluster's n·k slot keys — the
6-tooth signed comb it builds on a (long-lived) slot key's first use and
reads on every later one, one batch inversion for all n·k products — not
a ``g^r`` per member; reconstruction's Shamir recombination takes its
Lagrange weights from ``repro.crypto.field.lagrange_at_zero``, one batched
inversion for all.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro import metering
from repro.core.codec import (
    BLOB, TEXT, TEXT16, VARINT, WireFormatError, converted, fixed, record, seq, tuple_of,
    versioned,
)
from repro.crypto.bfe import (
    BFE_BODY,
    BfeCiphertext,
    BfePublicKey,
    BfeSecretKey,
    BloomFilterEncryption,
)
from repro.crypto.ec import POINT
from repro.crypto.gcm import AuthenticationError, open_each, seal_each
from repro.crypto.hashing import hash_to_indices, sha256
from repro.crypto.shamir import SHARE, Share, ShamirSharer

TRANSPORT_KEY_LEN = 16
SALT_LEN = 16


class LheError(Exception):
    """Raised on malformed or unreconstructable LHE ciphertexts."""


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
    share_ciphertexts: Tuple[BfeCiphertext, ...]
    payload: bytes
    threshold: int
    num_hsms: int
    config_epoch: int = 0

    @property
    def cluster_size(self) -> int:
        return len(self.share_ciphertexts)

    def ciphertext_hash(self) -> bytes:
        """Digest bound into the recovery commitment: of the bytes the
        provider stores (:data:`RECOVERY_CIPHERTEXT`).  Computed once per
        instance: the provider reads a stored ciphertext's hash for its
        header and for every share its relay attaches."""
        digest = self.__dict__.get("_hash")
        if digest is None:
            digest = sha256(b"lhe-ciphertext", RECOVERY_CIPHERTEXT.encode(self))
            object.__setattr__(self, "_hash", digest)
        return digest

    def header(self) -> "RecoveryHeader":
        """What a recovering client reads of this ciphertext."""
        return RecoveryHeader(
            salt=self.salt,
            threshold=self.threshold,
            num_hsms=self.num_hsms,
            config_epoch=self.config_epoch,
            ciphertext_hash=self.ciphertext_hash(),
            payload=self.payload,
        )

    def size_bytes(self) -> int:
        """Encoded bytes: what the provider stores and relays (the paper's
        is 16.5 KB at n = 40)."""
        return len(RECOVERY_CIPHERTEXT.encode(self))


@dataclass(frozen=True)
class RecoveryHeader:
    """The part of a stored recovery ciphertext a recovering client reads
    (``fetch_backup``'s reply): the salt that selects the cluster, the
    payload it opens, and the hash of the whole stored ciphertext, which
    its commitment binds.  No username (the client named it) and no share
    ciphertext: the provider's relay attaches each share on its way to the
    device (``service.channel.ProvingChannel``)."""

    salt: bytes
    threshold: int
    num_hsms: int
    config_epoch: int
    ciphertext_hash: bytes
    payload: bytes


def recovery_header(fetched) -> RecoveryHeader:
    """``fetched`` as a header: a :class:`RecoveryHeader` as the wire
    delivers it, or the header of a stored :class:`LheCiphertext` as an
    in-process provider returns it."""
    return fetched if isinstance(fetched, RecoveryHeader) else fetched.header()


#: A share ciphertext's owner, bound as its payload's associated data
#: rather than carried in its plaintext (the paper prepends the username
#: to the share): the username and the LHE context, each behind its
#: length.  The context of a decrypt request is a blob the client picks,
#: so a bare ``context ‖ username`` would let ``(context ‖ b"x", "alice")``
#: open a share sealed for ``(context, "xalice")``.
SHARE_OWNER = tuple_of(TEXT16, BLOB)


def share_owner(username: str, context: bytes) -> bytes:
    """The associated data of ``username``'s share under ``context``: what
    the client seals each share under and the device opens it under,
    rebuilt by the device from the request's own username."""
    return SHARE_OWNER.encode((username, context))


def series_tag(username: str, salt: bytes) -> bytes:
    """The puncture tag of every share ciphertext of this user's backups
    under ``salt``: recovering any of them revokes the whole series (§8)."""
    return sha256(b"safetypin-series", username.encode("utf-8"), salt)


def _unbilled_series_tag(username: str, salt: bytes) -> bytes:
    """:func:`series_tag` for the recovery ciphertext's codec: rebuilding a
    field the sender left off is reading, not a protocol step, so the
    hash is not billed."""
    with metering.deferred():
        return series_tag(username, salt)


def _recovery_to_wire(ct: LheCiphertext) -> tuple:
    tag = _unbilled_series_tag(ct.username, ct.salt)
    shares = ct.share_ciphertexts
    if not shares:
        raise WireFormatError("a recovery ciphertext has no shares")
    if any(not isinstance(share, BfeCiphertext) or share.tag != tag for share in shares):
        raise WireFormatError("a share is not a BFE ciphertext under its series tag")
    ephemeral = shares[0].ephemeral
    if any(share.ephemeral != ephemeral or share.position != position
           for position, share in enumerate(shares)):
        raise WireFormatError("a share has an ephemeral of its own or a position not its index")
    bodies = [share.body() for share in shares]
    return (ct.salt, ct.username, ct.threshold, ct.num_hsms, ct.config_epoch,
            ephemeral, bodies, ct.payload)


def _recovery_from_wire(fields: tuple) -> LheCiphertext:
    salt, username, threshold, num_hsms, config_epoch, ephemeral, bodies, payload = fields
    if not bodies:
        raise WireFormatError("a recovery ciphertext has no shares")
    tag = _unbilled_series_tag(username, salt)
    return LheCiphertext(
        salt=salt,
        username=username,
        share_ciphertexts=tuple(
            BfeCiphertext(tag, ephemeral, position, *body) for position, body in enumerate(bodies)
        ),
        payload=payload,
        threshold=threshold,
        num_hsms=num_hsms,
        config_epoch=config_epoch,
    )


#: The client's uploaded recovery ciphertext (§4.1): the 16-byte salt, the
#: username, the threshold, N and the config epoch (varints, a byte each
#: below 128), the one ephemeral every share was encrypted under, then the
#: share ciphertexts — each a BFE body, its tag being the
#: :func:`series_tag` its reader rebuilds from the username and salt and
#: its position its index (a share under any other tag, ephemeral or
#: position is unencodable, and so is a ciphertext with no share) — and
#: the payload (``ciphertext ‖ tag`` under the one-time transport key).
RECOVERY_CIPHERTEXT = versioned(converted(
    tuple_of(
        fixed(SALT_LEN, "salt"), TEXT, VARINT, VARINT, VARINT, POINT,
        seq(BFE_BODY, tuple, 4096, "share"), BLOB,
    ),
    _recovery_to_wire,
    _recovery_from_wire,
))


#: A recovery header (``fetch_backup``'s reply): the 16-byte salt, the
#: threshold, N and the config epoch (varints), the stored ciphertext's
#: 32-byte hash and the payload.  Its encoder also takes a stored
#: :class:`LheCiphertext`, whose header it writes.
RECOVERY_HEADER = converted(
    record(
        RecoveryHeader, salt=fixed(SALT_LEN, "salt"), threshold=VARINT, num_hsms=VARINT,
        config_epoch=VARINT, ciphertext_hash=fixed(32, "ciphertext hash"), payload=BLOB,
    ),
    recovery_header,
    lambda header: header,
)


def _bfe_key(info) -> BfePublicKey:
    """An HSM's encryption key from its public-info record (or the key)."""
    return info if isinstance(info, BfePublicKey) else info.bfe_public


def lhe_context(username: str, salt: bytes, cluster_key_digest: bytes) -> bytes:
    """Appendix A.4 domain separation: username || salt || cluster keys."""
    return sha256(b"lhe-context", username.encode("utf-8"), salt, cluster_key_digest)


# ---------------------------------------------------------------------------
# The scheme
# ---------------------------------------------------------------------------
class LocationHidingEncryption:
    """Figure 15's five routines, parameterized by (N, n, t)."""

    def __init__(self, num_hsms: int, cluster_size: int, threshold: int) -> None:
        if not (1 <= threshold <= cluster_size <= num_hsms):
            raise ValueError("need 1 <= t <= n <= N")
        self.num_hsms = num_hsms
        self.cluster_size = cluster_size
        self.threshold = threshold
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

        cluster_pks = [_bfe_key(public_keys[i]) for i in cluster]
        key_digest = self._cluster_key_digest(cluster_pks)
        context = lhe_context(username, salt, key_digest)
        share_cts = BloomFilterEncryption.encrypt(
            cluster_pks,
            [SHARE.encode(share) for share in shares],
            context=share_owner(username, context),
            tag=series_tag(username, salt),
        )
        # The transport key is fresh and seals this one message.
        (payload,) = seal_each([(transport_key, message, context)])
        return LheCiphertext(
            salt=salt,
            username=username,
            share_ciphertexts=tuple(share_cts),
            payload=payload,
            threshold=self.threshold,
            num_hsms=self.num_hsms,
            config_epoch=config_epoch,
        )

    def _cluster_key_digest(self, cluster_pks: Sequence[BfePublicKey]) -> bytes:
        return sha256(b"cluster-keys", *(pk.commitment for pk in cluster_pks))

    def context_for(self, username: str, salt: bytes, public_keys: Sequence, pin: str) -> bytes:
        """The context ``username``'s backup under ``salt`` was encrypted
        under, if ``pin`` is its PIN."""
        cluster = self.select(salt, pin)
        cluster_pks = [_bfe_key(public_keys[i]) for i in cluster]
        return lhe_context(username, salt, self._cluster_key_digest(cluster_pks))

    # -- Decrypt (single share; runs on one HSM) -------------------------------------
    def decrypt_share(
        self, secret: BfeSecretKey, position: int, ciphertext: LheCiphertext, context: bytes
    ) -> Share:
        """``Decrypt(sk_{i_j}, i_j, ct) -> σ_j``: recover one Shamir share."""
        plaintext = BloomFilterEncryption.decrypt(
            secret,
            ciphertext.share_ciphertexts[position],
            context=share_owner(ciphertext.username, context),
        )
        return SHARE.decode(plaintext)

    # -- Reconstruct -----------------------------------------------------------------
    def reconstruct(
        self,
        ciphertext: Union[LheCiphertext, RecoveryHeader],
        shares: Iterable[Optional[Share]],
        context: bytes,
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
        produced.  ``ciphertext`` is an :class:`LheCiphertext` or a
        :class:`RecoveryHeader`: only its payload is read.  No t-subset
        that opens the payload is :class:`LheError`.
        """
        shares = iter(shares)
        drawn = list(islice((s for s in shares if s is not None), self.threshold))
        if len(drawn) < self.threshold:
            raise LheError(f"need {self.threshold} shares, have {len(drawn)}")
        opened: List[bytes] = []

        def verifier(candidate_key: bytes) -> bool:
            try:
                opened.append(next(open_each([(candidate_key, ciphertext.payload, context)])))
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
        try:
            self._sharer.reconstruct_robust(drawn + list(shares), verifier, TRANSPORT_KEY_LEN)
        except ValueError as exc:
            raise LheError(str(exc)) from exc
        return opened[0]
