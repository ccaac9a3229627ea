"""Hash commitments for recovery attempts.

During recovery the client commits to (its username, the identities of its
chosen cluster, its recovery ciphertext, the public key the HSMs reply
under) and logs the commitment ``h`` (Section 4.2) under the attempt's
identifier.  Each contacted HSM later receives the *opening* and the
attempt number, rebuilds the identifier, and checks that (a) the log it
trusts holds the opening's commitment there and (b) the HSM itself is a
member of the committed cluster; it replies to the committed key only, so
whoever carries the request cannot redirect the reply.  The commitment is
binding and hiding in the random-oracle model (SHA-256 with 32 bytes of
randomness).  The opening's byte layout is one codec value,
:data:`OPENING`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.codec import TEXT, U32, VARINT, fixed, record, seq
from repro.crypto.ec import POINT, ECPoint
from repro.crypto.hashing import sha256


@dataclass(frozen=True)
class CommitmentOpening:
    """Everything needed to recompute a recovery commitment."""

    username: str
    cluster: Tuple[int, ...]
    ciphertext_hash: bytes
    response_key: ECPoint  # the fresh per-recovery public key (§8)
    randomness: bytes

    def commitment(self) -> bytes:
        return sha256(
            b"safetypin-recovery-commitment",
            self.username.encode("utf-8"),
            b"".join(map(U32.encode, self.cluster)),
            self.ciphertext_hash,
            self.response_key.to_bytes(),
            self.randomness,
        )


#: An opening's bytes: the username behind a varint length, a varint
#: count of varint cluster indices (a byte each below 128, two below
#: 16,384), the ciphertext hash, the reply key (a point, its prefix byte
#: gives its length), the randomness.  Only the bytes that travel are
#: varints: :meth:`CommitmentOpening.commitment` hashes each index as a
#: ``u32``, so no commitment moved with them.
OPENING = record(
    CommitmentOpening, username=TEXT, cluster=seq(VARINT, tuple, 0xFFFF, "cluster"),
    ciphertext_hash=fixed(32, "ciphertext hash"), response_key=POINT,
    randomness=fixed(32, "randomness"),
)


def commit_recovery(
    username: str, cluster: Sequence[int], ciphertext_hash: bytes, response_key: ECPoint,
) -> Tuple[bytes, CommitmentOpening]:
    """Produce ``(h, opening)`` for a recovery attempt."""
    opening = CommitmentOpening(
        username=username,
        cluster=tuple(cluster),
        ciphertext_hash=ciphertext_hash,
        response_key=response_key,
        randomness=secrets.token_bytes(32),
    )
    return opening.commitment(), opening
