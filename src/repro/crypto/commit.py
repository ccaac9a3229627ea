"""Hash commitments for recovery attempts.

During recovery the client commits to (its username, the identities of its
chosen cluster, its recovery ciphertext) and logs the commitment ``h``
(Section 4.2).  Each contacted HSM later receives the *opening* and checks
that (a) the commitment matches the logged value and (b) the HSM itself is a
member of the committed cluster.  The commitment is binding and hiding in the
random-oracle model (SHA-256 with 32 bytes of randomness).  The opening's
byte layout is one codec value, :data:`OPENING`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.codec import TEXT16, U16, U32, fixed, record, seq
from repro.crypto.hashing import constant_time_equal, sha256


@dataclass(frozen=True)
class CommitmentOpening:
    """Everything needed to recompute a recovery commitment."""

    username: str
    cluster: Tuple[int, ...]
    ciphertext_hash: bytes
    randomness: bytes

    def commitment(self) -> bytes:
        return _commit_digest(
            self.username, self.cluster, self.ciphertext_hash, self.randomness
        )


#: An opening's bytes: the username behind a ``u16`` length, a ``u16``
#: count of ``u32`` cluster indices, the ciphertext hash, the randomness.
OPENING = record(
    CommitmentOpening, username=TEXT16, cluster=seq(U32, tuple, what="cluster", count=U16),
    ciphertext_hash=fixed(32, "ciphertext hash"), randomness=fixed(32, "randomness"),
)


def _commit_digest(
    username: str, cluster: Sequence[int], ciphertext_hash: bytes, randomness: bytes
) -> bytes:
    return sha256(
        b"safetypin-recovery-commitment",
        username.encode("utf-8"),
        b"".join(map(U32.encode, cluster)),
        ciphertext_hash,
        randomness,
    )


def commit_recovery(
    username: str, cluster: Sequence[int], ciphertext_hash: bytes, rng=None
) -> Tuple[bytes, CommitmentOpening]:
    """Produce ``(h, opening)`` for a recovery attempt."""
    if rng is None:
        randomness = secrets.token_bytes(32)
    else:
        randomness = bytes(rng.randrange(256) for _ in range(32))
    opening = CommitmentOpening(
        username=username,
        cluster=tuple(cluster),
        ciphertext_hash=ciphertext_hash,
        randomness=randomness,
    )
    return opening.commitment(), opening


def verify_opening(commitment: bytes, opening: CommitmentOpening) -> bool:
    """Constant-time check that ``opening`` opens ``commitment``."""
    return constant_time_equal(commitment, opening.commitment())
