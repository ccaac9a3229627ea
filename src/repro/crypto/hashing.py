"""Hashing utilities: KDFs, hash-to-indices, and domain-separated digests.

Two hash functions from the paper live here:

- ``Hash : {0,1}^λ × P → [N]^n`` (Figure 15) — :func:`hash_to_indices` maps a
  (salt, PIN) pair to the pseudorandom cluster of ``n`` HSM indices.  The
  paper models this as a random oracle; we instantiate it with SHA-256 in
  counter mode with rejection sampling so indices are uniform over ``[N]``.
  The same sampler, :func:`hashed_indices`, draws Bloom slots and audit sets.
- ``Hash' : G → K`` — :func:`kdf` derives authenticated-encryption keys from
  Diffie-Hellman group elements inside hashed ElGamal (Appendix A.4), with
  explicit domain-separation labels.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import itertools
import struct
from typing import Dict, Iterator, List, Sequence

from repro import metering

_DRAWS = struct.Struct(">4Q")  # one SHA-256 block as four big-endian 8-byte draws


def sha256(*parts: bytes) -> bytes:
    """SHA-256 over length-prefixed parts (unambiguous concatenation)."""
    h = hashlib.sha256()
    total = 0
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
        total += len(part) + 8
    metering.count("sha256_block", max(1, (total + 63) // 64))
    return h.digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    metering.count("hmac")
    return _hmac.new(key, message, hashlib.sha256).digest()


def kdf(label: str, *parts: bytes, length: int = 32) -> bytes:
    """HKDF-style expand: derive ``length`` bytes bound to ``label``.

    Used for hashed-ElGamal key derivation (the paper's Hash'), commitment
    randomness expansion, and transport-key derivation.  The label provides
    domain separation between the different uses.
    """
    prk = sha256(label.encode("utf-8"), *parts)
    out = b""
    counter = 0
    while len(out) < length:
        out += sha256(prk, counter.to_bytes(4, "big"), label.encode("utf-8"))
        counter += 1
    return out[:length]


def hashed_indices(prefix: Sequence[bytes], total: int) -> Iterator[int]:
    """Uniform draws from ``range(total)``, lazily: block ``i`` is
    ``sha256(*prefix, i)`` cut into four 8-byte draws, and a draw at or above
    the largest multiple of ``total`` below 2^64 is rejected (no modulo
    bias).  A block is hashed only when a draw is wanted from it."""
    bound = (1 << 64) - ((1 << 64) % total)
    for counter in itertools.count():
        for draw in _DRAWS.unpack(sha256(*prefix, counter.to_bytes(8, "big"))):
            if draw < bound:
                yield draw % total


def distinct_indices(prefix: Sequence[bytes], total: int, count: int) -> List[int]:
    """The first ``min(count, total)`` distinct :func:`hashed_indices` draws."""
    want = min(count, total)
    picks: Dict[int, None] = {}
    if want > 0:
        for index in hashed_indices(prefix, total):
            picks[index] = None
            if len(picks) == want:
                break
    return list(picks)


def hash_to_indices(salt: bytes, pin: str, total: int, count: int) -> List[int]:
    """The paper's ``Hash(salt, pin) -> [N]^n`` (Figure 15, step 3).

    Deterministically expands (salt, pin) into ``count`` indices drawn
    uniformly (with replacement, as in the paper: a *list* in [N]^n) from
    ``range(total)`` by :func:`hashed_indices`.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    seed = sha256(b"safetypin-select", salt, pin.encode("utf-8"))
    return list(itertools.islice(hashed_indices((seed,), total), count))


def constant_time_equal(a: bytes, b: bytes) -> bool:
    return _hmac.compare_digest(a, b)
