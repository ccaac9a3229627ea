"""ECDSA over P-256 and the quorum list it certified epochs with, kept as
references.

Before log certificates were one Schnorr multisignature, each was the
first ⌈q·|C|⌉ signers' ECDSA signatures, and a device checked every one.
This module keeps that scheme as it ran:

- :func:`ecdsa_sign` — deterministic ECDSA, an RFC 6979-flavoured nonce
  (one ``hmac``) riding the generator's comb;
- :func:`ecdsa_verify_all` — chunks of ``VERIFY_CHUNK`` triples, one batch
  inversion of the chunk's ``s`` values and one of its results, ``u1·G +
  u2·Q`` as one chain, the early abort, and
  one ``ecdsa_verify`` a triple up to and including the first failure;
- :func:`verify_quorum_list` — the certificate check over that list.

No bench row times against it any more. It stays as an independent
check of the curve code it runs on: a textbook verifier built from
``_multi_mult_jac`` (``u1·G`` on the generator's comb, ``u2·Q`` on a
ladder, one chain) and ``_jac_to_affine_batch``, whose verdicts must be
the sequential loop's, and of the cost model's ``ecdsa_verify`` meter.
"""

from typing import List, Optional, Sequence, Tuple

from repro import metering
from repro.crypto import ec
from repro.crypto.field import batch_inverse_mod
from repro.crypto.hashing import hmac_sha256, sha256

#: Triples verified a batch at a time: big enough to amortize the shared
#: normalization, small enough that a bad list wastes one chunk's work.
VERIFY_CHUNK = 8


def ecdsa_sign(secret: int, message: bytes) -> Tuple[int, int]:
    """Deterministic ECDSA (RFC 6979-flavoured nonce derivation)."""
    n = ec.N
    z = int.from_bytes(sha256(b"ecdsa", message), "big") % n
    k_seed = hmac_sha256(secret.to_bytes(32, "big"), sha256(b"nonce", message))
    k = (int.from_bytes(k_seed, "big") % (n - 1)) + 1
    while True:
        point = ec.P256.generator * k
        r = point.x % n
        if r == 0:
            k = (k + 1) % n or 1
            continue
        s = (pow(k, -1, n) * (z + r * secret)) % n
        if s == 0:
            k = (k + 1) % n or 1
            continue
        return r, s


def _in_range(signature) -> Optional[Tuple[int, int]]:
    """``(r, s)`` if the signature is a pair of plain ints in ``[1, n)``."""
    if not (
        isinstance(signature, (tuple, list))
        and len(signature) == 2
        and type(signature[0]) is int
        and type(signature[1]) is int
    ):
        return None
    r, s = signature
    if not (1 <= r < ec.N and 1 <= s < ec.N):
        return None
    return r, s


def _verify_chunk(items) -> List[bool]:
    """Verdicts for a slice of ``(public, message, signature)`` triples:
    two batch inversions for the slice, no metering."""
    n = ec.N
    checked = [_in_range(signature) for _, _, signature in items]
    inverses = iter(batch_inverse_mod([rs[1] for rs in checked if rs is not None], n))
    points = []
    for (public, message, _), rs in zip(items, checked):
        if rs is None:
            continue
        w = next(inverses)
        z = int.from_bytes(sha256(b"ecdsa", message), "big") % n
        pairs = [
            (u, pt)
            for u, pt in ((z * w % n, ec.P256.generator), (rs[0] * w % n, public))
            if u and not pt.is_infinity
        ]
        points.append(ec._multi_mult_jac(pairs) if pairs else ec._INFINITY)
    normalized = iter(ec._jac_to_affine_batch(points))
    results = []
    for rs in checked:
        if rs is None:
            results.append(False)
            continue
        affine = next(normalized)
        results.append(affine is not None and affine[0] % n == rs[0])
    return results


def ecdsa_verify_all(items: Sequence[Tuple[ec.ECPoint, bytes, Tuple[int, int]]]) -> bool:
    """True iff every triple verifies; stops at the first failing chunk and
    meters one ``ecdsa_verify`` a triple up to and including the failure."""
    checked = 0
    for start in range(0, len(items), VERIFY_CHUNK):
        for ok in _verify_chunk(items[start : start + VERIFY_CHUNK]):
            checked += 1
            if not ok:
                metering.count("ecdsa_verify", checked)
                return False
    if checked:
        metering.count("ecdsa_verify", checked)
    return True


def verify_quorum_list(publics, message: bytes, signatures) -> bool:
    """The former certificate check: one signature a signer key."""
    if not isinstance(signatures, (tuple, list)) or len(publics) != len(signatures):
        return False
    return ecdsa_verify_all(
        [(public, message, signature) for public, signature in zip(publics, signatures)]
    )
