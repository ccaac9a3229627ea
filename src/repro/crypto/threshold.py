"""Threshold ElGamal decryption — the design the paper rejects (§1).

"One way to achieve SafetyPin's security goal would be to threshold-encrypt
the client's hashed PIN and backup key in such a way that decrypting the
client's backup key would require the participation of 6% of all HSMs in
the system.  Unfortunately, this approach lacks scalability."

We implement that rejected design for real so the ablation benchmarks can
measure, rather than assert, the scalability gap: a t-of-N threshold
ElGamal KEM over P-256 with Shamir-shared secret keys and Lagrange
recombination in the exponent.

Protocol:

- ``keygen``: a dealer shares a master secret ``x`` into t-of-N Shamir
  shares (:class:`repro.crypto.shamir.ShamirSharer` over the curve order);
  the public key is ``X = g^x``.  (The paper's variant would use a
  DKG; dealer-based sharing suffices for cost comparison.)
- ``encrypt``: KEM ciphertext ``(g^r, AE(H(X^r), m))``.
- ``partial_decrypt`` (one per participating HSM): ``(g^r)^{x_i}``.
- ``combine``: ``X^r = Π partials^{λ_i}`` by Lagrange coefficients, then AE
  decryption.

Cost profile (the point of the exercise): decryption needs ``t ≈ 0.06·N``
HSMs to each do a point multiplication *per recovery* — so adding HSMs
adds work per recovery instead of capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import metering
from repro.crypto.ec import ECPoint, P256, N as CURVE_ORDER, multi_mult
from repro.crypto.field import lagrange_at_zero, random_element
from repro.crypto.gcm import ae_decrypt, ae_encrypt
from repro.crypto.hashing import kdf
from repro.crypto.shamir import ShamirSharer


@dataclass(frozen=True)
class ThresholdPublicKey:
    threshold: int
    num_parties: int
    point: ECPoint


@dataclass(frozen=True)
class ThresholdKeyShare:
    """Party ``index`` holds polynomial evaluation ``x_i = f(index)``."""

    index: int  # 1-based Shamir x-coordinate
    scalar: int


@dataclass(frozen=True)
class ThresholdCiphertext:
    ephemeral: ECPoint
    body: bytes


def keygen(
    threshold: int, num_parties: int, rng=None
) -> Tuple[ThresholdPublicKey, List[ThresholdKeyShare]]:
    if not (1 <= threshold <= num_parties):
        raise ValueError("need 1 <= t <= N")
    master = random_element(CURVE_ORDER, rng)
    sharer = ShamirSharer(threshold, num_parties, modulus=CURVE_ORDER)
    shares = [
        ThresholdKeyShare(index=share.x, scalar=share.y)
        for share in sharer.share(master.to_bytes(32, "big"), rng)
    ]
    public = ThresholdPublicKey(
        threshold=threshold,
        num_parties=num_parties,
        point=P256.generator * master,
    )
    return public, shares


def encrypt(public: ThresholdPublicKey, message: bytes, context: bytes = b"") -> ThresholdCiphertext:
    r = P256.random_scalar()
    shared = public.point * r
    key = kdf("threshold-elgamal", shared.to_bytes(), context, length=16)
    return ThresholdCiphertext(
        ephemeral=P256.generator * r,
        body=ae_encrypt(key, message, aad=context),
    )


def partial_decrypt(share: ThresholdKeyShare, ciphertext: ThresholdCiphertext) -> Tuple[int, ECPoint]:
    """One HSM's contribution: ``(i, (g^r)^{x_i})`` — one point mult."""
    metering.count("elgamal_dec")
    return share.index, ciphertext.ephemeral * share.scalar


def combine(
    public: ThresholdPublicKey,
    ciphertext: ThresholdCiphertext,
    partials: Sequence[Tuple[int, ECPoint]],
    context: bytes = b"",
) -> bytes:
    """Lagrange recombination in the exponent, then AE decryption.

    The ``t`` Lagrange weights are Shamir reconstruction's
    (:func:`repro.crypto.field.lagrange_at_zero`, one batched modular
    inversion), and ``Π partials^{λ_i}`` runs as a single Straus multi-scalar
    multiplication (one shared doubling chain) instead of ``t`` independent
    point multiplications — same group element, ``t`` metered ``ec_mult``
    either way, a fraction of the wall-clock.
    """
    if len({i for i, _ in partials}) < public.threshold:
        raise ValueError(f"need {public.threshold} distinct partial decryptions")
    use = list({i: p for i, p in partials}.items())[: public.threshold]
    weights = lagrange_at_zero([i for i, _ in use], CURVE_ORDER)
    shared = multi_mult([(weight, partial) for weight, (_, partial) in zip(weights, use)])
    key = kdf("threshold-elgamal", shared.to_bytes(), context, length=16)
    return ae_decrypt(key, ciphertext.body, aad=context)
