"""Hashed ElGamal public-key encryption over P-256 (Appendix A.4).

The scheme: a keypair is ``(x, g^x)``.  To encrypt message ``m`` to public
key ``X``, sample ``r``, output ``(g^r, AEEncrypt(Hash'(X^r || context), m))``.

Appendix A analyses location hiding over this scheme, but the deployment
encrypts shares with Bloom-filter encryption (``repro.crypto.bfe``, whose
slots are ElGamal keys).  Hashed ElGamal itself carries the HSM's reply to
the client's per-recovery key (§8) and the baseline system's shares.

- **Key privacy** (Bellare et al. 2001): the ciphertext reveals nothing about
  which public key it was encrypted to.  Hashed ElGamal ciphertexts are a
  uniform group element plus an AE ciphertext under an independent-looking
  key, so they are key-private.
- **CCA security**: follows from CDH + the random-oracle KDF + the AE scheme.

Callers bind their domain through ``context`` (Appendix A.4, last
paragraph, prefixes the KDF input with the username, the recovery salt
and the n cluster public keys).

Hot-path note: ``g^r`` inside :meth:`HashedElGamal.encrypt` rides the
generator's comb in ``repro.crypto.ec`` (a signed comb of 10 teeth in
five sub-tables of six columns: 5 doublings + 26 mixed additions), and
``X^r`` is a
signed-window ladder over an 8-entry table of odd multiples of ``X``
built in the call; nothing caches it on the key point.  Recipient keys
never get a comb of their own: those are built only for the signer
directory, at provisioning.
Decryption's ``(g^r)^x`` sees a fresh ephemeral point each time and
therefore builds that small table once per call; the table holds multiples
of the public ephemeral only, and the digits of the secret ``x`` are locals
of the multiply.  An identity ephemeral is refused before that multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import metering
from repro.crypto.ec import ECKeyPair, ECPoint, P256
from repro.crypto.gcm import AuthenticationError, open_each, seal_each
from repro.crypto.hashing import kdf


@dataclass(frozen=True)
class ElGamalCiphertext:
    """``(g^r, AE ciphertext)``.  The AE key is derived from a fresh ``r``
    and seals this one message, so the body is ``ciphertext ‖ tag`` under
    the constant ``gcm.ONE_TIME_NONCE``, which it does not carry."""

    ephemeral: ECPoint
    body: bytes

    def to_bytes(self) -> bytes:
        return self.ephemeral.to_bytes() + self.body

    @staticmethod
    def from_bytes(data: bytes) -> "ElGamalCiphertext":
        if len(data) < 33:
            raise ValueError("ciphertext too short")
        return ElGamalCiphertext(
            ephemeral=ECPoint.from_bytes(data[:33]), body=data[33:]
        )

    def __len__(self) -> int:
        return 33 + len(self.body)


class HashedElGamal:
    """Stateless encrypt/decrypt helpers; keys are ``ECKeyPair`` objects."""

    @staticmethod
    def keygen(rng=None) -> ECKeyPair:
        return P256.keygen(rng)

    @staticmethod
    def encrypt(public: ECPoint, plaintext: bytes, context: bytes = b"") -> ElGamalCiphertext:
        """Encrypt to ``public``; ``context`` provides domain separation.

        Raises ``ValueError`` for the identity: ``∞^r`` is ``∞`` for every
        ``r``, so the AE key would be a constant anyone can recompute.
        """
        if public.is_infinity:
            raise ValueError("cannot encrypt to the identity point")
        metering.count("elgamal_enc")
        r = P256.random_scalar()
        ephemeral = P256.generator * r
        shared = public * r
        key = kdf("hashed-elgamal", shared.to_bytes(), context, length=16)
        (body,) = seal_each([(key, plaintext, context)])
        return ElGamalCiphertext(ephemeral=ephemeral, body=body)

    @staticmethod
    def decrypt(secret: int, ciphertext: ElGamalCiphertext, context: bytes = b"") -> bytes:
        """Decrypt; raises ``AuthenticationError`` on tampering or wrong key.

        An identity ephemeral is refused before the multiply: ``∞^x`` is
        ``∞`` for every key, so such a "ciphertext" is one anyone can make.
        """
        if ciphertext.ephemeral.is_infinity:
            raise AuthenticationError("ephemeral is the identity point")
        metering.count("elgamal_dec")
        shared = ciphertext.ephemeral * secret
        key = kdf("hashed-elgamal", shared.to_bytes(), context, length=16)
        return next(open_each([(key, ciphertext.body, context)]))
