"""Cryptographic substrate for the SafetyPin reproduction.

Everything here is implemented from scratch on top of the Python standard
library (``hashlib``, ``hmac``, ``secrets``): GF(p) helpers on plain ints,
NIST P-256, hashed ElGamal, AES-128-GCM (``seal_each`` / ``open_each``),
Shamir secret sharing, Merkle trees, and Bloom-filter puncturable
encryption.

The implementations favour clarity and testability over raw speed; they are
validated against published test vectors where vectors exist (AES, GCM,
P-256) and against algebraic properties elsewhere (share-reconstruction
identities).
"""

_EXPORTS = {
    "batch_inverse_mod": ("repro.crypto.field", "batch_inverse_mod"),
    "lagrange_at_zero": ("repro.crypto.field", "lagrange_at_zero"),
    "P256": ("repro.crypto.ec", "P256"),
    "ECPoint": ("repro.crypto.ec", "ECPoint"),
    "ECKeyPair": ("repro.crypto.ec", "ECKeyPair"),
    "multi_mult": ("repro.crypto.ec", "multi_mult"),
    "naive_mult": ("repro.crypto.ec", "naive_mult"),
    "HashedElGamal": ("repro.crypto.elgamal", "HashedElGamal"),
    "ElGamalCiphertext": ("repro.crypto.elgamal", "ElGamalCiphertext"),
    "AuthenticationError": ("repro.crypto.gcm", "AuthenticationError"),
    "ae_encrypt": ("repro.crypto.gcm", "ae_encrypt"),
    "ae_decrypt": ("repro.crypto.gcm", "ae_decrypt"),
    "seal_each": ("repro.crypto.gcm", "seal_each"),
    "open_each": ("repro.crypto.gcm", "open_each"),
    "ShamirSharer": ("repro.crypto.shamir", "ShamirSharer"),
    "Share": ("repro.crypto.shamir", "Share"),
    "MerkleTree": ("repro.crypto.merkle", "MerkleTree"),
    "MerkleProof": ("repro.crypto.merkle", "MerkleProof"),
    "BloomFilterEncryption": ("repro.crypto.bfe", "BloomFilterEncryption"),
    "PuncturedKeyError": ("repro.crypto.bfe", "PuncturedKeyError"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.crypto' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
