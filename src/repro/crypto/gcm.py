"""AES-128-GCM authenticated encryption (NIST SP 800-38D).

This is the paper's ``(AEEncrypt, AEDecrypt)`` scheme: it encrypts the backed
up disk image under the transport key, wraps Shamir shares inside hashed
ElGamal, and protects every node of the secure-deletion key tree.

The implementation composes the pure-Python AES core with CTR-mode keystream
generation and a GHASH tag over (AAD, ciphertext).  GHASH multiplies by the
hash subkey H four bits at a time through a 16-entry table of H's nibble
multiples; keystream and tag mask are XORed on as big integers.  The table
is built per ``AesGcm`` (three doublings and eleven XORs — cheap enough for
the one-shot keys of the deletion tree) and, like the AES key schedule, is
held by the instance only: no module-level state depends on a key.
Validated against NIST GCM test vectors and, differentially, against a
bit-serial reference in the test suite.
"""

from __future__ import annotations

import secrets
from typing import Tuple

from repro.crypto.aes import Aes128
from repro.crypto.hashing import constant_time_equal


class AuthenticationError(Exception):
    """Raised when a GCM tag (or any AE integrity check) fails."""


# GCM's field is GF(2^128) mod x^128 + x^7 + x^2 + x + 1 with the bits
# reflected: the MSB of a block is the coefficient of x^0, so multiplying by
# x is a right shift and the reduction constant enters at the top.
_R = 0xE1000000000000000000000000000000


def _times_x(v: int) -> int:
    return (v >> 1) ^ _R if v & 1 else v >> 1


def _build_reduce4() -> Tuple[int, ...]:
    # What the four bits shifted out by a multiply-by-x^4 fold back in as.
    table = []
    for low in range(16):
        v = low
        for _ in range(4):
            v = _times_x(v)
        table.append(v)
    return tuple(table)


_REDUCE4 = _build_reduce4()  # key-independent


def _nibble_multiples(h: int) -> Tuple[int, ...]:
    """``table[n] = n * H`` for every 4-bit polynomial ``n`` (bit 3 is x^0)."""
    h4 = _times_x(h)
    h2 = _times_x(h4)
    h1 = _times_x(h2)
    h3, h5, h6 = h2 ^ h1, h4 ^ h1, h4 ^ h2
    h7 = h6 ^ h1
    return (0, h1, h2, h3, h4, h5, h6, h7,
            h, h ^ h1, h ^ h2, h ^ h3, h ^ h4, h ^ h5, h ^ h6, h ^ h7)


class AesGcm:
    """AES-128-GCM with 12-byte nonces and 16-byte tags."""

    NONCE_LEN = 12
    TAG_LEN = 16

    def __init__(self, key: bytes) -> None:
        self._aes = Aes128(key)
        h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")
        self._h_table = _nibble_multiples(h)

    # -- internals ------------------------------------------------------------
    def _mul_h(self, x: int) -> int:
        """``x * H`` in GF(2^128): Horner over the 32 nibbles of ``x`` from
        the highest power down, one shift-by-x^4 and one table entry each."""
        table, reduce4 = self._h_table, _REDUCE4
        z = 0
        for byte in x.to_bytes(16, "little"):
            z = (z >> 4) ^ reduce4[z & 15] ^ table[byte & 15]
            z = (z >> 4) ^ reduce4[z & 15] ^ table[byte >> 4]
        return z

    def _ghash(self, aad: bytes, ciphertext: bytes) -> int:
        y = 0
        for data in (aad, ciphertext):
            for i in range(0, len(data), 16):
                # A short final chunk is zero-padded on the right.
                chunk = data[i : i + 16]
                block = int.from_bytes(chunk, "big") << (8 * (16 - len(chunk)))
                y = self._mul_h(y ^ block)
        return self._mul_h(y ^ ((len(aad) * 8) << 64 | (len(ciphertext) * 8)))

    def _ctr_xor(self, nonce: bytes, data: bytes) -> bytes:
        """XOR ``data`` with the keystream of counter blocks 2, 3, ..."""
        encrypt_block = self._aes.encrypt_block
        stream = b"".join(
            encrypt_block(nonce + counter.to_bytes(4, "big"))
            for counter in range(2, 2 + (len(data) + 15) // 16)
        )
        mask = int.from_bytes(stream[: len(data)], "big")
        return (int.from_bytes(data, "big") ^ mask).to_bytes(len(data), "big")

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        s = self._ghash(aad, ciphertext)
        mask = self._aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return (s ^ int.from_bytes(mask, "big")).to_bytes(16, "big")

    def _check_nonce(self, nonce: bytes) -> None:
        if len(nonce) != self.NONCE_LEN:
            raise ValueError("GCM nonce must be 12 bytes")

    # -- public API -------------------------------------------------------------
    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || 16-byte tag."""
        self._check_nonce(nonce)
        ciphertext = self._ctr_xor(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raise on any tampering."""
        if len(data) < self.TAG_LEN:
            raise AuthenticationError("ciphertext shorter than tag")
        self._check_nonce(nonce)
        ciphertext, tag = data[: -self.TAG_LEN], data[-self.TAG_LEN :]
        if not constant_time_equal(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("GCM tag mismatch")
        return self._ctr_xor(nonce, ciphertext)


def ae_cost(length: int) -> Tuple[int, int]:
    """``(AES block operations, ciphertext bytes)`` of one :func:`ae_encrypt`
    or :func:`ae_decrypt` of ``length`` bytes: the GHASH subkey, the tag mask
    and one CTR block per 16 bytes; the nonce and the tag around the data."""
    return 2 + (length + 15) // 16, AesGcm.NONCE_LEN + AesGcm.TAG_LEN + length


def ae_encrypt(key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One-shot AE with a random nonce prepended (the paper's AEEncrypt)."""
    nonce = secrets.token_bytes(AesGcm.NONCE_LEN)
    return nonce + AesGcm(key).encrypt(nonce, plaintext, aad)


def ae_decrypt(key: bytes, data: bytes, aad: bytes = b"") -> bytes:
    """Inverse of :func:`ae_encrypt` (the paper's AEDecrypt)."""
    if len(data) < AesGcm.NONCE_LEN + AesGcm.TAG_LEN:
        raise AuthenticationError("AE ciphertext too short")
    nonce, body = data[: AesGcm.NONCE_LEN], data[AesGcm.NONCE_LEN :]
    return AesGcm(key).decrypt(nonce, body, aad)
