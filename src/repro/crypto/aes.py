"""AES-128 block cipher (FIPS 197), pure Python, forward direction only.

Only the pieces SafetyPin needs: key expansion plus the forward cipher on
single 16-byte blocks.  GCM mode (``repro.crypto.gcm``) builds the
authenticated-encryption scheme the paper's construction calls ``AEEncrypt``/
``AEDecrypt`` on top of it, and GCM never runs AES backwards, so there is no
inverse cipher here (the test suite keeps one in its byte-wise reference).

The state is four 32-bit column words and a round is 16 look-ups in four
256-entry T-tables that fold SubBytes, ShiftRows and MixColumns together;
the tables are key-independent and built once at import from the S-box.
Everything key-dependent — the 44-word schedule — lives on the ``Aes128``
instance and nowhere else: the secure-deletion tree relies on a deleted
key's schedule becoming garbage with the object, so nothing in this module
may cache by key.  This is a host-speed model of the cipher; a real HSM
uses its AES engine and timing-safe table access is not a goal.

Each block operation reports ``aes_block`` to the ambient meter; the paper's
SoloKey sustains 3,703.7 AES-128 block ops per second (Table 7).
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro import metering

# -- tables (computed once at import; avoids 256-entry literals) -------------


def _build_sbox() -> Tuple[int, ...]:
    # Multiplicative inverses in GF(2^8) via log/antilog tables on generator 3.
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by 3 = x * 2 ^ x
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    sbox = [0] * 256
    for i in range(256):
        c = 0 if i == 0 else exp[(255 - log[i]) % 255]
        s = c
        for _ in range(4):
            c = ((c << 1) | (c >> 7)) & 0xFF
            s ^= c
        sbox[i] = s ^ 0x63
    return tuple(sbox)


def _build_round_tables(sbox: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    # T0[b] is MixColumns applied to the column (S[b], 0, 0, 0): the word
    # (2s, s, s, 3s), row 0 in the top byte.  T1..T3 are the same for the
    # other three rows, i.e. T0 rotated right by 8, 16 and 24 bits.
    tables = [[0] * 256 for _ in range(4)]
    for b, s in enumerate(sbox):
        s2 = (s << 1) ^ (0x11B if s & 0x80 else 0)
        word = (s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s)
        for table in tables:
            table[b] = word
            word = (word >> 8) | ((word & 0xFF) << 24)
    return tuple(tuple(table) for table in tables)


_SBOX = _build_sbox()
_T0, _T1, _T2, _T3 = _build_round_tables(_SBOX)
_RCON = tuple(r << 24 for r in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36))
_WORDS = struct.Struct(">4I")

RoundKey = Tuple[int, int, int, int]


class Aes128:
    """AES with a 128-bit key: 10 rounds over four 32-bit column words."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> Tuple[RoundKey, ...]:
        """The FIPS-197 schedule as 11 round keys of four column words."""
        sbox = _SBOX
        w0, w1, w2, w3 = _WORDS.unpack(key)
        round_keys = [(w0, w1, w2, w3)]
        for rcon in _RCON:
            # SubWord(RotWord(w3)) ^ Rcon, then the running XOR across the row.
            w0 ^= (
                sbox[(w3 >> 16) & 255] << 24 | sbox[(w3 >> 8) & 255] << 16
                | sbox[w3 & 255] << 8 | sbox[w3 >> 24]
            ) ^ rcon
            w1 ^= w0
            w2 ^= w1
            w3 ^= w2
            round_keys.append((w0, w1, w2, w3))
        return tuple(round_keys)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (metered as one ``aes_block``)."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        metering.count("aes_block")
        round_keys = self._round_keys
        t0, t1, t2, t3, sbox = _T0, _T1, _T2, _T3, _SBOX
        s0, s1, s2, s3 = _WORDS.unpack(block)
        k0, k1, k2, k3 = round_keys[0]
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        # ShiftRows is the choice of source column: output column c takes
        # row r from input column c + r.
        for k0, k1, k2, k3 in round_keys[1:10]:
            n0 = t0[s0 >> 24] ^ t1[(s1 >> 16) & 255] ^ t2[(s2 >> 8) & 255] ^ t3[s3 & 255] ^ k0
            n1 = t0[s1 >> 24] ^ t1[(s2 >> 16) & 255] ^ t2[(s3 >> 8) & 255] ^ t3[s0 & 255] ^ k1
            n2 = t0[s2 >> 24] ^ t1[(s3 >> 16) & 255] ^ t2[(s0 >> 8) & 255] ^ t3[s1 & 255] ^ k2
            s3 = t0[s3 >> 24] ^ t1[(s0 >> 16) & 255] ^ t2[(s1 >> 8) & 255] ^ t3[s2 & 255] ^ k3
            s0, s1, s2 = n0, n1, n2
        # Final round has no MixColumns: plain S-box bytes.
        k0, k1, k2, k3 = round_keys[10]
        return _WORDS.pack(
            (sbox[s0 >> 24] << 24 | sbox[(s1 >> 16) & 255] << 16
             | sbox[(s2 >> 8) & 255] << 8 | sbox[s3 & 255]) ^ k0,
            (sbox[s1 >> 24] << 24 | sbox[(s2 >> 16) & 255] << 16
             | sbox[(s3 >> 8) & 255] << 8 | sbox[s0 & 255]) ^ k1,
            (sbox[s2 >> 24] << 24 | sbox[(s3 >> 16) & 255] << 16
             | sbox[(s0 >> 8) & 255] << 8 | sbox[s1 & 255]) ^ k2,
            (sbox[s3 >> 24] << 24 | sbox[(s0 >> 16) & 255] << 16
             | sbox[(s1 >> 8) & 255] << 8 | sbox[s2 & 255]) ^ k3,
        )
