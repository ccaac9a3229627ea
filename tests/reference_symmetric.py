"""Reference symmetric crypto: byte-wise AES-128 and bit-serial GHASH.

This is the implementation ``repro.crypto.aes``/``repro.crypto.gcm`` shipped
before the table-driven fast path, moved here verbatim in substance: a 4x4
byte state, ``_gmul`` per MixColumns term, a 128-iteration shift-and-add
multiply in GF(2^128).  It is slow and obviously follows FIPS-197 and
SP 800-38D line by line, which is what a differential oracle should be.
It also keeps the inverse cipher, which ``src/`` no longer needs (GCM only
ever runs AES forwards).  The cipher and GHASH here are not metered.

:func:`reference_walk` is the key tree's walk down as it was before a tree
level became one cipher call: a node at a time, each opened by its own
one-message ``open_each`` and billed as it happens.  It is the oracle for what
``PathWalk`` must leave on the meter wherever a walk is refused.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro import metering
from repro.crypto.gcm import AuthenticationError, open_each
from repro.crypto.hashing import constant_time_equal
from repro.storage import securedel


def _build_tables() -> tuple:
    # Multiplicative inverses in GF(2^8) via log/antilog tables on generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    sbox = [0] * 256
    for i in range(256):
        c = 0 if i == 0 else exp[255 - log[i]]
        s = c
        for _ in range(4):
            c = ((c << 1) | (c >> 7)) & 0xFF
            s ^= c
        sbox[i] = s ^ 0x63
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return tuple(sbox), tuple(inv_sbox), tuple(exp), tuple(log)


_SBOX, _INV_SBOX, _EXP, _LOG = _build_tables()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication via log tables."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _shift_rows(s: List[int]) -> List[int]:
    # state[col*4 + row]; row r rotates left by r.
    return [
        s[0], s[5], s[10], s[15],
        s[4], s[9], s[14], s[3],
        s[8], s[13], s[2], s[7],
        s[12], s[1], s[6], s[11],
    ]


def _inv_shift_rows(s: List[int]) -> List[int]:
    return [
        s[0], s[13], s[10], s[7],
        s[4], s[1], s[14], s[11],
        s[8], s[5], s[2], s[15],
        s[12], s[9], s[6], s[3],
    ]


def _mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for c in range(4):
        col = state[c * 4 : c * 4 + 4]
        out[c * 4 + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
        out[c * 4 + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
        out[c * 4 + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
        out[c * 4 + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)
    return out


def _inv_mix_columns(state: List[int]) -> List[int]:
    out = [0] * 16
    for c in range(4):
        col = state[c * 4 : c * 4 + 4]
        out[c * 4 + 0] = _gmul(col[0], 14) ^ _gmul(col[1], 11) ^ _gmul(col[2], 13) ^ _gmul(col[3], 9)
        out[c * 4 + 1] = _gmul(col[0], 9) ^ _gmul(col[1], 14) ^ _gmul(col[2], 11) ^ _gmul(col[3], 13)
        out[c * 4 + 2] = _gmul(col[0], 13) ^ _gmul(col[1], 9) ^ _gmul(col[2], 14) ^ _gmul(col[3], 11)
        out[c * 4 + 3] = _gmul(col[0], 11) ^ _gmul(col[1], 13) ^ _gmul(col[2], 9) ^ _gmul(col[3], 14)
    return out


class ReferenceAes128:
    """AES with a 128-bit key: 10 rounds over a 4x4 byte state."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = [_SBOX[b] for b in temp[1:] + temp[:1]]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([w ^ t for w, t in zip(words[i - 4], temp)])
        #: 11 round keys of 16 bytes (column-major state layout).
        self.round_keys = [sum(words[r * 4 : r * 4 + 4], []) for r in range(11)]

    def _add_round_key(self, state: List[int], rnd: int) -> List[int]:
        return [s ^ k for s, k in zip(state, self.round_keys[rnd])]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = self._add_round_key(list(block), 0)
        for rnd in range(1, 10):
            state = _mix_columns(_shift_rows([_SBOX[b] for b in state]))
            state = self._add_round_key(state, rnd)
        state = _shift_rows([_SBOX[b] for b in state])
        return bytes(self._add_round_key(state, 10))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = self._add_round_key(list(block), 10)
        for rnd in range(9, 0, -1):
            state = [_INV_SBOX[b] for b in _inv_shift_rows(state)]
            state = _inv_mix_columns(self._add_round_key(state, rnd))
        state = [_INV_SBOX[b] for b in _inv_shift_rows(state)]
        return bytes(self._add_round_key(state, 0))


def gf128_mul(x: int, y: int) -> int:
    """Multiplication in GF(2^128) with the GCM polynomial (bit-reflected:
    the MSB of a block is the coefficient of x^0), SP 800-38D section 6.3."""
    r = 0xE1000000000000000000000000000000
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ r
        else:
            v >>= 1
    return z


def ghash(h: int, aad: bytes, ciphertext: bytes) -> int:
    """GHASH_H over zero-padded AAD, zero-padded ciphertext and both bit
    lengths, as the 128-bit integer the tag mask is XORed onto."""
    y = 0
    for data in (aad, ciphertext):
        for i in range(0, len(data), 16):
            block = data[i : i + 16].ljust(16, b"\x00")
            y = gf128_mul(y ^ int.from_bytes(block, "big"), h)
    lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
    return gf128_mul(y ^ int.from_bytes(lengths, "big"), h)


class ReferenceAesGcm:
    """AES-128-GCM with 12-byte nonces and 16-byte tags, byte by byte."""

    def __init__(self, key: bytes) -> None:
        self._aes = ReferenceAes128(key)
        self._h = int.from_bytes(self._aes.encrypt_block(bytes(16)), "big")

    def _ctr_xor(self, nonce: bytes, data: bytes) -> bytes:
        stream = bytearray()
        counter = 2
        while len(stream) < len(data):
            stream.extend(self._aes.encrypt_block(nonce + counter.to_bytes(4, "big")))
            counter += 1
        return bytes(d ^ k for d, k in zip(data, stream))

    def _tag(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        if len(nonce) != 12:
            raise ValueError("GCM nonce must be 12 bytes")
        s = ghash(self._h, aad, ciphertext).to_bytes(16, "big")
        mask = self._aes.encrypt_block(nonce + b"\x00\x00\x00\x01")
        return bytes(a ^ b for a, b in zip(s, mask))

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._ctr_xor(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        if len(data) < 16:
            raise AuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = data[:-16], data[-16:]
        if not constant_time_equal(tag, self._tag(nonce, aad, ciphertext)):
            raise AuthenticationError("GCM tag mismatch")
        return self._ctr_xor(nonce, ciphertext)


def reference_walk(tree: "securedel.SecureDeletionTree", indices: Iterable[int]) -> Dict[int, bytes]:
    """The node-at-a-time walk down: every internal node on the union of the
    indices' paths, root first, billed a key read, fetched and opened under
    the key its parent's payload holds — one ``open_each`` per node.  A
    withheld block raises :class:`AuthenticationError` like a bad tag.
    Returns the opened payloads by address."""
    store = tree._store
    union = sorted({addr for index in indices for addr in tree._path_addrs(index)[:-1]})
    payloads: Dict[int, bytes] = {}
    for addr in union:
        metering.count("flash_read_bytes", securedel.KEY_LEN)
        if addr == 1:
            key = tree.root_key
        else:
            parent = payloads[addr // 2]
            key = parent[: securedel.KEY_LEN] if addr % 2 == 0 else parent[securedel.KEY_LEN :]
        try:
            block = store.get(addr)
        except KeyError as exc:
            raise AuthenticationError(f"key-tree block {addr} was not served") from exc
        (payloads[addr],) = open_each([(key, block, securedel._addr_aad(addr))])
    return payloads
