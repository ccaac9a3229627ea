"""AES-128 block cipher (FIPS 197), pure Python, forward direction only.

Only the pieces SafetyPin needs: key expansion plus the forward cipher.
GCM mode (``repro.crypto.gcm``) builds the authenticated-encryption scheme
the paper's construction calls ``AEEncrypt``/``AEDecrypt`` on top of it, and
GCM never runs AES backwards, so there is no inverse cipher here (the test
suite keeps one in its byte-wise reference).

The cipher is byte-sliced: :func:`encrypt_blocks` runs many 16-byte blocks
— *lanes* — through the ten rounds at once, each lane under its own key.
The state of a call is one big int, the lanes side by side; a round key is
one *row* with each lane's round key in its lane, and the key schedule
itself runs lane-wise, every lane's expansion in one pass.  SubBytes is one
``bytes.translate`` of the whole state and MixColumns' doubling a second;
ShiftRows, MixColumns' row rotations and the schedule's RotWord are
mask-and-shift moves inside each lane, so no byte ever crosses into its
neighbour and every lane comes out bit for bit what the one-block cipher
makes of it.  The masks are built once at import for the widest call and
are independent of any key.  ``Aes128.encrypt_block`` is the one-lane case.

A call is at most ``MAX_LANES`` blocks; wider input is cut into calls of
that width.  At 28 blocks the state's int (120 30-bit digits) and bytes
(481 bytes) are the largest that stay pymalloc small objects (≤ 512
bytes): wider calls put KB-sized ints on the C allocator's per-thread
arenas — one per HSM worker thread — which showed as resident memory, and
the cap keeps a call's transient independent of a long message's length.
On a 2-core Xeon under CPython 3.11, with each call's key expansion
included: ≈ 2.9 µs a block at 28 lanes, ≈ 7.9 µs at a key-tree node's 4,
≈ 24 µs for a lone block — against ≈ 12 µs a block for the one-block
T-table cipher this replaced.

Everything key-dependent is the ``Aes128`` instance's key and a call's
rows, which live in its frame: the secure-deletion tree relies on a
deleted key's schedule becoming garbage with the call, so nothing in this
module may cache by key — nor by width, since a cache of rows would be one
more place a key outlives its node.  This is a host-speed model of the
cipher; a real HSM uses its AES engine and timing-safe table access is not
a goal.

``Aes128.encrypt_block`` reports one ``aes_block`` to the ambient meter;
:func:`encrypt_blocks` leaves billing to its caller, because GCM bills a
failed open as the block-at-a-time code did (the hash subkey and the tag
mask, not the keystream computed alongside).  The paper's SoloKey sustains
3,703.7 AES-128 block ops per second (Table 7).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro import metering

# -- tables (computed once at import; avoids 256-entry literals) -------------


def _build_sbox() -> bytes:
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
    return bytes(sbox)


_SBOX = _build_sbox()
_XTIME = bytes(((b << 1) ^ (0x11B if b & 0x80 else 0)) & 0xFF for b in range(256))
_RCON = tuple(r << 24 for r in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36))
_WORD_ONES = int.from_bytes(b"\x00\x00\x00\x01" * 4, "big")

#: The widest kernel call, in blocks: the widest whose state int and bytes
#: stay pymalloc small objects (module docstring).  Measured against the
#: alternatives: calls as wide as a whole tree's set-up raised a ledger
#: pass's peak RSS by 4.3 MB.
MAX_LANES = 28


def _lanes(pattern: bytes) -> int:
    """A 16-byte lane pattern repeated across the widest call."""
    return int.from_bytes(pattern * MAX_LANES, "big")


def _shift_rows_masks() -> Dict[int, int]:
    """ShiftRows as moves inside a lane, one mask per distance.

    The state is column-major — byte ``4c + r`` is row ``r`` of column
    ``c`` — and byte ``k`` of a lane sits ``8·(15 − k)`` bits up.  Output
    byte ``4c + r`` takes input byte ``4·((c + r) mod 4) + r``, so an input
    byte moves ``4r`` places towards byte 0 (a left shift) or, where its
    row wraps, ``16 − 4r`` places away (a right shift).  Keyed by the left
    shift in bits, negative for right shifts.
    """
    moves: Dict[int, bytearray] = {}
    for col in range(4):
        for row in range(4):
            source, dest = 4 * col + row, 4 * ((col - row) % 4) + row
            moves.setdefault(8 * (source - dest), bytearray(16))[source] = 0xFF
    return {shift: _lanes(bytes(mask)) for shift, mask in moves.items()}


_SR = _shift_rows_masks()
_SR_KEEP, _SR_L32, _SR_L64, _SR_L96 = _SR[0], _SR[32], _SR[64], _SR[96]
_SR_R32, _SR_R64, _SR_R96 = _SR[-32], _SR[-64], _SR[-96]
del _SR
# Rotations inside each 32-bit word: MixColumns' rows, the schedule's RotWord.
_ROW0 = _lanes(b"\xff\x00\x00\x00" * 4)
_ROWS123 = _lanes(b"\x00\xff\xff\xff" * 4)
_ROWS01 = _lanes(b"\xff\xff\x00\x00" * 4)
_ROWS23 = _lanes(b"\x00\x00\xff\xff" * 4)
# The schedule's words inside each lane: w1-w3, w2-w3, w3.
_WORDS123 = _lanes(b"\x00" * 4 + b"\xff" * 12)
_WORDS23 = _lanes(b"\x00" * 8 + b"\xff" * 8)
_WORD3 = _lanes(b"\x00" * 12 + b"\xff" * 4)
# One 1 per lane: ``x * _ONES`` (cut to a width) puts ``x`` in every lane.
_ONES = _lanes(b"\x00" * 15 + b"\x01")


def _schedule(keys: int, lanes: int) -> List[int]:
    """The 11 round-key rows of ``lanes`` lanes, lane ``j`` keyed by the
    ``j``-th 16 bytes of ``keys``: the FIPS-197 expansion in every lane at
    once.  A round is ``w0 ^= t`` and the running XOR across the row —
    ``k ^ k>>32 ^ k>>64 ^ k>>96`` inside each lane — with ``t =
    SubWord(RotWord(w3)) ^ Rcon`` XORed into all four words."""
    size = 16 * lanes
    ones = _ONES >> (128 * (MAX_LANES - lanes))
    from_bytes, sbox = int.from_bytes, _SBOX
    row0, rows123, words123, words23, word3 = _ROW0, _ROWS123, _WORDS123, _WORDS23, _WORD3
    k = keys
    rows = [k]
    for rcon in _RCON:
        s = from_bytes(k.to_bytes(size, "big").translate(sbox), "big")
        t = ((s & rows123) << 8 | (s & row0) >> 24) & word3 ^ rcon * ones
        k ^= (k >> 32) & words123
        k ^= (k >> 64) & words23 ^ t * _WORD_ONES
        rows.append(k)
    return rows


def _cipher(state: int, rows: List[int], size: int) -> int:
    """The ten rounds over ``size // 16`` lanes; ``rows`` are the 11
    round-key rows.  MixColumns uses ``b_i = a_i ^ t ^ 2·(a_i ^ a_{i+1})``
    with ``t`` the XOR of the column, which is ``u_i ^ u_{i+2}`` for
    ``u_i = a_i ^ a_{i+1}``."""
    from_bytes, sbox, xtime = int.from_bytes, _SBOX, _XTIME
    keep, l32, l64, l96 = _SR_KEEP, _SR_L32, _SR_L64, _SR_L96
    r32, r64, r96 = _SR_R32, _SR_R64, _SR_R96
    row0, rows123, rows01, rows23 = _ROW0, _ROWS123, _ROWS01, _ROWS23
    state ^= rows[0]
    for rnd in range(1, 11):
        s = from_bytes(state.to_bytes(size, "big").translate(sbox), "big")
        s = ((s & keep) | (s & l32) << 32 | (s & l64) << 64 | (s & l96) << 96
             | (s & r32) >> 32 | (s & r64) >> 64 | (s & r96) >> 96)
        if rnd < 10:  # the final round has no MixColumns
            u = s ^ ((s & rows123) << 8 | (s & row0) >> 24)
            s ^= (u ^ ((u & rows23) << 16 | (u & rows01) >> 16)
                  ^ from_bytes(u.to_bytes(size, "big").translate(xtime), "big"))
        state = s ^ rows[rnd]
    return state


def _calls(runs: Iterable[Tuple["Aes128", bytes]]) -> Iterator[Tuple[bytes, bytes]]:
    """The runs cut and packed into calls of up to ``MAX_LANES`` lanes:
    each call's keys (one per lane) and blocks."""
    keys: List[bytes] = []
    blocks: List[bytes] = []
    lanes = 0
    for cipher, data in runs:
        if len(data) % 16:
            raise ValueError("AES input must be whole 16-byte blocks")
        start = 0
        while start < len(data):
            take = min(MAX_LANES - lanes, (len(data) - start) >> 4)
            keys.append(cipher._key * take)
            blocks.append(data[start : start + 16 * take])
            start += 16 * take
            lanes += take
            if lanes == MAX_LANES:
                yield b"".join(keys), b"".join(blocks)
                keys, blocks, lanes = [], [], 0
    if lanes:
        yield b"".join(keys), b"".join(blocks)


def encrypt_blocks(runs: Iterable[Tuple["Aes128", bytes]]) -> bytes:
    """Encrypt ``(cipher, data)`` runs: every 16-byte block of ``data``
    under ``cipher``, runs in order, in calls of up to ``MAX_LANES`` lanes
    (a run may straddle two calls).  Returns the ciphertext blocks in input
    order.  Not metered: the caller bills ``aes_block``."""
    out: List[bytes] = []
    last_keys, rows = b"", []
    for keys, data in _calls(runs):
        size = len(data)
        if keys != last_keys:  # a long one-key message expands its key once
            rows, last_keys = _schedule(int.from_bytes(keys, "big"), size >> 4), keys
        out.append(_cipher(int.from_bytes(data, "big"), rows, size).to_bytes(size, "big"))
    return b"".join(out)


class Aes128:
    """AES with a 128-bit key; its blocks run through :func:`encrypt_blocks`."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self._key = key

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (metered as one ``aes_block``)."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        metering.count("aes_block")
        return encrypt_blocks(((self, block),))
