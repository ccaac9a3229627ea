"""AES-128-GCM authenticated encryption (NIST SP 800-38D).

This is the paper's ``(AEEncrypt, AEDecrypt)`` scheme: it encrypts the backed
up disk image under the transport key, wraps Shamir shares inside hashed
ElGamal, and protects every node of the secure-deletion key tree.

There are two entry points, :func:`seal_each` and :func:`open_each`, and
:func:`ae_encrypt` / :func:`ae_decrypt` are their one-message case.  A
message's cipher work — the zero block (the hash subkey H), ``nonce ‖ 1``
(the tag mask) and the counter blocks ``nonce ‖ 2, 3, …`` (the CTR
keystream) — is lanes of a :func:`repro.crypto.aes.encrypt_blocks` call,
and many messages, each under its own key, share calls of up to
``MAX_LANES`` blocks: the key tree seals a level of a set-up or a whole
re-key that way and opens a level of its walk down, a Bloom-filter
ciphertext its k wraps and its payload.  A sealed message is
``nonce ‖ ciphertext ‖ tag`` with ``NONCE_LEN`` and ``TAG_LEN`` bytes
around the data.

GHASH multiplies by H four bits at a time through a 16-entry table of H's
nibble multiples; keystream and tag mask are XORed on as big integers.  The
table is built per message (three doublings and eleven XORs — cheap enough
for the one-shot keys of the deletion tree) and, like the AES round keys,
is held by the call only: no module-level state depends on a key.  With
the cipher batched, GHASH is about half of a key-tree node's seal (five
multiplies for a 32-byte node under its 22-byte address).

Billing follows the block-at-a-time code, not the fused call: a seal is
``ae_cost(length)`` blocks; an open reports H and the tag mask, and the
keystream blocks only once the tag has verified — a refused open costs 2,
and nothing after it in a batch is billed.  Validated against NIST GCM test
vectors and, differentially, against a bit-serial reference in the test
suite.
"""

from __future__ import annotations

import secrets
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro import metering
from repro.crypto.aes import MAX_LANES, Aes128, encrypt_blocks
from repro.crypto.hashing import constant_time_equal


class AuthenticationError(Exception):
    """Raised when a GCM tag (or any AE integrity check) fails."""


NONCE_LEN = 12
TAG_LEN = 16

#: The nonce of a key that encrypts exactly one message, and only of such
#: a key: SP 800-38D §8.2.1's deterministic construction with one
#: invocation per key, so the (key, nonce) pair is still never repeated.
#: A Bloom-filter slot wrap (its key a KDF of a fresh ``r·pk`` and the
#: slot), a Bloom-filter payload (a fresh 16-byte key), the LHE payload
#: (a fresh transport key) and a hashed-ElGamal body (its key a KDF of a
#: fresh ``r·X``) seal under it.  A key that seals again — the
#: incremental backups' master key, a key-tree node key — draws a random
#: nonce for every message.
ONE_TIME_NONCE = bytes(NONCE_LEN)
_ZERO_BLOCK = bytes(16)

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

HashTable = Tuple[int, ...]
# One message's key material out of the cipher: H's nibble table, the tag
# mask and the keystream.
Streams = Tuple[HashTable, int, bytes]
# What :func:`seal_each` takes — (key, nonce, plaintext, aad) — and what
# :func:`open_each` takes — (key, nonce ‖ ciphertext ‖ tag, aad).
Message = Tuple[bytes, bytes, bytes, bytes]
Sealed = Tuple[bytes, bytes, bytes]
# A message inside a call: (cipher, nonce, text, aad), ``text`` being the
# plaintext of a seal or the ciphertext ‖ tag of an open.
_Keyed = Tuple[Aes128, bytes, bytes, bytes]


def _nibble_multiples(h: int) -> HashTable:
    """``table[n] = n * H`` for every 4-bit polynomial ``n`` (bit 3 is x^0)."""
    h4 = _times_x(h)
    h2 = _times_x(h4)
    h1 = _times_x(h2)
    h3, h5, h6 = h2 ^ h1, h4 ^ h1, h4 ^ h2
    h7 = h6 ^ h1
    return (0, h1, h2, h3, h4, h5, h6, h7,
            h, h ^ h1, h ^ h2, h ^ h3, h ^ h4, h ^ h5, h ^ h6, h ^ h7)


def _mul_h(table: HashTable, x: int) -> int:
    """``x * H`` in GF(2^128): Horner over the 32 nibbles of ``x`` from the
    highest power down, one shift-by-x^4 and one table entry each."""
    reduce4 = _REDUCE4
    z = 0
    for byte in x.to_bytes(16, "little"):
        z = (z >> 4) ^ reduce4[z & 15] ^ table[byte & 15]
        z = (z >> 4) ^ reduce4[z & 15] ^ table[byte >> 4]
    return z


def _ghash(table: HashTable, aad: bytes, ciphertext: bytes) -> int:
    y = 0
    for data in (aad, ciphertext):
        for i in range(0, len(data), 16):
            # A short final chunk is zero-padded on the right.
            chunk = data[i : i + 16]
            block = int.from_bytes(chunk, "big") << (8 * (16 - len(chunk)))
            y = _mul_h(table, y ^ block)
    return _mul_h(table, y ^ ((len(aad) * 8) << 64 | (len(ciphertext) * 8)))


def _tag(streams: Streams, aad: bytes, ciphertext: bytes) -> bytes:
    table, mask, _ = streams
    return (_ghash(table, aad, ciphertext) ^ mask).to_bytes(16, "big")


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR the equally long ``stream``, as big integers."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


def _key_streams(messages: Sequence[Tuple[Aes128, bytes, int]]) -> List[Streams]:
    """H's table, the tag mask and ``length`` bytes of keystream for each
    ``(cipher, nonce, length)``: the zero block, ``nonce ‖ 1`` and the
    counter blocks from 2 of every message as lanes of one
    :func:`encrypt_blocks` call.  Not metered."""
    runs = []
    for cipher, nonce, length in messages:
        if len(nonce) != NONCE_LEN:
            raise ValueError("GCM nonce must be 12 bytes")
        counters = b"".join(nonce + c.to_bytes(4, "big") for c in range(1, 2 + (length + 15) // 16))
        runs.append((cipher, _ZERO_BLOCK + counters))
    out = encrypt_blocks(runs)
    streams, at = [], 0
    for (_, _, length), (_, blocks) in zip(messages, runs):
        h = int.from_bytes(out[at : at + 16], "big")
        mask = int.from_bytes(out[at + 16 : at + 32], "big")
        streams.append((_nibble_multiples(h), mask, out[at + 32 : at + 32 + length]))
        at += len(blocks)
    return streams


def ae_cost(length: int) -> Tuple[int, int]:
    """``(AES block operations, ciphertext bytes)`` of one :func:`ae_encrypt`
    or :func:`ae_decrypt` of ``length`` bytes: the GHASH subkey, the tag mask
    and one CTR block per 16 bytes; the nonce and the tag around the data."""
    return 2 + (length + 15) // 16, NONCE_LEN + TAG_LEN + length


def ae_encrypt(key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """One-shot AE with a random nonce prepended (the paper's AEEncrypt)."""
    return seal_each([(key, secrets.token_bytes(NONCE_LEN), plaintext, aad)])[0]


def ae_decrypt(key: bytes, data: bytes, aad: bytes = b"") -> bytes:
    """Inverse of :func:`ae_encrypt` (the paper's AEDecrypt)."""
    (plaintext,) = open_each([(key, data, aad)])
    return plaintext


def seal_one_time(messages: Iterable[Tuple[bytes, bytes, bytes]]) -> List[bytes]:
    """``ciphertext ‖ tag`` for every ``(key, plaintext, aad)`` whose key
    encrypts this one message: :func:`seal_each` under
    :data:`ONE_TIME_NONCE`, the constant left off.  Billed as
    :func:`seal_each`."""
    sealed = seal_each((key, ONE_TIME_NONCE, plaintext, aad) for key, plaintext, aad in messages)
    return [data[NONCE_LEN:] for data in sealed]


def open_one_time(key: bytes, data: bytes, aad: bytes = b"") -> bytes:
    """Inverse of :func:`seal_one_time`: :func:`ae_decrypt` of
    ``ONE_TIME_NONCE ‖ data``."""
    return ae_decrypt(key, ONE_TIME_NONCE + data, aad)


def _groups(messages: Iterable[Message], tag_len: int) -> Iterator[List[_Keyed]]:
    """The messages, consumed lazily, in groups of at most ``MAX_LANES``
    cipher blocks (a longer message is a group of its own).  A text
    shorter than ``tag_len`` cannot be opened: the group before it is
    yielded, then :class:`AuthenticationError` raised in its place."""
    group: List[_Keyed] = []
    lanes = 0
    for key, nonce, text, aad in messages:
        if len(text) < tag_len:
            if group:
                yield group
            raise AuthenticationError("AE ciphertext too short")
        blocks = ae_cost(len(text) - tag_len)[0]
        if group and lanes + blocks > MAX_LANES:
            yield group
            group, lanes = [], 0
        group.append((Aes128(key), nonce, text, aad))
        lanes += blocks
    if group:
        yield group


def seal_each(messages: Iterable[Message]) -> List[bytes]:
    """``nonce ‖ ciphertext ‖ tag`` for every ``(key, nonce, plaintext,
    aad)``, in order, with nonces the caller drew.

    A group of messages of up to ``MAX_LANES`` cipher blocks is one
    :func:`encrypt_blocks` call.  The iterable is consumed lazily and in
    order, so a caller that draws its keys and nonces inside it draws them
    in its sequential order.  Billed as the sequential calls:
    ``Σ ae_cost(len(plaintext))`` blocks.
    """
    sealed = []
    for group in _groups(messages, 0):
        all_streams = _key_streams([(cipher, nonce, len(pt)) for cipher, nonce, pt, _ in group])
        metering.count("aes_block", sum(ae_cost(len(pt))[0] for _, _, pt, _ in group))
        for (_, nonce, plaintext, aad), streams in zip(group, all_streams):
            ciphertext = _xor(plaintext, streams[2])
            sealed.append(nonce + ciphertext + _tag(streams, aad, ciphertext))
    return sealed


def open_each(messages: Iterable[Sealed]) -> Iterator[bytes]:
    """The plaintext of every ``(key, nonce ‖ ciphertext ‖ tag, aad)``, in
    order, each yielded once its tag verifies: :func:`seal_each`'s twin,
    in the same lazy groups of calls.  Billed and refused as a loop of
    :func:`ae_decrypt`: a message bills 2 blocks when its turn comes and
    the rest once its tag verifies; the first that fails (or is too short
    to carry a tag) raises :class:`AuthenticationError`, nothing after it
    billed — so a consumer billing its own work between yields stays in
    step with the loop."""
    split = ((key, data[:NONCE_LEN], data[NONCE_LEN:], aad) for key, data, aad in messages)
    for group in _groups(split, TAG_LEN):
        all_streams = _key_streams([(c, nonce, len(text) - TAG_LEN) for c, nonce, text, _ in group])
        for (_, _, text, aad), streams in zip(group, all_streams):
            ciphertext, tag = text[:-TAG_LEN], text[-TAG_LEN:]
            metering.count("aes_block", 2)  # H and the tag mask
            if not constant_time_equal(tag, _tag(streams, aad, ciphertext)):
                raise AuthenticationError("GCM tag mismatch")
            metering.count("aes_block", ae_cost(len(ciphertext))[0] - 2)
            yield _xor(ciphertext, streams[2])
