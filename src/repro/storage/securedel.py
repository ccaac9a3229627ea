"""Secure-deletion key tree over untrusted storage (Appendix C).

The HSM stores one 16-byte root key; the provider stores a binary tree of
AES-GCM ciphertexts.  Each internal node encrypts its two children's keys
under its own key; each leaf encrypts one data block.  Reading block ``i``
decrypts the root-to-leaf path (O(log D) symmetric ops + I/O).  Deleting
block ``i`` destroys the leaf key and re-keys the whole path, finishing with
a fresh root key — after which no combination of provider-held ciphertexts
and the HSM's new root key can recover the deleted block.

``delete`` is one authenticated walk: every path node is fetched and its
tag verified once, on the way down, and the way back up splices the
replacement child key into the payload that walk opened — h ``get``s, h
``put``s, and nothing written unless the whole path verified.  Appendix
C's HSM holds one key and so fetches and opens each node again on the way
up; that second transfer and AE call stay in the *modeled* cost (``delete``
reports them to the meter where they used to happen), because the cost
model prices the paper's device, not this host.

Differences from the paper's pseudocode are cosmetic: we pad ``D`` to a power
of two so the address arithmetic (leaf ``i`` at ``2^h + i``, parent at
``a // 2``) is exact, and we bind each ciphertext to its address via GCM
associated data, which makes block-swapping attacks fail the integrity check
explicitly rather than by key mismatch.

``NaiveSecureStore`` is the strawman of §9.1 (single key; deletion re-reads
and re-encrypts the whole array) used in the ablation benchmark: the paper
measures a 64 MB deletion at 48 minutes versus logarithmic time for the
tree, a ~4,423× throughput gap.
"""

from __future__ import annotations

import secrets
from typing import List, Sequence, Tuple

from repro import metering
from repro.crypto.gcm import AesGcm, ae_decrypt, ae_encrypt
from repro.storage.blockstore import BlockStore

KEY_LEN = 16
_DELETED_KEY = b"\x00" * KEY_LEN  # the paper's "useless encryption key"
_NODE_OVERHEAD = AesGcm.NONCE_LEN + AesGcm.TAG_LEN  # stored node = payload + this


class DeletedBlockError(Exception):
    """Raised when reading a block that was securely deleted."""


def _addr_aad(addr: int) -> bytes:
    return b"securedel-node" + addr.to_bytes(8, "big")


class SecureDeletionTree:
    """HSM-side handle: holds the root key and drives the block oracle."""

    def __init__(self, store: BlockStore, height: int, root_key: bytes) -> None:
        self._store = store
        self.height = height
        self._root_key = root_key

    # -- setup -----------------------------------------------------------------
    @staticmethod
    def setup(store: BlockStore, blocks: Sequence[bytes]) -> "SecureDeletionTree":
        """Encrypt ``blocks`` into ``store`` and return the HSM handle.

        Runs in O(D) time and stores 2^(h+1) ciphertexts, where
        ``h = ceil(log2(len(blocks)))``.
        """
        count = max(1, len(blocks))
        height = max(1, (count - 1).bit_length())
        num_leaves = 1 << height

        # Generate keys level by level, leaves first.
        leaf_keys = [secrets.token_bytes(KEY_LEN) for _ in range(num_leaves)]
        for i in range(num_leaves):
            data = blocks[i] if i < len(blocks) else b""
            addr = (1 << height) + i
            store.put(addr, ae_encrypt(leaf_keys[i], data, aad=_addr_aad(addr)))

        level_keys = leaf_keys
        for level in range(height - 1, -1, -1):
            width = 1 << level
            parent_keys = [secrets.token_bytes(KEY_LEN) for _ in range(width)]
            for j in range(width):
                addr = (1 << level) + j
                payload = level_keys[2 * j] + level_keys[2 * j + 1]
                store.put(addr, ae_encrypt(parent_keys[j], payload, aad=_addr_aad(addr)))
            level_keys = parent_keys

        return SecureDeletionTree(store, height, level_keys[0])

    # -- internals ----------------------------------------------------------------
    def _path_addrs(self, index: int) -> List[int]:
        """Addresses from the root (addr 1) down to leaf ``index``."""
        leaf_addr = (1 << self.height) + index
        path = []
        addr = leaf_addr
        while addr >= 1:
            path.append(addr)
            addr //= 2
        return list(reversed(path))

    def _decrypt_path(self, index: int) -> Tuple[List[bytes], bytes]:
        """Walk the root-to-leaf path, authenticating every node on it: the
        opened payload (both child keys) of every internal node, root
        first, and the leaf's key.

        The payloads live in the caller's frame only: ``delete`` is about to
        destroy the keys in them, and nothing may reach those once it
        returns.
        """
        if not (0 <= index < (1 << self.height)):
            raise IndexError("block index out of range")
        addrs = self._path_addrs(index)
        key = self._root_key
        payloads: List[bytes] = []
        for addr, child_addr in zip(addrs, addrs[1:]):
            metering.count("flash_read_bytes", KEY_LEN)
            payload = ae_decrypt(key, self._store.get(addr), aad=_addr_aad(addr))
            payloads.append(payload)
            key = payload[:KEY_LEN] if child_addr % 2 == 0 else payload[KEY_LEN:]
            if key == _DELETED_KEY:
                raise DeletedBlockError(f"block {index} was securely deleted")
        return payloads, key

    # -- public API ---------------------------------------------------------------
    def read(self, index: int) -> bytes:
        """Return data block ``index``; raise on deletion or tampering."""
        _, leaf_key = self._decrypt_path(index)
        leaf_addr = (1 << self.height) + index
        leaf_ct = self._store.get(leaf_addr)
        return ae_decrypt(leaf_key, leaf_ct, aad=_addr_aad(leaf_addr))

    def delete(self, index: int) -> None:
        """Securely delete block ``index`` and re-key the path to the root.

        One authenticated walk down, then h puts back up; nothing is written
        (and the root key is untouched) unless every node on the path
        verified.
        """
        addrs = self._path_addrs(index)
        payloads, _ = self._decrypt_path(index)

        # Walk back up: at each internal node, splice the replacement child
        # key (freshly re-keyed, or zeroed at the leaf) into the payload the
        # walk down authenticated, and encrypt the node under a fresh key
        # that becomes the child key for the next level up.
        child_new_key = _DELETED_KEY
        for depth in range(len(addrs) - 2, -1, -1):
            addr = addrs[depth]
            payload = payloads[depth]
            # Appendix C's HSM keeps one key, not the path: on the way up it
            # fetches each node again and opens it, a cold AE call (GHASH
            # subkey, tag mask, one CTR block per 16 bytes).  Holding the
            # payloads saves host time, not modeled HSM work, so the cost
            # model is still charged that transfer and that open.
            metering.count("io_bytes", _NODE_OVERHEAD + len(payload))
            metering.count("aes_block", 2 + len(payload) // 16)
            if addrs[depth + 1] % 2 == 0:
                payload = child_new_key + payload[KEY_LEN:]
            else:
                payload = payload[:KEY_LEN] + child_new_key
            fresh = secrets.token_bytes(KEY_LEN)
            self._store.put(addr, ae_encrypt(fresh, payload, aad=_addr_aad(addr)))
            child_new_key = fresh

        self._root_key = child_new_key

    @property
    def root_key(self) -> bytes:
        """The only secret the HSM must store (16 bytes)."""
        return self._root_key

    def extract_root_key(self) -> bytes:
        """Explicit escape hatch modelling HSM compromise in tests."""
        return self._root_key


class NaiveSecureStore:
    """§9.1 strawman: one key over the whole array; delete = re-encrypt all.

    Functionally equivalent to the tree but deletion costs O(D) AES blocks
    and 2·D·blocksize bytes of I/O.  Exists for the ablation benchmark.
    """

    _ADDR = 0

    def __init__(self, store: BlockStore, block_count: int, block_size: int, key: bytes) -> None:
        self._store = store
        self._count = block_count
        self._size = block_size
        self._key = key

    @staticmethod
    def setup(store: BlockStore, blocks: Sequence[bytes]) -> "NaiveSecureStore":
        """Encrypt ``blocks`` (all equal-size) under one fresh key."""
        sizes = {len(b) for b in blocks}
        if len(sizes) > 1:
            raise ValueError("naive store requires equal-size blocks")
        size = sizes.pop() if sizes else 0
        key = secrets.token_bytes(KEY_LEN)
        store.put(NaiveSecureStore._ADDR, ae_encrypt(key, b"".join(blocks), aad=b"naive"))
        return NaiveSecureStore(store, len(blocks), size, key)

    def _load(self) -> bytearray:
        return bytearray(ae_decrypt(self._key, self._store.get(self._ADDR), aad=b"naive"))

    def read(self, index: int) -> bytes:
        """Decrypt the whole array and return block ``index``."""
        if not (0 <= index < self._count):
            raise IndexError("block index out of range")
        data = self._load()
        block = bytes(data[index * self._size : (index + 1) * self._size])
        if block == b"\x00" * self._size:
            raise DeletedBlockError(f"block {index} was securely deleted")
        return block

    def delete(self, index: int) -> None:
        """Zero block ``index`` and re-encrypt the whole array under a
        fresh key (the O(D) cost the puncturable tree avoids)."""
        data = self._load()
        data[index * self._size : (index + 1) * self._size] = b"\x00" * self._size
        self._key = secrets.token_bytes(KEY_LEN)
        self._store.put(self._ADDR, ae_encrypt(self._key, bytes(data), aad=b"naive"))
