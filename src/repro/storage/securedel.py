"""Secure-deletion key tree over untrusted storage (Appendix C).

The HSM stores one 16-byte root key; the provider stores a binary tree of
AES-GCM ciphertexts.  Each internal node encrypts its two children's keys
under its own key; each leaf encrypts one data block.  Reading block ``i``
decrypts the root-to-leaf path (O(log D) symmetric ops + I/O).  Deleting
block ``i`` destroys the leaf key and re-keys the whole path, finishing with
a fresh root key — after which no combination of provider-held ciphertexts
and the HSM's new root key can recover the deleted block.

There is one walk and one re-key, and both take a *set* of indices
(:class:`PathWalk`).  The walk authenticates the union of the indices'
root-to-leaf paths top-down: every node on the union is fetched, tag-checked
and opened once, and nothing is written unless all of them verified.  The
re-key runs bottom-up over the union of the *live* targets' paths: every
node on it is sealed once under one fresh key, the root last.  ``read(i)``
and ``delete(i)`` are the one-index case.  A puncture's k slots share the
top of the tree, so one batched delete costs ``|union|`` ``get``s and
``|union of live paths|`` ``put``s and moves the root key once, where k
single deletes cost k·h of each and move it k times.

Every node is an AE message under a key of its own, so sealing is the
tree's main host cost.  :meth:`SecureDeletionTree.setup` (a level at a
time) and :meth:`PathWalk.delete` (the whole re-key) hand their nodes to
:func:`repro.crypto.gcm.seal_each`, which runs up to ``MAX_LANES`` cipher
blocks — seven 32-byte nodes — as the lanes of one byte-sliced AES call.
A node's key is drawn for that node alone, so no nonce is drawn or stored
(``gcm.ONE_TIME_NONCE``).  Keys are drawn inside the iterable it consumes,
in the order the node-at-a-time code drew them, and the sealed nodes go to
the same addresses in the same order, so under seeded entropy the bytes at
rest are those of one seal per call.  The walk down opens a tree level per
:func:`repro.crypto.gcm.open_each`, root first — a node's key comes out of
its parent, so the levels go in turn — and is billed in step with the
node-at-a-time walk: a node's key read and transfer are reported just
before its open, so a walk refused at any node leaves exactly what the
node-at-a-time walk left on the meter.

The *modeled* device does not batch.  Appendix C's HSM holds one key, walks
one index at a time from the root, and on the way back up fetches and opens
each node again before sealing it.  The cost model prices that device, not
this host, so the meter is charged what the single-index walks cost: h opens
per read and per delete target, and h re-opens plus h seals per live
target.  The AE calls and transfers this host really makes meter themselves;
:meth:`PathWalk._bill_walks` and :meth:`PathWalk.delete` report the
remainder beside them.

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
from collections import Counter
from itertools import groupby
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import metering
from repro.crypto.gcm import AuthenticationError, Message, ae_cost, open_each, seal_each
from repro.storage.blockstore import BlockStore

KEY_LEN = 16
_DELETED_KEY = b"\x00" * KEY_LEN  # the paper's "useless encryption key"
# An internal node is two child keys under one AE call: what one open or
# seal costs and one transfer moves.
_NODE_AES_BLOCKS, _NODE_LEN = ae_cost(2 * KEY_LEN)


class DeletedBlockError(Exception):
    """Raised when reading a block that was securely deleted."""


def _addr_aad(addr: int) -> bytes:
    return b"securedel-node" + addr.to_bytes(8, "big")


def tree_height(blocks: int) -> int:
    """Levels of internal nodes over ``blocks`` leaves (padded to 2^h)."""
    return max(1, (max(1, blocks) - 1).bit_length())


def walk_counts(height: int, reads: int, deletes: int, live: int) -> Counter:
    """What the modeled device (module docstring) is billed for ``reads``
    single-index reads and ``deletes`` delete targets, ``live`` of them not
    yet deleted, on a tree of ``height``: h opens — a key read, a transfer
    and a cold AE call each — per read and per delete target, h re-opens
    and h seals per live target.  It is what :class:`PathWalk` leaves on
    the meter; leaves are the caller's data and are not counted."""
    opens = (reads + deletes) * height
    nodes = opens + 2 * live * height
    return Counter(
        flash_read_bytes=opens * KEY_LEN,
        io_bytes=nodes * _NODE_LEN,
        aes_block=nodes * _NODE_AES_BLOCKS,
    )


def setup_counts(blocks: int, block_len: int) -> Counter:
    """What :meth:`SecureDeletionTree.setup` is billed for ``blocks`` data
    blocks of ``block_len`` bytes: one seal and one transfer per leaf (the
    padding leaves are empty) and per internal node."""
    leaves = 1 << tree_height(blocks)
    counts: Counter = Counter()
    for sealed, length in ((blocks, block_len), (leaves - blocks, 0), (leaves - 1, 2 * KEY_LEN)):
        aes_blocks, size = ae_cost(length)
        counts["aes_block"] += sealed * aes_blocks
        counts["io_bytes"] += sealed * size
    return counts


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
        height = tree_height(len(blocks))
        keys = [secrets.token_bytes(KEY_LEN) for _ in range(1 << height)]
        payloads = [blocks[i] if i < len(blocks) else b"" for i in range(1 << height)]
        for first in (1 << level for level in range(height, -1, -1)):
            # A level's keys are drawn before it is sealed; nodes go left to right.
            nodes = zip(keys, payloads, map(_addr_aad, range(first, 2 * first)))
            for j, sealed in enumerate(seal_each(nodes)):
                store.put(first + j, sealed)
            if first > 1:
                payloads = [keys[2 * j] + keys[2 * j + 1] for j in range(first // 2)]
                keys = [secrets.token_bytes(KEY_LEN) for _ in range(first // 2)]
        return SecureDeletionTree(store, height, keys[0])

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

    # -- public API ---------------------------------------------------------------
    def walk(self, indices: Iterable[int]) -> "PathWalk":
        """Authenticate the union of the indices' paths and hold it open."""
        return PathWalk(self, indices)

    def read(self, index: int) -> bytes:
        """Return data block ``index``; raise on deletion or tampering."""
        return self.walk([index]).read(index)

    def delete(self, index: int) -> None:
        """Securely delete block ``index`` and re-key the path to the root.

        One authenticated walk down, then h puts back up; nothing is written
        (and the root key is untouched) unless every node on the path
        verified.
        """
        if not self.walk([index]).delete():
            raise DeletedBlockError(f"block {index} was securely deleted")

    @property
    def root_key(self) -> bytes:
        """The only secret the HSM must store (16 bytes)."""
        return self._root_key


class PathWalk:
    """The authenticated union of some indices' root-to-leaf paths, held
    open for one operation: :meth:`read` any of the indices, then
    :meth:`delete` all of them that are still live, in one re-key.

    Opening it is the walk down — every internal node on the union is
    fetched and opened exactly once, a level per cipher call, parents
    before children, and a node that fails its tag raises before anything
    is written.  The opened payloads (every child key on the union) live in
    this object only: :meth:`delete` destroys the keys in them and drops
    them, and the caller drops the walk with its frame.
    """

    def __init__(self, tree: SecureDeletionTree, indices: Iterable[int]) -> None:
        self._tree = tree
        self._indices = list(indices)
        if not all(0 <= index < (1 << tree.height) for index in self._indices):
            raise IndexError("block index out of range")
        self._payloads: Dict[int, bytes] = {}
        for _, level in groupby(self._union(self._indices), int.bit_length):
            addrs = list(level)
            keys = [tree._root_key] if addrs == [1] else [self._child_key(a) for a in addrs]
            self._payloads.update(zip(addrs, self._open(addrs, keys, KEY_LEN)))
        # Opens the calls above already reported, not yet set against a
        # modeled single-index walk (see ``_bill_walks``).
        self._opens_metered = len(self._payloads)

    def _open(self, addrs: Sequence[int], keys: Sequence[bytes], key_read: int) -> Iterator[bytes]:
        """Fetch the blocks at ``addrs`` and open them under ``keys`` with
        one :func:`~repro.crypto.gcm.open_each`, billed as one node at a
        time: the host fetches ahead of the cipher call, but each node's
        ``key_read`` flash bytes and transfer are reported just before its
        own open.  A block the provider withholds and a block that fails its
        tag are one fault — the authentic block was not served — and raise
        the same error at the same point of the bill."""
        store = self._tree._store
        fetched: List[Tuple[Optional[bytes], metering.OpMeter]] = []
        for addr in addrs:
            with metering.deferred() as transfer:
                try:
                    fetched.append((store.get(addr), transfer))
                except KeyError:
                    fetched.append((None, transfer))
                    break
        opened = open_each(
            (key, block, _addr_aad(addr)) for addr, key, (block, _) in zip(addrs, keys, fetched)
            if block is not None
        )
        for addr, (block, transfer) in zip(addrs, fetched):
            if key_read:
                metering.count("flash_read_bytes", key_read)
            metering.report(transfer)
            if block is None:
                raise AuthenticationError(f"key-tree block {addr} was not served")
            yield next(opened)

    def _union(self, indices: Iterable[int]) -> List[int]:
        """The internal nodes on the paths to ``indices``, each once, root
        first (a parent's address is below its children's)."""
        path = self._tree._path_addrs
        return sorted({addr for index in indices for addr in path(index)[:-1]})

    def _leaf(self, index: int) -> int:
        return (1 << self._tree.height) + index

    def _child_key(self, addr: int) -> bytes:
        """The key of node ``addr``, out of its parent's opened payload."""
        payload = self._payloads[addr // 2]
        return payload[:KEY_LEN] if addr % 2 == 0 else payload[KEY_LEN:]

    def _bill_walks(self, walks: int) -> None:
        """Charge the cost model for ``walks`` single-index descents.

        Appendix C's device starts every read and every delete at the root
        and opens the h nodes of that one path.  The opens this walk really
        made reported themselves, so they are set against the bill first;
        the rest — the nodes the union let the host skip — is reported here:
        the key read, the transfer and the cold AE call of each.
        """
        owed = walks * self._tree.height
        covered = min(owed, self._opens_metered)
        self._opens_metered -= covered
        skipped = owed - covered
        if skipped:
            metering.count("flash_read_bytes", skipped * KEY_LEN)
            metering.count("io_bytes", skipped * _NODE_LEN)
            metering.count("aes_block", skipped * _NODE_AES_BLOCKS)

    def read(self, index: int) -> bytes:
        """Return data block ``index`` (one of the walk's indices)."""
        self._bill_walks(1)
        leaf = self._leaf(index)
        leaf_key = self._child_key(leaf)
        if leaf_key == _DELETED_KEY:
            raise DeletedBlockError(f"block {index} was securely deleted")
        (data,) = self._open([leaf], [leaf_key], 0)
        return data

    def delete(self) -> int:
        """Securely delete every index of the walk that is still live and
        re-key the union of their paths; return how many were deleted.

        Bottom-up, each node sealed once under one fresh key with every
        replacement child key (zeroed at a deleted leaf, fresh below a
        re-keyed node) spliced into the payload the walk down opened; the
        root goes last and the tree's root key moves once.  The whole re-key
        is one :func:`~repro.crypto.gcm.seal_each`, its puts in the same
        order as one seal per call made them.  With no live
        index nothing is written and the root key stays.  The walk is spent
        afterwards: its payloads held the keys just destroyed.
        """
        self._bill_walks(len(self._indices))
        live = {
            index
            for index in self._indices
            if self._child_key(self._leaf(index)) != _DELETED_KEY
        }
        if live:
            store = self._tree._store
            rekeyed = self._union(live)
            replaced = {self._leaf(index): _DELETED_KEY for index in live}
            # Appendix C re-keys one path per deleted index and, holding one
            # key rather than the path, fetches and opens each node again on
            # the way up before sealing it: h re-opens and h seals per live
            # index.  The seals below report themselves; the re-opens, and
            # the seals of the nodes the paths share, are host work saved,
            # not modeled HSM work.
            unmetered = 2 * self._tree.height * len(live) - len(rekeyed)
            metering.count("io_bytes", unmetered * _NODE_LEN)
            metering.count("aes_block", unmetered * _NODE_AES_BLOCKS)

            def nodes() -> Iterator[Message]:
                # A node's fresh key as it is sealed: the node-at-a-time order.
                for addr in reversed(rekeyed):
                    payload = self._payloads[addr]
                    payload = replaced.get(2 * addr, payload[:KEY_LEN]) + replaced.get(
                        2 * addr + 1, payload[KEY_LEN:]
                    )
                    replaced[addr] = secrets.token_bytes(KEY_LEN)
                    yield replaced[addr], payload, _addr_aad(addr)

            for addr, sealed in zip(reversed(rekeyed), seal_each(nodes())):
                store.put(addr, sealed)
            self._tree._root_key = replaced[1]
        self._payloads = {}
        return len(live)


class NaiveSecureStore:
    """§9.1 strawman: one key over the whole array; delete = re-encrypt all
    under a fresh key, so every key seals one message.

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
        store.put(NaiveSecureStore._ADDR, seal_each([(key, b"".join(blocks), b"naive")])[0])
        return NaiveSecureStore(store, len(blocks), size, key)

    def _load(self) -> bytearray:
        return bytearray(next(open_each([(self._key, self._store.get(self._ADDR), b"naive")])))

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
        self._store.put(self._ADDR, seal_each([(self._key, bytes(data), b"naive")])[0])
