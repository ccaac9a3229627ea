"""Merkle trees (Merkle, CRYPTO 1989).

SafetyPin uses Merkle commitments in three places:

1. the service provider commits to the per-chunk digests and extension proofs
   of a log update round (Figure 5's root ``R``);
2. an HSM commits to the array of Bloom-filter slot public keys so clients
   can verify fetched slot keys against a constant-size value;
3. clients commit to their chosen recovery cluster + ciphertext (the recovery
   commitment ``h``), though that uses a plain hash commitment
   (``repro.crypto.commit``).

This module provides a batch-built binary Merkle tree with inclusion proofs.
Leaves are arbitrary byte strings; leaf and node hashing is domain-separated
to rule out second-preimage-by-reinterpretation attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto.hashing import sha256

_LEAF_TAG = b"\x00merkle-leaf"
_NODE_TAG = b"\x01merkle-node"
_EMPTY_ROOT = sha256(b"merkle-empty")


def _leaf_hash(data: bytes) -> bytes:
    return sha256(_LEAF_TAG, data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE_TAG, left, right)


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the leaf index plus sibling hashes bottom-to-top.

    Each path entry is ``(sibling_hash, sibling_is_left)``.
    """

    index: int
    path: Tuple[Tuple[bytes, bool], ...]


class MerkleTree:
    """A static Merkle tree built over a list of byte-string leaves."""

    def __init__(self, leaves: Sequence[bytes]) -> None:
        self.leaf_count = len(leaves)
        self._levels: List[List[bytes]] = []
        if self.leaf_count == 0:
            self.root = _EMPTY_ROOT
            return
        level = [_leaf_hash(leaf) for leaf in leaves]
        self._levels.append(level)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                left = level[i]
                right = level[i + 1] if i + 1 < len(level) else level[i]
                nxt.append(_node_hash(left, right))
            level = nxt
            self._levels.append(level)
        self.root = level[0]

    def prove(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not (0 <= index < self.leaf_count):
            raise IndexError("leaf index out of range")
        path = []
        idx = index
        for level in self._levels[:-1]:
            if idx % 2 == 0:
                sibling_idx = idx + 1 if idx + 1 < len(level) else idx
                path.append((level[sibling_idx], False))
            else:
                path.append((level[idx - 1], True))
            idx //= 2
        return MerkleProof(index=index, path=tuple(path))

    @staticmethod
    def verify(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
        """Check that ``leaf`` is at ``proof.index`` under ``root``."""
        node = _leaf_hash(leaf)
        idx = proof.index
        for sibling, is_left in proof.path:
            if is_left:
                node = _node_hash(sibling, node)
            else:
                node = _node_hash(node, sibling)
            idx //= 2
        return node == root

    @staticmethod
    def empty_root() -> bytes:
        return _EMPTY_ROOT

