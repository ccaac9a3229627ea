"""Authenticated dictionary: a Merkle binary search tree (Appendix B.2).

Implements the five routines of §6.1 in the style of Nissim–Naor:

- ``Digest(L) -> d``                       — :attr:`AuthenticatedDictionary.digest`
- ``ProveIncludes(L, id, val) -> π``       — :meth:`prove_includes`
- ``DoesInclude(d, id, val, π) -> {0,1}``  — :func:`verify_includes`
- ``ProveExtends(L, L') -> π``             — :meth:`insert_with_proof` (chained)
- ``DoesExtend(d, d', π) -> {0,1}``        — :func:`verify_extension`

Both provers search through one walk (``_walk``); every verifier runs one
check that the target is not on its own path (``_off_path``).

Identifiers are ordered by their SHA-256 hash, so the BST is keyed by
uniformly random values and stays balanced in expectation with no rotations.
Insertion without rotation touches exactly one root-to-leaf path, which is
what makes single-insertion extension proofs possible: the proof is the
search path to the (empty) insertion position.  From it a verifier
recomputes both the old root (position empty) and the new root (new leaf
attached) — proving simultaneously that the identifier was absent and that
the new digest is the old tree plus exactly this entry.

Thread safety: none — :class:`AuthenticatedDictionary` is a plain mutable
tree.  The serving layer serializes all access through the epoch batcher's
lock (per shard, a lane is the only writer); the verifier-side functions
at the bottom are pure and safe anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import sha256

_EMPTY = sha256(b"authdict-empty")


def _id_hash(identifier: bytes) -> bytes:
    return sha256(b"authdict-id", identifier)


def _node_hash(idh: bytes, value: bytes, left: bytes, right: bytes) -> bytes:
    return sha256(b"authdict-node", idh, value, left, right)


class _Node:
    __slots__ = ("idh", "value", "left", "right", "hash")

    def __init__(self, idh: bytes, value: bytes) -> None:
        self.idh = idh
        self.value = value
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.hash = _node_hash(idh, value, _EMPTY, _EMPTY)

    def rehash(self) -> None:
        left = self.left.hash if self.left else _EMPTY
        right = self.right.hash if self.right else _EMPTY
        self.hash = _node_hash(self.idh, self.value, left, right)


@dataclass(frozen=True)
class PathStep:
    """One node on a search path: its identifier hash, value, and the hash
    of the subtree *not* taken.  The direction taken is implied by comparing
    the target identifier hash with ``idh``."""

    idh: bytes
    value: bytes
    other: bytes


@dataclass(frozen=True)
class InclusionProof:
    """Search path to the target node plus the node's child hashes."""

    steps: Tuple[PathStep, ...]
    left: bytes
    right: bytes


@dataclass(frozen=True)
class InsertionProof:
    """Extension proof for a single insertion: the absence path.

    ``steps`` is the search path from the root to the empty position where
    the new identifier attaches.
    """

    identifier: bytes
    value: bytes
    steps: Tuple[PathStep, ...]


def _fold_path(target_idh: bytes, start: bytes, steps: Sequence[PathStep]) -> bytes:
    """Recompute the root hash from a leafward value and the path above it."""
    node = start
    for step in reversed(steps):
        if target_idh < step.idh:
            node = _node_hash(step.idh, step.value, node, step.other)
        else:
            node = _node_hash(step.idh, step.value, step.other, node)
    return node


class AuthenticatedDictionary:
    """The provider-side log state: full tree, proofs on demand."""

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._entries: Dict[bytes, bytes] = {}

    # -- basic state -------------------------------------------------------
    @property
    def digest(self) -> bytes:
        """The root hash: the constant-size commitment HSMs hold."""
        return self._root.hash if self._root else _EMPTY

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identifier: bytes) -> bool:
        return identifier in self._entries

    def get(self, identifier: bytes) -> Optional[bytes]:
        """The value logged under ``identifier``, or None."""
        return self._entries.get(identifier)

    def items(self) -> Iterable[Tuple[bytes, bytes]]:
        """All committed ``(identifier, value)`` pairs (arbitrary order)."""
        return self._entries.items()

    # -- search helpers ----------------------------------------------------------
    def _walk(self, idh: bytes) -> Tuple[List[PathStep], List[_Node], Optional[_Node]]:
        """Walk toward ``idh``: (steps above, nodes above, node at ``idh`` or None)."""
        steps: List[PathStep] = []
        nodes: List[_Node] = []
        node = self._root
        while node is not None and node.idh != idh:
            nodes.append(node)
            taken, other = (node.left, node.right) if idh < node.idh else (node.right, node.left)
            steps.append(PathStep(node.idh, node.value, other.hash if other else _EMPTY))
            node = taken
        return steps, nodes, node

    # -- the five routines -------------------------------------------------------
    def prove_includes(self, identifier: bytes, value: bytes) -> Optional[InclusionProof]:
        """ProveIncludes: None if (id, val) is not in the log."""
        if self._entries.get(identifier) != value:
            return None
        steps, _, node = self._walk(_id_hash(identifier))
        assert node is not None
        return InclusionProof(
            steps=tuple(steps),
            left=node.left.hash if node.left else _EMPTY,
            right=node.right.hash if node.right else _EMPTY,
        )

    def insert(self, identifier: bytes, value: bytes) -> None:
        """Insert a fresh identifier (raises KeyError on duplicates)."""
        self.insert_with_proof(identifier, value)

    def insert_with_proof(self, identifier: bytes, value: bytes) -> InsertionProof:
        """Insert and return the extension proof for this single insertion."""
        if identifier in self._entries:
            raise KeyError(f"identifier already defined in log: {identifier!r}")
        idh = _id_hash(identifier)
        steps, parents, found = self._walk(idh)
        if found is not None:  # pragma: no cover - blocked by _entries check
            raise KeyError("identifier hash collision")
        new_node = _Node(idh, value)
        if parents:
            parent = parents[-1]
            if idh < parent.idh:
                parent.left = new_node
            else:
                parent.right = new_node
            for ancestor in reversed(parents):
                ancestor.rehash()
        else:
            self._root = new_node
        self._entries[identifier] = value
        return InsertionProof(identifier=identifier, value=value, steps=tuple(steps))

    @staticmethod
    def from_entries(entries: Iterable[Tuple[bytes, bytes]]) -> "AuthenticatedDictionary":
        """Rebuild a dictionary by replaying insertions in order.

        The digest is insertion-order dependent (it is a plain BST), so
        replay must preserve order; the provider's public log is an ordered
        list for exactly this reason.
        """
        d = AuthenticatedDictionary()
        for identifier, value in entries:
            d.insert(identifier, value)
        return d


# -- verifier-side routines (run on HSMs; no tree state needed) -----------------
def _off_path(idh: bytes, steps: Sequence[PathStep]) -> bool:
    """The target may end its search path (inclusion) but never lie on it."""
    return all(step.idh != idh for step in steps)


def verify_includes(
    digest: bytes, identifier: bytes, value: bytes, proof: InclusionProof
) -> bool:
    """DoesInclude: check an inclusion proof against a digest.

    Cost is logarithmic in the log size; reports ``sha256_block`` work to the
    ambient meter via the hash calls.
    """
    idh = _id_hash(identifier)
    if not _off_path(idh, proof.steps):
        return False
    node = _node_hash(idh, value, proof.left, proof.right)
    return _fold_path(idh, node, proof.steps) == digest


def verify_extension(
    old_digest: bytes, new_digest: bytes, proofs: Sequence[InsertionProof]
) -> bool:
    """DoesExtend for a batch: chain single-insertion proofs.  Each path
    must hash to the digest so far with the identifier absent, and to the
    next digest with the new leaf attached at that empty position."""
    digest = old_digest
    for proof in proofs:
        idh = _id_hash(proof.identifier)
        if not _off_path(idh, proof.steps) or _fold_path(idh, _EMPTY, proof.steps) != digest:
            return False
        leaf = _node_hash(idh, proof.value, _EMPTY, _EMPTY)
        digest = _fold_path(idh, leaf, proof.steps)
    return digest == new_digest


def empty_digest() -> bytes:
    """The digest of the empty log (every device's genesis state)."""
    return _EMPTY
