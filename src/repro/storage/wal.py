"""Append-only write-ahead log over an untrusted block store.

The provider in the paper persists every backup ciphertext and log entry
for years; our reproduction kept all of it in process memory.  This module
is the durability primitive underneath ``repro.storage.journal``: a
hash-chained, append-only record log laid out on a
:class:`~repro.storage.blockstore.BlockStore` (the same oracle abstraction
the secure-deletion tree uses, so the tamper machinery of
``TamperingBlockStore`` exercises this layer too).

Layout and integrity:

- record ``seq`` (1-based) lives at block address ``seq`` and is written
  exactly once: ``chain_hash(32) || kind(1) || payload``, where
  ``chain_hash = H(domain, seq, prev_chain_hash, kind, payload)``;
- address ``0`` is the *anchor* — the only mutable block — rewritten by
  :meth:`WriteAheadLog.anchor_now` to point at the latest snapshot record
  so restores can skip replaying the full history;
- :meth:`replay` recomputes the chain hash of every record it yields, so a
  corrupted block, a swapped pair of blocks, or a record serving stale
  bytes fails loudly with :class:`WalCorruptionError` — tampering is
  *detected*, never silently restored;
- a stale (replayed) anchor after compaction points at a deleted snapshot
  record and is likewise detected, and a caller holding a trusted head
  hash can pass it to :meth:`replay` to detect truncation of the tail.
  No caller holds one: ``Deployment.restore`` replays without it, so a
  store that drops its newest records restores cleanly without them.

Crash semantics: block writes are atomic (a put either lands whole or not
at all — ``CrashingBlockStore`` models the process dying between puts), so
after a crash the log is a verified prefix plus at most nothing; the
*transactional* interpretation of trailing records (an epoch intent with
no commit) belongs to ``repro.storage.journal``.

Thread safety: ``append`` may be called from concurrent epoch lanes; the
in-memory tail state (``_length``, ``_head``) is guarded by ``_lock`` and
each append holds it across the block write so records are strictly
ordered.  ``replay`` reads committed prefixes and takes no lock (restores
run on a quiesced store).
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional, Tuple

from repro import metering
from repro.crypto.hashing import sha256
from repro.storage.blockstore import BlockStore

_ANCHOR_ADDR = 0
_FIRST_RECORD = 1
_CHAIN_LEN = 32
_ANCHOR_MAGIC = b"walanchr"


class WalCorruptionError(Exception):
    """The stored log failed integrity verification (tampering or rot)."""


def _chain_hash(domain: bytes, seq: int, prev: bytes, kind: int, payload: bytes) -> bytes:
    """The record's position-bound chain hash (swaps/corruption break it)."""
    return sha256(domain, b"record", seq.to_bytes(8, "big"), prev, bytes([kind]), payload)


class WriteAheadLog:
    """Hash-chained append-only record log on a block store."""

    #: Lock contract, checked by `repro.lintkit`'s lock-discipline pass:
    #: the in-memory tail (length + head hash) moves only under ``_lock``,
    #: which is held across the block write so appends serialize.
    _GUARDED_BY = {
        "_length": "_lock",
        "_head": "_lock",
    }

    def __init__(self, store: BlockStore, domain: bytes = b"repro-wal") -> None:
        """Open (or create) the log on ``store``.

        Opening scans and verifies the existing chain, so a freshly
        constructed instance always continues from a *verified* tail.
        """
        self._store = store
        self._domain = domain
        self._lock = threading.Lock()
        anchor = self.read_anchor()
        if anchor is None:
            start, prev = 0, self.genesis
        else:
            start, prev = anchor[0], anchor[1]
        self._length = start
        self._head = prev
        for seq, _, _, chain in self._walk(start + 1, prev):
            self._length = seq
            self._head = chain

    @property
    def genesis(self) -> bytes:
        """The chain hash before any record (position 0 of the chain)."""
        return sha256(self._domain, b"genesis")

    @property
    def store(self) -> BlockStore:
        """The underlying block store (restarts reopen the same one)."""
        return self._store

    def __len__(self) -> int:
        """Number of records appended (the last record's sequence number)."""
        with self._lock:
            return self._length

    @property
    def head(self) -> bytes:
        """Chain hash of the newest record — the log's integrity anchor."""
        with self._lock:
            return self._head

    # -- writing ---------------------------------------------------------------
    def append(self, kind: int, payload: bytes) -> int:
        """Durably append one record; returns its sequence number.

        The block write happens under the lock, so a crash (the store
        raising mid-put) leaves the in-memory tail untouched — exactly the
        state a restarted process would reconstruct from the store.

        Single-writer fencing: a record sequence number is never reused
        (compaction deletes low addresses but ``seq`` only grows), so the
        target address being occupied proves *another* log handle on the
        same store has appended past this one's head — e.g. a stale
        pre-restore provider still holding the journal.  Writing anyway
        would fork the chain and silently clobber the live writer's
        records, so that stale handle fails loudly instead.
        """
        if not (0 <= kind < 256):
            raise ValueError("record kind must fit one byte")
        with self._lock:
            seq = self._length + 1
            if seq in self._store:
                raise WalCorruptionError(
                    f"address {seq} is already occupied — another writer has"
                    " appended to this log (stale journal handle?)"
                )
            chain = _chain_hash(self._domain, seq, self._head, kind, payload)
            self._store.put(seq, chain + bytes([kind]) + payload)
            metering.count("wal_records", 1)
            self._length = seq
            self._head = chain
        return seq

    # -- reading / verification --------------------------------------------------
    def _walk(
        self, start: int, prev: bytes
    ) -> Iterator[Tuple[int, int, bytes, bytes]]:
        """Yield ``(seq, kind, payload, chain)`` from ``start``, verifying.

        Stops at the first missing address (the durable tail); raises
        :class:`WalCorruptionError` on any chain mismatch.
        """
        seq = start
        while seq in self._store:
            block = self._store.get(seq)
            if len(block) < _CHAIN_LEN + 1:
                raise WalCorruptionError(f"record {seq} truncated")
            stored, kind, payload = (
                block[:_CHAIN_LEN],
                block[_CHAIN_LEN],
                block[_CHAIN_LEN + 1 :],
            )
            expected = _chain_hash(self._domain, seq, prev, kind, payload)
            if stored != expected:
                raise WalCorruptionError(
                    f"record {seq} fails chain verification (corrupted,"
                    " swapped, or replayed block)"
                )
            yield seq, kind, payload, stored
            prev = stored
            seq += 1

    def replay(
        self, expected_head: Optional[bytes] = None
    ) -> Iterator[Tuple[int, int, bytes]]:
        """Yield every verified record ``(seq, kind, payload)`` from the
        anchored snapshot (or the beginning) to the durable tail.

        ``expected_head``, when supplied from a source the provider cannot
        rewrite, additionally detects *truncation* — an adversary dropping
        the newest records, which a pure chain check cannot see.  The
        restart path supplies none, so it does not detect truncation.

        When an anchor is present, the anchored snapshot record itself is
        yielded first (verified against the anchor's payload hash — its
        chain predecessor may have been compacted away) and the chain walk
        continues from it.
        """
        anchor = self.read_anchor()
        if anchor is None:
            start, prev = 0, self.genesis
        else:
            start, prev = anchor[0], anchor[1]
            block = self._store.get(start)
            yield start, block[_CHAIN_LEN], block[_CHAIN_LEN + 1 :]
        head = prev
        for seq, kind, payload, chain in self._walk(start + 1, prev):
            head = chain
            yield seq, kind, payload
        if expected_head is not None and head != expected_head:
            raise WalCorruptionError(
                "log head does not match the expected anchor (tail truncated"
                " or replayed)"
            )

    # -- snapshot anchor ---------------------------------------------------------
    def anchor_now(self) -> None:
        """Anchor restores at the *current last record* (a snapshot).

        Callers append their snapshot record and immediately anchor it
        (the log must be quiescent — no concurrent appends).  The anchor is
        the log's only mutable block; its payload carries its own binding
        hash so corruption is detected, and a *stale* anchor (a replayed
        old version) is caught because it must name a snapshot record whose
        stored bytes still hash right — compaction deletes superseded
        snapshots, so the replay dangles and restore fails loudly instead
        of silently resurrecting old state.  The anchor also commits to a
        hash of the snapshot record's content, because after compaction the
        record's chain predecessor is gone and the chain hash alone can no
        longer be recomputed.
        """
        with self._lock:
            seq, chain = self._length, self._head
        if seq < _FIRST_RECORD:
            raise ValueError("cannot anchor an empty log")
        block = self._store.get(seq)
        body = (
            seq.to_bytes(8, "big")
            + chain
            + sha256(self._domain, b"snapshot-record", block)
        )
        binding = sha256(self._domain, b"anchor", body)
        self._store.put(_ANCHOR_ADDR, _ANCHOR_MAGIC + body + binding)

    def read_anchor(self) -> Optional[Tuple[int, bytes, bytes]]:
        """The anchored ``(snapshot_seq, snapshot_chain, record_hash)``.

        Returns None when no snapshot was ever anchored.  Verifies the
        anchor's self-binding hash and that the named record exists, opens
        with exactly the anchored chain hash, and hashes to the committed
        record hash — a corrupted, swapped, or stale-replayed snapshot is
        detected here, never silently restored.
        """
        if _ANCHOR_ADDR not in self._store:
            return None
        block = self._store.get(_ANCHOR_ADDR)
        expected_len = len(_ANCHOR_MAGIC) + 8 + _CHAIN_LEN + 32 + 32
        if len(block) != expected_len or not block.startswith(_ANCHOR_MAGIC):
            raise WalCorruptionError("anchor block malformed")
        body = block[len(_ANCHOR_MAGIC) : -32]
        binding = block[-32:]
        if binding != sha256(self._domain, b"anchor", body):
            raise WalCorruptionError("anchor block fails its binding hash")
        seq = int.from_bytes(body[:8], "big")
        chain = body[8 : 8 + _CHAIN_LEN]
        record_hash = body[8 + _CHAIN_LEN :]
        if seq not in self._store:
            raise WalCorruptionError(
                "anchor names a missing snapshot record (stale or replayed"
                " anchor)"
            )
        record = self._store.get(seq)
        if record[:_CHAIN_LEN] != chain or sha256(
            self._domain, b"snapshot-record", record
        ) != record_hash:
            raise WalCorruptionError("anchor disagrees with its snapshot record")
        return seq, chain, record_hash

    def compact_before(self, seq: int) -> int:
        """Delete records strictly older than ``seq``; returns the count.

        Only meaningful after :meth:`anchor_now` pointed restores past
        them; stores without ``delete`` support keep the history (compaction
        is an optimization, never a correctness requirement).
        """
        delete = getattr(self._store, "delete", None)
        if delete is None:
            return 0
        removed = 0
        for addr in range(_FIRST_RECORD, seq):
            if addr in self._store:
                delete(addr)
                removed += 1
        return removed
