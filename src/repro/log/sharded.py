"""The provider's transparency log: S >= 1 digest chains, one anchor.

The paper's deployment point is millions of users behind *one* log, whose
update epoch is inherently serial: every insertion rides one digest chain
and every HSM audits one round.  ``ShardedLog``, the provider's log at every
``S >= 1``, partitions the log into ``S`` independent
:class:`~repro.log.distributed.DistributedLog` lanes — an insertion is
routed by a stable hash of its identifier (:func:`shard_of`), each shard
runs the full Figure 5 protocol on its own digest chain, certified by its
own *committee* (the ``N/S`` devices with ``index ≡ shard (mod S)``), and
shard epochs never contend with each other: committees are disjoint, so
``S`` lanes drive disjoint device sets in parallel (see
``repro.service.batcher.EpochBatcher``), and each lane's signing rounds
and certificate span ``N/S`` devices instead of ``N``.  A device adopts the
transitions it did not accept live (off its committee, or while it was
down) *lazily* (``HsmDevice.offer_certified_transition``), keeping the
epoch's critical path free of fleet-wide fan-out.  This is the
partitioning move of datacenter-scale designs (XOS-style state
sharding): independent lanes, deterministic placement, and a thin
combining layer.  ``S = 1`` is the paper's single chain: its root is the
lane digest.

At every ``S`` a proof is the lane's plain BST proof (``PROOF_PLAIN`` on
the wire): an HSM tracks one digest per lane, recomputes the
identifier's lane itself and verifies the proof against its own copy of
that lane's digest (write-once stays intact: an identifier maps to exactly
one shard, so no value can be re-logged in a sibling lane).  Auditors
anchor to **one value**: the *cross-shard root*, a Merkle root over the
ordered shard digests (:func:`cross_shard_root`).

The log's root is maintained *incrementally*: :class:`CrossShardRoot`
(one, under ``ShardedLog``) keeps a persistent
:class:`~repro.crypto.merkle.IncrementalMerkleTree` over the shard-digest
leaves and, on every root read, rehashes only the O(log S) paths of
shards whose digest moved since the last read (detected by a byte compare
against the cached leaf values, so even out-of-band shard mutation —
adversarial subclasses, chaos tampering — can never serve a stale root).
An epoch that commits one shard therefore costs O(log S) hashing to
re-anchor, not the O(S) rebuild :func:`cross_shard_root` pays — that
function is the from-scratch reference (and what a device's ``log_digest``
computes on read), and the incremental root is byte-identical to it by
construction (property-tested in ``tests/test_sharded_log.py``).

Security note on write-once: because ``shard_of`` is a public deterministic
function of the identifier and ``num_shards``, the per-shard duplicate
check *is* the global duplicate check — there is no cross-shard race.  The
shard count is therefore part of the trusted configuration, fixed when the
deployment is provisioned (``SystemParams.log_shards``; a log is never
re-partitioned, so no identifier ever changes lanes): HSMs bind ``(shard,
num_shards)`` into every signed transition
(:meth:`~repro.log.distributed.Transition.message`) and refuse rounds whose
arity differs from their own.  Committee certification sizes
the quorum to the committee, so the ``f_secret`` compromise bound applies
per ``N/S``-device committee rather than fleet-wide — deployments pick
``S`` accordingly (extra signatures from off-committee auditors only add
scrutiny; they are never required).

Thread safety: individual shards are plain (unsynchronized)
``DistributedLog`` instances.  Concurrent use is safe only under the
one-lane-per-shard discipline: at most one thread drives
``run_shard_update(k, ...)`` for a given ``k`` at a time, and client-facing
mutation (``insert``/``prove_includes``/``pending``) is serialized by the
caller (the serving layer holds ``EpochBatcher.lock``).  ``digest`` holds
``_root_lock`` while folding dirty shard digests into the incremental
root tree, so concurrent root reads never corrupt the tree; it may still
race benignly with a committing lane — callers that need a settled root
read it after joining the lanes.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import sha256
from repro.crypto.merkle import IncrementalMerkleTree, MerkleTree
from repro.log.authdict import AuthenticatedDictionary, InclusionProof
from repro.log.distributed import DistributedLog, LogConfig, LogUpdateRejected, on_committee


def shard_of(identifier: bytes, num_shards: int) -> int:
    """Stable shard routing: a public hash of the identifier.

    ``num_shards == 1`` short-circuits without hashing, so unsharded
    deployments meter zero extra ``sha256_block`` work.
    """
    if num_shards <= 1:
        return 0
    draw = int.from_bytes(sha256(b"log-shard", identifier)[:8], "big")
    return draw % num_shards


def shard_leaf(shard: int, digest: bytes) -> bytes:
    """Canonical leaf committing shard ``shard``'s digest under the root."""
    return shard.to_bytes(4, "big") + digest


def cross_shard_root(digests: Sequence[bytes]) -> bytes:
    """The one value auditors anchor to: Merkle over the shard digests,
    or the lone digest itself for a one-shard log (no hashing)."""
    if len(digests) == 1:
        return digests[0]
    return MerkleTree([shard_leaf(i, d) for i, d in enumerate(digests)]).root


class CrossShardRoot:
    """The compare-on-read incremental cross-shard root.

    Dirtiness is a byte compare of each digest against the cached leaf —
    O(S) comparisons but no hashing — so any mutation path (epoch commit,
    rollback, GC, restore, adversarial subclassing) is picked up without
    invalidation hooks, and only changed shards pay the O(log S) path
    rehash.  A log's shard count is fixed when it is provisioned, so every
    read passes as many digests as the first.  Not synchronized: the owner
    serializes :meth:`root`.
    """

    def __init__(self) -> None:
        self._leaves: List[bytes] = []
        self._tree: Optional[IncrementalMerkleTree] = None

    def root(self, digests: Sequence[bytes]) -> bytes:
        """:func:`cross_shard_root` over ``digests``, kept incrementally."""
        if len(digests) == 1:
            return digests[0]
        if self._tree is None:  # first read: build, O(S)
            self._leaves = list(digests)
            self._tree = IncrementalMerkleTree(
                [shard_leaf(i, d) for i, d in enumerate(digests)]
            )
        for index, digest in enumerate(digests):
            if digest != self._leaves[index]:
                self._tree.update(index, shard_leaf(index, digest))
                self._leaves[index] = digest
        return self._tree.root


class ShardedLog:
    """``provider.log`` at every arity: ``S >= 1`` parallel epoch lanes.

    ``digest`` is the cross-shard root and ``prove_includes`` returns the
    lane's plain proof.  The serving layer drives lanes through ``shards``,
    :meth:`shards_with_pending` and :meth:`run_shard_update`.  Like
    ``DistributedLog``, this class is *untrusted* in the threat model.
    """

    #: Lock contract (see `repro.lintkit`'s lock-discipline pass): the
    #: incremental root is only refreshed under ``_root_lock``, so
    #: concurrent ``digest`` readers can never interleave partial path
    #: updates.
    _GUARDED_BY = {"_root": "_root_lock"}

    def __init__(self, config: Optional[LogConfig] = None) -> None:
        self.config = config or LogConfig()
        self.num_shards = self.config.num_shards
        self.shards: List[DistributedLog] = [
            DistributedLog(self.config, shard_index=k) for k in range(self.num_shards)
        ]
        self.garbage_collections = 0
        self.archived_logs: List[List[Tuple[bytes, bytes]]] = []
        self._journal = None
        self._root_lock = threading.Lock()
        self._root = CrossShardRoot()

    @property
    def journal(self):
        """The durability journal shared by every shard lane (or None)."""
        return self._journal

    @journal.setter
    def journal(self, journal) -> None:
        self._journal = journal
        for shard in self.shards:
            shard.journal = journal

    # -- routing ---------------------------------------------------------------
    def shard_for(self, identifier: bytes) -> DistributedLog:
        """The shard instance an identifier hashes to."""
        return self.shards[shard_of(identifier, self.num_shards)]

    def shards_with_pending(self) -> List[int]:
        """Indices of shards holding queued insertions (lane work list).

        Uses the O(1) per-shard emptiness check — snapshotting every
        shard's queue just to test truthiness would make the poll O(total
        pending), which the batcher pays every tick.
        """
        return [k for k, shard in enumerate(self.shards) if shard.has_pending]

    # -- client-facing (DistributedLog surface) --------------------------------
    def insert(self, identifier: bytes, value: bytes) -> None:
        """Queue an insertion on the identifier's shard lane."""
        self.shard_for(identifier).insert(identifier, value)

    def items(self) -> Iterable[Tuple[bytes, bytes]]:
        """Every committed ``(identifier, value)`` pair, shard-major."""
        for shard in self.shards:
            yield from shard.dict.items()

    @property
    def digest(self) -> bytes:
        """The cross-shard root: the single anchor for audits.

        Incrementally maintained — reading it after an epoch rehashes only
        the committed shards' root paths, byte-identical to
        :func:`cross_shard_root` over the current shard digests.
        """
        with self._root_lock:
            return self._root.root(self.shard_digests)

    @property
    def shard_digests(self) -> List[bytes]:
        """Every shard's current digest, in shard order (the root's leaves)."""
        return [s.digest for s in self.shards]

    @property
    def pending(self) -> List[Tuple[bytes, bytes]]:
        """All queued insertions, shard-major (each shard's order intact)."""
        return [entry for shard in self.shards for entry in shard.pending]

    @property
    def has_pending(self) -> bool:
        """O(1)-per-shard emptiness check (no queue snapshots)."""
        return any(shard.has_pending for shard in self.shards)

    @property
    def ordered_entries(self) -> List[Tuple[bytes, bytes]]:
        """Committed entries, shard-major (the auditable public log)."""
        return [entry for shard in self.shards for entry in shard.ordered_entries]

    @property
    def epoch(self) -> int:
        """Total shard epochs committed (observability; lanes count singly)."""
        return sum(s.epoch for s in self.shards)

    def shard_entries(self) -> List[List[Tuple[bytes, bytes]]]:
        """Per-shard ordered entry lists (what a sharded audit replays)."""
        return [list(shard.ordered_entries) for shard in self.shards]

    def prove_includes(self, identifier: bytes, value: bytes) -> Optional[InclusionProof]:
        """The identifier's lane proof; None if not committed yet."""
        return self.shard_for(identifier).prove_includes(identifier, value)

    # -- epochs ----------------------------------------------------------------
    def committee(self, shard_index: int, hsms: Sequence) -> List:
        """The devices certifying this shard: index ≡ shard (mod S).

        Static committees are what make lanes contention-free: each lane's
        epoch touches only its own N/S devices, so S lanes drive disjoint
        device sets in parallel, and a certificate sums N/S signer keys
        instead of N.  Devices compute the same partition
        from their signer directory (``HsmDevice.committee_for``, the same
        :func:`~repro.log.distributed.on_committee` rule) and size the
        quorum to the committee.
        """
        return [h for h in hsms if on_committee(h.index, shard_index, self.num_shards)]

    def run_shard_update(self, shard_index: int, hsms: Sequence) -> None:
        """One transactional update epoch on a single shard lane.

        Exactly ``DistributedLog.run_update`` semantics, run against the
        shard's *committee*: a failed epoch rolls back this shard only and
        re-queues its insertions; sibling lanes are untouched.  After the
        committee certifies, each off-committee device is *offered* (cheap,
        unverified, lock-guarded enqueue — no FIFO round-trip, no crypto)
        the chain suffix past its ``offered_frontier`` (``offer_missing``,
        as committee laggards are), so a device that shed offers (queue
        overflow, dropped forgery) is re-fed the missing transitions next
        epoch instead of being stranded; devices verify the quorum
        signature lazily on first use.  Safe to call concurrently for
        distinct shards: committees are disjoint, and the offer queue is
        the device's only cross-lane state.
        """
        shard = self.shards[shard_index]
        shard.run_update(self.committee(shard_index, hsms))
        for hsm in hsms:
            if not on_committee(hsm.index, shard_index, self.num_shards):
                shard.offer_missing(hsm, shard.digest)

    def run_update(self, hsms: Sequence) -> None:
        """Run every shard with queued work, one lane at a time.

        This is the sequential (caller-thread) driver used outside the
        serving layer — deployment provisioning, maintenance epochs, tests.
        Every lane is attempted; per-shard failures roll back only their
        shard, and the first failure is re-raised after all lanes ran so a
        bad shard cannot block its siblings' commits.
        """
        failures: List[Tuple[int, Exception]] = []
        for k in self.shards_with_pending():
            try:
                self.run_shard_update(k, hsms)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                failures.append((k, exc))
        if failures:
            shard, first = failures[0]
            if len(failures) == 1:
                raise first
            raise LogUpdateRejected(
                f"{len(failures)} shard epochs failed (first: shard {shard}: {first!r})"
            ) from first

    # -- garbage collection ----------------------------------------------------
    def garbage_collect(self, hsms: Sequence) -> None:
        """Reset the log, and so every user's attempt counter (§6.2).

        Every online HSM's bounded GC budget is charged one unit; only once
        all consent is the log archived for auditors and every shard chain
        restarted empty.
        """
        for hsm in hsms:
            if not hsm.is_failed:
                hsm.accept_garbage_collection()
        self.archived_logs.append(self.ordered_entries)
        for shard in self.shards:
            shard.dict = AuthenticatedDictionary()
            shard.ordered_entries = []
            shard.pending = []
        self.garbage_collections += 1
        if self._journal is not None:
            self._journal.record_gc(self.garbage_collections)
