"""The Figure 5 log-update protocol.

Flow per epoch (the provider batches client insertions, e.g. every 10
minutes):

1. The provider splits the ``I`` pending insertions into ``N`` chunks and
   applies them to its log one chunk at a time, recording each intermediate
   digest ``d_i`` and per-chunk extension proof ``π_i``.
2. It commits to the chunk sequence with a Merkle root ``R`` and announces
   ``(d, d', R)`` to every HSM.
3. Each HSM audits ``C`` chunks — chosen deterministically from ``(R, its
   node id)`` per Appendix B.3, so any HSM can predict every other HSM's
   audit set and failures are recoverable — fetching each chunk package and
   checking (a) its Merkle inclusion under ``R``, (b) its extension proofs,
   and (c) boundary conditions (first chunk starts at ``d``, last ends at
   ``d'``).  If all pass, the HSM signs ``(d, d', R)``.
4. The provider aggregates the first :func:`quorum_size` signatures (the
   fewest a device accepts; more would only cost every device more
   verifications); each HSM verifies the aggregate against the claimed
   signer set and, if a quorum of its committee signed, adopts ``d'``.

With at most an ``f_secret`` fraction compromised and ``C = λ`` audited
chunks each, the probability that a bad chunk escapes every honest auditor
is ``exp((2·f_secret − 1)·C)`` (§6.2) — about ``2^-128`` at the paper's
parameters.

A :class:`DistributedLog` is one *lane* of the provider's log, never the
log itself: :class:`~repro.log.sharded.ShardedLog` owns ``S >= 1`` of them
(one when the deployment is unsharded) and is the only code that builds
them.  A lane carries its ``shard_index`` within the
``config.num_shards``-way partition, every round and certified transition
is stamped with both, and the signed transition message is
domain-separated by shard so a quorum's endorsement of shard *k* can never
be replayed against shard *j* (all shards start from the same empty
digest).  ``num_shards=1`` keeps the exact legacy message bytes, so metered
costs for unsharded deployments are unchanged.  Routing, committees and
garbage collection live in ``ShardedLog``.

Thread safety: a :class:`DistributedLog` is *not* internally synchronized —
callers must serialize access (the serving layer holds
``EpochBatcher.lock`` around every log mutation; concurrent epoch lanes
are safe only because each lane touches a distinct shard instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.ec import ECKeyPair, P256
from repro.crypto.hashing import sha256
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.log.authdict import AuthenticatedDictionary, InsertionProof


class LogUpdateRejected(Exception):
    """An HSM refused a log update (bad proof, bad signature, bad quorum)."""


# ---------------------------------------------------------------------------
# The transition signature
# ---------------------------------------------------------------------------
class EcdsaMultiSig:
    """The signature that endorses digest transitions: the aggregate is the
    tuple of per-signer ECDSA signatures over P-256, one per claimed
    signer.  The log sends a quorum's and no more (:func:`quorum_size`).

    The paper certifies each epoch with a BLS aggregate (constant size, two
    pairings to verify at any fleet size); the cost model still bills that
    scheme from Table 7.  In pure Python a pairing costs seconds, so the
    list of ECDSA signatures is cheaper at every fleet size this library
    provisions, and it is the only scheme the log, the devices and the
    journal speak.
    """

    @staticmethod
    def keygen(rng=None) -> ECKeyPair:
        """A fresh P-256 keypair."""
        return P256.keygen(rng)

    @staticmethod
    def sign(secret: int, message: bytes) -> Tuple[int, int]:
        """One ECDSA signature (r, s)."""
        return P256.ecdsa_sign(secret, message)

    @staticmethod
    def aggregate(signatures: Sequence[Tuple[int, int]]):
        """The "aggregate" is simply the tuple of signatures."""
        return tuple(signatures)

    @staticmethod
    def precompute_signer_key(public) -> None:
        """Provisioning hook, called once per signer-directory key: give the
        key a comb table, so each verification against it is one
        26-column chain (25 doublings) shared with the generator term."""
        public.precompute()

    @staticmethod
    def verify_aggregate(publics, message: bytes, aggregate) -> bool:
        """Batched verification: each signature's ``u1·G + u2·Q`` is one
        comb chain when ``Q`` was provisioned through
        :meth:`precompute_signer_key` (one ladder chain otherwise), and each
        chunk's ``s`` values and result points are inverted by Montgomery
        batch inversion.  Accept/reject decisions, metered ``ecdsa_verify``
        counts, and the early-abort cost bound on bad aggregates all match
        the sequential short-circuiting loop this replaces.  The aggregate
        is untrusted input: anything that is not a sequence of one
        signature per key is a rejection, never an exception."""
        if not isinstance(aggregate, (tuple, list)) or len(publics) != len(aggregate):
            return False
        return P256.ecdsa_verify_all(
            [
                (pk.public if isinstance(pk, ECKeyPair) else pk, message, sig)
                for pk, sig in zip(publics, aggregate)
            ]
        )


# ---------------------------------------------------------------------------
# Chunk packages
# ---------------------------------------------------------------------------
def _serialize_proofs(proofs: Sequence[InsertionProof]) -> bytes:
    parts = [len(proofs).to_bytes(4, "big")]
    for proof in proofs:
        parts.append(len(proof.identifier).to_bytes(4, "big"))
        parts.append(proof.identifier)
        parts.append(len(proof.value).to_bytes(4, "big"))
        parts.append(proof.value)
        parts.append(len(proof.steps).to_bytes(4, "big"))
        for step in proof.steps:
            parts.append(step.idh)
            parts.append(len(step.value).to_bytes(4, "big"))
            parts.append(step.value)
            parts.append(step.other)
    return b"".join(parts)


@dataclass(frozen=True)
class ChunkHeader:
    """The committed summary of one chunk: its digest transition plus a hash
    binding the chunk's extension proofs.

    Headers are small, so an auditor of chunk ``i`` can also fetch header
    ``i-1`` cheaply to check boundary continuity (chunk i must start where
    chunk i-1 ended) — with every chunk audited by some honest HSM, the full
    chain d → d' is then verified end to end.
    """

    index: int
    start_digest: bytes
    end_digest: bytes
    proofs_hash: bytes

    def leaf_bytes(self) -> bytes:
        """Canonical serialization committed under the Merkle root R."""
        return b"".join(
            [
                self.index.to_bytes(4, "big"),
                self.start_digest,
                self.end_digest,
                self.proofs_hash,
            ]
        )


@dataclass(frozen=True)
class ChunkPackage:
    """One audited unit: a header plus the chunk's extension proofs.

    The proofs' wire serialization is computed once per package and cached
    (``build``, ``proofs_consistent``, and ``wire_size`` used to serialize
    the same tuple independently).  The cache is a non-field attribute, so
    ``dataclasses.replace`` — how adversaries forge variant packages —
    yields a package that re-serializes its own (tampered) proofs.
    """

    header: ChunkHeader
    proofs: Tuple[InsertionProof, ...]

    def serialized_proofs(self) -> bytes:
        """The chunk's proofs in wire form, serialized at most once."""
        cached = getattr(self, "_serialized_proofs", None)
        if cached is None:
            cached = _serialize_proofs(self.proofs)
            object.__setattr__(self, "_serialized_proofs", cached)
        return cached

    @staticmethod
    def build(
        index: int, start_digest: bytes, end_digest: bytes, proofs: Sequence[InsertionProof]
    ) -> "ChunkPackage":
        """Build a package, hashing the proofs into its committed header."""
        proofs = tuple(proofs)
        serialized = _serialize_proofs(proofs)
        header = ChunkHeader(
            index=index,
            start_digest=start_digest,
            end_digest=end_digest,
            proofs_hash=sha256(b"chunk-proofs", serialized),
        )
        package = ChunkPackage(header=header, proofs=proofs)
        object.__setattr__(package, "_serialized_proofs", serialized)
        return package

    def proofs_consistent(self) -> bool:
        """Do the attached proofs really hash to the committed header?"""
        # The hash is always recomputed (auditors must re-check it); only
        # the serialization is cached, keeping sha256_block counts exact.
        return self.header.proofs_hash == sha256(
            b"chunk-proofs", self.serialized_proofs()
        )

    def wire_size(self) -> int:
        """Approximate bytes on the wire (for I/O cost accounting)."""
        return len(self.header.leaf_bytes()) + len(self.serialized_proofs())


@dataclass(frozen=True)
class Transition:
    """One digest step ``(d, d', R)`` on one shard lane — the value that
    travels the log → HSM epoch leg.  A round proposes it, an intent
    journals it, a quorum certifies it; each adds only its own fields.

    All shards of a sharded log start from the same empty digest, so
    without the ``(shard, num_shards)`` stamp a quorum's endorsement of
    shard k's first epoch would verify against shard j too.
    """

    old_digest: bytes
    new_digest: bytes
    root: bytes
    shard: int = 0  # which shard lane the step belongs to
    num_shards: int = 1  # sharding arity (1 = unsharded log)

    def message(self) -> bytes:
        """The message every HSM signs, domain-separated by shard lane.
        ``num_shards == 1`` is the legacy unsharded message byte-for-byte,
        keeping metered ``sha256_block`` counts for unsharded deployments
        unchanged."""
        if self.num_shards == 1:
            return sha256(b"log-transition", self.old_digest, self.new_digest, self.root)
        return sha256(
            b"log-transition-shard",
            self.shard.to_bytes(4, "big"),
            self.num_shards.to_bytes(4, "big"),
            self.old_digest,
            self.new_digest,
            self.root,
        )

    def certified(self, aggregate, signer_ids: Sequence[int]) -> "CertifiedTransition":
        """This step plus the quorum's aggregate signature over it."""
        return CertifiedTransition(
            self.old_digest, self.new_digest, self.root, self.shard, self.num_shards,
            aggregate=aggregate, signer_ids=tuple(signer_ids),
        )


def on_committee(index: int, shard: int, num_shards: int) -> bool:
    """The placement rule: device ``index`` certifies shard ``shard`` iff
    ``index ≡ shard (mod S)`` — everyone when ``S == 1``.  The log picks
    its committee with it, devices size the quorum with it, and crash
    reconciliation asks the same devices."""
    return index % num_shards == shard


def quorum_size(fraction: float, members: int) -> int:
    """The fewest signers a device accepts on a ``members``-device
    committee: the smallest count not below ``fraction · members``.  The
    provider sizes its certificates with it and devices check them with
    it, so the two can never disagree on a fractional product."""
    return math.ceil(fraction * members)


def audit_chunk_indices(
    root: bytes, hsm_id: int, num_chunks: int, audit_count: int
) -> List[int]:
    """Appendix B.3 deterministic audit-set: a function of (R, node id).

    Determinism means every HSM can recompute every other HSM's audit set,
    so when an HSM fails mid-audit the survivors can recursively cover its
    chunks; and the provider cannot grind R freely, since moving R moves
    every HSM's audit set at once.
    """
    if num_chunks <= 0:
        return []
    picks: List[int] = []
    seed = sha256(b"audit-chunks", root, hsm_id.to_bytes(8, "big"))
    counter = 0
    bound = (1 << 64) - ((1 << 64) % num_chunks)
    want = min(audit_count, num_chunks)
    seen = set()
    while len(picks) < want:
        block = sha256(seed, counter.to_bytes(8, "big"))
        counter += 1
        for off in range(0, 32, 8):
            draw = int.from_bytes(block[off : off + 8], "big")
            if draw >= bound:
                continue
            idx = draw % num_chunks
            if idx in seen:
                continue
            seen.add(idx)
            picks.append(idx)
            if len(picks) == want:
                break
    return picks


# ---------------------------------------------------------------------------
# The provider-side log driver
# ---------------------------------------------------------------------------
@dataclass
class LogConfig:
    """Tunables of the log protocol."""

    audit_count: int = 4  # the paper's C = λ = 128; tests use fewer
    quorum_fraction: float = 0.9  # fraction of known HSMs that must sign
    max_garbage_collections: int = 24  # HSMs refuse further GCs after this
    max_attempts_per_user: int = 5  # recovery attempts allowed per user per log
    num_shards: int = 1  # >1 partitions the log into independent epoch lanes


@dataclass(frozen=True, kw_only=True)
class CertifiedTransition(Transition):
    """A digest transition plus the quorum's aggregate signature over it."""

    aggregate: object
    signer_ids: Tuple[int, ...]


@dataclass(frozen=True, kw_only=True)
class UpdateRound(Transition):
    """Everything the provider publishes for one update epoch.

    HSMs treat this object as the (untrusted) provider's response oracle;
    adversarial providers subclass it to serve inconsistent data, which the
    HSM-side Merkle checks must catch.
    """

    num_chunks: int
    chunks: List[ChunkPackage]
    tree: MerkleTree

    def chunk_with_proof(self, index: int) -> Tuple[ChunkPackage, MerkleProof]:
        """Serve one chunk plus its Merkle inclusion proof under R."""
        return self.chunks[index], self.tree.prove(index)

    def header_with_proof(self, index: int) -> Tuple[ChunkHeader, MerkleProof]:
        """Serve just a chunk's (small) header plus its proof under R."""
        return self.chunks[index].header, self.tree.prove(index)


class DistributedLog:
    """One epoch lane: its digest chain plus the update-protocol driver.

    This class is *untrusted* in the threat model: adversaries subclass it
    (see ``repro.adversary``) to serve bogus chunks, rewrite entries, or
    replay stale digests, and the HSM-side checks must catch every attempt.
    """

    def __init__(self, config: Optional[LogConfig] = None, shard_index: int = 0) -> None:
        self.config = config or LogConfig()
        #: position of this lane within the log's ``config.num_shards`` lanes
        self.shard_index = shard_index
        self.num_shards = self.config.num_shards
        if not (0 <= shard_index < self.num_shards):
            raise ValueError("need 0 <= shard_index < num_shards")
        self.dict = AuthenticatedDictionary()
        self.ordered_entries: List[Tuple[bytes, bytes]] = []
        self.pending = []
        self.certified_transitions: List[CertifiedTransition] = []
        # Optional durability hook (repro.storage.journal.ProviderJournal):
        # when set, run_update write-ahead-journals every epoch as
        # intent -> commit/rollback.  None (the default) keeps the lane
        # purely in-memory, byte-identical to the pre-durability behavior.
        self.journal = None
        # Handshake between run_update (which knows the intent's WAL seq)
        # and certify_round (which writes the commit record *before* the
        # acceptance fan-out, so the quorum decision is durable before any
        # device is exposed to it).
        self._journal_intent: Optional[int] = None
        self._journal_committed = False

    # -- client-facing ----------------------------------------------------------
    @property
    def pending(self) -> List[Tuple[bytes, bytes]]:
        """Insertions queued for the next epoch (a snapshot copy).

        A parallel identifier set makes :meth:`insert`'s duplicate check
        O(1) — a million-insertion epoch queues in O(n), not O(n²).  The
        setter (used by ``prepare_update``, rollback, and adversarial
        subclasses that replace the queue wholesale) rebuilds the set, and
        the getter returns a copy so in-place mutation cannot silently
        desync the two: change the queue via :meth:`insert` or by assigning
        ``log.pending = [...]``.
        """
        return list(self._pending)

    @pending.setter
    def pending(self, entries: Sequence[Tuple[bytes, bytes]]) -> None:
        self._pending: List[Tuple[bytes, bytes]] = list(entries)
        self._pending_ids = {identifier for identifier, _ in self._pending}

    @property
    def has_pending(self) -> bool:
        """O(1) emptiness check — reading :attr:`pending` snapshots the
        whole queue, which a per-tick poll must not pay."""
        return bool(self._pending)

    def insert(self, identifier: bytes, value: bytes) -> None:
        """Queue an identifier-value pair for the next update epoch."""
        if identifier in self.dict or identifier in self._pending_ids:
            raise KeyError(f"identifier already defined: {identifier!r}")
        self._pending.append((identifier, value))
        self._pending_ids.add(identifier)

    def get(self, identifier: bytes) -> Optional[bytes]:
        """The committed value for ``identifier``, or None."""
        return self.dict.get(identifier)

    @property
    def digest(self) -> bytes:
        """The current committed digest (what honest devices converge to)."""
        return self.dict.digest

    def prove_includes(self, identifier: bytes, value: bytes):
        """Inclusion proof against the current digest; None if absent."""
        return self.dict.prove_includes(identifier, value)

    @property
    def epoch(self) -> int:
        """Epochs this lane has committed: its certified chain's length."""
        return len(self.certified_transitions)

    # -- the Figure 5 update round ------------------------------------------------
    def prepare_update(self, num_chunks: int) -> UpdateRound:
        """Apply pending insertions chunk-by-chunk and commit to the round."""
        old_digest = self.dict.digest
        pending, self.pending = self.pending, []
        num_chunks = max(1, min(num_chunks, max(1, len(pending))))
        chunk_size = (len(pending) + num_chunks - 1) // num_chunks if pending else 0

        chunks: List[ChunkPackage] = []
        for i in range(num_chunks):
            start = self.dict.digest
            batch = pending[i * chunk_size : (i + 1) * chunk_size] if pending else []
            proofs = []
            for identifier, value in batch:
                proofs.append(self.dict.insert_with_proof(identifier, value))
                self.ordered_entries.append((identifier, value))
            chunks.append(
                ChunkPackage.build(
                    index=i,
                    start_digest=start,
                    end_digest=self.dict.digest,
                    proofs=proofs,
                )
            )
        tree = MerkleTree([c.header.leaf_bytes() for c in chunks])
        round_ = UpdateRound(
            old_digest=old_digest,
            new_digest=self.dict.digest,
            root=tree.root,
            num_chunks=num_chunks,
            chunks=chunks,
            tree=tree,
            shard=self.shard_index,
            num_shards=self.num_shards,
        )
        return round_

    def run_update(self, hsms: Sequence) -> None:
        """Drive a full epoch against the fleet; restart on fail-stops.

        ``hsms`` are duck-typed (see ``repro.hsm.device.HsmDevice``): each
        must offer ``index``, ``is_failed``, ``offered_frontier(k)``,
        ``offer_certified_transition`` and the three epoch methods
        ``audit_log_update``, ``audit_specific_chunks`` and
        ``accept_log_digest``.

        The epoch is transactional: if certification fails (no quorum, bad
        chunk), the provider rolls its state back to ``d``.  Without the
        rollback one failed epoch would leave the provider's digest
        permanently ahead of every HSM — no future epoch could ever build
        on it — turning a transient fault into a bricked log.
        """
        online = [h for h in hsms if not h.is_failed]
        entries_before = len(self.ordered_entries)
        pending_before = list(self.pending)
        round_ = self.prepare_update(num_chunks=max(1, len(online)))
        # Write-ahead: the intent (with the entries this epoch applies) is
        # durable before any HSM is asked to certify, so a crash leaves at
        # most one unresolved intent for this lane and restart reconciles
        # it against the fleet (repro.storage.journal).
        intent_seq = None
        if self.journal is not None:
            intent_seq = self.journal.record_intent(
                self.shard_index,
                self.num_shards,
                round_.old_digest,
                round_.new_digest,
                round_.root,
                self.ordered_entries[entries_before:],
            )
        self._journal_intent = intent_seq
        self._journal_committed = False
        try:
            self.certify_round(round_, hsms)
        except Exception:
            self._rollback_failed_round(entries_before, pending_before)
            # A crash (or failure) before the commit record landed rolls the
            # intent back; after it landed the epoch is already durable and
            # the journal must not contradict it.
            if intent_seq is not None and not self._journal_committed:
                self.journal.record_rollback(self.shard_index, intent_seq)
            raise
        finally:
            self._journal_intent = None

    def _rollback_failed_round(
        self, entries_before: int, pending_before: List[Tuple[bytes, bytes]]
    ) -> None:
        """Undo a prepared-but-uncertified round: the insertions go back to
        pending (they can ride a later epoch) and the dictionary is rebuilt
        at its pre-round state."""
        del self.ordered_entries[entries_before:]
        self.dict = AuthenticatedDictionary.from_entries(self.ordered_entries)
        self.pending = pending_before + self.pending

    def certify_round(self, round_: UpdateRound, hsms: Sequence) -> None:
        """Collect audits + signatures for an already-prepared round."""
        # A device that missed rounds is offered the certified run past its
        # frontier; one the run cannot bring to d (it was down through a
        # GC) sits the round out like a fail-stopped one.
        online = [
            h for h in hsms if not h.is_failed and self.offer_missing(h, round_.old_digest)
        ]
        signatures = []
        signer_ids = []
        survivors = []
        for hsm in online:
            try:
                sig = hsm.audit_log_update(round_)
            except Exception as exc:
                if getattr(hsm, "is_failed", False):
                    continue  # fail-stopped mid-audit: B.3 coverage below
                raise
            signatures.append(sig)
            signer_ids.append(hsm.index)
            survivors.append(hsm)
        if not signatures:
            raise LogUpdateRejected("no online HSMs to certify the update")
        # Fail fast on a lost quorum *before* any device adopts d': the
        # devices would all reject the aggregate anyway (their quorum check
        # sizes the same committee with the same quorum_size), and raising
        # here keeps acceptance all-or-nothing so a rollback cannot strand
        # devices on d'.
        quorum = quorum_size(self.config.quorum_fraction, len(list(hsms)))
        if len(signatures) < quorum:
            raise LogUpdateRejected(
                f"only {len(signatures)} signers, need {quorum} for a quorum"
            )
        # Appendix B.3: audit sets are deterministic in (R, node id), so the
        # survivors can recompute which chunks the failed HSMs would have
        # audited and recursively cover any gap.  Every signer's audit
        # counts here, not only the quorum's.
        uncovered = self._uncovered_chunks(round_, signer_ids)
        if uncovered:
            self._cover_chunks(round_, survivors, uncovered)
        # The certificate carries the first quorum of signers and no more:
        # a device accepts any quorum, so each signature past it would only
        # cost every acceptor (and every later adopter) a verification.
        del signatures[quorum:], signer_ids[quorum:]
        aggregate = EcdsaMultiSig.aggregate(signatures)
        # Record the certified transition *before* fanning out acceptance:
        # once a quorum has signed, the transition is certified regardless
        # of who hears about it, and any device that misses the accept
        # (fail-stop below, or downtime) is offered it from this chain by
        # a later epoch — without it, one mid-loop failure would strand
        # the early acceptors on d' forever.
        transition = round_.certified(aggregate, signer_ids)
        self.certified_transitions.append(transition)
        # Durability: the commit record (with the quorum aggregate) lands
        # *before* any device accepts d'.  An intent left open by a crash
        # therefore proves no device moved — restart can roll it back
        # without consulting signatures — and every committed transition is
        # replayable with its aggregate intact, so restored logs can offer
        # it to devices that missed the fan-out.
        if self.journal is not None and self._journal_intent is not None:
            self.journal.record_commit(self.shard_index, self._journal_intent, transition)
            self._journal_committed = True
        try:
            for hsm in online:
                try:
                    hsm.accept_log_digest(round_, aggregate, transition.signer_ids)
                except Exception:
                    if getattr(hsm, "is_failed", False):
                        continue  # fail-stopped mid-accept: offered d' later
                    raise
        except Exception:
            # A genuine rejection (every device checks the same aggregate
            # deterministically, so the first device refuses before any
            # accepts): the transition never took effect.
            self.certified_transitions.pop()
            raise

    def _uncovered_chunks(self, round_: UpdateRound, signer_ids: Sequence[int]) -> List[int]:
        """Chunks not in any signer's deterministic audit set."""
        covered = set()
        for signer in signer_ids:
            covered.update(
                audit_chunk_indices(
                    round_.root, signer, round_.num_chunks, self.config.audit_count
                )
            )
        return [i for i in range(round_.num_chunks) if i not in covered]

    def _cover_chunks(self, round_: UpdateRound, survivors: Sequence, chunks: List[int]) -> None:
        """B.3 recursive coverage: survivors re-audit the orphaned chunks.

        Work is spread round-robin; any failure here is a genuine rejection
        (the provider really served a bad chunk), so it propagates.
        """
        if not survivors:
            raise LogUpdateRejected("no survivors available to cover audits")
        for position, chunk_index in enumerate(chunks):
            hsm = survivors[position % len(survivors)]
            hsm.audit_specific_chunks(round_, [chunk_index])

    def chain_after(self, digest: bytes) -> List[CertifiedTransition]:
        """The contiguous certified run from the *latest* transition that
        starts at ``digest`` (empty if none does, or ``digest`` is the tip).
        Latest, because every garbage collection restarts the chain at the
        empty digest; contiguous, because the run then stops at that break,
        so a device that was down through a GC stays in the old generation.
        """
        chain = self.certified_transitions
        if chain and chain[-1].new_digest == digest:
            return []  # already current: no scan for the common case
        for start in range(len(chain) - 1, -1, -1):
            if chain[start].old_digest == digest:
                end = start + 1
                while end < len(chain) and chain[end].old_digest == chain[end - 1].new_digest:
                    end += 1
                return chain[start:end]
        return []

    def offer_missing(self, hsm, target: bytes) -> bool:
        """Offer ``hsm`` the certified run past its offered frontier on this
        lane unless the frontier is ``target``; whether it then is."""
        frontier = hsm.offered_frontier(self.shard_index)
        if frontier != target:
            for transition in self.chain_after(frontier):
                hsm.offer_certified_transition(transition)
            frontier = hsm.offered_frontier(self.shard_index)
        return frontier == target
