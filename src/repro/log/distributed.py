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
   ``d'``).  If all pass, the HSM commits to a fresh signing nonce.
4. The first :func:`quorum_size` auditors (the fewest a device accepts;
   more would only widen every device's check) reveal their nonces and
   sign ``(d, d', R)`` into one Schnorr multisignature
   (:class:`SchnorrMultiSig`); the provider checks it once before it
   commits the epoch, and each HSM verifies it against the claimed
   signer set's aggregate key (:class:`AggregateKey`, summed and combed
   once per set) and, if a quorum of its committee signed, adopts ``d'``.

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
digest); an unsharded log signs the same message with ``S = 1``.
Routing, committees and garbage collection live in ``ShardedLog``.

Thread safety: a :class:`DistributedLog` is *not* internally synchronized —
callers must serialize access (the serving layer holds
``EpochBatcher.lock`` around every log mutation; concurrent epoch lanes
are safe only because each lane touches a distinct shard instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.ec import N, P256, ECKeyPair, ECPoint, combed_sum, is_curve_point, point_sum
from repro.crypto.hashing import distinct_indices, sha256
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.log.authdict import AuthenticatedDictionary, InsertionProof


class LogUpdateRejected(Exception):
    """An HSM refused a log update (bad proof, bad signature, bad quorum)."""


# ---------------------------------------------------------------------------
# The transition signature
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateKey:
    """A signer set's aggregate key ``X_S = Σ Xᵢ``: the signer ids it
    sums, in certificate order, and the sum (with the comb
    :meth:`SchnorrMultiSig.aggregate_key` gives it).  Every certificate
    check and every signer's challenge reads one.

    A device keeps one per lane and a lane keeps its own, each built from
    its own copy of the keys and rebuilt only when a certificate names
    another signer set (the quorum is the same set almost every epoch).
    It holds public values only, and no two holders share one."""

    signers: Tuple[int, ...]
    point: ECPoint


class SchnorrMultiSig:
    """The signature that endorses digest transitions: a Schnorr
    multisignature over P-256.  A certificate is the signer ids plus one
    ``(R, s)`` with ``s·G = R + c·X_S``, where ``X_S = Σ Xᵢ`` over the
    signers and ``c = H(domain, X_S, R, message)``: one check for a device,
    whatever the quorum's size.

    Signing is MuSig's three rounds (Maxwell, Poelstra, Seurin and Wuille,
    2019), which stops the concurrent-session forgeries of Drijvers et al.
    (S&P 2019): each signer commits to its nonce point ``Rᵢ = kᵢ·G`` with
    ``H(Rᵢ)`` (:meth:`nonce`, :meth:`commit`), reveals ``Rᵢ`` only once
    every signer's commitment is fixed, and answers ``sᵢ = kᵢ + c·xᵢ``
    (:meth:`sign`) for ``R = Σ Rᵢ``; the aggregate is ``(R, Σ sᵢ)``.  The
    device side of the rounds is ``HsmDevice.audit_log_update``,
    ``reveal_nonce`` and ``sign_transition``.  The challenge and the check
    take the signer set's :class:`AggregateKey` (:meth:`aggregate_key`),
    which a device and a lane build once per set.

    Keys are summed without MuSig's coefficients, so a rogue key
    ``a·G − Σ X_honest`` must be kept out of the directory: every key
    carries a proof of possession (:meth:`prove_possession`), a Schnorr
    signature on the key and its index that ``HsmFleet`` checks once as it
    builds the directory.

    The paper certifies each epoch with a BLS aggregate (two pairings at any
    fleet size); the cost model still bills that scheme from Table 7.  In
    pure Python a pairing costs seconds, and this check costs one comb
    chain over ``s·G`` and ``−c·X_S``.
    """

    @staticmethod
    def keygen(rng=None) -> ECKeyPair:
        """A fresh P-256 keypair."""
        return P256.keygen(rng)

    @staticmethod
    def nonce(rng=None) -> Tuple[int, ECPoint]:
        """A fresh nonce ``k`` and its point ``k·G``: one per signing
        session, never reused."""
        secret = P256.random_scalar(rng)
        return secret, P256.generator * secret

    @staticmethod
    def commit(point: ECPoint) -> bytes:
        """The commitment ``H(Rᵢ)`` a signer sends before any nonce is seen."""
        return sha256(b"log-nonce", point.to_bytes())

    @staticmethod
    def aggregate_key(signers: Sequence[int], publics: Sequence[ECPoint]) -> AggregateKey:
        """The aggregate key of ``signers``, whose keys are ``publics``:
        their sum with a 6-tooth comb (:func:`~repro.crypto.ec.combed_sum`,
        ≈ 1.1–1.5 ms and ≈ 6 KB), so a check costs the same at any signer
        count.  A set with no key, or with the identity among its keys,
        gets the identity, which no check accepts: a sum would otherwise
        simply skip such a key."""
        if not publics or any(public.is_infinity for public in publics):
            return AggregateKey(tuple(signers), ECPoint(None, None))
        return AggregateKey(tuple(signers), combed_sum(publics))

    @staticmethod
    def challenge(key: AggregateKey, nonce: ECPoint, message: bytes) -> int:
        """``c = H(domain, X_S, R, message)`` for the signer set's ``key``."""
        digest = sha256(b"log-certificate", key.point.to_bytes(), nonce.to_bytes(), message)
        return int.from_bytes(digest, "big") % N

    @staticmethod
    def sign(secret: int, nonce_secret: int, challenge: int) -> int:
        """One signer's share ``sᵢ = kᵢ + c·xᵢ``."""
        return (nonce_secret + challenge * secret) % N

    @staticmethod
    def aggregate(nonces: Sequence[ECPoint], shares: Sequence[int]) -> Tuple[ECPoint, int]:
        """The certificate's ``(R, s) = (Σ Rᵢ, Σ sᵢ)``."""
        return point_sum(nonces), sum(shares) % N

    @staticmethod
    def prove_possession(index: int, keypair: ECKeyPair) -> Tuple[ECPoint, int]:
        """A Schnorr signature on the key and its directory index.  It signs
        one fixed message, so its nonce is derived from the secret and the
        index (the same proof every time, and no draw from the caller's
        randomness)."""
        seed = sha256(
            b"possession-nonce", keypair.secret.to_bytes(32, "big"), index.to_bytes(8, "big")
        )
        nonce_secret = int.from_bytes(seed, "big") % (N - 1) + 1
        nonce = P256.generator * nonce_secret
        challenge = SchnorrMultiSig._possession_challenge(index, keypair.public, nonce)
        return nonce, SchnorrMultiSig.sign(keypair.secret, nonce_secret, challenge)

    @staticmethod
    def verify_possession(index: int, public, proof) -> bool:
        """Does ``proof`` show that whoever made ``public`` holds its secret?"""
        if not (is_curve_point(public) and SchnorrMultiSig._well_formed(proof)):
            return False
        nonce, s = proof
        challenge = SchnorrMultiSig._possession_challenge(index, public, nonce)
        return P256.schnorr_verify(public, challenge, nonce, s)

    @staticmethod
    def _possession_challenge(index: int, public: ECPoint, nonce: ECPoint) -> int:
        digest = sha256(
            b"key-possession", index.to_bytes(8, "big"), public.to_bytes(), nonce.to_bytes()
        )
        return int.from_bytes(digest, "big") % N

    @staticmethod
    def _well_formed(signature) -> bool:
        """Is ``signature`` a pair ``(R, s)`` with ``R`` a finite curve point?
        (``s`` is range-checked by the verification itself.)"""
        return (
            isinstance(signature, tuple) and len(signature) == 2 and is_curve_point(signature[0])
        )

    @staticmethod
    def verify_aggregate(key: AggregateKey, message: bytes, aggregate) -> bool:
        """Check a certificate ``(R, s)`` against its signer set's
        aggregate ``key``: one :meth:`~repro.crypto.ec._Curve.schnorr_verify`
        over ``X_S`` alone, one ``ecdsa_verify`` on the meter.  The
        aggregate is untrusted input: anything that is not an ``(R, s)``
        pair with ``R`` a finite curve point and ``s`` in ``[1, n)`` is a
        rejection, never an exception."""
        if not SchnorrMultiSig._well_formed(aggregate):
            return False
        nonce, s = aggregate
        challenge = SchnorrMultiSig.challenge(key, nonce, message)
        return P256.schnorr_verify(key.point, challenge, nonce, s)


#: The scheme's former name, kept for the end-to-end benchmark's workloads
#: and tracer, which still spell it; it goes with the next change to them.
EcdsaMultiSig = SchnorrMultiSig


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
        """The message every HSM signs, domain-separated by shard lane."""
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
    seed = sha256(b"audit-chunks", root, hsm_id.to_bytes(8, "big"))
    return distinct_indices((seed,), num_chunks, audit_count)


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
        #: devices dropped from a quorum for a bad signature share; later
        #: quorums of this lane ask them last
        self.bad_signers: Set[int] = set()
        # The last quorum's aggregate key, built from the signers'
        # public_info(); the lane's own, shared with no device.
        self._signer_key: Optional[AggregateKey] = None
        # Optional durability hook (repro.storage.journal.ProviderJournal):
        # when set, run_update write-ahead-journals every epoch as
        # intent -> commit/rollback.  None (the default) keeps the lane
        # purely in-memory, byte-identical to the pre-durability behavior.
        self.journal = None

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
        must offer ``index``, ``is_failed``, ``public_info()``,
        ``offered_frontier(k)``, ``offer_certified_transition`` and the five
        epoch methods ``audit_log_update``, ``reveal_nonce``,
        ``sign_transition``, ``audit_specific_chunks`` and
        ``accept_log_digest`` — the names ``service.recovery`` lists as
        ``_DIRECT_NAMES`` and ``_EPOCH_METHODS``.

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
        epoch_before = self.epoch
        try:
            self.certify_round(round_, hsms, intent_seq)
        except Exception:
            # Before the commit point the epoch never happened: memory and
            # the journal both roll it back.  Past it nothing undoes the
            # epoch, and the journal already says so.
            if self.epoch == epoch_before:
                self._rollback_failed_round(entries_before, pending_before)
                if intent_seq is not None:
                    self.journal.record_rollback(self.shard_index, intent_seq)
            raise

    def _rollback_failed_round(
        self, entries_before: int, pending_before: List[Tuple[bytes, bytes]]
    ) -> None:
        """Undo a prepared-but-uncertified round: the insertions go back to
        pending (they can ride a later epoch) and the dictionary is rebuilt
        at its pre-round state."""
        del self.ordered_entries[entries_before:]
        self.dict = AuthenticatedDictionary.from_entries(self.ordered_entries)
        self.pending = pending_before + self.pending

    def certify_round(
        self, round_: UpdateRound, hsms: Sequence, intent_seq: Optional[int] = None
    ) -> None:
        """Collect audits and a quorum's multisignature for an
        already-prepared round, commit it (journaling the commit against
        the intent at ``intent_seq``), then fan acceptance out."""
        # A device that missed rounds is offered the certified run past its
        # frontier; one the run cannot bring to d (it was down through a
        # GC) sits the round out like a fail-stopped one.
        online = [
            h for h in hsms if not h.is_failed and self.offer_missing(h, round_.old_digest)
        ]
        commitments, survivors = self._commit_nonces(round_, online)
        if not survivors:
            raise LogUpdateRejected("no online HSMs to certify the update")
        # Fail fast on a lost quorum *before* any device adopts d': the
        # devices would all reject the certificate anyway (their quorum
        # check sizes the same committee with the same quorum_size), and
        # raising here keeps acceptance all-or-nothing so a rollback cannot
        # strand devices on d'.
        quorum = quorum_size(self.config.quorum_fraction, len(list(hsms)))
        if len(survivors) < quorum:
            raise LogUpdateRejected(
                f"only {len(survivors)} signers, need {quorum} for a quorum"
            )
        # Appendix B.3: audit sets are deterministic in (R, node id), so the
        # survivors can recompute which chunks the failed HSMs would have
        # audited and recursively cover any gap.  Every auditor's audit
        # counts here, not only the quorum's.
        uncovered = self._uncovered_chunks(round_, [h.index for h in survivors])
        if uncovered:
            self._cover_chunks(round_, survivors, uncovered)
        aggregate, signer_ids = self._sign(round_, survivors, commitments, quorum)
        # The commit point: the commit record (with the certificate) lands,
        # then the transition joins the chain, both *before* any device
        # accepts d'.  An intent left open by a crash therefore proves no
        # device moved — restart can roll it back without consulting
        # signatures — and every committed transition is replayable with
        # its certificate intact, so restored logs can offer it to devices
        # that missed the fan-out.
        transition = round_.certified(aggregate, signer_ids)
        if intent_seq is not None:
            self.journal.record_commit(self.shard_index, intent_seq, transition)
        self.certified_transitions.append(transition)
        # Nothing undoes a committed epoch: a device that refuses it (or
        # fail-stops mid-accept) is left behind and offered it later.
        for hsm in online:
            try:
                hsm.accept_log_digest(round_, aggregate, transition.signer_ids)
            except Exception as exc:
                if not (isinstance(exc, LogUpdateRejected) or hsm.is_failed):
                    raise

    @staticmethod
    def _commit_nonces(round_: UpdateRound, devices: Sequence):
        """Round one: each device audits and commits to a fresh nonce.
        Returns the commitments by index and the devices that answered (a
        device that fail-stops mid-audit drops out; any other refusal is a
        genuine rejection and propagates)."""
        commitments: Dict[int, bytes] = {}
        answered = []
        for hsm in devices:
            try:
                commitments[hsm.index] = hsm.audit_log_update(round_)
            except Exception:
                if getattr(hsm, "is_failed", False):
                    continue  # fail-stopped mid-audit: B.3 coverage covers it
                raise
            answered.append(hsm)
        return commitments, answered

    def _sign(self, round_: UpdateRound, auditors: Sequence, commitments, quorum: int):
        """Rounds two and three over the first ``quorum`` auditors, those
        in :attr:`bad_signers` last: each reveals its nonce once every
        commitment is fixed, then signs.  The certificate carries that
        quorum and no more, since a device accepts any quorum.  The
        aggregate is checked once against the signers' keys before
        anything commits.  A signer lost between the rounds takes its nonce
        with it, and one whose share fails ``sᵢ·G = Rᵢ + c·Xᵢ`` is dropped
        and joins :attr:`bad_signers`, so the surviving auditors commit
        again with fresh nonces and a new quorum signs; below quorum the
        epoch fails.  Returns the ``(R, s)`` aggregate and the signer ids.

        The check reads the lane's aggregate key for the quorum, rebuilt
        only when the quorum is another set than the last one."""
        while True:
            if len(auditors) < quorum:
                raise LogUpdateRejected(
                    f"only {len(auditors)} signers left, need {quorum} for a quorum"
                )
            signers = sorted(auditors, key=lambda hsm: hsm.index in self.bad_signers)[:quorum]
            chosen = {hsm.index: commitments[hsm.index] for hsm in signers}
            try:
                nonces = {hsm.index: hsm.reveal_nonce(round_, chosen) for hsm in signers}
                shares = [hsm.sign_transition(round_, nonces) for hsm in signers]
            except Exception:
                if not any(getattr(hsm, "is_failed", False) for hsm in signers):
                    raise
                dropped = set()
            else:
                aggregate = SchnorrMultiSig.aggregate(list(nonces.values()), shares)
                key = self._quorum_key(signers)
                message = round_.message()
                if SchnorrMultiSig.verify_aggregate(key, message, aggregate):
                    return aggregate, tuple(chosen)
                challenge = SchnorrMultiSig.challenge(key, aggregate[0], message)
                publics = [hsm.public_info().sig_public for hsm in signers]
                dropped = {
                    hsm.index
                    for hsm, public, share in zip(signers, publics, shares)
                    if not P256.schnorr_verify(public, challenge, nonces[hsm.index], share)
                }
                if not dropped:
                    raise LogUpdateRejected("the certificate does not verify")
                self.bad_signers |= dropped
            live = [h for h in auditors if not h.is_failed and h.index not in dropped]
            commitments, auditors = self._commit_nonces(round_, live)

    def _quorum_key(self, signers: Sequence) -> AggregateKey:
        """The aggregate key of ``signers`` (devices): the lane's last one
        if they are the same set, else a fresh one from their
        ``public_info()`` that replaces it."""
        ids = tuple(hsm.index for hsm in signers)
        key = self._signer_key
        if key is None or key.signers != ids:
            publics = [hsm.public_info().sig_public for hsm in signers]
            key = self._signer_key = SchnorrMultiSig.aggregate_key(ids, publics)
        return key

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
