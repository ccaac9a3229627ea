"""The provider's durability journal: what survives a process crash.

Everything only the provider can vouch for and stores for years — recovery
ciphertexts, incremental backups, the reply escrow, and the transparency
log's committed digest chains — is journaled here as typed records on a
:class:`~repro.storage.wal.WriteAheadLog`, so a restarted process
(``Deployment.restore`` / ``RecoveryService.restart``) rebuilds the service
from the block store alone.

**Durable:** backups, incrementals, reply escrow, committed epoch
transitions (entries + the quorum's certificate: signer ids and one
``(R, s)``) and garbage collections.
**Durable, not here:** the HSMs' key arrays — the *devices* vouch for
those, each in place in its own
:class:`~repro.storage.blockstore.RegionStore` of the same store.
**Explicitly not durable:** pending log batches (sessions that never got an
inclusion proof re-submit), epoch leases, and attempt counters (re-derived
from the restored entries).

Epochs are write-ahead transactional, mirroring ``run_update``'s in-memory
rollback:

1. ``EPOCH_INTENT`` (shard, digests, root, the entries being applied) lands
   after ``prepare_update`` but *before* any HSM is asked to certify;
2. ``EPOCH_COMMIT`` (binding the intent's sequence number, plus the
   quorum's certificate) lands once a quorum has signed but *before* the acceptance
   fan-out — the decision is durable before any device is exposed to it —
   and ``EPOCH_ROLLBACK`` lands after a live certification failure.

A crash can therefore leave at most one unresolved intent per shard lane,
and an unresolved intent proves no device adopted the new digest (devices
only hear about an epoch after its commit record landed).
:func:`reconcile_open_intents` settles each against the *trusted* fleet:
if every online committee device still holds the old digest the intent is
repaired to ``ROLLBACK`` and the half-prepared epoch vanishes (its
sessions never received proofs); if — defensively — a committee device is
found at the new digest, a quorum certified it and a repair ``COMMIT`` is
appended, so no certified digest is ever lost.  Either way the WAL
completes or rolls back the epoch atomically and no half-committed state
survives a restart.

Integrity: the WAL chain-hashes every record, so corrupted / swapped /
replayed records from a :class:`~repro.storage.blockstore.TamperingBlockStore`
are detected during replay, never silently restored.

Formats: a record's payload layout is its row of :data:`RECORD_CODECS`
(``repro.core.codec`` values; the snapshot is the :data:`STATE` codec made
of the same pieces) and is spelled nowhere else — the ``record_*`` writers
encode through the table, replay decodes through it and only folds.  A
certificate is one codec value, ``_SIGNATURE``, in a commit and a snapshot
alike; a lane's epoch count is not stored: it is its chain's length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.codec import (
    BLOB, TEXT, U32, U64, U256, Codec, converted, fixed, mapping, nested, optional, seq,
    tuple_of,
)
from repro.core.lhe import LheCiphertext
from repro.core.wire import RECOVERY_CIPHERTEXT
from repro.crypto.ec import ECPoint, is_curve_point
from repro.log.distributed import CertifiedTransition, Transition, on_committee
from repro.storage.blockstore import BlockStore
from repro.storage.wal import WriteAheadLog

# Record kinds (one byte on the WAL).  4 (HSM key blocks) and 8 (published
# cross-shard roots) are retired and never reused: replay refuses them like
# any unknown kind.
K_BACKUP = 1
K_INCREMENTAL = 2
K_REPLY = 3
K_EPOCH_INTENT = 5
K_EPOCH_COMMIT = 6
K_EPOCH_ROLLBACK = 7
K_GC = 9
K_SNAPSHOT = 10


class JournalReplayError(Exception):
    """The journal's records violate the write-ahead protocol (a record
    sequence no crash of the instrumented code paths can produce)."""


# ---------------------------------------------------------------------------
# Restored state
# ---------------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class OpenIntent(Transition):
    """An epoch intent with no commit/rollback yet (a crash mid-epoch):
    the ``EPOCH_INTENT`` record's digest step plus what only it carries."""

    seq: int  # WAL sequence number of the intent record
    entries: List[Tuple[bytes, bytes]]


def _certified(step: Transition, signature: Optional[Tuple]) -> CertifiedTransition:
    """``step`` under a stored ``(signer_ids, aggregate)`` signature, or
    with none (no signer ids, no aggregate) when the signature is absent."""
    signer_ids, aggregate = signature or ((), None)
    return step.certified(aggregate, signer_ids)


@dataclass
class RestoredState:
    """Everything a replayed journal reconstructs (and a snapshot stores)."""

    num_shards: int = 1
    shard_entries: Dict[int, List[Tuple[bytes, bytes]]] = field(default_factory=dict)
    shard_transitions: Dict[int, List[CertifiedTransition]] = field(default_factory=dict)
    garbage_collections: int = 0
    backups: Dict[str, List[LheCiphertext]] = field(default_factory=dict)
    incrementals: Dict[str, List[bytes]] = field(default_factory=dict)
    replies: Dict[Tuple[str, int], List[bytes]] = field(default_factory=dict)
    open_intents: Dict[int, OpenIntent] = field(default_factory=dict)

    def apply_commit(self, intent: OpenIntent, signature: Optional[Tuple] = None) -> None:
        """Fold a committed intent into the durable per-shard state.

        ``signature`` is the commit record's ``(signer_ids, aggregate)``.  It
        is None when the aggregate was not an ``(R, s)`` certificate (a
        garbage aggregate the provider journaled before the devices refused
        it) or was lost to a crash between certification and the commit
        record (a reconciled commit) — the transition itself is still part
        of the restored chain.
        """
        self.shard_entries.setdefault(intent.shard, []).extend(intent.entries)
        self.shard_transitions.setdefault(intent.shard, []).append(
            _certified(intent, signature)
        )
        self.open_intents.pop(intent.shard, None)

    def apply_rollback(self, intent: OpenIntent) -> None:
        """Drop an uncertified intent (its entries were never committed)."""
        self.open_intents.pop(intent.shard, None)


# ---------------------------------------------------------------------------
# Record and snapshot layouts
# ---------------------------------------------------------------------------
_ENTRIES = seq(tuple_of(BLOB, BLOB))
_CIPHERTEXT = nested(RECOVERY_CIPHERTEXT)
_SIGNERS = seq(U32, tuple)


_NONCE = converted(fixed(33, "nonce point"), ECPoint.to_bytes, ECPoint.from_bytes)


def _storable_signature(signature: Optional[Tuple]) -> Optional[Tuple]:
    aggregate = signature and signature[1]
    storable = (
        isinstance(aggregate, tuple)
        and len(aggregate) == 2
        and is_curve_point(aggregate[0])
        and type(aggregate[1]) is int
        and 0 <= aggregate[1] < 1 << 256
    )
    return signature if storable else None


#: A certificate's optional ``(signer_ids, aggregate)``: the signer ids and
#: the multisignature ``(R, s)``, a 33-byte compressed point and a 32-byte
#: scalar.  An aggregate that is not such a pair — an adversarial provider
#: can journal a garbage one before the devices reject it — is stored as
#: absent, like None: the commit is still durable, only its replayable
#: signature is dropped.
_SIGNATURE = converted(
    optional(tuple_of(_SIGNERS, tuple_of(_NONCE, U256))),
    _storable_signature,
    lambda stored: stored,
)

#: A committed transition inside a snapshot; its lane (shard, arity) is not
#: stored with it — decoding fills it from the shard row.
_TRANSITION = converted(
    tuple_of(BLOB, BLOB, BLOB, _SIGNATURE),
    lambda t: (t.old_digest, t.new_digest, t.root, (t.signer_ids, t.aggregate)),
    lambda fields: _certified(Transition(*fields[:3]), fields[3]),
)


def _state_fields(state: RestoredState) -> Tuple:
    if state.open_intents:
        raise ValueError("cannot snapshot with unresolved epoch intents")
    shards = set(state.shard_entries) | set(state.shard_transitions)
    rows = {
        shard: (state.shard_entries.get(shard, []), state.shard_transitions.get(shard, []))
        for shard in shards
    }
    return (
        state.num_shards, state.garbage_collections, rows, state.backups,
        state.incrementals, state.replies,
    )


def _state_from_fields(fields: Tuple) -> RestoredState:
    num_shards, collections, rows, backups, incrementals, replies = fields
    state = RestoredState(
        num_shards=num_shards, garbage_collections=collections, backups=backups,
        incrementals=incrementals, replies=replies,
    )
    for shard, (entries, transitions) in rows.items():
        state.shard_entries[shard] = entries
        state.shard_transitions[shard] = [
            replace(t, shard=shard, num_shards=num_shards) for t in transitions
        ]
    return state


#: A quiescent :class:`RestoredState` — the ``SNAPSHOT`` record's payload.
#: Encoding refuses states with open intents (``ValueError``): snapshots
#: are taken between epochs (the caller quiesces the service), never
#: mid-transaction.
STATE = converted(
    tuple_of(
        U32,                                                      # num_shards
        U32,                                                      # garbage collections
        mapping(U32, tuple_of(_ENTRIES, seq(_TRANSITION))),       # shard: entries, chain
        mapping(TEXT, seq(_CIPHERTEXT)),                          # username: backups
        mapping(TEXT, seq(BLOB)),                                 # username: incrementals
        mapping(tuple_of(TEXT, U32), seq(BLOB)),                  # (username, attempt): replies
    ),
    _state_fields,
    _state_from_fields,
)
encode_state = STATE.encode
decode_state = STATE.decode

#: The payload layout of every record kind, fields in order — the only
#: place a record's bytes are spelled: :class:`ProviderJournal`'s writers
#: encode through it and its replay decodes through it.
RECORD_CODECS: Dict[int, Codec] = {
    K_BACKUP: tuple_of(TEXT, _CIPHERTEXT),             # username, ciphertext
    K_INCREMENTAL: tuple_of(TEXT, BLOB),               # username, blob
    K_REPLY: tuple_of(TEXT, U32, BLOB),                # username, attempt, blob
    K_EPOCH_INTENT: tuple_of(U32, U32, BLOB, BLOB, BLOB, _ENTRIES),
    #                 shard, num_shards, old digest, new digest, root, entries
    K_EPOCH_COMMIT: tuple_of(U32, U64, _SIGNATURE),    # shard, intent seq, signature
    K_EPOCH_ROLLBACK: tuple_of(U32, U64),              # shard, intent seq
    K_GC: tuple_of(U32),                               # new GC total
    K_SNAPSHOT: tuple_of(STATE),                       # the whole state
}


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------
class ProviderJournal:
    """Typed record writer/replayer over one :class:`WriteAheadLog`.

    One journal instance backs one provider process; the serving layer
    serializes epoch records per shard lane (``run_update`` is one lane at
    a time per shard), and the WAL itself serializes interleaved appends
    from concurrent lanes, so no extra locking lives here.
    """

    def __init__(self, store: BlockStore) -> None:
        """Open the journal on ``store`` (verifying any existing records)."""
        self.wal = WriteAheadLog(store, b"repro-journal")

    @property
    def store(self) -> BlockStore:
        """The underlying block store — the thing that survives a crash."""
        return self.wal.store

    def _append(self, kind: int, *values) -> int:
        """Append one record of ``kind``, laid out by its ``RECORD_CODECS`` row."""
        return self.wal.append(kind, RECORD_CODECS[kind].encode(values))

    # -- provider escrow -------------------------------------------------------
    def record_backup(self, username: str, ciphertext: LheCiphertext) -> None:
        """Journal one uploaded recovery ciphertext."""
        self._append(K_BACKUP, username, ciphertext)

    def record_incremental(self, username: str, blob: bytes) -> None:
        """Journal one AE-encrypted incremental backup blob."""
        self._append(K_INCREMENTAL, username, blob)

    def record_reply(self, username: str, attempt: int, blob: bytes) -> None:
        """Journal one escrowed HSM reply."""
        self._append(K_REPLY, username, attempt, blob)

    # -- epoch transactions ----------------------------------------------------
    def record_intent(
        self,
        shard: int,
        num_shards: int,
        old_digest: bytes,
        new_digest: bytes,
        root: bytes,
        entries: Sequence[Tuple[bytes, bytes]],
    ) -> int:
        """Write-ahead record of a prepared (not yet certified) epoch."""
        return self._append(
            K_EPOCH_INTENT, shard, num_shards, old_digest, new_digest, root, entries
        )

    def record_commit(
        self, shard: int, intent_seq: int, transition: Optional[CertifiedTransition]
    ) -> None:
        """Commit an intent; ``transition`` carries the quorum signature.

        ``transition=None`` is the reconciled-repair path (restart found
        the fleet had certified the epoch but the commit record was lost
        with the process): the commit is durable, the signature is not.
        """
        self._append(
            K_EPOCH_COMMIT,
            shard,
            intent_seq,
            None if transition is None else (transition.signer_ids, transition.aggregate),
        )

    def record_rollback(self, shard: int, intent_seq: int) -> None:
        """Roll an intent back (certification failed or never finished)."""
        self._append(K_EPOCH_ROLLBACK, shard, intent_seq)

    def record_gc(self, count: int) -> None:
        """Journal a log garbage collection (``count`` = new GC total)."""
        self._append(K_GC, count)

    # -- snapshot / restore ----------------------------------------------------
    def write_snapshot(self, state: RestoredState, compact: bool = True) -> int:
        """Append a snapshot record, anchor it, and (optionally) compact.

        Returns the snapshot's WAL sequence number.  Must run quiesced (no
        concurrent appends — the service stops its ticker first).
        """
        seq = self._append(K_SNAPSHOT, state)
        self.wal.anchor_now()
        if compact:
            self.wal.compact_before(seq)
        return seq

    def replay_state(self, expected_head: Optional[bytes] = None) -> RestoredState:
        """Fold every journal record into a :class:`RestoredState`.

        Raises :class:`~repro.storage.wal.WalCorruptionError` on tampered
        storage and :class:`JournalReplayError` on record sequences the
        write-ahead protocol cannot produce.  Unresolved intents are left
        in ``open_intents`` for :func:`reconcile_open_intents`.
        """
        state = RestoredState()
        for seq, kind, payload in self.wal.replay(expected_head):
            state = self._apply(state, seq, kind, payload)
        return state

    def _apply(
        self, state: RestoredState, seq: int, kind: int, payload: bytes
    ) -> RestoredState:
        """Fold one record into ``state`` (returns the new state)."""
        codec = RECORD_CODECS.get(kind)
        if codec is None:
            raise JournalReplayError(f"unknown journal record kind {kind}")
        fields = codec.decode(payload)
        if kind == K_SNAPSHOT:
            (state,) = fields
        elif kind == K_BACKUP:
            username, ciphertext = fields
            state.backups.setdefault(username, []).append(ciphertext)
        elif kind == K_INCREMENTAL:
            username, blob = fields
            state.incrementals.setdefault(username, []).append(blob)
        elif kind == K_REPLY:
            username, attempt, blob = fields
            state.replies.setdefault((username, attempt), []).append(blob)
        elif kind == K_EPOCH_INTENT:
            shard, num_shards, old_digest, new_digest, root, entries = fields
            intent = OpenIntent(
                old_digest, new_digest, root, shard, num_shards, seq=seq, entries=entries
            )
            if intent.shard in state.open_intents:
                raise JournalReplayError(
                    f"shard {intent.shard} has two unresolved epoch intents"
                )
            state.num_shards = max(state.num_shards, intent.num_shards)
            state.open_intents[intent.shard] = intent
        elif kind == K_EPOCH_COMMIT:
            shard, intent_seq, signature = fields
            intent = self._open_intent(state, "commit", shard, intent_seq)
            state.apply_commit(intent, signature)
        elif kind == K_EPOCH_ROLLBACK:
            state.apply_rollback(self._open_intent(state, "rollback", *fields))
        elif kind == K_GC:
            state.shard_entries = {shard: [] for shard in state.shard_entries}
            (state.garbage_collections,) = fields
        return state

    @staticmethod
    def _open_intent(
        state: RestoredState, what: str, shard: int, intent_seq: int
    ) -> OpenIntent:
        """The open intent a commit/rollback record settles (validated)."""
        intent = state.open_intents.get(shard)
        if intent is None or intent.seq != intent_seq:
            raise JournalReplayError(f"{what} for shard {shard} matches no open intent")
        return intent


# ---------------------------------------------------------------------------
# Crash reconciliation
# ---------------------------------------------------------------------------
def reconcile_open_intents(
    state: RestoredState, journal: ProviderJournal, hsms: Sequence
) -> Dict[int, str]:
    """Settle every unresolved epoch intent against the trusted fleet.

    HSMs live outside the crashed process (separate hardware in the paper's
    deployment), so their digests are ground truth.  Because the commit
    record lands *before* the acceptance fan-out, an open intent normally
    means no device moved: the quorum either never formed or its aggregate
    died with the process, so a repair ``ROLLBACK`` is appended and the
    intent's entries are dropped (those sessions never received inclusion
    proofs).  Defensively, if an online committee device *is* found at the
    intent's new digest — a device only adopts a digest after verifying a
    quorum aggregate — the epoch was certified and a repair ``COMMIT`` is
    appended instead (its aggregate died with the process), so a certified
    digest is never rolled back.

    Returns ``{shard: "committed" | "rolled-back"}`` for observability.
    Raises :class:`JournalReplayError` if a committee device sits at a
    digest matching neither side of the intent (an inconsistency no crash
    of the instrumented paths can produce).
    """
    outcomes: Dict[int, str] = {}
    for shard in sorted(state.open_intents):
        intent = state.open_intents[shard]
        committee = [
            hsm
            for hsm in hsms
            if not hsm.is_failed and on_committee(hsm.index, shard, intent.num_shards)
        ]
        if not committee:
            raise JournalReplayError(
                f"no online committee device to reconcile shard {shard}"
            )
        digests = {hsm.shard_digest(shard) for hsm in committee}
        unexplained = digests - {intent.old_digest, intent.new_digest}
        if unexplained:
            raise JournalReplayError(
                f"shard {shard}: committee digest matches neither side of the"
                " open intent"
            )
        if intent.new_digest in digests:
            journal.record_commit(shard, intent.seq, None)
            state.apply_commit(intent)
            outcomes[shard] = "committed"
        else:
            journal.record_rollback(shard, intent.seq)
            state.apply_rollback(intent)
            outcomes[shard] = "rolled-back"
    return outcomes

