"""The service provider (paper §2).

The provider owns everything *outside* the HSMs' tamper boundaries: bulk
ciphertext storage, the log state, the outsourced Bloom-filter key blocks,
and the network between clients and HSMs.  It is **untrusted** — every
security property must hold even when this component misbehaves, which is
why the adversary classes in ``repro.adversary`` are provider subclasses.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.identifiers import attempt_identifier, parse_attempt_identifier, user_prefix
from repro.core.lhe import LheCiphertext
from repro.log.authdict import AuthenticatedDictionary, InclusionProof
from repro.log.distributed import LogConfig
from repro.log.sharded import ShardedLog
from repro.storage.blockstore import BlockStore, InMemoryBlockStore, RegionStore
from repro.storage.journal import ProviderJournal, RestoredState


class ProviderError(Exception):
    """The provider could not serve a request (missing data, full budget)."""


class ServiceProvider:
    """Untrusted data-center operator."""

    #: Lock contract, checked by `repro.lintkit`'s lock-discipline pass:
    #: the incremental attempt counters are the only state the provider
    #: mutates from concurrent sessions (see the contention test suite).
    _GUARDED_BY = {
        "_attempt_counters": "_attempt_lock",
        "_attempt_generation": "_attempt_lock",
    }

    def __init__(
        self,
        log_config: Optional[LogConfig] = None,
        store: Optional[BlockStore] = None,
    ) -> None:
        """``store`` opts into durability: every escrow mutation and
        committed log epoch is journaled to it (``repro.storage.journal``),
        each HSM's key array lives in place in its own region of it, and
        ``Deployment.restore`` rebuilds the provider from it after a crash.
        None (the default) keeps the provider purely in-memory with zero
        extra metered work."""
        # num_shards independent epoch lanes (see repro.log.sharded); 1 is
        # the paper's single digest chain.
        self.log = ShardedLog(log_config)
        # Durability journal (None = in-memory only).  Attached before any
        # mutation so provisioning itself (the genesis epochs) is replayable.
        self.journal: Optional[ProviderJournal] = None
        if store is not None:
            self.attach_journal(ProviderJournal(store))
        # username -> list of uploaded recovery ciphertexts (newest last)
        self._backups: Dict[str, List[LheCiphertext]] = defaultdict(list)
        # username -> AE-encrypted incremental backup blobs (§8)
        self._incrementals: Dict[str, List[bytes]] = defaultdict(list)
        # (username, attempt) -> encrypted HSM replies (failure handling, §8)
        self._replies: Dict[Tuple[str, int], List[bytes]] = defaultdict(list)
        # HSM index -> block store hosting its outsourced BFE secret key
        self.hsm_stores: Dict[int, BlockStore] = {}
        # Installed by the deployment: runs one log-update epoch on the fleet.
        self._update_runner: Optional[Callable[[], None]] = None
        # username -> first unused attempt slot, maintained incrementally so
        # attempt numbering is O(1) instead of a scan over the whole log.
        # Counters belong to one log generation: garbage collection resets
        # every user's attempt budget (§6.2), so when the log's GC count
        # moves past ``_attempt_generation`` the counters are dropped.
        self._attempt_counters: Dict[str, int] = {}
        self._attempt_generation = 0
        self._attempt_lock = threading.Lock()

    # -- wiring ---------------------------------------------------------------
    def attach_journal(self, journal: ProviderJournal) -> None:
        """Wire a durability journal into the provider and its log."""
        self.journal = journal
        self.log.journal = journal

    def install_update_runner(self, runner: Callable[[], None]) -> None:
        self._update_runner = runner

    def run_log_update(self) -> None:
        """Run one update epoch (the paper's every-10-minutes batch)."""
        if self._update_runner is None:
            raise ProviderError("no update runner installed")
        self._update_runner()

    # -- backup storage -----------------------------------------------------------
    def upload_backup(self, username: str, ciphertext: LheCiphertext) -> int:
        """Store a recovery ciphertext; returns its index for this user."""
        self._backups[username].append(ciphertext)
        if self.journal is not None:
            self.journal.record_backup(username, ciphertext)
        return len(self._backups[username]) - 1

    def fetch_backup(self, username: str, index: int = -1) -> LheCiphertext:
        """Fetch one stored ciphertext (default: newest).

        Unknown usernames and out-of-range indices raise
        :class:`ProviderError` — a typed refusal the RPC endpoint can frame
        — never a raw ``KeyError``/``IndexError``.
        """
        backups = self._backups.get(username)
        if not backups:
            raise ProviderError(f"no backups stored for {username!r}")
        if not (-len(backups) <= index < len(backups)):
            raise ProviderError(
                f"backup index {index} out of range for {username!r}"
                f" ({len(backups)} stored)"
            )
        return backups[index]

    def backup_count(self, username: str) -> int:
        return len(self._backups.get(username, []))

    def upload_incremental(self, username: str, blob: bytes) -> None:
        self._incrementals[username].append(blob)
        if self.journal is not None:
            self.journal.record_incremental(username, blob)

    def fetch_incrementals(self, username: str) -> List[bytes]:
        return list(self._incrementals.get(username, []))

    # -- the log ---------------------------------------------------------------------
    def log_recovery_attempt(self, username: str, attempt: int, commitment: bytes) -> bytes:
        """Insert (rec|user|attempt -> h) into the pending log batch."""
        identifier = attempt_identifier(username, attempt)
        self.log.insert(identifier, commitment)
        with self._attempt_lock:
            counters = self._current_counters()
            counters[username] = max(counters.get(username, 0), attempt + 1)
        return identifier

    # lint: unguarded[every caller takes self._attempt_lock first — this helper exists so the generation check runs under that one lock]
    def _current_counters(self) -> Dict[str, int]:
        """The counters for the live log generation (caller holds the lock)."""
        if self._attempt_generation != self.log.garbage_collections:
            self._attempt_counters.clear()
            self._attempt_generation = self.log.garbage_collections
        return self._attempt_counters

    def next_attempt_number(self, username: str) -> int:
        """First unused attempt slot for a user in the current log (O(1))."""
        with self._attempt_lock:
            return self._current_counters().get(username, 0)

    def reserve_attempt_number(self, username: str) -> int:
        """Atomically claim the next attempt slot for a user.

        Concurrent sessions for the same user each get a distinct slot; a
        reserved slot stays burnt even if the session later aborts (attempt
        budgets count *attempts*, so this only ever under-serves the user).
        """
        with self._attempt_lock:
            counters = self._current_counters()
            attempt = counters.get(username, 0)
            counters[username] = attempt + 1
            return attempt

    def scan_attempt_number(self, username: str) -> int:
        """Reference implementation of :meth:`next_attempt_number`: rescan
        the whole log plus the pending batch.  O(log size); kept as a
        cross-check for the incremental counters (used by the test suite)."""
        prefix = user_prefix(username)
        used = set()
        for identifier, _ in self.log.items():
            if identifier.startswith(prefix):
                used.add(identifier)
        for identifier, _ in self.log.pending:
            if identifier.startswith(prefix):
                used.add(identifier)
        attempt = 0
        while attempt_identifier(username, attempt) in used:
            attempt += 1
        return attempt

    def log_and_prove(
        self, username: str, attempt: int, commitment: bytes
    ) -> Tuple[bytes, InclusionProof]:
        """Insert, run an update epoch, and return the inclusion proof.

        In deployment the client waits for the next periodic epoch; the
        simulation runs one immediately.
        """
        identifier = self.log_recovery_attempt(username, attempt, commitment)
        self.run_log_update()
        proof = self.log.prove_includes(identifier, commitment)
        if proof is None:  # pragma: no cover - insert above guarantees presence
            raise ProviderError("inclusion proof unavailable after update")
        return identifier, proof

    def prove_inclusion(self, identifier: bytes, value: bytes) -> Optional[InclusionProof]:
        """A fresh inclusion proof against the *current* digest.

        Proofs are digest-exact (the authenticated dictionary is a Merkle
        BST), so a client whose recovery straddles an update epoch must
        refresh its proof before retrying an HSM; returns None if the entry
        is not committed yet.
        """
        return self.log.prove_includes(identifier, value)

    def share_phase_done(self, username: str, attempt: int) -> None:
        """Client hint: it has finished requesting shares for an attempt.

        A liveness (never security) signal: the batched service uses it to
        schedule the next update epoch without invalidating the inclusion
        proofs of in-flight sessions.  The plain provider ignores it.
        """

    def recovery_attempts_for(self, username: str) -> List[Tuple[bytes, bytes]]:
        """All logged attempts for a user (what a monitoring client checks)."""
        prefix = user_prefix(username)
        return [
            (identifier, value)
            for identifier, value in self.log.items()
            if identifier.startswith(prefix)
        ]

    # -- recovery-reply escrow (§8 failure handling) --------------------------------------
    def store_reply(self, username: str, attempt: int, encrypted_reply: bytes) -> None:
        self._replies[(username, attempt)].append(encrypted_reply)
        if self.journal is not None:
            self.journal.record_reply(username, attempt, encrypted_reply)

    def fetch_replies(self, username: str, attempt: int) -> List[bytes]:
        return list(self._replies.get((username, attempt), []))

    # -- durability: snapshot / restore ------------------------------------------------------
    def export_state(self) -> RestoredState:
        """The provider's durable state as one snapshot-able value.

        Captures exactly what the journal would reconstruct by replay:
        committed entries, certified transitions and escrow (the
        HSMs' key arrays are durable in place, in their own regions).
        Pending batches, leases, and attempt counters are *not* durable and
        are excluded by design.
        """
        state = RestoredState(
            num_shards=self.log.num_shards,
            garbage_collections=self.log.garbage_collections,
            backups={u: list(cts) for u, cts in self._backups.items() if cts},
            incrementals={u: list(bs) for u, bs in self._incrementals.items() if bs},
            replies={k: list(bs) for k, bs in self._replies.items() if bs},
        )
        for shard, log in enumerate(self.log.shards):
            state.shard_entries[shard] = list(log.ordered_entries)
            state.shard_transitions[shard] = list(log.certified_transitions)
        return state

    def snapshot(self) -> int:
        """Write a snapshot record and compact the journal behind it.

        Returns the snapshot's WAL sequence number.  Callers quiesce the
        service first (stop the ticker / hold the batcher lock): snapshots
        are taken between epochs, never mid-transaction.
        """
        if self.journal is None:
            raise ProviderError("provider has no durability journal")
        return self.journal.write_snapshot(self.export_state())

    @classmethod
    def restore(
        cls,
        log_config: Optional[LogConfig],
        journal: ProviderJournal,
        state: RestoredState,
    ) -> "ServiceProvider":
        """Rebuild a provider from a replayed (and reconciled) journal.

        ``state`` must have no open intents left (run
        :func:`repro.storage.journal.reconcile_open_intents` first), and
        ``log_config`` must carry its shard count (``Deployment.restore``
        checks the journal's against the fleet's).  Attempt counters are re-derived from the restored log entries;
        pending batches are gone by design (their sessions never received
        inclusion proofs and will re-submit).
        """
        config = log_config or LogConfig()
        if state.open_intents:
            raise ProviderError(
                "cannot restore with unresolved epoch intents (reconcile first)"
            )
        provider = cls(config)
        for shard, log in enumerate(provider.log.shards):
            entries = state.shard_entries.get(shard, [])
            log.ordered_entries = list(entries)
            log.dict = AuthenticatedDictionary.from_entries(entries)
            log.certified_transitions = list(state.shard_transitions.get(shard, []))
        provider.log.garbage_collections = state.garbage_collections
        for username, ciphertexts in state.backups.items():
            provider._backups[username] = list(ciphertexts)
        for username, blobs in state.incrementals.items():
            provider._incrementals[username] = list(blobs)
        for key, blobs in state.replies.items():
            provider._replies[key] = list(blobs)
        # Attempt counters are re-derived, not journaled: the committed log
        # is the ground truth for which slots are burnt (pending slots were
        # never served, so under-counting them only re-burns nothing).
        with provider._attempt_lock:
            provider._attempt_generation = provider.log.garbage_collections
            for identifier, _ in provider.log.items():
                try:
                    username, attempt = parse_attempt_identifier(identifier)
                except ValueError:
                    continue
                provider._attempt_counters[username] = max(
                    provider._attempt_counters.get(username, 0), attempt + 1
                )
        provider.attach_journal(journal)
        return provider

    # -- outsourced HSM key storage ----------------------------------------------------------
    def storage_for_hsm(self, index: int) -> BlockStore:
        """Where HSM ``index`` keeps its key array: its region of the
        durable store when there is one, a store of its own otherwise."""
        if index not in self.hsm_stores:
            self.hsm_stores[index] = (
                RegionStore(self.journal.store, index)
                if self.journal is not None
                else InMemoryBlockStore()
            )
        return self.hsm_stores[index]
