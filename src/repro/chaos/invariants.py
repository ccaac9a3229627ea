"""Continuously-evaluated safety invariants for chaos campaigns.

Liveness may legitimately suffer under chaos (a partitioned cluster can
refuse a recovery; that is an *expected failure*).  Safety may not.  The
checkers here encode the safety floor, evaluated between scheduler events
so any breakage is pinned to an exact step index:

- **log-digest-chain** — replaying each (shard) log's committed entries
  through a fresh authenticated dictionary reproduces its live digest;
  nothing is left pending between epochs; and for sharded logs the
  incrementally-maintained cross-shard root matches a from-scratch
  Merkle recompute over the replayed shard digests.
- **attempt-counters** — the O(1) per-user attempt counters are never
  *behind* the reference full-log scan (behind would re-issue a logged
  attempt number: corruption; ahead only under-serves, by design).
- **no-rolled-back-session** — every recovery served since the last
  garbage collection still has its attempt identifier in the committed
  log: no session was ever served from an epoch that later vanished.
- **journal-consistency** — for durable deployments: an independent
  replay of the journal store yields no open intents, the same per-shard
  digests as the live log, and the same escrow counts (run after every
  crash/restore and at campaign end; it re-reads the whole WAL).

Each failure becomes a :class:`Violation`; the engine stamps the step
index and dumps a replay file.

Thread safety: checkers only read provider state and must run between
scheduler events (the chaos run is single-threaded, so they do).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.log.authdict import AuthenticatedDictionary
from repro.log.sharded import cross_shard_root
from repro.storage.journal import ProviderJournal


@dataclass
class Violation:
    """One invariant breach, pinned to the scheduler step that exposed it."""

    invariant: str
    message: str
    step: int = -1  # stamped by the engine when it records the violation

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form for reports and replay files."""
        return {"invariant": self.invariant, "message": self.message, "step": self.step}


def check_digest_chain(provider) -> List[Violation]:
    """Replay committed entries per shard; digests must match exactly.

    It also recomputes the cross-shard root *from scratch* over the
    replayed shard digests and compares it to the live ``log.digest`` —
    the live value is maintained incrementally (O(log S) path updates per
    dirty shard), and this is the reference it must stay byte-identical
    to.
    """
    out: List[Violation] = []
    components = provider.log.shards  # each carries its own digest chain
    replayed_digests: List[bytes] = []
    for shard, log in enumerate(components):
        replayed = AuthenticatedDictionary.from_entries(log.ordered_entries)
        replayed_digests.append(replayed.digest)
        if replayed.digest != log.digest:
            out.append(Violation(
                "log-digest-chain",
                f"shard {shard}: replaying {len(log.ordered_entries)} committed"
                " entries does not reproduce the live digest",
            ))
        if log.pending:
            out.append(Violation(
                "log-digest-chain",
                f"shard {shard}: {len(log.pending)} entries left pending between"
                " epochs",
            ))
    if cross_shard_root(replayed_digests) != provider.log.digest:
        out.append(Violation(
            "log-digest-chain",
            "incrementally-maintained cross-shard root disagrees with the"
            f" from-scratch Merkle root over all {len(components)} replayed"
            " shard digests",
        ))
    return out


def check_attempt_counters(provider, usernames: Iterable[str]) -> List[Violation]:
    """The incremental counter must never fall behind the full-log scan."""
    out: List[Violation] = []
    for username in usernames:
        counter = provider.next_attempt_number(username)
        scan = provider.scan_attempt_number(username)
        if counter < scan:
            out.append(Violation(
                "attempt-counters",
                f"counter for {username!r} is {counter}, behind the log scan"
                f" ({scan}): a logged attempt number would be re-issued",
            ))
    return out


def check_no_rolled_back_session(
    provider, served: Dict[bytes, str]
) -> List[Violation]:
    """Every session served since the last GC is still in the committed log."""
    committed = {identifier for identifier, _ in provider.log.ordered_entries}
    out: List[Violation] = []
    for identifier, username in served.items():
        if identifier not in committed:
            out.append(Violation(
                "no-rolled-back-session",
                f"session {identifier!r} (user {username!r}) was served but its"
                " attempt is no longer in the committed log (rolled-back epoch)",
            ))
    return out


def check_journal_consistency(provider, usernames: Iterable[str]) -> List[Violation]:
    """An independent journal replay must agree with the live provider."""
    if provider.journal is None:
        return []
    out: List[Violation] = []
    state = ProviderJournal(provider.journal.store).replay_state()
    if state.open_intents:
        out.append(Violation(
            "journal-consistency",
            f"journal replay left open epoch intents on shards"
            f" {sorted(state.open_intents)} outside any crash window",
        ))
    for shard, log in enumerate(provider.log.shards):
        replayed = AuthenticatedDictionary.from_entries(
            state.shard_entries.get(shard, [])
        )
        if replayed.digest != log.digest:
            out.append(Violation(
                "journal-consistency",
                f"shard {shard}: journal-replayed digest disagrees with the"
                " live log digest",
            ))
    for username in usernames:
        live = provider.backup_count(username)
        durable = len(state.backups.get(username, []))
        if durable != live:
            out.append(Violation(
                "journal-consistency",
                f"escrow divergence for {username!r}: journal holds {durable}"
                f" backups, provider holds {live}",
            ))
    return out


def run_invariant_checks(
    provider,
    usernames: Iterable[str],
    served: Dict[bytes, str],
    include_journal: bool = False,
) -> List[Violation]:
    """Run the cheap checkers (plus the journal replay when asked)."""
    usernames = list(usernames)
    out = check_digest_chain(provider)
    out += check_attempt_counters(provider, usernames)
    out += check_no_rolled_back_session(provider, served)
    if include_journal:
        out += check_journal_consistency(provider, usernames)
    return out
