"""External log auditors (paper §6.3).

Anyone may audit the SafetyPin log: given two published digests and the
provider's claimed log contents, the auditor replays the insertions, checks
both digests, and checks the append-only relationship.  Auditors also let
users *monitor* the log — the second purpose of the log in §6: a client can
ask whether any recovery attempt has ever been filed under its username,
detecting attacks on its backup even when the attacker knew the PIN.

Sharded logs audit the same way per shard, anchored to the cross-shard
root (``audit_sharded_snapshot``); an unsharded log is its one-shard case.

Thread safety: auditors are external observers working on snapshot copies
(entry lists); they hold no locks, keep no state past a call and never
touch live log state, so any number may run in parallel.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.log.authdict import AuthenticatedDictionary


class AuditFailure(Exception):
    """The provider's log does not match its published digests."""


class ExternalAuditor:
    """A third-party auditor (e.g. the paper suggests Let's Encrypt)."""

    def __init__(self, name: str = "auditor") -> None:
        self.name = name

    # -- digest replay --------------------------------------------------------
    def replay_digest(self, entries: Sequence[Tuple[bytes, bytes]]) -> bytes:
        """Rebuild the log tree from an ordered entry list; return digest."""
        return AuthenticatedDictionary.from_entries(entries).digest

    def audit_snapshot(
        self, entries: Sequence[Tuple[bytes, bytes]], claimed_digest: bytes
    ) -> None:
        """Check that ``entries`` really hash to ``claimed_digest``: the
        one-shard case of :meth:`audit_sharded_snapshot`."""
        self.audit_sharded_snapshot([entries], claimed_digest)

    def audit_extension(
        self,
        old_entries: Sequence[Tuple[bytes, bytes]],
        new_entries: Sequence[Tuple[bytes, bytes]],
        old_digest: bytes,
        new_digest: bytes,
    ) -> None:
        """Check both digests and that the new log extends the old one:
        the old entry list is a prefix and no identifier repeats (§6.1)."""
        if list(new_entries[: len(old_entries)]) != list(old_entries):
            raise AuditFailure("new log does not have the old log as a prefix")
        self.audit_snapshot(old_entries, old_digest)
        self.audit_snapshot(new_entries, new_digest)

    # -- sharded logs ---------------------------------------------------------
    def audit_sharded_snapshot(
        self,
        shard_entries: Sequence[Sequence[Tuple[bytes, bytes]]],
        claimed_root: bytes,
    ) -> None:
        """Audit a log against its published cross-shard root (the lone
        shard's digest when ``len(shard_entries) == 1``).

        Checks that (a) every entry lives on the shard its identifier
        hashes to, (b) no identifier repeats anywhere in the partition, and
        (c) replaying each shard and combining the digests reproduces the
        claimed cross-shard root.  ``shard_entries[k]`` is shard ``k``'s
        ordered entry list (``ShardedLog.shard_entries()``).
        """
        from repro.log.sharded import cross_shard_root, shard_of

        num_shards = len(shard_entries)
        seen = set()
        for shard, entries in enumerate(shard_entries):
            for identifier, _ in entries:
                if shard_of(identifier, num_shards) != shard:
                    raise AuditFailure(
                        f"entry {identifier!r} is on shard {shard} but hashes "
                        f"to shard {shard_of(identifier, num_shards)}"
                    )
                if identifier in seen:
                    raise AuditFailure(f"duplicate identifier in log: {identifier!r}")
                seen.add(identifier)
        root = cross_shard_root(
            [self.replay_digest(entries) for entries in shard_entries]
        )
        if root != claimed_root:
            raise AuditFailure("log contents do not match the published root")

    # -- user-facing monitoring ---------------------------------------------------
    @staticmethod
    def recovery_attempts_for(
        entries: Sequence[Tuple[bytes, bytes]], identifier_prefix: bytes
    ) -> List[Tuple[bytes, bytes]]:
        """All log entries whose identifier starts with ``identifier_prefix``.

        SafetyPin logs recovery attempts under (an opaque form of) the
        username; a user who never initiated recovery but finds entries here
        knows someone tried to read her backup.
        """
        return [(i, v) for i, v in entries if i.startswith(identifier_prefix)]
