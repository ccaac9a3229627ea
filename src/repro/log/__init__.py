"""The distributed append-only log (paper §6, Appendix B).

The service provider stores the full log; HSMs hold only a constant-size
digest.  Clients insert ``(identifier, value)`` pairs (recovery attempts);
the provider batches insertions and runs the Figure 5 update protocol, in
which each HSM audits a random subset of update chunks and the fleet
multi-signs each digest transition.  The core guarantee: once any honest HSM
accepts that ``(id, val)`` is in the log, no honest HSM will ever accept
``(id, val')`` for ``val' != val`` — identifiers are write-once, which is
what bounds PIN-guessing attempts.

The provider's log is a ``ShardedLog`` (``repro.log.sharded``) at every
arity: S >= 1 independent digest chains (``DistributedLog`` lanes), each
certified by its own device committee, anchored to one cross-shard Merkle
root (the lone chain's digest when S = 1) so audits still reference a
single value.  A proof is its lane's plain proof at every S.  ``shard_of``
is the public routing function; write-once holds because an identifier
belongs to exactly one shard.

Thread safety: log objects are unsynchronized; the serving layer owns the
locking (see each module's docstring).  Verifier-side helpers
(``verify_includes``, multisig verification)
are pure and thread-safe.
"""

from repro.log.authdict import AuthenticatedDictionary, InclusionProof, InsertionProof
from repro.log.distributed import (
    DistributedLog,
    LogUpdateRejected,
    SchnorrMultiSig,
)
from repro.log.auditor import ExternalAuditor, AuditFailure
from repro.log.sharded import ShardedLog, cross_shard_root, shard_of
from repro.log.membership import (
    MembershipEvent,
    MembershipRegistry,
    MembershipVerifier,
    MembershipViolation,
)

__all__ = [
    "MembershipEvent",
    "MembershipRegistry",
    "MembershipVerifier",
    "MembershipViolation",
    "AuthenticatedDictionary",
    "InclusionProof",
    "InsertionProof",
    "DistributedLog",
    "LogUpdateRejected",
    "SchnorrMultiSig",
    "ExternalAuditor",
    "AuditFailure",
    "ShardedLog",
    "cross_shard_root",
    "shard_of",
]
