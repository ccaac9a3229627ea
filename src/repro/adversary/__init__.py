"""Attack harnesses for the security test suite.

Each class plays one adversary from the paper's threat model (§2, §3):
the brute-force PIN guesser, the adaptively corrupting state actor of
Theorem 10 / Remark 5, the relay that redirects the HSMs' replies to its own
key, and the cheating service provider who tries to break the log's
append-only property.  Tests assert that every attack fails
exactly as the analysis predicts — and that the corresponding attack on the
baseline system *succeeds*, reproducing the paper's motivation.
"""

from repro.adversary.attacks import (
    BruteForcePinAttacker,
    AdaptiveCorruptionAttacker,
    CheatingProvider,
    ReplyKeySwappingRelay,
    decrypt_with_stolen_secrets,
)

__all__ = [
    "BruteForcePinAttacker",
    "AdaptiveCorruptionAttacker",
    "CheatingProvider",
    "ReplyKeySwappingRelay",
    "decrypt_with_stolen_secrets",
]
