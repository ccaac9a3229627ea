"""Log-identifier naming for recovery attempts.

The log allows at most one value per identifier.  Logging attempts under the
bare username would give each user exactly one recovery ever (until garbage
collection); the paper's "slight modification" (§4.2) allows a fixed number
of attempts by numbering them.  We log attempt ``k`` of ``user`` under
``rec|user|k``.  A decrypt request carries only ``k``: the HSM enforces
``k < max_attempts_per_user`` and rebuilds the identifier from ``k`` and
the username in the commitment's opening, so it never parses one; the
provider parses the committed identifiers to re-derive its attempt
counters after a restart.

(The paper notes usernames in the log are privacy-sensitive and suggests
opaque device-install UUIDs; the mapping here is a naming layer, so swapping
in opaque IDs would not change any other component.)
"""

from __future__ import annotations

from typing import Tuple

_PREFIX = b"rec|"


def attempt_identifier(username: str, attempt: int) -> bytes:
    if attempt < 0:
        raise ValueError("attempt number must be non-negative")
    if "|" in username:
        raise ValueError("usernames may not contain '|'")
    return _PREFIX + username.encode("utf-8") + b"|" + str(attempt).encode("ascii")


def user_prefix(username: str) -> bytes:
    """Prefix matching every attempt identifier of ``username``."""
    return _PREFIX + username.encode("utf-8") + b"|"


def parse_attempt_identifier(identifier: bytes) -> Tuple[str, int]:
    """Inverse of :func:`attempt_identifier`; raises ValueError if malformed."""
    if not identifier.startswith(_PREFIX):
        raise ValueError("not a recovery-attempt identifier")
    body = identifier[len(_PREFIX) :]
    username_bytes, _, attempt_bytes = body.rpartition(b"|")
    if not username_bytes or not attempt_bytes.isdigit():
        raise ValueError("malformed recovery-attempt identifier")
    return username_bytes.decode("utf-8"), int(attempt_bytes)
