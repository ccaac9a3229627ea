"""The SafetyPin client (paper §4, Figure 3).

A client holds its username, its PIN (supplied per call, never stored), and
the master public key ``mpk``.  ``backup`` runs entirely locally; ``recover``
walks the Figure 3 protocol: log the attempt, contact the PIN-selected
cluster, reconstruct.

One deviation from Figure 3: the client never holds the inclusion proof π.
In the paper the provider returns π and the client forwards it, unread, to
every cluster HSM.  Here ``log_and_prove`` answers with an ack once the
attempt is committed, and the provider attaches a fresh π to each decrypt
request on its way to the device (``service.channel.ProvingChannel``; it
also re-proves a request an interleaved epoch made stale).  The device
checks π against its own digest as before, so what it accepts is
unchanged; π's bytes just stop crossing the client's link twice.  The same
relay escrows each reply it carries back (§8 below), so the client does
not send the provider what the provider has just forwarded to it.

A second deviation: the client never downloads the share ciphertexts.  In
the paper it fetches the whole recovery ciphertext and forwards share j,
unread, to the j-th cluster HSM.  Here ``fetch_backup`` answers with a
:class:`~repro.core.lhe.RecoveryHeader` (the salt, the payload and the
stored ciphertext's hash, which the commitment binds), a
:class:`ShareRequest` names a cluster *position*, and the relay attaches
the share at that position of the stored backup whose hash the opening
names.  The device receives the same request as before, so what it
accepts is unchanged: the relay carried those bytes in the paper too,
and could swap them there as well.

The share phase and the finish do only work that can still matter.  The
cluster is a list in [N]^n and all of a user's shares carry one puncture
tag, so :meth:`Client.request_shares` sends one request per *distinct*
device whose key tree has not yet answered for the tag (a refusal or an
outage is not an answer: nothing was punctured).  ``Reconstruct`` needs any
t shares, so :meth:`Client.finish_recovery` decrypts replies only until the
backup opens — t of them unless a corrupt or lying reply is among the
first.

Also implemented from §8:

- *Failure during recovery*: a fresh per-recovery keypair is generated and
  backed up through SafetyPin itself before recovery starts; HSM replies are
  encrypted under it and escrowed with the provider as its relay forwards
  them, before the client sees them, so a replacement device can resume an
  interrupted recovery (:meth:`Client.resume_recovery`).  The scheme nests
  arbitrarily.
- *Incremental backups*: a long-lived master AES key is SafetyPin-protected
  once; increments are cheap AE blobs under that key.
- *Multiple recovery ciphertexts*: ``reuse_salt=True`` keeps the same hidden
  cluster across a user's backup series so one puncture pass revokes all of
  them (§8), and a fresh salt is forced after each successful recovery.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.codec import WireFormatError
from repro.core.lhe import LheError, LocationHidingEncryption, RecoveryHeader, recovery_header
from repro.core.params import SystemParams
from repro.crypto.commit import CommitmentOpening, commit_recovery
from repro.crypto.ec import ECKeyPair, P256
from repro.crypto.elgamal import ElGamalCiphertext, HashedElGamal
from repro.crypto.gcm import AuthenticationError, ae_decrypt, ae_encrypt
from repro.crypto.shamir import SHARE, Share
from repro.hsm.device import HsmRefusedError, HsmUnavailableError
from repro.crypto.bfe import PuncturedKeyError
from repro.metering import OpMeter

#: Suffix for the hidden account that stores per-recovery keys (§8).
_RECOVERY_KEY_SUFFIX = "!rk"


class RecoveryError(Exception):
    """Recovery failed (wrong PIN, too many HSMs down, or attempt refused)."""


@dataclass(frozen=True)
class ShareRequest:
    """What the client sends toward one cluster HSM (step Ï of Fig. 3).

    The device's :class:`~repro.hsm.device.DecryptShareRequest` without
    its inclusion proof or its share ciphertext: the provider proves the
    attempt named by ``attempt`` and the opening's username as it relays
    the request, and attaches the share at ``position`` of the stored
    backup whose hash the opening names."""

    attempt: int
    opening: CommitmentOpening
    position: int  # the share's index in the cluster
    context: bytes  # BFE domain separation: username || salt || cluster


@dataclass
class RecoverySession:
    """State of one in-flight recovery (survives on the provider if the
    client device dies after :meth:`Client.request_shares`)."""

    username: str
    attempt: int
    header: RecoveryHeader
    cluster: Tuple[int, ...]
    context: bytes
    opening: CommitmentOpening
    response_keypair: ECKeyPair
    recovery_key_username: Optional[str] = None
    encrypted_replies: List[bytes] = field(default_factory=list)
    #: HSMs whose key tree has answered for this series tag (punctured now,
    #: or found punctured): :meth:`Client.request_shares` asks them no more.
    answered_hsms: Set[int] = field(default_factory=set)


class Client:
    """One user's device."""

    def __init__(
        self,
        username: str,
        params: SystemParams,
        provider: object,
        channels: Callable[[int], object],
        mpk: Sequence,
    ) -> None:
        """``channels`` maps an HSM index to a :class:`repro.service.channel.
        Channel`: the narrow transport boundary (one ``decrypt_share``
        method) between the client and a device.  The default deployment
        wiring serializes every request/reply through ``repro.core.wire`` so
        no live HSM objects are ever shared with client code.

        ``channels`` carries :class:`ShareRequest` values, so each channel
        it hands out must attach the inclusion proof and the share
        ciphertext on the way to its device
        (``service.channel.proving_channels``).

        ``provider`` is a :class:`repro.service.channel.ProviderChannel` —
        the same boundary for the provider leg (backup storage, attempt
        logging, fetching escrowed replies); deployment wiring passes the
        wire channel so this leg, too, crosses bytes only."""
        self.username = username
        self.params = params
        self.provider = provider
        self._channels = channels
        self.mpk = list(mpk)
        self.lhe = LocationHidingEncryption(
            num_hsms=params.num_hsms,
            cluster_size=params.cluster_size,
            threshold=params.threshold,
        )
        self.meter = OpMeter()
        self._last_salt: Optional[bytes] = None
        self._master_key: Optional[bytes] = None
        self._master_backup_index: Optional[int] = None

    # -- key material -----------------------------------------------------------
    def refresh_mpk(self, mpk: Sequence) -> None:
        """Install rotated HSM public keys (the paper's ~2 MB/day download)."""
        self.mpk = list(mpk)

    def _config_epoch(self) -> int:
        return max((info.key_epoch for info in self.mpk), default=0)

    # -- backup (step Ê of Figure 3) ----------------------------------------------
    def backup(
        self,
        message: bytes,
        pin: str,
        reuse_salt: bool = False,
        username: Optional[str] = None,
    ) -> int:
        """Encrypt ``message`` locally and upload; returns the backup index.

        ``reuse_salt=True`` reuses the previous salt so the backup series
        shares one hidden cluster (§8 "multiple recovery ciphertexts").
        """
        self.params.validate_pin(pin)
        username = username if username is not None else self.username
        salt = self._last_salt if reuse_salt else None
        with self.meter.attached():
            ciphertext = self.lhe.encrypt(
                self.mpk,
                pin,
                message,
                username=username,
                salt=salt,
                config_epoch=self._config_epoch(),
            )
        self._last_salt = ciphertext.salt
        return self.provider.upload_backup(username, ciphertext)

    # -- recovery (steps Ë..Ð of Figure 3) --------------------------------------------
    def recover(self, pin: str, backup_index: int = -1) -> bytes:
        """Full recovery of this user's backup at ``backup_index``."""
        session = self.begin_recovery(pin, backup_index)
        self.request_shares(session)
        return self.finish_recovery(session)

    def begin_recovery(
        self,
        pin: str,
        backup_index: int = -1,
        backup_recovery_key: bool = True,
        username: Optional[str] = None,
    ) -> RecoverySession:
        """Steps Ë-Î: fetch the ciphertext's header, log the attempt and wait
        for the epoch that commits it (the proof and the share ciphertexts
        stay with the provider)."""
        self.params.validate_pin(pin)
        username = username if username is not None else self.username
        header = recovery_header(self.provider.fetch_backup(username, backup_index))
        attempt = self.provider.next_attempt_number(username)
        if attempt >= self.params.max_attempts_per_user:
            raise RecoveryError(
                f"user {username!r} has exhausted the {self.params.max_attempts_per_user}"
                " allowed recovery attempts"
            )

        with self.meter.attached():
            cluster = tuple(self.lhe.select(header.salt, pin))
            context = self.lhe.context_for(username, header.salt, self.mpk, pin)
            response_keypair = P256.keygen()

        # §8 failure handling: SafetyPin-protect the per-recovery secret key
        # *before* the first HSM is contacted.
        recovery_key_username = None
        if backup_recovery_key:
            recovery_key_username = f"{username}{_RECOVERY_KEY_SUFFIX}{attempt}"
            with self.meter.attached():
                nested_ct = self.lhe.encrypt(
                    self.mpk,
                    pin,
                    response_keypair.secret.to_bytes(32, "big"),
                    username=recovery_key_username,
                    config_epoch=self._config_epoch(),
                )
            self.provider.upload_backup(recovery_key_username, nested_ct)

        with self.meter.attached():
            commitment, opening = commit_recovery(
                username, cluster, header.ciphertext_hash, response_keypair.public
            )
        self.provider.log_and_prove(username, attempt, commitment)
        return RecoverySession(
            username=username,
            attempt=attempt,
            header=header,
            cluster=cluster,
            context=context,
            opening=opening,
            response_keypair=response_keypair,
            recovery_key_username=recovery_key_username,
        )

    def request_shares(self, session: RecoverySession) -> int:
        """Step Ï: ask each distinct cluster HSM to decrypt-and-puncture.

        The cluster is a list in [N]^n (drawn with replacement) and all of a
        user's shares carry one puncture tag, so once a device's key tree
        has *answered* for the tag — a reply came back (it punctured every
        slot before replying) or it said ``PuncturedKeyError`` (the slots
        were gone already) — a later position naming the same device can
        only be told ``PuncturedKeyError``, and is not sent.  A refusal
        (a proof that stayed stale after the relay's one re-proof
        included), an unavailable device or an attempt the log does not
        hold is not an answer: nothing was punctured, and the other
        ciphertext addressed to that device may still open.

        Replies come back encrypted under the per-recovery key, and the
        provider's relay has escrowed each one on its way here, so a
        replacement device can finish if this one dies; the client only
        holds them.  Returns the number of shares obtained.
        """
        obtained = 0
        answered = session.answered_hsms
        try:
            for position, hsm_index in enumerate(session.cluster):
                if hsm_index in answered:
                    continue
                try:
                    reply = self._channels(hsm_index).decrypt_share(
                        self._share_request(session, position)
                    )
                except PuncturedKeyError:
                    answered.add(hsm_index)
                    continue
                except (HsmUnavailableError, HsmRefusedError):
                    # Fail-stopped or policy-refusing HSM, or a proof that
                    # stayed stale: count it against the threshold, like the
                    # paper's ⊥ shares.
                    continue
                answered.add(hsm_index)
                session.encrypted_replies.append(reply.to_bytes())
                obtained += 1
        finally:
            # Tell the provider this attempt's share phase is over, so the
            # batched service can schedule the next epoch (liveness hint).
            self.provider.share_phase_done(session.username, session.attempt)
        return obtained

    def _share_request(self, session: RecoverySession, position: int) -> ShareRequest:
        return ShareRequest(
            attempt=session.attempt,
            opening=session.opening,
            position=position,
            context=session.context,
        )

    def finish_recovery(self, session: RecoverySession) -> bytes:
        """Open the session's replies until the backup opens.

        ``Reconstruct`` needs any t shares and each reply costs a
        variable-base multiply to open, so replies are decrypted in order
        only as :meth:`LocationHidingEncryption.reconstruct` draws them:
        ``threshold`` of them when the payload's AE tag accepts the key they
        interpolate to, all of them (and the robust subset search) when a
        corrupt or lying reply made it reject.  Raises
        :class:`RecoveryError` when fewer than ``threshold`` replies open.
        """
        message = self._open_backup(
            session.header,
            session.context,
            session.encrypted_replies,
            session.response_keypair.secret,
            session.username,
        )
        # After recovery the old salt must not be reused (§8).
        self._last_salt = None
        return message

    def _open_backup(
        self,
        header: RecoveryHeader,
        context: bytes,
        encrypted_replies: Sequence[bytes],
        secret: int,
        username: str,
    ) -> bytes:
        """The finish :meth:`finish_recovery` and :meth:`resume_recovery`
        share: hand ``reconstruct`` the replies encrypted to ``secret`` as a
        lazy iterable, so each is decrypted only when it is drawn."""
        with self.meter.attached():
            shares = self._decrypt_replies(encrypted_replies, secret, username)
            try:
                return self.lhe.reconstruct(header, shares, context)
            except LheError as exc:
                raise RecoveryError(
                    f"{exc} (wrong PIN, or too many HSMs unavailable)"
                ) from exc

    @staticmethod
    def _decrypt_replies(
        encrypted_replies: Sequence[bytes], secret: int, username: str
    ) -> Iterator[Share]:
        """Yield the share inside each reply that opens, one decryption per
        share drawn (the caller holds the meter)."""
        context = b"recovery-reply" + username.encode("utf-8")
        for blob in encrypted_replies:
            # A reply corrupted in transit or escrow, or whose authentic
            # plaintext is not a share, counts as a ⊥ share (like a refusing
            # HSM) rather than aborting the whole recovery — the remaining
            # shares may still reach the threshold.
            try:
                reply = ElGamalCiphertext.from_bytes(blob)
                share = SHARE.decode(HashedElGamal.decrypt(secret, reply, context=context))
            except (AuthenticationError, ValueError, WireFormatError):
                continue
            yield share

    # -- §8: resuming after device failure -----------------------------------------------
    def resume_recovery(
        self,
        pin: str,
        attempt: int,
        username: Optional[str] = None,
        backup_index: int = -1,
    ) -> bytes:
        """Finish a recovery started by a device that has since died.

        The replacement device recovers the per-recovery secret key through
        SafetyPin (a nested, fully-logged recovery), then decrypts the
        escrowed HSM replies against the backup at ``backup_index`` — the
        one the interrupted attempt was recovering, as :meth:`recover`
        names it.  Nesting recurses naturally: if *this* device also dies,
        the next one resumes the nested recovery the same way.
        """
        username = username if username is not None else self.username
        replies = self.provider.fetch_replies(username, attempt)
        if not replies:
            raise RecoveryError(f"no escrowed replies for {username!r} attempt {attempt}")
        rk_username = f"{username}{_RECOVERY_KEY_SUFFIX}{attempt}"
        session = self.begin_recovery(
            pin, backup_index=-1, backup_recovery_key=True, username=rk_username
        )
        self.request_shares(session)
        secret_bytes = self.finish_recovery(session)
        secret = int.from_bytes(secret_bytes, "big")

        header = recovery_header(self.provider.fetch_backup(username, backup_index))
        with self.meter.attached():
            context = self.lhe.context_for(username, header.salt, self.mpk, pin)
        return self._open_backup(header, context, replies, secret, username)

    # -- §8: incremental backups ------------------------------------------------------------
    def enable_incremental_backups(self, pin: str) -> None:
        """SafetyPin-protect a long-lived master key kept on the device."""
        self._master_key = secrets.token_bytes(16)
        self._master_backup_index = self.backup(self._master_key, pin)

    def incremental_backup(self, data: bytes) -> None:
        if self._master_key is None:
            raise RecoveryError("incremental backups not enabled on this device")
        with self.meter.attached():
            blob = ae_encrypt(self._master_key, data, aad=self.username.encode("utf-8"))
        self.provider.upload_incremental(self.username, blob)

    def recover_incrementals(self, pin: str) -> List[bytes]:
        """Recover the master key once, then decrypt every increment."""
        if self._master_backup_index is None:
            raise RecoveryError("no master-key backup recorded")
        master_key = self.recover(pin, backup_index=self._master_backup_index)
        with self.meter.attached():
            return [
                ae_decrypt(master_key, blob, aad=self.username.encode("utf-8"))
                for blob in self.provider.fetch_incrementals(self.username)
            ]

    # -- monitoring (§6.3) ---------------------------------------------------------------------
    def audit_my_recovery_attempts(self) -> List[Tuple[bytes, bytes]]:
        """This account's recovery attempts as the provider lists them, unchecked: no proof."""
        return self.provider.recovery_attempts_for(self.username)
