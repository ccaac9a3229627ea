"""HSM group membership via the log (paper §6, third use).

"Whenever the service provider wants to add or remove an HSM from the data
center, the service provider operator could record this information in the
log before the other HSMs will accept the change.  All SafetyPin clients
can thus verify that they are communicating with the same set of HSMs.  In
addition, clients can also detect suspicious changes in the set of HSMs"
— described in the paper but not implemented there; implemented here.

Membership events (add / rotate / remove, with the HSM's key commitment)
are ordinary log entries, so they inherit the log's append-only guarantee:
once the fleet certifies an epoch containing a membership event, the
provider can never silently swap the advertised key for that slot.  Clients
verify every entry of a downloaded mpk against the latest logged event and
can flag bulk replacement (e.g. the provider replacing most of the fleet in
a day — the paper's example of a suspicious change).

Thread safety: :class:`MembershipRegistry` is provisioning/maintenance
machinery driven from one thread at a time (deployment creation, key
rotation); it is not locked.  :class:`MembershipVerifier` is all static
pure functions over entry snapshots and is safe anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

_PREFIX = b"mbr|"

ADD = "add"
ROTATE = "rotate"
REMOVE = "remove"


@dataclass(frozen=True)
class MembershipEvent:
    """One logged membership change."""

    sequence: int
    action: str  # add / rotate / remove
    hsm_index: int
    key_epoch: int
    key_commitment: bytes  # the HSM's BFE public-key Merkle root (or b"")

    def identifier(self) -> bytes:
        """The event's log identifier (write-once, sequence-numbered)."""
        return _PREFIX + str(self.sequence).encode("ascii")

    def value(self) -> bytes:
        """The event's log value: action|index|epoch|key-commitment."""
        return b"|".join(
            [
                self.action.encode("ascii"),
                str(self.hsm_index).encode("ascii"),
                str(self.key_epoch).encode("ascii"),
                self.key_commitment.hex().encode("ascii"),
            ]
        )

    @staticmethod
    def parse(identifier: bytes, value: bytes) -> "MembershipEvent":
        """Inverse of ``identifier()``/``value()``; ValueError if malformed."""
        if not identifier.startswith(_PREFIX):
            raise ValueError("not a membership identifier")
        sequence = int(identifier[len(_PREFIX):])
        action, index, epoch, commitment = value.split(b"|")
        return MembershipEvent(
            sequence=sequence,
            action=action.decode("ascii"),
            hsm_index=int(index),
            key_epoch=int(epoch),
            key_commitment=bytes.fromhex(commitment.decode("ascii")),
        )


class MembershipRegistry:
    """Provider-side recorder of membership events.

    The registry only *writes* events into the distributed log; all
    verification is client-side (:class:`MembershipVerifier`), against log
    state the fleet has certified.
    """

    def __init__(self, log) -> None:
        self._log = log
        self._sequence = 0

    def resume_from(self, entries: Sequence[Tuple[bytes, bytes]]) -> None:
        """Continue numbering past the events already in a restored log.

        A restarted provider (``Deployment.restore``) must not reuse a
        sequence number: identifiers are write-once, so a collision would
        make every future membership event unrecordable.
        """
        events = MembershipVerifier.events_from_log(list(entries))
        if events:
            self._sequence = events[-1].sequence + 1

    def record(self, action: str, hsm_index: int, key_epoch: int, key_commitment: bytes) -> MembershipEvent:
        """Queue one membership event as a pending log insertion."""
        event = MembershipEvent(
            sequence=self._sequence,
            action=action,
            hsm_index=hsm_index,
            key_epoch=key_epoch,
            key_commitment=key_commitment,
        )
        self._log.insert(event.identifier(), event.value())
        self._sequence += 1
        return event

    def record_fleet(self, public_infos: Sequence) -> None:
        """Log the initial fleet (run once at provisioning)."""
        for info in public_infos:
            self.record(ADD, info.index, info.key_epoch, info.bfe_public.commitment)

    def record_rotation(self, info) -> None:
        """Log an HSM's key rotation (its new public-key commitment)."""
        self.record(ROTATE, info.index, info.key_epoch, info.bfe_public.commitment)


class MembershipViolation(Exception):
    """A downloaded mpk disagrees with the logged membership history."""


class MembershipVerifier:
    """Client-side verification of downloaded key material."""

    @staticmethod
    def events_from_log(entries: Sequence[Tuple[bytes, bytes]]) -> List[MembershipEvent]:
        """Extract and order the membership events among log entries."""
        events = []
        for identifier, value in entries:
            if identifier.startswith(_PREFIX):
                events.append(MembershipEvent.parse(identifier, value))
        events.sort(key=lambda e: e.sequence)
        return events

    @staticmethod
    def current_membership(events: Sequence[MembershipEvent]) -> Dict[int, MembershipEvent]:
        """Fold events into the latest state per HSM slot."""
        state: Dict[int, MembershipEvent] = {}
        for event in events:
            if event.action == REMOVE:
                state.pop(event.hsm_index, None)
            else:
                state[event.hsm_index] = event
        return state

    @classmethod
    def verify_mpk(cls, mpk: Sequence, entries: Sequence[Tuple[bytes, bytes]]) -> None:
        """Every advertised HSM key must match its latest logged event.

        Raises :class:`MembershipViolation` on any mismatch — a provider
        serving a key it never logged (the targeted-substitution attack the
        paper's §2 warns about) is caught here.
        """
        state = cls.current_membership(cls.events_from_log(entries))
        for info in mpk:
            event = state.get(info.index)
            if event is None:
                raise MembershipViolation(
                    f"HSM {info.index} is advertised but was never logged"
                )
            if event.key_commitment != info.bfe_public.commitment:
                raise MembershipViolation(
                    f"HSM {info.index}: advertised key does not match the "
                    f"logged commitment (epoch {event.key_epoch})"
                )
            if event.key_epoch != info.key_epoch:
                raise MembershipViolation(
                    f"HSM {info.index}: epoch mismatch (log says "
                    f"{event.key_epoch}, mpk says {info.key_epoch})"
                )

    @classmethod
    def replacement_fraction(
        cls,
        events: Sequence[MembershipEvent],
        fleet_size: int,
        window: int,
    ) -> float:
        """Fraction of the fleet touched by the last ``window`` events —
        the paper's 'provider replaces all HSMs over the course of a day'
        detector.  Initial ADD events (bootstrapping) are not counted."""
        non_bootstrap = [e for e in events if e.action != ADD or e.key_epoch > 0]
        recent = non_bootstrap[-window:] if window else []
        touched = {e.hsm_index for e in recent}
        return len(touched) / max(1, fleet_size)
