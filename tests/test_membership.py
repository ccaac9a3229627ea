"""HSM membership management via the log (§6 extension)."""

import pytest

from repro.log.membership import (
    ADD,
    REMOVE,
    ROTATE,
    MembershipEvent,
    MembershipVerifier,
    MembershipViolation,
)


class TestEventEncoding:
    def test_roundtrip(self):
        event = MembershipEvent(3, ROTATE, 7, 2, b"\xab" * 32)
        parsed = MembershipEvent.parse(event.identifier(), event.value())
        assert parsed == event

    def test_identifier_namespace(self):
        event = MembershipEvent(0, ADD, 0, 0, b"")
        assert event.identifier().startswith(b"mbr|")
        with pytest.raises(ValueError):
            MembershipEvent.parse(b"rec|alice|0", event.value())


class TestFolding:
    def _events(self):
        return [
            MembershipEvent(0, ADD, 0, 0, b"k0"),
            MembershipEvent(1, ADD, 1, 0, b"k1"),
            MembershipEvent(2, ROTATE, 0, 1, b"k0v2"),
            MembershipEvent(3, REMOVE, 1, 0, b""),
        ]

    def test_current_membership(self):
        state = MembershipVerifier.current_membership(self._events())
        assert set(state) == {0}
        assert state[0].key_commitment == b"k0v2"
        assert state[0].key_epoch == 1

    def test_replacement_fraction_ignores_bootstrap(self):
        events = self._events()
        assert MembershipVerifier.replacement_fraction(events, 2, window=10) == 1.0
        bootstrap_only = events[:2]
        assert MembershipVerifier.replacement_fraction(bootstrap_only, 2, window=10) == 0.0


class TestDeploymentIntegration:
    def test_initial_fleet_logged_and_verifiable(self, fresh_deployment):
        fresh_deployment.verify_published_keys()  # must not raise
        entries = list(fresh_deployment.provider.log.items())
        events = MembershipVerifier.events_from_log(entries)
        assert len(events) == len(fresh_deployment.fleet)
        assert all(e.action == ADD for e in events)

    def test_rotation_is_logged_and_still_verifies(self, fresh_deployment):
        hsm = fresh_deployment.fleet[0]
        info = hsm.rotate_keys()
        fresh_deployment.membership.record_rotation(info)
        fresh_deployment.run_log_update()
        fresh_deployment.verify_published_keys()

    def test_unlogged_key_substitution_detected(self, fresh_deployment):
        """The §2 attack: the provider swaps an HSM's advertised key for its
        own without logging it.  The client's membership check must fire."""
        hsm = fresh_deployment.fleet[1]
        hsm.rotate_keys()  # not logged!
        with pytest.raises(MembershipViolation):
            fresh_deployment.verify_published_keys()

    def test_advertising_unknown_hsm_detected(self, fresh_deployment):
        import dataclasses

        mpk = fresh_deployment.fleet.master_public_key()
        ghost = dataclasses.replace(mpk[0], index=999)
        with pytest.raises(MembershipViolation):
            MembershipVerifier.verify_mpk(
                list(mpk) + [ghost], list(fresh_deployment.provider.log.items())
            )

    def test_bulk_replacement_detector(self, fresh_deployment):
        """The paper's 'replace the whole fleet in a day' alarm."""
        dep = fresh_deployment
        for hsm in list(dep.fleet)[:8]:
            info = hsm.rotate_keys()
            dep.membership.record_rotation(info)
        dep.run_log_update()
        events = MembershipVerifier.events_from_log(
            list(dep.provider.log.items())
        )
        fraction = MembershipVerifier.replacement_fraction(
            events, len(dep.fleet), window=8
        )
        assert fraction == 8 / len(dep.fleet)
        assert fraction >= 0.5  # alarm threshold a client might use
