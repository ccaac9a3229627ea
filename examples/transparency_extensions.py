#!/usr/bin/env python3
"""The paper's transparency extensions, end to end.

Two mechanisms §6.3/§8 describe (but the authors' artifact does not
implement) are exercised here:

1. **Salt protection & safe PIN re-use** — the recovery salt is stored under
   a second, null-PIN layer of location-hiding encryption.  Anyone fetching
   it leaves an indelible log entry and destroys it, so after recovering,
   the user can *prove to herself* whether her PIN was ever exposed to an
   offline attack — and keep it if not.
2. **HSM membership management** — every add/rotate of an HSM key is logged
   before clients will accept it, so a provider substituting hardware (the
   targeted-attack vector of §2) is caught by a client-side check, and bulk
   fleet replacement is visible as an anomaly.

Run:  python examples/transparency_extensions.py
"""

from repro import Deployment, SystemParams
from repro.core.saltprotect import SaltProtectedClient
from repro.log.membership import MembershipVerifier, MembershipViolation


def salt_protection_demo(deployment: Deployment) -> None:
    print("== Salt protection and safe PIN re-use ==")
    user = SaltProtectedClient(deployment.new_client("nadia"))
    user.backup(b"contact list + photos", pin="5912")
    print("backup stored; salt held only under null-PIN LHE")

    recovered = user.recover(pin="5912")
    print(f"recovered: {recovered!r}")

    verdict = user.pin_reuse_verdict(own_fetches_expected=1)
    print(f"safe to re-use PIN? {verdict.safe_to_reuse} — {verdict.reason}")

    print("\nnow the attack case: a snoop fetches another user's salt first")
    victim = SaltProtectedClient(deployment.new_client("omar"))
    victim.backup(b"omar's data", pin="7788")
    snoop = SaltProtectedClient(deployment.new_client("omar"))
    snoop.fetch_salt()  # logged forever, salt destroyed
    verdict = victim.pin_reuse_verdict(own_fetches_expected=0)
    print(f"omar's verdict: safe={verdict.safe_to_reuse} — {verdict.reason}")


def membership_demo(deployment: Deployment) -> None:
    print("\n== HSM membership management ==")
    deployment.verify_published_keys()
    print("initial fleet verified against the logged membership history")

    hsm = deployment.fleet[2]
    info = hsm.rotate_keys()
    deployment.membership.record_rotation(info)
    deployment.run_log_update()
    deployment.verify_published_keys()
    print("logged key rotation for HSM 2: still verifies")

    rogue = deployment.fleet[5]
    rogue.rotate_keys()  # NOT logged
    try:
        deployment.verify_published_keys()
        print("!! silent key substitution went unnoticed")
    except MembershipViolation as exc:
        print(f"silent key substitution caught: {exc}")

    events = MembershipVerifier.events_from_log(
        list(deployment.provider.log.items())
    )
    fraction = MembershipVerifier.replacement_fraction(
        events, len(deployment.fleet), window=4
    )
    print(f"fleet churn over the last 4 events: {fraction:.0%} "
          "(a monitoring client alarms on bulk replacement)")


def main() -> None:
    params = SystemParams.for_testing(
        num_hsms=16, cluster_size=4, pin_length=4, max_punctures=16
    )
    deployment = Deployment.create(params)
    salt_protection_demo(deployment)
    membership_demo(deployment)


if __name__ == "__main__":
    main()
