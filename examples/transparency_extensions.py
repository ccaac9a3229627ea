#!/usr/bin/env python3
"""The paper's transparency extension, end to end.

**HSM membership management** (§6.3/§8 describe it; the authors' artifact
does not implement it): every add/rotate of an HSM key is logged before
clients will accept it, so a provider substituting hardware (the
targeted-attack vector of §2) is caught by a client-side check, and bulk
fleet replacement is visible as an anomaly.

Run:  python examples/transparency_extensions.py
"""

from repro import Deployment, SystemParams
from repro.log.membership import MembershipVerifier, MembershipViolation


def membership_demo(deployment: Deployment) -> None:
    print("== HSM membership management ==")
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
    membership_demo(deployment)


if __name__ == "__main__":
    main()
