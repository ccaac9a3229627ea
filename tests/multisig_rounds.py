"""Certificates made the two ways a test needs them.

- :func:`run_rounds` drives the three signing rounds over real devices, as
  ``DistributedLog.certify_round`` does for its quorum: every device audits
  and commits, then reveals, then signs.
- :func:`certificate` is what whoever holds every signer's secret can make
  alone: the same ``(R, s)``, with no device involved (an attacker holding
  stolen keys, or a bench needing a valid certificate).
"""

import random

from repro.crypto.ec import point_sum
from repro.log.distributed import SchnorrMultiSig


def run_rounds(devices, round_):
    """``(aggregate, signer_ids)`` for ``round_`` signed by ``devices``."""
    commitments = {hsm.index: hsm.audit_log_update(round_) for hsm in devices}
    nonces = {hsm.index: hsm.reveal_nonce(round_, commitments) for hsm in devices}
    shares = [hsm.sign_transition(round_, nonces) for hsm in devices]
    return SchnorrMultiSig.aggregate(list(nonces.values()), shares), tuple(commitments)


def certificate(keypairs, message, seed=0):
    """The ``(R, s)`` certificate of ``message`` under ``keypairs``."""
    rng = random.Random(seed)
    sessions = [SchnorrMultiSig.nonce(rng) for _ in keypairs]
    nonces = [point for _, point in sessions]
    challenge = SchnorrMultiSig.challenge(
        [kp.public for kp in keypairs], point_sum(nonces), message
    )
    shares = [
        SchnorrMultiSig.sign(kp.secret, k, challenge) for kp, (k, _) in zip(keypairs, sessions)
    ]
    return SchnorrMultiSig.aggregate(nonces, shares)
