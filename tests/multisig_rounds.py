"""Certificates made the two ways a test needs them, and the check before
aggregate keys.

- :func:`run_rounds` drives the three signing rounds over real devices, as
  ``DistributedLog.certify_round`` does for its quorum: every device audits
  and commits, then reveals, then signs.
- :func:`certificate` is what whoever holds every signer's secret can make
  alone: the same ``(R, s)``, with no device involved (an attacker holding
  stolen keys, or a bench needing a valid certificate).
- :func:`per_key_check` is the certificate check written out over the
  signers' keys: ``X_S`` summed for the challenge, then one ``multi_mult``
  with a ``−c·Xᵢ`` term for every key.  It shares neither the aggregate key
  nor ``P256.schnorr_verify`` with the check it is an oracle for.
"""

import random

from repro.crypto.ec import N, P256, multi_mult, point_sum
from repro.log.distributed import AggregateKey, SchnorrMultiSig


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
    key = SchnorrMultiSig.aggregate_key(range(len(keypairs)), [kp.public for kp in keypairs])
    challenge = SchnorrMultiSig.challenge(key, point_sum(nonces), message)
    shares = [
        SchnorrMultiSig.sign(kp.secret, k, challenge) for kp, (k, _) in zip(keypairs, sessions)
    ]
    return SchnorrMultiSig.aggregate(nonces, shares)


def per_key_check(publics, message, aggregate) -> bool:
    """``SchnorrMultiSig.verify_aggregate`` written out over a list of
    signer keys: the challenge over their plain sum, then ``s·G − c·X₁ − …
    − c·Xₖ == R`` as one ``multi_mult`` — on each key's comb if it has
    one, on a ladder if not.  An identity key, or an ``s`` outside
    ``[1, n)``, is a rejection."""
    if not (publics and SchnorrMultiSig._well_formed(aggregate)):
        return False
    nonce, s = aggregate
    if not (type(s) is int and 1 <= s < N) or any(public.is_infinity for public in publics):
        return False
    challenge = SchnorrMultiSig.challenge(AggregateKey((), point_sum(publics)), nonce, message)
    return multi_mult([(s, P256.generator)] + [(N - challenge, X) for X in publics]) == nonce
