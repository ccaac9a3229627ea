"""The request a device receives, for tests that drive a device or a raw HSM
channel without the provider's relay in front of it.

A client's own channels attach each request's share ciphertext and
inclusion proof on the way (``service.channel.ProvingChannel``); this
builds the same ``DecryptShareRequest`` by hand, with the provider's share
and its current proof or one the test supplies."""

from repro.core.identifiers import attempt_identifier
from repro.hsm.device import DecryptShareRequest


def device_request(provider, client, session, position=0, proof=None):
    """``client``'s request for ``session``'s ``position``, proven against
    ``provider``'s log unless ``proof`` is given."""
    request = client._share_request(session, position)
    if proof is None:
        proof = provider.prove_inclusion(
            attempt_identifier(session.username, session.attempt),
            session.opening.commitment(),
        )
    return DecryptShareRequest(
        attempt=request.attempt,
        opening=request.opening,
        inclusion_proof=proof,
        share_ciphertext=provider.backup_share(
            session.username, session.opening.ciphertext_hash, position
        ),
        context=request.context,
    )
