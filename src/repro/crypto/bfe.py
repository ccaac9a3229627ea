"""Bloom-filter (puncturable) encryption — paper §7.1, pairing-free variant.

A puncturable public-key encryption scheme: after an HSM decrypts a
ciphertext it *punctures* its secret key so that ciphertext can never be
decrypted again, giving SafetyPin forward security.

The paper uses Bloom-filter encryption (Derler et al. 2018) but replaces the
pairing-based IBE with a plain-DH construction ("we use a variant ... that
avoids the need for pairings but increases the size of the HSMs' public
keys", §9).  We implement that variant concretely:

- The secret key is an array of ``m`` independent ElGamal secret scalars,
  one per Bloom slot.  At the paper's parameters (2^20 punctures) this array
  is tens of megabytes — far beyond HSM storage — so it lives in a
  :class:`~repro.storage.securedel.SecureDeletionTree` outsourced to the
  untrusted provider, with only the 16-byte root key inside the HSM.
- The public key is the array of ``m`` slot public keys, committed by a
  Merkle root so a client can verify any slot key it fetches against a
  constant-size, attestable value.
- Encryption: a fresh DH ephemeral ``g^r`` is hashed (with context) into a
  tag; the tag selects ``k`` slots; a random payload key is AE-wrapped under
  each slot's DH shared secret; the payload is AE-encrypted once.
- Puncture: securely delete the ``k`` slot secret keys for the ciphertext's
  tag.  Decryption of *that* ciphertext becomes impossible; an unrelated
  ciphertext fails only if all its own slots are gone (probability
  ``BloomParams.failure_probability``).
- Decrypt-and-puncture (:meth:`BloomFilterEncryption.decrypt_and_puncture`)
  is what an HSM actually runs: one authenticated walk over the union of
  the tag's ``k`` key-tree paths, decryption from the first surviving
  leaf, the caller's ``accept`` check on the plaintext, then one re-key
  that deletes every live slot and moves the root key once.  Stand-alone
  ``decrypt``, ``puncture`` and ``puncture_tag`` ride the same walk (one
  index at a time for ``decrypt``, which stops at the first surviving
  slot; one batch for the punctures).

Hot-path note: encryption's k slot-key multiplies ``pkᵢ^r`` share their
scalar, so they go through ``repro.crypto.ec.mult_each`` — one reading of
``r``, one batch build of the 5-tooth signed combs the slot keys still
lack, one batch inversion for the k results — and ``g^r`` rides the
generator's comb.  A slot key's first ciphertext builds its comb (208
doublings), and every ciphertext to it — a ``reuse_salt`` backup series
hashes every backup to the same k slots — costs 51 doublings and 52
additions a key.  The
k wraps and the payload are one ``repro.crypto.gcm.seal_each``: their AES
blocks are the lanes of one byte-sliced call.  The meter still sees k + 1
``ec_mult``, k ``elgamal_enc`` and the k + 1 seals' ``aes_block``.  Decryption's
``(g^r)^sk`` multiplies a fresh ephemeral by a slot secret read from the
key tree: the only table built is of the public ephemeral.  Key generation
— every rotation — is m ``g^x`` over fresh scalars: one call of
``repro.crypto.ec.generator_mult_each``, which walks the generator's
signed comb (six columns of five sub-tables, 26 entries a scalar) for all
slots in lock step on shared-inversion affine arithmetic; the meter still
sees m ``ec_mult``.

What the meter sees is the paper's device, not this host: Decrypt walks one
slot's path at a time until one survives, Puncture is a second call that
hashes the tag to its slots again and deletes them one by one (Appendix C).
The key tree bills those single-slot walks (see ``repro.storage.securedel``)
and ``decrypt_and_puncture`` derives the slots a second time for the same
reason, so the fused call reports exactly what ``decrypt`` followed by
``puncture`` reports.
"""

from __future__ import annotations

import secrets
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

from repro import metering
from repro.crypto.bloom import BloomParams
from repro.crypto.ec import ECPoint, P256, generator_mult_each, mult_each
from repro.crypto.gcm import NONCE_LEN, AuthenticationError, ae_cost, ae_decrypt, seal_each
from repro.crypto.hashing import kdf, sha256
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.storage.blockstore import BlockStore
from repro.storage.securedel import (
    DeletedBlockError,
    SecureDeletionTree,
    setup_counts,
    tree_height,
    walk_counts,
)

_SCALAR_LEN = 32
_PAYLOAD_KEY_LEN = 16

#: §9.1's rotation point: a key rotates once this share of its slot keys
#: is deleted.
ROTATION_FRACTION = 0.5


class PuncturedKeyError(Exception):
    """Every Bloom slot of the ciphertext's tag has been deleted."""


@dataclass(frozen=True)
class BfePublicKey:
    """The m slot public keys plus their Merkle commitment."""

    params: BloomParams
    slot_pubkeys: Tuple[ECPoint, ...]
    commitment: bytes

    @staticmethod
    def from_slots(params: BloomParams, slot_pubkeys: List[ECPoint]) -> "BfePublicKey":
        tree = MerkleTree([p.to_bytes() for p in slot_pubkeys])
        return BfePublicKey(
            params=params, slot_pubkeys=tuple(slot_pubkeys), commitment=tree.root
        )

    def slot_proof(self, index: int) -> MerkleProof:
        """Merkle proof that ``slot_pubkeys[index]`` is committed.

        In a deployment clients fetch only the slot keys they need plus these
        proofs, keeping per-HSM storage at kilobytes (the paper's 9.02 KB
        figure for a 40-HSM cluster)."""
        return self._tree.prove(index)

    @cached_property
    def _tree(self) -> MerkleTree:
        """The commitment's tree, built on the first proof asked for and
        kept with the key (a device that serves no proofs never holds it).
        Not a field: equality and hashing do not see it."""
        return MerkleTree([p.to_bytes() for p in self.slot_pubkeys])

    def verify_slot(self, index: int, pubkey: ECPoint, proof: MerkleProof) -> bool:
        return proof.index == index and MerkleTree.verify(
            self.commitment, pubkey.to_bytes(), proof
        )

    def size_bytes(self) -> int:
        return 33 * len(self.slot_pubkeys)


@dataclass(frozen=True)
class BfeCiphertext:
    """``(tag, g^r, [wrapped payload key per slot], payload AE ciphertext)``.

    The *tag* names the Bloom slots this ciphertext lives in; puncturing the
    tag kills every ciphertext that used it.  By default the tag is derived
    from the DH ephemeral (one puncture = one ciphertext, the classic BFE
    behaviour); SafetyPin instead derives it from (username, salt) so that
    recovering any backup in a salt-sharing series revokes the whole series
    (§8 "multiple recovery ciphertexts").  Tag integrity is enforced by
    using the tag as AE associated data on the wrapped keys: a swapped tag
    selects the wrong slots and fails authentication.
    """

    tag: bytes
    ephemeral: ECPoint
    wrapped_keys: Tuple[bytes, ...]
    payload: bytes

    def __len__(self) -> int:
        return len(self.tag) + 33 + sum(len(w) for w in self.wrapped_keys) + len(self.payload)


class BfeSecretKey:
    """HSM-side handle: the outsourced slot-key tree plus puncture counters.

    Only :attr:`tree`'s 16-byte root key is HSM-resident; the provider holds
    the encrypted slot array.
    """

    def __init__(self, params: BloomParams, tree: SecureDeletionTree) -> None:
        self.params = params
        self.tree = tree
        self.punctures_done = 0
        self.slots_deleted = 0

    def fraction_deleted(self) -> float:
        return self.slots_deleted / self.params.num_slots

    def needs_rotation(self) -> bool:
        """The paper rotates keys once half the secret-key elements are gone."""
        return self.fraction_deleted() >= ROTATION_FRACTION


class BloomFilterEncryption:
    """Stateless scheme object (instances carry no keys)."""

    @staticmethod
    def keygen(
        params: BloomParams, store: BlockStore, rng=None
    ) -> Tuple[BfePublicKey, BfeSecretKey]:
        """Generate slot keypairs and outsource the secret array to ``store``."""
        secrets_list = [P256.random_scalar(rng) for _ in range(params.num_slots)]
        pubkeys = generator_mult_each(secrets_list)
        blocks = [s.to_bytes(_SCALAR_LEN, "big") for s in secrets_list]
        tree = SecureDeletionTree.setup(store, blocks)
        return (
            BfePublicKey.from_slots(params, pubkeys),
            BfeSecretKey(params, tree),
        )

    @staticmethod
    def keygen_counts(params: BloomParams) -> Counter:
        """What :meth:`keygen` — one key rotation — is billed: a ``g^x`` per
        slot and the key tree's set-up.  The public key's Merkle commitment
        (about 3 ``sha256_block`` per slot: 0.1 h of a SoloKey's 77 at the
        paper's m) belongs to ``repro.crypto.merkle`` and is left out."""
        counts = setup_counts(params.num_slots, _SCALAR_LEN)
        counts["ec_mult"] = params.num_slots
        return counts

    @staticmethod
    def decrypt_and_puncture_counts(params: BloomParams, plaintext_len: int) -> Counter:
        """What :meth:`decrypt_and_puncture` of a ``plaintext_len``-byte
        plaintext is billed on a key where the tag's k slots are live: one
        read walk and k delete walks of the key tree, the first slot's leaf
        fetched and opened, one ElGamal decryption (Table 7's row is the
        whole decryption, so the ``ec_mult`` inside it is not billed again),
        the wrapped payload key and the payload opened.  Hashing the tag to
        its slots and the KDF (8 to 12 ``sha256_block``, under 1 ms on a
        SoloKey) follow the tag's length, not the tree, and are left out."""
        k = params.num_hashes
        counts = walk_counts(tree_height(params.num_slots), reads=1, deletes=k, live=k)
        opened = (_SCALAR_LEN, _PAYLOAD_KEY_LEN, plaintext_len)  # leaf, wrapped key, payload
        counts["aes_block"] += sum(ae_cost(length)[0] for length in opened)
        counts["io_bytes"] += ae_cost(_SCALAR_LEN)[1]  # only the leaf is fetched
        counts["elgamal_dec"] = 1
        return counts

    # -- encryption (client side) ---------------------------------------------
    @staticmethod
    def encrypt(
        public: BfePublicKey,
        plaintext: bytes,
        context: bytes = b"",
        tag: Optional[bytes] = None,
    ) -> BfeCiphertext:
        r = P256.random_scalar()
        ephemeral = P256.generator * r
        if tag is None:
            tag = sha256(b"bfe-tag", ephemeral.to_bytes(), context)
        slots = public.params.slots_for_tag(tag)

        payload_key = secrets.token_bytes(_PAYLOAD_KEY_LEN)
        messages = []
        shared_points = mult_each([public.slot_pubkeys[slot] for slot in slots], r)
        for slot, shared in zip(slots, shared_points):
            wrap_key = kdf("bfe-slot-wrap", shared.to_bytes(), tag, slot.to_bytes(4, "big"))
            messages.append((wrap_key[:16], secrets.token_bytes(NONCE_LEN), payload_key, tag))
        messages.append((payload_key, secrets.token_bytes(NONCE_LEN), plaintext, context))
        # The k wraps and the payload, nonces drawn in their sequential order.
        *wrapped, payload = seal_each(messages)
        metering.count("elgamal_enc", len(slots))
        return BfeCiphertext(
            tag=tag, ephemeral=ephemeral, wrapped_keys=tuple(wrapped), payload=payload
        )

    # -- decryption (HSM side) ---------------------------------------------------
    @staticmethod
    def _decrypt_from(
        read_slot: Callable[[int], bytes],
        slots: List[int],
        ciphertext: BfeCiphertext,
        context: bytes,
    ) -> bytes:
        """Decrypt using the first slot whose key ``read_slot`` still yields.

        An identity ephemeral is refused before any slot is read: every
        slot's shared point would be ``∞``, so the wraps would open under
        keys anyone can compute.
        """
        if ciphertext.ephemeral.is_infinity:
            raise AuthenticationError("ephemeral is the identity point")
        tag = ciphertext.tag
        last_error: Optional[Exception] = None
        for position, slot in enumerate(slots):
            try:
                scalar_bytes = read_slot(slot)
            except DeletedBlockError as exc:
                last_error = exc
                continue
            scalar = int.from_bytes(scalar_bytes, "big")
            shared = ciphertext.ephemeral * scalar
            metering.count("elgamal_dec")
            wrap_key = kdf("bfe-slot-wrap", shared.to_bytes(), tag, slot.to_bytes(4, "big"))
            try:
                payload_key = ae_decrypt(wrap_key[:16], ciphertext.wrapped_keys[position], aad=tag)
            except AuthenticationError as exc:
                last_error = exc
                continue
            # The payload's associated data binds the LHE context; a wrong
            # context (e.g. a wrong-PIN cluster digest) fails authentication
            # here even when the slot key itself was right.
            return ae_decrypt(payload_key, ciphertext.payload, aad=context)
        raise PuncturedKeyError(
            "no surviving Bloom slot can decrypt this ciphertext"
        ) from last_error

    @staticmethod
    def decrypt(
        secret: BfeSecretKey, ciphertext: BfeCiphertext, context: bytes = b""
    ) -> bytes:
        """Decrypt using the first surviving Bloom slot."""
        slots = secret.params.slots_for_tag(ciphertext.tag)
        return BloomFilterEncryption._decrypt_from(
            secret.tree.read, slots, ciphertext, context
        )

    @staticmethod
    def decrypt_and_puncture(
        secret: BfeSecretKey,
        ciphertext: BfeCiphertext,
        context: bytes = b"",
        accept: Optional[Callable[[bytes], None]] = None,
    ) -> bytes:
        """The HSM's one operation (§7.1): decrypt, then puncture the tag,
        on a single walk of the key tree.

        The tag's k paths are authenticated first, so a tampered block is
        seen before anything is decrypted or written.  ``accept(plaintext)``
        runs between the two halves; if it (or the decryption) raises, the
        key is not punctured, the store is untouched and nothing is
        returned.
        """
        slots = secret.params.slots_for_tag(ciphertext.tag)
        walk = secret.tree.walk(slots)
        plaintext = BloomFilterEncryption._decrypt_from(walk.read, slots, ciphertext, context)
        if accept is not None:
            accept(plaintext)
        # Modeled charge: the paper's Puncture(tag) is a separate call that
        # hashes the tag to its slots again.
        secret.params.slots_for_tag(ciphertext.tag)
        secret.slots_deleted += walk.delete()
        secret.punctures_done += 1
        return plaintext

    # -- puncturing (HSM side) -----------------------------------------------------
    @staticmethod
    def puncture(secret: BfeSecretKey, ciphertext: BfeCiphertext, context: bytes = b"") -> None:
        """Securely delete the ciphertext's slots (idempotent)."""
        BloomFilterEncryption.puncture_tag(secret, ciphertext.tag)

    @staticmethod
    def puncture_tag(secret: BfeSecretKey, tag: bytes) -> None:
        """Delete the tag's k slots in one batched re-key; slots already
        gone are skipped, so puncturing is idempotent."""
        secret.slots_deleted += secret.tree.walk(secret.params.slots_for_tag(tag)).delete()
        secret.punctures_done += 1
