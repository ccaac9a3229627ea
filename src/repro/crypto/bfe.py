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
- Encryption (Derler et al.'s BFE-KEM, multi-recipient): one fresh DH
  ephemeral ``g^r`` serves every recipient of the call (SafetyPin's n
  cluster members); with no tag given it is hashed (with context) into
  the tag, and the tag selects ``k`` slots of each recipient's key.  The
  recipient at position ``j`` gets its own random 16-byte key ``K_j``,
  masked once per slot, ``K_j ⊕ kdf(r·pkᵢ, tag, slot, j)``, and its
  payload AE-encrypted once under a KDF of ``K_j``, the tag, the
  ephemeral and its masks.  The payload's tag is the one integrity check:
  a changed ephemeral, tag, position or mask gives an unrelated payload
  key.  Reusing ``r`` across recipients is sound under the same
  assumption as reusing it across one key's slots (Kurosawa, PKC 2002;
  Bellare, Boldyreva and Staddon, PKC 2003).
- Position binding and location hiding: a cluster is drawn with
  replacement, so one device may be named at two positions.  Without the
  position in the mask KDF its two shares would get equal masks, and the
  XOR of their wraps would be ``K_a ⊕ K_b`` at every slot, telling an
  observer the cluster repeats a device.  With it, every (device,
  position) pair's masks are independent random-oracle outputs.  A
  corrupted key tests a ciphertext exactly as it did when every share had
  its own ephemeral: it computes ``sk·R`` once and checks each position's
  masks against it, as it checked each ``R_j`` before.
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

Hot-path note: an encryption's n·k slot-key multiplies ``pkᵢ^r`` share
their scalar, so they go through ``repro.crypto.ec.mult_each`` — one
reading of ``r``, one batch build of the 6-tooth signed combs the slot
keys still lack, one batch inversion for the n·k results — and the one
``g^r`` rides the generator's comb.  A slot key's first ciphertext builds
its comb (215 doublings and 31 additions), and every ciphertext to it — a
``reuse_salt`` backup series hashes every backup to the same k slots —
costs 42 doublings and 43 additions a key.  The masks are XORs with a
KDF output, and the n payloads are one ``repro.crypto.gcm.seal_each``
batch (each key seals exactly one message, so it goes out as
``ciphertext ‖ tag`` under the constant ``ONE_TIME_NONCE``).  The meter
sees 1 + n·k ``ec_mult``, n·k ``elgamal_enc`` and the payload seals'
``aes_block``.  Decryption's
``(g^r)^sk`` multiplies a fresh ephemeral by a slot secret read from the
key tree — at the first live slot only — and the only table built is of
the public ephemeral.  Key generation
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
from typing import Callable, List, Optional, Sequence, Tuple

from repro import metering
from repro.core.codec import BLOB, U16, converted, fixed, seq, tuple_of
from repro.crypto.bloom import BloomParams
from repro.crypto.ec import POINT, ECPoint, P256, generator_mult_each, mult_each
from repro.crypto.gcm import AuthenticationError, ae_cost, open_each, seal_each
from repro.crypto.hashing import kdf, sha256
from repro.crypto.merkle import MerkleTree
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
#: A tag is a SHA-256 digest: of the ephemeral by default, of the
#: (username, salt) series in SafetyPin.
TAG_BYTES = 32
#: A wrap is the 16-byte key ``K`` XORed with its slot's mask, and carries
#: no tag of its own: the payload's tag checks it.
WRAP_BYTES = _PAYLOAD_KEY_LEN

#: §9.1's rotation point: a key rotates once this share of its slot keys
#: is deleted.
ROTATION_FRACTION = 0.5


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def _slot_mask(shared: ECPoint, tag: bytes, slot: int, position: int) -> bytes:
    """What ``K`` is XORed with in ``slot``'s wrap: a KDF of the shared
    point ``r·pk_slot``, bound to the tag, the slot and the recipient's
    position (one device named at two positions gets unrelated masks)."""
    return kdf(
        "bfe-slot-wrap", shared.to_bytes(), tag, slot.to_bytes(4, "big"), position.to_bytes(2, "big")
    )[:WRAP_BYTES]


def _payload_key(key: bytes, tag: bytes, ephemeral: ECPoint, wraps: Tuple[bytes, ...]) -> bytes:
    """The payload's one-time key: a KDF of ``K`` over everything else the
    ciphertext carries, so no open runs under a key that differs from the
    honest one by a known XOR."""
    return kdf("bfe-payload", key, tag, ephemeral.to_bytes(), *wraps)[:_PAYLOAD_KEY_LEN]


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

    def size_bytes(self) -> int:
        return 33 * len(self.slot_pubkeys)


@dataclass(frozen=True)
class BfeCiphertext:
    """``(tag, g^r, position, [wrapped payload key per slot], payload AE
    ciphertext)``.

    The *tag* names the Bloom slots this ciphertext lives in; puncturing the
    tag kills every ciphertext that used it.  By default the tag is derived
    from the DH ephemeral (one puncture = one ciphertext, the classic BFE
    behaviour); SafetyPin instead derives it from (username, salt) so that
    recovering any backup in a salt-sharing series revokes the whole series
    (§8 "multiple recovery ciphertexts").  Tag integrity comes from the
    KDFs: every slot mask and the payload key are derived over the tag, so
    a swapped tag (or ephemeral, or wrap) gives an unrelated payload key
    and the payload's authentication fails.

    The *position* is the recipient's index in the encryption that made
    it (a share's place in its cluster).  Every recipient of one
    encryption holds the same ephemeral, so the position is what keeps a
    device named twice from getting equal masks; it enters every slot mask
    too, so a changed position unmasks another key and fails like a
    changed wrap.
    """

    tag: bytes
    ephemeral: ECPoint
    position: int
    wrapped_keys: Tuple[bytes, ...]
    payload: bytes

    def body(self) -> Tuple[Tuple[bytes, ...], bytes]:
        """What is this recipient's alone: what :data:`BFE_BODY` encodes."""
        return self.wrapped_keys, self.payload


#: A BFE ciphertext's own bytes, as :meth:`BfeCiphertext.body`: a count of
#: 16-byte wraps and the payload blob (``ciphertext ‖ tag`` under a
#: one-time key, no nonce).  A recovery ciphertext carries its shares this
#: way: their reader derives the tag, takes the one ephemeral from the
#: ciphertext and the position from the share's index.
BFE_BODY = tuple_of(seq(fixed(WRAP_BYTES, "wrapped key"), tuple, 4096, "wrapped-key"), BLOB)
#: A stand-alone BFE ciphertext (the copy a decrypt request carries): the
#: 32-byte tag, the ephemeral (a self-delimiting point, so the identity's
#: 1-byte encoding is carried and refused by the opener), the ``u16``
#: position, then the body.
BFE_CIPHERTEXT = converted(
    tuple_of(fixed(TAG_BYTES, "bfe tag"), POINT, U16, BFE_BODY),
    lambda ciphertext: (ciphertext.tag, ciphertext.ephemeral, ciphertext.position, ciphertext.body()),
    lambda fields: BfeCiphertext(*fields[:3], *fields[3]),
)


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
        whole decryption, so the ``ec_mult`` inside it is not billed again)
        and the payload opened; the wrap is an XOR.  Hashing the tag to its
        slots and the two KDFs (a dozen or so ``sha256_block``, under 1 ms
        on a SoloKey) follow the tag's length, not the tree, and are left
        out."""
        k = params.num_hashes
        counts = walk_counts(tree_height(params.num_slots), reads=1, deletes=k, live=k)
        opened = (_SCALAR_LEN, plaintext_len)  # leaf, payload
        counts["aes_block"] += sum(ae_cost(length)[0] for length in opened)
        counts["io_bytes"] += ae_cost(_SCALAR_LEN)[1]  # only the leaf is fetched
        counts["elgamal_dec"] = 1
        return counts

    # -- encryption (client side) ---------------------------------------------
    @staticmethod
    def encrypt(
        publics: Sequence[BfePublicKey],
        plaintexts: Sequence[bytes],
        context: bytes = b"",
        tag: Optional[bytes] = None,
    ) -> List[BfeCiphertext]:
        """``plaintexts[j]`` to ``publics[j]`` at position ``j``, every
        ciphertext under one ephemeral ``g^r`` and one tag (see the module
        docstring).  One recipient is a one-element list."""
        if len(publics) != len(plaintexts):
            raise ValueError(f"{len(publics)} keys for {len(plaintexts)} plaintexts")
        r = P256.random_scalar()
        ephemeral = P256.generator * r
        if tag is None:
            tag = sha256(b"bfe-tag", ephemeral.to_bytes(), context)
        slots = [public.params.slots_for_tag(tag) for public in publics]

        keys = [secrets.token_bytes(_PAYLOAD_KEY_LEN) for _ in publics]
        shared_points = iter(mult_each(
            [public.slot_pubkeys[slot] for public, row in zip(publics, slots) for slot in row], r
        ))
        wraps = [
            tuple(_xor(key, _slot_mask(next(shared_points), tag, slot, position)) for slot in row)
            for position, (key, row) in enumerate(zip(keys, slots))
        ]
        # Each payload key is a KDF of a fresh K: it seals this one message.
        payloads = seal_each(
            (_payload_key(key, tag, ephemeral, row), plaintext, context)
            for key, row, plaintext in zip(keys, wraps, plaintexts)
        )
        metering.count("elgamal_enc", sum(map(len, slots)))
        return [
            BfeCiphertext(tag, ephemeral, position, row, payload)
            for position, (row, payload) in enumerate(zip(wraps, payloads))
        ]

    # -- decryption (HSM side) ---------------------------------------------------
    @staticmethod
    def _decrypt_from(
        read_slot: Callable[[int], bytes],
        slots: List[int],
        ciphertext: BfeCiphertext,
        context: bytes,
    ) -> bytes:
        """Decrypt at the first slot whose key ``read_slot`` still yields.

        An identity ephemeral is refused before any slot is read: every
        slot's shared point would be ``∞``, so the masks would be ones
        anyone can compute.  The first live slot is the only one unmasked:
        if the payload does not open under what it gives, no other slot's
        would either (an honest ciphertext's live slots all give ``K``),
        so :class:`AuthenticationError` is raised with no further multiply.
        """
        if ciphertext.ephemeral.is_infinity:
            raise AuthenticationError("ephemeral is the identity point")
        tag, wraps = ciphertext.tag, ciphertext.wrapped_keys
        if len(wraps) != len(slots):
            raise AuthenticationError(f"{len(wraps)} wraps for {len(slots)} Bloom slots")
        last_error: Optional[Exception] = None
        for wrap, slot in zip(wraps, slots):
            try:
                scalar_bytes = read_slot(slot)
            except DeletedBlockError as exc:
                last_error = exc
                continue
            shared = ciphertext.ephemeral * int.from_bytes(scalar_bytes, "big")
            metering.count("elgamal_dec")
            key = _xor(wrap, _slot_mask(shared, tag, slot, ciphertext.position))
            # The payload's associated data binds the LHE context; a wrong
            # context (e.g. a wrong-PIN cluster digest) fails authentication
            # here even when the slot key itself was right.
            payload_key = _payload_key(key, tag, ciphertext.ephemeral, wraps)
            return next(open_each([(payload_key, ciphertext.payload, context)]))
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
