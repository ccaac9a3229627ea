"""The simulated hardware security module.

``HsmDevice`` mirrors the firmware the paper adds to SoloKeys (~2,500 lines
of C): everything the device can be asked to do is a public method; every
secret lives in private attributes reachable only through those methods (or
the explicit :meth:`extract_secrets` escape hatch that models physical
compromise in tests).

Firmware surface:

- ``audit_log_update`` / ``reveal_nonce`` / ``sign_transition`` /
  ``accept_log_digest`` — the HSM side of the Figure 5 protocol: audit and
  commit to a nonce, reveal it, sign, and adopt a certified digest.
- ``decrypt_share`` — the recovery step: check the logged commitment,
  Bloom-filter-decrypt the client's key share, *puncture*, and reply
  encrypted under the client's per-recovery public key.
- ``rotate_keys`` — generate a fresh puncturable keypair once enough slots
  have been deleted (§9.1: rotation is triggered at half-deleted).
- ``accept_garbage_collection`` — bounded-count log reset (§6.2).
- ``fail_stop`` / ``restart`` — fault injection for the f_live experiments.

Every method runs under the device's own :class:`OpMeter`, so benchmarks can
price exactly what each HSM did on the Table 7 cost model.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import metering
from repro.crypto.bfe import (
    BfeCiphertext,
    BfePublicKey,
    BfeSecretKey,
    BloomFilterEncryption,
    PuncturedKeyError,
)
from repro.crypto.bloom import BloomParams
from repro.crypto.commit import CommitmentOpening, verify_opening
from repro.core.codec import WireFormatError
from repro.core.identifiers import parse_attempt_identifier
from repro.core.lhe import share_owner
from repro.crypto.ec import ECPoint, is_curve_point, point_sum
from repro.crypto.elgamal import ElGamalCiphertext, HashedElGamal
from repro.crypto.gcm import AuthenticationError
from repro.crypto.merkle import MerkleTree
from repro.crypto.shamir import SHARE
from repro.log.authdict import InclusionProof, empty_digest, verify_extension, verify_includes
from repro.log.distributed import (
    AggregateKey,
    LogConfig,
    LogUpdateRejected,
    SchnorrMultiSig,
    Transition,
    UpdateRound,
    audit_chunk_indices,
    on_committee,
    quorum_size,
)
from repro.log.sharded import cross_shard_root, shard_of
from repro.metering import OpMeter
from repro.storage.blockstore import BlockStore, InMemoryBlockStore


class HsmUnavailableError(Exception):
    """The HSM has fail-stopped (benign hardware failure)."""


class HsmRefusedError(Exception):
    """The HSM refused a request that violates its policy."""


class HsmStaleProofError(HsmRefusedError):
    """The inclusion proof does not verify against the device's current
    digest.  Proofs are digest-exact, so this usually means a later update
    epoch advanced the log mid-recovery — the client should fetch a fresh
    proof and retry, rather than write the share off as ⊥."""


@dataclass(frozen=True)
class HsmPublicInfo:
    """What an HSM publishes: identity, keys, epoch."""

    index: int
    bfe_public: BfePublicKey
    sig_public: object
    key_epoch: int
    sig_proof: Tuple[ECPoint, int]  # proof of possession of sig_public


@dataclass(frozen=True)
class DecryptShareRequest:
    """The client's message to one HSM during recovery (step Ï of Fig. 3)."""

    username: str
    log_identifier: bytes
    commitment: bytes  # the logged value h
    opening: CommitmentOpening
    inclusion_proof: InclusionProof
    share_ciphertext: BfeCiphertext
    context: bytes  # BFE domain separation: username || salt || cluster
    response_key: ECPoint  # fresh per-recovery public key (§8)


@dataclass
class _SigningSession:
    """One nonce's life between the epoch rounds: the transition it may
    sign and that transition's message, the nonce and its commitment, and —
    once revealed — the signer set's commitments, fixed from then on."""

    step: Transition
    message: bytes
    nonce_secret: int
    nonce: ECPoint
    commitment: bytes
    signers: Optional[Dict[int, bytes]] = None


@dataclass(frozen=True)
class StolenSecrets:
    """What a physical attacker extracts from a compromised HSM."""

    index: int
    bfe_secret: BfeSecretKey
    sig_secret: int
    log_digest: bytes


def _step_of(round_: Transition) -> Transition:
    """The digest step ``round_`` proposes, without what a round adds."""
    return Transition(
        round_.old_digest, round_.new_digest, round_.root, round_.shard, round_.num_shards
    )


class HsmDevice:
    """One hardware security module in the fleet."""

    #: Lock contract, checked by `repro.lintkit`'s lock-discipline pass:
    #: the offer queue is the only cross-thread state (epoch lanes push
    #: offers while this device's worker drains them).
    _GUARDED_BY = {
        "_offers": "_offer_lock",
    }

    def __init__(
        self,
        index: int,
        bloom_params: BloomParams,
        log_config: Optional[LogConfig] = None,
        store: Optional[BlockStore] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.index = index
        self.bloom_params = bloom_params
        self.log_config = log_config or LogConfig()
        self.meter = OpMeter()
        self.is_failed = False
        self.key_epoch = 0
        self.garbage_collections_seen = 0
        self._rng = rng
        self._store = store if store is not None else InMemoryBlockStore()

        with self.meter.attached():
            self._bfe_public, self._bfe_secret = BloomFilterEncryption.keygen(
                bloom_params, self._store, rng
            )
            self._sig_keypair = SchnorrMultiSig.keygen(rng)
            self._sig_proof = SchnorrMultiSig.prove_possession(index, self._sig_keypair)
        # One digest per shard lane of the log (a 1-element list for an
        # unsharded log).  The shard count is trusted configuration, fixed
        # at provisioning: it is bound into every signed transition, and
        # write-once relies on identifier->shard routing never changing.
        self._shard_digests = [empty_digest()] * max(1, self.log_config.num_shards)
        # Quorum-signed transitions this device missed, per shard lane,
        # offered by the provider and verified lazily on first use (see
        # offer_certified_transition); the lock makes an offer a cheap
        # cross-thread push that this device's worker drains at sync time.
        self._offers: Dict[int, List] = {}
        self._offer_lock = threading.Lock()
        # Directory of fleet signing keys, installed at provisioning time so
        # the device can verify aggregate signatures (the paper's aggregate
        # public key).  index -> public key object.
        self._sig_directory: Dict[int, object] = {}
        # The signing nonce between the epoch rounds; device RAM, so it
        # never outlives a fail-stop or a restart.
        self._session: Optional[_SigningSession] = None
        # lane -> the aggregate key of the last signer set seen on it,
        # summed and combed from the directory above; device RAM too, and
        # public: a fail-stop, a restart or a new directory drops it.
        self._aggregate_keys: Dict[int, AggregateKey] = {}

    # -- provisioning -------------------------------------------------------
    def public_info(self) -> HsmPublicInfo:
        return HsmPublicInfo(
            index=self.index,
            bfe_public=self._bfe_public,
            sig_public=self._sig_keypair.public,
            key_epoch=self.key_epoch,
            sig_proof=self._sig_proof,
        )

    def install_signer_directory(self, directory: Dict[int, object]) -> None:
        """Install the fleet's signature public keys (run once at setup).

        The directory comes from :meth:`HsmFleet.signer_directory`, which
        checked every key's proof of possession; its keys carry no table.
        A certificate is checked against the signer set's aggregate key,
        which each device sums from this directory and combs itself, once
        per lane and signer set.  A new directory drops those keys.
        """
        self._sig_directory = dict(directory)
        self._aggregate_keys = {}

    def rehost_store(self, store: BlockStore) -> None:
        """Re-point this device at a (restored) provider-hosted block store.

        The device's root AES key never leaves its tamper boundary, so
        after a provider restart it can keep using its outsourced key array
        as long as the provider re-hosts the same blocks — integrity of
        every block read is still checked by the secure-deletion tree's
        authenticated encryption, exactly as before the crash.
        """
        self._store = store
        self._bfe_secret.tree._store = store

    @property
    def num_shards(self) -> int:
        """How many shard lanes this device tracks (1 = unsharded)."""
        return len(self._shard_digests)

    @property
    def log_digest(self) -> bytes:
        """The device's single log anchor: the cross-shard root over its
        per-shard digests (the one digest itself when unsharded) — the
        same value ``ShardedLog.digest`` publishes once every lane has
        committed.  Reading the anchor first verifies and applies any
        offered transitions (a trust-critical read must be current).
        """
        with self._offer_lock:
            pending = sorted(self._offers)
        if pending:
            with self.meter.attached():
                for shard in pending:
                    self._sync_shard(shard)
        return cross_shard_root(self._shard_digests)

    def shard_digest(self, shard: int) -> bytes:
        """The device's digest for one shard lane."""
        return self._shard_digests[shard]

    # -- failure injection -----------------------------------------------------
    def fail_stop(self) -> None:
        self.is_failed = True
        self._session = None
        self._aggregate_keys = {}

    def restart(self) -> None:
        self.is_failed = False
        self._session = None
        self._aggregate_keys = {}

    def _check_alive(self) -> None:
        if self.is_failed:
            raise HsmUnavailableError(f"HSM {self.index} has fail-stopped")

    # -- log update protocol (HSM side of Figure 5) ------------------------------
    def _lane_of(self, step: Transition) -> int:
        """Validate a step's lane stamp against this device's arity."""
        shard, num_shards = step.shard, step.num_shards
        if num_shards != len(self._shard_digests) or not (0 <= shard < num_shards):
            raise LogUpdateRejected(
                f"HSM {self.index}: step claims shard {shard}/{num_shards}, "
                f"I track {len(self._shard_digests)} shard(s)"
            )
        return shard

    def audit_log_update(self, round_: UpdateRound) -> bytes:
        """Audit C chunks of the proposed update; if they are clean, draw a
        fresh signing nonce for ``(d, d', R)`` and return its commitment.
        Any earlier nonce is dropped first, so a refused audit leaves none."""
        self._check_alive()
        self._session = None
        with self.meter.attached():
            shard = self._lane_of(round_)
            if round_.num_chunks < 1:  # no audit set: nothing would be checked
                raise LogUpdateRejected(f"HSM {self.index}: round has no chunks")
            self._sync_shard(shard)
            if round_.old_digest != self._shard_digests[shard]:
                raise LogUpdateRejected(
                    f"HSM {self.index}: update does not build on my digest"
                )
            indices = audit_chunk_indices(
                round_.root, self.index, round_.num_chunks, self.log_config.audit_count
            )
            for idx in indices:
                self._audit_one_chunk(round_, idx)
            nonce_secret, nonce = SchnorrMultiSig.nonce(self._rng)
            commitment = SchnorrMultiSig.commit(nonce)
            self._session = _SigningSession(
                _step_of(round_), round_.message(), nonce_secret, nonce, commitment
            )
            return commitment

    def _session_for(self, round_: Transition) -> _SigningSession:
        """The live signing session for ``round_``, or a refusal: this
        device signs only a transition it audited, under its last nonce."""
        session = self._session
        if session is None or session.step != _step_of(round_):
            raise LogUpdateRejected(f"HSM {self.index}: no audited nonce for this round")
        return session

    def reveal_nonce(self, round_: UpdateRound, commitments: Dict[int, bytes]) -> ECPoint:
        """Round two: open this device's nonce commitment, once the signer
        set's commitments (``index -> H(Rᵢ)``) are fixed.  A device reveals
        once per nonce, and only to a set of known signers that holds its
        own commitment."""
        self._check_alive()
        with self.meter.attached():
            session = self._session_for(round_)
            if session.signers is not None:
                raise LogUpdateRejected(f"HSM {self.index}: nonce already revealed")
            if commitments.get(self.index) != session.commitment:
                raise LogUpdateRejected(
                    f"HSM {self.index}: signer set does not hold my commitment"
                )
            unknown = [i for i in commitments if i not in self._sig_directory]
            if unknown:
                raise LogUpdateRejected(f"HSM {self.index}: unknown signers {unknown}")
            session.signers = dict(commitments)
            return session.nonce

    def sign_transition(self, round_: UpdateRound, nonces: Dict[int, ECPoint]) -> int:
        """Round three: this device's share ``sᵢ = kᵢ + c·xᵢ`` of the
        certificate, for ``R = Σ Rⱼ`` over the revealed ``nonces`` (``index
        -> Rⱼ``).  Each nonce must open the commitment fixed at the reveal.
        The nonce is erased before anything is checked, so a device answers
        at most once for it."""
        self._check_alive()
        with self.meter.attached():
            session = self._session_for(round_)
            self._session = None
            signers = session.signers
            if signers is None:
                raise LogUpdateRejected(f"HSM {self.index}: nonce not revealed")
            if set(nonces) != set(signers):
                raise LogUpdateRejected(f"HSM {self.index}: nonces for another signer set")
            for index, point in nonces.items():
                if not is_curve_point(point) or SchnorrMultiSig.commit(point) != signers[index]:
                    raise LogUpdateRejected(
                        f"HSM {self.index}: signer {index}'s nonce does not open its commitment"
                    )
            nonce = point_sum(list(nonces.values()))
            key = self._aggregate_key(session.step.shard, tuple(signers))
            challenge = SchnorrMultiSig.challenge(key, nonce, session.message)
            return SchnorrMultiSig.sign(
                self._sig_keypair.secret, session.nonce_secret, challenge
            )

    def audit_specific_chunks(self, round_: UpdateRound, indices: Sequence[int]) -> None:
        """Appendix B.3 coverage: audit chunks on behalf of a failed peer.

        The caller (the provider) cannot be trusted to pick which chunks to
        skip — but asking for *extra* audits can only increase scrutiny, so
        serving this request is safe.
        """
        self._check_alive()
        with self.meter.attached():
            shard = self._lane_of(round_)
            if round_.old_digest != self._shard_digests[shard]:
                raise LogUpdateRejected(
                    f"HSM {self.index}: coverage request for a foreign digest"
                )
            for idx in indices:
                self._audit_one_chunk(round_, idx)

    def _audit_one_chunk(self, round_: UpdateRound, idx: int) -> None:
        package, proof = round_.chunk_with_proof(idx)
        metering.count("io_bytes", package.wire_size())
        header = package.header
        if header.index != idx:
            raise LogUpdateRejected(f"HSM {self.index}: chunk {idx} header index mismatch")
        if not MerkleTree.verify(round_.root, header.leaf_bytes(), proof) or proof.index != idx:
            raise LogUpdateRejected(f"HSM {self.index}: chunk {idx} not committed under R")
        if not package.proofs_consistent():
            raise LogUpdateRejected(f"HSM {self.index}: chunk {idx} proofs do not match header")
        if not verify_extension(header.start_digest, header.end_digest, package.proofs):
            raise LogUpdateRejected(f"HSM {self.index}: chunk {idx} extension proof invalid")
        if idx == 0:
            if header.start_digest != round_.old_digest:
                raise LogUpdateRejected(f"HSM {self.index}: first chunk does not start at d")
        else:
            prev_header, prev_proof = round_.header_with_proof(idx - 1)
            metering.count("io_bytes", len(prev_header.leaf_bytes()))
            if (
                not MerkleTree.verify(round_.root, prev_header.leaf_bytes(), prev_proof)
                or prev_proof.index != idx - 1
            ):
                raise LogUpdateRejected(
                    f"HSM {self.index}: chunk {idx - 1} header not committed under R"
                )
            if prev_header.end_digest != header.start_digest:
                raise LogUpdateRejected(
                    f"HSM {self.index}: chunk {idx} does not continue chunk {idx - 1}"
                )
        if idx == round_.num_chunks - 1 and header.end_digest != round_.new_digest:
            raise LogUpdateRejected(f"HSM {self.index}: last chunk does not end at d'")

    def accept_log_digest(
        self, round_: UpdateRound, aggregate, signer_ids: Tuple[int, ...]
    ) -> None:
        """Adopt d' after verifying the aggregate signature and quorum."""
        self._check_alive()
        with self.meter.attached():
            self._apply_transition(round_, aggregate, signer_ids)

    def committee_for(self, shard: int) -> List[int]:
        """The shard's certifying committee: directory indices ≡ shard (mod S).

        With ``num_shards == 1`` every device is on the (single) committee:
        the paper's full-fleet quorum.  Committees are a *cost* partition,
        not a trust boundary: any honest device's signature
        attests a real audit, and the quorum threshold is sized to the
        committee, so ``f_secret`` tolerance applies per committee —
        deployments choose ``S`` so ``N/S`` keeps that bound acceptable.
        """
        num_shards = len(self._shard_digests)
        return sorted(i for i in self._sig_directory if on_committee(i, shard, num_shards))

    def _apply_transition(
        self, step: Transition, aggregate, signer_ids: Tuple[int, ...]
    ) -> None:
        """Verify + adopt one digest step (caller provides metering context)."""
        shard = self._lane_of(step)
        if step.old_digest != self._shard_digests[shard]:
            raise LogUpdateRejected(
                f"HSM {self.index}: aggregate is for a different base digest"
            )
        unknown = [i for i in signer_ids if i not in self._sig_directory]
        if unknown:
            raise LogUpdateRejected(f"HSM {self.index}: unknown signers {unknown}")
        if len(set(signer_ids)) != len(signer_ids):
            raise LogUpdateRejected(f"HSM {self.index}: duplicate signers")
        # Only the shard's own committee counts toward its quorum: otherwise
        # quorum-many compromised devices from *any* committee could certify
        # transitions for *every* shard, voiding the per-committee f_secret
        # bound.  (Off-committee signatures may ride along — extra audits —
        # but they never substitute for committee consent.)
        committee = set(self.committee_for(shard))
        committee_signers = [i for i in signer_ids if i in committee]
        quorum = quorum_size(self.log_config.quorum_fraction, len(committee))
        if len(committee_signers) < quorum:
            raise LogUpdateRejected(
                f"HSM {self.index}: only {len(committee_signers)} committee "
                f"signers, need {quorum}"
            )
        key = self._aggregate_key(shard, tuple(signer_ids))
        if not SchnorrMultiSig.verify_aggregate(key, step.message(), aggregate):
            raise LogUpdateRejected(f"HSM {self.index}: aggregate signature invalid")
        self._shard_digests[shard] = step.new_digest

    def _aggregate_key(self, shard: int, signers: Tuple[int, ...]) -> AggregateKey:
        """Lane ``shard``'s aggregate key for ``signers`` (all in the
        directory): the one this device holds if the set is the same, else
        one summed and combed from its own directory, which replaces it —
        one entry a lane, rebuilt only when the signer set changes.  The
        key returned always sums ``signers``, so two threads racing here
        (an offer sync beside an epoch call) cost a rebuild, never a
        wrong key."""
        key = self._aggregate_keys.get(shard)
        if key is None or key.signers != signers:
            publics = [self._sig_directory[i] for i in signers]
            key = self._aggregate_keys[shard] = SchnorrMultiSig.aggregate_key(signers, publics)
        return key

    # -- lazy adoption of missed transitions -----------------------------------------
    def offer_certified_transition(self, transition) -> None:
        """Queue a quorum-signed transition this device missed, for lazy
        adoption.

        Devices off a shard's committee do not audit that shard's epochs,
        and a committee device that was down missed the epochs run without
        it; the provider *offers* them each certified transition instead —
        the only way a device learns a transition it did not accept live.
        The offer itself is unverified (a cheap thread-safe enqueue, so the
        epoch's wall clock never pays N aggregate verifications); the
        device verifies the chain on first use — an audit or a decrypt on
        that shard, or a read of :attr:`log_digest` — charging its own
        meter then.  A bogus offer can only cost the device one failed
        verification: adoption requires the committee quorum's signature,
        so safety never rests on the offer queue.  If the queue overflows,
        newest offers are shed; the provider re-offers the missing suffix
        next epoch by checking :meth:`offered_frontier`, so a shed offer is
        lag, never a permanent gap.
        """
        if self.is_failed:
            return
        with self._offer_lock:
            queue = self._offers.setdefault(transition.shard, [])
            if len(queue) < 4096:  # bound provider-driven memory
                queue.append(transition)

    def offered_frontier(self, shard: int) -> bytes:
        """Where this device's view of a shard will be after a sync:
        the last queued offer's end digest, or the adopted digest if the
        queue is empty.  The provider reads this (cheap, no crypto) to
        offer exactly the chain suffix the device is missing."""
        with self._offer_lock:
            queue = self._offers.get(shard)
            if queue:
                return queue[-1].new_digest
        return self._shard_digests[shard]

    def _sync_shard(self, shard: int) -> None:
        """Verify + apply offered transitions for one shard, in chain order.

        Offers that do not extend the current digest (stale, duplicate, or
        forged) are dropped; a verification failure drops only the bad
        offer — the rest of the queue survives for the next sync — and
        propagates, because an invalid aggregate that *claims* to extend
        the chain is an attack, not noise.  Caller provides the metering
        context.
        """
        while True:
            with self._offer_lock:
                queue = self._offers.get(shard)
                if not queue:
                    self._offers.pop(shard, None)
                    return
                transition = queue.pop(0)
            if transition.old_digest != self._shard_digests[shard]:
                continue
            self._apply_transition(transition, transition.aggregate, transition.signer_ids)

    # -- recovery (step Ð of Figure 3) ---------------------------------------------
    def decrypt_share(self, request: DecryptShareRequest) -> ElGamalCiphertext:
        """Verify the logged recovery attempt, decrypt + puncture, reply.

        Raises :class:`HsmRefusedError` if any check fails; raises
        :class:`PuncturedKeyError` if the share was already recovered.
        """
        self._check_alive()
        with self.meter.attached():
            # (0) the identifier names this user and an allowed attempt slot
            try:
                id_user, attempt_no = parse_attempt_identifier(request.log_identifier)
            except ValueError as exc:
                raise HsmRefusedError(f"HSM {self.index}: {exc}") from exc
            if id_user != request.username:
                raise HsmRefusedError(
                    f"HSM {self.index}: log identifier names a different user"
                )
            if attempt_no >= self.log_config.max_attempts_per_user:
                raise HsmRefusedError(
                    f"HSM {self.index}: attempt {attempt_no} exceeds the per-user limit"
                )
            # (1) the recovery attempt is in the log the HSM trusts.  The
            # device routes the identifier to its shard itself and verifies
            # against the digest *it* tracks for that shard, so a proof from
            # any other lane cannot verify.
            shard = shard_of(request.log_identifier, len(self._shard_digests))
            # Missed transitions are adopted lazily: verify any offered
            # quorum-signed transitions for this shard before judging the
            # proof against it.
            if shard in self._offers:
                try:
                    self._sync_shard(shard)
                except LogUpdateRejected as exc:
                    raise HsmRefusedError(
                        f"HSM {self.index}: offered log transition invalid: {exc}"
                    ) from exc
            if not verify_includes(
                self._shard_digests[shard],
                request.log_identifier,
                request.commitment,
                request.inclusion_proof,
            ):
                raise HsmStaleProofError(
                    f"HSM {self.index}: recovery attempt not proven against my"
                    " current log digest"
                )
            # (2) the opening matches the logged commitment
            if not verify_opening(request.commitment, request.opening):
                raise HsmRefusedError(f"HSM {self.index}: bad commitment opening")
            if request.opening.username != request.username:
                raise HsmRefusedError(f"HSM {self.index}: username mismatch in opening")
            # (3) this HSM is actually in the committed recovery cluster
            if self.index not in request.opening.cluster:
                raise HsmRefusedError(
                    f"HSM {self.index}: not a member of the committed cluster"
                )
            # (3b) the reply key is a real key.  The identity decodes as a
            # point, but a reply "encrypted" to it is readable by anyone who
            # holds the escrowed bytes; refuse before anything is punctured.
            if request.response_key.is_infinity:
                raise HsmRefusedError(
                    f"HSM {self.index}: response key is the identity point"
                )
            # (4)+(5) decrypt-and-puncture on one walk of the key tree: the
            # share opens only under this user's associated data, which the
            # device builds from the request's username; the plaintext must
            # be a share before anything is deleted, and the key is
            # punctured (forward security) before the reply.
            def well_formed(plaintext: bytes) -> None:
                try:
                    SHARE.decode(plaintext)
                except WireFormatError as exc:
                    raise HsmRefusedError(f"HSM {self.index}: malformed share plaintext") from exc

            try:
                share_bytes = BloomFilterEncryption.decrypt_and_puncture(
                    self._bfe_secret,
                    request.share_ciphertext,
                    context=share_owner(request.username, request.context),
                    accept=well_formed,
                )
            except AuthenticationError as exc:
                # Either a key-tree block failed its tag or was not served
                # (tampered, torn or withheld outsourced storage) or the
                # share does not open at its first live slot (encrypted to
                # another device or another user, under a wrong PIN's
                # context, or tampered).  Both are seen before the first
                # write: nothing was punctured.
                raise HsmRefusedError(
                    f"HSM {self.index}: share does not decrypt under my keys"
                ) from exc
            # (6) reply under the client's fresh per-recovery key (§8); a
            # plaintext that decodes strictly is its share's encoding.
            return HashedElGamal.encrypt(
                request.response_key,
                share_bytes,
                context=b"recovery-reply" + request.username.encode("utf-8"),
            )

    # -- key rotation (§9.1) ----------------------------------------------------------
    def needs_rotation(self) -> bool:
        return self._bfe_secret.needs_rotation()

    def rotate_keys(self) -> HsmPublicInfo:
        """Generate a fresh puncturable keypair into the store this device
        owns; bump the key epoch."""
        self._check_alive()
        with self.meter.attached():
            self._bfe_public, self._bfe_secret = BloomFilterEncryption.keygen(
                self.bloom_params, self._store, self._rng
            )
            self.key_epoch += 1
        return self.public_info()

    # -- garbage collection (§6.2) --------------------------------------------------------
    def accept_garbage_collection(self) -> None:
        self._check_alive()
        if self.garbage_collections_seen >= self.log_config.max_garbage_collections:
            raise HsmRefusedError(
                f"HSM {self.index}: garbage-collection budget exhausted"
            )
        self.garbage_collections_seen += 1
        self._shard_digests = [empty_digest()] * len(self._shard_digests)
        with self._offer_lock:
            self._offers = {}

    # -- compromise (tests only) --------------------------------------------------------------
    def extract_secrets(self) -> StolenSecrets:
        """Model physical compromise: hand out all device secrets.

        This is *not* part of the firmware API; it exists so the security
        test suite can play the adaptive-corruption adversary of Theorem 10.
        """
        return StolenSecrets(
            index=self.index,
            bfe_secret=self._bfe_secret,
            sig_secret=self._sig_keypair.secret,
            log_digest=self.log_digest,
        )
