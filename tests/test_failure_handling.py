"""§8 extensions: device failure during recovery, incremental backups."""

import pytest

from repro.chaos.entropy import DeterministicEntropy
from repro.core.client import RecoveryError
from repro.crypto.gcm import NONCE_LEN, ONE_TIME_NONCE


class TestResumeAfterDeviceFailure:
    def test_replacement_device_finishes_recovery(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"precious data", pin="1234")
        session = client.begin_recovery("1234")
        client.request_shares(session)
        # The client device dies here without ever calling finish_recovery.
        replacement = shared_deployment.new_client(unique_user)
        recovered = replacement.resume_recovery("1234", attempt=session.attempt)
        assert recovered == b"precious data"

    def test_resume_without_escrow_fails(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        with pytest.raises(RecoveryError):
            client.resume_recovery("1234", attempt=0)

    def test_resume_requires_correct_pin(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        session = client.begin_recovery("1234")
        client.request_shares(session)
        replacement = shared_deployment.new_client(unique_user)
        with pytest.raises(RecoveryError):
            replacement.resume_recovery("0000", attempt=session.attempt)

    def test_original_device_can_also_finish(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.backup(b"data", pin="1234")
        session = client.begin_recovery("1234")
        client.request_shares(session)
        assert client.finish_recovery(session) == b"data"


class TestIncrementalBackups:
    def test_increments_roundtrip(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        client.enable_incremental_backups("1234")
        client.incremental_backup(b"monday photos")
        client.incremental_backup(b"tuesday notes")
        assert client.recover_incrementals("1234") == [
            b"monday photos",
            b"tuesday notes",
        ]

    def test_increments_under_one_master_key_draw_their_own_nonces(
        self, shared_deployment, unique_user
    ):
        """The master key seals every increment, so each draws a random
        nonce and carries it: the one-time constant is not for it."""
        client = shared_deployment.new_client(unique_user)
        client.enable_incremental_backups("1234")
        client.incremental_backup(b"same bytes")
        client.incremental_backup(b"same bytes")
        first, second = shared_deployment.provider.fetch_incrementals(unique_user)
        assert first[:NONCE_LEN] != second[:NONCE_LEN]
        assert ONE_TIME_NONCE not in (first[:NONCE_LEN], second[:NONCE_LEN])
        assert first != second

    def test_incrementals_require_enabling(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        with pytest.raises(RecoveryError):
            client.incremental_backup(b"data")
        with pytest.raises(RecoveryError):
            client.recover_incrementals("1234")

    def test_incrementals_are_cheap(self, shared_deployment, unique_user):
        """An increment must cost zero public-key operations (that is the
        point of the §8 design)."""
        client = shared_deployment.new_client(unique_user)
        client.enable_incremental_backups("1234")
        before = dict(client.meter.counts)
        client.incremental_backup(b"x" * 4096)
        delta_pk = client.meter.counts.get("elgamal_enc", 0) - before.get("elgamal_enc", 0)
        assert delta_pk == 0


class TestTamperedKeyTreeBlock:
    """One corrupted or withheld block of one HSM's outsourced key tree
    costs that HSM's share and nothing else: the union walk sees the bad tag
    (or the missing block) before anything is decrypted or written, the
    device refuses with a typed error, and the client finishes from the
    other shares."""

    @pytest.fixture(scope="class")
    def deployment(self):
        import random

        from repro.core.params import SystemParams
        from repro.core.protocol import Deployment

        params = SystemParams.for_testing(num_hsms=4, cluster_size=3, max_punctures=16)
        return Deployment.create(params, rng=random.Random(23))

    @staticmethod
    def _corrupt_last_slot_parent(deployment, client, pin, withhold=False):
        """Flip a byte in (or, with ``withhold``, stop serving) the
        leaf-parent node of the tag's *last* slot on the first cluster HSM:
        slot 0 still decrypts, so the parent code punctured three slots
        before the fourth delete tripped over it."""
        ciphertext = deployment.provider.fetch_backup(client.username, -1)
        cluster = client.lhe.select(ciphertext.salt, pin)
        victim = cluster[0]
        assert len(set(cluster) - {victim}) >= client.params.threshold
        secret = deployment.fleet[victim].extract_secrets().bfe_secret
        last_slot = secret.params.slots_for_tag(ciphertext.share_ciphertexts[0].tag)[-1]
        addr = ((1 << secret.tree.height) + last_slot) // 2
        blocks = deployment.provider.hsm_stores[victim]._blocks
        if withhold:
            del blocks[addr]
        else:
            blocks[addr] = blocks[addr][:20] + bytes([blocks[addr][20] ^ 1]) + blocks[addr][21:]
        return victim, secret

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_recovery_finishes_from_the_other_shares(self, deployment, transport):
        self._refused_then_recovered(deployment, f"tampered-{transport}", transport)

    @pytest.mark.parametrize("transport", ["direct", "wire"])
    def test_withheld_block_is_refused_like_a_bad_tag(self, deployment, transport):
        """Not serving the authentic block is one fault however it is done:
        a missing block must not escape as a raw ``KeyError``."""
        self._refused_then_recovered(
            deployment, f"withheld-{transport}", transport, withhold=True
        )

    def _refused_then_recovered(self, deployment, username, transport, withhold=False):
        from repro.hsm.device import HsmRefusedError

        client = deployment.new_client(username, transport=transport)
        # Seeded salts: clusters are drawn with replacement, and the test
        # needs one that is not the victim three times over.
        with DeterministicEntropy(16):
            client.backup(b"still recoverable", pin="2580")
            victim, secret = self._corrupt_last_slot_parent(
                deployment, client, "2580", withhold
            )
            before = (secret.tree.root_key, secret.slots_deleted, secret.punctures_done)
            store_before = dict(deployment.provider.hsm_stores[victim]._blocks)

            session = client.begin_recovery("2580")
            # Only typed errors cross the boundary, on either transport.
            with pytest.raises(HsmRefusedError):
                client._channels(victim).decrypt_share(client._share_request(session, 0))
            obtained = client.request_shares(session)
            assert obtained == sum(1 for index in session.cluster if index != victim)
            assert client.finish_recovery(session) == b"still recoverable"

        # The refusing HSM wrote nothing and released nothing.
        assert (secret.tree.root_key, secret.slots_deleted, secret.punctures_done) == before
        assert deployment.provider.hsm_stores[victim]._blocks == store_before

    def test_client_recover_does_not_raise(self, deployment):
        client = deployment.new_client("tampered-recover")
        with DeterministicEntropy(16):
            client.backup(b"one call", pin="1357")
            self._corrupt_last_slot_parent(deployment, client, "1357")
            assert client.recover("1357") == b"one call"
