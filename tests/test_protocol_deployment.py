"""Deployment-level glue: wiring, maintenance, op accounting."""

import random

import pytest

from repro.chaos.entropy import DeterministicEntropy
from repro.core.params import SystemParams
from repro.core.protocol import Deployment


class TestWiring:
    def test_hsm_stores_live_at_provider(self, fresh_deployment):
        """The paper's outsourcing story: every HSM's Bloom-key blocks are
        hosted by the (untrusted) provider, not inside the device."""
        dep = fresh_deployment
        for hsm in dep.fleet:
            store = dep.provider.storage_for_hsm(hsm.index)
            assert hsm._store is store
            assert len(store) > 0  # the encrypted key tree lives there

    def test_membership_bootstrap_logged(self, fresh_deployment):
        entries = list(fresh_deployment.provider.log.dict.items())
        membership_entries = [i for i, _ in entries if i.startswith(b"mbr|")]
        assert len(membership_entries) == len(fresh_deployment.fleet)

    def test_clients_share_one_provider(self, fresh_deployment):
        a = fresh_deployment.new_client("a")
        b = fresh_deployment.new_client("b")
        # Clients hold ProviderChannels (never the live provider object);
        # both channels must front the same deployment provider state.
        assert a.provider is not fresh_deployment.provider
        a.backup(b"shared", pin="1234")
        assert b.provider.backup_count("a") == 1
        assert fresh_deployment.provider.backup_count("a") == 1

    def test_update_runner_installed(self, fresh_deployment):
        fresh_deployment.provider.run_log_update()  # must not raise

    def test_multisig_keyword_names_only_the_one_scheme(self):
        """Transitions are always ECDSA-signed: ``multisig=`` takes
        ``None`` or an ``EcdsaMultiSig`` and refuses anything else before
        provisioning a device."""
        params = SystemParams.for_testing(num_hsms=4, cluster_size=2)
        for other in (object(), "bls"):
            with pytest.raises(TypeError):
                Deployment.create(params, multisig=other)


class TestMaintenance:
    def test_fail_and_restart(self, fresh_deployment):
        victims = fresh_deployment.fail_random_hsms(3, random.Random(5))
        assert len(victims) == 3
        assert len(fresh_deployment.fleet.online()) == len(fresh_deployment.fleet) - 3
        fresh_deployment.restart_all_hsms()
        assert len(fresh_deployment.fleet.online()) == len(fresh_deployment.fleet)

    def test_rotate_if_needed_noop_when_fresh(self, fresh_deployment):
        assert fresh_deployment.rotate_keys_if_needed() == []

    def test_rotation_refreshes_registered_clients(self):
        params = SystemParams.for_testing(
            num_hsms=8, cluster_size=3, max_punctures=2, bloom_failure_exponent=3
        )
        dep = Deployment.create(params, rng=random.Random(41))
        client = dep.new_client("wear")
        # Wear one cluster down until some HSM wants rotation.
        for i in range(6):
            client.backup(b"x", pin="1234")
            try:
                client.recover(pin="1234")
            except Exception:
                pass
            rotated = dep.rotate_keys_if_needed()
            if rotated:
                break
        assert rotated
        # The registered client's mpk reflects the new epoch automatically.
        assert client._config_epoch() >= 1
        dep.verify_published_keys()  # rotations were logged


class TestClientOpAccounting:
    def test_backup_op_counts_match_formula(self, shared_deployment, unique_user):
        """Figure 10's model rests on backup = n·(k+1) point mults; the real
        client must perform exactly that many."""
        client = shared_deployment.new_client(unique_user)
        before = client.meter.counts.get("ec_mult", 0)
        client.backup(b"data", pin="1234")
        mults = client.meter.counts.get("ec_mult", 0) - before
        n = shared_deployment.params.cluster_size
        k = shared_deployment.params.bloom_params().num_hashes
        assert mults == n * (k + 1)

    def test_recovery_is_metered(self, shared_deployment, unique_user):
        client = shared_deployment.new_client(unique_user)
        # A seeded salt: its cluster names at least t distinct devices
        # (a recovery cannot open one that names fewer: ROADMAP item 13).
        with DeterministicEntropy(1):
            client.backup(b"data", pin="1234")
        before = dict(client.meter.counts)
        client.recover(pin="1234")
        after = client.meter.counts
        assert after.get("ec_mult", 0) > before.get("ec_mult", 0)
