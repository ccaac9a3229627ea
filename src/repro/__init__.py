"""SafetyPin reproduction: encrypted backups with human-memorable secrets.

This package is a from-scratch Python implementation of the system described
in "SafetyPin: Encrypted Backups with Human-Memorable Secrets" (Dauterman,
Corrigan-Gibbs, Mazières; OSDI 2020).  It contains:

- ``repro.crypto``   -- every cryptographic primitive the paper relies on
  (NIST P-256, hashed ElGamal, AES-128-GCM, Shamir sharing, Merkle trees,
  Bloom-filter puncturable encryption).
- ``repro.storage``  -- outsourced storage with secure deletion (the
  Di Crescenzo key tree of Appendix C) over an untrusted block store.
- ``repro.hsm``      -- the simulated HSM fleet and the operation-metering
  cost model calibrated against the paper's Tables 2 and 7.
- ``repro.log``      -- the distributed append-only log (authenticated
  dictionary, chunked randomized auditing, aggregate signing).
- ``repro.core``     -- location-hiding encryption and the SafetyPin
  backup/recovery protocol.
- ``repro.baseline`` -- the Google/Apple-style fixed-cluster baseline.
- ``repro.analysis`` -- the paper's security bounds (Lemma 8, Theorems 9/10).
- ``repro.sim``      -- capacity planning and queueing models used for the
  deployment-scale figures.
- ``repro.adversary``-- attack harnesses used by the security test suite.

Quickstart::

    from repro import SystemParams, Deployment

    params = SystemParams.for_testing(num_hsms=8, cluster_size=3)
    dep = Deployment.create(params)
    client = dep.new_client("alice")
    client.backup(b"disk image bytes", pin="1234")
    assert client.recover(pin="1234") == b"disk image bytes"
"""

# Public API re-exports are lazy so that `import repro.crypto.x` does not pull
# in the whole protocol stack (and so partial builds stay importable).
_EXPORTS = {
    "SystemParams": ("repro.core.params", "SystemParams"),
    "Deployment": ("repro.core.protocol", "Deployment"),
    "Client": ("repro.core.client", "Client"),
    "RecoveryError": ("repro.core.client", "RecoveryError"),
    "ServiceProvider": ("repro.core.provider", "ServiceProvider"),
    "LocationHidingEncryption": ("repro.core.lhe", "LocationHidingEncryption"),
}


def __getattr__(name):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "SystemParams",
    "Deployment",
    "Client",
    "RecoveryError",
    "ServiceProvider",
    "LocationHidingEncryption",
    "__version__",
]

__version__ = "1.0.0"
