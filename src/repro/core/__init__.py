"""SafetyPin's primary contribution: location-hiding encryption and the
backup/recovery protocol built on it (paper §3–§5, Figure 3, Figure 15)."""

_EXPORTS = {
    "SystemParams": ("repro.core.params", "SystemParams"),
    "LocationHidingEncryption": ("repro.core.lhe", "LocationHidingEncryption"),
    "LheCiphertext": ("repro.core.lhe", "LheCiphertext"),
    "Client": ("repro.core.client", "Client"),
    "RecoveryError": ("repro.core.client", "RecoveryError"),
    "ServiceProvider": ("repro.core.provider", "ServiceProvider"),
    "Deployment": ("repro.core.protocol", "Deployment"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
