"""Table 2: the HSM device catalog.

Regenerates the capability table (price, g^x/sec, storage, FIPS) and
benchmarks this host's own P-256 point-multiplication rate — the paper's
"Intel i7 (CPU)" row exists precisely to show the HSM/CPU gap.
"""

from repro.crypto.ec import P256
from repro.hsm.devices import CATALOG

from reporting import emit_rows


def test_table2_device_catalog(benchmark):
    result = benchmark(lambda: P256.generator * 0xDEADBEEFCAFE)
    assert not result.is_infinity

    emit_rows(
        "table2_devices",
        "Table 2: hardware security modules",
        [
            ("device", 24, lambda r: r["device"]),
            ("price", 10, lambda r: f"${r['price_usd']:,.0f}"),
            ("g^x/sec", 10, lambda r: f"{r['gx_per_sec']:,.0f}"),
            ("storage", 12, lambda r: f"{r['storage_kb']} KB" if r["storage_kb"] else "n/a"),
            ("FIPS", 6, lambda r: "yes" if r["fips_140_2"] else "no"),
        ],
        [
            {
                "device": device.name,
                "price_usd": device.price_usd,
                "gx_per_sec": device.gx_per_sec,
                "storage_kb": device.storage_kb,
                "fips_140_2": device.fips_140_2,
            }
            for device in CATALOG
        ],
        notes=["paper anchors: SoloKey 8/s @ $20; SafeNet 2,000/s @ $18,468; CPU 22,338/s"],
    )
