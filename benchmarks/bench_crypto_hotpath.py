"""Crypto hot-path acceleration: fast paths vs the naive baseline.

Measures the fast paths the acceleration layer added to ``repro.crypto.ec``
against the pre-fast-path algorithm (kept verbatim as ``naive_mult``:
per-call window table, no precomputation):

- **fixed-base** ``g^x`` via the generator's 8x32 comb table (the
  most-multiplied point in the system: keygen, hashed ElGamal, ECDSA sign,
  HSM decrypt);
- **cached-window** repeated mults of one long-lived public key;
- **multi-scalar** Straus ``Σ sᵢ·Pᵢ`` vs independent mults;
- **batched** ``EcdsaMultiSig.verify_aggregate`` (16 signers, their keys
  provisioned through ``precompute_signer_key`` exactly as
  ``HsmDevice.install_signer_directory`` does, so each verification is one
  comb chain) vs the sequential per-signature verification loop it replaced;
- **comb_build** the one-off cost of one signer key's comb table;

and the symmetric fast path under the secure-deletion tree
(``repro.crypto.aes``/``gcm``) against the byte-wise cipher and bit-serial
GF(2^128) multiply it replaced (kept in ``tests/reference_symmetric.py``):

- **aes_block** one ``Aes128.encrypt_block`` (T-tables vs ``_gmul`` rounds);
- **aes_key_expand** one ``Aes128(key)`` (the tree keys every node afresh);
- **ghash_mul** one multiply by H (nibble table vs 128 bit steps);
- **ae_node_roundtrip** ``AesGcm(key)`` + encrypt + ``AesGcm(key)`` +
  decrypt of one 32-byte tree node with its 22-byte address AAD — the unit
  of work ``SecureDeletionTree.delete`` repeats 3x per level.

Acceptance gates (exit code 1 on regression):

- full run: fixed-base ≥ 2.0x, 16-signer verify_aggregate ≥ 4.0x,
  aes_block ≥ 3.0x, ae_node_roundtrip ≥ 2.5x;
- ``--quick`` (the CI perf-smoke lane): fixed-base ≥ 1.5x,
  verify_aggregate ≥ 2.5x, aes_block ≥ 2.0x.

Results go to ``benchmarks/out/crypto_hotpath.txt`` and machine-readable
``benchmarks/out/BENCH_crypto_hotpath.json`` (see ``_harness``).

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_crypto_hotpath.py [--quick]``
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from _harness import metered_timed
from reporting import emit, table

# The symmetric baseline is the test suite's differential reference.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

FULL_GATES = {
    "fixed_base_speedup": 2.0,
    "verify_aggregate_speedup": 4.0,
    "aes_block_speedup": 3.0,
    "ae_node_speedup": 2.5,
}
QUICK_GATES = {
    "fixed_base_speedup": 1.5,
    "verify_aggregate_speedup": 2.5,
    "aes_block_speedup": 2.0,
}

SIGNERS = 16
MULTI_TERMS = 8


def _naive_ecdsa_verify_loop(scheme_publics, message, aggregate):
    """The pre-fast-path ``verify_aggregate``: one naive verification per
    signature — two uncached scalar mults and one field inversion each."""
    from repro.crypto.ec import P256, _jac_add, _jac_mult, _jac_to_affine
    from repro.crypto.hashing import sha256

    n = P256.n
    for public, (r, s) in zip(scheme_publics, aggregate):
        if not (1 <= r < n and 1 <= s < n):
            return False
        z = int.from_bytes(sha256(b"ecdsa", message), "big") % n
        w = pow(s, -1, n)
        pt = _jac_add(
            _jac_mult(P256.generator._jac(), (z * w) % n),
            _jac_mult(public._jac(), (r * w) % n),
        )
        affine = _jac_to_affine(pt)
        if affine is None or affine[0] % n != r:
            return False
    return True


def run_symmetric(min_seconds: float) -> dict:
    """The four symmetric rows, each beside its ``_naive`` reference row."""
    import reference_symmetric as ref
    from repro.crypto.aes import Aes128
    from repro.crypto.gcm import AesGcm

    rng = random.Random(0xAE5)
    key, block, nonce = rng.randbytes(16), rng.randbytes(16), rng.randbytes(12)
    node, aad = rng.randbytes(32), b"securedel-node" + (1234).to_bytes(8, "big")
    x = rng.getrandbits(128)
    fast_aes, ref_aes, fast_gcm = Aes128(key), ref.ReferenceAes128(key), AesGcm(key)
    h = int.from_bytes(ref_aes.encrypt_block(bytes(16)), "big")
    assert fast_aes.encrypt_block(block) == ref_aes.encrypt_block(block)
    assert fast_gcm._mul_h(x) == ref.gf128_mul(x, h)

    def node_roundtrip(gcm_class):
        sealed = gcm_class(key).encrypt(nonce, node, aad)
        assert gcm_class(key).decrypt(nonce, sealed, aad) == node

    pairs = {
        "aes_block": (lambda: fast_aes.encrypt_block(block), lambda: ref_aes.encrypt_block(block)),
        "aes_key_expand": (lambda: Aes128(key), lambda: ref.ReferenceAes128(key)),
        "ghash_mul": (lambda: fast_gcm._mul_h(x), lambda: ref.gf128_mul(x, h)),
        "ae_node_roundtrip": (
            lambda: node_roundtrip(AesGcm),
            lambda: node_roundtrip(ref.ReferenceAesGcm),
        ),
    }
    records = {}
    for label, (fast, reference) in pairs.items():
        records[label] = metered_timed(fast, min_seconds)
        records[f"{label}_naive"] = metered_timed(reference, min_seconds)
    return records


def run(min_seconds: float) -> dict:
    from repro.crypto.ec import N, P256, ECPoint, multi_mult, naive_mult
    from repro.log.distributed import EcdsaMultiSig

    rng = random.Random(0xFA57)
    G = P256.generator
    fixed_key = G * rng.randrange(1, N)  # one long-lived public key
    scalars = [rng.randrange(1, N) for _ in range(64)]

    def next_scalar():
        return scalars[rng.randrange(len(scalars))]

    records = {}
    records["fixed_base"] = metered_timed(lambda: G * next_scalar(), min_seconds)
    records["fixed_base_naive"] = metered_timed(
        lambda: naive_mult(G, next_scalar()), min_seconds
    )
    records["cached_window"] = metered_timed(
        lambda: fixed_key * next_scalar(), min_seconds
    )
    records["cached_window_naive"] = metered_timed(
        lambda: naive_mult(fixed_key, next_scalar()), min_seconds
    )

    points = [G * rng.randrange(1, N) for _ in range(MULTI_TERMS - 1)] + [G]
    pairs = [(next_scalar(), pt) for pt in points]
    records["multi_scalar"] = metered_timed(lambda: multi_mult(pairs), min_seconds)

    def independent_sum():
        acc = ECPoint(None, None)
        for scalar, pt in pairs:
            acc = acc + naive_mult(pt, scalar)
        return acc

    records["multi_scalar_naive"] = metered_timed(independent_sum, min_seconds)

    scheme = EcdsaMultiSig()
    keypairs = [scheme.keygen(random.Random(seed)) for seed in range(SIGNERS)]
    message = b"log-transition-digest"
    aggregate = scheme.aggregate([scheme.sign(kp.secret, message) for kp in keypairs])
    publics = [kp.public for kp in keypairs]
    records["comb_build"] = metered_timed(
        lambda: scheme.precompute_signer_key(ECPoint(publics[0].x, publics[0].y)),
        min_seconds,
    )
    for public in publics:  # what install_signer_directory does at provisioning
        scheme.precompute_signer_key(public)
    assert scheme.verify_aggregate(keypairs, message, aggregate)
    records["verify_aggregate"] = metered_timed(
        lambda: scheme.verify_aggregate(keypairs, message, aggregate), min_seconds
    )
    records["verify_aggregate_naive"] = metered_timed(
        lambda: _naive_ecdsa_verify_loop(publics, message, aggregate), min_seconds
    )
    records["ecdsa_sign"] = metered_timed(
        lambda: P256.ecdsa_sign(keypairs[0].secret, message), min_seconds
    )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI perf-smoke mode: shorter timings, the QUICK_GATES floors",
    )
    parser.add_argument("--min-seconds", type=float, default=None)
    args = parser.parse_args(argv)
    min_seconds = args.min_seconds or (0.15 if args.quick else 0.6)

    records = run(min_seconds)
    records.update(run_symmetric(min_seconds))
    speedups = {
        f"{label.removesuffix('_roundtrip')}_speedup": (
            record["ops_per_sec"] / records[f"{label}_naive"]["ops_per_sec"]
        )
        for label, record in records.items()
        if f"{label}_naive" in records
    }

    rows = []
    for label, record in records.items():
        rows.append(
            (
                label,
                record["ops"],
                f"{record['ops_per_sec']:,.1f}",
                f"{record['seconds'] / record['ops'] * 1000:,.3f}",
            )
        )
    lines = table(("path", "ops", "ops/sec", "ms/op"), rows, (24, 8, 12, 10))
    lines.append("")
    for label, value in speedups.items():
        lines.append(f"{label}: {value:.2f}x")

    gates = QUICK_GATES if args.quick else FULL_GATES
    failures = [
        f"{metric} = {speedups[metric]:.2f}x < required {floor:.1f}x"
        for metric, floor in gates.items()
        if speedups[metric] < floor
    ]
    lines.append("")
    lines.append(
        f"gates ({'quick' if args.quick else 'full'}): "
        + ("FAIL: " + "; ".join(failures) if failures else "ok — "
           + ", ".join(f"{m} >= {f:.1f}x" for m, f in gates.items()))
    )

    metrics = dict(speedups)
    for label, record in records.items():
        metrics[f"{label}_ops_per_sec"] = record["ops_per_sec"]
    emit(
        "crypto_hotpath",
        "Crypto hot-path acceleration vs naive baseline",
        lines,
        data={
            "metrics": metrics,
            "results": [dict(path=label, **record) for label, record in records.items()],
            "mode": "quick" if args.quick else "full",
            "gates": gates,
            "gate_failures": failures,
        },
    )
    if failures:
        print("PERF REGRESSION: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
