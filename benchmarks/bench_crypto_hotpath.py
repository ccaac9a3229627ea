"""Crypto hot-path acceleration: fast paths vs the naive baseline.

Measures the fast paths the acceleration layer added to ``repro.crypto.ec``
against the pre-fast-path algorithm (kept verbatim as ``naive_mult``:
per-call window table, no precomputation):

- **fixed-base** ``g^x`` via the generator's comb — a signed comb of 10
  teeth, five sub-tables of six columns each (the most-multiplied point in
  the system: keygen, hashed ElGamal, signing nonces, HSM decrypt);
- **variable-base** the signed-window ladder, both ways a point meets it:
  ``variable_base_oneoff`` multiplies a point never seen before (an HSM's
  ``(g^r)^x``: the 8-entry table is built inside the call) and
  ``variable_base_cached`` one long-lived public key, a ladder over its
  table held by the bench (``ec`` caches no window table: this is what a
  point that kept one would pay) — both against ``naive_mult`` of the same
  key;
- **bfe_encrypt_k4** one Bloom-filter ciphertext (``g^r`` + ``mult_each``
  over k = 4 slot keys + the k masked wraps and the payload's one seal),
  timed in turns in four states:
  ``_fresh`` (no table: the first ciphertext to the keys builds their
  6-tooth signed combs in one batch), ``_combed`` (every later one: 42
  doublings a key), ``_five_tooth`` (the same keys over 5-tooth signed
  combs, the slot comb before: 51 doublings a key), ``_unsigned`` (over
  the unsigned 4-tooth combs of ``tests/reference_comb.py``: 63 doublings
  a key), and the two a window-table ladder would give, through that
  file's ``window_mult_each`` — ``_fresh_window`` (the window tables
  built inside the call) and ``_cached`` (tables held by the bench: 256
  doublings a key).
  Four gated ratios: ``combed_over_window`` (``_combed`` against
  ``_cached``), ``fresh_over_fresh_window``, which holds a first multiply
  to what the window ladder cost, ``six_over_five_slot`` (``_combed``
  against ``_five_tooth``) and ``signed_over_unsigned_slot`` (``_combed``
  against ``_unsigned``); ``slot_comb_kb`` is what one key's
  comb holds (by tracemalloc) beside a window table's ``slot_window_kb``
  and the unsigned comb's ``unsigned_slot_comb_kb``;
- **multi-scalar** Straus ``Σ sᵢ·Pᵢ`` vs independent mults;
- **certificate check**, a log certificate ``(R, s)`` checked as
  ``s·G = R + c·X_S`` against its signer set's aggregate key ``X_S``,
  summed and combed (6 teeth) once per set
  (``SchnorrMultiSig.aggregate_key`` / ``verify_aggregate``), at a
  12-device fleet's quorum of 9 (``aggregate_key_check_9``), in turns
  with the same ``verify_aggregate`` over the same sum without its comb
  (``uncombed_key_check_9``: ``AggregateKey(ids, point_sum(keys))``, a
  ladder every check): ``aggregate_key_over_uncombed``.  The model: a
  43-column comb chain against a 257-doubling ladder (``s·G``'s 26
  additions ride the last 6 columns of either), ≈ 43 additions for
  ``−c·X_S`` each way and a window table built in the ladder's call —
  ≈ 1,100 against ≈ 3,000 field multiplications, ≈ 2.7x, whatever the
  signer count.  ``aggregate_key_build`` is one 9-signer key's sum and
  comb, ``aggregate_key_kb`` what one key holds (by tracemalloc), and
  ``certificate_sign_9`` one signer's share of a 9-signer certificate
  (its nonce and commitment, the 9 openings, the challenge over the key
  it holds, ``sᵢ``);
- **fixed_base_batch** a device's slot keys, ``generator_mult_each`` over
  185 scalars (one key of the ledger's fleets): the generator's sub-tables
  walked in lock step on shared-inversion affine additions, against the
  same 185 ``G * s`` one call at a time (``fixed_base_percall``) and
  against the unsigned lock step over one 29-column table it replaced
  (``fixed_base_one_table``, kept in ``tests/reference_comb.py``; the
  ratio is ``fixed_base_subtables_speedup``), the three timed in turns;
  reported per lane too;
- **comb memory** what each comb shape holds, by tracemalloc — the
  generator's (``generator_comb_kb``) and a slot key's (``slot_comb_kb``,
  an aggregate key's shape too) — beside the unsigned reference comb each
  replaced (``unsigned_*_comb_kb``: one tooth fewer, two for a slot key);
  a signed table of t teeth stores 2^(t−1) entries against that comb's
  2^u − 1 at u teeth, and ``*_comb_kb_over_unsigned`` is gated to at most
  that entry ratio;
- **field_inverse / mulmod** what decides whether lock-step affine
  arithmetic (one shared Montgomery inversion per step) pays, shape by
  shape.  *Ladders*: a step is a doubling — 8 field multiplications
  Jacobian, 4 + 3 for the batching + a B-th of an inversion affine — so B
  ladders only pay beyond ``affine_breakeven_ladders`` = inverse/mulmod
  (≈ 50); a backup runs n·k = 12, and they are not built.  *Comb lanes*: a
  column of the generator's S sub-tables is a doubling and up to S mixed
  additions, 8 + 11·S multiplications Jacobian, against S + 1 affine
  additions ``(acc + entry) + acc + …``, 6 each and S + 1 B-ths of an
  inversion, and the affine result needs no normalizing inversion (S and
  the column count are read from ``repro.crypto.ec``):
  ``affine_breakeven_comb_lanes`` is that arithmetic's break-even, and
  ``lockstep_crossover_lanes`` the batch size at which the code was
  measured to win (``ec._LOCKSTEP_MIN_LANES`` is set from it);

and the symmetric fast path under the secure-deletion tree
(``repro.crypto.aes``/``gcm``) against the byte-wise cipher and bit-serial
GF(2^128) multiply it replaced (kept in ``tests/reference_symmetric.py``):

- **aes_block** a key-tree node's cipher work — H, the tag mask and two
  CTR blocks — as one byte-sliced ``encrypt_blocks`` call, against four
  ``_gmul``-round blocks (per block, the speedup is the same ratio);
- **aes_one_block** one ``Aes128.encrypt_block``, the kernel's one-lane
  case: slower per block than the T-table cipher it replaced was, and
  reported beside the node width rather than hidden;
- **aes_key_expand** one key's 11 round-key rows at a node's 4 lanes (every
  message expands its key afresh);
- **ghash_mul** one multiply by H (nibble table vs 128 bit steps);
- **ae_node_roundtrip** a one-message ``seal_each`` and ``open_each`` of
  one 32-byte tree node with its 22-byte address AAD — the unit of work the
  cost model bills ``SecureDeletionTree.delete`` 3x per level;
- **aes_seal_batch** the 511 seals of one key tree's set-up at 185 slots
  through one ``seal_each``, against the same seals one call each
  (``aes_seal_percall``); reported per node too;
- **ae_open_level** one four-node level of a k = 4 walk down (four 32-byte
  nodes, each under its own key and address) through one ``open_each``,
  against four one-message ``open_each`` calls (``ae_open_percall``); reported per
  node too.

Every symmetric row is timed in turns with its baseline.

Acceptance gates (exit code 1 on regression):

- full run: fixed-base ≥ 2.0x, fixed_base_batch ≥ 1.4x the per-call comb
  and ≥ 1.4x the one-table lock step, variable_base_oneoff ≥ 1.1x,
  bfe_encrypt_k4 combed ≥ 1.5x cached, ≥ 1.08x five_tooth and fresh
  ≥ 0.9x fresh_window, aggregate_key_over_uncombed ≥ 2.3x,
  aes_block ≥ 5.0x, ae_node_roundtrip ≥ 4.5x, aes_seal_batch
  ≥ 1.35x the per-call seals, ae_open_level ≥ 1.3x the per-call opens,
  signed_over_unsigned_slot ≥ 1.08x;
- ``--quick`` (the CI perf-smoke lane; each ratio the median of
  ``QUICK_REPEATS`` runs of every row): fixed-base ≥ 1.5x,
  fixed_base_batch ≥ 1.3x the per-call comb and ≥ 1.3x the one-table lock
  step, variable_base_oneoff ≥ 1.05x, bfe_encrypt_k4 combed ≥ 1.4x
  cached, ≥ 1.05x five_tooth and fresh ≥ 0.9x fresh_window,
  aggregate_key_over_uncombed ≥ 2.2x, aes_block ≥ 4.0x,
  aes_seal_batch ≥ 1.25x, ae_open_level ≥ 1.25x,
  signed_over_unsigned_slot ≥ 1.04x;
- both: every tier's ``*_comb_kb_over_unsigned`` at most its entry ratio
  (the memory gate: 32/15 for a slot key, 512/511 for the generator).

The variable-base floor is deliberately close to the measured ratio (≈ 1.2x
one-off, ≈ 1.3x cached; a ladder is 256 doublings whatever the table), and
so are the batches' (≈ 1.5–1.6x against either baseline; ≈ 1.4–1.45x for a
walk level's opens), a first use's (≈ 0.90x, 0.87–0.93x run to run: the
comb's build and product run 257 doublings against the ladder's 256, and
≈ 28 more additions and a few inversions), the 6-tooth slot combs' over
the 5-tooth (≈ 1.12–1.18x for an encrypt) and the signed combs' over the
unsigned (≈ 1.24–1.35x for an encrypt), so those rows are timed one call
at a time, in turns; so is the aggregate key's comb against no comb
(≈ 2.5–2.7x, against the model's ≈ 2.7x).
The one-block AES row (≈ 2.2–3.4x the
reference) is not gated.

Results go to stdout and to the machine-readable
``benchmarks/out/BENCH_crypto_hotpath.json`` (see ``_harness``).

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_crypto_hotpath.py [--quick]``
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

from _harness import metered_timed
from reporting import emit, table

# The symmetric baseline is the test suite's differential reference.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

FULL_GATES = {
    "fixed_base_speedup": 2.0,
    "fixed_base_batch_speedup": 1.4,
    "fixed_base_subtables_speedup": 1.4,
    "variable_base_oneoff_speedup": 1.1,
    "combed_over_window": 1.5,
    "six_over_five_slot": 1.08,
    "fresh_over_fresh_window": 0.9,
    "aggregate_key_over_uncombed": 2.3,
    "aes_block_speedup": 5.0,
    "ae_node_speedup": 4.5,
    "aes_seal_batch_speedup": 1.35,
    "ae_open_level_speedup": 1.3,
    "signed_over_unsigned_slot": 1.08,
}
QUICK_GATES = {
    "fixed_base_speedup": 1.5,
    "fixed_base_batch_speedup": 1.3,
    "fixed_base_subtables_speedup": 1.3,
    "variable_base_oneoff_speedup": 1.05,
    "combed_over_window": 1.4,
    "six_over_five_slot": 1.05,
    "fresh_over_fresh_window": 0.9,
    "aggregate_key_over_uncombed": 2.2,
    "aes_block_speedup": 4.0,
    "aes_seal_batch_speedup": 1.25,
    "ae_open_level_speedup": 1.25,
    "signed_over_unsigned_slot": 1.04,
}
#: A quick run's rows take 0.15 s of interleaved timing each, shorter than
#: the slow spells of a shared host, so a quick run measures every row this
#: many times and judges each ratio by its median.
QUICK_REPEATS = 5
# The memory gate, in both modes: a signed comb of t teeth stores 2^(t−1)
# entries a sub-table against the 2^u − 1 of the unsigned comb of u teeth
# it replaced (u = t − 1, and 4 for a 6-tooth slot comb), and may hold no
# more than that entry ratio of the latter's KB.
COMB_TIERS = ("generator", "slot")

# Rows compared against another row's baseline instead of ``<label>_naive``.
SHARED_BASELINES = {
    "variable_base_oneoff": "variable_base_naive",
    "variable_base_cached": "variable_base_naive",
    "fixed_base_batch": "fixed_base_percall",
    "aes_seal_batch": "aes_seal_percall",
    "ae_open_level": "ae_open_percall",
}

BATCH_LANES = 185  # BloomParams.for_punctures(32, 4): one key of the ledger's fleets
NODE_BLOCKS = 4  # a 32-byte key-tree node: H, the tag mask, two CTR blocks
LEVEL_NODES = 4  # a level of a k = 4 walk down, once the paths have split
CROSSOVER_LANES = (4, 6, 8, 10, 12, 16, 24, 47)  # batch sizes tried around the break-even
QUORUM = 9  # the certificate rows' signers: a 12-device fleet's quorum
AGGREGATE_KEYS_HELD = 16  # aggregate keys measured at once, as SLOT_KEYS_HELD
SLOT_KEYS_HELD = 64  # slot-key tables measured at once, so a key's KB is not the call's overhead
MULTI_TERMS = 8
FIELD_OP_BATCH = 1000  # field operations per timed call (swamps the call itself)


def interleaved_timed(fns: dict, min_seconds: float) -> dict:
    """``metered_timed`` for rows whose *ratio* is gated at a small margin.

    This host runs unchanged code at 0.6-1.0x of its best speed for seconds
    at a time, which is more than the margin.  So the rows take turns one
    call at a time: every round lends each row the same host speed, and the
    ratio of the summed times is the ratio of the code."""
    from repro.metering import OpMeter

    meters = {label: OpMeter() for label in fns}
    seconds = dict.fromkeys(fns, 0.0)
    ops = 0
    while ops == 0 or sum(seconds.values()) < min_seconds * len(fns):
        for label, fn in fns.items():
            with meters[label].attached():
                start = time.perf_counter()
                fn()
                seconds[label] += time.perf_counter() - start
        ops += 1
    return {
        label: {
            "ops": ops,
            "seconds": seconds[label],
            "ops_per_sec": ops / seconds[label],
            "op_counts": meters[label].snapshot(),
        }
        for label in fns
    }


def _setup_seals(rng: random.Random) -> list:
    """The ``(key, plaintext, aad)`` of one key tree's set-up at
    ``BATCH_LANES`` slots, in the order ``SecureDeletionTree.setup`` seals
    them: 256 leaves (185 scalars, 71 empty) and 255 internal nodes."""
    from repro.storage.securedel import _addr_aad, tree_height

    leaves = 1 << tree_height(BATCH_LANES)
    lengths = [32] * BATCH_LANES + [0] * (leaves - BATCH_LANES) + [32] * (leaves - 1)
    addrs = list(range(leaves, 2 * leaves)) + [a for h in range(tree_height(BATCH_LANES) - 1, -1, -1)
                                                for a in range(1 << h, 2 << h)]
    return [
        (rng.randbytes(16), rng.randbytes(length), _addr_aad(addr))
        for length, addr in zip(lengths, addrs, strict=True)
    ]


def run_symmetric(min_seconds: float) -> dict:
    """The symmetric rows, each beside its ``_naive`` reference row (or, for
    the batches, beside the same messages one call each)."""
    import reference_symmetric as ref
    from repro.crypto import aes, gcm
    from repro.crypto.aes import Aes128, encrypt_blocks
    from repro.crypto.gcm import ONE_TIME_NONCE, open_each, seal_each
    from repro.storage.securedel import _addr_aad

    rng = random.Random(0xAE5)
    key, block, nonce = rng.randbytes(16), rng.randbytes(16), ONE_TIME_NONCE
    node, aad = rng.randbytes(32), b"securedel-node" + (1234).to_bytes(8, "big")
    x = rng.getrandbits(128)
    fast_aes, ref_aes = Aes128(key), ref.ReferenceAes128(key)
    h = int.from_bytes(ref_aes.encrypt_block(bytes(16)), "big")
    table = gcm._key_streams([(fast_aes, 0)], nonce)[0][0]
    # A node's cipher work: H, the tag mask and two CTR blocks, one call.
    node_blocks = bytes(16) + b"".join(nonce + c.to_bytes(4, "big") for c in (1, 2, 3))
    assert encrypt_blocks([(fast_aes, node_blocks)]) == b"".join(
        ref_aes.encrypt_block(node_blocks[i : i + 16]) for i in range(0, 64, 16)
    )
    assert fast_aes.encrypt_block(block) == ref_aes.encrypt_block(block)
    assert gcm._mul_h(table, x) == ref.gf128_mul(x, h)

    def node_roundtrip():
        (sealed,) = seal_each([(key, node, aad)])
        assert next(open_each([(key, sealed, aad)])) == node

    def node_roundtrip_naive():
        sealed = ref.ReferenceAesGcm(key).encrypt(nonce, node, aad)
        assert ref.ReferenceAesGcm(key).decrypt(nonce, sealed, aad) == node

    key_row = int.from_bytes(key * NODE_BLOCKS, "big")
    seals = _setup_seals(rng)
    assert seal_each(seals) == [seal_each([message])[0] for message in seals]
    level = [(rng.randbytes(16), rng.randbytes(32), _addr_aad(addr)) for addr in range(64, 64 + LEVEL_NODES)]
    sealed_level = [(k, blob, a) for (k, _, a), blob in zip(level, seal_each(level))]
    assert list(open_each(sealed_level)) == [pt for _, pt, _ in level]
    pairs = {
        "aes_block": (
            lambda: encrypt_blocks([(fast_aes, node_blocks)]),
            lambda: [ref_aes.encrypt_block(node_blocks[i : i + 16]) for i in range(0, 64, 16)],
        ),
        "aes_one_block": (lambda: fast_aes.encrypt_block(block), lambda: ref_aes.encrypt_block(block)),
        "aes_key_expand": (
            lambda: aes._schedule(key_row, NODE_BLOCKS),
            lambda: ref.ReferenceAes128(key),
        ),
        "ghash_mul": (lambda: gcm._mul_h(table, x), lambda: ref.gf128_mul(x, h)),
        "ae_node_roundtrip": (node_roundtrip, node_roundtrip_naive),
        "aes_seal_batch": (
            lambda: seal_each(seals),
            lambda: [seal_each([message]) for message in seals],
        ),
        "ae_open_level": (
            lambda: list(open_each(sealed_level)),
            lambda: [next(open_each([message])) for message in sealed_level],
        ),
    }
    records = {}
    for label, (fast, baseline) in pairs.items():
        other = SHARED_BASELINES.get(label, f"{label}_naive")
        records.update(interleaved_timed({label: fast, other: baseline}, min_seconds))
    return records


def symmetric_metrics(records: dict) -> dict:
    """Per-block and per-node costs: a node's width beside the lone block
    (the one-block case is slower than the table cipher was, and is shown),
    one set-up's seals batched beside the same seals one call each, and a
    walk level's opens batched beside the same opens one call each."""
    nodes = len(_setup_seals(random.Random(0)))
    return {
        "aes_us_per_block_node_width": 1e6 / (records["aes_block"]["ops_per_sec"] * NODE_BLOCKS),
        "aes_us_per_block_one_block": 1e6 / records["aes_one_block"]["ops_per_sec"],
        "aes_us_per_block_naive": 1e6 / records["aes_one_block_naive"]["ops_per_sec"],
        "aes_seal_batch_us_per_node": 1e6 / (records["aes_seal_batch"]["ops_per_sec"] * nodes),
        "aes_seal_percall_us_per_node": 1e6 / (records["aes_seal_percall"]["ops_per_sec"] * nodes),
        "ae_open_level_us_per_node": 1e6 / (records["ae_open_level"]["ops_per_sec"] * LEVEL_NODES),
        "ae_open_percall_us_per_node": 1e6
        / (records["ae_open_percall"]["ops_per_sec"] * LEVEL_NODES),
    }


def run(min_seconds: float) -> dict:
    from repro.crypto import bfe as bfe_module
    from repro.crypto.bfe import BloomFilterEncryption
    from repro.crypto.bloom import BloomParams
    from multisig_rounds import certificate
    from reference_comb import (
        UNSIGNED_SLOT_TEETH,
        jacobian_comb_fill,
        one_table_generator_mult_each,
        unsigned_build_comb,
        unsigned_mult_each,
        window_mult_each,
    )
    from repro import metering
    from repro.crypto import ec
    from repro.crypto.ec import N, P, P256, ECPoint, generator_mult_each, multi_mult, naive_mult
    from repro.log.distributed import AggregateKey, SchnorrMultiSig
    from repro.storage.blockstore import InMemoryBlockStore

    rng = random.Random(0xFA57)
    G = P256.generator
    fixed_key = G * rng.randrange(1, N)  # one long-lived public key
    scalars = [rng.randrange(1, N) for _ in range(64)]
    (fixed_table,) = ec._build_windows([(fixed_key.x, fixed_key.y)])

    def cached_ladder(scalar: int) -> ECPoint:
        """``fixed_key * scalar`` as a ladder over the window table held
        above, which the point itself does not carry."""
        metering.count("ec_mult")
        columns = [()] * ec._LADDER_COLUMNS
        ec._ladder_columns(columns, ec._signed_digits(scalar % N), fixed_table)
        return ECPoint._from_jac(ec._chain(columns))

    assert cached_ladder(scalars[0]) == fixed_key * scalars[0]

    def next_scalar():
        return scalars[rng.randrange(len(scalars))]

    records = {}
    records["fixed_base"] = metered_timed(lambda: G * next_scalar(), min_seconds)
    records["fixed_base_naive"] = metered_timed(
        lambda: naive_mult(G, next_scalar()), min_seconds
    )
    records.update(
        interleaved_timed(
            {
                "variable_base_oneoff": lambda: ECPoint(fixed_key.x, fixed_key.y) * next_scalar(),
                "variable_base_cached": lambda: cached_ladder(next_scalar()),
                "variable_base_naive": lambda: naive_mult(fixed_key, next_scalar()),
            },
            min_seconds,
        )
    )

    def batch_rows(batch: list) -> dict:
        assert generator_mult_each(batch) == [G * s for s in batch]
        return {
            "fixed_base_batch": lambda: generator_mult_each(batch),
            "fixed_base_percall": lambda: [G * s for s in batch],
        }

    # The lock step over the generator's sub-tables, the same G * s one call
    # at a time, and the lock step over one unsigned 29-column table, in turns.
    batch = [rng.randrange(1, N) for _ in range(BATCH_LANES)]
    one_table = jacobian_comb_fill(G.x, G.y)
    assert one_table_generator_mult_each(batch, one_table) == generator_mult_each(batch)
    rows = batch_rows(batch)
    rows["fixed_base_one_table"] = lambda: one_table_generator_mult_each(batch, one_table)
    records.update(interleaved_timed(rows, min_seconds))
    # Around the break-even the lock step runs whatever the batch size.
    threshold, ec._LOCKSTEP_MIN_LANES = ec._LOCKSTEP_MIN_LANES, 0
    try:
        for lanes in CROSSOVER_LANES:
            pair = interleaved_timed(
                batch_rows([rng.randrange(1, N) for _ in range(lanes)]), min_seconds / 4
            )
            records[f"lockstep_{lanes}_lanes"] = pair["fixed_base_batch"]
            records[f"lockstep_{lanes}_lanes_naive"] = pair["fixed_base_percall"]
    finally:
        ec._LOCKSTEP_MIN_LANES = threshold

    params = BloomParams.for_punctures(8, failure_exponent=4)
    assert params.num_hashes == 4
    bfe_public, _ = BloomFilterEncryption.keygen(params, InMemoryBlockStore(), rng)
    tag = b"bench-tag"
    slot_keys = [bfe_public.slot_pubkeys[slot] for slot in params.slots_for_tag(tag)]
    windows = ec._build_windows([(key.x, key.y) for key in slot_keys])
    combs = ec._build_comb([(key.x, key.y) for key in slot_keys], 1, ec._SLOT_COMB_TEETH)
    five_tooth = ec._build_comb([(key.x, key.y) for key in slot_keys], 1, 5)
    unsigned = unsigned_build_comb([(key.x, key.y) for key in slot_keys], teeth=UNSIGNED_SLOT_TEETH)
    nothing = [None] * len(slot_keys)
    r = next_scalar()
    expected = [k * r for k in slot_keys]
    assert window_mult_each(slot_keys, r, windows) == window_mult_each(slot_keys, r) == expected
    assert ec.mult_each(slot_keys, r) == expected
    for key, comb in zip(slot_keys, five_tooth):
        key._comb = comb
    assert ec.mult_each(slot_keys, r) == expected
    assert unsigned_mult_each(slot_keys, r, unsigned) == [k * r for k in slot_keys]

    def bfe_encrypt(slot_combs: list, multiply=ec.mult_each):
        """One ciphertext to the tag's slots, the keys holding
        ``slot_combs`` going in, multiplied through ``multiply``."""
        for key, comb in zip(slot_keys, slot_combs):
            key._comb = comb
        bfe_module.mult_each = multiply
        try:
            return BloomFilterEncryption.encrypt([bfe_public], [b"share" * 8], context=b"ctx", tag=tag)
        finally:
            bfe_module.mult_each = ec.mult_each

    records.update(
        interleaved_timed(
            {
                "bfe_encrypt_k4_cached": lambda: bfe_encrypt(
                    nothing, lambda points, s: window_mult_each(points, s, windows)
                ),
                "bfe_encrypt_k4_combed": lambda: bfe_encrypt(combs),
                "bfe_encrypt_k4_five_tooth": lambda: bfe_encrypt(five_tooth),
                "bfe_encrypt_k4_unsigned": lambda: bfe_encrypt(
                    nothing, lambda points, s: unsigned_mult_each(points, s, unsigned)
                ),
                "bfe_encrypt_k4_fresh": lambda: bfe_encrypt(nothing),
                "bfe_encrypt_k4_fresh_window": lambda: bfe_encrypt(nothing, window_mult_each),
            },
            min_seconds,
        )
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

    # A certificate checked on its aggregate key's comb, and on the same
    # sum with no comb (a ladder), in turns.
    scheme = SchnorrMultiSig
    keypairs = [scheme.keygen(random.Random(seed)) for seed in range(QUORUM)]
    publics = [kp.public for kp in keypairs]
    message = b"log-transition-digest"
    held = scheme.aggregate_key(range(QUORUM), publics)
    uncombed = AggregateKey(held.signers, ec.point_sum(publics))
    cert = certificate(keypairs, message)
    for key in (held, uncombed):
        assert scheme.verify_aggregate(key, message, cert)
        assert not scheme.verify_aggregate(key, b"other", cert)
    records.update(
        interleaved_timed(
            {
                f"aggregate_key_check_{QUORUM}": lambda: scheme.verify_aggregate(held, message, cert),
                f"uncombed_key_check_{QUORUM}": lambda: scheme.verify_aggregate(
                    uncombed, message, cert
                ),
            },
            min_seconds,
        )
    )
    assert uncombed.point._comb is None  # a ladder every check
    records["aggregate_key_build"] = metered_timed(
        lambda: scheme.aggregate_key(range(QUORUM), publics), min_seconds
    )
    others = [scheme.nonce()[1] for _ in range(QUORUM - 1)]
    opened = [scheme.commit(point) for point in others]

    def signer_share():
        """One signer's work across the rounds of a ``QUORUM``-signer
        certificate: its nonce and commitment, every opening, the
        challenge and its share."""
        secret, point = scheme.nonce()
        commitments = [scheme.commit(point)] + opened
        nonces = [point] + others
        assert all(scheme.commit(p) == c for p, c in zip(nonces, commitments))
        challenge = scheme.challenge(held, ec.point_sum(nonces), message)
        return scheme.sign(keypairs[0].secret, secret, challenge)

    records[f"certificate_sign_{QUORUM}"] = metered_timed(signer_share, min_seconds)

    a, b = rng.randrange(1, P), rng.randrange(1, P)

    def inversions():
        for _ in range(FIELD_OP_BATCH):
            pow(a, -1, P)

    def mulmods():
        for _ in range(FIELD_OP_BATCH):
            a * b % P

    records["field_inverse_x1000"] = metered_timed(inversions, min_seconds / 4)
    records["mulmod_x1000"] = metered_timed(mulmods, min_seconds / 4)
    return records


def held_kb(build) -> float:
    """What ``build()`` — a table over the generator — leaves allocated,
    by tracemalloc (free lists emptied before, so every entry is a fresh
    allocation, and after, so the build's freed temporaries are not
    counted as held)."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        table = build()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table
    return held / 1024


def comb_memory_metrics() -> dict:
    """What each shape's signed comb holds — the generator's sub-tables, a
    slot key's one table — beside the unsigned reference
    comb of one tooth fewer, the ratio of the two, and the ratio's ceiling:
    the signed comb's entries over the unsigned comb's."""
    from reference_comb import UNSIGNED_SLOT_TEETH, UNSIGNED_TEETH, unsigned_build_comb
    from repro.crypto import ec

    keys = SLOT_KEYS_HELD  # slot combs measured a key at a time, this many at once
    shapes = {  # tier: (sub-tables, teeth, unsigned teeth, combs held)
        "generator": (ec._GENERATOR_COMB_TABLES, ec._COMB_TEETH, UNSIGNED_TEETH, 1),
        "slot": (1, ec._SLOT_COMB_TEETH, UNSIGNED_SLOT_TEETH, keys),
    }
    metrics = {}
    for tier, (tables, teeth, unsigned_teeth, count) in shapes.items():
        signed = held_kb(
            lambda: [ec._build_comb([(ec.GX, ec.GY)], tables, teeth) for _ in range(count)]
        ) / count
        unsigned = held_kb(
            lambda: [unsigned_build_comb([(ec.GX, ec.GY)], tables, unsigned_teeth) for _ in range(count)]
        ) / count
        metrics[f"{tier}_comb_kb"] = signed
        metrics[f"unsigned_{tier}_comb_kb"] = unsigned
        metrics[f"{tier}_comb_kb_over_unsigned"] = signed / unsigned
        metrics[f"{tier}_comb_entry_ratio"] = (1 << (teeth - 1)) / ((1 << unsigned_teeth) - 1)
    return metrics


def aggregate_key_metrics(records: dict) -> dict:
    """What one 9-signer aggregate key costs to build (from its timed row)
    and holds (by tracemalloc, ``AGGREGATE_KEYS_HELD`` keys at once)."""
    from repro.crypto.ec import P256
    from repro.log.distributed import SchnorrMultiSig

    signers = QUORUM
    publics = [P256.generator * (seed + 2) for seed in range(signers)]
    return {
        "aggregate_key_build_ms": 1e3 / records["aggregate_key_build"]["ops_per_sec"],
        "aggregate_key_kb": held_kb(
            lambda: [
                SchnorrMultiSig.aggregate_key(range(signers), publics)
                for _ in range(AGGREGATE_KEYS_HELD)
            ]
        )
        / AGGREGATE_KEYS_HELD,
    }


def slot_key_metrics(records: dict) -> dict:
    """A slot key's comb against its window table and against the unsigned
    comb: one ``bfe.encrypt`` over k = 4 keys each way, first use and
    later, and what a window table holds per key."""
    from repro.crypto import ec

    keys = SLOT_KEYS_HELD
    return {
        **{
            f"{label}_ms": 1e3 / records[label]["ops_per_sec"]
            for label in (
                "bfe_encrypt_k4_combed",
                "bfe_encrypt_k4_five_tooth",
                "bfe_encrypt_k4_unsigned",
                "bfe_encrypt_k4_cached",
                "bfe_encrypt_k4_fresh",
                "bfe_encrypt_k4_fresh_window",
            )
        },
        "slot_window_kb": held_kb(lambda: ec._build_windows([(ec.GX, ec.GY)] * keys)) / keys,
    }


def lockstep_affine_metrics(records: dict, speedups: dict) -> dict:
    """When one shared inversion per step pays, shape by shape (see module
    doc): the arithmetic's break-even for ladders and for comb lanes over
    the generator's comb as ``repro.crypto.ec`` lays it out, and the batch
    size at which the comb's lock step was measured to win."""
    from repro.crypto import ec

    inverse_us = 1e6 / (records["field_inverse_x1000"]["ops_per_sec"] * FIELD_OP_BATCH)
    mulmod_us = 1e6 / (records["mulmod_x1000"]["ops_per_sec"] * FIELD_OP_BATCH)
    inverse = inverse_us / mulmod_us  # in field multiplications
    jacobian_doubling, affine_doubling, batching = 8, 4, 3
    mixed_addition, affine_addition, normalize = 11, 6, 4
    tables = ec._GENERATOR_COMB_TABLES
    columns, batches = ec._comb_width(tables, ec._COMB_TEETH), tables + 1  # a column's _add_each batches
    jacobian_column = jacobian_doubling + tables * mixed_addition
    largest_loss = max(
        (n for n in CROSSOVER_LANES if speedups[f"lockstep_{n}_lanes_speedup"] < 1.0), default=0
    )
    return {
        "field_inverse_us": inverse_us,
        "mulmod_us": mulmod_us,
        "inverse_over_mulmod": inverse,
        "affine_breakeven_ladders": inverse / (jacobian_doubling - affine_doubling - batching),
        # B lanes: w columns x (S + 1) inversions shared B ways, against the
        # multiplications a column saves and the normalizing inversion.
        "affine_breakeven_comb_lanes": batches * columns * inverse
        / (columns * (jacobian_column - batches * affine_addition) + inverse + normalize),
        "lockstep_crossover_lanes": min(
            (n for n in CROSSOVER_LANES if n > largest_loss), default=None
        ),
        "fixed_base_batch_us_per_lane": 1e6
        / (records["fixed_base_batch"]["ops_per_sec"] * BATCH_LANES),
        "fixed_base_percall_us_per_lane": 1e6
        / (records["fixed_base_percall"]["ops_per_sec"] * BATCH_LANES),
        "fixed_base_one_table_us_per_lane": 1e6
        / (records["fixed_base_one_table"]["ops_per_sec"] * BATCH_LANES),
    }


def ratios(records: dict) -> dict:
    """Every row's speed over its baseline's, and the named ratios."""
    speedups = {}
    for label, record in records.items():
        baseline = SHARED_BASELINES.get(label, f"{label}_naive")
        if baseline in records:
            speedups[f"{label.removesuffix('_roundtrip')}_speedup"] = (
                record["ops_per_sec"] / records[baseline]["ops_per_sec"]
            )
    # The same lock step, timed against the one-table comb it replaced too.
    speedups["fixed_base_subtables_speedup"] = (
        records["fixed_base_batch"]["ops_per_sec"] / records["fixed_base_one_table"]["ops_per_sec"]
    )
    for ratio, (label, baseline) in {
        "combed_over_window": ("bfe_encrypt_k4_combed", "bfe_encrypt_k4_cached"),
        "six_over_five_slot": ("bfe_encrypt_k4_combed", "bfe_encrypt_k4_five_tooth"),
        "fresh_over_fresh_window": ("bfe_encrypt_k4_fresh", "bfe_encrypt_k4_fresh_window"),
        "signed_over_unsigned_slot": ("bfe_encrypt_k4_combed", "bfe_encrypt_k4_unsigned"),
        "aggregate_key_over_uncombed": (f"aggregate_key_check_{QUORUM}", f"uncombed_key_check_{QUORUM}"),
    }.items():
        speedups[ratio] = records[label]["ops_per_sec"] / records[baseline]["ops_per_sec"]
    return speedups


def main(argv=None) -> int:
    from repro.crypto import ec

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI perf-smoke mode: shorter timings, the QUICK_GATES floors",
    )
    parser.add_argument("--min-seconds", type=float, default=None)
    args = parser.parse_args(argv)
    min_seconds = args.min_seconds or (0.15 if args.quick else 0.6)

    repeats = []
    for _ in range(QUICK_REPEATS if args.quick else 1):
        records = run(min_seconds)
        records.update(run_symmetric(min_seconds))
        repeats.append(ratios(records))
    # Every ratio is the median over the runs; the rows shown are the last run's.
    speedups = {ratio: statistics.median(run[ratio] for run in repeats) for ratio in repeats[0]}
    lockstep = lockstep_affine_metrics(records, speedups)
    slot = slot_key_metrics(records)
    memory = comb_memory_metrics()
    memory.update(aggregate_key_metrics(records))
    symmetric = symmetric_metrics(records)

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
    lines.append(f"ratios: the median of {len(repeats)} run(s) of every row")
    for label, value in speedups.items():
        lines.append(f"{label}: {value:.2f}x")
    lines.append("")
    lines.append(
        "lock-step affine arithmetic: field inverse"
        f" {lockstep['field_inverse_us']:.1f} us = {lockstep['inverse_over_mulmod']:.0f} x"
        f" mulmod {lockstep['mulmod_us']:.2f} us"
    )
    lines.append(
        f"  ladders (not built): pays beyond {lockstep['affine_breakeven_ladders']:.0f}"
        " ladders (a backup runs 12)"
    )
    lines.append(
        f"  comb lanes (generator_mult_each): {BATCH_LANES} lanes"
        f" {lockstep['fixed_base_batch_us_per_lane']:.0f} us/lane vs per-call comb"
        f" {lockstep['fixed_base_percall_us_per_lane']:.0f} us/lane; by the op count it pays"
        f" beyond {lockstep['affine_breakeven_comb_lanes']:.0f} lanes, measured: "
        + ", ".join(
            f"{lanes}: {speedups[f'lockstep_{lanes}_lanes_speedup']:.2f}x"
            for lanes in CROSSOVER_LANES
        )
        + f" -> wins from {lockstep['lockstep_crossover_lanes']} lanes"
    )
    lines.append(
        f"  generator's comb: {ec._GENERATOR_COMB_TABLES} sub-tables x"
        f" {ec._comb_width(ec._GENERATOR_COMB_TABLES, ec._COMB_TEETH)}"
        f" columns; {BATCH_LANES} lanes over one unsigned 29-column table"
        f" {lockstep['fixed_base_one_table_us_per_lane']:.0f} us/lane"
        f" -> {speedups['fixed_base_subtables_speedup']:.2f}x"
    )
    lines.append(
        f"slot keys (bfe_encrypt_k4): combed {slot['bfe_encrypt_k4_combed_ms']:.2f} ms vs"
        f" window ladders {slot['bfe_encrypt_k4_cached_ms']:.2f} ms"
        f" -> {speedups['combed_over_window']:.2f}x, vs 5-tooth combs"
        f" {slot['bfe_encrypt_k4_five_tooth_ms']:.2f} ms -> {speedups['six_over_five_slot']:.2f}x,"
        f" vs unsigned 4-tooth combs"
        f" {slot['bfe_encrypt_k4_unsigned_ms']:.2f} ms -> {speedups['signed_over_unsigned_slot']:.2f}x;"
        f" first use {slot['bfe_encrypt_k4_fresh_ms']:.2f}"
        f" ms vs {slot['bfe_encrypt_k4_fresh_window_ms']:.2f} ms"
        f" -> {speedups['fresh_over_fresh_window']:.2f}x; a window table holds"
        f" {slot['slot_window_kb']:.1f} KB a key"
    )
    lines.append(
        f"{QUORUM}-signer certificate on its aggregate key's comb"
        f" {1e3 / records[f'aggregate_key_check_{QUORUM}']['ops_per_sec']:.2f} ms"
        f" vs the same sum on a ladder"
        f" {1e3 / records[f'uncombed_key_check_{QUORUM}']['ops_per_sec']:.2f} ms"
        f" -> {speedups['aggregate_key_over_uncombed']:.2f}x"
    )
    lines.append(
        f"aggregate key of {QUORUM} signers: {memory['aggregate_key_build_ms']:.2f} ms to"
        f" sum and comb, {memory['aggregate_key_kb']:.1f} KB held"
    )
    lines.append(
        "comb memory, signed vs the unsigned comb each replaced: "
        + "; ".join(
            f"{tier} {memory[f'{tier}_comb_kb']:.1f} KB vs {memory[f'unsigned_{tier}_comb_kb']:.1f} KB"
            f" = {memory[f'{tier}_comb_kb_over_unsigned']:.4f}"
            f" (entries {memory[f'{tier}_comb_entry_ratio']:.4f})"
            for tier in COMB_TIERS
        )
    )
    lines.append(
        f"byte-sliced AES: {symmetric['aes_us_per_block_node_width']:.1f} us/block at a node's"
        f" {NODE_BLOCKS} blocks, {symmetric['aes_us_per_block_one_block']:.1f} us for a lone block"
        f" (reference {symmetric['aes_us_per_block_naive']:.1f} us/block); one set-up's seals"
        f" {symmetric['aes_seal_batch_us_per_node']:.1f} us/node batched vs"
        f" {symmetric['aes_seal_percall_us_per_node']:.1f} us/node one call each; a walk"
        f" level's opens {symmetric['ae_open_level_us_per_node']:.1f} us/node batched vs"
        f" {symmetric['ae_open_percall_us_per_node']:.1f} us/node one call each"
    )

    gates = QUICK_GATES if args.quick else FULL_GATES
    failures = [
        f"{metric} = {speedups[metric]:.2f}x < required {floor:g}x"
        for metric, floor in gates.items()
        if speedups[metric] < floor
    ] + [
        f"{tier}_comb_kb_over_unsigned = {memory[f'{tier}_comb_kb_over_unsigned']:.4f}"
        f" > its entry ratio {memory[f'{tier}_comb_entry_ratio']:.4f}"
        for tier in COMB_TIERS
        if memory[f"{tier}_comb_kb_over_unsigned"] > memory[f"{tier}_comb_entry_ratio"]
    ]
    lines.append("")
    lines.append(
        f"gates ({'quick' if args.quick else 'full'}): "
        + ("FAIL: " + "; ".join(failures) if failures else "ok — "
           + ", ".join(f"{m} >= {f:g}x" for m, f in gates.items())
           + ", every *_comb_kb_over_unsigned <= its entry ratio")
    )

    metrics = dict(speedups, **lockstep, **slot, **memory, **symmetric)
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
            "ratio_runs": len(repeats),
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
