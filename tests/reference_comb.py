"""The comb-table fill ``repro.crypto.ec._build_comb`` ran before it went
lock step (PR 24): general Jacobian additions for the 502 subset sums, one
batch normalization of all 511 entries.

Kept as the differential reference for the table's contents
(``tests/test_ec_fastpath.py``) and as the baseline
``benchmarks/bench_crypto_hotpath.py`` times ``comb_build`` against.
"""

from repro.crypto import ec


def jacobian_comb_fill(x, y):
    """``table[b] = Σ_{j ∈ bits(b)} 2^(29j)·(x, y)`` for ``b`` in 1..511."""
    jac = [ec._INFINITY] * (1 << ec._COMB_TEETH)
    tooth = (x, y, 1)
    for j in range(ec._COMB_TEETH):
        if j:
            for _ in range(ec._COMB_COLUMNS):
                tooth = ec._jac_double(tooth)
        bit = 1 << j
        jac[bit] = tooth
        for lower in range(1, bit):
            jac[bit | lower] = ec._jac_add(jac[lower], tooth)
    return [None] + ec._jac_to_affine_batch(jac[1:])
