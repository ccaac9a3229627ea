"""The algorithms ``repro.crypto.ec``'s comb replaced, kept as references.

- :func:`jacobian_comb_fill` is the one-table fill ``_build_comb`` ran
  before it went lock step: general Jacobian additions for the 502 subset
  sums, one batch normalization of all 511 entries.  It is the
  differential reference for every table and sub-table
  (``tests/test_ec_fastpath.py``) and the baseline
  ``benchmarks/bench_crypto_hotpath.py`` times ``comb_build`` against.
- :func:`one_table_generator_mult_each` is the lock step
  ``generator_mult_each`` ran before the generator's comb was cut into
  sub-tables: one 29-column table, two ``_add_each`` batches a column.  The
  hot-path bench times ``fixed_base_batch`` against it in turns.
- :func:`window_mult_each` is ``mult_each`` before slot keys were combed:
  every point a ladder over its cached window table.  The hot-path bench's
  ``bfe_encrypt_k4_cached`` and ``bfe_encrypt_k4_fresh_window`` rows
  encrypt through it.
"""

from repro import metering
from repro.crypto import ec

_STRIDE = ec._comb_stride(ec._COMB_TEETH)


def jacobian_comb_fill(x, y):
    """``table[b] = Σ_{j ∈ bits(b)} 2^(29j)·(x, y)`` for ``b`` in 1..511."""
    jac = [ec._INFINITY] * (1 << ec._COMB_TEETH)
    tooth = (x, y, 1)
    for j in range(ec._COMB_TEETH):
        if j:
            for _ in range(_STRIDE):
                tooth = ec._jac_double(tooth)
        bit = 1 << j
        jac[bit] = tooth
        for lower in range(1, bit):
            jac[bit | lower] = ec._jac_add(jac[lower], tooth)
    return [None] + ec._jac_to_affine_batch(jac[1:])


def _column_indices(scalar):
    """The 29 one-table indices of a reduced scalar, most significant
    column first."""
    bits = format(scalar, f"0{ec._COMB_TEETH * _STRIDE}b")
    return [int(bits[column :: _STRIDE], 2) for column in range(_STRIDE)]


def one_table_generator_mult_each(scalars, table):
    """``s·G`` for every scalar over ``table``, the generator's one-table
    comb (:func:`jacobian_comb_fill` of G): at each of the 29 columns,
    ``(acc + entry) + acc`` as two ``_add_each`` batches — 58 shared
    inversions a call.  Unmetered."""
    sums = [None] * len(scalars)
    for column in zip(*[_column_indices(scalar % ec.N) for scalar in scalars]):
        sums = ec._add_each(ec._add_each(sums, [table[index] for index in column]), sums)
    return [ec.ECPoint._from_affine(affine) for affine in sums]


def window_mult_each(points, scalar):
    """``scalar·P`` for every finite, comb-less ``P`` in ``points``, each a
    256-doubling ladder over its cached window table (built if missing),
    one recoding and one normalizing inversion for all; never builds a comb.
    Meters what ``mult_each`` does."""
    metering.count("ec_mult", len(points))
    digits = ec._signed_digits(scalar % ec.N)
    products = []
    for table in ec._cache_windows(points):
        columns = [()] * ec._LADDER_COLUMNS
        ec._ladder_columns(columns, digits, table)
        products.append(ec._chain(columns))
    return [ec.ECPoint._from_affine(affine) for affine in ec._jac_to_affine_batch(products)]
