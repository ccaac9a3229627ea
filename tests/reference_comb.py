"""The algorithms ``repro.crypto.ec``'s combs replaced, kept as references.

- The unsigned Lim–Lee comb engine ``ec`` ran before its combs went
  zero-free and signed, whole: :func:`unsigned_build_comb` (the lock-step
  fill of the 2^t − 1 subset sums ``Σ_{j ∈ bits(b)} 2^(c·j + i·w)·Q``,
  entry 0 empty), :func:`unsigned_indices` and :func:`unsigned_columns` (a
  position adds an entry only where its teeth are not all zero), at
  ``UNSIGNED_TEETH`` = 9 for the generator — one tooth fewer than its
  signed comb, and one entry fewer a table — and ``UNSIGNED_SLOT_TEETH`` =
  4 for slot keys, the comb the signed 5-tooth slot comb replaced (today's
  has 6 teeth: 32 entries against 15).  :func:`unsigned_mult_each` is
  ``mult_each`` over it, and the hot-path bench times the signed engine
  against it (``signed_over_unsigned_slot``) and weighs both engines'
  tables (``*_comb_kb``).
- :func:`jacobian_comb_fill` is the one-table 9-tooth fill before it went
  lock step: general Jacobian additions for the 502 subset sums, one batch
  normalization of all 511 entries.  It is the differential reference for
  :func:`unsigned_build_comb`, and the generator's one-table comb that
  :func:`one_table_generator_mult_each` walks.
- :func:`one_table_generator_mult_each` is the lock step
  ``generator_mult_each`` ran before the generator's comb was cut into
  sub-tables: one unsigned 29-column table, two ``_add_each`` batches a
  column.  The hot-path bench times ``fixed_base_batch`` against it in turns.
- :func:`window_mult_each` is ``mult_each`` before slot keys were combed:
  every point a ladder over its window table, held by the caller or built
  in the call.  The hot-path bench's ``bfe_encrypt_k4_cached`` (tables
  held) and ``bfe_encrypt_k4_fresh_window`` (built in the call) rows
  encrypt through it.
"""

from repro import metering
from repro.crypto import ec

UNSIGNED_TEETH = 9
UNSIGNED_SLOT_TEETH = 4
_STRIDE = ec._comb_stride(UNSIGNED_TEETH)  # 29


def unsigned_build_comb(points, tables=1, teeth=UNSIGNED_TEETH):
    """The unsigned comb of ``tables`` sub-tables of every affine ``Q`` in
    ``points``: ``sub[i][b] = Σ_{j ∈ bits(b)} 2^(c·j + i·w)·Q`` for ``b`` in
    1..2^teeth − 1 and ``sub[i][0] = None`` — one doubling chain a point,
    one normalizing inversion, then each tooth added to every entry below
    it in one lock-step ``_add_each`` batch a tooth."""
    stride, width = ec._comb_stride(teeth), ec._comb_width(tables, teeth)
    exponents = [stride * j + width * i for j in range(teeth) for i in range(tables)]
    steps = [high - low for low, high in zip([0, *exponents], exponents)]
    bases = []
    for x, y in points:
        tooth = (x, y, 1)
        for step in steps:
            tooth = ec._chain([()] * step, tooth)
            bases.append(tooth)
    affine = ec._jac_to_affine_batch(bases)
    combs = [[] for _ in points]
    for i in range(tables):
        subs = [[None] for _ in points]
        for j in range(teeth):
            below = (1 << j) - 1  # the entries tooth j is added to
            tooth_bases = affine[j * tables + i :: teeth * tables]  # one a point
            sums = ec._add_each(
                [entry for sub in subs for entry in sub[1:]],
                [base for base in tooth_bases for _ in range(below)],
            )
            for lane, (sub, base) in enumerate(zip(subs, tooth_bases)):
                sub += [base, *sums[lane * below : (lane + 1) * below]]
        for comb, sub in zip(combs, subs):
            comb.append(sub)
    return combs


def unsigned_teeth(comb):
    """An unsigned comb's tooth count, read off its 2^teeth-entry sub-tables."""
    return len(comb[0]).bit_length() - 1


def unsigned_indices(scalar, teeth):
    """The unsigned table index of every bit position of a reduced scalar,
    lowest position first; 0 where the position's teeth are all zero."""
    stride = ec._comb_stride(teeth)
    bits = format(scalar, f"0{teeth * stride}b")
    return [int(bits[stride - 1 - position :: stride], 2) for position in range(stride)]


def unsigned_columns(columns, indices, comb):
    """Add ``scalar·Q`` for an unsigned-combed ``Q`` to ``columns``: one
    entry from each sub-table whose teeth at a position are not all zero."""
    width = ec._comb_width(len(comb), unsigned_teeth(comb))
    for position, index in enumerate(indices):
        if index:
            columns[~(position % width)] += (comb[position // width][index],)


def unsigned_comb_mult(terms):
    """``Σ sᵢ·Pᵢ`` over ``(indices, comb)`` terms of unsigned combs, in one
    chain as wide as the widest comb."""
    columns = [()] * max(ec._comb_width(len(comb), unsigned_teeth(comb)) for _, comb in terms)
    for indices, comb in terms:
        unsigned_columns(columns, indices, comb)
    return ec._chain(columns)


def unsigned_mult_each(points, scalar, combs):
    """``scalar·P`` for every ``P`` in ``points`` over its unsigned comb
    ``combs[i]``, one index reading and one normalizing inversion for all.
    Meters what ``mult_each`` does."""
    metering.count("ec_mult", len(points))
    scalar %= ec.N
    indices = unsigned_indices(scalar, unsigned_teeth(combs[0]))
    products = [unsigned_comb_mult([(indices, comb)]) for comb in combs]
    return [ec.ECPoint._from_affine(affine) for affine in ec._jac_to_affine_batch(products)]


def jacobian_comb_fill(x, y):
    """``table[b] = Σ_{j ∈ bits(b)} 2^(29j)·(x, y)`` for ``b`` in 1..511."""
    jac = [ec._INFINITY] * (1 << UNSIGNED_TEETH)
    tooth = (x, y, 1)
    for j in range(UNSIGNED_TEETH):
        if j:
            for _ in range(_STRIDE):
                tooth = ec._jac_double(tooth)
        bit = 1 << j
        jac[bit] = tooth
        for lower in range(1, bit):
            jac[bit | lower] = ec._jac_add(jac[lower], tooth)
    return [None] + ec._jac_to_affine_batch(jac[1:])


def one_table_generator_mult_each(scalars, table):
    """``s·G`` for every scalar over ``table``, the generator's one-table
    unsigned comb (:func:`jacobian_comb_fill` of G): at each of the 29
    columns, ``(acc + entry) + acc`` as two ``_add_each`` batches — 58
    shared inversions a call.  Unmetered."""
    sums = [None] * len(scalars)
    lanes = [unsigned_indices(scalar % ec.N, UNSIGNED_TEETH)[::-1] for scalar in scalars]
    for column in zip(*lanes):
        sums = ec._add_each(ec._add_each(sums, [table[index] for index in column]), sums)
    return [ec.ECPoint._from_affine(affine) for affine in sums]


def window_mult_each(points, scalar, tables=None):
    """``scalar·P`` for every finite ``P`` in ``points``, each a 256-doubling
    ladder over its window table — ``tables`` (aligned with ``points``) when
    the caller holds them, else all built in the call in one batch — one
    recoding and one normalizing inversion for all; never builds a comb.
    Meters what ``mult_each`` does."""
    metering.count("ec_mult", len(points))
    if tables is None:
        tables = ec._build_windows([(point.x, point.y) for point in points])
    digits = ec._signed_digits(scalar % ec.N)
    products = []
    for table in tables:
        columns = [()] * ec._LADDER_COLUMNS
        ec._ladder_columns(columns, digits, table)
        products.append(ec._chain(columns))
    return [ec.ECPoint._from_affine(affine) for affine in ec._jac_to_affine_batch(products)]
