"""NIST P-256 elliptic-curve arithmetic with a layered fast path.

The paper's public-key operations (hashed ElGamal, signature verification
in the Table 7 microbenchmarks, the "g^x/sec" column of Table 2) all run
over NIST P-256.  This module implements the curve from scratch:

- Jacobian-coordinate point addition/doubling (no field inversions on the
  hot path; one inversion to normalize),
- scalar multiplication, tiered as below,
- SEC1 compressed point (de)serialization,
- key generation and the Schnorr check ``s·G = R + c·X``
  (:meth:`_Curve.schnorr_verify`, one key) under the log's certificates,
  whose key sum :func:`combed_sum` combs once per signer set; the signing
  rounds are ``repro.log.distributed.SchnorrMultiSig``'s.

Every fast multiply of one scalar is ONE loop, :func:`_chain` — Horner over
columns, ``acc = 2·acc + Σ column`` — and a tier is only a way of laying a
scalar out in columns of table entries; many scalars over one comb run the
same Horner steps side by side (the lock step below).  The tiers follow how
long a point lives and how often it is multiplied.  Two comb shapes exist,
the generator's and the small one; every other point runs on a ladder:

- **Generator comb**: a zero-free signed Lim–Lee comb of 10 teeth over
  26 bit positions (``_build_comb``: 512 affine sums ``2^234·G ±
  2^(26j)·G …``, their negations read free) turns a multiply into 25
  doublings + exactly 26 mixed additions (``_comb_mult``).  A comb is a
  list of such sub-tables, the i-th scaled by ``2^(i·w)``, ``w = ⌈26/S⌉``,
  so S of them cut the chain to w columns with the same additions.  The
  generator — keygen, hashed ElGamal, signing nonces and the certificate
  check, every HSM decrypt — has ``_GENERATOR_COMB_TABLES`` (5) of them:
  5 doublings a multiply, for a comb built once per process on first use.
- **Small comb (slot keys, aggregate keys)**: a BFE slot key is
  multiplied by a fresh r in every ciphertext whose tag hashes to its slot
  (a backup series under one salt hashes every backup to the same k
  slots).  :func:`mult_each`, which only BFE encryption calls, multiplies
  through combs alone: a point it meets without one gets at once a
  one-table signed comb of ``_SLOT_COMB_TEETH`` (6) teeth over 43 bit
  positions — 32 affine entries, 215 doublings and 31 fill additions to
  build, a call's missing combs in one batch — and every multiply is 42
  doublings + 43 mixed additions instead of 256 + 43.  A signer set's
  aggregate key ``X_S`` gets the same comb from :func:`combed_sum` (≈ 6 KB
  a device and lane; a 10-tooth one would hold 0.09 MB).  ``P * s`` and
  Straus sums never build one, so a one-off point — an HSM-side
  ephemeral, a response key, a signer key — never pays.
- **Signed-window ladder (every other point)**: the scalar is recoded into
  width-5 signed digits (``_signed_digits``: odd, |d| <= 15, at least five
  positions apart) over the 8 odd multiples ``Q, 3Q, ..., 15Q`` — 256
  doublings + ~43 mixed additions.  The table is built in the call and
  dies with it: every point the protocol multiplies by a ladder is a
  one-off (an HSM-side ephemeral, a response key) or rarely multiplied (a
  signer key: its proof of possession once, a bad share's check), and the
  points it multiplies again carry combs.  Tables hold multiples of the
  point only; the recoded digits of a (possibly secret) scalar are locals
  of the call.
- **Lock step (many scalars over the generator — a device's m slot
  keys)**: :func:`generator_mult_each` walks the generator's comb for all
  scalars at once.  A column is up to S + 1 batched affine additions,
  ``(acc + entry) + acc`` and then one entry from each further sub-table
  (:func:`_add_each`: six field multiplications a lane, against 8 for the
  chain's doubling and 11 for each mixed addition), and all lanes of a
  batch share ONE Montgomery inversion — nothing else: no lane's
  arithmetic sees another's, so each result is bit-for-bit the
  single-scalar chain's, already affine.  It pays from
  ``_LOCKSTEP_MIN_LANES`` scalars up (an inversion is about 50
  multiplications here, and a column costs S + 1); ladders, whose step is
  a doubling alone, would need about 50 lanes and are not run this way.
  ``_build_comb`` fills its signed sums a sub-table the same way.  No
  new table: the lock step reads the comb that is already there —
  multiples of a public point only — and the column indices of the
  (secret) scalars are locals of the call, dead when it returns.
- **Reference**: :func:`naive_mult` keeps the original 4-bit fixed-window,
  rebuild-the-table-every-call algorithm (``_jac_mult``) as the baseline
  used by property tests and ``benchmarks/bench_crypto_hotpath.py``.

:func:`multi_mult` exposes Straus/Shamir multi-scalar multiplication
(``Σ sᵢ·Pᵢ``: every term's columns merged into one chain, a comb's
columns riding the chain's last 43 or w steps), :func:`mult_each`
multiplies many points by one scalar (one comb reading per tooth count,
one batch build of the missing combs and one batch inversion for the
results — a BFE ciphertext's k slot keys),
:func:`generator_mult_each` the generator by many scalars (above), and
:meth:`_Curve.schnorr_verify` — the one verification entry, over one key —
checks a certificate as one Straus sum, ``s·G`` and ``−c·X_S`` over the
aggregate key's comb (``−c·Xᵢ`` on a ladder, for a proof of possession or
one signer's share), compared with ``R`` without an inversion.  All batched
paths are bit-for-bit deterministic — they produce exactly the same points
and accept/reject decisions as the sequential code — and metering is
preserved: ``ec_mult`` counts for a fixed workload are identical to the
pre-fast-path implementation, and a verification is one ``ecdsa_verify``
(the paper's cost accounting must not drift; only wall-clock changes).

Scalar multiplications report ``ec_mult`` to the ambient meter; this is the
paper's fundamental public-key cost unit (SoloKey: 7.69 ops/sec).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import metering
from repro.core.codec import Codec, Reader, WireFormatError, converted
from repro.crypto.field import batch_inverse_mod

# NIST P-256 domain parameters (FIPS 186-4, D.1.2.3).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_JPoint = Tuple[int, int, int]  # Jacobian (X, Y, Z); Z == 0 is infinity
_Affine = Tuple[int, int]
_INFINITY: _JPoint = (1, 1, 0)


def _jac_double(pt: _JPoint) -> _JPoint:
    x, y, z = pt
    if z == 0 or y == 0:
        return _INFINITY
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    # a = -3, so 3x² + a·z⁴ = 3(x - z²)(x + z²): three field mults, not six.
    zsq = (z * z) % P
    m = (3 * (x - zsq) * (x + zsq)) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return nx, ny, nz


def _jac_add(p1: _JPoint, p2: _JPoint) -> _JPoint:
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _jac_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hsq = (h * h) % P
    hcu = (hsq * h) % P
    nx = (r * r - hcu - 2 * u1 * hsq) % P
    ny = (r * (u1 * hsq - nx) - s1 * hcu) % P
    nz = (h * z1 * z2) % P
    return nx, ny, nz


def _jac_to_affine_batch(points: Sequence[_JPoint]) -> List[Optional[_Affine]]:
    """Normalize many Jacobian points with ONE field inversion.

    Montgomery's batch-inversion trick: invert the product of all Z values,
    then unwind per-element inverses with two multiplications each.  Points
    at infinity come back as ``None``.
    """
    zs = [pt[2] for pt in points if pt[2] != 0]
    if not zs:
        return [None] * len(points)
    inverses = iter(batch_inverse_mod(zs, P))
    out: List[Optional[_Affine]] = []
    for x, y, z in points:
        if z == 0:
            out.append(None)
            continue
        zinv = next(inverses)
        zinv2 = (zinv * zinv) % P
        out.append(((x * zinv2) % P, (y * zinv2 * zinv) % P))
    return out


def _add_each(
    lefts: Sequence[Optional[_Affine]], rights: Sequence[Optional[_Affine]]
) -> List[Optional[_Affine]]:
    """``lefts[i] + rights[i]`` for every lane, affine in and affine out,
    all lanes sharing ONE field inversion.

    A lane's sum needs the slope of its chord — of its tangent, where both
    sides are the same point — and the slopes' denominators are inverted
    together (:func:`batch_inverse_mod`): six field multiplications per
    addition, against eleven for a mixed Jacobian addition plus the
    normalization afterwards.  Lanes share nothing but that inversion; each
    result is bit-for-bit the point the Jacobian formulas normalize to.

    Infinity is ``None``.  A lane with an infinity on either side is read
    off (``∞ + Q = Q``) and the others ride the batch.  A pair of inverse
    points is the one zero denominator: it sends the whole batch down the
    general formulas, normalized together by :func:`_jac_to_affine_batch`,
    and does not occur in a comb build (see :func:`_build_comb`) or in the
    lock step of a scalar not built for it (:func:`generator_mult_each`).
    """
    p = P
    if None in lefts or None in rights:
        sums = [right if left is None else left for left, right in zip(lefts, rights)]
        finite = [
            lane
            for lane, (left, right) in enumerate(zip(lefts, rights))
            if left is not None and right is not None
        ]
        added = _add_each([lefts[lane] for lane in finite], [rights[lane] for lane in finite])
        for lane, point in zip(finite, added):
            sums[lane] = point
        return sums
    # (numerator, denominator) of each lane's slope.  The same point: a = -3
    # makes the tangent 3(x² - 1) / 2y.  Inverse points: y1 + y2 = p, the
    # zero residue the batch inversion refuses.
    slopes = [
        (y2 - y1, x2 - x1) if x1 != x2 else (3 * (x1 * x1 - 1), y1 + y2)
        for (x1, y1), (x2, y2) in zip(lefts, rights)  # type: ignore[misc]
    ]
    try:
        inverses = batch_inverse_mod([denominator for _, denominator in slopes], p)
    except ZeroDivisionError:
        return _jac_to_affine_batch([
            _jac_add((*left, 1), (*right, 1))  # type: ignore[misc]
            for left, right in zip(lefts, rights)
        ])
    sums = []
    for (x1, y1), (x2, _), (numerator, _), inverse in zip(lefts, rights, slopes, inverses):  # type: ignore[misc]
        slope = numerator * inverse % p
        x3 = (slope * slope - x1 - x2) % p
        sums.append((x3, (slope * (x1 - x3) - y1) % p))
    return sums


# ---------------------------------------------------------------------------
# Scalar-multiplication engines
# ---------------------------------------------------------------------------
def _jac_mult(pt: _JPoint, scalar: int) -> _JPoint:
    """4-bit fixed-window scalar multiplication (per-call table).

    This is the naive baseline and the reference: it rebuilds a 15-entry
    window table on every call and shares no loop with the fast paths
    below; property tests and the hot-path benchmark cross-check against it.
    """
    scalar %= N
    if scalar == 0:
        return _INFINITY
    # Precompute 1..15 multiples of pt.
    table = [_INFINITY, pt]
    for _ in range(14):
        table.append(_jac_add(table[-1], pt))
    result = _INFINITY
    for shift in range(scalar.bit_length() + (4 - scalar.bit_length() % 4) % 4 - 4, -1, -4):
        for _ in range(4):
            result = _jac_double(result)
        window = (scalar >> shift) & 0xF
        if window:
            result = _jac_add(result, table[window])
    return result


# -- the one chain ---------------------------------------------------------------
# A column is the tuple of affine points to add at one power of two; a list
# of columns is written most significant first and read from its right-hand
# end, so ``columns[~i]`` is the column of ``2^i`` whatever the list's length.
_Column = Tuple[_Affine, ...]


def _chain(columns: Sequence[Sequence[_Affine]], start: _JPoint = _INFINITY) -> _JPoint:
    """Horner over columns, most significant first: ``acc = 2·acc + Σ column``,
    from ``acc = start``.

    Every fast scalar multiply in this module is this loop over columns a
    builder laid out (:func:`_comb_columns`, :func:`_ladder_columns`), and
    :func:`_build_comb` raises its tooth bases with it over empty columns.  The
    a = −3 doubling and the mixed addition are written out on local
    integers, so a step costs no call and no tuple.  An addition that meets
    the accumulator's own x-coordinate — the column holds the accumulator
    or its negation — is handed to :func:`_jac_add`, which doubles or
    returns infinity; an accumulator at infinity (leading empty columns,
    or just after such a cancellation) skips its doubling and restarts from
    the next point.
    """
    p = P
    x, y, z = start
    for column in columns:
        if z:
            ysq = y * y % p
            s = 4 * x * ysq % p
            zsq = z * z % p
            m = 3 * (x - zsq) * (x + zsq) % p
            z = 2 * y * z % p
            x = (m * m - 2 * s) % p
            y = (m * (s - x) - 8 * ysq * ysq) % p
        for x2, y2 in column:
            if not z:
                x, y, z = x2, y2, 1
                continue
            zsq = z * z % p
            h = (x2 * zsq - x) % p
            if not h:
                x, y, z = _jac_add((x, y, z), (x2, y2, 1))
                continue
            r = (y2 * zsq % p * z - y) % p
            hsq = h * h % p
            v = x * hsq % p
            hcu = hsq * h % p
            x = (r * r - hcu - 2 * v) % p
            y = (r * (v - x) - y * hcu) % p
            z = h * z % p
    return x, y, z


# -- signed-window ladder for every other point --------------------------------
# Width-5 signed digits (wNAF): every non-zero digit is odd with |d| <= 15, and
# any two are at least five positions apart, so a 256-bit scalar costs ~43
# additions from a table of the 8 odd multiples P, 3P, ..., 15P.  The top
# digit can carry one position past the scalar's own length.
_WINDOW = 5
_DIGIT_MODULUS = 1 << _WINDOW
_WINDOW_ENTRIES = _DIGIT_MODULUS >> 2
_LADDER_COLUMNS = 257


def _signed_digits(scalar: int) -> List[Tuple[int, int]]:
    """``(position, digit)`` pairs with ``scalar = Σ digit·2^position``,
    lowest position first."""
    digits: List[Tuple[int, int]] = []
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar % _DIGIT_MODULUS
        if digit > _DIGIT_MODULUS >> 1:
            digit -= _DIGIT_MODULUS
        digits.append((position, digit))
        scalar = (scalar - digit) >> _WINDOW
        position += _WINDOW
    return digits


def _build_windows(points: Sequence[_Affine]) -> List[List[_Affine]]:
    """Window tables ``[Q, 3Q, ..., 15Q]`` for each affine ``Q``: one
    doubling and seven additions per point, then ONE batch inversion for
    every entry of every table.  (An odd multiple below 16 of a point of
    prime order N is never infinity.)  Tables hold multiples of the point
    alone — nothing here depends on a scalar."""
    jac: List[_JPoint] = []
    for x, y in points:
        entry: _JPoint = (x, y, 1)
        twice = _jac_double(entry)
        jac.append(entry)
        for _ in range(_WINDOW_ENTRIES - 1):
            entry = _jac_add(entry, twice)
            jac.append(entry)
    flat = _jac_to_affine_batch(jac)
    return [
        flat[i : i + _WINDOW_ENTRIES]  # type: ignore[misc]
        for i in range(0, len(flat), _WINDOW_ENTRIES)
    ]


# -- Lim–Lee combs ------------------------------------------------------------------
# A comb of t teeth reads a scalar as t blocks of c = ⌈256/t⌉ bits laid one
# above the other, bit p of every block together making the column of 2^p.
# The combs here are zero-free and signed (Hedabou, Pinel & Bénéteau, ISPEC
# 2005): an odd scalar k < 2^L, L = t·c, is Σ d_i·2^i with every digit ±1
# (d_i = 2·b_i − 1 over the bits b_i of B = (k >> 1) + 2^(L−1)), and an even
# one is the negation of the odd N − k (every bit of its B complemented).
# So every column adds exactly one entry: its t-bit index, top tooth first,
# reads T[idx & half] when the top tooth's digit is +1 and −T[~idx & half]
# otherwise (half = 2^(t−1) − 1), where
#   T[m] = 2^(c(t−1))·Q + Σ_{j<t−1} ±2^(cj)·Q   (+ where bit j of m is set)
# — 2^(t−1) entries, the negations free.  A multiply is c columns of one
# entry, c − 1 doublings, and the table of t teeth holds one entry more
# than an unsigned comb of t − 1 teeth (2^(t−1) − 1 subset sums): one tooth
# more at about the same memory.  A comb of S sub-tables cuts the c positions
# into S runs of w = ⌈c/S⌉: sub-table i is the same sums scaled by 2^(i·w),
# so a multiply is w columns of S entries (fewer in the last run) — w
# doublings instead of c.  Two shapes are built.  The generator, built once
# per process and multiplied by everything, has _GENERATOR_COMB_TABLES
# sub-tables of _COMB_TEETH = 10 teeth x 26 bits, 512 entries each (≈ 0.46 MB
# under tracemalloc).  A slot key :func:`mult_each` meets, and an aggregate
# key :func:`combed_sum` makes, gets the small comb: _SLOT_COMB_TEETH = 6
# teeth x 43 bits, one table of 32 entries (≈ 6.0 KB, against a window
# table's 1.5 KB), 42 doublings a multiply.
_COMB_TEETH = 10
_SLOT_COMB_TEETH = 6
_GENERATOR_COMB_TABLES = 5

_Comb = List[List[_Affine]]  # the sub-tables, 2^(teeth − 1) entries each


def _comb_stride(teeth: int) -> int:
    """The bit positions a tooth spans: ⌈256 / teeth⌉ (26 for 10, 43 for 6)."""
    return -(-256 // teeth)


def _comb_width(tables: int, teeth: int) -> int:
    """The columns of a comb of ``tables`` sub-tables: ⌈stride / tables⌉."""
    return -(-_comb_stride(teeth) // tables)


def _comb_teeth(comb: _Comb) -> int:
    """A comb's tooth count, read off its 2^(teeth − 1)-entry sub-tables."""
    return len(comb[0]).bit_length()


def _build_comb(points: Sequence[_Affine], tables: int, teeth: int) -> List[_Comb]:
    """The comb of ``tables`` sub-tables of ``teeth`` teeth of every affine
    ``Q`` in ``points``: ``sub[i][m] = 2^(i·w)·(B_top + Σ_{j<teeth−1} ±B_j)``,
    ``B_j = 2^(c·j)·Q``, the sign of ``B_j`` that of bit ``j`` of ``m``,
    ``c = _comb_stride(teeth)``, ``w = _comb_width(tables, teeth)`` — the
    generator's and an aggregate key's as batches of one, a
    :func:`mult_each` call's missing slot-key combs as one batch.

    One :func:`_chain` of doublings per point raises every tooth base and
    the double of every base below the top one, in order of their exponent
    (c·(teeth − 1) + (tables − 1)·w doublings: 234 + … for 10 teeth, 215
    for 6); each sub-table's first entry is ``B_top − Σ B_j``, and ONE
    inversion normalizes those entries and every point's doubled bases.
    Then, a sub-table at a time, ``sub[m | 2^j] = sub[m] + 2·B_j`` for
    each lower tooth j in turn, every point's lanes in one lock-step batch
    (:func:`_add_each`: 511 affine additions a point on nine shared
    inversions at 10 teeth, 31 on five at 6), so the entries are affine as
    they are made.  (Filling all sub-tables in the same batches saves a few
    inversions but holds S tables' worth of working lists at once: ≈ 0.25
    MB more peak resident at S = 5.)  Lanes share only the inversions, so a
    comb is bit-for-bit its point's alone.  No entry is infinity and no
    batch adds inverse points: ``Q`` has prime order ``N`` and no signed
    sum of the exponents is a multiple of ``N``
    (``tests/test_ec_fastpath.py`` checks every entry).

    The sub-tables hold multiples of *public* points only.
    """
    stride, width = _comb_stride(teeth), _comb_width(tables, teeth)
    top = stride * (teeth - 1)
    exponents = sorted(
        {top + width * i for i in range(tables)}
        | {stride * j + width * i + d for j in range(teeth - 1) for i in range(tables) for d in (0, 1)}
    )
    rows: List[_JPoint] = []  # per point and sub-table: sub[i][0], then each 2·B_j
    for x, y in points:
        raised: Dict[int, _JPoint] = {}
        tooth: _JPoint = (x, y, 1)
        for low, high in zip([0, *exponents], exponents):
            tooth = raised[high] = _chain([()] * (high - low), tooth)
        for i in range(tables):
            first = raised[top + width * i]
            for j in range(teeth - 1):
                bx, by, bz = raised[stride * j + width * i]
                first = _jac_add(first, (bx, P - by, bz))
            rows.append(first)
            rows += [raised[stride * j + width * i + 1] for j in range(teeth - 1)]
    affine = _jac_to_affine_batch(rows)
    combs: List[_Comb] = [[] for _ in points]
    for i in range(tables):
        lanes = [  # sub-table i's row of each point
            affine[start : start + teeth] for start in range(i * teeth, len(affine), tables * teeth)
        ]
        subs = [[row[0]] for row in lanes]
        for j in range(teeth - 1):
            sums = _add_each(
                [entry for sub in subs for entry in sub],
                [row[1 + j] for row in lanes for _ in range(1 << j)],
            )
            subs = [sub + sums[lane << j : (lane + 1) << j] for lane, sub in enumerate(subs)]
        for comb, sub in zip(combs, subs):
            comb.append(sub)
    return combs


def _is_generator(x: Optional[int], y: Optional[int]) -> bool:
    return x == GX and y == GY


# -- column builders ---------------------------------------------------------------
def _comb_indices(scalar: int, teeth: int) -> List[int]:
    """The table index of every bit position of a reduced, non-zero scalar
    under a signed comb of ``teeth`` teeth, lowest position first: index
    ``p`` gathers bit ``p`` of every tooth of the recoded ``B`` — an odd
    scalar's ``(k >> 1) + 2^(L−1)``, an even one's the complement of
    ``N − k``'s — and is never "no entry" (:func:`_comb_entry` reads it).
    Written MSB-first over L = teeth·c bits, the bits at stride c are one
    position's teeth, top tooth first, so an index is one slice and one
    parse.  Position ``p`` reads sub-table ``p // w`` in column ``p % w``
    — one layout for every shape.  The indices depend on the scalar and
    the tooth count only, so one reading serves every comb of that count
    (a :func:`mult_each` call's k slot keys); they are locals of the call."""
    stride = _comb_stride(teeth)
    length = teeth * stride
    if scalar & 1:
        recoded = (scalar >> 1) | (1 << (length - 1))
    else:
        recoded = ((N - scalar) >> 1) ^ ((1 << (length - 1)) - 1)
    bits = format(recoded, f"0{length}b")
    return [int(bits[stride - 1 - position :: stride], 2) for position in range(stride)]


def _comb_entry(sub: Sequence[_Affine], index: int) -> _Affine:
    """The point a :func:`_comb_indices` index adds from a signed sub-table
    of ``len(sub)`` = 2^(teeth − 1) entries: ``sub[idx & half]`` when the
    top tooth's bit is set, else ``−sub[~idx & half]``."""
    half = len(sub) - 1
    if index > half:
        return sub[index & half]
    x, y = sub[~index & half]
    return x, P - y


def _comb_columns(columns: List[_Column], indices: Sequence[int], comb: _Comb) -> None:
    """Add ``scalar·Q`` for a combed ``Q`` to ``columns``, the scalar given
    as its :func:`_comb_indices` for ``comb``'s tooth count: in each of the
    last ``w`` columns, one entry from each sub-table."""
    width = _comb_width(len(comb), _comb_teeth(comb))
    for position, index in enumerate(indices):
        columns[~(position % width)] += (_comb_entry(comb[position // width], index),)


def _ladder_columns(
    columns: List[_Column], digits: Sequence[Tuple[int, int]], table: Sequence[_Affine]
) -> None:
    """Add ``(Σ digit·2^position)·Q`` to ``columns`` from ``Q``'s window
    table: the entry ``|digit|·Q``, negated for a negative digit, in the
    column of each digit's position."""
    for position, digit in digits:
        if digit > 0:
            columns[~position] += (table[digit >> 1],)
        else:
            x, y = table[-digit >> 1]
            columns[~position] += ((x, P - y),)


def _comb_mult(terms: Sequence[Tuple[Sequence[int], _Comb]]) -> _JPoint:
    """``Σ sᵢ·Pᵢ`` over ``(indices, comb)`` terms — each scalar as its
    :func:`_comb_indices` — in ONE chain as wide as the widest comb: 43
    columns for a sum with a 6-tooth comb in it, w for the generator's
    sub-tables alone, plus one mixed addition per bit position of each
    term, against 256 doublings for a ladder over any one point."""
    columns: List[_Column] = [()] * max(
        _comb_width(len(comb), _comb_teeth(comb)) for _, comb in terms
    )
    for indices, comb in terms:
        _comb_columns(columns, indices, comb)
    return _chain(columns)


def _multi_mult_jac(pairs: Sequence[Tuple[int, "ECPoint"]]) -> _JPoint:
    """Straus/Shamir interleaved multi-scalar multiply (no metering).

    Scalars are assumed reduced mod N and nonzero, points non-infinity.
    When every point carries a comb (the generator, slot keys, aggregate
    keys) the sum is one comb chain.  Otherwise it is one ladder
    chain: each remaining point lays its signed digits over a window table
    built in the call (all of them in one :func:`_build_windows` batch),
    and the comb columns ride the ladder's last steps.
    """
    combed = []
    laddered = []
    for scalar, point in pairs:
        comb = point._comb_table()
        if comb is not None:
            combed.append((_comb_indices(scalar, _comb_teeth(comb)), comb))
        else:
            laddered.append((scalar, point))
    if not laddered:
        return _comb_mult(combed)
    columns: List[_Column] = [()] * _LADDER_COLUMNS
    for indices, comb in combed:
        _comb_columns(columns, indices, comb)
    windows = _build_windows([(point.x, point.y) for _, point in laddered])  # type: ignore[misc]
    for (scalar, _), table in zip(laddered, windows):
        _ladder_columns(columns, _signed_digits(scalar), table)
    return _chain(columns)


class ECPoint:
    """An affine point on P-256 (or the point at infinity).

    A point carries a one-table 6-tooth signed comb (``_comb``) when it
    was met by :func:`mult_each` (a BFE slot key: 42 doublings rather than
    256) or made by :func:`combed_sum` (a signer set's aggregate key); the
    generator's coordinates always resolve to the one comb of
    ``_GENERATOR_COMB_TABLES`` sub-tables held by ``P256.generator``.
    Nothing else is cached: ``P * s`` and Straus sums over a comb-less
    point leave it as it was.  A comb holds multiples of the (public)
    point only and is keyed on the instance; equality/hashing ignore it.
    """

    __slots__ = ("x", "y", "_comb")

    def __init__(self, x: Optional[int], y: Optional[int]) -> None:
        self.x = x
        self.y = y
        self._comb: Optional[_Comb] = None
        if x is not None:
            if not (0 <= x < P and 0 <= y < P):  # type: ignore[operator]
                raise ValueError("coordinates out of range")
            if (y * y - (x * x * x + A * x + B)) % P != 0:  # type: ignore[operator]
                raise ValueError("point is not on P-256")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _jac(self) -> _JPoint:
        if self.is_infinity:
            return _INFINITY
        return (self.x, self.y, 1)  # type: ignore[return-value]

    def _comb_table(self) -> Optional[_Comb]:
        """This point's comb, or ``None`` if it has none.

        Every instance with the generator's coordinates shares the one
        comb of ``P256.generator``, built on first use (a benign race
        between threads builds identical ones).
        """
        if self._comb is None and _is_generator(self.x, self.y):
            generator = P256.generator
            if generator._comb is None:
                (generator._comb,) = _build_comb([(GX, GY)], _GENERATOR_COMB_TABLES, _COMB_TEETH)
            self._comb = generator._comb
        return self._comb

    @staticmethod
    def _from_affine(affine: Optional[_Affine]) -> "ECPoint":
        if affine is None:
            return ECPoint(None, None)
        return ECPoint(affine[0], affine[1])

    @staticmethod
    def _from_jac(pt: _JPoint) -> "ECPoint":
        return ECPoint._from_affine(_jac_to_affine_batch([pt])[0])

    # lint: unmetered[a point addition is not a priced op; it reaches the engines only through the shared normalization, _jac_to_affine_batch]
    def __add__(self, other: "ECPoint") -> "ECPoint":
        return ECPoint._from_jac(_jac_add(self._jac(), other._jac()))

    def __neg__(self) -> "ECPoint":
        if self.is_infinity:
            return self
        return ECPoint(self.x, (-self.y) % P)  # type: ignore[operator]

    def __sub__(self, other: "ECPoint") -> "ECPoint":
        return self + (-other)

    def _mult_jac(self, scalar: int) -> _JPoint:
        """Unmetered scalar multiply: a one-term Straus sum."""
        scalar %= N
        if scalar == 0 or self.is_infinity:
            return _INFINITY
        return _multi_mult_jac([(scalar, self)])

    def __mul__(self, scalar: int) -> "ECPoint":
        metering.count("ec_mult")
        return ECPoint._from_jac(self._mult_jac(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ECPoint) and self.x == other.x and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "ECPoint(infinity)"
        return f"ECPoint(x={self.x:#x})"

    # -- SEC1 compressed serialization --------------------------------------
    def to_bytes(self) -> bytes:
        if self.is_infinity:
            return b"\x00"
        prefix = b"\x03" if self.y & 1 else b"\x02"  # type: ignore[operator]
        return prefix + self.x.to_bytes(32, "big")  # type: ignore[union-attr]

    @staticmethod
    def from_bytes(data: bytes) -> "ECPoint":
        if data == b"\x00":
            return ECPoint(None, None)
        if len(data) != 33 or data[0] not in (2, 3):
            raise ValueError("malformed compressed point")
        x = int.from_bytes(data[1:], "big")
        rhs = (pow(x, 3, P) + A * x + B) % P
        y = pow(rhs, (P + 1) // 4, P)  # P ≡ 3 (mod 4)
        if (y * y) % P != rhs:
            raise ValueError("x-coordinate not on curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return ECPoint(x, y)


def _sec1(reader: Reader) -> bytes:
    """A compressed point's bytes, as many as its prefix says."""
    prefix = reader.take(1)
    if prefix == b"\x00":
        return prefix
    if prefix in (b"\x02", b"\x03"):
        return prefix + reader.take(32)
    raise WireFormatError(f"unknown point prefix {prefix[0]}")


#: A point on the wire: its strict SEC1 encoding, with no length, since
#: the prefix delimits it — ``0x00`` is the identity's one byte (carried,
#: and refused by the opener), ``0x02`` or ``0x03`` is followed by the
#: 32-byte x, and any other prefix is refused.
POINT = converted(Codec(lambda data: data, _sec1), ECPoint.to_bytes, ECPoint.from_bytes)


def is_curve_point(value) -> bool:
    """Is ``value`` a finite point of P-256?  For points that arrive from an
    untrusted party: an :class:`ECPoint` built through its constructor
    always is one when finite, but one assembled another way need not be,
    and this check never raises on it."""
    if not isinstance(value, ECPoint):
        return False
    x, y = getattr(value, "x", None), getattr(value, "y", None)
    if type(x) is not int or type(y) is not int:
        return False
    try:
        ECPoint(x, y)  # the constructor's range and curve checks
    except ValueError:
        return False
    return True


# lint: unmetered[a point addition is not a priced op; the sum reaches the engines only through one normalization]
def point_sum(points: Sequence[ECPoint]) -> ECPoint:
    """``Σ Pᵢ`` (the identity for none): Jacobian additions and one
    normalization, against one inversion an addition for ``P + Q``."""
    total = _INFINITY
    for point in points:
        total = _jac_add(total, point._jac())
    return ECPoint._from_jac(total)


# lint: unmetered[table build over a sum of public keys; the check that uses it meters ecdsa_verify]
def combed_sum(points: Sequence[ECPoint]) -> ECPoint:
    """``Σ Pᵢ`` with its own one-table comb of ``_SLOT_COMB_TEETH`` teeth:
    a signer set's aggregate key ``X_S``, made once per set so that a
    certificate check is one 43-column chain over ``s·G`` and ``−c·X_S``
    whatever the set's size (≈ 1.1–1.5 ms and ≈ 6 KB to build).  The identity
    — no points, or a sum that cancels — carries no comb.

    A 6-tooth comb, not the generator's 10-tooth shape: a device holds one
    aggregate key per lane, and 0.09 MB for each would cost several MB a
    fleet for ≈ 0.2 ms a check.  The comb holds multiples of the (public)
    sum only.
    """
    total = point_sum(points)
    if not total.is_infinity:
        (total._comb,) = _build_comb([(total.x, total.y)], 1, _SLOT_COMB_TEETH)  # type: ignore[list-item]
    return total


def naive_mult(point: ECPoint, scalar: int) -> ECPoint:
    """The pre-fast-path algorithm: per-call window table, no caching.

    Kept as the reference implementation for property tests and as the
    baseline ``benchmarks/bench_crypto_hotpath.py`` measures speedups
    against.  Reports ``ec_mult`` exactly like ``point * scalar``.
    """
    metering.count("ec_mult")
    return ECPoint._from_jac(_jac_mult(point._jac(), scalar))


def multi_mult(pairs: Sequence[Tuple[int, ECPoint]]) -> ECPoint:
    """Straus/Shamir multi-scalar multiplication: ``Σ sᵢ·Pᵢ`` in one pass.

    All terms share ONE doubling chain — the generator's 6 columns when it
    is the only point, 43 when every point is combed and a 6-tooth comb
    takes part, the ladder's 257 otherwise — so
    ``k`` multiplications cost roughly one multiplication plus ``k``
    addition streams instead of ``k`` full multiplications.  The result is
    bit-for-bit the same point the ``k`` separate multiplications would
    sum to.

    Metering: one ``ec_mult`` per pair, what the ``k`` separate ``P * s``
    calls would have reported.
    """
    if pairs:
        metering.count("ec_mult", len(pairs))
    live = [
        (scalar % N, point)
        for scalar, point in pairs
        if scalar % N != 0 and not point.is_infinity
    ]
    if not live:
        return ECPoint(None, None)
    return ECPoint._from_jac(_multi_mult_jac(live))


def mult_each(points: Sequence[ECPoint], scalar: int) -> List[ECPoint]:
    """``scalar·P`` for every ``P`` in ``points``: one scalar, many points —
    Bloom-filter encryption's ``pkᵢ^r`` over a tag's k slot keys of each
    of its n recipients.

    Every product is a comb chain.  A finite point without a comb — a slot
    key's first multiply — gets one of ``_SLOT_COMB_TEETH`` teeth on the
    spot (215 doublings and 31 fill additions to build; then 42 doublings
    + 43 additions a multiply instead of a ladder's 256 + ≈ 43), all of a
    call's missing combs in one :func:`_build_comb` batch, one for each
    distinct instance however often it is listed.  (The same tier
    serves a signer set's aggregate key, combed by :func:`combed_sum`.)
    The scalar is read into comb indices once per tooth count and the
    results are normalized by ONE batch inversion.  Each result is
    bit-for-bit ``P * scalar``; an identity point or a zero scalar yields
    the identity (a zero scalar has no signed comb reading).

    Metering: one ``ec_mult`` per point, exactly what the separate
    multiplications report.
    """
    if points:
        metering.count("ec_mult", len(points))
    scalar %= N
    # One comb per instance: a device named twice in a cluster lists its
    # slot keys twice, and both entries read the comb built once.
    missing = list({
        id(point): point for point in points if not point.is_infinity and point._comb_table() is None
    }.values())
    if missing:
        built = _build_comb([(p.x, p.y) for p in missing], 1, _SLOT_COMB_TEETH)  # type: ignore[misc]
        for point, comb in zip(missing, built):
            point._comb = comb
    indices: Dict[int, List[int]] = {}  # by tooth count
    products: List[_JPoint] = []
    for point in points:
        comb = point._comb
        if comb is None or not scalar:  # the identity, or a zero scalar
            products.append(_INFINITY)
            continue
        teeth = _comb_teeth(comb)
        if teeth not in indices:
            indices[teeth] = _comb_indices(scalar, teeth)
        products.append(_comb_mult([(indices[teeth], comb)]))
    return [ECPoint._from_affine(affine) for affine in _jac_to_affine_batch(products)]


def generator_mult_each(scalars: Sequence[int]) -> List[ECPoint]:
    """``s·G`` for every ``s`` in ``scalars``: one point, many scalars.

    This is a device generating its Bloom-filter key — a ``g^x`` per slot.
    The generator's comb is read in lock step: at each of its w columns
    every lane adds its first sub-table's entry and then what it held
    before, ``(acc + entry) + acc = 2·acc + entry``, then each further
    sub-table's entry — one :func:`_add_each` batch per bit position plus
    one per column, shared inversions for the whole batch (32 at 10 teeth
    and S = 5: 26 positions over 6 columns, against 35 over the unsigned
    9-tooth comb's five sub-tables and 58 over its one 29-column table), no
    doubling formula, and results that are affine as they come.  A lane with a zero scalar adds
    infinities, and one that has not started holds one; the batch reads
    them off.  A lane's partial sums are signed sums of powers of two in
    the exponent, never a multiple of ``N`` for a scalar that is not built
    to make one, and :func:`_add_each` stays exact even then.  Each result
    is bit-for-bit ``G * s``; a batch shorter than ``_LOCKSTEP_MIN_LANES``
    simply runs the single-scalar chain per scalar.  The column indices of
    the (secret) scalars are locals of the call, as the recoded digits of a
    ladder are.

    Metering: one ``ec_mult`` per scalar, exactly what the separate
    multiplications report.
    """
    if scalars:
        metering.count("ec_mult", len(scalars))
    generator = P256.generator
    if len(scalars) < _LOCKSTEP_MIN_LANES:
        return [ECPoint._from_jac(generator._mult_jac(scalar)) for scalar in scalars]
    comb: _Comb = generator._comb_table()  # type: ignore[assignment]
    width = _comb_width(len(comb), _COMB_TEETH)
    lanes = [_comb_indices(scalar % N, _COMB_TEETH) if scalar % N else None for scalar in scalars]
    sums: List[Optional[_Affine]] = [None] * len(scalars)
    for column in range(width - 1, -1, -1):
        held = sums
        for position in range(column, _comb_stride(_COMB_TEETH), width):  # one per sub-table
            sub = comb[position // width]
            sums = _add_each(
                sums,
                [None if indices is None else _comb_entry(sub, indices[position]) for indices in lanes],
            )
            if position == column:
                sums = _add_each(sums, held)  # (acc + entry) + acc = 2·acc + entry
    return [ECPoint._from_affine(affine) for affine in sums]


# :func:`generator_mult_each` walks the comb in lock step from this many
# scalars up.  Below it a column's S + 1 shared inversions (an inversion is
# about 50 field multiplications here) cost more than the affine formulas
# save: the crossover ``benchmarks/bench_crypto_hotpath.py`` measures (8
# lanes 0.92–0.96×, 10 lanes 1.03–1.06× the single-scalar chain over the
# same signed comb).
_LOCKSTEP_MIN_LANES = 10


class _Curve:
    """The P-256 group object: generator, order, key generation, the
    Schnorr check."""

    def __init__(self) -> None:
        self.p = P
        self.a = A
        self.b = B
        self.n = N
        self.generator = ECPoint(GX, GY)

    # -- keys ---------------------------------------------------------------
    def random_scalar(self, rng=None) -> int:
        if rng is None:
            return 1 + secrets.randbelow(self.n - 1)
        return rng.randrange(1, self.n)

    def keygen(self, rng=None) -> "ECKeyPair":
        sk = self.random_scalar(rng)
        return ECKeyPair(secret=sk, public=self.generator * sk)

    # -- Schnorr verification -------------------------------------------------
    def schnorr_verify(self, public: ECPoint, challenge: int, nonce: ECPoint, s: int) -> bool:
        """Does ``s·G = R + c·X`` hold, for ``R = nonce`` and ``X =
        public``?  The one verification entry: a log certificate (``X`` is
        its signer set's aggregate key), a proof of possession and one
        signer's share (``X`` is one signer key).

        ``s·G`` and ``−c·X`` are one Straus sum: one 43-column comb chain
        over an aggregate key from :func:`combed_sum`, whatever the signer
        count, and a ladder over a signer key, which carries no comb.  The
        sum is compared with ``R`` in Jacobian coordinates, so no inversion
        runs.  ``nonce`` must be a finite curve point
        (:func:`is_curve_point`); ``s`` arrives from an untrusted party, and
        one outside ``[1, n)`` or not an int is a rejection, never an
        exception.

        Metering: one ``ecdsa_verify`` (the cost model's verification).
        """
        metering.count("ecdsa_verify")
        if not (type(s) is int and 1 <= s < self.n) or public.is_infinity:
            return False
        c = challenge % self.n
        pairs = [(s, self.generator)]
        if c:
            pairs.append((self.n - c, public))
        x, y, z = _multi_mult_jac(pairs)
        if z == 0:
            return False
        zsq = z * z % P
        return x == nonce.x * zsq % P and y == nonce.y * zsq * z % P  # type: ignore[operator]


@dataclass(frozen=True)
class ECKeyPair:
    """A P-256 keypair; ``secret`` is an integer scalar, ``public`` a point."""

    secret: int
    public: ECPoint


# The module-level singleton everyone imports.
P256 = _Curve()
