"""NIST P-256 elliptic-curve arithmetic with a layered fast path.

The paper's public-key operations (hashed ElGamal, ECDSA verification in the
Table 7 microbenchmarks, the "g^x/sec" column of Table 2) all run over NIST
P-256.  This module implements the curve from scratch:

- Jacobian-coordinate point addition/doubling (no field inversions on the
  hot path; one inversion to normalize),
- 4-bit fixed-window scalar multiplication,
- SEC1 compressed point (de)serialization,
- key generation and ECDSA sign/verify (RFC 6979-style deterministic nonces).

Scalar multiplication is tiered by how long a point lives and how often it
is multiplied:

- **Comb (provisioned points, the generator included)**: a Lim–Lee comb
  table of 8 teeth x 32 columns (``_build_comb``: 255 affine subset sums of
  ``2^(32j)·Q``, normalized with a single Montgomery batch inversion) turns
  a multiply into 32 doublings + at most 32 mixed additions, and a sum of
  such multiplies into *one* 32-doubling chain (``_comb_mult``).  The
  generator — keygen, hashed ElGamal, ECDSA sign/verify, every HSM decrypt —
  is simply the first provisioned point; its table is built once per
  process on first use.  Any other point gets a table only through an
  explicit :meth:`ECPoint.precompute` at provisioning time (the signer
  directory, via ``MultiSigScheme.precompute_signer_key``): never on reuse,
  and only ever for public keys.
- **Cached per-point windows**: repeated multiplications of any other
  long-lived :class:`ECPoint` (HSM ElGamal keys, BFE slot keys) reuse an
  affine 4-bit window table cached on the instance, skipping the 15-entry
  table rebuild the naive path pays on every call.
- **Per-call window (naive path)**: :func:`naive_mult` keeps the original
  rebuild-the-table-every-call algorithm as the reference/baseline used by
  property tests and ``benchmarks/bench_crypto_hotpath.py``.

:func:`multi_mult` exposes Straus/Shamir multi-scalar multiplication
(``Σ sᵢ·Pᵢ``: one comb chain for the provisioned points, one shared window
chain for the rest), and :meth:`_Curve.ecdsa_verify_batch` verifies many
signatures with one batch inversion to normalize every result.  All
batched paths are bit-for-bit deterministic — they produce exactly the same
accept/reject decisions as the sequential code — and metering is preserved:
``ec_mult``/``ecdsa_verify`` counts for a fixed workload are identical to
the pre-fast-path implementation (the paper's cost accounting must not
drift; only wall-clock changes).

Scalar multiplications report ``ec_mult`` to the ambient meter; this is the
paper's fundamental public-key cost unit (SoloKey: 7.69 ops/sec).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import metering
from repro.crypto.field import batch_inverse_mod
from repro.crypto.hashing import hmac_sha256, sha256

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


def _jac_add_affine(p1: _JPoint, x2: int, y2: int) -> _JPoint:
    """Mixed addition: ``p1 + (x2, y2, 1)``.

    Table entries on the fast paths are pre-normalized to affine (Z = 1),
    which removes four field multiplications per addition versus the general
    Jacobian formula.
    """
    x1, y1, z1 = p1
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = (z1 * z1) % P
    u2 = (x2 * z1sq) % P
    s2 = (y2 * z1sq * z1) % P
    if x1 == u2:
        if y1 != s2:
            return _INFINITY
        return _jac_double(p1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    hsq = (h * h) % P
    hcu = (hsq * h) % P
    nx = (r * r - hcu - 2 * x1 * hsq) % P
    ny = (r * (x1 * hsq - nx) - y1 * hcu) % P
    nz = (h * z1) % P
    return nx, ny, nz


def _jac_to_affine(pt: _JPoint) -> Optional[_Affine]:
    x, y, z = pt
    if z == 0:
        return None
    zinv = pow(z, -1, P)
    zinv2 = (zinv * zinv) % P
    return (x * zinv2) % P, (y * zinv2 * zinv) % P


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


# ---------------------------------------------------------------------------
# Scalar-multiplication engines
# ---------------------------------------------------------------------------
def _jac_mult(pt: _JPoint, scalar: int) -> _JPoint:
    """4-bit fixed-window scalar multiplication (per-call table).

    This is the naive baseline: it rebuilds the 15-entry window table on
    every call.  The fast paths below avoid exactly that rebuild; property
    tests and the hot-path benchmark cross-check against this function.
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


def _build_affine_window(x: int, y: int) -> List[Optional[_Affine]]:
    """Affine 4-bit window table ``[None, P, 2P, ..., 15P]`` for a point.

    The 14 additions run in Jacobian coordinates; one batch inversion then
    normalizes all 15 entries at once so every later window addition is a
    cheap mixed add.  (Multiples 1..15 of a point of prime order N are never
    infinity.)
    """
    jac: List[_JPoint] = [(x, y, 1)]
    for _ in range(14):
        jac.append(_jac_add_affine(jac[-1], x, y))
    return [None] + _jac_to_affine_batch(jac)  # type: ignore[list-item]


def _window_mult(table: Sequence[Optional[_Affine]], scalar: int) -> _JPoint:
    """Left-to-right 4-bit window multiply over a pre-built affine table."""
    result = _INFINITY
    nibbles: List[int] = []
    while scalar:
        nibbles.append(scalar & 0xF)
        scalar >>= 4
    for window in reversed(nibbles):
        result = _jac_double(_jac_double(_jac_double(_jac_double(result))))
        if window:
            entry = table[window]
            result = _jac_add_affine(result, entry[0], entry[1])  # type: ignore[index]
    return result


# -- Lim–Lee comb for provisioned points ----------------------------------------
# 8 teeth x 32 columns: a 256-bit scalar is read as eight 32-bit blocks laid
# one above the other, and column i's eight bits index the table entry to
# add after the i-th doubling.  (The shape follows from the curve: 256-bit
# scalars, byte-sized column indices.)
_COMB_TEETH = 8
_COMB_COLUMNS = 32


def _build_comb(x: int, y: int) -> List[Optional[_Affine]]:
    """Comb table for the affine point ``Q = (x, y)``:
    ``table[b] = Σ_{j ∈ bits(b)} 2^(32j)·Q`` for ``b`` in 1..255.

    224 doublings raise the eight tooth bases, 247 additions fill the
    subset sums, and one Montgomery batch inversion normalizes all 255
    entries to affine so every later addition is a mixed add.  No entry is
    infinity: a subset sum of ``2^(32j)`` is below ``2^256 < 2N`` and never
    equals ``N``, and ``Q`` has prime order ``N``.

    The table holds multiples of a *public* point only.
    """
    jac: List[_JPoint] = [_INFINITY] * (1 << _COMB_TEETH)
    tooth: _JPoint = (x, y, 1)
    for j in range(_COMB_TEETH):
        if j:
            for _ in range(_COMB_COLUMNS):
                tooth = _jac_double(tooth)
        bit = 1 << j
        jac[bit] = tooth
        for lower in range(1, bit):
            jac[bit | lower] = _jac_add(jac[lower], tooth)
    return [None] + _jac_to_affine_batch(jac[1:])  # type: ignore[operator]


def _comb_mult(terms: Sequence[Tuple[int, Sequence[Optional[_Affine]]]]) -> _JPoint:
    """``Σ sᵢ·Pᵢ`` over ``(scalar, comb table)`` terms in ONE 32-column chain.

    Scalars must be below ``2^256``.  Each column costs one shared doubling
    plus at most one mixed addition per term: 32 doublings for the whole
    sum, against 256 for a windowed walk over any one of the points.
    """
    # Written MSB-first, a scalar's bits at stride 32 are one column's teeth
    # (top tooth first), so each column index is one slice and one parse.
    columns = range(_COMB_COLUMNS)
    chains = []
    for scalar, table in terms:
        bits = format(scalar, "0256b")
        chains.append((table, [int(bits[c::_COMB_COLUMNS], 2) for c in columns]))
    acc = _INFINITY
    for column in columns:
        acc = _jac_double(acc)
        for table, indices in chains:
            index = indices[column]
            if index:
                entry = table[index]
                acc = _jac_add_affine(acc, entry[0], entry[1])  # type: ignore[index]
    return acc


def _is_generator(x: Optional[int], y: Optional[int]) -> bool:
    return x == GX and y == GY


def _multi_mult_jac(pairs: Sequence[Tuple[int, "ECPoint"]]) -> _JPoint:
    """Straus/Shamir interleaved multi-scalar multiply (no metering).

    Scalars are assumed reduced mod N and nonzero, points non-infinity.
    Every term whose point carries a comb table (the generator, provisioned
    signer keys) joins one 32-doubling comb chain; the remaining points
    share a single 4-bit window doubling chain, each contributing one mixed
    addition per nonzero scalar digit.
    """
    combed: List[Tuple[int, Sequence[Optional[_Affine]]]] = []
    others: List[Tuple[int, Sequence[Optional[_Affine]]]] = []
    for scalar, point in pairs:
        comb = point._comb_table()
        if comb is not None:
            combed.append((scalar, comb))
        else:
            others.append((scalar, point._window_table()))
    result = _comb_mult(combed) if combed else _INFINITY
    if others:
        top = max(scalar.bit_length() for scalar, _ in others)
        positions = (top + 3) // 4
        acc = _INFINITY
        for pos in range(positions - 1, -1, -1):
            acc = _jac_double(_jac_double(_jac_double(_jac_double(acc))))
            shift = 4 * pos
            for scalar, table in others:
                window = (scalar >> shift) & 0xF
                if window:
                    entry = table[window]
                    acc = _jac_add_affine(acc, entry[0], entry[1])  # type: ignore[index]
        result = _jac_add(result, acc)
    return result


class ECPoint:
    """An affine point on P-256 (or the point at infinity).

    Instances lazily cache an affine 4-bit window table (``_wtab``) the
    first time they are scalar-multiplied, so repeated multiplications of
    the same long-lived point — HSM ElGamal keys, BFE slot keys — skip the
    per-call table rebuild.  A point that was explicitly :meth:`precompute`d
    (a provisioned signer key) carries a comb table (``_comb``) instead and
    multiplies with 32 doublings rather than 256; the generator's
    coordinates always resolve to the one comb held by ``P256.generator``.
    Both caches are keyed on the instance; equality/hashing ignore them.
    """

    __slots__ = ("x", "y", "_wtab", "_comb")

    def __init__(self, x: Optional[int], y: Optional[int]) -> None:
        self.x = x
        self.y = y
        self._wtab: Optional[List[Optional[_Affine]]] = None
        self._comb: Optional[List[Optional[_Affine]]] = None
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

    def _window_table(self) -> List[Optional[_Affine]]:
        """The cached per-point window table (built on first use).

        A benign race between threads builds identical tables; the single
        attribute assignment keeps the cache consistent either way.
        """
        table = self._wtab
        if table is None:
            table = _build_affine_window(self.x, self.y)  # type: ignore[arg-type]
            self._wtab = table
        return table

    def _comb_table(self) -> Optional[List[Optional[_Affine]]]:
        """This point's comb table, or ``None`` if it was never provisioned.

        Every instance with the generator's coordinates shares the one
        table built (on first use) for ``P256.generator``.  A benign race
        between threads builds identical tables.
        """
        if self._comb is None and _is_generator(self.x, self.y):
            P256.generator.precompute()
            self._comb = P256.generator._comb
        return self._comb

    # lint: unmetered[table build over a public key; verification meters ecdsa_verify]
    def precompute(self) -> None:
        """Build this point's comb table (idempotent; ~two verifications'
        worth of work, ~40 KB).

        Promotion is explicit: call it only at provisioning time for a
        *public* key that will be verified against every epoch (the signer
        directory).  Nothing promotes a point on reuse — a device holds
        hundreds of BFE slot keys, and a table for each would cost hundreds
        of MB for keys that are each used a handful of times.
        """
        if self._comb is None and not self.is_infinity:
            self._comb = _build_comb(self.x, self.y)  # type: ignore[arg-type]

    @staticmethod
    def _from_jac(pt: _JPoint) -> "ECPoint":
        affine = _jac_to_affine(pt)
        if affine is None:
            return ECPoint(None, None)
        return ECPoint(affine[0], affine[1])

    def __add__(self, other: "ECPoint") -> "ECPoint":
        return ECPoint._from_jac(_jac_add(self._jac(), other._jac()))

    def __neg__(self) -> "ECPoint":
        if self.is_infinity:
            return self
        return ECPoint(self.x, (-self.y) % P)  # type: ignore[operator]

    def __sub__(self, other: "ECPoint") -> "ECPoint":
        return self + (-other)

    def _mult_jac(self, scalar: int) -> _JPoint:
        """Unmetered scalar multiply choosing the fastest applicable path."""
        scalar %= N
        if scalar == 0 or self.is_infinity:
            return _INFINITY
        comb = self._comb_table()
        if comb is not None:
            return _comb_mult([(scalar, comb)])
        return _window_mult(self._window_table(), scalar)

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


def naive_mult(point: ECPoint, scalar: int) -> ECPoint:
    """The pre-fast-path algorithm: per-call window table, no caching.

    Kept as the reference implementation for property tests and as the
    baseline ``benchmarks/bench_crypto_hotpath.py`` measures speedups
    against.  Reports ``ec_mult`` exactly like ``point * scalar``.
    """
    metering.count("ec_mult")
    return ECPoint._from_jac(_jac_mult(point._jac(), scalar))


def multi_mult(pairs: Sequence[Tuple[int, ECPoint]], count_ops: bool = True) -> ECPoint:
    """Straus/Shamir multi-scalar multiplication: ``Σ sᵢ·Pᵢ`` in one pass.

    Provisioned points (the generator included) share one 32-doubling comb
    chain and all other points a single window doubling chain, so ``k``
    multiplications cost roughly one multiplication plus ``k`` addition
    streams instead of ``k`` full multiplications.  The result is
    bit-for-bit the same point the ``k`` separate multiplications would
    sum to.

    Metering: reports one ``ec_mult`` per pair (matching what the ``k``
    separate ``P * s`` calls would have reported) unless ``count_ops`` is
    False — internal callers that never metered per-multiplication, like
    ``ecdsa_verify``, pass False to keep the paper's cost model exact.
    """
    if count_ops and pairs:
        metering.count("ec_mult", len(pairs))
    live = [
        (scalar % N, point)
        for scalar, point in pairs
        if scalar % N != 0 and not point.is_infinity
    ]
    if not live:
        return ECPoint(None, None)
    return ECPoint._from_jac(_multi_mult_jac(live))


# Batched verification processes triples this many at a time: big enough to
# amortize the shared normalization, small enough that a bad aggregate can
# only waste one chunk of work past its first invalid signature.
_VERIFY_CHUNK = 8


class _Curve:
    """The P-256 group object: generator, order, key generation, ECDSA."""

    def __init__(self) -> None:
        self.p = P
        self.a = A
        self.b = B
        self.n = N
        self.generator = ECPoint(GX, GY)
        self.infinity = ECPoint(None, None)

    # -- keys ---------------------------------------------------------------
    def random_scalar(self, rng=None) -> int:
        if rng is None:
            return 1 + secrets.randbelow(self.n - 1)
        return rng.randrange(1, self.n)

    def keygen(self, rng=None) -> "ECKeyPair":
        sk = self.random_scalar(rng)
        return ECKeyPair(secret=sk, public=self.generator * sk)

    def hash_to_point(self, data: bytes) -> ECPoint:
        """Try-and-increment hash onto the curve (used for commitments)."""
        counter = 0
        while True:
            digest = sha256(b"p256-h2c", data, counter.to_bytes(4, "big"))
            candidate = b"\x02" + digest
            try:
                return ECPoint.from_bytes(candidate)
            except ValueError:
                counter += 1

    # -- ECDSA ----------------------------------------------------------------
    def ecdsa_sign(self, secret: int, message: bytes) -> Tuple[int, int]:
        """Deterministic ECDSA (RFC 6979-flavoured nonce derivation).

        The per-signature ``g^k`` rides the generator's comb.
        """
        z = int.from_bytes(sha256(b"ecdsa", message), "big") % self.n
        k_seed = hmac_sha256(secret.to_bytes(32, "big"), sha256(b"nonce", message))
        k = (int.from_bytes(k_seed, "big") % (self.n - 1)) + 1
        while True:
            point = self.generator * k
            r = point.x % self.n  # type: ignore[union-attr]
            if r == 0:
                k = (k + 1) % self.n or 1
                continue
            s = (pow(k, -1, self.n) * (z + r * secret)) % self.n
            if s == 0:
                k = (k + 1) % self.n or 1
                continue
            return r, s

    def _ecdsa_candidate(
        self, public: ECPoint, message: bytes, signature: Tuple[int, int]
    ) -> Optional[Tuple[int, _JPoint]]:
        """Shared verification core: ``(r, u1·G + u2·Q)`` in Jacobian form,
        or ``None`` for a signature that is not a pair of plain ints in
        ``[1, n)`` (it arrives from the untrusted provider: a malformed one
        is a rejection, not an exception).

        ``u1·G`` and a provisioned ``Q`` share one comb chain, any other
        ``Q`` walks its cached window; neither reports ``ec_mult``
        (verification has always metered only ``ecdsa_verify``)."""
        if not (
            isinstance(signature, (tuple, list))
            and len(signature) == 2
            and type(signature[0]) is int
            and type(signature[1]) is int
        ):
            return None
        r, s = signature
        if not (1 <= r < self.n and 1 <= s < self.n):
            return None
        z = int.from_bytes(sha256(b"ecdsa", message), "big") % self.n
        w = pow(s, -1, self.n)
        u1 = (z * w) % self.n
        u2 = (r * w) % self.n
        # Zero scalars and the identity point contribute nothing (u·∞ = ∞);
        # dropping them here keeps an attacker-supplied infinity "public
        # key" on the returns-False path instead of crashing the verifier.
        pairs = [
            (u, pt)
            for u, pt in ((u1, self.generator), (u2, public))
            if u and not pt.is_infinity
        ]
        return r, (_multi_mult_jac(pairs) if pairs else _INFINITY)

    def ecdsa_verify(self, public: ECPoint, message: bytes, signature: Tuple[int, int]) -> bool:
        metering.count("ecdsa_verify")
        candidate = self._ecdsa_candidate(public, message, signature)
        if candidate is None:
            return False
        r, pt = candidate
        affine = _jac_to_affine(pt)
        if affine is None:
            return False
        return affine[0] % self.n == r

    def _verify_chunk(
        self, items: Sequence[Tuple[ECPoint, bytes, Tuple[int, int]]]
    ) -> List[bool]:
        """Unmetered batch core: verdicts for a slice of triples, with all
        result points normalized by ONE Montgomery batch inversion."""
        candidates = [self._ecdsa_candidate(*item) for item in items]
        points = [cand[1] for cand in candidates if cand is not None]
        normalized = iter(_jac_to_affine_batch(points))
        results: List[bool] = []
        for cand in candidates:
            if cand is None:
                results.append(False)
                continue
            affine = next(normalized)
            results.append(affine is not None and affine[0] % self.n == cand[0])
        return results

    def ecdsa_verify_batch(
        self, items: Sequence[Tuple[ECPoint, bytes, Tuple[int, int]]]
    ) -> List[bool]:
        """Verify many ``(public, message, signature)`` triples at once.

        All result points are normalized with ONE Montgomery batch inversion
        instead of one inversion per signature.  The outcome list is
        bit-for-bit what sequential :meth:`ecdsa_verify` calls would return.

        Metering mirrors a sequential short-circuiting caller: one
        ``ecdsa_verify`` per item up to and including the first failure
        (a modeled device stops checking there), so fixed-workload counts
        are unchanged.  Callers that only need the conjunction should use
        :meth:`ecdsa_verify_all`, which also stops *computing* early.
        """
        results = self._verify_chunk(items)
        checked = len(results)
        for index, ok in enumerate(results):
            if not ok:
                checked = index + 1
                break
        if checked:
            metering.count("ecdsa_verify", checked)
        return results

    def ecdsa_verify_all(
        self, items: Sequence[Tuple[ECPoint, bytes, Tuple[int, int]]]
    ) -> bool:
        """True iff every triple verifies; stops at the first failure.

        Triples are processed in chunks of ``_VERIFY_CHUNK``: the honest
        all-valid path pays one batch inversion per chunk (the inversion is
        microseconds; the scalar multiplications dominate), while a rejected
        aggregate costs at most one chunk of wasted candidate computations
        beyond the failing signature — the sequential loop's early-abort cost bound, up to a
        constant — instead of paying for all N.  Metering is exactly the
        sequential short-circuit: one ``ecdsa_verify`` per triple up to and
        including the first failure.
        """
        checked = 0
        for start in range(0, len(items), _VERIFY_CHUNK):
            for ok in self._verify_chunk(items[start : start + _VERIFY_CHUNK]):
                checked += 1
                if not ok:
                    metering.count("ecdsa_verify", checked)
                    return False
        if checked:
            metering.count("ecdsa_verify", checked)
        return True


@dataclass(frozen=True)
class ECKeyPair:
    """A P-256 keypair; ``secret`` is an integer scalar, ``public`` a point."""

    secret: int
    public: ECPoint


# The module-level singleton everyone imports.
P256 = _Curve()
