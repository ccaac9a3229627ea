"""BLS12-381 pairing-friendly curve, from scratch.

The paper's distributed log aggregates HSM signatures with BLS-style
multisignatures "over the JEDI implementation of the BLS12-381 curve" (§9).
This module supplies the algebra: the base field Fq, extension tower
Fq2/Fq12 (via a generic polynomial-extension field), the G1 and G2 curve
groups, hash-to-G1 with cofactor clearing, and the optimal-ate pairing
(Miller loop + naive final exponentiation).

The implementation follows the standard textbook/py_ecc structure.  It is
slow (a pairing takes on the order of a second in CPython) but the protocol
only verifies one aggregate signature per log epoch, and performance claims
in the benchmarks come from the cost model, not from timing this code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro import metering
from repro.crypto.hashing import sha256

# Base field modulus and subgroup order.
Q = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
R = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001

# BLS parameter: the Miller loop count |x| (x itself is negative).
ATE_LOOP_COUNT = 0xD201000000010000
LOG_ATE_LOOP_COUNT = 62

# G1 cofactor (clears torsion after hashing onto the curve).
H1 = 0x396C8C005555E1568C00AAAB0000AAAB


class Fq:
    """The prime field GF(Q)."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n % Q

    def __add__(self, other):
        return Fq(self.n + _val(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Fq(self.n - _val(other))

    def __rsub__(self, other):
        return Fq(_val(other) - self.n)

    def __mul__(self, other):
        return Fq(self.n * _val(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Fq(_val(other)).inv()

    def __pow__(self, e: int):
        return Fq(pow(self.n, e, Q))

    def __neg__(self):
        return Fq(-self.n)

    def inv(self) -> "Fq":
        if self.n == 0:
            raise ZeroDivisionError("inverse of 0 in Fq")
        return Fq(pow(self.n, -1, Q))

    def __eq__(self, other) -> bool:
        if isinstance(other, Fq):
            return self.n == other.n
        if isinstance(other, int):
            return self.n == other % Q
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Fq", self.n))

    def __repr__(self) -> str:
        return f"Fq({self.n:#x})"

    @staticmethod
    def one() -> "Fq":
        return Fq(1)

    @staticmethod
    def zero() -> "Fq":
        return Fq(0)


def _val(x) -> int:
    if isinstance(x, Fq):
        return x.n
    if isinstance(x, int):
        return x
    raise TypeError(f"cannot coerce {type(x)} into Fq")


def _poly_div_rounded(a: List[int], b: List[int]) -> List[int]:
    """Polynomial division over GF(Q) returning the quotient (py_ecc style)."""
    deg_a, deg_b = _deg(a), _deg(b)
    temp = list(a)
    out = [0] * len(a)
    for i in range(deg_a - deg_b, -1, -1):
        if _deg(temp) < deg_b + i:
            continue
        factor = temp[deg_b + i] * pow(b[deg_b], -1, Q) % Q
        out[i] = factor
        for c in range(deg_b + 1):
            temp[c + i] = (temp[c + i] - b[c] * factor) % Q
    return out[: _deg(out) + 1]


def _deg(p: Sequence[int]) -> int:
    d = len(p) - 1
    while d and p[d] == 0:
        d -= 1
    return d


class FqP:
    """Generic polynomial extension field GF(Q^degree).

    Elements are coefficient vectors modulo ``modulus_coeffs`` (which encode
    the minimal polynomial ``x^degree - sum_i modulus_coeffs[i] x^i``...
    precisely: ``x^degree = -sum_i modulus_coeffs[i] x^i``).
    Subclasses fix the degree and modulus; Fq2 and Fq12 below.
    """

    degree = 0
    modulus_coeffs: Tuple[int, ...] = ()

    def __init__(self, coeffs: Sequence[Union[int, Fq]]) -> None:
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients")
        self.coeffs: List[int] = [_val(c) % Q for c in coeffs]

    # -- ring operations ---------------------------------------------------
    def _wrap(self, coeffs: List[int]) -> "FqP":
        return type(self)(coeffs)

    def __add__(self, other: "FqP") -> "FqP":
        return self._wrap([(a + b) % Q for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "FqP") -> "FqP":
        return self._wrap([(a - b) % Q for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "FqP":
        return self._wrap([(-a) % Q for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fq)):
            v = _val(other)
            return self._wrap([(a * v) % Q for a in self.coeffs])
        b = [0] * (self.degree * 2 - 1)
        for i, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(other.coeffs):
                b[i + j] = (b[i + j] + ca * cb) % Q
        # Reduce modulo the minimal polynomial.
        for exp in range(self.degree * 2 - 2, self.degree - 1, -1):
            top = b[exp]
            if top == 0:
                continue
            b[exp] = 0
            for i, mc in enumerate(self.modulus_coeffs):
                b[exp - self.degree + i] = (b[exp - self.degree + i] - top * mc) % Q
        return self._wrap(b[: self.degree])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fq)):
            return self * pow(_val(other), -1, Q)
        return self * other.inv()

    def __pow__(self, e: int) -> "FqP":
        result = self.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "FqP":
        """Extended-Euclid inversion over the polynomial ring."""
        lm, hm = [1] + [0] * self.degree, [0] * (self.degree + 1)
        low = self.coeffs + [0]
        high = list(self.modulus_coeffs) + [1]
        while _deg(low):
            r = _poly_div_rounded(high, low)
            r += [0] * (self.degree + 1 - len(r))
            nm = list(hm)
            new = list(high)
            for i in range(self.degree + 1):
                for j in range(self.degree + 1 - i):
                    nm[i + j] = (nm[i + j] - lm[i] * r[j]) % Q
                    new[i + j] = (new[i + j] - low[i] * r[j]) % Q
            lm, low, hm, high = nm, new, lm, low
        inv_low0 = pow(low[0], -1, Q)
        return self._wrap([(c * inv_low0) % Q for c in lm[: self.degree]])

    # -- misc -----------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.coeffs})"

    @classmethod
    def one(cls) -> "FqP":
        return cls([1] + [0] * (cls.degree - 1))

    @classmethod
    def zero(cls) -> "FqP":
        return cls([0] * cls.degree)


class Fq2(FqP):
    """GF(Q^2) = Fq[u]/(u^2 + 1)."""

    degree = 2
    modulus_coeffs = (1, 0)

    def conjugate(self) -> "Fq2":
        return Fq2([self.coeffs[0], (-self.coeffs[1]) % Q])


class Fq12(FqP):
    """GF(Q^12) = Fq[w]/(w^12 - 2 w^6 + 2)."""

    degree = 12
    modulus_coeffs = (2, 0, 0, 0, 0, 0, -2 % Q, 0, 0, 0, 0, 0)

    def conjugate(self) -> "Fq12":
        # The map w -> -w (an order-2 Galois automorphism): negate odd coeffs.
        return Fq12([c if i % 2 == 0 else (-c) % Q for i, c in enumerate(self.coeffs)])


# -- curve points -------------------------------------------------------------
# Affine points as (x, y) tuples over any of the fields; None = infinity.
Point = Optional[Tuple[object, object]]

B1 = Fq(4)
B2 = Fq2([4, 4])

G1_GEN: Point = (
    Fq(0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB),
    Fq(0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1),
)
G2_GEN: Point = (
    Fq2([
        0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
        0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
    ]),
    Fq2([
        0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
        0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
    ]),
)


def is_on_curve(pt: Point, b) -> bool:
    if pt is None:
        return True
    x, y = pt
    return y * y - x * x * x == b  # type: ignore[operator]


def double(pt: Point) -> Point:
    if pt is None:
        return None
    x, y = pt
    # No 2-torsion on BLS12-381 (both group orders are odd), so y != 0 here.
    m = (3 * x * x) / (2 * y)  # type: ignore[operator]
    newx = m * m - 2 * x  # type: ignore[operator]
    newy = -m * newx + m * x - y  # type: ignore[operator]
    return (newx, newy)


def add(p1: Point, p2: Point) -> Point:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and y1 == y2:
        return double(p1)
    if x1 == x2:
        return None
    m = (y2 - y1) / (x2 - x1)  # type: ignore[operator]
    newx = m * m - x1 - x2  # type: ignore[operator]
    newy = -m * newx + m * x1 - y1  # type: ignore[operator]
    return (newx, newy)


def neg(pt: Point) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (x, -y)  # type: ignore[operator]


def multiply(pt: Point, n: int) -> Point:
    n %= R
    if n == 0 or pt is None:
        return None
    result: Point = None
    addend = pt
    while n:
        if n & 1:
            result = add(result, addend)
        addend = double(addend)
        n >>= 1
    return result


def eq(p1: Point, p2: Point) -> bool:
    return p1 == p2


# -- serialization (uncompressed, internal format) -----------------------------
def g1_to_bytes(pt: Point) -> bytes:
    if pt is None:
        return b"\x00"
    x, y = pt
    return b"\x01" + x.n.to_bytes(48, "big") + y.n.to_bytes(48, "big")  # type: ignore[union-attr]


def g1_from_bytes(data: bytes) -> Point:
    if data == b"\x00":
        return None
    if len(data) != 97 or data[0] != 1:
        raise ValueError("malformed G1 encoding")
    pt = (Fq(int.from_bytes(data[1:49], "big")), Fq(int.from_bytes(data[49:], "big")))
    if not is_on_curve(pt, B1):
        raise ValueError("G1 point not on curve")
    return pt


def g2_to_bytes(pt: Point) -> bytes:
    if pt is None:
        return b"\x00"
    x, y = pt
    out = b"\x01"
    for coeff in x.coeffs + y.coeffs:  # type: ignore[union-attr]
        out += coeff.to_bytes(48, "big")
    return out


def g2_from_bytes(data: bytes) -> Point:
    if data == b"\x00":
        return None
    if len(data) != 193 or data[0] != 1:
        raise ValueError("malformed G2 encoding")
    vals = [int.from_bytes(data[1 + 48 * i : 49 + 48 * i], "big") for i in range(4)]
    pt = (Fq2(vals[:2]), Fq2(vals[2:]))
    if not is_on_curve(pt, B2):
        raise ValueError("G2 point not on curve")
    return pt


# -- hash to G1 -----------------------------------------------------------------
def hash_to_g1(message: bytes, domain: bytes = b"bls-sig") -> Point:
    """Try-and-increment hash onto the r-order subgroup of G1."""
    counter = 0
    while True:
        digest = sha256(domain, message, counter.to_bytes(4, "big"))
        digest2 = sha256(domain, b"second", message, counter.to_bytes(4, "big"))
        x = Fq(int.from_bytes(digest + digest2, "big"))
        rhs = x * x * x + B1
        y = rhs ** ((Q + 1) // 4)  # Q ≡ 3 (mod 4)
        if y * y == rhs:
            pt = (x, y)
            cleared = multiply(pt, H1)
            if cleared is not None:
                return cleared
        counter += 1


# -- pairing --------------------------------------------------------------------
_W = Fq12([0, 1] + [0] * 10)
_W2 = _W * _W
_W3 = _W2 * _W


def twist(pt: Point) -> Point:
    """Map a G2 point (over Fq2) into the curve over Fq12 (the sextic twist)."""
    if pt is None:
        return None
    x, y = pt
    xc = [(x.coeffs[0] - x.coeffs[1]) % Q, x.coeffs[1]]  # type: ignore[union-attr]
    yc = [(y.coeffs[0] - y.coeffs[1]) % Q, y.coeffs[1]]  # type: ignore[union-attr]
    nx = Fq12([xc[0]] + [0] * 5 + [xc[1]] + [0] * 5)
    ny = Fq12([yc[0]] + [0] * 5 + [yc[1]] + [0] * 5)
    # BLS12-381 uses an M-type twist: untwisting divides by powers of w.
    return (nx / _W2, ny / _W3)


def cast_g1_to_fq12(pt: Point) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (
        Fq12([x.n] + [0] * 11),  # type: ignore[union-attr]
        Fq12([y.n] + [0] * 11),  # type: ignore[union-attr]
    )


def _linefunc(p1: Point, p2: Point, t: Point) -> Fq12:
    x1, y1 = p1  # type: ignore[misc]
    x2, y2 = p2  # type: ignore[misc]
    xt, yt = t  # type: ignore[misc]
    if x1 != x2:
        m = (y2 - y1) / (x2 - x1)
        return m * (xt - x1) - (yt - y1)
    if y1 == y2:
        m = (3 * x1 * x1) / (2 * y1)
        return m * (xt - x1) - (yt - y1)
    return xt - x1


def miller_loop(q_t: Point, p_t: Point) -> Fq12:
    """Optimal-ate Miller loop over twisted/cast points (no final exp)."""
    if q_t is None or p_t is None:
        return Fq12.one()
    r_pt = q_t
    f = Fq12.one()
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = f * f * _linefunc(r_pt, r_pt, p_t)
        r_pt = double(r_pt)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _linefunc(r_pt, q_t, p_t)
            r_pt = add(r_pt, q_t)
    # The BLS parameter x is negative: conjugate the Miller output.
    return f.conjugate()


def final_exponentiate(f: Fq12) -> Fq12:
    return f ** ((Q**12 - 1) // R)


def _pairing_compute(p: Point, q: Point) -> Fq12:
    if not is_on_curve(p, B1):
        raise ValueError("P not on G1")
    if not is_on_curve(q, B2):
        raise ValueError("Q not on G2")
    return final_exponentiate(miller_loop(twist(q), cast_g1_to_fq12(p)))


# Memoize the (pure, deterministic) pairing computation.  In the simulated
# fleet every HSM verifies the same aggregate signature each log epoch; the
# cache collapses those N identical evaluations to one while the op meter
# still charges each HSM for its own pairing.
_PAIRING_CACHE: dict = {}
_PAIRING_CACHE_MAX = 512


def pairing(p: Point, q: Point) -> Fq12:
    """e(P, Q) for P in G1, Q in G2 (reporting one ``pairing`` op)."""
    metering.count("pairing")
    if p is None or q is None:
        return Fq12.one()
    key = (g1_to_bytes(p), g2_to_bytes(q))
    cached = _PAIRING_CACHE.get(key)
    if cached is None:
        cached = _pairing_compute(p, q)
        if len(_PAIRING_CACHE) >= _PAIRING_CACHE_MAX:
            _PAIRING_CACHE.clear()
        _PAIRING_CACHE[key] = cached
    return cached
