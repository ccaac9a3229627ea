"""Security bounds (paper §6.2, Appendix A).

All probabilities are returned in log2 form where underflow is a risk, with
plain-float convenience wrappers for the common parameter ranges.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# §6.2: the log-audit failure bound
# ---------------------------------------------------------------------------
def audit_failure_probability(f_secret: Number, audit_count: int) -> float:
    """Pr[no honest HSM audits a given chunk] ≤ exp((2·f_secret − 1)·C).

    §6.2: with (1 − 2·f_secret)·N honest, participating HSMs each auditing C
    chunks of N, the miss probability per chunk is
    (1 − 1/N)^((1−2f)·N·C) ≤ exp((2f − 1)·C).  At f = 1/16 and C = 128 this
    is 2^-161 < 2^-128.
    """
    f = float(f_secret)
    if not 0 <= f < 0.5:
        raise ValueError("f_secret must be in [0, 0.5) for the bound to hold")
    return math.exp((2 * f - 1) * audit_count)


# ---------------------------------------------------------------------------
# Theorem 9: correctness (fault tolerance)
# ---------------------------------------------------------------------------
def correctness_failure_bound(cluster_size: int, f_live: Number) -> float:
    """Theorem 9's bound: Pr[recovery fails] ≤ C(n, n/2)·f_live^(n/2) ≤ 2^-n/2
    for f_live ≤ 1/8 (the paper instantiates f_live = 1/64, t = n/2)."""
    n = cluster_size
    half = n // 2
    return math.comb(n, half) * float(f_live) ** half


def correctness_failure_exact(cluster_size: int, threshold: int, f_live: Number) -> float:
    """Exact binomial tail: Pr[fewer than t of n sampled HSMs are alive],
    with each HSM failed independently with probability f_live."""
    n, t, f = cluster_size, threshold, float(f_live)
    # Recovery fails iff the number of *live* cluster members is < t.
    return sum(
        math.comb(n, k) * (1 - f) ** k * f ** (n - k) for k in range(0, t)
    )


# ---------------------------------------------------------------------------
# Lemma 8: the cover bound
# ---------------------------------------------------------------------------
def cover_probability_bound(num_hsms: int, cluster_size: int, num_pins: int) -> float:
    """Log2 of Lemma 8's bound on Cover(1/16, 3/n).

    The lemma: for N > e·n and Φ ≤ 2^(n/2), the probability that *some*
    1/16-fraction subset of HSMs n/2-covers more than (3/n)·N of Φ random
    clusters is at most 2^(-N/4).  We evaluate the underlying expression

        2^(N/2) · (Φ·e/(β·N) · (2eα)^(n/2))^(β·N),   α=1/16, β=3/n

    in log2 space so callers can check it for arbitrary parameters; when the
    lemma's preconditions hold this is ≤ −N/4.
    """
    n_hsms, n, phi = num_hsms, cluster_size, num_pins
    alpha = 1.0 / 16.0
    beta = 3.0 / n
    log2_inner = (
        math.log2(phi)
        + math.log2(math.e)
        - math.log2(beta * n_hsms)
        + (n / 2) * math.log2(2 * math.e * alpha)
    )
    return n_hsms / 2 + beta * n_hsms * log2_inner


def theorem10_preconditions_ok(num_hsms: int, cluster_size: int, num_pins: int) -> bool:
    """Lemma 8 / Theorem 10 preconditions: N > e·n and |P| ≤ 2^(n/2)."""
    return num_hsms > math.e * cluster_size and num_pins <= 2 ** (cluster_size / 2)


# ---------------------------------------------------------------------------
# Theorem 10: the security bound
# ---------------------------------------------------------------------------
def security_advantage_bound(
    num_hsms: int,
    cluster_size: int,
    num_pins: int,
    oracle_queries: int = 2**40,
    cdh_advantage: float = 2**-100,
    ae_advantage: float = 2**-100,
) -> float:
    """Theorem 10: LHEncAdv ≤ 2^(−N/4) + N·Q·CDHAdv + 3N/(n·|P|) + AEAdv.

    The dominant, parameter-driven term is 3N/(n·|P|) — the price of
    location hiding over the ideal 1/|P| PIN-guessing bound.
    """
    return (
        2.0 ** (-num_hsms / 4)
        + num_hsms * oracle_queries * cdh_advantage
        + 3.0 * num_hsms / (cluster_size * num_pins)
        + ae_advantage
    )


def security_loss_bits(num_hsms: int, cluster_size: int) -> float:
    """Bits of security lost versus pure PIN guessing (Figure 11's y-axis).

    The attacker's bounded advantage is ≈ 3N/(n·|P|) versus 1/|P| for PIN
    guessing, a ratio of 3N/n:  loss = log2(3N/n).

    Note: evaluating at the paper's N=3,100 gives 7.86 bits at n=40, while
    Figure 11 prints 6.81 — the figure's annotations correspond to N=1,500
    (log2(3·1500/40)=6.81, log2(3·1500/100)=5.49).  The *shape* (−log2(n)
    decay, ~1.3 bits across n=40..100) is identical;
    ``benchmarks/bench_fig11_cluster_size.py`` prints both evaluations.
    """
    return math.log2(3.0 * num_hsms / cluster_size)


def remark5_attack_advantage(
    num_hsms: int, cluster_size: int, num_pins: int, f_secret: Number = Fraction(1, 16)
) -> float:
    """Remark 5's generic attack: corrupt f·N keys ⇒ test (f·N)/n PINs,
    succeeding with probability ≈ f·N/(n·|P|).  Theorem 10 is tight against
    this up to the constant 3/f."""
    return float(f_secret) * num_hsms / (cluster_size * num_pins)


# ---------------------------------------------------------------------------
# Parameter selection (§9.2)
# ---------------------------------------------------------------------------
def minimum_cluster_size(num_pins: int) -> int:
    """Smallest even n with |P| ≤ 2^(n/2) (the Lemma 8 precondition).

    Six-digit PINs (|P| = 10^6) give n = 40, the paper's cluster size; the
    artifact likewise "does not measure cluster sizes less than 40 because
    our analysis shows that our security guarantees begin to break down".
    """
    if num_pins < 2:
        return 2
    n = 2 * math.ceil(math.log2(num_pins))
    return n if n % 2 == 0 else n + 1
