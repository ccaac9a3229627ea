"""Prime-field arithmetic on plain ints.

GF(p) has no wrapper type here: an element is an int in ``[0, p)`` and
every helper takes the modulus.  These helpers cover the repo's uses —
Montgomery batch inversion (Jacobian normalization, ECDSA ``s`` values),
a uniform draw and Horner evaluation (the Shamir dealer's polynomial) and
the Lagrange coefficients at zero (Shamir reconstruction weights its shares
by them).
"""

from __future__ import annotations

import secrets
from typing import List, Sequence


# lint: unmetered[inversions are priced inside the callers' metered ops (ec_mult, ecdsa_verify); a new meter op would shift the exact op-count snapshots]
def batch_inverse_mod(values: Sequence[int], modulus: int) -> List[int]:
    """Montgomery's batch-inversion trick: invert ``k`` nonzero residues
    with ONE modular inversion plus ``3(k-1)`` multiplications.

    Results are bit-identical to ``pow(v, -1, modulus)`` per value.
    """
    if not values:
        return []
    prefix: List[int] = [1] * len(values)
    acc = 1
    for i, value in enumerate(values):
        if value % modulus == 0:
            raise ZeroDivisionError("batch inverse of zero residue")
        prefix[i] = acc
        acc = (acc * value) % modulus
    inv = pow(acc, -1, modulus)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = (prefix[i] * inv) % modulus
        inv = (inv * values[i]) % modulus
    return out


def random_element(modulus: int, rng=None) -> int:
    """A uniform element: from ``rng`` (a ``random.Random``, for
    deterministic tests) if given, else from the OS CSPRNG."""
    return secrets.randbelow(modulus) if rng is None else rng.randrange(modulus)


def eval_poly(coeffs: Sequence[int], x: int, modulus: int) -> int:
    """The polynomial with low-to-high ``coeffs`` at ``x`` (Horner)."""
    acc = 0
    for coeff in reversed(coeffs):
        acc = (acc * x + coeff) % modulus
    return acc


# lint: unmetered[Lagrange recombination is field-only work; the paper's cost model meters curve and AE ops, not GF(p) interpolation]
def lagrange_at_zero(xs: Sequence[int], modulus: int) -> List[int]:
    """``λ_i = Π_{j≠i} x_j / (x_j − x_i)``: the weights that take the values
    of a degree-``(k-1)`` polynomial at the ``k`` distinct ``xs`` to its
    value at zero.  The ``k`` denominators share one modular inversion
    (:func:`batch_inverse_mod`), so a recombination costs a single
    ``pow(x, -1, p)`` whatever the threshold."""
    if len({x % modulus for x in xs}) != len(xs):
        raise ValueError("duplicate x-coordinates in interpolation")
    nums: List[int] = []
    dens: List[int] = []
    for i, xi in enumerate(xs):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if i != j:
                num = (num * -xj) % modulus
                den = (den * (xi - xj)) % modulus
        nums.append(num)
        dens.append(den)
    return [(num * inv) % modulus for num, inv in zip(nums, batch_inverse_mod(dens, modulus))]
