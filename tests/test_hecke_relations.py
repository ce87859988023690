"""The SL(2,Z) preset against the Hecke relations (ROADMAP item 9, second check).

With lambda(n) = total(k, n) / sqrt(n), the trace of T_n on S_k over
n^((k-1)/2), the preset's totals must satisfy the relations of the Hecke
algebra (Serre, *A Course in Arithmetic*, ch. VII 5):

* where dim S_k = 1 (k = 12, 16, 18, 20, 22, 26), lambda(mn) =
  lambda(m) lambda(n) for coprime m and n, and lambda(p^2) = lambda(p)^2 - 1;
* at k = 24, where dim S_k = 2, lambda(p) and lambda(p^2) give T_p's
  characteristic polynomial x^2 - e_1 x + e_2 in the normalized eigenvalues.
  Its roots are real and lie in [-2, 2] (Deligne), p^(j(k-1)/2) e_j is an
  integer, and it predicts lambda(p^3);
* likewise at k = 36 and 46, where d = dim S_k = 3, and at k = 48, where
  d = 4: lambda(p^j) for j <= d give the power sums of the normalized
  eigenvalues through U_j(x/2), Newton's identities give e_1, ..., e_d, and
  the polynomial predicts lambda(p^(d+1)).

These checks read only ``lefschetz_sl2z``: none of ``ranklef.sl2``'s oracles
or class counts, which ``tests/test_sl2.py`` checks.  The bounds are fixed
from a measurement, with the margin stated, until ``src/`` states an error
budget for the totals.
"""

import math
import random
from functools import lru_cache

import numpy as np
import pytest

from ranklef.sl2 import lefschetz_sl2z

ONE_DIMENSIONAL = (12, 16, 18, 20, 22, 26)
LEVEL = 2000  # every level read here is at most this
PRIMES = [p for p in range(2, math.isqrt(LEVEL) + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
COPRIME_PAIRS = [(m, n) for m in range(2, 45) for n in range(m + 1, LEVEL // m + 1) if math.gcd(m, n) == 1]
# Bounds on the absolute defect of each relation in lambda, which is O(1).  Over
# every prime with p^2 <= 2000 the p^2 relation reads at most 3.2e-14 (margin 9x);
# over all 3406 coprime pairs with 2 <= m < n and mn <= 2000, at all six weights,
# multiplicativity reads at most 1.04e-13 (margin 9x); at k = 24 the predicted
# lambda(p^3) reads at most 9.9e-15 (margin 10x).
SQUARE_BOUND = 3e-13
PRODUCT_BOUND = 1e-12
CUBE_BOUND = 1e-13
# p^(j(k-1)/2) e_j at k = 24, which is tr T_p (j = 1) or det T_p (j = 2), lies
# within this of an integer, relative to its size; the test counts only the
# cases where that is a real constraint (a distance below a half).  Measured at
# most 2.0e-14 (tr T_7), margin 5x.
INTEGER_BOUND = 1e-13
# At k = 36, 46 and 48, for each p with p^(d+1) <= 2000 (eight cases): the
# predicted lambda(p^(d+1)) reads at most 5.4e-14 (k = 48, p = 3; margin 9x),
# and p^(j(k-1)/2) e_j lies at most 3.4e-14 of an integer, relative to its size
# (tr T_3 at k = 46; margin 9x), in the eight cases where that is a real
# constraint.  The largest |root| is 1.95 and the closest two are 0.14 apart.
POWER_BOUND = 5e-13
HIGHER_INTEGER_BOUND = 3e-13


@lru_cache(maxsize=None)
def lam(k, n):
    return lefschetz_sl2z(k, n).total.real / math.sqrt(n)


@pytest.mark.parametrize("k", ONE_DIMENSIONAL)
def test_square_of_a_prime(k):
    for p in PRIMES:
        assert abs(lam(k, p * p) - (lam(k, p) ** 2 - 1)) <= SQUARE_BOUND, (k, p)


@pytest.mark.parametrize("k", ONE_DIMENSIONAL)
def test_coprime_levels_multiply(k):
    # a seeded 40 of the 3406 pairs per weight, about 0.2 s
    for m, n in random.Random(f"coprime pairs {k}").sample(COPRIME_PAIRS, 40):
        assert abs(lam(k, m * n) - lam(k, m) * lam(k, n)) <= PRODUCT_BOUND, (k, m, n)


def test_two_eigenvalues_at_weight_24():
    """S_24 has two eigenforms, so lambda(p) = x_1 + x_2 and lambda(p^2) =
    x_1^2 + x_2^2 - 2 in their normalized T_p eigenvalues (U_2(x/2) = x^2 - 1
    for each), and lambda(p^3) = sum (x_i^3 - 2 x_i)."""
    k, integral = 24, 0
    for p in (2, 3, 5, 7, 11):
        power_1, power_2 = lam(k, p), lam(k, p * p) + 2
        e_1, e_2 = power_1, (power_1**2 - power_2) / 2
        gap = e_1**2 - 4 * e_2
        assert gap > 0, p
        roots = [(e_1 + s * math.sqrt(gap)) / 2 for s in (1, -1)]
        assert all(abs(x) <= 2 for x in roots), (p, roots)
        for j, e in ((1, e_1), (2, e_2)):
            scaled = p ** (j * (k - 1) / 2) * e
            if INTEGER_BOUND * abs(scaled) < 0.5:
                assert abs(scaled - round(scaled)) <= INTEGER_BOUND * abs(scaled), (p, j, scaled)
                integral += 1
        power_3 = e_1 * power_2 - e_2 * power_1  # Newton's identity, with e_3 = 0
        assert abs(power_3 - 2 * power_1 - lam(k, p**3)) <= CUBE_BOUND, p
    assert integral == 7  # tr T_p at every p, and p^23 det T_p at p = 2 and 3


@lru_cache(maxsize=None)
def chebyshev(j):
    """U_j(x/2) = x U_(j-1)(x/2) - U_(j-2)(x/2), as its coefficients of 1, x, ..., x^j."""
    if j < 2:
        return (1,) if j == 0 else (0, 1)
    u, v = chebyshev(j - 1), chebyshev(j - 2)
    return tuple((u[m - 1] if m else 0) - (v[m] if m < len(v) else 0) for m in range(j + 1))


@pytest.mark.parametrize("k, d, integral", [(36, 3, 4), (46, 3, 2), (48, 4, 2)])
def test_characteristic_polynomial_past_two_eigenvalues(k, d, integral):
    """lambda(p^j) = sum_i U_j(x_i / 2) over the d normalized T_p eigenvalues
    x_i, so lambda(p^j), j <= d, give the power sums s_j = sum_i x_i^j, and
    Newton's identities j e_j = sum_(i <= j) (-1)^(i-1) e_(j-i) s_i give T_p's
    characteristic polynomial; with e_(d+1) = 0 they give s_(d+1) too."""
    checked = 0
    for p in (p for p in PRIMES if p ** (d + 1) <= LEVEL):
        power = [float(d)]
        for j in range(1, d + 1):
            power.append(lam(k, p**j) - sum(c * s for c, s in zip(chebyshev(j), power)))
        e = [1.0]
        for j in range(1, d + 1):
            e.append(sum((-1) ** (i - 1) * e[j - i] * power[i] for i in range(1, j + 1)) / j)
        roots = np.roots([(-1) ** j * e[j] for j in range(d + 1)])
        assert np.isrealobj(roots) and np.all(np.abs(roots) <= 2), (p, roots)
        for j in range(1, d + 1):
            scaled = p ** (j * (k - 1) / 2) * e[j]
            if HIGHER_INTEGER_BOUND * abs(scaled) < 0.5:
                assert abs(scaled - round(scaled)) <= HIGHER_INTEGER_BOUND * abs(scaled), (p, j, scaled)
                checked += 1
        power.append(sum((-1) ** (i - 1) * e[i] * power[d + 1 - i] for i in range(1, d + 1)))
        predicted = sum(c * s for c, s in zip(chebyshev(d + 1), power))
        assert abs(predicted - lam(k, p ** (d + 1))) <= POWER_BOUND, p
    assert checked == integral
