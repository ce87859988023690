"""The SL(2,Z) preset against the Hecke relations (ROADMAP item 9, second check).

With lambda(n) = total(k, n) / sqrt(n), the trace of T_n on S_k over
n^((k-1)/2), the preset's totals must satisfy the relations of the Hecke
algebra (Serre, *A Course in Arithmetic*, ch. VII 5):

* where dim S_k = 1 (k = 12, 16, 18, 20, 22, 26), lambda(mn) =
  lambda(m) lambda(n) for coprime m and n, and lambda(p^2) = lambda(p)^2 - 1;
* at k = 24, where dim S_k = 2, lambda(p) and lambda(p^2) give T_p's
  characteristic polynomial x^2 - e_1 x + e_2 in the normalized eigenvalues.
  Its roots are real and lie in [-2, 2] (Deligne), p^(j(k-1)/2) e_j is an
  integer, and it predicts lambda(p^3).

These checks read only ``lefschetz_sl2z``: none of ``ranklef.sl2``'s oracles
or class counts, which ``tests/test_sl2.py`` checks.  The bounds are fixed
from a measurement, with the margin stated, until ``src/`` states an error
budget for the totals.
"""

import math
import random
from functools import lru_cache

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
