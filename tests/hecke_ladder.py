"""The SL(2,Z) preset against the Hecke relations up to level 10^5.

    PYTHONPATH=src python tests/hecke_ladder.py

``tests/test_hecke_relations.py`` holds the relations to levels <= 2000 in
the test suite; this script climbs the same ladder to LEVEL, too slow for
it.  With lambda(n) = total(k, n) / sqrt(n), at each weight k with
dim S_k = 1 it checks

* lambda(p^2) = lambda(p)^2 - 1 at every prime p with p^2 <= LEVEL, and
* lambda(mn) = lambda(m) lambda(n) on a seeded sample of PAIRS coprime pairs
  2 <= m < n with mn <= LEVEL, one sample for all weights,

and prints the worst absolute error of each check, with its weight and
levels, and the wall time.  It exits 1 if an error passes BOUND, which is
far inside the preset's match tolerance of 1e-6.

It reads only ``lefschetz_sl2z``: none of ``ranklef.sl2``'s oracles or
class counts.
"""

import math
import random
import sys
import time

from ranklef.sl2 import build_geom_sl2z, lefschetz_sl2z

ONE_DIMENSIONAL = (12, 16, 18, 20, 22, 26)
LEVEL = 10**5
PAIRS = 200
BOUND = 1e-11


def primes_up_to(x):
    sieve = bytearray([1]) * (x + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    return [p for p in range(x + 1) if sieve[p]]


_LAMBDAS = {}


def lambdas(n):
    """lambda(n) at each weight of ONE_DIMENSIONAL, from one geometry build."""
    if n not in _LAMBDAS:
        _LAMBDAS[n] = [lefschetz_sl2z(k, n).total.real / math.sqrt(n) for k in ONE_DIMENSIONAL]
        build_geom_sl2z.cache_clear()  # each level is built once; keep memory flat
    return _LAMBDAS[n]


def coprime_pairs(rng, count):
    """``count`` distinct coprime pairs 2 <= m < n, mn <= LEVEL, drawn uniformly."""
    pairs = [(m, n) for m in range(2, math.isqrt(LEVEL) + 1) for n in range(m + 1, LEVEL // m + 1)
             if math.gcd(m, n) == 1]
    return rng.sample(pairs, count)


def worst(cases):
    """The largest error over (error, weight, levels) cases, as one line."""
    error, k, levels = max(cases)
    return f"worst {error:.2g} at k = {k}, {levels}"


def main():
    start = time.perf_counter()
    squares = []
    for p in primes_up_to(math.isqrt(LEVEL)):
        for k, lp, lp2 in zip(ONE_DIMENSIONAL, lambdas(p), lambdas(p * p)):
            squares.append((abs(lp2 - (lp**2 - 1)), k, f"p = {p}"))
    middle = time.perf_counter()
    products = []
    for m, n in coprime_pairs(random.Random("hecke ladder"), PAIRS):
        for k, lm, ln, lmn in zip(ONE_DIMENSIONAL, lambdas(m), lambdas(n), lambdas(m * n)):
            products.append((abs(lmn - lm * ln), k, f"m = {m}, n = {n}"))
    end = time.perf_counter()
    print(f"lambda(p^2) = lambda(p)^2 - 1, {len(squares)} cases (p^2 <= {LEVEL}): "
          f"{worst(squares)}; {middle - start:.1f} s")
    print(f"lambda(mn) = lambda(m) lambda(n), {len(products)} cases (mn <= {LEVEL}): "
          f"{worst(products)}; {end - middle:.1f} s")
    print(f"{len(_LAMBDAS)} levels in {end - start:.1f} s")
    failed = max(squares + products)[0] > BOUND
    if failed:
        print(f"FAIL: an error passes the bound {BOUND:g}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
