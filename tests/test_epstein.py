"""Hurwitz continuation and cusp zeta constants against independent oracles.

mpmath supplies the reference continuation; partial-sum Richardson
extrapolation supplies a second, series-only route for the convergent
values.
"""

import math
import random
import sys

import mpmath
import pytest

from ranklef.epstein import (
    ClassProgression,
    EpsteinSpec,
    LaurentConstant,
    MAX_EXPONENT_BASE,
    digamma,
    hurwitz_zeta,
    zeta_constant_terms,
)

mpmath.mp.dps = 30


def _partial_sum_extrapolated(s: float, a: float, rows: int = 9) -> float:
    """Richardson extrapolation of the partial sums of sum (m+a)^{-s}."""
    table = []
    for i in range(rows):
        m = 2 ** (i + 6)
        tail_scale = (m + a) ** (1 - s) / (s - 1)  # leading tail behaviour
        table.append(sum((j + a) ** (-s) for j in range(m)) + tail_scale)
    # iterated Richardson in powers of 2^{-(s-1)} handled by the tail above;
    # remaining error is O(m^{-s}), extrapolate geometrically
    for level in range(1, rows):
        factor = 2.0 ** (s * level)
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1)
            for i in range(len(table) - 1)
        ]
    return table[0]


def test_hurwitz_spec_values():
    assert abs(hurwitz_zeta(0j, 1.0) - (-0.5)) < 1e-12
    assert abs(hurwitz_zeta(0j, 0.5) - 0.0) < 1e-12
    assert abs(hurwitz_zeta(0j, 1 / 3) - (0.5 - 1 / 3)) < 1e-12
    assert abs(hurwitz_zeta(2.0 + 0j, 1.0) - math.pi ** 2 / 6) < 1e-12


def test_hurwitz_against_partial_sum_extrapolation():
    for s, a in [(2.0, 1.0), (3.0, 0.5), (2.5, 1.25)]:
        ref = _partial_sum_extrapolated(s, a)
        assert abs(hurwitz_zeta(complex(s), a) - ref) < 1e-10


def test_hurwitz_against_mpmath_grid():
    random.seed(2)
    for _ in range(120):
        r = random.uniform(0, 10)
        th = random.uniform(-math.pi / 2, math.pi / 2)  # right half plane
        s = complex(r * math.cos(th), r * math.sin(th))
        if abs(s - 1) < 0.1:
            continue
        a = random.choice([0.2, 1 / 3, 0.5, 1.0, 1.5, 2.7])
        ref = complex(mpmath.zeta(s, a))
        rel = abs(hurwitz_zeta(s, a) - ref) / max(1e-300, abs(ref))
        assert rel < 1e-10, (s, a, rel)
    # the real axis up to the largest exponent_base a spec may give
    for d in range(2, MAX_EXPONENT_BASE + 1):
        for a in (0.2, 1 / 3, 0.5, 1.0, 1.5, 2.7):
            ref = mpmath.zeta(d, a)
            if ref > sys.float_info.max:
                continue
            rel = abs(hurwitz_zeta(complex(d), a) - complex(ref)) / float(ref)
            assert rel < 1e-10, (d, a, rel)


def test_hurwitz_pole_and_domain_errors():
    with pytest.raises(ValueError, match=r"^hurwitz_zeta has a pole at s = 1$"):
        hurwitz_zeta(1.0 + 0j, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0 + 0j, 0.0)
    for s, a in ((-1 + 0j, 1.0), (-0.6 + 2j, 0.5)):
        with pytest.raises(ValueError, match=r"^hurwitz_zeta requires Re s >= -1/2$"):
            hurwitz_zeta(s, a)


def _tail_terms_decrease(s, a):
    """Whether the 12 Euler-Maclaurin tail terms B_2r/(2r)! s(s+1)...(s+2r-2)
    x^(-s-2r+1) decrease in modulus at x = a + max(24, 3|s| + 16), the point
    where hurwitz_zeta's head ends: each ratio of consecutive moduli is
    |B_(2r+2) / B_2r| / ((2r+1)(2r+2)) |(s+2r-1)(s+2r)| / x^2."""
    x = a + max(24, 3 * int(abs(s)) + 16)
    return all(
        abs(mpmath.bernoulli(2 * r + 2) / mpmath.bernoulli(2 * r)) / ((2 * r + 1) * (2 * r + 2))
        * abs((s + 2 * r - 1) * (s + 2 * r)) / x**2 < 1
        for r in range(1, 12)
    )


def test_hurwitz_tail_terms_decrease_with_its_head_length():
    # so the tail needs no cut at its smallest term: every term is smaller
    # than the one before it on the whole domain that zeta_constant_terms
    # and the mpmath grid above reach (the largest ratio seen is 0.026)
    offsets = (0.2, 1 / 3, 0.5, 1.0, 1.5, 2.7)
    for d in range(2, MAX_EXPONENT_BASE + 1):
        for a in offsets:
            assert _tail_terms_decrease(complex(d), a), (d, a)
    rng = random.Random(35)
    checked = 0
    while checked < 2000:
        s = complex(rng.uniform(-0.5, 10), rng.uniform(-10, 10))
        if abs(s) <= 10:
            a = rng.choice(offsets)
            assert _tail_terms_decrease(s, a), (s, a)
            checked += 1


def test_digamma_values():
    assert abs(digamma(1.0) + float(mpmath.euler)) < 1e-12
    for a in (0.5, 1 / 3, 2.0, 7.5):
        assert abs(digamma(a) - float(mpmath.digamma(a))) < 1e-12
    with pytest.raises(ValueError, match=r"^digamma requires a > 0$"):
        digamma(0.0)


def test_unit_progression_constant_is_euler_gamma():
    spec = EpsteinSpec(
        classes=(ClassProgression(weight=1.0, scale=1.0, offset=1.0),),
        lattice_vol=1.0,
        exponent_base=1,
    )
    lc = zeta_constant_terms(spec)
    assert lc.pole_order_at_0 == 1
    assert abs(lc.residue_at_0 - 1.0) < 1e-12
    # Laurent oracle: constant term of zeta(1+z) at z = 0 via mpmath
    eps = mpmath.mpf(1) / 10 ** 8
    oracle = float((mpmath.zeta(1 + eps) + mpmath.zeta(1 - eps)) / 2)
    assert abs(lc.constant_term - oracle) < 1e-8
    assert abs(lc.constant_term - float(mpmath.euler)) < 1e-10


def test_convergent_progression_is_direct_sum():
    spec = EpsteinSpec(
        classes=(ClassProgression(weight=1.0, scale=1.0, offset=1.0),),
        lattice_vol=1.0,
        exponent_base=2,
    )
    lc = zeta_constant_terms(spec)
    assert lc.pole_order_at_0 == 0
    assert abs(lc.constant_term - math.pi ** 2 / 6) < 1e-8


def test_convergent_random_specs_match_direct_summation():
    random.seed(4)
    for _ in range(10):
        classes = tuple(
            ClassProgression(
                weight=random.uniform(0.2, 2.0),
                scale=random.uniform(0.5, 3.0),
                offset=random.uniform(0.5, 2.0),
            )
            for _ in range(random.randint(1, 3))
        )
        d = random.choice([2, 3])
        spec = EpsteinSpec(classes=classes, lattice_vol=random.uniform(0.5, 2.0), exponent_base=d)
        lc = zeta_constant_terms(spec)
        M = 50000
        direct = 0.0
        for p in classes:
            head = sum((p.scale * (m + p.offset)) ** (-d) for m in range(M))
            x = M + p.offset  # integral-plus-midpoint tail bound, O(x^{-d-1}) off
            tail = p.scale ** (-d) * (x ** (1 - d) / (d - 1) + 0.5 * x ** (-d))
            direct += p.weight * (head + tail)
        direct *= spec.lattice_vol
        assert abs(lc.constant_term - direct) < 1e-8
        assert lc.pole_order_at_0 == 0


def test_empty_class_list():
    spec = EpsteinSpec(classes=(), lattice_vol=1.0, exponent_base=1)
    assert zeta_constant_terms(spec) == LaurentConstant(0.0, 0, 0.0)


def test_scaling_covariance():
    # norms -> c * norms multiplies zeta(z) by c^{-(d+z)}; at z = 0 the
    # constant becomes c^{-d} (constant - log(c) residue)
    base = EpsteinSpec(
        classes=(
            ClassProgression(weight=1.0, scale=1.0, offset=1.0),
            ClassProgression(weight=0.5, scale=2.0, offset=0.75),
        ),
        lattice_vol=1.0,
        exponent_base=1,
    )
    lc = zeta_constant_terms(base)
    for c in (2.0, 0.5):
        scaled = EpsteinSpec(
            classes=tuple(
                ClassProgression(p.weight, c * p.scale, p.offset) for p in base.classes
            ),
            lattice_vol=1.0,
            exponent_base=1,
        )
        got = zeta_constant_terms(scaled)
        want = (lc.constant_term - math.log(c) * lc.residue_at_0) / c
        assert abs(got.constant_term - want) < 1e-10
        assert abs(got.residue_at_0 - lc.residue_at_0 / c) < 1e-12


def test_scaling_covariance_convergent():
    base = EpsteinSpec(
        classes=(ClassProgression(1.0, 1.0, 1.0),),
        lattice_vol=1.0,
        exponent_base=2,
    )
    lc = zeta_constant_terms(base)
    for c in (2.0, 0.5):
        scaled = EpsteinSpec(
            classes=(ClassProgression(1.0, c, 1.0),),
            lattice_vol=1.0,
            exponent_base=2,
        )
        got = zeta_constant_terms(scaled)
        assert abs(got.constant_term - lc.constant_term / c ** 2) < 1e-12


def test_pole_order_always_at_most_one():
    for d in (1, 2, 3, 4):
        spec = EpsteinSpec(
            classes=(ClassProgression(1.0, 1.0, 1.0),),
            lattice_vol=1.0,
            exponent_base=d,
        )
        assert zeta_constant_terms(spec).pole_order_at_0 in (0, 1)


def test_spec_from_dict_progression_and_shorthand():
    spec = EpsteinSpec.from_dict(
        {
            "classes": [
                {"weight": 1.0, "scale": 2.0, "offset": 0.5},
                {"weight": 1.0, "norm": 3.0},
            ],
            "lattice_vol": 1.0,
            "exponent_base": 2,
        }
    )
    assert spec.classes[0].offset == 0.5
    assert spec.classes[1].scale == 3.0 and spec.classes[1].offset == 1.0
    with pytest.raises(ValueError):
        EpsteinSpec.from_dict({"classes": [{"weight": 1.0}], "exponent_base": 1})
    # "sign" is no longer a spec field: a spec that still gives it is rejected
    with pytest.raises(ValueError, match="sign is not a known key"):
        EpsteinSpec.from_dict({"classes": [{"weight": 1.0, "norm": 3.0}], "exponent_base": 2, "sign": "minus"})


def test_non_finite_spec_data_rejected():
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf):
        with pytest.raises(ValueError):
            ClassProgression(weight=bad, scale=1.0)
        with pytest.raises(ValueError):
            ClassProgression(weight=1.0, scale=1.0, offset=bad)
        with pytest.raises(ValueError):
            EpsteinSpec(classes=(), lattice_vol=bad, exponent_base=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassProgression(weight=-1.0, scale=1.0)
    with pytest.raises(ValueError):
        EpsteinSpec(classes=(), lattice_vol=0.0, exponent_base=1)
    with pytest.raises(ValueError):
        EpsteinSpec(classes=(), lattice_vol=1.0, exponent_base=0)
