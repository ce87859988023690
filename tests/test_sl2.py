"""Hecke coset enumeration, classification, class counts, and the oracles."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from ranklef.chars import Chamber
from ranklef.sl2 import (
    ClassKind,
    EllipticClassGroup,
    IntegerMatrix,
    build_geom_sl2z,
    classify_element,
    compare,
    coset_classification,
    delta_coeffs,
    dim_cusp_forms,
    eichler_selberg,
    elliptic_classes,
    hecke_reps,
    hurwitz_class_number,
    lefschetz_sl2z,
    trace_polynomial,
)
from reference import adjugate, geometry_to_dict, int_mat_mul


def sigma(n, k=1):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein_series(N, weight, scale):
    """Coefficients a_0..a_{N-1} of 1 + scale sum sigma_{weight-1}(m) q^m."""
    return [1] + [scale * sigma(m, weight - 1) for m in range(1, N)]


def left_equivalent(x, y):
    """Whether x Gamma = y Gamma, by exact divisibility of y * adj(x)."""
    n = x.det
    if n <= 0 or y.det != n:
        raise ValueError("matrices must share a positive determinant")
    g = int_mat_mul(y, adjugate(x))
    return all(e % n == 0 for e in g.entries())


# ---------------------------------------------------------------------------
# Hecke cosets


def test_hecke_reps_counts():
    assert hecke_reps(1).count == 1
    assert hecke_reps(1).reps[0] == IntegerMatrix(1, 0, 0, 1)
    for n in range(1, 13):
        assert hecke_reps(n).count == sigma(n)


def test_hecke_reps_n2_explicit():
    got = {m.entries() for m in hecke_reps(2).reps}
    assert got == {(1, 0, 0, 2), (1, 1, 0, 2), (2, 0, 0, 1)}


def test_hecke_reps_pairwise_inequivalent():
    for n in (2, 4, 6):
        reps = hecke_reps(n).reps
        for i, x in enumerate(reps):
            for y in reps[i + 1:]:
                assert not left_equivalent(x, y)
            assert left_equivalent(x, x)


def _projective_line_count(n):
    # orbits of unit scaling on {(x, y) mod n : gcd(x, y, n) = 1}
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    seen = set()
    count = 0
    for x in range(n):
        for y in range(n):
            if math.gcd(math.gcd(x, y), n) != 1:
                continue
            orbit = min((u * x % n, u * y % n) for u in units)
            if orbit not in seen:
                seen.add(orbit)
                count += 1
    return count


def test_hecke_index_equals_orbit_count():
    # For squarefree n the coset count equals the subgroup index
    # [Gamma : Gamma cap alpha Gamma alpha^{-1}], counted independently as
    # the orbit count of the coset action on the projective line mod n.
    for n in (2, 3, 5, 6, 7, 10):
        assert hecke_reps(n).count == _projective_line_count(n)


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    tag = classify_element(IntegerMatrix(0, -1, 1, 0))
    assert tag.kind is ClassKind.ELLIPTIC and tag.trace == 0 and tag.disc == -4
    tag = classify_element(IntegerMatrix(1, 1, 0, 1))
    assert tag.kind is ClassKind.PARABOLIC_NSS
    tag = classify_element(IntegerMatrix(2, 0, 0, 1))
    assert tag.kind is ClassKind.HYPERBOLIC and tag.trace == 3 and tag.disc == 1
    tag = classify_element(IntegerMatrix(-2, 0, 0, -2))
    assert tag.kind is ClassKind.CENTRAL
    with pytest.raises(ValueError):
        classify_element(IntegerMatrix(1, 0, 0, -1))


def test_classification_is_a_partition():
    for n in (1, 2, 4, 6):
        counts = coset_classification(n)
        assert sum(counts.values()) == sigma(n)


def test_hyperbolic_bucket_reported():
    counts = coset_classification(6)
    assert counts["hyperbolic"] > 0
    counts2 = coset_classification(6, extra=(IntegerMatrix(7, 3, 2, 1),))
    assert counts2["hyperbolic"] == counts["hyperbolic"] + 1


# ---------------------------------------------------------------------------
# Hurwitz class numbers and elliptic classes


# Independent check of elliptic_classes: Gamma-conjugacy classes as the
# components of the conjugation graph under S, T and T^-1 on a bounded box of
# matrices, with exact centralizer orders.


def _universe(n, t, bound):
    out = []
    for a in range(-bound, bound + 1):
        d = t - a
        if abs(d) > bound:
            continue
        bc = a * d - n
        if bc == 0:
            continue
        for b in range(-bound, bound + 1):
            if b == 0 or bc % b != 0:
                continue
            c = bc // b
            if abs(c) <= bound:
                out.append((a, b, c, d))
    return out


def _conj_moves(m):
    a, b, c, d = m
    return (
        (d, -c, -b, a),  # by S
        (a + c, b + d - a - c, c, d - c),  # by T
        (a - c, a + b - c - d, c, c + d),  # by T^-1
    )


def _component_count(n, t, core_bound, work_factor=6):
    """One representative per component that meets the core box, with the
    components computed on a box work_factor times larger."""
    core = set(_universe(n, t, core_bound))
    work = set(_universe(n, t, work_factor * core_bound))
    index = {m: i for i, m in enumerate(sorted(work))}
    parent = list(range(len(index)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for m, i in index.items():
        for mm in _conj_moves(m):
            j = index.get(mm)
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    reps = {}
    for m in core:
        r = find(index[m])
        if r not in reps or m < reps[r]:
            reps[r] = m
    return sorted(reps.values())


def _fraction_sqrt(q):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def centralizer_order(m):
    """Order of the SL(2,Z) centralizer of an elliptic, non-scalar matrix.

    The centralizer is { xI + yM } with integer entries and determinant
    x^2 + t x y + n y^2 = 1, a positive-definite condition, so the count is
    an exact finite enumeration over y in (1/g)Z with g = gcd(b, c, a-d).
    """
    t, n = m.trace, m.det
    D = 4 * n - t * t
    assert D > 0 and not m.is_scalar()
    g = math.gcd(math.gcd(abs(m.b), abs(m.c)), abs(m.a - m.d))
    count = 0
    jmax = math.isqrt(4 * g * g // D)
    for j in range(-jmax - 1, jmax + 2):
        y = Fraction(j, g)
        root = _fraction_sqrt(4 - D * y * y)
        if root is None:
            continue
        for sgn in ((1,) if root == 0 else (1, -1)):
            x = (-t * y + sgn * root) / 2
            entries_integral = (
                (x + y * m.a).denominator == 1
                and (x + y * m.d).denominator == 1
                and (y * m.b).denominator == 1
                and (y * m.c).denominator == 1
            )
            if entries_integral:
                count += 1
    return count


def graph_search_classes(n):
    """elliptic_classes(n) by conjugation-graph search; the class count of
    every trace must be the same on a box twice as large."""
    base = max(8, 2 * n)
    groups = []
    tmax = math.isqrt(4 * n - 1)
    for t in range(-tmax, tmax + 1):
        reps = _component_count(n, t, base)
        assert len(reps) == len(_component_count(n, t, 2 * base)), (n, t)
        by_order = {}
        for m in reps:
            w = centralizer_order(IntegerMatrix(*m))
            by_order[w] = by_order.get(w, 0) + 1
        for w in sorted(by_order):
            groups.append(EllipticClassGroup(t, by_order[w], w))
    return tuple(groups)


def test_hurwitz_small_table():
    table = {0: Fraction(-1, 12), 3: Fraction(1, 3), 4: Fraction(1, 2),
             7: 1, 8: 1, 11: 1, 12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2),
             19: 1, 20: 2, 23: 3, 24: 2, 27: Fraction(4, 3), 28: 2}
    for n, h in table.items():
        assert hurwitz_class_number(n) == Fraction(h)
    assert hurwitz_class_number(5) == 0 and hurwitz_class_number(6) == 0


def hurwitz_unfiltered(N):
    """H(N) with every b in [-a, a] tried: the loop before the parity filter."""
    if N == 0:
        return Fraction(-1, 12)
    if N % 4 in (1, 2):
        return Fraction(0)
    sixths = 0
    a = 1
    while 3 * a * a <= N:
        for b in range(-a, a + 1):
            rem = b * b + N
            if rem % (4 * a) != 0:
                continue
            c = rem // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            if a == b == c:
                sixths += 2
            elif a == c and b == 0:
                sixths += 3
            else:
                sixths += 6
        a += 1
    return Fraction(sixths, 6)


def test_hurwitz_parity_filter_matches_unfiltered_loop():
    for N in range(4000):
        assert hurwitz_class_number(N) == hurwitz_unfiltered(N), N


def test_elliptic_classes_golden_n1():
    got = elliptic_classes(1)
    assert got == (
        EllipticClassGroup(-1, 2, 6),
        EllipticClassGroup(0, 2, 4),
        EllipticClassGroup(1, 2, 6),
    )


def test_elliptic_classes_golden_n2():
    got = elliptic_classes(2)
    assert got == (
        EllipticClassGroup(-2, 2, 4),
        EllipticClassGroup(-1, 2, 2),
        EllipticClassGroup(0, 2, 2),
        EllipticClassGroup(1, 2, 2),
        EllipticClassGroup(2, 2, 4),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_elliptic_classes_hurwitz_coherence(n):
    groups = elliptic_classes(n)
    by_trace = {}
    for g in groups:
        by_trace.setdefault(g.trace, Fraction(0))
        by_trace[g.trace] += Fraction(g.class_count, g.centralizer_order)
    for t, weight in by_trace.items():
        assert weight == hurwitz_class_number(4 * n - t * t)


def test_centralizer_spot_checks():
    assert centralizer_order(IntegerMatrix(0, -1, 1, 0)) == 4  # order-4 rotation
    assert centralizer_order(IntegerMatrix(1, -1, 1, 0)) == 6  # order-6 element
    assert centralizer_order(IntegerMatrix(0, -2, 1, 0)) == 2  # disc -8


@pytest.mark.parametrize("n", range(1, 11))
def test_elliptic_classes_match_graph_search(n):
    # n <= 10 reaches the non-primitive forms (2,2,2), (2,0,2) and (3,3,3)
    # at discriminants -12, -16 and -27
    assert elliptic_classes(n) == graph_search_classes(n)


def test_trace_zero_classes_have_order_four_reps():
    for g in elliptic_classes(1):
        if g.trace == 0:
            assert g.centralizer_order == 4


# ---------------------------------------------------------------------------
# classical oracles


def test_delta_coefficients():
    tau = delta_coeffs(20)
    assert tau[0] == 1 and tau[1] == -24 and tau[2] == 252
    assert tau[4] == 4830 and tau[6] == -16744
    assert tau[1] * tau[2] == tau[5]  # tau(2) tau(3) = tau(6)


def _series_mul(a, b):
    return [sum(x * y for x, y in zip(a[: m + 1], reversed(b[: m + 1]))) for m in range(len(a))]


@lru_cache(maxsize=None)
def tau_from_eisenstein(N):
    """tau(1..N) from Delta = (E4^3 - E6^2) / 1728: a route to tau that
    shares no code with delta_coeffs or eichler_selberg."""
    e4 = eisenstein_series(N + 1, 4, 240)
    e6 = eisenstein_series(N + 1, 6, -504)
    num = [x - y for x, y in zip(_series_mul(_series_mul(e4, e4), e4), _series_mul(e6, e6))]
    assert num[0] == 0 and all(c % 1728 == 0 for c in num)
    return tuple(c // 1728 for c in num[1:])


TAU_LITERATURE = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830,
                  10: -115920, 11: 534612, 12: -370944, 13: -577738}
TAU_N = 30 * 29  # reaches every product of coprime m, n <= 30


def test_tau_reference_literature_hecke_and_multiplicativity():
    tau = (None,) + tau_from_eisenstein(TAU_N)
    for n, value in TAU_LITERATURE.items():
        assert tau[n] == value, n
    for p in (2, 3, 5, 7):
        assert tau[p * p] == tau[p] ** 2 - p ** 11
    for m in range(2, 31):
        for n in range(m + 1, 31):
            if math.gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)


@pytest.mark.parametrize("oracle", ["delta_coeffs", "eichler_selberg"])
def test_tau_oracles_match_reference(oracle):
    # the two oracles are checked against each other elsewhere; an error they
    # shared would pass that check but not this one
    if oracle == "delta_coeffs":
        got = delta_coeffs(TAU_N)
    else:
        got = [eichler_selberg(12, n) for n in range(1, TAU_N + 1)]
    assert tuple(got) == tau_from_eisenstein(TAU_N)


def test_dim_cusp_forms_table():
    expected = {4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 16: 1, 18: 1,
                20: 1, 22: 1, 24: 2, 26: 1, 28: 2}
    for k, d in expected.items():
        assert dim_cusp_forms(k) == d
    with pytest.raises(ValueError):
        dim_cusp_forms(13)
    with pytest.raises(ValueError):
        dim_cusp_forms(2)


def test_trace_polynomial_values():
    assert trace_polynomial(12, 0, 1) == -1
    assert trace_polynomial(12, 1, 1) == -1
    assert trace_polynomial(12, 2, 1) == 11
    assert trace_polynomial(4, 3, 2) == 7  # t^2 - n


def test_eichler_selberg_matches_dimensions():
    for k in range(4, 42, 2):
        assert eichler_selberg(k, 1) == dim_cusp_forms(k)


def test_eichler_selberg_matches_delta():
    tau = delta_coeffs(20)
    for n in range(1, 21):
        assert eichler_selberg(12, n) == tau[n - 1]


def test_eichler_selberg_weight16_from_qexpansion():
    # weight-16 form = E4 * Delta; its q-expansion product gives the traces
    N = 10
    e4 = eisenstein_series(N, 4, 240)
    tau = delta_coeffs(N)
    coeffs = [sum(e4[i] * tau[m - 1 - i] for i in range(m)) for m in range(1, N + 1)]
    assert eichler_selberg(16, 2) == coeffs[1] == 216
    for n in range(1, N + 1):
        assert eichler_selberg(16, n) == coeffs[n - 1]


# ---------------------------------------------------------------------------
# geometric preset


def test_geom_n1_structure():
    geom = build_geom_sl2z(1)
    assert {c.tag for c in geom.central_classes} == {"1I", "-1I"}
    assert len(geom.elliptic_classes) == 6  # traces {0, +-1}, two orientations
    vols = sorted(c.vol_quotient for c in geom.elliptic_classes)
    assert vols == [1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 4, 1 / 4]
    assert len(geom.parabolic_I) == 2 and all(p.delta_flag for p in geom.parabolic_I)
    assert len(geom.parabolic_II) == 2
    assert all(p.coset_index == 1 for p in geom.parabolic_II)
    assert all(p.eta_H.chamber is Chamber.A_EQUALS_1 for p in geom.parabolic_II)
    assert geom.residue_scalar is None


def test_geom_n2_structure():
    geom = build_geom_sl2z(2)
    assert geom.central_classes == ()
    assert geom.parabolic_I == ()
    indices = sorted(p.coset_index for p in geom.parabolic_II)
    assert indices == [1, 1, 2, 2]
    chambers = {p.eta_H.chamber for p in geom.parabolic_II}
    assert chambers == {Chamber.H_PLUS, Chamber.H_MINUS}


def test_geom_n4_detects_scaled_central():
    geom = build_geom_sl2z(4)
    assert {c.tag for c in geom.central_classes} == {"2I", "-2I"}
    assert len(geom.parabolic_I) == 2


def test_geom_hyperbolic_injection_is_discarded():
    base = build_geom_sl2z(2)
    injected = build_geom_sl2z(
        2,
        extra_class_reps=(
            IntegerMatrix(2, 0, 0, 1),
            IntegerMatrix(3, 1, 1, 1),
        ),
    )
    assert geometry_to_dict(base) == geometry_to_dict(injected)
    with pytest.raises(ValueError):
        build_geom_sl2z(2, extra_class_reps=(IntegerMatrix(0, -1, 2, 0),))


# ---------------------------------------------------------------------------
# comparison


def test_compare_calibration_point():
    rep = compare(12, 1)
    assert rep.match and rep.oracle_value == 1
    assert abs(rep.lefschetz_value - 1) < 1e-12


def test_compare_rejects_bad_weights():
    with pytest.raises(ValueError):
        compare(13, 1)
    with pytest.raises(ValueError):
        compare(2, 1)


def test_breakdown_k12_values():
    bd = lefschetz_sl2z(12, 1)
    assert abs(bd.central - 11 / 12) < 1e-12
    assert abs(bd.elliptic - 7 / 12) < 1e-12
    assert abs(bd.parabolic_I) < 1e-12
    assert abs(bd.parabolic_II + 0.5) < 1e-12
    assert bd.rounded == 1 and bd.branch == "regular"


def test_compare_interpretation_switch_agrees_here():
    # the Z0 power is zero-dimensional for this preset, so both readings match
    a = compare(12, 2, "conjugate")
    b = compare(12, 2, "identity")
    assert a.match and b.match
    assert abs(a.lefschetz_value - b.lefschetz_value) < 1e-12
