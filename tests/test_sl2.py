"""Hecke coset enumeration, class counts, and the oracles."""

import ast
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from ranklef import chars, lefschetz, sl2
from ranklef.chars import Chamber, elliptic_orbital_term, hc_parameter
from ranklef.cli import json_default
from ranklef.epstein import ClassProgression, EpsteinSpec, zeta_constant_terms
from ranklef.lefschetz import ParabolicIData, assemble, elliptic_term, parabolic_I_term
from ranklef.rootsys import GroupDescriptor, Weight, build_root_system
from ranklef.sl2 import (
    IntegerMatrix,
    _elliptic_rep_angle,
    _hurwitz_sixths,
    build_geom_sl2z,
    compare,
    delta_coeffs,
    dim_cusp_forms,
    eichler_selberg,
    elliptic_classes,
    hecke_reps,
    hurwitz_class_number,
    lefschetz_sl2z,
    mu_from_weight,
    sl2_root_system,
)
from reference import (
    _reduced_forms,
    adjugate,
    eichler_selberg_by_recursion,
    entries,
    geometry_to_dict,
    hurwitz_by_forms,
    hurwitz_sixths_one_pass,
    int_mat_mul,
    sl2z_geometry_on_so21,
    tau_by_cube_products,
    trace_polynomial,
    unfolded_sl2z_elliptic,
)


def _clear_sl2_caches():
    for value in vars(sl2).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


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
    return all(e % n == 0 for e in entries(g))


# ---------------------------------------------------------------------------
# Hecke cosets


def test_hecke_reps_counts():
    assert hecke_reps(1) == (IntegerMatrix(1, 0, 0, 1),)
    for n in range(1, 13):
        assert len(hecke_reps(n)) == sigma(n)


def test_hecke_reps_n2_explicit():
    got = {entries(m) for m in hecke_reps(2)}
    assert got == {(1, 0, 0, 2), (1, 1, 0, 2), (2, 0, 0, 1)}


def test_hecke_reps_pairwise_inequivalent():
    for n in (2, 4, 6):
        reps = hecke_reps(n)
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
        assert len(hecke_reps(n)) == _projective_line_count(n)


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
    """elliptic_classes(n) by conjugation-graph search: per trace, 12 // |centralizer|
    summed over the class reps found, halved for the two orientations; the class
    count of every trace must be the same on a box twice as large."""
    base = max(8, 2 * n)
    sums = []
    tmax = math.isqrt(4 * n - 1)
    for t in range(-tmax, tmax + 1):
        reps = _component_count(n, t, base)
        assert len(reps) == len(_component_count(n, t, 2 * base)), (n, t)
        both, odd = divmod(sum(12 // centralizer_order(IntegerMatrix(*m)) for m in reps), 2)
        assert not odd, (n, t)
        sums.append((t, both))
    return tuple(sums)


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


def test_hurwitz_sieve_matches_per_discriminant_loop():
    # 8192 >= 4 * MAX_SL2Z_LEVEL, the largest discriminant the CLI reaches
    for N in range(8193):
        assert hurwitz_class_number(N) == hurwitz_by_forms(N), N


@pytest.mark.parametrize("X", [1, 2, 3, 4, 7, 64, 100, 1000, 4096])
def test_hurwitz_sieve_tables_are_prefixes_of_larger_ones(X):
    small, large = _hurwitz_sixths(X), _hurwitz_sixths(2 * X)
    assert len(small) == X + 1 and len(large) == 2 * X + 1
    assert small == large[: X + 1]


def test_hurwitz_sieve_tables_equal_a_one_pass_sieve():
    # every table hurwitz_class_number builds, up to 2**13, plus sizes that
    # are not powers of two; each is extended from the one of half its size
    for X in [1 << j for j in range(14)] + [3, 5, 7, 100, 1000, 5000, 8191]:
        assert _hurwitz_sixths(X) == hurwitz_sixths_one_pass(X), X


def test_hurwitz_sieve_extends_the_half_table(monkeypatch):
    _clear_sl2_caches()
    sizes = []
    sieve = sl2._hurwitz_sixths

    def spy(X):
        sizes.append(X)
        return sieve(X)

    monkeypatch.setattr(sl2, "_hurwitz_sixths", spy)
    sl2.hurwitz_class_number(8191)
    assert sizes == [1 << j for j in range(13, 0, -1)]  # 8192, 4096, ..., 2: one table each


def test_hurwitz_sieve_sizes_its_table_to_the_level(monkeypatch):
    # cold compare requests at small levels must not pay for a large table
    _clear_sl2_caches()
    sizes = []

    def spy(X):
        sizes.append(X)
        return _hurwitz_sixths(X)

    monkeypatch.setattr(sl2, "_hurwitz_sixths", spy)
    eichler_selberg(24, 14)  # discriminants 4 * 14 - t^2 <= 56
    assert sizes and max(sizes) == 64


def test_elliptic_classes_golden_n1():
    # (t, 12 w): one form per trace, (1, 1, 1) with |Aut| = 6 and (1, 0, 1) with 4
    assert elliptic_classes(1) == ((-1, 2), (0, 3), (1, 2))


def test_elliptic_classes_golden_n2():
    assert elliptic_classes(2) == ((-2, 3), (-1, 6), (0, 6), (1, 6), (2, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 100, 997, 2000])
def test_elliptic_classes_hurwitz_coherence(n):
    classes = elliptic_classes(n)
    assert [t for t, _ in classes] == list(range(-math.isqrt(4 * n - 1), math.isqrt(4 * n - 1) + 1))
    for t, twelve_w in classes:
        assert type(twelve_w) is int
        assert Fraction(twelve_w, 6) == hurwitz_class_number(4 * n - t * t)


def test_elliptic_classes_match_reduced_forms_per_trace():
    # the one pass over (A, B) against one discriminant at a time
    for n in [*range(1, 401), 997, 1000, 1999, 2000, 4096]:
        traces = range(-math.isqrt(4 * n - 1), math.isqrt(4 * n - 1) + 1)
        want = tuple((t, sum(12 // aut for *_, aut in _reduced_forms(4 * n - t * t))) for t in traces)
        assert elliptic_classes.__wrapped__(n) == want, n


def test_elliptic_classes_sum_to_the_class_number_relation():
    # sum_{t in Z} H(4n - t^2) = 2 sigma(n) - sum_{d | n} min(d, n/d) (Cohen,
    # GTM 138, section 5.3), where t = +-2 sqrt(n) reads H(0) = -1/12 each: a
    # count from divisors alone, so a form lost or counted twice shows
    for n in range(1, 2001):
        got = sum(twelve_w for _, twelve_w in elliptic_classes.__wrapped__(n))
        minima = sum(min(d, n // d) for d in range(1, n + 1) if n % d == 0)
        assert got == 12 * sigma(n) - 6 * minima + (math.isqrt(n) ** 2 == n), n


def test_centralizer_spot_checks():
    assert centralizer_order(IntegerMatrix(0, -1, 1, 0)) == 4  # order-4 rotation
    assert centralizer_order(IntegerMatrix(1, -1, 1, 0)) == 6  # order-6 element
    assert centralizer_order(IntegerMatrix(0, -2, 1, 0)) == 2  # disc -8


@pytest.mark.parametrize("n", range(1, 11))
def test_elliptic_classes_match_graph_search(n):
    # n <= 10 reaches the non-primitive forms (2,2,2), (2,0,2) and (3,3,3)
    # at discriminants -12, -16 and -27
    assert elliptic_classes(n) == graph_search_classes(n)


def test_rational_rep_angles_are_fractions():
    """Niven's rational angles come back as one Fraction each, whatever n:
    t^2 = 3n gives 1/12 at (3, 3) and at (9, 27), t^2 = 2n gives 1/8."""
    assert _elliptic_rep_angle(3, 3) == _elliptic_rep_angle(9, 27) == Fraction(1, 12)
    assert type(_elliptic_rep_angle(3, 3)) is type(_elliptic_rep_angle(9, 27)) is Fraction
    assert _elliptic_rep_angle(2, 2) == Fraction(1, 8) and type(_elliptic_rep_angle(2, 2)) is Fraction
    assert (_elliptic_rep_angle(-2, 2), _elliptic_rep_angle(-3, 3)) == (Fraction(3, 8), Fraction(5, 12))
    for t, n in ((0, 5), (1, 1), (-1, 1), (4, 8), (-6, 12)):
        assert type(_elliptic_rep_angle(t, n)) is Fraction
    for t, n in ((1, 2), (3, 5), (5, 7)):  # t^2 not in {0, n, 2n, 3n}: irrational
        q = _elliptic_rep_angle(t, n)
        assert type(q) is float and math.isclose(math.cos(2 * math.pi * q), t / (2 * math.sqrt(n)))


def test_trace_zero_classes_have_order_four_reps():
    # 12 // 4: one class per orientation at n = 1, of centralizer order 4
    assert dict(elliptic_classes(1))[0] == 3


# ---------------------------------------------------------------------------
# classical oracles


def test_delta_coeffs_matches_cube_products():
    assert delta_coeffs(3000) == tau_by_cube_products(3000)


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


@pytest.mark.parametrize("k", range(4, 101, 2))
def test_eichler_selberg_matches_recursion_reference(k):
    for n in range(1, 61):
        assert eichler_selberg(k, n) == eichler_selberg_by_recursion(k, n), n


@pytest.mark.parametrize("n", [1, 2, 1024, 1936, 2000])
def test_eichler_selberg_matches_recursion_reference_at_the_weight_bound(n):
    # at the squares 1024 and 1936 the trace t = 2 sqrt(n) reads H(0) = -1/12
    assert eichler_selberg(1000, n) == eichler_selberg_by_recursion(1000, n)


@pytest.mark.parametrize("n", [1, 3, 4, 1936, 2000])
def test_eichler_selberg_reads_one_class_number_per_trace(monkeypatch, n):
    # the benchmark counts hurwitz_class_number cache misses, so the oracle
    # reads every class number through it, once for each t >= 0
    calls = []

    def spy(N):
        calls.append(N)
        return hurwitz_class_number(N)

    monkeypatch.setattr(sl2, "hurwitz_class_number", spy)
    assert eichler_selberg(12, n) == eichler_selberg_by_recursion(12, n)
    assert calls == [4 * n - t * t for t in range(math.isqrt(4 * n) + 1)]


SL2_SOURCE = ast.parse(Path(sl2.__file__).read_text(encoding="utf-8"))
REFERENCE_SOURCE = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


@pytest.mark.parametrize(
    "function, unnamed",
    [
        ("eichler_selberg", {"_hurwitz_sixths"}),
        ("elliptic_classes", {"hurwitz_class_number", "_hurwitz_sixths"}),
        ("build_geom_sl2z", {"hurwitz_class_number", "_hurwitz_sixths"}),
    ],
)
def test_oracle_and_geometry_keep_their_own_class_counts(function, unnamed):
    # the oracle reads class numbers only through hurwitz_class_number, and the
    # geometry counts its classes without reading class numbers at all
    (node,) = [n for n in SL2_SOURCE.body if isinstance(n, ast.FunctionDef) and n.name == function]
    assert not _names(node) & unnamed


def _names_an_oracle(module):
    """The oracle and class-count names of ``sl2`` that a test module names or imports."""
    tree = ast.parse((Path(__file__).parent / module).read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    return (_names(tree) | imported) & {"eichler_selberg", "delta_coeffs", "_hurwitz_sixths", "hurwitz_class_number"}


def test_term_checks_name_no_oracle_or_class_count():
    # the preset's terms are held against parts that the reference builds on
    # its own, so the module that checks them reads none of sl2's oracles
    assert not _names_an_oracle("test_preset_terms.py")


def test_hecke_checks_name_no_oracle_or_class_count():
    # the Hecke relations hold the preset's totals against each other alone
    assert not _names_an_oracle("test_hecke_relations.py")


def test_reference_imports_no_enumerator_or_oracle_from_sl2():
    # the test oracles must not share code with what they check
    checked = {
        "_reduced_forms", "elliptic_classes", "_hurwitz_sixths", "hurwitz_class_number", "eichler_selberg", "delta_coeffs",
    }
    imported = set()
    for node in ast.walk(REFERENCE_SOURCE):
        if isinstance(node, ast.ImportFrom) and node.module == "ranklef.sl2":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "ranklef":
            imported |= {f"ranklef.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert "ranklef.sl2" not in imported
    assert not imported & checked


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
    assert geom.parabolic_I == ()
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
    assert geom.parabolic_I == ()


def _cusp_entries(n, geom):
    """The parabolic I entries at eta = +-sqrt(n) I that the preset once
    carried: c+ = 1, c- = -1 and C+ = C- = the Laurent constant of the cusp
    zeta whose norms are (m+1)/sqrt(n), each class of mass 1/2."""
    spec = EpsteinSpec(
        classes=(ClassProgression(weight=0.5, scale=1.0 / math.sqrt(n), offset=1.0),),
        lattice_vol=1.0,
        exponent_base=1,
    )
    C = zeta_constant_terms(spec).constant_term
    assert math.isfinite(C) and C != 0
    return tuple(
        ParabolicIData(
            delta_flag=True,
            c_eta_plus=1.0,
            c_eta_minus=-1.0,
            C_eta_plus=C,
            C_eta_minus=C,
            dim_n_eta1=0,
            eta_torus=c.z,
            Rplus_xi0=(),
            z0_pairing=(-1.0, 1.0),
        )
        for c in geom.central_classes
    )


@pytest.mark.parametrize("n", [1, 4, 9, 100, 1936])
@pytest.mark.parametrize("k", [12, 24, 40])
def test_preset_cusp_entries_vanish_exactly(k, n):
    # the preset carries no parabolic I entries because these would add 0.0
    rs, mu = sl2_root_system(), mu_from_weight(k)
    geom = build_geom_sl2z(n)
    with_cusps = geom._replace(parabolic_I=_cusp_entries(n, geom))
    assert len(with_cusps.parabolic_I) == 2
    assert parabolic_I_term(rs, hc_parameter(rs, mu), with_cusps) == 0
    reports = [
        json.dumps(assemble(rs, mu, g)._asdict(), default=json_default, sort_keys=True, indent=2)
        for g in (geom, with_cusps)
    ]
    assert reports[0] == reports[1]


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


def test_geom_has_one_elliptic_entry_per_trace_and_orientation():
    for n in range(1, 31):
        classes = elliptic_classes(n)
        entries = build_geom_sl2z(n).elliptic_classes
        assert len(entries) == 2 * len(classes), n
        assert len({c.rep for c in entries}) == len(entries), n
        weights = [twelve_w / 12 for _, twelve_w in classes for _ in "+-"]
        assert [c.vol_quotient for c in entries] == weights, n
        # the reps of the one-entry-per-class list, each run of copies once
        unfolded_reps = [rep for rep, _ in itertools.groupby(c.rep for c in unfolded_sl2z_elliptic(n))]
        assert [c.rep for c in entries] == unfolded_reps, n


@pytest.mark.parametrize("n", [6, 12, 30, 100, 1000])
@pytest.mark.parametrize("k", [12, 24, 40])
def test_folded_elliptic_term_matches_one_entry_per_class(k, n):
    rs = sl2_root_system()
    lam = hc_parameter(rs, mu_from_weight(k))
    folded = build_geom_sl2z(n)
    unfolded = unfolded_sl2z_elliptic(n)
    got = elliptic_term(rs, lam, folded)
    want = elliptic_term(rs, lam, folded._replace(elliptic_classes=unfolded))
    # two recursive float sums of the same N1 and N2 products, each product
    # rounded once, differ per component by at most (N1 + N2) u sum |w_i T_i|
    # with u = 2^-53; the worst seen is about 2.8 N u |term| (k = 12, n = 1000)
    mass = sum(abs(c.vol_quotient * elliptic_orbital_term(rs, lam, c.rep)) for c in unfolded)
    bound = (len(unfolded) + len(folded.elliptic_classes)) * 2.0**-53 * mass
    assert abs(got.real - want.real) <= bound and abs(got.imag - want.imag) <= bound


def test_cold_compares_evaluate_a_float_inverse_once(monkeypatch):
    """Each trace gives a class (q, -q) and its inverse (-q, q).  Where q is a
    float the inverse takes the conjugate of the term, so over cold compares
    at n = 1..14 the 228 float entries make 114 evaluations and the 56 exact
    ones 56, where every entry made one (284)."""
    evaluated = []
    term = chars.elliptic_orbital_term

    def spy(rs, lam, xi):
        evaluated.append(xi)
        return term(rs, lam, xi)

    for module in (chars, lefschetz):
        monkeypatch.setattr(module, "elliptic_orbital_term", spy)
    for n in range(1, 15):
        _clear_sl2_caches()
        assert compare(12, n).match
    exact = [xi for xi in evaluated if float not in map(type, xi.angles)]
    assert (len(evaluated), len(exact)) == (170, 56)


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


@pytest.mark.parametrize("k", [12, 16, 24, 40])
def test_preset_through_so21_matches_su11(k):
    # su(1,1) and so(2,1) share their Lie algebra but not their root data or
    # determinant shapes, so the totals agree only up to rounding
    rs = build_root_system(GroupDescriptor.from_name("so(2,1)"))
    for n in (1, 2, 3, 5, 12, 30, 97, 200, 2000):
        got = assemble(rs, Weight((Fraction(k - 1, 2),)), sl2z_geometry_on_so21(build_geom_sl2z(n))).total
        want = lefschetz_sl2z(k, n).total
        assert abs(got - want) <= 1e-13 * abs(want), n


@lru_cache(maxsize=None)
def _preset_on_so21(n):
    return sl2z_geometry_on_so21(build_geom_sl2z(n))


@pytest.mark.parametrize("k", range(4, 41, 2))
def test_preset_through_so21_matches_eichler_selberg(k):
    # the oracle itself, not only su(1,1): the trace scaled by n^{-(k-2)/2}
    # exactly, then rounded once; the worst defect over this grid is 6.9e-13
    # (k = 40, n = 180), and 7.7e-13 over every even k <= 40 and n <= 200
    rs = build_root_system(GroupDescriptor.from_name("so(2,1)"))
    mu = Weight((Fraction(k - 1, 2),))
    for n in range(1, 201 if k in (12, 24, 40) else 31):
        got = assemble(rs, mu, _preset_on_so21(n)).total
        want = float(Fraction(eichler_selberg(k, n), n ** ((k - 2) // 2)))
        assert abs(got - want) <= 1e-11, n


# The error budget near the level bound, far inside MATCH_TOL.  With one
# elliptic entry per class group the worst defects over these levels are
# 3.0e-13 (k = 12), 1.7e-12 (k = 24) and 3.3e-12 (k = 40), so each bound has a
# margin of at least 3x; with one entry per class, k = 12 reached 5.3e-12 at
# n = 1000.
@pytest.mark.parametrize("k, bound", [(12, 1e-12), (24, 1e-11), (40, 1e-11)])
def test_compare_defect_near_the_level_bound(k, bound):
    for n in (500, 750, 1000, 1500, 2000):
        rep = compare(k, n)
        assert rep.match and rep.defect < bound, (n, rep.defect)
