"""Character-layer tests: denominators, characters, formal degrees, Omega.

Frozen expected values were computed with the independent summation oracles
in this file (exact cyclotomic bookkeeping for rational angles, permutation
sums over explicit Weyl matrices, finite differences for the singular
limit), not with the module under test.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from ranklef.chars import (
    Chamber,
    HCParameter,
    NoncompactCartanElement,
    TorusElement,
    _Columns,
    _Torus,
    central_character,
    ds_character_Treg,
    elliptic_orbital_term,
    formal_degree,
    hc_parameter,
    omega,
    weyl_denominator_T,
)
from ranklef.rootsys import (
    MAX_TORUS_DIM,
    GroupDescriptor,
    RootKind,
    Weight,
    build_root_system,
    weyl_group,
)
from reference import (
    DIGITS,
    act,
    all_roots,
    c_sign,
    character_exp,
    full_average_orbital_term,
    inner,
    mp_character,
    omega_orbit,
    scale,
    torus_sl2,
)
from test_weyl_tables import GROUPS, make_geometry, mu_choices, ref_is_one

SL2 = build_root_system(GroupDescriptor.from_name("sl2r"))
SU21 = build_root_system(GroupDescriptor.from_name("su(2,1)"))


def _param(rs, coords) -> HCParameter:
    # direct construction from lambda, not from mu = lambda - rho_k
    return HCParameter(rs, Weight(tuple(Fraction(c) for c in coords)))


LAM11 = _param(SL2, (Fraction(11, 2), Fraction(-11, 2)))
LAM1 = _param(SL2, (Fraction(1, 2), Fraction(-1, 2)))


# ---------------------------------------------------------------------------
# Weyl denominator


def test_denominator_sl2_quarter_angle():
    t = torus_sl2(Fraction(1, 4))
    val = weyl_denominator_T(SL2, t)
    assert abs(val - 2j * math.sin(math.pi / 4)) < 1e-14


def test_denominator_identity_is_zero():
    for rs in (SL2, SU21):
        t = TorusElement(tuple(Fraction(0) for _ in range(rs.dim)))
        assert weyl_denominator_T(rs, t) == 0


def test_denominator_at_a_half_root_turn_is_a_few_ulps():
    # at t = (1/2, -1/2) the root turns by 1, singular, but the half-root
    # turn 1/2 takes the residue D/2, whose phase is -1 + 1.22e-16i: the
    # product is not exactly 0 (its bits depend on libm)
    val = weyl_denominator_T(SL2, TorusElement((Fraction(1, 2), Fraction(-1, 2))))
    assert 0 < abs(val) < 1e-15


def test_denominator_matches_eigenvalue_product():
    # |Delta_T|^2 equals prod over all roots of (1 - e^beta), the determinant
    # of (Id - Ad) on g/t computed from the adjoint eigenvalues.
    random.seed(3)
    for _ in range(20):
        q = tuple(Fraction(random.randint(-10, 10), 21) for _ in range(3))
        t = TorusElement(q)
        delta = weyl_denominator_T(SU21, t)
        prod = 1.0 + 0.0j
        for r in all_roots(SU21):
            prod *= 1 - character_exp(r, t)
        assert abs(abs(delta) ** 2 - prod.real) < 1e-9
        assert abs(prod.imag) < 1e-9


# ---------------------------------------------------------------------------
# discrete series character on T^reg


def _exact_numerator(rs, lam, t):
    """Independent cyclotomic recomputation: exact exponent bookkeeping."""
    terms = []
    for w in weyl_group(rs, "compact"):
        x = sum(c * a for c, a in zip(act(w, lam.coords), t.angles))
        terms.append((w.sign, x - (x.numerator // x.denominator)))
    return sum(s * cmath.exp(2j * math.pi * float(x)) for s, x in terms)


def test_character_sl2_frozen_values():
    t = torus_sl2(Fraction(1, 4))
    # e^{11a/2}(t) / (e^{a/2} - e^{-a/2})(t) = e^{11 i pi/4} / (2 i sin(pi/4))
    got = ds_character_Treg(SL2, LAM11, t)
    assert abs(got.value - (0.5 + 0.5j)) < 1e-12
    got1 = ds_character_Treg(SL2, LAM1, t)
    assert abs(got1.value - (0.5 - 0.5j)) < 1e-12


def test_character_su21_against_permutation_oracle():
    lam = _param(SU21, (2, 0, -2))
    t = TorusElement((Fraction(1, 7), Fraction(2, 7), Fraction(-3, 7)))
    num = _exact_numerator(SU21, lam.lam, t)
    den = weyl_denominator_T(SU21, t)
    got = ds_character_Treg(SU21, lam, t)
    assert abs(got.value - num / den) < 1e-12


def test_mixed_element_evaluates_as_its_float_copy():
    # one float angle makes the whole evaluation float: each rational angle
    # enters as float(angle), exactly as in the all-float copy of the element
    lam = _param(SU21, (3, 1, -4))
    mixed = TorusElement((Fraction(1, 7), Fraction(1, 5), 0.3))
    floats = TorusElement(tuple(float(a) for a in mixed.angles))
    assert ds_character_Treg(SU21, lam, mixed).value == ds_character_Treg(SU21, lam, floats).value
    assert elliptic_orbital_term(SU21, lam, mixed) == elliptic_orbital_term(SU21, lam, floats)
    # central elements: every root is 1 on them, to UNITY_TOL on the float path;
    # the character is 1 on the first at this lambda, a fifth root of unity on the second
    for lam, c in ((lam, Fraction(1, 3)), (_param(SU21, (4, 2, 0)), Fraction(1, 5))):
        mixed = TorusElement((c, float(c), c - 1))
        floats = TorusElement(tuple(float(a) for a in mixed.angles))
        exact = TorusElement((c, c, c - 1))
        value = central_character(SU21, lam, mixed)
        assert value == central_character(SU21, lam, floats)
        if ref_is_one(lam.lam - SU21.rho_g, exact):
            assert value is None and central_character(SU21, lam, exact) is None
        else:
            assert abs(value - central_character(SU21, lam, exact)) < 1e-12


def test_character_rejects_singular_element():
    # the identity, and (1/2, -1/2), where the denominator is a few ulps, not 0
    for q in (Fraction(0), Fraction(1, 2)):
        with pytest.raises(ValueError, match=r"^singular torus element; use elliptic_orbital_term$"):
            ds_character_Treg(SL2, LAM11, TorusElement((q, -q)))


def test_character_evaluates_a_regular_element_near_the_hyperplane():
    """t = (2^-46, -2^-46) is exactly regular, though the denominator is 1.8e-13
    in modulus: the character is refused only where a root phase is one, as the
    elliptic term decides, and reads within 1e-15 relative of its 50-digit value
    (6.2e-17 measured), inside ``mp_character``'s budget."""
    q = Fraction(1, 2**46)
    t = TorusElement((q, -q))
    got = ds_character_Treg(SL2, LAM11, t).value
    value, budget = mp_character(SL2, LAM11, t)
    with mpmath.workdps(DIGITS):
        error = abs(mpmath.mpc(got) - value)
        assert error <= budget and error <= 1e-15 * abs(value)


def test_numerator_antisymmetry():
    # N(u lam) = det(u) N(lam) for u in W_k, exact for rational angles
    random.seed(11)
    group = weyl_group(SU21, "compact")
    for _ in range(10):
        lam = Weight(tuple(Fraction(random.randint(-8, 8)) for _ in range(3)))
        q = tuple(Fraction(random.randint(-10, 10), 24) for _ in range(3))
        t = TorusElement(q)
        base = _exact_numerator(SU21, lam, t)
        for u in group:
            moved = _exact_numerator(SU21, Weight(act(u, lam.coords)), t)
            assert abs(moved - u.sign * base) < 1e-9


def test_character_cyclotomic_recomputation():
    random.seed(5)
    for _ in range(25):
        den = random.choice([5, 7, 8, 12, 24])
        q = tuple(Fraction(random.randint(-den, den), den) for _ in range(3))
        t = TorusElement(q)
        if abs(weyl_denominator_T(SU21, t)) < 1e-9:
            continue
        lam = _param(SU21, (3, 1, -4))
        got = ds_character_Treg(SU21, lam, t).value
        ref = _exact_numerator(SU21, lam.lam, t) / weyl_denominator_T(SU21, t)
        assert abs(got - ref) < 1e-12


# ---------------------------------------------------------------------------
# elliptic orbital values


def _random_regular_lambda(rs, rng):
    dim = rs.dim
    while True:
        if rs.descriptor.family.value == "su":
            vals = rng.sample(range(-9, 10), dim)
            vals.sort(reverse=True)
            coords = [Fraction(v) for v in vals]
        else:
            vals = rng.sample(range(1, 12), dim)
            vals.sort(reverse=True)
            coords = [Fraction(v) for v in vals]
        lam = Weight(tuple(coords))
        pairings = [inner(rs, lam, Weight(r.coords)) for r in rs.positive_roots()]
        if all(p > 0 for p in pairings):
            return HCParameter(rs, lam)


def _random_regular_torus(rs, rng):
    while True:
        den = rng.choice([7, 11, 13, 24])
        q = tuple(Fraction(rng.randint(-den, den), den) for _ in range(rs.dim))
        t = TorusElement(q)
        if abs(weyl_denominator_T(rs, t)) > 1e-6:
            return t


@pytest.mark.parametrize("name", ["su(1,1)", "su(2,1)", "so(4,1)", "sp(1,1)"])
def test_elliptic_orbital_consistency_regular(name):
    rs = build_root_system(GroupDescriptor.from_name(name))
    rng = random.Random(name)
    sign = (-1) ** (rs.dim_p // 2)
    for _ in range(20):
        lam = _random_regular_lambda(rs, rng)
        t = _random_regular_torus(rs, rng)
        lhs = elliptic_orbital_term(rs, lam, t)
        rhs = sign * ds_character_Treg(rs, lam, t).value
        assert abs(lhs - rhs) < 1e-9


def test_elliptic_orbital_takes_one_exponential_per_root(monkeypatch):
    """At a float regular class the term exponentiates rho_g and each positive
    root once, and each entry of Weyl's determinant once; the value is the same."""
    lam = hc_parameter(SU21, SU21.rho_g - SU21.rho_k)
    xi = TorusElement((0.1, 0.25, -0.35))
    value = elliptic_orbital_term(SU21, lam, xi)
    args = []
    exp = cmath.exp
    monkeypatch.setattr("ranklef.chars.cmath.exp", lambda z: args.append(z) or exp(z))
    assert elliptic_orbital_term(SU21, lam, xi) == value
    assert len(args) == 1 + len(SU21.positive) + len(lam.numerator_columns.rows)


@pytest.mark.parametrize("name", GROUPS)
def test_a_float_inverse_gives_the_conjugate_term(name):
    """On the float path the term at xi^-1 equals the conjugate of the term at
    xi, part for part (``lefschetz.elliptic_term`` reuses it).  A zero part
    may differ in sign only, and adding to a sum started at +0.0 erases that.
    The term is also the same at the all-float copy of xi and with the sign
    of each zero flipped, which is why that table is keyed by the plain
    tuple.  Classes: the regular float ones, float copies of the exact ones
    (the identity, all 0.0, and others singular to UNITY_TOL), one with a
    single 0.0 coordinate, and the wide Fraction/float mixtures."""
    rs = build_root_system(GroupDescriptor.from_name(name))
    reps = [c.rep for c in make_geometry(rs, seed=1).elliptic_classes]
    wide = [c.rep for c in make_geometry(rs, seed=3, n_exact=10, n_float=6, wide=True).elliptic_classes]
    regular = [t for t in reps if float in map(type, t.angles)]
    classes = regular + [TorusElement(tuple(map(float, t.angles))) for t in reps if t not in regular]
    classes += [t for t in wide if float in map(type, t.angles)]
    q = list(regular[0].angles)
    q[0] = 0.0
    if rs.descriptor.family.value == "su":
        q[-1] = -sum(q[:-1])
    classes.append(TorusElement(tuple(q)))
    assert sum(abs(weyl_denominator_T(rs, t)) < 1e-12 for t in classes) > 1
    assert any(len(set(map(type, t.angles))) == 2 for t in classes) or name == "sl2r"  # sl2r has no mixed vector
    for mu in mu_choices(rs):
        lam = hc_parameter(rs, mu)
        for xi in classes:
            conjugate = elliptic_orbital_term(rs, lam, xi).conjugate()
            inverse = elliptic_orbital_term(rs, lam, TorusElement(tuple(-a for a in xi.angles)))
            assert inverse == conjugate, (mu, xi)
            assert repr(0j + inverse) == repr(0j + conjugate), (mu, xi)
            flipped = tuple(-a if a == 0 and type(a) is float else a for a in xi.angles)
            for copy in (tuple(map(float, xi.angles)), flipped):
                assert elliptic_orbital_term(rs, lam, TorusElement(copy)) == conjugate.conjugate(), (mu, xi, copy)


def test_an_exact_inverse_at_half_a_turn_is_not_the_conjugate():
    """Why exact classes are evaluated each time: at xi = (1/4, -1/4) the root
    turns by 1/2, residue D/2, at xi and at xi^-1 alike, so both read
    e^{i pi} = -1 + 1.22e-16i and the terms are not conjugate."""
    xi, inverse = TorusElement((Fraction(1, 4), Fraction(-1, 4))), TorusElement((Fraction(-1, 4), Fraction(1, 4)))
    term, other = elliptic_orbital_term(SL2, LAM11, xi), elliptic_orbital_term(SL2, LAM11, inverse)
    assert other != term.conjugate()
    assert abs(other - term.conjugate()) < 1e-15


def test_elliptic_orbital_sl2_frozen_value():
    # (-1)^{dim p/2} Theta at the quarter-angle element; frozen from the
    # character value (1+i)/2 computed above.
    t = torus_sl2(Fraction(1, 4))
    got = elliptic_orbital_term(SL2, LAM11, t)
    assert abs(got - (-0.5 - 0.5j)) < 1e-12
    # a torus element with one angle too many is rejected, exact or float
    for q in (Fraction(1, 8), 0.125):
        with pytest.raises(ValueError):
            elliptic_orbital_term(SL2, LAM11, TorusElement((q, -q, q)))


def test_elliptic_orbital_singular_limit_oracle():
    # Singular xi in su(2,1) with R+(xi) = {e1 - e2}: the implementation must
    # match the finite-difference limit of the numerator derivative divided
    # by the surviving denominator factors (Harish-Chandra limit shape).
    xi = TorusElement((Fraction(1, 5), Fraction(1, 5), Fraction(-2, 5)))
    lam = _param(SU21, (3, 1, -4))
    direction = (1.0, -1.0, 0.0)  # coroot direction of e1 - e2

    def full_numerator(eps):
        total = 0.0 + 0.0j
        for w in weyl_group(SU21, "compact"):
            wl = Weight(act(w, lam.lam.coords))
            x = float(sum(float(c) * float(a) for c, a in zip(wl.coords, xi.angles)))
            x += eps * sum(float(c) * d for c, d in zip(wl.coords, direction))
            total += w.sign * cmath.exp(2j * math.pi * x)
        return total

    def derivative(eps):
        return (full_numerator(eps) - full_numerator(-eps)) / (2 * eps)

    d = (4 * derivative(1e-5) - derivative(2e-5)) / 3  # Richardson
    d /= 2j * math.pi
    den = character_exp(SU21.rho_g, xi)
    for r in SU21.positive_roots():
        if r.coords == (Fraction(1), Fraction(-1), Fraction(0)):
            continue
        den *= 1 - 1 / character_exp(r, xi)
    # full W_k sum double counts the W_{k_xi} cosets (order 2 subgroup)
    oracle = d / (2 * den)
    got = elliptic_orbital_term(SU21, lam, xi)
    assert abs(got - oracle) < 1e-7


def test_elliptic_orbital_coset_invariance():
    # the summand is invariant under replacing coset reps; compare against a
    # full-group sum divided by the subgroup order
    xi = TorusElement((Fraction(1, 5), Fraction(1, 5), Fraction(-2, 5)))
    lam = _param(SU21, (3, 1, -4))
    full = 0.0 + 0.0j
    a1 = Weight((Fraction(1), Fraction(-1), Fraction(0)))
    den = character_exp(SU21.rho_g, xi)
    for r in SU21.positive_roots():
        if r.coords == a1.coords:
            continue
        den *= 1 - 1 / character_exp(r, xi)
    for w in weyl_group(SU21, "compact"):
        wl = Weight(act(w, lam.lam.coords))
        full += w.sign * float(inner(SU21, wl, a1)) * character_exp(wl, xi)
    assert abs(elliptic_orbital_term(SU21, lam, xi) - full / (2 * den)) < 1e-12


# ---------------------------------------------------------------------------
# elliptic terms are class functions

CLASS_FUNCTION_GROUPS = [
    "sl2r", "so(2,1)", "su(2,1)", "su(3,1)", "su(4,1)", "so(4,1)", "so(6,1)", "so(8,1)",
    "sp(1,1)", "sp(2,1)", "sp(3,1)",
]
# Angles k/12.  On each group above they give every W_k-orbit of vanishing
# patterns that angles with denominators up to 12 give; 1/12 is there for a
# regular element of sp(3,1).
TWELFTHS = (0, 6, 4, 8, 3, 9, 2, 10, 1)


def _pattern_reps(rs):
    """One rational xi per W_k-orbit of vanishing patterns {a : e^a(xi) = 1}
    among the elements with angles in TWELFTHS / 12."""
    group = weyl_group(rs, "compact")
    roots = [tuple(int(c) for c in r.coords) for r in all_roots(rs)]
    free = rs.dim - 1 if rs.descriptor.family.value == "su" else rs.dim
    seen, reps = set(), []
    for ks in itertools.product(TWELFTHS, repeat=free):
        ks = list(ks) + [-sum(ks)] * (rs.dim - free)  # su(n,1): coordinate sum 0
        pattern = frozenset(r for r in roots if sum(i * k for i, k in zip(r, ks)) % 12 == 0)
        if pattern not in seen:
            reps.append(TorusElement(tuple(Fraction(k, 12) for k in ks)))
            for w in group:  # w permutes and flips the coordinates of each root
                seen.add(frozenset(tuple(s * r[p] for p, s in zip(w.perm, w.signs)) for r in pattern))
    return reps


def _regular_and_singular(rs):
    """lambda for mu = rho_n (regular), and for the first mu = t rho_n,
    0 <= t < 1, that gives a dominant singular lambda."""
    rho_n = rs.rho_g - rs.rho_k
    lams = [hc_parameter(rs, rho_n)]
    for t in sorted({Fraction(p, q) for q in range(1, 6) for p in range(q)}):
        try:
            lam = hc_parameter(rs, scale(rho_n, t))
        except ValueError:  # not dominant
            continue
        if not lam.regular:
            lams.append(lam)
            break
    assert [lam.regular for lam in lams] == [True, False]
    return lams


@pytest.mark.parametrize("name", CLASS_FUNCTION_GROUPS)
def test_elliptic_terms_are_class_functions(name):
    # xi and w.xi (w in W_k) are K-conjugate, so the orbital term must not
    # move; it must also equal the full-W_k average, which chooses no reps
    rs = build_root_system(GroupDescriptor.from_name(name))
    group = weyl_group(rs, "compact")
    reps = _pattern_reps(rs)
    failures = []
    for lam in _regular_and_singular(rs):
        for xi in reps:
            term = elliptic_orbital_term(rs, lam, xi)
            tol = 1e-12 * max(1.0, abs(term))
            if not abs(term - full_average_orbital_term(rs, lam, xi)) <= tol:
                failures.append((lam.lam.coords, xi.angles, "full-W_k average"))
            # w.xi over all w in W_k, each distinct vector once
            for moved in {act(w, xi.angles) for w in group}:
                if not abs(elliptic_orbital_term(rs, lam, TorusElement(moved)) - term) <= tol:
                    failures.append((lam.lam.coords, xi.angles, moved))
    assert not failures, f"{len(failures)} failures, first {failures[0]}"


# ---------------------------------------------------------------------------
# formal degree


def test_formal_degree_sl2_values():
    assert abs(formal_degree(SL2, LAM11) - 11 / (2 * math.pi)) < 1e-14
    assert abs(formal_degree(SL2, LAM1) - 1 / (2 * math.pi)) < 1e-14


def test_formal_degree_positive_and_monotone():
    prev = 0.0
    for k in range(4, 40, 2):
        lam = _param(SL2, (Fraction(k - 1, 2), Fraction(-(k - 1), 2)))
        val = formal_degree(SL2, lam)
        assert val > prev
        prev = val


def test_formal_degree_su21_positive():
    lam = _param(SU21, (2, 0, -2))
    assert formal_degree(SU21, lam) > 0


def test_formal_degree_rejects_singular():
    rs = SL2
    lam = HCParameter(rs, Weight((Fraction(0), Fraction(0))))
    assert not lam.regular
    with pytest.raises(ValueError):
        formal_degree(rs, lam)


NOT_COMPACT_DOMINANT = "weight is not dominant for the compact positive system"
NOT_DOMINANT = "lambda = mu + rho_k is regular but not dominant; present the dominant chamber representative"


def _fraction_regularity(rs, lam):
    """True, False (singular) or the expected error message, from the
    Fraction pairings of the oracle ``inner``, in the constructor's order."""
    pairings = [(r.kind, inner(rs, lam, Weight(r.coords))) for r in rs.positive_roots()]
    if any(p <= 0 for kind, p in pairings if kind is RootKind.COMPACT):
        return NOT_COMPACT_DOMINANT
    if any(p == 0 for _, p in pairings):
        return False
    if any(p < 0 for _, p in pairings):
        return NOT_DOMINANT
    return True


def _fraction_formal_degree(rs, lam):
    half_p = rs.dim_p // 2
    pref = 1.0 / ((2 * math.pi) ** half_p * 2 ** ((half_p - 1) / 2))
    num = math.prod(inner(rs, lam, Weight(r.coords)) for r in rs.positive_roots())
    den = math.prod(inner(rs, rs.rho_k, Weight(r.coords)) for r in rs.positive_roots(RootKind.COMPACT))
    return pref * abs(float(num / den))


def _seeded_lambdas(rs, rng):
    """Strictly dominant lambdas with thirds and halves, every W_g image of
    each (regular, some not dominant for the compact roots or not at all),
    and each projected onto every root wall (singular or not compact
    dominant)."""
    pool = sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(1, 4 * q)})
    out = []
    for _ in range(2):
        coords = sorted(rng.sample(pool, rs.dim), reverse=True)
        if rs.descriptor.family.value == "su":  # su(n,1) lambdas need not be positive
            shift = rng.choice(pool)
            coords = [c - shift for c in coords]
        lam = Weight(tuple(coords))
        out += [Weight(act(w, lam.coords)) for w in weyl_group(rs, "full")]
        for r in rs.positive_roots():
            c = inner(rs, lam, Weight(r.coords)) / inner(rs, Weight(r.coords), Weight(r.coords))
            out.append(lam - scale(Weight(r.coords), c))
    return out


@pytest.mark.parametrize("name", GROUPS)
def test_regularity_and_formal_degree_equal_the_fraction_reference(name):
    rs = build_root_system(GroupDescriptor.from_name(name))
    seen = set()
    for lam in _seeded_lambdas(rs, random.Random(name)):
        want = _fraction_regularity(rs, lam)
        seen.add(want)
        if isinstance(want, str):
            with pytest.raises(ValueError) as exc:
                hc_parameter(rs, lam - rs.rho_k)
            assert str(exc.value) == want
            continue
        param = hc_parameter(rs, lam - rs.rho_k)
        assert param.lam == lam and param.regular is want
        if want:
            assert formal_degree(rs, param) == _fraction_formal_degree(rs, lam)
        else:
            with pytest.raises(ValueError):
                formal_degree(rs, param)
    # sl2r has no compact root to fail dominance on
    assert seen == {True, False, NOT_DOMINANT} | ({NOT_COMPACT_DOMINANT} if name != "sl2r" else set())


# ---------------------------------------------------------------------------
# sign function and Omega


def test_c_sign_cases():
    """Omega's orbit keeps c = -1 for a positive beta0 pairing, +1 for a
    negative one, and no entry for a zero pairing; H_minus negates c."""
    for coords in [(3, -3), (2, -2), (Fraction(1, 2), Fraction(-1, 2))]:
        lam = _param(SL2, coords)
        plus, minus = omega_orbit(SL2, lam, Chamber.H_PLUS), omega_orbit(SL2, lam, Chamber.H_MINUS)
        assert len(plus) == len(minus) == 2  # W(sl2r) = {1, s}, and s.lam = -lam
        for (det, base, pairing, wl), (_, flipped, _, _) in zip(plus, minus):
            assert pairing == 2 * wl[0]  # <wl, beta0_v> with beta0 = e_1 - e_2
            assert base == (-1 if pairing > 0 else 1) == -flipped
            assert base == c_sign(SL2, Weight(wl), Chamber.H_PLUS) == -c_sign(SL2, Weight(wl), Chamber.H_MINUS)
    assert omega_orbit(SL2, _param(SL2, (0, 0)), Chamber.H_PLUS) == []


def _identity_h(rs):
    return NoncompactCartanElement.from_log_a(tuple(Fraction(0) for _ in range(rs.dim)), 0.0)


def test_omega_identity_vanishing_dichotomy():
    for name, vanishes in [
        ("su(3,1)", True),
        ("sp(1,1)", True),
        ("so(4,1)", True),
        ("su(2,1)", False),
        ("sl2r", False),
    ]:
        rs = build_root_system(GroupDescriptor.from_name(name))
        lam = HCParameter(rs, rs.rho_g)
        val = omega(rs, lam, _identity_h(rs))
        if vanishes:
            assert abs(val) < 1e-12, name
        else:
            assert abs(val) > 0.5, name


def test_omega_sl2_two_term_value_and_antisymmetry():
    # lambda dominant: the W_g terms w = 1 (det 1, c = -1) and w = s (det -1,
    # c = 1) select the same decaying exponential, so Omega(m a_t) =
    # -exp(-11 |t| / 2) and Omega(e) = -1.  The flipped lambda is not
    # dominant, and HCParameter rejects it.
    h = _identity_h(SL2)
    assert abs(omega(SL2, LAM11, h) - (-1.0)) < 1e-14
    for t in (0.37, -0.37):
        ht = NoncompactCartanElement.from_log_a(h.compact_angles, t)
        sign = -1 if t < 0 else 1  # H_minus negates c
        assert abs(omega(SL2, LAM11, ht) + sign * math.exp(-11 * abs(t) / 2)) < 1e-14
    with pytest.raises(ValueError, match="regular but not dominant"):
        _param(SL2, (Fraction(-11, 2), Fraction(11, 2)))


def test_omega_chamber_mirror_oddness():
    random.seed(23)
    for name in ("sl2r", "su(2,1)", "sp(1,1)"):
        rs = build_root_system(GroupDescriptor.from_name(name))
        lam = HCParameter(rs, rs.rho_g + rs.rho_g)
        for _ in range(10):
            ang = tuple(Fraction(random.randint(-6, 6), 12) for _ in range(rs.dim))
            t = random.uniform(0.05, 3.0)
            plus = NoncompactCartanElement.from_log_a(ang, t)
            minus = NoncompactCartanElement.from_log_a(ang, -t)
            assert abs(omega(rs, lam, minus) + omega(rs, lam, plus)) < 1e-9


def test_omega_one_sided_limit_at_identity_split():
    h0 = _identity_h(SL2)
    limit = omega(SL2, LAM11, NoncompactCartanElement.from_log_a(h0.compact_angles, 1e-9))
    assert abs(omega(SL2, LAM11, h0) - limit) < 1e-6


def test_omega_central_compact_part_parity():
    # compact part -I multiplies Omega by the central character (+1 for the
    # even-weight dictionary, -1 for odd)
    minus_angles = (Fraction(1, 2), Fraction(-1, 2))
    h = NoncompactCartanElement.from_log_a(minus_angles, 0.8)
    h0 = NoncompactCartanElement.from_log_a((Fraction(0), Fraction(0)), 0.8)
    assert abs(omega(SL2, LAM11, h) - omega(SL2, LAM11, h0)) < 1e-14  # k = 12
    lam_odd = _param(SL2, (5, -5))  # k = 11
    assert abs(omega(SL2, lam_odd, h) + omega(SL2, lam_odd, h0)) < 1e-14


# ---------------------------------------------------------------------------
# central character: None exactly where the character is 1


def test_central_character_identity():
    z = TorusElement((Fraction(0), Fraction(0)))
    assert character_exp(LAM11.lam - SL2.rho_g, z) == 1
    assert central_character(SL2, LAM11, z) is None


def test_central_character_minus_identity_parity():
    z = TorusElement((Fraction(1, 2), Fraction(-1, 2)))
    for k in (4, 8, 12, 20):
        lam = _param(SL2, (Fraction(k - 1, 2), Fraction(-(k - 1), 2)))
        assert character_exp(lam.lam - SL2.rho_g, z) == 1
        assert central_character(SL2, lam, z) is None
    for k in (5, 11):
        lam = _param(SL2, (Fraction(k - 1, 2), Fraction(-(k - 1), 2)))
        assert abs(central_character(SL2, lam, z) + 1.0) < 1e-12


def test_central_character_unitary_inverse():
    z = TorusElement((Fraction(1, 2), Fraction(-1, 2)))
    zinv = TorusElement((Fraction(-1, 2), Fraction(1, 2)))
    assert central_character(SL2, LAM11, z) is None and central_character(SL2, LAM11, zinv) is None
    lam = _param(SU21, (4, 2, 0))  # zeta_lam(z) = e^{2 pi i 6 c} at z = (c, c, c)
    z, zinv = TorusElement((Fraction(1, 5),) * 3), TorusElement((Fraction(-1, 5),) * 3)
    value = central_character(SU21, lam, z)
    assert abs(value - character_exp(lam.lam - SU21.rho_g, z)) < 1e-15
    assert abs(value * central_character(SU21, lam, zinv) - 1.0) < 1e-12


def test_central_character_rejects_noncentral():
    z = TorusElement((Fraction(1, 3), Fraction(-1, 3)))
    with pytest.raises(ValueError):
        central_character(SL2, LAM11, z)


def test_hc_parameter_wrapper():
    mu = Weight((Fraction(11, 2), Fraction(-11, 2)))
    lam = hc_parameter(SL2, mu)
    assert lam.lam == mu  # rho_k = 0 here
    assert lam.regular


# ---------------------------------------------------------------------------
# The two paths of _Torus.turns


def _turn_tori(dim):
    """A rational element, its float copy, and the identity on both paths."""
    rng = random.Random(22)
    exact = [Fraction(rng.randint(-60, 60), rng.choice((5, 7, 12, 97))) for _ in range(dim)]
    return exact, [float(a) for a in exact], [Fraction(0)] * dim, [0.0] * dim


@pytest.mark.parametrize("name", ["su(5,1)", "so(12,1)", "sp(5,1)"])
def test_turns_agree_below_and_above_twelve_rows(name):
    """``_Torus.turns`` takes one dot per row below 12 rows and one pass per
    column (``_combine``, a zero column at the identity) from 12 rows on;
    both give the same turns, on the exact path and on the float path."""
    rs = build_root_system(GroupDescriptor.from_name(name))
    assert rs.dim == MAX_TORUS_DIM
    lam = hc_parameter(rs, rs.rho_g - rs.rho_k)
    rows = lam.columns.rows
    assert len(rows) >= 12
    head, few, many = (_Columns(zip(*part), lam.den) for part in (rows[:11], rows[:5], rows[:5] * 3))
    for angles in _turn_tori(rs.dim):
        torus = _Torus(angles, lam.den, rs.dim)
        assert torus.exact is (type(angles[0]) is Fraction)
        assert torus.turns(head) == torus.turns(lam.columns)[:11]
        assert torus.turns(many) == torus.turns(few) * 3
