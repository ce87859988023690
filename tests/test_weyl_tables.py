"""The per-assembly Weyl tables against the per-class code they replaced.

``elliptic_orbital_term``, ``omega`` and ``parabolic_I_term`` read the Weyl
orbit of lambda, its signs and the coset reps of each vanishing-root pattern
from tables built once per HC parameter, and Weyl elements act and compose
as signed permutations.  The reference below is the earlier code, which
rebuilt everything per class with dense Fraction products: dense ``apply``
and matrix products (from ``reference``), ``_compact_subgroup_of`` and
``_coset_reps``, the per-class orbital term and the per-w Omega and
parabolic-I loops.  Every term
must agree with it exactly (``==``), not just to a tolerance: each sum runs
its floating-point operations in the same order.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from ranklef.chars import (
    Chamber,
    NoncompactCartanElement,
    TorusElement,
    hc_parameter,
)
from ranklef.lefschetz import (
    EllipticClass,
    GeometricData,
    ParabolicIData,
    ParabolicIIData,
    assemble,
    elliptic_term,
    parabolic_I_term,
    parabolic_II_term,
)
from ranklef.rootsys import (
    GroupDescriptor,
    RootKind,
    Weight,
    WeylElement,
    build_root_system,
    compose,
    simple_roots,
    weyl_group,
)
from reference import dense, dense_apply, dense_closure, mat_mul, reflection_matrix

GROUPS = ["sl2r", "su(2,1)", "su(3,1)", "so(6,1)", "so(8,1)", "sp(2,1)", "sp(3,1)"]
RATIONAL_ANGLES = tuple(
    Fraction(p, q) for p, q in ((0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6))
)
UNITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Reference: the per-class implementation with dense Fraction products


def ref_dot(coords, q):
    acc = 0
    exact = True
    for c, a in zip(coords, q):
        if isinstance(a, Fraction):
            acc += c * a
        else:
            exact = False
            acc = float(acc) + float(c) * a
    return acc if exact else float(acc)


def ref_phase(x):
    if isinstance(x, Fraction):
        x = x - (x.numerator // x.denominator)
        return cmath.exp(2j * math.pi * (x.numerator / x.denominator))
    return cmath.exp(2j * math.pi * x)


def ref_character_exp(coords, t):
    return ref_phase(ref_dot(coords.coords, t.angles))


def ref_is_one(root, t):
    x = ref_dot(root.coords, t.angles)
    if isinstance(x, Fraction):
        return x.denominator == 1
    return abs(ref_phase(x) - 1.0) < UNITY_TOL


def ref_inner(rs, a, b):
    return rs.form_scale * sum(x * y for x, y in zip(a.coords, b.coords))


def ref_coroot_pairing(mu, alpha):
    num = sum(a * b for a, b in zip(mu.coords, alpha.coords))
    den = sum(a * a for a in alpha.coords)
    return 2 * num / den


def ref_vanishing_roots(rs, t):
    return [r for r in rs.positive_roots() if ref_is_one(r, t)]


def ref_compact_subgroup_of(rs, roots):
    return set(dense_closure(rs, [r for r in roots if r.kind is RootKind.COMPACT]))


def ref_coset_reps(rs, xi):
    fixed = ref_vanishing_roots(rs, xi)
    subgroup = ref_compact_subgroup_of(rs, fixed)
    reps, covered = [], set()
    for w in weyl_group(rs, "compact"):
        if dense(w) in covered:
            continue
        reps.append(w)
        covered.update(mat_mul(dense(w), h) for h in subgroup)
    return reps, fixed


def ref_elliptic_orbital_term(rs, lam, xi):
    reps, fixed = ref_coset_reps(rs, xi)
    fixed_coords = {r.coords for r in fixed}
    den = ref_character_exp(rs.rho_g, xi)
    for r in rs.positive_roots():
        if r.coords in fixed_coords:
            continue
        den *= 1 - 1 / ref_character_exp(r, xi)
    total = 0.0 + 0.0j
    for w in reps:
        wl = dense_apply(dense(w), lam.lam)
        coeff = complex(w.sign)
        for r in fixed:
            coeff *= float(ref_inner(rs, wl, Weight(r.coords)))
        total += coeff * ref_character_exp(wl, xi)
    sign = (-1) ** (rs.dim_p // 2)
    return sign * total / den


def ref_c_sign(rs, mu, chamber):
    s = ref_coroot_pairing(mu, rs.beta0)
    base = -1 if s > 0 else (1 if s < 0 else 0)
    return -base if chamber is Chamber.H_MINUS else base


def ref_omega(rs, lam, h):
    m = TorusElement(h.compact_angles)
    t = abs(h.log_a)
    total = 0.0 + 0.0j
    for w in weyl_group(rs, "full"):
        wl = dense_apply(dense(w), lam.lam)
        c = ref_c_sign(rs, wl, h.chamber)
        if c == 0:
            continue
        pairing = ref_coroot_pairing(wl, rs.beta0)
        radial = math.exp(-abs(float(pairing)) * t / 2.0)
        total += w.sign * c * ref_character_exp(wl - rs.rho_g, m) * radial
    return 0.5 * total


def ref_elliptic_term(rs, lam, geom):
    total = 0.0 + 0.0j
    for cls in geom.elliptic_classes:
        total += (cls.vol_quotient / cls.d_xi) * ref_elliptic_orbital_term(rs, lam, cls.rep)
    return total


def ref_parabolic_I_term(rs, lam, geom, interpretation):
    sign = (-1) ** (rs.dim_p // 2)
    total = 0.0 + 0.0j
    for entry in geom.parabolic_I:
        if not entry.delta_flag:
            continue
        half_dim = entry.dim_n_eta1 // 2
        pref = entry.c_eta_plus * entry.C_eta_plus + entry.c_eta_minus * entry.C_eta_minus
        wsum = 0.0 + 0.0j
        for w in weyl_group(rs, "compact"):
            wl = dense_apply(dense(w), lam.lam)
            term = 1.0 + 0.0j
            if half_dim:
                z = complex(sum(float(c) * p for c, p in zip(wl.coords, entry.z0_pairing)))
                if interpretation == "conjugate":
                    z = z.conjugate()
                term = z ** half_dim
            for coords in entry.Rplus_xi0:
                term *= float(ref_inner(rs, wl, Weight(coords)))
            term *= ref_character_exp(wl, entry.eta_torus)
            wsum += term
        total += pref * wsum
    return sign * total


def ref_parabolic_II_term(rs, lam, geom):
    sign = (-1) ** (rs.dim_p // 2 + 1)
    total = 0.0 + 0.0j
    for entry in geom.parabolic_II:
        om = ref_omega(rs, lam, entry.eta_H)
        if entry.eta_H.chamber is Chamber.H_MINUS:
            om = -om
        total += entry.vol_M * math.sqrt(entry.det_Ad_n) * entry.coset_index * om
    return sign * 0.5 * total


# ---------------------------------------------------------------------------
# Inputs


def _rs(name):
    return build_root_system(GroupDescriptor.from_name(name))


def _torus(rng, rs, exact):
    """Seeded angles; su(n,1) elements keep coordinate sum zero.  Float
    elements stay 0.02 away from every root hyperplane."""
    free = rs.dim - 1 if rs.descriptor.family.value == "su" else rs.dim
    while True:
        if exact:
            q = [rng.choice(RATIONAL_ANGLES) for _ in range(free)]
        else:
            q = [rng.uniform(0.02, 0.98) for _ in range(free)]
        if free < rs.dim:
            q.append(-sum(q))
        if exact:
            return TorusElement(tuple(q))
        pairings = [float(sum(c * a for c, a in zip(r.coords, q))) for r in rs.positive_roots()]
        if all(abs(x - round(x)) > 0.02 for x in pairings):
            return TorusElement(tuple(q))


def make_geometry(rs, seed, n_exact=8, n_float=4):
    rng = random.Random(f"{rs.descriptor.name()} {seed}")
    identity = TorusElement(tuple(Fraction(0) for _ in range(rs.dim)))
    reps = [identity] + [_torus(rng, rs, True) for _ in range(n_exact - 1)]
    reps += [_torus(rng, rs, False) for _ in range(n_float)]
    elliptic = tuple(
        EllipticClass(rep=rep, vol_quotient=1.0 / rng.choice((2, 3, 4, 6)), d_xi=float(rng.choice((1, 2))))
        for rep in reps
    )
    parabolic_I = tuple(
        ParabolicIData(
            delta_flag=flag,
            c_eta_plus=rng.uniform(0.5, 1.5),
            c_eta_minus=-rng.uniform(0.5, 1.5),
            C_eta_plus=rng.uniform(-1.0, 1.0),
            C_eta_minus=rng.uniform(-1.0, 1.0),
            dim_n_eta1=dim_n1,
            eta_torus=_torus(rng, rs, exact),
            Rplus_xi0=tuple(
                tuple(Fraction(rng.randint(-1, 1)) for _ in range(rs.dim)) for _ in range(n_roots)
            ),
            z0_pairing=tuple(rng.uniform(-1.0, 1.0) for _ in range(rs.dim)),
        )
        for flag, dim_n1, n_roots, exact in ((True, 0, 0, True), (True, 2, 1, True), (True, 4, 2, False), (False, 2, 1, True))
    )
    parabolic_II = tuple(
        ParabolicIIData(
            vol_M=rng.uniform(0.25, 1.0),
            det_Ad_n=rng.uniform(0.5, 4.0),
            coset_index=rng.randint(1, 6),
            eta_H=NoncompactCartanElement.from_log_a(_torus(rng, rs, exact).angles, log_a),
        )
        for log_a, exact in ((0.0, True), (0.7, True), (-0.4, True), (1.3, False), (-0.9, False))
    )
    return GeometricData(
        total_vol=1.0,
        elliptic_classes=elliptic,
        parabolic_I=parabolic_I,
        parabolic_II=parabolic_II,
        residue_scalar=0.5,
    )


def mu_choices(rs):
    """rho_g - rho_k and twice it (regular), and 0 where 0 is singular."""
    rho_n = rs.rho_g - rs.rho_k
    out = [rho_n, rho_n.scale(2)]
    if rs.descriptor.name() != "su(2,1)":
        out.append(Weight(tuple(Fraction(0) for _ in range(rs.dim))))
    return out


# ---------------------------------------------------------------------------
# Exact equality with the reference


@pytest.mark.parametrize("name", GROUPS)
def test_terms_equal_the_per_class_reference_exactly(name):
    rs = _rs(name)
    geom = make_geometry(rs, seed=1)
    patterns = {
        tuple(r.coords for r in ref_vanishing_roots(rs, c.rep)) for c in geom.elliptic_classes
    }
    # identity, regular, and a partial pattern where there are roots enough
    assert len(patterns) >= min(3, 1 + len(rs.positive_roots()))
    assert {e.eta_H.chamber for e in geom.parabolic_II} == set(Chamber)
    branches = set()
    for mu in mu_choices(rs):
        lam = hc_parameter(rs, mu)
        branches.add(lam.regularity.regularity)
        assert elliptic_term(rs, lam, geom) == ref_elliptic_term(rs, lam, geom)
        for interpretation in ("conjugate", "identity"):
            got = parabolic_I_term(rs, lam, geom, interpretation)
            assert got == ref_parabolic_I_term(rs, lam, geom, interpretation)
        assert parabolic_II_term(rs, lam, geom) == ref_parabolic_II_term(rs, lam, geom)
    assert len(branches) == (1 if name == "su(2,1)" else 2)


@pytest.mark.parametrize("name", ["so(8,1)", "sp(3,1)"])
def test_sparse_products_equal_the_dense_ones(name):
    rs = _rs(name)
    group = weyl_group(rs, "full")
    by_matrix = {dense(w): w for w in group}
    gens = [by_matrix[reflection_matrix(rs, r)] for r in simple_roots(rs)]
    weights = [rs.rho_g, Weight(tuple(Fraction(3 * i + 1, i + 2) for i in range(rs.dim)))]
    for i, w in enumerate(group):
        for v in weights:
            assert w.apply(v) == dense_apply(dense(w), v)
        for other in gens + [w, group[(i + 1) % len(group)]]:
            product = compose((w.perm, w.signs), (other.perm, other.signs))
            assert dense(product) == mat_mul(dense(w), dense(other))


# ---------------------------------------------------------------------------
# Structure: one orbit per assembly, not one per class


def test_weyl_orbits_are_built_once_per_assemble(monkeypatch):
    rs = _rs("so(8,1)")
    mu = rs.rho_g - rs.rho_k
    calls = []
    dense = WeylElement.apply

    def counted(self, weight):
        calls.append(1)
        return dense(self, weight)

    monkeypatch.setattr(WeylElement, "apply", counted)
    counts = []
    for n_exact, n_float in ((8, 4), (32, 16)):
        calls.clear()
        assemble(rs, mu, make_geometry(rs, seed=2, n_exact=n_exact, n_float=n_float))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert counts[0] <= len(weyl_group(rs, "full")) + len(weyl_group(rs, "compact"))
