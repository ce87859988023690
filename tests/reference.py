"""Test-only reference code, kept apart from the package it checks.

* The pairings and phases: the form-scaled pairing ``inner``, the coroot
  pairing ``coroot_pairing`` and e^beta(t) as ``character_exp``, summed
  coordinate by coordinate in Fractions (floats once an angle is a float),
  sharing no code with the integer rows of ``ranklef.chars``.
* Dense Weyl matrices.  ``ranklef.rootsys`` enumerates a Weyl group as signed
  permutations from its closed form; the tests recompute the groups here as
  dense matrices of exact entries, closed from the reflections
  e_i -> e_i - <e_i, alpha_v> alpha in the simple roots and multiplied entry
  by entry, so they share no enumeration or product code with the package.
  Integral entries are kept as ints, which multiply far faster than
  Fractions.
* The elliptic orbital term as a full-W_k average, without coset reps.
* ``geometry_to_dict``, the inverse of ``lefschetz.geometry_from_dict``.
* 2x2 integer matrix products, adjugates and entries, weight scaling, and
  weight-lattice membership.
* ``all_roots``, the full root set R(g,t) = R+ and -R+.
* ``torus_sl2``, the su(1,1) torus element with a given root angle.
* ``c_sign``, the sign function of the character formula on H.
* ``unfolded_sl2z_elliptic``, the SL(2,Z) elliptic entries one per class.
* The classical oracles by their direct definitions, sharing no code with
  ``ranklef.sl2``: Hurwitz class numbers by a reduced-form loop per
  discriminant, the trace polynomial by the Chebyshev recursion, the
  Eichler-Selberg trace built from both, and tau as the 8th power of Jacobi's
  cube by repeated sparse products.
"""

import cmath
import functools
import math
from fractions import Fraction

from ranklef.chars import Chamber, TorusElement
from ranklef.lefschetz import EllipticClass
from ranklef.rootsys import Root, RootKind, Weight, WeylElement
from ranklef.sl2 import IntegerMatrix, _elliptic_rep_angle, elliptic_classes

# ---------------------------------------------------------------------------
# Pairings and phases


def dot(coords, q):
    """Exact when every angle is a Fraction; otherwise in floats, coordinate
    by coordinate, so a mixed vector pairs as its float copy does."""
    if all(isinstance(a, Fraction) for a in q):
        return sum((c * a for c, a in zip(coords, q, strict=True)), Fraction(0))
    acc = 0.0
    for c, a in zip(coords, q, strict=True):
        acc += float(c) * float(a)
    return acc


def phase(x):
    """exp(2 pi i x), reduced mod 1 first when x is a Fraction."""
    if isinstance(x, Fraction):
        x = x - (x.numerator // x.denominator)
        return cmath.exp(2j * math.pi * (x.numerator / x.denominator))
    return cmath.exp(2j * math.pi * x)


def character_exp(coords, t):
    """e^beta(t) for a Root or Weight beta."""
    return phase(dot(coords.coords, t.angles))


def inner(rs, a, b):
    """The invariant pairing, normalized so the short root has norm^2 = 2."""
    return rs.form_scale * sum(x * y for x, y in zip(a.coords, b.coords, strict=True))


def coroot_pairing(mu, alpha):
    """<mu, alpha^v> = 2 <mu, alpha> / <alpha, alpha>."""
    num = sum(a * b for a, b in zip(mu.coords, alpha.coords, strict=True))
    den = sum(a * a for a in alpha.coords)
    return 2 * num / den


# ---------------------------------------------------------------------------
# Dense Weyl matrices


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _exact(x):
    return x.numerator if x.denominator == 1 else x


def reflection_matrix(rs, alpha):
    """The matrix of s_alpha: column i is s_alpha(e_i) = e_i - <e_i, alpha_v> alpha."""
    dim = rs.dim
    cols = []
    for e in identity(dim):
        c = Fraction(2 * sum(x * a for x, a in zip(e, alpha.coords)), sum(a * a for a in alpha.coords))
        cols.append(tuple(_exact(e[j] - c * alpha.coords[j]) for j in range(dim)))
    return tuple(zip(*cols))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def dense(w):
    """The matrix of a signed permutation, given as a WeylElement or as a
    (perm, signs) pair: row i holds signs[i] in column perm[i]."""
    perm, signs = (w.perm, w.signs) if isinstance(w, WeylElement) else w
    return tuple(tuple(s if j == p else 0 for j in range(len(perm))) for p, s in zip(perm, signs))


def dense_apply(m, weight):
    return Weight(tuple(sum(x * c for x, c in zip(row, weight.coords)) for row in m))


def simple_roots(rs, compact_only=False):
    """Indecomposable elements of the chosen positive system."""
    pos = rs.positive_roots(RootKind.COMPACT if compact_only else None)
    coords = {r.coords for r in pos}
    simples = []
    for r in pos:
        decomposable = any(
            tuple(x - y for x, y in zip(r.coords, s)) in coords
            for s in coords
            if s != r.coords
        )
        if not decomposable:
            simples.append(r)
    return simples


def dense_closure(rs, roots):
    """The group generated by the reflections in ``roots`` as matrix -> det,
    the determinant being (-1)^(length of the word that first reached it)."""
    gens = [reflection_matrix(rs, r) for r in roots]
    ident = identity(rs.dim)
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen[prod] = -seen[m]
                    new.append(prod)
        frontier = new
    return seen


# ---------------------------------------------------------------------------
# Elliptic orbital term as a full-W_k average

_closure = functools.lru_cache(maxsize=None)(dense_closure)


@functools.lru_cache(maxsize=None)
def _compact_orbit(rs, lam):
    group = _closure(rs, tuple(rs.positive_roots(RootKind.COMPACT)))
    return [(det, dense_apply(m, lam).coords) for m, det in group.items()]


def full_average_orbital_term(rs, lam, xi):
    """The elliptic orbital term at a rational xi, summed over all of W_k:

        (-1)^{dim p/2} (1/|W_{k_xi}|) sum_{w in W_k} det(w)
            prod_{a in R+(xi)} <w.lam, a> e^{w.lam}(xi)
          / ( e^{rho_g}(xi) prod_{b in R+ \\ R+(xi)} (1 - e^{-b}(xi)) ).

    The summand is constant on right cosets W_{k_xi} w, so this equals the
    sum over one rep per coset without choosing any.  Both groups are closed
    from dense reflection matrices.
    """
    positive = rs.positive_roots()
    pairing = {r.coords: dot(r.coords, xi.angles) for r in positive}
    fixed = [r for r in positive if pairing[r.coords].denominator == 1]
    den = phase(dot(rs.rho_g.coords, xi.angles))
    for r in positive:
        if r not in fixed:
            den *= 1 - 1 / phase(pairing[r.coords])
    subgroup = _closure(rs, tuple(r for r in fixed if r.kind is RootKind.COMPACT))
    total = 0.0 + 0.0j
    for det, wl in _compact_orbit(rs, lam.lam):
        coeff = Fraction(det)
        for r in fixed:
            coeff *= rs.form_scale * dot(wl, r.coords)
        total += float(coeff) * phase(dot(wl, xi.angles))
    return (-1) ** (rs.dim_p // 2) * total / (len(subgroup) * den)


# ---------------------------------------------------------------------------
# Geometry to JSON


def _angle_to_json(a):
    if isinstance(a, Fraction):
        return [a.numerator, a.denominator]
    return float(a)


def _torus_to_json(t):
    return [_angle_to_json(a) for a in t.angles]


def geometry_to_dict(geom):
    residue = None if geom.residue_scalar is None else complex(geom.residue_scalar)
    return {
        "total_vol": geom.total_vol,
        "central_classes": [
            {"tag": c.tag, "z": _torus_to_json(c.z)} for c in geom.central_classes
        ],
        "elliptic_classes": [
            {
                "rep": _torus_to_json(c.rep),
                "vol_quotient": c.vol_quotient,
                "d_xi": c.d_xi,
            }
            for c in geom.elliptic_classes
        ],
        "parabolic_I": [
            {
                "delta_flag": p.delta_flag,
                "c_eta_plus": p.c_eta_plus,
                "c_eta_minus": p.c_eta_minus,
                "C_eta_plus": p.C_eta_plus,
                "C_eta_minus": p.C_eta_minus,
                "dim_n_eta1": p.dim_n_eta1,
                "eta_torus": _torus_to_json(p.eta_torus),
                "Rplus_xi0": [[_angle_to_json(c) for c in coords] for coords in p.Rplus_xi0],
                "Z0_pairing": list(p.z0_pairing),
            }
            for p in geom.parabolic_I
        ],
        "parabolic_II": [
            {
                "vol_M": p.vol_M,
                "det_Ad_n": p.det_Ad_n,
                "coset_index": p.coset_index,
                "eta_H": {
                    "compact_angles": _torus_to_json(TorusElement(p.eta_H.compact_angles)),
                    "log_a": p.eta_H.log_a,
                    "chamber": p.eta_H.chamber.value,
                },
            }
            for p in geom.parabolic_II
        ],
        "residue_scalar": (
            None if residue is None else {"im": residue.imag, "re": residue.real}
        ),
        "calibration": geom.calibration,
    }


# ---------------------------------------------------------------------------
# Integer matrices and the weight lattice


def int_mat_mul(x, y):
    return IntegerMatrix(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def adjugate(m):
    return IntegerMatrix(m.d, -m.b, -m.c, m.a)


def entries(m):
    return (m.a, m.b, m.c, m.d)


def scale(w, c):
    return Weight(tuple(Fraction(c) * a for a in w.coords))


def is_integral(rs, mu):
    """Membership test for the weight lattice: all coroot pairings integral."""
    return all(coroot_pairing(mu, r).denominator == 1 for r in rs.positive_roots())


def all_roots(rs):
    """R(g,t): the positive roots, then their negatives in the same order."""
    negatives = [Root(tuple(-c for c in r.coords), r.kind) for r in rs.positive_roots()]
    return rs.positive_roots() + negatives


def torus_sl2(q):
    """The su(1,1) torus element with e^alpha(t) = exp(2 pi i q)."""
    if isinstance(q, Fraction):
        return TorusElement((q / 2, -q / 2))
    return TorusElement((q / 2.0, -q / 2.0))


def c_sign(rs, mu, chamber):
    """Sign function of the character formula on H.

    The pairing mu(i(E_l - E_{-l})) is identified with <mu, beta0_v> through
    the Cayley transform; on H_plus the sign is minus that pairing's sign,
    and H_minus negates it.  a_equals_1 follows the H_plus (one-sided)
    convention.
    """
    s = sum(a * b for a, b in zip(mu.coords, rs.beta0.coords))  # the sign of <mu, beta0_v>
    base = -1 if s > 0 else (1 if s < 0 else 0)
    return -base if chamber is Chamber.H_MINUS else base


def unfolded_sl2z_elliptic(n):
    """The elliptic entries of ``sl2.build_geom_sl2z(n)`` before equal classes
    were folded: class_count // 2 copies per group and orientation, each
    weighted 1 / |centralizer|."""
    entries = []
    for grp in elliptic_classes(n):
        q = _elliptic_rep_angle(grp.trace, n)
        for oriented_q in (q, -q):
            for _ in range(grp.class_count // 2):
                entries.append(
                    EllipticClass(
                        rep=TorusElement((oriented_q, -oriented_q)),
                        vol_quotient=1.0 / grp.centralizer_order,
                        d_xi=1.0,
                    )
                )
    return tuple(entries)


# ---------------------------------------------------------------------------
# Classical oracles by their direct definitions


def hurwitz_sixths_one_pass(X):
    """6 H(N) for N = 0..X in one pass over the reduced forms: each (a, b),
    0 <= b <= a, adds 2, 3 or 6 at c = a and 6 or 12 for each c > a along
    N = 4ac - b^2.  Each table is built alone, where ``sl2._hurwitz_sixths``
    extends the half-size one."""
    table = [0] * (X + 1)
    a = 1
    while 3 * a * a <= X:
        step = 4 * a
        for b in range(a + 1):
            N = step * a - b * b
            if N > X:
                continue
            table[N] += 2 if b == a else 3 if b == 0 else 6
            w = 6 if b in (0, a) else 12
            table[N + step :: step] = [h + w for h in table[N + step :: step]]
        a += 1
    return tuple(table)


@functools.lru_cache(maxsize=None)
def hurwitz_by_forms(N):
    """H(N) from the reduced forms of discriminant -N alone: (a, b, c) with
    |b| <= a <= c and b >= 0 whenever |b| = a or a = c, weighted 1/3 for
    (a, a, a), 1/2 for (a, 0, a) and 1 otherwise; H(0) = -1/12."""
    if N == 0:
        return Fraction(-1, 12)
    if N % 4 in (1, 2):
        return Fraction(0)
    sixths = 0
    a = 1
    while 3 * a * a <= N:
        # b^2 + N = 4ac forces b = N (mod 2)
        for b in range(-a + (a + N) % 2, a + 1, 2):
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


def trace_polynomial(k, t, n):
    """P_k(t, n) = U_{k-2}(t, n) with U_0 = 1, U_1 = t, U_m = t U_{m-1} - n U_{m-2}."""
    if k < 2:
        raise ValueError("k must be >= 2")
    prev, cur = 1, t
    for _ in range(k - 3):
        prev, cur = cur, t * cur - n * prev
    return prev if k == 2 else cur


def eichler_selberg_by_recursion(k, n):
    """tr T_n on S_k(SL(2,Z)) = -1/2 sum_{t^2 <= 4n} P_k(t, n) H(4n - t^2)
    - 1/2 sum_{dd' = n} min(d, d')^(k-1), over every t of either sign."""
    tmax = math.isqrt(4 * n)
    total = -Fraction(1, 2) * sum(
        trace_polynomial(k, t, n) * hurwitz_by_forms(4 * n - t * t) for t in range(-tmax, tmax + 1)
    )
    total -= Fraction(1, 2) * sum(min(d, n // d) ** (k - 1) for d in range(1, n + 1) if n % d == 0)
    assert total.denominator == 1
    return int(total)


def tau_by_cube_products(N):
    """tau(1..N) as the 8th power of Jacobi's cube
    prod (1 - q^m)^3 = sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2}, by 8 sparse products."""
    cube = []
    j = 0
    while j * (j + 1) // 2 < N:
        cube.append((j * (j + 1) // 2, (-1) ** j * (2 * j + 1)))
        j += 1
    power = [1] + [0] * (N - 1)
    for _ in range(8):
        out = [0] * N
        for e, c in cube:
            out[e:] = [a + c * b for a, b in zip(out[e:], power)]
        power = out
    return power
