"""Test-only reference code, kept apart from the package it checks.

* The pairings and phases: the form-scaled pairing ``inner``, the coroot
  pairing ``coroot_pairing`` and e^beta(t) as ``character_exp``, summed
  coordinate by coordinate in Fractions (floats once an angle is a float),
  sharing no code with the integer columns of ``ranklef.chars``; a
  rational turn is reduced mod 1 into (-1/2, 1/2], as ``chars`` reduces its
  residues.
* Dense Weyl matrices.  ``ranklef.rootsys`` enumerates a Weyl group as signed
  permutations from its closed form; the tests recompute the groups here as
  dense matrices of exact entries, closed from the reflections
  e_i -> e_i - <e_i, alpha_v> alpha in the simple roots and multiplied entry
  by entry, so they share no enumeration or product code with the package.
  Integral entries are kept as ints, which multiply far faster than
  Fractions.  ``act`` is the tests' action of one signed permutation on a
  tuple; ``ranklef`` has none, and reads a group's perms and signs straight
  into the columns of lambda's orbit.
* The elliptic orbital term as a full-W_k average, without coset reps.
* ``geometry_to_dict``, the inverse of ``lefschetz.geometry_from_dict``.
* 2x2 integer matrix products, adjugates and entries, weight scaling, and
  weight-lattice membership.
* ``all_roots``, the full root set R(g,t) = R+ and -R+.
* ``torus_sl2``, the su(1,1) torus element with a given root angle.
* ``c_sign``, the sign function of the character formula on H.
* ``_reduced_forms``, the reduced forms of one discriminant at a time, the
  oracle of ``sl2.elliptic_classes``, which finds the forms of every trace
  in one pass over (A, B); ``ranklef`` has no per-discriminant loop.
  ``unfolded_sl2z_elliptic`` gives from it the SL(2,Z) elliptic entries one
  per reduced form and orientation.
* ``sl2z_geometry_on_so21``, a preset geometry moved from su(1,1) to so(2,1),
  and ``sp11_geometry_on_so41`` with ``sp11_weight_on_so41``, an sp(1,1)
  geometry and weight moved to so(4,1).
* The classical oracles by their direct definitions, sharing no code with
  ``ranklef.sl2``: Hurwitz class numbers from ``_reduced_forms``, the trace
  polynomial by the Chebyshev recursion, the Eichler-Selberg trace as the
  sum of its three parts (``eichler_selberg_parts``) built from both, and
  tau as the 8th power of Jacobi's cube by repeated sparse products.
* The Weyl orbit sums of ``ranklef.chars`` at 50 digits over the whole
  orbit: the ones it takes as determinants (``mp_elliptic``, ``mp_omega``)
  and the ones it adds per residue (``mp_singular_elliptic``,
  ``mp_unipotent``, ``mp_character``), a float W(g,t) orbit sum for Omega,
  and the stated error budget of each determinant term and of each float
  orbit sum; see "Error budgets" below.
"""

import cmath
import functools
import itertools
import math
from fractions import Fraction

import mpmath

from ranklef.chars import Chamber, NoncompactCartanElement, TorusElement
from ranklef.lefschetz import EllipticClass
from ranklef.rootsys import Family, Root, RootKind, Weight, WeylElement, weyl_group
from ranklef.sl2 import IntegerMatrix, _elliptic_rep_angle

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
    """exp(2 pi i x), reduced mod 1 into (-1/2, 1/2] first when x is a Fraction."""
    if isinstance(x, Fraction):
        x = x - (x.numerator // x.denominator)
        if x > Fraction(1, 2):
            x -= 1
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


def act(w, x):
    """w.x for a WeylElement w on a coordinate tuple of any number type, read
    off its signed permutation: coordinate i is signs[i] x[perm[i]]."""
    if len(x) != len(w.perm):
        raise ValueError(f"weight has {len(x)} coordinates; the Weyl element acts on {len(w.perm)}")
    return tuple(x[j] if s == 1 else -x[j] for j, s in zip(w.perm, w.signs))


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


# ---------------------------------------------------------------------------
# The SL(2,Z) preset by reduced forms, one discriminant at a time


def _reduced_forms(D: int):
    """Reduced positive forms (A, B, C) of discriminant -D, with the order of
    their automorphism group in SL(2,Z): (A, B, C, |Aut|).

    |B| <= A <= C and B >= 0 whenever |B| = A or A = C; non-primitive forms
    are included.  |Aut| is 6 for (A,A,A), 4 for (A,0,A) and 2 otherwise.
    """
    A = 1
    while 3 * A * A <= D:
        # B^2 = -D mod 4 fixes the parity of B; B = -A is never reduced
        for B in range(-A + 2 - (A + D) % 2, A + 1, 2):
            rem = B * B + D
            if rem % (4 * A) != 0:
                continue
            C = rem // (4 * A)
            if C < A or (B < 0 and C == A):
                continue
            if A == B == C:
                yield A, B, C, 6
            elif A == C and B == 0:
                yield A, B, C, 4
            else:
                yield A, B, C, 2
        A += 1


def unfolded_sl2z_elliptic(n):
    """The elliptic entries of ``sl2.build_geom_sl2z(n)`` before equal classes
    were folded: one per reduced form of discriminant t^2 - 4n and orientation,
    each weighted 1 / |Aut| = 1 / |centralizer|."""
    entries = []
    for t in range(-math.isqrt(4 * n - 1), math.isqrt(4 * n - 1) + 1):
        q = _elliptic_rep_angle(t, n)
        for oriented_q in (q, -q):
            for *_, aut in _reduced_forms(4 * n - t * t):
                entries.append(
                    EllipticClass(rep=TorusElement((oriented_q, -oriented_q)), vol_quotient=1.0 / aut, d_xi=1.0)
                )
    return tuple(entries)


def sl2z_geometry_on_so21(geom):
    """A geometry of the su(1,1) preset moved to so(2,1), which shares its
    Lie algebra: each angle pair (a, b) becomes (a - b), the root's own angle
    on both sides, and log_a stays.  Assembled on so(2,1) at mu = ((k-1)/2),
    whose coroot pairing is the preset's k - 1, it gives the preset's total
    through other root data and other determinant shapes."""

    def angle(pair):
        a, b = pair
        return (a - b,)

    return geom._replace(
        central_classes=tuple(c._replace(z=TorusElement(angle(c.z.angles))) for c in geom.central_classes),
        elliptic_classes=tuple(c._replace(rep=TorusElement(angle(c.rep.angles))) for c in geom.elliptic_classes),
        parabolic_II=tuple(
            p._replace(eta_H=NoncompactCartanElement.from_log_a(angle(p.eta_H.compact_angles), p.eta_H.log_a))
            for p in geom.parabolic_II
        ),
    )


def sp11_weight_on_so41(mu):
    """A weight (a, b) of sp(1,1) as the weight ((a + b)/2, (a - b)/2) of
    so(4,1), which pairs with the moved angles of ``sp11_geometry_on_so41``
    as (a, b) pairs with (q1, q2).  It sends R+ of sp(1,1), rho_k and beta0
    to those of so(4,1): 2e_1, 2e_2, e_1 + e_2 and e_1 - e_2 become
    e_1 + e_2, e_1 - e_2, e_1 and e_2, with their kinds."""
    a, b = mu.coords
    return Weight(((a + b) / 2, (a - b) / 2))


def sp11_geometry_on_so41(geom):
    """A geometry of sp(1,1) moved to so(4,1), which shares its Lie algebra:
    each angle pair (q1, q2), Omega's compact angles too, becomes
    (q1 + q2, q1 - q2); log_a and the chamber stay.  Assembled at the moved weight
    (``sp11_weight_on_so41``), each term is the sp(1,1) one through other
    ``rootsys`` branches and other determinant shapes."""

    def angle(pair):
        q1, q2 = pair
        return (q1 + q2, q1 - q2)

    return geom._replace(
        central_classes=tuple(c._replace(z=TorusElement(angle(c.z.angles))) for c in geom.central_classes),
        elliptic_classes=tuple(c._replace(rep=TorusElement(angle(c.rep.angles))) for c in geom.elliptic_classes),
        parabolic_II=tuple(
            p._replace(eta_H=p.eta_H._replace(compact_angles=angle(p.eta_H.compact_angles)))
            for p in geom.parabolic_II
        ),
    )


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
    return Fraction(sum(12 // aut for *_, aut in _reduced_forms(N)), 6)


def trace_polynomial(k, t, n):
    """P_k(t, n) = U_{k-2}(t, n) with U_0 = 1, U_1 = t, U_m = t U_{m-1} - n U_{m-2}."""
    if k < 2:
        raise ValueError("k must be >= 2")
    prev, cur = 1, t
    for _ in range(k - 3):
        prev, cur = cur, t * cur - n * prev
    return prev if k == 2 else cur


def eichler_selberg_parts(k, n):
    """The three parts of tr T_n on S_k(SL(2,Z)) that the preset's terms give
    one each (Zagier's appendix to Lang, *Introduction to Modular Forms*), as
    Fractions: the t^2 = 4n part -1/2 sum_{t = +-2 sqrt(n)} P_k(t, n) H(0),
    with H(0) = -1/12 (0 unless n is a square), the t^2 < 4n part
    -1/2 sum P_k(t, n) H(4n - t^2), and -1/2 sum_{d | n} min(d, n/d)^(k-1)."""
    root = math.isqrt(4 * n)
    squares = [t for t in (-root, root) if t * t == 4 * n]
    central = -Fraction(1, 2) * sum(trace_polynomial(k, t, n) * hurwitz_by_forms(0) for t in squares)
    elliptic = -Fraction(1, 2) * sum(
        trace_polynomial(k, t, n) * hurwitz_by_forms(4 * n - t * t) for t in range(-root, root + 1) if t * t < 4 * n
    )
    parabolic = -Fraction(1, 2) * sum(min(d, n // d) ** (k - 1) for d in range(1, n + 1) if n % d == 0)
    return central, elliptic, parabolic


def eichler_selberg_by_recursion(k, n):
    """tr T_n on S_k(SL(2,Z)) = -1/2 sum_{t^2 <= 4n} P_k(t, n) H(4n - t^2)
    - 1/2 sum_{dd' = n} min(d, d')^(k-1), over every t of either sign: the
    sum of ``eichler_selberg_parts``."""
    total = sum(eichler_selberg_parts(k, n))
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


# ---------------------------------------------------------------------------
# Weyl orbit sums at 50 digits, and the error budgets of the determinant terms
#
# ``chars`` takes the regular elliptic numerator sum_{W_k} det(w) e^{w.lam}(xi)
# and Omega as determinants of phases x_ij = e^{lam_j e_i}.  The values here
# are the same sums taken term by term over the whole Weyl orbit (closed from
# dense reflection matrices) in mpmath at DIGITS digits, on the exact inputs:
# a float angle is the dyadic rational it holds.
#
# Error budgets.  u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy
# and Stability of Numerical Algorithms, ch. 3).  A product of roundings
# prod (1 + delta_i), |delta_i| <= u, with k factors is 1 + theta, |theta| <=
# gamma_k, and (1 + theta_j)(1 + theta_k) = 1 + theta_{j+k}.  A real
# operation or a complex addition counts 1; a complex product counts 3
# (|fl(xy) - xy| <= sqrt(2) gamma_2 |xy| <= gamma_3 |xy|); a complex times a
# real counts 1; a complex division counts 12 (CPython divides by Smith's
# method: each component takes a few roundings relative to |a| / |b|);
# scaling by 1/2, 2^k or i^k is exact.
#
# * Phases.  The package evaluates e^v(t) = exp(2 pi i theta) as
#   cmath.exp(2j * math.pi * theta_hat).  With T = 1 on the exact path
#   (theta_hat = r / D for the residue r of N in (-D/2, D/2], one rounding,
#   |theta| <= 1/2) and T an upper
#   bound of sum_i |v_i q_i| on the float path (each of the d terms takes
#   v_i / den, q_i and their product, and the sum adds d - 1 roundings), the
#   argument is off by at most 2 pi gamma_{d+4} T, and cos and sin by at most
#   an ulp each, so |x_hat - x| <= eps = 2u + 2 pi gamma_{d+4} T.
# * Radial weights.  G = c exp(-A), A = |<w.lam, beta0_v>| |t| / 2, is
#   computed from a correctly rounded rate times t: A_hat = A (1 + theta_2),
#   and exp is within an ulp, so |G_hat / G - 1| <= rho = (1 + 2u) e^(gamma_2 A) - 1.
# * Determinants.  ``_minors`` copies row 1 and expands each later row k
#   (k >= 1) by one product and k additions, so every product of an m-row
#   expansion carries at most e(m) = (m - 1) c + m (m - 1) / 2 roundings, with
#   c = 1 for real and 3 for complex entries.  Its computed value is then
#   sum_sigma sgn(sigma) prod a_hat (1 + theta_sigma), |theta_sigma| <= gamma_K,
#   and with |a_hat - a| <= eps entrywise,
#       |det_hat - det| <= (1 + gamma_K) perm(|A| + eps) - perm(|A|),
#   the permanent of the entry moduli standing where an orbit sum has
#   sum |summand|.  K adds to e(m) the roundings that follow the expansion.
#   A weight or phase factored out of every product adds its own relative
#   error as a factor (1 + rho) or (1 + eps).
# * Division.  V = s N / D with |N_hat - N| <= beta_N and |D_hat - D| <= delta_D |D|:
#       |V_hat - V| <= (beta_N + |N| delta_D + gamma_12 (|N| + beta_N)) / (|D| (1 - delta_D)).
#   The denominator e^{rho_g} prod (1 - 1/e^b) has |R+| complex products, and
#   each factor f = 1 - 1/x_hat is within (1 + u)(eps + gamma_12) / (1 - eps) + u |f|
#   of its value.
# * Float orbit sums.  sum_w c_w e^{v_w}, added in order from 0, is within
#   ((1 + gamma_{|W|+1})(1 + eps)(1 + rho) - 1) sum_w |c_w| of its value.
#   ``chars._Torus.sum`` adds on the exact path the coefficients per residue
#   (exactly when they are integers, in row order otherwise), multiplies each
#   residue's sum by its phase, adds those in residue order and divides by an
#   integer scale s: each c_w e^{v_w} / s passes through at most
#   K = 2 |W| + 4 roundings (|W| - 1 within its residue, one int-to-float
#   conversion, 3 for the phase product, |W| - 1 across residues, 2 for the
#   division); the float path adds term by term, with fewer.  With |c_hat_w -
#   c_w| <= beta_w for coefficients that are themselves rounded, the sum is
#   within ((1 + gamma_K)(1 + eps) - 1) sum_w |c_w| + (1 + gamma_K)(1 + eps)
#   sum_w beta_w of its value, both sums taken after the division by s
#   (``orbit_sum_budget``).

DIGITS = 50


def _mp(x):
    """An mpf holding the exact rational or float x."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def gamma(k):
    u = mpmath.mpf(2) ** -53
    return k * u / (1 - k * u)


def _unit_roundoff():
    return mpmath.mpf(2) ** -53


def _depth(m, c):
    """e(m): the roundings of one product of an m-row ``_minors`` expansion."""
    return (m - 1) * c + m * (m - 1) // 2 if m > 1 else 0


def _mp_phase(theta):
    """exp(2 pi i theta) for an exact rational theta, reduced mod 1 first."""
    theta = Fraction(theta) % 1
    return mpmath.expjpi(2 * _mp(theta))


def _turn(v, angles):
    return sum((Fraction(c) * Fraction(a) for c, a in zip(v, angles, strict=True)), Fraction(0))


def _exact_angles(angles):
    return all(type(a) is Fraction for a in angles)


def phase_error(rs, lam, angles):
    """eps: the bound on |x_hat - x| for every phase the package takes at
    these angles: entries lam_j e_i, the su rows that add lam_n e_n or
    -rho_g, rho_g, the roots, the half roots and the orbit rows of lambda."""
    d = rs.dim
    if _exact_angles(angles):
        T = mpmath.mpf(1)
    else:
        big = 2 * max(abs(c) for c in lam.lam.coords) + max(abs(c) for c in rs.rho_g.coords) + 2
        T = _mp(sum(abs(Fraction(a)) for a in angles) * big)
    return 2 * _unit_roundoff() + 2 * mpmath.pi * gamma(d + 4) * T


def _radial(pairing, log_a):
    """exp(-|pairing| |log_a| / 2) and its stated relative error rho."""
    A = abs(_mp(pairing)) * abs(_mp(log_a)) / 2
    return mpmath.exp(-A), (1 + 2 * _unit_roundoff()) * mpmath.exp(gamma(2) * A) - 1


def _permanent(rows):
    n = len(rows)
    return mpmath.fsum(mpmath.fprod(rows[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


@functools.lru_cache(maxsize=None)
def _dense_orbit(rs, lam_coords, compact):
    """(det w, w.lam) over W(k,t) or W(g,t), closed from dense reflections."""
    roots = rs.positive_roots(RootKind.COMPACT) if compact else rs.positive_roots()
    group = _closure(rs, tuple(roots))
    return tuple((det, dense_apply(m, Weight(lam_coords)).coords) for m, det in group.items())


def omega_orbit(rs, lam, chamber):
    """The W(g,t) orbit of lambda that Omega sums: (det w, c(w.lam), <w.lam,
    beta0_v>, w.lam) for each w with c(w.lam) != 0, by ``c_sign``."""
    return _omega_orbit(rs, lam.lam.coords, chamber)


@functools.lru_cache(maxsize=None)
def _omega_orbit(rs, lam_coords, chamber):
    out = []
    for det, wl in _dense_orbit(rs, lam_coords, False):
        c = c_sign(rs, Weight(wl), chamber)
        if c:
            out.append((det, c, coroot_pairing(Weight(wl), rs.beta0), wl))
    return out


def mp_numerator(rs, lam, t):
    """sum_{w in W_k} det(w) e^{w.lam}(t) at DIGITS digits, over the whole orbit."""
    with mpmath.workdps(DIGITS):
        return mpmath.fsum(det * _mp_phase(_turn(wl, t.angles)) for det, wl in _dense_orbit(rs, lam.lam.coords, True))


def _denominator_factors(rs, xi):
    """e^{rho_g}(xi) and the factors 1 - e^{-b}(xi) over R+."""
    return _mp_phase(_turn(rs.rho_g.coords, xi.angles)), [
        1 - 1 / _mp_phase(_turn(r.coords, xi.angles)) for r in rs.positive_roots()
    ]


def mp_elliptic(rs, lam, xi):
    """The elliptic term at a regular xi at DIGITS digits, (-1)^{dim p/2} N / D
    with N = ``mp_numerator`` and D = e^{rho_g}(xi) prod_{R+} (1 - e^{-b}(xi)),
    as (value, N, D)."""
    with mpmath.workdps(DIGITS):
        N = mp_numerator(rs, lam, xi)
        rho, factors = _denominator_factors(rs, xi)
        if min(abs(f) for f in factors) == 0:
            raise ValueError("xi is singular")
        D = rho * mpmath.fprod(factors)
        return (-1) ** (rs.dim_p // 2) * N / D, N, D


def mp_omega(rs, lam, h):
    """Omega at DIGITS digits over the whole W(g,t) orbit, 1/2 sum_w det(w)
    c(w.lam) e^{w.lam - rho_g}(m) exp(-|<w.lam, beta0_v>| |t| / 2)."""
    with mpmath.workdps(DIGITS):
        rho = _turn(rs.rho_g.coords, h.compact_angles)
        radial = {}
        terms = []
        for det, c, pairing, wl in omega_orbit(rs, lam, h.chamber):
            if abs(pairing) not in radial:
                radial[abs(pairing)] = _radial(pairing, h.log_a)[0]
            terms.append(det * c * radial[abs(pairing)] * _mp_phase(_turn(wl, h.compact_angles) - rho))
        return mpmath.fsum(terms) / 2


def _entries(lam, angles, rows, cols):
    """x_ij = e^{lam_j e_i} at DIGITS digits, for i in ``rows`` and j in ``cols``."""
    q, L = [Fraction(a) for a in angles], lam.lam.coords
    return [[_mp_phase(L[j] * q[i]) for j in cols] for i in rows]


def numerator_budget(rs, lam, xi):
    """The stated bound on |N_hat - N| for ``chars``' determinant numerator.

    su(n,1): det[x_ij] with row 1 times x_{n+1,n+1}, complex, K = e_C(n):
        n! ((1 + gamma_K)(1 + eps)^n - 1).
    so(2n,1): 2^(n-1) (C + i^n S) for the real determinants C = det[Re x],
    S = det[Im x], K = e_R(n) + 1:
        2^(n-1) ((1 + gamma_K)(perm(|C| + eps) + perm(|S| + eps)) - perm|C| - perm|S|).
    sp(n,1): 2^(n+1) i^(n+1) S Im x_{n+1,n+1}, K = e_R(n) + 1:
        2^(n+1) ((1 + gamma_K) perm(|S| + eps)(|s| + eps) - perm|S| |s|).
    """
    with mpmath.workdps(DIGITS):
        eps = phase_error(rs, lam, xi.angles)
        family, d = rs.descriptor.family, rs.dim
        if family is Family.SU:
            n = d - 1
            return math.factorial(n) * ((1 + gamma(_depth(n, 3))) * (1 + eps) ** n - 1)
        n = d if family is Family.SO else d - 1
        x = _entries(lam, xi.angles, range(n), range(n))
        K = gamma(_depth(n, 1) + 1)
        S = [[abs(p.imag) for p in r] for r in x]
        S_eps = [[v + eps for v in r] for r in S]
        if family is Family.SO:
            C = [[abs(p.real) for p in r] for r in x]
            C_eps = [[v + eps for v in r] for r in C]
            return 2 ** (n - 1) * (
                (1 + K) * (_permanent(C_eps) + _permanent(S_eps)) - _permanent(C) - _permanent(S)
            )
        s = abs(_entries(lam, xi.angles, [n], [n])[0][0].imag)
        return 2 ** (n + 1) * ((1 + K) * _permanent(S_eps) * (s + eps) - _permanent(S) * s)


def _denominator_error(eps, factors):
    """delta_D = (1 + eps) prod_b (1 + delta_b) (1 + gamma_{3 |factors|}) - 1 for
    D = e^{rho_g}(xi) prod_b f_b, with f_b = 1 - e^{-b}(xi) and
    delta_b = (1 + u)(eps + gamma_12) / ((1 - eps) |f_b|) + u."""
    u = _unit_roundoff()
    delta_D = (1 + eps) * (1 + gamma(3 * len(factors))) - 1
    for f in factors:
        delta_D = (1 + delta_D) * (1 + (1 + u) * (eps + gamma(12)) / ((1 - eps) * abs(f)) + u) - 1
    return delta_D


def elliptic_budget(rs, lam, xi, N=None):
    """The stated bound on |V_hat - V| for ``elliptic_orbital_term`` at a
    regular xi: ``numerator_budget`` through the division (see above), with
    delta_D from ``_denominator_error`` over R+.  ``N`` defaults to
    ``mp_numerator``."""
    with mpmath.workdps(DIGITS):
        eps = phase_error(rs, lam, xi.angles)
        rho, factors = _denominator_factors(rs, xi)
        if N is None:
            N = mp_numerator(rs, lam, xi)
        D = rho * mpmath.fprod(factors)
        return _quotient_budget(numerator_budget(rs, lam, xi), N, D, _denominator_error(eps, factors))


def orbit_sum_budget(rs, lam, angles, weight, beta=0):
    """The stated bound for a float orbit sum of ``chars`` (see above) over
    W(k,t): ((1 + gamma_K)(1 + eps) - 1) sum_w |c_w| + (1 + gamma_K)(1 + eps)
    sum_w beta_w, K = 2 |W_k| + 4, with ``weight`` = sum_w |c_w| and ``beta``
    = sum_w beta_w, the bound on the error of the computed coefficients."""
    with mpmath.workdps(DIGITS):
        grow = (1 + gamma(2 * len(weyl_group(rs, "compact")) + 4)) * (1 + phase_error(rs, lam, angles))
        return (grow - 1) * weight + grow * beta


def mp_singular_elliptic(rs, lam, xi):
    """The elliptic term at a singular xi at DIGITS digits, and its stated
    budget for ``elliptic_orbital_term``.  R+(xi) holds the roots whose turn
    at xi is an integer (a float angle is the dyadic rational it holds).  For
    lambda on the weight lattice this is ``full_average_orbital_term``: the
    sum over all of W_k divided by |W_{k_xi}|.  Off the lattice the summand
    is not constant on cosets, so the sum runs over the member of each coset
    with <w.lam, a> > 0 for every compact a in R+(xi), the rep
    ``test_weyl_tables.ref_coset_reps`` closes.  The budget takes beta_N from
    ``orbit_sum_budget`` over the reps through the division by D over
    R+ \\ R+(xi)."""
    with mpmath.workdps(DIGITS):
        turns = [_turn(r.coords, xi.angles) for r in rs.positive_roots()]
        fixed = [r for r, t in zip(rs.positive_roots(), turns) if t.denominator == 1]
        compact = [r for r in fixed if r.kind is RootKind.COMPACT]
        size = len(_closure(rs, tuple(compact))) if is_integral(rs, lam.lam) else 1
        q = [Fraction(a) for a in xi.angles]
        terms, weight = [], Fraction(0)
        for det, wl in _dense_orbit(rs, lam.lam.coords, True):
            if size == 1 and any(inner(rs, Weight(wl), r) <= 0 for r in compact):
                continue
            coeff = det * math.prod(inner(rs, Weight(wl), r) for r in fixed)
            terms.append(_mp(coeff) * _mp_phase(sum(a * b for a, b in zip(wl, q))))
            weight += abs(coeff)
        N = mpmath.fsum(terms) / size
        factors = [1 - 1 / _mp_phase(t) for t in turns if t.denominator != 1]
        D = _mp_phase(_turn(rs.rho_g.coords, xi.angles)) * mpmath.fprod(factors)
        beta_N = orbit_sum_budget(rs, lam, xi.angles, _mp(weight) / size)
        delta_D = _denominator_error(phase_error(rs, lam, xi.angles), factors)
        return (-1) ** (rs.dim_p // 2) * N / D, _quotient_budget(beta_N, N, D, delta_D)


def mp_unipotent(rs, lam, entry):
    """The unipotent sum of a parabolic I entry at DIGITS digits,
    sum_{W_k} conj(<w.lam, z0>)^h prod_{a in R+(xi0)} <w.lam, a> e^{w.lam}(eta)
    with h = dim_n_eta1 / 2 and z0 the dyadic rationals its floats hold, and
    the stated budget of ``HCParameter.unipotent_sum``: ``orbit_sum_budget``
    with beta_w = |P_w| ((|z_w| + delta_w)^h - |z_w|^h + gamma_{2h+2} (|z_w| + delta_w)^h),
    where P_w is the product of pairings and delta_w = gamma_{d+1}
    sum_j |(w.lam)_j z0_j| bounds the error of the float dot z_w (each term
    divided, multiplied and added in coordinate order), and the power (at
    most 2h real roundings for h <= 100) and the product with P_w add
    2h + 2 roundings."""
    h = entry.dim_n_eta1 // 2
    z0 = [Fraction(p) for p in entry.z0_pairing]
    with mpmath.workdps(DIGITS):
        terms, weight, beta = [], mpmath.mpf(0), mpmath.mpf(0)
        for _, wl in _dense_orbit(rs, lam.lam.coords, True):
            P = _mp(math.prod((inner(rs, Weight(wl), Weight(a)) for a in entry.Rplus_xi0), start=Fraction(1)))
            z = _mp(sum((c * p for c, p in zip(wl, z0, strict=True)), Fraction(0))) if h else 0
            coeff = z**h * P
            terms.append(coeff * _mp_phase(_turn(wl, entry.eta_torus.angles)))
            weight += abs(coeff)
            if h:
                delta = gamma(rs.dim + 1) * _mp(sum(abs(c * p) for c, p in zip(wl, z0)))
                grown = (abs(z) + delta) ** h
                beta += abs(P) * (grown - abs(z) ** h + gamma(2 * h + 2) * grown)
        return mpmath.fsum(terms), orbit_sum_budget(rs, lam, entry.eta_torus.angles, weight, beta)


def _quotient_budget(beta_N, N, D, delta_D):
    """The division bound; infinite where delta_D >= 1, that is where xi lies
    so near a root hyperplane that the denominator's own stated error is as
    large as the denominator."""
    if delta_D >= 1:
        return mpmath.inf
    g = gamma(12)
    return (beta_N + abs(N) * delta_D + g * (abs(N) + beta_N)) / (abs(D) * (1 - delta_D))


def omega_budget(rs, lam, h):
    """The stated bound on |Omega_hat - Omega| for ``chars.omega``, with G the
    radial weight c exp(-|pairing| |t| / 2) and rho its largest relative error.

    su(n,1), d = n + 1, P = d (d - 1) / 2, K = e_C(d - 2) + P + 4: each of
    the d! products is G times the pair phase times d - 2 middle entries:
        1/2 ((1 + gamma_K)(1 + rho)(1 + eps)^(d-1) - 1) sum_sigma |G(lam_sigma1 - lam_sigmad)|.
    so(2n,1), d = n, K = e_R(d - 1) + d + 4: 2^(d-1) ((1 + gamma_K)(1 + rho)(1 + eps)
    perm(B_eps) - perm(B)), where row 1 of B is |G(2 lam_j)| |cos alpha_1j|, the
    other rows |sin alpha_ij|, and B_eps adds eps to each trigonometric entry.
    sp(n,1), d = n + 1, K = e_R(d - 2) + P + 8: 2^(d-2) ((1 + gamma_K)(1 + rho)(1 + eps)
    Q_eps - Q), Q = sum_sigma W(sigma_1, sigma_d) prod |sin alpha_{i sigma_i}| over the
    middle rows, W(a, b) = (|G(lam_a + lam_b)| + |G(lam_a - lam_b)|)
    (|sin alpha_1a cos alpha_db| + |cos alpha_1a sin alpha_db|), and Q_eps adds
    eps to each trigonometric factor.
    """
    with mpmath.workdps(DIGITS):
        eps = phase_error(rs, lam, h.compact_angles)
        family, d, L = rs.descriptor.family, rs.dim, lam.lam.coords
        weights = {}

        def G(pairing):
            if pairing not in weights:
                weights[pairing] = _radial(pairing, h.log_a) if pairing else (mpmath.mpf(0), mpmath.mpf(0))
            return weights[pairing][0]

        if family is Family.SU:
            P = d * (d - 1) // 2
            total = math.factorial(d - 2) * mpmath.fsum(G(L[a] - L[b]) for a in range(d) for b in range(d) if a != b)
            rho = max(r for _, r in weights.values())
            K = gamma(_depth(d - 2, 3) + P + 4)
            return ((1 + K) * (1 + rho) * (1 + eps) ** (d - 1) - 1) * total / 2
        x = _entries(lam, h.compact_angles, range(d), range(d))
        sin = [[abs(p.imag) for p in r] for r in x]
        cos = [[abs(p.real) for p in r] for r in x]
        if family is Family.SO:
            B = [[G(2 * L[j]) * cos[0][j] for j in range(d)]] + sin[1:]
            B_eps = [[G(2 * L[j]) * (cos[0][j] + eps) for j in range(d)]] + [[v + eps for v in r] for r in sin[1:]]
            rho = max(r for _, r in weights.values())
            K = gamma(_depth(d - 1, 1) + d + 4)
            return 2 ** (d - 1) * ((1 + K) * (1 + rho) * (1 + eps) * _permanent(B_eps) - _permanent(B))
        P = d * (d - 1) // 2

        def Q(e):
            total = []
            for p in itertools.permutations(range(d)):
                a, b = p[0], p[-1]
                w = (G(L[a] + L[b]) + G(L[a] - L[b])) * (
                    (sin[0][a] + e) * (cos[-1][b] + e) + (cos[0][a] + e) * (sin[-1][b] + e)
                )
                total.append(w * mpmath.fprod(sin[i][p[i]] + e for i in range(1, d - 1)))
            return mpmath.fsum(total)

        exact, perturbed = Q(0), Q(eps)
        rho = max(r for _, r in weights.values())
        K = gamma(_depth(d - 2, 1) + P + 8)
        return 2 ** (d - 2) * ((1 + K) * (1 + rho) * (1 + eps) * perturbed - exact)


@functools.lru_cache(maxsize=None)
def _float_omega_terms(rs, lam_coords, chamber, group):
    """(det(w) c(w.lam), |<w.lam, beta0_v>|, den (w.lam - rho_g)) over ``group``
    for c != 0, with c as in ``c_sign``, on integers over one denominator den."""
    den = math.lcm(*(Fraction(c).denominator for c in (*lam_coords, *rs.rho_g.coords)))
    lam = [int(c * den) for c in lam_coords]
    rho = [int(c * den) for c in rs.rho_g.coords]
    beta0 = [int(c) for c in rs.beta0.coords]
    norm = den * sum(b * b for b in beta0)
    flip = -1 if chamber is Chamber.H_MINUS else 1
    out = []
    for w in group:
        wl = act(w, lam)
        s = sum(a * b for a, b in zip(wl, beta0))
        if s:
            c = flip * (-1 if s > 0 else 1)
            out.append((w.sign * c, abs(2 * s) / norm, [a - r for a, r in zip(wl, rho)]))
    return den, out


def float_omega_orbit(rs, lam, h, group):
    """Omega as a float sum over ``group`` (W(g,t) as signed permutations),
    with phases from the float angles coordinate by coordinate, or from the
    residue of an integer dot on exact angles; returns (value, sum_w |c_w radial_w|)."""
    den, terms = _float_omega_terms(rs, lam.lam.coords, h.chamber, group)
    t = abs(h.log_a)
    if _exact_angles(h.compact_angles):
        L = math.lcm(*(a.denominator for a in h.compact_angles))
        q, mod = [int(a * L) for a in h.compact_angles], den * L
    else:
        q, mod = [float(a) / den for a in h.compact_angles], None
    total, weight = 0.0 + 0.0j, 0.0
    for coeff, rate, v in terms:
        radial = math.exp(-rate * t / 2.0)
        dot = sum(a * b for a, b in zip(v, q))
        theta = dot % mod / mod if mod else dot
        total += coeff * radial * cmath.exp(2j * math.pi * theta)
        weight += radial
    return 0.5 * total, weight


def float_omega_budget(rs, lam, h, group, weight):
    """The stated bound for ``float_omega_orbit``: 1/2 ((1 + gamma_{|W|+1})
    (1 + eps)(1 + rho) - 1) sum_w |c_w radial_w|, with the turns taken in
    floats of d terms (see ``phase_error``) and ``weight`` raised by one part
    in 10^9 for its own rounding."""
    with mpmath.workdps(DIGITS):
        eps = phase_error(rs, lam, h.compact_angles)
        rate = max(rate for _, rate, _ in _float_omega_terms(rs, lam.lam.coords, h.chamber, group)[1])
        rho = _radial(rate, h.log_a)[1]
        K = gamma(len(group) + 1)
        return ((1 + K) * (1 + eps) * (1 + rho) - 1) * _mp(weight) * (1 + mpmath.mpf(10) ** -9) / 2


def character_budget(rs, lam, t, N):
    """The stated bound on |V_hat - V| for ``ds_character_Treg``: its W_k
    orbit sum of |W_k| unit terms, within ``orbit_sum_budget`` of weight |W_k|,
    divided by prod_{R+} (e^{b/2} - e^{-b/2}), whose factors g are each within
    (1 + u)(eps + (eps + gamma_12) / (1 - eps)) + u |g|, through |R+| complex
    products.  ``N`` is the numerator's exact value (or a bound on it)."""
    with mpmath.workdps(DIGITS):
        u, eps = _unit_roundoff(), phase_error(rs, lam, t.angles)
        beta_N = orbit_sum_budget(rs, lam, t.angles, len(weyl_group(rs, "compact")))
        factors = []
        for r in rs.positive_roots():
            e = _mp_phase(_turn(r.coords, t.angles) / 2)
            factors.append(e - 1 / e)
        delta = (1 + gamma(3 * len(factors))) - 1
        for g in factors:
            delta = (1 + delta) * (1 + (1 + u) * (eps + (eps + gamma(12)) / (1 - eps)) / abs(g) + u) - 1
        return _quotient_budget(beta_N, N, mpmath.fprod(factors), delta)


def mp_character(rs, lam, t):
    """``ds_character_Treg`` at DIGITS digits, ``mp_numerator`` over
    prod_{R+} (e^{b/2} - e^{-b/2}), and its stated budget."""
    with mpmath.workdps(DIGITS):
        N = mp_numerator(rs, lam, t)
        halves = [_mp_phase(_turn(r.coords, t.angles) / 2) for r in rs.positive_roots()]
        return N / mpmath.fprod(e - 1 / e for e in halves), character_budget(rs, lam, t, N)


def mp_numerator_by_det(rs, lam, t):
    """The regular numerator at DIGITS digits from Weyl's determinant form,
    by mpmath's own determinant (LU): an exact-enough |N| where the orbit is
    too large to sum at 50 digits."""
    with mpmath.workdps(DIGITS):
        family, d = rs.descriptor.family, rs.dim
        n = d if family is Family.SO else d - 1
        x = mpmath.matrix(_entries(lam, t.angles, range(n), range(n)))
        inv = mpmath.matrix([[1 / v for v in row] for row in x.tolist()])
        corner = _entries(lam, t.angles, [d - 1], [d - 1])[0][0]
        if family is Family.SU:
            return corner * mpmath.det(x)
        if family is Family.SO:
            return (mpmath.det(x + inv) + mpmath.det(x - inv)) / 2
        return mpmath.det(x - inv) * (corner - 1 / corner)
