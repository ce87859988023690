"""SL(2,R)/SL(2,Z) instantiation and the classical modular-form oracles.

The Hecke set at level n is the full family of integer matrices of
determinant n (equivalently the union of double cosets generated by
diag(1, n) and its imprimitive translates), embedded in SL(2,R) by dividing
by sqrt(n).  This module enumerates its coset representatives, weighs its
elliptic conjugacy classes of every trace in one pass over the reduced forms,
builds the geometric data consumed by the assembler, and provides two
independent classical oracles:

* exact coefficients of the weight-12 cusp form q prod (1-q^m)^24, from
  Miller's power recurrence on Jacobi's cube prod (1-q^m)^3, and
* the Eichler-Selberg trace of T_n on level-1 cusp forms, built from
  Hurwitz class numbers (a sieve of its own over reduced forms), the
  expanded trace polynomial, and the divisor boundary term.

Measure conventions of the preset (all volumes in one calibration unit):
vol(Gamma\\G) = pi/3, the elliptic entry of a trace and orientation weighs
the sum of 1/|centralizer| over its classes, the compact factor M = {+-1}
carries probability Haar so finite quotients weigh 1/2.  The global
calibration constant is frozen on the (k=12, n=1) datum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .lefschetz import (
    CentralClass,
    EllipticClass,
    GeometricData,
    LefschetzBreakdown,
    ParabolicIIData,
    assemble,
)
from .chars import NoncompactCartanElement, TorusElement
from .rootsys import Family, GroupDescriptor, Weight, build_root_system

# Frozen once on the (k=12, n=1) index datum; see the preset conventions in
# the module docstring.  With vol(Gamma\G) = pi/3 and both central classes
# active, the central term becomes (k-1)/12 exactly.
SL2Z_CALIBRATION = 0.25
SL2Z_TOTAL_VOL = math.pi / 3.0

# How far a preset total may lie from its scaled oracle, or at n = 1 from an integer.
MATCH_TOL = 1e-6

# The torus angles of +I and -I, the central classes of SL(2,R).
_PLUS_MINUS_I = ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-1, 2)))


class IntegerMatrix(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d


class OracleReport(NamedTuple):
    k: int
    n: int
    lefschetz_value: complex
    oracle_value: int
    match: bool
    defect: float
    normalization_exponent: str


def hecke_reps(n: int) -> tuple[IntegerMatrix, ...]:
    """Left-coset representatives [[a,b],[0,d]], ad = n, 0 <= b < d.

    Deterministic lexicographic order on (a, b).  Pairwise inequivalence
    under left multiplication by SL(2,Z) is an exact integrality check on
    r2 * adj(r1) / n and is exercised in the test suite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(
        IntegerMatrix(a, b, 0, n // a)
        for a in range(1, n + 1)
        if n % a == 0
        for b in range(n // a)
    )


# ---------------------------------------------------------------------------
# Hurwitz class numbers by one sieve over reduced forms


@lru_cache(maxsize=None)
def _hurwitz_sixths(X: int) -> tuple[int, ...]:
    """6 H(N) for N = 0..X (0 at N = 0): the table for X // 2, extended by
    one pass over the reduced forms that sieves N in (X // 2, X] only.

    Each (a, b), 0 <= b <= a, adds to the progression N = 4ac - b^2 of step
    4a: 12 for the pair (a, +-b, c) with c > a, 6 where b is 0 or a (b = -a is
    never reduced), and at c = a, which takes b >= 0 only, 2 for (a, a, a), 3
    for (a, 0, a) and 6 otherwise."""
    if X < 3:
        return (0,) * (X + 1)
    half = X // 2
    table = [*_hurwitz_sixths(half), *(0,) * (X - half)]
    a = 1
    while 3 * a * a <= X:
        step = 4 * a
        for b in range(a + 1):
            N = step * a - b * b
            if N > X:
                continue
            if N > half:
                table[N] += 2 if b == a else 3 if b == 0 else 6
                N += step
            else:  # to the first N > X // 2
                N += ((half - N) // step + 1) * step
            w = 6 if b in (0, a) else 12
            table[N::step] = [h + w for h in table[N::step]]
        a += 1
    return tuple(table)


@lru_cache(maxsize=None)
def hurwitz_class_number(N: int) -> Fraction:
    """H(N): reduced positive forms of discriminant -N, unit-weighted.

    Forms (a,b,c) with b^2 - 4ac = -N, |b| <= a <= c, b >= 0 whenever
    |b| = a or a = c; weight 1/3 for (a,a,a), 1/2 for (a,0,a), else 1.
    H(0) = -1/12, and H(N) = 0 for N = 1, 2 mod 4, where no form has
    discriminant -N.  Read from the sieve table of the smallest power of two
    >= N, so small levels build small tables.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return Fraction(-1, 12)
    return Fraction(_hurwitz_sixths(1 << (N - 1).bit_length())[N], 6)


# ---------------------------------------------------------------------------
# Gamma-conjugacy classes of elliptic elements, from reduced forms


@lru_cache(maxsize=None)
def elliptic_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(t, 12 w) for each trace t of an elliptic determinant-n matrix, where w
    is the sum of 1/|centralizer| over its conjugacy classes of one orientation.

    M = [[a,b],[c,d]] corresponds to the form c x^2 + (d-a) xy - b y^2 of
    discriminant t^2 - 4n: SL(2,Z)-conjugation of M is equivalence of forms,
    and the centralizer of M is the automorphism group of its form.  The
    form is positive definite for c > 0 and negative definite for c < 0, one
    orientation each, so every reduced positive form of discriminant
    t^2 - 4n stands for two classes (Cohen, GTM 138, section 5.3), and
    12 w = sum 12 // |Aut| over those forms = 6 H(4n - t^2), an integer.

    One pass over the pairs (A, B), |B| <= A, serves every t >= 0 at once (t
    and -t share their forms): (A, B, C) is reduced of discriminant t^2 - 4n
    when 4AC = 4n + B^2 - t^2 with C >= A, B > -A, and B >= 0 at C = A.  It
    adds 12 // |Aut|: 2 for (A, A, A), 3 for (A, 0, A) and 6 otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tmax = isqrt(4 * n - 1)
    twelve_w = [0] * (tmax + 1)
    # 3 A^2 <= 4AC - B^2 = 4n - t^2 bounds A
    for A in range(1, isqrt(4 * n // 3) + 1):
        step = 4 * A
        # t = r (mod 4A) for the residues r with r^2 = 4n + B^2 (mod 4A)
        roots: dict[int, list[int]] = {}
        for r in range(min(step, tmax + 1)):
            roots.setdefault(r * r % step, []).append(r)
        for B in range(1 - A, A + 1):
            rem = 4 * n + B * B
            edge = rem - step * A  # t^2 at C = A
            if edge < 0:
                continue
            top = min(tmax, isqrt(edge))
            for r in roots.get(rem % step, ()):
                for t in range(r, top + 1, step):
                    if t * t < edge:  # C > A
                        twelve_w[t] += 6
                    elif B >= 0:
                        twelve_w[t] += 2 if B == A else 3 if B == 0 else 6
    return tuple((t, twelve_w[abs(t)]) for t in range(-tmax, tmax + 1))


# ---------------------------------------------------------------------------
# Classical oracles


def delta_coeffs(N: int) -> list[int]:
    """tau(1..N): coefficients of q prod_{m>=1} (1 - q^m)^24, exactly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    # prod (1 - q^m)^3 = g = sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2} (Jacobi), and
    # f = g^8 obeys Miller's recurrence n f_n = sum_{e>=1} (9e - n) g_e f_{n-e}
    # over the about sqrt(2n) nonzero g_e
    cube: list[tuple[int, int]] = []
    f = [1]
    for n in range(1, N):
        j = len(cube) + 1
        if j * (j + 1) // 2 == n:
            cube.append((n, (-1) ** j * (2 * j + 1)))
        s = sum((9 * e - n) * g * f[n - e] for e, g in cube)
        if s % n != 0:
            raise AssertionError("Miller's recurrence must divide exactly")
        f.append(s // n)
    return f  # tau(j+1) = f[j] after the q-shift


def dim_cusp_forms(k: int) -> int:
    """dim S_k for level 1: lattice-point count of monomials E4^a E6^b minus one."""
    if k % 2 != 0:
        raise ValueError("weight must be even")
    if k < 4:
        raise ValueError("weight must be >= 4")
    dim_mk = sum(1 for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0)
    return dim_mk - 1


def eichler_selberg(k: int, n: int) -> int:
    """Trace of T_n on the level-1 cusp forms of weight k (exact integer)."""
    if k % 2 != 0 or k < 4:
        raise ValueError("weight must be even and >= 4")
    if n < 1:
        raise ValueError("n must be >= 1")
    # P_k(t, n) = sum_j (-1)^j C(k-2-j, j) n^j t^(k-2-2j), the expansion of the
    # Chebyshev U_{k-2} recursion, is a polynomial in t^2 for even k, so t and
    # -t contribute alike; it is evaluated by Horner's rule in t^2.
    first, *rest = [(-1) ** j * math.comb(k - 2 - j, j) * n**j for j in range(k // 2)]
    # 24 times the trace, in integers: the denominator of H(N) divides 12
    # (it is 12 only for H(0) = -1/12).  No term vanishes: 4n - t^2 is 0 or
    # 3 mod 4, and H(N) >= 1/3 there for N > 0, from (1, 0, N/4) or
    # (1, 1, (N+1)/4).
    total24 = 0
    for t in range(isqrt(4 * n) + 1):
        tt = t * t
        num, den = hurwitz_class_number(4 * n - tt).as_integer_ratio()
        p = first
        for c in rest:
            p = p * tt + c
        total24 -= (24 if t else 12) // den * num * p
    # boundary term: each divisor pair d * (n/d) = n with d < n/d counts twice
    r = isqrt(n)
    for d in range(1, r + 1):
        if n % d == 0:
            total24 -= (12 if d * d == n else 24) * d ** (k - 1)
    if total24 % 24 != 0:
        raise AssertionError("Eichler-Selberg trace must be an integer")
    return total24 // 24


# ---------------------------------------------------------------------------
# Geometric preset


def sl2_root_system():
    return build_root_system(GroupDescriptor(Family.SU, 1))


def mu_from_weight(k: int) -> Weight:
    """Highest weight of the coefficient module for classical weight k."""
    if k % 2 != 0:
        raise ValueError("weight must be even")
    if k < 4:
        raise ValueError(
            "weight must be >= 4: lower weights hit the singular/limit range "
            "outside the regular branch"
        )
    half = Fraction(k - 1, 2)
    return Weight((half, -half))


# t^2 = ratio n: the rational angle q for t > 0 and for t < 0
_NIVEN_ANGLES = {
    0: (Fraction(1, 4), Fraction(1, 4)),
    1: (Fraction(1, 6), Fraction(1, 3)),
    2: (Fraction(1, 8), Fraction(3, 8)),
    3: (Fraction(1, 12), Fraction(5, 12)),
}


def _elliptic_rep_angle(t: int, n: int):
    """Oriented epsilon-coordinate q = phi/(2 pi), cos phi = t/(2 sqrt n), phi in (0, pi).

    The representative torus element carries angles (q, -q), so that
    e^{alpha}(rep) = e^{2 i phi} is the adjoint eigenvalue of a rotation by
    phi.  By Niven's theorem q is rational exactly when t^2 is 0, n, 2n or 3n:
    then it is the one Fraction of ``_NIVEN_ANGLES`` for t's sign, whatever n,
    so its classes take the exact path of the torus evaluation; the other
    angles are atan2 floats.
    """
    for ratio, (plus, minus) in _NIVEN_ANGLES.items():
        if t * t == ratio * n:
            return plus if t > 0 else minus
    phi = math.atan2(math.sqrt(4 * n - t * t), t)
    return phi / (2.0 * math.pi)


@lru_cache(maxsize=None)
def build_geom_sl2z(n: int, extra_class_reps: tuple[IntegerMatrix, ...] = ()) -> GeometricData:
    """Geometric data of the level-1 Hecke set at n, in calibration units.

    The geometry has no slot for hyperbolic or non-semisimple classes, so
    representatives injected through ``extra_class_reps`` leave the data
    untouched; injecting central or elliptic extras (scalar, or t^2 < 4 det)
    is rejected since the preset enumerates those itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for m in extra_class_reps:
        if m.det <= 0:
            raise ValueError("extra class reps need det > 0")
        if m.is_scalar() or m.trace * m.trace < 4 * m.det:
            raise ValueError(
                "preset enumerates semisimple classes itself; extras must be "
                "hyperbolic or non-semisimple"
            )

    central: list[CentralClass] = []
    r = isqrt(n)
    if r * r == n:
        for tag, angles in zip((f"{r}I", f"-{r}I"), _PLUS_MINUS_I):
            central.append(CentralClass(tag=tag, z=TorusElement(angles)))

    # the classes of one trace and orientation give equal terms: one entry each
    elliptic: list[EllipticClass] = []
    for t, twelve_w in elliptic_classes(n):
        q = _elliptic_rep_angle(t, n)
        for angles in ((q, -q), (-q, q)):
            elliptic.append(EllipticClass(rep=TorusElement(angles), vol_quotient=twelve_w / 12))

    # No parabolic I entries: at eta = +-sqrt(n) I, c- = -c+ and C- = C+, so
    # c+ C+ + c- C- is exactly 0, as Eichler-Selberg has no unipotent term.
    parabolic_II: list[ParabolicIIData] = []
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        log_a = math.log(a / d)
        for angles in _PLUS_MINUS_I:
            parabolic_II.append(
                ParabolicIIData(
                    vol_M=0.5,
                    det_Ad_n=a / d,
                    coset_index=d,
                    eta_H=NoncompactCartanElement.from_log_a(angles, log_a),
                )
            )

    return GeometricData(
        total_vol=SL2Z_TOTAL_VOL,
        central_classes=tuple(central),
        elliptic_classes=tuple(elliptic),
        parabolic_II=tuple(parabolic_II),
        residue_scalar=None,
        calibration=SL2Z_CALIBRATION,
    )


def lefschetz_sl2z(k: int, n: int) -> LefschetzBreakdown:
    rs = sl2_root_system()
    return assemble(rs, mu_from_weight(k), build_geom_sl2z(n))


def compare(k: int, n: int) -> OracleReport:
    """Lefschetz total against the Eichler-Selberg oracle.

    The preset's total is tr T_n * n^{-(k-2)/2}, so the defect is
    |total - oracle / n^{(k-2)/2}|, the trace divided exactly (k is even) and
    rounded once.
    """
    bd = lefschetz_sl2z(k, n)
    oracle = eichler_selberg(k, n)
    # the defect is measured on the assembled side, where totals stay O(1);
    # scaling the comparison the other way would amplify double-precision
    # noise by n^{(k-2)/2} against huge exact integers
    defect = abs(bd.total - oracle / n ** ((k - 2) // 2))
    return OracleReport(
        k=k,
        n=n,
        lefschetz_value=bd.total,
        oracle_value=oracle,
        match=defect < MATCH_TOL,
        defect=defect,
        normalization_exponent="-(k-2)/2",
    )
