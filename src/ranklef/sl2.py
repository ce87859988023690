"""SL(2,R)/SL(2,Z) instantiation and the classical modular-form oracles.

The Hecke set at level n is the full family of integer matrices of
determinant n (equivalently the union of double cosets generated by
diag(1, n) and its imprimitive translates), embedded in SL(2,R) by dividing
by sqrt(n).  This module enumerates its coset representatives and conjugacy
classes, builds the geometric data consumed by the assembler, and provides
two independent classical oracles:

* exact coefficients of the weight-12 cusp form q prod (1-q^m)^24, and
* the Eichler-Selberg trace of T_n on level-1 cusp forms, built from
  Hurwitz class numbers (reduced binary quadratic forms), the Gegenbauer
  recursion for the trace polynomial, and the divisor boundary term.

Measure conventions of the preset (all volumes in one calibration unit):
vol(Gamma\\G) = pi/3, elliptic classes carry vol(Gamma_xi\\G_xi)/d_xi =
1/|centralizer|, the compact factor M = {+-1} carries probability Haar so
finite quotients weigh 1/2, and the cusp width is the norm unit.  The
global calibration constant is frozen on the (k=12, n=1) datum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import add, sub

from .lefschetz import (
    CentralClass,
    EllipticClass,
    GeometricData,
    LefschetzBreakdown,
    ParabolicIData,
    ParabolicIIData,
    assemble,
)
from .chars import NoncompactCartanElement, TorusElement
from .epstein import ClassProgression, EpsteinSpec, zeta_constant_terms
from .rootsys import Family, GroupDescriptor, Weight, build_root_system

# Frozen once on the (k=12, n=1) index datum; see the preset conventions in
# the module docstring.  With vol(Gamma\G) = pi/3 and both central classes
# active, the central term becomes (k-1)/12 exactly.
SL2Z_CALIBRATION = 0.25
SL2Z_TOTAL_VOL = math.pi / 3.0

MATCH_TOL = 1e-6

_NORMALIZATION_EXPONENTS = ("-(k-2)/2", "0", "+(k-2)/2")


@dataclass(frozen=True)
class IntegerMatrix:
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

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d


@dataclass(frozen=True)
class HeckeCosetSet:
    n: int
    reps: tuple[IntegerMatrix, ...]

    @property
    def count(self) -> int:
        return len(self.reps)


class ClassKind(str, Enum):
    CENTRAL = "central"
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC_NSS = "parabolic_nss"


@dataclass(frozen=True)
class ClassTag:
    kind: ClassKind
    trace: int
    disc: int


@dataclass(frozen=True)
class OracleReport:
    k: int
    n: int
    lefschetz_value: complex
    oracle_value: int
    match: bool
    defect: float
    normalization_exponent: str
    interpretation: str


def hecke_reps(n: int) -> HeckeCosetSet:
    """Left-coset representatives [[a,b],[0,d]], ad = n, 0 <= b < d.

    Deterministic lexicographic order on (a, b).  Pairwise inequivalence
    under left multiplication by SL(2,Z) is an exact integrality check on
    r2 * adj(r1) / n and is exercised in the test suite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    reps = []
    for a in sorted(d for d in range(1, n + 1) if n % d == 0):
        d = n // a
        for b in range(d):
            reps.append(IntegerMatrix(a, b, 0, d))
    reps.sort(key=lambda m: (m.a, m.b))
    return HeckeCosetSet(n=n, reps=tuple(reps))


def classify_element(m: IntegerMatrix) -> ClassTag:
    """Semisimple taxonomy of a determinant-n integer matrix.

    Scalar matrices are central; otherwise the discriminant tr^2 - 4n
    decides elliptic (< 0) versus hyperbolic (> 0), and the remaining
    tr^2 = 4n case is a nontrivial unipotent part (parabolic_nss): a
    semisimple element with tr^2 = 4n would be scalar.
    """
    n = m.det
    if n <= 0:
        raise ValueError("classification needs det > 0")
    disc = m.trace * m.trace - 4 * n
    if m.is_scalar():
        return ClassTag(ClassKind.CENTRAL, m.trace, disc)
    if disc < 0:
        return ClassTag(ClassKind.ELLIPTIC, m.trace, disc)
    if disc > 0:
        return ClassTag(ClassKind.HYPERBOLIC, m.trace, disc)
    return ClassTag(ClassKind.PARABOLIC_NSS, m.trace, disc)


# ---------------------------------------------------------------------------
# Hurwitz class numbers by reduced-form enumeration


@lru_cache(maxsize=None)
def hurwitz_class_number(N: int) -> Fraction:
    """H(N): reduced positive forms of discriminant -N, unit-weighted.

    Forms (a,b,c) with b^2 - 4ac = -N, |b| <= a <= c, b >= 0 whenever
    |b| = a or a = c; weight 1/3 for (a,a,a), 1/2 for (a,0,a), else 1.
    H(0) = -1/12 and H(N) = 0 for N = 1, 2 mod 4.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
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


# ---------------------------------------------------------------------------
# Gamma-conjugacy classes of elliptic elements, from reduced forms


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


@dataclass(frozen=True)
class EllipticClassGroup:
    trace: int
    class_count: int
    centralizer_order: int


@lru_cache(maxsize=None)
def elliptic_classes(n: int) -> tuple[EllipticClassGroup, ...]:
    """Conjugacy classes of elliptic determinant-n matrices, grouped by
    (trace, centralizer order).

    M = [[a,b],[c,d]] corresponds to the form c x^2 + (d-a) xy - b y^2 of
    discriminant t^2 - 4n: SL(2,Z)-conjugation of M is equivalence of forms,
    and the centralizer of M is the automorphism group of its form.  The
    form is positive definite for c > 0 and negative definite for c < 0, one
    orientation each, so every reduced positive form of discriminant
    t^2 - 4n stands for two classes (Cohen, GTM 138, section 5.3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    groups: list[EllipticClassGroup] = []
    tmax = isqrt(4 * n - 1)
    for t in range(-tmax, tmax + 1):
        by_order: dict[int, int] = {}
        for _, _, _, aut in _reduced_forms(4 * n - t * t):
            by_order[aut] = by_order.get(aut, 0) + 2
        for w in sorted(by_order):
            groups.append(EllipticClassGroup(t, by_order[w], w))
    return tuple(groups)


# ---------------------------------------------------------------------------
# Classical oracles


def delta_coeffs(N: int) -> list[int]:
    """tau(1..N): coefficients of q prod_{m>=1} (1 - q^m)^24, exactly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    # the nonzero terms (j, +-1) of prod (1 - q^m): Euler's pentagonal numbers
    euler = [(0, 1)]
    m = 1
    while m * (3 * m - 1) // 2 < N:
        s = -1 if m % 2 else 1
        for p in (m * (3 * m - 1) // 2, m * (3 * m + 1) // 2):
            if p < N:
                euler.append((p, s))
        m += 1
    power = [1] + [0] * (N - 1)
    for _ in range(24):
        power = _poly_mul_trunc(power, euler, N)
    return power  # tau(j+1) = power[j] after the q-shift


def _poly_mul_trunc(p: list[int], terms: list[tuple[int, int]], N: int) -> list[int]:
    """p (length N) times the sparse series sum s q^j over ``terms`` (j, s = +-1),
    truncated below q^N."""
    out = [0] * N
    for j, s in terms:
        out[j:] = map(add if s > 0 else sub, out[j:], p[: N - j])
    return out


def dim_cusp_forms(k: int) -> int:
    """dim S_k for level 1: lattice-point count of monomials E4^a E6^b minus one."""
    if k % 2 != 0:
        raise ValueError("weight must be even")
    if k < 4:
        raise ValueError("weight must be >= 4")
    dim_mk = sum(1 for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0)
    return dim_mk - 1


def trace_polynomial(k: int, t: int, n: int) -> int:
    """P_k(t, n) = U_{k-2}(t, n) with U_0 = 1, U_1 = t, U_m = t U_{m-1} - n U_{m-2}."""
    if k < 2:
        raise ValueError("k must be >= 2")
    prev, cur = 1, t
    for _ in range(k - 3):
        prev, cur = cur, t * cur - n * prev
    return prev if k == 2 else cur


def eichler_selberg(k: int, n: int) -> int:
    """Trace of T_n on the level-1 cusp forms of weight k (exact integer)."""
    if k % 2 != 0 or k < 4:
        raise ValueError("weight must be even and >= 4")
    if n < 1:
        raise ValueError("n must be >= 1")
    # 24 times the trace, in integers: the denominator of H(N) divides 12
    # (it is 12 only for H(0) = -1/12).  P_k(t, n) is even in t for even k,
    # so t and -t contribute alike.
    total24 = 0
    for t in range(isqrt(4 * n) + 1):
        H = hurwitz_class_number(4 * n - t * t)
        if H:
            twelve_h = 12 // H.denominator * H.numerator
            total24 -= (2 if t else 1) * twelve_h * trace_polynomial(k, t, n)
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


def _angle_pair(q) -> tuple:
    if isinstance(q, Fraction):
        return (q, -q)
    return (float(q), -float(q))


def _elliptic_rep_angle(t: int, n: int):
    """Oriented epsilon-coordinate q = phi/(2 pi), cos phi = t/(2 sqrt n), phi in (0, pi).

    The representative torus element carries angles (q, -q), so that
    e^{alpha}(rep) = e^{2 i phi} is the adjoint eigenvalue of a rotation by
    phi.  Rational exactly when the normalized rotation has finite order:
    t = 0 (quarter turn) or |t| = sqrt(n) (sixth or third of a turn).
    """
    if t == 0:
        return Fraction(1, 4)
    r = isqrt(n)
    if r * r == n and abs(t) == r:
        return Fraction(1, 6) if t > 0 else Fraction(1, 3)
    phi = math.atan2(math.sqrt(4 * n - t * t), t)
    return phi / (2.0 * math.pi)


def coset_classification(
    n: int, extra: tuple[IntegerMatrix, ...] = ()
) -> dict[str, int]:
    """Tag census of the Hecke coset representatives (plus injected extras)."""
    counts: dict[str, int] = {kind.value: 0 for kind in ClassKind}
    for m in hecke_reps(n).reps + tuple(extra):
        counts[classify_element(m).kind.value] += 1
    return counts


def _cusp_epstein_constant(n: int) -> float:
    """Laurent constant of the cusp zeta attached to eta = +-sqrt(n) I.

    Unipotent norms form the single progression {(m+1)/sqrt(n)}, each class
    weighted by the probability-Haar mass 1/2 of M/(Gamma_M).
    """
    spec = EpsteinSpec(
        classes=(ClassProgression(weight=0.5, scale=1.0 / math.sqrt(n), offset=1.0),),
        lattice_vol=1.0,
        exponent_base=1,
    )
    return zeta_constant_terms(spec).constant_term


@lru_cache(maxsize=None)
def build_geom_sl2z(n: int, extra_class_reps: tuple[IntegerMatrix, ...] = ()) -> GeometricData:
    """Geometric data of the level-1 Hecke set at n, in calibration units.

    Hyperbolic class representatives (enumerated or injected through
    ``extra_class_reps``) are routed to a discarded bucket and leave the
    data untouched; injecting central or elliptic extras is rejected since
    the preset enumerates those itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for m in extra_class_reps:
        tag = classify_element(m)
        if tag.kind in (ClassKind.CENTRAL, ClassKind.ELLIPTIC):
            raise ValueError(
                "preset enumerates semisimple classes itself; extras must be "
                "hyperbolic or non-semisimple"
            )
        # hyperbolic / parabolic_nss: discarded by construction

    central: list[CentralClass] = []
    r = isqrt(n)
    if r * r == n:
        central.append(CentralClass(tag=f"{r}I", z=TorusElement((Fraction(0), Fraction(0)))))
        central.append(
            CentralClass(tag=f"-{r}I", z=TorusElement((Fraction(1, 2), Fraction(-1, 2))))
        )

    elliptic: list[EllipticClass] = []
    for grp in elliptic_classes(n):
        q = _elliptic_rep_angle(grp.trace, n)
        for oriented_q in (q, -q):
            for _ in range(grp.class_count // 2):
                elliptic.append(
                    EllipticClass(
                        rep=TorusElement(_angle_pair(oriented_q)),
                        vol_quotient=1.0 / grp.centralizer_order,
                        d_xi=1.0,
                    )
                )

    parabolic_I: list[ParabolicIData] = []
    if r * r == n:
        C = _cusp_epstein_constant(n)
        for tag_angles in ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-1, 2))):
            parabolic_I.append(
                ParabolicIData(
                    delta_flag=True,
                    c_eta_plus=1.0,
                    c_eta_minus=-1.0,  # c+ = (-1)^1 c- in the su(1,1) shape
                    C_eta_plus=C,
                    C_eta_minus=C,
                    dim_n_eta1=0,
                    eta_torus=TorusElement(tag_angles),
                    Rplus_xi0=(),
                    z0_pairing=(-1.0, 1.0),
                )
            )

    parabolic_II: list[ParabolicIIData] = []
    for a in sorted(d for d in range(1, n + 1) if n % d == 0):
        d = n // a
        log_a = math.log(a / d) if a != d else 0.0
        for angles in ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(-1, 2))):
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
        parabolic_I=tuple(parabolic_I),
        parabolic_II=tuple(parabolic_II),
        residue_scalar=None,
        calibration=SL2Z_CALIBRATION,
    )


def lefschetz_sl2z(k: int, n: int, interpretation: str = "conjugate") -> LefschetzBreakdown:
    rs = sl2_root_system()
    return assemble(rs, mu_from_weight(k), build_geom_sl2z(n), interpretation)


def compare(k: int, n: int, interpretation: str = "conjugate") -> OracleReport:
    """Lefschetz total against the Eichler-Selberg oracle.

    The coset convention differs from the classical Hecke normalization by a
    constant power of n; the report records which exponent of the family
    {-(k-2)/2, 0, +(k-2)/2} matches, and the acceptance suite requires the
    matching exponent to be the same symbol across all (k, n).
    """
    bd = lefschetz_sl2z(k, n, interpretation)
    oracle = eichler_selberg(k, n)
    half = (k - 2) / 2.0
    # the defect is measured on the assembled side, where totals stay O(1);
    # scaling the comparison the other way would amplify double-precision
    # noise by n^{(k-2)/2} against huge exact integers
    defects = []
    for label in _NORMALIZATION_EXPONENTS:
        j = {"-(k-2)/2": -half, "0": 0.0, "+(k-2)/2": half}[label]
        defects.append((abs(bd.total - oracle * n ** j), label))
    # several exponents can match at once (zero traces, n = 1); report the
    # first matching one in canonical order so the symbol stays constant
    matching = [(d, label) for d, label in defects if d < MATCH_TOL]
    defect, label = matching[0] if matching else min(defects, key=lambda p: p[0])
    return OracleReport(
        k=k,
        n=n,
        lefschetz_value=bd.total,
        oracle_value=oracle,
        match=defect < MATCH_TOL,
        defect=defect,
        normalization_exponent=label,
        interpretation=interpretation,
    )
