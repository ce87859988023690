"""Discrete-series character data on both Cartan subgroups.

Conventions fixed here and relied on everywhere downstream:

* A torus element is a coordinate vector q in the epsilon-basis of t and
  evaluation is e^beta(t) = exp(2 pi i <beta, q>) with the plain coordinate
  dot product (the invariant form never enters evaluation).
* Delta_T is the Weyl-denominator product prod (e^{b/2} - e^{-b/2}), which
  fixes the square-root branch of Det^{1/2}(Id - Ad); half-angles are taken
  on the simply connected cover where the rho-shifts pair off.
* The noncompact Cartan H = H_K A is coordinatized by compact angles plus a
  single split coordinate t, normalized so that e^{w.lam}(c(a_t)) =
  exp(<w.lam, beta0_v> t / 2) along the Cayley direction beta0.
* Central characters carry the rho_g shift: zeta_lam(z) = e^{lam - rho_g}(z),
  which is what makes zeta_lam(-1) = +1 for the even-weight sl(2,R) series.
* Evaluation runs on integer rows: a weight v is a row of ints over a
  common denominator den (``_Rows``).  At a torus element whose angles are
  all Fractions, the angles are scaled to integers by the lcm L of their
  denominators, the integer dot N = den L <v, q> is reduced mod D = den L,
  and the phase is exp(2 pi i (N mod D) / D).  Python rounds an int/int
  quotient once, correctly, so (N mod D) / D is the double of the reduced
  fraction's (n mod d) / d, and a pairing n / den is the double
  float(Fraction) gives: the rows change no bit of any value.  Any float
  angle sends the element down the float path, where the rows are floats
  x / den summed in coordinate order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from typing import Sequence

from .rootsys import RootKind, RootSystem, Weight, weyl_group

Angle = Fraction | float

SINGULAR_TOL = 1e-12
UNITY_TOL = 1e-9


class SingularElementError(ValueError):
    pass


class _Rows:
    """Vectors as integer rows over one denominator: vector i is ``ints[i] / den``."""

    def __init__(self, ints: list[tuple[int, ...]], den: int):
        self.ints, self.den = ints, den

    @cached_property
    def floats(self) -> list[tuple[float, ...]]:
        return [tuple(x / self.den for x in row) for row in self.ints]


def _rows(vectors: Sequence[Sequence[Fraction]]) -> _Rows:
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    return _Rows([tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors], den)


class _Torus:
    """The angles of one torus element, to pair with rows over ``den``: the
    one evaluator of e^v(t).  ``turns`` gives <v, q> per row, as N mod D on
    the exact path (0 exactly when e^v(t) = 1) or as a float; ``phase``
    memoizes exp(2 pi i <v, q>) by that value; ``sum`` sums every orbit."""

    def __init__(self, angles: Sequence[Angle], den: int, dim: int):
        if len(angles) != dim:
            raise ValueError(f"the torus element has {len(angles)} angles, not dim t = {dim}")
        self.exact = all(type(a) is Fraction for a in angles)
        if self.exact:
            q = _rows([angles])
            self.q, self.mod = q.ints[0], den * q.den
        else:
            self.q = tuple(float(a) for a in angles)
        self._phases: dict[int | float, complex] = {}

    def turns(self, rows: _Rows) -> list[int] | list[float]:
        q = self.q
        if self.exact:
            return [sum(map(mul, row, q)) % self.mod for row in rows.ints]
        return [sum(map(mul, row, q)) for row in rows.floats]

    def phase(self, x: int | float) -> complex:
        p = self._phases.get(x)
        if p is None:
            p = self._phases[x] = cmath.exp(2j * math.pi * (x / self.mod if self.exact else x))
        return p

    def is_one(self, x: int | float) -> bool:
        """Whether the phase is 1: exactly on the exact path, to UNITY_TOL otherwise."""
        return x == 0 if self.exact else abs(self.phase(x) - 1.0) < UNITY_TOL

    def sum(self, coeffs: Sequence[complex], rows: _Rows) -> complex:
        """sum_i coeffs[i] e^{rows_i}(t), added in row order."""
        total = 0.0 + 0.0j
        for c, x in zip(coeffs, self.turns(rows)):
            total += c * self.phase(x)
        return total


class HCParameter:
    """Harish-Chandra parameter lambda = mu + rho_k on the root system ``rs``,
    with its Weyl data, shared by every class of one assembly.  This is the
    one place where lambda is paired with a root.

    Vectors are integer rows over ``den``, the common denominator of lambda
    and rho_g: ``compact`` holds the W(k,t) orbit of lambda in the order of
    ``weyl_group(rs, "compact")``, with det w in ``signs``, and ``rho_g`` and
    ``roots`` (R+(g,t) in order) are rows too.  A Weyl element acts on a row
    as a signed permutation of ints, so no orbit element is a Fraction.  A
    pairing with a root is an integer dot, its sign read on the integer and
    divided once.  ``pairings`` holds den^2 <lambda, alpha> for each alpha in
    R+(g,t); from it the constructor rejects a lambda that is not strictly
    dominant for the compact roots, sets ``regular`` (no pairing vanishes),
    and rejects a regular lambda with a negative pairing.  ``cosets`` and
    ``full`` are built on first use; see there.
    """

    def __init__(self, rs: RootSystem, lam: Weight):
        self.rs = rs
        self.lam = lam
        base = _rows([lam.coords, rs.rho_g.coords])
        self.den = den = base.den
        self._row, rho = base.ints
        group = weyl_group(rs, "compact")
        self.signs = [w.sign for w in group]
        self.compact = _Rows([w.act(self._row) for w in group], den)  # act checks the length of lambda
        self.rho_g = _Rows([rho], den)
        self.roots = _Rows([tuple(c.numerator * den for c in r.coords) for r in rs.positive], den)
        self.pairings = [rs.form_scale * sum(map(mul, self._row, a)) for a in self.roots.ints]
        if any(p <= 0 for p, r in zip(self.pairings, rs.positive) if r.kind is RootKind.COMPACT):
            raise ValueError("weight is not dominant for the compact positive system")
        self.regular = all(self.pairings)
        if self.regular and min(self.pairings) < 0:
            raise ValueError(
                "lambda = mu + rho_k is regular but not dominant; "
                "present the dominant chamber representative"
            )
        self._cosets: dict[tuple[int, ...], tuple[list[complex], _Rows]] = {}
        self._full: tuple[list[tuple[int, int, float]], _Rows] | None = None

    def cosets(self, fixed: tuple[int, ...]) -> tuple[list[complex], _Rows]:
        """Coset reps w of W_{k_xi} \\ W_k as coefficients det(w) prod_{a in
        R+(xi)} <w.lam, a> and the rows of w.lam.

        ``fixed`` lists the indices into ``rs.positive`` of the roots a with
        e^a(xi) = 1; W_{k_xi} is generated by the compact ones.  lambda is
        strictly dominant for the compact roots, so each right coset
        W_{k_xi} w holds exactly one w with <w.lam, a> > 0 for every compact
        a in R+(xi), and that w is its rep.  The summand is constant on right
        cosets, so the sum is a class function of xi.
        """
        table = self._cosets.get(fixed)
        if table is None:
            rs, den2 = self.rs, self.den * self.den
            roots = [(self.roots.ints[i], rs.positive[i].kind is RootKind.COMPACT) for i in fixed]
            coeffs, rows = [], []
            for sign, row in zip(self.signs, self.compact.ints):
                coeff = complex(sign)
                for a, compact in roots:
                    n = rs.form_scale * sum(map(mul, row, a))
                    if n <= 0 and compact:
                        break
                    coeff *= n / den2
                else:
                    coeffs.append(coeff)
                    rows.append(row)
            table = self._cosets[fixed] = (coeffs, _Rows(rows, self.den))
        return table

    def full(self) -> tuple[list[tuple[int, int, float]], _Rows]:
        """The W(g,t) orbit, without the elements whose sign function c
        vanishes, as (det w, c(w.lam) on H_plus, |<w.lam, beta0_v>|) and the
        rows of w.lam - rho_g.

        The pairing mu(i(E_l - E_{-l})) is identified with <mu, beta0_v>
        through the Cayley transform; on H_plus, c(mu) is minus that
        pairing's sign, and H_minus negates it.  a_equals_1 follows the
        H_plus (one-sided) convention.
        """
        if self._full is None:
            beta0 = tuple(c.numerator for c in self.rs.beta0.coords)
            norm = self.den * sum(b * b for b in beta0)
            rho = self.rho_g.ints[0]
            entries, rows = [], []
            for w in weyl_group(self.rs, "full"):
                row = w.act(self._row)
                p = 2 * sum(map(mul, row, beta0))  # <w.lam, beta0_v> = p / norm
                if p:
                    entries.append((w.sign, -1 if p > 0 else 1, abs(p) / norm))
                    rows.append(tuple(map(sub, row, rho)))
            self._full = (entries, _Rows(rows, self.den))
        return self._full

    def unipotent_sum(
        self, eta: TorusElement, Rplus_xi0: Sequence[Sequence[Fraction]], z0: Sequence[float], half_dim: int
    ) -> complex:
        """sum_{w in W(k,t)} conj(<w.lam, z0>)^half_dim prod_{a in R+(xi0)} <w.lam, a> e^{w.lam}(eta),
        with the invariant pairing on R+(xi0) and the coordinate dot with z0."""
        if any(len(a) != self.rs.dim for a in Rplus_xi0):
            raise ValueError(f"each vector to pair with lambda needs dim t = {self.rs.dim} coordinates")
        scaled = _rows(Rplus_xi0)
        den, s = self.den * scaled.den, self.rs.form_scale
        torus = _Torus(eta.angles, self.den, self.rs.dim)
        coeffs = []
        for row, floats in zip(self.compact.ints, self.compact.floats):
            coeff = 1.0 + 0.0j
            if half_dim:
                z = complex(sum(c * p for c, p in zip(floats, z0, strict=True)))
                coeff = z.conjugate() ** half_dim
            for a in scaled.ints:
                coeff *= s * sum(map(mul, row, a)) / den
            coeffs.append(coeff)
        return torus.sum(coeffs, self.compact)


def hc_parameter(rs: RootSystem, mu: Weight) -> HCParameter:
    """The HC parameter of the weight mu: lambda = mu + rho_k, which must be
    strictly dominant for the compact roots and, unless singular, dominant."""
    return HCParameter(rs, mu + rs.rho_k)


@dataclass(frozen=True)
class TorusElement:
    """t = exp(2 pi i diag(q)) for a coordinate vector q over the epsilon basis."""

    angles: tuple[Angle, ...]


class Chamber(str, Enum):
    H_PLUS = "H_plus"
    H_MINUS = "H_minus"
    A_EQUALS_1 = "a_equals_1"


# The sign of log_a on each chamber, as stated in error messages.
_LOG_A_SIGN = {Chamber.H_PLUS: "> 0", Chamber.H_MINUS: "< 0", Chamber.A_EQUALS_1: "= 0"}


def _chamber(log_a: float) -> Chamber:
    """The chamber of the split coordinate, by the sign of log_a."""
    if log_a > 0:
        return Chamber.H_PLUS
    if log_a < 0:
        return Chamber.H_MINUS
    if log_a == 0:
        return Chamber.A_EQUALS_1
    raise ValueError(f"log_a must be a number, not {log_a!r}")


@dataclass(frozen=True)
class NoncompactCartanElement:
    """h = m a with m given by compact angles and a by the split coordinate."""

    compact_angles: tuple[Angle, ...]
    log_a: float
    chamber: Chamber

    def __post_init__(self) -> None:
        if _chamber(self.log_a) is not self.chamber:
            raise ValueError(f"chamber {self.chamber.value} requires log_a {_LOG_A_SIGN[self.chamber]}")

    @staticmethod
    def from_log_a(compact_angles: Sequence[Angle], log_a: float) -> "NoncompactCartanElement":
        return NoncompactCartanElement(tuple(compact_angles), float(log_a), _chamber(log_a))


@dataclass(frozen=True)
class CharacterValue:
    value: complex


def weyl_denominator_T(rs: RootSystem, t: TorusElement) -> complex:
    """prod over R+(g,t) of (e^{b/2} - e^{-b/2})(t); zero exactly on singular t."""
    torus = _Torus(t.angles, 2, rs.dim)
    out = 1.0 + 0.0j
    for x in torus.turns(_Rows([tuple(c.numerator for c in r.coords) for r in rs.positive], 2)):
        e = torus.phase(x)  # e^{b/2}(t)
        out *= e - 1 / e
    return out


def ds_character_Treg(rs: RootSystem, lam: HCParameter, t: TorusElement) -> CharacterValue:
    """Character value sum_{w in W_k} det(w) e^{w.lam}(t) / Delta_T(t) at regular t."""
    den = weyl_denominator_T(rs, t)
    if abs(den) < SINGULAR_TOL:
        raise SingularElementError(
            "singular torus element; use elliptic_orbital_term"
        )
    num = _Torus(t.angles, lam.den, rs.dim).sum(lam.signs, lam.compact)
    return CharacterValue(value=num / den)


def elliptic_orbital_term(rs: RootSystem, lam: HCParameter, xi: TorusElement) -> complex:
    """Orbital value of the index kernel at an elliptic element, up to d_xi.

    Evaluates
        (-1)^{dim p / 2} sum_{w in W_{k_xi} \\ W_k} det(w)
            prod_{a in R+(xi)} <w.lam, a>  e^{w.lam}(xi)
          / ( e^{rho_g}(xi) prod_{b in R+ \\ R+(xi)} (1 - e^{-b}(xi)) )
    where R+(xi) collects the positive roots with e^a(xi) = 1.  For regular
    xi this reduces to (-1)^{dim p/2} times the character at xi.  The coset
    reps and their coefficients come from ``lam.cosets``.
    """
    torus = _Torus(xi.angles, lam.den, rs.dim)
    den = torus.phase(torus.turns(lam.rho_g)[0])
    fixed = []
    for i, x in enumerate(torus.turns(lam.roots)):
        if torus.is_one(x):
            fixed.append(i)
        else:
            den *= 1 - 1 / torus.phase(x)
    return (-1) ** (rs.dim_p // 2) * torus.sum(*lam.cosets(tuple(fixed))) / den


def formal_degree(rs: RootSystem, lam: HCParameter) -> float:
    """Plancherel mass of the discrete series with parameter lambda.

    Scale depends on the inner-product normalization; the assembler carries a
    single calibration constant for it.
    """
    if not lam.regular:
        raise ValueError("formal degree requires a regular parameter")
    half_p = rs.dim_p // 2
    pref = 1.0 / ((2 * math.pi) ** half_p * 2 ** ((half_p - 1) / 2))
    # prod_{R+} <lambda, a> / prod_{R+_k} <rho_k, a>, with <lambda, a> =
    # pairings / den^2 and <rho_k, a> = s (rho_k . a) / den_k on integer rows,
    # divided once as int / int: the double float(Fraction) would give.
    rho_k = _rows([rs.rho_k.coords])
    compact = [[c.numerator for c in r.coords] for r in rs.positive_roots(RootKind.COMPACT)]
    num = math.prod(lam.pairings) * rho_k.den ** len(compact)
    den = lam.den ** (2 * len(lam.pairings))
    den *= math.prod(rs.form_scale * sum(map(mul, rho_k.ints[0], a)) for a in compact)
    return pref * abs(num / den)


def omega(rs: RootSystem, lam: HCParameter, h: NoncompactCartanElement) -> complex:
    """Smoothed character numerator on the noncompact Cartan.

    Omega_lam(m a_t) = 1/2 sum_{w in W_g} det(w) c(w.lam, chamber)
        e^{w.lam - rho_g}(m) exp(-|<w.lam, beta0_v>| |t| / 2).

    The exponentials are the Cayley transports of the W_g-orbit of lambda,
    with the decaying branch selected on each chamber; the compact part
    carries the rho_g shift so that central m give the central character.
    """
    entries, rows = lam.full()
    m = _Torus(h.compact_angles, lam.den, rs.dim)
    t = abs(h.log_a)
    flip = -1 if h.chamber is Chamber.H_MINUS else 1
    radial = {rate: math.exp(-rate * t / 2.0) for rate in {rate for _, _, rate in entries}}
    # sign, base and flip are +-1, so each coefficient is exactly +-radial
    return 0.5 * m.sum([sign * base * flip * radial[rate] for sign, base, rate in entries], rows)


def central_character(rs: RootSystem, lam: HCParameter, z: TorusElement) -> complex:
    """zeta_lam(z) = e^{lam - rho_g}(z) on the unit circle; z must be central."""
    torus = _Torus(z.angles, lam.den, rs.dim)
    if not all(map(torus.is_one, torus.turns(lam.roots))):
        raise ValueError("element is not central: a root is nontrivial on it")
    shifted = _Rows([tuple(map(sub, lam._row, lam.rho_g.ints[0]))], lam.den)
    return torus.phase(torus.turns(shifted)[0])
