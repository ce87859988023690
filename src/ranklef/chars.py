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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .rootsys import (
    Regularity,
    Root,
    RootKind,
    RootSystem,
    Weight,
    WeightClass,
    classify_weight,
    coroot_pairing,
    exact_dot,
    inner,
    weyl_group,
)

Angle = Fraction | float

SINGULAR_TOL = 1e-12
UNITY_TOL = 1e-9


class SingularElementError(ValueError):
    pass


@dataclass(frozen=True)
class HCParameter:
    """Harish-Chandra parameter lambda = mu + rho_k with its regularity tag.

    ``_tables`` holds the Weyl data of lambda (``_WeylTables``) per root
    system, built on first use, so every class of one assembly reads one copy.
    It is keyed by ``id(rs)``: hashing a RootSystem costs far more than a
    class does.
    """

    lam: Weight
    regularity: WeightClass
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def hc_parameter(rs: RootSystem, mu: Weight) -> HCParameter:
    cls = classify_weight(rs, mu)
    return HCParameter(lam=mu + rs.rho_k, regularity=cls)


@dataclass(frozen=True)
class TorusElement:
    """t = exp(2 pi i diag(q)) for a coordinate vector q over the epsilon basis."""

    angles: tuple[Angle, ...]


class Chamber(str, Enum):
    H_PLUS = "H_plus"
    H_MINUS = "H_minus"
    A_EQUALS_1 = "a_equals_1"


@dataclass(frozen=True)
class NoncompactCartanElement:
    """h = m a with m given by compact angles and a by the split coordinate."""

    compact_angles: tuple[Angle, ...]
    log_a: float
    chamber: Chamber

    def __post_init__(self) -> None:
        t = self.log_a
        if self.chamber is Chamber.A_EQUALS_1 and t != 0.0:
            raise ValueError("chamber a_equals_1 requires log_a = 0")
        if self.chamber is Chamber.H_PLUS and not t > 0:
            raise ValueError("chamber H_plus requires log_a > 0")
        if self.chamber is Chamber.H_MINUS and not t < 0:
            raise ValueError("chamber H_minus requires log_a < 0")

    @staticmethod
    def from_log_a(compact_angles: Sequence[Angle], log_a: float) -> "NoncompactCartanElement":
        if log_a > 0:
            ch = Chamber.H_PLUS
        elif log_a < 0:
            ch = Chamber.H_MINUS
        else:
            ch = Chamber.A_EQUALS_1
        return NoncompactCartanElement(tuple(compact_angles), float(log_a), ch)


@dataclass(frozen=True)
class CharacterValue:
    value: complex


def _dot(coords: Sequence[Fraction], q: Sequence[Angle]) -> Angle:
    if all(type(a) is Fraction for a in q):
        return exact_dot(coords, q)
    return sum(float(c) * float(a) for c, a in zip(coords, q))


def _phase(x: Angle) -> complex:
    """exp(2 pi i x), with an exact mod-1 reduction on rational input."""
    if isinstance(x, Fraction):
        d = x.denominator
        return cmath.exp(2j * math.pi * ((x.numerator % d) / d))
    return cmath.exp(2j * math.pi * x)


def character_exp(coords: Weight | Root, t: TorusElement, half: bool = False) -> complex:
    """e^beta(t), or e^{beta/2}(t) when ``half`` is set."""
    x = _dot(coords.coords, t.angles)
    if half:
        x = x / 2 if isinstance(x, Fraction) else x / 2.0
    return _phase(x)


def _is_one(x: Angle) -> bool:
    """Whether exp(2 pi i x) = 1: exactly for rational x, to UNITY_TOL for float x."""
    if isinstance(x, Fraction):
        return x.denominator == 1
    return abs(_phase(x) - 1.0) < UNITY_TOL


def weyl_denominator_T(rs: RootSystem, t: TorusElement) -> complex:
    """prod over R+(g,t) of (e^{b/2} - e^{-b/2})(t); zero exactly on singular t."""
    if len(t.angles) != rs.dim:
        raise ValueError("torus element dimension mismatch")
    out = 1.0 + 0.0j
    for r in rs.positive_roots():
        e = character_exp(r, t, half=True)
        out *= e - 1 / e
    return out


class _WeylTables:
    """The Weyl data of one lambda on one root system, shared by every class.

    ``compact`` is the W(k,t) orbit of lambda as (det w, w.lam), in the order
    of ``weyl_group(rs, "compact")``.  ``cosets`` and ``full`` are built on
    first use; see there.
    """

    def __init__(self, rs: RootSystem, lam: Weight):
        self.rs = rs  # also keeps id(rs), the key in HCParameter._tables, unique
        self.lam = lam
        self.positive = rs.positive_roots()
        self.compact = [(w.sign, w.apply(lam)) for w in weyl_group(rs, "compact")]
        self._cosets: dict[tuple[int, ...], list[tuple[complex, Weight]]] = {}
        self._full: list[tuple[int, int, float, Weight]] | None = None

    def cosets(self, fixed: tuple[int, ...]) -> list[tuple[complex, Weight]]:
        """Coset reps w of W_{k_xi} \\ W_k as (det(w) prod_{a in R+(xi)} <w.lam, a>, w.lam).

        ``fixed`` lists the indices into ``positive`` of the roots a with
        e^a(xi) = 1; W_{k_xi} is generated by the compact ones.  lambda is
        strictly dominant for the compact roots, so each right coset
        W_{k_xi} w holds exactly one w with <w.lam, a> > 0 for every compact
        a in R+(xi), and that w is its rep.  The summand is constant on right
        cosets, so the sum is a class function of xi.
        """
        table = self._cosets.get(fixed)
        if table is None:
            rs = self.rs
            roots = [self.positive[i] for i in fixed]
            compact = [r.coords for r in roots if r.kind is RootKind.COMPACT]
            table = []
            for sign, wl in self.compact:
                if all(exact_dot(wl.coords, a) > 0 for a in compact):
                    coeff = complex(sign)
                    for r in roots:
                        coeff *= float(inner(rs, wl, Weight(r.coords)))
                    table.append((coeff, wl))
            self._cosets[fixed] = table
        return table

    def full(self) -> list[tuple[int, int, float, Weight]]:
        """The W(g,t) orbit as (det w, c_sign on H_plus, |<w.lam, beta0_v>|,
        w.lam - rho_g), without the elements whose sign function vanishes."""
        if self._full is None:
            rs = self.rs
            self._full = []
            for w in weyl_group(rs, "full"):
                wl = w.apply(self.lam)
                base = c_sign(rs, wl, Chamber.H_PLUS)
                if base:
                    rate = abs(float(coroot_pairing(rs, wl, rs.beta0)))
                    self._full.append((w.sign, base, rate, wl - rs.rho_g))
        return self._full


def _weyl_tables(rs: RootSystem, lam: HCParameter) -> _WeylTables:
    tables = lam._tables.get(id(rs))
    if tables is None:
        tables = lam._tables[id(rs)] = _WeylTables(rs, lam.lam)
    return tables


def compact_orbit(rs: RootSystem, lam: HCParameter) -> list[tuple[int, Weight]]:
    """The W(k,t) orbit of lambda as (det w, w.lam), built once per parameter."""
    return _weyl_tables(rs, lam).compact


def ds_character_Treg(rs: RootSystem, lam: HCParameter, t: TorusElement) -> CharacterValue:
    """Character value sum_{w in W_k} det(w) e^{w.lam}(t) / Delta_T(t) at regular t."""
    den = weyl_denominator_T(rs, t)
    if abs(den) < SINGULAR_TOL:
        raise SingularElementError(
            "singular torus element; use elliptic_orbital_term"
        )
    num = 0.0 + 0.0j
    for sign, wl in compact_orbit(rs, lam):
        num += sign * character_exp(wl, t)
    return CharacterValue(value=num / den)


def elliptic_orbital_term(rs: RootSystem, lam: HCParameter, xi: TorusElement) -> complex:
    """Orbital value of the index kernel at an elliptic element, up to d_xi.

    Evaluates
        (-1)^{dim p / 2} sum_{w in W_{k_xi} \\ W_k} det(w)
            prod_{a in R+(xi)} <w.lam, a>  e^{w.lam}(xi)
          / ( e^{rho_g}(xi) prod_{b in R+ \\ R+(xi)} (1 - e^{-b}(xi)) )
    where R+(xi) collects the positive roots with e^a(xi) = 1.  For regular
    xi this reduces to (-1)^{dim p/2} times the character at xi.  The coset
    reps and their coefficients come from lambda's Weyl tables.
    """
    tables = _weyl_tables(rs, lam)
    den = character_exp(rs.rho_g, xi)
    fixed = []
    for i, r in enumerate(tables.positive):
        x = _dot(r.coords, xi.angles)
        if _is_one(x):
            fixed.append(i)
        else:
            den *= 1 - 1 / _phase(x)
    total = 0.0 + 0.0j
    for coeff, wl in tables.cosets(tuple(fixed)):
        total += coeff * character_exp(wl, xi)
    sign = (-1) ** (rs.dim_p // 2)
    return sign * total / den


def formal_degree(rs: RootSystem, lam: HCParameter) -> float:
    """Plancherel mass of the discrete series with parameter lambda.

    Scale depends on the inner-product normalization; the assembler carries a
    single calibration constant for it.
    """
    if lam.regularity.regularity is not Regularity.REGULAR:
        raise ValueError("formal degree requires a regular parameter")
    half_p = rs.dim_p // 2
    pref = 1.0 / ((2 * math.pi) ** half_p * 2 ** ((half_p - 1) / 2))
    num = Fraction(1)
    for r in rs.positive_roots():
        num *= inner(rs, lam.lam, Weight(r.coords))
    den = Fraction(1)
    for r in rs.positive_roots(RootKind.COMPACT):
        den *= inner(rs, rs.rho_k, Weight(r.coords))
    return pref * abs(float(num / den))


def c_sign(rs: RootSystem, mu: Weight, chamber: Chamber) -> int:
    """Sign function of the character formula on H.

    The pairing mu(i(E_l - E_{-l})) is identified with <mu, beta0_v> through
    the Cayley transform; on H_plus the sign is minus that pairing's sign,
    and H_minus negates it.  a_equals_1 follows the H_plus (one-sided)
    convention.
    """
    s = coroot_pairing(rs, mu, rs.beta0)
    base = -1 if s > 0 else (1 if s < 0 else 0)
    if chamber is Chamber.H_MINUS:
        return -base
    return base


def omega(rs: RootSystem, lam: HCParameter, h: NoncompactCartanElement) -> complex:
    """Smoothed character numerator on the noncompact Cartan.

    Omega_lam(m a_t) = 1/2 sum_{w in W_g} det(w) c(w.lam, chamber)
        e^{w.lam - rho_g}(m) exp(-|<w.lam, beta0_v>| |t| / 2).

    The exponentials are the Cayley transports of the W_g-orbit of lambda,
    with the decaying branch selected on each chamber; the compact part
    carries the rho_g shift so that central m give the central character.
    """
    if len(h.compact_angles) != rs.dim:
        raise ValueError("compact part dimension mismatch")
    m = TorusElement(h.compact_angles)
    t = abs(h.log_a)
    flip = h.chamber is Chamber.H_MINUS
    total = 0.0 + 0.0j
    for sign, base, rate, shifted in _weyl_tables(rs, lam).full():
        c = -base if flip else base
        radial = math.exp(-rate * t / 2.0)
        total += sign * c * character_exp(shifted, m) * radial
    return 0.5 * total


def central_character(rs: RootSystem, lam: HCParameter, z: TorusElement) -> complex:
    """zeta_lam(z) = e^{lam - rho_g}(z) on the unit circle; z must be central."""
    for r in rs.positive_roots():
        if not _is_one(_dot(r.coords, z.angles)):
            raise ValueError("element is not central: a root is nontrivial on it")
    return character_exp(lam.lam - rs.rho_g, z)
