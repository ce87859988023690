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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .rootsys import (
    Root,
    RootKind,
    RootSystem,
    Weight,
    coroot_pairing,
    exact_dot,
    inner,
    is_regular,
    weyl_group,
)

Angle = Fraction | float

SINGULAR_TOL = 1e-12
UNITY_TOL = 1e-9


class SingularElementError(ValueError):
    pass


class HCParameter:
    """Harish-Chandra parameter lambda = mu + rho_k on the root system ``rs``,
    with its Weyl data, shared by every class of one assembly.

    ``regular`` says whether lambda pairs nonzero with every root.
    ``compact`` is the W(k,t) orbit of lambda as (det w, w.lam), in the order
    of ``weyl_group(rs, "compact")``.  ``cosets`` and ``full`` are built on
    first use; see there.
    """

    def __init__(self, rs: RootSystem, lam: Weight, regular: bool):
        self.rs = rs
        self.lam = lam
        self.regular = regular
        self.compact = [(w.sign, w.apply(lam)) for w in weyl_group(rs, "compact")]
        self._cosets: dict[tuple[int, ...], list[tuple[complex, Weight]]] = {}
        self._full: list[tuple[int, int, float, Weight]] | None = None

    def cosets(self, fixed: tuple[int, ...]) -> list[tuple[complex, Weight]]:
        """Coset reps w of W_{k_xi} \\ W_k as (det(w) prod_{a in R+(xi)} <w.lam, a>, w.lam).

        ``fixed`` lists the indices into ``rs.positive`` of the roots a with
        e^a(xi) = 1; W_{k_xi} is generated by the compact ones.  lambda is
        strictly dominant for the compact roots, so each right coset
        W_{k_xi} w holds exactly one w with <w.lam, a> > 0 for every compact
        a in R+(xi), and that w is its rep.  The summand is constant on right
        cosets, so the sum is a class function of xi.
        """
        table = self._cosets.get(fixed)
        if table is None:
            rs = self.rs
            roots = [rs.positive[i] for i in fixed]
            table = []
            for sign, wl in self.compact:
                coeff = complex(sign)
                for r in roots:
                    p = inner(rs, wl, r)
                    if p <= 0 and r.kind is RootKind.COMPACT:
                        break
                    coeff *= float(p)
                else:
                    table.append((coeff, wl))
            self._cosets[fixed] = table
        return table

    def full(self) -> list[tuple[int, int, float, Weight]]:
        """The W(g,t) orbit as (det w, c(w.lam) on H_plus, |<w.lam, beta0_v>|,
        w.lam - rho_g), without the elements whose sign function c vanishes.

        The pairing mu(i(E_l - E_{-l})) is identified with <mu, beta0_v>
        through the Cayley transform; on H_plus, c(mu) is minus that
        pairing's sign, and H_minus negates it.  a_equals_1 follows the
        H_plus (one-sided) convention.
        """
        if self._full is None:
            rs = self.rs
            self._full = []
            for w in weyl_group(rs, "full"):
                wl = w.apply(self.lam)
                p = coroot_pairing(wl, rs.beta0)
                if p:
                    self._full.append((w.sign, -1 if p > 0 else 1, abs(float(p)), wl - rs.rho_g))
        return self._full


def hc_parameter(rs: RootSystem, mu: Weight) -> HCParameter:
    return HCParameter(rs, mu + rs.rho_k, is_regular(rs, mu))


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


def _dot(coords: Sequence[Fraction], q: Sequence[Angle]) -> Angle:
    if all(type(a) is Fraction for a in q):
        return exact_dot(coords, q)
    return sum(float(c) * float(a) for c, a in zip(coords, q, strict=True))


def _phase(x: Angle) -> complex:
    """exp(2 pi i x), with an exact mod-1 reduction on rational input."""
    if isinstance(x, Fraction):
        d = x.denominator
        return cmath.exp(2j * math.pi * ((x.numerator % d) / d))
    return cmath.exp(2j * math.pi * x)


def character_exp(coords: Weight | Root, t: TorusElement) -> complex:
    """e^beta(t)."""
    return _phase(_dot(coords.coords, t.angles))


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
        e = _phase(_dot(r.coords, t.angles) / 2)  # e^{b/2}(t)
        out *= e - 1 / e
    return out


def ds_character_Treg(rs: RootSystem, lam: HCParameter, t: TorusElement) -> CharacterValue:
    """Character value sum_{w in W_k} det(w) e^{w.lam}(t) / Delta_T(t) at regular t."""
    den = weyl_denominator_T(rs, t)
    if abs(den) < SINGULAR_TOL:
        raise SingularElementError(
            "singular torus element; use elliptic_orbital_term"
        )
    num = 0.0 + 0.0j
    for sign, wl in lam.compact:
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
    reps and their coefficients come from ``lam.cosets``.
    """
    den = character_exp(rs.rho_g, xi)
    fixed = []
    for i, r in enumerate(rs.positive):
        x = _dot(r.coords, xi.angles)
        if _is_one(x):
            fixed.append(i)
        else:
            den *= 1 - 1 / _phase(x)
    total = 0.0 + 0.0j
    for coeff, wl in lam.cosets(tuple(fixed)):
        total += coeff * character_exp(wl, xi)
    sign = (-1) ** (rs.dim_p // 2)
    return sign * total / den


def formal_degree(rs: RootSystem, lam: HCParameter) -> float:
    """Plancherel mass of the discrete series with parameter lambda.

    Scale depends on the inner-product normalization; the assembler carries a
    single calibration constant for it.
    """
    if not lam.regular:
        raise ValueError("formal degree requires a regular parameter")
    half_p = rs.dim_p // 2
    pref = 1.0 / ((2 * math.pi) ** half_p * 2 ** ((half_p - 1) / 2))
    num = Fraction(1)
    for r in rs.positive_roots():
        num *= inner(rs, lam.lam, r)
    den = Fraction(1)
    for r in rs.positive_roots(RootKind.COMPACT):
        den *= inner(rs, rs.rho_k, r)
    return pref * abs(float(num / den))


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
    for sign, base, rate, shifted in lam.full():
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
