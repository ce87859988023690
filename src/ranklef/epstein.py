"""Constant-term extraction for the cusp zeta functions.

The cusp geometry in real rank one puts the class norms into finitely many
scaled arithmetic progressions {c (m + a) : m >= 0}, so the zeta function
reduces exactly to a combination of Hurwitz zetas

    zeta(z) = vol * sum_i  w_i * c_i^{-(d+z)} * hurwitz_zeta(d + z, a_i)

with d = dim of the relevant nilpotent piece.  The only possible pole at
z = 0 is simple and occurs for d = 1, where the Laurent data is read off
from  hurwitz_zeta(1 + z, a) = 1/z - digamma(a) + O(z).

The Hurwitz kernel is an Euler-Maclaurin evaluation with 12 Bernoulli
correction terms, good to better than 1e-10 relative error on |s| <= 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .jsonin import Fields

# B_2, B_4, ..., B_24
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
)

EULER_GAMMA = 0.5772156649015328606


class HurwitzPoleError(ValueError):
    pass


def hurwitz_zeta(s: complex, a: float, shift: int = 24) -> complex:
    """Analytic continuation of sum_{m>=0} (m+a)^{-s} by Euler-Maclaurin.

    ``shift`` sets the minimum number of directly summed head terms; the
    tail beyond m + a is expanded with the Bernoulli corrections, truncated
    at the smallest term of the asymptotic series.  Right of the imaginary
    axis the relative error is below 1e-10 throughout |s| <= 10; for deeply
    negative Re(s) the head/tail cancellation limits double precision to the
    scale of the largest intermediate, which no shift choice can beat.
    """
    if a <= 0:
        raise ValueError("hurwitz_zeta requires a > 0")
    s = complex(s)
    if abs(s - 1.0) < 1e-14:
        raise HurwitzPoleError("hurwitz_zeta has a pole at s = 1")
    if s.real >= -0.5:
        m = max(shift, 3 * int(abs(s)) + 16)
    else:
        # keep intermediates small; the asymptotic tail is truncated optimally
        m = max(10, int(abs(s.imag)) + 12)
    head = 0.0 + 0.0j
    for j in range(m):
        head += (a + j) ** (-s)
    x = a + m
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    rising = s  # s (s+1) ... two more factors per Bernoulli term
    power = x ** (-s - 1.0)
    last = math.inf
    for r, b in enumerate(_BERNOULLI, start=1):
        term = (float(b) / math.factorial(2 * r)) * rising * power
        if abs(term) > last:
            break
        tail += term
        last = abs(term)
        rising *= (s + 2 * r - 1) * (s + 2 * r)
        power /= x * x
    return head + tail


def digamma(a: float, shift: int = 24) -> float:
    """psi(a) for a > 0, Euler-Maclaurin with the same Bernoulli table."""
    if a <= 0:
        raise ValueError("digamma requires a > 0")
    head = 0.0
    for j in range(shift):
        head -= 1.0 / (a + j)
    x = a + shift
    out = math.log(x) - 0.5 / x
    xp = x * x
    for r, b in enumerate(_BERNOULLI, start=1):
        out -= float(b) / (2 * r * xp)
        xp *= x * x
    return head + out


@dataclass(frozen=True)
class ClassProgression:
    """One family of unipotent classes: weight w, norms {scale * (m + offset)}."""

    weight: float
    scale: float
    offset: float = 1.0

    def __post_init__(self) -> None:
        if not all(0 < x < math.inf for x in (self.weight, self.scale, self.offset)):
            raise ValueError("progression data must be finite and positive")


@dataclass(frozen=True)
class EpsteinSpec:
    classes: tuple[ClassProgression, ...]
    lattice_vol: float
    exponent_base: int

    def __post_init__(self) -> None:
        if not 0 < self.lattice_vol < math.inf:
            raise ValueError("lattice_vol must be finite and positive")
        if self.exponent_base < 1:
            raise ValueError("exponent_base must be a positive integer")

    @staticmethod
    def from_dict(data: dict) -> "EpsteinSpec":
        """The spec of a decoded JSON file.  A value of the wrong type or range
        raises ValueError naming it, e.g. ``classes[0].scale``."""
        top = Fields(data, "", what="spec")
        classes = []
        for entry in top.entries("classes"):
            weight = entry.number("weight", positive=True)
            if "scale" in entry.value:
                scale = entry.number("scale", positive=True)
                classes.append(ClassProgression(weight, scale, entry.number("offset", 1.0, positive=True)))
            elif "norm" in entry.value:
                # Shorthand: seed norm c stands for the progression {c(m+1)}.
                classes.append(ClassProgression(weight, entry.number("norm", positive=True), 1.0))
            else:
                raise ValueError(f"{entry.name} needs 'scale' (+'offset') or 'norm'")
        return EpsteinSpec(
            classes=tuple(classes),
            lattice_vol=top.number("lattice_vol", 1.0, positive=True),
            exponent_base=top.integer("exponent_base", minimum=1),
        )


@dataclass(frozen=True)
class LaurentConstant:
    constant_term: float
    pole_order_at_0: int
    residue_at_0: float = 0.0

    def __post_init__(self) -> None:
        if self.pole_order_at_0 not in (0, 1):
            raise AssertionError("pole order at 0 must be 0 or 1")


def zeta_constant_terms(spec: EpsteinSpec) -> LaurentConstant:
    """Laurent constant of the cusp zeta function at z = 0.

    Convergent case (exponent_base >= 2): the constant is the plain value.
    Divergent case (exponent_base = 1): the Hurwitz pole contributes
    residue vol * sum w/c and constant vol * sum (w/c)(-psi(a) - log c).
    Truncated summation is never used for the divergent case.
    """
    if not spec.classes:
        return LaurentConstant(0.0, 0)
    d = spec.exponent_base
    if d == 1:
        residue = spec.lattice_vol * sum(p.weight / p.scale for p in spec.classes)
        constant = spec.lattice_vol * sum(
            (p.weight / p.scale) * (-digamma(p.offset) - math.log(p.scale))
            for p in spec.classes
        )
        return LaurentConstant(constant, 1, residue)
    constant = spec.lattice_vol * sum(
        p.weight * p.scale ** (-d) * hurwitz_zeta(complex(d), p.offset).real
        for p in spec.classes
    )
    return LaurentConstant(constant, 0, 0.0)
