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
from fractions import Fraction
from typing import NamedTuple

from .jsonin import Checked, Fields

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

# Minimum number of directly summed head terms before the Euler-Maclaurin tail.
_HEAD_TERMS = 24

# Largest accepted exponent_base, the dimension d of a nilpotent piece.  Every
# group whose Weyl group can be enumerated has d far below it (dim n is 7 on
# so(8,1) and 11 on sp(3,1)), and hurwitz_zeta sums about 3d head terms, so a
# huge d from a spec file would only spend time.
MAX_EXPONENT_BASE = 100


def hurwitz_zeta(s: complex, a: float) -> complex:
    """Analytic continuation of sum_{m>=0} (m+a)^{-s} by Euler-Maclaurin, for Re s >= -1/2.

    max(``_HEAD_TERMS``, 3|s| + 16) head terms are summed directly, and the
    tail beyond them takes all 12 Bernoulli corrections: with that head each
    correction is smaller than the one before it.  The relative error is below
    1e-10 throughout |s| <= 10 right of the imaginary axis, and on the real
    axis up to s = MAX_EXPONENT_BASE.
    """
    if a <= 0:
        raise ValueError("hurwitz_zeta requires a > 0")
    s = complex(s)
    if s.real < -0.5:
        raise ValueError("hurwitz_zeta requires Re s >= -1/2")
    if abs(s - 1.0) < 1e-14:
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    m = max(_HEAD_TERMS, 3 * int(abs(s)) + 16)
    head = 0.0 + 0.0j
    for j in range(m):
        head += (a + j) ** (-s)
    x = a + m
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    rising = s  # s (s+1) ... two more factors per Bernoulli term
    power = x ** (-s - 1.0)
    for r, b in enumerate(_BERNOULLI, start=1):
        tail += (float(b) / math.factorial(2 * r)) * rising * power
        rising *= (s + 2 * r - 1) * (s + 2 * r)
        power /= x * x
    return head + tail


def digamma(a: float) -> float:
    """psi(a) for a > 0, Euler-Maclaurin with the same Bernoulli table."""
    if a <= 0:
        raise ValueError("digamma requires a > 0")
    head = 0.0
    for j in range(_HEAD_TERMS):
        head -= 1.0 / (a + j)
    x = a + _HEAD_TERMS
    out = math.log(x) - 0.5 / x
    xp = x * x
    for r, b in enumerate(_BERNOULLI, start=1):
        out -= float(b) / (2 * r * xp)
        xp *= x * x
    return head + out


class _ProgressionFields(NamedTuple):
    weight: float
    scale: float
    offset: float = 1.0


class ClassProgression(Checked, _ProgressionFields):
    """One family of unipotent classes: weight w, norms {scale * (m + offset)}."""

    __slots__ = ()

    def _check(self) -> None:
        if not all(0 < x < math.inf for x in self):
            raise ValueError("progression data must be finite and positive")


class _EpsteinSpecFields(NamedTuple):
    classes: tuple[ClassProgression, ...]
    lattice_vol: float
    exponent_base: int


class EpsteinSpec(Checked, _EpsteinSpecFields):
    __slots__ = ()

    def _check(self) -> None:
        if not 0 < self.lattice_vol < math.inf:
            raise ValueError("lattice_vol must be finite and positive")
        if not 1 <= self.exponent_base <= MAX_EXPONENT_BASE:
            raise ValueError(f"exponent_base must be an integer from 1 to {MAX_EXPONENT_BASE}")

    @staticmethod
    def from_dict(data: dict) -> "EpsteinSpec":
        """The spec of a decoded JSON file.  A value of the wrong type or range,
        or an unknown key, raises ValueError naming it, e.g. ``classes[0].scale``."""
        top = Fields(data, "", what="spec")
        classes = []
        for entry in top.entries("classes"):
            weight = entry.number("weight", positive=True)
            if "norm" in entry.value:
                # Shorthand: seed norm c stands for the progression {c(m+1)}.
                if "scale" in entry.value or "offset" in entry.value:
                    raise ValueError(f"{entry.name}: 'norm' excludes 'scale' and 'offset'")
                classes.append(ClassProgression(weight, entry.number("norm", positive=True), 1.0))
            elif "scale" in entry.value:
                scale = entry.number("scale", positive=True)
                classes.append(ClassProgression(weight, scale, entry.number("offset", 1.0, positive=True)))
            else:
                raise ValueError(f"{entry.name} needs 'scale' (+'offset') or 'norm'")
        spec = EpsteinSpec(
            classes=tuple(classes),
            lattice_vol=top.number("lattice_vol", 1.0, positive=True),
            exponent_base=top.integer("exponent_base", minimum=1),
        )
        top.reject_unknown()
        return spec


class _LaurentFields(NamedTuple):
    constant_term: float
    pole_order_at_0: int
    residue_at_0: float = 0.0


class LaurentConstant(Checked, _LaurentFields):
    __slots__ = ()

    def _check(self) -> None:
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
