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
* Every supported Weyl group is a group of signed permutations, so a sum
  over a whole Weyl group is a determinant (Weyl's character formula in
  determinant form).  At a regular elliptic class, one where no root has
  e^a(xi) = 1, the numerator sum_{W_k} det(w) e^{w.lam}(xi) is one, and Omega
  is the Laplace expansion of one along the beta0 rows; both are taken by
  ``_minors``, the one determinant routine, on the phases
  x_ij = e^{lam_j e_i}(t) that ``_Torus`` gives.  Singular classes (over
  coset reps), the unipotent sum, ``ds_character_Treg`` and
  ``central_character`` sum their orbits with ``_Torus.sum``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from operator import mul, sub
from typing import Sequence

from .rootsys import Family, RootKind, RootSystem, Weight, weyl_group

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


def _unit(d: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The integer row of sum c e_i over the (i, c) in ``terms``, in d coordinates."""
    row = [0] * d
    for i, c in terms:
        row[i] += c
    return tuple(row)


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

    def phases(self, rows: _Rows) -> list[complex]:
        """e^{row}(t) for each row in order, memoized on the exact path only,
        where residues repeat."""
        if self.exact:
            return list(map(self.phase, self.turns(rows)))
        exp, c = cmath.exp, 2j * math.pi
        return [exp(c * x) for x in self.turns(rows)]

    def is_one(self, x: int | float) -> bool:
        """Whether the phase is 1: exactly on the exact path, to UNITY_TOL otherwise."""
        return x == 0 if self.exact else abs(self.phase(x) - 1.0) < UNITY_TOL

    def sum(self, coeffs: Sequence[complex], rows: _Rows) -> complex:
        """sum_i coeffs[i] e^{rows_i}(t), added in row order."""
        total = 0.0 + 0.0j
        for c, x in zip(coeffs, self.turns(rows)):
            total += c * self.phase(x)
        return total


@lru_cache(maxsize=None)
def _cofactor_steps(n: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]:
    """The steps of ``_minors`` on n columns, for each row k >= 1: (S, j, T)
    for each k-subset S of the columns (a bitmask) and each column c outside
    it, where j = k n + c indexes the entry and T = S | 1 << c; split by the
    cofactor sign (-1)^(k + #{i in S : i < c}), + then -."""
    levels = []
    for k in range(1, n):
        signs: tuple[list, list] = ([], [])
        for S in range(1 << n):
            if S.bit_count() == k:
                for c in range(n):
                    if not S >> c & 1:
                        signs[(k + (S & ((1 << c) - 1)).bit_count()) % 2].append((S, k * n + c, S | 1 << c))
        levels.append(tuple(map(tuple, signs)))
    return tuple(levels)


def _minors(entries: Sequence[float] | Sequence[complex], n: int) -> list:
    """The minors of the leading rows of a matrix with n columns, given row
    by row in ``entries``: item S is the determinant of the first |S| rows
    on the columns in the bitmask S, taken in increasing order, for every S
    with |S| at most the number of rows.

    The one determinant routine.  Row k expands each (k + 1)-minor along
    its last row into k-minors, which are shared by every minor that contains
    them: n 2^(n-1) products for a full n x n determinant, and no division.
    Every product of the expansion passes through one multiplication and at
    most k additions per row, so the rounding is bounded as an orbit sum's
    is, by gamma_K times the permanent of the entry moduli.
    """
    m = [0.0] * (1 << n)
    m[0] = 1.0
    for c, x in enumerate(entries[:n]):
        m[1 << c] = x
    if len(entries) <= n:
        return m
    for plus, minus in _cofactor_steps(n)[: len(entries) // n - 1]:
        for S, j, T in plus:
            m[T] += entries[j] * m[S]
        for S, j, T in minus:
            m[T] -= entries[j] * m[S]
    return m


def _det(entries: Sequence[float] | Sequence[complex], n: int) -> float | complex:
    """The determinant of the n x n matrix given row by row: its one entry
    when n = 1, the full minor of ``_minors`` otherwise."""
    return entries[0] if n == 1 else _minors(entries, n)[-1]


def _i_power(k: int, v: float) -> complex:
    """i^k v, exactly."""
    k %= 4
    if k == 0:
        return complex(v, 0.0)
    if k == 1:
        return complex(0.0, v)
    return complex(-v, 0.0) if k == 2 else complex(0.0, -v)


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
    the determinant rows ``numerator_rows`` and ``omega_rows`` are built on
    first use; see there.
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

    @cached_property
    def numerator_rows(self) -> _Rows:
        """The weights whose phases are the entries of Weyl's determinant for
        W_k (see ``_weyl_numerator``), row by row: lam_j e_i for i, j < n,
        where n = dim t for so and dim t - 1 otherwise; su adds lam_n e_n to
        each weight of row 0, and sp appends lam_n e_n."""
        lam, d, family = self._row, self.rs.dim, self.rs.descriptor.family
        n = d if family is Family.SO else d - 1
        rows = [_unit(d, (i, lam[j])) for i in range(n) for j in range(n)]
        if family is Family.SU:
            rows[:n] = [_unit(d, (0, lam[j]), (n, lam[n])) for j in range(n)]
        if family is Family.SP:
            rows.append(_unit(d, (n, lam[n])))
        return _Rows(rows, self.den)

    @cached_property
    def omega_rows(self) -> _Rows:
        """The weights whose phases ``omega`` reads, with d = dim t: for so and
        sp, lam_j e_i for i, j < d, then -rho_g; for su, lam_j e_i for
        0 < i < d - 1, then for each pair of columns a < b the two weights
        lam_a e_0 + lam_b e_{d-1} - rho_g and lam_b e_0 + lam_a e_{d-1} - rho_g."""
        lam, d = self._row, self.rs.dim
        rho = self.rho_g.ints[0]
        if self.rs.descriptor.family is not Family.SU:
            rows = [_unit(d, (i, lam[j])) for i in range(d) for j in range(d)]
            return _Rows(rows + [tuple(-r for r in rho)], self.den)
        rows = [_unit(d, (i, lam[j])) for i in range(1, d - 1) for j in range(d)]
        for a, b in combinations(range(d), 2):
            rows += [tuple(map(sub, _unit(d, (0, lam[a]), (d - 1, lam[b])), rho)),
                     tuple(map(sub, _unit(d, (0, lam[b]), (d - 1, lam[a])), rho))]
        return _Rows(rows, self.den)

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


def _weyl_numerator(rs: RootSystem, lam: HCParameter, torus: _Torus) -> complex:
    """sum_{w in W_k} det(w) e^{w.lam}(t) by Weyl's formula in determinant
    form, with x_ij = e^{lam_j e_i}(t) for the first n coordinates:

        su(n,1)   x_{n+1,n+1} det[x_ij]
        so(2n,1)  (det[x_ij + 1/x_ij] + det[x_ij - 1/x_ij]) / 2
        sp(n,1)   det[x_ij - 1/x_ij] (x_{n+1,n+1} - 1/x_{n+1,n+1})

    W_k is S_n, D_n or C_n x C_1, a group of signed permutations, so each
    sum over it is a determinant.  su multiplies row 1 by x_{n+1,n+1} through
    its turns; so and sp take x + 1/x = 2 Re x and x - 1/x = 2i Im x, which
    leaves real determinants and exact powers of 2i.
    """
    x = torus.phases(lam.numerator_rows)
    family, d = rs.descriptor.family, len(lam._row)
    if family is Family.SU:
        return _det(x, d - 1)
    n = d if family is Family.SO else d - 1
    if family is Family.SP:
        return 2.0 ** (n + 1) * _i_power(n + 1, _det([p.imag for p in x[:-1]], n) * x[-1].imag)
    return 2.0 ** (n - 1) * (_det([p.real for p in x], n) + _i_power(n, _det([p.imag for p in x], n)))


def elliptic_orbital_term(rs: RootSystem, lam: HCParameter, xi: TorusElement) -> complex:
    """Orbital value of the index kernel at an elliptic element, up to d_xi.

    Evaluates
        (-1)^{dim p / 2} sum_{w in W_{k_xi} \\ W_k} det(w)
            prod_{a in R+(xi)} <w.lam, a>  e^{w.lam}(xi)
          / ( e^{rho_g}(xi) prod_{b in R+ \\ R+(xi)} (1 - e^{-b}(xi)) )
    where R+(xi) collects the positive roots with e^a(xi) = 1.  For regular
    xi, where R+(xi) is empty, this is (-1)^{dim p/2} times the character
    at xi, and the numerator is a determinant (``_weyl_numerator``); at
    singular xi the coset reps and their coefficients come from ``lam.cosets``.
    """
    torus = _Torus(xi.angles, lam.den, rs.dim)
    den = torus.phase(torus.turns(lam.rho_g)[0])
    fixed = []
    for i, x in enumerate(torus.turns(lam.roots)):
        if torus.is_one(x):
            fixed.append(i)
        else:
            den *= 1 - 1 / torus.phase(x)
    num = torus.sum(*lam.cosets(tuple(fixed))) if fixed else _weyl_numerator(rs, lam, torus)
    return (-1) ** (rs.dim_p // 2) * num / den


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


@lru_cache(maxsize=None)
def _column_pairs(d: int) -> tuple[tuple[int, int, int, bool], ...]:
    """(a, b, mask, negate) for the columns a < b of a d x d matrix expanded
    along its first and last rows: ``mask`` holds the other columns, and
    ``negate`` is the Laplace sign (-1)^((d - 1) + a + b) < 0."""
    full = (1 << d) - 1
    return tuple((a, b, full ^ (1 << a) ^ (1 << b), (d - 1 + a + b) % 2 == 1) for a, b in combinations(range(d), 2))


def _weight(p: int, den: int, t: float) -> float:
    """G = c exp(-|pairing| |t| / 2) at <w.lam, beta0_v> = p / den on H_plus."""
    return math.copysign(math.exp(-abs(p) / den * t / 2.0), -p) if p else 0.0


def omega(rs: RootSystem, lam: HCParameter, h: NoncompactCartanElement) -> complex:
    """Smoothed character numerator on the noncompact Cartan.

    Omega_lam(m a_t) = 1/2 sum_{w in W_g} det(w) c(w.lam, chamber)
        e^{w.lam - rho_g}(m) exp(-|<w.lam, beta0_v>| |t| / 2).

    The exponentials are the Cayley transports of the W_g-orbit of lambda,
    with the decaying branch selected on each chamber; the compact part
    carries the rho_g shift so that central m give the central character.
    The pairing mu(i(E_l - E_{-l})) is identified with <mu, beta0_v>; on
    H_plus, c(mu) is minus its sign (0 when it vanishes), and H_minus
    negates c; a_equals_1 follows the H_plus (one-sided) convention.

    c and the decay depend on w.lam only through <w.lam, beta0_v>, which
    reads coordinate 1 (so, beta0 = e_1) or coordinates 1 and n+1 (su,
    beta0 = e_1 - e_{n+1}; sp, beta0 = e_1 + e_{n+1}): den <w.lam, beta0_v>
    is 2 lam_j, lam_a - lam_b or +-lam_a +- lam_b on the integer row.  So the
    sum is a Laplace expansion of det[x_ij] (su) or det[x_ij - 1/x_ij] (so,
    sp), x_ij = e^{lam_j e_i}(m), along those rows.  Each choice of columns,
    and for so and sp of signs, is weighted by G = c exp(-|pairing| |t| / 2),
    which is odd in the pairing, and multiplied by the complementary minor
    from ``_minors``; the whole is multiplied by e^{-rho_g}(m) / 2.  Summed
    over its signs, column j of row 1 gives so 2 G(2 lam_j) cos(alpha_1j),
    where x = e^{i alpha}.  For su, columns a < b of rows 1 and n+1 give
    G(lam_a - lam_b) (x_1a x_{n+1}b + x_1b x_{n+1}a), each product one phase
    with e^{-rho_g}(m) folded in; for sp, summed over their signs, they give
    2i (G(lam_a + lam_b) (sin(alpha_1a + alpha_{n+1}b) - sin(alpha_1b + alpha_{n+1}a))
        - G(lam_a - lam_b) (sin(alpha_1a - alpha_{n+1}b) + sin(alpha_1b - alpha_{n+1}a))).
    """
    m = _Torus(h.compact_angles, lam.den, rs.dim)
    t, den = abs(h.log_a), lam.den
    row, d = lam._row, rs.dim
    x = m.phases(lam.omega_rows)
    half = -0.5 if h.chamber is Chamber.H_MINUS else 0.5
    if rs.descriptor.family is Family.SU:
        middle = d * (d - 2)
        minors = _minors(x[:middle], d)
        total = 0.0
        firsts, seconds = x[middle::2], x[middle + 1 :: 2]
        for (a, b, mask, negate), u, v in zip(_column_pairs(d), firsts, seconds):
            term = _weight(row[a] - row[b], den, t) * (u + v) * minors[mask]
            total += -term if negate else term
        return half * total
    total = 0.0
    if rs.descriptor.family is Family.SO:
        minors = _minors([p.imag for p in x[d : d * d]], d)
        full = (1 << d) - 1
        for j in range(d):
            term = _weight(2 * row[j], den, t) * x[j].real * minors[full ^ (1 << j)]
            total += -term if j % 2 else term
        scaled = 2.0**d * _i_power(d - 1, total)
    else:
        minors = _minors([p.imag for p in x[d : d * (d - 1)]], d)
        top, bottom = x[:d], x[d * (d - 1) : d * d]
        s0, c0 = [p.imag for p in top], [p.real for p in top]
        sn, cn = [p.imag for p in bottom], [p.real for p in bottom]
        for a, b, mask, negate in _column_pairs(d):
            u1, u2, v1, v2 = s0[a] * cn[b], c0[a] * sn[b], s0[b] * cn[a], c0[b] * sn[a]
            pair = _weight(row[a] + row[b], den, t) * ((u1 + u2) - (v1 + v2))
            pair -= _weight(row[a] - row[b], den, t) * ((u1 - u2) + (v1 - v2))
            term = pair * minors[mask]
            total += -term if negate else term
        scaled = 2.0 ** (d - 1) * _i_power(d - 1, total)
    return half * x[-1] * scaled


def central_character(rs: RootSystem, lam: HCParameter, z: TorusElement) -> complex:
    """zeta_lam(z) = e^{lam - rho_g}(z) on the unit circle; z must be central."""
    torus = _Torus(z.angles, lam.den, rs.dim)
    if not all(map(torus.is_one, torus.turns(lam.roots))):
        raise ValueError("element is not central: a root is nontrivial on it")
    shifted = _Rows([tuple(map(sub, lam._row, lam.rho_g.ints[0]))], lam.den)
    return torus.phase(torus.turns(shifted)[0])
