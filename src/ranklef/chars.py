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
* Evaluation runs on integer columns (``_Columns``): a set of weights, the
  W(k,t) orbit of lambda among them, is one column of ints per coordinate
  over a common denominator den.  At all-Fraction angles, scaled to integers
  by the lcm L of their denominators, the dot N = den L <v, q> is reduced to
  a residue r in (-D/2, D/2], D = den L, and the phase is exp(2 pi i r / D),
  r / D rounded once (a small angle stays small); any float angle sends the element
  down the float path, where x / den is summed in coordinate order.  The one test of
  e^v(t) = 1 is ``_Torus.phase_unless_one``: r = 0, or within UNITY_TOL on floats.
  t is regular where no root phase is one; every regular/singular split here reads that.
* Every supported Weyl group is a group of signed permutations, so a sum over a whole
  Weyl group is a determinant (Weyl's character formula in determinant form).  At a
  regular elliptic class the numerator sum_{W_k} det(w) e^{w.lam}(xi) is one, and Omega
  is the Laplace expansion of one along the beta0 rows; both are taken by
  ``_minors``, the one determinant routine, on the phases
  x_ij = e^{lam_j e_i}(t) that ``_Torus`` gives.  Singular classes (over
  coset reps), the unipotent sum and ``ds_character_Treg`` go through
  ``_Torus.sum``, which adds integer coefficients exactly per residue.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations, compress, repeat
from operator import add, and_, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .jsonin import Checked
from .rootsys import Family, RootKind, RootSystem, Weight, weyl_group

Angle = Fraction | float

UNITY_TOL = 1e-9


def _ints(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """The vectors as integer rows over their common denominator: (rows, den)."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    return [tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors], den


class _Columns(list):
    """Weights as integer columns over ``den``, one per coordinate, as ``_Torus``
    reads them; their rows and float copies x / den (columns over den 1) are
    built on first use."""

    def __init__(self, columns: Iterable[Sequence[int]], den: int):
        super().__init__(columns)
        self.den = den

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        return list(zip(*self))

    @cached_property
    def floats(self) -> _Columns:
        return _Columns(([x / self.den for x in col] for col in self), 1)


def _unit(d: int, *terms: tuple[int, int]) -> tuple[int, ...]:
    """The integer row of sum c e_i over the (i, c) in ``terms``, in d coordinates."""
    row = [0] * d
    for i, c in terms:
        row[i] += c
    return tuple(row)


def _combine(q: Sequence, columns: Sequence[Sequence]) -> list:
    """sum_j x_j q_j per row of the columns, one pass per column with q_j != 0; zeros if none."""
    acc = None
    for c, col in zip(q, columns, strict=True):
        if c:
            terms = map(mul, col, repeat(c))
            acc = terms if acc is None else map(add, acc, terms)
    return [0] * len(columns[0]) if acc is None else list(acc)


class _Torus:
    """The angles of one torus element, to pair with ``_Columns``: the one evaluator of e^v(t).
    ``turns`` gives <v, q> per row, as N mod D on the exact path (0 exactly when e^v(t) = 1)
    or as a float; ``phase`` takes exp(2 pi i <v, q>) of it; ``sum`` sums every orbit."""

    def __init__(self, angles: Sequence[Angle], den: int, dim: int):
        if len(angles) != dim:
            raise ValueError(f"the torus element has {len(angles)} angles, not dim t = {dim}")
        self.exact = all(type(a) is Fraction for a in angles)
        if self.exact:
            (self.q,), L = _ints([angles])
            self.mod = den * L
        else:
            self.q = tuple(float(a) for a in angles)

    def turns(self, columns: _Columns) -> list[int] | list[float]:
        q = self.q
        if not self.exact:
            columns = columns.floats
        if len(columns[0]) < 12:  # a few rows: one dot per row is cheaper than one pass per column
            v = [sum(map(mul, row, q)) for row in columns.rows]
        else:
            v = _combine(q, columns)
        return [x % self.mod for x in v] if self.exact else v

    def phase(self, x: int | float) -> complex:
        """exp(2 pi i x / D), x taken in (-D/2, D/2] to keep small angles small, or exp(2 pi i x)."""
        theta = (x - self.mod if 2 * x > self.mod else x) / self.mod if self.exact else x
        return cmath.exp(2j * math.pi * theta)

    def phases(self, columns: _Columns) -> list[complex]:
        """e^{row}(t) for each row in order."""
        return list(map(self.phase, self.turns(columns)))

    def phase_unless_one(self, x: int | float) -> complex | None:
        """``phase(x)``, or None where it is 1: exactly on the exact path, to UNITY_TOL otherwise."""
        p = None if self.exact and x == 0 else self.phase(x)
        return None if not self.exact and abs(p - 1.0) < UNITY_TOL else p

    def by_residue(self, coeffs: Sequence, columns: _Columns) -> dict:
        """The coefficients added per residue of the exact path, in row order."""
        table: dict = {}
        for r, c in zip(self.turns(columns), coeffs):
            table[r] = table.get(r, 0) + c
        return table

    def sum(self, coeffs: Sequence, columns: _Columns, scale: int = 1) -> complex:
        """sum_i coeffs[i] e^{row_i}(t) / scale: per residue (``by_residue``), in residue
        order, on the exact path, term by term in row order on the float path."""
        terms = (sorted(self.by_residue(coeffs, columns).items()) if self.exact
                 else zip(self.turns(columns), coeffs))
        total = 0.0 + 0.0j
        for x, c in terms:
            total += c * self.phase(x)
        return total / scale


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


def _i_power(k: int, v: float) -> complex:
    """i^k v, exactly."""
    return complex(*((v, 0.0), (0.0, v), (-v, 0.0), (0.0, -v))[k % 4])


class HCParameter:
    """Harish-Chandra parameter lambda = mu + rho_k on the root system ``rs``,
    with its Weyl data, shared by every class of one assembly.  This is the
    one place where lambda is paired with a root.

    ``columns`` holds the W(k,t) orbit of lambda (det w in ``signs``), column i from each w's
    perm and signs in group order, and ``rho_roots`` rho_g and R+(g,t), as ``_Columns`` over ``den``.
    From ``pairings``, the integer dots den^2 <lambda, alpha> over R+(g,t), the constructor
    rejects a lambda not strictly dominant for the compact roots, sets ``regular`` and rejects
    a regular lambda with a negative pairing.
    """

    def __init__(self, rs: RootSystem, lam: Weight):
        self.rs = rs
        self.lam = lam
        if len(lam.coords) != rs.dim:
            raise ValueError(f"weight has {len(lam.coords)} coordinates; lambda needs dim t = {rs.dim}")
        (self._row, self._rho), self.den = _ints([lam.coords, rs.rho_g.coords])
        group = weyl_group(rs, "compact")
        self.signs = [w.sign for w in group]
        self.columns = _Columns(([s[i] * self._row[p[i]] for p, s, _ in group] for i in range(rs.dim)), self.den)
        self._roots = [tuple(c.numerator * self.den for c in r.coords) for r in rs.positive]
        self.rho_roots = _Columns(zip(self._rho, *self._roots), self.den)
        self.pairings = [rs.form_scale * sum(map(mul, self._row, a)) for a in self._roots]
        if any(p <= 0 for p, r in zip(self.pairings, rs.positive) if r.kind is RootKind.COMPACT):
            raise ValueError("weight is not dominant for the compact positive system")
        self.regular = all(self.pairings)
        if self.regular and min(self.pairings) < 0:
            raise ValueError("lambda = mu + rho_k is regular but not dominant; "
                             "present the dominant chamber representative")
        self._pairing_columns: dict[tuple[int, ...], list[int]] = {}

    def pairing_column(self, a: tuple[int, ...]) -> list[int]:
        """s (w.lam . a) over the orbit for an integer vector a, s = form_scale, kept by a:
        den^2 <w.lam, b> when a is den b for a root b of R+(g,t)."""
        if a not in self._pairing_columns:
            self._pairing_columns[a] = _combine([self.rs.form_scale * c for c in a], self.columns)
        return self._pairing_columns[a]

    def coset_terms(self, fixed: Sequence[int]) -> tuple[list[int], _Columns, int]:
        """The sum over W_{k_xi} \\ W_k at a singular xi as (integer coefficients, columns of the
        reps w, scale den^(2 |R+(xi)|)), for the roots ``fixed`` of R+(xi): lambda is strictly
        dominant for the compact ones, which generate W_{k_xi}, so each right coset W_{k_xi} w
        holds one w with <w.lam, a> > 0 for them all, its rep, with det(w) prod den^2 <w.lam, a>."""
        cols = [self.pairing_column(self._roots[i]) for i in fixed]
        masks = [map((0).__lt__, c) for c, i in zip(cols, fixed)
                 if self.rs.positive[i].kind is RootKind.COMPACT]
        coeffs, reps = self.signs, self.columns
        if masks:
            mask = list(reduce(partial(map, and_), masks))
            coeffs, cols = list(compress(coeffs, mask)), [list(compress(c, mask)) for c in cols]
            reps = _Columns((list(compress(c, mask)) for c in reps), self.den)
        for col in cols:
            coeffs = list(map(mul, coeffs, col))
        return coeffs, reps, self.den ** (2 * len(fixed))

    @cached_property
    def numerator_columns(self) -> _Columns:
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
        return _Columns(zip(*rows), self.den)

    @cached_property
    def omega_columns(self) -> _Columns:
        """The weights whose phases ``omega`` reads, with d = dim t: for so and
        sp, lam_j e_i for i, j < d, then -rho_g; for su, lam_j e_i for
        0 < i < d - 1, then for each pair of columns a < b the two weights
        lam_a e_0 + lam_b e_{d-1} - rho_g and lam_b e_0 + lam_a e_{d-1} - rho_g."""
        lam, d, rho = self._row, self.rs.dim, self._rho
        if self.rs.descriptor.family is not Family.SU:
            rows = [_unit(d, (i, lam[j])) for i in range(d) for j in range(d)]
            return _Columns(zip(*rows, [-r for r in rho]), self.den)
        rows = [_unit(d, (i, lam[j])) for i in range(1, d - 1) for j in range(d)]
        for a, b in combinations(range(d), 2):
            rows += [tuple(map(sub, _unit(d, (0, lam[a]), (d - 1, lam[b])), rho)),
                     tuple(map(sub, _unit(d, (0, lam[b]), (d - 1, lam[a])), rho))]
        return _Columns(zip(*rows), self.den)

    def unipotent_terms(
        self, Rplus_xi0: Sequence[Sequence[Fraction]], z0: Sequence[float], half_dim: int
    ) -> tuple[list, _Columns, int]:
        """The unipotent sum as ``coset_terms`` gives a singular one: w has conj(<w.lam, z0>)^half_dim
        (a float dot) times prod_{a in R+(xi0)} s <w.lam, a>, an integer, with scale s^|R+(xi0)|."""
        if any(len(a) != self.rs.dim for a in Rplus_xi0):
            raise ValueError(f"each vector to pair with lambda needs dim t = {self.rs.dim} coordinates")
        vectors, den = _ints(Rplus_xi0)
        coeffs: list = [1] * len(self.signs)
        for a in vectors:
            coeffs = list(map(mul, self.pairing_column(a), coeffs))
        if half_dim:
            z = _combine(z0, self.columns.floats)
            coeffs = [complex(v).conjugate() ** half_dim * c for v, c in zip(z, coeffs)]
        return coeffs, self.columns, (self.den * den) ** len(vectors)

    def unipotent_sum(
        self, eta: TorusElement, Rplus_xi0: Sequence[Sequence[Fraction]], z0: Sequence[float], half_dim: int
    ) -> complex:
        """sum_{w in W(k,t)} conj(<w.lam, z0>)^half_dim prod_{a in R+(xi0)} <w.lam, a> e^{w.lam}(eta)."""
        return _Torus(eta.angles, self.den, self.rs.dim).sum(*self.unipotent_terms(Rplus_xi0, z0, half_dim))


def hc_parameter(rs: RootSystem, mu: Weight) -> HCParameter:
    """The HC parameter of the weight mu: lambda = mu + rho_k, which must be
    strictly dominant for the compact roots and, unless singular, dominant."""
    return HCParameter(rs, mu + rs.rho_k)


class TorusElement(NamedTuple):
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


class _NoncompactCartanFields(NamedTuple):
    compact_angles: tuple[Angle, ...]
    log_a: float
    chamber: Chamber


class NoncompactCartanElement(Checked, _NoncompactCartanFields):
    """h = m a with m given by compact angles and a by the split coordinate."""

    __slots__ = ()

    def _check(self) -> None:
        if _chamber(self.log_a) is not self.chamber:
            raise ValueError(f"chamber {self.chamber.value} requires log_a {_LOG_A_SIGN[self.chamber]}")

    @staticmethod
    def from_log_a(compact_angles: Sequence[Angle], log_a: float) -> "NoncompactCartanElement":
        return NoncompactCartanElement(tuple(compact_angles), float(log_a), _chamber(log_a))


class CharacterValue(NamedTuple):
    value: complex


def weyl_denominator_T(rs: RootSystem, t: TorusElement) -> complex:
    """prod over R+(g,t) of (e^{b/2} - e^{-b/2})(t): 0 at an integer half-root turn, ulps at a half-integer."""
    halves = _Columns(zip(*[[c.numerator for c in r.coords] for r in rs.positive]), 2)  # b/2
    return math.prod((e - 1 / e for e in _Torus(t.angles, 2, rs.dim).phases(halves)), start=1.0 + 0.0j)


def ds_character_Treg(rs: RootSystem, lam: HCParameter, t: TorusElement) -> CharacterValue:
    """sum_{W_k} det(w) e^{w.lam}(t) / Delta_T(t) at regular t: no root phase is one, exactly or to UNITY_TOL."""
    torus = _Torus(t.angles, lam.den, rs.dim)
    if None in map(torus.phase_unless_one, torus.turns(lam.rho_roots)[1:]):
        raise ValueError("singular torus element; use elliptic_orbital_term")
    return CharacterValue(value=torus.sum(lam.signs, lam.columns) / weyl_denominator_T(rs, t))


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
    x = torus.phases(lam.numerator_columns)
    family, d = rs.descriptor.family, len(lam._row)
    if family is Family.SU:
        return _minors(x, d - 1)[-1]
    n = d if family is Family.SO else d - 1
    if family is Family.SP:
        return 2.0 ** (n + 1) * _i_power(n + 1, _minors([p.imag for p in x[:-1]], n)[-1] * x[-1].imag)
    return 2.0 ** (n - 1) * (_minors([p.real for p in x], n)[-1] + _i_power(n, _minors([p.imag for p in x], n)[-1]))


def elliptic_orbital_term(rs: RootSystem, lam: HCParameter, xi: TorusElement) -> complex:
    """Orbital value of the index kernel at an elliptic element, up to d_xi.

    Evaluates
        (-1)^{dim p / 2} sum_{w in W_{k_xi} \\ W_k} det(w)
            prod_{a in R+(xi)} <w.lam, a>  e^{w.lam}(xi)
          / ( e^{rho_g}(xi) prod_{b in R+ \\ R+(xi)} (1 - e^{-b}(xi)) )
    where R+(xi) collects the positive roots with e^a(xi) = 1.  For regular
    xi, where R+(xi) is empty, this is (-1)^{dim p/2} times the character
    at xi, and the numerator is a determinant (``_weyl_numerator``); at
    singular xi it is the coset sum of ``lam.coset_terms``.
    """
    torus = _Torus(xi.angles, lam.den, rs.dim)
    rho, *turns = torus.turns(lam.rho_roots)
    den, fixed = torus.phase(rho), []
    for i, p in enumerate(map(torus.phase_unless_one, turns)):
        if p is None:
            fixed.append(i)
        else:
            den *= 1 - 1 / p
    num = torus.sum(*lam.coset_terms(fixed)) if fixed else _weyl_numerator(rs, lam, torus)
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
    (rho_k,), rho_den = _ints([rs.rho_k.coords])
    compact = [[c.numerator for c in r.coords] for r in rs.positive_roots(RootKind.COMPACT)]
    num = math.prod(lam.pairings) * rho_den ** len(compact)
    den = lam.den ** (2 * len(lam.pairings))
    den *= math.prod(rs.form_scale * sum(map(mul, rho_k, a)) for a in compact)
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
    x = m.phases(lam.omega_columns)
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


def central_character(rs: RootSystem, lam: HCParameter, z: TorusElement) -> complex | None:
    """zeta_lam(z) = e^{lam - rho_g}(z) at central z, or None where it is 1: exactly, or to UNITY_TOL on floats."""
    torus = _Torus(z.angles, lam.den, rs.dim)
    if any(torus.phase_unless_one(x) is not None for x in torus.turns(lam.rho_roots)[1:]):
        raise ValueError("z is not central: a root is nontrivial on it")
    return torus.phase_unless_one(torus.turns(_Columns(zip(map(sub, lam._row, lam._rho)), lam.den))[0])
