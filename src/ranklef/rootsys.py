"""Root systems, weight lattices and Weyl groups for the equal-rank rank-one families.

Everything here is exact: roots and weights are tuples of ``Fraction`` in the
standard epsilon-coordinates of the complexified algebra, and the invariant
form is a rational multiple of the coordinate dot product, normalized so the
short root has squared length 2.  Supported families:

    su(n,1)   in R^{n+1}, roots e_i - e_j            (sl(2,R) is su(1,1))
    so(2n,1)  in R^n,     roots +-e_i +-e_j, +-e_i
    sp(n,1)   in R^{n+1}, roots +-e_i +-e_j, +-2e_i  (sp(1) factor on e_{n+1})

so(2n+1,1) has unequal rank and is rejected at construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
# A signed permutation (perm, signs): coordinate i of w.x is signs[i] * x[perm[i]].
SignedPerm = tuple[tuple[int, ...], tuple[int, ...]]


class Family(str, Enum):
    SU = "su"
    SO = "so"
    SP = "sp"


class RootKind(str, Enum):
    COMPACT = "compact"
    NONCOMPACT = "noncompact"


@dataclass(frozen=True)
class GroupDescriptor:
    """One of su(n,1), so(2n,1), sp(n,1); ``n`` is the first parameter."""

    family: Family
    n: int

    def name(self) -> str:
        if self.family is Family.SO:
            return f"so({2 * self.n},1)"
        return f"{self.family.value}({self.n},1)"

    @staticmethod
    def from_name(name: str) -> "GroupDescriptor":
        text = name.strip().lower().replace(" ", "")
        if text in ("sl2r", "sl(2,r)"):
            return GroupDescriptor(Family.SU, 1)
        m = re.fullmatch(r"(su|so|sp)\((\d+),1\)", text)
        if not m:
            raise ValueError(f"unsupported group descriptor {name!r}")
        fam, first = m.group(1), int(m.group(2))
        if first < 1:
            raise ValueError(f"unsupported group descriptor {name!r}")
        if fam == "so":
            if first % 2 == 1:
                raise ValueError(
                    f"so({first},1) has unequal rank and is not supported"
                )
            return GroupDescriptor(Family.SO, first // 2)
        return GroupDescriptor(Family(fam), first)


@dataclass(frozen=True)
class Root:
    coords: Vector
    kind: RootKind


@dataclass(frozen=True)
class Weight:
    coords: Vector

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: Fraction | int) -> "Weight":
        return Weight(tuple(Fraction(c) * a for a in self.coords))


@dataclass(frozen=True)
class WeylElement:
    """A Weyl element as the signed permutation it is in every supported
    family: coordinate i of w.x is ``signs[i] * x[perm[i]]``; ``sign`` is det w."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    sign: int

    def apply(self, w: Weight) -> Weight:
        x = w.coords
        return Weight(tuple(x[j] if s == 1 else -x[j] for j, s in zip(self.perm, self.signs)))


@dataclass(frozen=True)
class RootSystem:
    descriptor: GroupDescriptor
    roots: tuple[Root, ...]
    positive: tuple[bool, ...]
    rho_g: Weight
    rho_k: Weight
    rho_p: Weight
    dim_p: int
    dim_n1: int
    dim_n2: int
    form_scale: int
    beta0: Root  # distinguished noncompact positive root (Cayley direction)

    @property
    def dim(self) -> int:
        return len(self.rho_g.coords)

    def positive_roots(self, kind: RootKind | None = None) -> list[Root]:
        out = []
        for root, pos in zip(self.roots, self.positive):
            if pos and (kind is None or root.kind is kind):
                out.append(root)
        return out


class Regularity(str, Enum):
    REGULAR = "regular"
    SINGULAR = "singular"


@dataclass(frozen=True)
class WeightClass:
    regularity: Regularity
    witness: Root | None = None


def _unit(dim: int, i: int, c: int = 1) -> Vector:
    return tuple(Fraction(c if j == i else 0) for j in range(dim))


def _vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def _half_sum(roots: Iterable[Root]) -> Weight:
    coords = None
    for r in roots:
        coords = r.coords if coords is None else _vadd(coords, r.coords)
    if coords is None:
        raise ValueError("empty root list")
    return Weight(tuple(c / 2 for c in coords))


def _su_roots(n: int) -> tuple[list[Root], list[bool], Root]:
    dim = n + 1
    roots, positive = [], []
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            coords = _vadd(_unit(dim, i), _vneg(_unit(dim, j)))
            kind = RootKind.COMPACT if (i < n and j < n) else RootKind.NONCOMPACT
            roots.append(Root(coords, kind))
            positive.append(i < j)
    beta0 = Root(_vadd(_unit(dim, 0), _vneg(_unit(dim, n))), RootKind.NONCOMPACT)
    return roots, positive, beta0


def _so_roots(n: int) -> tuple[list[Root], list[bool], Root]:
    roots, positive = [], []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    coords = _vadd(_unit(n, i, si), _unit(n, j, sj))
                    roots.append(Root(coords, RootKind.COMPACT))
                    positive.append(si == 1)
    for i in range(n):
        for s in (1, -1):
            roots.append(Root(_unit(n, i, s), RootKind.NONCOMPACT))
            positive.append(s == 1)
    beta0 = Root(_unit(n, 0), RootKind.NONCOMPACT)
    return roots, positive, beta0


def _sp_roots(n: int) -> tuple[list[Root], list[bool], Root]:
    # sp(n) factor on coordinates 0..n-1, sp(1) factor on coordinate n.
    dim = n + 1
    roots, positive = [], []
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1, -1):
                for sj in (1, -1):
                    coords = _vadd(_unit(dim, i, si), _unit(dim, j, sj))
                    kind = RootKind.NONCOMPACT if j == n else RootKind.COMPACT
                    roots.append(Root(coords, kind))
                    positive.append(si == 1)
    for i in range(dim):
        for s in (1, -1):
            roots.append(Root(_unit(dim, i, 2 * s), RootKind.COMPACT))
            positive.append(s == 1)
    beta0 = Root(_vadd(_unit(dim, 0), _unit(dim, n)), RootKind.NONCOMPACT)
    return roots, positive, beta0


def build_root_system(desc: GroupDescriptor) -> RootSystem:
    """Construct the full root datum of the descriptor's real form."""
    if desc.n < 1:
        raise ValueError("group parameter must be >= 1")
    if desc.family is Family.SU:
        roots, positive, beta0 = _su_roots(desc.n)
        form_scale = 1
    elif desc.family is Family.SO:
        roots, positive, beta0 = _so_roots(desc.n)
        form_scale = 2
    elif desc.family is Family.SP:
        roots, positive, beta0 = _sp_roots(desc.n)
        form_scale = 1
    else:  # pragma: no cover
        raise ValueError(f"unsupported family {desc.family}")

    roots_t = tuple(roots)
    positive_t = tuple(positive)
    pos_all = [r for r, p in zip(roots_t, positive_t) if p]
    pos_k = [r for r in pos_all if r.kind is RootKind.COMPACT]
    pos_p = [r for r in pos_all if r.kind is RootKind.NONCOMPACT]

    rho_g = _half_sum(pos_all)
    dim = len(rho_g.coords)
    zero = Weight(tuple(Fraction(0) for _ in range(dim)))
    rho_k = _half_sum(pos_k) if pos_k else zero
    rho_p = _half_sum(pos_p) if pos_p else zero
    dim_p = sum(1 for r in roots_t if r.kind is RootKind.NONCOMPACT)
    if dim_p % 2 != 0:
        raise ValueError("dim p must be even for an equal-rank form")

    # Restricted multiplicities: pair every root against the coroot of beta0.
    c1 = c2 = 0
    for r in roots_t:
        v = _coroot_pairing_raw(r.coords, beta0.coords)
        if v == 1:
            c1 += 1
        elif v == 2:
            c2 += 1
    if desc.family is Family.SO:
        if c1 != 0:
            raise AssertionError("so family must have a reduced restricted system")
        dim_n1, dim_n2 = c2, 0
    else:
        dim_n1, dim_n2 = c1, c2
    if dim_n1 + dim_n2 != dim_p - 1:
        raise AssertionError("restricted grading does not match dim n = dim p - 1")

    return RootSystem(
        descriptor=desc,
        roots=roots_t,
        positive=positive_t,
        rho_g=rho_g,
        rho_k=rho_k,
        rho_p=rho_p,
        dim_p=dim_p,
        dim_n1=dim_n1,
        dim_n2=dim_n2,
        form_scale=form_scale,
        beta0=beta0,
    )


def exact_dot(x: Sequence[Fraction | int], y: Sequence[Fraction | int]) -> Fraction:
    """Exact coordinate dot product, summed in integers and reduced once."""
    num, den = 0, 1
    for a, b in zip(x, y):
        n = a.numerator * b.numerator
        if n:
            d = a.denominator * b.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
    return Fraction(num, den)


def _coroot_pairing_raw(x: Vector, alpha: Vector) -> Fraction:
    # 2<x,a>/<a,a> is independent of the form scale, so the plain dot works.
    return 2 * exact_dot(x, alpha) / exact_dot(alpha, alpha)


def inner(rs: RootSystem, a: Weight, b: Weight) -> Fraction:
    """Invariant pairing on it*, normalized so the short root has norm^2 = 2."""
    if len(a.coords) != len(b.coords) or len(a.coords) != rs.dim:
        raise ValueError("dimension mismatch")
    return rs.form_scale * exact_dot(a.coords, b.coords)


def coroot_pairing(rs: RootSystem, mu: Weight, alpha: Root | Weight) -> Fraction:
    coords = alpha.coords
    return _coroot_pairing_raw(mu.coords, coords)


def classify_weight(rs: RootSystem, mu: Weight) -> WeightClass:
    """Regular/singular split of lambda = mu + rho_k against R+(g,t).

    Input must already be dominant for the compact positive system; a
    vanishing pairing is only reachable on a noncompact root, which is
    returned as the witness.
    """
    lam = mu + rs.rho_k
    for r in rs.positive_roots(RootKind.COMPACT):
        if inner(rs, lam, Weight(r.coords)) <= 0:
            raise ValueError("weight is not dominant for the compact positive system")
    for r in rs.positive_roots():
        if inner(rs, lam, Weight(r.coords)) == 0:
            return WeightClass(Regularity.SINGULAR, witness=r)
    for r in rs.positive_roots():
        if inner(rs, lam, Weight(r.coords)) < 0:
            raise ValueError(
                "lambda = mu + rho_k is regular but not dominant; "
                "present the dominant chamber representative"
            )
    return WeightClass(Regularity.REGULAR)


def spinor_dims(rs: RootSystem) -> tuple[int, int]:
    """Dimensions of the two half-spinor modules; always equal."""
    half = 2 ** (rs.dim_p // 2 - 1)
    return (half, half)


def _reflection(rs: RootSystem, alpha: Root) -> SignedPerm:
    """s_alpha as a signed permutation: s_alpha(e_i) = e_i - <e_i, alpha_v> alpha
    is s e_j for every supported family, so coordinate j of s_alpha.x is s x_i."""
    dim = rs.dim
    perm, signs = [0] * dim, [0] * dim
    for i in range(dim):
        c = _coroot_pairing_raw(_unit(dim, i), alpha.coords)
        image = [(k == i) - c * a for k, a in enumerate(alpha.coords)]
        (j,) = [k for k, x in enumerate(image) if x]
        perm[j], signs[j] = i, int(image[j])
    return tuple(perm), tuple(signs)


def compose(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """The signed permutation a.b: apply b, then a."""
    (pa, sa), (pb, sb) = a, b
    return tuple(pb[j] for j in pa), tuple(s * sb[j] for j, s in zip(pa, sa))


def simple_roots(rs: RootSystem, compact_only: bool = False) -> list[Root]:
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


def reflection_closure(rs: RootSystem, roots: Iterable[Root]) -> dict[SignedPerm, int]:
    """The group generated by the reflections in ``roots``, as signed permutation -> det."""
    gens = [_reflection(rs, r) for r in roots]
    ident = (tuple(range(rs.dim)), (1,) * rs.dim)
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = compose(g, m)
                if prod not in seen:
                    seen[prod] = -seen[m]
                    new.append(prod)
        frontier = new
    return seen


@lru_cache(maxsize=None)
def _weyl_group_cached(rs: RootSystem, sub: str) -> tuple[WeylElement, ...]:
    seen = reflection_closure(rs, simple_roots(rs, compact_only=(sub == "compact")))
    # The order of the dense matrices, row by row: a row with entry s in
    # column j sorts as s * (dim - j).  It fixes the float summation order
    # downstream and which coset rep comes first.
    dim = rs.dim
    order = sorted(seen, key=lambda m: [s * (dim - j) for j, s in zip(*m)])
    return tuple(WeylElement(perm, signs, seen[perm, signs]) for perm, signs in order)


def weyl_group(rs: RootSystem, sub: str = "full") -> list[WeylElement]:
    """Enumerate the Weyl group by closure of reflections.

    ``sub`` is "full" for W(g,t) or "compact" for the subgroup generated by
    reflections in compact roots.  Elements come back in a deterministic
    order (sorted by the entries of their matrices); the closure is cached
    per root system.
    """
    if sub not in ("full", "compact"):
        raise ValueError("sub must be 'full' or 'compact'")
    return list(_weyl_group_cached(rs, sub))
