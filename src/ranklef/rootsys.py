"""Root systems, weight lattices and Weyl groups for the equal-rank rank-one families.

Everything here is exact: roots and weights are tuples of ``Fraction`` in the
standard epsilon-coordinates of the complexified algebra, and the invariant
form is a rational multiple of the coordinate dot product, normalized so the
short root has squared length 2.  A root system stores only its positive
roots R+(g,t); the negative roots -R+ are implied.  Supported families, with
R+ for i < j:

    su(n,1)   in R^{n+1}, R+ = e_i - e_j            (sl(2,R) is su(1,1))
    so(2n,1)  in R^n,     R+ = e_i +- e_j, e_i
    sp(n,1)   in R^{n+1}, R+ = e_i +- e_j, 2e_i     (sp(1) factor on e_{n+1})

so(2n+1,1) has unequal rank and is rejected at construction.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import prod
from typing import NamedTuple, Sequence

Vector = tuple[Fraction, ...]
# Largest dim t accepted: |W| grows factorially.  At the bound an so(12,1) assembly orbits lambda
# by 23040 elements of W(k,t), 15-19 ms to generate and 15-28 ms to build (Python 3.11, 2 vCPUs).
MAX_TORUS_DIM = 6


class Family(str, Enum):
    SU = "su"
    SO = "so"
    SP = "sp"


class RootKind(str, Enum):
    COMPACT = "compact"
    NONCOMPACT = "noncompact"


class GroupDescriptor(NamedTuple):
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


class Root(NamedTuple):
    coords: Vector
    kind: RootKind


class Weight(NamedTuple):
    coords: Vector

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))


class WeylElement(NamedTuple):
    """A Weyl element as the signed permutation it is in every supported
    family: coordinate i of w.x is ``signs[i] * x[perm[i]]``; ``sign`` is det w."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    sign: int


class RootSystem(NamedTuple):
    descriptor: GroupDescriptor
    positive: tuple[Root, ...]  # R+(g,t), in builder order; -R+ is implied
    rho_g: Weight
    rho_k: Weight
    rho_p: Weight
    dim_p: int
    dim_n1: int
    dim_n2: int
    form_scale: int
    beta0: Root  # first noncompact positive root (Cayley direction)

    @property
    def dim(self) -> int:
        return len(self.rho_g.coords)

    def positive_roots(self, kind: RootKind | None = None) -> list[Root]:
        return [r for r in self.positive if kind is None or r.kind is kind]


def _positive_roots(family: Family, dim: int) -> tuple[Root, ...]:
    """R+(g,t) in the order that fixes every float root sum downstream:
    e_i - e_j (su) or e_i + e_j, e_i - e_j (so, sp) for i < j, noncompact
    exactly when j is the last coordinate of su or sp; then the noncompact
    e_i (so) or the compact 2e_i (sp)."""

    def vec(*terms: tuple[int, int]) -> Vector:
        coords = [0] * dim
        for i, c in terms:
            coords[i] += c
        return tuple(map(Fraction, coords))

    signs = (-1,) if family is Family.SU else (1, -1)
    roots = []
    for i, j in combinations(range(dim), 2):
        noncompact = family is not Family.SO and j == dim - 1
        kind = RootKind.NONCOMPACT if noncompact else RootKind.COMPACT
        roots += [Root(vec((i, 1), (j, s)), kind) for s in signs]
    if family is Family.SO:
        roots += [Root(vec((i, 1)), RootKind.NONCOMPACT) for i in range(dim)]
    elif family is Family.SP:
        roots += [Root(vec((i, 2)), RootKind.COMPACT) for i in range(dim)]
    return tuple(roots)


def _half_sum(roots: Sequence[Root], dim: int) -> Weight:
    # root coordinates are integers, so each half sum is its numerators' over 2
    return Weight(tuple(Fraction(sum(r.coords[i].numerator for r in roots), 2) for i in range(dim)))


def build_root_system(desc: GroupDescriptor) -> RootSystem:
    """Construct the root datum of the descriptor's real form."""
    if desc.n < 1:
        raise ValueError("group parameter must be >= 1")
    dim = desc.n if desc.family is Family.SO else desc.n + 1
    if dim > MAX_TORUS_DIM:
        raise ValueError(f"{desc.name()} has dim t = {dim}, above the bound {MAX_TORUS_DIM}")
    positive = _positive_roots(desc.family, dim)
    pos_k = [r for r in positive if r.kind is RootKind.COMPACT]
    pos_p = [r for r in positive if r.kind is RootKind.NONCOMPACT]
    beta0 = pos_p[0]
    dim_p = 2 * len(pos_p)

    # Restricted multiplicities: <r, beta0_v> = 2 (r . beta0) / (beta0 . beta0)
    # on the integral coordinates, counted by |2 (r . beta0)| = norm or 2 norm;
    # a root and its negative pair to opposite values.
    b = [c.numerator for c in beta0.coords]
    norm = sum(x * x for x in b)
    pairings = [abs(2 * sum(c.numerator * x for c, x in zip(r.coords, b))) for r in positive]
    c1, c2 = pairings.count(norm), pairings.count(2 * norm)
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
        positive=positive,
        rho_g=_half_sum(positive, dim),
        rho_k=_half_sum(pos_k, dim),
        rho_p=_half_sum(pos_p, dim),
        dim_p=dim_p,
        dim_n1=dim_n1,
        dim_n2=dim_n2,
        form_scale=2 if desc.family is Family.SO else 1,
        beta0=beta0,
    )


def spinor_dims(rs: RootSystem) -> tuple[int, int]:
    """Dimensions of the two half-spinor modules; always equal."""
    half = 2 ** (rs.dim_p // 2 - 1)
    return (half, half)


@lru_cache(maxsize=None)
def _weyl_group_cached(family: Family, dim: int, sub: str) -> tuple[WeylElement, ...]:
    # W(g,t): S_{n+1} for su, every signed permutation for so and sp.  W(k,t) permutes
    # only the first dim - 1 coordinates for su and sp, and flips evenly many signs for
    # so.  The first `free` signs are free, and each later one is their product.
    compact = sub == "compact"
    moving = dim - 1 if compact and family is not Family.SO else dim
    free = 0 if family is Family.SU else dim - 1 if compact and family is Family.SO else dim
    all_signs = [s + (prod(s),) * (dim - free) for s in product((1, -1), repeat=free)]
    elements = []
    for perm in (p + tuple(range(moving, dim)) for p in permutations(range(moving))):
        parity = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        elements += [WeylElement(perm, signs, parity * prod(signs)) for signs in all_signs]
    return tuple(elements)


def weyl_group(rs: RootSystem, sub: str = "full") -> tuple[WeylElement, ...]:
    """Enumerate the Weyl group as signed permutations.

    ``sub`` is "full" for W(g,t) or "compact" for W(k,t), the subgroup generated
    by reflections in compact roots.  Elements carry their dets and come in
    generation order: permutations in ``itertools.permutations`` order, each
    followed by its sign vectors in ``product((1, -1))`` order.  The group is
    cached per (family, dim t), on which alone it depends: every call returns one tuple.
    """
    if sub not in ("full", "compact"):
        raise ValueError("sub must be 'full' or 'compact'")
    return _weyl_group_cached(rs.descriptor.family, rs.dim, sub)
