"""Test-only reference code, kept apart from the package it checks.

* Dense Weyl matrices.  ``ranklef.rootsys`` stores a Weyl element as a signed
  permutation; the tests recompute the groups here as dense matrices of exact
  entries, built from reflections e_i -> e_i - <e_i, alpha_v> alpha and
  multiplied entry by entry, so they share no product or closure code with
  the package.  Integral entries are kept as ints, which multiply far faster
  than Fractions.
* ``geometry_to_dict``, the inverse of ``lefschetz.geometry_from_dict``.
* 2x2 integer matrix products and adjugates, and weight-lattice membership.
"""

from fractions import Fraction

from ranklef.chars import TorusElement
from ranklef.rootsys import Weight, WeylElement, coroot_pairing
from ranklef.sl2 import IntegerMatrix

# ---------------------------------------------------------------------------
# Dense Weyl matrices


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _exact(x):
    return x.numerator if x.denominator == 1 else x


def reflection_matrix(rs, alpha):
    """The matrix of s_alpha: column i is s_alpha(e_i) = e_i - <e_i, alpha_v> alpha."""
    dim = rs.dim
    cols = []
    for e in identity(dim):
        c = Fraction(2 * sum(x * a for x, a in zip(e, alpha.coords)), sum(a * a for a in alpha.coords))
        cols.append(tuple(_exact(e[j] - c * alpha.coords[j]) for j in range(dim)))
    return tuple(zip(*cols))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def dense(w):
    """The matrix of a signed permutation, given as a WeylElement or as a
    (perm, signs) pair: row i holds signs[i] in column perm[i]."""
    perm, signs = (w.perm, w.signs) if isinstance(w, WeylElement) else w
    return tuple(tuple(s if j == p else 0 for j in range(len(perm))) for p, s in zip(perm, signs))


def dense_apply(m, weight):
    return Weight(tuple(sum(x * c for x, c in zip(row, weight.coords)) for row in m))


def dense_closure(rs, roots):
    """The group generated by the reflections in ``roots`` as matrix -> det,
    the determinant being (-1)^(length of the word that first reached it)."""
    gens = [reflection_matrix(rs, r) for r in roots]
    ident = identity(rs.dim)
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen[prod] = -seen[m]
                    new.append(prod)
        frontier = new
    return seen


# ---------------------------------------------------------------------------
# Geometry to JSON


def _angle_to_json(a):
    if isinstance(a, Fraction):
        return [a.numerator, a.denominator]
    return float(a)


def _torus_to_json(t):
    return [_angle_to_json(a) for a in t.angles]


def geometry_to_dict(geom):
    residue = None if geom.residue_scalar is None else complex(geom.residue_scalar)
    return {
        "total_vol": geom.total_vol,
        "central_classes": [
            {"tag": c.tag, "z": _torus_to_json(c.z)} for c in geom.central_classes
        ],
        "elliptic_classes": [
            {
                "rep": _torus_to_json(c.rep),
                "vol_quotient": c.vol_quotient,
                "d_xi": c.d_xi,
            }
            for c in geom.elliptic_classes
        ],
        "parabolic_I": [
            {
                "delta_flag": p.delta_flag,
                "c_eta_plus": p.c_eta_plus,
                "c_eta_minus": p.c_eta_minus,
                "C_eta_plus": p.C_eta_plus,
                "C_eta_minus": p.C_eta_minus,
                "dim_n_eta1": p.dim_n_eta1,
                "eta_torus": _torus_to_json(p.eta_torus),
                "Rplus_xi0": [[_angle_to_json(c) for c in coords] for coords in p.Rplus_xi0],
                "Z0_pairing": list(p.z0_pairing),
            }
            for p in geom.parabolic_I
        ],
        "parabolic_II": [
            {
                "vol_M": p.vol_M,
                "det_Ad_n": p.det_Ad_n,
                "coset_index": p.coset_index,
                "eta_H": {
                    "compact_angles": _torus_to_json(TorusElement(p.eta_H.compact_angles)),
                    "log_a": p.eta_H.log_a,
                    "chamber": p.eta_H.chamber.value,
                },
            }
            for p in geom.parabolic_II
        ],
        "residue_scalar": (
            None if residue is None else {"im": residue.imag, "re": residue.real}
        ),
        "calibration": geom.calibration,
    }


# ---------------------------------------------------------------------------
# Integer matrices and the weight lattice


def int_mat_mul(x, y):
    return IntegerMatrix(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def adjugate(m):
    return IntegerMatrix(m.d, -m.b, -m.c, m.a)


def is_integral(rs, mu):
    """Membership test for the weight lattice: all coroot pairings integral."""
    return all(
        coroot_pairing(rs, mu, r).denominator == 1
        for r, p in zip(rs.roots, rs.positive)
        if p
    )
