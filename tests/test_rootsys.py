"""Root datum construction against an independent matrix-algebra oracle.

The oracle builds each complexified algebra as a space of concrete numpy
matrices, takes a generic element of the compact Cartan, reads the roots off
the ad-eigendecomposition, and classifies compact/noncompact by the Cartan
involution sign on each eigenvector.  Restricted multiplicities come from
pairing every root against a coroot built as [X, Y] from the eigenvectors,
so no normalization of the invariant form is assumed anywhere.
"""

from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from ranklef.chars import HCParameter, hc_parameter
from ranklef.rootsys import (
    Family,
    GroupDescriptor,
    RootKind,
    Weight,
    build_root_system,
    spinor_dims,
    weyl_group,
)
from reference import (
    act,
    all_roots,
    coroot_pairing,
    dense,
    dense_closure,
    identity,
    inner,
    is_integral,
    mat_mul,
    reflection_matrix,
    scale,
    simple_roots,
)

ALL_SMALL = [
    "su(1,1)", "su(2,1)", "su(3,1)",
    "so(2,1)", "so(4,1)", "so(6,1)",
    "sp(1,1)", "sp(2,1)", "sp(3,1)",
]
# every group the root builder serves, up to the bound dim t = 6
UP_TO_THE_BOUND = ALL_SMALL + [
    "su(4,1)", "su(5,1)", "so(8,1)", "so(10,1)", "so(12,1)", "sp(4,1)", "sp(5,1)",
]


# ---------------------------------------------------------------------------
# numeric oracle


def _sl_basis(m):
    basis = []
    for i in range(m):
        for j in range(m):
            if i != j:
                e = np.zeros((m, m), dtype=complex)
                e[i, j] = 1.0
                basis.append(e)
    for i in range(m - 1):
        e = np.zeros((m, m), dtype=complex)
        e[i, i], e[i + 1, i + 1] = 1.0, -1.0
        basis.append(e)
    return basis


def _so_basis(m):
    basis = []
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[i, j], e[j, i] = 1.0, -1.0
            basis.append(e)
    return basis


def _sp_basis(m):
    # blocks [[A, B], [C, -A^T]] with B, C symmetric
    basis = []
    for i in range(m):
        for j in range(m):
            e = np.zeros((2 * m, 2 * m), dtype=complex)
            e[i, j], e[m + j, m + i] = 1.0, -1.0
            basis.append(e)
    for i in range(m):
        for j in range(i, m):
            b = np.zeros((2 * m, 2 * m), dtype=complex)
            b[i, m + j] = b[j, m + i] = 1.0
            basis.append(b)
            c = np.zeros((2 * m, 2 * m), dtype=complex)
            c[m + i, j] = c[m + j, i] = 1.0
            basis.append(c)
    return basis


def _oracle_setup(desc: GroupDescriptor):
    """Return (basis, cartan_basis, involution) for the complexified algebra."""
    n = desc.n
    if desc.family is Family.SU:
        m = n + 1
        basis = _sl_basis(m)
        cartan = []
        for i in range(m - 1):
            h = np.zeros((m, m), dtype=complex)
            h[i, i], h[i + 1, i + 1] = 1.0, -1.0
            cartan.append(h)
        j = np.diag([1.0] * n + [-1.0]).astype(complex)
        theta = lambda x: j @ x @ j
    elif desc.family is Family.SO:
        m = 2 * n + 1
        basis = _so_basis(m)
        cartan = []
        for i in range(n):
            h = np.zeros((m, m), dtype=complex)
            h[2 * i, 2 * i + 1], h[2 * i + 1, 2 * i] = 1.0, -1.0
            cartan.append(h)
        j = np.diag([1.0] * (2 * n) + [-1.0]).astype(complex)
        theta = lambda x: j @ x @ j
    else:
        m = n + 1
        basis = _sp_basis(m)
        cartan = []
        for i in range(m):
            h = np.zeros((2 * m, 2 * m), dtype=complex)
            h[i, i], h[m + i, m + i] = 1.0, -1.0
            cartan.append(h)
        j = np.diag(([1.0] * n + [-1.0]) * 2).astype(complex)
        theta = lambda x: j @ x @ j
    return basis, cartan, theta


def _oracle_roots(desc: GroupDescriptor):
    """Roots as eigenvalue vectors over the Cartan basis, with theta signs."""
    basis, cartan, theta = _oracle_setup(desc)
    dim = len(basis)
    flat = np.stack([b.flatten() for b in basis], axis=1)
    coeffs = np.linalg.pinv(flat)
    rng = np.random.default_rng(12345)
    weights = rng.uniform(1.0, 2.0, size=len(cartan))
    h_generic = sum(w * h for w, h in zip(weights, cartan))
    ad = np.zeros((dim, dim), dtype=complex)
    for k, b in enumerate(basis):
        ad[:, k] = coeffs @ (h_generic @ b - b @ h_generic).flatten()
    evals, evecs = np.linalg.eig(ad)
    roots = []
    for k in range(dim):
        if abs(evals[k]) < 1e-8:
            continue
        vec = sum(c * b for c, b in zip(evecs[:, k], basis))
        coords = []
        for h in cartan:
            bracket = h @ vec - vec @ h
            # bracket = root(h) * vec on the root space
            idx = np.unravel_index(np.argmax(np.abs(vec)), vec.shape)
            coords.append(bracket[idx] / vec[idx])
        tv = theta(vec)
        ratio = tv[np.unravel_index(np.argmax(np.abs(vec)), vec.shape)] / vec[
            np.unravel_index(np.argmax(np.abs(vec)), vec.shape)
        ]
        assert abs(abs(ratio) - 1.0) < 1e-6
        kind = RootKind.COMPACT if abs(ratio - 1.0) < 1e-6 else RootKind.NONCOMPACT
        roots.append((np.array(coords), kind, vec))
    n_zero = dim - len(roots)
    assert n_zero == len(cartan), "Cartan must be maximal: equal rank"
    return roots


def _oracle_restricted_values(roots):
    """Multiset of coroot pairings against one noncompact root, via [X,Y]."""
    noncompact = [r for r in roots if r[1] is RootKind.NONCOMPACT]
    gamma0, _, x = noncompact[0]
    partner = min(
        (r for r in roots if np.allclose(r[0], -gamma0, atol=1e-6)),
        key=lambda r: 0,
    )
    y = partner[2]
    h = x @ y - y @ x
    # normalize so gamma0(h) = 2
    val = None
    rootspace = x
    bracket = h @ rootspace - rootspace @ h
    idx = np.unravel_index(np.argmax(np.abs(rootspace)), rootspace.shape)
    val = bracket[idx] / rootspace[idx]
    h = h * (2.0 / val)
    out = []
    for coords, kind, vec in roots:
        bracket = h @ vec - vec @ h
        idx = np.unravel_index(np.argmax(np.abs(vec)), vec.shape)
        out.append(complex(bracket[idx] / vec[idx]))
    return out


@pytest.mark.parametrize("name", UP_TO_THE_BOUND)
def test_root_datum_matches_matrix_oracle(name):
    desc = GroupDescriptor.from_name(name)
    rs = build_root_system(desc)
    oracle = _oracle_roots(desc)
    roots = all_roots(rs)
    assert len(oracle) == len(roots)
    n_cpt = sum(1 for r in oracle if r[1] is RootKind.COMPACT)
    n_ncpt = len(oracle) - n_cpt
    assert n_cpt == sum(1 for r in roots if r.kind is RootKind.COMPACT)
    assert n_ncpt == rs.dim_p
    values = _oracle_restricted_values(oracle)
    reals = [round(v.real) for v in values]
    assert all(abs(v - r) < 1e-6 for v, r in zip(values, reals))
    c1 = sum(1 for r in reals if r == 1)
    c2 = sum(1 for r in reals if r == 2)
    if desc.family is Family.SO:
        assert (rs.dim_n1, rs.dim_n2) == (c2, 0) and c1 == 0
    else:
        assert (rs.dim_n1, rs.dim_n2) == (c1, c2)


# ---------------------------------------------------------------------------
# spec examples and invariants


def test_su11_example():
    rs = build_root_system(GroupDescriptor.from_name("su(1,1)"))
    assert len(rs.positive_roots()) == 1
    assert rs.positive_roots()[0].kind is RootKind.NONCOMPACT
    assert all(c == 0 for c in rs.rho_k.coords)
    assert rs.dim_p == 2 and (rs.dim_n1, rs.dim_n2) == (0, 1)


def test_su21_example():
    rs = build_root_system(GroupDescriptor.from_name("su(2,1)"))
    pos = rs.positive_roots()
    assert len(pos) == 3
    assert sum(1 for r in pos if r.kind is RootKind.COMPACT) == 1
    assert rs.dim_p == 4 and (rs.dim_n1, rs.dim_n2) == (2, 1)


def test_so41_example():
    rs = build_root_system(GroupDescriptor.from_name("so(4,1)"))
    assert rs.dim_p == 4
    assert (rs.dim_n1, rs.dim_n2) == (3, 0)
    assert rs.dim == 2  # rank G = rank K = 2


def test_unequal_rank_rejected():
    with pytest.raises(ValueError):
        GroupDescriptor.from_name("so(5,1)")
    with pytest.raises(ValueError):
        GroupDescriptor.from_name("so(3,1)")


def test_sl2r_alias():
    assert GroupDescriptor.from_name("sl2r") == GroupDescriptor(Family.SU, 1)


@pytest.mark.parametrize("name", UP_TO_THE_BOUND)
def test_rho_identity_exact(name):
    rs = build_root_system(GroupDescriptor.from_name(name))
    assert rs.rho_g == rs.rho_k + rs.rho_p


@pytest.mark.parametrize("name", UP_TO_THE_BOUND)
def test_inner_normalization(name):
    rs = build_root_system(GroupDescriptor.from_name(name))
    norms = sorted({inner(rs, Weight(r.coords), Weight(r.coords)) for r in all_roots(rs)})
    assert norms[0] == 2
    assert all(coroot_pairing(rs.rho_g, a) == 1 for a in simple_roots(rs))


def test_inner_bilinearity_and_mismatch():
    rs = build_root_system(GroupDescriptor.from_name("su(2,1)"))
    zero = Weight((Fraction(0),) * 3)
    assert inner(rs, zero, rs.rho_g) == 0
    # the pairings of lambda with the roots do not truncate a weight of the
    # wrong length, short or long
    with pytest.raises(ValueError):
        HCParameter(rs, Weight((Fraction(1),)))
    sl2r = build_root_system(GroupDescriptor.from_name("sl2r"))
    with pytest.raises(ValueError):
        HCParameter(sl2r, Weight((Fraction(11, 2), Fraction(-11, 2), Fraction(99))))


def _expected_orders(name):
    return {
        "su(1,1)": (2, 1), "su(2,1)": (6, 2), "su(3,1)": (24, 6),
        "so(2,1)": (2, 1), "so(4,1)": (8, 4), "so(6,1)": (48, 24),
        "sp(1,1)": (8, 4), "sp(2,1)": (48, 16), "sp(3,1)": (384, 96),
        # at dim t = 6: S_6 and S_5; signed permutations of 6 coordinates and
        # the even-sign D_6; signed permutations and W(C_5) x W(C_1)
        "su(5,1)": (720, 120), "so(12,1)": (46080, 23040), "sp(5,1)": (46080, 7680),
    }[name]


@pytest.mark.parametrize("name", ALL_SMALL + ["su(5,1)", "so(12,1)", "sp(5,1)"])
def test_weyl_orders(name):
    rs = build_root_system(GroupDescriptor.from_name(name))
    full, compact = _expected_orders(name)
    assert len(weyl_group(rs, "full")) == full
    assert len(weyl_group(rs, "compact")) == compact
    # the cached group itself, not a copy per call
    assert weyl_group(rs, "full") is weyl_group(rs, "full")
    assert weyl_group(rs, "compact") is weyl_group(rs, "compact")


@pytest.mark.parametrize("name", ["su(2,1)", "so(4,1)", "sp(1,1)", "sp(2,1)"])
def test_weyl_closure_against_all_reflections(name):
    # Brute-force recomputation: closure over reflections in *all* positive
    # roots, not just the simple ones (s_{-a} = s_a covers the negatives).
    rs = build_root_system(GroupDescriptor.from_name(name))
    gens = [reflection_matrix(rs, r) for r in rs.positive_roots()]
    seen = {identity(rs.dim)}
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    group = weyl_group(rs, "full")
    assert {dense(w) for w in group} == seen


@pytest.mark.parametrize("name", ["su(2,1)", "sp(1,1)"])
def test_weyl_elements_permute_roots_and_multiply_signs(name):
    rs = build_root_system(GroupDescriptor.from_name(name))
    group = weyl_group(rs, "full")
    coords = {r.coords for r in all_roots(rs)}
    for w in group:
        assert {act(w, c) for c in coords} == coords
    for w1 in group[:6]:
        for w2 in group[:6]:
            prod = mat_mul(dense(w1), dense(w2))
            match = next(w for w in group if dense(w) == prod)
            assert match.sign == w1.sign * w2.sign


@pytest.mark.parametrize("name", ALL_SMALL)
def test_spinor_dims_equal_components(name):
    rs = build_root_system(GroupDescriptor.from_name(name))
    a, b = spinor_dims(rs)
    assert a == b == 2 ** (rs.dim_p // 2 - 1)


def test_spinor_dims_values():
    assert spinor_dims(build_root_system(GroupDescriptor.from_name("su(1,1)"))) == (1, 1)
    assert spinor_dims(build_root_system(GroupDescriptor.from_name("su(2,1)"))) == (2, 2)
    assert spinor_dims(build_root_system(GroupDescriptor.from_name("sp(1,1)"))) == (2, 2)


def test_classify_weight_su11():
    rs = build_root_system(GroupDescriptor.from_name("su(1,1)"))
    mu = Weight((Fraction(11, 2), Fraction(-11, 2)))
    assert hc_parameter(rs, mu).regular
    zero = Weight((Fraction(0), Fraction(0)))
    assert not hc_parameter(rs, zero).regular


def test_classify_weight_su21_witness_and_rejection():
    rs = build_root_system(GroupDescriptor.from_name("su(2,1)"))
    # lambda = rho_g is regular
    mu = rs.rho_g - rs.rho_k
    assert hc_parameter(rs, mu).regular
    # lambda = (1,0,0) is strictly k-dominant and kills the noncompact e2 - e3
    mu_sing = Weight((Fraction(1), Fraction(0), Fraction(0))) - rs.rho_k
    assert not hc_parameter(rs, mu_sing).regular
    # not k-dominant: rejected
    with pytest.raises(ValueError, match="not dominant for the compact positive system"):
        hc_parameter(rs, Weight((Fraction(-5), Fraction(0), Fraction(5))))


def test_regular_nondominant_rejected():
    rs = build_root_system(GroupDescriptor.from_name("su(1,1)"))
    with pytest.raises(ValueError, match="regular but not dominant"):
        hc_parameter(rs, Weight((Fraction(-3), Fraction(3))))


def test_weight_arithmetic_rejects_unequal_lengths():
    a = Weight((Fraction(1), Fraction(2)))
    b = Weight((Fraction(1), Fraction(2), Fraction(3)))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        b - a


def test_too_long_weight_is_rejected_not_truncated():
    rs = build_root_system(GroupDescriptor.from_name("sl2r"))
    mu = Weight((Fraction(11, 2), Fraction(-11, 2), Fraction(99)))
    with pytest.raises(ValueError):
        hc_parameter(rs, mu)
    with pytest.raises(ValueError):
        HCParameter(rs, mu)


@pytest.mark.parametrize("name", UP_TO_THE_BOUND)
def test_orbit_columns_follow_the_compact_group(name):
    """lambda's W(k,t) orbit holds, row for row, w.lambda over den with det w,
    in the order of ``weyl_group(rs, "compact")``, as the reference action gives it."""
    rs = build_root_system(GroupDescriptor.from_name(name))
    lam = hc_parameter(rs, rs.rho_g - rs.rho_k)
    group = weyl_group(rs, "compact")
    assert lam.signs == [w.sign for w in group]
    assert len(lam.columns) == rs.dim and all(type(x) is int for col in lam.columns for x in col)
    assert list(zip(*lam.columns)) == [tuple(c * lam.den for c in act(w, lam.lam.coords)) for w in group]


def test_weight_lattice_integrality():
    rs = build_root_system(GroupDescriptor.from_name("su(2,1)"))
    assert is_integral(rs, rs.rho_g)
    assert not is_integral(rs, scale(rs.rho_g, Fraction(1, 2)))


def test_closure_idempotent():
    rs = build_root_system(GroupDescriptor.from_name("so(4,1)"))
    group = weyl_group(rs, "full")
    mats = {dense(w) for w in group}
    assert {mat_mul(a, b) for a in mats for b in mats} == mats


WEYL_GROUPS = [
    "sl2r", "su(2,1)", "su(3,1)", "su(4,1)", "su(5,1)",
    "so(2,1)", "so(4,1)", "so(6,1)", "so(8,1)", "so(10,1)",
    "sp(1,1)", "sp(2,1)", "sp(3,1)", "sp(4,1)",
]


@pytest.mark.parametrize("sub", ["full", "compact"])
@pytest.mark.parametrize("name", WEYL_GROUPS)
def test_weyl_group_order_is_the_dense_order(name, sub):
    # (a) The elements and dets are the dense closure's, in any order.
    rs = build_root_system(GroupDescriptor.from_name(name))
    group = weyl_group(rs, sub)
    reference = dense_closure(rs, simple_roots(rs, compact_only=(sub == "compact")))
    assert sorted((dense(w), w.sign) for w in group) == sorted(reference.items())
    # (b) Downstream float sums follow the generation order: the permutations in
    # itertools order (the W(k,t) of su and sp fixes the last coordinate), each
    # followed by its sign vectors in product((1, -1)) order (su flips none, and
    # the W(k,t) of so flips evenly many).
    family, d = rs.descriptor.family, rs.dim
    fixes_last = sub == "compact" and family is not Family.SO
    perms = [p for p in permutations(range(d)) if not fixes_last or p[-1] == d - 1]
    signs = list(product((1, -1), repeat=d))
    if family is Family.SU:
        signs = [s for s in signs if -1 not in s]
    if sub == "compact" and family is Family.SO:
        signs = [s for s in signs if s.count(-1) % 2 == 0]
    assert [(w.perm, w.signs) for w in group] == [(p, s) for p in perms for s in signs]


def test_regularity_stable_on_dominance_preserving_orbit():
    # For regular lambda the only W_k element preserving strict k-dominance
    # is the identity (trivial stabilizer), so regularity is stable along
    # the dominance-preserving part of the compact orbit.
    rs = build_root_system(GroupDescriptor.from_name("su(2,1)"))
    mu = rs.rho_g - rs.rho_k
    assert hc_parameter(rs, mu).regular
    lam = mu + rs.rho_k
    preserving = []
    for w in weyl_group(rs, "compact"):
        moved = Weight(act(w, lam.coords))
        if all(
            inner(rs, moved, Weight(r.coords)) > 0
            for r in rs.positive_roots(RootKind.COMPACT)
        ):
            preserving.append(w)
            assert hc_parameter(rs, moved - rs.rho_k).regular
    assert len(preserving) == 1


def test_classify_weight_su21_mu_zero_pairings():
    # mu = 0 gives lambda = rho_k, which pairs negatively with one of the
    # three positive roots without vanishing: neither branch applies and the
    # input is rejected as non-dominant.
    rs = build_root_system(GroupDescriptor.from_name("su(2,1)"))
    zero = Weight((Fraction(0),) * 3)
    lam = rs.rho_k
    pairings = [inner(rs, lam, Weight(r.coords)) for r in rs.positive_roots()]
    assert sorted(pairings) == [Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
    with pytest.raises(ValueError, match="regular but not dominant"):
        hc_parameter(rs, zero)
