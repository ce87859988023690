"""The float terms of ``chars`` against their stated error budgets.

``chars`` takes the elliptic term at a regular class and Omega as
determinants of phases, not as Weyl orbit sums, and adds the other orbit
sums per residue.  Each such term must lie within its stated budget (see
"Error budgets" in ``reference``) of the same sum taken over the whole
orbit at 50 digits: on the ``rank1-cli`` benchmark inputs of seeds 1-3 (the
orbit sums on seed 1) and on the SL(2,Z) preset.  At MAX_TORUS_DIM, where a
50-digit orbit is too long, the determinants are held to the float orbit
sums within both budgets.  The wide geometries are covered in
``test_weyl_tables``.
"""

import functools
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from ranklef.chars import (
    NoncompactCartanElement,
    TorusElement,
    ds_character_Treg,
    elliptic_orbital_term,
    hc_parameter,
    omega,
)
from ranklef.lefschetz import elliptic_term, geometry_from_dict, parabolic_I_term
from ranklef.rootsys import GroupDescriptor, Weight, build_root_system, weyl_group
from ranklef.sl2 import MATCH_TOL, build_geom_sl2z, mu_from_weight, sl2_root_system
from reference import (
    character_budget,
    elliptic_budget,
    float_omega_budget,
    float_omega_orbit,
    mp_numerator,
    mp_numerator_by_det,
    omega_budget,
    scale,
)
from test_weyl_tables import (
    _torus,
    assert_moved_terms_within_budget,
    ref_elliptic_term,
    ref_parabolic_I_term,
    ref_vanishing_roots,
    singular_part,
    within,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import RANK1_GROUPS, Rank1Cli  # noqa: E402  (imports no ranklef code)


def _rs(name):
    return build_root_system(GroupDescriptor.from_name(name))


@pytest.mark.parametrize("name", ["sl2r", "su(2,1)", "su(3,1)", "so(2,1)", "so(6,1)", "sp(1,1)", "sp(2,1)"])
def test_the_numerator_is_weyls_determinant(name):
    """Weyl's formula in determinant form, by mpmath's own determinant,
    against the orbit sum, both at 50 digits: the identity that ``chars``
    evaluates, checked apart from its float code."""
    rs = _rs(name)
    rng = random.Random(name)
    for mu in (rs.rho_g - rs.rho_k, scale(rs.rho_g - rs.rho_k, Fraction(5, 3))):
        lam = hc_parameter(rs, mu)
        for exact in (True, False, False):
            t = _torus(rng, rs, exact)
            with mpmath.workdps(50):
                assert abs(mp_numerator_by_det(rs, lam, t) - mp_numerator(rs, lam, t)) < mpmath.mpf(10) ** -40


@functools.lru_cache(maxsize=None)
def _rank1_inputs(seed):
    """(group, mu, geometry) for every request of the ``rank1-cli`` round of ``seed``."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for req in Rank1Cli().make_inputs(random.Random(seed), Path(tmp)):
            geom = geometry_from_dict(json.loads(Path(req.geom_path).read_text(encoding="utf-8")))
            out.append((req.group, req.mu, geom))
    return tuple(out)


@pytest.mark.parametrize("name", RANK1_GROUPS)
def test_moved_terms_within_budget_on_the_rank1_cli_inputs(name):
    """The determinant terms, and on seed 1 the orbit sums added per residue:
    the elliptic term over the singular classes and the parabolic I term
    (their residue tables are checked in ``test_weyl_tables``)."""
    rs = _rs(name)
    checked = 0
    for seed in (1, 2, 3):
        for group, mu, geom in _rank1_inputs(seed):
            if group == name:
                lam = hc_parameter(rs, Weight(mu))
                moved, unbounded = assert_moved_terms_within_budget(rs, lam, geom)
                assert unbounded == 0
                checked += moved
                if seed == 1:
                    singular = singular_part(rs, geom)
                    value, budget, unbounded = ref_elliptic_term(rs, lam, singular, tables=False)
                    assert within(elliptic_term(rs, lam, singular), value, budget) and unbounded == 0
                    assert within(parabolic_I_term(rs, lam, geom), *ref_parabolic_I_term(rs, lam, geom, tables=False))
                    checked += len(singular.elliptic_classes)
    assert checked > 0


def _sl2z_budget(rs, lam, geom):
    """The summed budget of the moved terms of one preset assembly: each
    elliptic budget times its weight, each Omega budget times its prefactor."""
    total = mpmath.mpf(0)
    for cls in geom.elliptic_classes:
        total += cls.vol_quotient / cls.d_xi * elliptic_budget(rs, lam, cls.rep)
    for entry in geom.parabolic_II:
        total += 0.5 * entry.vol_M * math.sqrt(entry.det_Ad_n) * entry.coset_index * omega_budget(rs, lam, entry.eta_H)
    return total


@pytest.mark.parametrize("k", [12, 24, 40])
def test_sl2z_moved_terms_within_budget_and_far_below_the_match_tolerance(k):
    """Every elliptic class of the preset is regular, so each elliptic term and
    each Omega is a determinant; their summed budgets stay far below
    MATCH_TOL, so an oracle match does not depend on the new rounding."""
    rs, lam = sl2_root_system(), hc_parameter(sl2_root_system(), mu_from_weight(k))
    worst = 0
    for n in range(1, 31):
        geom = build_geom_sl2z(n)
        assert all(not ref_vanishing_roots(rs, c.rep) for c in geom.elliptic_classes)
        moved = len(geom.elliptic_classes) + len(geom.parabolic_II)
        assert assert_moved_terms_within_budget(rs, lam, geom) == (moved, 0)
        worst = max(worst, _sl2z_budget(rs, lam, geom))
    assert worst < 1e-4 * MATCH_TOL, worst


# ---------------------------------------------------------------------------
# MAX_TORUS_DIM: the determinants against the float orbit sums


def _exact_regular(rng, rs):
    """A seeded regular element with angles in (1/97) Z; su keeps coordinate sum 0."""
    while True:
        q = [Fraction(rng.randrange(1, 97), 97) for _ in range(rs.dim)]
        if rs.descriptor.family.value == "su":
            q[-1] = -sum(q[:-1])
        t = TorusElement(tuple(q))
        if not ref_vanishing_roots(rs, t):
            return t


@pytest.mark.parametrize("name", ["so(12,1)", "su(5,1)", "sp(5,1)"])
def test_determinants_match_the_float_orbits_at_max_torus_dim(name):
    rs = _rs(name)
    rng = random.Random(f"max {name}")
    lam = hc_parameter(rs, rs.rho_g - rs.rho_k)
    sign = (-1) ** (rs.dim_p // 2)
    classes = [_torus(rng, rs, False), _torus(rng, rs, False), _exact_regular(rng, rs)]
    for t in classes:
        with mpmath.workdps(50):
            N = mp_numerator_by_det(rs, lam, t)
        error = abs(elliptic_orbital_term(rs, lam, t) - sign * ds_character_Treg(rs, lam, t).value)
        budget = elliptic_budget(rs, lam, t, N) + character_budget(rs, lam, t, N)
        assert error <= budget, (t, error, budget)
    group = weyl_group(rs, "full")
    for log_a, exact in ((0.7, True), (-0.4, False), (0.0, True)):
        h = NoncompactCartanElement.from_log_a(_torus(rng, rs, exact).angles, log_a)
        value, weight = float_omega_orbit(rs, lam, h, group)
        error = abs(omega(rs, lam, h) - value)
        budget = omega_budget(rs, lam, h) + float_omega_budget(rs, lam, h, group, weight)
        assert error <= budget, (h, error, budget)
