"""Term-by-term assembler behaviour on synthetic geometries."""

import json
import math
from fractions import Fraction

import pytest

from ranklef.lefschetz import (
    CentralClass,
    EllipticClass,
    GeometricData,
    MissingResidueError,
    ParabolicIData,
    ParabolicIIData,
    assemble,
    central_term,
    elliptic_term,
    geometry_from_dict,
    parabolic_I_term,
    parabolic_II_term,
    residue_term,
)
from ranklef.chars import (
    Chamber,
    NoncompactCartanElement,
    TorusElement,
    ds_character_Treg,
    formal_degree,
    hc_parameter,
)
from ranklef.cli import json_default
from ranklef.rootsys import GroupDescriptor, Weight, build_root_system
from reference import geometry_to_dict

SL2 = build_root_system(GroupDescriptor.from_name("sl2r"))
SP11 = build_root_system(GroupDescriptor.from_name("sp(1,1)"))

MU12 = Weight((Fraction(11, 2), Fraction(-11, 2)))
MU11 = Weight((Fraction(5), Fraction(-5)))  # odd-weight dictionary point
MU_SING = Weight((Fraction(0), Fraction(0)))  # lambda = 0 kills the root

IDENTITY_Z = TorusElement((Fraction(0), Fraction(0)))
MINUS_Z = TorusElement((Fraction(1, 2), Fraction(-1, 2)))


def empty_geom(**kw) -> GeometricData:
    return GeometricData(total_vol=1.0, **kw)


def test_central_identity_only():
    lam = hc_parameter(SL2, MU12)
    geom = empty_geom(central_classes=(CentralClass("e", IDENTITY_Z),), calibration=2.0)
    want = 1.0 * formal_degree(SL2, lam) * 2.0
    assert abs(central_term(SL2, lam, geom) - want) < 1e-14


def test_central_vanishes_on_nontrivial_character():
    # odd classical weight: zeta(-I) = -1, so delta = 0
    lam = hc_parameter(SL2, MU11)
    geom = empty_geom(central_classes=(CentralClass("e", IDENTITY_Z), CentralClass("-e", MINUS_Z)))
    assert central_term(SL2, lam, geom) == 0.0


def test_central_counts_classes():
    lam = hc_parameter(SL2, MU12)
    geom = empty_geom(central_classes=(CentralClass("e", IDENTITY_Z), CentralClass("-e", MINUS_Z)))
    want = 2.0 * formal_degree(SL2, lam)
    assert abs(central_term(SL2, lam, geom) - want) < 1e-14


def test_elliptic_empty_and_single_class():
    lam = hc_parameter(SL2, MU12)
    assert elliptic_term(SL2, lam, empty_geom()) == 0
    rep = TorusElement.sl2(Fraction(1, 4))
    geom = empty_geom(elliptic_classes=(EllipticClass(rep, vol_quotient=0.25, d_xi=2.0),))
    theta = ds_character_Treg(SL2, lam, rep).value
    want = 0.25 / 2.0 * (-1) * theta
    assert abs(elliptic_term(SL2, lam, geom) - want) < 1e-14


def _para1_entry(**kw):
    defaults = dict(
        delta_flag=True,
        c_eta_plus=1.0,
        c_eta_minus=-1.0,
        C_eta_plus=0.7,
        C_eta_minus=0.7,
        dim_n_eta1=0,
        eta_torus=IDENTITY_Z,
        Rplus_xi0=(),
        z0_pairing=(-1.0, 1.0),
    )
    defaults.update(kw)
    return ParabolicIData(**defaults)


def test_parabolic_I_flag_and_prefactor():
    lam = hc_parameter(SL2, MU12)
    geom = empty_geom(parabolic_I=(_para1_entry(delta_flag=False),))
    assert parabolic_I_term(SL2, lam, geom) == 0
    # symmetric cusp constants cancel against c+ = -c-
    geom = empty_geom(parabolic_I=(_para1_entry(),))
    assert abs(parabolic_I_term(SL2, lam, geom)) < 1e-15
    # asymmetric constants survive: value is -(c+C+ + c-C-) * sum_w e^{w lam}(e)
    geom = empty_geom(parabolic_I=(_para1_entry(C_eta_minus=0.2),))
    want = -(1.0 * 0.7 + (-1.0) * 0.2) * 1.0
    assert abs(parabolic_I_term(SL2, lam, geom) - want) < 1e-14


def test_parabolic_I_rejects_odd_n1():
    lam = hc_parameter(SL2, MU12)
    geom = empty_geom(parabolic_I=(_para1_entry(dim_n_eta1=3),))
    with pytest.raises(ValueError):
        parabolic_I_term(SL2, lam, geom)


def test_parabolic_I_interpretation_switch():
    lam = hc_parameter(SL2, MU12)
    entry = _para1_entry(dim_n_eta1=2, z0_pairing=(0.5j, -0.5j))
    geom = empty_geom(parabolic_I=(entry,))
    a = parabolic_I_term(SL2, lam, geom, "conjugate")
    b = parabolic_I_term(SL2, lam, geom, "identity")
    assert abs(a - b.conjugate()) < 1e-12
    with pytest.raises(ValueError):
        parabolic_I_term(SL2, lam, geom, "both")


def test_parabolic_II_empty_and_identity_eta():
    lam = hc_parameter(SL2, MU12)
    assert parabolic_II_term(SL2, lam, empty_geom()) == 0
    # family with Omega(e) = 0: identity eta contributes nothing
    lam_sp = hc_parameter(SP11, SP11.rho_g - SP11.rho_k)
    h = NoncompactCartanElement.from_log_a(tuple(Fraction(0) for _ in range(SP11.dim)), 0.0)
    geom = empty_geom(parabolic_II=(ParabolicIIData(1.0, 1.0, 1, h),))
    assert abs(parabolic_II_term(SP11, lam_sp, geom)) < 1e-12


def test_parabolic_II_sl2_identity_value():
    # sl(2,R) exception: Omega(e) = -1, prefactor +1/2, vol 1/2, index 1
    lam = hc_parameter(SL2, MU12)
    h = NoncompactCartanElement.from_log_a((Fraction(0), Fraction(0)), 0.0)
    geom = empty_geom(parabolic_II=(ParabolicIIData(0.5, 1.0, 1, h),))
    assert abs(parabolic_II_term(SL2, lam, geom) - (-0.25)) < 1e-14


def test_residue_term_values():
    assert residue_term(empty_geom(residue_scalar=0.0)) == 0
    assert residue_term(empty_geom(residue_scalar=2.0)) == -1.0
    m = 5
    assert residue_term(empty_geom(residue_scalar=complex(m))) == -m / 2
    with pytest.raises(MissingResidueError):
        residue_term(empty_geom())


def test_assemble_l2_index_shape():
    # torsion-free cocompact: only the central class of the identity
    geom = empty_geom(central_classes=(CentralClass("e", IDENTITY_Z),), calibration=1.0)
    lam = hc_parameter(SL2, MU12)
    bd = assemble(SL2, MU12, geom)
    assert bd.branch == "regular"
    assert abs(bd.total - formal_degree(SL2, lam)) < 1e-14
    assert bd.residue == 0


def test_assemble_all_empty_is_zero():
    bd = assemble(SL2, MU12, empty_geom())
    assert bd.total == 0 and bd.rounded == 0 and bd.rounding_defect == 0


def test_assemble_singular_branch():
    geom = empty_geom(
        central_classes=(CentralClass("e", IDENTITY_Z),),
        parabolic_II=(
            ParabolicIIData(0.5, 1.0, 1, NoncompactCartanElement.from_log_a((Fraction(0), Fraction(0)), 0.0)),
        ),
        residue_scalar=2.0,
    )
    bd = assemble(SL2, MU_SING, geom)
    assert bd.branch == "singular"
    assert bd.central == 0 and bd.parabolic_II == 0
    assert bd.residue == -1.0
    assert abs(bd.total - (-1.0)) < 1e-14


def test_assemble_singular_requires_residue():
    with pytest.raises(MissingResidueError):
        assemble(SL2, MU_SING, empty_geom())


def test_assemble_regular_residue_identically_zero():
    geom = empty_geom(residue_scalar=7.0)  # present but unused in this branch
    bd = assemble(SL2, MU12, geom)
    assert bd.residue == 0


def test_assemble_additive_over_class_lists():
    rep = TorusElement.sl2(Fraction(1, 4))
    rep2 = TorusElement.sl2(Fraction(1, 3))
    h = NoncompactCartanElement.from_log_a((Fraction(0), Fraction(0)), math.log(2.0))
    g1 = empty_geom(
        central_classes=(CentralClass("e", IDENTITY_Z),),
        elliptic_classes=(EllipticClass(rep, 0.25),),
        parabolic_II=(ParabolicIIData(0.5, 2.0, 2, h),),
    )
    g2 = empty_geom(
        central_classes=(CentralClass("-e", MINUS_Z),),
        elliptic_classes=(EllipticClass(rep2, 1 / 6),),
        parabolic_II=(ParabolicIIData(0.5, 0.5, 1, NoncompactCartanElement.from_log_a((Fraction(0), Fraction(0)), -math.log(2.0))),),
    )
    merged = empty_geom(
        central_classes=g1.central_classes + g2.central_classes,
        elliptic_classes=g1.elliptic_classes + g2.elliptic_classes,
        parabolic_II=g1.parabolic_II + g2.parabolic_II,
    )
    parts = [assemble(SL2, MU12, g) for g in (g1, g2)]
    whole = assemble(SL2, MU12, merged)
    # central is not class-additive across the split because delta counts the
    # full class list; elliptic and parabolic II are
    assert abs(
        (whole.elliptic + whole.parabolic_II)
        - sum(p.elliptic + p.parabolic_II for p in parts)
    ) < 1e-12


def test_branch_exclusivity():
    regular = assemble(SL2, MU12, empty_geom(central_classes=(CentralClass("e", IDENTITY_Z),)))
    assert regular.central != 0 and regular.residue == 0
    singular = assemble(SL2, MU_SING, empty_geom(residue_scalar=1.0))
    assert singular.residue != 0 and singular.central == 0 and singular.parabolic_II == 0


def test_geometry_type_has_no_hyperbolic_slot():
    fields = set(GeometricData.__dataclass_fields__)
    assert fields == {
        "total_vol", "central_classes", "elliptic_classes",
        "parabolic_I", "parabolic_II", "residue_scalar", "calibration",
    }


def test_geometry_json_roundtrip():
    h = NoncompactCartanElement.from_log_a((Fraction(1, 2), Fraction(-1, 2)), -0.75)
    geom = empty_geom(
        central_classes=(CentralClass("e", IDENTITY_Z),),
        elliptic_classes=(EllipticClass(TorusElement.sl2(Fraction(1, 4)), 0.25, 1.0),),
        parabolic_I=(_para1_entry(Rplus_xi0=((Fraction(1), Fraction(-1)),)),),
        parabolic_II=(ParabolicIIData(0.5, 0.5, 3, h),),
        residue_scalar=1.5 + 0.25j,
        calibration=0.25,
    )
    data = json.loads(json.dumps(geometry_to_dict(geom), sort_keys=True))
    back = geometry_from_dict(data)
    assert geometry_to_dict(back) == geometry_to_dict(geom)
    assert back.parabolic_II[0].eta_H.chamber is Chamber.H_MINUS


def test_breakdown_dict_is_stable():
    bd = assemble(SL2, MU12, empty_geom(central_classes=(CentralClass("e", IDENTITY_Z),)))
    report = {**vars(bd), "provenance": {"source": "unit"}}
    a = json.dumps(report, default=json_default, sort_keys=True)
    b = json.dumps(report, default=json_default, sort_keys=True)
    assert a == b


def test_parabolic_I_su21_dual_interpretation_resummation():
    # su(2,1)-shaped cusp entry with a two-dimensional first layer: the Weyl
    # sum is cross-checked termwise against an independent re-summation for
    # both readings of the pairing overline, and the readings differ only by
    # conjugating that factor.
    from ranklef.chars import character_exp
    from ranklef.rootsys import Weight as W, inner as inner_form, weyl_group

    su21 = build_root_system(GroupDescriptor.from_name("su(2,1)"))
    mu = su21.rho_g - su21.rho_k
    lam = hc_parameter(su21, mu)  # lambda = rho_g
    eta = TorusElement((Fraction(1, 3), Fraction(0), Fraction(-1, 3)))
    z0 = (0.5 + 0.25j, -1.0 + 0.0j, 0.5 - 0.25j)
    xi0_roots = ((Fraction(1), Fraction(-1), Fraction(0)),)
    entry = ParabolicIData(
        delta_flag=True,
        c_eta_plus=1.0,
        c_eta_minus=-1.0,
        C_eta_plus=0.9,
        C_eta_minus=0.4,
        dim_n_eta1=2,
        eta_torus=eta,
        Rplus_xi0=xi0_roots,
        z0_pairing=z0,
    )
    geom = empty_geom(parabolic_I=(entry,))
    for interpretation in ("conjugate", "identity"):
        expected = 0.0 + 0.0j
        for w in weyl_group(su21, "compact"):
            wl = w.apply(lam.lam)
            pairing = sum(complex(float(c)) * p for c, p in zip(wl.coords, z0))
            if interpretation == "conjugate":
                pairing = pairing.conjugate()
            term = pairing  # exponent dim_n_eta1 / 2 = 1
            for coords in xi0_roots:
                term *= float(inner_form(su21, wl, W(coords)))
            term *= character_exp(wl, eta)
            expected += term
        expected *= (1.0 * 0.9 + (-1.0) * 0.4)  # c+C+ + c-C-
        expected *= (-1) ** (su21.dim_p // 2)
        got = parabolic_I_term(su21, lam, geom, interpretation)
        assert abs(got - expected) < 1e-12
    a = parabolic_I_term(su21, lam, geom, "conjugate")
    b = parabolic_I_term(su21, lam, geom, "identity")
    assert abs(a - b) > 1e-6  # the readings genuinely differ here
