"""Lefschetz numbers of Hecke operators on rank-one locally symmetric spaces."""

from .rootsys import (
    Family,
    GroupDescriptor,
    Root,
    RootKind,
    RootSystem,
    Weight,
    WeylElement,
    build_root_system,
    inner,
    is_regular,
    spinor_dims,
    weyl_group,
)
from .chars import (
    Chamber,
    HCParameter,
    NoncompactCartanElement,
    TorusElement,
    c_sign,
    central_character,
    ds_character_Treg,
    elliptic_orbital_term,
    formal_degree,
    hc_parameter,
    omega,
    weyl_denominator_T,
)
from .epstein import ClassProgression, EpsteinSpec, LaurentConstant, hurwitz_zeta, zeta_constant_terms
from .lefschetz import (
    GeometricData,
    LefschetzBreakdown,
    assemble,
    central_term,
    elliptic_term,
    parabolic_I_term,
    parabolic_II_term,
    residue_term,
)
from .sl2 import (
    IntegerMatrix,
    OracleReport,
    build_geom_sl2z,
    compare,
    delta_coeffs,
    dim_cusp_forms,
    eichler_selberg,
    elliptic_classes,
    hecke_reps,
)

__version__ = "0.1.0"
