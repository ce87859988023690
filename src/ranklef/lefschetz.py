"""Assembly of the Lefschetz number from its four class contributions.

The geometric input is a plain data object (serializable as JSON): class
representatives with their volume weights, cusp constants, and optionally a
residue scalar for the singular branch.  There is deliberately no slot for
hyperbolic classes; their orbital contribution vanishes identically, so the
type cannot carry them.

A single positive ``calibration`` constant multiplies the central term; it
absorbs the Haar-measure and form normalizations left open upstream and is
frozen once on the weight-12 index datum of the SL(2,Z) preset.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import neg
from typing import NamedTuple

from .chars import (
    Chamber,
    HCParameter,
    NoncompactCartanElement,
    TorusElement,
    central_character,
    elliptic_orbital_term,
    formal_degree,
    hc_parameter,
    omega,
)
from .jsonin import Checked, Fields, angles, number
from .rootsys import RootSystem, Weight


class CentralClass(NamedTuple):
    tag: str
    z: TorusElement


class EllipticClass(NamedTuple):
    rep: TorusElement
    vol_quotient: float
    d_xi: float = 1.0


class _ParabolicIFields(NamedTuple):
    delta_flag: bool
    c_eta_plus: float
    c_eta_minus: float
    C_eta_plus: float
    C_eta_minus: float
    dim_n_eta1: int
    eta_torus: TorusElement
    Rplus_xi0: tuple[tuple[Fraction, ...], ...] = ()
    z0_pairing: tuple[float, ...] = ()


class ParabolicIData(Checked, _ParabolicIFields):
    __slots__ = ()

    def _check(self) -> None:
        if self.dim_n_eta1 % 2 != 0:
            raise ValueError(f"dim_n_eta1 must be even, not {self.dim_n_eta1}")


class ParabolicIIData(NamedTuple):
    vol_M: float
    det_Ad_n: float
    coset_index: int
    eta_H: NoncompactCartanElement


class GeometricData(NamedTuple):
    total_vol: float
    central_classes: tuple[CentralClass, ...] = ()
    elliptic_classes: tuple[EllipticClass, ...] = ()
    parabolic_I: tuple[ParabolicIData, ...] = ()
    parabolic_II: tuple[ParabolicIIData, ...] = ()
    residue_scalar: complex | None = None
    calibration: float = 1.0


class LefschetzBreakdown(NamedTuple):
    central: complex
    elliptic: complex
    parabolic_I: complex
    parabolic_II: complex
    residue: complex
    total: complex
    rounded: int
    rounding_defect: float
    branch: str


def central_term(rs: RootSystem, lam: HCParameter, geom: GeometricData) -> complex:
    """delta(mu, Xi) vol(Gamma\\G) d(lambda), scaled by the calibration unit.

    delta counts the central classes when the central character is 1 on every
    one of them (exactly at exact angles, to UNITY_TOL on the float path: where
    ``central_character`` gives None), and is zero otherwise; it is pinned to zero
    at a singular lambda, where the residue replaces it.  On either branch a z on
    which a root is nontrivial raises ValueError naming its entry.
    """
    characters = []
    for i, cc in enumerate(geom.central_classes):
        try:
            characters.append(central_character(rs, lam, cc.z))
        except ValueError as exc:
            raise ValueError(f"central_classes[{i}].{exc}") from None
    if not (lam.regular and characters and all(c is None for c in characters)):
        return 0.0
    return len(characters) * geom.total_vol * formal_degree(rs, lam) * geom.calibration


def elliptic_term(rs: RootSystem, lam: HCParameter, geom: GeometricData) -> complex:
    """sum vol_quotient / d_xi times the orbital term of each class.

    A class with a float angle whose inverse came earlier takes the conjugate
    of that term: the float path evaluates -q as the mirror image of q, bit
    for bit, and reads float(a), never a zero's sign, so the plain tuple keys
    the table.  Exact classes are evaluated each time: a turn at residue D/2
    is its own negative, so xi and xi^-1 both read e^{i pi} = -1 + 1.22e-16i.
    """
    total = 0.0 + 0.0j
    floats: dict[tuple, complex] = {}  # the evaluated float-path terms
    for cls in geom.elliptic_classes:
        angles = cls.rep.angles
        if float not in map(type, angles):
            term = elliptic_orbital_term(rs, lam, cls.rep)
        elif (inverse := floats.get(tuple(map(neg, angles)))) is not None:
            term = inverse.conjugate()
        else:
            term = floats[angles] = elliptic_orbital_term(rs, lam, cls.rep)
        total += (cls.vol_quotient / cls.d_xi) * term
    return total


def parabolic_I_term(rs: RootSystem, lam: HCParameter, geom: GeometricData) -> complex:
    """Unipotent contribution: cusp zeta constants against a W_k exponential sum.

    Entries with delta_flag unset contribute zero.  The overline on the
    Z0-pairing is complex conjugation; the W_k sum is ``lam.unipotent_sum``.
    """
    sign = (-1) ** (rs.dim_p // 2)
    total = 0.0 + 0.0j
    for entry in geom.parabolic_I:
        if not entry.delta_flag:
            continue
        pref = (
            entry.c_eta_plus * entry.C_eta_plus
            + entry.c_eta_minus * entry.C_eta_minus
        )
        wsum = lam.unipotent_sum(entry.eta_torus, entry.Rplus_xi0, entry.z0_pairing, entry.dim_n_eta1 // 2)
        total += pref * wsum
    return sign * total


def parabolic_II_term(rs: RootSystem, lam: HCParameter, geom: GeometricData) -> complex:
    """Weighted (cusp) contribution built from the Omega values on H.

    The invariant weighted distribution sees the expanding-chamber branch of
    Omega, so H_minus entries enter with the chamber sign folded in, and the
    Ad_n determinant enters with exponent +1/2 in this normalization (the
    radial growth factor that textbook statements keep inside Omega lives
    here instead).
    """
    sign = (-1) ** (rs.dim_p // 2 + 1)
    total = 0.0 + 0.0j
    for entry in geom.parabolic_II:
        om = omega(rs, lam, entry.eta_H)
        if entry.eta_H.chamber is Chamber.H_MINUS:
            om = -om
        total += entry.vol_M * math.sqrt(entry.det_Ad_n) * entry.coset_index * om
    return sign * 0.5 * total


def residue_term(geom: GeometricData) -> complex:
    if geom.residue_scalar is None:
        raise ValueError("singular mu requires residue data")
    return -0.5 * complex(geom.residue_scalar)


def _check_dims(rs: RootSystem, mu: Weight, geom: GeometricData) -> None:
    """mu, every torus element and every R+(xi0) root must have one entry per
    coordinate of t, and so must the Z0 pairing when n_{eta,1} is nonzero."""

    def check(v, unit: str, name: str, *index: int) -> None:
        if len(v) != rs.dim:  # the name is formatted only on error
            raise ValueError(f"{name % index} has {len(v)} {unit}; {rs.descriptor.name()} needs dim t = {rs.dim}")

    check(mu.coords, "coordinates", "mu")
    for i, c in enumerate(geom.central_classes):
        check(c.z.angles, "angles", "central_classes[%d].z", i)
    for i, c in enumerate(geom.elliptic_classes):
        check(c.rep.angles, "angles", "elliptic_classes[%d].rep", i)
    for i, p in enumerate(geom.parabolic_I):
        check(p.eta_torus.angles, "angles", "parabolic_I[%d].eta_torus", i)
        if p.dim_n_eta1 > 0:
            check(p.z0_pairing, "entries", "parabolic_I[%d].Z0_pairing", i)
        for j, r in enumerate(p.Rplus_xi0):
            check(r, "coordinates", "parabolic_I[%d].Rplus_xi0[%d]", i, j)
    for i, p in enumerate(geom.parabolic_II):
        check(p.eta_H.compact_angles, "angles", "parabolic_II[%d].eta_H.compact_angles", i)


def assemble(rs: RootSystem, mu: Weight, geom: GeometricData) -> LefschetzBreakdown:
    """Full Lefschetz number for the weight mu against the supplied geometry.

    Regular branch: central + elliptic + parabolic I + parabolic II.
    Singular branch: elliptic + parabolic I + residue; the central and
    weighted terms vanish identically there and are pinned to zero.
    """
    _check_dims(rs, mu, geom)
    lam = hc_parameter(rs, mu)
    cen = central_term(rs, lam, geom)  # on both branches, so that every z is checked
    ell = elliptic_term(rs, lam, geom)
    p1 = parabolic_I_term(rs, lam, geom)
    if lam.regular:
        p2 = parabolic_II_term(rs, lam, geom)
        res = 0.0 + 0.0j
        branch = "regular"
    else:
        p2 = 0.0 + 0.0j
        res = residue_term(geom)
        branch = "singular"
    total = cen + ell + p1 + p2 + res
    if not cmath.isfinite(total):
        raise ValueError(f"the total {total} is not finite")
    rounded = round(total.real)
    return LefschetzBreakdown(
        central=complex(cen),
        elliptic=complex(ell),
        parabolic_I=complex(p1),
        parabolic_II=complex(p2),
        residue=complex(res),
        total=complex(total),
        rounded=rounded,
        rounding_defect=abs(total - rounded),
        branch=branch,
    )


# ---------------------------------------------------------------------------
# Reading a geometry file


def geometry_from_dict(data: dict) -> GeometricData:
    """The geometry of a decoded JSON file.  A value of the wrong type or range,
    or an unknown key, raises ValueError naming it, e.g. ``elliptic_classes[0].d_xi``."""
    top = Fields(data, "", what="geometry")
    central = tuple(
        CentralClass(tag=c.string("tag", ""), z=TorusElement(c.angles("z")))
        for c in top.entries("central_classes")
    )
    elliptic = tuple(
        EllipticClass(
            rep=TorusElement(c.angles("rep")),
            vol_quotient=c.number("vol_quotient", positive=True),
            d_xi=c.number("d_xi", 1.0, positive=True),
        )
        for c in top.entries("elliptic_classes")
    )
    para1 = []
    for p in top.entries("parabolic_I"):
        kwargs = dict(
            delta_flag=p.boolean("delta_flag"),
            c_eta_plus=p.number("c_eta_plus", 0.0),
            c_eta_minus=p.number("c_eta_minus", 0.0),
            C_eta_plus=p.number("C_eta_plus", 0.0),
            C_eta_minus=p.number("C_eta_minus", 0.0),
            dim_n_eta1=p.integer("dim_n_eta1", 0, minimum=0),
            eta_torus=TorusElement(p.angles("eta_torus")),
            Rplus_xi0=tuple(tuple(Fraction(a) for a in angles(r, name)) for r, name in p.items("Rplus_xi0")),
            z0_pairing=tuple(number(x, name) for x, name in p.items("Z0_pairing")),
        )
        try:
            para1.append(ParabolicIData(**kwargs))
        except ValueError as exc:  # an odd dim_n_eta1, named by the message
            raise ValueError(f"{p.name}.{exc}") from None
    para2 = []
    for p in top.entries("parabolic_II"):
        eta = p.fields("eta_H")
        compact_angles, log_a = eta.angles("compact_angles"), eta.number("log_a")
        chamber = Chamber(eta.string("chamber", choices=tuple(c.value for c in Chamber)))
        try:
            eta_H = NoncompactCartanElement(compact_angles, log_a, chamber)
        except ValueError as exc:  # log_a on the wrong side of 0 for the chamber
            raise ValueError(f"{eta.name}: {exc}") from None
        para2.append(
            ParabolicIIData(
                vol_M=p.number("vol_M", positive=True),
                det_Ad_n=p.number("det_Ad_n", positive=True),
                coset_index=p.integer("coset_index", minimum=1),
                eta_H=eta_H,
            )
        )
    residue = None
    if top.get("residue_scalar", None) is not None:
        r = top.fields("residue_scalar")
        residue = complex(r.number("re"), r.number("im"))
    geom = GeometricData(
        total_vol=top.number("total_vol", positive=True),
        central_classes=central,
        elliptic_classes=elliptic,
        parabolic_I=tuple(para1),
        parabolic_II=tuple(para2),
        residue_scalar=residue,
        calibration=top.number("calibration", 1.0, positive=True),
    )
    top.reject_unknown()
    return geom
