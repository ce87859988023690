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
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .chars import (
    Chamber,
    HCParameter,
    NoncompactCartanElement,
    TorusElement,
    central_character,
    character_exp,
    compact_orbit,
    elliptic_orbital_term,
    formal_degree,
    hc_parameter,
    omega,
)
from .jsonin import Fields, angles, number
from .rootsys import Regularity, RootSystem, Weight, inner

CENTRAL_CHARACTER_TOL = 1e-9
DEFAULT_INTEGRALITY_TOL = 1e-6


class MissingResidueError(ValueError):
    pass


@dataclass(frozen=True)
class CentralClass:
    tag: str
    z: TorusElement


@dataclass(frozen=True)
class EllipticClass:
    rep: TorusElement
    vol_quotient: float
    d_xi: float = 1.0


@dataclass(frozen=True)
class ParabolicIData:
    delta_flag: bool
    c_eta_plus: float
    c_eta_minus: float
    C_eta_plus: float
    C_eta_minus: float
    dim_n_eta1: int
    eta_torus: TorusElement
    Rplus_xi0: tuple[tuple[Fraction, ...], ...] = ()
    z0_pairing: tuple[float, ...] = ()


@dataclass(frozen=True)
class ParabolicIIData:
    vol_M: float
    det_Ad_n: float
    coset_index: int
    eta_H: NoncompactCartanElement


@dataclass(frozen=True)
class GeometricData:
    total_vol: float
    central_classes: tuple[CentralClass, ...] = ()
    elliptic_classes: tuple[EllipticClass, ...] = ()
    parabolic_I: tuple[ParabolicIData, ...] = ()
    parabolic_II: tuple[ParabolicIIData, ...] = ()
    residue_scalar: complex | None = None
    calibration: float = 1.0


@dataclass(frozen=True)
class LefschetzBreakdown:
    central: complex
    elliptic: complex
    parabolic_I: complex
    parabolic_II: complex
    residue: complex
    total: complex
    rounded: int
    rounding_defect: float
    branch: str
    interpretation: str


def central_term(rs: RootSystem, lam: HCParameter, geom: GeometricData) -> complex:
    """delta(mu, Xi) vol(Gamma\\G) d(lambda), scaled by the calibration unit.

    delta counts the central classes when the central character is trivial
    on every one of them, and is zero otherwise.
    """
    if lam.regularity.regularity is not Regularity.REGULAR:
        raise ValueError("central term is defined only for regular parameters")
    if not geom.central_classes:
        return 0.0
    trivial = all(
        abs(central_character(rs, lam, cc.z) - 1.0) < CENTRAL_CHARACTER_TOL
        for cc in geom.central_classes
    )
    if not trivial:
        return 0.0
    delta = len(geom.central_classes)
    return delta * geom.total_vol * formal_degree(rs, lam) * geom.calibration


def elliptic_term(rs: RootSystem, lam: HCParameter, geom: GeometricData) -> complex:
    total = 0.0 + 0.0j
    for cls in geom.elliptic_classes:
        total += (cls.vol_quotient / cls.d_xi) * elliptic_orbital_term(rs, lam, cls.rep)
    return total


def parabolic_I_term(
    rs: RootSystem,
    lam: HCParameter,
    geom: GeometricData,
    interpretation: str = "conjugate",
) -> complex:
    """Unipotent contribution: cusp zeta constants against a W_k exponential sum.

    Entries with delta_flag unset contribute zero.  The overline on the
    Z0-pairing is interpreted per ``interpretation``: "conjugate" (complex
    conjugation) or "identity".
    """
    if interpretation not in ("conjugate", "identity"):
        raise ValueError("interpretation must be 'conjugate' or 'identity'")
    sign = (-1) ** (rs.dim_p // 2)
    total = 0.0 + 0.0j
    for entry in geom.parabolic_I:
        if not entry.delta_flag:
            continue
        if entry.dim_n_eta1 % 2 != 0:
            raise ValueError("dim n_{eta,1} must be even")
        half_dim = entry.dim_n_eta1 // 2
        pref = (
            entry.c_eta_plus * entry.C_eta_plus
            + entry.c_eta_minus * entry.C_eta_minus
        )
        wsum = 0.0 + 0.0j
        for _, wl in compact_orbit(rs, lam):
            term = 1.0 + 0.0j
            if half_dim:
                z = complex(sum(float(c) * p for c, p in zip(wl.coords, entry.z0_pairing)))
                if interpretation == "conjugate":
                    z = z.conjugate()
                term = z ** half_dim
            for coords in entry.Rplus_xi0:
                term *= float(inner(rs, wl, Weight(coords)))
            term *= character_exp(wl, entry.eta_torus)
            wsum += term
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
        raise MissingResidueError("singular mu requires residue data")
    return -0.5 * complex(geom.residue_scalar)


def _check_dims(rs: RootSystem, geom: GeometricData) -> None:
    """Every torus element must have one angle per coordinate of t, and so
    must every R+(xi0) root and, when n_{eta,1} is nonzero, the Z0 pairing."""
    vectors = [(f"central_classes[{i}].z", c.z.angles, "angles") for i, c in enumerate(geom.central_classes)]
    vectors += [
        (f"elliptic_classes[{i}].rep", c.rep.angles, "angles") for i, c in enumerate(geom.elliptic_classes)
    ]
    for i, p in enumerate(geom.parabolic_I):
        vectors.append((f"parabolic_I[{i}].eta_torus", p.eta_torus.angles, "angles"))
        if p.dim_n_eta1 > 0:
            vectors.append((f"parabolic_I[{i}].Z0_pairing", p.z0_pairing, "entries"))
        vectors += [(f"parabolic_I[{i}].Rplus_xi0[{j}]", r, "coordinates") for j, r in enumerate(p.Rplus_xi0)]
    vectors += [
        (f"parabolic_II[{i}].eta_H.compact_angles", p.eta_H.compact_angles, "angles")
        for i, p in enumerate(geom.parabolic_II)
    ]
    for name, vector, unit in vectors:
        if len(vector) != rs.dim:
            raise ValueError(
                f"{name} has {len(vector)} {unit}; {rs.descriptor.name()} needs dim t = {rs.dim}"
            )


def assemble(
    rs: RootSystem,
    mu: Weight,
    geom: GeometricData,
    interpretation: str = "conjugate",
) -> LefschetzBreakdown:
    """Full Lefschetz number for the weight mu against the supplied geometry.

    Regular branch: central + elliptic + parabolic I + parabolic II.
    Singular branch: elliptic + parabolic I + residue; the central and
    weighted terms vanish identically there and are pinned to zero.
    """
    _check_dims(rs, geom)
    lam = hc_parameter(rs, mu)
    ell = elliptic_term(rs, lam, geom)
    p1 = parabolic_I_term(rs, lam, geom, interpretation)
    if lam.regularity.regularity is Regularity.REGULAR:
        cen = central_term(rs, lam, geom)
        p2 = parabolic_II_term(rs, lam, geom)
        res = 0.0 + 0.0j
        branch = "regular"
    else:
        cen = 0.0 + 0.0j
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
        interpretation=interpretation,
    )


# ---------------------------------------------------------------------------
# Reading a geometry file


def geometry_from_dict(data: dict) -> GeometricData:
    """The geometry of a decoded JSON file.  A value of the wrong type or
    range raises ValueError naming it, e.g. ``elliptic_classes[0].d_xi``."""
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
    para1 = tuple(
        ParabolicIData(
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
        for p in top.entries("parabolic_I")
    )
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
    return GeometricData(
        total_vol=top.number("total_vol", positive=True),
        central_classes=central,
        elliptic_classes=elliptic,
        parabolic_I=para1,
        parabolic_II=tuple(para2),
        residue_scalar=residue,
        calibration=top.number("calibration", 1.0, positive=True),
    )


def load_geometry(path: str) -> GeometricData:
    with open(path, "r", encoding="utf-8") as fh:
        return geometry_from_dict(json.load(fh))
