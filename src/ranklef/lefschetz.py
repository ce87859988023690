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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

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
# JSON encoding of the geometry


def _angle_to_json(a: Fraction | float) -> Any:
    if isinstance(a, Fraction):
        return [a.numerator, a.denominator]
    return float(a)


def _angle_from_json(a: Any) -> Fraction | float:
    if isinstance(a, (list, tuple)):
        return Fraction(int(a[0]), int(a[1]))
    if isinstance(a, str):
        return Fraction(a)
    return float(a)


def _torus_to_json(t: TorusElement) -> list:
    return [_angle_to_json(a) for a in t.angles]


def _torus_from_json(data: Sequence[Any]) -> TorusElement:
    return TorusElement(tuple(_angle_from_json(a) for a in data))


def geometry_to_dict(geom: GeometricData) -> dict:
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


def geometry_from_dict(data: dict) -> GeometricData:
    if not isinstance(data, dict):
        raise ValueError(f"geometry must be a JSON object, not {type(data).__name__}")
    central = tuple(
        CentralClass(tag=str(c.get("tag", "")), z=_torus_from_json(c["z"]))
        for c in data.get("central_classes", [])
    )
    elliptic = tuple(
        EllipticClass(
            rep=_torus_from_json(c["rep"]),
            vol_quotient=float(c["vol_quotient"]),
            d_xi=float(c.get("d_xi", 1.0)),
        )
        for c in data.get("elliptic_classes", [])
    )
    para1 = tuple(
        ParabolicIData(
            delta_flag=bool(p["delta_flag"]),
            c_eta_plus=float(p.get("c_eta_plus", 0.0)),
            c_eta_minus=float(p.get("c_eta_minus", 0.0)),
            C_eta_plus=float(p.get("C_eta_plus", 0.0)),
            C_eta_minus=float(p.get("C_eta_minus", 0.0)),
            dim_n_eta1=int(p.get("dim_n_eta1", 0)),
            eta_torus=_torus_from_json(p["eta_torus"]),
            Rplus_xi0=tuple(
                tuple(Fraction(_angle_from_json(c)) for c in coords)
                for coords in p.get("Rplus_xi0", [])
            ),
            z0_pairing=tuple(float(x) for x in p.get("Z0_pairing", [])),
        )
        for p in data.get("parabolic_I", [])
    )
    para2 = tuple(
        ParabolicIIData(
            vol_M=float(p["vol_M"]),
            det_Ad_n=float(p["det_Ad_n"]),
            coset_index=int(p["coset_index"]),
            eta_H=NoncompactCartanElement(
                compact_angles=_torus_from_json(p["eta_H"]["compact_angles"]).angles,
                log_a=float(p["eta_H"]["log_a"]),
                chamber=Chamber(p["eta_H"]["chamber"]),
            ),
        )
        for p in data.get("parabolic_II", [])
    )
    residue = data.get("residue_scalar")
    if residue is not None:
        residue = complex(float(residue["re"]), float(residue["im"]))
    return GeometricData(
        total_vol=float(data["total_vol"]),
        central_classes=central,
        elliptic_classes=elliptic,
        parabolic_I=para1,
        parabolic_II=para2,
        residue_scalar=residue,
        calibration=float(data.get("calibration", 1.0)),
    )


def load_geometry(path: str) -> GeometricData:
    with open(path, "r", encoding="utf-8") as fh:
        return geometry_from_dict(json.load(fh))
