"""The two benchmark workloads and the correctness checks that gate them.

Each workload is a closed loop with one client: the next request is issued
only after the previous one returned.  A request is timed from the call into
ranklef's public API to its return; clearing every cache before it and
checking its output happen outside that interval.  A run draws its
requests once from the seed; each round issues all of them in a new seeded
order.  The seed varies the inputs but not their sizes, so a run on any seed
measures the same amount of work.

Every request is checked against an oracle, an independent cross-check or a
known constant.  Checks that need one expensive reference computation per
distinct input run once per run in ``verify`` and mark every request with
that input as failed if they fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EULER_GAMMA = 0.57721566490153286061
# zeta(d) for the exponent bases the Epstein specs use; zeta(d, 1/2) = (2^d - 1) zeta(d)
ZETA = {2: math.pi**2 / 6, 3: 1.2020569031595942854, 4: math.pi**4 / 90}
# digamma at the two progression offsets the specs use
DIGAMMA = {1.0: -EULER_GAMMA, 0.5: -EULER_GAMMA - 2 * math.log(2)}
# tau(1..5), the first coefficients of the discriminant form
TAU_HEAD = (1, -24, 252, -1472, 4830)

REL_TOL = 1e-9


def _close(a: complex, b: complex, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class NotCold(RuntimeError):
    """A ranklef cache still held entries after every cache was cleared."""


def clear_caches(prog) -> None:
    prog.caches.clear()
    held = prog.caches.currsize()
    if held:
        raise NotCold(f"{held} cache entries survive clearing")


class Workload:
    """One set of inputs; subclasses define requests, calls and checks.
    Every cache is cleared before each request (see ``clear_caches``)."""

    name = ""

    def make_inputs(self, rng, workdir: Path) -> list:
        """The requests of one round, drawn once per run after set-up; input
        files go to ``workdir``."""
        raise NotImplementedError

    def key(self, req):
        return req

    def call(self, prog, req):
        raise NotImplementedError

    def check(self, prog, req, out) -> str | None:
        """An error message, or None when ``out`` is correct."""
        return None

    def verify(self, prog) -> dict:
        """Deferred checks: error message per failing request key."""
        return {}


class Compare(Workload):
    """One ``compare(k, n)`` per request with every cache cleared first, which
    is what one ``ranklef sl2 compare`` invocation pays.  A round takes each
    level n in [1, n_max] once, each with a seeded even weight k in [12, 40]."""

    def __init__(self, n_max: int = 14):
        self.n_max = n_max
        self.k12: dict[int, set[int]] = {}

    def make_inputs(self, rng, workdir: Path) -> list:
        return [(rng.randrange(12, 41, 2), n) for n in range(1, self.n_max + 1)]

    def call(self, prog, req):
        k, n = req
        return prog.sl2.compare(k, n)

    def check(self, prog, req, out) -> str | None:
        k, n = req
        if k == 12:
            self.k12.setdefault(n, set()).add(out.oracle_value)
        if not out.match:
            return f"compare({k}, {n}) misses the oracle by {out.defect:.3g}"
        return None

    def verify(self, prog) -> dict:
        if not self.k12:
            return {}
        tau = prog.sl2.delta_coeffs(max(self.k12))
        return {
            (12, n): f"tau({n}) = {tau[n - 1]} but the trace oracle gave {sorted(vals)}"
            for n, vals in self.k12.items()
            if vals != {tau[n - 1]}
        }


class OracleTable(Workload):
    """Verify a tau table against the Eichler-Selberg trace with cold caches.

    A round holds ``sizes`` table sizes N spread evenly over [lo, hi], each
    moved by a seeded offset of at most ``jitter``.  The cost of a request
    grows like N^1.6, so freely drawn sizes would make the work of a run
    depend on the seed."""

    def __init__(self, lo: int = 300, hi: int = 1000, sizes: int = 2, jitter: int = 5):
        self.lo, self.hi, self.sizes, self.jitter = lo, hi, sizes, jitter

    def make_inputs(self, rng, workdir: Path) -> list:
        step = (self.hi - self.lo) / self.sizes
        centers = [round(self.lo + (i + 0.5) * step) for i in range(self.sizes)]
        return [min(self.hi, max(self.lo, c + rng.randint(-self.jitter, self.jitter))) for c in centers]

    def call(self, prog, N):
        sl2 = prog.sl2
        tau = sl2.delta_coeffs(N)
        bad_n = [n for n in range(1, N + 1) if sl2.eichler_selberg(12, n) != tau[n - 1]]
        bad_k = [k for k in range(12, 41, 2) if sl2.eichler_selberg(k, 1) != sl2.dim_cusp_forms(k)]
        return tau, bad_n, bad_k

    def check(self, prog, N, out) -> str | None:
        tau, bad_n, bad_k = out
        if len(tau) != N or tuple(tau[: len(TAU_HEAD)]) != TAU_HEAD[: min(N, len(TAU_HEAD))]:
            return f"delta_coeffs({N}) does not start with {TAU_HEAD}"
        if bad_n:
            return f"Eichler-Selberg differs from tau at n = {bad_n[:5]}"
        if bad_k:
            return f"Eichler-Selberg at n = 1 differs from dim S_k at k = {bad_k}"
        return None


class Mix(Workload):
    """One workload whose rounds hold the requests of several parts."""

    def __init__(self, name: str, *parts: Workload):
        self.name, self.parts = name, parts

    def make_inputs(self, rng, workdir: Path) -> list:
        return [(i, req) for i, part in enumerate(self.parts) for req in part.make_inputs(rng, workdir)]

    def key(self, req):
        i, inner = req
        return i, self.parts[i].key(inner)

    def call(self, prog, req):
        i, inner = req
        return self.parts[i].call(prog, inner)

    def check(self, prog, req, out) -> str | None:
        i, inner = req
        return self.parts[i].check(prog, inner, out)

    def verify(self, prog) -> dict:
        return {(i, key): err for i, part in enumerate(self.parts) for key, err in part.verify(prog).items()}


def sl2z_cold(n_max: int = 14, table: OracleTable | None = None) -> Mix:
    """The SL(2,Z) preset and its classical oracles, cold: ``compare(k, n)``
    for each level n in [1, n_max] and a tau table per ``table`` size."""
    return Mix("sl2z-cold", Compare(n_max), table or OracleTable())


# ---------------------------------------------------------------------------
# rank-one CLI workload

RANK1_GROUPS = ("su(2,1)", "su(3,1)", "so(6,1)", "so(8,1)", "sp(2,1)", "sp(3,1)")
# finite-order angles: coincidences among them make many classes singular
RATIONAL_ANGLES = tuple(
    Fraction(p, q) for p, q in ((0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 6), (5, 6))
)


def _parse_group(group: str) -> tuple[str, int]:
    m = re.fullmatch(r"(su|so|sp)\((\d+),1\)", group)
    family, first = m.group(1), int(m.group(2))
    return family, (first // 2 if family == "so" else first)


def torus_dim(group: str) -> int:
    family, n = _parse_group(group)
    return n if family == "so" else n + 1


def weyl_orders(group: str) -> tuple[int, int]:
    """Closed-form |W(g,t)| and |W(k,t)| for su(n,1), so(2n,1), sp(n,1)."""
    family, n = _parse_group(group)
    f = math.factorial
    if family == "su":
        return f(n + 1), f(n)
    if family == "so":
        return 2**n * f(n), 2 ** (n - 1) * f(n)
    return 2 ** (n + 1) * f(n + 1), 2**n * f(n) * 2


def positive_roots(group: str) -> list[tuple[int, ...]]:
    """Positive roots up to sign in epsilon coordinates (used to keep float
    angles away from the singular set)."""
    family, n = _parse_group(group)
    dim = torus_dim(group)

    def vec(*pairs):
        v = [0] * dim
        for i, c in pairs:
            v[i] += c
        return tuple(v)

    if family == "su":
        return [vec((i, 1), (j, -1)) for i in range(dim) for j in range(i + 1, dim)]
    pairs = [vec((i, 1), (j, s)) for i in range(dim) for j in range(i + 1, dim) for s in (1, -1)]
    return pairs + [vec((i, 1 if family == "so" else 2)) for i in range(dim)]


def rho_n(group: str) -> tuple[Fraction, ...]:
    """rho_g - rho_k, the half sum of the noncompact positive roots."""
    family, n = _parse_group(group)
    half = Fraction(1, 2)
    if family == "su":
        return (half,) * n + (-n * half,)
    if family == "so":
        return (half,) * n
    return (Fraction(1),) * n + (Fraction(0),)


def mu_choices(group: str) -> list[tuple[str, tuple[Fraction, ...]]]:
    """Regular rho_g - rho_k and twice it; mu = 0 where it is singular, which is
    every group here except su(2,1)."""
    base = rho_n(group)
    out = [("rho", base), ("2rho", tuple(2 * c for c in base))]
    if group != "su(2,1)":
        out.append(("zero", tuple(Fraction(0) for _ in base)))
    return out


def _torus(rng, group: str, exact: bool) -> tuple:
    """Seeded torus angles; su(n,1) elements keep coordinate sum zero.  Float
    angles stay 0.02 away from every root hyperplane, so they are regular."""
    dim = torus_dim(group)
    free = dim - 1 if group.startswith("su") else dim
    while True:
        if exact:
            q = [rng.choice(RATIONAL_ANGLES) for _ in range(free)]
        else:
            q = [rng.uniform(0.02, 0.98) for _ in range(free)]
        if free < dim:
            q.append(-sum(q))
        pairings = (sum(c * a for c, a in zip(r, q)) for r in positive_roots(group))
        if exact or all(abs(x - round(x)) > 0.02 for x in pairings):
            return tuple(q)


def _compact_weyl_image(rng, group: str, q: tuple) -> tuple:
    """w.q for a seeded w in W(k,t): the same elliptic class, written another way.

    W(k,t) permutes the first n coordinates of su(n,1); is D_n (permutations,
    even sign changes) for so(2n,1); and is C_n on the first n coordinates
    times the sign of the sp(1) coordinate for sp(n,1)."""
    family, n = _parse_group(group)
    head, rest = list(q[:n]), list(q[n:])
    rng.shuffle(head)
    if family == "su":
        return tuple(head + rest)
    signs = [rng.choice((1, -1)) for _ in q]
    if family == "so" and math.prod(signs) < 0:
        signs[-1] = -signs[-1]
    return tuple(s * a for s, a in zip(signs, head + rest))


def make_geometry(rng, group: str, n_rational: int = 12, n_float: int = 12) -> dict:
    """A seeded geometry with exact (often singular) and float (regular)
    elliptic classes, three parabolic I and four parabolic II entries.

    The exact classes come from one fixed pool per group and the seed picks a
    compact Weyl image of each: the cost of an orbital sum depends on which
    roots vanish at the class, and that must not change with the seed.
    Angles are Fraction or float; ``geometry_json`` encodes them."""
    dim = torus_dim(group)
    pool = random.Random(f"exact classes of {group}")
    elliptic = []
    for exact in [True] * n_rational + [False] * n_float:
        rep = _compact_weyl_image(rng, group, _torus(pool, group, True)) if exact else _torus(rng, group, False)
        elliptic.append(
            {
                "rep": rep,
                "vol_quotient": 1.0 / rng.choice((2, 3, 4, 6, 8, 12)),
                "d_xi": float(rng.choice((1, 2))),
                "regular": not exact,
            }
        )
    parabolic_I = []
    for flag, dim_n1, n_roots in ((True, 0, 0), (True, 2, 1), (False, 2, 2)):
        parabolic_I.append(
            {
                "delta_flag": flag,
                "c_eta_plus": rng.uniform(0.5, 1.5),
                "c_eta_minus": -rng.uniform(0.5, 1.5),
                "C_eta_plus": rng.uniform(-1.0, 1.0),
                "C_eta_minus": rng.uniform(-1.0, 1.0),
                "dim_n_eta1": dim_n1,
                "eta_torus": tuple(rng.choice(RATIONAL_ANGLES) for _ in range(dim)),
                "Rplus_xi0": [tuple(Fraction(rng.randint(-1, 1)) for _ in range(dim)) for _ in range(n_roots)],
                "Z0_pairing": [rng.uniform(-1.0, 1.0) for _ in range(dim)],
            }
        )
    parabolic_II = []
    for log_a, chamber in ((0.0, "a_equals_1"), (0.7, "H_plus"), (-0.4, "H_minus"), (1.3, "H_plus")):
        parabolic_II.append(
            {
                "vol_M": rng.uniform(0.25, 1.0),
                "det_Ad_n": rng.uniform(0.5, 4.0),
                "coset_index": rng.randint(1, 6),
                "eta_H": {
                    "compact_angles": tuple(rng.choice(RATIONAL_ANGLES) for _ in range(dim)),
                    "log_a": log_a * rng.uniform(0.5, 1.5),
                    "chamber": chamber,
                },
            }
        )
    return {
        "total_vol": rng.uniform(0.5, 2.0),
        "central_classes": [{"tag": "1", "z": tuple(Fraction(0) for _ in range(dim))}],
        "elliptic_classes": elliptic,
        "parabolic_I": parabolic_I,
        "parabolic_II": parabolic_II,
        "residue_scalar": {"re": rng.uniform(-2.0, 2.0), "im": 0.0},
        "calibration": rng.uniform(0.1, 1.0),
    }


def geometry_json(value):
    """The geometry file format: Fractions as [num, den], tuples as lists;
    the benchmark-only ``regular`` tag is dropped."""
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, dict):
        return {k: geometry_json(v) for k, v in value.items() if k != "regular"}
    if isinstance(value, (list, tuple)):
        return [geometry_json(v) for v in value]
    return value


def geometry_objects(prog, spec: dict):
    """The same geometry built directly as ranklef objects, bypassing JSON."""
    lef, chars = prog.lefschetz, prog.chars
    torus = chars.TorusElement
    return lef.GeometricData(
        total_vol=spec["total_vol"],
        central_classes=tuple(
            lef.CentralClass(tag=c["tag"], z=torus(tuple(c["z"]))) for c in spec["central_classes"]
        ),
        elliptic_classes=tuple(
            lef.EllipticClass(rep=torus(c["rep"]), vol_quotient=c["vol_quotient"], d_xi=c["d_xi"])
            for c in spec["elliptic_classes"]
        ),
        parabolic_I=tuple(
            lef.ParabolicIData(
                delta_flag=p["delta_flag"],
                c_eta_plus=p["c_eta_plus"],
                c_eta_minus=p["c_eta_minus"],
                C_eta_plus=p["C_eta_plus"],
                C_eta_minus=p["C_eta_minus"],
                dim_n_eta1=p["dim_n_eta1"],
                eta_torus=torus(p["eta_torus"]),
                Rplus_xi0=tuple(p["Rplus_xi0"]),
                z0_pairing=tuple(p["Z0_pairing"]),
            )
            for p in spec["parabolic_I"]
        ),
        parabolic_II=tuple(
            lef.ParabolicIIData(
                vol_M=p["vol_M"],
                det_Ad_n=p["det_Ad_n"],
                coset_index=p["coset_index"],
                eta_H=chars.NoncompactCartanElement(
                    compact_angles=p["eta_H"]["compact_angles"],
                    log_a=p["eta_H"]["log_a"],
                    chamber=chars.Chamber(p["eta_H"]["chamber"]),
                ),
            )
            for p in spec["parabolic_II"]
        ),
        residue_scalar=complex(spec["residue_scalar"]["re"], spec["residue_scalar"]["im"]),
        calibration=spec["calibration"],
    )


def make_epstein_spec(rng, exponent_base: int) -> dict:
    return {
        "classes": [
            {"weight": rng.uniform(0.25, 2.0), "scale": rng.uniform(0.3, 3.0), "offset": rng.choice((1.0, 0.5))}
            for _ in range(3)
        ],
        "lattice_vol": rng.uniform(0.5, 2.0),
        "exponent_base": exponent_base,
    }


def epstein_expected(spec: dict) -> dict:
    """Laurent data at z = 0 from closed forms of zeta(d, a) and digamma(a)."""
    vol, d = spec["lattice_vol"], spec["exponent_base"]
    classes = spec["classes"]
    if d == 1:
        return {
            "constant_term": vol * sum(
                c["weight"] / c["scale"] * (-DIGAMMA[c["offset"]] - math.log(c["scale"])) for c in classes
            ),
            "pole_order_at_0": 1,
            "residue_at_0": vol * sum(c["weight"] / c["scale"] for c in classes),
        }
    hurwitz = {1.0: ZETA[d], 0.5: (2**d - 1) * ZETA[d]}
    return {
        "constant_term": vol * sum(c["weight"] * c["scale"] ** -d * hurwitz[c["offset"]] for c in classes),
        "pole_order_at_0": 0,
        "residue_at_0": 0.0,
    }


@dataclass(frozen=True)
class Rank1Request:
    group: str
    mu_label: str
    mu: tuple[Fraction, ...]
    geom_path: str
    spec_path: str

    @property
    def mu_text(self) -> str:
        return ",".join(str(c) for c in self.mu)


COMPONENTS = ("central", "elliptic", "parabolic_I", "parabolic_II", "residue")


class Rank1Cli(Workload):
    """``epstein const`` then ``lefschetz assemble --geom`` through ``cli.main``
    in-process, stdout captured, caches cleared.  A round is every (group, mu)
    of ``mu_choices`` over ``groups``, in seeded order, on one seeded geometry
    and Epstein spec per group."""

    name = "rank1-cli"

    def __init__(self, groups=RANK1_GROUPS, n_rational: int = 12, n_float: int = 12):
        self.groups = tuple(groups)
        self.n_rational, self.n_float = n_rational, n_float
        self.geometry: dict[str, dict] = {}
        self.epstein: dict[str, dict] = {}
        self.first_output: dict[tuple, str] = {}

    def make_inputs(self, rng, workdir: Path) -> list:
        # both Epstein branches in every run: pole (d = 1) and convergent (d >= 2)
        bases = [1, 2, 3, 4, 1, 2][: len(self.groups)]
        rng.shuffle(bases)
        requests = []
        for group, base in zip(self.groups, bases):
            slug = re.sub(r"\W", "", group)
            self.geometry[group] = make_geometry(rng, group, self.n_rational, self.n_float)
            self.epstein[group] = make_epstein_spec(rng, base)
            geom_path, spec_path = workdir / f"geom-{slug}.json", workdir / f"spec-{slug}.json"
            geom_path.write_text(json.dumps(geometry_json(self.geometry[group])), encoding="utf-8")
            spec_path.write_text(json.dumps(self.epstein[group]), encoding="utf-8")
            for label, mu in mu_choices(group):
                requests.append(Rank1Request(group, label, mu, str(geom_path), str(spec_path)))
        return requests

    def key(self, req):
        return (req.group, req.mu_label)

    def call(self, prog, req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code_eps = prog.cli.main(["epstein", "const", "--spec", req.spec_path])
            code_asm = prog.cli.main(
                ["lefschetz", "assemble", "--group", req.group, "--mu", req.mu_text, "--geom", req.geom_path]
            )
        return code_eps, code_asm, buf.getvalue()

    def check(self, prog, req, out) -> str | None:
        code_eps, code_asm, text = out
        if (code_eps, code_asm) != (0, 0):
            return f"exit codes {code_eps}, {code_asm}"
        first = self.first_output.setdefault(self.key(req), text)
        if text != first:
            return "report bytes differ from an earlier run of the same request"
        decoder = json.JSONDecoder()
        eps, end = decoder.raw_decode(text)
        report, _ = decoder.raw_decode(text[end:].lstrip())
        want = epstein_expected(self.epstein[req.group])
        for field, value in want.items():
            if not _close(eps[field], value):
                return f"epstein {field} {eps[field]!r}, closed form {value!r}"
        branch = "singular" if req.mu_label == "zero" else "regular"
        if report["branch"] != branch:
            return f"branch {report['branch']}, expected {branch}"
        parts = [complex(report[c]["re"], report[c]["im"]) for c in COMPONENTS]
        total = complex(report["total"]["re"], report["total"]["im"])
        if not _close(sum(parts), total):
            return f"total {total} is not the sum of its terms {sum(parts)}"
        return None

    def verify(self, prog) -> dict:
        """Check each group's Weyl group orders against the closed form, then
        recompute each distinct report from in-memory objects.  Regular classes
        enter the recomputed elliptic term through the Weyl character formula,
        not the coset-rep orbital sum the program uses, so the report's
        elliptic term cross-checks one path against the other."""
        rootsys = prog.rootsys
        errors = {}
        for key, text in self.first_output.items():
            group = key[0]
            rs = rootsys.build_root_system(rootsys.GroupDescriptor.from_name(group))
            orders = (len(rootsys.weyl_group(rs, "full")), len(rootsys.weyl_group(rs, "compact")))
            if orders != weyl_orders(group):
                errors[key] = f"Weyl group orders {orders}, closed form {weyl_orders(group)}"
                continue
            err = self._verify_one(prog, key, text)
            if err:
                errors[key] = err
        return errors

    def _verify_one(self, prog, key, text) -> str | None:
        group, label = key
        rootsys, chars, lef = prog.rootsys, prog.chars, prog.lefschetz
        spec = self.geometry[group]
        rs = rootsys.build_root_system(rootsys.GroupDescriptor.from_name(group))
        lam = chars.hc_parameter(rs, rootsys.Weight(dict(mu_choices(group))[label]))
        geom = geometry_objects(prog, spec)
        sign = (-1) ** (rs.dim_p // 2)
        elliptic = 0j
        for cls, entry in zip(geom.elliptic_classes, spec["elliptic_classes"]):
            if entry["regular"]:
                value = sign * chars.ds_character_Treg(rs, lam, cls.rep).value
            else:
                value = chars.elliptic_orbital_term(rs, lam, cls.rep)
            elliptic += (cls.vol_quotient / cls.d_xi) * value
        regular = label != "zero"
        want = {
            "central": lef.central_term(rs, lam, geom) if regular else 0j,
            "elliptic": elliptic,
            "parabolic_I": lef.parabolic_I_term(rs, lam, geom),
            "parabolic_II": lef.parabolic_II_term(rs, lam, geom) if regular else 0j,
            "residue": 0j if regular else lef.residue_term(geom),
        }
        decoder = json.JSONDecoder()
        _, end = decoder.raw_decode(text)
        report, _ = decoder.raw_decode(text[end:].lstrip())
        for name, value in want.items():
            got = complex(report[name]["re"], report[name]["im"])
            if not _close(got, value):
                return f"{name} term {got} in the report, {value} from the objects"
        return None


WORKLOADS = {"sl2z-cold": sl2z_cold, Rank1Cli.name: Rank1Cli}
