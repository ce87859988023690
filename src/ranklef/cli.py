"""Command-line interface: JSON in, JSON out, human summary on stdout.

Exit codes: 0 success, 1 validation error, 2 oracle mismatch (compare only),
3 non-integral total where integrality is contracted.  Every malformed input
exits 1 with one ``error:`` line on stderr, and every report is strict JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import lefschetz as lef
from . import sl2
from .epstein import EpsteinSpec, zeta_constant_terms
from .rootsys import (
    GroupDescriptor,
    RootKind,
    Weight,
    build_root_system,
    spinor_dims,
    weyl_group,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_NONINTEGRAL = 3

# Largest Hecke level n the SL(2,Z) commands accept.  The cost grows about
# linearly in n, driven by the roughly 9n elliptic classes the assembler sums
# over: at n = 2000 one cold compare or preset assembly takes about 0.4 s and
# the weight-12 oracle 0.2 s (Python 3.11, one core of a shared 2-vCPU host).
MAX_SL2Z_LEVEL = 2000


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise CliError(message)


def json_default(obj):
    """The ``json.dumps`` hook for every report: a dataclass as its fields, a
    complex number as an object with keys ``im`` and ``re``, and a rational as
    its string."""
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(report, out_path: str | None) -> None:
    try:
        text = json.dumps(report, default=json_default, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        raise CliError(f"the report holds a number that is not finite: {exc}") from exc
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _check_sl2z_level(n: int) -> None:
    if n > MAX_SL2Z_LEVEL:
        raise CliError(f"--n {n} is above the SL(2,Z) level bound {MAX_SL2Z_LEVEL}")


def _parse_mu(text: str) -> Weight:
    try:
        return Weight(tuple(Fraction(part) for part in text.split(",")))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad weight coordinates {text!r}: {exc}") from exc


def _cmd_rootsys_show(args) -> int:
    rs = build_root_system(GroupDescriptor.from_name(args.group))
    report = {
        "descriptor": rs.descriptor.name(),
        "dim_n1": rs.dim_n1,
        "dim_n2": rs.dim_n2,
        "dim_p": rs.dim_p,
        "num_compact_positive": len(rs.positive_roots(RootKind.COMPACT)),
        "num_positive": len(rs.positive_roots()),
        "positive_roots": rs.positive_roots(),
        "rho_g": rs.rho_g.coords,
        "rho_k": rs.rho_k.coords,
        "rho_p": rs.rho_p.coords,
        "spinor_dims": spinor_dims(rs),
        "weyl_order_compact": len(weyl_group(rs, "compact")),
        "weyl_order_full": len(weyl_group(rs, "full")),
    }
    _emit(report, args.out)
    return EXIT_OK


def _resolve_mu(args, rs) -> Weight:
    if (args.mu is None) == (args.k is None):
        raise CliError("give exactly one of --mu or --k")
    if args.mu is not None:
        return _parse_mu(args.mu)
    if rs.descriptor.name() != "su(1,1)":
        raise CliError("--k is the sl2r weight dictionary; use --mu for other groups")
    return sl2.mu_from_weight(args.k)


def _cmd_assemble(args) -> int:
    if (args.geom is None) == (args.preset is None):
        raise CliError("give exactly one geometry source: --geom FILE or --preset sl2z")
    if args.preset is not None:
        if args.preset != "sl2z":
            raise CliError(f"unknown preset {args.preset!r}")
        if args.n is None:
            raise CliError("--preset sl2z requires --n")
        _check_sl2z_level(args.n)
        group = args.group or "sl2r"
        rs = build_root_system(GroupDescriptor.from_name(group))
        geom = sl2.build_geom_sl2z(args.n)
        source = {"n": args.n, "preset": "sl2z"}
    else:
        if args.group is None:
            raise CliError("--geom requires --group")
        rs = build_root_system(GroupDescriptor.from_name(args.group))
        try:
            geom = lef.load_geometry(args.geom)
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read geometry file: {exc}") from exc
        source = {"file": args.geom}
    mu = _resolve_mu(args, rs)
    bd = lef.assemble(rs, mu, geom, args.interpretation)
    provenance = {"group": rs.descriptor.name(), "mu": mu.coords, "source": source}
    _emit({**vars(bd), "provenance": provenance}, args.out)
    index_case = args.preset is not None and args.n == 1
    if index_case and bd.rounding_defect >= args.tolerance:
        print(
            f"FAIL: total {bd.total} misses an integer by {bd.rounding_defect:.3g} "
            f"(tolerance {args.tolerance:g})",
            file=sys.stderr,
        )
        return EXIT_NONINTEGRAL
    return EXIT_OK


def _cmd_sl2_oracle(args) -> int:
    _check_sl2z_level(args.n)
    report = {"eichler_selberg": sl2.eichler_selberg(args.k, args.n), "k": args.k, "n": args.n}
    if args.n == 1:
        report["dim_cusp_forms"] = sl2.dim_cusp_forms(args.k)
    if args.k == 12:
        report["tau"] = sl2.delta_coeffs(args.n)[args.n - 1]
    _emit(report, args.out)
    return EXIT_OK


def _cmd_sl2_compare(args) -> int:
    _check_sl2z_level(args.n)
    rep = sl2.compare(args.k, args.n, args.interpretation)
    _emit(rep, args.out)
    if not rep.match:
        print(
            f"MISMATCH: lefschetz {rep.lefschetz_value} vs oracle {rep.oracle_value} "
            f"(defect {rep.defect:.3g})",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_epstein_const(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = EpsteinSpec.from_dict(json.load(fh))
        lc = zeta_constant_terms(spec)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad Epstein spec: {exc}") from exc
    _emit(lc, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ranklef", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_root = sub.add_parser("rootsys", help="root system inspection")
    root_sub = p_root.add_subparsers(dest="subcommand", required=True)
    p_show = root_sub.add_parser("show", help="dump the root datum")
    p_show.add_argument("group")
    p_show.add_argument("--out")
    p_show.set_defaults(func=_cmd_rootsys_show)

    p_lef = sub.add_parser("lefschetz", help="Lefschetz number assembly")
    lef_sub = p_lef.add_subparsers(dest="subcommand", required=True)
    p_asm = lef_sub.add_parser("assemble", help="full per-term breakdown")
    p_asm.add_argument("--group")
    p_asm.add_argument("--mu", help="comma-separated rational coordinates")
    p_asm.add_argument("--k", type=int, help="classical weight (sl2r dictionary)")
    p_asm.add_argument("--geom", help="GeometricData JSON file")
    p_asm.add_argument("--preset", choices=["sl2z"])
    p_asm.add_argument("--n", type=int)
    p_asm.add_argument("--interpretation", choices=["conjugate", "identity"], default="conjugate")
    p_asm.add_argument("--tolerance", type=float, default=lef.DEFAULT_INTEGRALITY_TOL)
    p_asm.add_argument("--out")
    p_asm.set_defaults(func=_cmd_assemble)

    p_sl2 = sub.add_parser("sl2", help="SL(2,Z) oracles and comparison")
    sl2_sub = p_sl2.add_subparsers(dest="subcommand", required=True)
    p_oracle = sl2_sub.add_parser("oracle", help="classical oracle values only")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=_cmd_sl2_oracle)
    p_cmp = sl2_sub.add_parser("compare", help="Lefschetz value against the oracle")
    p_cmp.add_argument("--k", type=int, required=True)
    p_cmp.add_argument("--n", type=int, required=True)
    p_cmp.add_argument("--interpretation", choices=["conjugate", "identity"], default="conjugate")
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=_cmd_sl2_compare)

    p_eps = sub.add_parser("epstein", help="cusp zeta constants")
    eps_sub = p_eps.add_subparsers(dest="subcommand", required=True)
    p_const = eps_sub.add_parser("const", help="Laurent constant at z = 0")
    p_const.add_argument("--spec", required=True)
    p_const.add_argument("--out")
    p_const.set_defaults(func=_cmd_epstein_const)

    return parser


# Built once per process: building it takes about 1.5 ms (Python 3.11, shared
# 2-vCPU host), a tenth of a small `lefschetz assemble` request.  Parsing
# leaves it unchanged, so every call can share it.
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        # A finite input so large or small that a float overflows, or
        # underflows into a division by zero, part-way through a computation.
        print(f"error: out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
