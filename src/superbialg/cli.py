"""Command-line front end.

Commands: validate, cobracket-check, schouten, coboundary, solve-cocycle,
verify-orbits, poisson, verify-paper.  Exit codes: 0 all checks pass,
1 failures, 2 usage or parse errors, reported in one `error: ...` line on
stderr (errata do not fail a run unless --strict is given), 141 (128 +
SIGPIPE, as a shell reports a process that a closed pipe stopped) when the
reader of stdout goes away early, e.g. `superbialg solve-cocycle --algebra
osp12 | head -2`; nothing is printed then.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import BUILTIN_NAMES, builtin, parse_algebra_file, AlgebraError
from .bialgebra import (Cobracket, check_cobracket, coboundary_delta,
                        cybe_status, family, parse_cobracket_text)
from .tensors import RMatrix, parse_rmatrix, schouten as schouten_op
from . import cocycles
from .equivalence import verify_orbit_claims
from .poisson import named_structure, check_axioms, format_table
from .claims import run_claims, summarize
from .scalars import parse_rational


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments the way `main` reports a `UsageError`: one
    `error: ...` line on stderr and exit code 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _load_algebra(args, validate=True):
    name = getattr(args, "algebra", None) or getattr(args, "file", None)
    if name is None:
        raise UsageError("--algebra (builtin name or file path) is required")
    if name in BUILTIN_NAMES:
        return builtin(name)
    algebra = parse_algebra_file(name, validate=validate)
    if algebra.name in BUILTIN_NAMES:
        # a file that restates a builtin is that builtin, whose families apply
        ref = builtin(algebra.name)
        if (ref.basis, ref.grades, ref.constants) == (
                algebra.basis, algebra.grades, algebra.constants):
            return ref
    return algebra


def _parse_params(text):
    params = {}
    if not text:
        return params
    for piece in text.split(","):
        key, _, value = piece.partition("=")
        if not _ or not key.strip():
            raise UsageError(f"bad parameter binding {piece!r}")
        if key.strip() in params:
            raise UsageError(f"parameter {key.strip()!r} is bound twice")
        try:
            params[key.strip()] = parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad rational in {piece!r}") from None
    return params


def cmd_validate(args):
    algebra = _load_algebra(args, validate=False)
    report = algebra.validate()
    if not report.passed:
        raise AlgebraError(report)
    print(f"algebra {algebra.name}: all axioms hold")
    return 0


def cmd_cobracket_check(args):
    algebra = _load_algebra(args)
    if args.family:
        params = _parse_params(args.params)
        d = family(args.family, **params)
    elif args.cobracket_file:
        with open(args.cobracket_file, "r", encoding="utf-8") as fh:
            d = parse_cobracket_text(fh.read(), algebra)
    else:
        raise UsageError("need --family or --cobracket-file")
    if not isinstance(d, Cobracket):
        raise UsageError(f"family {args.family!r} is not a cobracket")
    if d.algebra is not algebra:
        raise UsageError("cobracket family belongs to a different algebra")
    report = check_cobracket(algebra, d)
    print(d.render())
    return _print_axioms(report)


def _print_axioms(report):
    print("axioms: " + ("pass" if report.passed else "FAIL"))
    if report.passed:
        return 0
    print(report.render())
    return 1


def cmd_schouten(args):
    algebra = _load_algebra(args)
    r = _r_from_args(args, algebra)
    s = schouten_op(algebra, r)
    status = cybe_status(algebra, r)
    print(status)
    if not s.is_zero() and args.verbose:
        print(s.render())
    return 0


def _r_from_args(args, algebra):
    if args.r:
        return parse_rmatrix(args.r, algebra)
    if not args.family:
        raise UsageError("need --r or --family")
    r = family(args.family, **_parse_params(args.params))
    if not isinstance(r, RMatrix):
        raise UsageError(f"family {args.family!r} is not an r-matrix")
    if r.algebra is not algebra:
        raise UsageError("r-matrix family belongs to a different algebra")
    return r


def cmd_coboundary(args):
    algebra = _load_algebra(args)
    r = _r_from_args(args, algebra)
    d = coboundary_delta(algebra, r)
    print(d.render())
    return 0


def cmd_solve_cocycle(args):
    algebra = _load_algebra(args)
    system, fam = cocycles.solve_cocycle_space(algebra)
    echelon_rank = system.unknown_count - fam.nullity
    print(f"unknowns\t{system.unknown_count}")
    print(f"equations\t{system.equation_count}")
    print(f"rank\t{echelon_rank}")
    print(f"nullity\t{fam.nullity}")
    for i, d in enumerate(fam.cobrackets()):
        rows = d.render().replace("\n", "; ")
        print(f"basis[{i}]\t{rows}")
    _, constraints = cocycles.cojacobi_constraints(fam)
    for poly in constraints:
        print(f"quadratic\t{poly.render()}")
    _, cob_vectors = cocycles.coboundary_space(algebra)
    print(f"coboundary-dim\t{len(cob_vectors)}")
    return 0


def cmd_verify_orbits(args):
    failures = 0
    for cid, anchor, ok, detail in verify_orbit_claims():
        status = "pass" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{cid}\t{status}\t{detail}")
    return 1 if failures else 0


def cmd_poisson(args):
    st = named_structure(args.group, args.structure)
    print(format_table(st, fmt=args.format))
    return _print_axioms(check_axioms(st)) if args.check else 0


def cmd_verify_paper(args):
    results = run_claims(prefix=args.filter)
    if not results:
        raise UsageError(f"no claims match {args.filter!r}")
    if args.format == "machine":
        for r in results:
            print(r.machine_line())
    else:
        width = max(len(r.claim_id) for r in results)
        for r in results:
            print(f"{r.claim_id:<{width}}  {r.status:<7}  {r.anchor}")
            if r.status != "pass" and args.format == "text":
                print(f"{'':<{width}}  {'':<7}  {r.detail}")
    counts = summarize(results)
    print(f"# {counts.get('pass', 0)} pass, {counts.get('fail', 0)} fail, "
          f"{counts.get('erratum', 0)} errata")
    if counts.get("fail"):
        return 1
    if args.strict and counts.get("erratum"):
        return 1
    return 0


def build_parser():
    parser = _Parser(
        prog="superbialg",
        description=("Exact verification of the Lie super-bialgebra"
                     " classification on osp(1|2) and super-e(2) and the"
                     " induced Poisson-Lie brackets."))
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_flags(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--algebra", help=f"builtin name ({' | '.join(BUILTIN_NAMES)})"
                       " or file path")
        g.add_argument("--file", help="algebra definition file (alias for --algebra)")

    def r_flags(p, r_help, family_help):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--r", help=r_help)
        g.add_argument("--family", help=family_help)
        p.add_argument("--params", help="family parameters")

    p = sub.add_parser("validate", help="check the superalgebra axioms")
    algebra_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cobracket-check", help="check the four bialgebra axioms")
    algebra_flags(p)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--family", help="named family id, e.g. e2-case-a")
    g.add_argument("--cobracket-file", help="file with 'delta H = ...' rows")
    p.add_argument("--params", help="comma-separated rational bindings, e.g. a=1,b=0")
    p.set_defaults(func=cmd_cobracket_check)

    p = sub.add_parser("schouten", help="CYBE / mCYBE status of an r-matrix")
    algebra_flags(p)
    r_flags(p, "r-matrix text, e.g. '1 H^P+ - 1 V+^V+'",
            "named r-matrix family id")
    p.add_argument("--verbose", action="store_true",
                   help="also print the Schouten bracket when nonzero")
    p.set_defaults(func=cmd_schouten)

    p = sub.add_parser("coboundary", help="cobracket of an r-matrix")
    algebra_flags(p)
    r_flags(p, "r-matrix text", "named r-matrix family id")
    p.set_defaults(func=cmd_coboundary)

    p = sub.add_parser("solve-cocycle",
                       help="cocycle system: rank, nullity, basis, constraints")
    algebra_flags(p)
    p.set_defaults(func=cmd_solve_cocycle)

    p = sub.add_parser("verify-orbits", help="orbit claims with frozen witnesses")
    p.set_defaults(func=cmd_verify_orbits)

    p = sub.add_parser("poisson", help="bracket table of a Poisson-Lie structure")
    p.add_argument("--group", required=True, help="super-e2 | osp")
    p.add_argument("--structure", required=True,
                   help="i..vi for super-e2, 1..3 for osp")
    p.add_argument("--format", default="table", choices=["table", "machine"])
    p.add_argument("--check", action="store_true", help="also run the axioms")
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("verify-paper", help="run the whole claim registry")
    p.add_argument("--filter", help="only claims whose id contains this text")
    p.add_argument("--strict", action="store_true", help="errata fail the run")
    p.add_argument("--format", default="text", choices=["text", "machine"])
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)  # exits with 2 on usage errors
    try:
        if getattr(args, "params", None) is not None and not args.family:
            raise UsageError("--params needs --family")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # fail again and print a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
