"""Command-line front end for the verification suites and expansions.

Subcommands: list-suites, verify, census, pbw, magnus, expand.  Exit code 0
means every requested check passed, 1 means a counterexample was found, and 2
signals a usage or configuration problem.  With --format json the output is
schema-stable and, for a fixed seed, byte-deterministic apart from the
elapsed_ms timing fields.
"""

from __future__ import annotations

# The package first: compiling its modules before argparse and json are
# loaded lowers a request's peak resident set by about 0.3 MB.
from . import _lazy
from .dendriform import ell, r as r_fold, w_left, w_right
from .errors import InvalidPermutation
from .ncalg import Elem, Word, WORD_SORT
from .structures import RBStructure, _rational, from_selector
from .suites import (
    MAGNUS_CAP, OPERATOR_SUITES, SUITES, Options, run_suites, suite_names,
)

import argparse
import json
import sys
from fractions import Fraction

# executed on first use, as in suites
hopf, lyndon, magnus = _lazy("hopf"), _lazy("lyndon"), _lazy("magnus")


class UsageError(Exception):
    """Raised for configuration problems that should exit with code 2."""


# op -> its value at (structure, generator, n); hopf is reached only
# through the lambdas, so building the table executes no lazy module
_EXPANSIONS = {
    "w-right": w_right,
    "w-left": w_left,
    "ell": lambda S, a, n: ell(S, *([a] * n)),
    "r": lambda S, a, n: r_fold(S, *([a] * n)),
    "dynkin": lambda S, a, n: hopf.dynkin_w(S, a, n),
    "antipode": lambda S, a, n: hopf.w_antipode(S, a, n),
    "comp-right": lambda S, a, n: hopf.w_right_from_compositions(S, a, n),
    "comp-left": lambda S, a, n: hopf.w_left_from_compositions(S, a, n),
}
EXPAND_OPS = tuple(_EXPANSIONS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendralg",
        description="exact verification suites for dendriform identities")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-suites", help="show the suite catalogue"
                   ).set_defaults(handler=_cmd_list_suites)

    def common(p, with_suite=False):
        if with_suite:
            p.add_argument("--suite", help="suite name (default: all)")
        p.add_argument("--structure", help="structure selector, e.g. shuffle "
                                           "or rb-seqmat:theta=1,k=2,N=4")
        p.add_argument("--n", type=int, help="size bound / sweep size")
        p.add_argument("--degree", type=int, help="basis degree bound")
        p.add_argument("--cap", type=int, help="series truncation order")
        p.add_argument("--theta", help="weight for operator structures, e.g. 2/3")
        p.add_argument("--seed", type=int, default=0,
                       help="PRNG seed for random-element checks (default 0)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run verification suites")
    common(verify, with_suite=True)
    verify.set_defaults(handler=_cmd_verify)

    census = sub.add_parser("census", help="tabulate permutations by E-block type")
    census.add_argument("--n", type=int, default=5)
    census.add_argument("--format", choices=("text", "json"), default="text")
    census.set_defaults(handler=_cmd_census)

    pbw = sub.add_parser("pbw", help="print a bracketed E-block expansion")
    pbw.add_argument("--n", type=int, default=4)
    pbw.add_argument("--beta", help="relabelling in one-line notation, e.g. 4,3,2,1 "
                                    "(default: the order reversal of size n)")
    pbw.add_argument("--format", choices=("text", "json"), default="text")
    pbw.set_defaults(handler=_cmd_pbw)

    mg = sub.add_parser("magnus", help="run the Magnus checks, optionally "
                                       "printing the omega coefficients")
    common(mg)
    mg.add_argument("--emit-omega", action="store_true",
                    help="print each omega coefficient")
    mg.set_defaults(handler=_cmd_magnus)

    ex = sub.add_parser("expand", help="print one expansion of a generator")
    ex.add_argument("--structure", required=True)
    ex.add_argument("--op", required=True, choices=EXPAND_OPS)
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--theta")
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--format", choices=("text", "json"), default="text")
    ex.set_defaults(handler=_cmd_expand)
    return parser


def _theta(args) -> Fraction | None:
    if args.theta is None:
        return None
    try:
        return _rational(args.theta)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse theta {args.theta!r}")


def _structure(selector: str, theta):
    try:
        return from_selector(selector, theta=theta)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"bad structure {selector!r}: {exc}")


def _options(args, suites=()) -> tuple:
    """Validate the suite options once, for the suites about to run.

    Sizes must be at least 1 when given, the theta and the structure
    selector must parse, the operator suites need an operator structure, and
    the axioms suite needs a degree bound that admits a triple.  Returns the
    Options and the structure --structure selects, built once here (None
    without --structure).
    """
    theta = _theta(args)
    for name in ("n", "degree", "cap"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be >= 1, got {value}")
    # without --structure the axioms sweep includes shuffle, whose keys
    # start at degree 1
    low = 1
    S = None
    if args.structure:
        S = _structure(args.structure, theta)
        wrong = [name for name in suites if name in OPERATOR_SUITES]
        if wrong and not isinstance(S, RBStructure):
            raise UsageError(f"suite {', '.join(wrong)} needs an operator "
                             f"structure (rb-seqmat or rb-polymat), not "
                             f"{args.structure!r}")
        low = min(S.degree(key) for key in S.basis_keys(1))
    if "axioms" in suites and args.degree is not None and 3 * low > args.degree:
        raise UsageError(f"axioms needs --degree >= {3 * low} on "
                         f"{args.structure or 'the graded structures'}: an "
                         f"axiom triple has three keys of degree >= {low}")
    options = Options(structure=args.structure, n=args.n, degree=args.degree,
                      cap=args.cap, theta=theta, seed=args.seed)
    return options, S


def _emit_reports(reports, fmt: str) -> int:
    if fmt == "json":
        payload = {"reports": [rep.to_dict() for rep in reports]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for rep in reports:
            params = ",".join(f"{k}={v}" for k, v in sorted(rep.params.items()))
            print(f"[{rep.status}] {rep.suite:<14} {rep.structure:<28} "
                  f"checks={rep.checks:<6} ({params}; {rep.elapsed_ms} ms)")
            if rep.counterexample:
                ce = rep.counterexample
                print(f"    check:      {ce['check']}")
                print(f"    lhs:        {ce['lhs']}")
                print(f"    rhs:        {ce['rhs']}")
                if ce.get("difference"):
                    print(f"    difference: {ce['difference']}")
    return 0 if all(rep.status == "pass" for rep in reports) else 1


def _cmd_list_suites(args) -> int:
    width = max(len(name) for name in SUITES)
    for name, (_, description) in SUITES.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _cmd_verify(args) -> int:
    if args.suite:
        if args.suite not in SUITES:
            raise UsageError(
                f"unknown suite {args.suite!r}; choose from: "
                + ", ".join(suite_names()))
        names = [args.suite]
        options, _ = _options(args, names)
    else:
        names = suite_names()
        plain = [name for name in names if name not in OPERATOR_SUITES]
        options, S = _options(args, plain)
        if S is not None and not isinstance(S, RBStructure):
            # the operator suites do not apply to the chosen structure
            names = plain
    return _emit_reports(run_suites(names, options), args.format)


def _cmd_census(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("census needs --n >= 1")
    census = lyndon.lyndon_census(n)
    rows = [{"composition": list(comp), "count": count,
             "formula": lyndon.census_formula(comp)}
            for comp, count in sorted(census.items())]
    ok = all(row["count"] == row["formula"] for row in rows)
    total = sum(census.values())
    if args.format == "json":
        print(json.dumps({"n": n, "rows": rows, "total": total,
                          "matches_formula": ok}, indent=2, sort_keys=True))
    else:
        width = max(len(repr(tuple(row["composition"]))) for row in rows)
        for row in rows:
            comp = repr(tuple(row["composition"]))
            print(f"{comp:<{width}}  count={row['count']:<8} "
                  f"formula={row['formula']}")
        print(f"total {total} permutations over {len(rows)} compositions; "
              f"formula {'matches' if ok else 'DISAGREES'}")
    return 0 if ok else 1


def _parse_beta(text: str, fallback_n: int):
    if text is None:
        return tuple(range(fallback_n, 0, -1))
    text = text.strip()
    if "," in text:
        parts = [p for p in text.split(",") if p.strip()]
    else:
        parts = list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"cannot parse one-line permutation {text!r}")


def _cmd_pbw(args) -> int:
    if args.beta is None and args.n < 1:
        raise UsageError("pbw needs --n >= 1")
    image = _parse_beta(args.beta, args.n)
    if not image:
        raise UsageError("pbw needs a nonempty permutation")
    try:
        expansion = lyndon.pbw_expansion(image)
    except InvalidPermutation as exc:
        raise UsageError(str(exc))
    n = len(image)
    target = Elem.term(WORD_SORT, Word(tuple(range(1, n + 1))))
    ok = expansion == target
    if args.format == "json":
        print(json.dumps({"beta": list(image),
                          "expansion": expansion.render(),
                          "terms": len(expansion),
                          "matches_word": ok}, indent=2, sort_keys=True))
    else:
        print(f"beta = {image}")
        print(f"expansion ({len(expansion)} words once expanded):")
        print(f"  {expansion.render()}")
        print(f"equals x1..x{n}: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def _cmd_magnus(args) -> int:
    options, S = _options(args, ["magnus"])
    reports = run_suites(["magnus"], options)
    code = _emit_reports(reports, args.format)
    if args.emit_omega and args.format == "text":
        cap = MAGNUS_CAP if options.cap is None else options.cap
        if S is not None:
            targets = [(options.structure, S)]
        else:
            targets = ((rep.structure, _structure(rep.structure, options.theta))
                       for rep in reports)
        for sel, S in targets:
            a = S.generator(options.seed)
            om = magnus.magnus_omega(S, a, cap)
            print(f"omega coefficients for {sel} (cap {cap}):")
            for d in range(1, cap + 1):
                print(f"  t^{d}: {om.coeff(d).render(max_terms=20)}")
    return code


def _cmd_expand(args) -> int:
    if args.n < 0 or (args.n == 0 and args.op in ("ell", "r", "dynkin")):
        raise UsageError(f"op {args.op} needs --n >= 1")
    S = _structure(args.structure, _theta(args))
    a = S.generator(args.seed)
    value = _EXPANSIONS[args.op](S, a, args.n)
    if args.format == "json":
        print(json.dumps({"structure": args.structure, "op": args.op,
                          "n": args.n, "generator": a.render(),
                          "element": value.render()},
                         indent=2, sort_keys=True))
    else:
        print(f"generator: {a.render()}")
        print(f"{args.op}({args.n}): {value.render()}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"dendralg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
