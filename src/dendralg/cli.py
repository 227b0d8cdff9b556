"""Command-line front end for the verification suites and expansions.

Subcommands: list-suites, verify, expand.  Exit code 0 means every
requested check passed, 1 means a counterexample was found, 2 signals a
usage or configuration problem, and 141 (128 + SIGPIPE) means the reader of
stdout went away before the output was written.  The command, entry(), ends
right after flushing its output and running the atexit handlers, which
skips about 9 ms of interpreter teardown per process; main(argv), the
library call, returns its exit code normally.  With --format json the
output is schema-stable and, for a fixed seed, byte-deterministic apart
from the elapsed_ms timing fields.  A structure is named by its selector
alone, its weight included (rb-seqmat:theta=2/3), and reports and
expansions label it with its canonical selector.
"""

from __future__ import annotations

# The package first: compiling its modules before argparse and json are
# loaded lowers a request's peak resident set by about 0.3 MB.
from . import _lazy
from .dendriform import ell, r as r_fold, w_left, w_right
from .structures import RBStructure, from_selector
from .suites import OPERATOR_SUITES, SUITE_OPTIONS, SUITES, Options, run_suites

import argparse
import atexit
import json
import os
import sys
from typing import NoReturn

# executed on first use, as in suites
hopf, magnus = _lazy("hopf"), _lazy("magnus")


class UsageError(Exception):
    """Raised for configuration problems that should exit with code 2."""


# op -> its value at (structure, generator, n); hopf and magnus are reached
# only through the lambdas, so building the table executes no lazy module
_EXPANSIONS = {
    "w-right": w_right,
    "w-left": w_left,
    "ell": lambda S, a, n: ell(S, *([a] * n)),
    "r": lambda S, a, n: r_fold(S, *([a] * n)),
    "dynkin": lambda S, a, n: hopf.dynkin_w(S, a, n),
    "antipode": lambda S, a, n: hopf.w_antipode(S, a, n),
    "comp-right": lambda S, a, n: hopf.w_right_from_compositions(S, a, n),
    "comp-left": lambda S, a, n: hopf.w_left_from_compositions(S, a, n),
    "omega": lambda S, a, n: magnus.magnus_omega(S, a, n).coeff(n),
}
EXPAND_OPS = tuple(_EXPANSIONS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendralg",
        description="exact verification suites for dendriform identities")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-suites", help="show the suite catalogue"
                   ).set_defaults(handler=_cmd_list_suites)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", help="suite name (default: all)")
    verify.add_argument("--n", type=int, help="size bound / sweep size")
    verify.add_argument("--degree", type=int, help="basis degree bound")
    verify.add_argument("--structure", help="structure selector, e.g. shuffle "
                                            "or rb-seqmat:theta=1,k=2,N=4")
    verify.add_argument("--cap", type=int, help="series truncation order")
    verify.add_argument("--seed", type=int, default=0,
                        help="PRNG seed for random-element checks (default 0)")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=_cmd_verify)

    ex = sub.add_parser("expand", help="print one expansion of a generator")
    ex.add_argument("--structure", required=True)
    ex.add_argument("--op", required=True, choices=EXPAND_OPS)
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--format", choices=("text", "json"), default="text")
    ex.set_defaults(handler=_cmd_expand)
    return parser


def _structure(selector: str):
    try:
        return from_selector(selector)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"bad structure {selector!r}: {exc}")


def _options(args, suites=()) -> tuple:
    """Validate the suite options once, for the suites about to run.

    Sizes must be at least 1 when given, some requested suite must read
    each option given (SUITE_OPTIONS), the selector must parse, the
    operator suites need an operator structure, and the axioms suite needs
    a degree bound that admits a triple.  Returns the Options, whose
    structure is the canonical selector, and the structure --structure
    selects, built once here (None without it).
    """
    for name in ("structure", "n", "degree", "cap"):
        if getattr(args, name) is not None and not any(
                name in SUITE_OPTIONS[suite] for suite in suites):
            raise UsageError(f"suite {', '.join(suites)} does not read --{name}")
    for name in ("n", "degree", "cap"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be >= 1, got {value}")
    # without --structure the axioms sweep includes shuffle, whose keys
    # start at degree 1
    low = 1
    S = None
    if args.structure is not None:
        S = _structure(args.structure)
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
    options = Options(structure=None if S is None else S.name, n=args.n,
                      degree=args.degree, cap=args.cap, seed=args.seed)
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
    if args.suite is not None:
        if args.suite not in SUITES:
            raise UsageError(
                f"unknown suite {args.suite!r}; choose from: "
                + ", ".join(SUITES))
        names = [args.suite]
        options, _ = _options(args, names)
    else:
        names = list(SUITES)
        plain = [name for name in names if name not in OPERATOR_SUITES]
        options, S = _options(args, plain)
        if S is not None and not isinstance(S, RBStructure):
            # the operator suites do not apply to the chosen structure
            names = plain
    return _emit_reports(run_suites(names, options), args.format)


def _cmd_expand(args) -> int:
    floor = 1 if args.op in ("ell", "r", "dynkin") else 0
    if args.n < floor:
        raise UsageError(f"op {args.op} needs --n >= {floor}")
    S = _structure(args.structure)
    a = S.generator(args.seed)
    value = _EXPANSIONS[args.op](S, a, args.n)
    if args.format == "json":
        print(json.dumps({"structure": S.name, "op": args.op,
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


def _flushed(code: int) -> int:
    """code once stdout and stderr are flushed; 141 if a reader has gone."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:   # None when started with the fd closed
                stream.flush()
        except BrokenPipeError:
            code = 141
    return code


def entry() -> NoReturn:
    """Run main() as the process: flush, run the atexit handlers, flush
    again and end with os._exit, skipping the interpreter's teardown.

    A closed stdout pipe ends the process with 141 and no traceback.
    argparse's exits (2 on a usage error, 0 after --help) take the same
    path.  Under -u, argparse's --help meets a closed pipe itself, ignores
    the error and exits 0.
    """
    try:
        code = main()
    except BrokenPipeError:
        code = 141
    except SystemExit as exc:
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    code = _flushed(code)
    atexit._run_exitfuncs()
    os._exit(_flushed(code))


if __name__ == "__main__":
    entry()
