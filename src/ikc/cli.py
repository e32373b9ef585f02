"""Command-line front end for the kernel.

Exit codes: 0 for a positive verdict, 1 for a negative one (subtype false,
non-member, refuted or unknown search, failed check), 2 for input errors,
usage errors included.
Arguments ending in .trm/.typ/.env/.jdg/.drv are read from files; anything
else is parsed as a literal s-expression.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .derivations import parse_derivation, print_derivation
from .envs import env_empty, parse_env, print_judgment
from .errors import InputSyntaxError, KernelError, RuleError
from .gen import enumerate_closed
from .props import SUITES, run_suites
from .reduction import (
    FuelExhausted,
    NormalForm,
    Relation,
    Verdict,
    check_local_confluence,
    equiv,
    first_step,
    normalize,
)
from .search import Found, Refuted, Unknown, bounded_typecheck
from .semantics import (
    EXAMPLE_TYPES,
    completeness_sample,
    oracle_membership,
    saturation_check,
    soundness_check,
    verdict_line,
)
from .syntax import free_vars, parse_term, print_term
from .transform import subject_expand_beta, subject_reduce
from .types import parse_type, print_type, subtype

_FILE_EXTS = (".trm", ".typ", ".env", ".jdg", ".drv")


def _load(arg: str) -> str:
    if arg.endswith(_FILE_EXTS):
        p = Path(arg)
        if not p.is_file():
            raise InputSyntaxError(f"no such file: {arg}")
        try:
            return p.read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise InputSyntaxError(f"{arg}: not UTF-8 text ({e.reason})") from None
    return arg


def _natural(text: str) -> int:
    """text as a natural number, as IKC_FUEL and every int option must be."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {text!r}")
    return n


def _default_fuel() -> int:
    text = os.environ.get("IKC_FUEL", "10000")
    try:
        return _natural(text)
    except argparse.ArgumentTypeError as e:
        raise InputSyntaxError(f"IKC_FUEL {e}") from None


# ---------------------------------------------------------------- verbs


def _cmd_check_term(ns) -> int:
    try:
        m = parse_term(_load(ns.term))
    except InputSyntaxError:  # unreadable text is an input error, not an answer
        raise
    except KernelError as e:
        print(f"ill-formed\t{e}")
        return 1
    fv = ", ".join(
        f"{k.name}{list(k.idx)}"
        for k in sorted(free_vars(m), key=lambda k: (k.name, k.idx))
    )
    print(f"{print_term(m)}\tok\tdegree {list(m.degree)}; free [{fv}]")
    return 0


def _cmd_reduce(ns) -> int:
    m = parse_term(_load(ns.term))
    r = Relation(ns.rel)
    print(print_term(m))
    for _ in range(ns.fuel):
        nxt = first_step(m, r)
        if nxt is None:
            break
        kind, path, m = nxt
        print(f"  -{kind}-> {print_term(m)}")
    return 0


def _cmd_nf(ns) -> int:
    m = parse_term(_load(ns.term))
    out = normalize(m, Relation(ns.rel), ns.fuel)
    match out:
        case NormalForm(term, steps):
            print(f"{print_term(term)}\tnormal\t{steps} steps")
            return 0
        case FuelExhausted(term, steps):
            print(f"{print_term(term)}\tfuel exhausted\t{steps} steps")
            return 1
    raise AssertionError(out)


def _cmd_equiv(ns) -> int:
    m = parse_term(_load(ns.term))
    n = parse_term(_load(ns.other))
    v = equiv(m, n, Relation(ns.rel), ns.fuel)
    print(v.value)
    return 0 if v is Verdict.EQUIVALENT else 1


def _cmd_confluence(ns) -> int:
    m = parse_term(_load(ns.term))
    report = check_local_confluence(m, Relation(ns.rel), ns.size)
    if report.unjoined:
        t, a, b = report.unjoined[0]
        print(
            f"{print_term(t)}\tunjoined\t{print_term(a)} vs {print_term(b)}"
        )
        return 1
    print(f"{print_term(m)}\tconfluent\t{report.peaks_checked} peaks joined")
    return 0


def _cmd_subtype(ns) -> int:
    u = parse_type(_load(ns.left))
    v = parse_type(_load(ns.right))
    ok = subtype(u, v)
    print(f"{print_type(u)} <= {print_type(v)}\t{'true' if ok else 'false'}")
    return 0 if ok else 1


def _cmd_check_deriv(ns) -> int:
    try:
        d = parse_derivation(_load(ns.deriv))
    except RuleError as e:
        print(f"invalid\t{e}")
        return 1
    print(print_judgment(d.judgment))
    return 0


def _cmd_transport(ns) -> int:
    """sr and expand: carry a certificate to another subject."""
    try:
        d = parse_derivation(_load(ns.deriv))
    except RuleError as e:
        print(f"failed\t{e}")
        return 1
    m = parse_term(_load(ns.term))
    try:
        if ns.verb == "sr":
            d2 = subject_reduce(d, m, Relation(ns.rel), ns.fuel)
        else:
            d2 = subject_expand_beta(d, m, ns.fuel)
    except KernelError as e:
        print(f"failed\t{e}")
        return 1
    if ns.out:  # written first, so a failed write prints no verdict
        Path(ns.out).write_text(print_derivation(d2) + "\n")
    print(print_judgment(d2.judgment))
    return 0


def _cmd_typecheck(ns) -> int:
    m = parse_term(_load(ns.term))
    g = parse_env(_load(ns.env)) if ns.env else env_empty()
    u = parse_type(_load(ns.type))
    out = bounded_typecheck(m, g, u, ns.fuel)
    match out:
        case Found(d):
            if ns.out:
                Path(ns.out).write_text(print_derivation(d) + "\n")
            print(print_judgment(d.judgment))
            return 0
        case Refuted(reason):
            print(f"RefutedByGeneration\t{reason}")
            return 1
        case Unknown(reason):
            print(f"Unknown\t{reason}")
            return 1
    raise AssertionError(out)


def _cmd_oracle(ns) -> int:
    m = parse_term(_load(ns.term))
    v = oracle_membership(ns.tag, m, ns.fuel)
    print(verdict_line(m, v))
    return 0 if v.member else 1


def _cmd_soundness(ns) -> int:
    d = parse_derivation(_load(ns.deriv))
    ok = soundness_check(d, ns.tag, ns.fuel)
    print(f"soundness\t{'pass' if ok else 'FAIL'}\t{ns.tag}")
    return 0 if ok else 1


def _cmd_completeness(ns) -> int:
    r = completeness_sample(ns.tag, ns.size, ns.fuel)
    for m in r.refuted_terms:
        print(f"{print_term(m)}\trefuted\tcompleteness violation")
    for m in r.unknown_terms:
        print(f"{print_term(m)}\tunknown\tsearch gave up")
    print(
        f"{ns.tag}\t{'pass' if r.refuted == 0 else 'FAIL'}\t"
        f"members {r.members}, found {r.found}, unknown {r.unknown}, "
        f"refuted {r.refuted}"
    )
    return 0 if r.refuted == 0 else 1


def _cmd_saturation(ns) -> int:
    degree = EXAMPLE_TYPES[ns.tag].degree
    ambient = enumerate_closed(ns.size + 2, degree=degree)
    members = [m for m in ambient if oracle_membership(ns.tag, m, ns.fuel).member]
    report = saturation_check(members, ambient, Relation(ns.rel))
    for m, hit in report.violations[:10]:
        print(f"{print_term(m)}\tescapes\treaches {print_term(hit)}")
    ok = not report.violations
    print(
        f"{ns.tag}\t{'pass' if ok else 'FAIL'}\t"
        f"{len(members)} members, {report.checked} ambient terms"
    )
    return 0 if ok else 1


def _cmd_props(ns) -> int:
    try:
        results = run_suites(ns.suite, ns.size, ns.seed)
    except KeyError as e:
        raise InputSyntaxError(
            f"unknown suite {e.args[0]}; expected one of {', '.join(sorted(SUITES))}"
        ) from None
    ok = True
    for r in results:
        print(f"{r.name}\t{'pass' if r.ok else 'FAIL'}\t{r.detail}")
        ok = ok and r.ok
    return 0 if ok else 1


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error; subparsers share the class."""

    def error(self, message):
        raise InputSyntaxError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    fuel = _default_fuel()
    top = _Parser(
        prog="ikc",
        description="kernel for a degree-indexed lambda-calculus with "
        "intersection types and expansion heads",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    rels = [r.value for r in Relation]

    def verb(name, handler, *positionals, **options):
        """Add a verb: its positionals, then its options in the order given.
        A name ending in * takes any number of words; an int default makes a
        natural-number option, ... a required one, and --rel takes a relation
        name."""
        p = sub.add_parser(name)
        for arg in positionals:
            p.add_argument(arg.rstrip("*"), nargs="*" if arg.endswith("*") else None)
        for opt, default in options.items():
            if default is ...:
                p.add_argument(f"--{opt}", required=True)
            else:
                p.add_argument(
                    f"--{opt}",
                    default=default,
                    type=_natural if isinstance(default, int) else None,
                    choices=rels if opt == "rel" else None,
                )
        p.set_defaults(handler=handler)

    verb("check-term", _cmd_check_term, "term")
    verb("reduce", _cmd_reduce, "term", rel="beta", fuel=min(fuel, 100))
    verb("nf", _cmd_nf, "term", rel="beta", fuel=fuel)
    verb("equiv", _cmd_equiv, "term", "other", rel="beta", fuel=fuel)
    verb("confluence", _cmd_confluence, "term", rel="beta", size=3)
    verb("subtype", _cmd_subtype, "left", "right")
    verb("check-deriv", _cmd_check_deriv, "deriv")
    verb("sr", _cmd_transport, "deriv", "term", rel="betaeta", fuel=fuel, out=None)
    verb("expand", _cmd_transport, "deriv", "term", fuel=fuel, out=None)
    verb(
        "typecheck", _cmd_typecheck, "term",
        env="", type=..., fuel=max(fuel, 100000), out=None,
    )
    verb("oracle", _cmd_oracle, "tag", "term", fuel=2000)
    verb("soundness", _cmd_soundness, "deriv", "tag", fuel=2000)
    verb("completeness", _cmd_completeness, "tag", size=7, fuel=max(fuel, 100000))
    verb("saturation", _cmd_saturation, "tag", size=7, rel="beta", fuel=2000)
    verb("props", _cmd_props, "suite*", size=4, seed=0)
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        return ns.handler(ns)
    except (KernelError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except RecursionError:  # the node parsers and printers still recurse
        print("input error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:  # equiv's reachable sets can outgrow memory
        print("input error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
