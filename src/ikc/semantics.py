"""Membership oracles for six sample interpretation types.

Each oracle decides whether a closed term inhabits the interpretation of
one fixed type by running the leftmost beta strategy to a normal form and
matching the result against the inhabitant patterns proved for that type:

    id0    (-> a a)                       reduces to  \\y.y
    id1    (e 1 (-> a a))                 reduces to  \\y(1).y(1)
    d      (-> (^ a (-> a b)) b)          reduces to  \\y.y y
    nat0   (-> (-> a a) (-> a a))         reduces to  \\f.f  or  \\f.\\y.f^n y, n >= 1
    nat1   (e 1 nat0)                     the degree-[1] lift of the nat0 patterns
    natp0  (-> (-> (e 1 a) a) (-> (e 1 a) a))
                                          reduces to  \\f.f  or  \\f.\\y(1).f y(1)

The patterns match the raw normal form, not an alpha-canonical copy: an
occurrence is matched to its binder by name and Index, which only a binder
shadowing another at the same Index could fool.  Only the iterator shape
has two binders at one Index, so it requires y != f.

Leftmost reduction is normalizing, so revisiting an alpha class during the
search is a definite refutation: the term has no beta normal form at all.
Only fuel exhaustion is reported as undecided, and it is kept distinct
from a definite non-member verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .envs import env_empty
from .errors import PreconditionError
from .reduction import LeftmostBeta, Relation, reachable
from .search import Found, Refuted, Unknown, bounded_typecheck
from .syntax import (
    BETA_BIT,
    Abs,
    App,
    Index,
    Term,
    Var,
    alpha_key,
    is_closed,
    lift,
    print_term,
)
from .types import CanonType, parse_type


class _ExampleTypes(dict):
    """The example types by tag; looking up an unknown tag raises
    PreconditionError, which is the one tag check of the oracles, the
    harness and the CLI."""

    def __missing__(self, tag: str) -> CanonType:
        raise PreconditionError(
            f"unknown interpretation tag: {tag}; "
            f"expected one of {', '.join(sorted(self))}"
        )


EXAMPLE_TYPES: dict[str, CanonType] = _ExampleTypes({
    "id0": parse_type("(-> a a)"),
    "id1": parse_type("(e 1 (-> a a))"),
    "d": parse_type("(-> (^ a (-> a b)) b)"),
    "nat0": parse_type("(-> (-> a a) (-> a a))"),
    "nat1": parse_type("(e 1 (-> (-> a a) (-> a a)))"),
    "natp0": parse_type("(-> (-> (e 1 a) a) (-> (e 1 a) a))"),
})


@dataclass(frozen=True, slots=True)
class OracleVerdict:
    member: bool
    undecided: bool = False
    witness: Term | None = None
    reason: str = ""


# ---------------------------------------------------------------- reduction


def leftmost_beta_nf(m: Term, fuel: int) -> tuple[Term | None, bool]:
    """Run leftmost beta steps to a normal form; fuel counts steps, and a
    term with no beta redex after fuel steps is the normal form.

    Returns (nf, False) on success, (None, True) when the leftmost path
    revisits an alpha class (no normal form exists), and (None, False)
    when fuel runs out first.
    """
    walk = LeftmostBeta(m)
    for _ in islice(walk, fuel):
        pass
    if walk.revisited is not None:
        return None, True
    if walk.term.redexes & BETA_BIT:
        return None, False
    return walk.term, False


# ---------------------------------------------------------------- patterns


def _is_id(nf: Term, idx: Index) -> bool:
    match nf:
        case Abs(v, i, Var(w, j)):
            return i == idx and j == idx and w == v
    return False


def _is_self_application(nf: Term) -> bool:
    match nf:
        case Abs(v, (), App(Var(w1, ()), Var(w2, ()))):
            return w1 == v and w2 == v
    return False


def _is_iterator(nf: Term, idx: Index) -> bool:
    # \f.f, or \f.\y.f(f(...(f y))) with at least one application
    match nf:
        case Abs(f, i, Var(w, j)):
            return i == idx and j == idx and w == f
        case Abs(f, i, Abs(y, i2, body)) if i == idx and i2 == idx and y != f:
            count = 0
            while True:
                match body:
                    case App(Var(w, j), rest) if w == f and j == idx:
                        count += 1
                        body = rest
                    case Var(w, j):
                        return w == y and j == idx and count >= 1
                    case _:
                        return False
    return False


def _is_applier(nf: Term) -> bool:
    # \f.f, or \f.\y(1).f y(1) with exactly one application
    match nf:
        case Abs(f, (), Var(w, ())):
            return w == f
        case Abs(f, (), Abs(y, (1,), App(Var(w1, ()), Var(w2, (1,))))):
            return w1 == f and w2 == y
    return False


_PATTERNS = {
    "id0": lambda nf: _is_id(nf, ()),
    "id1": lambda nf: _is_id(nf, (1,)),
    "d": _is_self_application,
    "nat0": lambda nf: _is_iterator(nf, ()),
    "nat1": lambda nf: _is_iterator(nf, (1,)),
    "natp0": _is_applier,
}


def oracle_membership(tag: str, m: Term, fuel: int = 2000) -> OracleVerdict:
    """Decide membership of m in the interpretation named by tag."""
    typ = EXAMPLE_TYPES[tag]
    if not is_closed(m):
        return OracleVerdict(False, reason="term has free variables")
    if m.degree != typ.degree:
        return OracleVerdict(
            False, reason=f"degree {list(m.degree)} does not match the type"
        )
    nf, cycled = leftmost_beta_nf(m, fuel)
    if nf is None:
        if cycled:
            return OracleVerdict(
                False, reason="no beta normal form on the leftmost path"
            )
        return OracleVerdict(False, undecided=True, reason="undecided within fuel")
    if _PATTERNS[tag](nf):
        return OracleVerdict(True, witness=nf)
    return OracleVerdict(
        False, witness=nf, reason="normal form does not match the inhabitant shape"
    )


# ---------------------------------------------------------------- harness


def soundness_check(d, tag: str, fuel: int = 2000) -> bool:
    """A closed derivation at an example type must have a member subject."""
    typ, j = EXAMPLE_TYPES[tag], d.judgment
    if len(j.env):
        raise PreconditionError("soundness check needs an empty environment")
    if j.typ != typ:
        raise PreconditionError("derivation does not conclude at the tagged type")
    v = oracle_membership(tag, j.subject, fuel)
    return v.member


@dataclass(slots=True)
class CompletenessReport:
    tag: str
    members: int = 0
    found: int = 0
    unknown: int = 0
    refuted: int = 0
    unknown_terms: list[Term] = field(default_factory=list)
    refuted_terms: list[Term] = field(default_factory=list)


def completeness_sample(
    tag: str, size_bound: int, fuel: int = 100000
) -> CompletenessReport:
    """Typecheck every oracle member of enumerate_closed(size_bound) at the
    tag's degree: refutations are hard violations."""
    from .gen import enumerate_closed

    typ = EXAMPLE_TYPES[tag]
    report = CompletenessReport(tag)
    for m in enumerate_closed(size_bound, degree=typ.degree):
        v = oracle_membership(tag, m)
        if not v.member:
            continue
        report.members += 1
        out = bounded_typecheck(m, env_empty(), typ, fuel)
        match out:
            case Found():
                report.found += 1
            case Refuted():
                report.refuted += 1
                report.refuted_terms.append(m)
            case Unknown():
                report.unknown += 1
                report.unknown_terms.append(m)
    return report


@dataclass(slots=True)
class SaturationReport:
    checked: int = 0
    violations: list[tuple[Term, Term]] = field(default_factory=list)


def saturation_check(
    members: list[Term],
    ambient: list[Term],
    r: Relation,
    depth: int,
) -> SaturationReport:
    """Expansion closure: anything reducing into the set must be in it.

    For every ambient term outside the member set, follow every reduction
    path for up to depth steps; the first member reached (reduction.reachable
    order) is a violation witness.
    """
    member_keys = {alpha_key(m) for m in members}
    report = SaturationReport()
    for m in ambient:
        report.checked += 1
        key = alpha_key(m)
        if key in member_keys:
            continue
        # one walk steps each key once, so it keeps no step cache, and no
        # alpha-variant leaks between terms; it stops at the first member
        space = reachable(m, key, r, depth, None)
        hit = next((t for k, t in space if k in member_keys), None)
        if hit is not None:
            report.violations.append((m, hit))
    return report


def lift_correspondence(
    tag1: str, tag0: str, sample: list[Term], fuel: int = 2000
) -> list[Term]:
    """Terms where membership at the lifted type disagrees with the base."""
    bad = []
    for m in sample:
        v0 = oracle_membership(tag0, m, fuel)
        v1 = oracle_membership(tag1, lift(m, 1), fuel)
        if v0.undecided or v1.undecided or v0.member != v1.member:
            bad.append(m)
    return bad


def verdict_line(m: Term, v: OracleVerdict) -> str:
    """One report line: term, verdict, detail."""
    if v.undecided:
        word = "undecided"
    else:
        word = "member" if v.member else "non-member"
    detail = v.reason
    if v.member and v.witness is not None:
        detail = f"normal form {print_term(v.witness)}"
    return f"{print_term(m)}\t{word}\t{detail}"
