"""Seeded, reproducible property suites over the kernel.

Each suite returns (name, ok, detail) so callers can print one line per
property.  The suites are deliberately closed-form: enumeration bounds and
seeds fully determine the work, so two runs with the same flags agree.

The checks behind the suites return every violation they find, and the
acceptance tests run the same checks on their own pools.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gen import (
    enumerate_canon_types,
    enumerate_terms,
    random_canon_type,
    random_term,
)
from .reduction import Relation, check_local_confluence, step_positions
from .rulesearch import derivable_pairs
from .syntax import Term, free_vars, lift
from .types import CanonT, CanonType, CArrow, CAtom, mk_canon, omega, print_type, subtype


@dataclass(slots=True)
class PropResult:
    name: str
    ok: bool
    detail: str


def _result(name: str, bad: list, detail: str) -> PropResult:
    """A pass with detail, or a failure naming the first violation."""
    if bad:
        return PropResult(name, False, f"{len(bad)} violations, first {bad[0]}")
    return PropResult(name, True, detail)


def step_violations(pool: list[Term]) -> tuple[int, list]:
    """Step every term under every relation.  A reduct keeps the term's
    degree and gains no free variable; an eta-kind step, under betaeta too,
    keeps the free variables exactly.  Returns the number of steps and the
    violations as (what, relation value, term, reduct)."""
    steps = 0
    bad = []
    for m in pool:
        fv = free_vars(m)
        for rel in Relation:
            for kind, _, reduct in step_positions(m, rel):
                steps += 1
                if reduct.degree != m.degree:
                    bad.append(("degree", rel.value, m, reduct))
                fv2 = free_vars(reduct)
                if kind == "eta":
                    if fv2 != fv:
                        bad.append(("eta-fv", rel.value, m, reduct))
                elif not fv2 <= fv:
                    bad.append(("fv-grew", rel.value, m, reduct))
    return steps, bad


def prop_step_invariants(size: int, seed: int) -> PropResult:
    pool = enumerate_terms(size)
    rng = random.Random(seed)
    pool += [random_term(rng, size + 3) for _ in range(200)]
    steps, bad = step_violations(pool)
    return _result("step-invariants", bad, f"{steps} steps checked")


def prop_lift_step_commute(size: int, seed: int) -> PropResult:
    """Lifting a term lifts each of its reducts, step for step."""
    pool = enumerate_terms(min(size, 5))
    rng = random.Random(seed)
    pool += [random_term(rng, size) for _ in range(200)]
    bad = []
    for m in pool:
        up = lift(m, 1)
        for r in Relation:
            lifted = [lift(reduct, 1) for _, _, reduct in step_positions(m, r)]
            if lifted != [reduct for _, _, reduct in step_positions(up, r)]:
                bad.append((r.value, m))
    pairs = len(pool) * len(Relation)
    return _result("lift-step-commute", bad, f"{pairs} term/relation pairs")


def _weaken(rng, u: CanonType) -> CanonType:
    # guaranteed supertype: drop components, weaken the survivors
    if not u.comps or rng.random() < 0.1:
        return omega(u.prefix)
    keep = [c for c in u.comps if rng.random() < 0.75]
    return mk_canon(u.prefix, [_weaken_comp(rng, c) for c in keep])


def _weaken_comp(rng, c: CanonT) -> CanonT:
    if isinstance(c, CAtom) or rng.random() < 0.4:
        return c
    arg = _strengthen(rng, c.arg) if rng.random() < 0.5 else c.arg
    res = _weaken_comp(rng, c.res) if rng.random() < 0.7 else c.res
    return CArrow(arg, res)


def _strengthen(rng, u: CanonType) -> CanonType:
    # guaranteed subtype: intersect with extra components
    extra = random_canon_type(rng, 2)
    return mk_canon(u.prefix, list(u.comps) + list(extra.comps))


def subtype_order_violations(count: int, seed: int) -> list[tuple[str, ...]]:
    """Reflexivity, the omega top and transitivity on count random types u,
    each with a chain u <= v <= w built by weakening.  Returns the
    violations as (what, printed types...)."""
    rng = random.Random(seed)
    broken = []
    for _ in range(count):
        u = random_canon_type(rng, rng.randint(1, 4))
        if not subtype(u, u):
            broken.append(("refl", print_type(u)))
        if not subtype(u, omega(u.prefix)):
            broken.append(("omega-top", print_type(u)))
        v = _weaken(rng, u)
        w = _weaken(rng, v)
        if not (subtype(u, v) and subtype(v, w)):
            broken.append(("chain", print_type(u), print_type(v), print_type(w)))
        elif not subtype(u, w):
            broken.append(("trans", print_type(u), print_type(w)))
    return broken


def prop_subtype_order(count: int, seed: int) -> PropResult:
    """Reflexivity, transitivity, and the omega top at each degree."""
    bad = subtype_order_violations(count, seed)
    return _result("subtype-order", bad, f"{count} types, {count} weakening chains transitive")


def subtype_oracle_disagreements(tys: list[CanonType]) -> list[tuple[CanonType, CanonType]]:
    """The pairs of tys on which subtype and the bounded rule-derivation
    search disagree."""
    facts = derivable_pairs(tys)
    return [(u, v) for u in tys for v in tys if subtype(u, v) != ((u, v) in facts)]


def prop_subtype_oracle(depth: int = 2) -> PropResult:
    """Decision procedure against the bounded rule-derivation search."""
    tys = enumerate_canon_types(depth)
    bad = subtype_oracle_disagreements(tys)
    return _result("subtype-oracle", bad, f"{len(tys)} types, {len(tys)**2} pairs agree")


def unjoined_peaks(pool: list[Term], relations, depth: int = 3) -> tuple[int, list]:
    """Check local confluence of every term under every relation.  Returns
    the number of peaks checked and the unjoined ones as (relation, term,
    peak term)."""
    peaks = 0
    unjoined = []
    for m in pool:
        for rel in relations:
            report = check_local_confluence(m, rel, depth)
            peaks += report.peaks_checked
            unjoined += [(rel, m, t) for t, _, _ in report.unjoined]
    return peaks, unjoined


def prop_local_confluence(size: int, depth: int = 3) -> PropResult:
    pool = enumerate_terms(size)
    _, bad = unjoined_peaks(pool, Relation, depth)
    return _result("local-confluence", bad, f"{len(pool)} terms x {len(Relation)} relations")


SUITES = {
    "step-invariants": prop_step_invariants,
    "lift-step-commute": prop_lift_step_commute,
    "subtype-order": lambda size, seed: prop_subtype_order(max(size, 4) * 250, seed),
    "subtype-oracle": lambda size, seed: prop_subtype_oracle(min(size, 3)),
    "local-confluence": lambda size, seed: prop_local_confluence(min(size, 5)),
}


def run_suites(names: list[str], size: int, seed: int) -> list[PropResult]:
    """Run the named suites, or all; KeyError names the first unknown one,
    before any suite runs."""
    picked = names or sorted(SUITES)
    for name in picked:
        if name not in SUITES:
            raise KeyError(name)
    return [SUITES[name](size, seed) for name in picked]
