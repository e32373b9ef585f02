"""Brute-force subtyping oracle by bounded rule-derivation search.

This is an independent route to the subtype relation: instead of the
syntax-directed decision procedure in types.py, it saturates a set of
inference rules over a finite universe of types, counting rule depth.
A pair (u, v) is accepted when some derivation of depth <= 4
concludes u <= v.  Rules:

    refl        u <= u
    proj        comps(v) a subset of comps(u), same prefix
    arrow       A2 <= A1 and T1 <= T2 imply (A1 -> T1) <= (A2 -> T2)
    strip       (w [] cs) <= (w [] ds) implies (w P cs) <= (w P ds)
    meet        u <= each singleton component of v implies u <= v
    trans       u <= w and w <= v imply u <= v

Each round of saturation applies every rule once to the facts of the
previous round, so facts present after round k are exactly the pairs
with a derivation of depth <= k.
"""

from __future__ import annotations

from .types import (
    CanonType,
    CanonType as CT,
    CArrow,
    type_key,
)

# ---------------------------------------------------------------- universe


def closure_universe(types: list[CanonType]) -> list[CanonType]:
    """Close the input set under the subterms rule premises mention.

    Adds per-component singletons, the omega type at each prefix, arrow
    arguments, arrow results as degree-[] singletons, and full prefix
    strips.
    """
    seen: set[CanonType] = set()
    todo = list(types)
    while todo:
        u = todo.pop()
        if u in seen:
            continue
        seen.add(u)
        todo.append(CT(u.prefix, ()))
        if u.prefix:
            todo.append(CT((), u.comps))
        for c in u.comps:
            todo.append(CT(u.prefix, (c,)))
            if isinstance(c, CArrow):
                todo.append(c.arg)
                todo.append(CT((), (c.res,)))
    return sorted(seen, key=type_key)


# ---------------------------------------------------------------- saturation


def derivable_pairs(types: list[CanonType]) -> set[tuple[CanonType, CanonType]]:
    """All pairs of universe types related by a derivation of depth <= 4."""
    universe = closure_universe(types)
    by_prefix: dict[tuple[int, ...], list[CanonType]] = {}
    for u in universe:
        by_prefix.setdefault(u.prefix, []).append(u)

    sup: dict[CanonType, set[CanonType]] = {u: set() for u in universe}
    sub: dict[CanonType, set[CanonType]] = {u: set() for u in universe}

    def add(u: CanonType, v: CanonType) -> bool:
        if v in sup[u]:
            return False
        sup[u].add(v)
        sub[v].add(u)
        return True

    # depth-1 axioms
    for group in by_prefix.values():
        for u in group:
            for v in group:
                if u is v or set(v.comps) <= set(u.comps):
                    add(u, v)

    for _ in range(3):  # depths 2 to 4
        new: list[tuple[CanonType, CanonType]] = []
        for group in by_prefix.values():
            for u in group:
                known = sup[u]
                for v in group:
                    if v in known:
                        continue
                    if _one_rule(u, v, sup, sub):
                        new.append((u, v))
        if not new:
            break
        for u, v in new:
            add(u, v)

    return {(u, v) for u in universe for v in sup[u]}


def _one_rule(
    u: CanonType,
    v: CanonType,
    sup: dict[CanonType, set[CanonType]],
    sub: dict[CanonType, set[CanonType]],
) -> bool:
    """Can some rule conclude u <= v from the facts accumulated so far?"""
    if set(v.comps) <= set(u.comps):
        return True
    # trans: some w with u <= w <= v
    if not sup[u].isdisjoint(sub[v]):
        return True
    # meet: u below every singleton of v (v needs two or more components)
    if len(v.comps) >= 2:
        if all(CT(v.prefix, (c,)) in sup[u] for c in v.comps):
            return True
    # strip: reduce a shared nonempty prefix to the degree-[] core
    if u.prefix:
        cu, cv = CT((), u.comps), CT((), v.comps)
        if cv in sup.get(cu, ()):
            return True
    # arrow: singleton arrows, contravariant argument, covariant result
    if len(u.comps) == 1 and len(v.comps) == 1 and not u.prefix:
        cu, cv = u.comps[0], v.comps[0]
        if isinstance(cu, CArrow) and isinstance(cv, CArrow):
            r1, r2 = CT((), (cu.res,)), CT((), (cv.res,))
            if cu.arg in sup.get(cv.arg, ()) and r2 in sup.get(r1, ()):
                return True
    return False
