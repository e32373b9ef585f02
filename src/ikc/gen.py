"""Bounded enumeration and seeded random generation of terms and types.

The enumerators are exhaustive over their stated pools, so test suites can
quantify over "every well-formed term of size <= n" honestly.  The closed
enumerator names binders by nesting depth, which yields exactly one
representative per alpha class.
"""

from __future__ import annotations

import random
from functools import cache

from .syntax import (
    Abs,
    App,
    Index,
    Term,
    Var,
    joinable,
    prefix_leq,
)
from .types import (
    CanonT,
    CanonType,
    CanonType as CT,
    CArrow,
    CAtom,
    mk_canon,
)

# ---------------------------------------------------------------- terms

_NAMES = ("x", "y", "z")
_INDEXES: tuple[Index, ...] = ((), (1,))


def enumerate_terms(max_size: int) -> list[Term]:
    """All well-formed terms of size <= max_size over x, y, z and the
    indexes [] and [1]."""
    binders = [(n, i) for n in _NAMES for i in _INDEXES]
    by_size: list[list[Term]] = [[], [Var(n, i) for n, i in binders]]
    for size in range(2, max_size + 1):
        layer: list[Term] = []
        for body in by_size[size - 1]:
            for n, i in binders:
                if prefix_leq(body.degree, i):
                    layer.append(Abs(n, i, body))
        for fsize in range(1, size - 1):
            for f in by_size[fsize]:
                for a in by_size[size - 1 - fsize]:
                    if prefix_leq(f.degree, a.degree) and joinable(f, a):
                        layer.append(App(f, a))
        by_size.append(layer)
    return [m for layer in by_size for m in layer]


def enumerate_closed(max_size: int, degree: Index | None = None) -> list[Term]:
    """All closed terms of size <= max_size, one per alpha class, by size.

    Binders are named by nesting depth (v0, v1, ...), so distinct terms in
    the output are never alpha-equivalent.  When degree is given, only terms
    of exactly that degree are returned.
    """
    @cache
    def go(size: int, bound: tuple[tuple[str, Index], ...]) -> list[Term]:
        """The terms of exactly this size over the variables in bound."""
        if size == 1:
            return [Var(n, i) for n, i in bound]
        out = []
        name = f"v{len(bound)}"
        for i in _INDEXES:
            for body in go(size - 1, bound + ((name, i),)):
                if prefix_leq(body.degree, i):
                    out.append(Abs(name, i, body))
        for fsize in range(1, size - 1):
            for f in go(fsize, bound):
                for a in go(size - 1 - fsize, bound):
                    if prefix_leq(f.degree, a.degree):
                        out.append(App(f, a))
        return out

    return [
        m
        for size in range(1, max_size + 1)
        for m in go(size, ())
        if degree is None or m.degree == degree
    ]


def random_term(rng: random.Random, size: int) -> Term:
    """A pseudo-random well-formed term of at most the requested size."""
    if size <= 1:
        return Var(rng.choice(_NAMES), rng.choice(_INDEXES))
    shape = rng.random()
    if shape < 0.45 or size == 2:
        body = random_term(rng, size - 1)
        fits = [i for i in _INDEXES if prefix_leq(body.degree, i)]
        idx = rng.choice(fits) if fits else body.degree
        return Abs(rng.choice(_NAMES), idx, body)
    fsize = rng.randint(1, size - 2)
    for _ in range(8):
        f = random_term(rng, fsize)
        a = random_term(rng, size - 1 - fsize)
        if prefix_leq(f.degree, a.degree) and joinable(f, a):
            return App(f, a)
    return random_term(rng, size - 1)


# ---------------------------------------------------------------- types

_ATOMS = ("a", "b")
_HEADS = (0, 1)


def enumerate_canon_types(max_depth: int) -> list[CanonType]:
    """All canonical types over atoms a, b and heads 0, 1 up to a structural
    depth bound.

    Depth: an atom costs 1, an arrow costs 1 plus its deepest side, each
    expansion head costs 1, and an intersection of two components costs 1.
    Intersections are kept to at most two components, so the universe stays
    finite and small.
    """
    comps_at: dict[int, list[CanonT]] = {0: []}
    types_at: dict[int, list[CanonType]] = {0: []}

    def comps_upto(d: int) -> list[CanonT]:
        return [c for k in range(d + 1) for c in comps_at.get(k, [])]

    def types_upto(d: int) -> list[CanonType]:
        return [t for k in range(d + 1) for t in types_at.get(k, [])]

    for d in range(1, max_depth + 1):
        layer_c: list[CanonT] = []
        if d == 1:
            layer_c.extend(CAtom(a) for a in _ATOMS)
        for arg in types_upto(d - 1):
            for res in comps_upto(d - 1):
                layer_c.append(CArrow(arg, res))
        comps_at[d] = layer_c

        seen: set[CanonType] = set()
        layer_t: list[CanonType] = []

        def emit(t: CanonType) -> None:
            if t not in seen:
                seen.add(t)
                layer_t.append(t)

        for plen in range(0, d + 1):
            inner = d - plen
            prefixes = _prefixes(plen)
            for prefix in prefixes:
                if inner == 0:
                    emit(CT(prefix, ()))
                    continue
                for c in comps_at.get(inner, []):
                    emit(CT(prefix, (c,)))
                pool = comps_upto(inner - 1)
                for i, c1 in enumerate(pool):
                    for c2 in pool[i + 1:]:
                        emit(mk_canon(prefix, (c1, c2)))
        types_at[d] = [
            t for t in layer_t if t not in set(types_upto(d - 1))
        ]

    return types_upto(max_depth)


def _prefixes(length: int) -> list[Index]:
    out: list[Index] = [()]
    for _ in range(length):
        out = [p + (h,) for p in out for h in _HEADS]
    return [p for p in out if len(p) == length]


def random_canon_type(rng: random.Random, depth: int) -> CanonType:
    """A pseudo-random canonical type of bounded structural depth."""

    def comp(d: int) -> CanonT:
        if d <= 1 or rng.random() < 0.4:
            return CAtom(rng.choice(_ATOMS))
        return CArrow(go(d - 1), comp(d - 1))

    def go(d: int) -> CanonType:
        plen = rng.randint(0, min(d, 2))
        prefix = tuple(rng.choice(_HEADS) for _ in range(plen))
        inner = d - plen
        if inner <= 0:
            return CT(prefix, ())
        n = rng.choice((0, 1, 1, 1, 2))
        return mk_canon(prefix, tuple(comp(inner) for _ in range(n)))

    return go(depth)
