"""Reduction engines: beta, eta, their union, and head reduction.

beta fires on (lam x^L. P) Q only when d(Q) = L; a degree mismatch is not an
error, the application is simply stuck.  eta fires on lam x^L. (P x^L) when
x^L is not free in P.  Head reduction contracts the spine-head beta redex
only, never under a binder, so its step set is empty or a singleton and is
always contained in the beta step set.

Reduction preserves the degree, never grows the free-variable set, and eta
preserves it exactly; the constructors re-check all of that on every rebuilt
term, so a violation would surface as a loud formation error.

Step enumeration reads the redex mask each term node stores (see syntax): it
is one explicit-stack walk that enters only the subtrees containing a redex
of the requested kind, so no walk recurses in step enumeration, whatever the
depth of the term, and first_step, iter_steps, LeftmostBeta and
check_local_confluence answer in O(1) on a normal form.  iter_steps is the
one step entry point, lazy so that the transports' search, which stops at
its first hit, never builds a reduct it does not try; step_positions is
its list.  The confluence checker tests the mask first (h the beta bit: a
head step is a beta step), so a redex-free query makes no step list, set or
alpha key.

step deduplicates reducts up to alpha by syntax.alpha_key, a flat name-free
tuple; equiv and the confluence checker carry each term's key with it, so no
term is keyed twice, and the confluence checker steps each term once per call.
first_step finds the leftmost-outermost step in one descent along the mask,
building no other reduct and no generator; under h the same descent stops
where it would leave the spine.  LeftmostBeta walks the leftmost beta path
for the oracles and the search.  It keys each reduct that still has a beta
redex, and its source: the mask is alpha-invariant, so the normal form that
ends a path can never repeat one of its earlier terms.  reachable is the
one depth-bounded reachable-set walk, lazy so that a caller can stop at its
first hit, shared by the confluence checker, semantics.saturation_check and
equiv, which runs two, one from each term.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .syntax import (
    BETA_BIT,
    ETA_BIT,
    Abs,
    App,
    Term,
    VarKey,
    alpha_eq,
    alpha_key,
    is_beta_redex,
    is_eta_redex,
    substitute,
)

Path = tuple[str, ...]  # entries: "fun" | "arg" | "body"


class Relation(Enum):
    BETA = "beta"
    ETA = "eta"
    BETAETA = "betaeta"
    H = "h"


def beta_contract(m: App) -> Term:
    f = m.fun
    assert isinstance(f, Abs)
    return substitute(f.body, VarKey(f.var, f.idx), m.arg)


def _rebuild(above: list[Term], path: list[str] | Path, r: Term) -> Term:
    """m with r in place of the node that path leads to; above holds the
    nodes along path, m first."""
    for t, way in zip(reversed(above), reversed(path)):
        if way == "body":
            r = Abs(t.var, t.idx, r)
        elif way == "fun":
            r = App(r, t.arg)
        else:
            r = App(t.fun, r)
    return r


def _tagged(m: Term, kinds: int) -> Iterator[tuple[str, Path, Term]]:
    """The steps of m whose kind bit is in kinds, leftmost-outermost, with
    positions.

    One explicit-stack preorder walk that enters only the subtrees whose
    redex mask meets kinds, so a normal form costs O(1) and no depth of m
    recurses.  Lazy: a reduct is built, by rebuilding its path, only when its
    step is pulled.
    """
    if not m.redexes & kinds:
        return
    above: list[Term] = []  # the ancestors of the node being visited
    path: list[str] = []  # path[i] leads from above[i] towards that node
    todo: list[tuple[Term, int, str]] = [(m, 0, "")]
    while todo:
        t, depth, way = todo.pop()
        del above[depth:]
        if depth:
            del path[depth - 1 :]
            path.append(way)
        if isinstance(t, App):
            if kinds & BETA_BIT and is_beta_redex(t):
                yield "beta", tuple(path), _rebuild(above, path, beta_contract(t))
            above.append(t)
            if t.arg.redexes & kinds:
                todo.append((t.arg, depth + 1, "arg"))
            if t.fun.redexes & kinds:
                todo.append((t.fun, depth + 1, "fun"))
        else:  # an Abs: a Var has no redex, so it is never entered
            if kinds & ETA_BIT and is_eta_redex(t):
                yield "eta", tuple(path), _rebuild(above, path, t.body.fun)
            above.append(t)
            if t.body.redexes & kinds:
                todo.append((t.body, depth + 1, "body"))


_KINDS = {
    Relation.BETA: BETA_BIT,
    Relation.ETA: ETA_BIT,
    Relation.BETAETA: BETA_BIT | ETA_BIT,
    Relation.H: BETA_BIT,  # a head step is a beta step
}


def first_step(m: Term, r: Relation) -> tuple[str, Path, Term] | None:
    """The leftmost-outermost step of m, step_positions(m, r)[0], or None.

    One descent along the mask.  A head step lies on the spine, so under h
    the descent gives up where it would leave the spine."""
    kinds = _KINDS[r]
    if not m.redexes & kinds:
        return None
    spine_only = r is Relation.H
    # a node whose mask meets kinds is a redex, or its leftmost such part holds one
    above: list[Term] = []  # the nodes along path, m first
    path: list[str] = []
    t = m
    while True:
        if t.__class__ is App:
            if kinds & BETA_BIT and is_beta_redex(t):
                return "beta", tuple(path), _rebuild(above, path, beta_contract(t))
            way = "fun" if t.fun.redexes & kinds else "arg"
        elif kinds & ETA_BIT and is_eta_redex(t):  # an Abs; a Var has no redex
            return "eta", tuple(path), _rebuild(above, path, t.body.fun)
        else:
            way = "body"
        if spine_only and way != "fun":
            return None
        above.append(t)
        path.append(way)
        t = getattr(t, way)


def iter_steps(m: Term, r: Relation) -> Iterator[tuple[str, Path, Term]]:
    """(kind, path, reduct) triples in leftmost-outermost order, no dedup,
    lazily: a reduct is built when its step is pulled.  h has at most one
    step, which first_step finds."""
    if r is Relation.H:
        return iter((hit,) if (hit := first_step(m, r)) else ())
    return _tagged(m, _KINDS[r])


def step_positions(m: Term, r: Relation) -> list[tuple[str, Path, Term]]:
    """The steps of iter_steps(m, r), as a list."""
    return list(iter_steps(m, r))


def _keyed_steps(m: Term, r: Relation) -> list[tuple[tuple, Term]]:
    """step(m, r) with each reduct's alpha key: (key, reduct) pairs."""
    out: list[tuple[tuple, Term]] = []
    seen = set()
    for _, _, reduct in iter_steps(m, r):
        key = alpha_key(reduct)
        if key not in seen:
            seen.add(key)
            out.append((key, reduct))
    return out


def step(m: Term, r: Relation) -> list[Term]:
    """One-step reducts, deduplicated up to alpha, leftmost-outermost order."""
    return [reduct for _, reduct in _keyed_steps(m, r)]


# ---------------------------------------------------------------- normalize


@dataclass(frozen=True)
class NormalForm:
    term: Term
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    term: Term
    steps: int


ReductionOutcome = Union[NormalForm, FuelExhausted]


def normalize(m: Term, r: Relation, fuel: int) -> ReductionOutcome:
    """Deterministic leftmost-outermost normalisation; fuel counts steps."""
    steps = 0
    while steps < fuel:
        nxt = first_step(m, r)
        if nxt is None:
            return NormalForm(m, steps)
        m = nxt[2]
        steps += 1
    if first_step(m, r) is None:
        return NormalForm(m, steps)
    return FuelExhausted(m, steps)


class LeftmostBeta:
    """The leftmost beta path from a term: iterating takes one step per item
    and yields (source, path to the redex), leaving the reduct in .term.  It
    ends at a normal form (in .term), or at a reduct whose alpha class came
    before (in .revisited), which proves there is no normal form since
    leftmost reduction is normalising.  Callers own the budget."""

    __slots__ = ("term", "revisited")

    def __init__(self, m: Term):
        self.term = m
        self.revisited: Term | None = None

    def __iter__(self) -> Iterator[tuple[Term, Path]]:
        seen, key = set(), None
        while (hit := first_step(self.term, Relation.BETA)) is not None:
            source, self.term = self.term, hit[2]
            # a normal form cannot repeat a term of the path: it is not keyed
            if self.term.redexes & BETA_BIT:
                seen.add(key or alpha_key(source))
                key = alpha_key(self.term)
                if key in seen:
                    self.revisited = self.term
                    return
            yield source, hit[1]


# ---------------------------------------------------------------- equivalence


class Verdict(Enum):
    EQUIVALENT = "Equivalent"
    DISTINCT = "Distinct"
    UNKNOWN = "Unknown"


def equiv(m: Term, n: Term, r: Relation, fuel: int) -> Verdict:
    """Search for a common reduct: a reachable walk from each term, taking
    one term from each in turn.

    Equivalent when a walk finds an alpha key the other walk has found;
    Distinct when both walks end without meeting, or both terms normalise
    to non-alpha-equal normal forms; Unknown when fuel, which counts the
    reducts the walks find, ran out first.
    """
    ka, kb = alpha_key(m), alpha_key(n)
    if ka == kb:
        return Verdict.EQUIVALENT
    # a walk never repeats a key, so a key found twice was found by both;
    # that ends the search before either walk steps it, so the walks keep
    # no step cache.  A walk yields fuel reducts before its depth bound can
    # end it.
    walks = [reachable(m, ka, r, fuel, None), reachable(n, kb, r, fuel, None)]
    for walk in walks:  # past m and n themselves, which fuel does not count
        next(walk)
    found = {ka, kb}
    budget = fuel
    while walks and budget > 0:
        walk = walks.pop(0)
        hit = next(walk, None)
        if hit is None:
            continue
        if hit[0] in found:
            return Verdict.EQUIVALENT
        found.add(hit[0])
        budget -= 1
        walks.append(walk)
    if not walks:
        return Verdict.DISTINCT
    na, nb = normalize(m, r, fuel), normalize(n, r, fuel)
    if isinstance(na, NormalForm) and isinstance(nb, NormalForm):
        if not alpha_eq(na.term, nb.term):
            return Verdict.DISTINCT
        return Verdict.EQUIVALENT
    return Verdict.UNKNOWN


# ---------------------------------------------------------------- confluence


@dataclass
class ConfluenceReport:
    peaks_checked: int
    unjoined: list[tuple[Term, Term, Term]]

    @property
    def ok(self) -> bool:
        return not self.unjoined


def reachable(
    m: Term, key: tuple, r: Relation, depth: int, cache: dict | None
) -> Iterator[tuple[tuple, Term]]:
    """The terms reachable from m within depth r-steps, as (alpha key, term)
    pairs in discovery order (breadth-first, each term's reducts in
    leftmost-outermost order), m first; key is m's.  Lazy: a term is stepped
    only when the pairs before its reducts have been taken, so a caller that
    stops early steps no further.  cache maps a key to its term's
    _keyed_steps, for one r only; it may start empty, and it is filled as
    terms are stepped.  A caller whose walks never step one key twice
    passes None, so that no term is kept once its reducts are found."""
    yield key, m
    seen = {key}
    front = [(key, m)]
    for _ in range(depth):
        nxt = []
        for k, t in front:
            steps = None if cache is None else cache.get(k)
            if steps is None:
                steps = _keyed_steps(t, r)
                if cache is not None:
                    cache[k] = steps
            for k2, reduct in steps:
                if k2 not in seen:
                    seen.add(k2)
                    nxt.append((k2, reduct))
                    yield k2, reduct
        if not nxt:
            break
        front = nxt


def check_local_confluence(m: Term, r: Relation, depth: int) -> ConfluenceReport:
    """Check every peak among terms reachable from m within depth steps.

    A peak t1 <- t -> t2 counts as joined when the reducts of t1 and t2 share
    a term within depth + 2 further steps.  Each term is stepped once per
    call: the peaks and the join searches share one cache.

    The redex mask answers first, so a term with no redex of r's kinds, the
    common query, is neither stepped nor keyed.  h tests the beta bit, since
    every head step is a beta step; but a beta redex off the head is no head
    step, so under h alone a term can pass the mask and still have no step.
    """
    if not m.redexes & _KINDS[r]:
        return ConfluenceReport(0, [])
    first = _keyed_steps(m, r)
    if not first:  # h only: no beta redex at the head
        return ConfluenceReport(0, [])
    key = alpha_key(m)
    cache = {key: first}
    space = dict(reachable(m, key, r, depth, cache))
    # step the outermost terms before any join search can cache an
    # alpha-variant of one of them, so each peak shows the term in space
    for k, t in space.items():
        if k not in cache:
            cache[k] = _keyed_steps(t, r)
    peaks = 0
    unjoined: list[tuple[Term, Term, Term]] = []
    for k, t in space.items():
        reducts = cache[k]
        if len(reducts) < 2:
            continue
        for i in range(len(reducts)):
            for j in range(i + 1, len(reducts)):
                peaks += 1
                (k1, t1), (k2, t2) = reducts[i], reducts[j]
                if not _joinable(t1, k1, t2, k2, r, depth + 2, cache):
                    unjoined.append((t, t1, t2))
    return ConfluenceReport(peaks, unjoined)


def _joinable(
    t1: Term, k1: tuple, t2: Term, k2: tuple, r: Relation, depth: int, cache: dict
) -> bool:
    """Whether t1 and t2 share a reduct within depth steps: the second walk
    stops at the first key the first one reached."""
    a = {k for k, _ in reachable(t1, k1, r, depth, cache)}
    return any(k in a for k, _ in reachable(t2, k2, r, depth, cache))
