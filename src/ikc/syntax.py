"""Degree-indexed terms: formation, substitution, lifting, alpha handling.

Every variable carries an Index (a finite sequence of naturals).  Formation
is enforced at construction time:

    x^L           degree L
    lam x^L. M    requires d(M) prefix-of L;  degree d(M)
    (M N)         requires d(M) prefix-of d(N) and M, N joinable;  degree d(M)

Joinability: a variable name free in both parts must carry the same Index in
both.  Within one well-formed term the free-variable map name -> Index is
therefore functional, and every Index occurring in M (free or binder) extends
d(M).  Those two facts are load-bearing for lowering and for the environment
layer, so constructors check them eagerly, and store each node's degree.

A node's free-variable map (_fv) is hash-consed: there is one map object per
distinct free-variable set, held by a table for the life of the process,
and every node's map is that table's object (pickling and copying rebuild a
node through its constructor, so copies keep this invariant).  A Var takes
its map from a table keyed by (name, Index); an Abs that binds a free name
of its body and an App whose parts have different maps look their result up
in memo tables keyed by the identities of the maps they combine, which the
invariant makes sound, and a new result is first looked up by its contents.
So no map is mutated once made, and building a node allocates no map once
its set has been seen.  The map is the one record of a term's free
variables: free_vars, joinable and the layers above read it, and none
rebuilds it.  A JoinabilityError names the first clashing name in a fixed
order of the argument's free names (_fv_order), not in the order the
shared map happens to hold.

Each node also stores its redex mask (redexes): BETA_BIT is set when the node
contains a beta redex (an App (lam x^L. P) Q with d(Q) = L) and ETA_BIT when
it contains an eta redex (lam x^L. (P x^L) with x^L not free in P), itself
included.  The constructors set it in O(1) from the parts' masks and the
same tests as is_beta_redex/is_eta_redex, so step enumeration (reduction)
skips a redex-free subtree without walking it, needs no recursion, and
answers on a normal form in O(1).  A variable contains no redex, so Var's
mask is the class constant 0.

_fold is the one bottom-up explicit-stack walk over a term, with a builder
per node kind: lift and lower (through _reindex, which maps every Index;
lower strips a whole prefix, like types.lower_type), all_names and
_fv_order are calls of it.  is_lift decides n == lift(m, i) by one walk
that builds no term, so a rule node that is handed its subject checks it
instead of lifting.  alpha_canon is read back from alpha_key, whose one
walk numbers the binders.  print_term is an explicit-stack walk too, so a
term of any depth prints.  substitute takes one binding, all that beta
contraction and the substitution lemma need; its one walk, which recurses
like term_at, renames a capturing binder before it substitutes under it.

Each node class writes its own __init__, which checks formation and sets
every slot in one pass; the dataclass still gives equality, hashing, repr
and __match_args__ over the declared fields only, never the derived slots
(_fv, degree, redexes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple, Union

from .errors import DegreeError, InputSyntaxError, JoinabilityError
from . import sexpr

Index = tuple[int, ...]


def prefix_leq(k: Index, l: Index) -> bool:
    """k is a prefix of l."""
    return l[: len(k)] == k


def index_str(l: Index) -> str:
    return "[" + " ".join(str(i) for i in l) + "]"


class VarKey(NamedTuple):
    name: str
    idx: Index


# ---------------------------------------------------------------- terms

# the bits of a node's redex mask
BETA_BIT = 1
ETA_BIT = 2


# Each node's _fv is the map, name -> Index, that _FV_BY_SET holds for its
# free-variable set.  The table keeps every map for the life of the process,
# so no map's id() is reused, and the memo tables below key by those ids.
_NO_FV: dict[str, Index] = {}
_FV_BY_SET: dict[frozenset, dict[str, Index]] = {frozenset(): _NO_FV}
_VAR_FV: dict[tuple[str, Index], dict[str, Index]] = {}  # x^L -> {x: L}
_ABS_FV: dict[tuple[int, str], dict[str, Index]] = {}  # (id(body map), binder) -> map
_APP_FV: dict[tuple[int, int], dict[str, Index]] = {}  # (id(fun map), id(arg map)) -> map
_FREE_KEYS: dict[int, frozenset] = {}  # id(map) -> free_vars of its nodes

# sets a slot of a frozen node; only the node constructors use it
_set = object.__setattr__


def _interned(fv: dict[str, Index]) -> dict[str, Index]:
    """The table's map with fv's contents, fv itself if it is the first."""
    return _FV_BY_SET.setdefault(frozenset(fv.items()), fv)


class _Node:
    """Pickling and copying rebuild a node through its constructor, so that a
    copy's map is the table's map too."""

    __slots__ = ()

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)


@dataclass(frozen=True, slots=True, init=False)
class Var(_Node):
    name: str
    idx: Index
    _fv: dict = field(init=False, repr=False, compare=False)

    redexes = 0  # a class constant, not a field

    def __init__(self, name: str, idx: Index):
        _set(self, "name", name)
        _set(self, "idx", idx)
        fv = _VAR_FV.get((name, idx))
        if fv is None:
            fv = _VAR_FV[name, idx] = _interned({name: idx})
        _set(self, "_fv", fv)

    @property
    def degree(self) -> Index:
        return self.idx


@dataclass(frozen=True, slots=True, init=False)
class Abs(_Node):
    var: str
    idx: Index
    body: "Term"
    _fv: dict = field(init=False, repr=False, compare=False)
    degree: Index = field(init=False, repr=False, compare=False)
    redexes: int = field(init=False, repr=False, compare=False)

    def __init__(self, var: str, idx: Index, body: "Term"):
        degree = body.degree
        if idx[: len(degree)] != degree:  # prefix_leq, inlined
            raise DegreeError(
                f"binder {var}{index_str(idx)} does not extend body degree "
                f"{index_str(degree)}"
            )
        fv = body._fv
        if fv.get(var) == idx:
            key = (id(fv), var)
            fv = _ABS_FV.get(key)
            if fv is None:
                fv = dict(body._fv)
                del fv[var]
                fv = _ABS_FV[key] = _interned(fv)
        _set(self, "var", var)
        _set(self, "idx", idx)
        _set(self, "body", body)
        _set(self, "_fv", fv)
        _set(self, "degree", degree)
        redexes = body.redexes
        if isinstance(body, App):  # is_eta_redex(self), inlined
            arg = body.arg
            if (
                isinstance(arg, Var)
                and arg.name == var
                and arg.idx == idx
                and body.fun._fv.get(var) != idx
            ):
                redexes |= ETA_BIT
        _set(self, "redexes", redexes)


@dataclass(frozen=True, slots=True, init=False)
class App(_Node):
    fun: "Term"
    arg: "Term"
    _fv: dict = field(init=False, repr=False, compare=False)
    degree: Index = field(init=False, repr=False, compare=False)
    redexes: int = field(init=False, repr=False, compare=False)

    def __init__(self, fun: "Term", arg: "Term"):
        degree = fun.degree
        if arg.degree[: len(degree)] != degree:  # prefix_leq, inlined
            raise DegreeError(
                f"application degree {index_str(degree)} does not prefix "
                f"argument degree {index_str(arg.degree)}"
            )
        fv = fun._fv
        afv = arg._fv
        if afv is not fv and afv is not _NO_FV:
            if fv is _NO_FV:
                fv = afv
            else:
                fv = _APP_FV.get((id(fv), id(afv))) or _merged(fun, arg)
        _set(self, "fun", fun)
        _set(self, "arg", arg)
        _set(self, "_fv", fv)
        _set(self, "degree", degree)
        redexes = fun.redexes | arg.redexes
        if isinstance(fun, Abs) and arg.degree == fun.idx:  # is_beta_redex(self)
            redexes |= BETA_BIT
        _set(self, "redexes", redexes)


def _merged(fun: "Term", arg: "Term") -> dict[str, Index]:
    """The map of App(fun, arg), made and kept in _APP_FV, or the
    JoinabilityError that names the first clashing name in _fv_order(arg)."""
    ffv, afv = fun._fv, arg._fv
    if not joinable(fun, arg):
        name = next(n for n in _fv_order(arg) if ffv.get(n, afv[n]) != afv[n])
        raise JoinabilityError(
            f"{name} free at {index_str(ffv[name])} and {index_str(afv[name])}"
        )
    fv = _APP_FV[id(ffv), id(afv)] = _interned({**ffv, **afv})
    return fv


def _fold(m: "Term", var, abs_, app):
    """m folded bottom-up by one explicit-stack walk: var(t) at a variable,
    abs_(t, b) at an abstraction whose body gave b, and app(t, f, a) at an
    application whose parts gave f and a."""
    built: list = []
    stack: list = [m]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Var:
            built.append(var(t))
        elif cls is Abs:
            stack += ((t,), t.body)
        elif cls is App:
            stack += ((t,), t.arg, t.fun)
        else:  # (t,): the values of t's parts are on top of built
            t = t[0]
            if t.__class__ is Abs:
                built.append(abs_(t, built.pop()))
            else:
                a = built.pop()
                built.append(app(t, built.pop(), a))
    return built[0]


def _fv_order(m: "Term") -> list[str]:
    """The free names of m in one fixed order, which the error texts follow
    whatever order the table's map holds: a variable's name; an abstraction's
    body order less its binder; for an application, the order of a part
    whose map holds the other's (the function's on a tie), else the
    function's order followed by the argument's names the function lacks.
    One fold, run only to name a clash."""
    def abs_(t: Abs, order: list[str]) -> list[str]:
        if t.body._fv.get(t.var) == t.idx:
            order.remove(t.var)
        return order

    def app(t: App, f: list[str], a: list[str]) -> list[str]:
        ffv, afv = t.fun._fv, t.arg._fv
        if len(ffv) >= len(afv) and afv.items() <= ffv.items():
            return f
        if len(ffv) < len(afv) and ffv.items() <= afv.items():
            return a
        return f + [n for n in a if n not in ffv]

    return _fold(m, lambda t: [t.name], abs_, app)


Term = Union[Var, Abs, App]


def is_beta_redex(m: Term) -> bool:
    return isinstance(m, App) and isinstance(m.fun, Abs) and m.arg.degree == m.fun.idx


def is_eta_redex(m: Term) -> bool:
    if not (isinstance(m, Abs) and isinstance(m.body, App)):
        return False
    arg = m.body.arg
    return (
        isinstance(arg, Var)
        and arg.name == m.var
        and arg.idx == m.idx
        and m.body.fun._fv.get(m.var) != m.idx
    )


def free_vars(m: Term) -> frozenset[VarKey]:
    """m's free keys: one frozenset per map, so per free-variable set."""
    fv = m._fv
    keys = _FREE_KEYS.get(id(fv))
    if keys is None:
        keys = _FREE_KEYS[id(fv)] = frozenset(VarKey(n, l) for n, l in fv.items())
    return keys


def all_names(m: Term) -> frozenset[str]:
    """Every variable name in m, free or bound, gathered by one fold."""
    names: set[str] = set()
    _fold(m, lambda t: names.add(t.name), lambda t, _: names.add(t.var), lambda t, f, a: None)
    return frozenset(names)


def is_closed(m: Term) -> bool:
    return not m._fv


def joinable(m: Term, n: Term) -> bool:
    small, big = (m._fv, n._fv) if len(m._fv) <= len(n._fv) else (n._fv, m._fv)
    return all(big.get(name, idx) == idx for name, idx in small.items())


def term_size(m: Term) -> int:
    """The number of nodes of m, by one explicit-stack walk."""
    size, stack = 0, [m]
    while stack:
        t = stack.pop()
        size += 1
        if t.__class__ is App:
            stack += (t.fun, t.arg)
        elif t.__class__ is Abs:
            stack.append(t.body)
    return size


# ---------------------------------------------------------------- parsing


def term_at(nodes: list, i: int) -> tuple[Term, int]:
    """The term whose first node is nodes[i], and the position after it."""
    if i >= len(nodes):
        raise InputSyntaxError("expected a term, got end of input")
    head = nodes[i]
    if isinstance(head, str):
        if i + 1 >= len(nodes) or not sexpr.is_index(nodes[i + 1]):
            raise InputSyntaxError(f"variable {head!r} must be followed by an index")
        return Var(head, tuple(nodes[i + 1][1])), i + 2
    if not isinstance(head, list):
        raise InputSyntaxError(f"expected a term, got {head!r}")
    if not head or not isinstance(head[0], str):
        raise InputSyntaxError("expected (lam ...) or (app ...)")
    if head[0] == "lam":
        if len(head) < 4 or not isinstance(head[1], str) or not sexpr.is_index(head[2]):
            raise InputSyntaxError("lam needs a binder name, an index and a body")
        body, j = term_at(head, 3)
        if j != len(head):
            raise InputSyntaxError("lam has trailing items after its body")
        return Abs(head[1], tuple(head[2][1]), body), i + 1
    if head[0] == "app":
        fun, j = term_at(head, 1)
        arg, k = term_at(head, j)
        if k != len(head):
            raise InputSyntaxError("app has trailing items after its argument")
        return App(fun, arg), i + 1
    raise InputSyntaxError(f"unknown term head {head[0]!r}")


def parse_term(text: str) -> Term:
    parsed = sexpr.read(text)
    term, j = term_at(parsed, 0)
    if j != len(parsed):
        raise InputSyntaxError("trailing input after the term")
    return term


def print_term(m: Term) -> str:
    """m's s-expression, by one explicit-stack walk: any depth prints."""
    out: list[str] = []
    stack: list = [m]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
        elif cls is Var:
            out.append(t.name + index_str(t.idx))
        elif cls is Abs:
            out.append(f"(lam {t.var} {index_str(t.idx)} ")
            stack += (")", t.body)
        else:
            out.append("(app ")
            stack += (")", t.arg, " ", t.fun)
    return "".join(out)


# ---------------------------------------------------------------- renaming


class Avoid:
    """The names a renamed binder must avoid in one substitution: every name
    of its terms, collected at the first capture clash only (most
    substitutions have none), and the fresh names chosen above the subtree.
    Sibling subtrees share one Avoid, so they avoid the same names."""

    __slots__ = ("terms", "names")

    def __init__(self, *terms: Term, names: frozenset[str] | None = None):
        self.terms, self.names = terms, names

    def fresh(self) -> tuple[str, "Avoid"]:
        """A fresh name, and the Avoid of the subtree under its binder."""
        if self.names is None:
            self.names = frozenset().union(*map(all_names, self.terms))
        f = next(f"_r{i}" for i in count() if f"_r{i}" not in self.names)
        return f, Avoid(names=self.names | {f})


# ---------------------------------------------------------------- substitution


def substitute(m: Term, x: VarKey, n: Term) -> Term:
    """Capture-avoiding substitution m[x^L := n].

    n needs d(n) = L, and must be joinable with m once x^L is gone.  A
    binder is renamed only on a name collision with n's free names; the
    fresh choice never looks at indexes, so substitution commutes exactly
    with lifting and lowering.  It is the one renamer: the derivation
    transports read binder names off its output.
    """
    name, l = x
    if n.degree != l:
        raise DegreeError(
            f"replacement for {name}{index_str(l)} has degree {index_str(n.degree)}"
        )
    fv, nfv = m._fv, n._fv
    if fv.get(name) != l:
        return m
    # the key's entry disappears, so x itself cannot clash
    if not all(y == name or fv.get(y, i) == i for y, i in nfv.items()):
        y = next(y for y in _fv_order(n) if y != name and fv.get(y, nfv[y]) != nfv[y])
        raise JoinabilityError(f"{y} free at {index_str(fv[y])} and {index_str(nfv[y])}")
    return _subst(m, name, l, n, Avoid(m, n))


def _subst(m: Term, x: str, l: Index, n: Term, avoid: Avoid) -> Term:
    """m[x^l := n] for x^l free in m.  A binder that would capture a free
    name of n is first renamed, by this walk, to a fresh name: no binder
    below holds it and n does not mention it."""
    cls = m.__class__
    if cls is Var:  # x^l is free in m, so m is x^l
        return n
    if cls is App:
        fun, arg = m.fun, m.arg
        if fun._fv.get(x) == l:
            fun = _subst(fun, x, l, n, avoid)
        if arg._fv.get(x) == l:
            arg = _subst(arg, x, l, n, avoid)
        return App(fun, arg)
    var, idx, body = m.var, m.idx, m.body
    if var in n._fv:
        f, avoid = avoid.fresh()
        if body._fv.get(var) == idx:
            body = _subst(body, var, idx, Var(f, idx), avoid)
        var = f
    return Abs(var, idx, _subst(body, x, l, n, avoid))


# ---------------------------------------------------------------- lift/lower


def lift(m: Term, i: int) -> Term:
    """Prepend i to every Index in m (free and binding)."""
    return _reindex(m, (i,), 0)


def lower(m: Term, k: Index) -> Term:
    """Strip the prefix k from every Index; defined when d(m) extends k."""
    if not k:
        return m
    if not prefix_leq(k, m.degree):
        raise DegreeError(f"cannot lower degree {index_str(m.degree)} by {index_str(k)}")
    return _reindex(m, (), len(k))


def is_lift(n: Term, m: Term, i: int) -> bool:
    """n == lift(m, i), by one explicit-stack walk that builds no term.

    Every Index in n extends d(n), so once d(n) starts with i, an Index of
    n lifts one of m exactly when the two agree past n's first entry."""
    if n.degree[:1] != (i,):
        return False
    stack = [n, m]
    while stack:
        b = stack.pop()
        a = stack.pop()
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is App:
            stack += (a.arg, b.arg, a.fun, b.fun)
        elif cls is Var:
            if a.name != b.name or a.idx[1:] != b.idx:
                return False
        elif a.var != b.var or a.idx[1:] != b.idx:
            return False
        else:
            stack += (a.body, b.body)
    return True


def _reindex(m: Term, head: Index, cut: int) -> Term:
    """m with every Index idx replaced by head + idx[cut:], rebuilt by one
    fold.  Every Index in m extends d(m), so cutting d(m)'s first entries
    cuts the same entries everywhere."""
    return _fold(
        m,
        lambda t: Var(t.name, head + t.idx[cut:]),
        lambda t, body: Abs(t.var, head + t.idx[cut:], body),
        lambda t, fun, arg: App(fun, arg),
    )


# ---------------------------------------------------------------- alpha


def alpha_canon(m: Term) -> Term:
    """Rename binders to positional names: binder n, in preorder, becomes
    _a{n}, or _a{n}_{i} for the least i whose name is not free in m.

    Free variables are untouched; two terms are alpha-equivalent iff their
    canonical forms are equal.  The form is read back from alpha_key, right
    to left, so binders are numbered by that one walk.
    """
    key = alpha_key(m)
    names: list[str] = []
    for n in range(key.count(_ABS_MARK)):
        name, i = f"_a{n}", 0
        while name in m._fv:
            name, i = f"_a{n}_{i}", i + 1
        names.append(name)
    binder = len(names)
    built: list[Term] = []
    items = reversed(key)
    for item in items:
        if item is _APP_MARK:
            fun = built.pop()
            built.append(App(fun, built.pop()))
            continue
        tag = next(items)  # item is an Index; tag is an Abs marker or a name
        if tag is _ABS_MARK:
            binder -= 1
            built.append(Abs(names[binder], item, built.pop()))
        else:
            built.append(Var(names[tag] if tag.__class__ is int else tag, item))
    return built[0]


# markers for the nodes in an alpha key; neither equals a name, an int or an Index
_APP_MARK = None
_ABS_MARK = ...


def alpha_key(m: Term) -> tuple:
    """A flat, name-free key of m: equal exactly when the alpha_canon forms are.

    One iterative preorder walk.  An App becomes a marker; an Abs becomes a
    marker and its Index; a bound variable becomes the preorder number of its
    binder (an int) and a free one its name (a str), each followed by its
    Index.  No term is built, so the key is cheap to make, hash and compare.
    """
    out: list = []
    scope: dict[tuple[str, Index], int] = {}  # (name, Index) -> binder number
    binders = 0
    stack: list = [m]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is Var:
            out.append(scope.get((t.name, t.idx), t.name))
            out.append(t.idx)
        elif cls is App:
            out.append(_APP_MARK)
            stack.append(t.arg)
            stack.append(t.fun)
        elif cls is Abs:
            out.append(_ABS_MARK)
            out.append(t.idx)
            k = (t.var, t.idx)
            # restore the shadowed binding once the body has been walked
            stack.append((k, scope.get(k)))
            scope[k] = binders
            binders += 1
            stack.append(t.body)
        else:
            k, outer = t
            if outer is None:
                del scope[k]
            else:
                scope[k] = outer
    return tuple(out)


def alpha_eq(m: Term, n: Term) -> bool:
    if m._fv != n._fv:
        return False
    return alpha_key(m) == alpha_key(n)
