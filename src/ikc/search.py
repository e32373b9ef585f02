"""Bounded derivation search.

bounded_typecheck answers "is there a derivation of m : <g |- u>?" with one
of three outcomes:

  Found(d)        a derivation whose judgment is the goal
  Refuted(why)    no derivation exists; the refutation is forced by the
                  generation analysis of the subject (or by the judgment
                  metadata invariants), not by search exhaustion
  Unknown(why)    the search ran out of fuel or of candidate argument types

Variables and abstractions are fully inverted, so refutations coming out of
them are definite.  Applications need a type for the argument; those are
drawn from a finite candidate family (subterm types of the goal and the
environment, their expansions to the argument degree, self arrows, and one
round of binary intersections), so a failed application search is only ever
Unknown.  Fuel counts visited goals.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import reduce
from typing import Callable

from .syntax import (
    Abs,
    App,
    Term,
    Var,
    VarKey,
    free_vars,
    index_str,
    lower_seq,
    print_term,
)
from .types import (
    CanonType,
    CanonType as CT,
    CArrow,
    expand_seq,
    inter,
    lower_type,
    omega,
    print_type,
    subtype,
    type_key,
)
from .envs import (
    Env,
    Judgment,
    env_lower,
    env_ok,
    env_restrict,
    print_env,
)
from .derivations import (
    ArrE,
    ArrI,
    ArrIW,
    Derivation,
    ExpRule,
    InterI,
    OmegaRule,
    OmegaShape,
    ShapeRefutation,
    invert_abs,
    sub_to,
    var_intro,
)
from .transform import lower_derivation


@dataclass(frozen=True, slots=True)
class Found:
    derivation: Derivation


class _Reasoned:
    """An outcome with a reason: a str, or a function that builds it.

    Most reasons are never read, so the search passes a function and the
    text is built, once, when .reason is first read.  Equality, hashing,
    repr and matching go by the text.
    """

    __slots__ = ("_reason",)
    __match_args__ = ("reason",)

    def __init__(self, reason: str | Callable[[], str]):
        object.__setattr__(self, "_reason", reason)

    @property
    def reason(self) -> str:
        if not isinstance(self._reason, str):
            object.__setattr__(self, "_reason", self._reason())
        return self._reason

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.reason == other.reason

    def __hash__(self) -> int:
        return hash(self.reason)

    def __reduce__(self):
        return type(self), (self.reason,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(reason={self.reason!r})"


class Refuted(_Reasoned):
    __slots__ = ()


class Unknown(_Reasoned):
    __slots__ = ()


Outcome = Found | Refuted | Unknown

# the one Unknown of a search that ran out of fuel; _app_goal tells it apart
# from candidate exhaustion by identity
_FUEL_OUT = Unknown("fuel exhausted")


def bounded_typecheck(
    m: Term, g: Env, u: CanonType, fuel: int = 100000
) -> Outcome:
    """Search for a derivation of m : <g |- u> within fuel goals."""
    if frozenset(g.domain()) != free_vars(m):
        return Refuted(
            lambda: f"environment domain {print_env(g)} does not bind exactly"
            f" the free variables of {print_term(m)}"
        )
    if not env_ok(g):
        return Refuted("environment binding degree mismatch")
    if u.degree != m.degree:
        return Refuted(
            lambda: f"goal degree {index_str(u.degree)} differs from subject"
            f" degree {index_str(m.degree)}"
        )
    searcher = _Searcher(fuel)
    out = searcher.goal(m, g, u)
    if isinstance(out, Found):
        j = out.derivation.judgment
        assert j == Judgment(m, g, u), j
    return out


# ---------------------------------------------------------------- search core


class _Searcher:
    def __init__(self, fuel: int):
        self.fuel = fuel
        self.memo: dict[tuple[Term, Env, CanonType], Outcome] = {}

    def goal(self, m: Term, g: Env, u: CanonType) -> Outcome:
        key = (m, g, u)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if self.fuel <= 0:
            return _FUEL_OUT
        self.fuel -= 1
        out = self._dispatch(m, g, u)
        self.memo[key] = out
        return out

    def _dispatch(self, m: Term, g: Env, u: CanonType) -> Outcome:
        #                             ------------------ (w)
        #  M : <x1:w^L1 ... xn:w^Ln |- w^deg(M)>
        if u.is_omega():
            return Found(sub_to(OmegaRule(m), g, u))

        match m:
            case Var(name, _):
                v = g.get(VarKey(name, m.idx))
                if subtype(v, u):
                    return Found(sub_to(var_intro(name, v), g, u))
                return Refuted(
                    lambda: f"variable binding {print_type(v)} is not a subtype"
                    f" of {print_type(u)}"
                )
            case Abs():
                return self._abs_goal(m, g, u)
            case App():
                return self._app_goal(m, g, u)
        raise AssertionError(m)

    def _abs_goal(self, m: Abs, g: Env, u: CanonType) -> Outcome:
        inv = invert_abs(Judgment(m, g, u))
        if isinstance(inv, ShapeRefutation):
            return Refuted(inv.reason)
        assert not isinstance(inv, OmegaShape)
        k = inv.prefix
        residual = m.idx[len(k):]
        premises = []
        for arg, res, binds, premise in inv.entries:
            sub = self.goal(premise.subject, premise.env, premise.typ)
            match sub:
                case Refuted():
                    return Refuted(
                        lambda: f"component {print_type(CT((), (CArrow(arg, res),)))}"
                        f" fails: {sub.reason}"
                    )
                case Unknown():
                    return sub
            premises.append((arg, res, binds, sub.derivation))

        g_low = env_lower(g, k)
        pieces = []
        for arg, res, binds, dp in premises:
            dp_low = lower_derivation(dp, k)
            target = CT((), (res,))
            if binds:
                body = sub_to(dp_low, dp_low.judgment.env, target)
                pieces.append(ArrI(m.var, residual, arg, body))
            else:
                body = sub_to(dp_low, g_low, target)
                weak = ArrIW(m.var, residual, body)
                pieces.append(sub_to(weak, g_low, CT((), (CArrow(arg, res),))))
        out = reduce(InterI, pieces)
        for j in reversed(k):
            out = ExpRule(j, out)
        return Found(out)

    def _app_goal(self, m: App, g: Env, u: CanonType) -> Outcome:
        k = u.degree
        if k:
            # applications are typed at degree []; factor through (e)
            low = self.goal(lower_seq(m, k), env_lower(g, k), lower_type(u, k))
            match low:
                case Found(d):
                    for j in reversed(k):
                        d = ExpRule(j, d)
                    return Found(d)
            return low

        f, arg = m.fun, m.arg
        gf = env_restrict(g, free_vars(f))
        ga = env_restrict(g, free_vars(arg))
        candidates = _argument_candidates(arg.degree, g, u)
        pieces = []
        for t in u.comps:
            target = CT((), (t,))
            piece = None
            saw_fuel_out = False
            for w in candidates:
                df = self.goal(f, gf, CT((), (CArrow(w, t),)))
                if df is _FUEL_OUT:
                    saw_fuel_out = True
                if not isinstance(df, Found):
                    continue
                da = self.goal(arg, ga, w)
                if da is _FUEL_OUT:
                    saw_fuel_out = True
                if not isinstance(da, Found):
                    continue
                piece = ArrE(df.derivation, da.derivation)
                break
            if piece is None:
                if saw_fuel_out:
                    return _FUEL_OUT
                return Unknown(
                    lambda: f"no candidate argument type derives {print_term(m)}"
                    f" : {print_type(target)}"
                )
            pieces.append(piece)
        return Found(reduce(InterI, pieces))


# --------------------------------------------------------- candidate universe


def _argument_candidates(degree, g: Env, u: CanonType) -> list[CanonType]:
    """Finite family of types to try for an application argument.

    Subterm types of the goal and of the environment bindings, expanded to
    the argument degree where they sit at degree []; the omega of that
    degree; self arrows over single-component members; and one round of
    binary intersections.
    """
    pool: set[CanonType] = set()
    _subterm_types(u, pool)
    for _, typ in g:
        _subterm_types(typ, pool)
    for t in list(pool):
        if t.prefix == () and len(t.comps) == 1:
            pool.add(CT((), (CArrow(t, t.comps[0]),)))

    at_degree = {t for t in pool if t.prefix == degree}
    at_degree |= {expand_seq(degree, t) for t in pool if t.prefix == ()}
    at_degree.add(omega(degree))
    closed = set(at_degree)
    members = sorted(at_degree, key=type_key)
    for i, t1 in enumerate(members):
        for t2 in members[i + 1:]:
            closed.add(inter(t1, t2))
    return sorted(closed, key=type_key)


def _subterm_types(u: CanonType, acc: set[CanonType]) -> None:
    if u in acc:
        return
    acc.add(u)
    for comp in u.comps:
        acc.add(CT(u.prefix, (comp,)))
        if isinstance(comp, CArrow):
            _subterm_types(comp.arg, acc)
            _subterm_types(CT((), (comp.res,)), acc)
