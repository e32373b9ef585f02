"""Bounded derivation search on the beta normal form.

bounded_typecheck answers "is there a derivation of m : <g |- u>?" with one
of three outcomes:

  Found(d)        a derivation whose judgment is the goal
  Refuted(why)    no derivation exists; the refutation comes from exhaustive
                  inversion of m's beta normal form, or from the judgment
                  metadata prechecks
  Unknown(why)    m has no beta normal form (its leftmost path revisits a
                  term), or fuel ran out first

An omega goal is Found at once.  Otherwise the search follows the leftmost
beta path of m to its normal form n and searches n : <g on fv(n) |- u>.  A
Found is carried back along the recorded steps (transform.expand_along) and
weakened to g.  A Refuted lifts to m by subject reduction: subject_reduce
would carry any derivation of m to one of n.  A goal at degree K != [] is
lowered by K and rebuilt by exp; bounded_typecheck lowers its goal once, so
the walk, the search and the expansion run at degree [] under one exp chain.
At degree [] every goal on a normal form is decided by exhaustive inversion:

  lam x^L.P  generation: every component of u is an arrow V->T with
             d(V) = L, and forces P : <g, x^L:V |- T> (x^L bound exactly
             when it is free in P).  _abs_goal checks every component's
             shape before it types any premise.
  y N1..Nk   (k >= 0) a derivation at a component t types y at some
             A1->...->Ak->r with r <= t and Ni : Ai.  comp_leq has no
             distributivity rule, so g(y) <= that arrow through one
             component c of g(y) alone, contravariantly: c = A1'->...->Ak'->r'
             with Ai <= Ai' and r' <= r, and Ni : Ai' follows by subsumption.
             Trying each c with each Ni at c's own Ai' is therefore
             exhaustive; for k = 0 it decides g(y) <= u.
  (lam x^L.P) N1..Nk  the head needs an arrow whose argument has degree
             d(N1), and generation forces degree L, which differs from d(N1)
             in a normal form: only omega types this stuck head.

Fuel is the one budget: a visited goal costs 1 and a leftmost step costs
the size of its reduct, so work stays proportional to the fuel even on a
term that grows along its leftmost path.

The derivations share the subjects the search holds: each rule node is
handed the term of its goal (an abstraction, an application of the spine,
the head variable), and the exp chain (derivations.exp_chain) that rebuilds
a degree-K goal ends at the goal's own term, so a Found concludes at the very
subject it was asked about unless the memo answered a subgoal with a copy.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import reduce
from typing import Callable

from .syntax import (
    Abs,
    App,
    Index,
    Term,
    VarKey,
    free_vars,
    index_str,
    lift,
    lower,
    print_term,
    term_size,
)
from .types import (
    CanonT,
    CanonType,
    CanonType as CT,
    CArrow,
    comp_leq,
    lower_type,
    print_comp,
    print_type,
)
from .envs import (
    Env,
    Judgment,
    env_bind,
    env_lower,
    env_ok,
    env_restrict,
    print_env,
)
from .derivations import (
    ArrE,
    ArrI,
    ArrIW,
    Ax,
    Derivation,
    InterI,
    OmegaRule,
    exp_chain,
    sub_to,
)
from .reduction import LeftmostBeta
from .transform import expand_along


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

# the one Unknown of a search that ran out of fuel
_FUEL_OUT = Unknown("fuel exhausted")


def bounded_typecheck(
    m: Term, g: Env, u: CanonType, fuel: int = 100000
) -> Outcome:
    """Search for a derivation of m : <g |- u> within fuel (module docstring)."""
    if g.domain() != free_vars(m):
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
    if u.is_omega():
        return Found(sub_to(OmegaRule(m), g, u))
    k = u.degree
    out = _Searcher(fuel).solve(lower(m, k), env_lower(g, k), lower_type(u, k), k)
    if isinstance(out, Found):
        out = Found(sub_to(exp_chain(out.derivation, k, m), g, u))
        assert out.derivation.judgment == Judgment(m, g, u), out.derivation.judgment
    return out


# ---------------------------------------------------------------- search core


class _Searcher:
    def __init__(self, fuel: int):
        self.fuel = fuel
        self.memo: dict[tuple[Term, Env, CanonType], Outcome] = {}

    def solve(self, m: Term, g: Env, u: CanonType, k: Index) -> Outcome:
        """m : <g |- u> at degree [] through the beta normal form of m, for
        a goal that was lowered by k; a Found is not yet weakened to g."""
        walk = LeftmostBeta(m)
        trail = []
        for step in walk:
            trail.append(step)
            self.fuel -= term_size(walk.term)
            if self.fuel < 0:
                return _FUEL_OUT
        if walk.revisited is not None:
            return Unknown(
                lambda: "no beta normal form: the leftmost path revisits"
                f" {print_term(reduce(lift, reversed(k), walk.revisited))}"
            )
        if k:  # the visit of the degree-k goal that lowering skipped
            self.fuel -= 1
        nf = walk.term
        out = self.goal(nf, env_restrict(g, free_vars(nf)), u)
        if not isinstance(out, Found):
            return out
        return Found(expand_along(out.derivation, trail))

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
        k = u.degree
        if k:
            # type the subject lowered to degree [] and factor through (e)
            low = self.goal(lower(m, k), env_lower(g, k), lower_type(u, k))
            if isinstance(low, Found):
                return Found(exp_chain(low.derivation, k, m))
            return low

        if isinstance(m, Abs):
            return self._abs_goal(m, g, u)
        return self._spine_goal(m, g, u)

    def _abs_goal(self, m: Abs, g: Env, u: CanonType) -> Outcome:
        for comp in u.comps:
            if not isinstance(comp, CArrow):
                return Refuted(
                    lambda: f"component {print_comp(comp)} of an abstraction"
                    " type is not an arrow"
                )
            if comp.arg.degree != m.idx:
                return Refuted(
                    lambda: f"arrow argument degree {index_str(comp.arg.degree)}"
                    f" differs from the binder residual {index_str(m.idx)}"
                )
        key = VarKey(m.var, m.idx)
        binds = m.body._fv.get(m.var) == m.idx
        pieces = []
        for comp in u.comps:
            gp = env_bind(g, key, comp.arg) if binds else g
            sub = self.goal(m.body, gp, CT((), (comp.res,)))
            match sub:
                case Refuted():
                    return Refuted(
                        lambda: f"component {print_type(CT((), (comp,)))}"
                        f" fails: {sub.reason}"
                    )
                case Unknown():
                    return sub
            if binds:
                pieces.append(ArrI(m.var, m.idx, comp.arg, sub.derivation, m))
            else:
                weak = ArrIW(m.var, m.idx, sub.derivation, m)
                pieces.append(sub_to(weak, g, CT((), (comp,))))
        return Found(reduce(InterI, pieces))

    def _spine_goal(self, m: Term, g: Env, u: CanonType) -> Outcome:
        spine, head = [], m  # the applications along the spine, innermost first
        while isinstance(head, App):
            spine.append(head)
            head = head.fun
        spine.reverse()
        args = [s.arg for s in spine]
        if isinstance(head, Abs):
            return Refuted(
                lambda: f"stuck head {print_term(head)} takes no argument of"
                f" degree {index_str(args[0].degree)}"
            )
        v = g.get(VarKey(head.name, head.idx))
        arg_envs = [env_restrict(g, free_vars(n)) for n in args]
        pieces = []
        for t in u.comps:
            for c in v.comps:
                shape = _unfold(c, args)
                if shape is None or not comp_leq(shape[1], t):
                    continue
                d = Ax(head.name, c, head)
                for s, gn, a in zip(spine, arg_envs, shape[0]):
                    dn = self.goal(s.arg, gn, a)
                    if not isinstance(dn, Found):
                        break
                    d = ArrE(d, dn.derivation, s)
                else:
                    pieces.append(sub_to(d, g, CT((), (t,))))
                    break
                if isinstance(dn, Unknown):
                    return dn
            else:
                return Refuted(
                    lambda: f"variable binding {print_type(v)} is not a subtype of"
                    f" {print_comp(t)}"
                    + (f" through the arguments of {print_term(m)}" if args else "")
                )
        return Found(reduce(InterI, pieces))


def _unfold(c: CanonT, args: list[Term]) -> tuple[list[CanonType], CanonT] | None:
    """([A1..Ak], r) for c = A1->...->Ak->r with d(Ai) = d(Ni), else None."""
    params = []
    for n in args:
        if not (isinstance(c, CArrow) and c.arg.degree == n.degree):
            return None
        params.append(c.arg)
        c = c.res
    return params, c
