r"""Typing derivations: node grammar, checker, macro elaboration, I/O.

A derivation file carries only rule tags and the annotations the rules need.
Constructing a rule node checks that rule against its premises' judgments and
stores the conclusion in the node's judgment field, so every derivation that
exists is valid and check_derivation only reads the stored judgment.  Parsing
builds the tree node by node through the same constructors, so untrusted text
is checked as it is read.  The rules (ASCII, environments on the left of |-):

    (ax)      x^[] : <x:[]:T |- T>
    (w)       M : <omega-env(M) |- w^d(M)>
    (arrI)    lam x^L.M : <G |- U->T>         from  M : <G, x^L:U |- T>
    (arrIW)   lam x^L.M : <G |- w^L->T>       from  M : <G |- T>,  x^L not in G
    (arrE)    M1 M2 : <G1 /\ G2 |- T>         from  M1 : <G1 |- U->T>,
                                                    M2 : <G2 |- U>
    (interI)  M : <G |- U1 /\ U2>             from both premises, same G
    (exp)     M^{+j} : <e_j G |- e_j U>       from  M : <G |- U>
    (sub)     M : <G' |- U'>                  from  M : <G |- U>,
                                              <G |- U> <= <G' |- U'>

Success guarantees the reported environment is OK, binds exactly the free
variables of the subject, and every binding degree extends the type degree,
which equals the subject degree.

Two macros elaborate into the primitives before checking: (interI' d1 d2)
meets premises with different environments by subruling both to the pointwise
intersection, and (ax' x U) derives x^{d(U)} : <x:U |- U> componentwise
through (ax)/(exp)/(w) and an interI' fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Union

from .errors import InputSyntaxError, RuleError
from .syntax import (
    Abs,
    App,
    Index,
    Term,
    Var,
    VarKey,
    index_str,
    lift,
    print_term,
    term_at,
)
from .types import (
    CanonT,
    CanonType as CT,
    CanonType,
    CArrow,
    expand_type,
    inter,
    omega,
    print_comp,
    print_type,
    singleton,
    subtype,
    type_of_node,
)
from .envs import (
    Env,
    Judgment,
    env_expand,
    env_inter,
    env_joinable,
    env_of_node,
    env_omega,
    env_without,
    mk_env,
    print_env,
    typing_sub,
)
from . import sexpr

# ---------------------------------------------------------------- nodes


@dataclass(frozen=True, slots=True)
class _Rule:
    """A rule node: constructing it checks its rule and stores the conclusion."""

    judgment: Judgment = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "judgment", _conclude(self))


@dataclass(frozen=True, slots=True)
class Ax(_Rule):
    name: str
    comp: CanonT


@dataclass(frozen=True, slots=True)
class OmegaRule(_Rule):
    subject: Term


@dataclass(frozen=True, slots=True)
class ArrI(_Rule):
    var: str
    idx: Index
    ann: CanonType
    premise: "Derivation"


@dataclass(frozen=True, slots=True)
class ArrIW(_Rule):
    var: str
    idx: Index
    premise: "Derivation"


@dataclass(frozen=True, slots=True)
class ArrE(_Rule):
    fun: "Derivation"
    arg: "Derivation"


@dataclass(frozen=True, slots=True)
class InterI(_Rule):
    left: "Derivation"
    right: "Derivation"


@dataclass(frozen=True, slots=True)
class ExpRule(_Rule):
    head: int
    premise: "Derivation"


@dataclass(frozen=True, slots=True)
class SubRule(_Rule):
    premise: "Derivation"
    env: Env
    typ: CanonType


@dataclass(frozen=True, slots=True)
class _Macro(_Rule):
    """A macro node: it stores its elaboration into the primitive rules, whose
    constructors check it, and concludes what that elaboration concludes."""

    elaborated: "Derivation" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elaborated", _expand(self))
        _Rule.__post_init__(self)


@dataclass(frozen=True, slots=True)
class MacroInterI(_Macro):
    left: "Derivation"
    right: "Derivation"


@dataclass(frozen=True, slots=True)
class MacroAx(_Macro):
    name: str
    typ: CanonType


Derivation = Union[
    Ax, OmegaRule, ArrI, ArrIW, ArrE, InterI, ExpRule, SubRule, MacroInterI, MacroAx
]


# ---------------------------------------------------------------- checker


def check_derivation(d: Derivation) -> Judgment:
    """The judgment d derives; its rules were checked when it was built."""
    return d.judgment


def _conclude(d: Derivation) -> Judgment:
    """Check the rule at the root of d against its premises' judgments."""
    match d:
        case Ax(name, comp):
            u = CT((), (comp,))
            key = VarKey(name, ())
            return Judgment(Var(name, ()), mk_env([(key, u)]), u)

        case OmegaRule(subject):
            return Judgment(subject, env_omega(subject), omega(subject.degree))

        case ArrI(var, idx, ann, premise):
            jp = premise.judgment
            key = VarKey(var, idx)
            bound = jp.env.get(key)
            if bound is None:
                raise RuleError(
                    "arrI",
                    f"{var}{index_str(idx)} is not in the premise environment; "
                    "use arrIW when the binder is not free in the body",
                )
            if ann != bound:
                raise RuleError("arrI", "annotation differs from the premise binding")
            t = _single(jp.typ, "arrI")
            return Judgment(
                Abs(var, idx, jp.subject),
                env_without(jp.env, key),
                CT((), (CArrow(bound, t),)),
            )

        case ArrIW(var, idx, premise):
            jp = premise.judgment
            key = VarKey(var, idx)
            if key in jp.env:
                raise RuleError("arrIW", f"{var}{index_str(idx)} occurs in the premise environment")
            t = _single(jp.typ, "arrIW")
            return Judgment(
                Abs(var, idx, jp.subject),
                jp.env,
                CT((), (CArrow(omega(idx), t),)),
            )

        case ArrE(fun, arg):
            jf = fun.judgment
            ja = arg.judgment
            tf = _single(jf.typ, "arrE")
            if not isinstance(tf, CArrow):
                raise RuleError("arrE", f"left type {print_type(jf.typ)} is not an arrow")
            if ja.typ != tf.arg:
                raise RuleError(
                    "arrE",
                    f"argument type {print_type(ja.typ)} differs from the arrow "
                    f"argument {print_type(tf.arg)}",
                )
            if not env_joinable(jf.env, ja.env):
                raise RuleError("arrE", "premise environments disagree on a shared name")
            return Judgment(
                App(jf.subject, ja.subject),
                env_inter(jf.env, ja.env),
                CT((), (tf.res,)),
            )

        case InterI(left, right):
            jl = left.judgment
            jr = right.judgment
            if jl.subject != jr.subject:
                raise RuleError("interI", "premises type different subjects")
            if jl.env != jr.env:
                raise RuleError(
                    "interI",
                    "premises use different environments; interI' meets them",
                )
            return Judgment(jl.subject, jl.env, inter(jl.typ, jr.typ))

        case ExpRule(head, premise):
            jp = premise.judgment
            return Judgment(
                lift(jp.subject, head),
                env_expand(head, jp.env),
                expand_type(head, jp.typ),
            )

        case SubRule(premise, env, typ):
            jp = premise.judgment
            target = Judgment(jp.subject, env, typ)
            if not typing_sub(jp, target):
                raise RuleError("sub", _sub_diagnosis(jp, target))
            return target

        case _Macro():
            return d.elaborated.judgment

    raise AssertionError(d)


def _single(u: CanonType, rule: str) -> CanonT:
    if u.prefix != () or len(u.comps) != 1:
        raise RuleError(rule, f"type {print_type(u)} is not a single component at degree []")
    return u.comps[0]


def _sub_diagnosis(jp: Judgment, target: Judgment) -> str:
    if not subtype(jp.typ, target.typ):
        return f"{print_type(jp.typ)} is not a subtype of {print_type(target.typ)}"
    if jp.env.domain() != target.env.domain():
        return "target environment domain differs from the premise"
    return "target environment is not pointwise stronger than the premise"


# ---------------------------------------------------------------- macros


def sub_to(d: Derivation, env: Env, typ: CanonType) -> Derivation:
    """SubRule unless the derivation already concludes at the target."""
    j = d.judgment
    if j.env == env and j.typ == typ:
        return d
    return SubRule(d, env, typ)


def meet(d1: Derivation, d2: Derivation) -> Derivation:
    """interI' elaborated: meet two premises over differing environments."""
    j1, j2 = d1.judgment, d2.judgment
    if j1.subject != j2.subject:
        raise RuleError("interI'", "premises type different subjects")
    ge = env_inter(j1.env, j2.env)
    return InterI(sub_to(d1, ge, j1.typ), sub_to(d2, ge, j2.typ))


def var_intro(name: str, typ: CanonType) -> Derivation:
    """ax' elaborated: x^{d(U)} : <x:U |- U> for any canonical U."""
    k = typ.prefix
    if typ.is_omega():
        return OmegaRule(Var(name, k))
    chains = []
    for comp in typ.comps:
        d: Derivation = Ax(name, comp)
        for j in reversed(k):
            d = ExpRule(j, d)
        chains.append(d)
    return reduce(meet, chains)


def _expand(d: _Macro) -> Derivation:
    """One macro node in primitive rules; its premises are elaborated already."""
    match d:
        case MacroAx(name, typ):
            return var_intro(name, typ)
        case MacroInterI(left, right):
            return meet(elaborate(left), elaborate(right))
    raise AssertionError(d)


def elaborate(d: Derivation) -> Derivation:
    """Expand macro nodes into the primitive rules; macro-free subtrees are
    returned as they are, and a macro node gives its stored elaboration."""
    if isinstance(d, _Macro):
        return d.elaborated
    parts = [getattr(d, f) for f in d.__match_args__]
    new = [elaborate(p) if isinstance(p, _Rule) else p for p in parts]
    if all(p is q for p, q in zip(parts, new)):
        return d
    return type(d)(*new)


# ---------------------------------------------------------------- parsing


_BINARY = {"arrE": ArrE, "interI": InterI, "interI'": MacroInterI}


def _deriv_of(node) -> Derivation:
    if not (isinstance(node, list) and node and isinstance(node[0], str)):
        raise InputSyntaxError("expected a derivation form")
    tag = node[0]
    rest = node[1:]
    if tag in ("ax", "ax'"):
        if len(rest) != 2 or not isinstance(rest[0], str):
            raise InputSyntaxError(f"({tag} name type)")
        typ = type_of_node(rest[1])
        return Ax(rest[0], singleton(typ)) if tag == "ax" else MacroAx(rest[0], typ)
    if tag == "w":
        term, i = term_at(rest, 0)
        if i != len(rest):
            raise InputSyntaxError("(w term)")
        return OmegaRule(term)
    if tag == "arrI":
        if len(rest) != 4 or not isinstance(rest[0], str) or not sexpr.is_index(rest[1]):
            raise InputSyntaxError("(arrI name index type derivation)")
        return ArrI(rest[0], tuple(rest[1][1]), type_of_node(rest[2]), _deriv_of(rest[3]))
    if tag == "arrIW":
        if len(rest) != 3 or not isinstance(rest[0], str) or not sexpr.is_index(rest[1]):
            raise InputSyntaxError("(arrIW name index derivation)")
        return ArrIW(rest[0], tuple(rest[1][1]), _deriv_of(rest[2]))
    if tag in _BINARY:
        if len(rest) != 2:
            raise InputSyntaxError(f"({tag} derivation derivation)")
        return _BINARY[tag](_deriv_of(rest[0]), _deriv_of(rest[1]))
    if tag == "exp":
        if len(rest) != 2 or not isinstance(rest[0], int):
            raise InputSyntaxError("(exp natural derivation)")
        return ExpRule(rest[0], _deriv_of(rest[1]))
    if tag == "sub":
        if len(rest) != 3:
            raise InputSyntaxError("(sub derivation env type)")
        return SubRule(_deriv_of(rest[0]), env_of_node(rest[1]), type_of_node(rest[2]))
    raise InputSyntaxError(f"unknown derivation head {tag!r}")


def parse_derivation(text: str) -> Derivation:
    """Read a certificate, checking each rule as its node is built: a tree
    that breaks a rule raises RuleError."""
    return _deriv_of(sexpr.read_one(text))


def print_derivation(d: Derivation) -> str:
    match d:
        case Ax(name, comp):
            return f"(ax {name} {print_comp(comp)})"
        case MacroAx(name, typ):
            return f"(ax' {name} {print_type(typ)})"
        case OmegaRule(subject):
            return f"(w {print_term(subject)})"
        case ArrI(var, idx, ann, premise):
            return f"(arrI {var} {index_str(idx)} {print_type(ann)} {print_derivation(premise)})"
        case ArrIW(var, idx, premise):
            return f"(arrIW {var} {index_str(idx)} {print_derivation(premise)})"
        case ArrE(fun, arg):
            return f"(arrE {print_derivation(fun)} {print_derivation(arg)})"
        case InterI(left, right):
            return f"(interI {print_derivation(left)} {print_derivation(right)})"
        case MacroInterI(left, right):
            return f"(interI' {print_derivation(left)} {print_derivation(right)})"
        case ExpRule(head, premise):
            return f"(exp {head} {print_derivation(premise)})"
        case SubRule(premise, env, typ):
            return f"(sub {print_derivation(premise)} {print_env(env)} {print_type(typ)})"
    raise AssertionError(d)
