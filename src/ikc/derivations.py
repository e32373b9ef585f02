r"""Typing derivations: node grammar, checker, macro elaboration, I/O.

A derivation file carries only rule tags and the annotations the rules need.
Each rule class writes its own constructor, which checks that one rule against
its premises' judgments and sets every slot in one pass, the conclusion
(judgment) included, so every derivation that exists is valid and
check_derivation only reads the stored judgment.  Parsing builds the tree node
by node through the same constructors, so untrusted text is checked as it is
read.  The rules (ASCII, environments on the left of |-):

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
which equals the subject degree.  So the side conditions on free variables
(the arrIW binder, the names arrE's premises share) are read off the
premises' subjects.

A conclusion's subject is built from the premises' subjects: ax builds its
variable, arrI, arrIW and arrE an Abs or App over the premises' subjects,
exp the premise's subject lifted.  Each of these constructors also takes
the term its caller already holds (the search's subgoal, the transports'
rebuilt subject) and concludes at that object instead, when a check that
builds nothing shows it is that subject: the identity of its parts for
ax, arrI, arrIW and arrE, one walk (syntax.is_lift) for exp.  Any other
term is ignored, so the judgment is the same either way; parsing passes
none.

Two macros elaborate into the primitives before checking: (interI' d1 d2)
meets premises with different environments by subruling both to the pointwise
intersection, and (ax' x U) derives x^{d(U)} : <x:U |- U> componentwise
through (ax)/(exp)/(w) and an interI' fold.  A macro node stores its
elaboration when it is built.  Every node also stores the macro mark (macro),
set when its subtree holds a macro node, so elaborate returns a macro-free
tree at once and descends only into marked subtrees.  The dataclass gives
equality, hashing, repr and __match_args__ over the declared fields only,
never the derived slots (judgment, macro, elaborated).
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
    is_lift,
    joinable,
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
    env_of_node,
    env_omega,
    env_without,
    print_env,
    typing_sub,
)
from . import sexpr

# ---------------------------------------------------------------- nodes

# sets a slot of a frozen node; only the rule constructors use it
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class _Rule:
    """A rule node: its constructor checks its rule and stores the conclusion
    (judgment) and the macro mark (macro: the subtree holds an ax' or
    interI' node)."""

    judgment: Judgment = field(init=False, repr=False, compare=False)
    macro: bool = field(init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True, init=False)
class Ax(_Rule):
    name: str
    comp: CanonT

    def __init__(self, name: str, comp: CanonT, term: Term | None = None):
        u = CT((), (comp,))
        _set(self, "name", name)
        _set(self, "comp", comp)
        if not (term.__class__ is Var and term.name == name and term.idx == ()):
            term = Var(name, ())
        _set(self, "judgment", Judgment(term, Env(((VarKey(name, ()), u),)), u))
        _set(self, "macro", False)


@dataclass(frozen=True, slots=True, init=False)
class OmegaRule(_Rule):
    subject: Term

    def __init__(self, subject: Term):
        _set(self, "subject", subject)
        _set(self, "judgment", Judgment(subject, env_omega(subject), omega(subject.degree)))
        _set(self, "macro", False)


@dataclass(frozen=True, slots=True, init=False)
class ArrI(_Rule):
    var: str
    idx: Index
    ann: CanonType
    premise: "Derivation"

    def __init__(
        self, var: str, idx: Index, ann: CanonType, premise: "Derivation", term: Term | None = None
    ):
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
        _set(self, "var", var)
        _set(self, "idx", idx)
        _set(self, "ann", ann)
        _set(self, "premise", premise)
        u = CT((), (CArrow(bound, t),))
        term = _abs_of(var, idx, jp.subject, term)
        _set(self, "judgment", Judgment(term, env_without(jp.env, key), u))
        _set(self, "macro", premise.macro)


@dataclass(frozen=True, slots=True, init=False)
class ArrIW(_Rule):
    var: str
    idx: Index
    premise: "Derivation"

    def __init__(self, var: str, idx: Index, premise: "Derivation", term: Term | None = None):
        jp = premise.judgment
        if jp.subject._fv.get(var) == idx:
            raise RuleError("arrIW", f"{var}{index_str(idx)} occurs in the premise environment")
        t = _single(jp.typ, "arrIW")
        _set(self, "var", var)
        _set(self, "idx", idx)
        _set(self, "premise", premise)
        u = CT((), (CArrow(omega(idx), t),))
        _set(self, "judgment", Judgment(_abs_of(var, idx, jp.subject, term), jp.env, u))
        _set(self, "macro", premise.macro)


@dataclass(frozen=True, slots=True, init=False)
class ArrE(_Rule):
    fun: "Derivation"
    arg: "Derivation"

    def __init__(self, fun: "Derivation", arg: "Derivation", term: Term | None = None):
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
        if not joinable(jf.subject, ja.subject):
            raise RuleError("arrE", "premise environments disagree on a shared name")
        _set(self, "fun", fun)
        _set(self, "arg", arg)
        u = CT((), (tf.res,))
        if not (
            term.__class__ is App and term.fun is jf.subject and term.arg is ja.subject
        ):
            term = App(jf.subject, ja.subject)
        _set(self, "judgment", Judgment(term, env_inter(jf.env, ja.env), u))
        _set(self, "macro", fun.macro or arg.macro)


@dataclass(frozen=True, slots=True, init=False)
class InterI(_Rule):
    left: "Derivation"
    right: "Derivation"

    def __init__(self, left: "Derivation", right: "Derivation"):
        jl = left.judgment
        jr = right.judgment
        if jl.subject != jr.subject:
            raise RuleError("interI", "premises type different subjects")
        if jl.env != jr.env:
            raise RuleError("interI", "premises use different environments; interI' meets them")
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "judgment", Judgment(jl.subject, jl.env, inter(jl.typ, jr.typ)))
        _set(self, "macro", left.macro or right.macro)


@dataclass(frozen=True, slots=True, init=False)
class ExpRule(_Rule):
    head: int
    premise: "Derivation"

    def __init__(self, head: int, premise: "Derivation", term: Term | None = None):
        jp = premise.judgment
        _set(self, "head", head)
        _set(self, "premise", premise)
        if term is None or not is_lift(term, jp.subject, head):
            term = lift(jp.subject, head)
        j = Judgment(term, env_expand(head, jp.env), expand_type(head, jp.typ))
        _set(self, "judgment", j)
        _set(self, "macro", premise.macro)


@dataclass(frozen=True, slots=True, init=False)
class SubRule(_Rule):
    premise: "Derivation"
    env: Env
    typ: CanonType

    def __init__(self, premise: "Derivation", env: Env, typ: CanonType):
        jp = premise.judgment
        target = Judgment(jp.subject, env, typ)
        if not typing_sub(jp, target):
            raise RuleError("sub", _sub_diagnosis(jp, target))
        _set(self, "premise", premise)
        _set(self, "env", env)
        _set(self, "typ", typ)
        _set(self, "judgment", target)
        _set(self, "macro", premise.macro)


@dataclass(frozen=True, slots=True, init=False)
class _Macro(_Rule):
    """A macro node: it stores its elaboration into the primitive rules, whose
    constructors check it, and concludes what that elaboration concludes."""

    elaborated: "Derivation" = field(init=False, repr=False, compare=False)

    def _elaborate_to(self, elaborated: "Derivation") -> None:
        _set(self, "elaborated", elaborated)
        _set(self, "judgment", elaborated.judgment)
        _set(self, "macro", True)


@dataclass(frozen=True, slots=True, init=False)
class MacroInterI(_Macro):
    left: "Derivation"
    right: "Derivation"

    def __init__(self, left: "Derivation", right: "Derivation"):
        _set(self, "left", left)
        _set(self, "right", right)
        self._elaborate_to(meet(elaborate(left), elaborate(right)))


@dataclass(frozen=True, slots=True, init=False)
class MacroAx(_Macro):
    name: str
    typ: CanonType

    def __init__(self, name: str, typ: CanonType):
        _set(self, "name", name)
        _set(self, "typ", typ)
        self._elaborate_to(var_intro(name, typ))


Derivation = Union[
    Ax, OmegaRule, ArrI, ArrIW, ArrE, InterI, ExpRule, SubRule, MacroInterI, MacroAx
]


def _abs_of(var: str, idx: Index, body: Term, term: Term | None) -> Term:
    """term if it is lam var^idx. body with this very body, else that
    abstraction built."""
    if term.__class__ is Abs and term.body is body and term.var == var and term.idx == idx:
        return term
    return Abs(var, idx, body)


# ---------------------------------------------------------------- checker


def check_derivation(d: Derivation) -> Judgment:
    """The judgment d derives; its rules were checked when it was built."""
    return d.judgment


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


def var_intro(name: str, typ: CanonType, term: Term | None = None) -> Derivation:
    """ax' elaborated: x^{d(U)} : <x:U |- U> for any canonical U.  A given
    term becomes the subject when it is that variable."""
    k = typ.prefix
    if typ.is_omega():
        v = Var(name, k)
        return OmegaRule(term if term == v else v)
    return reduce(meet, (exp_chain(Ax(name, comp, term), k, term) for comp in typ.comps))


def exp_chain(d: Derivation, k: Index, term: Term | None = None) -> Derivation:
    """(exp) over d once per entry of k, the last entry innermost: d's
    subject lifted by k.  The outermost node is handed term."""
    for j in reversed(k[1:]):
        d = ExpRule(j, d)
    return ExpRule(k[0], d, term) if k else d


def elaborate(d: Derivation) -> Derivation:
    """Expand macro nodes into the primitive rules.  A tree without the macro
    mark is returned as it is, in O(1); otherwise a macro node gives its
    stored elaboration and only marked subtrees are rebuilt."""
    if not d.macro:
        return d
    if isinstance(d, _Macro):
        return d.elaborated
    parts = (getattr(d, f) for f in d.__match_args__)
    return type(d)(*(elaborate(p) if isinstance(p, _Rule) else p for p in parts))


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
