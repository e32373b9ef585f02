"""Constructive transformations of checked derivations.

Everything here consumes derivations whose macros are already elaborated (the
public entry points elaborate first, which costs O(1) on a derivation without
the macro mark, the usual case) and builds its output through the rule
constructors, so each new node is checked once, when it is made, and every
intermediate judgment is read from the node that carries it.
The exact-subject discipline matters throughout: the subjects built here
are equal to the reduction engine's output, not merely alpha-equivalent.
No builder chooses a name.  The substitution walk, _subst_d, is handed the
substituted subject that syntax.substitute made and reads every binder name
off it; where that renamed a binder, the walk renames the bound key in the
Ax nodes and sub environments below, and expansion renames back through the
same walk.  The builders hand each rule node the term they already hold
for it (the rewritten subject, the substituted one, the redex and its
parts), so a transported derivation concludes at those very terms and
rebuilds none of them.

  lower_derivation      strips an index prefix off a whole derivation
  subst_derivation      the substitution lemma, derivation to derivation
  subject_reduce        transports a derivation along beta/eta steps
  subject_expand_beta   rebuilds a derivation against the reduction arrow
  expand_along          the same, along a given trail of beta steps

lower_derivation also takes the ax' and interI' macros as they are.  Both
transports find their steps by one breadth-first search, _find_reduction,
which pulls each term's steps one at a time (reduction.iter_steps builds a
reduct only when its step is pulled), compares each reduct with the target
before it keys it, and keys every other reduct by one dict.setdefault, so
no reduct is hashed twice and the target never is.  The map of the terms
it reached, the source first, is where a failed transport looks for an
alpha-variant of its target.  Both transports take each step through one
walker, _rewrite, which rebuilds the omega, interI, sub and exp nodes and
the congruences along the step's path alike in either direction; only the
action at the redex differs.  A rebuilt node's environment is its old one
padded (env_pad) to the free variables of its new subject.  A beta
contraction asks _abs_premise for the abstraction's premise at the one
arrow component the application uses; an expansion, _expand_redex, is
handed an ax, arrI, arrIW or arrE node at degree [], since _rewrite has
peeled the rest, and un-substitutes the contractum under one arrE over arrI
or arrIW.
"""

from __future__ import annotations

from .errors import NotAnExpansionError, NotAReductError, PreconditionError
from .syntax import (
    Abs,
    App,
    Index,
    Term,
    Var,
    VarKey,
    alpha_key,
    free_vars,
    index_str,
    lower,
    print_term,
    substitute,
)
from .types import (
    CanonType,
    CanonType as CT,
    CArrow,
    comp_leq,
    expand_type,
    inter,
    lower_type,
    omega,
    subtype,
)
from .envs import (
    env_bind,
    env_inter,
    env_lower,
    env_pad,
    env_restrict,
    env_without,
    mk_env,
)
from .derivations import (
    ArrE,
    ArrI,
    ArrIW,
    Ax,
    Derivation,
    ExpRule,
    InterI,
    MacroAx,
    MacroInterI,
    OmegaRule,
    SubRule,
    elaborate,
    meet,
    sub_to,
    var_intro,
)
from .reduction import Relation, iter_steps

Path = tuple[str, ...]
Trail = tuple[tuple[str, Path, Term], ...]  # (kind, path, reduct) steps


# ---------------------------------------------------------------- lowering


def lower_derivation(d: Derivation, k: Index) -> Derivation:
    """Strip the index prefix k from a derivation's conclusion.

    Defined when the conclusion type degree extends k; the subject, the
    environment and the type are lowered together, in one walk: an exp node
    with head k[0] gives its premise lowered by the rest of k.
    """
    return _lower_d(d, k)


def _lower_d(d: Derivation, k: Index) -> Derivation:
    if not k:
        return d
    match d:
        case OmegaRule(subject):
            return OmegaRule(lower(subject, k))
        case InterI(left, right):
            return InterI(_lower_d(left, k), _lower_d(right, k))
        case ExpRule(head, premise):
            if head != k[0]:
                raise PreconditionError(
                    f"conclusion degree starts with {head}, cannot lower by {k[0]}"
                )
            return _lower_d(premise, k[1:])
        case SubRule(premise, env, typ):
            return SubRule(_lower_d(premise, k), env_lower(env, k), lower_type(typ, k))
        case MacroAx(name, typ):
            return MacroAx(name, lower_type(typ, k))
        case MacroInterI(left, right):
            return MacroInterI(_lower_d(left, k), _lower_d(right, k))
        case Ax() | ArrI() | ArrIW() | ArrE():
            raise PreconditionError("conclusion is at degree [], cannot lower")
    raise AssertionError(d)


# ---------------------------------------------------------------- substitution


def subst_derivation(dm: Derivation, x: VarKey, dn: Derivation) -> Derivation:
    """The substitution lemma, constructively.

    From M : <G, x^L:V |- W> and N : <D |- V> build a derivation of
    M[x^L := N] : <G /\\ D |- W>.  dn's conclusion type must equal the
    binding of x exactly; coerce with a sub node first if it does not.
    """
    dm, dn = elaborate(dm), elaborate(dn)
    jm, jn = dm.judgment, dn.judgment
    v = jm.env.get(x)
    if v is None:
        raise PreconditionError(
            f"{x.name}{index_str(x.idx)} is not in the subject environment"
        )
    if jn.typ != v:
        raise PreconditionError(
            "replacement derivation concludes at a different type than the binding"
        )
    return _subst_d(dm, x, dn, substitute(jm.subject, x, jn.subject), {})


def _subst_d(
    d: Derivation, x: VarKey, dn: Derivation | None, t: Term, ren: dict[VarKey, str]
) -> Derivation:
    """d rebuilt for t: d's subject with x replaced by dn's subject (unless
    dn is None) and each free key of ren renamed to its name there.

    t comes from syntax.substitute, and every binder name is read off it.  A
    binder that t renames maps its key in ren below it, and only Ax names
    and sub environments are rewritten through ren.  dn concludes at exactly
    the binding of x; a subtree where neither x nor a key of ren is free is
    returned as it is.
    """
    fv = d.judgment.subject._fv
    if dn is not None and fv.get(x.name) != x.idx:
        dn = None
    if dn is None and not (ren and any(fv.get(k.name) == k.idx for k in ren)):
        return d
    match d:
        case Ax(name, comp):
            return dn if dn is not None else Ax(ren[VarKey(name, ())], comp)

        case OmegaRule():
            out = OmegaRule(t)
            if dn is None:
                return out
            jo = out.judgment
            return sub_to(out, env_inter(jo.env, dn.judgment.env), jo.typ)

        case ArrI(var, idx, ann, premise):
            key = VarKey(var, idx)
            if t.var != var:
                ren = {**ren, key: t.var}
            elif key in ren:  # the binder shadows a renamed key
                ren = {k: n for k, n in ren.items() if k != key}
            return ArrI(t.var, idx, ann, _subst_d(premise, x, dn, t.body, ren), t)

        case ArrIW(var, idx, premise):
            # the binder is not free below, so only its name changes
            return ArrIW(t.var, idx, _subst_d(premise, x, dn, t.body, ren), t)

        case ArrE(fun, arg):
            dn_f = dn_a = dn
            m = d.judgment.subject
            if dn is not None and m.fun._fv.get(x.name) == x.idx == m.arg._fv.get(x.name):
                jn = dn.judgment
                dn_f = sub_to(dn, jn.env, fun.judgment.env.get(x))
                dn_a = sub_to(dn, jn.env, arg.judgment.env.get(x))
            return ArrE(
                _subst_d(fun, x, dn_f, t.fun, ren), _subst_d(arg, x, dn_a, t.arg, ren), t
            )

        case InterI(left, right):
            return InterI(_subst_d(left, x, dn, t, ren), _subst_d(right, x, dn, t, ren))

        case ExpRule(head, premise):
            if dn is not None:
                dn = lower_derivation(dn, (head,))
            if ren:
                ren = {
                    VarKey(k.name, k.idx[1:]): n
                    for k, n in ren.items()
                    if k.idx[:1] == (head,)
                }
            x = VarKey(x.name, x.idx[1:])
            return ExpRule(head, _subst_d(premise, x, dn, lower(t, (head,)), ren), t)

        case SubRule(premise, env, typ):
            if ren:  # first: dn's keys, which may equal a renamed key, keep their names
                env = mk_env((VarKey(ren.get(k, k.name), k.idx), u) for k, u in env)
            if dn is not None:
                jn = dn.judgment
                dn = sub_to(dn, jn.env, premise.judgment.env.get(x))
                env = env_inter(env_without(env, x), jn.env)
            return sub_to(_subst_d(premise, x, dn, t, ren), env, typ)

    raise AssertionError(d)


# ---------------------------------------------------------------- inversion


def _abs_premise(d: Derivation, comp: CArrow) -> tuple[bool, Derivation]:
    """Derivation-level generation for one component of an abstraction.

    For d :: lam x^L.M : <G |- U> at degree [] and a component comp = V -> T
    of U, returns (binds, premise) with

        premise :: M : <G, x^L : V |- {T}>     if binds
        premise :: M : <G |- {T}>              otherwise
    """
    match d:
        case ArrI(_, _, _, premise):
            return True, premise
        case ArrIW(_, _, premise):
            return False, premise
        case InterI(left, right):
            side = left if comp in left.judgment.typ.comps else right
            return _abs_premise(side, comp)
        case SubRule(premise, env, _):
            witness = next(c for c in premise.judgment.typ.comps if comp_leq(c, comp))
            binds, p = _abs_premise(premise, witness)
            res_t = CT((), (comp.res,))
            if binds:
                m = d.judgment.subject
                return True, sub_to(p, env_bind(env, VarKey(m.var, m.idx), comp.arg), res_t)
            return False, sub_to(p, env, res_t)
    raise AssertionError(f"not an abstraction derivation root: {type(d).__name__}")


def generation_app_var(d: Derivation, x: VarKey, t_target) -> Derivation:
    """From d :: P x^L : <G, x^L:Vx |- {T0}> with T0 <= t_target (and x not
    free in P), build P : <G |- {Vx -> t_target}> where Vx is d's binding."""
    match d:
        case ArrE(fun, arg):
            jf = fun.judgment
            ja = arg.judgment
            arrow_comp = jf.typ.comps[0]
            assert comp_leq(arrow_comp.res, t_target)
            vx = ja.env.get(x)
            assert vx is not None and subtype(vx, arrow_comp.arg)
            return sub_to(fun, jf.env, CT((), (CArrow(vx, t_target),)))
        case InterI(left, right):
            for side in (left, right):
                js = side.judgment
                if any(comp_leq(c, t_target) for c in js.typ.comps):
                    return generation_app_var(side, x, t_target)
            raise AssertionError("no intersection side dominates the target")
        case SubRule(premise, env, typ):
            inner = generation_app_var(premise, x, t_target)
            vx_t = env.get(x)
            return sub_to(
                inner, env_without(env, x), CT((), (CArrow(vx_t, t_target),))
            )
    raise AssertionError(f"unexpected rule at an applied-variable subject: {type(d).__name__}")


# ---------------------------------------------------------------- one step


def _rewrite(d: Derivation, new: Term, path: Path, at_redex) -> Derivation:
    """Transport d one step, in either direction, to the subject new.

    path leads to the redex (reducing) or to the contractum (expanding);
    at_redex(d, new) rebuilds the derivation there.  Every rebuilt node keeps
    its old type, in its old environment on the free variables of new.
    """
    match d:
        case OmegaRule():
            return OmegaRule(new)
        case InterI(left, right):
            return InterI(
                _rewrite(left, new, path, at_redex), _rewrite(right, new, path, at_redex)
            )
        case SubRule(premise, env, typ):
            inner = _rewrite(premise, new, path, at_redex)
            return sub_to(inner, env_pad(env, free_vars(new)), typ)
        case ExpRule(head, premise):
            return ExpRule(head, _rewrite(premise, lower(new, (head,)), path, at_redex), new)
    if not path:
        return at_redex(d, new)
    match d, path[0]:
        case (ArrI() | ArrIW()), "body":
            inner = _rewrite(d.premise, new.body, path[1:], at_redex)
            bound = inner.judgment.env.get(VarKey(d.var, d.idx))
            if bound is None:  # a reduction erased the binder from the body
                rebuilt = ArrIW(d.var, d.idx, inner, new)
            else:  # bound as before, or brought back at omega by an expansion
                rebuilt = ArrI(d.var, d.idx, bound, inner, new)
        case ArrE(fun, arg), "fun":
            rebuilt = ArrE(_rewrite(fun, new.fun, path[1:], at_redex), arg, new)
        case ArrE(fun, arg), "arg":
            rebuilt = ArrE(fun, _rewrite(arg, new.arg, path[1:], at_redex), new)
        case _:
            raise AssertionError((d, path))
    j = d.judgment
    return sub_to(rebuilt, env_pad(j.env, free_vars(new)), j.typ)


# ---------------------------------------------------------------- reduction


def subject_reduce(d: Derivation, n: Term, r: Relation, fuel: int = 10000) -> Derivation:
    """Transport a derivation of M along M ->>_r N.

    The result types N at the original type, in the original environment
    restricted to the free variables of N.  The step sequence is found by
    breadth-first search over exact reducts; NotAReductError if N is not
    reachable within fuel steps, naming the term reached if N is only an
    alpha-variant of one.
    """
    d = elaborate(d)
    j = d.judgment
    trail, reached = _find_reduction(j.subject, n, r, fuel)
    if trail is None:
        hit = _alpha_variant(reached, n)
        what = "not" if hit is None else f"an alpha-variant of {print_term(hit)}, not"
        raise NotAReductError(
            f"{print_term(n)} is {what} a {r.value}-reduct of {print_term(j.subject)}"
        )
    for kind, path, reduct in trail:
        d = _rewrite(d, reduct, path, _contract_beta if kind == "beta" else _contract_eta)
    return d


def _find_reduction(
    m: Term, n: Term, r: Relation, fuel: int
) -> tuple[Trail | None, dict[Term, Trail]]:
    """BFS for a step sequence m ->>_r n, as (kind, path, reduct) steps.

    Returns (trail, reached).  trail is the first trail found to n, or None
    when fuel steps, each step tried counting one, found none; then reached
    maps every term reached, m first, to the trail that first reached it.
    m enters reached just before the first reduct does, so a trail of one
    step hashes no term, and a reduct equal to m is not stepped again."""
    if m == n:
        return (), {}
    reached: dict[Term, Trail] = {}
    front: list[tuple[Term, Trail]] = [(m, ())] if fuel > 0 else []
    while front:
        nxt = []
        for t, trail in front:
            for kind, path, reduct in iter_steps(t, r):
                fuel -= 1
                longer = trail + ((kind, path, reduct),)
                if reduct == n:
                    return longer, reached
                if not reached:
                    reached[m] = ()
                if reached.setdefault(reduct, longer) is longer:
                    nxt.append((reduct, longer))
                if not fuel:
                    return None, reached
        front = nxt
    return None, reached or {m: ()}


def _alpha_variant(reached: dict[Term, Trail], t: Term) -> Term | None:
    """The first term of reached that is an alpha-variant of t, or None."""
    key = alpha_key(t)
    return next((u for u in reached if alpha_key(u) == key), None)


def _contract_beta(d: Derivation, reduct: Term) -> Derivation:
    assert isinstance(d, ArrE)
    redex = d.judgment.subject
    x = VarKey(redex.fun.var, redex.fun.idx)
    comp = d.fun.judgment.typ.comps[0]
    binds, prem = _abs_premise(d.fun, comp)
    out = _subst_d(prem, x, d.arg, reduct, {}) if binds else prem
    jo = out.judgment
    assert jo.subject == reduct, (print_term(jo.subject), print_term(reduct))
    return sub_to(out, env_pad(d.judgment.env, free_vars(reduct)), jo.typ)


def _contract_eta(d: Derivation, reduct: Term) -> Derivation:
    assert isinstance(d, ArrI), f"eta redex under rule {type(d).__name__}"
    body = d.judgment.subject.body
    assert isinstance(body, App) and isinstance(body.arg, Var)
    x = VarKey(body.arg.name, body.arg.idx)
    t = d.premise.judgment.typ.comps[0]
    return generation_app_var(d.premise, x, t)


# ---------------------------------------------------------------- expansion


def subject_expand_beta(d: Derivation, m: Term, fuel: int = 10000) -> Derivation:
    """Transport a derivation of N backwards along m ->>_beta N.

    The result types m at the original type; the environment is the original
    one enlarged with omega bindings for the free variables the reduction had
    discarded.  NotAnExpansionError when m does not beta-reduce to the
    subject within fuel steps, naming the term reached if m reduces only to
    an alpha-variant of the subject.
    """
    d = elaborate(d)
    j = d.judgment
    trail, reached = _find_reduction(m, j.subject, Relation.BETA, fuel)
    if trail is None:
        hit = _alpha_variant(reached, j.subject)
        v = print_term(j.subject)
        if hit is None:
            what = "does not beta-reduce to"
        else:
            what = f"beta-reduces to {print_term(hit)}, an alpha-variant of {v}, not to"
        raise NotAnExpansionError(f"{print_term(m)} {what} {v}")
    sources = [m] + [reduct for _, _, reduct in trail[:-1]]
    return expand_along(d, [(src, path) for src, (_, path, _) in zip(sources, trail)])


def expand_along(d: Derivation, trail: list[tuple[Term, Path]]) -> Derivation:
    """subject_expand_beta along trail, the (source, path to the redex) of
    each beta step from the wanted term to d's (elaborated) subject."""
    for src, path in reversed(trail):
        d = _rewrite(d, src, path, _expand_redex)
    return d


def _expand_redex(d: Derivation, src: Term) -> Derivation:
    """Rebuild a derivation of the redex src from one of its contractum.

    _rewrite peels every omega, interI, sub and exp node first, so d is an
    ax, arrI, arrIW or arrE node concluding one component at degree []."""
    assert isinstance(src, App) and isinstance(src.fun, Abs)
    fun = src.fun
    x = VarKey(fun.var, fun.idx)
    if fun.body._fv.get(x.name) == x.idx:
        v, dp, dq = _split(d, x, fun.body, src.arg)
        return ArrE(ArrI(x.name, x.idx, v, dp, fun), dq, src)
    return ArrE(ArrIW(x.name, x.idx, d, fun), OmegaRule(src.arg), src)


def _split(
    d: Derivation, x: VarKey, p: Term, q: Term
) -> tuple[CanonType, Derivation, Derivation]:
    """Un-substitute: from d :: P[x:=Q] : <G |- U> with x free in P, produce
    (V, dP :: P : <G1, x:V |- U>, dQ :: Q : <G2 |- V>) with G1 /\\ G2 = G."""
    if p == Var(x.name, x.idx):
        j = d.judgment
        return j.typ, var_intro(x.name, j.typ, p), d

    match d:
        case OmegaRule():
            return omega(x.idx), OmegaRule(p), OmegaRule(q)

        case InterI(left, right):
            v1, dp1, dq1 = _split(left, x, p, q)
            v2, dp2, dq2 = _split(right, x, p, q)
            # meet intersects x's two bindings to inter(v1, v2)
            return inter(v1, v2), meet(dp1, dp2), meet(dq1, dq2)

        case ExpRule(head, premise):
            assert x.idx and x.idx[0] == head
            x2 = VarKey(x.name, x.idx[1:])
            v0, dp0, dq0 = _split(premise, x2, lower(p, (head,)), lower(q, (head,)))
            return expand_type(head, v0), ExpRule(head, dp0, p), ExpRule(head, dq0, q)

        case SubRule(premise, env, typ):
            v, dp0, dq0 = _split(premise, x, p, q)
            p_keys = free_vars(p) - {x}
            q_keys = free_vars(q)
            ep = env_bind(env_restrict(env, p_keys), x, v)
            dp = sub_to(dp0, ep, typ)
            dq = sub_to(dq0, env_restrict(env, q_keys), v)
            return v, dp, dq

        case ArrE(fun, arg):
            assert isinstance(p, App)
            p1, p2 = p.fun, p.arg
            in1 = p1._fv.get(x.name) == x.idx
            in2 = p2._fv.get(x.name) == x.idx
            if in1 and in2:
                v1, dpa, dqa = _split(fun, x, p1, q)
                v2, dpb, dqb = _split(arg, x, p2, q)
                v = inter(v1, v2)
                ja1, ja2 = dpa.judgment, dpb.judgment
                e1 = env_bind(env_without(ja1.env, x), x, v)
                e2 = env_bind(env_without(ja2.env, x), x, v)
                dp = ArrE(sub_to(dpa, e1, ja1.typ), sub_to(dpb, e2, ja2.typ), p)
                return v, dp, meet(dqa, dqb)
            if in1:
                v, dpa, dq = _split(fun, x, p1, q)
                return v, ArrE(dpa, arg, p), dq
            assert in2
            v, dpb, dq = _split(arg, x, p2, q)
            return v, ArrE(fun, dpb, p), dq

        case ArrI(var, idx, ann, premise):
            assert isinstance(p, Abs) and p.idx == idx
            if p.var == var:
                v, dp0, dq = _split(premise, x, p.body, q)
                return v, ArrI(var, idx, ann, dp0, p), dq
            # the substitution renamed p's binder to var, a name fresh for p:
            # split against p's body renamed alike, then rename dP back
            body = substitute(p.body, VarKey(p.var, idx), Var(var, idx))
            v, dp0, dq = _split(premise, x, body, q)
            dp0 = _subst_d(dp0, x, None, p.body, {VarKey(var, idx): p.var})
            return v, ArrI(p.var, idx, ann, dp0, p), dq

        case ArrIW(var, idx, premise):
            assert isinstance(p, Abs) and p.idx == idx
            v, dp0, dq = _split(premise, x, p.body, q)
            return v, ArrIW(p.var, idx, dp0, p), dq

    raise AssertionError((d, p))
