import hashlib
import pathlib

import pytest

from ikc import transform
from ikc.derivations import (
    ArrE,
    ArrI,
    ArrIW,
    Ax,
    OmegaRule,
    check_derivation,
    parse_derivation,
    print_derivation,
    var_intro,
)
from ikc.envs import Judgment, env_empty, mk_env, parse_env, print_judgment
from ikc.errors import NotAnExpansionError, NotAReductError, PreconditionError
from ikc.reduction import Relation, step_positions
from ikc.search import Found, bounded_typecheck
from ikc.syntax import (
    BETA_BIT,
    VarKey,
    all_names,
    free_vars,
    parse_term,
    print_term,
    substitute,
)
from ikc.transform import (
    lower_derivation,
    subject_expand_beta,
    subject_reduce,
    subst_derivation,
)
from ikc.types import CAtom, parse_type


CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def pt(s):
    return parse_type(s)


def pj(d):
    return print_judgment(check_derivation(d))


# ---------------------------------------------------------------- lowering


def test_lower_derivation_strips_exp():
    d = parse_derivation("(exp 1 (arrI y [] a (ax' y a)))")
    low = lower_derivation(d, (1,))
    assert pj(low) == "(judg (lam y [] y[]) () (-> a a))"


def test_lower_derivation_through_sub():
    d = parse_derivation(
        "(sub (exp 1 (ax' y (^ a b))) ((y [1] (e 1 (^ a b)))) (e 1 a))"
    )
    low = lower_derivation(d, (1,))
    assert pj(low) == "(judg y[] ((y [] (^ a b))) a)"


@pytest.mark.parametrize(
    "text, want, judgment",
    [
        (
            "(interI' (ax' x (e 1 a)) (ax' x (e 1 b)))",
            "(interI' (ax' x a) (ax' x b))",
            "(judg x[] ((x [] (^ a b))) (^ a b))",
        ),
        (
            "(sub (interI' (ax' x (e 1 a)) (ax' x (e 1 b))) "
            "((x [1] (e 1 (^ a b)))) (e 1 a))",
            "(sub (interI' (ax' x a) (ax' x b)) ((x [] (^ a b))) a)",
            "(judg x[] ((x [] (^ a b))) a)",
        ),
    ],
    ids=["interI'", "sub-over-interI'"],
)
def test_lower_derivation_through_interI_macro(text, want, judgment):
    low = lower_derivation(parse_derivation(text), (1,))
    assert print_derivation(low) == want
    assert pj(low) == judgment


def test_lower_derivation_strips_a_prefix_in_one_walk():
    d = parse_derivation((CORPUS / "exp-chain.drv").read_text())
    once = lower_derivation(d, (2, 1))
    assert once == lower_derivation(lower_derivation(d, (2,)), (1,))
    assert pj(once) == "(judg (lam y [] y[]) () (-> a a))"
    with pytest.raises(PreconditionError, match="starts with 1, cannot lower by 0"):
        lower_derivation(d, (2, 0))


def test_lower_derivation_rejects_ground_conclusions():
    with pytest.raises(PreconditionError):
        lower_derivation(Ax("x", CAtom("a")), (0,))


# ---------------------------------------------------------------- substitution


def test_subst_derivation_basic():
    dm = ArrE(var_intro("f", pt("(-> a b)")), var_intro("x", pt("a")))
    dn = var_intro("y", pt("a"))
    out = subst_derivation(dm, VarKey("x", ()), dn)
    assert pj(out) == "(judg (app f[] y[]) ((f [] (-> a b)) (y [] a)) b)"


def test_subst_derivation_renames_clashing_binders():
    # [y := z] under a binder named z forces a fresh binder
    dm = ArrIW("z", (), var_intro("y", pt("a")))
    dn = var_intro("z", pt("a"))
    out = subst_derivation(dm, VarKey("y", ()), dn)
    j = check_derivation(out)
    assert j.subject.var == "_r0"
    assert pj(out) == "(judg (lam _r0 [] z[]) ((z [] a)) (-> (w []) a))"


@pytest.mark.parametrize(
    "dm,dn,want",
    [
        # nested clashes: each binder under the first avoids the names above
        (
            ArrIW("y", (), ArrIW("z", (), var_intro("x", pt("a")))),
            ArrE(var_intro("y", pt("(-> b a)")), var_intro("z", pt("b"))),
            "(lam _r0 [] (lam _r1 [] (app y[] z[])))",
        ),
        # sibling clashes: both sides pick the same fresh name
        (
            ArrE(
                ArrIW("y", (), var_intro("x", pt("(-> a b)"))),
                OmegaRule(parse_term("(lam y [] x[])")),
            ),
            var_intro("y", pt("(-> a b)")),
            "(app (lam _r0 [] y[]) (lam _r0 [] y[]))",
        ),
        # a clash under an omega rule, beside a binder named _r0: the omega
        # subject renames through the same Avoid as the rest of the term
        (
            ArrE(
                ArrIW("y", (), ArrIW("_r0", (), var_intro("x", pt("(-> a b)")))),
                OmegaRule(parse_term("(lam y [] x[])")),
            ),
            var_intro("y", pt("(-> a b)")),
            "(app (lam _r1 [] (lam _r0 [] y[])) (lam _r1 [] y[]))",
        ),
        # an inner y binder, kept as it is, shadows the renamed outer y
        # while the renamed z stays free below it
        (
            parse_derivation(
                "(arrI y [] k (arrI z [] (-> a b) (arrE (arrE"
                " (ax x (-> k (-> (-> a b) g))) (ax y k))"
                " (arrI y [] a (arrE (ax z (-> a b)) (ax y a))))))"
            ),
            parse_derivation("(arrE (ax y (-> h (-> k (-> (-> a b) g)))) (ax z h))"),
            "(lam _r0 [] (lam _r1 [] (app (app (app y[] z[]) _r0[])"
            " (lam y [] (app _r1[] y[])))))",
        ),
    ],
    ids=["nested", "siblings", "omega-beside-r0", "shadowed"],
)
def test_subst_derivation_renames_like_term_substitution(dm, dn, want):
    x = VarKey("x", ())
    out = check_derivation(subst_derivation(dm, x, dn)).subject
    jm, jn = check_derivation(dm), check_derivation(dn)
    assert out == substitute(jm.subject, x, jn.subject)
    assert print_term(out) == want


def test_subject_reduce_renames_a_sub_environment_before_the_argument_joins():
    # the argument's free y and the renamed binder y share a key, so the sub
    # node's environment must rename its y to _r0 before y's binding arrives
    d = parse_derivation(
        "(arrE (arrI x [] (^ (-> a b) (-> c d))"
        " (arrI y [] a (sub (arrE (ax x (-> a b)) (ax y a))"
        " ((x [] (^ (-> a b) (-> c d))) (y [] a)) b)))"
        " (ax' y (^ (-> a b) (-> c d))))"
    )
    out = subject_reduce(d, parse_term("(lam _r0 [] (app y[] _r0[]))"), Relation.BETA)
    assert pj(out) == (
        "(judg (lam _r0 [] (app y[] _r0[])) ((y [] (^ (-> a b) (-> c d)))) (-> a b))"
    )
    assert subject_expand_beta(out, d.judgment.subject).judgment == d.judgment


def test_subst_derivation_omega_subject():
    dm = OmegaRule(parse_term("x[]"))
    dn = OmegaRule(parse_term("w[]"))
    out = subst_derivation(dm, VarKey("x", ()), dn)
    assert pj(out) == "(judg w[] ((w [] (w []))) (w []))"


# ---------------------------------------------------------------- reduction


def test_subject_reduce_beta():
    d = parse_derivation("(arrE (arrI x [] a (ax' x a)) (ax' y a))")
    out = subject_reduce(d, parse_term("y[]"), Relation.BETA)
    assert pj(out) == "(judg y[] ((y [] a)) a)"


def test_subject_reduce_eta():
    d = parse_derivation("(arrI x [] a (arrE (ax' y (-> a a)) (ax' x a)))")
    out = subject_reduce(d, parse_term("y[]"), Relation.ETA)
    assert pj(out) == "(judg y[] ((y [] (-> a a))) (-> a a))"


def test_subject_reduce_renames_under_an_omega_rule_like_the_reduct():
    ab = pt("(-> a b)")
    body = ArrE(
        ArrIW("y", (), ArrIW("_r0", (), var_intro("x", ab))),
        OmegaRule(parse_term("(lam y [] x[])")),
    )
    d = ArrE(ArrI("x", (), ab, body), var_intro("y", ab))
    reduct = parse_term("(app (lam _r1 [] (lam _r0 [] y[])) (lam _r1 [] y[]))")
    out = subject_reduce(d, reduct, Relation.BETA)
    assert check_derivation(out).subject == reduct
    assert print_derivation(out) == (
        "(arrE (arrIW _r1 [] (arrIW _r0 [] (ax y (-> a b))))"
        " (sub (w (lam _r1 [] y[])) ((y [] (-> a b))) (w [])))"
    )


def test_subject_reduce_restricts_env_on_variable_loss():
    d = parse_derivation(
        "(arrE (arrIW x [] (ax' y a)) (w (lam z [] z[])))"
    )
    out = subject_reduce(d, parse_term("y[]"), Relation.BETA)
    assert pj(out) == "(judg y[] ((y [] a)) a)"


def test_subject_reduce_multi_step():
    d = parse_derivation(
        "(arrE (arrI g [] (-> a a) (ax' g (-> a a)))"
        " (arrI x [] a (arrE (arrI w [] a (ax' w a)) (ax' x a))))"
    )
    j = check_derivation(d)
    target = parse_term("(lam x [] x[])")
    out = subject_reduce(d, target, Relation.BETA)
    j2 = check_derivation(out)
    assert j2 == Judgment(target, j.env, j.typ)


def test_subject_reduce_rejects_non_reducts():
    d = parse_derivation("(arrI y [] a (ax' y a))")
    with pytest.raises(NotAReductError):
        subject_reduce(d, parse_term("(lam w [] (lam q [] w[]))"), Relation.BETA)


def test_subject_reduce_fuel_counts_the_steps_it_tries():
    # two steps from the redex, then the first step of the first reduct
    d = parse_derivation(
        "(arrE (arrI g [] (-> a a) (ax' g (-> a a)))"
        " (arrI x [] a (arrE (arrI w [] a (ax' w a)) (ax' x a))))"
    )
    target = parse_term("(lam x [] x[])")
    for fuel in (0, 1, 2):
        with pytest.raises(NotAReductError) as info:
            subject_reduce(d, target, Relation.BETA, fuel)
        assert str(info.value) == (
            "(lam x [] x[]) is not a beta-reduct of"
            " (app (lam g [] g[]) (lam x [] (app (lam w [] w[]) x[])))"
        )
    out = subject_reduce(d, target, Relation.BETA, 3)
    assert print_derivation(out) == "(arrI x [] a (ax x a))"


def test_subject_reduce_takes_the_breadth_first_trail(monkeypatch):
    # both step orders reach the target; the leftmost redex goes first
    contracted = []

    def contract(d, reduct):
        contracted.append(print_term(d.judgment.subject))
        return contract_beta(d, reduct)

    contract_beta = transform._contract_beta
    monkeypatch.setattr(transform, "_contract_beta", contract)
    d = parse_derivation(
        "(arrE (arrE (arrI x [] (-> a b) (ax' x (-> a b))) (ax' f (-> a b)))"
        " (arrE (arrI y [] a (ax' y a)) (ax' z a)))"
    )
    out = subject_reduce(d, parse_term("(app f[] z[])"), Relation.BETA)
    assert print_derivation(out) == "(arrE (ax f (-> a b)) (ax z a))"
    assert contracted == ["(app (lam x [] x[]) f[])", "(app (lam y [] y[]) z[])"]


def test_subject_reduce_stops_where_a_term_reduces_to_itself(monkeypatch):
    # Omega's one reduct is Omega: the search keys the source before that
    # reduct, so it tries one step and gives up
    from ikc import reduction

    contractions = []

    def contract(m):
        contractions.append(m)
        return beta_contract(m)

    beta_contract = reduction.beta_contract
    monkeypatch.setattr(reduction, "beta_contract", contract)
    omega = "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))"
    d = parse_derivation(f"(w {omega})")
    with pytest.raises(NotAReductError) as info:
        subject_reduce(d, parse_term("y[]"), Relation.BETA)
    assert str(info.value) == f"y[] is not a beta-reduct of {omega}"
    assert len(contractions) == 1


def test_subject_reduce_under_expansion():
    d = parse_derivation("(exp 1 (arrE (arrI x [] a (ax' x a)) (ax' y a)))")
    out = subject_reduce(d, parse_term("y[1]"), Relation.BETA)
    assert pj(out) == "(judg y[1] ((y [1] (e 1 a))) (e 1 a))"


@pytest.mark.parametrize(
    "text, want",
    [
        (
            "(arrI x [] (w []) (arrE (arrIW y [] (ax z b)) (w x[])))",
            "(arrIW x [] (ax z b))",
        ),
        (
            "(arrI x [] a (arrE (arrIW y [] (ax z b)) (sub (ax x a) ((x [] a)) (w []))))",
            "(sub (arrIW x [] (ax z b)) ((z [] b)) (-> a b))",
        ),
    ],
    ids=["omega-argument", "sub-argument"],
)
def test_subject_reduce_reweakens_an_erased_binder(text, want):
    out = subject_reduce(parse_derivation(text), parse_term("(lam x [] z[])"), Relation.BETA)
    assert print_derivation(out) == want


# ---------------------------------------------------------------- expansion


def test_subject_expand_beta_redex():
    d = parse_derivation("(ax' y a)")
    src = parse_term("(app (lam x [] x[]) y[])")
    out = subject_expand_beta(d, src)
    assert pj(out) == "(judg (app (lam x [] x[]) y[]) ((y [] a)) a)"


def test_subject_expand_variable_losing():
    d = parse_derivation("(ax' y a)")
    src = parse_term("(app (lam x [] y[]) (lam z [] z[]))")
    out = subject_expand_beta(d, src)
    assert pj(out) == "(judg (app (lam x [] y[]) (lam z [] z[])) ((y [] a)) a)"


def test_subject_expand_open_loser_enlarges_env():
    d = parse_derivation("(ax' y a)")
    src = parse_term("(app (lam x [] y[]) w[])")
    out = subject_expand_beta(d, src)
    assert pj(out) == "(judg (app (lam x [] y[]) w[]) ((w [] (w [])) (y [] a)) a)"


def test_subject_expand_rejects_non_expansions():
    d = parse_derivation("(ax' y a)")
    with pytest.raises(NotAnExpansionError):
        subject_expand_beta(d, parse_term("(lam x [] x[])"))


def test_expand_then_reduce_round_trip(corpus):
    from ikc.syntax import Abs, App, Var, all_names

    for name, d, j in corpus:
        m = j.subject
        f = next(n for n in ("f0", "f1", "f2") if n not in all_names(m))
        src = App(Abs(f, m.degree, Var(f, m.degree)), m)
        back = subject_reduce(subject_expand_beta(d, src), m, Relation.BETA)
        assert check_derivation(back) == j


def test_corpus_transports_print_as_pinned(corpus):
    # every one-step reduct of each certificate under beta and betaeta, and an
    # expansion through (lam f0 f0[]) and back; the digest pins the printed
    # derivations, so a change in any transport's output shows here
    from ikc.syntax import Abs, App, Var

    lines = []
    for _, d, j in corpus:
        m = j.subject
        for rel in (Relation.BETA, Relation.BETAETA):
            for _, _, r in step_positions(m, rel):
                lines.append(print_derivation(subject_reduce(d, r, rel)))
        e = subject_expand_beta(d, App(Abs("f0", m.degree, Var("f0", m.degree)), m))
        lines.append(print_derivation(e))
        lines.append(print_derivation(subject_reduce(e, m, Relation.BETA)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 78
    assert digest == "9ebcf965ca7fb6101e35d844d876e563a31d4b3d7d5b2ca537bdc7cdb592973f"


def test_subject_expand_lifted():
    d = parse_derivation("(exp 1 (ax' y a))")
    src = parse_term("(app (lam x [1] x[1]) y[1])")
    out = subject_expand_beta(d, src)
    assert pj(out) == "(judg (app (lam x [1] x[1]) y[1]) ((y [1] (e 1 a))) (e 1 a))"


def test_subject_expand_reintroduces_a_binder_at_omega():
    d = parse_derivation("(arrIW x [] (ax z b))")
    out = subject_expand_beta(d, parse_term("(lam x [] (app (lam y [] z[]) x[]))"))
    assert print_derivation(out) == "(arrI x [] (w []) (arrE (arrIW y [] (ax z b)) (w x[])))"


def test_expansion_keeps_a_binder_that_a_rename_back_would_rename():
    # the contraction renames both y binders; expanding back must restore
    # (lam y [1] ...) as it was, though y[] is free below it after the
    # outer binder is renamed back to y
    m = parse_term("(app (lam x [] (lam y [] (lam y [1] (app y[] x[])))) y[])")
    found = bounded_typecheck(
        m, parse_env("((y [] a))"), pt("(-> (-> a b) (-> (w [1]) b))")
    )
    assert isinstance(found, Found)
    want = (
        "(arrE (arrI x [] a (arrI y [] (-> a b) (arrIW y [1]"
        " (arrE (ax y (-> a b)) (ax x a))))) (ax y a))"
    )
    assert print_derivation(found.derivation) == want
    ((_, _, contractum),) = step_positions(m, Relation.BETA)
    assert print_term(contractum) == "(lam _r0 [] (lam _r1 [1] (app _r0[] y[])))"
    reduced = subject_reduce(found.derivation, contractum, Relation.BETA)
    back = subject_expand_beta(reduced, m)
    assert back.judgment.subject == m
    assert print_derivation(back) == want


# terms whose contraction renames a binder that is bound in the body, beyond
# enumerate_terms(5), where every renamed binder is unused
_RENAMING = [
    # an arrE side holds the renamed key but not the substituted variable
    "(app (lam x [] (lam y [] (app (app x[] y[]) y[]))) y[])",
    "(app (lam x [] (lam y [] (app y[] x[]))) y[])",
    "(app (lam x [] (lam y [] (lam y [1] (app y[] x[])))) y[])",
    # a renamed binder over a sub-binder of its own name at another index
    "(app (lam x [] (lam y [] (app y[] (lam y [1] x[])))) y[])",
    # the renamed key under an exp node
    "(app (lam x [1] (lam y [1] (app y[1] x[1]))) y[1])",
]
_RENAMING_ENVS = [
    {(): pt("a"), (1,): pt("(e 1 a)")},
    {(): pt("(-> a b)"), (1,): pt("(e 1 (-> a b))")},
    {(): pt("(-> a (-> a b))"), (1,): pt("(e 1 (-> a (-> a b)))")},
]
_RENAMING_TYPES = {
    (): [
        pt(t)
        for t in (
            "a", "(-> a b)", "(-> b a)", "(-> (w [1]) a)", "(-> (-> a b) b)",
            "(-> (-> a b) (-> a b))", "(-> (-> a b) (-> (w [1]) b))",
            "(-> (-> (-> (w [1]) a) b) b)",
        )
    ],
    (1,): [pt(t) for t in ("(e 1 a)", "(e 1 (-> a a))", "(e 1 (-> (-> a b) b))")],
}


def test_transports_through_renamed_binders_print_as_pinned(small_terms):
    # typecheck each term, reduce it by each beta step whose contractum
    # renames a binder, and expand back: both subjects are exact, and the
    # digest pins the printed derivations
    def renames(m):
        return any(n.startswith("_r") for n in all_names(m))

    terms = [m for m in small_terms if m.redexes & BETA_BIT]
    terms += [parse_term(text) for text in _RENAMING]
    lines = []
    for m in terms:
        reducts = [r for _, _, r in step_positions(m, Relation.BETA) if renames(r)]
        if not reducts:
            continue
        for profile in _RENAMING_ENVS:
            g = mk_env((k, profile[k.idx]) for k in free_vars(m))
            for u in _RENAMING_TYPES[m.degree]:
                found = bounded_typecheck(m, g, u, 2000)
                if not isinstance(found, Found):
                    continue
                for r in reducts:
                    reduced = subject_reduce(found.derivation, r, Relation.BETA)
                    back = subject_expand_beta(reduced, m)
                    assert reduced.judgment.subject == r
                    assert back.judgment.subject == m
                    lines += (print_derivation(reduced), print_derivation(back))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 64
    assert digest == "20aa5e5bd76c535b7d35c0ac42f7915668719a6d70d48e54349b0d0aaf475e59"


# ---------------------------------------------------------------- cost


def _checks_to_reduce_under(n, rule_checks):
    """Rule checks made while contracting the redex (app (lam x [] x[]) y[])
    nested under n applications of f[]."""
    a, aa = pt("a"), pt("(-> a a)")
    d = ArrE(ArrI("x", (), a, var_intro("x", a)), var_intro("y", a))
    reduct = "y[]"
    for _ in range(n):
        d = ArrE(var_intro("f", aa), d)
        reduct = f"(app f[] {reduct})"
    rule_checks.clear()
    out = subject_reduce(d, parse_term(reduct), Relation.BETA)
    count = len(rule_checks)
    assert check_derivation(out) == Judgment(parse_term(reduct), d.judgment.env, a)
    return count


def test_transport_checks_each_new_node_once(rule_checks):
    small = _checks_to_reduce_under(32, rule_checks)
    big = _checks_to_reduce_under(64, rule_checks)
    assert 0 < big <= 2.2 * small


def test_transports_elaborate_once(monkeypatch):
    # the beta contraction substitutes into trees elaborated at entry, so
    # elaborate runs once per transport, not once more per binding beta
    m = parse_term("(app (lam x [] (app x[] x[])) (lam y [] y[]))")
    found = bounded_typecheck(m, env_empty(), pt("(-> a a)"))
    assert isinstance(found, Found)
    calls = []
    elaborate = transform.elaborate

    def counting(d):
        calls.append(d)
        return elaborate(d)

    monkeypatch.setattr(transform, "elaborate", counting)
    reduced = subject_reduce(
        found.derivation, parse_term("(app (lam y [] y[]) (lam y [] y[]))"), Relation.BETA
    )
    assert len(calls) == 1
    calls.clear()
    expanded = subject_expand_beta(reduced, m)
    assert len(calls) == 1
    assert check_derivation(expanded) == found.derivation.judgment


# ---------------------------------------------------------------- rare branches
# certificates that reach the exp, interI and sub cases of the substitution,
# splitting and generation walks, which typings found by the search seldom do


def test_subst_derivation_through_an_exp_node():
    dm = parse_derivation("(exp 1 (arrE (ax f (-> a a)) (ax x a)))")
    out = subst_derivation(dm, VarKey("x", (1,)), parse_derivation("(exp 1 (ax z a))"))
    assert pj(out) == (
        "(judg (app f[1] z[1]) ((f [1] (e 1 (-> a a))) (z [1] (e 1 a))) (e 1 a))"
    )


def test_subst_derivation_renames_a_binder_under_an_exp_node():
    dm = parse_derivation("(exp 1 (arrI y [] a (arrE (ax x (-> a a)) (ax y a))))")
    dn = parse_derivation("(exp 1 (arrE (ax h (-> b (-> a a))) (ax y b)))")
    out = subst_derivation(dm, VarKey("x", (1,)), dn)
    assert pj(out) == (
        "(judg (lam _r0 [1] (app (app h[1] y[1]) _r0[1]))"
        " ((h [1] (e 1 (-> b (-> a a)))) (y [1] (e 1 b))) (e 1 (-> a a)))"
    )


def test_subst_derivation_renames_a_binder_key_through_an_exp_node():
    # the renamed binder y^[1] is free under the exp node, so the walk lowers
    # its key with the subject and renames the ax node below
    dm = parse_derivation("(arrI y [1] (e 1 a) (arrE (ax x (-> (e 1 a) b)) (exp 1 (ax y a))))")
    out = subst_derivation(dm, VarKey("x", ()), parse_derivation("(ax y (-> (e 1 a) b))"))
    assert print_derivation(out) == (
        "(arrI _r0 [1] (e 1 a) (arrE (ax y (-> (e 1 a) b)) (exp 1 (ax _r0 a))))"
    )
    assert pj(out) == (
        "(judg (lam _r0 [1] (app y[] _r0[1])) ((y [] (-> (e 1 a) b))) (-> (e 1 a) b))"
    )


def test_subst_derivation_renames_a_binder_under_an_omega_node():
    # x is not free in (w y[]), but the renamed binder y is
    dm = parse_derivation(
        "(arrI y [] a (arrE (arrE (ax x (-> a (-> (w []) b))) (ax y a)) (w y[])))"
    )
    out = subst_derivation(dm, VarKey("x", ()), parse_derivation("(ax y (-> a (-> (w []) b)))"))
    assert print_derivation(out) == (
        "(arrI _r0 [] a (arrE (arrE (ax y (-> a (-> (w []) b))) (ax _r0 a)) (w _r0[])))"
    )
    assert pj(out) == (
        "(judg (lam _r0 [] (app (app y[] _r0[]) _r0[])) ((y [] (-> a (-> (w []) b)))) (-> a b))"
    )


@pytest.mark.parametrize(
    "x, dn, message",
    [
        ("z", "(ax y a)", "z[] is not in the subject environment"),
        ("x", "(ax y b)", "replacement derivation concludes at a different type than the binding"),
    ],
)
def test_subst_derivation_preconditions(x, dn, message):
    dm = parse_derivation("(arrE (ax f (-> a b)) (ax x a))")
    with pytest.raises(PreconditionError) as info:
        subst_derivation(dm, VarKey(x, ()), parse_derivation(dn))
    assert str(info.value) == message


def test_subst_derivation_through_an_interI_node():
    dm = parse_derivation(
        "(interI (sub (ax x a) ((x [] (^ a b))) a) (sub (ax x b) ((x [] (^ a b))) b))"
    )
    out = subst_derivation(dm, VarKey("x", ()), parse_derivation("(ax' z (^ a b))"))
    assert pj(out) == "(judg z[] ((z [] (^ a b))) (^ a b))"


@pytest.mark.parametrize(
    "text,src,want",
    [
        (
            "(arrE (ax f (-> (e 1 a) b)) (exp 1 (arrE (ax g (-> a a)) (ax z a))))",
            "(app (lam x [1] (app f[] (app g[1] x[1]))) z[1])",
            "(arrE (arrI x [1] (e 1 a) (arrE (ax f (-> (e 1 a) b))"
            " (exp 1 (arrE (ax g (-> a a)) (ax x a))))) (exp 1 (ax z a)))",
        ),
        (
            "(arrE (ax f (-> (^ a b) c)) (interI"
            " (sub (arrE (ax g (-> d a)) (ax z d)) ((g [] (^ (-> d a) (-> d b))) (z [] d)) a)"
            " (sub (arrE (ax g (-> d b)) (ax z d)) ((g [] (^ (-> d a) (-> d b))) (z [] d)) b)))",
            "(app (lam x [] (app f[] (app g[] x[]))) z[])",
            "(arrE (arrI x [] d (arrE (ax f (-> (^ a b) c)) (interI"
            " (sub (arrE (ax g (-> d a)) (ax x d)) ((g [] (^ (-> d a) (-> d b))) (x [] d)) a)"
            " (sub (arrE (ax g (-> d b)) (ax x d)) ((g [] (^ (-> d a) (-> d b))) (x [] d)) b))))"
            " (interI (ax z d) (ax z d)))",
        ),
    ],
    ids=["exp", "interI-sub"],
)
def test_expansion_splits_through_exp_interI_and_sub(text, src, want):
    d = parse_derivation(text)
    j = check_derivation(d)
    out = subject_expand_beta(d, parse_term(src))
    assert print_derivation(out) == want
    assert check_derivation(out) == Judgment(parse_term(src), j.env, j.typ)
    assert check_derivation(subject_reduce(out, j.subject, Relation.BETA)) == j


def test_eta_generation_through_an_interI_node():
    d = parse_derivation(
        "(arrI x [] a (interI (arrE (ax y (-> a b)) (ax x a)) (arrE (ax y (-> a b)) (ax x a))))"
    )
    out = subject_reduce(d, parse_term("y[]"), Relation.ETA)
    assert print_derivation(out) == "(ax y (-> a b))"
    assert pj(out) == "(judg y[] ((y [] (-> a b))) (-> a b))"


def test_eta_generation_through_a_sub_node():
    d = parse_derivation(
        "(arrI x [] a (sub (arrE (ax y (-> a a)) (ax x a)) ((x [] a) (y [] (-> a a))) a))"
    )
    out = subject_reduce(d, parse_term("y[]"), Relation.ETA)
    assert print_derivation(out) == "(ax y (-> a a))"
    assert pj(out) == "(judg y[] ((y [] (-> a a))) (-> a a))"


def test_beta_contraction_through_a_sub_over_arrIW():
    d = parse_derivation("(arrE (sub (arrIW x [] (ax y a)) ((y [] a)) (-> (w []) a)) (w z[]))")
    out = subject_reduce(d, parse_term("y[]"), Relation.BETA)
    assert print_derivation(out) == "(ax y a)"
    assert pj(out) == "(judg y[] ((y [] a)) a)"


@pytest.mark.parametrize(
    "text,want,judgment",
    [
        ("(w z[1])", "(w z[])", "(judg z[] ((z [] (w []))) (w []))"),
        (
            "(interI (exp 1 (ax x a)) (exp 1 (ax x a)))",
            "(interI (ax x a) (ax x a))",
            "(judg x[] ((x [] a)) a)",
        ),
    ],
    ids=["omega", "interI"],
)
def test_lower_derivation_through_omega_and_interI(text, want, judgment):
    out = lower_derivation(parse_derivation(text), (1,))
    assert print_derivation(out) == want
    assert pj(out) == judgment
