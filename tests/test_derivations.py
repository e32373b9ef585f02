from typing import get_args

import pytest

from ikc import derivations
from ikc.derivations import (
    ArrE,
    ArrI,
    ArrIW,
    Ax,
    ExpRule,
    InterI,
    MacroAx,
    MacroInterI,
    OmegaRule,
    SubRule,
    check_derivation,
    elaborate,
    meet,
    parse_derivation,
    print_derivation,
    sub_to,
    var_intro,
)
from ikc.envs import parse_env, print_judgment
from ikc.errors import InputSyntaxError, RuleError
from ikc.syntax import Abs, App, parse_term
from ikc.types import CanonType, CArrow, CAtom, parse_type


def pt(s):
    return parse_type(s)


def check(d):
    return print_judgment(check_derivation(d))


# ---------------------------------------------------------------- rules


def test_ax():
    assert check(Ax("x", CAtom("a"))) == "(judg x[] ((x [] a)) a)"


def test_omega_rule_env_is_omega_over_fv():
    d = OmegaRule(parse_term("(app x[] y[1])"))
    assert check(d) == "(judg (app x[] y[1]) ((x [] (w [])) (y [1] (w [1]))) (w []))"


def test_arr_i():
    d = ArrI("y", (), pt("a"), var_intro("y", pt("a")))
    assert check(d) == "(judg (lam y [] y[]) () (-> a a))"


def test_arr_i_requires_binding_present():
    with pytest.raises(RuleError):
        check_derivation(ArrI("z", (), pt("a"), var_intro("y", pt("a"))))


def test_arr_i_annotation_must_match():
    with pytest.raises(RuleError):
        check_derivation(ArrI("y", (), pt("b"), var_intro("y", pt("a"))))


def test_arr_iw_binder_must_be_absent():
    d = ArrIW("x", (), var_intro("y", pt("a")))
    assert check(d) == "(judg (lam x [] y[]) ((y [] a)) (-> (w []) a))"
    with pytest.raises(RuleError):
        check_derivation(ArrIW("y", (), var_intro("y", pt("a"))))


def test_arr_e_exact_argument_match():
    f = var_intro("f", pt("(-> a b)"))
    with pytest.raises(RuleError):
        check_derivation(ArrE(f, var_intro("y", pt("(^ a c)"))))
    d = ArrE(f, var_intro("y", pt("a")))
    assert check(d) == "(judg (app f[] y[]) ((f [] (-> a b)) (y [] a)) b)"


def test_arr_e_fun_must_be_single_arrow():
    with pytest.raises(RuleError):
        check_derivation(ArrE(var_intro("f", pt("a")), var_intro("y", pt("a"))))


def test_inter_i_needs_identical_env():
    left = ArrI("y", (), pt("a"), var_intro("y", pt("a")))
    right = ArrI("y", (), pt("b"), var_intro("y", pt("b")))
    assert check(InterI(left, right)) == "(judg (lam y [] y[]) () (^ (-> a a) (-> b b)))"
    with pytest.raises(RuleError):
        check_derivation(InterI(left, var_intro("x", pt("a"))))


def test_exp_rule_lifts_subject_env_type():
    d = ExpRule(2, Ax("x", CAtom("a")))
    assert check(d) == "(judg x[2] ((x [2] (e 2 a))) (e 2 a))"


def _given_terms():
    """(rule class, premises, a term that is the conclusion's subject, terms
    that are not), for each rule that takes its caller's term."""
    y, a = var_intro("y", pt("a")), pt("a")
    f = var_intro("f", pt("(-> a b)"))
    ax = Ax("x", CAtom("a"))
    return [
        (Ax, ("x", CAtom("a")), parse_term("x[]"), ["y[]", "x[1]", "(lam x [] x[])"]),
        (ArrI, ("y", (), a, y), parse_term("(lam y [] y[])"), ["(lam z [] y[])", "y[]"]),
        (ArrIW, ("x", (), y), parse_term("(lam x [] y[])"), ["(lam x [1] y[])", "y[]"]),
        (ArrE, (f, y), parse_term("(app f[] y[])"), ["(app y[] f[])", "f[]"]),
        (ExpRule, (2, ax), parse_term("x[2]"), ["x[1]", "y[2]", "(lam x [2] x[2])"]),
        (
            ExpRule,
            (1, ArrE(f, y)),
            parse_term("(app f[1] y[1])"),
            ["(app f[1] y[1 0])", "(app f[1] z[1])", "(app y[1] f[1])"],
        ),
    ]


@pytest.mark.parametrize(
    "case", range(6), ids=["ax", "arrI", "arrIW", "arrE", "exp-var", "exp-app"]
)
def test_rules_conclude_the_same_judgment_whatever_term_they_are_given(case):
    # a term is used only when its parts are the premises' subjects (the
    # lift of the premise's, for exp); any other term is ignored
    rule, premises, fitting, misfits = _given_terms()[case]
    want = rule(*premises).judgment
    for text in misfits:
        assert rule(*premises, parse_term(text)).judgment == want
    assert rule(*premises, fitting).judgment == want


def test_rules_reuse_a_term_built_over_their_premises_subjects():
    y = var_intro("y", pt("a"))
    f = var_intro("f", pt("(-> a b)"))
    lam = Abs("y", (), y.judgment.subject)
    assert ArrI("y", (), pt("a"), y, lam).judgment.subject is lam
    weak = Abs("x", (), y.judgment.subject)
    assert ArrIW("x", (), y, weak).judgment.subject is weak
    app = App(f.judgment.subject, y.judgment.subject)
    assert ArrE(f, y, app).judgment.subject is app
    # a copy of the right shape over other objects is not taken
    copy = parse_term("(app f[] y[])")
    assert ArrE(f, y, copy).judgment.subject is not copy
    var = parse_term("x[]")
    assert Ax("x", CAtom("a"), var).judgment.subject is var
    lifted = parse_term("(app f[1] y[1])")
    assert ExpRule(1, ArrE(f, y), lifted).judgment.subject is lifted


def test_sub_rule():
    d = SubRule(var_intro("x", pt("(^ a b)")), parse_env("((x [] (^ a b)))"), pt("a"))
    assert check(d) == "(judg x[] ((x [] (^ a b))) a)"
    with pytest.raises(RuleError):
        check_derivation(
            SubRule(var_intro("x", pt("a")), parse_env("((x [] a))"), pt("b"))
        )


def test_sub_rule_cannot_weaken_env():
    with pytest.raises(RuleError):
        check_derivation(
            SubRule(var_intro("x", pt("(^ a b)")), parse_env("((x [] a))"), pt("a"))
        )


def test_parsing_checks_each_rule_as_it_builds():
    d = parse_derivation("(arrE (ax' f (-> a b)) (ax y a))")
    assert print_judgment(d.judgment) == "(judg (app f[] y[]) ((f [] (-> a b)) (y [] a)) b)"
    with pytest.raises(RuleError, match="arrE: left type a is not an arrow"):
        parse_derivation("(arrE (ax f a) (ax y a))")


def test_arr_e_joins_premises_over_different_names():
    d = parse_derivation("(arrE (arrIW y [1] (ax x a)) (w y[1]))")
    assert check(d) == "(judg (app (lam y [1] x[]) y[1]) ((x [] a) (y [1] (w [1]))) a)"


@pytest.mark.parametrize(
    "text, error, message",
    [
        (
            "(arrE (arrIW y [1] (ax x a)) (w x[1]))",
            RuleError,
            "arrE: premise environments disagree on a shared name",
        ),
        (
            "(interI (ax x a) (ax x b))",
            RuleError,
            "interI: premises use different environments; interI' meets them",
        ),
        ("(interI (ax x a) (ax y a))", RuleError, "interI: premises type different subjects"),
        (
            "(arrIW y [] (w x[]))",
            RuleError,
            "arrIW: type (w []) is not a single component at degree []",
        ),
        (
            "(sub (ax x a) ((y [] a)) a)",
            RuleError,
            "sub: target environment domain differs from the premise",
        ),
        ("(sub (ax x a) ((x [] a)) b)", RuleError, "sub: a is not a subtype of b"),
        (
            "(sub (ax' x (^ a b)) ((x [] a)) (^ a b))",
            RuleError,
            "sub: target environment is not pointwise stronger than the premise",
        ),
        ("foo", InputSyntaxError, "expected a derivation form"),
        ("()", InputSyntaxError, "expected a derivation form"),
        ("(ax 1 a)", InputSyntaxError, "(ax name type)"),
        ("(w x[] y[])", InputSyntaxError, "(w term)"),
        ("(arrI x [] a)", InputSyntaxError, "(arrI name index type derivation)"),
        ("(arrIW x [])", InputSyntaxError, "(arrIW name index derivation)"),
        ("(arrE (ax x a))", InputSyntaxError, "(arrE derivation derivation)"),
        ("(exp x (ax x a))", InputSyntaxError, "(exp natural derivation)"),
        ("(sub (ax x a))", InputSyntaxError, "(sub derivation env type)"),
        ("(foo)", InputSyntaxError, "unknown derivation head 'foo'"),
    ],
)
def test_bad_certificates_name_their_fault(text, error, message):
    with pytest.raises(error) as info:
        parse_derivation(text)
    assert type(info.value) is error
    assert str(info.value) == message


# ---------------------------------------------------------------- macros


def test_macro_ax_elaborates():
    d = MacroAx("x", pt("(e 1 (^ a b))"))
    j = check_derivation(d)
    assert print_judgment(j) == "(judg x[1] ((x [1] (e 1 (^ a b)))) (e 1 (^ a b)))"
    assert check_derivation(elaborate(d)) == j


def test_macro_inter_i_meets_envs():
    d = MacroInterI(Ax("x", CAtom("a")), MacroAx("x", pt("(-> b b)")))
    assert check(d) == "(judg x[] ((x [] (^ a (-> b b)))) (^ a (-> b b)))"


def _checks_to_parse_nested_meets(k, rule_checks):
    text = "(ax' x a)"
    for _ in range(k):
        text = f"(interI' (ax' x a) {text})"
    rule_checks.clear()
    d = parse_derivation(text)
    count = len(rule_checks)
    assert print_derivation(d) == text
    return count


def test_nested_macros_elaborate_once(rule_checks):
    counts = [_checks_to_parse_nested_meets(k, rule_checks) for k in (8, 16, 32)]
    assert all(0 < b <= 2.2 * a for a, b in zip(counts, counts[1:])), counts


# ---------------------------------------------------------------- macro mark


_RULES = get_args(derivations.Derivation)
_MACROS = (MacroAx, MacroInterI)


def _premises(d):
    return [p for p in (getattr(d, f) for f in d.__match_args__) if isinstance(p, _RULES)]


def _macro_nodes(d):
    """The macro nodes of d, by a full walk that ignores the mark."""
    out, stack = [], [d]
    while stack:
        t = stack.pop()
        if isinstance(t, _MACROS):
            out.append(t)
        stack += _premises(t)
    return out


@pytest.fixture
def elaborate_calls(monkeypatch):
    """A list that gains one entry per elaborate call, recursive ones included."""
    calls = []
    elaborate = derivations.elaborate

    def counting(d):
        calls.append(d)
        return elaborate(d)

    monkeypatch.setattr(derivations, "elaborate", counting)
    return calls


def test_macro_free_derivation_elaborates_to_itself_at_once(corpus, elaborate_calls):
    for name, d, _ in corpus:
        e = derivations.elaborate(d)
        assert not e.macro and not _macro_nodes(e), name
        elaborate_calls.clear()
        assert derivations.elaborate(e) is e, name
        assert len(elaborate_calls) == 1, name


def test_macro_mark_is_set_exactly_over_macro_nodes(corpus):
    for name, d, _ in corpus:
        stack = [d]
        while stack:
            t = stack.pop()
            assert t.macro == bool(_macro_nodes(t)), name
            stack += _premises(t)


def _bury(d, rounds):
    """d under rounds of exp, interI, sub, interI', arrE, arrI and arrIW."""
    b = CAtom("b")
    for i in range(rounds):
        d = ExpRule(1, d)
        d = InterI(d, d)
        d = SubRule(d, d.judgment.env, d.judgment.typ)
        d = MacroInterI(d, d)
        f_type = CanonType((), (CArrow(d.judgment.typ, b),))
        d = ArrE(var_intro(f"f{i}", f_type), d)
        d = ArrI(f"f{i}", (), f_type, d)
        d = ArrIW(f"z{i}", (), d)
    return d


@pytest.mark.parametrize("rounds", [1, 3, 6])
def test_buried_ax_prime_elaborates(rounds):
    d = _bury(MacroAx("x", pt("(^ a (-> a a))")), rounds)
    e = elaborate(d)
    assert d.macro and not e.macro and not _macro_nodes(e)
    assert e.judgment == d.judgment


def test_elaborate_keeps_unmarked_subtrees():
    plain = ArrI("y", (), pt("a"), var_intro("y", pt("a")))
    d = ArrE(var_intro("f", pt("(-> (-> a a) b)")), MacroInterI(plain, plain))
    assert not d.fun.macro and d.arg.macro and d.macro
    e = elaborate(d)
    assert e.fun is d.fun
    assert e.arg is d.arg.elaborated


def test_meet_rejects_different_subjects():
    with pytest.raises(RuleError):
        meet(Ax("x", CAtom("a")), Ax("y", CAtom("a")))


def test_sub_to_noop_at_target():
    d = var_intro("x", pt("a"))
    assert sub_to(d, parse_env("((x [] a))"), pt("a")) is d


# ---------------------------------------------------------------- files


def test_parse_print_round_trip(corpus_files):
    for p in corpus_files:
        text = p.read_text()
        assert print_derivation(parse_derivation(text)) + "\n" == text


def test_checked_corpus_judgments_are_stable(corpus):
    for name, d, j in corpus:
        assert check_derivation(d) == j
