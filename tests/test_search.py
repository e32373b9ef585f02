import copy
import hashlib
import pathlib
import pickle
import time
from dataclasses import FrozenInstanceError

import pytest

from ikc import reduction, search
from ikc.derivations import check_derivation, print_derivation
from ikc.envs import Judgment, env_empty, mk_env, parse_env
from ikc.search import Found, Refuted, Unknown, bounded_typecheck
from ikc.syntax import VarKey, alpha_key, parse_term, print_term
from ikc.types import parse_type


def found_at(term, env, typ, fuel=100000):
    m = parse_term(term)
    g = parse_env(env)
    u = parse_type(typ)
    out = bounded_typecheck(m, g, u, fuel=fuel)
    assert isinstance(out, Found), out
    assert check_derivation(out.derivation) == Judgment(m, g, u)
    return out


# ---------------------------------------------------------------- found


def test_identity():
    found_at("(lam x [] x[])", "()", "(-> a a)")


def test_identity_lifted():
    found_at("(lam x [1] x[1])", "()", "(e 1 (-> a a))")


def test_self_application():
    found_at("(lam x [] (app x[] x[]))", "()", "(-> (^ a (-> a b)) b)")


def test_erasing_abstraction():
    found_at("(lam x [] (lam y [] x[]))", "()", "(-> a (-> (w []) a))")


def test_identity_applied_to_identity():
    found_at(
        "(app (lam x [] x[]) (lam y [] y[]))", "()", "(-> a a)"
    )


def test_open_subject():
    found_at("(app f[] z[])", "((f [] (-> a b)) (z [] a))", "b")


def test_iterator_two():
    found_at(
        "(lam f [] (lam y [] (app f[] (app f[] y[]))))",
        "()",
        "(-> (-> a a) (-> a a))",
    )


def test_found_with_intersection_goal():
    found_at("(lam x [] x[])", "()", "(^ (-> a a) (-> b b))")


# ---------------------------------------------------------------- refuted


def test_eta_expanded_identity_refuted():
    out = bounded_typecheck(
        parse_term("(lam y [] (lam x [] (app y[] x[])))"),
        env_empty(),
        parse_type("(-> a a)"),
    )
    assert isinstance(out, Refuted)
    assert "not an arrow" in out.reason


def test_env_domain_mismatch_refuted():
    out = bounded_typecheck(parse_term("y[]"), env_empty(), parse_type("a"))
    assert isinstance(out, Refuted)
    assert "does not bind exactly the free variables" in out.reason


def test_degree_mismatch_refuted():
    out = bounded_typecheck(
        parse_term("(lam x [1] x[1])"), env_empty(), parse_type("(-> a a)")
    )
    assert isinstance(out, Refuted)
    assert "degree" in out.reason


def test_env_degree_mismatch_refuted():
    g = mk_env(((VarKey("x", (1,)), parse_type("a")),))
    out = bounded_typecheck(parse_term("x[1]"), g, parse_type("a"))
    assert isinstance(out, Refuted)


def test_wrong_atom_refuted():
    out = bounded_typecheck(
        parse_term("x[]"), parse_env("((x [] a))"), parse_type("b")
    )
    assert isinstance(out, Refuted)


def refuted_at(term, env, typ):
    out = bounded_typecheck(parse_term(term), parse_env(env), parse_type(typ))
    assert isinstance(out, Refuted), out
    return out.reason


def test_abstraction_at_an_atom_is_refuted():
    assert (
        refuted_at("(lam y [] y[])", "()", "a")
        == "component a of an abstraction type is not an arrow"
    )


def test_abstraction_arrow_argument_must_have_the_binder_degree():
    assert (
        refuted_at("(lam y [1] x[])", "((x [] a))", "(-> a a)")
        == "arrow argument degree [] differs from the binder residual [1]"
    )


def test_abstraction_shapes_are_checked_before_any_premise():
    # the premise of the first component, y:a |- b, fails too; the shape of
    # the second component refutes the goal first
    assert (
        refuted_at("(lam y [] y[])", "()", "(^ (-> a b) (-> (e 1 a) c))")
        == "arrow argument degree [1] differs from the binder residual []"
    )


# ---------------------------------------------------------------- unknown


def test_fuel_exhaustion_is_unknown():
    out = bounded_typecheck(
        parse_term("(lam x [] (app x[] x[]))"),
        env_empty(),
        parse_type("(-> (^ a (-> a b)) b)"),
        fuel=2,
    )
    assert isinstance(out, Unknown)
    assert "fuel" in out.reason


OMEGA = "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))"
GROWER = (
    "(app (lam x [] (app (app x[] x[]) x[]))"
    " (lam x [] (app (app x[] x[]) x[])))"
)


def test_unknown_names_why():
    # the leftmost path of omega comes back to omega; that of the grower
    # gains a copy of its argument per step, and each step costs the
    # reduct's size, so the default fuel runs out within a few hundred steps
    out = bounded_typecheck(parse_term(OMEGA), env_empty(), parse_type("(-> a a)"))
    assert out == Unknown(f"no beta normal form: the leftmost path revisits {OMEGA}")
    start = time.process_time()
    out = bounded_typecheck(parse_term(GROWER), env_empty(), parse_type("(-> a a)"))
    assert out == Unknown("fuel exhausted")
    assert time.process_time() - start < 1.0


def test_leftmost_path_keys_only_reducts_with_a_redex(monkeypatch):
    # the normal form that ends a path cannot repeat one of its terms, so a
    # one-step path to it keys nothing, and omega's revisit is still caught
    keyed = []
    monkeypatch.setattr(
        reduction, "alpha_key", lambda m: keyed.append(m) or alpha_key(m)
    )
    found_at("(app (lam x [] x[]) (lam y [] y[]))", "()", "(-> a a)")
    assert keyed == []
    out = bounded_typecheck(parse_term(OMEGA), env_empty(), parse_type("(-> a a)"))
    assert out == Unknown(f"no beta normal form: the leftmost path revisits {OMEGA}")
    assert len(keyed) == 2


def test_unfound_application_goal_is_not_refuted():
    # the subject normalises to lam y.y, which is found and carried back
    # across the erasing redex
    found_at(
        "(app (lam x [] (lam y [] y[])) (lam z [] (app z[] z[])))",
        "()",
        "(-> b b)",
    )


# ---------------------------------------------------------------- memo


def test_memo_shares_repeated_subgoals():
    # each of the 24 applications of y types its argument once per component
    # of y's binding, at the same goal: the memo answers the repeats, without
    # it the goals double per layer
    m = "x[]"
    for _ in range(24):
        m = f"(app y[] {m})"
    start = time.process_time()
    found_at(m, "((x [] (^ a b)) (y [] (^ (-> (^ a b) a) (-> (^ a b) b))))", "(^ a b)")
    assert time.process_time() - start < 1.0


# ---------------------------------------------------------------- stored pair


CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def test_stored_example_derivation():
    m = parse_term((CORPUS / "example3.trm").read_text())
    u = parse_type((CORPUS / "example3.typ").read_text())
    out = bounded_typecheck(m, env_empty(), u)
    assert isinstance(out, Found)
    assert check_derivation(out.derivation) == Judgment(m, env_empty(), u)


def test_uniform_inner_degree_variant_is_not_found():
    # same shape but with the inner applicand bound at the full
    # four-entry index: the applications no longer line up, and inverting
    # the normal form refutes it
    m = parse_term(
        "(lam x [3 2] (lam y [3] (app y[3] (app x[3 2]"
        " (lam u [3 2 1 0] (lam v [3 2 1 0] (app u[3 2 1 0]"
        " (app v[3 2 1 0] v[3 2 1 0]))))))))"
    )
    u = parse_type((CORPUS / "example3.typ").read_text())
    out = bounded_typecheck(m, env_empty(), u, fuel=20000)
    assert isinstance(out, Refuted), out


# ---------------------------------------------------------------- reasons


def test_reasons_are_built_when_read(monkeypatch):
    calls = []
    printer = search.print_type
    monkeypatch.setattr(search, "print_type", lambda u: calls.append(u) or printer(u))
    out = bounded_typecheck(
        parse_term("(lam x [] (lam y [] x[]))"), env_empty(), parse_type("(-> a (-> b b))")
    )
    assert isinstance(out, Refuted) and calls == []
    text = (
        "component (-> a (-> b b)) fails: component (-> b b) fails:"
        " variable binding a is not a subtype of b"
    )
    assert out.reason == text
    built = len(calls)
    assert built > 0 and out.reason == text and len(calls) == built
    match out:
        case Refuted(reason):
            assert reason == text
        case _:
            pytest.fail("Refuted(reason) did not bind")
    assert repr(out) == f"Refuted(reason={text!r})"
    assert out == Refuted(text) and hash(out) == hash(Refuted(text))
    assert out != Unknown(text)
    assert copy.copy(out) == out and pickle.loads(pickle.dumps(out)) == out
    with pytest.raises(FrozenInstanceError):
        out.reason = "other"


def test_fuel_exhaustion_reason_text():
    out = bounded_typecheck(
        parse_term("(lam x [] (app x[] x[]))"),
        env_empty(),
        parse_type("(-> (^ a (-> a b)) b)"),
        fuel=2,
    )
    assert out == Unknown("fuel exhausted")
    assert out.reason == "fuel exhausted"


# ---------------------------------------------------------------- omega goals


def test_omega_goal_is_found_without_normalising():
    # Omega has no normal form, so only the omega return can type it
    omega = "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))"
    out = found_at(omega, "()", "(w [])")
    assert print_derivation(out.derivation) == f"(w {omega})"


def test_omega_argument_goal_is_found_by_the_omega_rule():
    out = found_at("(app y[] z[])", "((y [] (-> (w []) a)) (z [] (w [])))", "a")
    assert print_derivation(out.derivation) == "(arrE (ax y (-> (w []) a)) (w z[]))"


# ---------------------------------------------------------------- pinned outcomes


def _outcome_line(out) -> str:
    if isinstance(out, Found):
        return f"Found {print_derivation(out.derivation)}"
    return f"{type(out).__name__} {out.reason}"


def test_search_outcomes_print_as_pinned(corpus):
    # every closed term of size <= 8 at each example type of its degree, and
    # each certificate's judgment three ways: bare, behind one identity redex
    # and behind two; the digest pins the printed outcomes, so a change in
    # any derivation the search builds, or in any reason, shows here
    from ikc.gen import enumerate_closed
    from ikc.semantics import EXAMPLE_TYPES
    from ikc.syntax import Abs, App, Var, all_names

    by_degree: dict = {}
    for u in EXAMPLE_TYPES.values():
        by_degree.setdefault(u.degree, []).append(u)
    lines = []
    for m in enumerate_closed(8):
        for u in by_degree.get(m.degree, ()):
            lines.append(_outcome_line(bounded_typecheck(m, env_empty(), u)))
    for _, _, j in corpus:
        m, k = j.subject, j.subject.degree
        assert not {"f0", "f0b"} & all_names(m)
        once = App(Abs("f0", k, Var("f0", k)), m)
        twice = App(Abs("f0", k, App(Abs("f0b", k, Var("f0b", k)), Var("f0", k))), m)
        for s in (m, once, twice):
            lines.append(_outcome_line(bounded_typecheck(s, j.env, j.typ)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 23734 + 90
    assert digest == "938ea9ad86f728bd024bb1ca2768f67aad0ad40861d87a82147c8ea163360892"


def test_found_derivations_conclude_at_the_subject_itself():
    # every rule node on the way reuses the subject its caller holds, so a
    # Found concludes at m itself, not at a rebuilt copy
    from ikc.gen import enumerate_closed
    from ikc.semantics import EXAMPLE_TYPES

    found = 0
    for u in EXAMPLE_TYPES.values():
        for m in enumerate_closed(7, u.degree):
            out = bounded_typecheck(m, env_empty(), u)
            if isinstance(out, Found):
                found += 1
                assert out.derivation.judgment.subject is m, print_term(m)
    assert found == 162


# the self-application at degree [1]: its leftmost path revisits it
OMEGA1 = "(app (lam x [1] (app x[1] x[1])) (lam x [1] (app x[1] x[1])))"


def test_degree_k_unknown_names_the_degree_k_term():
    out = bounded_typecheck(parse_term(OMEGA1), env_empty(), parse_type("(e 1 a)"))
    assert out == Unknown(f"no beta normal form: the leftmost path revisits {OMEGA1}")


def test_degree_k_goal_fuel_boundary():
    # one step of size 3, the degree-[1] goal on its normal form, and the
    # goal lowered to degree []: fuel 5 covers them, fuel 4 does not
    m = parse_term("(app (lam f [1] f[1]) (lam x [1] x[1]))")
    u = parse_type("(e 1 (-> a a))")
    assert bounded_typecheck(m, env_empty(), u, fuel=4) == Unknown("fuel exhausted")
    out = bounded_typecheck(m, env_empty(), u, fuel=5)
    assert isinstance(out, Found)
    assert check_derivation(out.derivation) == Judgment(m, env_empty(), u)
