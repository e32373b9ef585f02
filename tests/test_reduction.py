import random

import pytest

from hypothesis import given, settings, strategies as st

from ikc.gen import enumerate_terms, random_term
from ikc.reduction import (
    FuelExhausted,
    NormalForm,
    Relation,
    Verdict,
    check_local_confluence,
    equiv,
    first_step,
    normalize,
    step,
    step_positions,
)
from ikc.syntax import free_vars, lift, parse_term, print_term


def redex(text):
    return parse_term(text)


# ---------------------------------------------------------------- stepping


def test_beta_contracts_when_degrees_agree():
    m = redex("(app (lam x [] x[]) y[])")
    assert [print_term(r) for _, _, r in step_positions(m, Relation.BETA)] == ["y[]"]


def test_beta_stuck_on_degree_mismatch():
    # binder expects degree [1], argument has degree []
    m = redex("(app (lam x [1] (lam z [] z[])) y[])")
    assert step_positions(m, Relation.BETA) == []


def test_eta_needs_binder_absent_from_fun():
    m = redex("(lam x [] (app y[] x[]))")
    assert [print_term(r) for _, _, r in step_positions(m, Relation.ETA)] == ["y[]"]
    n = redex("(lam x [] (app x[] x[]))")
    assert step_positions(n, Relation.ETA) == []


def test_eta_key_must_match_exactly():
    # x^[1] applied, but the binder is x^[1]; fun part has x^[1] free -> no step
    m = redex("(lam x [1] (app (app y[] x[1]) x[1]))")
    assert step_positions(m, Relation.ETA) == []


def test_betaeta_superset():
    m = redex("(lam x [] (app (lam y [] y[]) x[]))")
    kinds = sorted(kind for kind, _, _ in step_positions(m, Relation.BETAETA))
    assert kinds == ["beta", "eta"]


def test_h_reduces_spine_head_only():
    m = redex("(app (lam x [] x[]) (app (lam y [] y[]) z[]))")
    hs = step_positions(m, Relation.H)
    assert len(hs) == 1 and hs[0][1] == ()
    assert len(step_positions(m, Relation.BETA)) == 2


def test_leftmost_outermost_order():
    m = redex("(app (lam x [] x[]) (app (lam y [] y[]) z[]))")
    paths = [path for _, path, _ in step_positions(m, Relation.BETA)]
    assert paths == sorted(paths)


# ---------------------------------------------------------------- invariants


@given(st.integers(0, 200))
@settings(max_examples=60)
def test_steps_preserve_degree_and_never_grow_fv(seed):
    m = random_term(random.Random(seed), 9)
    for r in Relation:
        for _, _, n in step_positions(m, r):
            assert n.degree == m.degree
            assert free_vars(n) <= free_vars(m)
            if r is Relation.ETA:
                assert free_vars(n) == free_vars(m)


@given(st.integers(0, 100))
@settings(max_examples=40)
def test_lift_commutes_with_step(seed):
    m = random_term(random.Random(seed), 8)
    up = lift(m, 2)
    for r in Relation:
        mine = sorted(print_term(lift(n, 2)) for _, _, n in step_positions(m, r))
        lifted = sorted(print_term(n) for _, _, n in step_positions(up, r))
        assert mine == lifted


# ---------------------------------------------------------------- normalize


def test_normalize_reaches_nf():
    out = normalize(redex("(app (lam x [] x[]) (lam y [] y[]))"), Relation.BETA, 10)
    assert isinstance(out, NormalForm)
    assert print_term(out.term) == "(lam y [] y[])"


def test_normalize_fuel_exhaustion():
    omega = redex("(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))")
    out = normalize(omega, Relation.BETA, 25)
    assert isinstance(out, FuelExhausted)
    assert out.steps == 25


# ---------------------------------------------------------------- equivalence


def test_equiv_eta_pair():
    a = parse_term("(lam y [] y[])")
    b = parse_term("(lam y [] (lam x [] (app y[] x[])))")
    assert equiv(a, b, Relation.ETA, 1000) is Verdict.EQUIVALENT
    assert equiv(a, b, Relation.BETA, 1000) is Verdict.DISTINCT


def test_equiv_alpha_only():
    a = parse_term("(lam x [] x[])")
    b = parse_term("(lam y [] y[])")
    assert equiv(a, b, Relation.BETA, 1) is Verdict.EQUIVALENT


# ---------------------------------------------------------------- confluence


def test_local_confluence_small_enumeration():
    for m in enumerate_terms(4):
        for r in Relation:
            assert not check_local_confluence(m, r, 2).unjoined


@pytest.mark.parametrize(
    "text, rel, peaks",
    [
        (
            "(app (lam x [] (app x[] (app x[] x[])))"
            " (app (lam y [] y[]) (app (lam z [] z[]) w[])))",
            "beta",
            32,
        ),
        (
            "(lam x [] (app (lam y [] (app y[] y[])) (app (lam z [] (app f[] z[])) x[])))",
            "betaeta",
            2,
        ),
        ("(app (lam x [] (app f[] x[])) (lam y [] (app g[] y[])))", "eta", 1),
    ],
)
def test_confluence_peak_counts(text, rel, peaks):
    rep = check_local_confluence(parse_term(text), Relation(rel), 3)
    assert rep.peaks_checked == peaks
    assert rep.ok


def test_first_step_is_the_leftmost_outermost_step():
    for m in enumerate_terms(5):
        for r in Relation:
            steps = step_positions(m, r)
            assert first_step(m, r) == (steps[0] if steps else None)


def test_step_deduplicates_alpha_variants():
    # the eta contraction and the inner beta contraction are alpha-equal
    m = redex("(lam x [] (app (lam y [] y[]) x[]))")
    assert len(step_positions(m, Relation.BETAETA)) == 2
    assert len(step(m, Relation.BETAETA)) == 1
