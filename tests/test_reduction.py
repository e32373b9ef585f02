import itertools
import random

import pytest

from hypothesis import given, settings, strategies as st

from ikc import reduction
from ikc.gen import enumerate_closed, enumerate_terms, random_term
from ikc.reduction import (
    FuelExhausted,
    LeftmostBeta,
    NormalForm,
    Relation,
    Verdict,
    beta_contract,
    check_local_confluence,
    equiv,
    first_step,
    normalize,
    step,
    step_positions,
)
from ikc.syntax import (
    BETA_BIT,
    Abs,
    App,
    Var,
    alpha_key,
    free_vars,
    is_beta_redex,
    is_eta_redex,
    lift,
    parse_term,
    print_term,
)


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


# ---------------------------------------------------------------- leftmost path


def _keyed_walk(m, limit):
    """The leftmost beta path keyed at every term: (steps, last term,
    revisited term or None), stopping after limit steps."""
    seen, steps, t = {alpha_key(m)}, [], m
    while len(steps) < limit:
        hit = first_step(t, Relation.BETA)
        if hit is None:
            break
        source, t = t, hit[2]
        key = alpha_key(t)
        if key in seen:
            return steps, t, t
        seen.add(key)
        steps.append((source, hit[1]))
    return steps, t, None


def _gated_walk(m, limit):
    """The same through LeftmostBeta, which keys no normal form."""
    walk = LeftmostBeta(m)
    steps = list(itertools.islice(walk, limit))
    return steps, walk.term, walk.revisited


# x x through a redex of another size: (X X) -> (lam y. y y) X -> X X, and
# the same with two redexes between the repeats
_X = "(lam x [] (app (lam y [] (app y[] y[])) x[]))"
_Y = "(lam x [] (app (lam y [] (app (lam z [] (app z[] z[])) y[])) x[]))"
_CYCLES = [
    "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))",
    f"(app {_X} {_X})",
    f"(app {_Y} {_Y})",
    f"(app (lam w [] (app {_X} {_X})) (lam q [] q[]))",
    f"(app (lam w [] (app w[] {_Y})) {_Y})",
    "(app (lam x [1] (app x[1] x[1])) (lam x [1] (app x[1] x[1])))",
]


@pytest.mark.parametrize("text", _CYCLES)
def test_size_gated_revisit_matches_keying_every_term_on_cycles(text):
    m = parse_term(text)
    want = _keyed_walk(m, 50)
    assert want[2] is not None
    assert _gated_walk(m, 50) == want


def test_size_gated_revisit_matches_keying_every_term_on_enum7():
    stepped = 0
    for m in enumerate_closed(7):
        want = _keyed_walk(m, 40)
        assert _gated_walk(m, 40) == want, print_term(m)
        stepped += bool(want[0])
    assert stepped > 300


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


def test_equiv_steps_both_terms_when_one_graph_never_ends():
    # n reduces to m in one step, while m's own reducts grow without end: a
    # search that always stepped the side with the smaller frontier, m's on
    # a tie, never stepped n
    w = "(lam x [] (app (lam x [1] (lam y [1] (app x[] x[]))) x[]))"
    m = parse_term(f"(app (lam x [1] (lam y [1] (app {w} {w}))) {w})")
    n = parse_term(f"(app {w} {w})")
    for fuel in (3, 50):
        assert equiv(m, n, Relation.BETA, fuel) is Verdict.EQUIVALENT


OMEGA = "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))"
# a term whose every reduct is larger: its reduction graph never ends
O3 = "(app (lam x [] (app (app x[] x[]) x[])) (lam x [] (app (app x[] x[]) x[])))"
ETA_UNDER_BETA = "(lam y [] (app (lam x [] x[]) (app f[] y[])))"


@pytest.mark.parametrize(
    "left,right,rel,fuel,want,normalises",
    [
        # the common reduct z[] lies two steps from the left term
        ("(app (lam x [] x[]) (app (lam y [] y[]) z[]))", "z[]", "beta", 1000, "Equivalent", False),
        # the left graph never ends, but its leftmost path reaches a[]
        (f"(app (lam y [] a[]) {O3})", "b[]", "beta", 50, "Distinct", True),
        (O3, "b[]", "beta", 50, "Unknown", True),
        # Omega's graph is one term: both walks end without meeting
        (OMEGA, "b[]", "beta", 50, "Distinct", False),
        (ETA_UNDER_BETA, "f[]", "betaeta", 50, "Equivalent", False),
        (ETA_UNDER_BETA, "f[]", "beta", 50, "Distinct", False),
        (ETA_UNDER_BETA, "f[]", "h", 50, "Distinct", False),
    ],
    ids=["two-steps", "normalise-fallback", "unknown", "omega", "betaeta", "beta", "h"],
)
def test_equiv_searches_past_the_first_reducts(
    monkeypatch, left, right, rel, fuel, want, normalises
):
    calls = []

    def counting(m, r, fuel):
        calls.append(m)
        return normalize(m, r, fuel)

    monkeypatch.setattr(reduction, "normalize", counting)
    out = equiv(parse_term(left), parse_term(right), Relation(rel), fuel)
    assert out is Verdict(want)
    assert bool(calls) is normalises


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


def _count_keying(monkeypatch):
    """Count the checker's calls of _keyed_steps and alpha_key."""
    calls = {"_keyed_steps": 0, "alpha_key": 0}
    for name in calls:

        def counting(*args, real=getattr(reduction, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(reduction, name, counting)
    return calls


@pytest.mark.parametrize(
    "text, rel",
    [("(lam x [] (app x[] (lam y [] y[])))", r) for r in Relation]
    + [("(lam x [] (app f[] x[]))", Relation.BETA)],
    ids=["beta", "eta", "betaeta", "h", "eta-only-under-beta"],
)
def test_redex_free_confluence_query_is_answered_from_the_mask(monkeypatch, text, rel):
    calls = _count_keying(monkeypatch)
    rep = check_local_confluence(parse_term(text), rel, 3)
    assert (rep.peaks_checked, rep.ok) == (0, True)
    assert calls == {"_keyed_steps": 0, "alpha_key": 0}


def test_h_past_the_mask_with_no_head_step(monkeypatch):
    # the beta bit is set, but the redex is under the binder
    m = parse_term("(lam x [] (app (lam y [] y[]) x[]))")
    assert m.redexes & BETA_BIT
    calls = _count_keying(monkeypatch)
    rep = check_local_confluence(m, Relation.H, 3)
    assert (rep.peaks_checked, rep.ok) == (0, True)
    assert calls == {"_keyed_steps": 1, "alpha_key": 0}


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


# ---------------------------------------------------------------- the step walk


def _reference_tagged(m, path, kinds):
    """The recursive walk that step enumeration used before redex masks: it
    enters every node; kinds is a tuple of step names."""
    match m:
        case Var():
            return
        case Abs(var, idx, body):
            if "eta" in kinds and is_eta_redex(m):
                yield "eta", path, m.body.fun
            for kind, p, r in _reference_tagged(body, path + ("body",), kinds):
                yield kind, p, Abs(var, idx, r)
        case App(fun, arg):
            if "beta" in kinds and is_beta_redex(m):
                yield "beta", path, beta_contract(m)
            for kind, p, r in _reference_tagged(fun, path + ("fun",), kinds):
                yield kind, p, App(r, arg)
            for kind, p, r in _reference_tagged(arg, path + ("arg",), kinds):
                yield kind, p, App(fun, r)


def _head_position(m):
    """The head step of m, found apart from first_step's descent: walk the
    spine, reading no redex mask, and test its head."""
    spine = []
    t = m
    while isinstance(t, App) and isinstance(t.fun, App):
        spine.append(t)
        t = t.fun
    if not is_beta_redex(t):
        return None
    reduct = beta_contract(t)
    for s in reversed(spine):
        reduct = App(reduct, s.arg)
    return "beta", ("fun",) * len(spine), reduct


_REFERENCE_KINDS = {
    Relation.BETA: ("beta",),
    Relation.ETA: ("eta",),
    Relation.BETAETA: ("beta", "eta"),
}


def _reference_steps(m, r):
    if r is Relation.H:
        hit = _head_position(m)
        return [hit] if hit else []
    return list(_reference_tagged(m, (), _REFERENCE_KINDS[r]))


def _printed(steps):
    return [(kind, path, print_term(reduct)) for kind, path, reduct in steps]


def _assert_walk_matches_reference(terms):
    """step_positions equals the reference walk on every term and relation:
    same kinds, paths and printed reducts, in the same order."""
    count = 0
    for m in terms:
        for r in Relation:
            want = _printed(_reference_steps(m, r))
            assert _printed(step_positions(m, r)) == want, (print_term(m), r)
            count += len(want)
    return count


def test_step_walk_matches_reference_on_enum6(enum6):
    assert _assert_walk_matches_reference(enum6) > 0


def test_step_walk_matches_reference_on_an_enum7_stride():
    # every 13th term of enumerate_terms(7); the whole of it (537,204 terms,
    # 354,342 steps) is checked outside the test suite
    assert _assert_walk_matches_reference(enumerate_terms(7)[::13]) > 0


def test_step_walk_matches_reference_on_criterion3_terms(criterion3_terms):
    assert _assert_walk_matches_reference(criterion3_terms) > 0


def test_head_step_matches_the_spine_reference(enum6, criterion3_terms):
    # the same kind, path and reduct, compared as terms, at degree [] and lifted
    fired = 0
    for m in enum6 + criterion3_terms:
        for t in (m, lift(m, 2)):
            want = _head_position(t)
            assert first_step(t, Relation.H) == want, print_term(t)
            fired += want is not None
    assert fired > 1000


# ---------------------------------------------------------------- deep terms

_DEPTH = 10_000


def _abs_chain(bottom):
    m = bottom
    for _ in range(_DEPTH):
        m = Abs("v", (), m)
    return m


def _fun_spine(bottom):
    # the bottom is the spine head; an argument of degree [1] never makes a
    # beta redex with a binder at []
    m = bottom
    for _ in range(_DEPTH):
        m = App(m, Var("y", (1,)))
    return m


def _arg_spine(bottom):
    m = bottom
    for _ in range(_DEPTH):
        m = App(Var("f", ()), m)
    return m


_SHAPES = {
    "abs-chain": (_abs_chain, "body"),
    "fun-spine": (_fun_spine, "fun"),
    "arg-spine": (_arg_spine, "arg"),
}

# the bottom of a deep term: no redex, or one redex that contracts to x[]
_BOTTOMS = {
    "none": "x[]",
    "beta": "(app (lam z [] z[]) x[])",
    "eta": "(lam z [] (app x[] z[]))",
}

_SEES = {
    Relation.BETA: {"beta"},
    Relation.ETA: {"eta"},
    Relation.BETAETA: {"beta", "eta"},
    Relation.H: set(),  # but for a beta redex at the head of a spine
}


@pytest.mark.parametrize("bottom", sorted(_BOTTOMS))
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_deep_terms_step_without_recursion(shape, bottom):
    # 10,000 levels is ten times the default recursion limit; the results
    # are compared by alpha key, which walks without recursion
    build, way = _SHAPES[shape]
    m = build(parse_term(_BOTTOMS[bottom]))
    contracted = alpha_key(build(Var("x", ())))
    path = (way,) * _DEPTH
    for r in Relation:
        fires = bottom in _SEES[r] or (
            r is Relation.H and bottom == "beta" and shape == "fun-spine"
        )
        hit = first_step(m, r)
        steps = step_positions(m, r)
        reducts = step(m, r)
        nf = normalize(m, r, 5)
        rep = check_local_confluence(m, r, 3)
        assert isinstance(nf, NormalForm)
        assert rep.peaks_checked == 0 and rep.ok
        if fires:
            assert hit[:2] == (bottom, path) and alpha_key(hit[2]) == contracted
            assert [(kind, p) for kind, p, _ in steps] == [(bottom, path)]
            assert [alpha_key(t) for t in reducts] == [contracted]
            assert nf.steps == 1 and alpha_key(nf.term) == contracted
        else:
            assert hit is None and steps == [] and reducts == []
            assert nf.steps == 0 and nf.term is m
