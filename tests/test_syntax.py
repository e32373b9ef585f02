import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from linear_time import assert_linear_build

from ikc.errors import DegreeError, InputSyntaxError, JoinabilityError
from ikc.gen import enumerate_terms, random_term
from ikc import syntax
from ikc.syntax import (
    BETA_BIT,
    ETA_BIT,
    Abs,
    App,
    Var,
    VarKey,
    alpha_canon,
    alpha_eq,
    alpha_key,
    all_names,
    free_vars,
    is_beta_redex,
    is_closed,
    is_eta_redex,
    is_lift,
    joinable,
    lift,
    lower,
    parse_term,
    prefix_leq,
    print_term,
    substitute,
    term_size,
)

import random


def rand(seed, size=9):
    return random_term(random.Random(seed), size)


# ---------------------------------------------------------------- formation


def test_var_degree_is_its_index():
    assert Var("x", (2, 1)).degree == (2, 1)


def test_app_requires_prefix_order():
    with pytest.raises(DegreeError):
        App(Var("x", (2,)), Var("y", (1,)))


def test_app_requires_joinable_free_maps():
    with pytest.raises(JoinabilityError):
        App(Var("x", ()), App(Var("x", ()), Var("x", (1,))))


def test_abs_binder_extends_body_degree():
    with pytest.raises(DegreeError):
        Abs("x", (1,), Var("y", (2, 0)))


def test_abs_binder_key_exact():
    inner = App(Var("y", ()), Var("x", (1,)))
    m = Abs("x", (), inner)
    assert m._fv == {"y": (), "x": (1,)}


@pytest.mark.parametrize(
    "text",
    [
        "(app (app f[] x[1]) x[])",
        # the argument's map is the larger one; the text still names the
        # function's Index first
        "(app (app h[] x[1]) (app (app f[] g[]) x[]))",
    ],
)
def test_joinability_error_names_fun_index_first(text):
    with pytest.raises(JoinabilityError, match=r"^x free at \[1\] and \[\]$"):
        parse_term(text)


def test_prefix_leq():
    assert prefix_leq((), (3,))
    assert prefix_leq((3,), (3, 2))
    assert not prefix_leq((3, 2), (3,))
    assert not prefix_leq((2,), (3, 2))


# ---------------------------------------------------------------- shared maps


def test_abs_reuses_body_map_when_binder_not_free():
    body = App(Var("x", ()), Var("y", ()))
    assert Abs("z", (), body)._fv is body._fv
    # the same name at another Index is not the binder's variable
    other = App(Var("y", ()), Var("x", (1,)))
    assert Abs("x", (), other)._fv is other._fv


def test_closed_abstractions_share_one_map():
    m = parse_term("(lam x [] x[])")
    n = parse_term("(lam f [2] (lam y [2 1] (app f[2] y[2 1])))")
    assert m._fv is n._fv
    assert not m._fv


def test_app_reuses_the_map_that_covers_the_other():
    fun = App(Var("f", ()), Var("x", ()))
    covered = App(fun, Var("x", ()))
    assert covered._fv is fun._fv
    arg = App(Var("x", ()), Var("y", ()))
    covering = App(Var("x", ()), arg)
    assert covering._fv is arg._fv
    joined = App(Var("f", ()), Var("y", ()))
    assert joined._fv == {"f": (), "y": ()}
    assert joined._fv is not joined.fun._fv and joined._fv is not joined.arg._fv


def _nodes(terms):
    seen = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            match t:
                case Abs(_, _, body):
                    stack.append(body)
                case App(fun, arg):
                    stack += (fun, arg)
    return list(seen.values())


def test_enumerated_terms_share_maps():
    # one map object per distinct free-variable set
    nodes = _nodes(enumerate_terms(6))
    maps = {id(t._fv) for t in nodes}
    assert len(maps) == len({frozenset(t._fv.items()) for t in nodes})
    assert len(maps) * 4 <= len(nodes), (len(maps), len(nodes))


def test_equal_free_variable_sets_share_one_map(small_terms):
    # the memo tables key by the identities of the maps they combine, which
    # is sound only while every node's map is the one the table holds
    rng = random.Random(1187)
    terms = small_terms + [random_term(rng, 4 + i % 9) for i in range(400)]
    by_set = {}
    for t in _nodes(terms):
        fv_set = frozenset(t._fv.items())
        assert by_set.setdefault(fv_set, t._fv) is t._fv, print_term(t)
        assert syntax._FV_BY_SET[fv_set] is t._fv
    assert len(by_set) > 20


def test_copies_hold_the_tables_map():
    m = parse_term("(app (lam x [] (app f[] x[])) (app y[] f[]))")
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert copied == m
        assert copied._fv is m._fv and copied.fun._fv is m.fun._fv


@pytest.mark.parametrize(
    "text, name",
    [
        ("(app (app x[] y[]) (app x[1] y[1]))", "x"),
        ("(app (app y[] x[]) (app x[1] y[1]))", "x"),
        ("(app (app x[] y[]) (app y[1] (app x[1] y[1])))", "x"),
        ("(app (app x[] y[]) (app (app x[1] y[1]) y[1]))", "x"),
        ("(app (app (app x[] y[]) z[]) (lam w [] (app (app z[] y[1]) x[1])))", "y"),
        # the argument's binder x[1] is not one of its free names
        ("(app (app x[] y[]) (app (lam x [1] (app x[1] y[1])) x[1]))", "y"),
    ],
)
def test_joinability_error_on_two_names_is_unchanged(text, name):
    # the error names the first clash in the argument's own order, whatever
    # order the shared map for its free variables was first built in
    App(Var("y", (1,)), Var("x", (1,)))
    with pytest.raises(JoinabilityError, match=rf"^{name} free at \[\] and \[1\]$"):
        parse_term(text)


@pytest.mark.parametrize(
    "replacement, name",
    [
        ("(app (app w[] x[1]) y[1])", "x"),
        ("(app (app w[] y[1]) (app h[1] x[1]))", "y"),
        ("(app (app z[] x[1]) y[1])", "x"),
    ],
)
def test_substitution_joinability_error_on_two_names_is_unchanged(replacement, name):
    m = parse_term("(lam q [] (app (app h[] x[]) (app y[] z[])))")
    with pytest.raises(JoinabilityError, match=rf"^{name} free at \[\] and \[1\]$"):
        substitute(m, VarKey("z", ()), parse_term(replacement))


def _recomputed_redexes(t):
    """t's redex mask from is_beta_redex/is_eta_redex over all its subterms."""
    mask = 0
    for s in _nodes([t]):
        mask |= (BETA_BIT if is_beta_redex(s) else 0) | (ETA_BIT if is_eta_redex(s) else 0)
    return mask


def test_redex_masks_match_their_subterms(enum6, criterion3_terms):
    nodes = _nodes(enum6 + criterion3_terms)
    for t in nodes:
        assert t.redexes == _recomputed_redexes(t), print_term(t)
    assert {t.redexes for t in nodes} == {0, BETA_BIT, ETA_BIT, BETA_BIT | ETA_BIT}


def test_derived_slots_leave_node_identity_alone():
    # degree, _fv and the redex mask are not fields of equality, hashing,
    # repr or pattern matching
    assert Var.__match_args__ == ("name", "idx")
    assert Abs.__match_args__ == ("var", "idx", "body")
    assert App.__match_args__ == ("fun", "arg")
    for cls in (Var, Abs, App):
        fields = dataclasses.fields(cls)
        assert [f.name for f in fields if f.compare] == list(cls.__match_args__)
        assert [f.name for f in fields if f.repr] == list(cls.__match_args__)
    text = "(app (lam x [] (app f[] x[])) y[])"
    m, n = parse_term(text), parse_term(text)
    assert m == n and m is not n and hash(m) == hash(n)
    assert hash(m) == hash((m.fun, m.arg))
    assert hash(m.fun) == hash(("x", (), m.fun.body))
    assert hash(m.arg) == hash(("y", ()))
    assert m != parse_term("(app (lam x [] (app f[] x[])) z[])")
    assert repr(m) == (
        "App(fun=Abs(var='x', idx=(), body=App(fun=Var(name='f', idx=()), "
        "arg=Var(name='x', idx=()))), arg=Var(name='y', idx=()))"
    )
    assert Abs(var="x", idx=(), body=Var(name="x", idx=())) == parse_term("(lam x [] x[])")
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and copy.redexes == m.redexes == BETA_BIT | ETA_BIT
    assert copy.degree == () and copy._fv == {"f": (), "y": ()}


@pytest.mark.parametrize(
    "make",
    [
        lambda i, m: Abs(f"v{i % 3}", (), m),
        lambda i, m: App(m, Var(f"v{i % 3}", ())),
    ],
    ids=["abs-chain", "app-spine"],
)
def test_deep_terms_build_in_linear_time(make):
    # each node stores its degree and shares its part's free-variable map,
    # so building costs O(1) per level; walking to the head for the degree
    # would be O(n^2)
    def build(depth):
        m = Var("v1", ())
        for i in range(depth):
            m = make(i, m)
        assert m.degree == ()

    assert_linear_build(build, [2000, 4000, 8000], 16_000)


# ---------------------------------------------------------------- parse/print


@pytest.mark.parametrize(
    "text",
    [
        "x[]",
        "x[3 2 1]",
        "(lam x [] x[])",
        "(lam x [3 2] (lam y [3] (app y[3] x[3 2])))",
        "(app (lam x [] x[]) y[])",
    ],
)
def test_round_trip(text):
    assert print_term(parse_term(text)) == text


def test_parse_rejects_garbage():
    for bad in ["", "(lam x)", "(app x[])", "x[", "(lam x [] x[]) y"]:
        with pytest.raises(InputSyntaxError):
            parse_term(bad)


def test_parse_rejects_ill_formed_degrees():
    with pytest.raises(DegreeError):
        parse_term("(app x[2] y[1])")


# ---------------------------------------------------------------- lift/lower


@given(st.integers(0, 50), st.integers(0, 4))
def test_lift_lower_inverse(seed, i):
    m = rand(seed)
    assert lower(lift(m, i), (i,)) == m
    assert lower(lift(lift(m, i), 3), (3, i)) == m


def test_lower_by_nothing_is_the_term_itself():
    m = rand(3)
    assert lower(m, ()) is m


def test_lower_rejects_a_prefix_the_degree_lacks():
    m = parse_term("(lam x [2 1] (app x[2 1] y[2 1 0]))")
    with pytest.raises(DegreeError, match=r"cannot lower degree \[2 1\] by \[2 0\]"):
        lower(m, (2, 0))


def _ref_lift(m, i):
    """The recursive lift that the explicit-stack walk replaced."""
    match m:
        case Var(name, idx):
            return Var(name, (i,) + idx)
        case Abs(var, idx, body):
            return Abs(var, (i,) + idx, _ref_lift(body, i))
        case App(fun, arg):
            return App(_ref_lift(fun, i), _ref_lift(arg, i))


def _ref_lower(m, k):
    """The recursive lower, one entry of k per walk."""
    for i in k:
        m = _ref_lower1(m, i)
    return m


def _ref_lower1(m, i):
    match m:
        case Var(name, idx):
            assert idx[0] == i
            return Var(name, idx[1:])
        case Abs(var, idx, body):
            assert idx[0] == i
            return Abs(var, idx[1:], _ref_lower1(body, i))
        case App(fun, arg):
            return App(_ref_lower1(fun, i), _ref_lower1(arg, i))


def _ref_alpha_canon(m):
    """The recursive alpha_canon that the read-back from alpha_key replaced."""
    taken = set(m._fv)
    supply = []

    def grab(n):
        while len(supply) <= n:
            cand, i = f"_a{len(supply)}", 0
            while cand in taken:
                cand, i = f"_a{len(supply)}_{i}", i + 1
            supply.append(cand)
        return supply[n]

    def go(t, env, depth):
        match t:
            case Var(name, idx):
                return Var(env.get((name, idx), name), idx), depth
            case Abs(var, idx, body):
                cname = grab(depth)
                body2, d2 = go(body, {**env, (var, idx): cname}, depth + 1)
                return Abs(cname, idx, body2), d2
            case App(fun, arg):
                fun2, d1 = go(fun, env, depth)
                arg2, d2 = go(arg, env, d1)
                return App(fun2, arg2), d2

    return go(m, {}, 0)[0]


_FREE_A0_NAMES = [
    "(lam x [] (app _a0[] x[]))",
    "(lam x [] (app (app _a0[] _a0_0[]) (lam y [] (app x[] y[]))))",
    "(lam x [1] (app _a0[1] (app _a1_0[1] (lam _a0 [1] (app _a1[1] _a0[1])))))",
    "(lam _a0 [] (lam x [] (app _a0_1[] (app _a0[] x[]))))",
]


@pytest.fixture(scope="module")
def reference_pool(enum6, criterion3_terms):
    return enum6 + criterion3_terms + [parse_term(t) for t in _FREE_A0_NAMES]


def test_lift_and_lower_match_the_recursive_walks(reference_pool):
    for m in reference_pool:
        up = lift(m, 1)
        assert up == _ref_lift(m, 1)
        upup = lift(up, 0)
        assert lower(upup, (0, 1)) == _ref_lower(upup, (0, 1)) == m
        assert lower(upup, (0,)) == _ref_lower(upup, (0,)) == up


def test_alpha_canon_matches_the_recursive_walk(reference_pool):
    for m in reference_pool:
        assert alpha_canon(m) == _ref_alpha_canon(m)


def test_lift_prepends_everywhere():
    m = parse_term("(lam x [2] (app x[2] y[2 0]))")
    assert print_term(lift(m, 7)) == "(lam x [7 2] (app x[7 2] y[7 2 0]))"


# ---------------------------------------------------------------- substitution


def test_substitute_replaces_exact_key():
    m = parse_term("(app x[] y[])")
    out = substitute(m, VarKey("x", ()), parse_term("(lam z [] z[])"))
    assert print_term(out) == "(app (lam z [] z[]) y[])"


def test_substitute_avoids_capture():
    m = parse_term("(lam z [] x[])")
    out = substitute(m, VarKey("x", ()), parse_term("z[]"))
    body = out
    assert isinstance(body, Abs)
    assert body.var != "z"
    assert out._fv == {"z": ()}


def test_substitute_rejects_a_replacement_of_another_degree():
    with pytest.raises(DegreeError, match=r"^replacement for x\[1\] has degree \[\]$"):
        substitute(parse_term("x[1]"), VarKey("x", (1,)), parse_term("y[]"))


def test_substitute_ignores_other_indexes():
    m = parse_term("(app x[1] y[1])")
    out = substitute(m, VarKey("x", ()), parse_term("z[]"))
    assert out == m


def _eager_substitute(m, x, n, clashes):
    """substitute with its avoid set built up front, the reference for the
    lazy one; each renamed binder is appended to clashes."""
    avoid = set(all_names(m)) | all_names(n)

    def go(m, binds, avoid):
        live = {k: n for k, n in binds.items() if m._fv.get(k.name) == k.idx}
        if not live:
            return m
        match m:
            case Var(name, idx):
                return live.get(VarKey(name, idx), m)
            case App(fun, arg):
                return App(go(fun, live, avoid), go(arg, live, avoid))
            case Abs(var, idx, body):
                if any(var in n._fv for n in live.values()):
                    clashes.append(var)
                    i = 0
                    while f"_r{i}" in avoid:
                        i += 1
                    f = f"_r{i}"
                    avoid = avoid | {f}
                    body = go(body, {VarKey(var, idx): Var(f, idx)}, avoid)
                    return Abs(f, idx, go(body, live, avoid))
                return Abs(var, idx, go(body, live, avoid))

    return go(m, {x: n}, avoid)


_CLASHES = [
    # siblings that both clash pick the same fresh name
    (
        "(app (lam y [] x[]) (lam y [] x[]))",
        "y[]",
        "(app (lam _r0 [] y[]) (lam _r0 [] y[]))",
    ),
    # a clash under a clash avoids the name chosen above it
    ("(lam y [] (lam z [] x[]))", "(app y[] z[])", "(lam _r0 [] (lam _r1 [] (app y[] z[])))"),
    # a fresh name avoids every name of both terms, bound or free
    (
        "(lam y [] (lam _r0 [] x[]))",
        "(app y[] _r1[])",
        "(lam _r2 [] (lam _r0 [] (app y[] _r1[])))",
    ),
]


def test_substitute_matches_the_eager_reference(enum6, criterion3_terms, monkeypatch):
    # every beta contraction of enum6 and the criterion-3 terms, plus _CLASHES;
    # all_names runs only for a substitution that renames a binder
    collected = []
    monkeypatch.setattr(
        syntax, "all_names", lambda m: collected.append(m) or all_names(m)
    )
    cases = [
        (parse_term(m), VarKey("x", ()), parse_term(n), want) for m, n, want in _CLASHES
    ]
    cases += [
        (t.fun.body, VarKey(t.fun.var, t.fun.idx), t.arg, None)
        for t in _nodes(enum6 + criterion3_terms)
        if is_beta_redex(t)
    ]
    renamed = 0
    for m, x, n, want in cases:
        clashes = []
        ref = _eager_substitute(m, x, n, clashes)
        del collected[:]
        out = substitute(m, x, n)
        assert out == ref, print_term(m)
        assert bool(collected) == bool(clashes), print_term(m)
        assert want is None or print_term(out) == want
        renamed += bool(clashes)
    assert renamed > len(_CLASHES)


# ---------------------------------------------------------------- alpha


def test_alpha_eq_ignores_binder_names():
    assert alpha_eq(parse_term("(lam x [] x[])"), parse_term("(lam y [] y[])"))
    assert not alpha_eq(parse_term("(lam x [] x[])"), parse_term("(lam y [] z[])"))


def test_alpha_canon_resolves_shadowing():
    m = parse_term("(lam f [] (lam f [] f[]))")
    n = parse_term("(lam a [] (lam b [] b[]))")
    assert alpha_canon(m) == alpha_canon(n)


@given(st.integers(0, 80))
def test_alpha_canon_idempotent(seed):
    m = rand(seed)
    assert alpha_canon(alpha_canon(m)) == alpha_canon(m)


def _partition(terms, key):
    groups = {}
    for i, m in enumerate(terms):
        groups.setdefault(key(m), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def test_alpha_key_partitions_like_alpha_canon():
    rng = random.Random(4242)
    terms = enumerate_terms(5) + [random_term(rng, rng.randint(1, 12)) for _ in range(500)]
    assert _partition(terms, alpha_key) == _partition(terms, alpha_canon)
    assert all(alpha_key(alpha_canon(m)) == alpha_key(m) for m in terms)


@pytest.mark.parametrize(
    "a, b, same",
    [
        # the inner binder shadows the outer one
        ("(lam x [] (lam x [] x[]))", "(lam x [] (lam y [] y[]))", True),
        ("(lam x [] (lam x [] x[]))", "(lam x [] (lam y [] x[]))", False),
        # a same-named variable at another index is not bound by the binder
        ("(lam x [] (lam x [1] x[]))", "(lam y [] (lam z [1] y[]))", True),
        ("(lam x [] (lam x [1] x[]))", "(lam y [] (lam x [1] x[]))", False),
        ("(lam x [1] x[])", "(lam y [1] x[])", True),
        ("(lam x [1] x[])", "(lam x [1] x[1])", False),
        # a free variable named like a canonical binder stays free
        ("(lam x [] (app _a0[] x[]))", "(lam _a0 [] (app _a0[] _a0[]))", False),
        ("(lam x [] (app _a0[] x[]))", "(lam y [] (app _a0[] y[]))", True),
    ],
)
def test_alpha_key_edge_cases(a, b, same):
    m, n = parse_term(a), parse_term(b)
    assert (alpha_key(m) == alpha_key(n)) is same
    assert (alpha_canon(m) == alpha_canon(n)) is same


def test_alpha_key_deep_chain_does_not_recurse():
    m = Var("v1", ())
    for i in range(10_000):
        m = Abs(f"v{i % 3}", (), m)
    key = alpha_key(m)
    # bound by the innermost v1 (built at i = 1), binder 9998 in preorder
    assert key[-2:] == (9998, ())
    assert len(key) == 2 * 10_000 + 2


# ---------------------------------------------------------------- metadata


@given(st.integers(0, 120))
def test_every_index_extends_degree(seed):
    m = rand(seed)
    deg = m.degree

    def walk(t):
        match t:
            case Var(_, idx):
                assert prefix_leq(deg, idx) or prefix_leq(idx, deg)
            case Abs(_, _, body):
                walk(body)
            case App(fun, arg):
                walk(fun)
                walk(arg)

    walk(m)


@given(st.integers(0, 120))
def test_free_map_functional(seed):
    m = rand(seed)
    fm = m._fv
    assert len(free_vars(m)) == len(fm)
    assert is_closed(m) == (not fm)


def test_term_size():
    assert term_size(parse_term("(app (lam x [] x[]) y[])")) == 4


@pytest.mark.parametrize(
    "make,per_level",
    [(lambda m: Abs("v", (), m), 1), (lambda m: App(m, Var("y", (1,))), 2)],
    ids=["abs-chain", "app-spine"],
)
def test_term_size_of_a_deep_term_does_not_recurse(make, per_level):
    m = Var("x", ())
    for _ in range(10_000):
        m = make(m)
    assert term_size(m) == 1 + per_level * 10_000


def test_print_term_of_a_deep_term_does_not_recurse():
    # a 5,000-deep application spine and abstraction chain, and is_lift on
    # the lifted spine
    spine = Var("x", ())
    chain = Var("x", ())
    for i in range(5_000):
        spine = App(spine, Var(f"y{i % 2}", ()))
        chain = Abs(f"v{i % 3}", (), chain)
    assert print_term(spine) == "(app " * 5_000 + "x[]" + "".join(
        f" y{i % 2}[])" for i in range(5_000)
    )
    assert print_term(chain) == "".join(
        f"(lam v{i % 3} [] " for i in reversed(range(5_000))
    ) + "x[]" + ")" * 5_000
    assert is_lift(lift(spine, 3), spine, 3)
    assert not is_lift(lift(spine, 3), spine, 2)


@pytest.mark.parametrize(
    "make,binders",
    [(lambda m: Abs("v", (), m), 10_000), (lambda m: App(m, Var("y", (1,))), 0)],
    ids=["abs-chain", "app-spine"],
)
def test_lift_lower_and_alpha_canon_of_a_deep_term_do_not_recurse(make, binders):
    # compared through alpha_key and all_names: dataclass equality recurses
    m = Var("x", ())
    for _ in range(10_000):
        m = make(m)
    key = alpha_key(m)
    up = lift(m, 2)
    assert up.degree == (2,)
    assert alpha_key(up) == tuple((2,) + i if type(i) is tuple else i for i in key)
    assert alpha_key(lower(up, (2,))) == key
    canon = alpha_canon(m)
    assert alpha_key(canon) == key
    assert all_names(canon) == all_names(m) - {"v"} | {f"_a{n}" for n in range(binders)}


def test_joinable_reports_conflicts():
    assert not joinable(Var("x", ()), Var("x", (1,)))
    assert joinable(Var("x", ()), Var("y", (1,)))
