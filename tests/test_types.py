import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from linear_time import assert_linear_build

from ikc.errors import InputSyntaxError, ShapeError
from ikc.gen import enumerate_canon_types, random_canon_type
from ikc.props import subtype_oracle_disagreements
from ikc.rulesearch import closure_universe
from ikc.types import (
    CanonType,
    CArrow,
    CAtom,
    arrow,
    atom,
    comp_leq,
    expand_type,
    inter,
    lower_type,
    mk_canon,
    omega,
    parse_type,
    print_type,
    singleton,
    subtype,
    type_key,
)


def pt(s):
    return parse_type(s)


# ---------------------------------------------------------------- canonical


def test_intersection_sorts_and_dedups():
    assert pt("(^ b a)") == pt("(^ a b)")
    assert pt("(^ a a)") == pt("a")


def test_omega_is_empty_comps():
    assert pt("(w [])") == CanonType((), ())
    assert pt("(w [2 1])").prefix == (2, 1)


def test_omega_absorbed_in_intersection():
    assert pt("(^ a (w []))") == pt("a")


def test_expansion_distributes_over_intersection():
    assert expand_type(3, pt("(^ a b)")) == pt("(e 3 (^ a b))")
    assert pt("(e 3 (^ a b))").prefix == (3,)


def test_nested_expansion_prefixes():
    u = pt("(e 2 (e 1 (-> a a)))")
    assert u.prefix == (2, 1)
    assert lower_type(u, (2, 1)) == pt("(-> a a)")
    assert lower_type(lower_type(u, (2,)), (1,)) == pt("(-> a a)")


def test_arrow_requires_bare_result():
    with pytest.raises(ShapeError):
        arrow(pt("a"), pt("(^ a b)"))
    with pytest.raises(ShapeError):
        arrow(pt("a"), pt("(e 1 a)"))


def test_degree_is_prefix():
    assert pt("(e 3 (e 2 d))").degree == (3, 2)
    assert pt("a").degree == ()


# ---------------------------------------------------------------- subtyping


def test_subtype_projection():
    assert subtype(pt("(^ a b)"), pt("a"))
    assert not subtype(pt("a"), pt("(^ a b)"))


def test_subtype_omega_top_at_same_degree():
    assert subtype(pt("(^ a b)"), pt("(w [])"))
    assert subtype(pt("(e 1 a)"), pt("(w [1])"))
    assert not subtype(pt("a"), pt("(w [1])"))


def test_subtype_arrow_variance():
    assert subtype(pt("(-> a c)"), pt("(-> (^ a b) c)"))
    assert not subtype(pt("(-> (^ a b) c)"), pt("(-> a c)"))


def test_subtype_through_expansion():
    assert subtype(pt("(e 1 (^ a b))"), pt("(e 1 a)"))
    assert not subtype(pt("(e 1 a)"), pt("(e 0 a)"))


def test_subtype_intersection_of_arrows():
    u = pt("(^ (-> a a) (-> b b))")
    assert subtype(u, pt("(-> a a)"))
    assert subtype(u, pt("(-> b b)"))
    assert not subtype(pt("(-> a a)"), u)


@given(st.integers(0, 400))
def test_subtype_reflexive(seed):
    u = random_canon_type(random.Random(seed), 4)
    assert subtype(u, u)
    assert subtype(u, omega(u.degree))


@given(st.integers(0, 100))
@settings(max_examples=30)
def test_subtype_transitive_sample(seed):
    rng = random.Random(seed)
    tys = [random_canon_type(rng, 3) for _ in range(40)]
    for u in tys:
        for v in tys:
            if not subtype(u, v):
                continue
            for w in tys:
                if subtype(v, w):
                    assert subtype(u, w)


# ---------------------------------------------------------------- parse/print


@pytest.mark.parametrize(
    "text",
    [
        "a",
        "(w [])",
        "(w [3 1])",
        "(-> a b)",
        "(^ a (-> a b))",
        "(e 3 (-> (e 2 d) a))",
        "(-> (^ b (-> a a)) (-> (w []) c))",
    ],
)
def test_round_trip(text):
    assert print_type(pt(text)) == text


def test_print_is_canonical_ordering():
    assert print_type(pt("(^ (-> a a) b)")) == "(^ b (-> a a))"


def test_parse_rejects_garbage():
    for bad in ["", "(^)", "(-> a)", "(e a b)", "(w)"]:
        with pytest.raises(InputSyntaxError):
            parse_type(bad)


def test_type_key_total_order():
    tys = enumerate_canon_types(2)
    keys = [type_key(u) for u in tys]
    assert len(set(keys)) == len(tys)
    assert sorted(keys) == sorted(keys, key=lambda k: k)


# ---------------------------------------------------------------- helpers


def test_builders():
    assert atom("a") == pt("a")
    assert arrow(pt("a"), pt("b")) == pt("(-> a b)")
    assert inter(pt("a"), pt("b")) == pt("(^ a b)")
    assert omega((1,)) == pt("(w [1])")
    assert singleton(pt("(-> a b)")) == CArrow(pt("a"), CAtom("b"))


def test_comp_leq_on_atoms_and_arrows():
    assert comp_leq(CAtom("a"), CAtom("a"))
    assert not comp_leq(CAtom("a"), CAtom("b"))
    f = CArrow(pt("(^ a b)"), CAtom("c"))
    g = CArrow(pt("a"), CAtom("c"))
    assert comp_leq(g, f)
    assert not comp_leq(f, g)


# ---------------------------------------------------------------- interning


def test_equal_types_are_one_object():
    text = "(-> (^ a b) (-> (e 1 c) d))"
    assert pt(text) is pt(text)
    assert pt("(^ b (-> a a))") is pt("(^ (-> a a) b)")
    assert CArrow(pt("a"), CAtom("b")) is singleton(pt("(-> a b)"))


def test_mk_canon_permuted_or_duplicated_is_one_object():
    a, b, f = CAtom("a"), CAtom("b"), CArrow(pt("a"), CAtom("b"))
    u = mk_canon((1,), (a, b, f))
    for comps in [(f, b, a), (b, a, f, a), (f, f, a, b, b)]:
        assert mk_canon((1,), comps) is u
    assert mk_canon((1,), ()) is omega((1,))


def test_copies_and_pickles_are_the_interned_node():
    for u in [pt("a"), pt("(w [2])"), pt("(e 3 (^ b (-> (^ a b) c)))")]:
        assert copy.copy(u) is u
        assert copy.deepcopy(u) is u
        assert pickle.loads(pickle.dumps(u)) is u
        for t in u.comps:
            assert copy.deepcopy(t) is t
            assert pickle.loads(pickle.dumps(t)) is t


def test_interned_nodes_match_print_and_stay_frozen():
    u = pt("(e 2 (-> a b))")
    match u:
        case CanonType(prefix, (CArrow(CanonType((), (CAtom(x),)), CAtom(y)),)):
            assert (prefix, x, y) == ((2,), "a", "b")
        case _:
            pytest.fail("pattern did not bind")
    assert repr(pt("(-> a b)")) == (
        "CanonType(prefix=(), comps=(CArrow(arg=CanonType(prefix=(),"
        " comps=(CAtom(name='a'),)), res=CAtom(name='b')),))"
    )
    with pytest.raises(FrozenInstanceError):
        u.prefix = ()
    with pytest.raises(FrozenInstanceError):
        u.comps[0].res = CAtom("c")
    with pytest.raises(FrozenInstanceError):
        CAtom("a").name = "b"
    assert u.prefix == (2,)


def _build_right_nested(depth: int) -> None:
    """Build a right-nested arrow type depth deep; it is freed on return,
    so the next build interns it afresh."""
    u = atom("a")
    for _ in range(depth):
        u = arrow(atom("b"), u)
    assert type_key(u)[1][0][0] == 1 and hash(u) == hash(u)


def test_deep_type_builds_in_linear_time():
    # each node's hash and sort key come from its children's stored ones,
    # so building costs O(1) per level; recomputing either would be O(n^2)
    assert_linear_build(_build_right_nested, [500, 1000, 2000], 2000)
    u = atom("a")
    for _ in range(2000):
        u = arrow(atom("b"), u)
    depth, t = 0, singleton(u)
    while isinstance(t, CArrow):
        depth, t = depth + 1, t.res
    assert depth == 2000


def test_subtype_agrees_with_the_oracle_where_every_rule_fires():
    # criterion 5's family never needs the oracle's strip or meet rule; here
    # (e 0 (-> a a)) <= (e 0 (-> (^ a b) a)) needs strip, and (-> a a) below
    # the two-arrow intersection needs meet, so a subtype that ignores arrows
    # under an expansion prefix, or that has no meet, disagrees
    universe = closure_universe(
        [
            parse_type(t)
            for t in (
                "(e 0 (-> a a))",
                "(e 0 (-> (^ a b) a))",
                "(-> a a)",
                "(^ (-> (^ a b) a) (-> (^ a (-> a a)) a))",
            )
        ]
    )
    assert len(universe) == 12
    assert subtype_oracle_disagreements(universe) == []
