import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from ikc.envs import (
    env_bind,
    env_empty,
    env_enlarge,
    env_expand,
    env_inter,
    env_lower,
    env_ok,
    env_omega,
    env_pad,
    env_restrict,
    env_sub,
    env_without,
    mk_env,
    parse_env,
    parse_judgment,
    print_env,
    print_judgment,
    typing_sub,
)
from ikc.errors import DegreeError, DomainError, InputSyntaxError
from ikc.syntax import VarKey, free_vars, parse_term
from ikc.types import parse_type


def env(s):
    return parse_env(s)


def key(name, idx=()):
    return VarKey(name, idx)


# ---------------------------------------------------------------- basics


def test_env_ok_requires_degree_match():
    assert env_ok(env("((x [] a))"))
    assert env_ok(env("((x [1] (e 1 a)))"))
    assert not env_ok(mk_env([(key("x", (1,)), parse_type("a"))]))


def test_env_entries_sorted_and_functional():
    g = env("((y [] b) (x [] a))")
    assert [k.name for k, _ in g] == ["x", "y"]
    with pytest.raises(InputSyntaxError):
        mk_env([(key("x"), parse_type("a")), (key("x"), parse_type("b"))])


def test_env_inter_pointwise():
    g = env_inter(env("((x [] a) (y [] b))"), env("((x [] (-> a a)))"))
    assert g == env("((x [] (^ a (-> a a))) (y [] (^ b (w []))))") or g == env(
        "((x [] (^ a (-> a a))) (y [] b))"
    )


def test_env_restrict_and_without():
    g = env("((x [] a) (y [] b))")
    m = parse_term("x[]")
    assert env_restrict(g, free_vars(m)) == env("((x [] a))")
    assert env_without(g, key("y")) == env("((x [] a))")


def test_env_restrict_names_the_least_unbound_key():
    g = env("((x [] a))")
    with pytest.raises(DomainError, match=r"^y\[\] not bound$"):
        env_restrict(g, [key("x"), key("z", (1,)), key("y")])


def test_env_lower_names_a_binding_below_the_prefix():
    g = env("((x [1] (e 1 a)) (y [] b))")
    with pytest.raises(DegreeError, match=r"^binding y\[\] cannot lower by \[1\]$"):
        env_lower(g, (1,))


def test_env_pad_binds_exactly_the_keys():
    g = env("((x [] a) (y [] b))")
    m = parse_term("(app x[] z[1])")
    assert env_pad(g, free_vars(m)) == env("((x [] a) (z [1] (w [1])))")


def test_env_enlarge_pads_with_omega():
    g = env("((x [] a))")
    m = parse_term("(app x[] y[])")
    assert env_enlarge(g, free_vars(m)) == env("((x [] a) (y [] (w [])))")


def test_env_omega_binds_free_vars():
    m = parse_term("(app x[] y[1])")
    g = env_omega(m)
    assert g == env("((x [] (w [])) (y [1] (w [1])))")


def test_env_expand_lower_roundtrip():
    g = env("((x [] a) (y [1] (e 1 b)))")
    up = env_expand(2, g)
    assert env_ok(up)
    assert env_lower(up, (2,)) == g


def test_env_sub_is_pointwise():
    strong = env("((x [] (^ a b)))")
    weak = env("((x [] a))")
    assert env_sub(strong, weak)
    assert not env_sub(weak, strong)


# ---------------------------------------------------------------- judgments


def test_judgment_round_trip():
    text = "(judg (lam y [] y[]) () (-> a a))"
    assert print_judgment(parse_judgment(text)) == text


def test_judgment_with_env():
    j = parse_judgment("(judg (app x[] y[]) ((x [] (-> a b)) (y [] a)) b)")
    assert j.env.get(key("x")) == parse_type("(-> a b)")


def test_typing_sub():
    j1 = parse_judgment("(judg x[] ((x [] (^ a b))) (^ a b))")
    j2 = parse_judgment("(judg x[] ((x [] (^ a b))) a)")
    assert typing_sub(j1, j2)
    assert not typing_sub(j2, j1)


def test_typing_sub_env_direction():
    # the target may strengthen the environment
    j1 = parse_judgment("(judg x[] ((x [] a)) a)")
    j2 = parse_judgment("(judg x[] ((x [] (^ a b))) a)")
    assert typing_sub(j1, j2)
    assert not typing_sub(j2, j1)


def test_env_bind():
    g = env_bind(env("((x [] a))"), key("y"), parse_type("b"))
    assert g == env("((x [] a) (y [] b))")


def test_print_env_canonical():
    assert print_env(env("((y [] b) (x [] a))")) == "((x [] a) (y [] b))"


# ---------------------------------------------------------------- interning


def test_every_builder_returns_the_interned_env():
    a, b, ab = parse_type("a"), parse_type("b"), parse_type("(^ a b)")
    g = env("((x [] a) (y [] b))")
    assert mk_env([(key("y"), b), (key("x"), a)]) is g
    assert mk_env([(key("x"), a), (key("y"), b), (key("x"), a)]) is g
    assert env("((y [] b) (x [] a))") is g
    assert env_bind(env("((x [] a))"), key("y"), b) is g
    assert env_bind(env("((y [] b))"), key("x"), a) is g
    assert env_restrict(env("((x [] a) (y [] b) (z [] a))"), [key("x"), key("y")]) is g
    assert env_pad(env("((x [] a) (y [] b) (z [] a))"), [key("x"), key("y")]) is g
    assert env_inter(env("((x [] a))"), env("((y [] b))")) is g
    assert env_inter(env("((x [] a))"), env("((x [] b))")) is mk_env([(key("x"), ab)])
    up = env("((x [1] (e 1 a)) (y [1] (e 1 b)))")
    assert env_expand(1, g) is up
    assert env_lower(up, (1,)) is g
    assert env_lower(g, ()) is g


def test_pad_and_restrict_to_the_domain_return_their_input():
    g = env("((x [] a) (z [1] (w [1])))")
    assert env_pad(g, [key("z", (1,)), key("x")]) is g
    assert env_restrict(g, {key("x"), key("z", (1,))}) is g
    assert env_enlarge(g, [key("x")]) is g


def test_the_empty_env_is_one_object():
    assert env_empty() is env_empty()
    assert env("()") is env_empty()
    assert env_restrict(env("((x [] a))"), []) is env_empty()


def test_copies_and_pickles_are_the_interned_env():
    for g in [env_empty(), env("((x [] a) (y [1] (e 1 (-> a b))))")]:
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g


def test_envs_are_frozen_and_equal_by_identity():
    g = env("((x [] a))")
    with pytest.raises(FrozenInstanceError):
        g.items = ()
    with pytest.raises(FrozenInstanceError):
        g.other = 1
    assert env_sub(g, g) and env_sub(env_empty(), env_empty())
    assert g == env("((x [] a))") and g != env("((x [] b))")
    assert hash(g) == object.__hash__(g)
    assert repr(g) == (
        "Env(items=((VarKey(name='x', idx=()), CanonType(prefix=(),"
        " comps=(CAtom(name='a'),))),))"
    )
