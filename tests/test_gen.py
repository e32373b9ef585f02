import hashlib
import random

from ikc.gen import (
    enumerate_canon_types,
    enumerate_closed,
    enumerate_terms,
    random_canon_type,
    random_term,
)
from ikc.syntax import alpha_canon, is_closed, term_size
from ikc.types import CanonType, print_type


# ---------------------------------------------------------------- terms


def test_term_counts_are_stable():
    assert [len(enumerate_terms(s)) for s in (1, 2, 3, 4)] == [
        6,
        33,
        192,
        1260,
    ]


def test_terms_are_distinct_and_bounded():
    pool = enumerate_terms(4)
    assert len(set(pool)) == len(pool)
    assert all(term_size(m) <= 4 for m in pool)


# ---------------------------------------------------------------- closed terms


def test_closed_counts_are_stable():
    assert len(enumerate_closed(3)) == 8
    assert len(enumerate_closed(5)) == 88
    assert len(enumerate_closed(7)) == 1433


def test_closed_degree_split():
    assert len(enumerate_closed(7, degree=())) == 1232
    assert len(enumerate_closed(7, degree=(1,))) == 201


def test_closed_terms_are_closed_and_alpha_distinct():
    pool = enumerate_closed(6)
    assert all(is_closed(m) for m in pool)
    canon = {alpha_canon(m) for m in pool}
    assert len(canon) == len(pool)


# ---------------------------------------------------------------- types


def test_type_counts_are_stable():
    assert [len(enumerate_canon_types(d)) for d in (1, 2, 3)] == [4, 21, 301]


def test_type_order_is_pinned():
    # element for element: depth 3 is criterion 5's 301-type family
    assert [print_type(u) for u in enumerate_canon_types(1)] == ["a", "b", "(w [0])", "(w [1])"]
    printed = "\n".join(print_type(u) for u in enumerate_canon_types(3))
    assert hashlib.sha256(printed.encode()).hexdigest()[:16] == "585a9b8cb9a8952e"
    assert len(enumerate_canon_types(4)) == 86_784


def test_types_are_canonical():
    from ikc.types import comp_key, parse_type

    for u in enumerate_canon_types(3):
        assert isinstance(u, CanonType)
        assert list(u.comps) == sorted(set(u.comps), key=comp_key)
    for u in enumerate_canon_types(2):
        assert parse_type(print_type(u)) == u


# ---------------------------------------------------------------- random


def test_random_term_is_well_formed_and_bounded():
    rng = random.Random(7)
    for _ in range(200):
        m = random_term(rng, 9)
        assert term_size(m) <= 9


def test_random_term_is_deterministic_per_seed():
    a = [random_term(random.Random(11), 8) for _ in range(5)]
    b = [random_term(random.Random(11), 8) for _ in range(5)]
    assert a == b


def test_random_canon_type_round_trips():
    from ikc.types import parse_type, print_type

    rng = random.Random(3)
    for _ in range(200):
        u = random_canon_type(rng, 4)
        assert parse_type(print_type(u)) == u
