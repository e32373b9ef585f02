from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ikc import sexpr
from ikc.errors import DegreeError, InputSyntaxError
from ikc.envs import parse_env, parse_judgment
from ikc.syntax import Var, parse_term
from ikc.types import parse_type


def test_tokenize_returns_kind_text_offset():
    assert sexpr.tokenize("(e 12, x-y')[3 ٣]") == [
        ("(", "(", 0),
        ("ident", "e", 1),
        ("nat", "12", 3),
        ("ident", "x-y'", 7),
        (")", ")", 11),
        ("[", "[", 12),
        ("nat", "3", 13),
        ("nat", "٣", 15),
        ("]", "]", 16),
    ]


def test_read_one_builds_nodes():
    assert sexpr.read_one("(-> (w [1, 0]) (e 2 a))") == [
        "->",
        ["w", ("index", [1, 0])],
        ["e", 2, "a"],
    ]


def test_read_returns_every_top_level_node():
    assert sexpr.read("x[] (app f[1] y[])") == [
        "x",
        ("index", []),
        ["app", "f", ("index", [1]), "y", ("index", [])],
    ]
    assert sexpr.read(" ,\t") == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input"),
        (" , ", "unexpected end of input"),
        ("(", "unclosed '(' at offset 0"),
        ("(a (b", "unclosed '(' at offset 3"),
        ("(a [1 2", "unclosed '[' at offset 3"),
        (")", "unexpected ')' at offset 0"),
        ("(a ])", "unexpected ']' at offset 3"),
        ("a b", "trailing input 'b' at offset 2"),
        ("(a) )", "trailing input ')' at offset 4"),
        ("[1 x]", "index entries must be naturals, got 'x' at offset 3"),
        ("[1 (]", "index entries must be naturals, got '(' at offset 3"),
        ("(a #)", "unexpected character '#' at offset 3"),
        ("x[²]", "unexpected character '²' at offset 2"),
        ("(e ¹ a)", "unexpected character '¹' at offset 3"),
    ],
)
def test_reader_error_texts(text, message):
    with pytest.raises(InputSyntaxError) as e:
        sexpr.read_one(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_term, "x", "variable 'x' must be followed by an index"),
        (parse_term, "5", "expected a term, got 5"),
        (parse_term, "()", "expected (lam ...) or (app ...)"),
        (parse_term, "(lam x [] y[] z[])", "lam has trailing items after its body"),
        (parse_term, "(app f[] x[] y[])", "app has trailing items after its argument"),
        (parse_term, "(foo)", "unknown term head 'foo'"),
        (parse_type, "()", "expected a type form"),
        (parse_type, "(foo a)", "unknown type head 'foo'"),
        (parse_type, "5", "expected a type, got 5"),
        (parse_env, "a", "expected an environment ((name index type) ...)"),
        (parse_env, "((x a))", "environment entries are (name index type)"),
        (parse_judgment, "(foo)", "expected (judg term env type)"),
        (parse_judgment, "(judg x[] ())", "judg needs exactly a term, an environment and a type"),
    ],
)
def test_form_error_texts(parse, text, message):
    # text that reads as s-expressions but is no term, type, environment
    # or judgment
    with pytest.raises(InputSyntaxError) as e:
        parse(text)
    assert str(e.value) == message


def test_digit_that_int_reads_is_a_natural():
    # '٣' (ARABIC-INDIC DIGIT THREE) is a decimal digit; '²' is not
    assert parse_term("x[٣]") == Var("x", (3,))


def test_read_one_deep_nesting_does_not_recurse():
    depth = 100_000
    node = sexpr.read_one("(" * depth + "a" + ")" * depth)
    for _ in range(depth):
        (node,) = node
    assert node == "a"


def test_type_faults_are_reported_left_to_right():
    # two faults: the argument mixes degrees [] and [1], and the result is
    # not a single component; the argument, read first, is named
    with pytest.raises(DegreeError) as e:
        parse_type("(-> (^ a (e 1 b)) (^ a b))")
    assert str(e.value) == "intersection of degrees [] and [1]"


# ---------------------------------------------------------------- differential


def _reference_read(text, one):
    """The reader as it was when it walked tokenize's (kind, text, offset)
    tuples: every node and error text of sexpr.read/read_one must match it."""
    toks = sexpr.tokenize(text)
    n = len(toks)
    nodes = []
    stack = []  # open '(' lists with their offsets
    i = 0
    while i < n:
        kind, tok, pos = toks[i]
        i += 1
        if kind == "nat":
            node = int(tok)
        elif kind == "ident":
            node = tok
        elif kind == "(":
            stack.append((pos, []))
            continue
        elif kind == ")" and stack:
            node = stack.pop()[1]
        elif kind == "[":
            entries = []
            while True:
                if i == n:
                    raise InputSyntaxError(f"unclosed '[' at offset {pos}")
                kind, tok, at = toks[i]
                i += 1
                if kind == "]":
                    break
                if kind != "nat":
                    raise InputSyntaxError(
                        f"index entries must be naturals, got {tok!r} at offset {at}"
                    )
                entries.append(int(tok))
            node = ("index", entries)
        else:
            raise InputSyntaxError(f"unexpected {tok!r} at offset {pos}")
        if stack:
            stack[-1][1].append(node)
        elif not one:
            nodes.append(node)
        elif i < n:
            _, tok, pos = toks[i]
            raise InputSyntaxError(f"trailing input {tok!r} at offset {pos}")
        else:
            return node
    if stack:
        raise InputSyntaxError(f"unclosed '(' at offset {stack[-1][0]}")
    if one:
        raise InputSyntaxError("unexpected end of input")
    return nodes


_OPEN, _CLOSE = object(), object()


def _flat(node):
    """node as a flat list, lists bracketed by markers, so that deep nodes
    compare without recursion."""
    out, stack = [], [node]
    while stack:
        t = stack.pop()
        if isinstance(t, list):
            out.append(_OPEN)
            stack.append(_CLOSE)
            stack += reversed(t)
        else:
            out.append(t)
    return out


def _outcome(read, *args):
    try:
        return "node", _flat(read(*args))
    except Exception as e:  # the type and the text are compared
        return type(e), str(e)


def _assert_reads_like_the_reference(text):
    assert _outcome(sexpr.read, text) == _outcome(_reference_read, text, False)
    assert _outcome(sexpr.read_one, text) == _outcome(_reference_read, text, True)


_ALPHABET = "()[] ,\t\nax->^_'019\u0663\u00b2#\u00e9"
_DEEP = "(" * 3000 + "x[0]" + ")" * 3000


@settings(max_examples=3000, derandomize=True, deadline=None)
@given(st.text(alphabet=_ALPHABET, max_size=40))
@example("(a) , \t\n")  # trailing separators
@example("x[] ,")
@example("(a ])#")  # a bad character after a structural fault
@example("(a (b \u00b2")
@example("[1 x] \u00e9")
@example("a b #")
@example(_DEEP)
@example(_DEEP + " )")
@example(_DEEP[:-1])
@example(_DEEP + "\u00b2")
def test_reader_matches_the_reference(text):
    _assert_reads_like_the_reference(text)


def test_reader_matches_the_reference_on_the_corpus():
    files = sorted((Path(__file__).resolve().parent.parent / "corpus").iterdir())
    assert files
    for p in files:
        _assert_reads_like_the_reference(p.read_text())
