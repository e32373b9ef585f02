import pytest

from ikc import sexpr
from ikc.errors import DegreeError, InputSyntaxError
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
