"""The s-expression reader behind every parser.

tokenize runs one regex and returns (kind, text, offset) tuples, kind being
'(' ')' '[' ']' "nat" or "ident".  Whitespace and commas separate tokens, so
"[3, 2]" reads as "[3 2]".  Naturals are decimal digits of any script that
int() reads; identifiers start with a letter, '_', '-', '>' or '^' (so "->"
and "^" are atoms) and go on with those, ASCII digits and "'".

The reader keeps open lists on an explicit stack, so nesting costs no
recursion.  A node is an int, an identifier str, ("index", [int, ...]) for
a bracket list, or a list of nodes.  read_one reads exactly one node; read
reads every top-level node (a term variable x[] is two).
"""

from __future__ import annotations

import re

from .errors import InputSyntaxError

_TOKEN = re.compile(
    r"[\s,]+|(?P<p>[()\[\]])|(?P<nat>\d+)"
    r"|(?P<ident>[A-Za-z_\->^][A-Za-z0-9_'\->^]*)|(?P<bad>.)",
    re.DOTALL,
)

Node = object


def tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = m.group()
        if kind == "p":
            kind = tok
        elif kind == "bad":
            raise InputSyntaxError(f"unexpected character {tok!r} at offset {m.start()}")
        toks.append((kind, tok, m.start()))
    return toks


def _read(text: str, one: bool):
    toks = tokenize(text)
    n = len(toks)
    nodes: list[Node] = []
    stack: list[tuple[int, list]] = []  # open '(' lists with their offsets
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
            entries: list[int] = []
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


def read(text: str) -> list[Node]:
    """Every top-level node of text, in order."""
    return _read(text, False)


def read_one(text: str) -> Node:
    """Exactly one node; trailing input is an error."""
    return _read(text, True)


def is_index(node: Node) -> bool:
    return isinstance(node, tuple) and len(node) == 2 and node[0] == "index"
