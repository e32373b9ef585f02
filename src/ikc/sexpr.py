"""The s-expression reader behind every parser.

Tokens are '(' ')' '[' ']', naturals and identifiers.  Whitespace and commas
separate tokens, so "[3, 2]" reads as "[3 2]".  Naturals are decimal digits
of any script that int() reads; identifiers start with a letter, '_', '-',
'>' or '^' (so "->" and "^" are atoms) and go on with those, ASCII digits and
"'".  Any other character is an error, reported before any structural fault.

One pattern (_SCAN) scans the token texts; the reader and tokenize tell
their kinds apart by the first character.  tokenize computes offsets, only
for an error message: it returns (kind, text, offset) tuples, kind being
'(' ')' '[' ']' "nat" or "ident", and raises on the first bad character.

The reader keeps open lists on an explicit stack, so nesting costs no
recursion.  A node is an int, an identifier str, ("index", [int, ...]) for
a bracket list, or a list of nodes.  read_one reads exactly one node; read
reads every top-level node (a term variable x[] is two).
"""

from __future__ import annotations

import re

from .errors import InputSyntaxError

_PUNCT = r"[()\[\]]"
_NAT = r"\d+"
_IDENT = r"[A-Za-z_\->^][A-Za-z0-9_'\->^]*"
# the token texts: a bad character is a token of its own, which no branch of
# the reader accepts
_SCAN = re.compile(rf"{_PUNCT}|{_NAT}|{_IDENT}|[^\s,]")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_->^")

Node = object


def tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _SCAN.finditer(text):
        tok = m.group()
        c = tok[0]
        if c in "()[]":
            kind = tok
        elif c.isdecimal():
            kind = "nat"
        elif c in _IDENT_START:
            kind = "ident"
        else:
            raise InputSyntaxError(f"unexpected character {tok!r} at offset {m.start()}")
        toks.append((kind, tok, m.start()))
    return toks


def _fault(text: str, at: int, message: str) -> InputSyntaxError:
    """The error at token number at: message formatted with the token's text
    and offset, unless text holds a bad character, which tokenize reports."""
    _, tok, offset = tokenize(text)[at]
    return InputSyntaxError(message.format(tok, offset))


def _read(text: str, one: bool):
    toks = _SCAN.findall(text)
    n = len(toks)
    nodes: list[Node] = []
    stack: list[tuple[int, list]] = []  # open '(' lists with their token numbers
    i = 0
    while i < n:
        tok = toks[i]
        i += 1
        if tok == "(":
            stack.append((i - 1, []))
            continue
        c = tok[0]
        if c in _IDENT_START:
            node = tok
        elif tok == ")" and stack:
            node = stack.pop()[1]
        elif c.isdecimal():
            node = int(tok)
        elif tok == "[":
            at = i - 1
            entries: list[int] = []
            while True:
                if i == n:
                    raise _fault(text, at, "unclosed '[' at offset {1}")
                tok = toks[i]
                i += 1
                if tok == "]":
                    break
                if not tok[0].isdecimal():
                    raise _fault(
                        text, i - 1, "index entries must be naturals, got {0!r} at offset {1}"
                    )
                entries.append(int(tok))
            node = ("index", entries)
        else:
            raise _fault(text, i - 1, "unexpected {0!r} at offset {1}")
        if stack:
            stack[-1][1].append(node)
        elif not one:
            nodes.append(node)
        elif i < n:
            raise _fault(text, i, "trailing input {0!r} at offset {1}")
        else:
            return node
    if stack:
        raise _fault(text, stack[-1][0], "unclosed '(' at offset {1}")
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
