"""Intersection types with expansion prefixes and omega, in canonical form.

type_of_node builds a written type (atoms, arrows, intersections, omega
with an index, single-step expansions) in canonical form, which quotients by
associativity/commutativity/idempotence of the intersection, neutrality of
same-degree omega, and distribution of expansions over intersections:

    CanonType = (prefix, components)   components sorted, duplicate-free
    CanonT    = Atom(name) | Arrow(CanonType, CanonT)

Empty components = omega at the prefix.  A type's degree is its prefix;
arrows and atoms live at degree [].  The subtype procedure compares
same-prefix component sets: every right component must be dominated by some
left component, arrows contravariantly on the left.

Canonical nodes (CAtom, CArrow, CanonType) are hash-consed: constructing one
returns the existing node with the same fields if there is one, so each
distinct type is one object, and == and hash are identity.  A node stores
its sort key (read by comp_key/type_key), built from its children's stored
ones, so it is never recomputed.  The tables are plain dicts that keep
every distinct type for the life of the process: a workload builds a few
types again and again, which a weak table would let die and intern anew.
envs hash-conses environments through the same base class.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Union

from .errors import DegreeError, InputSyntaxError, ShapeError
from .syntax import Index, index_str, prefix_leq
from . import sexpr

# ---------------------------------------------------------------- canonical


class _Interned:
    """Base of the hash-consed nodes: the canonical types here and the
    environments of envs (see the module docstring).

    Each subclass keeps a table from field tuples to nodes; its __new__
    returns the table's node, or builds one with _intern, which also stores
    _key, a fact derived once from the fields: a type node's sort key, an
    environment's domain.  == and hash are object's own identity ones, so a
    tuple of nodes hashes without visiting their fields, and a node is
    immutable.
    """

    __slots__ = ("_key",)
    __match_args__: tuple[str, ...] = ()

    @classmethod
    def _intern(cls, fields: tuple, key) -> "_Interned":
        node = object.__new__(cls)
        for name, value in zip(cls.__match_args__, fields):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_key", key)
        cls._table[fields] = node
        return node

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copies and unpickled nodes are the interned ones
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __deepcopy__(self, memo):  # the node itself, without rebuilding its tree
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({args})"


class CAtom(_Interned):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    _table: dict = {}
    name: str

    def __new__(cls, name: str) -> "CAtom":
        fields = (name,)
        return cls._table.get(fields) or cls._intern(fields, (0, name))


class CArrow(_Interned):
    __slots__ = ("arg", "res")
    __match_args__ = ("arg", "res")
    _table: dict = {}
    arg: "CanonType"
    res: "CanonT"

    def __new__(cls, arg: "CanonType", res: "CanonT") -> "CArrow":
        fields = (arg, res)
        return cls._table.get(fields) or cls._intern(fields, (1, arg._key, res._key))


CanonT = Union[CAtom, CArrow]


class CanonType(_Interned):
    __slots__ = ("prefix", "comps")
    __match_args__ = ("prefix", "comps")
    _table: dict = {}
    prefix: Index
    comps: tuple[CanonT, ...]

    def __new__(cls, prefix: Index, comps: tuple[CanonT, ...]) -> "CanonType":
        fields = (prefix, comps)
        return cls._table.get(fields) or cls._intern(
            fields, (prefix, tuple(t._key for t in comps))
        )

    @property
    def degree(self) -> Index:
        return self.prefix

    def is_omega(self) -> bool:
        return not self.comps


# The sort key stored in each node: (0, name) for an atom, (1, key of arg,
# key of res) for an arrow, (prefix, keys of comps) for a type.  Equal keys
# mean the same node, and sorting by it orders components canonically.
comp_key = type_key = attrgetter("_key")


def mk_canon(prefix: Index, comps) -> CanonType:
    return CanonType(prefix, tuple(sorted(set(comps), key=comp_key)))


def omega(prefix: Index = ()) -> CanonType:
    return CanonType(prefix, ())


def atom(name: str) -> CanonType:
    return CanonType((), (CAtom(name),))


def arrow(arg: CanonType, res: CanonType) -> CanonType:
    """Arrow whose result must canonicalise to a single degree-[] component."""
    if res.prefix != () or len(res.comps) != 1:
        raise ShapeError("arrow result must be a single component at degree []")
    return CanonType((), (CArrow(arg, res.comps[0]),))


def inter(u: CanonType, v: CanonType) -> CanonType:
    if u.prefix != v.prefix:
        raise DegreeError(
            f"intersection of degrees {index_str(u.prefix)} and {index_str(v.prefix)}"
        )
    return mk_canon(u.prefix, u.comps + v.comps)


def expand_type(i: int, u: CanonType) -> CanonType:
    return CanonType((i,) + u.prefix, u.comps)


def lower_type(u: CanonType, k: Index) -> CanonType:
    if not prefix_leq(k, u.prefix):
        raise DegreeError(
            f"cannot lower degree {index_str(u.prefix)} by {index_str(k)}"
        )
    return CanonType(u.prefix[len(k):], u.comps)


def singleton(u: CanonType) -> CanonT:
    """The unique component of a degree-[] single-component type."""
    if u.prefix != () or len(u.comps) != 1:
        raise ShapeError("expected a single component at degree []")
    return u.comps[0]


# ---------------------------------------------------------------- subtyping


def subtype(u: CanonType, v: CanonType) -> bool:
    """Decide u <= v on canonical forms.

    Mixed degrees are simply not related (the relation preserves degree).
    Equal types are one object, and the relation is reflexive.
    """
    if u is v:
        return True
    if u.prefix != v.prefix:
        return False
    return all(any(comp_leq(t, t2) for t in u.comps) for t2 in v.comps)


def comp_leq(t: CanonT, t2: CanonT) -> bool:
    if t is t2:  # equal components are one object; distinct atoms differ
        return True
    match t, t2:
        case CArrow(arg1, res1), CArrow(arg2, res2):
            # contravariant argument, covariant result
            return subtype(arg2, arg1) and comp_leq(res1, res2)
    return False


# ---------------------------------------------------------------- parsing


def type_of_node(node) -> CanonType:
    """Build the canonical type of a reader node in one pass, left to right."""
    if isinstance(node, str):
        return atom(node)
    if isinstance(node, list):
        if not node or not isinstance(node[0], str):
            raise InputSyntaxError("expected a type form")
        tag = node[0]
        if tag == "w":
            if len(node) != 2 or not sexpr.is_index(node[1]):
                raise InputSyntaxError("(w ...) needs one index")
            return omega(tuple(node[1][1]))
        if tag == "->":
            if len(node) != 3:
                raise InputSyntaxError("(-> ...) needs two types")
            return arrow(type_of_node(node[1]), type_of_node(node[2]))
        if tag == "^":
            if len(node) != 3:
                raise InputSyntaxError("(^ ...) needs two types")
            return inter(type_of_node(node[1]), type_of_node(node[2]))
        if tag == "e":
            if len(node) != 3 or not isinstance(node[1], int):
                raise InputSyntaxError("(e ...) needs a natural and a type")
            return expand_type(node[1], type_of_node(node[2]))
        raise InputSyntaxError(f"unknown type head {tag!r}")
    raise InputSyntaxError(f"expected a type, got {node!r}")


def parse_type(text: str) -> CanonType:
    return type_of_node(sexpr.read_one(text))


def print_comp(t: CanonT) -> str:
    match t:
        case CAtom(name):
            return name
        case CArrow(arg, res):
            return f"(-> {print_type(arg)} {print_comp(res)})"
    raise AssertionError(t)


def print_type(u: CanonType) -> str:
    if not u.comps:
        return f"(w {index_str(u.prefix)})"
    body = print_comp(u.comps[-1])
    for t in reversed(u.comps[:-1]):
        body = f"(^ {print_comp(t)} {body})"
    for i in reversed(u.prefix):
        body = f"(e {i} {body})"
    return body
