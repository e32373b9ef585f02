"""Typing environments (finite maps VarKey -> CanonType) and judgments.

An environment is OK when every binding x^L : U satisfies d(U) = L.  The
checker only ever produces OK environments whose domain is exactly the free
variables of the subject; parsers accept any functional literal and leave
OK-ness to the rules.  Facts about those free variables (which names, at
which Index, whether two subjects join) are read off the subject term, never
rebuilt from an environment's keys.  One function, env_pad, gives an
environment exactly a given key set, at omega where it has no binding;
env_omega, env_enlarge and the transports' rebuilt environments call it.

Environments are hash-consed like the types (types._Interned): each item
tuple is one Env, with identity == and hash, that stores its domain.
env_pad and env_restrict return g itself on g's domain; env_bind, env_inter
and env_pad keep their results in tables keyed by their interned arguments,
which, like the type tables, live as long as the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import DegreeError, DomainError, InputSyntaxError
from .syntax import Index, Term, VarKey, free_vars, index_str, prefix_leq, print_term, term_at
from .types import (
    CanonType, _Interned, expand_type, inter, lower_type, omega, print_type, subtype,
    type_of_node,
)
from . import sexpr


# sets a slot of a frozen Judgment; only its constructor uses it
_set = object.__setattr__


class Env(_Interned):
    __slots__ = ("items",)
    __match_args__ = ("items",)
    _table: dict = {}
    items: tuple[tuple[VarKey, CanonType], ...]  # sorted by key, keys distinct

    def __new__(cls, items: tuple[tuple[VarKey, CanonType], ...]) -> "Env":
        fields = (items,)
        env = cls._table.get(fields)  # not `or`: the empty Env is falsy
        if env is None:
            env = cls._intern(fields, frozenset(k for k, _ in items))
        return env

    def get(self, key: VarKey) -> CanonType | None:
        for k, u in self.items:
            if k == key:
                return u
        return None

    def domain(self) -> frozenset[VarKey]:
        return self._key

    def __contains__(self, key: VarKey) -> bool:
        return self.get(key) is not None

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


def mk_env(pairs) -> Env:
    """Build an Env from (key, type) pairs; duplicate keys must agree."""
    seen: dict[VarKey, CanonType] = {}
    for key, u in pairs:
        if key in seen and seen[key] != u:
            raise InputSyntaxError(f"conflicting bindings for {key.name}{index_str(key.idx)}")
        seen[key] = u
    return Env(tuple(sorted(seen.items())))


def env_empty() -> Env:
    return Env(())


def env_ok(g: Env) -> bool:
    return all(u.degree == key.idx for key, u in g)


def env_pad(g: Env, keys) -> Env:
    """g on exactly the keys, at omega where g has no binding."""
    keys = frozenset(keys)
    return g if keys == g.domain() else _pad(g, keys)


@cache
def _pad(g: Env, keys: frozenset[VarKey]) -> Env:
    return mk_env((key, g.get(key) or omega(key.idx)) for key in keys)


def env_omega(m: Term) -> Env:
    return env_pad(env_empty(), free_vars(m))


@cache
def env_inter(g1: Env, g2: Env) -> Env:
    """Pointwise intersection on shared keys, union elsewhere."""
    out = dict(g1.items)
    for key, u in g2:
        out[key] = inter(out[key], u) if key in out else u
    return mk_env(out.items())


def env_expand(j: int, g: Env) -> Env:
    return mk_env(
        (VarKey(key.name, (j,) + key.idx), expand_type(j, u)) for key, u in g
    )


def env_lower(g: Env, k: Index) -> Env:
    if not k:
        return g
    for key, _ in g:
        if not prefix_leq(k, key.idx):
            raise DegreeError(
                f"binding {key.name}{index_str(key.idx)} cannot lower by {index_str(k)}"
            )
    return mk_env(
        (VarKey(key.name, key.idx[len(k):]), lower_type(u, k)) for key, u in g
    )


def env_sub(g1: Env, g2: Env) -> bool:
    """g1 <= g2 pointwise on an identical domain."""
    if g1.domain() != g2.domain():
        return False
    return all(subtype(u, g2.get(key)) for key, u in g1)


def env_restrict(g: Env, keys) -> Env:
    keys = frozenset(keys)
    if keys == g.domain():
        return g
    missing = keys - g.domain()
    if missing:
        key = min(missing)
        raise DomainError(f"{key.name}{index_str(key.idx)} not bound")
    return mk_env((key, u) for key, u in g if key in keys)


def env_enlarge(g: Env, keys) -> Env:
    """Extend g with omega bindings so its domain covers keys."""
    return env_pad(g, g.domain() | frozenset(keys))


def env_without(g: Env, key: VarKey) -> Env:
    return Env(tuple(item for item in g.items if item[0] != key))


@cache
def env_bind(g: Env, key: VarKey, u: CanonType) -> Env:
    assert key not in g, key
    return mk_env(list(g.items) + [(key, u)])


# ---------------------------------------------------------------- judgments


@dataclass(frozen=True, slots=True, init=False)
class Judgment:
    subject: Term
    env: Env
    typ: CanonType

    def __init__(self, subject: Term, env: Env, typ: CanonType):
        _set(self, "subject", subject)
        _set(self, "env", env)
        _set(self, "typ", typ)


def typing_sub(j1: Judgment, j2: Judgment) -> bool:
    """<G1 |- U1>  <=  <G2 |- U2>: covariant type, contravariant environment."""
    return subtype(j1.typ, j2.typ) and env_sub(j2.env, j1.env)


# ---------------------------------------------------------------- parsing


def env_of_node(node) -> Env:
    if not isinstance(node, list):
        raise InputSyntaxError("expected an environment ((name index type) ...)")
    pairs = []
    for entry in node:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not isinstance(entry[0], str)
            or not sexpr.is_index(entry[1])
        ):
            raise InputSyntaxError("environment entries are (name index type)")
        key = VarKey(entry[0], tuple(entry[1][1]))
        pairs.append((key, type_of_node(entry[2])))
    return mk_env(pairs)


def parse_env(text: str) -> Env:
    return env_of_node(sexpr.read_one(text))


def print_env(g: Env) -> str:
    inner = " ".join(
        f"({key.name} {index_str(key.idx)} {print_type(u)})" for key, u in g
    )
    return f"({inner})"


def parse_judgment(text: str) -> Judgment:
    node = sexpr.read_one(text)
    if not (isinstance(node, list) and node and node[0] == "judg"):
        raise InputSyntaxError("expected (judg term env type)")
    body = node[1:]
    term, i = term_at(body, 0)
    if i + 2 != len(body):
        raise InputSyntaxError("judg needs exactly a term, an environment and a type")
    return Judgment(term, env_of_node(body[i]), type_of_node(body[i + 1]))


def print_judgment(j: Judgment) -> str:
    return f"(judg {print_term(j.subject)} {print_env(j.env)} {print_type(j.typ)})"
