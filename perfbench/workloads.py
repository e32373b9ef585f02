"""The three workloads: confluence, typecheck and certify.

Each workload builds its queries from the seed during set-up, runs one
query at a time, and checks each output against a known answer outside
the timed region.  A traced run replays the first trace_rate queries per
second of the run length; the rates are set so that the untraced and the
traced pass over them take about that long together on a 2-core VM.
A workload that sets pass_size runs its whole pool in every pass of that
many queries, and its end-to-end metrics are taken over whole passes.
Kernel functions are looked up on their modules at call time, so the
tracer's rebinding sees every call made here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from ikc import derivations, envs, gen, reduction, search, semantics, syntax, transform

DATA = Path(__file__).resolve().parent / "data"
WARMUP_QUERIES = 500
WITNESSES = 3


class Raised:
    """Stands in for the output of a query whose kernel call raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"[:200]


class Checker:
    """Checks one phase's outputs outside the timed region and counts them."""

    def __init__(self):
        self.raised = self.wrong = self.decided = 0
        self.errors: list[str] = []

    def add(self, q, out) -> None:
        if isinstance(out, Raised):
            self.raised += 1
            self._error(out.text)
            return
        self.decided += self.is_decided(q, out)
        try:
            ok = self.verify(q, out)
        except Exception as exc:  # a check that raises is a wrong output
            ok = False
            self._error(f"check raised {type(exc).__name__}: {exc}"[:200])
        self.wrong += not ok

    def _error(self, text):
        if len(self.errors) < 5:
            self.errors.append(text)

    def is_decided(self, q, out) -> bool:
        return True

    def verify(self, q, out) -> bool:
        raise NotImplementedError

    def layer_values(self) -> dict:
        """Per-layer metrics that only the outputs show."""
        return {}

    def facts(self) -> dict:
        return {}


def draws(rng, pool, count):
    """count draws from pool: successive seeded shuffles of the whole pool.

    Drawing without replacement keeps the share of rare, slow inputs in a
    run close to their share of the pool, so runs with different seeds do
    comparable work.
    """
    out = []
    while len(out) < count:
        out += rng.sample(pool, min(len(pool), count - len(out)))
    return out


def _print_keys(terms):
    """print_term of every term, built bottom-up over shared subterms.

    The enumerators share subterm objects between the terms they return,
    so memoising on object identity makes this linear in the pool, where
    calling print_term on each term costs several seconds for enum7.
    """
    memo: dict[int, str] = {}

    def key(t):
        s = memo.get(id(t))
        if s is None:
            if isinstance(t, syntax.Var):
                s = t.name + syntax.index_str(t.idx)
            elif isinstance(t, syntax.Abs):
                s = f"(lam {t.var} {syntax.index_str(t.idx)} {key(t.body)})"
            else:
                s = f"(app {key(t.fun)} {key(t.arg)})"
            memo[id(t)] = s
        return s

    return [key(t) for t in terms]


def sorted_by_print(terms):
    """Terms in print_term order, independent of enumeration order."""
    keys = _print_keys(terms)
    order = sorted(range(len(terms)), key=keys.__getitem__)
    return [terms[i] for i in order]


class Confluence:
    """check_local_confluence(m, rel, 3), criterion 4's settings."""

    name = "confluence"
    queries_per_setup = 200_000
    trace_rate = 3000
    large_every = 5  # every fifth query uses one of criterion 3's larger terms

    def setup(self, seed: int) -> list:
        pool = sorted_by_print(gen.enumerate_terms(7))
        rels = tuple(reduction.Relation)
        rng = random.Random(seed)
        n = self.queries_per_setup
        # the slowest queries are a few larger terms at one relation, so
        # each (term, relation) pair runs equally often whatever the seed
        pairs = [(m, rel) for m in self.larger_terms() for rel in rels]
        large = draws(rng, pairs, n // self.large_every)
        small = [(m, rng.choice(rels)) for m in draws(rng, pool, n - len(large))]
        return [
            large.pop() if i % self.large_every == 0 else small.pop() for i in range(n)
        ]

    @staticmethod
    def larger_terms():
        """The 1000 random terms of size 8-12 that acceptance criterion 3 checks."""
        rng = random.Random(1039)
        out = []
        size = 8
        while len(out) < 1000:
            m = gen.random_term(rng, size)
            if syntax.term_size(m) > 7:
                out.append(m)
            size = 8 + (size - 7) % 5
        return out

    def run(self, q):
        m, rel = q
        return reduction.check_local_confluence(m, rel, 3)

    class checker(Checker):
        def verify(self, q, out) -> bool:
            return not out.unjoined


class Typecheck:
    """oracle_membership, then bounded_typecheck at the default fuel."""

    name = "typecheck"
    queries_per_setup = 60_000
    pass_size = None  # set by setup
    trace_rate = 250

    def setup(self, seed: int) -> list:
        by_text = {syntax.print_term(m): m for m in gen.enumerate_closed(9)}
        rows = []
        for line in (DATA / "typecheck_pool.tsv").read_text().splitlines():
            tag, label, weight, text = line.split("\t")
            if weight != "light":
                continue
            m = by_text[text]  # KeyError: the pool left closed9
            rows.append((len(rows), tag, m, label == "member"))
        # every pass runs each member twice and each non-member once, in a
        # new seeded order, so the seed decides only the order.  Uniform
        # draws would be almost all non-members; with members the larger
        # part, the median latency lies among the members' latencies, not
        # in the gap below them where the fast non-member refutations end
        pool = rows + [row for row in rows if row[3]]
        self.pass_size = len(pool)
        return draws(random.Random(seed), pool, self.queries_per_setup)

    def run(self, q):
        _, tag, m, _ = q
        verdict = semantics.oracle_membership(tag, m)
        typ = semantics.EXAMPLE_TYPES[tag]
        return verdict, search.bounded_typecheck(m, envs.env_empty(), typ)

    class checker(Checker):
        def __init__(self):
            super().__init__()
            self.verified: dict[int, list] = {}
            self.outcomes = {"found": 0, "refuted": 0, "unknown": 0}
            self.members = self.found_members = self.found_nonmembers = 0
            self.witnesses: set[str] = set()

        def is_decided(self, q, out) -> bool:
            return not isinstance(out[1], search.Unknown)

        def verify(self, q, out) -> bool:
            key, tag, m, member = q
            verdict, outcome = out
            found = isinstance(outcome, search.Found)
            self.outcomes[type(outcome).__name__.lower()] += 1
            self.members += member
            self.found_members += member and found
            if found and not member:
                # typable although the oracle says non-member: reported,
                # not failed
                self.found_nonmembers += 1
                self.witnesses.add(f"{tag} {syntax.print_term(m)}")
            if verdict.undecided or verdict.member != member:
                return False
            if member and isinstance(outcome, search.Refuted):
                return False
            if not found:
                return True
            seen = self.verified.setdefault(key, [])
            if outcome.derivation in seen:
                return True
            goal = envs.Judgment(m, envs.env_empty(), semantics.EXAMPLE_TYPES[tag])
            if derivations.check_derivation(outcome.derivation) != goal:
                return False
            seen.append(outcome.derivation)
            return True

        def layer_values(self) -> dict:
            ratio = self.found_members / self.members if self.members else 0.0
            values = {"found_member_ratio": ratio, "found_nonmember": self.found_nonmembers}
            values.update(self.outcomes)
            return {f"search.bounded_typecheck.{k}": v for k, v in values.items()}

        def facts(self) -> dict:
            return {
                "typable_nonmembers": len(self.witnesses),
                "typable_nonmember_witnesses": sorted(self.witnesses)[:WITNESSES],
            }


class Certify:
    """Certificate reads and derivation transports."""

    name = "certify"
    queries_per_setup = 60_000
    trace_rate = 450

    def setup(self, seed: int) -> list:
        reads, reduces, expands = [], [], []
        for line in (DATA / "certs.jsonl").read_text().splitlines():
            row = json.loads(line)
            want = envs.parse_judgment(row["judgment"])
            reads.append(("read", len(reads), row["certificate"], want))
            d = derivations.parse_derivation(row["certificate"])
            for target, judgment in row["reduce"]:
                n = syntax.parse_term(target)
                reduces.append(("reduce", len(reduces), d, n, envs.parse_judgment(judgment)))
            for source, judgment in row["expand"]:
                src = syntax.parse_term(source)
                expands.append(
                    ("expand", len(expands), d, src, envs.parse_judgment(judgment), want)
                )
        rng = random.Random(seed)
        quarter = self.queries_per_setup // 4
        read_draws = draws(rng, reads, 2 * quarter)
        # half reads, a quarter of each transport
        mixed = zip(
            read_draws[::2], draws(rng, reduces, quarter),
            read_draws[1::2], draws(rng, expands, quarter),
        )
        return [q for group in mixed for q in group]

    def run(self, q):
        kind = q[0]
        if kind == "read":
            d = derivations.parse_derivation(q[2])
            return derivations.check_derivation(d), derivations.print_derivation(d)
        if kind == "reduce":
            return transform.subject_reduce(q[2], q[3], reduction.Relation.BETAETA)
        d, src, want = q[2], q[3], q[5]
        out = transform.subject_expand_beta(d, src)
        return out, transform.subject_reduce(out, want.subject, reduction.Relation.BETA)

    class checker(Checker):
        def __init__(self):
            super().__init__()
            self.verified: dict[tuple, list] = {}

        def _once(self, key, d, want) -> bool:
            seen = self.verified.setdefault(key, [])
            if d in seen:
                return True
            if derivations.check_derivation(d) != want:
                return False
            seen.append(d)
            return True

        def verify(self, q, out) -> bool:
            kind, key = q[0], q[1]
            if kind == "read":
                judgment, text = out
                return text == q[2] and judgment == q[3]
            if kind == "reduce":
                return self._once(("reduce", key), out, q[4])
            expanded, back = out
            return self._once(("expand", key), expanded, q[4]) and self._once(
                ("back", key), back, q[5]
            )


WORKLOADS = {w.name: w for w in (Confluence(), Typecheck(), Certify())}


def warm_up(workload, queries) -> None:
    for q in queries[:WARMUP_QUERIES]:
        try:
            workload.run(q)
        except Exception:  # counted when the measured phase runs it again
            pass
