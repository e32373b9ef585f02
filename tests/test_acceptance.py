"""End-to-end checks, one per advertised guarantee.

Each test prints a single pass line with its measurements; a failure
carries the first few violating witnesses in the assertion message.
"""

import pathlib
import random
import time

import pytest

from ikc.derivations import check_derivation, parse_derivation
from ikc.envs import (
    Judgment,
    env_empty,
    env_enlarge,
    env_restrict,
)
from ikc.gen import (
    enumerate_canon_types,
    enumerate_closed,
    enumerate_terms,
    random_term,
)
from ikc.props import (
    step_violations,
    subtype_oracle_disagreements,
    subtype_order_violations,
    unjoined_peaks,
)
from ikc.reduction import (
    NormalForm,
    Relation,
    Verdict,
    equiv,
    normalize,
    step_positions,
)
from ikc.search import Found, Refuted, Unknown, bounded_typecheck
from ikc.semantics import (
    EXAMPLE_TYPES,
    lift_correspondence,
    oracle_membership,
    soundness_check,
)
from ikc.syntax import (
    Abs,
    App,
    Var,
    all_names,
    alpha_canon,
    free_vars,
    parse_term,
    print_term,
    term_size,
)
from ikc.types import omega, parse_type, print_type, subtype

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


@pytest.fixture(scope="module")
def enum7():
    return enumerate_terms(7)


@pytest.fixture(scope="module")
def closed9():
    return enumerate_closed(9)


def _random_larger_terms(count=1000, seed=1039):
    rng = random.Random(seed)
    out = []
    size = 8
    while len(out) < count:
        m = random_term(rng, size)
        if term_size(m) > 7:
            out.append(m)
        size = 8 + (size - 7) % 5
    return out


# ---------------------------------------------------------------- 1


def test_criterion_1_stored_example_certificate():
    t0 = time.perf_counter()
    d = parse_derivation((CORPUS / "example3.drv").read_text())
    j = check_derivation(d)
    m = parse_term((CORPUS / "example3.trm").read_text())
    u = parse_type((CORPUS / "example3.typ").read_text())
    assert j == Judgment(m, env_empty(), u)
    out = bounded_typecheck(m, env_empty(), u, fuel=100000)
    assert isinstance(out, Found), out
    assert check_derivation(out.derivation) == j
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"took {dt:.1f}s"
    print(f"criterion 1: pass - certificate checks, rediscovered in {dt:.2f}s")


# ---------------------------------------------------------------- 2


def test_criterion_2_eta_counterexample():
    t0 = time.perf_counter()
    bare = parse_term("(lam y [] y[])")
    expanded = parse_term("(lam y [] (lam x [] (app y[] x[])))")
    u = parse_type("(-> a a)")
    pos = bounded_typecheck(bare, env_empty(), u)
    assert isinstance(pos, Found), pos
    neg = bounded_typecheck(expanded, env_empty(), u)
    assert isinstance(neg, Refuted), neg
    assert equiv(bare, expanded, Relation.ETA, 1000) is Verdict.EQUIVALENT
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"took {dt:.2f}s"
    print(
        "criterion 2: pass - typable before, refuted after eta expansion,"
        f" terms eta-equivalent ({dt:.3f}s)"
    )


# ---------------------------------------------------------------- 3


def test_criterion_3_step_invariants(enum7):
    sample = enum7 + _random_larger_terms()
    steps, bad = step_violations(sample)
    assert not bad, bad[:5]
    print(
        f"criterion 3: pass - {len(sample)} terms, {steps} steps,"
        " 0 invariant violations"
    )


# ---------------------------------------------------------------- 4


def test_criterion_4_local_confluence(enum7):
    t0 = time.perf_counter()
    rels = (Relation.BETA, Relation.ETA, Relation.BETAETA, Relation.H)
    peaks, unjoined = unjoined_peaks(enum7, rels, 3)
    dt = time.perf_counter() - t0
    assert not unjoined, [(rel.value, print_term(t)) for rel, _, t in unjoined[:5]]
    assert peaks == 3174
    assert dt < 300.0, f"took {dt:.0f}s"
    print(
        f"criterion 4: pass - {len(enum7)} terms x {len(rels)} relations,"
        f" {peaks} peaks joined in {dt:.0f}s"
    )


# ---------------------------------------------------------------- 5


def test_criterion_5_subtyping_agreement():
    family = enumerate_canon_types(3)
    disagreements = subtype_oracle_disagreements(family)
    assert not disagreements, [
        (print_type(u), print_type(v)) for u, v in disagreements[:5]
    ]

    broken = subtype_order_violations(10000, 2311)
    for u in family:
        if not subtype(u, omega(u.prefix)):
            broken.append(("omega-top", print_type(u)))
    assert not broken, broken[:5]
    print(
        f"criterion 5: pass - {len(family)}^2 pairs match the rule oracle,"
        " 10000 random types: reflexive, transitive, below omega"
    )


# ---------------------------------------------------------------- 6


def test_criterion_6_subject_reduction_transport(corpus):
    from ikc.transform import subject_reduce

    failures = []
    transports = 0
    for name, d, j in corpus:
        targets = {j.subject}
        frontier = [j.subject]
        for _ in range(5):
            nxt = []
            for t in frontier:
                for _, _, reduct in step_positions(t, Relation.BETAETA):
                    if reduct not in targets:
                        targets.add(reduct)
                        nxt.append(reduct)
            frontier = nxt
        for n in sorted(targets, key=print_term):
            out = subject_reduce(d, n, Relation.BETAETA)
            got = check_derivation(out)
            want = Judgment(n, env_restrict(j.env, free_vars(n)), j.typ)
            transports += 1
            if got != want:
                failures.append((name, print_term(n)))
    assert not failures, failures[:5]
    print(
        f"criterion 6: pass - {transports} transports over"
        " all corpus certificates, 0 failures"
    )


# ---------------------------------------------------------------- 7


def _fresh(avoid, k=2):
    out = []
    i = 0
    while len(out) < k:
        n = f"f{i}"
        if n not in avoid:
            out.append(n)
        i += 1
    return out


def test_criterion_7_subject_beta_expansion(corpus):
    from ikc.transform import subject_expand_beta, subject_reduce

    failures = []
    expansions = 0
    for name, d, j in corpus:
        m = j.subject
        deg = m.degree
        f, w = _fresh(all_names(m) | {k.name for k in j.env.domain()})
        sources = [
            App(Abs(f, deg, Var(f, deg)), m),
            App(Abs(f, deg, m), Abs(w, deg, Var(w, deg))),
            App(Abs(f, deg, m), Var(w, deg)),
        ]
        for src in sources:
            expansions += 1
            out = subject_expand_beta(d, src)
            got = check_derivation(out)
            want = Judgment(src, env_enlarge(j.env, free_vars(src)), j.typ)
            if got != want:
                failures.append((name, "expand", print_term(src)))
                continue
            back = subject_reduce(out, m, Relation.BETA)
            if check_derivation(back) != j:
                failures.append((name, "round-trip", print_term(src)))
    assert not failures, failures[:5]
    print(
        f"criterion 7: pass - {expansions} expansions including"
        " variable-losing ones, all round-trip, 0 failures"
    )


# ---------------------------------------------------------------- 8


ID_NF = "(lam _a0 [] _a0[])"
SELF_APP_NF = "(lam _a0 [] (app _a0[] _a0[]))"


def _iter_nf(n, idx):
    mark = "[" + " ".join(str(i) for i in idx) + "]"
    body = f"_a1{mark}"
    for _ in range(n):
        body = f"(app _a0{mark} {body})"
    return f"(lam _a0 {mark} (lam _a1 {mark} {body}))"


def _lifted_id_nf():
    return "(lam _a0 [1] _a0[1])"


_EXPECTED_NFS = {
    "id0": {ID_NF},
    "id1": {_lifted_id_nf()},
    "d": {SELF_APP_NF},
    "nat0": {ID_NF} | {_iter_nf(n, ()) for n in range(1, 9)},
    "nat1": {_lifted_id_nf()} | {_iter_nf(n, (1,)) for n in range(1, 9)},
    "natp0": {ID_NF, "(lam _a0 [] (lam _a1 [1] (app _a0[] _a1[1])))"},
}
_CHURCH_ZERO = {_iter_nf(0, ()), _iter_nf(0, (1,))}


def _omega(idx):
    mark = "[" + " ".join(str(i) for i in idx) + "]"
    half = f"(lam v0 {mark} (app v0{mark} v0{mark}))"
    return f"(app {half} {half})"


def test_criterion_8_semantics_oracles(corpus, closed9):
    # oracle verdicts against an independently written normalise-and-match
    # route, with no undecided answers anywhere in the pool
    nf_strings = {}
    for m in closed9:
        out = normalize(m, Relation.BETA, 2000)
        nf_strings[m] = (
            print_term(alpha_canon(out.term))
            if isinstance(out, NormalForm)
            else None
        )
    # the same loop typechecks every term of the tag's degree at the tag's
    # type: verdicts[tag] counts (oracle members, Found, Refuted, Unknown)
    mismatches = []
    undecided = []
    missed = []
    odd_found = []
    odd_unknown = []
    verdicts = {tag: [0, 0, 0, 0] for tag in EXAMPLE_TYPES}
    column = {Found: 1, Refuted: 2, Unknown: 3}
    for tag, typ in EXAMPLE_TYPES.items():
        expected_nfs = _EXPECTED_NFS[tag]
        count = verdicts[tag]
        for m in closed9:
            v = oracle_membership(tag, m)
            if v.undecided:
                undecided.append((tag, print_term(m)))
                continue
            want = m.degree == typ.degree and nf_strings[m] in expected_nfs
            if v.member != want:
                mismatches.append((tag, print_term(m), v.member))
            if m.degree != typ.degree:
                continue
            out = bounded_typecheck(m, env_empty(), typ)
            found = isinstance(out, Found)
            count[0] += v.member
            count[column[type(out)]] += 1
            if v.member and not found:
                missed.append((tag, print_term(m), out))
            if found and not v.member and nf_strings[m] not in _CHURCH_ZERO:
                odd_found.append((tag, print_term(m)))
            if isinstance(out, Unknown) and print_term(m) != _omega(typ.degree):
                odd_unknown.append((tag, print_term(m), out))
    assert not undecided, undecided[:5]
    assert not mismatches, mismatches[:5]
    # every oracle member is found; the only typable non-members are the
    # Church zero oracle gap (ROADMAP item 1), and the only Unknown is omega
    assert not missed, missed[:5]
    assert not odd_found, odd_found[:5]
    assert not odd_unknown, odd_unknown[:5]
    pinned = {
        "id0": [406, 406, 25935, 1],
        "id1": [150, 150, 2471, 1],
        "d": [64, 64, 26277, 1],
        "nat0": [448, 710, 25631, 1],
        "nat1": [180, 334, 2287, 1],
        "natp0": [439, 439, 25902, 1],
    }
    assert verdicts == pinned, verdicts

    # every stored empty-environment certificate at an example type names
    # a member
    covered = set()
    for name, d, j in corpus:
        if len(j.env):
            continue
        for tag, typ in EXAMPLE_TYPES.items():
            if j.typ == typ:
                assert soundness_check(d, tag), name
                covered.add(tag)
    assert covered == set(EXAMPLE_TYPES), covered

    # membership at the expanded types tracks the ground types exactly
    ground = [m for m in closed9 if m.degree == ()]
    assert lift_correspondence("id1", "id0", ground) == []
    assert lift_correspondence("nat1", "nat0", ground) == []
    print(
        f"criterion 8: pass - {len(closed9)} closed terms x 6 oracles"
        " match the independent route with 0 undecided; every member is"
        " found, the only Unknown is omega; soundness and lift"
        " correspondence hold"
    )
