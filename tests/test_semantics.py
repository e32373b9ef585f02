import pytest

from ikc.derivations import parse_derivation
from ikc.errors import PreconditionError
from ikc.gen import enumerate_closed, enumerate_terms
from ikc.reduction import Relation, first_step, step
from ikc.semantics import (
    EXAMPLE_TYPES,
    completeness_sample,
    leftmost_beta_nf,
    lift_correspondence,
    oracle_membership,
    saturation_check,
    soundness_check,
    verdict_line,
)
from ikc.syntax import alpha_key, lift, parse_term, print_term

pt = parse_term

OMEGA = "(app (lam x [] (app x[] x[])) (lam x [] (app x[] x[])))"


# ---------------------------------------------------------------- anchors

MEMBER_ANCHORS = [
    ("id0", "(lam y [] y[])"),
    ("id0", "(app (lam x [] x[]) (lam y [] y[]))"),
    ("id1", "(lam y [1] y[1])"),
    ("d", "(lam y [] (app y[] y[]))"),
    ("nat0", "(lam f [] f[])"),
    ("nat0", "(lam f [] (lam y [] (app f[] y[])))"),
    ("nat0", "(lam f [] (lam y [] (app f[] (app f[] y[]))))"),
    ("nat1", "(lam f [1] (lam y [1] (app f[1] y[1])))"),
    ("natp0", "(lam f [] f[])"),
    ("natp0", "(lam f [] (lam y [1] (app f[] y[1])))"),
]

NON_MEMBER_ANCHORS = [
    ("id0", "(lam y [] (lam x [] (app y[] x[])))"),
    ("d", "(lam y [] y[])"),
    ("nat0", "(lam f [] (lam y [] y[]))"),
    ("natp0", "(lam f [] (lam y [1] (app f[] (app f[] y[1]))))"),
    ("id0", OMEGA),
]


@pytest.mark.parametrize("tag,term", MEMBER_ANCHORS)
def test_member_anchor(tag, term):
    v = oracle_membership(tag, pt(term))
    assert v.member and not v.undecided


@pytest.mark.parametrize("tag,term", NON_MEMBER_ANCHORS)
def test_non_member_anchor(tag, term):
    v = oracle_membership(tag, pt(term))
    assert not v.member and not v.undecided


# the inner binder shadows f, so both occurrences are y: not an iterator
SHADOWED = "(lam f [] (lam f [] (app f[] f[])))"
SHADOWED1 = print_term(lift(pt(SHADOWED), 1))


@pytest.mark.parametrize(
    "tag,term,nf",
    [
        ("nat0", SHADOWED, SHADOWED),
        ("nat1", SHADOWED1, SHADOWED1),
        ("nat0", f"(app (lam x [] x[]) {SHADOWED})", SHADOWED),
    ],
    ids=["nf", "lifted-nf", "redex"],
)
def test_shadowed_iterator_is_a_non_member(tag, term, nf):
    v = oracle_membership(tag, pt(term))
    assert not v.member and not v.undecided
    assert v.reason == "normal form does not match the inhabitant shape"
    assert print_term(v.witness) == nf


def test_free_variable_gate():
    v = oracle_membership("id0", pt("y[]"))
    assert not v.member and not v.undecided
    assert "free" in v.reason


def test_degree_gate():
    v = oracle_membership("id1", pt("(lam y [] y[])"))
    assert not v.member and not v.undecided
    assert "degree" in v.reason


# ---------------------------------------------------------------- reduction loop


def test_leftmost_nf_cycle_detection():
    nf, cycled = leftmost_beta_nf(pt(OMEGA), 500)
    assert nf is None and cycled


def test_cycling_term_is_definite_non_member():
    v = oracle_membership("id0", pt(OMEGA))
    assert not v.member and not v.undecided
    assert "no beta normal form" in v.reason


def test_tiny_fuel_is_undecided():
    grower = pt(
        "(app (lam x [] (app (app x[] x[]) x[]))"
        " (lam x [] (app (app x[] x[]) x[])))"
    )
    v = oracle_membership("id0", grower, fuel=3)
    assert v.undecided and not v.member


def _reference_leftmost_nf(m, fuel):
    """leftmost_beta_nf keying every term of the path, normal form included."""
    seen = set()
    for _ in range(fuel):
        hit = first_step(m, Relation.BETA)
        if hit is None:
            return m, False
        seen.add(alpha_key(m))
        m = hit[2]
        if alpha_key(m) in seen:
            return None, True
    # fuel steps taken: a term with no redex left is the normal form
    return (m, False) if first_step(m, Relation.BETA) is None else (None, False)


def test_leftmost_nf_matches_the_reference():
    outcomes = set()
    for m in enumerate_closed(8) + [pt(OMEGA)]:
        for fuel in (0, 1, 2, 3, 5, 2000):
            nf, cycled = leftmost_beta_nf(m, fuel)
            want, want_cycled = _reference_leftmost_nf(m, fuel)
            assert cycled == want_cycled and nf == want, (print_term(m), fuel)
            outcomes.add((nf is None, cycled))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_no_undecided_on_small_closed_terms():
    pool = enumerate_closed(7)
    for tag in EXAMPLE_TYPES:
        for m in pool:
            v = oracle_membership(tag, m)
            assert not v.undecided, (tag, print_term(m))


# ---------------------------------------------------------------- reports


def test_soundness_on_identity_derivation():
    d = parse_derivation("(arrI y [] a (ax' y a))")
    assert soundness_check(d, "id0")


def test_soundness_rejects_open_environment():
    d = parse_derivation("(ax' y a)")
    with pytest.raises(PreconditionError, match="needs an empty environment"):
        soundness_check(d, "id0")


def test_completeness_small_id0_and_d():
    for tag in ("id0", "d"):
        rep = completeness_sample(tag, 7)
        assert rep.members > 0
        assert rep.refuted == 0
        assert rep.unknown == 0
        assert rep.found == rep.members


def test_saturation_members_closed_under_expansion():
    ambient = enumerate_closed(7)
    members = [m for m in ambient if oracle_membership("id0", m).member]
    rep = saturation_check(members, ambient, Relation.BETA)
    assert rep.violations == []


def _reference_saturation(members, ambient, r, depth):
    """Each ambient non-member's whole reachable set, walked breadth-first by
    step; the witness is its first member in discovery order."""
    member_keys = {alpha_key(m) for m in members}
    out = []
    for m in ambient:
        key = alpha_key(m)
        if key in member_keys:
            continue
        seen = {key: m}
        front = [m]
        for _ in range(depth):
            nxt = []
            for t in front:
                for reduct in step(t, r):
                    k = alpha_key(reduct)
                    if k not in seen:
                        seen[k] = reduct
                        nxt.append(reduct)
            front = nxt
        hit = next((t for k, t in seen.items() if k in member_keys), None)
        if hit is not None:
            out.append((print_term(m), print_term(hit)))
    return out


def test_saturation_stops_at_the_witness_the_whole_walk_finds():
    members = enumerate_terms(5)[::7]
    ambient = enumerate_terms(6)[::3]
    total = 0
    for r in Relation:
        rep = saturation_check(members, ambient, r)
        got = [(print_term(m), print_term(w)) for m, w in rep.violations]
        assert got == _reference_saturation(members, ambient, r, 3), r
        total += len(got)
    assert total == 5295


def test_lift_correspondence_pairs():
    sample = enumerate_closed(6, degree=())
    assert lift_correspondence("id1", "id0", sample) == []
    assert lift_correspondence("nat1", "nat0", sample) == []


def test_lift_matches_manual_lift():
    m = pt("(lam y [] y[])")
    v0 = oracle_membership("id0", m)
    v1 = oracle_membership("id1", lift(m, 1))
    assert v0.member and v1.member


# ---------------------------------------------------------------- report text


def test_verdict_line_member():
    m = pt("(app (lam x [] x[]) (lam y [] y[]))")
    line = verdict_line(m, oracle_membership("id0", m))
    assert line == (
        "(app (lam x [] x[]) (lam y [] y[]))"
        "\tmember\tnormal form (lam y [] y[])"
    )


def test_verdict_line_non_member():
    m = pt(OMEGA)
    line = verdict_line(m, oracle_membership("id0", m))
    assert "\tnon-member\t" in line


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle_membership("id9", parse_term("(lam y [] y[])")),
        lambda: soundness_check(parse_derivation("(arrI x [] a (ax x a))"), "id9"),
        lambda: completeness_sample("id9", 3),
        lambda: lift_correspondence("id9", "id0", [parse_term("(lam y [] y[])")]),
    ],
    ids=["oracle", "soundness", "completeness", "lift"],
)
def test_unknown_tag_is_a_precondition_error(call):
    with pytest.raises(PreconditionError, match="unknown interpretation tag: id9; expected one of"):
        call()
