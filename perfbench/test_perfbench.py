"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from ikc import gen, syntax  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.5


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def _deep_application(depth):
    # nested in argument position: the degree of an application is that of
    # its function, so building the term needs no recursion
    m = syntax.Var("x", ())
    for _ in range(depth):
        m = syntax.App(syntax.Var("x", ()), m)
    return m


def _assert_emits(result, metrics):
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(name):
    facts, result = bench.run_workload(name, 1, SECONDS, 0)
    _assert_emits(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert facts["failed_share"] == 0
    assert facts["nproc"] >= 1 and facts["python"] and 0 < facts["cpu_share"] <= 1.5
    decided = result["metrics"]["decided_share"]["value"]
    if name == "typecheck":
        assert 0 < decided < 1  # Unknown is not a definite verdict
    else:
        assert decided == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_per_layer(name):
    facts, result = bench.run_workload(name, 1, SECONDS, 1)
    _assert_emits(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    # a function whose calls are counted without recursion never re-entered
    plain = {m["name"][: -len(".calls")] for m in SPEC["per_layer"] if m["unit"] == "calls"}
    assert not plain & set(facts["reentered"])
    if name == "typecheck":
        assert values["search.bounded_typecheck.unknown"] == facts["undecided_untraced"]
        assert values["search.bounded_typecheck.unknown"] > 0
    if name == "confluence":
        assert values["gen.enumerate_terms.self_ms"] > 0
        assert values["reduction.check_local_confluence.calls"] > 0
    if name == "certify":
        assert values["sexpr.tokenize.calls"] > 0
        assert values["search.bounded_typecheck.calls"] == 0


def test_bad_certificate_texts_count_as_failed():
    deep = "(w " + "(app " * 1500 + "x[]" + " x[])" * 1500 + ")"
    corrupted = "(arrI x [] a (ax x a)"
    want = workloads.envs.parse_judgment("(judg x[] ((x [] a)) a)")
    bad = [("read", -1, corrupted, want), ("read", -2, deep, want)]
    facts, result = bench.run_workload("certify", 1, SECONDS, 0, extra_queries=bad)
    assert result["failed"] == 2 and not result["correct"]
    assert result["attempted"] > len(bad)  # the run went on after them
    assert result["metrics"]["decided_share"]["value"] < 1
    assert any("RecursionError" in e for e in facts["errors"])
    assert any("InputSyntaxError" in e for e in facts["errors"])


def test_deep_term_counts_as_failed():
    bad = [(_deep_application(1500), workloads.reduction.Relation.BETA)]
    facts, result = bench.run_workload("confluence", 1, SECONDS, 0, extra_queries=bad)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] > len(bad)
    assert "RecursionError" in facts["errors"][0]


def test_traced_counts_depend_only_on_the_seed():
    units = ("calls", "calls_incl_rec", "count")
    counted = {m["name"] for m in SPEC["per_layer"] if m["unit"] in units}

    def counts():
        _, result = bench.run_workload("typecheck", 3, SECONDS, 1)
        return {k: m["value"] for k, m in result["metrics"].items() if k in counted}

    first = counts()
    assert first["search.bounded_typecheck.calls"] == round(
        workloads.WORKLOADS["typecheck"].trace_rate * SECONDS
    )
    assert counts() == first


def test_sort_keys_are_print_term():
    terms = gen.enumerate_terms(4)
    assert workloads._print_keys(terms) == [syntax.print_term(m) for m in terms]
    assert workloads.sorted_by_print(list(reversed(terms))) == sorted(terms, key=syntax.print_term)


def test_queries_depend_only_on_the_seed():
    certify = workloads.WORKLOADS["certify"]
    assert certify.setup(5)[:50] == certify.setup(5)[:50]
    assert certify.setup(5)[:50] != certify.setup(6)[:50]


def test_typecheck_passes_run_the_whole_pool():
    typecheck = workloads.WORKLOADS["typecheck"]
    queries = typecheck.setup(5)
    size = typecheck.pass_size
    first, second = queries[:size], queries[size : 2 * size]
    keys = sorted(q[0] for q in first)
    assert keys == sorted(q[0] for q in second)
    assert first != second  # a new order each pass
    assert len(set(keys)) == keys[-1] + 1  # every pool entry runs in each pass
    members = {q[0] for q in first if q[3]}
    assert sum(q[3] for q in first) == 2 * len(members)


def test_whole_passes():
    latencies = array("d", range(10))
    assert bench.whole_passes(latencies, 1, 4) == array("d", range(1, 9))
    assert bench.whole_passes(latencies, 0, 20) == latencies  # no whole pass
    assert bench.whole_passes(latencies, 0, None) == latencies
