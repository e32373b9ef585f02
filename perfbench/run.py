"""Benchmark of the ikc kernel: one process, one client, closed loop.

    python3 perfbench/run.py --workload confluence|typecheck|certify \
        --seed N --seconds S --trace 0|1

--trace 0 sets the workload up SETUP_REPEATS times (setup_s is the
median), runs queries for S seconds, checks every output, and prints the
end-to-end metrics.  --trace 1 sets up once with the tracer installed,
runs a fixed prefix of the query list (the workload's trace_rate queries
per second of S) untraced, replays it traced, and prints the per-layer
metrics with the tracing overhead; its counts depend on the seed and S
only, not on how fast the machine or the kernel is.  The metric
names and units come from BENCHMARK.json.  The last line of standard
output is the result as one JSON object; the full result, and the spans
of a traced run, are also written under .perfbench/.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# p99 leaves hundreds of samples beyond it; p99.9 spread too widely between
# runs on a machine whose speed swings by tens of percent
TAIL_PERCENTILE = 99.0

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
try:
    import workloads
except ImportError as exc:  # the kernel sources are missing
    workloads = None
    _IMPORT_ERROR = exc


def measure(workload, queries, record, seconds=None, tracer=None):
    """Run queries in order, cycling, for `seconds` of query time, or each once.

    Only the queries are timed.  record(q, out) runs after each one, outside
    the timed region; out is a workloads.Raised when the query raised.
    The latencies are kept in an array sized to the query list, so memory
    grows only when a run goes round the list more than once.
    """
    run = workload.run if tracer is None else functools.partial(tracer.query, workload.run)
    count = len(queries) if seconds is None else math.inf
    limit = math.inf if seconds is None else seconds
    clock = time.perf_counter
    latencies = array("d", [0.0]) * len(queries)
    n = 0
    busy = 0.0
    cpu0, wall0 = time.process_time(), clock()
    while n < count and busy < limit:
        q = queries[n % len(queries)]
        t0 = clock()
        try:
            out = run(q)
        except Exception as exc:  # any kernel failure is a failed query
            out = workloads.Raised(exc)
        t1 = clock()
        if n < len(latencies):
            latencies[n] = t1 - t0
        else:
            latencies.append(t1 - t0)
        busy += t1 - t0
        n += 1
        record(q, out)
    del latencies[n:]
    return {
        "latencies": latencies,
        "wall": busy,
        # CPU time over the whole loop, checks included, as a contention sign
        "cpu_share": (time.process_time() - cpu0) / (clock() - wall0),
    }


def tail(latencies, percentile):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine_facts(seed):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def whole_passes(latencies, skip, pass_size):
    """The latencies of the whole passes over a workload's pool, if any.

    A workload whose every pass runs the same queries (pass_size set) is
    timed over the passes it completed, so that which queries a run timed
    does not depend on the seed; the first `skip` queries are extra.
    """
    timed = latencies[skip:]
    if not pass_size or len(timed) < pass_size:
        return latencies
    return timed[: len(timed) // pass_size * pass_size]


def end_to_end(workload, phase, checker, setup_times, skip=0):
    n = len(phase["latencies"])
    timed = whole_passes(phase["latencies"], skip, getattr(workload, "pass_size", None))
    tail_s, beyond = tail(timed, TAIL_PERCENTILE)
    values = {
        "queries_per_s": len(timed) / math.fsum(timed),
        "latency_p50_ms": statistics.median(timed) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "decided_share": checker.decided / n,
        "failed_share": (checker.raised + checker.wrong) / n,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    facts = {
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": beyond,
        "samples": n,
        "timed_samples": len(timed),
        "cpu_share": phase["cpu_share"],
        "failed_share": values["failed_share"],
        "setup_runs_s": setup_times,
    }
    return values, facts


def per_layer(tracer, gen_ns, untraced, traced, checker):
    values = {
        "trace.overhead_ratio": traced["wall"] / untraced["wall"],
        "cpu_share": untraced["cpu_share"],
    }
    for name, ns in gen_ns.items():
        values[f"{name}.self_ms"] = ns / 1e6
    for name in tracer.calls:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_ms"] = tracer.self_ns[name] / 1e6
    subtype_calls = tracer.calls.get("types.subtype", 0)
    values["types.subtype.true_ratio"] = (
        tracer.counts["types.subtype.true"] / subtype_calls if subtype_calls else 0.0
    )
    confluence_calls = tracer.calls.get("reduction.check_local_confluence", 0)
    values["reduction.check_local_confluence.peaks"] = tracer.counts[
        "reduction.check_local_confluence.peaks"
    ]
    values["reduction.check_local_confluence.peak_ratio"] = (
        tracer.counts["reduction.check_local_confluence.with_peak"] / confluence_calls
        if confluence_calls
        else 0.0
    )
    values.update(checker.layer_values())
    return values


def select(spec, values):
    """The metrics BENCHMARK.json names, in its order; 0 for unused layers."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    facts, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


def untraced_run(workload, seed, seconds, extra_queries):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        queries = None  # release the previous set-up before the next
        gc.collect()
        t0 = time.perf_counter()
        queries = workload.setup(seed)
        workloads.warm_up(workload, queries)
        # set-up's objects now reach the oldest generation; collect once
        # here rather than in a full collection inside the timed region
        gc.collect()
        setup_times.append(time.perf_counter() - t0)
    checker = workload.checker()
    phase = measure(workload, list(extra_queries) + queries, checker.add, seconds)
    values, facts = end_to_end(workload, phase, checker, setup_times, len(extra_queries))
    return [phase], [checker], values, facts


def traced_run(workload, seed, seconds, extra_queries):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        queries = workload.setup(seed)
    finally:
        tracer.uninstall()
    gen_ns = {k: v for k, v in tracer.self_ns.items() if k.startswith("gen.")}
    tracer.reset()
    workloads.warm_up(workload, queries)
    queries = list(extra_queries) + queries[: max(1, round(workload.trace_rate * seconds))]
    gc.collect()
    checked = workload.checker()
    untraced = measure(workload, queries, checked.add)
    outputs = []
    tracer.install()
    try:
        traced = measure(
            workload, queries, lambda q, out: outputs.append((q, out)), tracer=tracer
        )
    finally:
        tracer.uninstall()
    checked_traced = workload.checker()
    for q, out in outputs:
        checked_traced.add(q, out)
    values = per_layer(tracer, gen_ns, untraced, traced, checked_traced)
    facts = {
        "cpu_share": untraced["cpu_share"],
        "samples": len(untraced["latencies"]),
        "undecided_untraced": len(untraced["latencies"]) - checked.decided,
        "reentered": sorted(tracer.reentries),
        "spans": len(tracer.spans),
    }
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}-trace1.json")
    return [untraced, traced], [checked, checked_traced], values, facts


def run_workload(name, seed, seconds, trace, extra_queries=()):
    """One benchmark run; extra_queries run first (the tests add bad inputs)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    run = traced_run if trace else untraced_run
    phases, checkers, values, run_facts = run(workload, seed, seconds, extra_queries)
    # a query that raised and a query whose output is wrong both fail
    failed = sum(c.raised + c.wrong for c in checkers)
    facts = {
        "workload": name,
        **machine_facts(seed),
        **run_facts,
        **checkers[0].facts(),
        "errors": [e for c in checkers for e in c.errors][:5],
    }
    result = {
        "correct": failed == 0,
        "attempted": sum(len(p["latencies"]) for p in phases),
        "failed": failed,
        "metrics": select(spec["per_layer" if trace else "end_to_end"], values),
    }
    stem = f"{name}-seed{seed}-trace{trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({"facts": facts, **result}, indent=1))
    return facts, result


if __name__ == "__main__":
    if workloads is None:
        print(f"perfbench: cannot import the kernel: {_IMPORT_ERROR}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
