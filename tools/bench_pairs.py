"""Compare the working tree with a commit by alternating benchmark pairs.

    python3 tools/bench_pairs.py WORKLOAD [--base REF]

Runs PAIRS pairs of BENCHMARK.json's command on WORKLOAD at its
run_seconds and --trace 0: one run in a `git archive` export of REF
(default HEAD), the other in the working tree.  Each pair has a seed of
its own, and the side that runs first alternates from pair to pair.  For
each end-to-end metric it prints both sides' medians and quartiles, the
pairs the working tree won (ties count for neither side), and whether a
gain may be claimed: the working tree won at least CLAIM_WINS of the
pairs, and its median is better than REF's by more than the distance
between REF's quartiles.  A metric whose median is worse than REF's by
more than its bound is marked as a regression.  The last line of output
is every run's metrics as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
CLAIM_WINS = 9


def export(ref: str, into: Path) -> None:
    """Write the files of commit ref under into."""
    proc = subprocess.Popen(["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if proc.wait():
        raise SystemExit(f"git archive {ref} failed")


def run(spec: dict, where: Path, workload: str, seed: int) -> dict[str, float]:
    """One benchmark run in the checkout at where: its end-to-end values."""
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=where, capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"run in {where} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(metric: dict, base: list[float], tree: list[float]) -> dict:
    """Medians, quartiles, pairs won and the claim rule for one metric."""
    sign = 1 if metric["better"] == "higher" else -1
    q_base = statistics.quantiles(base, n=4)
    q_tree = statistics.quantiles(tree, n=4)
    gap = sign * (q_tree[1] - q_base[1])  # positive: the working tree is better
    wins = sum(sign * (t - b) > 0 for b, t in zip(base, tree))
    return {
        "base": q_base,
        "tree": q_tree,
        "wins": wins,
        "claim": wins >= CLAIM_WINS and gap > q_base[2] - q_base[0],
        "regression": -gap > metric["bound"] * abs(q_base[1]),
    }


def _quartiles(q: list[float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--base", default="HEAD", help="the commit to compare with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seeds = random.Random().sample(range(1000, 100_000), PAIRS)
    runs = {"base": [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        base_root = Path(tmp)
        export(args.base, base_root)
        sides = {"base": base_root, "tree": ROOT}
        for i, seed in enumerate(seeds):
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            for side in order:
                runs[side].append(run(spec, sides[side], args.workload, seed))
            print(f"pair {i + 1}/{PAIRS} seed {seed}: first {order[0]}", file=sys.stderr)
    print(f"{args.workload}: {PAIRS} pairs, base {args.base} vs working tree, seeds {seeds}")
    print(f"{'metric':<16} {'base q1/median/q3':>30} {'tree q1/median/q3':>30} wins  claim  regression")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summary(metric, [r[name] for r in runs["base"]], [r[name] for r in runs["tree"]])
        print(
            f"{name:<16} {_quartiles(s['base']):>30} {_quartiles(s['tree']):>30}"
            f" {s['wins']:>4}  {'yes' if s['claim'] else 'no':>5}"
            f"  {'YES' if s['regression'] else 'no'}"
        )
    print(json.dumps({"workload": args.workload, "base": args.base, "seeds": seeds, **runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
