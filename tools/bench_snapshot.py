"""Write one benchmark snapshot of this checkout: BENCH_<label>.json.

    python3 tools/bench_snapshot.py --label NAME [--out DIR]

The snapshot holds, with the machine facts:

- tier-1: the test suite's wall time, its pass/fail counts, the tests
  that failed and every test's duration (setup, call and teardown, from pytest's JUnit report),
  the acceptance criteria's among them;
- code_lines: the line counts of src/ikc/*.py and tests/*.py, each in
  total and per file, so a snapshot records the code's size too;
- the workloads of BENCHMARK.json, each run once by its command for its
  run_seconds at seed 1, at --trace 0 (end-to-end metrics) and at
  --trace 1 (per-layer metrics), with the facts each run printed.

Two snapshots compare only when they come from the same machine; a
speed-up is claimed from paired runs, which a snapshot does not replace.
The file is written at the root of the checkout unless --out names a
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip()


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        facts["cpu"] = next(
            line.split(":", 1)[1].strip()
            for line in cpuinfo.splitlines()
            if line.startswith("model name")
        )
        meminfo = Path("/proc/meminfo").read_text().split()
        facts["mem_total_mb"] = int(meminfo[meminfo.index("MemTotal:") + 1]) // 1024
    except (OSError, StopIteration, ValueError):
        pass
    return facts


def tier1() -> dict:
    """Run the tier-1 suite once; its counts, wall time and durations."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", f"--junitxml={report}"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        durations, outcomes, failed = {}, {"passed": 0, "failed": 0, "skipped": 0}, []
        if report.exists():
            for case in ET.parse(report).getroot().iter("testcase"):
                test = f"{case.get('classname')}::{case.get('name')}"
                durations[test] = round(float(case.get("time", 0)), 3)
                kinds = {child.tag for child in case}
                outcome = (
                    "failed" if kinds & {"failure", "error"}
                    else "skipped" if "skipped" in kinds
                    else "passed"
                )
                outcomes[outcome] += 1
                if outcome == "failed":
                    failed.append(test)
    return {
        "exit_code": proc.returncode,
        "wall_s": round(wall, 2),
        **outcomes,
        "summary": proc.stdout.strip().splitlines()[-1:] or [""],
        "failed_tests": failed,
        "criteria_s": {t: s for t, s in durations.items() if "test_criterion_" in t},
        "durations_s": durations,
    }


def code_lines() -> dict:
    """The line counts (as wc -l counts) of the kernel and the tests."""
    counts = {}
    for pattern in ("src/ikc/*.py", "tests/*.py"):
        files = {p.name: p.read_bytes().count(b"\n") for p in sorted(ROOT.glob(pattern))}
        counts[pattern] = {"total": sum(files.values()), "files": files}
    return counts


SEED = 1  # one seed for every snapshot, so any two compare


def workload_run(spec: dict, name: str, trace: int) -> dict:
    """One run of the benchmark's command; the facts and result lines it printed."""
    proc = subprocess.run(
        [*spec["command"], "--workload", name, "--seed", str(SEED),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"exit_code": 0, **json.loads(lines[-2]), **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the snapshot is BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write to")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    snapshot = {
        "label": args.label,
        "machine": machine_facts(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tier1": tier1(),
        "code_lines": code_lines(),
        "workloads": {},
    }
    for w in spec["workloads"]:
        runs = snapshot["workloads"][w["name"]] = {}
        for trace in (0, 1):
            runs[f"trace{trace}"] = workload_run(spec, w["name"], trace)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
