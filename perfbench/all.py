"""Run every workload, print every metric, and self-test the benchmark.

    python3 perfbench/all.py [--seed 1] [--seconds 20]

For each workload this runs ``run.py`` untraced and traced with one seed,
traced a second time with the same seed and once with the next seed, and
prints every metric by name with its unit.  It fails (exit 1) when any
request failed its oracle, when the two traced runs with one seed report
different counters or requests, or when the next seed changes the shape of
a round (the multiset of request classes) or leaves the requests unchanged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pbw-expand", "center-solve", "shriek-frobenius")


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; returns (result line, provenance)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = next(json.loads(ln.split(": ", 1)[1]) for ln in lines if ln.startswith("provenance: "))
    return json.loads(lines[-1]), provenance


def _counters(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args()
    problems = []
    for workload in WORKLOADS:
        runs = {
            "untraced": _run(workload, args.seed, args.seconds, 0),
            "traced": _run(workload, args.seed, args.seconds, 1),
            "traced again": _run(workload, args.seed, 1, 1),
            "traced, next seed": _run(workload, args.seed + 1, 1, 1),
        }
        for label in ("untraced", "traced"):
            result = runs[label][0]
            print(f"== {workload} ({label}, seed {args.seed})")
            for name, m in result["metrics"].items():
                print(f"{workload}  {name} = {m['value']!r} {m['unit']}")
            rate = result["failed"] / result["attempted"]
            print(f"{workload}  error_rate = {rate!r} ratio ({result['attempted']} attempted)")
        for label, (result, _) in runs.items():
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} failed requests in the {label} run")
        (first, prov1), (again, prov2) = runs["traced"], runs["traced again"]
        if _counters(first) != _counters(again) or prov1["request_sha256"] != prov2["request_sha256"]:
            problems.append(f"{workload}: counters or requests differ between two runs with seed {args.seed}")
        prov3 = runs["traced, next seed"][1]
        if prov3["round_shape"] != prov1["round_shape"]:
            problems.append(f"{workload}: seed {args.seed + 1} changes the shape of a round")
        if prov3["request_sha256"] == prov1["request_sha256"]:
            problems.append(f"{workload}: seed {args.seed + 1} generates the same requests")
    for problem in problems:
        print(f"SELF-TEST FAIL: {problem}")
    print("self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
