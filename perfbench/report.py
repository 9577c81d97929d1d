#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --workloads grid-eval --seeds 1,2,3 --trace 1

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
with the ``run_seconds`` of ``BENCHMARK.json``.  For each metric it prints
the median over the seeds, the quartiles, and their distance as a share
of the median next to the metric's bound; and the calls that failed.
With ``--save FILE`` it also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            failed = [ln.strip() for ln in lines if ln.strip().startswith("FAILED")]
            print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
                  f"calls failed", *failed, sep="\n  " if failed else "", flush=True)
        results[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, fail_ratio "
              f"{sum(r['failed'] for r in runs) / sum(r['attempted'] for r in runs):.4g}")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:<30} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                  f"{'' if bound is None else bound:>6} {unit}{flag}")
        print(flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
