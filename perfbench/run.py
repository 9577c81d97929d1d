#!/usr/bin/env python3
"""Benchmark of the okamoto-k CLI and library, one workload per run.

    python3 perfbench/run.py --workload grid-eval --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  One client calls ``okamoto_k.cli.main(argv)`` (and, in
``exact-classify``, the library directly) in a closed loop, in this one
process.  It repeats the workload's seeded pass of calls while the timed
calls stay near ``--seconds`` (at least one pass), and checks
every output against the exact references in ``oracles.py``.  A call
fails if it raises, exits nonzero, fails its check, or writes different
bytes than an identical earlier call.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with span wrappers on every layer (``tracing.py``),
and prints the per-layer metrics and the tracing overhead.  A table of all
figures precedes the final line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 150  # no new pass starts if it would end after this
OVERSHOOT = 1.25
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls beyond it

# layers each workload must reach in the traced run
EXERCISED = {
    "grid-eval": ("cli", "functions"),
    "exact-classify": ("cli", "functions", "ternary", "derivative"),
    "experiments": ("cli", "functions", "ternary", "derivative", "dimension"),
}


class Runner:
    """Makes the calls of a workload, times them and checks their outputs."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli  # main is looked up per call, so the traced run sees its wrapper
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.cli_errors = 0
        self.bytes_out = 0
        self.problems: list[str] = []
        self.tracer = None

    def call(self, call) -> float:
        """Make one call; return its latency. Checks run after the clock stops."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = call.label
        problems = []
        if call.output is not None:
            call.output.unlink(missing_ok=True)  # a stale file must not pass as output
        start = time.perf_counter()
        try:
            if call.argv is not None:
                code = self.cli.main(call.argv)
            else:
                result = call.lib()
        except Exception as exc:  # a failed call is counted, not fatal
            latency = time.perf_counter() - start
            problems.append(f"{call.label}: raised {exc!r}")
            code = None
        else:
            latency = time.perf_counter() - start
        if not problems and call.argv is not None and code != 0:
            problems.append(f"{call.label}: exit code {code}")
            self.cli_errors += 1
        if not problems and call.argv is not None and not call.output.is_file():
            problems.append(f"{call.label}: wrote no output")
        if not problems:
            if call.argv is not None:
                data = call.output.read_bytes()
                self.bytes_out += len(data)
                payload = data.decode()
            else:
                payload = result
                data = repr(result).encode()
            digest = hashlib.sha256(data).hexdigest()
            seen = self.digests.get(call.label)
            if seen is None:  # first output of this call: check it
                self.digests[call.label] = digest
                try:
                    problems += call.check(payload)
                except Exception as exc:  # malformed output
                    problems.append(f"{call.label}: check raised {exc!r}")
            elif seen != digest:
                problems.append(f"{call.label}: output differs from an identical earlier call")
        if problems:
            self.failed += 1
            self.problems += problems
        return latency

    def passes(self, budget: float, deadline: float) -> list[list[float]]:
        """Whole passes until their timed calls reach ``budget`` seconds.

        A pass that would take the timed calls past ``OVERSHOOT * budget``
        is not started, so a run lasts about ``budget`` whatever the pass
        length; there is always at least one pass.
        """
        out: list[list[float]] = []
        timed = 0.0
        while True:
            began = time.perf_counter()
            lat = [self.call(c) for c in self.workload.calls]
            out.append(lat)
            timed += sum(lat)
            if timed >= budget or timed + sum(lat) > OVERSHOOT * budget:
                return out
            if time.perf_counter() + (time.perf_counter() - began) > deadline:
                return out


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the CLI module."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import okamoto_k.cli"
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with 10 calls beyond it.

    With fewer than 11 calls no such statistic exists and the maximum is used.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, passes, setup_s, peak_rss_mb) -> tuple[dict, list[str]]:
    """Gated metrics, and lines for the per-call latencies.

    The call percentiles are printed but not gated: single calls of a few
    milliseconds move by 30% with the load of a shared host, while a
    whole pass stays steadier.
    """
    per_pass = len(workload.calls)
    tails = [tail(p) for p in passes]
    items = sum(c.items for c in workload.calls) * len(passes)
    total = sum(map(sum, passes))
    metrics = {
        "run_s": (statistics.median(map(sum, passes)), "s"),
        "items_per_s": (items / total, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    p50 = statistics.median(statistics.median(p) for p in passes)
    notes = [
        f"{len(passes)} passes of {per_pass} calls; items_per_s counts {workload.item_name}",
        f"  call_p50_s {p50:.6g} s, call_tail_s {statistics.median(t for t, _ in tails):.6g} s "
        f"(p{tails[0][1]:.1f}); per pass of {per_pass} calls, median over passes",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        # sigma_decompose checks the proof's bounds with assert; under -O
        # sigma-fuzz would report 0 violations without checking anything
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "okamoto_k" / "__init__.py").is_file():
        print(f"error: no okamoto_k sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import okamoto_k
    from okamoto_k import cli

    if Path(okamoto_k.__file__).resolve().parent != SRC / "okamoto_k":
        print(f"error: imported okamoto_k from {okamoto_k.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    outdir = OUT / f"{args.workload}-{args.seed}-{id(args):x}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
        for warm in workload.warmup:
            if cli.main(warm + ["--output", str(outdir / "warmup")]) != 0:
                print(f"error: warm-up call {warm} failed", file=sys.stderr)
                return 2
        runner = Runner(workload, cli)
        lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
        if args.trace:
            plain = runner.passes(args.seconds / 2, deadline)
            tracer = tracing.Tracer()
            runner.tracer = tracer
            runner.bytes_out = runner.cli_errors = 0
            with tracer:
                traced = runner.passes(args.seconds / 2, deadline)
            runner.tracer = None
            metrics = tracing.layer_metrics(
                tracer, len(traced), runner.bytes_out, runner.cli_errors
            )
            overhead = statistics.median(map(sum, traced)) / statistics.median(map(sum, plain))
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            for family in workloads.ERROR_FAMILIES:
                metrics[f"max_abs_err.{family}"] = (workload.errors.get(family, 0.0), "abs")
            missing = [
                layer for layer in EXERCISED[args.workload] if not metrics[f"{layer}.spans"][0]
            ]
            if missing:
                print(f"error: traced run recorded no spans in {missing}", file=sys.stderr)
                return 3
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.dump(), indent=1) + "\n")
            lines.append(f"spans: {trace_file.relative_to(ROOT)}; wait time: not applicable "
                         "(single-threaded, no queues)")
        else:
            passes = runner.passes(args.seconds, deadline)
            if len(passes) == 1:
                # no call was repeated: re-run one seeded call to compare its bytes
                runner.call(random.Random(args.seed).choice(workload.calls))
            setup_s = measure_setup()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, notes = end_to_end(workload, passes, setup_s, peak)
            lines += notes
            for family, err in sorted(workload.errors.items()):
                lines.append(f"  max_abs_err.{family:<10} {err:.6g} abs (checked values)")
        if args.workload == "grid-eval":
            over, worst = workloads.drift_probe()
            lines.append(f"  known defect (ROADMAP item 1): F_{workloads.PROBE_FN.a} by the "
                         f"float route exceeds its stated bound at {over} of the floats next "
                         f"to k/3^m, m <= {workloads.PROBE_LEVELS}; worst error {worst:.3g}")
        else:
            over, worst = 0, 0.0
        if args.trace:
            metrics["functions.okamoto_bound_violations"] = (over, "count")
            metrics["max_abs_err.okamoto_probe"] = (worst, "abs")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<30} {value:.6g} {unit}")
    ratio = runner.failed / runner.attempted
    lines.append(f"  fail_ratio {ratio:.6g} ({runner.failed} of {runner.attempted} calls)")
    lines += [f"  FAILED {p}" for p in runner.problems[:20]]
    lines.append(f"  wall {time.perf_counter() - started:.1f} s")
    print("\n".join(lines))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
