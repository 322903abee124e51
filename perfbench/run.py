"""liefam benchmark: time to verdict, set-up time, memory and right verdicts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 36 --trace 0

With `--trace 0` it times full passes of the workload with tracing off
and prints the end-to-end metrics.  Times are reported at a fixed
reference speed of the machine (see speed.py).  With `--trace 1` it runs one
untraced pass, then two traced passes with every public liefam function
wrapped (see layers.py), and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; diagnostics go to standard error.
The program is imported from `src/` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
TRACED_PASSES = 2
#: Reference-loop iterations timed before the first set-up probe and
#: after each one (about 0.3 s).
PROBE_ITERATIONS = 60_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(args):
    """Set-up seconds of a fresh interpreter at the reference speed, and the input digests.

    Each of SETUP_PROBES probes runs probe.py in a new interpreter and is
    timed from spawn to the monotonic stamp it prints once the inputs are
    built.  It is scaled by the mean of the reference speeds measured just
    before and just after it.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)]
    times, refs, digests = [], [speed.reference_loop(PROBE_ITERATIONS)], set()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            print(f"setup probe failed: {proc.stderr.strip()}", file=sys.stderr)
            sys.exit(2)
        stamp, digest = proc.stdout.split()
        times.append(float(stamp) - start)
        refs.append(speed.reference_loop(PROBE_ITERATIONS))
        digests.add(digest)
    print(f"setup probes: wall median {statistics.median(times):.4f} s", file=sys.stderr)
    return statistics.median(
        speed.scale(t, (a + b) / 2) for t, a, b in zip(times, refs, refs[1:])
    ), digests


class Runner:
    """Runs passes of one workload and tallies verdicts and outputs."""

    def __init__(self, name, inputs, package):
        self.name = name
        self.inputs = inputs
        self.package = package
        self.run_pass = workloads.WORKLOADS[name][2]
        self.attempted = 0
        self.failed = 0
        self.first_output = None

    def one(self) -> float:
        start = time.perf_counter()
        result = self.run_pass(self.inputs, self.package)
        elapsed = time.perf_counter() - start
        self.attempted += len(result.verdicts)
        for label in result.wrong:
            self.failed += 1
            print(f"wrong verdict: {self.name}: {label}", file=sys.stderr)
        if self.first_output is None:
            self.first_output = result.output
        elif result.output != self.first_output:
            self.failed += 1
            print(f"output differs from the first pass: {self.name}", file=sys.stderr)
        return elapsed

    def until(self, seconds):
        """Passes until the next one would end past `seconds`; at least one.

        Returns each pass's wall seconds and its seconds at the reference speed.
        """
        times, scaled = [], []
        start = time.perf_counter()
        while True:
            with speed.Sampler() as sampler:
                times.append(self.one())
            scaled.append(sampler.scaled(times[-1]))
            if time.perf_counter() - start + statistics.median(times) > seconds:
                return times, scaled


def measure(args, runner):
    setup_s, digests = probe_setup(args)
    describe = workloads.WORKLOADS[args.workload][1]
    if digests != {workloads.digest(describe(runner.inputs))}:
        print("set-up probes built different inputs", file=sys.stderr)
        runner.failed += 1
    times, scaled = runner.until(args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{len(times)} passes: {', '.join(f'{t:.3f}' for t in times)} s; "
          f"wall median {statistics.median(times):.4f} s; "
          f"scaled {', '.join(f'{t:.3f}' for t in scaled)} s", file=sys.stderr)
    right = (runner.attempted - runner.failed) / runner.attempted
    return {
        "verdict_s": (statistics.median(scaled), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
        "right_verdict_ratio": (right, "ratio"),
    }


def traced(args, runner):
    package = runner.package
    untraced = runner.one()
    tracer = layers.Tracer()
    tracer.install(package)
    try:
        unwrapped = tracer.unwrapped_bindings()
        runs = []
        for _ in range(TRACED_PASSES):
            tracer.reset()
            elapsed = runner.one()
            runs.append((elapsed, tracer.snapshot(), tracer.layer_metrics()))
    finally:
        tracer.uninstall()
    for where in unwrapped:
        print(f"binding not traced: {where}", file=sys.stderr)
    mismatches = layers.count_mismatches(runs[0][1], runs[1][1])
    for name in mismatches:
        print(f"count differs between traced passes: {name}", file=sys.stderr)
    # either makes the per-layer figures wrong, so the run is not correct
    runner.failed += len(unwrapped) + len(mismatches)
    violations = layers.bypass_violations(args.workload, runs[-1][1])
    for name in violations:
        print(f"bypass prediction broken on {args.workload}: {name}", file=sys.stderr)

    values = {}
    for name in runs[0][2]:
        both = [r[2][name] for r in runs]
        values[name] = both[0] if len(set(both)) == 1 else statistics.mean(both)
    values["trace.overhead_ratio"] = statistics.mean(r[0] for r in runs) / untraced
    values["trace.count_mismatches"] = len(mismatches)
    values["trace.bypass_violations"] = len(violations)
    values["trace.unwrapped_bindings"] = len(unwrapped)
    return {name: (values[name], unit) for name, unit in layers.metric_specs()}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    package = workloads.load_liefam(str(ROOT))
    inputs = workloads.WORKLOADS[args.workload][0](args.seed, package)
    runner = Runner(args.workload, inputs, package)
    metrics = traced(args, runner) if args.trace else measure(args, runner)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
