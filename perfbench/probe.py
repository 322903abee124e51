"""One set-up probe: import liefam and build one workload's inputs, in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed>

Prints `time.monotonic()` taken right after the inputs are built, then
a digest of the inputs.  The caller times set-up from spawning this
process to that stamp (CLOCK_MONOTONIC is shared between processes on
Linux), so the digest and the interpreter's exit are not part of it.
Only `workloads` is imported before the stamp: nothing of the
benchmark's own that set-up does not need.
"""

import os
import sys
import time

import workloads  # the script's directory is sys.path[0]


def main(name, seed):
    package = workloads.load_liefam(os.path.dirname(sys.path[0]))
    build, describe, _ = workloads.WORKLOADS[name]
    inputs = build(int(seed), package)
    stamp = time.monotonic()
    print(repr(stamp))
    print(workloads.digest(describe(inputs)))


if __name__ == "__main__":
    main(*sys.argv[1:])
