#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the metrics
are the per-layer ones, and the spans of the traced passes are written to
`.bench_build/perfbench/spans-<workload>-<seed>.jsonl`.

The runner is built with CMake into `.bench_build/perfbench` on first use;
later runs only bring that build up to date. Outside a full
checkout (no `src/` next to `perfbench/`) it exits with an error.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_figs", "fleet_boot", "vm_churn")


def build() -> Path:
    """Configure and build the runner (incrementally); return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found; "
                 "run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench_runner"]]
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                    sys.stderr.write(log.read_text()[-4000:])
                    sys.exit("perfbench: build failed (see %s)" % log)
    return BUILD / "perfbench_runner"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--recorded", help="recorded outputs to check against "
                   "(default: perfbench/recorded/<workload>.txt)")
    p.add_argument("--record", help="write the first pass's outputs here")
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    runner = build()
    recorded = args.recorded or str(HERE / "recorded" / (args.workload + ".txt"))
    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if os.path.isfile(recorded):
        cmd += ["--recorded", recorded]
    if args.record:
        cmd += ["--record", args.record]
    if args.trace:
        cmd += ["--spans", str(BUILD / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: runner timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: runner exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
