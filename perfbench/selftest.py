#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selftest.py

Checks, on every workload unless noted:
  1. two traced runs at one seed give exactly equal deterministic per-layer
     counts;
  2. a changed seed changes the generated inputs;
  3. a deliberately wrong recorded output shows up as failed operations
     (paper_figs and fleet_boot, the workloads with recorded outputs), while
     the true recorded output gives none;
  4. in a directory that holds only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench" / "selftest"
WORKLOADS = ("paper_figs", "fleet_boot", "vm_churn")
RECORDED = ("paper_figs", "fleet_boot")
# Per-layer metrics that are not host times: they must repeat exactly.
DETERMINISTIC_UNITS = ("count", "bytes", "pct")
DETERMINISTIC_RATIOS = ("sim.batched_pops_per_event", "hafnium.call_ok_ratio",
                        "arch.tlb_hit_ratio", "arch.l0_hit_ratio")


def run(workload, seed=1, trace=0, seconds=1.0, extra=(), cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise RuntimeError("run failed: %s" % proc.stderr[-2000:])
    lines = proc.stdout.splitlines()
    inputs = next(l.split()[1] for l in lines if l.startswith("inputs "))
    return inputs, json.loads(lines[-1])


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in DETERMINISTIC_UNITS or k in DETERMINISTIC_RATIOS}


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        _, a = result(run(w, trace=1))
        _, b = result(run(w, trace=1))
        da, db = deterministic(a["metrics"]), deterministic(b["metrics"])
        diff = sorted(k for k in da if da[k] != db.get(k))
        check(not diff and a["failed"] == 0 and b["failed"] == 0,
              "%s: two traced runs give equal per-layer counts %s" % (w, diff or ""))

        in1, _ = result(run(w, seed=1, seconds=0.1))
        in2, r2 = result(run(w, seed=2, seconds=0.1))
        check(in1 != in2 and r2["failed"] == 0,
              "%s: seed 2 changes the inputs (%s vs %s) and passes its checks" % (w, in1, in2))

    for w in RECORDED:
        good = HERE / "recorded" / (w + ".txt")
        lines = good.read_text().splitlines()
        # Change one digit of the first recorded value.
        i = next(n for n, l in enumerate(lines) if "=" in l)
        key, _, value = lines[i].rpartition("=")
        lines[i] = key + "=" + ("9" if value[:1] != "9" else "8") + value[1:]
        wrong = SCRATCH / ("wrong-" + w + ".txt")
        wrong.write_text("\n".join(lines) + "\n")
        _, bad = result(run(w, seconds=0.1, extra=("--recorded", str(wrong))))
        _, ok = result(run(w, seconds=0.1, extra=("--recorded", str(good))))
        check(bad["failed"] > 0 and not bad["correct"] and ok["failed"] == 0,
              "%s: a wrong recorded output fails %d of %d operations" %
              (w, bad["failed"], bad["attempted"]))

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("paper_figs", cwd=bare)
    printed = any(l.startswith("{") for l in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed,
          "without the library sources the benchmark exits %d and prints no result"
          % proc.returncode)

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
