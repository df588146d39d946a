#!/usr/bin/env python3
"""Mutation test for the four tools/sca checks that replaced tools/lint.py
(registered as ctest `sca_mutations`).

Builds a hermetic copy of every real source file those checks read, then
runs tools/sca over the clean copy and over copies broken in targeted
ways (new enumerator, unpublished Stats field, duplicated dispatch row,
malformed bench report). Each tree must yield exactly the expected
(path, message) set and exit code: no findings and 0 for the clean tree,
the pinned findings and 1 for every mutation. Counts and names that
depend on the tree (kCallCount, the duplicated row) are read from the
copy, so the expectations track the sources without hard-coding them.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else HERE.parents[1]
SCA = ROOT / "tools" / "sca"
RULES = ("enum-string-coverage,stats-publish-coverage,"
         "dispatch-table-complete,bench-report-schema")

# Every file the four rules' config tables read; sca reports any that is
# missing, so the hermetic tree must hold them all.
FILES = [
    "src/hafnium/hypercall.h", "src/hafnium/hypercall.cpp",
    "src/hafnium/vm.h", "src/hafnium/vm.cpp",
    "src/hafnium/manifest.h", "src/hafnium/manifest.cpp",
    "src/hafnium/spm.h", "src/hafnium/spm.cpp",
    "src/check/check.h", "src/check/check.cpp",
    "src/check/corrupt.h", "src/check/corrupt.cpp",
    "src/obs/events.h", "src/obs/recorder.cpp",
    "src/obs/profiler.h", "src/obs/profiler.cpp",
    "src/resil/resil.h", "src/resil/resil.cpp",
    "src/resil/chaos.h", "src/resil/chaos.cpp",
    "src/resil/contain.h", "src/resil/contain.cpp",
    "src/workloads/attack.h", "src/workloads/attack.cpp",
]

GOOD_BENCH = ('{"bench": "parity", "metrics": '
              '[{"name": "x", "mean": 1.0, "stdev": 0.0, "n": 3}]}\n')
BAD_BENCH = ('{"bench": "", "metrics": '
             '[{"name": "x", "mean": NaN, "stdev": 0.0}]}\n')

_SCA_LINE_RE = re.compile(r"^(\S+):\d+: \[[\w-]+\] (.*)$")
_DISPATCH_ROW_RE = re.compile(r"([ \t]*\{Call::(k\w+)[^\n]*\n)")

HYPERCALL_H = "src/hafnium/hypercall.h"
HYPERCALL_CPP = "src/hafnium/hypercall.cpp"
SPM_H = "src/hafnium/spm.h"
SPM_CPP = "src/hafnium/spm.cpp"
BENCH = "BENCH_parity.json"


def make_tree(base: Path) -> Path:
    tree = base / "tree"
    for rel in FILES:
        dst = tree / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / rel, dst)
    (tree / BENCH).write_text(GOOD_BENCH)
    return tree


def mutate(tree: Path, name: str) -> set:
    """Apply mutation `name` to `tree`; return its expected finding set."""
    if name == "clean":
        return set()
    if name == "enum-grown":
        # A fresh Call enumerator at once breaks to_string coverage, the
        # dispatch table row count, and the kCallCount constant.
        p = tree / HYPERCALL_H
        text = p.read_text()
        count = int(re.search(r"kCallCount\s*=\s*(\d+)", text).group(1))
        p.write_text(re.sub(r"(enum\s+class\s+Call\b[^{]*\{)",
                            r"\1 kParityProbe,", text, count=1))
        return {
            (HYPERCALL_CPP, "to_string(Call) misses Call::kParityProbe"),
            (HYPERCALL_H, f"kCallCount = {count} but enum Call has "
                          f"{count + 1} enumerators"),
            (SPM_CPP, "kCallTable has no CallDescriptor row for "
                      "Call::kParityProbe"),
        }
    if name == "stats-unpublished":
        p = tree / SPM_H
        p.write_text(re.sub(
            r"(struct\s+Stats\s*\{)",
            r"\1 std::uint64_t parity_probe = 0;", p.read_text(), count=1))
        return {(SPM_CPP, "Spm::publish_metrics does not publish "
                          "Stats::parity_probe")}
    if name == "dispatch-dup-row":
        p = tree / SPM_CPP
        text = p.read_text()
        row = _DISPATCH_ROW_RE.search(text).group(2)
        p.write_text(_DISPATCH_ROW_RE.sub(r"\1\1", text, count=1))
        return {(SPM_CPP, f"kCallTable lists Call::{row} 2 times")}
    if name == "bench-broken":
        (tree / BENCH).write_text(BAD_BENCH)
        return {
            (BENCH, 'metrics[0] "mean" is NaN/Inf'),
            (BENCH, 'metrics[0] missing numeric "n"'),
            (BENCH, 'missing/empty "bench" name'),
        }
    raise ValueError(name)


def sca_findings(tree: Path) -> tuple[set, int]:
    r = subprocess.run(
        [sys.executable, str(SCA), "--root", str(tree), "--rules", RULES],
        capture_output=True, text=True)
    out = set()
    for line in r.stdout.splitlines():
        m = _SCA_LINE_RE.match(line)
        if m:
            out.add((m.group(1), m.group(2)))
    return out, r.returncode


def main() -> int:
    mutations = ["clean", "enum-grown", "stats-unpublished",
                 "dispatch-dup-row", "bench-broken"]
    failures = []
    tmpbase = ROOT / "build"
    tmpbase.mkdir(exist_ok=True)
    for name in mutations:
        with tempfile.TemporaryDirectory(dir=tmpbase) as td:
            tree = make_tree(Path(td))
            expected = mutate(tree, name)
            got, rc = sca_findings(tree)
            if got != expected:
                failures.append(
                    f"{name}: finding sets differ\n"
                    f"  missing:    {sorted(expected - got)}\n"
                    f"  unexpected: {sorted(got - expected)}")
            want_rc = 1 if expected else 0
            if rc != want_rc:
                failures.append(f"{name}: exit code {rc}, expected {want_rc}")
    if failures:
        for f in failures:
            print(f"FAIL {f}\n")
        print(f"sca-mutations: {len(failures)} failure(s)")
        return 1
    print(f"sca-mutations: expected findings across {len(mutations)} trees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
