#!/usr/bin/env python3
"""Golden-fixture tests for tools/sca (registered as ctest `sca_fixtures`).

Each tests/sca/fixtures/<case>/ directory is a miniature source tree; the
case name up to the first '.' is the rule id to run (so `layer-dag` and
`layer-dag.cycle` both exercise layer-dag). Running

    sca --root <case> --rules <rule-id>

must reproduce <case>/expected.txt line for line in the finding format
`path:line: [rule] message`, and must exit 1 when findings are expected,
0 when the tree is clean. On top of the per-rule goldens this harness
checks the cross-cutting CLI semantics on the det-wall-clock fixture:
baseline round-trip (--write-baseline then --baseline => exit 0) and the
SARIF report (suppressed finding carries an inSource suppression).
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else HERE.parents[1]
SCA = ROOT / "tools" / "sca"
FIXTURES = HERE / "fixtures"

_FINDING_RE = re.compile(r"^\S+:\d+: \[[\w-]+\] ")


def run_sca(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCA)] + args,
                          capture_output=True, text=True)


def finding_lines(stdout: str) -> list[str]:
    return [l for l in stdout.splitlines() if _FINDING_RE.match(l)]


def check_fixture(case: Path, failures: list[str]) -> None:
    rule_id = case.name.split(".")[0]
    inputs = [p for p in case.rglob("*")
              if p.is_file() and p.name != "expected.txt"]
    if not inputs:
        failures.append(
            f"{case.name}: fixture holds no input files besides expected.txt "
            f"(is a .gitignore pattern hiding them from the checkout?)")
        return
    expected =[l for l in (case / "expected.txt").read_text().splitlines()
                if l.strip()]
    r = run_sca(["--root", str(case), "--rules", rule_id])
    got = finding_lines(r.stdout)
    want_exit = 1 if expected else 0
    if r.returncode != want_exit:
        failures.append(f"{case.name}: exit {r.returncode}, want {want_exit}\n"
                        f"{r.stdout}{r.stderr}")
    if got != expected:
        failures.append(
            f"{case.name}: findings differ\n--- expected:\n"
            + "\n".join(expected) + "\n--- got:\n" + "\n".join(got))


def check_baseline_roundtrip(tmp: Path, failures: list[str]) -> None:
    case = FIXTURES / "det-wall-clock"
    bp = tmp / "baseline.json"
    r1 = run_sca(["--root", str(case), "--rules", "det-wall-clock",
                  "--baseline", str(bp), "--write-baseline"])
    if r1.returncode != 0 or not bp.is_file():
        failures.append(f"baseline: --write-baseline failed\n{r1.stdout}")
        return
    doc = json.loads(bp.read_text())
    if len(doc.get("findings", {})) != 1:
        failures.append(f"baseline: expected 1 fingerprint, got {doc}")
    r2 = run_sca(["--root", str(case), "--rules", "det-wall-clock",
                  "--baseline", str(bp)])
    if r2.returncode != 0 or "1 baselined" not in r2.stdout:
        failures.append(f"baseline: accepted finding still gates\n{r2.stdout}")


def check_sarif(tmp: Path, failures: list[str]) -> None:
    case = FIXTURES / "det-wall-clock"
    out = tmp / "report.sarif"
    run_sca(["--root", str(case), "--rules", "det-wall-clock",
             "--sarif-out", str(out)])
    doc = json.loads(out.read_text())
    try:
        run = doc["runs"][0]
        results = run["results"]
        rules = run["tool"]["driver"]["rules"]
    except (KeyError, IndexError):
        failures.append(f"sarif: malformed document\n{doc}")
        return
    if not any(r.get("id") == "det-wall-clock" for r in rules):
        failures.append("sarif: rule metadata missing det-wall-clock")
    kinds = [s.get("kind") for r in results for s in r.get("suppressions", [])]
    if len(results) != 2 or "inSource" not in kinds:
        failures.append(
            f"sarif: want 2 results with one inSource suppression, got "
            f"{len(results)} results, suppression kinds {kinds}")


def main() -> int:
    failures: list[str] = []
    cases = sorted(p for p in FIXTURES.iterdir() if p.is_dir())
    if not cases:
        print("sca-fixtures: no fixtures found", file=sys.stderr)
        return 1
    for case in cases:
        check_fixture(case, failures)
    tmpbase = ROOT / "build"
    tmpbase.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmpbase) as td:
        check_baseline_roundtrip(Path(td), failures)
        check_sarif(Path(td), failures)
    if failures:
        for f in failures:
            print(f"FAIL {f}\n")
        print(f"sca-fixtures: {len(failures)} failure(s) "
              f"across {len(cases)} fixtures")
        return 1
    print(f"sca-fixtures: {len(cases)} fixtures + baseline/SARIF checks OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
