"""Rerun the recorded mutants and require each to be killed.

    python tests/run_mutants.py

tests/mutants.json lists the mutants. Each names a file under src/, an
exact `old` text that must occur there once, its `new` text, and the
test ids (as pytest prints them) that must fail once it is applied.

The named tests of every mutant first run against an unmutated copy of
src/ and must all pass there. Then, for each mutant, src/ is copied to a
temporary directory, the mutant is applied to the copy, and every test
named for it must fail against the copy. The tests run in a subprocess
under PYTHONHASHSEED=0, with the copy first on PYTHONPATH. Exits 0 when
every mutant is killed, 1 otherwise. Uses only the standard library;
pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"
TIMEOUT_S = 900


def junit_key(test_id):
    """A pytest node id as junit's (classname, name)."""
    path, *rest = test_id.split("::")
    classname = ".".join([path[:-len(".py")].replace("/", "."), *rest[:-1]])
    return classname, rest[-1]


def outcomes(src, tests, work):
    """Run tests against the package in src: {test id: "passed", "failed"
    or "skipped"}; a test that was not run is missing."""
    report = work / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", f"--junitxml={report}", *tests],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    seen = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            tags = {child.tag for child in case}
            seen[case.get("classname"), case.get("name")] = (
                "failed" if tags & {"failure", "error"}
                else "skipped" if "skipped" in tags else "passed")
    return {t: seen[junit_key(t)] for t in tests if junit_key(t) in seen}


def copy_src(work):
    src = work / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main():
    mutants = json.loads(MUTANTS.read_text())
    problems = []
    for m in mutants:
        count = (ROOT / m["file"]).read_text().count(m["old"])
        if count != 1:
            problems.append(f"{m['name']}: old text occurs {count} times "
                            f"in {m['file']}")
    if problems:
        print("\n".join(problems))
        return 1
    named = sorted({t for m in mutants for t in m["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        got = outcomes(copy_src(work), named, work)
    for t in named:
        if got.get(t) != "passed":
            problems.append(f"unmutated: {t} {got.get(t, 'not run')}")
    if problems:
        print("\n".join(problems))
        return 1
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            src = copy_src(work)
            target = work / m["file"]
            target.write_text(target.read_text().replace(m["old"], m["new"]))
            got = outcomes(src, m["tests"], work)
        survived = [t for t in m["tests"] if got.get(t) != "failed"]
        print(f"{m['name']}: {len(m['tests']) - len(survived)} of "
              f"{len(m['tests'])} named tests fail")
        problems += [f"{m['name']}: {t} {got.get(t, 'not run')}"
                     for t in survived]
    if problems:
        print("\n".join(problems))
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
