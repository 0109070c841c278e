"""The benchmark's own self-check.

    python3 perfbench/selfcheck.py

Confirms that
1. every metric named in BENCHMARK.json is emitted with its unit, by every
   workload, traced and untraced, and the per-layer names match what the
   tracer produces;
2. the traced run gives the same verdicts and case counts as the untraced one;
3. a deliberately wrong answer planted in a workload's results shows up in
   its error rate (and the honest batch has none);
4. lift_enumerate's repeat share is high on logrel and low on lift;
and that the benchmark fails, without printing a result, when the program
is missing.  Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

from perfbench import harness  # noqa: E402
from perfbench.run import E2E_UNITS  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402

SEED = 5
REPEAT_HIGH = 0.5
REPEAT_LOW = 0.2


def _lie(name):
    """A wrong answer for each workload's results."""
    if name in ("logrel", "laws"):
        # a checker that always says "pass" (laws) or a term reported unrelated (logrel)
        ok = name == "laws"
        return lambda lib, item, rep: dataclasses.replace(
            rep, ok=ok, counterexample=None if ok else {"planted": True})
    if name == "bisim":
        def lie(lib, item, result):
            if item[0] == "sat":
                return (not result[0],) + tuple(result[1:])
            return lib.finset.Rel(result.left, result.right, ())
        return lie
    return lambda lib, item, result: (1 - result[0], result[1])  # flipped exit code


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_emission(spec, results):
    problems = []
    layer_names = set(Tracer().metrics()) | {"trace.overhead"}
    for m in spec["per_layer"]:
        if m["name"] not in layer_names:
            problems.append(f"per_layer {m['name']} is not produced by the tracer")
    for (workload, trace), proc in results.items():
        lines = proc.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != {m["name"]: m["unit"] for m in wanted}:
            problems.append(f"{workload} trace={trace}: metrics/units differ from BENCHMARK.json")
        units = E2E_UNITS if not trace else {m["name"]: m["unit"] for m in wanted}
        for name, unit in units.items():
            if not any(r.split()[:1] == [name] and f" {unit}" in r for r in lines[:-1]):
                problems.append(f"{workload} trace={trace}: no row for {name} in {unit}")
    return problems


def check_traced_equals_untraced(results):
    problems = []
    for workload in WORKLOADS:
        line = json.loads(results[(workload, 1)].stdout.strip().splitlines()[-1])
        record = json.loads((harness.OUT / f"run-{workload}-s{SEED}-t1.json").read_text())
        if record["mismatch"] or record["cases_plain"] != record["cases_traced"]:
            problems.append(f"{workload}: traced verdicts/cases differ: {record['mismatch']}")
        if not line["correct"]:
            problems.append(f"{workload}: traced run not correct")
    return problems


def check_planted_errors():
    problems = []
    workdir = harness.OUT / "selfcheck-inputs"
    try:
        for name in WORKLOADS:
            wl = make_workload(name, workdir)
            lib = harness.import_lib(fresh=False)
            items = wl.build(lib, wl.generate(lib, SEED, 0))
            honest = harness.run_pass(wl, lib, items)
            lie, run = _lie(name), wl.run
            wl.run = lambda lib, item: lie(lib, item, run(lib, item))
            lying = harness.run_pass(wl, lib, items)
            if honest.failed or not lying.failed:
                problems.append(f"{name}: honest errors {honest.failed}, "
                                f"planted errors {lying.failed} of {len(items)}")
            print(f"  {name}: error_rate honest {honest.failed / len(items):.3f}, "
                  f"with a planted wrong answer {lying.failed / len(items):.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_repeat_shares(results):
    share = {w: json.loads(results[(w, 1)].stdout.strip().splitlines()[-1])["metrics"]
             ["lifting.lift_enumerate.repeat_share"]["value"] for w in ("logrel", "lift")}
    print(f"  lift_enumerate repeat share: logrel {share['logrel']:.3f}, lift {share['lift']:.3f}")
    if share["logrel"] < REPEAT_HIGH or share["lift"] > REPEAT_LOW:
        return [f"repeat shares out of range: {share}"]
    return []


def check_fails_without_program():
    bare = harness.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run("lift", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = harness.benchmark_spec()
    harness.OUT.mkdir(exist_ok=True)
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            if proc.returncode != 0:
                print(proc.stderr[-3000:])
                print(f"FAIL: {workload} trace={trace} exited {proc.returncode}")
                return 1
            results[(workload, trace)] = proc
    checks = [
        ("metrics emitted with units", lambda: check_emission(spec, results)),
        ("traced run equals untraced", lambda: check_traced_equals_untraced(results)),
        ("planted wrong answer raises error_rate", check_planted_errors),
        ("repeat shares high on logrel, low on lift", lambda: check_repeat_shares(results)),
        ("fails without the program", check_fails_without_program),
    ]
    failed = 0
    for title, check in checks:
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {title}")
        for p in problems:
            print(f"  - {p}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
