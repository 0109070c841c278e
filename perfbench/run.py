"""Run one workload of the monarel benchmark and print its metrics.

    python3 perfbench/run.py --workload logrel --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, one row each with its
unit, then one JSON line with every end-to-end metric of BENCHMARK.json.
With --trace 1 it wraps monarel's public functions from outside, runs the
batch untraced and traced, and prints the per-layer metrics instead.
A record of the run (and, traced, its spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402

E2E_UNITS = {"items_per_s": "items/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
             "cases_checked": "count", "error_rate": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB"}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result line and the printed rows."""
    spec = harness.benchmark_spec()
    harness.OUT.mkdir(exist_ok=True)
    workdir = harness.OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    tag = f"{workload}-s{seed}-t{int(trace)}"
    try:
        wl = make_workload(workload, workdir)
        if trace:
            got = harness.measure_traced(wl, seed, seconds, harness.OUT / f"spans-{tag}.jsonl")
        else:
            got = harness.measure(wl, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = harness.machine_info()
    rows = [f"# monarel benchmark  workload={workload} seed={seed} trace={int(trace)} "
            + " ".join(f"{k}={v}" for k, v in info.items())]
    if trace:
        wanted = spec["per_layer"]
        correct = got["failed"] == 0 and got["mismatch"] is None
        rows.append(f"# {got['pairs']} untraced/traced pass pairs over batch 0 "
                    f"({got['batch']} items); spans dropped beyond the cap: "
                    f"{got['spans_dropped']}; cases untraced {got['cases_plain']}, "
                    f"traced {got['cases_traced']}")
        if got["mismatch"]:
            rows.append(f"# MISMATCH: {got['mismatch']}")
        rows += [f"{m['name']:<40} {got['metrics'][m['name']]!r} {m['unit']}" for m in wanted]
    else:
        wanted = spec["end_to_end"]
        correct = got["failed"] == 0
        rows.append(f"# closed loop, 1 client; {got['passes']} passes of {got['batch']}-item "
                    f"batches; {got['attempted']} items")
        for name, unit in E2E_UNITS.items():
            row = f"{name:<16} {got['metrics'][name]!r} {unit}"
            if name == "item_tail_ms":
                row += (f"  (p{got['tail_pct']:.2f} of {got['attempted']} samples, "
                        f"{harness.TAIL_BEYOND} per batch beyond it)")
            elif name == "error_rate":
                row += f"  ({got['failed']} of {got['attempted']})"
            elif name == "setup_s":
                row += f"  (median of {len(got['setup_runs'])})"
            rows.append(row)
    line = {"correct": correct, "attempted": got["attempted"], "failed": got["failed"],
            "metrics": {m["name"]: {"value": got["metrics"][m["name"]], "unit": m["unit"]}
                        for m in wanted}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **info, **{k: v for k, v in got.items() if k != "metrics"}, "result": line}
    (harness.OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    return {"line": line, "rows": rows}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["rows"]))
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
