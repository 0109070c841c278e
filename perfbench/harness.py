"""Closed-loop measurement: one client, the next item starts when the
previous verdict has returned.

A run measures a workload's fixed batch (batch 0, made from the seed) and,
while time remains, further batches 1, 2, ... made from the same seed.
Each item is timed on its own; scoring against the known answer, input
generation and object building happen outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 3
TAIL_BEYOND = 10
MODULES = ("finset", "monads", "lawcheck", "lifting", "metalang", "bisim", "poset",
           "jsonio", "cli")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_lib(fresh: bool) -> types.SimpleNamespace:
    """Import monarel; with fresh=True drop it from sys.modules first."""
    if fresh:
        for name in [n for n in sys.modules if n == "monarel" or n.startswith("monarel.")]:
            del sys.modules[name]
    pkg = importlib.import_module("monarel")
    return types.SimpleNamespace(pkg=pkg, **{
        m: importlib.import_module(f"monarel.{m}") for m in MODULES})


def machine_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "monarel").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------------ passes

class Pass:
    """Timings and verdicts of one pass over one batch."""

    def __init__(self):
        self.times = []
        self.verdicts = []
        self.failed = 0
        self.cases = 0

    @property
    def items_per_s(self) -> float:
        return len(self.times) / sum(self.times)


def run_pass(wl, lib, items, tracer=None) -> Pass:
    out = Pass()
    gc.collect()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            result = wl.run(lib, item)
        except Exception as exc:  # an item that raises is a failed verdict
            result = exc
        out.times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.item = -1
        if isinstance(result, Exception):
            traceback.print_exception(result, file=sys.stderr)
            ok, cases, verdict = False, 0, ("raised", type(result).__name__)
        else:
            ok, cases, verdict = wl.score(lib, item, result)
        out.failed += not ok
        out.cases += cases
        out.verdicts.append(verdict)
    return out


def tail_percentile(batch_size: int) -> float:
    """Highest percentile with TAIL_BEYOND samples of one batch beyond it."""
    return 100.0 * (1 - TAIL_BEYOND / batch_size)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


# -------------------------------------------------------------------- runs

def measure(wl, seed: int, seconds: float) -> dict:
    """The untraced run: passes until time is up, each on a freshly imported
    and built program.  Set-up is timed SETUP_REPS times before the first
    pass and once more after every pass, so its median spans the run."""
    lib = import_lib(fresh=False)
    raw = wl.generate(lib, seed, 0)
    setup = []

    def set_up():
        start = time.perf_counter()
        lib = import_lib(fresh=True)
        items = wl.build(lib, raw)
        setup.append(time.perf_counter() - start)
        return lib, items

    for _ in range(SETUP_REPS):
        lib, items = set_up()
    if len(items) <= TAIL_BEYOND:
        raise ValueError(f"batch of {len(items)} items is too small for the tail percentile")
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(run_pass(wl, lib, items))
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(passes) > seconds:
            break
        lib, _ = set_up()
        items = wl.build(lib, wl.generate(lib, seed, len(passes)))
    times = [t for p in passes for t in p.times]
    pct = tail_percentile(len(passes[0].times))
    attempted = len(times)
    failed = sum(p.failed for p in passes)
    return {
        "passes": len(passes),
        "batch": len(passes[0].times),
        "attempted": attempted,
        "failed": failed,
        "tail_pct": pct,
        "metrics": {
            "items_per_s": statistics.median(p.items_per_s for p in passes),
            "item_p50_ms": 1000 * statistics.median(times),
            "item_tail_ms": 1000 * percentile(times, pct),
            "cases_checked": passes[0].cases,
            "error_rate": failed / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        },
        "setup_runs": setup,
        "pass_rates": [p.items_per_s for p in passes],
    }


def measure_traced(wl, seed: int, seconds: float, spans_path: Path) -> dict:
    """Pairs of passes over batch 0: untraced, then traced, each on freshly
    built objects.  Verdicts and cases of the two must agree.  The first
    traced pass's spans are written to spans_path."""
    lib = import_lib(fresh=False)
    raw = wl.generate(lib, seed, 0)
    plain, traced, layers = [], [], []
    mismatch = None
    began = time.perf_counter()
    while True:
        plain.append(run_pass(wl, lib, wl.build(lib, raw)))
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            items = wl.build(lib, wl.generate(lib, seed, 0))
            traced.append(run_pass(wl, lib, items, tracer))
        finally:
            tracer.restore()
        layers.append(tracer.metrics())
        if (traced[-1].verdicts, traced[-1].cases) != (plain[-1].verdicts, plain[-1].cases):
            mismatch = f"pair {len(traced)}: traced verdicts or cases differ from untraced"
        if len(traced) == 1:
            tracer.write_spans(spans_path)
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(traced) > seconds:
            break
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    metrics["trace.overhead"] = (statistics.median(p.items_per_s for p in traced)
                                 / statistics.median(p.items_per_s for p in plain))
    runs = plain + traced
    return {
        "pairs": len(traced),
        "batch": len(plain[0].times),
        "attempted": sum(len(p.times) for p in runs),
        "failed": sum(p.failed for p in runs),
        "mismatch": mismatch,
        "cases_plain": plain[0].cases,
        "cases_traced": traced[0].cases,
        "spans_dropped": tracer.dropped,
        "metrics": metrics,
    }
