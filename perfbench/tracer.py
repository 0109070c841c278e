"""Spans around monarel's public functions, recorded from outside the program.

The tracer wraps the targets listed in layers.json and rebinds each wrapped
function wherever a monarel or perfbench module holds it (``from .x import f``
copies the name, so patching only the defining module would miss calls).
Methods and constructors are patched on their class.  restore() puts every
original back.  Spans stay in memory until write_spans() is called.

A span's self time is its duration minus the time covered by its child
spans.  Per-call hooks (argument keys for repeat shares, lifted-pair counts)
run with recording paused, and their time is taken out of the parent's self
time.  ``atom_key`` is deliberately not wrapped: it runs millions of times
and its wrapper would swamp the run.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())["groups"]

SPAN_CAP = 400_000


def _model_key(m):
    return (m.monad.name, frozenset(m.base.items()))


def _apply_hook(tr, args, kw, result):
    monad, carrier = args
    tr.repeat("monads.apply", (monad.name, carrier))


def _lift_enumerate_hook(tr, args, kw, result):
    t, s = args
    tr.repeat("lifting.lift_enumerate", (t.name, s))
    tr.counts["lifting.lift_enumerate.images"] += len(t.apply(s.as_finset()))
    tr.counts["lifting.lift_enumerate.pairs_out"] += len(result.pairs)


def _logical_relation_hook(tr, args, kw, result):
    m1, m2, base, ty = args
    key = (_model_key(m1), _model_key(m2), frozenset(base.items()), ty)
    tr.repeat("metalang.logical_relation", key)


def _synthesize_hook(tr, args, kw, result):
    if result is None:
        tr.counts["metalang.synthesize.none"] += 1


def _check_hook(tr, args, kw, result):
    tr.counts["lawcheck.cases"] += result.cases


HOOKS = {
    "monads.apply": _apply_hook,
    "lifting.lift_enumerate": _lift_enumerate_hook,
    "metalang.logical_relation": _logical_relation_hook,
    "metalang.synthesize": _synthesize_hook,
    "lawcheck.check": _check_hook,
}


def _in_scope(name):
    return name.split(".")[0] in ("monarel", "perfbench")


class Tracer:
    """Records spans while ``active``; ``item`` tags spans with the item index."""

    def __init__(self):
        self.active = False
        self.item = -1
        self.stack = []  # frames: [span id, group, child ns]
        self.next_id = 0
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.children = defaultdict(int)
        self.counts = defaultdict(int)
        self.repeats = defaultdict(int)
        self._seen = defaultdict(set)
        self._patches = []

    # ----------------------------------------------------------- patching

    def install(self):
        scope = [m for name, m in list(sys.modules.items())
                 if _in_scope(name) and isinstance(m, types.ModuleType)]
        for group, spec in LAYERS.items():
            hook = HOOKS.get(group)
            for target in spec["wraps"]:
                modname, qual = target.split(":")
                mod = sys.modules[modname]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                    self._set(owner, attr, self._wrap(group, orig, hook))
                    continue
                names = [n for n, obj in vars(mod).items()
                         if fnmatch.fnmatchcase(n, qual)
                         and isinstance(obj, types.FunctionType)
                         and obj.__module__ == modname]
                if not names:
                    raise LookupError(f"layers.json target {target} matches nothing")
                for n in names:
                    orig = vars(mod)[n]
                    wrapped = self._wrap(group, orig, hook)
                    for m in scope:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._set(m, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        self.active = False
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, group, fn, hook):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            if not tr.active:
                return fn(*args, **kw)
            stack = tr.stack
            parent = stack[-1] if stack else None
            frame = [tr.next_id, group, 0]
            tr.next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kw)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                tr.calls[group] += 1
                tr.self_ns[group] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    tr.children[(parent[1], group)] += 1
                if len(tr.spans) < SPAN_CAP:
                    tr.spans.append((frame[0], parent[0] if parent else -1, group,
                                     tr.item, start, end))
                else:
                    tr.dropped += 1
            if hook is not None:
                tr.active = False
                try:
                    hook(tr, args, kw, result)
                finally:
                    tr.active = True
                    if parent is not None:
                        parent[2] += perf_counter_ns() - end
            return result

        return traced

    # ------------------------------------------------------------ metrics

    def repeat(self, group, key):
        seen = self._seen[group]
        if key in seen:
            self.repeats[group] += 1
        else:
            seen.add(key)

    def metrics(self) -> dict:
        """Every per-layer figure this pass produced, by metric name."""
        out = {}
        for group in LAYERS:
            out[f"{group}.calls"] = self.calls[group]
            out[f"{group}.self_s"] = self.self_ns[group] / 1e9
        for group in ("monads.apply", "lifting.lift_enumerate", "metalang.logical_relation"):
            calls = self.calls[group]
            out[f"{group}.repeat_share"] = self.repeats[group] / calls if calls else 0.0
        synth = self.calls["metalang.synthesize"]
        out["metalang.synthesize.none_share"] = (
            self.counts["metalang.synthesize.none"] / synth if synth else 0.0)
        out["lifting.lift_enumerate.images"] = self.counts["lifting.lift_enumerate.images"]
        out["lifting.lift_enumerate.pairs_out"] = self.counts["lifting.lift_enumerate.pairs_out"]
        out["lawcheck.cases"] = self.counts["lawcheck.cases"]
        out["bisim.largest_bisimulation.rounds"] = self.children[
            ("bisim.largest_bisimulation", "finset.Rel")]
        return out

    def write_spans(self, path: Path):
        """One JSON object per span: id, parent, name, item, start_ns, end_ns."""
        with open(path, "w") as fh:
            for sid, parent, name, item, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "item": item, "start_ns": start, "end_ns": end}))
                fh.write("\n")
