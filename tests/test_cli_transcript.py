"""The CLI's answers, byte for byte, against a recorded transcript.

REQUESTS builds 187 requests over all ten subcommands, with and without
--json: passing, failing and refused.  Their input files are
drawn from fixed seeds and written into a temporary directory.  For each
request, tests/cli_transcript.json records the argv, the exit code, and
the SHA-256 of stdout and of stderr, with the temporary directory written
as <tmp> throughout.  A refactor that keeps the CLI's behaviour leaves
every entry as it is.

Left out: argparse's own text (--help, usage errors) and JSON syntax
errors, whose wording differs across Python versions; powerset
check-laws above --max-size 1, which takes about 10 s; and --ctx names
that are not metalanguage identifiers.

After a deliberate change of output, re-record the transcript with

    PYTHONPATH=src python tests/test_cli_transcript.py

and review the entries that changed.
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from monarel.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")
MODES = ("probability", "subprobability")


# ---------------------------------------------------------- seeded inputs

def _atoms(rng, pool, lo=1, hi=3):
    return pool[:rng.randint(lo, hi)]


def _rel(rng, left, right, p=0.5):
    return {"left": list(left), "right": list(right),
            "pairs": [[a, b] for a in left for b in right if rng.random() < p]}


def _weights(rng, support, mode):
    """Exact weights over a random part of support: mass 1 in
    probability mode, at most 1 in subprobability mode."""
    d = rng.randint(1, 6)
    total = d if mode == "probability" else rng.randint(0, d)
    counts = dict.fromkeys(support, 0)
    for _ in range(total):
        counts[rng.choice(support)] += 1
    return {x: str(Fraction(c, d)) for x, c in counts.items() if c}


def _lts(rng, states, labels):
    return {"states": list(states), "labels": list(labels),
            "step": {f"{s}|{l}": [t for t in states if rng.random() < 0.4]
                     for s in states for l in labels if rng.random() < 0.8}}


def _plts(rng, states, labels, mode):
    step = {f"{s}|{l}": _weights(rng, states, mode)
            for s in states for l in labels
            if mode == "probability" or rng.random() < 0.8}
    return {"states": list(states), "labels": list(labels), "mode": mode,
            "step": step}


def _poset(rng, atoms, p=0.4):
    return {"carrier": list(atoms),
            "leq": [[a, b] for i, a in enumerate(atoms) for b in atoms[i + 1:]
                    if rng.random() < p]}


def _classes(rng, states1, states2):
    """A random partition of the tagged union of two state spaces."""
    classes = {}
    for atom in [f"L:{a}" for a in states1] + [f"R:{b}" for b in states2]:
        classes.setdefault(rng.randint(0, 2), []).append(atom)
    return list(classes.values())


# ------------------------------------------------------------- requests

def _check_laws(w):
    runs = [("powerset", ["--max-size", "1"]),
            ("nonempty-powerset", ["--max-size", "1"]),
            ("nonempty-powerset", ["--max-size", "2", "--seed", "4"]),
            ("dist", ["--max-size", "1", "--samples", "10"]),
            ("dist", ["--max-size", "2", "--samples", "10", "--seed", "3"]),
            ("dist", ["--mode", "subprobability", "--max-size", "2",
                      "--samples", "10"]),
            ("upper", ["--max-size", "2", "--samples", "10"]),
            ("upper", ["--max-size", "3", "--samples", "5", "--seed", "1"])]
    out = [["check-laws", "--monad", m, *flags, *json_flag]
           for m, flags in runs for json_flag in ([], ["--json"])]
    for flags in (["--monad", "identity"],
                  ["--monad", "dist", "--mode", "bogus", "--max-size", "1"],
                  ["--monad", "powerset", "--max-size", "-1"],
                  ["--monad", "nonempty-powerset", "--max-size", "0"],
                  ["--monad", "nonempty-powerset", "--max-size", "5"],
                  ["--monad", "dist", "--max-size", "1", "--samples", "0"],
                  ["--monad", "upper", "--max-size", "4", "--json"],
                  ["--monad", "upper", "--max-size", "0"]):
        out.append(["check-laws", *flags])
    return out


def _lift(w):
    out = []
    for seed in range(8):
        rng = random.Random(100 + seed)
        s = _rel(rng, _atoms(rng, "123"), _atoms(rng, "abc"))
        monad = ("powerset", "nonempty-powerset")[seed % 2]
        out.append(["lift", "--monad", monad, "--S", w(s)]
                   + ["--json"] * (seed // 2 % 2))
    full = {"left": list("1234"), "right": list("abcd"),
            "pairs": [[a, b] for a in "1234" for b in "abcd"][:13]}
    out += [["lift", "--monad", "dist", "--S", w(_rel(random.Random(1),
                                                      "12", "ab"))],
            ["lift", "--monad", "upper", "--S", w(_rel(random.Random(2),
                                                       "12", "ab"))],
            ["lift", "--monad", "powerset", "--S", w(full)],
            ["lift", "--monad", "powerset", "--S", w(full), "--json"],
            ["lift", "--monad", "powerset",
             "--S", w({"left": ["1"], "right": ["a"], "pairs": 5})],
            ["lift", "--monad", "powerset",
             "--S", w({"left": ["1"], "right": ["a"], "pairs": [["2", "a"]]})],
            ["lift", "--monad", "powerset", "--S", w({"left": ["1"]})],
            ["lift", "--monad", "powerset", "--S", w.missing()],
            ["lift", "--monad", "powerset", "--S", w.raw(b"\xff[]")],
            ["lift", "--monad", "nonempty-powerset", "--S", w.directory()]]
    return out


def _member(w):
    out = []
    for seed in range(8):
        rng = random.Random(200 + seed)
        left, right = _atoms(rng, "123"), _atoms(rng, "abc")
        monad = ("powerset", "nonempty-powerset")[seed % 2]
        b1 = [x for x in left if rng.random() < 0.6] or [left[0]]
        b2 = [y for y in right if rng.random() < 0.6] or [right[0]]
        out.append(["member", "--monad", monad, "--S",
                    w(_rel(rng, left, right, 0.6)), "--b1", w(b1),
                    "--b2", w(b2)] + ["--json"] * (seed // 2 % 2))
    for seed in range(10):
        rng = random.Random(300 + seed)
        mode = MODES[seed % 2]
        left, right = _atoms(rng, "123", 2), _atoms(rng, "abc", 2)
        s = _rel(rng, left, right, 0.6)
        nu1, nu2 = (_weights(rng, atoms, "probability")
                    for atoms in (left, right))
        out.append(["member", "--monad", "dist", "--mode", mode,
                    "--S", w(s), "--nu1", w({"weights": nu1}),
                    "--nu2", w({"weights": nu2})]
                   + ["--json"] * (seed // 2 % 2))
    # saturated: 1 and 2 share a class with a, 3 with b and c
    sat = {"left": ["1", "2", "3"], "right": ["a", "b", "c"],
           "pairs": [["1", "a"], ["2", "a"], ["3", "b"], ["3", "c"]]}
    for nu1, nu2 in (({"1": "1/4", "2": "1/4", "3": "1/2"},
                      {"a": "1/2", "b": "1/3", "c": "1/6"}),
                     ({"1": "1/4", "3": "3/4"}, {"a": "1/2", "c": "1/2"})):
        for json_flag in ([], ["--json"]):
            out.append(["member", "--monad", "dist", "--saturated",
                        "--S", w(sat), "--nu1", w({"weights": nu1}),
                        "--nu2", w({"weights": nu2}), *json_flag])
    stair = {"left": ["1", "2"], "right": ["a", "b"],
             "pairs": [["1", "a"], ["2", "a"], ["2", "b"]]}
    half = {"weights": {"1": "1/2"}}
    out += [["member", "--monad", "dist", "--saturated", "--S", w(stair),
             "--nu1", w({"weights": {"1": "1"}}),
             "--nu2", w({"weights": {"a": "1"}})],
            ["member", "--monad", "dist", "--S", w(stair),
             "--nu1", w(half), "--nu2", w({"weights": {"a": "1"}})],
            ["member", "--monad", "dist", "--mode", "subprobability",
             "--S", w(stair), "--nu1", w(half),
             "--nu2", w({"weights": {"b": "1/2"}})],
            ["member", "--monad", "dist", "--S", w(stair),
             "--nu1", w(dict(half, mode="subprobability")),
             "--nu2", w({"weights": {"a": "1/2"}})],
            ["member", "--monad", "powerset", "--saturated", "--S", w(stair),
             "--b1", w(["1"]), "--b2", w(["a"])],
            ["member", "--monad", "nonempty-powerset", "--S", w(stair),
             "--b1", w([]), "--b2", w(["a"])],
            ["member", "--monad", "powerset", "--S", w(stair)],
            ["member", "--monad", "dist", "--S", w(stair)],
            ["member", "--monad", "upper", "--S", w(stair),
             "--b1", w(["1"]), "--b2", w(["a"])]]
    return out


def _systems(rng, mode):
    """Two systems over the labels l and m, LTSs when mode is None."""
    labels = _atoms(rng, "lm", 1, 2)
    s1, s2 = _atoms(rng, "stu"), _atoms(rng, "stu")
    if mode is None:
        return _lts(rng, s1, labels), _lts(rng, s2, labels)
    return _plts(rng, s1, labels, mode), _plts(rng, s2, labels, mode)


def _bisim(w):
    out = []
    for command, modes in (("bisim", [None]), ("prob-bisim", MODES)):
        for seed in range(10):
            rng = random.Random(400 + seed)
            f1, f2 = _systems(rng, modes[seed % len(modes)])
            if seed % 3 == 0:
                f2 = f1  # the diagonal is a bisimulation
            argv = [command, "--sys1", w(f1), "--sys2", w(f2)]
            if seed % 3:
                argv += ["--rel", w(_rel(rng, f1["states"], f2["states"],
                                         0.6))]
            out.append(argv + ["--json"] * (seed % 2))
    lts = _lts(random.Random(5), "st", "l")
    other = _lts(random.Random(6), "st", "lm")
    plts = _plts(random.Random(7), "st", "l", "probability")
    out += [["bisim", "--sys1", w(lts), "--sys2", w(other)],
            ["bisim", "--sys1", w(lts), "--sys2", w(lts),
             "--labels", w(_rel(random.Random(8), "x", "y", 1))],
            ["bisim", "--sys1", w(lts), "--sys2", w(_lts(random.Random(9),
                                                         "uv", "l"))],
            ["prob-bisim", "--sys1", w(plts), "--sys2", w(lts)],
            ["prob-bisim", "--sys1", w(plts), "--sys2", w(plts),
             "--labels", w({"left": ["l"], "right": ["l"],
                            "pairs": [["l", "l"]]}), "--json"]]
    return out


def _max_bisim(w):
    out = []
    for seed in range(12):
        rng = random.Random(500 + seed)
        f1, f2 = _systems(rng, (None, *MODES)[seed % 3])
        argv = ["max-bisim", "--sys1", w(f1), "--sys2", w(f2)]
        if seed % 4 == 1:
            labels = f1["labels"]
            argv += ["--labels", w(_rel(rng, labels, labels, 0.7))]
        out.append(argv + ["--json"] * (seed // 3 % 2))
    lts = _lts(random.Random(10), "st", "l")
    plts = _plts(random.Random(11), "st", "l", "subprobability")
    out += [["max-bisim", "--sys1", w(lts),
             "--sys2", w(_lts(random.Random(12), "st", "lm"))],
            ["max-bisim", "--sys1", w(lts), "--sys2", w(plts)],
            ["max-bisim", "--sys1", w(plts), "--sys2", w(lts)],
            ["max-bisim", "--sys1", w(lts), "--sys2", w(lts),
             "--labels", w(_rel(random.Random(13), "x", "y", 1))],
            ["max-bisim", "--sys1", w([]), "--sys2", w(lts)]]
    return out


def _larsen_skou(w):
    out = []
    for seed in range(8):
        rng = random.Random(600 + seed)
        f1, f2 = _systems(rng, MODES[seed % 2])
        classes = _classes(rng, f1["states"], f2["states"])
        out.append(["larsen-skou", "--sys1", w(f1), "--sys2", w(f2),
                    "--classes", w(classes)] + ["--json"] * (seed // 2 % 2))
    half = {"states": ["s", "t", "u"], "labels": ["l"],
            "step": {"s|l": {"t": "1/2", "u": "1/2"}, "t|l": {"t": "1"},
                     "u|l": {"u": "1"}}}
    one = {"states": ["p", "q"], "labels": ["l"],
           "step": {"p|l": {"q": "1"}, "q|l": {"q": "1"}}}
    good = [["L:s", "R:p"], ["L:t", "L:u", "R:q"]]
    for classes in (good, [["L:s", "R:p"], ["L:t", "R:q"], ["L:u"]],
                    [["L:s", "R:p"], ["L:t", "L:u"]],
                    [["L:s", "R:p", "L:s"], ["L:t", "L:u", "R:q"]],
                    [["L:s", "R:p"], [], ["L:t", "L:u", "R:q"]],
                    [["s", "R:p"], ["L:t", "L:u", "R:q"]]):
        out.append(["larsen-skou", "--sys1", w(half), "--sys2", w(one),
                    "--classes", w(classes)])
    out.append(["larsen-skou", "--sys1", w(_lts(random.Random(14), "s", "l")),
                "--sys2", w(one), "--classes", w(good)])
    return out


def _models(w, rng, monad, **extra):
    base1 = _atoms(rng, ["a0", "a1", "a2"], 1, 2)
    base2 = _atoms(rng, ["a0", "a1", "a2"], 1, 2)
    m1 = w(dict({"monad": monad, "base": {"b": base1}}, **extra))
    m2 = w(dict({"monad": monad, "base": {"b": base2}}, **extra))
    base = w({"b": _rel(rng, base1, base2, 0.6)})
    return ["--model1", m1, "--model2", m2, "--base", base]


def _logrel(w):
    out = []
    types = ["b", "Unit", "T b", "b * Unit", "b -> b", "b -> T b",
             "T b -> T b", "T (b * b)"]
    for seed, ty in enumerate(types):
        rng = random.Random(700 + seed)
        monad = ("powerset", "nonempty-powerset")[seed % 2]
        if seed == 7:
            monad = "upper"  # refused: models need a monad on sets
        out.append(["logrel", *_models(w, rng, monad), "--type", ty]
                   + ["--json"] * (seed % 2))
    model = w({"monad": "powerset", "base": {"b": ["a0", "a1"]}})
    other = w({"monad": "powerset", "base": {"b": ["a0"]}})
    for ty in ("T(b->b)->b", "c", "b ->", "b b", "T"):
        out.append(["logrel", "--model1", model, "--model2", model,
                    "--type", ty])
    out += [["logrel", "--model1", model, "--model2", other, "--type", "b"],
            ["logrel", "--model1", model, "--model2", model,
             "--type", "(b -> b) -> b", "--json"],
            ["logrel", "--model1", w({"monad": "dist", "mode": "bogus",
                                      "base": {"b": ["a0"]}}),
             "--model2", model, "--type", "b"],
            ["logrel", "--model1", w({"monad": "dist", "base": {"b": ["a0"]}}),
             "--model2", w({"monad": "dist", "base": {"b": ["a0"]}}),
             "--type", "T b"]]
    return out


def _basic_lemma(w):
    out = []
    terms = ["let val y = m in val (y, x)", "val x", "\\y:b. val y",
             "(\\y:T b. y) (val x)", "let val y = m in let val z = m in "
             "val (z, y)", "val ()", "fst (x, x)"]
    for seed, term in enumerate(terms):
        rng = random.Random(800 + seed)
        monad = ("powerset", "nonempty-powerset")[seed % 2]
        out.append(["basic-lemma", *_models(w, rng, monad), "--ctx",
                    "x:b, m:T b", "--term", w.text(term)]
                   + ["--json"] * (seed % 2))
    for seed in range(6):
        rng = random.Random(900 + seed)
        monad = ("powerset", "nonempty-powerset")[seed % 2]
        ctx = ("", "x:b", "x:b, m:T b", "f:b -> b, x:b")[seed % 4]
        out.append(["basic-lemma", *_models(w, rng, monad), "--ctx", ctx,
                    "--count", "4", "--max-size", "5", "--seed", str(seed)]
                   + ["--json"] * (seed // 2 % 2))
    model = w({"monad": "powerset", "base": {"b": ["a0", "a1"]}})
    models = ["--model1", model, "--model2", model]
    for term, ctx in (("let val x = m in x", "m:T b"), ("x x", "x:b"),
                      ("let val y = x in", "x:b"), ("val z", "x:b"),
                      ("val x", ":b"), ("val x", "x:b, x:T b"),
                      ("val x", "x:c"), ("val x", "x b")):
        out.append(["basic-lemma", *models, "--ctx", ctx,
                    "--term", w.text(term)])
    for flags in (["--count", "0"], ["--max-size", "0"],
                  ["--ctx", "f:T(b->b)->b", "--count", "1"]):
        out.append(["basic-lemma", *models, *flags])
    return out


def _poset_lift(w):
    out = []
    for seed in range(10):
        rng = random.Random(1000 + seed)
        left, right = _atoms(rng, "123"), _atoms(rng, "xyz")
        pairs = _rel(rng, left, right, 0.5)["pairs"][:6] or [[left[0],
                                                               right[0]]]
        orel = {"left": _poset(rng, left), "right": _poset(rng, right),
                "pairs": pairs}
        system = ("both", "epi-regmono", "extremalepi-mono")[seed % 3]
        out.append(["poset-lift", "--rel", w(orel), "--system", system]
                   + ["--json"] * (seed // 3 % 2))
    chain = {"carrier": ["1", "2"], "leq": [["1", "2"]]}
    flat = {"carrier": ["x", "y"], "leq": []}
    ordered = {"left": chain, "right": flat,
               "pairs": [["1", "x"], ["2", "y"], ["2", "x"]],
               "order": [[["1", "x"], ["2", "x"]]]}
    cycle = {"carrier": ["1", "2"], "leq": [["1", "2"], ["2", "1"]]}
    ten = {"carrier": list("0123456789")}
    refused = [dict(ordered, order=[[["1", "x"], ["2", "y"]]]),
               {"left": cycle, "right": flat, "pairs": []},
               {"left": ten, "right": {"carrier": ["x"]},
                "pairs": [["0", "x"]]},
               {"left": {"carrier": list("abcde")},
                "right": {"carrier": ["x", "y"]},
                "pairs": [[a, b] for a in "abcde" for b in "xy"]}]
    out += [["poset-lift", "--rel", w(ordered)],
            ["poset-lift", "--rel", w(ordered), "--json"]]
    out += [["poset-lift", "--rel", w(orel)] for orel in refused]
    return out


REQUESTS = (_check_laws, _lift, _member, _bisim, _max_bisim, _larsen_skou,
            _logrel, _basic_lemma, _poset_lift)


class _Writer:
    """Writes each input into a fresh numbered file under one directory
    and returns its path."""

    def __init__(self, root):
        self.root = Path(root)
        self.count = 0

    def _path(self, suffix):
        self.count += 1
        return self.root / f"in{self.count}{suffix}"

    def raw(self, data: bytes, suffix=".json"):
        path = self._path(suffix)
        path.write_bytes(data)
        return str(path)

    def text(self, src):
        return self.raw(src.encode(), ".ml")

    def __call__(self, obj):
        return self.raw(json.dumps(obj).encode())

    def missing(self):
        return str(self._path(".json"))

    def directory(self):
        path = self._path("")
        path.mkdir()
        return str(path)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_transcript(root):
    """Every request with its exit code and output, the directory root
    written as <tmp>."""
    w = _Writer(root)
    argvs = [argv for build in REQUESTS for argv in build(w)]
    entries = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        entries.append({
            "argv": [a.replace(str(root), "<tmp>") for a in argv],
            "exit": code,
            "stdout": out.getvalue().replace(str(root), "<tmp>"),
            "stderr": err.getvalue().replace(str(root), "<tmp>"),
        })
    return entries


def _recorded(entry):
    return {"argv": entry["argv"], "exit": entry["exit"],
            "stdout": _digest(entry["stdout"]),
            "stderr": _digest(entry["stderr"])}


def test_cli_answers_as_recorded(tmp_path):
    want = json.loads(TRANSCRIPT.read_text())
    got = run_transcript(tmp_path)
    assert [e["argv"] for e in got] == [e["argv"] for e in want]
    mismatches = [e for e, w in zip(got, want) if _recorded(e) != w]
    for e in mismatches:
        print(f"$ monarel {' '.join(e['argv'])}\nexit {e['exit']}\n"
              f"--- stdout\n{e['stdout']}--- stderr\n{e['stderr']}")
    assert not mismatches, f"{len(mismatches)} of {len(got)} requests differ"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = [_recorded(e) for e in run_transcript(os.path.realpath(tmp))]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} requests in {TRANSCRIPT}", file=sys.stderr)
