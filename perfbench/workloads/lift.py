"""lift: many small independent requests through ``cli.main(argv)`` in one
process, on JSON files written when the batch is generated.

Each batch has a fixed mix: ``lift`` for both powerset monads at every
relation size in LIFT_SIZES (sparse and dense on a 4x4 carrier), powerset
``member`` queries (half members by construction, half planted
non-members), dist ``member`` queries (coupled members, random pairs, and
saturated relations with --saturated), and ``poset-lift --system both``.
Known answers come from tests/oracles.py.  The counts put the batch median
in the middle of the member queries and the tail percentile in the middle
of the poset lifts, which all have the same shape (4 + 4 points, 4 pairs)
because their cost varies widely with it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

from perfbench.known import Dist, Pairs, random_weights, saturation

import oracles

LEFT = ("1", "2", "3", "4")
RIGHT = ("a", "b", "c", "d")
UNIVERSE = [(x, y) for x in LEFT for y in RIGHT]
LIFT_SIZES = (3, 5, 9, 11)
MEMBER_POWERSET = 9  # members, and as many planted non-members
MEMBER_DIST = 6  # each of: coupled members, random pairs, saturated (half coupled)
POSET_LIFTS = 12
POSET_ATOMS = (("w", "x", "y", "z"), ("p", "q", "r", "s"))
POSET_PAIRS = 4


def _rel_json(pairs, left=LEFT, right=RIGHT):
    return {"left": list(left), "right": list(right), "pairs": [list(p) for p in pairs]}


def _dist_json(weights):
    return {"mode": "probability", "weights": {x: str(w) for x, w in weights.items()}}


def _coupled(rng, pairs):
    """Marginals of a random coupling supported on pairs."""
    gamma = random_weights(rng, pairs, max_den=12)
    w1, w2 = {}, {}
    for (x, y), w in gamma.items():
        w1[x] = w1.get(x, Fraction(0)) + w
        w2[y] = w2.get(y, Fraction(0)) + w
    return w1, w2


def _poset_json(rng, atoms):
    order = list(atoms)
    rng.shuffle(order)
    leq = [[a, b] for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < 0.4]
    return {"carrier": list(atoms), "leq": leq}


def _set_value(v):
    return frozenset(v["set"])


class Lift:
    name = "lift"

    def __init__(self, workdir):
        self.workdir = workdir

    def generate(self, lib, seed, k):
        rng = random.Random(f"lift:{seed}:{k}")
        folder = self.workdir / f"batch{k}"
        folder.mkdir(parents=True, exist_ok=True)
        count = itertools.count()

        def put(obj):
            path = folder / f"f{next(count)}.json"
            path.write_text(json.dumps(obj))
            return str(path)

        raw = []
        for monad in ("powerset", "nonempty-powerset"):
            for size in LIFT_SIZES:
                pairs = sorted(rng.sample(UNIVERSE, size))
                expect = oracles.powerset_lift_pairs(Pairs(pairs))
                if monad == "nonempty-powerset":
                    expect.discard((frozenset(), frozenset()))
                argv = ["lift", "--monad", monad, "--S", put(_rel_json(pairs)), "--json"]
                raw.append(("lift", argv, expect))
        for member in [True] * MEMBER_POWERSET + [False] * MEMBER_POWERSET:
            pairs = sorted(rng.sample(UNIVERSE, rng.randint(3, 9)))
            s = Pairs(pairs)
            while True:
                if member:
                    sub = rng.sample(pairs, rng.randint(1, len(pairs)))
                    b1, b2 = sorted({x for x, _ in sub}), sorted({y for _, y in sub})
                else:
                    b1 = sorted(rng.sample(LEFT, rng.randint(1, 4)))
                    b2 = sorted(rng.sample(RIGHT, rng.randint(1, 4)))
                if oracles.egli_milner(b1, b2, s) == member:
                    break
            argv = ["member", "--monad", "powerset", "--S", put(_rel_json(pairs)),
                    "--b1", put(b1), "--b2", put(b2), "--json"]
            raw.append(("member", argv, member))
        for how in ["coupled", "random", "saturated"] * MEMBER_DIST:
            pairs = sorted(rng.sample(UNIVERSE, rng.randint(3, 9)))
            if how == "saturated":
                pairs = saturation(LEFT, RIGHT, pairs)
            if how == "random" or (how == "saturated" and rng.random() < 0.5):
                w1 = random_weights(rng, rng.sample(LEFT, rng.randint(1, 4)), max_den=12)
                w2 = random_weights(rng, rng.sample(RIGHT, rng.randint(1, 4)), max_den=12)
            else:
                w1, w2 = _coupled(rng, pairs)
            member = oracles.strassen_ok(Dist(w1), Dist(w2), Pairs(pairs))
            argv = ["member", "--monad", "dist", "--S", put(_rel_json(pairs)),
                    "--nu1", put(_dist_json(w1)), "--nu2", put(_dist_json(w2)), "--json"]
            if how == "saturated":
                argv.append("--saturated")
            raw.append(("member", argv, member))
        for _ in range(POSET_LIFTS):
            left, right = (_poset_json(rng, atoms) for atoms in POSET_ATOMS)
            universe = [(x, y) for x in left["carrier"] for y in right["carrier"]]
            pairs = sorted(rng.sample(universe, POSET_PAIRS))
            rel = {"left": left, "right": right, "pairs": [list(p) for p in pairs]}
            raw.append(("poset-lift", ["poset-lift", "--rel", put(rel), "--system", "both",
                                       "--json"], None))
        rng.shuffle(raw)
        return raw

    def build(self, lib, raw):
        return raw

    def run(self, lib, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(item[1])
        return code, out.getvalue()

    def score(self, lib, item, result):
        kind, _, expect = item
        code, text = result
        if code not in (0, 1):
            return False, 1, (code, None)
        payload = json.loads(text)
        if kind == "lift":
            got = {(_set_value(a), _set_value(b)) for a, b in payload["lifted"]["pairs"]}
            ok = code == 0 and got == expect
            verdict = len(got)
        elif kind == "member":
            ok = code == (0 if expect else 1) and payload["member"] is expect
            verdict = payload["member"]
        else:
            ok = code == 0 and payload["same_pairs"] is True and payload["same_order"] is True
            verdict = len(payload["epi-regmono"]["pairs"])
        return ok, 1, (code, verdict)
