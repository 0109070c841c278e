"""bisim: largest bisimulations of seeded LTS and subprobability PLTS pairs,
and the coupling check against Larsen-Skou on saturated relations.

BATCH lists (kind, states, count); half of each count are permuted copies
(the planted permutation must be in the answer), half are independent
pairs.  Systems have labels x and y and at most three successors, or three
support points, per state and label.  The counts put the batch median in
the middle of the 16-state LTS items and the tail percentile in the middle
of the 24-state ones, so neither sits on a boundary between item classes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from perfbench.known import Dist, Pairs, random_weights

import oracles

LABELS = ("x", "y")
BATCH = (("sat", 4, 4), ("sat", 8, 4), ("lts", 10, 4), ("plts", 8, 4), ("lts", 16, 8),
         ("plts", 14, 2), ("lts", 24, 6), ("plts", 20, 4), ("lts", 30, 2), ("lts", 36, 2))
MODE = "subprobability"


def _lts_step(rng, states):
    step = {}
    for s in states:
        for label in LABELS:
            k = rng.randint(0, 3)
            if k:
                step[(s, label)] = sorted(rng.sample(states, k))
    return step


def _plts_step(rng, states):
    step = {}
    for s in states:
        for label in LABELS:
            k = rng.randint(0, 3)
            if k:
                den = rng.randint(1, 6)
                total = Fraction(rng.randint(1, den), den)
                step[(s, label)] = random_weights(rng, rng.sample(states, k), total)
    return step


def _renamed(rng, states, step, prefix):
    names = [f"{prefix}{i}" for i in range(len(states))]
    rng.shuffle(names)
    ren = dict(zip(states, names))
    new = {(ren[s], l): ({ren[x]: w for x, w in succ.items()} if isinstance(succ, dict)
                         else sorted(ren[x] for x in succ))
           for (s, l), succ in step.items()}
    return sorted(names), new, sorted(ren.items())


def _pair(rng, n, make_step, planted):
    s1 = [f"p{i}" for i in range(n)]
    step1 = make_step(rng, s1)
    if planted:
        s2, step2, plant = _renamed(rng, s1, step1, "q")
    else:
        s2 = [f"q{i}" for i in range(n)]
        step2, plant = make_step(rng, s2), []
    return s1, step1, s2, step2, plant


class Bisim:
    name = "bisim"

    def generate(self, lib, seed, k):
        rng = random.Random(f"bisim:{seed}:{k}")
        raw = []
        for kind, n, count in BATCH:
            make_step = _lts_step if kind == "lts" else _plts_step
            for planted in [True, False] * (count // 2):
                s1, step1, s2, step2, plant = _pair(rng, n, make_step, planted)
                rel = plant if kind == "sat" and planted else []
                if kind == "sat" and not planted:
                    rel = sorted((a, b) for a in s1 for b in s2 if rng.random() < 0.3)
                raw.append((kind, s1, step1, s2, step2, plant, rel))
        rng.shuffle(raw)
        return raw

    def build(self, lib, raw):
        fs, bs, RatDist = lib.finset, lib.bisim, lib.monads.RatDist
        labels = fs.FinSet(LABELS)
        rl = fs.Rel.diagonal(labels)
        items = []
        for kind, s1, step1, s2, step2, plant, rel in raw:
            if kind == "lts":
                f1, f2 = bs.LTS(s1, labels, step1), bs.LTS(s2, labels, step2)
            else:
                f1 = bs.PLTS(s1, labels, {k: RatDist(w, MODE) for k, w in step1.items()}, MODE)
                f2 = bs.PLTS(s2, labels, {k: RatDist(w, MODE) for k, w in step2.items()}, MODE)
            base = fs.Rel(f1.states, f2.states, rel) if kind == "sat" else None
            items.append((kind, f1, f2, rl, base, (step1, step2, plant)))
        return items

    def run(self, lib, item):
        kind, f1, f2, rl, base, _ = item
        if kind != "sat":
            return lib.bisim.largest_bisimulation(f1, f2, rl)
        classes, s = lib.lifting.saturate(base)
        lhs = lib.bisim.check_prob_bisimulation(s, f1, f2, rl).ok
        rhs = lib.bisim.larsen_skou_check(f1, f2, classes)
        couplings = []
        if lhs and rhs:
            for a, b in sorted(s.pairs):
                for label in LABELS:
                    nu1, nu2 = f1.step(a, label), f2.step(b, label)
                    couplings.append((a, b, label, lib.lifting.converse_coupling(nu1, nu2, s)))
        return lhs, rhs, s, couplings

    def score(self, lib, item, result):
        kind, _, _, _, _, (step1, step2, plant) = item
        if kind == "sat":
            lhs, rhs, s, couplings = result
            ok = lhs == rhs and (lhs or not plant)
            for a, b, label, gamma in couplings:
                nu1 = Dist(step1.get((a, label), {}))
                nu2 = Dist(step2.get((b, label), {}))
                ok = ok and oracles.coupling_valid(gamma, nu1, nu2, s)
            return ok, 1, (lhs, rhs)
        rel = Pairs(result.pairs)
        ok = rel.pairs.issuperset(plant)
        for a, b in rel.pairs:
            for label in LABELS:
                if kind == "lts":
                    ok = ok and oracles.egli_milner(step1.get((a, label), ()),
                                                    step2.get((b, label), ()), rel)
                else:
                    ok = ok and oracles.strassen_ok(Dist(step1.get((a, label), {})),
                                                    Dist(step2.get((b, label), {})), rel)
        return ok, 1, rel.pairs
