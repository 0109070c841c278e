"""Bisimulation through lifted relations.

Nondeterministic systems step into subsets and are compared through
Egli-Milner lifting; probabilistic systems step into rational
distributions and are compared through coupling feasibility.  Each
system carries the monad it steps in, and that monad decides the
lifted relation.  The class-mass formulation over the disjoint union of
the state spaces (Larsen-Skou) is implemented directly so the two views
can be played against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finset import FinSet, Rel, atom_key
from .lifting import CouplingResult
from .monads import RatDist, dist_monad, powerset_monad


class LTS:
    """Finitely branching labelled transition system.

    step maps (state, label) to a set of successor states; missing
    entries mean no successors.
    """

    def __init__(self, states, labels, step):
        self.monad = powerset_monad()
        self.states = states if isinstance(states, FinSet) else FinSet(states)
        self.labels = labels if isinstance(labels, FinSet) else FinSet(labels)
        table = {}
        for (s, l), succs in step.items():
            if s not in self.states:
                raise ValueError(f"unknown state {s!r}")
            if l not in self.labels:
                raise ValueError(f"unknown label {l!r}")
            succs = frozenset(succs)
            for s2 in succs:
                if s2 not in self.states:
                    raise ValueError(f"successor {s2!r} outside the carrier")
            table[(s, l)] = succs
        self._step = table

    def step(self, state, label) -> frozenset:
        return self._step.get((state, label), frozenset())

    def moves(self):
        return dict(self._step)


class PLTS:
    """Probabilistic labelled transition system.

    Every step is a RatDist over the states.  In probability mode each
    (state, label) must carry an explicit distribution; in
    subprobability mode missing entries default to the zero
    subdistribution.
    """

    def __init__(self, states, labels, step, mode="probability"):
        self.monad = dist_monad(mode)
        self.states = states if isinstance(states, FinSet) else FinSet(states)
        self.labels = labels if isinstance(labels, FinSet) else FinSet(labels)
        self.mode = mode
        table = {}
        for (s, l), nu in step.items():
            if s not in self.states:
                raise ValueError(f"unknown state {s!r}")
            if l not in self.labels:
                raise ValueError(f"unknown label {l!r}")
            if not isinstance(nu, RatDist):
                nu = RatDist(nu, mode)
            if nu.mode != mode:
                raise ValueError(
                    f"step ({s!r},{l!r}) has mode {nu.mode}, system is {mode}")
            for s2 in nu.weights:
                if s2 not in self.states:
                    raise ValueError(f"successor {s2!r} outside the carrier")
            table[(s, l)] = nu
        if mode == "probability":
            for s in self.states:
                for l in self.labels:
                    if (s, l) not in table:
                        raise ValueError(
                            f"missing step for ({s!r},{l!r}) in "
                            f"probability mode")
        self._step = table

    def step(self, state, label) -> RatDist:
        got = self._step.get((state, label))
        if got is None:
            return RatDist({}, self.mode)
        return got

    def moves(self):
        return dict(self._step)


@dataclass(frozen=True)
class BisimResult:
    ok: bool
    counterexample: dict | None = None

    def __bool__(self):
        return self.ok


def _same_monad(f1, f2):
    if f1.monad.name != f2.monad.name:
        raise ValueError(
            f"systems step in different monads: {f1.monad.name} vs {f2.monad.name}")


def _check(s: Rel, f1, f2, rl: Rel) -> BisimResult:
    """Related states take related-label steps into values related by
    the lifting of S through the systems' monad."""
    _same_monad(f1, f2)
    if s.left != f1.states or s.right != f2.states:
        raise ValueError("relation carriers do not match the state spaces")
    if rl.left != f1.labels or rl.right != f2.labels:
        raise ValueError("label relation does not match the label sets")
    for a1, a2 in sorted(s.pairs, key=atom_key):
        for l1, l2 in sorted(rl.pairs, key=atom_key):
            succ = (f1.step(a1, l1), f2.step(a2, l2))
            got = f1.monad.related(*succ, s)
            if not got:
                cex = {"pair": (a1, a2), "labels": (l1, l2), "succ": succ}
                if isinstance(got, CouplingResult):
                    cex["violated"] = got.violated
                return BisimResult(False, cex)
    return BisimResult(True)


def check_bisimulation(s: Rel, f1: LTS, f2: LTS, rl: Rel) -> BisimResult:
    """S is a strong bisimulation: related states take related-label
    steps into Egli-Milner-related successor sets."""
    return _check(s, f1, f2, rl)


def check_prob_bisimulation(s: Rel, f1: PLTS, f2: PLTS, rl: Rel) -> BisimResult:
    """S is a probabilistic bisimulation: related states take
    related-label steps into couplable distributions."""
    return _check(s, f1, f2, rl)


def largest_bisimulation(f1, f2, rl: Rel = None) -> Rel:
    """Greatest fixpoint of one-step refinement from the full relation.

    Each round removes, simultaneously, every pair whose step check
    fails against the current relation; the result is the largest
    relation passing its own check.  Both systems must step in the same
    monad, which decides the lifted relation.
    """
    _same_monad(f1, f2)
    if rl is None:
        if f1.labels != f2.labels:
            raise ValueError("label sets differ; pass an explicit relation")
        rl = Rel.diagonal(f1.labels)

    related = f1.monad.related
    label_pairs = sorted(rl.pairs, key=atom_key)
    current = {(a1, a2) for a1 in f1.states for a2 in f2.states}
    while True:
        rel = Rel(f1.states, f2.states, current)
        survivors = {
            (a1, a2) for a1, a2 in current
            if all(related(f1.step(a1, l1), f2.step(a2, l2), rel)
                   for l1, l2 in label_pairs)
        }
        if survivors == current:
            return rel
        current = survivors


def tagged_states(f1, f2) -> frozenset:
    return frozenset({("L", a) for a in f1.states}
                     | {("R", b) for b in f2.states})


def larsen_skou_check(f1: PLTS, f2: PLTS, classes) -> bool:
    """Class-mass bisimulation over the combined system.

    classes must partition the tagged disjoint union of the two state
    spaces (("L", a) and ("R", b) atoms).  States sharing a class must
    give every class the same one-step mass, for every label; steps
    never cross sides.
    """
    if f1.labels != f2.labels:
        raise ValueError("label sets differ")
    if f1.mode != f2.mode:
        raise ValueError(f"mode mismatch: {f1.mode} vs {f2.mode}")
    atoms = tagged_states(f1, f2)
    seen = set()
    for cls in classes:
        if not cls:
            raise ValueError("empty equivalence class")
        for x in cls:
            if x in seen:
                raise ValueError(f"classes overlap at {x!r}")
            seen.add(x)
    if seen != atoms:
        raise ValueError("classes do not partition the combined state space")

    split = [
        ({a for tag, a in cls if tag == "L"},
         {b for tag, b in cls if tag == "R"})
        for cls in classes
    ]
    for cls in classes:
        members = sorted(cls, key=atom_key)
        for label in f1.labels:
            signatures = []
            for tag, a in members:
                nu = (f1 if tag == "L" else f2).step(a, label)
                side = 0 if tag == "L" else 1
                signatures.append(tuple(nu.mass(c[side]) for c in split))
            if any(sig != signatures[0] for sig in signatures[1:]):
                return False
    return True
