"""Bisimulation through lifted relations.

Nondeterministic systems step into subsets and are compared through
Egli-Milner lifting; probabilistic systems step into rational
distributions and are compared through coupling feasibility.  Both
are TransitionSystems, which carry the monad they step in, and that
monad decides the lifted relation.  The class-mass formulation over
the disjoint union of the state spaces (Larsen-Skou) is implemented
directly so the two views can be played against each other.
"""

from __future__ import annotations

from itertools import product

from .finset import FinSet, Rel, refuse_first
from .lawcheck import LawReport
from .lifting import CouplingResult, class_sides
from .monads import RatDist, dist_monad, powerset_monad


class TransitionSystem:
    """Finite labelled transition system stepping in a monad: step maps
    (state, label) to a value of the monad over the states.  A missing
    entry steps to absent, or is an error when absent is None."""

    def __init__(self, monad, states, labels, step, absent):
        self.monad = monad
        self.mode = monad.mode
        self.states = states if isinstance(states, FinSet) else FinSet(states)
        self.labels = labels if isinstance(labels, FinSet) else FinSet(labels)
        for (s, l), value in step.items():
            if s not in self.states:
                raise ValueError(f"unknown state {s!r}")
            if l not in self.labels:
                raise ValueError(f"unknown label {l!r}")
            # a distribution's successors are its support
            succs = value.nums if isinstance(value, RatDist) else value
            refuse_first([s2 for s2 in succs if s2 not in self.states],
                         lambda s2: f"successor {s2!r} outside the carrier")
        if absent is None:
            for s, l in product(self.states, self.labels):
                if (s, l) not in step:
                    raise ValueError(f"missing step for ({s!r},{l!r}) in "
                                     f"probability mode")
        self._step = dict(step)
        self._absent = absent

    def step(self, state, label):
        return self._step.get((state, label), self._absent)


def LTS(states, labels, step) -> TransitionSystem:
    """A nondeterministic system: each step is a set of successors, and
    missing entries mean no successors."""
    return TransitionSystem(
        powerset_monad(), states, labels,
        {key: frozenset(succs) for key, succs in step.items()}, frozenset())


def PLTS(states, labels, step, mode="probability") -> TransitionSystem:
    """A probabilistic system: each step is a RatDist over the states.
    In probability mode every (state, label) needs one; in subprobability
    mode missing entries step to the zero subdistribution."""
    monad = dist_monad(mode)
    table = {}
    for (s, l), nu in step.items():
        if not isinstance(nu, RatDist):
            nu = RatDist(nu, mode)
        if nu.mode != mode:
            raise ValueError(
                f"step ({s!r},{l!r}) has mode {nu.mode}, system is {mode}")
        table[(s, l)] = nu
    return TransitionSystem(monad, states, labels, table,
                            None if mode == "probability" else RatDist({}, mode))


def _same_monad(f1, f2):
    if f1.monad.name != f2.monad.name:
        raise ValueError(
            f"systems step in different monads: {f1.monad.name} vs {f2.monad.name}")


def _label_carriers(rl, f1, f2):
    if rl.left != f1.labels or rl.right != f2.labels:
        raise ValueError("label relation does not match the label sets")


def _failing_step(f1, f2, label_pairs, s, a1, a2):
    """The first related label pair on which a1 and a2 step into values
    that the lifting of s does not relate, as (labels, successors, the
    decider's answer); None when there is none."""
    for l1, l2 in label_pairs:
        succ = (f1.step(a1, l1), f2.step(a2, l2))
        got = f1.monad.related(*succ, s)
        if not got:
            return (l1, l2), succ, got
    return None


def check_bisimulation(s: Rel, f1: TransitionSystem, f2: TransitionSystem,
                       rl: Rel) -> LawReport:
    """S is a bisimulation: related states take related-label steps into
    values related by the lifting of S through the systems' monad
    (Egli-Milner-related successor sets, couplable distributions).  The
    report counts the pairs of S whose steps were checked."""
    _same_monad(f1, f2)
    if s.left != f1.states or s.right != f2.states:
        raise ValueError("relation carriers do not match the state spaces")
    _label_carriers(rl, f1, f2)
    label_pairs = list(rl)
    for n, (a1, a2) in enumerate(s, 1):
        failed = _failing_step(f1, f2, label_pairs, s, a1, a2)
        if failed is not None:
            labels, succ, got = failed
            cex = {"pair": (a1, a2), "labels": labels, "succ": succ}
            if isinstance(got, CouplingResult):
                cex["violated"] = got.violated
            return LawReport("bisimulation", False, n, cex)
    return LawReport("bisimulation", True, len(s))


# a probabilistic bisimulation is the same check on systems that step in
# distributions
check_prob_bisimulation = check_bisimulation


def largest_bisimulation(f1, f2, rl: Rel) -> Rel:
    """Greatest fixpoint of one-step refinement from the full relation.

    Each round removes, simultaneously, every pair whose step check
    fails against the current relation; the result is the largest
    relation passing its own check.  Both systems must step in the same
    monad, which decides the lifted relation; rl relates their labels.
    """
    _same_monad(f1, f2)
    _label_carriers(rl, f1, f2)

    label_pairs = list(rl)
    current = {(a1, a2) for a1 in f1.states for a2 in f2.states}
    while True:
        rel = Rel(f1.states, f2.states, current)
        survivors = {
            (a1, a2) for a1, a2 in current
            if _failing_step(f1, f2, label_pairs, rel, a1, a2) is None
        }
        if survivors == current:
            return rel
        current = survivors


def tagged_states(f1, f2) -> frozenset:
    return frozenset({("L", a) for a in f1.states}
                     | {("R", b) for b in f2.states})


def larsen_skou_check(f1: TransitionSystem, f2: TransitionSystem,
                      classes) -> bool:
    """Class-mass bisimulation over the combined system.

    classes must partition the tagged disjoint union of the two state
    spaces (("L", a) and ("R", b) atoms).  States sharing a class must
    give every class the same one-step mass, for every label; steps
    never cross sides.
    """
    if f1.mode is None or f2.mode is None:
        raise ValueError(
            "class masses need systems that step in distributions")
    if f1.labels != f2.labels:
        raise ValueError("label sets differ")
    if f1.mode != f2.mode:
        raise ValueError(f"mode mismatch: {f1.mode} vs {f2.mode}")
    atoms = tagged_states(f1, f2)
    seen, twice = set(), set()
    for cls in classes:
        if not cls:
            raise ValueError("empty equivalence class")
        twice |= seen.intersection(cls)
        seen.update(cls)
    refuse_first(twice, lambda x: f"classes overlap at {x!r}")
    if seen != atoms:
        raise ValueError("classes do not partition the combined state space")

    split = [class_sides(cls) for cls in classes]
    for left, right in split:
        for label in f1.labels:
            signatures = {tuple(f1.step(a, label).mass(c[0]) for c in split)
                          for a in left}
            signatures |= {tuple(f2.step(b, label).mass(c[1]) for c in split)
                           for b in right}
            if len(signatures) > 1:
                return False
    return True
