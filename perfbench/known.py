"""Reference data types for known answers, independent of monarel.

The oracles in tests/oracles.py read distributions through total(),
support(), mass() and carrier, and relations through ``pairs``; these
stand-ins provide exactly that from plain dicts and sets.
"""

from __future__ import annotations

import random
from fractions import Fraction


class Dist:
    def __init__(self, weights):
        self.weights = {x: Fraction(w) for x, w in weights.items() if w}
        self.carrier = None

    def total(self):
        return sum(self.weights.values(), Fraction(0))

    def support(self):
        return sorted(self.weights)

    def mass(self, xs):
        return sum((self.weights.get(x, Fraction(0)) for x in set(xs)), Fraction(0))


class Pairs:
    def __init__(self, pairs):
        self.pairs = frozenset(tuple(p) for p in pairs)


def random_weights(rng: random.Random, atoms, total=Fraction(1), max_den=6):
    """Positive rational weights over atoms summing to total."""
    den = rng.randint(1, max_den) * total.denominator
    units = total.numerator * (den // total.denominator)
    if units < len(atoms):
        den *= len(atoms)
        units *= len(atoms)
    cuts = sorted(rng.sample(range(1, units), len(atoms) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [units])]
    return {x: Fraction(n, den) for x, n in zip(atoms, parts)}


def saturation(left, right, pairs):
    """All (a, b) whose tagged atoms share a class of the equivalence
    generated by pairs on the disjoint union."""
    parent = {("L", a): ("L", a) for a in left}
    parent.update({("R", b): ("R", b) for b in right})

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(("L", a))] = find(("R", b))
    return sorted((a, b) for a in left for b in right
                  if find(("L", a)) == find(("R", b)))
