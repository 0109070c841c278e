"""Finite sets and relations, and the canonical order of values.

Everything is exact and deterministic.  Elements ("atoms") are strings,
pairs of atoms, or finite sets of atoms; a canonical sort key gives them
a total order, so equal objects always have identical representations.
The same key orders every value the monads build from atoms, nested
distributions included, and FinSets and relations iterate in its order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter


def atom_key(a, memo=None):
    """Canonical sort key inducing a total order on atoms and values.

    A distribution (dist.RatDist, which imports this module) is known by
    its numerators: it sorts by its mode and its weighted support.  A
    memo dict, when given, holds the keys of the non-string values keyed
    with it already, so a value nested many times is keyed once.
    """
    if isinstance(a, str):
        return ("s", a)
    if memo is not None:
        try:
            key = memo.get(a)
        except TypeError:  # unhashable, so no atom: fail as without a memo
            return atom_key(a)
        if key is not None:
            return key
    if isinstance(a, tuple):
        if len(a) != 2:
            raise TypeError(f"pair atom must have two components: {a!r}")
        key = ("p", atom_key(a[0], memo), atom_key(a[1], memo))
    elif isinstance(a, frozenset):
        key = ("t", tuple(sorted(atom_key(x, memo) for x in a)))
    elif hasattr(a, "nums"):
        key = ("d", a.mode, tuple(sorted(
            (atom_key(x, memo), Fraction(n, a.den)) for x, n in a.nums.items())))
    else:
        raise TypeError(f"not an atom: {a!r}")
    if memo is not None:
        memo[a] = key
    return key


def refuse_first(offenders, message):
    """Raise ValueError(message(x)) for the first x of offenders in
    atom_key order, if there is one: a refusal names the same offender
    whatever order the hash seed gives the set it found them in."""
    if offenders:
        raise ValueError(message(min(offenders, key=atom_key)))


def atom_str(a) -> str:
    """Display form: pairs as "(a,b)", finite sets as sorted "{a,b}",
    distributions as "{a:1/2,b:1/2}"."""
    if isinstance(a, str):
        return a
    if isinstance(a, tuple):
        return f"({atom_str(a[0])},{atom_str(a[1])})"
    if isinstance(a, frozenset):
        return "{" + ",".join(atom_str(x) for x in sorted(a, key=atom_key)) + "}"
    if hasattr(a, "nums"):
        return "{" + ",".join(f"{atom_str(x)}:{w}" for x, w in a.items()) + "}"
    raise TypeError(f"not an atom: {a!r}")


class FinSet:
    """An ordered finite set of distinct atoms."""

    __slots__ = ("elements", "_index")

    def __init__(self, elements):
        # one memo per construction: the values nested in the elements
        # are keyed once, and their keys are dropped with the memo
        memo = {}
        keyed = sorted(((atom_key(a, memo), a) for a in elements),
                       key=itemgetter(0))
        for (kx, x), (ky, _) in zip(keyed, keyed[1:]):
            if kx == ky:
                raise ValueError(f"duplicate atom {atom_str(x)!r}")
        self._fill(tuple(a for _, a in keyed))

    @classmethod
    def _in_order(cls, elems):
        """The FinSet of elems, which the caller guarantees are distinct
        and already in atom_key order: they are not keyed, sorted or
        checked."""
        s = object.__new__(cls)
        s._fill(tuple(elems))
        return s

    def _fill(self, elems):
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", frozenset(elems))

    def __setattr__(self, name, value):
        raise AttributeError("FinSet is immutable")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, a):
        return a in self._index

    def __eq__(self, other):
        return isinstance(other, FinSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return "FinSet({" + ", ".join(atom_str(a) for a in self.elements) + "})"


def product_set(a: FinSet, b: FinSet) -> FinSet:
    # a pair's key compares its left atom's key first, and both carriers
    # are in atom_key order, so the pairs come out in that order
    return FinSet._in_order([(x, y) for x in a for y in b])


def sorted_pairs(pairs, left: FinSet, right: FinSet):
    """pairs in atom_key order, read off the carriers, which are already
    in that order: a pair's key compares its left atom's key first."""
    li = {x: i for i, x in enumerate(left)}
    ri = {y: i for i, y in enumerate(right)}
    return sorted(pairs, key=lambda p: (li[p[0]], ri[p[1]]))


class Rel:
    """A binary relation between two finite carriers."""

    __slots__ = ("left", "right", "pairs")

    def __init__(self, left, right, pairs):
        # any other iterable of atoms becomes its canonical FinSet, so
        # equal carriers compare and hash equal whatever order they came in
        if not isinstance(left, FinSet):
            left = FinSet(left)
        if not isinstance(right, FinSet):
            right = FinSet(right)
        pairs = frozenset(tuple(p) for p in pairs)
        refuse_first([(x, y) for x, y in pairs if x not in left or y not in right],
                     lambda p: f"pair ({atom_str(p[0])},{atom_str(p[1])}) "
                               "outside the carriers")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Rel is immutable")

    def __contains__(self, xy):
        return tuple(xy) in self.pairs

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted_pairs(self.pairs, self.left, self.right))

    def __eq__(self, other):
        return (
            isinstance(other, Rel)
            and self.left == other.left
            and self.right == other.right
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.left, self.right, self.pairs))

    def __repr__(self):
        body = ", ".join(f"({atom_str(x)},{atom_str(y)})" for x, y in self)
        return f"Rel({{{body}}})"

    def right_image(self, x) -> set:
        return {b for a, b in self.pairs if a == x}

    def left_image(self, y) -> set:
        return {a for a, b in self.pairs if b == y}

    def as_finset(self) -> FinSet:
        """The relation as a set of pair atoms."""
        return FinSet(self.pairs)

    def product(self, other: "Rel") -> "Rel":
        """Componentwise product relation over the product carriers."""
        return Rel(
            product_set(self.left, other.left),
            product_set(self.right, other.right),
            {((a, c), (b, d)) for a, b in self.pairs for c, d in other.pairs},
        )

    @staticmethod
    def diagonal(a: FinSet) -> "Rel":
        return Rel(a, a, {(x, x) for x in a})


# The unit object of the cartesian product is a fixed one-element set.

UNIT_ATOM = "*"
UNIT = FinSet([UNIT_ATOM])


def subsets(xs):
    """All subsets of xs as frozensets: by size, then lexicographically in
    atom_key order ({}, {a}, {b}, {c}, {a,b}, ...), not in FinSet's order."""
    xs = sorted(xs, key=atom_key)
    for r in range(len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            yield frozenset(combo)
