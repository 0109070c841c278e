"""Finite sets, functions and relations.

Everything is exact and deterministic.  Elements ("atoms") are strings,
pairs of atoms, or finite sets of atoms; a canonical sort key gives them
a total order, so equal objects always have identical representations.
"""

from __future__ import annotations

import itertools


def atom_key(a):
    """Canonical sort key inducing a total order on atoms."""
    if isinstance(a, str):
        return ("s", a)
    if isinstance(a, tuple):
        if len(a) != 2:
            raise TypeError(f"pair atom must have two components: {a!r}")
        return ("p", atom_key(a[0]), atom_key(a[1]))
    if isinstance(a, frozenset):
        return ("t", tuple(sorted(atom_key(x) for x in a)))
    raise TypeError(f"not an atom: {a!r}")


def atom_str(a) -> str:
    """Display form: pairs as "(a,b)", finite sets as sorted "{a,b}"."""
    if isinstance(a, str):
        return a
    if isinstance(a, tuple):
        return f"({atom_str(a[0])},{atom_str(a[1])})"
    if isinstance(a, frozenset):
        return "{" + ",".join(atom_str(x) for x in sorted(a, key=atom_key)) + "}"
    raise TypeError(f"not an atom: {a!r}")


class FinSet:
    """An ordered finite set of distinct atoms."""

    __slots__ = ("elements", "_index")

    def __init__(self, elements):
        elems = tuple(sorted(elements, key=atom_key))
        for x, y in zip(elems, elems[1:]):
            if atom_key(x) == atom_key(y):
                raise ValueError(f"duplicate atom {atom_str(x)!r}")
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


class FinFun:
    """A total function between finite sets, given by its graph."""

    __slots__ = ("dom", "cod", "graph")

    def __init__(self, dom: FinSet, cod: FinSet, graph):
        if callable(graph):
            graph = {x: graph(x) for x in dom}
        graph = dict(graph)
        if set(graph) != set(dom.elements):
            raise ValueError("graph does not cover the domain exactly")
        for x, y in graph.items():
            if y not in cod:
                raise ValueError(f"image {atom_str(y)!r} of {atom_str(x)!r} not in codomain")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "graph", {x: graph[x] for x in dom.elements})

    def __setattr__(self, name, value):
        raise AttributeError("FinFun is immutable")

    def __call__(self, x):
        return self.graph[x]

    def __eq__(self, other):
        return (
            isinstance(other, FinFun)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.graph == other.graph
        )

    def __hash__(self):
        return hash((self.dom, self.cod, tuple(self.graph.items())))

    def __repr__(self):
        body = ", ".join(f"{atom_str(x)}->{atom_str(y)}" for x, y in self.graph.items())
        return f"FinFun({{{body}}})"

    def image(self) -> FinSet:
        return FinSet(set(self.graph.values()))

    def is_injective(self) -> bool:
        return len(set(self.graph.values())) == len(self.graph)

    def is_surjective(self) -> bool:
        return set(self.graph.values()) == set(self.cod.elements)


def identity(a: FinSet) -> FinFun:
    return FinFun(a, a, {x: x for x in a})


def compose(g: FinFun, f: FinFun) -> FinFun:
    """g after f.  Composition is only defined when f.cod == g.dom."""
    if f.cod != g.dom:
        raise ValueError("composition mismatch: f.cod != g.dom")
    return FinFun(f.dom, g.cod, {x: g(f(x)) for x in f.dom})


def product(a: FinSet, b: FinSet):
    """Cartesian product with its two projections: (a x b, fst, snd)."""
    p = FinSet([(x, y) for x in a for y in b])
    fst = FinFun(p, a, {xy: xy[0] for xy in p})
    snd = FinFun(p, b, {xy: xy[1] for xy in p})
    return p, fst, snd


def product_set(a: FinSet, b: FinSet) -> FinSet:
    return FinSet([(x, y) for x in a for y in b])


def pair(f: FinFun, g: FinFun) -> FinFun:
    """Universal pairing <f, g> into the product of the codomains."""
    if f.dom != g.dom:
        raise ValueError("pairing needs a common domain")
    cod = product_set(f.cod, g.cod)
    return FinFun(f.dom, cod, {x: (f(x), g(x)) for x in f.dom})


def times(f: FinFun, g: FinFun) -> FinFun:
    """f x g acting componentwise on the product."""
    dom = product_set(f.dom, g.dom)
    cod = product_set(f.cod, g.cod)
    return FinFun(dom, cod, {(x, y): (f(x), g(y)) for (x, y) in dom})


class Rel:
    """A binary relation between two finite carriers."""

    __slots__ = ("left", "right", "pairs")

    def __init__(self, left: FinSet, right: FinSet, pairs):
        pairs = frozenset(tuple(p) for p in pairs)
        for x, y in pairs:
            if x not in left or y not in right:
                raise ValueError(f"pair ({atom_str(x)},{atom_str(y)}) outside the carriers")
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
        return iter(sorted(self.pairs, key=atom_key))

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

    def proj_left(self) -> FinFun:
        s = self.as_finset()
        return FinFun(s, self.left, {p: p[0] for p in s})

    def proj_right(self) -> FinFun:
        s = self.as_finset()
        return FinFun(s, self.right, {p: p[1] for p in s})

    def converse(self) -> "Rel":
        return Rel(self.right, self.left, {(y, x) for x, y in self.pairs})

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

    @staticmethod
    def full(a: FinSet, b: FinSet) -> "Rel":
        return Rel(a, b, {(x, y) for x in a for y in b})


# The unit object of the cartesian product is a fixed one-element set.

UNIT_ATOM = "*"
UNIT = FinSet([UNIT_ATOM])


def subsets(xs):
    """All subsets of xs as frozensets, in canonical order."""
    xs = sorted(xs, key=atom_key)
    for r in range(len(xs) + 1):
        for combo in itertools.combinations(xs, r):
            yield frozenset(combo)
