"""Finite posets, the upper-set monad, and its lifting in two systems.

The monad sends a poset to its nonempty antichains under the Smyth
ordering (E below F when every generator of F sits above some generator
of E); an antichain stands for the upper set it generates.  A relation
lifts as it does over sets (lifting.py): the pairs are the image of
T S under (T pi1, T pi2), which `lawcheck.product_delta` computes.  The
two mono factorization systems differ only in the order they put on
that image: the product order restricted to it (surjection followed by
embedding), or the order generated by pushing the order of T S forward
(quotient followed by an injective monotone map).  Either way the
lifted pairs are the same; only the orderings may differ.
"""

from __future__ import annotations

import itertools

from .finset import FinSet, refuse_first, sorted_pairs, subsets
from .lawcheck import product_delta
from .monads import MonadInstance


class FinPoset:
    """A finite poset.

    leq lists generating pairs; reflexive pairs may be omitted.  The
    reflexive-transitive closure is taken on construction and
    antisymmetry is checked afterwards.  It is kept twice: as the set of
    pairs, and as one bitmask row per atom (above[index[x]] has bit
    index[y] set when x <= y).
    """

    def __init__(self, carrier, leq=()):
        self.carrier = carrier if isinstance(carrier, FinSet) else FinSet(carrier)
        atoms = list(self.carrier)
        self.index = index = {x: i for i, x in enumerate(atoms)}
        n = len(atoms)
        self.above = above = [1 << i for i in range(n)]
        for x, y in leq:
            if x not in self.carrier or y not in self.carrier:
                raise ValueError(f"order pair ({x!r},{y!r}) outside the carrier")
            above[index[x]] |= 1 << index[y]
        for k in range(n):
            reach_k = above[k]
            bit = 1 << k
            for i in range(n):
                if above[i] & bit:
                    above[i] |= reach_k
        for i in range(n):
            for j in range(i + 1, n):
                if above[i] >> j & 1 and above[j] >> i & 1:
                    raise ValueError(
                        f"antisymmetry fails on {atoms[i]!r}, {atoms[j]!r}")
        self.pairs = frozenset(
            (atoms[i], atoms[j])
            for i in range(n) for j in range(n) if above[i] >> j & 1)

    def le(self, x, y) -> bool:
        return (x, y) in self.pairs

    def minimize(self, xs) -> frozenset:
        """Minimal elements: the canonical antichain generating the
        same upper set."""
        xs = set(xs)
        return frozenset(
            x for x in xs
            if not any(y != x and self.le(y, x) for y in xs))

    def is_antichain(self, xs) -> bool:
        xs = list(xs)
        return all(not self.le(x, y)
                   for x in xs for y in xs if x != y)

    def __len__(self):
        return len(self.carrier)

    def __iter__(self):
        return iter(self.carrier)

    def __contains__(self, x):
        return x in self.carrier

    def __eq__(self, other):
        return (isinstance(other, FinPoset)
                and self.carrier == other.carrier
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.carrier, self.pairs))

    def __repr__(self):
        strict = [p for p in sorted_pairs(self.pairs, self.carrier, self.carrier)
                  if p[0] != p[1]]
        return f"FinPoset({list(self.carrier)!r}, {strict!r})"


def chain(atoms) -> FinPoset:
    atoms = list(atoms)
    return FinPoset(atoms, [(atoms[i], atoms[i + 1])
                            for i in range(len(atoms) - 1)])


def discrete(atoms) -> FinPoset:
    return FinPoset(list(atoms))


def ord_product(p: FinPoset, q: FinPoset) -> FinPoset:
    """p x q: the relation of all pairs, under its default product order."""
    return OrderedRel(p, q, [(x, y) for x in p for y in q]).as_poset()


# ---------------------------------------------------------- upper monad

def _antichains(p: FinPoset):
    out = []
    for xs in subsets(p.carrier):
        if xs and p.is_antichain(xs):
            out.append(xs)
    return out


def _upper_apply(p: FinPoset) -> FinPoset:
    if not isinstance(p, FinPoset):
        raise ValueError("the upper-set monad lives on posets")
    chains = _antichains(p)
    index, above = p.index, p.above
    # E below F iff every generator of F sits above some generator of E
    ups, bits = [], []
    for e in chains:
        up = 0
        for x in e:
            up |= above[index[x]]
        ups.append(up)
        mask = 0
        for x in e:
            mask |= 1 << index[x]
        bits.append(mask)
    leq = [(chains[i], chains[j])
           for i in range(len(chains)) for j in range(len(chains))
           if bits[j] & ~ups[i] == 0]
    return FinPoset(FinSet(chains), leq)


def _upper_map(fn, e, cod):
    if cod is None:
        raise ValueError("mapping an antichain needs the codomain poset")
    return cod.minimize(fn(x) for x in e)


def _upper_mult(ee, obj):
    if obj is None:
        raise ValueError("flattening antichains needs the base poset")
    return obj.minimize(x for e in ee for x in e)


def _upper_sample(rng, p: FinPoset):
    atoms = list(p.carrier)
    picked = [x for x in atoms if rng.random() < 0.5]
    if not picked:
        picked = [rng.choice(atoms)]
    return p.minimize(picked)


def upper_monad() -> MonadInstance:
    """Nonempty antichains under the Smyth order.

    unit is the singleton, mult unions generators and re-minimizes, the
    mediator pairs generators (a product of antichains is an antichain
    in the product order, so no re-minimization is needed).
    """
    return MonadInstance(
        "upper",
        enumerable=True,
        category=ORD,
        unit=lambda x: frozenset({x}),
        map=_upper_map,
        mult=_upper_mult,
        strength=lambda x, e: frozenset((x, y) for y in e),
        mediator=lambda e, f: frozenset(itertools.product(e, f)),
        apply=_upper_apply,
        sample=_upper_sample,
    )


# -------------------------------------------------- lifting over posets

SYSTEMS = ("epi-regmono", "extremalepi-mono")


def _below(left: FinPoset, right: FinPoset, u, v) -> bool:
    """u <= v in the product order of left x right."""
    return left.le(u[0], v[0]) and right.le(u[1], v[1])


class OrderedRel:
    """A relation between two posets, itself carrying a partial order.

    The order must refine the product order (so the inclusion into the
    product is monotone).  The default order is the full restriction of
    the product order to the pairs.
    """

    def __init__(self, left: FinPoset, right: FinPoset, pairs, order=None):
        self.left = left
        self.right = right
        self.pairs = pairs = frozenset(pairs)
        refuse_first([(a, b) for a, b in pairs if a not in left or b not in right],
                     lambda p: f"pair ({p[0]!r},{p[1]!r}) outside the carriers")
        if order is None:  # the product order on the pairs, below it already
            order, given = [(p, q) for p in pairs for q in pairs
                            if _below(left, right, p, q)], ()
        else:  # the product order is reflexive and transitive: check the given pairs
            order = given = list(order)
        self._poset = FinPoset(FinSet(pairs), order)
        refuse_first([(p, q) for p, q in given if not _below(left, right, p, q)],
                     lambda pq: f"order pair {pq[0]!r} <= {pq[1]!r} is not "
                                "below the product order")

    @property
    def order(self) -> frozenset:
        return self._poset.pairs

    def as_poset(self) -> FinPoset:
        return self._poset

    def __eq__(self, other):
        return (isinstance(other, OrderedRel)
                and self.left == other.left and self.right == other.right
                and self.pairs == other.pairs and self.order == other.order)

    def __hash__(self):
        return hash((self.left, self.right, self.pairs, self.order))

    def __repr__(self):
        return f"OrderedRel({list(self._poset.carrier)!r})"


def factorize_ord(phi, dom: FinPoset, left: FinPoset, right: FinPoset,
                  system: str) -> OrderedRel:
    """The image of a monotone map phi from dom into left x right, as a
    relation ordered in the chosen system.

    epi-regmono: the image carries the product order restricted to it,
    making the inclusion an embedding.  extremalepi-mono: the image
    carries the smallest order containing the pushed-forward order of
    dom, making phi a quotient onto it.  That order is antisymmetric
    because it lies inside the product order: phi is monotone, so every
    pushed pair is a pair of the product.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; pick one of {SYSTEMS}")
    for x in dom:
        if x not in phi:
            raise ValueError(f"no image for {x!r}")
        a, b = phi[x]
        if a not in left or b not in right:
            raise ValueError(f"image of {x!r} outside the codomain")
    pushed = {(phi[x], phi[y]) for x, y in dom.pairs}
    refuse_first([(u, v) for u, v in pushed if not _below(left, right, u, v)],
                 lambda uv: f"not monotone: {uv[0]!r} is not below {uv[1]!r} "
                            "in the product")
    image = {phi[x] for x in dom}
    return OrderedRel(left, right, image,
                      None if system == "epi-regmono" else pushed)


def lift_relation_ord(s: OrderedRel, system: str) -> OrderedRel:
    """Lift a relation through the upper-set monad in a chosen system.

    Apply the monad to the relation-as-poset, send each value to its
    pair of projections, and order the image of that pairing as the
    system says.
    """
    t = upper_monad()
    tsp = t.apply(s.as_poset())
    phi = {q: product_delta(t, q, s.left, s.right) for q in tsp}
    return factorize_ord(phi, tsp, t.apply(s.left), t.apply(s.right), system)


class OrdCategory:
    """Adapter so the diagram checkers run over posets."""
    empty = FinPoset([])

    def product(self, a, b):
        return ord_product(a, b)

    def default_sets(self, max_size=3):
        if max_size > 3:
            raise ValueError("the ordered grid has at most 3 points")
        out = [chain(["a"]), chain(["a", "b"]), discrete(["a", "b"]),
               FinPoset(["a", "b", "c"], [("a", "c"), ("b", "c")])]
        return [p for p in out if len(p) <= max_size]


ORD = OrdCategory()
