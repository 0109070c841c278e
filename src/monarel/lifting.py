"""Lifting a monad from carriers to binary relations.

A relation S between A1 and A2 lifts to a relation between T A1 and
T A2: the direct image of T S under the two pushforward projections
(T pi1, T pi2), which `lawcheck.product_delta` computes for one value
of T S.  The ordered lifting in poset.py is the same image with an
order on it.  For enumerable monads the lifted relation is materialized
(MonadInstance.lift): the powersets build it by union closure, without
walking T S, and other monads take the image of every value of T S
(`lift_enumerate`, which stays the definition the tests compare
against).  Membership is decided by Egli-Milner for the powersets and,
for distributions, by exact integral max-flow (does a coupling with the
given marginals live inside S?), with the saturated-relation shortcut
and its explicit product-form coupling.  Each monad carries its own
decider (MonadInstance.related) and lifting (MonadInstance.lift);
monads.py takes them from here.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING

from .dist import RatDist, random_dist
from .finset import Rel, subsets
from .lawcheck import LawReport, product_delta, run_cases

if TYPE_CHECKING:
    from .monads import MonadInstance


def lift_enumerate(t: MonadInstance, s: Rel) -> Rel:
    """The lifted relation over (T A1, T A2), materialized.

    Pairs are exactly the images product_delta(R) of elements R of T S.
    """
    if not t.enumerable:
        raise ValueError(f"monad {t.name} is not enumerable")
    pairs = {product_delta(t, r, s.left, s.right) for r in t.apply(s.as_finset())}
    return Rel(t.apply(s.left), t.apply(s.right), pairs)


def lift_union_closure(s: Rel) -> set:
    """The pairs (pi1 R, pi2 R) for every subset R of S.

    Projections preserve unions, so these are the closure of (empty,
    empty) under adding one pair of S to both sides: O(|S| * |result|)
    set operations, where enumerating the subsets costs 2^|S|.
    """
    lifted = {(frozenset(), frozenset())}
    for x, y in s.pairs:
        lifted |= {(b1.union((x,)), b2.union((y,))) for b1, b2 in lifted}
    return lifted


def lift_member_powerset(b1, b2, s: Rel) -> bool:
    """Egli-Milner membership: every element on either side is related
    to some element on the other side, inside the given subsets."""
    b1, b2 = frozenset(b1), frozenset(b2)
    for x in b1:
        if x not in s.left:
            raise ValueError("first subset leaves the left carrier")
    for y in b2:
        if y not in s.right:
            raise ValueError("second subset leaves the right carrier")
    return all(s.right_image(x) & b2 for x in b1) and all(
        s.left_image(y) & b1 for y in b2
    )


@dataclass(frozen=True)
class CouplingResult:
    """Outcome of a coupling-feasibility query.

    witness is an exact coupling when feasible; violated, when present,
    is a subset U of the left carrier whose mass exceeds the mass of its
    S-image (read off the min cut).
    """

    member: bool
    witness: RatDist | None = None
    violated: tuple | None = None

    def __bool__(self):
        return self.member


def _edmonds_karp(edges, src, snk):
    """Max flow on integer capacities; returns (value, flow, reachable).

    edges maps (u, v) to capacity.  reachable is the set of nodes the
    source still reaches in the residual graph, i.e. the min-cut side.
    """
    adj = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    flow = {}

    def residual(u, v):
        return edges.get((u, v), 0) - flow.get((u, v), 0)

    value = 0
    while True:
        parent = {src: None}
        queue = deque([src])
        while queue and snk not in parent:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in parent and residual(u, v) > 0:
                    parent[v] = u
                    queue.append(v)
        if snk not in parent:
            reachable = set(parent)
            return value, flow, reachable
        path = []
        v = snk
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual(u, w) for u, w in path)
        for u, w in path:
            flow[(u, w)] = flow.get((u, w), 0) + push
            flow[(w, u)] = flow.get((w, u), 0) - push
        value += push


def _over_carriers(nu1: RatDist, nu2: RatDist, s: Rel) -> None:
    """Refuse a pair that is not in T A1 x T A2 for S between A1 and A2:
    the modes must agree, a recorded carrier must be S's side, and each
    support must lie in its side."""
    if nu1.mode != nu2.mode:
        raise ValueError(f"mode mismatch: {nu1.mode} vs {nu2.mode}")
    if nu1.carrier is not None and nu1.carrier != s.left:
        raise ValueError("left carrier mismatch")
    if nu2.carrier is not None and nu2.carrier != s.right:
        raise ValueError("right carrier mismatch")
    for x in nu1.nums:
        if x not in s.left:
            raise ValueError("left support leaves the carrier")
    for y in nu2.nums:
        if y not in s.right:
            raise ValueError("right support leaves the carrier")


def lift_member_dist(nu1: RatDist, nu2: RatDist, s: Rel) -> CouplingResult:
    """Decide whether a coupling of nu1 and nu2 supported in S exists.

    Exact integral max-flow after clearing denominators: the marginals
    are feasible iff the flow saturates both total masses.
    """
    _over_carriers(nu1, nu2, s)
    # both sides over one denominator: the lcm of theirs
    scale = lcm(nu1.den, nu2.den)
    f1, f2 = scale // nu1.den, scale // nu2.den
    target = sum(nu1.nums.values()) * f1
    if target != sum(nu2.nums.values()) * f2:
        return CouplingResult(False)
    if target == 0:
        return CouplingResult(True, witness=RatDist.zero(nu1.mode))

    edges = {}
    support1, support2 = nu1.support(), nu2.support()
    for x in support1:
        edges[("src", ("l", x))] = nu1.nums[x] * f1
    for y in support2:
        edges[(("r", y), "snk")] = nu2.nums[y] * f2
    for x in support1:
        image = s.right_image(x)
        for y in support2:
            if y in image:
                edges[(("l", x), ("r", y))] = target
    value, flow, reachable = _edmonds_karp(edges, "src", "snk")
    if value == target:
        units = {}
        for x in support1:
            for y in support2:
                n = flow.get((("l", x), ("r", y)), 0)
                if n > 0:
                    units[(x, y)] = n
        return CouplingResult(True, witness=RatDist(units, nu1.mode, den=scale))
    violated = tuple(
        x for x in support1 if ("l", x) in reachable
    )
    return CouplingResult(False, violated=violated)


def saturate(s: Rel):
    """Close S under the smallest equivalence on the disjoint union.

    Returns (classes, saturated relation): classes partition the tagged
    union (("L", a) for the left carrier, ("R", b) for the right), and
    the saturated relation holds between any left/right pair sharing a
    class.
    """
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for a in s.left:
        parent[("L", a)] = ("L", a)
    for b in s.right:
        parent[("R", b)] = ("R", b)
    for a, b in s.pairs:
        parent[find(("L", a))] = find(("R", b))

    # parent holds the left atoms, then the right ones, each in carrier
    # order, so the classes come in the order of their first atom
    groups = {}
    for node in parent:
        groups.setdefault(find(node), set()).add(node)
    classes = [frozenset(g) for g in groups.values()]
    sat = {(a, b) for left, right in map(class_sides, classes)
           for a in left for b in right}
    return classes, Rel(s.left, s.right, sat)


def class_sides(cls) -> tuple:
    """The left and the right atoms of a class of tagged atoms."""
    return ({a for tag, a in cls if tag == "L"},
            {b for tag, b in cls if tag == "R"})


def _saturated_sides(s: Rel) -> list:
    """The class sides of S, which must be saturated."""
    classes, sat = saturate(s)
    if sat != s:
        raise ValueError("relation is not saturated")
    return [class_sides(cls) for cls in classes]


def lift_member_dist_saturated(nu1: RatDist, nu2: RatDist, s: Rel) -> bool:
    """Class-mass criterion: on a saturated relation, membership holds
    iff nu1 and nu2 give every equivalence class the same mass."""
    _over_carriers(nu1, nu2, s)
    return all(nu1.mass(left) == nu2.mass(right)
               for left, right in _saturated_sides(s))


def converse_coupling(nu1: RatDist, nu2: RatDist, s: Rel) -> RatDist:
    """The product-form coupling on a saturated relation with matching
    class masses: inside a class of mass d, the pair (a1, a2) carries
    nu1(a1) * nu2(a2) / d."""
    _over_carriers(nu1, nu2, s)
    weights = {}
    for left, right in _saturated_sides(s):
        d1, d2 = nu1.mass(left), nu2.mass(right)
        if d1 != d2:
            raise ValueError("class masses differ; no coupling exists")
        if d1 == 0:
            continue
        for a in left:
            for b in right:
                w = nu1(a) * nu2(b) / d1
                if w:
                    weights[(a, b)] = w
    return RatDist(weights, nu1.mode)


def _sample_related(t: MonadInstance, rng, s: Rel, samples: int):
    """Seeded related pairs: the marginals of random couplings inside S."""
    pairs = list(s)
    if pairs:
        nus = (random_dist(rng, pairs, t.mode) for _ in range(samples))
    else:  # only the zero subdistribution lives over no pairs
        nus = [RatDist({}, t.mode)] if t.mode == "subprobability" else []
    for nu in nus:
        yield product_delta(t, nu, s.left, s.right)


def lifted_unit_check(t: MonadInstance, s: Rel) -> LawReport:
    """Related points have related units."""
    def cases():
        for a, b in s:
            v = (t.v_unit(a), t.v_unit(b))
            yield "lifted-unit", (a, b), v, v if t.related(*v, s) else "member"

    return run_cases("lifted-unit", cases())


def lifted_mult_check(t: MonadInstance, s: Rel, *, samples: int = 100,
                      seed: int = 0) -> LawReport:
    """Flattening a related pair of second-level values stays related.

    Enumerable monads enumerate sub-relations of the lifted relation
    while the monad's size over its pairs is at most 2^16, and sample
    them with a seed beyond it; distributions sample second-level values
    built from couplings, which are related by construction.
    """
    rng = random.Random(seed)

    def enumerated():
        lifted = t.lift(s)
        lifted_pairs = list(lifted)
        if t.size(len(lifted_pairs)) <= 2 ** 16:
            candidates = subsets(lifted_pairs)
        else:
            candidates = (
                frozenset(p for p in lifted_pairs if rng.random() < 0.5)
                for _ in range(samples)
            )
        seen = set()
        for r in candidates:
            xi = (frozenset(p[0] for p in r), frozenset(p[1] for p in r))
            # the empty sub-relation gives a value when T has one over no points
            if (not r and not t.size(0)) or xi in seen:
                continue
            seen.add(xi)
            m = (t.v_mult(xi[0], s.left), t.v_mult(xi[1], s.right))
            yield "lifted-mult", xi, m, m if m in lifted.pairs else "member"

    def sampled():
        for _ in range(samples):
            members = list(_sample_related(t, rng, s, rng.randint(1, 3)))
            if not members:
                return
            xi = product_delta(t, random_dist(rng, members, t.mode))
            m = (t.v_mult(xi[0]), t.v_mult(xi[1]))
            yield "lifted-mult", xi, m, m if t.related(*m, s) else "member"

    return run_cases("lifted-mult", enumerated() if t.enumerable else sampled(), seed)


def lifted_strength_check(t: MonadInstance, s: Rel, s2: Rel, *,
                          samples: int = 50, seed: int = 0) -> LawReport:
    """Strength applied to related points and related values lands in
    the lifted product relation."""
    rng = random.Random(seed)
    sp = s.product(s2)
    related = list(t.lift(s2) if t.enumerable
                   else _sample_related(t, rng, s2, samples))

    def cases():
        for a, b in s:
            for w in related:
                v = (t.v_strength(a, w[0]), t.v_strength(b, w[1]))
                yield ("lifted-strength", ((a, b), w), v,
                       v if t.related(*v, sp) else "member")

    return run_cases("lifted-strength", cases(), seed)
