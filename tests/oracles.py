"""Independent reference implementations used to cross-check the library.

Everything in here is written directly from the defining conditions and
kept deliberately naive: enumeration over subsets, no flow networks, no
clever pruning.  Tests compare library outputs against these.
"""

import copy
import itertools
from fractions import Fraction

from monarel import (FinPoset, FinSet, LawReport, OrderedRel, RatDist, Rel,
                     atom_key, atom_str, eval_term, logical_relation,
                     ord_product, typecheck, upper_monad)
from monarel.metalang import _relates


def realization_exists(b1, b2, s):
    """Membership by brute witness search: some R inside the relation
    has exactly these projections."""
    candidates = [(a, b) for a in b1 for b in b2 if (a, b) in s.pairs]
    for k in range(len(candidates) + 1):
        for picked in itertools.combinations(candidates, k):
            if (frozenset(p[0] for p in picked) == frozenset(b1)
                    and frozenset(p[1] for p in picked) == frozenset(b2)):
                return True
    return False


def egli_milner(b1, b2, s):
    """Everyone on the left has a partner on the right and vice versa."""
    fwd = all(any((a, b) in s.pairs for b in b2) for a in b1)
    bwd = all(any((a, b) in s.pairs for a in b1) for b in b2)
    return fwd and bwd


def powerset_lift_pairs(s):
    """All pairs of projections of sub-relations, enumerated directly."""
    pairs = sorted(s.pairs)
    out = set()
    for k in range(len(pairs) + 1):
        for picked in itertools.combinations(pairs, k):
            out.add((frozenset(p[0] for p in picked),
                     frozenset(p[1] for p in picked)))
    return out


def strassen_ok(nu1, nu2, s):
    """Coupling feasibility by the subset condition: equal totals and
    nu1(U) <= nu2(S(U)) for every subset U of the left support."""
    if nu1.total() != nu2.total():
        return False
    support = sorted(nu1.support())
    for k in range(len(support) + 1):
        for u in itertools.combinations(support, k):
            image = {b for a in u for (a2, b) in s.pairs if a2 == a}
            if nu1.mass(u) > nu2.mass(image):
                return False
    return True


def coupling_valid(gamma, nu1, nu2, s):
    """gamma is supported inside the relation and has the right marginals."""
    for (a, b), w in gamma.items():
        if w and (a, b) not in s.pairs:
            return False
    for a in nu1.carrier or nu1.support():
        left = sum((w for (x, _), w in gamma.items() if x == a),
                   Fraction(0))
        if left != nu1.mass([a]):
            return False
    for b in nu2.carrier or nu2.support():
        right = sum((w for (_, y), w in gamma.items() if y == b),
                    Fraction(0))
        if right != nu2.mass([b]):
            return False
    return True


def brute_equiv_classes(pairs, atoms):
    """Equivalence classes generated by a set of pairs over tagged atoms,
    grown by repeated merging."""
    classes = [{a} for a in atoms]

    def find(x):
        for c in classes:
            if x in c:
                return c
        raise KeyError(x)

    for x, y in pairs:
        cx, cy = find(x), find(y)
        if cx is not cy:
            cx |= cy
            classes.remove(cy)
    return classes


def brute_closure(atoms, leq):
    """Reflexive transitive closure by repeated sweeps."""
    rel = {(x, x) for x in atoms} | set(leq)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for b2, c in list(rel):
                if b2 == b and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


def smyth_le(p, e, f):
    """E below F in the Smyth order: the upper set generated by E
    contains the one generated by F."""
    def up(xs):
        return {y for y in p for x in xs if p.le(x, y)}
    return up(f) <= up(e)


def arrow_relation_pairs(fs1, fs2, rd, rc):
    """Graphs f, g related at an arrow type: every pair (a1, a2) in rd
    goes to a pair (f a1, g a2) in rc.  Tests every f x g x rd triple."""
    pairs = set()
    for f in fs1:
        fd = dict(f)
        for g in fs2:
            gd = dict(g)
            if all((fd[a1], gd[a2]) in rc.pairs for a1, a2 in rd.pairs):
                pairs.add((f, g))
    return pairs


def validated_weights(weights, mode, carrier=None):
    """RatDist's checks done in Fraction arithmetic: every weight is
    rebuilt as a Fraction and the mass is a Fraction sum.  Returns the
    weights with zeros dropped and their total, or raises ValueError."""
    cleaned = {}
    for x, w in dict(weights).items():
        w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w} at {x!r}")
        if w != 0:
            cleaned[x] = w
    total = sum(cleaned.values(), Fraction(0))
    if mode == "probability" and total != 1:
        raise ValueError(f"probability mass {total} != 1")
    if mode == "subprobability" and total > 1:
        raise ValueError(f"subprobability mass {total} > 1")
    if carrier is not None:
        for x in cleaned:
            if x not in carrier:
                raise ValueError(f"support element {x!r} outside the carrier")
    return cleaned, total


def product_poset_lift(s, system):
    """The ordered lifting built inside the product poset T A1 x T A2:
    the pairing of projections is checked monotone into the product,
    its image takes the product order (epi-regmono) or the closure of
    the pushed-forward order of T S (extremalepi-mono), and that order
    is closed a second time inside the resulting OrderedRel."""
    t = upper_monad()
    tsp = t.apply(s.as_poset())
    ta1, ta2 = t.apply(s.left), t.apply(s.right)
    prod = ord_product(ta1, ta2)
    phi = {q: (t.v_map(lambda p: p[0], q, s.left),
               t.v_map(lambda p: p[1], q, s.right))
           for q in tsp}
    for x, y in tsp.pairs:
        if not prod.le(phi[x], phi[y]):
            raise ValueError(f"not monotone: {x!r} <= {y!r}")
    img = set(phi.values())
    if system == "epi-regmono":
        leq = [(u, v) for u in img for v in img if prod.le(u, v)]
    elif system == "extremalepi-mono":
        leq = {(phi[x], phi[y]) for x, y in tsp.pairs}
    else:
        raise ValueError(f"unknown system {system!r}")
    mid = FinPoset(FinSet(img), leq)
    return OrderedRel(ta1, ta2, mid.carrier, mid.pairs)


def plain_finset_elements(elements):
    """The elements FinSet's constructor gives without a memo: each
    value keyed afresh by atom_key, sorted by key, and a repeated key
    refused with the same ValueError."""
    keyed = sorted(((atom_key(a), a) for a in elements), key=lambda p: p[0])
    for (kx, x), (ky, _) in zip(keyed, keyed[1:]):
        if kx == ky:
            raise ValueError(f"duplicate atom {atom_str(x)!r}")
    return tuple(a for _, a in keyed)


def enumerating_lift(t):
    """A copy of the monad t without its own lift op, so t.lift, and every
    check built on it, takes the image of each value of T S through
    lift_enumerate."""
    slow = copy.copy(t)
    slow._lift = None
    return slow


# The canonical order as it was when distributions had a key of their
# own and callers sorted by it: atom_key and atom_str must agree with
# the first two on every value, and saturate with the third.

def value_key(v):
    """Sort key covering atoms and (possibly nested) distributions."""
    if isinstance(v, RatDist):
        return ("d", v.mode, tuple((value_key(x), w) for x, w in v.items()))
    if isinstance(v, frozenset):
        return ("t", tuple(sorted(value_key(x) for x in v)))
    if isinstance(v, tuple):
        return ("p", value_key(v[0]), value_key(v[1]))
    return atom_key(v)


def flat_text(v):
    """The JSON writer's text for a distribution key or support member."""
    if isinstance(v, RatDist):
        inner = ",".join(f"{flat_text(x)}:{w}" for x, w in v.items())
        return "{" + inner + "}"
    return atom_str(v)


def keyed_saturate(s):
    """saturate with the smaller root kept at each union and the classes
    sorted by their least atom."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry, key=atom_key)] = min(rx, ry, key=atom_key)

    for a in s.left:
        parent[("L", a)] = ("L", a)
    for b in s.right:
        parent[("R", b)] = ("R", b)
    for a, b in sorted(s.pairs, key=atom_key):
        union(("L", a), ("R", b))

    groups = {}
    for node in parent:
        groups.setdefault(find(node), set()).add(node)
    classes = sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda c: atom_key(min(c, key=atom_key)),
    )
    sat = {
        (a, b)
        for a in s.left
        for b in s.right
        if find(("L", a)) == find(("R", b))
    }
    return classes, Rel(s.left, s.right, sat)


# The distribution monad's value operations as they were written in
# Fraction arithmetic, before RatDist held integer numerators over one
# denominator.  mode is the monad's; each builds its RatDist from
# Fraction weights.

def fraction_map(mode, fn, t, cod):
    out = {}
    for x, w in t.weights.items():
        y = fn(x)
        out[y] = out[y] + w if y in out else w
    carrier = cod if isinstance(cod, FinSet) else None
    return RatDist(out, mode, carrier)


def fraction_mult(mode, tt, obj):
    out = {}
    for inner, w in tt.weights.items():
        for x, v in inner.weights.items():
            out[x] = out[x] + w * v if x in out else w * v
    carrier = obj if isinstance(obj, FinSet) else None
    return RatDist(out, mode, carrier)


def fraction_strength(mode, x, t):
    return RatDist({(x, y): w for y, w in t.weights.items()}, mode)


def fraction_mediator(mode, t, u):
    out = {
        (x, y): wx * wy
        for x, wx in t.weights.items()
        for y, wy in u.weights.items()
    }
    return RatDist(out, mode)


def plain_basic_lemma(model1, model2, base_rels, ctx, t):
    """basic_lemma_check with no memo: both sides of every environment
    pair evaluated afresh, and the relation at t's type tested on every
    pair of denotations, in the order of the product of the relations
    at the sorted context names."""
    related = _relates(model1, model2, base_rels, typecheck(ctx, t))
    names = sorted(ctx)
    rels = [logical_relation(model1, model2, base_rels, ctx[x]) for x in names]
    n = 0
    for choice in itertools.product(*rels):
        n += 1
        env1 = {x: p[0] for x, p in zip(names, choice)}
        env2 = {x: p[1] for x, p in zip(names, choice)}
        d = (eval_term(model1, env1, t), eval_term(model2, env2, t))
        if not related(*d):
            cex = {"diagram": "basic-lemma", "input": (env1, env2),
                   "lhs": d, "rhs": "member"}
            return LawReport("basic-lemma", False, n, cex, None)
    return LawReport("basic-lemma", True, n, None, None)
