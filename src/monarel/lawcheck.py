"""Diagram checkers: monad, strength, mediator, commutativity,
cartesianness, and the monad-morphism compatibility squares.

Each checker is a generator of (diagram, input, lhs, rhs) cases over a
grid of carriers.  run_cases stops at the first case whose two sides
differ (the lifted checks and the basic lemma run under it too); _law
adds the grid and rejects one that yields no case.  Enumerable monads
are checked exhaustively while the monad's size of T stays within a
limit (levels above it fall back to seeded sampling); distributions
are checked on corner cases plus seeded random rational samples.  All
structural maps (associativity, unitors, symmetry, projections) act on
pair atoms the same way in every category, so one implementation
serves Set and Ord.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from .dist import corner_dists, random_dist
from .finset import UNIT_ATOM, FinSet, atom_key, product_set

if TYPE_CHECKING:
    from .monads import MonadInstance


@dataclass(frozen=True)
class LawReport:
    law: str
    ok: bool
    cases: int
    counterexample: dict | None = None
    seed: int | None = None

    def __str__(self):
        status = "pass" if self.ok else "FAIL"
        out = f"{self.law}: {status} ({self.cases} cases)"
        c = self.counterexample
        if c is not None and "diagram" in c:
            out += (
                f"\n  diagram {c['diagram']}: input {_repr(c['input'])}"
                f"\n  lhs {_repr(c['lhs'])}\n  rhs {_repr(c['rhs'])}"
            )
        elif c is not None:  # a bisimulation's failing step
            out += "".join(f"\n  {k} {_repr(v)}" for k, v in c.items())
        return out


def _repr(v):
    """repr(v), but with each frozenset's members in atom_key order, so
    the text does not follow the hash seed."""
    if isinstance(v, frozenset):
        members = ", ".join(_repr(x) for x in sorted(v, key=atom_key))
        return f"frozenset({{{members}}})" if v else "frozenset()"
    if isinstance(v, tuple):
        items = ", ".join(_repr(x) for x in v)
        return f"({items},)" if len(v) == 1 else f"({items})"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_repr(k)}: {_repr(x)}"
                               for k, x in v.items()) + "}"
    return repr(v)


class SetCategory:
    """Finite sets with the cartesian product; the default case grid."""
    empty = FinSet([])

    def product(self, a, b):
        return product_set(a, b)

    def default_sets(self, max_size=3):
        atoms = ["a", "b", "c", "d"]
        if max_size > len(atoms):
            raise ValueError(f"the default grid has at most {len(atoms)} atoms")
        return [FinSet(atoms[:k]) for k in range(max_size + 1)]


SET = SetCategory()


# structural maps on pair atoms, shared by Set and Ord

def _assoc(p):
    (x, y), z = p
    return (x, (y, z))


def _swap(p):
    return (p[1], p[0])


def _fst(p):
    return p[0]


def _snd(p):
    return p[1]


def _dist_value(t: MonadInstance, rng, carrier, level):
    if level == 1:
        return random_dist(rng, carrier, t.mode)
    width = rng.randint(1, 3)
    inner = [_dist_value(t, rng, carrier, level - 1) for _ in range(width)]
    return random_dist(rng, inner, t.mode)


def _values(t: MonadInstance, rng, obj, level=1, samples=100, limit=2 ** 16):
    """Values of T^level over obj: exhaustive when feasible, else sampled."""
    if t.enumerable:
        cur = obj
        for i in range(level):
            if t.size(len(cur)) > limit:
                if level - i != 1:
                    raise ValueError("carrier too large to enumerate")
                return [t.sample(rng, cur) for _ in range(max(samples, 1))]
            cur = t.apply(cur)
        return list(cur)
    elems = list(obj)
    vals = []
    if level == 1:
        vals.extend(corner_dists(obj, t.mode))
    elif level == 2:
        vals.extend(t.v_unit(t.v_unit(x)) for x in elems)
    if elems or t.mode == "subprobability":
        for _ in range(samples):
            vals.append(_dist_value(t, rng, obj, level))
    return vals


def _tobj(t: MonadInstance, obj):
    return t.apply(obj) if t.enumerable else None


def _sample_budget(t: MonadInstance, samples, combos):
    # exhaustive monads only sample above the size limit; keep those runs short
    if t.enumerable:
        return max(8, samples // 4)
    return max(1, samples // max(combos, 1))


def run_cases(name, cases, seed=None) -> LawReport:
    """Run (diagram, input, lhs, rhs) cases until the two sides of one
    differ; that case is the counterexample.  Zero cases pass.

    A membership case has a pair as lhs and, as rhs, the same pair when
    it is in the relation and "member" when it is not.
    """
    n = 0
    for diagram, inp, lhs, rhs in cases:
        n += 1
        if lhs != rhs:
            cex = {"diagram": diagram, "input": inp, "lhs": lhs, "rhs": rhs}
            return LawReport(name, False, n, cex, seed)
    return LawReport(name, True, n, None, seed)


def _law(name, grid_size, budget_exponent):
    """Make a case generator into a law checker.

    The checker takes the category (default: t.category) and the grid
    (default: category.default_sets(grid_size)), seeds the RNG, and
    splits the sample budget over len(grid) ** budget_exponent carrier
    combinations.  The generator gets (t, sets, category, rng, per,
    **kw) and yields its cases lazily, so a run that stops at a
    counterexample draws no further samples.  A grid that yields no case is an input error.
    """
    def decorate(cases):
        def check(t: MonadInstance, sample_sets=None, *, samples=500, seed=7,
                  category=None, **kw) -> LawReport:
            rng = random.Random(seed)
            category = category or t.category
            sets = (sample_sets if sample_sets is not None
                    else category.default_sets(grid_size))
            per = _sample_budget(t, samples, len(sets) ** budget_exponent)
            report = run_cases(
                name, cases(t, sets, category, rng, per, **kw), seed)
            if report.cases == 0:
                raise ValueError(f"{name}: the grid yields no cases")
            return report

        check.__name__ = check.__qualname__ = cases.__name__
        check.__doc__ = cases.__doc__
        return check

    return decorate


def _collapse(t, op, v, tp, prod):
    """mult . T(op) at v, for a binary op into T(prod); tp is T(prod)."""
    return t.v_mult(t.v_map(lambda p: op(p[0], p[1]), v, tp), prod)


@_law("monad-laws", 3, 1)
def check_monad_laws(t, sets, category, rng, per):
    """Left unit, right unit, and associativity of unit/mult."""
    for a in sets:
        ta = _tobj(t, a)
        for v in _values(t, rng, a, 1, per):
            yield "mult-unit", v, t.v_mult(t.v_unit(v), a), v
            yield "mult-map-unit", v, t.v_mult(t.v_map(t.v_unit, v, ta), a), v
        for vvv in _values(t, rng, a, 3, per):
            lhs = t.v_mult(t.v_mult(vvv, ta), a)
            rhs = t.v_mult(t.v_map(lambda vv: t.v_mult(vv, a), vvv, ta), a)
            yield "mult-assoc", vvv, lhs, rhs


@_law("strength-laws", 2, 2)
def check_strength_laws(t, sets, category, rng, per):
    """The four strength diagrams over the canonical product structure."""
    for b in sets:
        for beta in _values(t, rng, b, 1, per):
            lhs = t.v_map(_snd, t.v_strength(UNIT_ATOM, beta), b)
            yield "strength-lunit", beta, lhs, beta
    for a, b in product(sets, repeat=2):
        for x, y in product(a, b):
            yield ("strength-unit", (x, y),
                   t.v_strength(x, t.v_unit(y)), t.v_unit((x, y)))
    for a, b, c in product(sets, repeat=3):
        cod = category.product(a, category.product(b, c))
        for x, y in product(a, b):
            for gamma in _values(t, rng, c, 1, max(1, per // 4)):
                lhs = t.v_map(_assoc, t.v_strength((x, y), gamma), cod)
                rhs = t.v_strength(x, t.v_strength(y, gamma))
                yield "strength-assoc", ((x, y), gamma), lhs, rhs
    for a, b in product(sets, repeat=2):
        prod_ab = category.product(a, b)
        tp = _tobj(t, prod_ab)
        for x in a:
            for bb in _values(t, rng, b, 2, per):
                lhs = _collapse(t, t.v_strength, t.v_strength(x, bb), tp, prod_ab)
                rhs = t.v_strength(x, t.v_mult(bb, b))
                yield "strength-mult", (x, bb), lhs, rhs


@_law("mediator-laws", 2, 2)
def check_mediator_laws(t, sets, category, rng, per):
    """The five mediator diagrams."""
    unit_dirac = t.v_unit(UNIT_ATOM)
    for b in sets:
        for beta in _values(t, rng, b, 1, per):
            lhs = t.v_map(_snd, t.v_mediator(unit_dirac, beta), b)
            yield "mediator-lunit", beta, lhs, beta
            rhs = t.v_map(_fst, t.v_mediator(beta, unit_dirac), b)
            yield "mediator-runit", beta, rhs, beta
    for a, b in product(sets, repeat=2):
        for x, y in product(a, b):
            yield ("mediator-unit", (x, y),
                   t.v_mediator(t.v_unit(x), t.v_unit(y)), t.v_unit((x, y)))
    per3 = max(1, per // 4)
    for a, b, c in product(sets, repeat=3):
        cod = category.product(a, category.product(b, c))
        for alpha in _values(t, rng, a, 1, per3):
            for beta in _values(t, rng, b, 1, per3):
                for gamma in _values(t, rng, c, 1, per3):
                    lhs = t.v_map(
                        _assoc, t.v_mediator(t.v_mediator(alpha, beta), gamma), cod)
                    rhs = t.v_mediator(alpha, t.v_mediator(beta, gamma))
                    yield "mediator-assoc", (alpha, beta, gamma), lhs, rhs
    for a, b in product(sets, repeat=2):
        prod_ab = category.product(a, b)
        tp = _tobj(t, prod_ab)
        for aa in _values(t, rng, a, 2, per):
            for bb in _values(t, rng, b, 2, per):
                lhs = _collapse(t, t.v_mediator, t.v_mediator(aa, bb), tp, prod_ab)
                rhs = t.v_mediator(t.v_mult(aa, a), t.v_mult(bb, b))
                yield "mediator-mult", (aa, bb), lhs, rhs


@_law("commutativity", 2, 2)
def check_commutative(t, sets, category, rng, per):
    """Mediator versus the symmetry: d . c == T(c) . d."""
    for a, b in product(sets, repeat=2):
        cod = category.product(b, a)
        for alpha in _values(t, rng, a, 1, per):
            for beta in _values(t, rng, b, 1, per):
                lhs = t.v_mediator(beta, alpha)
                rhs = t.v_map(_swap, t.v_mediator(alpha, beta), cod)
                yield "mediator-symmetry", (alpha, beta), lhs, rhs


@_law("cartesianness", 2, 2)
def check_cartesian(t, sets, category, rng, per):
    """Projections of the mediator: T(fst) . d == fst and T(snd) . d == snd.

    The first projection equation is scanned over the whole grid before
    the second, so the canonical counterexample for the full powerset is
    a pair whose second component is the empty set.
    """
    grids = []
    for a, b in product(sets, repeat=2):
        pairs = [
            (alpha, beta)
            for alpha in _values(t, rng, a, 1, per)
            for beta in _values(t, rng, b, 1, per)
        ]
        grids.append((a, b, pairs))
    for a, b, pairs in grids:
        for alpha, beta in pairs:
            lhs = t.v_map(_fst, t.v_mediator(alpha, beta), a)
            yield "cartesian-fst", (alpha, beta), lhs, alpha
    for a, b, pairs in grids:
        for alpha, beta in pairs:
            lhs = t.v_map(_snd, t.v_mediator(alpha, beta), b)
            yield "cartesian-snd", (alpha, beta), lhs, beta


@_law("derived-strengths", 2, 2)
def check_derived_strengths(t, sets, category, rng, per):
    """Strength and dual strength built from the mediator.

    With st(x, beta) = d(unit x, beta) and st'(alpha, y) = d(alpha, unit y),
    both mult-collapsed composites over TA x TB must equal the mediator
    itself, and the two strengths must commute with associativity.
    """

    def st(x, beta):
        return t.v_mediator(t.v_unit(x), beta)

    def st_dual(alpha, y):
        return t.v_mediator(alpha, t.v_unit(y))

    for a, b in product(sets, repeat=2):
        prod_ab = category.product(a, b)
        tp = _tobj(t, prod_ab)
        for alpha in _values(t, rng, a, 1, per):
            for beta in _values(t, rng, b, 1, per):
                d = t.v_mediator(alpha, beta)
                via_st = _collapse(t, st_dual, st(alpha, beta), tp, prod_ab)
                yield "strength-then-dual", (alpha, beta), via_st, d
                via_dual = _collapse(t, st, st_dual(alpha, beta), tp, prod_ab)
                yield "dual-then-strength", (alpha, beta), via_dual, d
    per3 = max(1, per // 4)
    for a, b, c in product(sets, repeat=3):
        cod = category.product(a, category.product(b, c))
        for x in a:
            for beta in _values(t, rng, b, 1, per3):
                for z in c:
                    lhs = t.v_map(_assoc, st_dual(st(x, beta), z), cod)
                    rhs = st(x, st_dual(beta, z))
                    yield "strengths-assoc", (x, beta, z), lhs, rhs


def product_delta(t: MonadInstance, v, left_obj=None, right_obj=None):
    """The canonical monad morphism out of a product carrier: both
    pushforward projections, T(A1 x A2) -> TA1 x TA2."""
    return (t.v_map(_fst, v, left_obj), t.v_map(_snd, v, right_obj))


@_law("monad-morphism", 2, 2)
def check_monad_morphism(t, sets, category, rng, per, delta=product_delta):
    """Unit and mult compatibility of the projection pair delta."""
    for a1, a2 in product(sets, repeat=2):
        p = category.product(a1, a2)
        ta1, ta2 = _tobj(t, a1), _tobj(t, a2)
        for x, y in product(a1, a2):
            yield ("morphism-unit", (x, y),
                   delta(t, t.v_unit((x, y)), a1, a2), (t.v_unit(x), t.v_unit(y)))
        tpair = category.product(ta1, ta2) if t.enumerable else None
        for vv in _values(t, rng, p, 2, per, limit=2 ** 8):
            lhs = delta(t, t.v_mult(vv, p), a1, a2)
            w = t.v_map(lambda v: delta(t, v, a1, a2), vv, tpair)
            w1 = t.v_map(_fst, w, ta1)
            w2 = t.v_map(_snd, w, ta2)
            rhs = (t.v_mult(w1, a1), t.v_mult(w2, a2))
            yield "morphism-mult", vv, lhs, rhs


def _theta(p):
    # ((x1,x2),(y1,y2)) -> ((x1,y1),(x2,y2))
    (x1, x2), (y1, y2) = p
    return ((x1, y1), (x2, y2))


@_law("strong-morphism", 2, 4)
def check_strong_morphism(t, sets, category, rng, per, delta=product_delta):
    """Strength compatibility square for the projection pair."""
    for a1, a2, b1, b2 in product(sets, repeat=4):
        pb = category.product(b1, b2)
        ab1, ab2 = category.product(a1, b1), category.product(a2, b2)
        cod = category.product(ab1, ab2)
        for x1, x2 in product(a1, a2):
            for w in _values(t, rng, pb, 1, per):
                lhs = delta(t, t.v_map(_theta, t.v_strength((x1, x2), w), cod),
                            ab1, ab2)
                w1, w2 = delta(t, w, b1, b2)
                rhs = (t.v_strength(x1, w1), t.v_strength(x2, w2))
                yield "strong-morphism-square", ((x1, x2), w), lhs, rhs


@_law("monoidal-morphism", 2, 4)
def check_monoidal_morphism(t, sets, category, rng, per, delta=product_delta):
    """Mediator compatibility square for the projection pair."""
    for a1, a2, b1, b2 in product(sets, repeat=4):
        pa = category.product(a1, a2)
        pb = category.product(b1, b2)
        ab1, ab2 = category.product(a1, b1), category.product(a2, b2)
        cod = category.product(ab1, ab2)
        for v in _values(t, rng, pa, 1, per):
            for w in _values(t, rng, pb, 1, per):
                lhs = delta(t, t.v_map(_theta, t.v_mediator(v, w), cod), ab1, ab2)
                v1, v2 = delta(t, v, a1, a2)
                w1, w2 = delta(t, w, b1, b2)
                rhs = (t.v_mediator(v1, w1), t.v_mediator(v2, w2))
                yield "monoidal-morphism-square", (v, w), lhs, rhs


def standard_battery(t: MonadInstance, sample_sets=None, *, samples=500, seed=7,
                     category=None):
    """Every law suite a shipped monad is expected to pass, in order."""
    kw = dict(samples=samples, seed=seed, category=category)
    single = sample_sets
    small = None
    if sample_sets is not None:
        small = [s for s in sample_sets if len(s) <= 2] or sample_sets
    return [
        check_monad_laws(t, single, **kw),
        check_strength_laws(t, small, **kw),
        check_mediator_laws(t, small, **kw),
        check_commutative(t, small, **kw),
        check_derived_strengths(t, small, **kw),
        check_monad_morphism(t, small, **kw),
        check_strong_morphism(t, small, **kw),
        check_monoidal_morphism(t, small, **kw),
    ]
