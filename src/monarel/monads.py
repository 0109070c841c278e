"""Finitary monads packaged with their strengths, mediators and lifted
relations.

Three constructors are provided: the full and the nonempty finite
powerset (enumerable, so T also acts on whole carriers) and finitely
supported rational distributions (probability or subprobability,
value-level only).  Each decides membership in its own lifted relation:
Egli-Milner for the powersets, coupling feasibility for distributions.
"""

from __future__ import annotations

from math import lcm

# the distribution values stay importable from here, next to their monad,
# and so does the canonical value order under its older name
from .dist import MODES, RatDist, corner_dists, random_dist  # noqa: F401
from .finset import FinSet, Rel, subsets
from .finset import atom_key as value_key  # noqa: F401
from .lawcheck import SET
from .lifting import (lift_enumerate, lift_member_dist, lift_member_powerset,
                      lift_union_closure)


class MonadInstance:
    """A monad with strength and mediator, packaged for finite model checking.

    The value-level operations (v_*) act on concrete values: frozensets
    for the powersets, RatDist for distributions, antichains for the
    ordered variant.  category is the category the monad lives on
    (lawcheck.SET or poset.ORD); the law checkers take their grid and
    products from it.  Enumerable instances additionally expose apply()
    on carriers, and size() counts its values.  member, when given,
    decides the lifted relation; see related().  lift, when given, builds
    the pairs of the lifted relation from a relation; see lift().
    """

    def __init__(
        self,
        name: str,
        *,
        enumerable: bool,
        unit,
        map,
        mult,
        strength,
        mediator,
        apply=None,
        sample=None,
        member=None,
        lift=None,
        mode: str | None = None,
        category=SET,
    ):
        self.name = name
        self.enumerable = enumerable
        self.mode = mode
        self.category = category
        self._apply = apply
        self._apply_cache = {}
        self._sample = sample
        self._member = member
        self._lift = lift
        self._unit = unit
        self._map = map
        self._mult = mult
        self._strength = strength
        self._mediator = mediator

    def __repr__(self):
        return f"MonadInstance({self.name})"

    # value level

    def v_unit(self, x):
        return self._unit(x)

    def v_map(self, fn, t, cod=None):
        return self._map(fn, t, cod)

    def v_mult(self, tt, obj=None):
        return self._mult(tt, obj)

    def v_strength(self, x, t):
        return self._strength(x, t)

    def v_mediator(self, t, u):
        return self._mediator(t, u)

    # carrier level, enumerable instances only

    def apply(self, a):
        if self._apply is None:
            raise ValueError(f"monad {self.name} is not enumerable")
        if a not in self._apply_cache:
            self._apply_cache[a] = self._apply(a)
        return self._apply_cache[a]

    def size(self, n):
        """How many values T has over n points: 2^n when the empty set is
        one, 2^n - 1 when not, None when T is not enumerable.  Exact for
        the powersets, a bound for upper (its antichains are nonempty)."""
        if not self.enumerable:
            return None
        return 2 ** n - 1 + len(self.apply(self.category.empty))

    def lift(self, s):
        """The lifted relation of s over (T A1, T A2), materialized.

        Monads without their own lift op take the image of every value
        of T S (lift_enumerate).
        """
        if self._lift is None:
            return lift_enumerate(self, s)
        return Rel(self.apply(s.left), self.apply(s.right), self._lift(s))

    def sample(self, rng, a):
        """A seeded random value of T over the carrier a."""
        if self._sample is None:
            raise ValueError(f"monad {self.name} has no value sampler")
        return self._sample(rng, a)

    def related(self, v1, v2, s):
        """Whether (v1, v2) lies in the lifting of the relation s to T.

        Returns the decider's answer, which is truthy exactly for members
        (distributions answer with a CouplingResult carrying a witness or
        a violated subset).  Values outside T raise ValueError.
        """
        if self._member is None:
            raise ValueError(f"monad {self.name} has no membership decider")
        return self._member(v1, v2, s)


def _random_subset(rng, a, nonempty=False):
    elems = list(a)
    if nonempty:
        k = rng.randint(1, len(elems))
        return frozenset(rng.sample(elems, k))
    return frozenset(x for x in elems if rng.random() < 0.5)


def _powerset(name, nonempty) -> MonadInstance:
    # the nonempty sets are closed under every operation, so both
    # monads share them and differ only in carriers and samples
    def member(b1, b2, s):
        if nonempty and not (b1 and b2):
            raise ValueError(f"the empty set is not a value of {name}")
        return lift_member_powerset(b1, b2, s)

    def lift(s):
        pairs = lift_union_closure(s)
        if nonempty:
            # only the empty sub-relation projects to (empty, empty)
            pairs.discard((frozenset(), frozenset()))
        return pairs

    return MonadInstance(
        name,
        enumerable=True,
        apply=lambda a: FinSet(s for s in subsets(a) if s or not nonempty),
        sample=lambda rng, a: _random_subset(rng, a, nonempty),
        member=member,
        lift=lift,
        unit=lambda x: frozenset([x]),
        map=lambda fn, t, cod: frozenset(fn(x) for x in t),
        mult=lambda tt, obj: frozenset(x for s in tt for x in s),
        strength=lambda x, t: frozenset((x, y) for y in t),
        mediator=lambda t, u: frozenset((x, y) for x in t for y in u),
    )


def powerset_monad() -> MonadInstance:
    return _powerset("powerset", nonempty=False)


def nonempty_powerset_monad() -> MonadInstance:
    return _powerset("nonempty-powerset", nonempty=True)


def dist_monad(mode: str = "probability") -> MonadInstance:
    """Finitely supported rational distributions, probability or sub-."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")

    # every operation works on the integer numerators over one
    # denominator; RatDist reduces the result
    def d_map(fn, t, cod):
        out = {}
        for x, n in t.nums.items():
            y = fn(x)
            out[y] = out[y] + n if y in out else n
        carrier = cod if isinstance(cod, FinSet) else None
        return RatDist(out, mode, carrier, t.den)

    def d_mult(tt, obj):
        # each inner distribution is scaled to the lcm of their denominators
        den = lcm(*(inner.den for inner in tt.nums))
        out = {}
        for inner, w in tt.nums.items():
            w *= den // inner.den
            for x, v in inner.nums.items():
                out[x] = out[x] + w * v if x in out else w * v
        carrier = obj if isinstance(obj, FinSet) else None
        return RatDist(out, mode, carrier, tt.den * den)

    def d_strength(x, t):
        return RatDist({(x, y): n for y, n in t.nums.items()}, mode, None, t.den)

    def d_mediator(t, u):
        out = {
            (x, y): nx * ny
            for x, nx in t.nums.items()
            for y, ny in u.nums.items()
        }
        return RatDist(out, mode, None, t.den * u.den)

    def d_member(nu1, nu2, s):
        for nu in (nu1, nu2):
            if not isinstance(nu, RatDist) or nu.mode != mode:
                got = nu.mode if isinstance(nu, RatDist) else type(nu).__name__
                raise ValueError(f"a {got} value is not a value of dist-{mode}")
        return lift_member_dist(nu1, nu2, s)

    return MonadInstance(
        f"dist-{mode}",
        enumerable=False,
        mode=mode,
        unit=lambda x: RatDist.dirac(x, mode),
        map=d_map,
        mult=d_mult,
        strength=d_strength,
        mediator=d_mediator,
        member=d_member,
    )
