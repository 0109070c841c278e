"""Finitary monads packaged with their strengths and mediators.

Three constructors are provided: the full and the nonempty finite
powerset (enumerable, so T also acts on whole carriers) and finitely
supported rational distributions (probability or subprobability,
value-level only).
"""

from __future__ import annotations

from fractions import Fraction

from .finset import FinSet, atom_key, atom_str, subsets

MODES = ("probability", "subprobability")


def value_key(v):
    """Sort key covering atoms and (possibly nested) distributions."""
    if isinstance(v, RatDist):
        return ("d", v.mode, tuple((value_key(x), w) for x, w in v.items()))
    if isinstance(v, frozenset):
        return ("t", tuple(sorted(value_key(x) for x in v)))
    if isinstance(v, tuple):
        return ("p", value_key(v[0]), value_key(v[1]))
    return atom_key(v)


class RatDist:
    """A finitely supported distribution with exact rational weights.

    mode "probability" requires total mass exactly 1, "subprobability"
    at most 1.  Zero weights are dropped, so equal distributions have
    equal supports.  The optional carrier records which finite set the
    distribution lives over; nested distributions leave it None.
    """

    __slots__ = ("weights", "mode", "carrier")

    def __init__(self, weights, mode: str, carrier: FinSet | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
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
        object.__setattr__(self, "weights", cleaned)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "carrier", carrier)

    def __setattr__(self, name, value):
        raise AttributeError("RatDist is immutable")

    @staticmethod
    def dirac(x, mode="probability", carrier=None) -> "RatDist":
        return RatDist({x: Fraction(1)}, mode, carrier)

    @staticmethod
    def zero(mode="subprobability", carrier=None) -> "RatDist":
        return RatDist({}, mode, carrier)

    def __call__(self, x) -> Fraction:
        return self.weights.get(x, Fraction(0))

    def mass(self, xs) -> Fraction:
        return sum((w for x, w in self.weights.items() if x in xs), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def support(self):
        return sorted(self.weights, key=value_key)

    def items(self):
        return [(x, self.weights[x]) for x in self.support()]

    def __eq__(self, other):
        return (
            isinstance(other, RatDist)
            and self.mode == other.mode
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.mode, frozenset(self.weights.items())))

    def __repr__(self):
        def show(x):
            return repr(x) if isinstance(x, RatDist) else atom_str(x)

        body = " + ".join(f"{w}*{show(x)}" for x, w in self.items())
        return f"RatDist({body or '0'})"


class MonadInstance:
    """A monad with strength and mediator, packaged for finite model checking.

    The value-level operations (v_*) act on concrete values: frozensets
    for the powersets, RatDist for distributions, antichains for the
    ordered variant.  Enumerable instances additionally expose apply()
    on carriers.
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
        mode: str | None = None,
        category: str = "set",
    ):
        self.name = name
        self.enumerable = enumerable
        self.mode = mode
        self.category = category
        self._apply = apply
        self._apply_cache = {}
        self._sample = sample
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

    def sample(self, rng, a):
        """A seeded random value of T over the carrier a."""
        if self._sample is None:
            raise ValueError(f"monad {self.name} has no value sampler")
        return self._sample(rng, a)


def _random_subset(rng, a, nonempty=False):
    elems = sorted(a, key=value_key)
    if nonempty:
        k = rng.randint(1, len(elems))
        return frozenset(rng.sample(elems, k))
    return frozenset(x for x in elems if rng.random() < 0.5)


def _powerset(name, nonempty) -> MonadInstance:
    # the nonempty sets are closed under every operation, so both
    # monads share them and differ only in carriers and samples
    return MonadInstance(
        name,
        enumerable=True,
        apply=lambda a: FinSet(s for s in subsets(a) if s or not nonempty),
        sample=lambda rng, a: _random_subset(rng, a, nonempty),
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

    def d_map(fn, t, cod):
        out = {}
        for x, w in t.weights.items():
            y = fn(x)
            out[y] = out.get(y, Fraction(0)) + w
        carrier = cod if isinstance(cod, FinSet) else None
        return RatDist(out, mode, carrier)

    def d_mult(tt, obj):
        out = {}
        for inner, w in tt.weights.items():
            for x, v in inner.weights.items():
                out[x] = out.get(x, Fraction(0)) + w * v
        carrier = obj if isinstance(obj, FinSet) else None
        return RatDist(out, mode, carrier)

    def d_strength(x, t):
        return RatDist({(x, y): w for y, w in t.weights.items()}, mode)

    def d_mediator(t, u):
        out = {
            (x, y): wx * wy
            for x, wx in t.weights.items()
            for y, wy in u.weights.items()
        }
        return RatDist(out, mode)

    return MonadInstance(
        f"dist-{mode}",
        enumerable=False,
        mode=mode,
        unit=lambda x: RatDist.dirac(x, mode),
        map=d_map,
        mult=d_mult,
        strength=d_strength,
        mediator=d_mediator,
    )


def random_dist(rng, carrier, mode="probability", max_den: int = 12) -> RatDist:
    """A seeded random distribution with denominator at most max_den.

    Draws a denominator d, then splits the numerator mass over a random
    subset of the carrier by sorted cut points, which keeps every weight
    an exact multiple of 1/d.
    """
    elems = list(dict.fromkeys(carrier))
    if not elems:
        if mode == "probability":
            raise ValueError("probability distribution over an empty carrier")
        return RatDist.zero(mode, carrier if isinstance(carrier, FinSet) else None)
    d = rng.randint(1, max_den)
    if mode == "probability":
        total = d
    else:
        total = rng.randint(0, d)
    if total == 0:
        return RatDist.zero(mode, carrier if isinstance(carrier, FinSet) else None)
    k = rng.randint(1, len(elems))
    support = rng.sample(elems, k)
    cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
    nums = []
    prev = 0
    for c in cuts + [total]:
        nums.append(c - prev)
        prev = c
    weights = {x: Fraction(n, d) for x, n in zip(support, nums) if n}
    return RatDist(weights, mode, carrier if isinstance(carrier, FinSet) else None)


def corner_dists(carrier, mode="probability"):
    """Dirac points, the uniform distribution, and (sub mode) zero."""
    elems = list(carrier)
    out = []
    for x in elems:
        out.append(RatDist.dirac(x, mode, carrier))
    if elems:
        n = len(elems)
        out.append(RatDist({x: Fraction(1, n) for x in elems}, mode, carrier))
    if mode == "subprobability":
        out.append(RatDist.zero(mode, carrier))
        for x in elems:
            out.append(RatDist({x: Fraction(1, 2)}, mode, carrier))
    return out
