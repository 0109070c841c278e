"""Finitely supported rational distributions.  finset's atom_key and
atom_str order and display them like every other value."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .finset import FinSet, atom_key, atom_str

MODES = ("probability", "subprobability")


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
        # the monad operations hand over Fractions they just computed:
        # those are not rebuilt, and the mass is summed as integers over
        # the least common denominator (den) of the weights
        cleaned = {}
        den = 1
        for x, w in dict(weights).items():
            if type(w) is not Fraction:
                w = Fraction(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight {w} at {x!r}")
            if w.numerator:
                cleaned[x] = w
                den = lcm(den, w.denominator)
        num = 0
        for w in cleaned.values():
            num += w.numerator * (den // w.denominator)
        if mode == "probability" and num != den:
            raise ValueError(f"probability mass {Fraction(num, den)} != 1")
        if mode == "subprobability" and num > den:
            raise ValueError(f"subprobability mass {Fraction(num, den)} > 1")
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
        return sorted(self.weights, key=atom_key)

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


def random_dist(rng, carrier, mode="probability") -> RatDist:
    """A seeded random distribution with denominator at most 12.

    Draws a denominator d, then splits the numerator mass over a random
    subset of the carrier by sorted cut points, which keeps every weight
    an exact multiple of 1/d.
    """
    elems = list(dict.fromkeys(carrier))
    carrier = carrier if isinstance(carrier, FinSet) else None
    if not elems:
        if mode == "probability":
            raise ValueError("probability distribution over an empty carrier")
        return RatDist.zero(mode, carrier)
    d = rng.randint(1, 12)
    if mode == "probability":
        total = d
    else:
        total = rng.randint(0, d)
    if total == 0:
        return RatDist.zero(mode, carrier)
    k = rng.randint(1, len(elems))
    support = rng.sample(elems, k)
    cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
    nums = []
    prev = 0
    for c in cuts + [total]:
        nums.append(c - prev)
        prev = c
    weights = {x: Fraction(n, d) for x, n in zip(support, nums) if n}
    return RatDist(weights, mode, carrier)


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
