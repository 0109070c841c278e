"""Finitely supported rational distributions.  finset's atom_key and
atom_str order and display them like every other value."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .finset import FinSet, atom_key, atom_str

MODES = ("probability", "subprobability")

# RatDist is immutable; its constructor sets the slots through this
_set = object.__setattr__


class RatDist:
    """A finitely supported distribution with exact rational weights.

    mode "probability" requires total mass exactly 1, "subprobability"
    at most 1.  The weights are held as integer numerators (nums) over
    one denominator (den), reduced so that gcd(den, *nums) is 1, with
    zero weights dropped: equal distributions hold equal (nums, den).
    The optional carrier records which finite set the distribution lives
    over; nested distributions leave it None.

    weights given with den None are rationals (Fraction, int or str),
    which become integer numerators over the lcm of their denominators;
    with an int den they are integer numerators over den already.
    """

    __slots__ = ("nums", "den", "mode", "carrier")

    def __init__(self, weights, mode: str, carrier: FinSet | None = None,
                 den: int | None = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if den is None:
            # rationals become numerators over the lcm of their denominators
            fracs = {x: w if type(w) is Fraction else Fraction(w)
                     for x, w in dict(weights).items()}
            den = lcm(*(w.denominator for w in fracs.values()))
            nums = {x: w.numerator * (den // w.denominator)
                    for x, w in fracs.items()}
        elif den < 1:
            raise ValueError(f"denominator {den} is not positive")
        else:
            nums = dict(weights)
        if nums and min(nums.values()) <= 0:
            for x, n in nums.items():
                if n < 0:
                    raise ValueError(
                        f"negative weight {Fraction(n, den)} at {x!r}")
            nums = {x: n for x, n in nums.items() if n}
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {x: n // g for x, n in nums.items()}
        num = sum(nums.values())
        if mode == "probability" and num != den:
            raise ValueError(f"probability mass {Fraction(num, den)} != 1")
        if mode == "subprobability" and num > den:
            raise ValueError(f"subprobability mass {Fraction(num, den)} > 1")
        if carrier is not None:
            for x in nums:
                if x not in carrier:
                    raise ValueError(f"support element {x!r} outside the carrier")
        _set(self, "nums", nums)
        _set(self, "den", den)
        _set(self, "mode", mode)
        _set(self, "carrier", carrier)

    def __setattr__(self, name, value):
        raise AttributeError("RatDist is immutable")

    @property
    def weights(self) -> dict:
        """The weights as Fractions, in the order of nums."""
        den = self.den
        return {x: Fraction(n, den) for x, n in self.nums.items()}

    @staticmethod
    def dirac(x, mode="probability", carrier=None) -> "RatDist":
        return RatDist({x: 1}, mode, carrier, 1)

    @staticmethod
    def zero(mode="subprobability", carrier=None) -> "RatDist":
        return RatDist({}, mode, carrier, 1)

    def __call__(self, x) -> Fraction:
        return Fraction(self.nums.get(x, 0), self.den)

    def mass(self, xs) -> Fraction:
        return Fraction(sum(n for x, n in self.nums.items() if x in xs),
                        self.den)

    def total(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def support(self):
        return sorted(self.nums, key=atom_key)

    def items(self):
        nums, den = self.nums, self.den
        return [(x, Fraction(nums[x], den)) for x in self.support()]

    def __eq__(self, other):
        return (
            isinstance(other, RatDist)
            and self.mode == other.mode
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.mode, self.den, frozenset(self.nums.items())))

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
    return RatDist(dict(zip(support, nums)), mode, carrier, d)


def corner_dists(carrier, mode="probability"):
    """Dirac points, the uniform distribution, and (sub mode) zero."""
    elems = list(carrier)
    out = []
    for x in elems:
        out.append(RatDist.dirac(x, mode, carrier))
    if elems:
        out.append(RatDist(dict.fromkeys(elems, 1), mode, carrier, len(elems)))
    if mode == "subprobability":
        out.append(RatDist.zero(mode, carrier))
        for x in elems:
            out.append(RatDist({x: 1}, mode, carrier, 2))
    return out
