"""laws: every lawcheck checker on every shipped monad, one item per
(monad, checker, carrier) call, plus the lifted unit/mult/strength checks
and mutant monads that must be caught.

The full powerset's monad laws at |A| = 2 are left out: that one call walks
65,536 third-level values and takes longer than a whole batch.
"""

from __future__ import annotations

import random

SAMPLES = 16
SET_MONADS = ("powerset", "nonempty-powerset", "dist-probability", "dist-subprobability")
CHECKERS = ("check_monad_laws", "check_strength_laws", "check_mediator_laws",
            "check_commutative", "check_derived_strengths", "check_monad_morphism",
            "check_strong_morphism", "check_monoidal_morphism", "check_cartesian")
# cartesianness needs an affine monad: it fails for the full powerset (the
# empty set) and for subprobability (mass below one)
NOT_CARTESIAN = ("powerset", "dist-subprobability")
SET_SIZES = (1, 2)
POSETS = 3  # the first three of ORD.default_sets(): chain a, chain a<b, discrete a,b
LIFTED = ("lifted_unit_check", "lifted_mult_check", "lifted_strength_check")
LIFTED_RELS = 2
PAIRS_2x2 = [(x, y) for x in ("1", "2") for y in ("a", "b")]
MUTANTS = (("lossy-mult", "check_monad_laws"), ("lossy-strength", "check_strength_laws"),
           ("lossy-mediator", "check_mediator_laws"), ("biased-mediator", "check_commutative"),
           ("swapped-delta", "check_monad_morphism"), ("lossy-delta", "check_monoidal_morphism"),
           ("biased-dist-mediator", "check_commutative"))


def _monads(lib):
    m = lib.monads
    return {"powerset": m.powerset_monad(), "nonempty-powerset": m.nonempty_powerset_monad(),
            "dist-probability": m.dist_monad("probability"),
            "dist-subprobability": m.dist_monad("subprobability"),
            "upper": lib.poset.upper_monad()}


def _mutant(lib, **twists):
    """The powerset monad with some operations replaced."""
    value_key = lib.monads.value_key
    ops = dict(
        unit=lambda x: frozenset([x]),
        map=lambda fn, t, cod: frozenset(fn(x) for x in t),
        mult=lambda tt, obj: frozenset(x for s in tt for x in s),
        strength=lambda x, t: frozenset((x, y) for y in t),
        mediator=lambda t, u: frozenset((x, y) for x in t for y in u),
    )
    ops.update(twists)
    return lib.monads.MonadInstance(
        "powerset-mutant", enumerable=True,
        apply=lambda a: lib.finset.FinSet(lib.finset.subsets(a)),
        sample=lambda rng, a: frozenset(x for x in sorted(a, key=value_key)
                                        if rng.random() < 0.5),
        **ops)


def _mutant_cases(lib):
    """Mutant name -> (monad, extra checker keywords)."""
    value_key = lib.monads.value_key
    product_delta = lib.lawcheck.product_delta
    dist = lib.monads.dist_monad("probability")
    RatDist = lib.monads.RatDist

    def swapped_delta(t, v, left_obj=None, right_obj=None):
        fst, snd = product_delta(t, v, left_obj, right_obj)
        return snd, fst

    def lossy_delta(t, v, left_obj=None, right_obj=None):
        fst, snd = product_delta(t, v, left_obj, right_obj)
        return frozenset(sorted(fst, key=value_key)[1:]), snd

    def biased_dist_mediator(t, u):
        # all of u's mass moves to its first support point
        first = u.support()[:1]
        return RatDist({(x, y): w * u.total() for x, w in t.weights.items() for y in first},
                       "probability")

    powerset = lib.monads.powerset_monad()
    return {
        "lossy-mult": (_mutant(lib, mult=lambda tt, obj: frozenset(
            sorted((x for s in tt for x in s), key=value_key)[1:])), {}),
        "lossy-strength": (_mutant(lib, strength=lambda x, t: frozenset(
            (x, y) for y in sorted(t, key=value_key)[1:])), {}),
        "lossy-mediator": (_mutant(lib, mediator=lambda t, u: frozenset(
            sorted(((x, y) for x in t for y in u), key=value_key)[:-1])), {}),
        "biased-mediator": (_mutant(lib, mediator=lambda t, u: frozenset(
            (x, y) for x in t for y in u if value_key(x) <= value_key(y))), {}),
        "swapped-delta": (powerset, {"delta": swapped_delta}),
        "lossy-delta": (powerset, {"delta": lossy_delta}),
        "biased-dist-mediator": (lib.monads.MonadInstance(
            "dist-mutant", enumerable=False, mode="probability", unit=dist.v_unit,
            map=dist.v_map, mult=dist.v_mult, strength=dist.v_strength,
            mediator=biased_dist_mediator), {}),
    }


class Laws:
    name = "laws"

    def generate(self, lib, seed, k):
        rng = random.Random(f"laws:{seed}:{k}")
        raw = []
        for monad in SET_MONADS + ("upper",):
            carriers = range(POSETS) if monad == "upper" else SET_SIZES
            for checker in CHECKERS:
                for carrier in carriers:
                    if (monad, checker, carrier) == ("powerset", "check_monad_laws", 2):
                        continue
                    expect = not (checker == "check_cartesian" and monad in NOT_CARTESIAN)
                    raw.append(("law", monad, checker, carrier, rng.randrange(1 << 30), expect))
        for monad in SET_MONADS:
            for check in LIFTED:
                for _ in range(LIFTED_RELS):
                    rels = (sorted(p for p in PAIRS_2x2 if rng.random() < 0.5),
                            sorted(p for p in PAIRS_2x2 if rng.random() < 0.5))
                    raw.append(("lifted", monad, check, rels, rng.randrange(1 << 30), True))
        for mutant, checker in MUTANTS:
            raw.append(("mutant", mutant, checker, 2, rng.randrange(1 << 30), False))
        rng.shuffle(raw)
        return raw

    def build(self, lib, raw):
        fs, lc = lib.finset, lib.lawcheck
        monads = _monads(lib)
        mutants = _mutant_cases(lib)
        sets = {n: fs.FinSet(["a", "b", "c"][:n]) for n in SET_SIZES}
        posets = lib.poset.ORD.default_sets(2)[:POSETS]
        left, right = fs.FinSet(["1", "2"]), fs.FinSet(["a", "b"])
        items = []
        for kind, name, check, arg, seed, expect in raw:
            if kind == "law":
                t = monads[name]
                kw = dict(samples=SAMPLES, seed=seed)
                if name == "upper":
                    kw["category"] = lib.poset.ORD
                    carrier = posets[arg]
                else:
                    carrier = sets[arg]
                items.append((getattr(lc, check), (t, [carrier]), kw, expect))
            elif kind == "lifted":
                t = monads[name]
                s, s2 = (fs.Rel(left, right, pairs) for pairs in arg)
                if check == "lifted_unit_check":
                    items.append((lib.lifting.lifted_unit_check, (t, s), {}, expect))
                elif check == "lifted_mult_check":
                    items.append((lib.lifting.lifted_mult_check, (t, s),
                                  dict(samples=8, seed=seed), expect))
                else:
                    items.append((lib.lifting.lifted_strength_check, (t, s, s2),
                                  dict(samples=6, seed=seed), expect))
            else:
                t, extra = mutants[name]
                items.append((getattr(lc, check), (t, [sets[arg]]),
                              dict(samples=SAMPLES, seed=seed, **extra), expect))
        return items

    def run(self, lib, item):
        fn, args, kw, _ = item
        return fn(*args, **kw)

    def score(self, lib, item, rep):
        expect = item[3]
        ok = rep.ok == expect and (rep.ok or rep.counterexample is not None)
        return ok, rep.cases, (rep.law, rep.ok, rep.cases)
