import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_lawcheck import mutant_powerset

from monarel import (ORD, FinSet, RatDist, atom_key, atom_str, corner_dists,
                     dist_monad, monads, nonempty_powerset_monad,
                     powerset_monad, random_dist, upper_monad, value_key)

F = Fraction


def test_ratdist_probability_must_sum_to_one():
    with pytest.raises(ValueError):
        RatDist({"x": F(1, 2)}, "probability")
    RatDist({"x": F(1, 2)}, "subprobability")


def test_ratdist_rejects_negative_and_overweight():
    with pytest.raises(ValueError):
        RatDist({"x": F(-1, 2), "y": F(3, 2)}, "probability")
    with pytest.raises(ValueError):
        RatDist({"x": F(3, 2)}, "subprobability")


def test_ratdist_rejects_unknown_mode():
    with pytest.raises(ValueError):
        RatDist({"x": F(1)}, "affine")


def test_ratdist_drops_zero_weights():
    nu = RatDist({"x": F(1), "y": F(0)}, "probability")
    assert sorted(nu.support()) == ["x"]


def test_ratdist_equality_ignores_carrier():
    a = RatDist({"x": F(1)}, "probability", carrier=FinSet(["x", "y"]))
    b = RatDist({"x": F(1)}, "probability")
    assert a == b
    assert hash(a) == hash(b)
    assert a != RatDist({"x": F(1)}, "subprobability")


def test_ratdist_mass_and_total():
    nu = RatDist({"x": F(1, 3), "y": F(2, 3)}, "probability")
    assert nu.mass(["x"]) == F(1, 3)
    assert nu.mass(["x", "y"]) == F(1)
    assert nu.mass([]) == F(0)
    assert nu.total() == F(1)


def test_dirac_and_zero():
    assert RatDist.dirac("x").weights == {"x": F(1)}
    assert RatDist.zero("subprobability").total() == F(0)


def test_corner_dists_cover_vertices():
    cs = corner_dists(FinSet(["a", "b"]), "probability")
    weights = [sorted(d.weights.items()) for d in cs]
    assert [("a", F(1))] in weights
    assert [("b", F(1))] in weights


def _agrees_with_the_oracle(weights, mode, carrier=None, den=None):
    """RatDist keeps the oracle's weights, in its order and as Fractions,
    with its total, or raises its message.  Integer numerators over den
    are the rationals n/den to the oracle.  Returns the outcome."""
    rationals = weights if den is None else {
        x: Fraction(n, den) for x, n in weights.items()}
    try:
        want, total = oracles.validated_weights(rationals, mode, carrier)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            RatDist(weights, mode, carrier, den)
        assert str(got.value) == str(e)
        words = str(e).split()
        if words[1] == "mass":
            return f"{words[0]} {'below' if F(words[2]) < 1 else 'above'}"
        return " ".join(words[:2])
    nu = RatDist(weights, mode, carrier, den)
    assert list(nu.weights.items()) == list(want.items())
    assert all(type(w) is Fraction for w in nu.weights.values())
    assert nu.total() == total
    return f"{mode} {'exactly' if total == 1 else 'below'}"


def _weights_of_every_form(rng, atoms):
    """Fraction, int and str weights over atoms, with zeros, now and then
    a negative one, and a mass of exactly 1 about half the time."""
    d = rng.choice([1, 2, 3, 4, 6, 12])
    if rng.random() < 0.5:
        cuts = sorted(rng.randint(0, d) for _ in atoms[1:])
        nums = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    else:
        nums = [rng.randint(0, d) for _ in atoms]
    if atoms and rng.random() < 0.1:
        nums[rng.randrange(len(nums))] = -rng.randint(1, d)
    forms = [lambda n: F(n, d), lambda n: f"{n}/{d}",
             lambda n: n // d if n % d == 0 else F(n, d)]
    return {x: rng.choice(forms)(n) for x, n in zip(atoms, nums)}


def test_ratdist_agrees_with_the_fraction_arithmetic_oracle():
    rng = random.Random(6)
    carrier = FinSet(["a", "b", "c"])
    outcomes = set()
    for _ in range(600):
        atoms = rng.sample(["a", "b", "c", "z"], rng.randint(0, 4))
        weights = _weights_of_every_form(rng, atoms)
        for mode in ("probability", "subprobability"):
            outcomes.add(_agrees_with_the_oracle(
                weights, mode, rng.choice([carrier, None])))
    assert outcomes == {
        f"{mode} {mass}" for mode in ("probability", "subprobability")
        for mass in ("exactly", "below", "above")
    } | {"negative weight", "support element"}


def test_numerators_over_a_denominator_agree_with_the_oracle():
    # unreduced numerators, zeros and now and then a negative one
    rng = random.Random(8)
    carrier = FinSet(["a", "b", "c"])
    outcomes = set()
    for _ in range(600):
        atoms = rng.sample(["a", "b", "c", "z"], rng.randint(0, 4))
        den = rng.choice([1, 2, 3, 4, 6, 12]) * rng.randint(1, 3)
        nums = {x: rng.randint(-1 if rng.random() < 0.1 else 0, den)
                for x in atoms}
        for mode in ("probability", "subprobability"):
            outcomes.add(_agrees_with_the_oracle(
                nums, mode, rng.choice([carrier, None]), den))
    assert outcomes == {
        f"{mode} {mass}" for mode in ("probability", "subprobability")
        for mass in ("exactly", "below", "above")
    } | {"negative weight", "support element"}


def test_dist_operations_build_what_the_oracle_accepts(monkeypatch):
    outcomes = []

    class Checked(RatDist):
        __slots__ = ()

        def __init__(self, weights, mode, carrier=None, den=None):
            outcomes.append(_agrees_with_the_oracle(weights, mode, carrier, den))
            super().__init__(weights, mode, carrier, den)

    monkeypatch.setattr(monads, "RatDist", Checked)
    rng = random.Random(7)
    carrier = FinSet(["a", "b", "c"])
    image = {"a": "x", "b": "x", "c": "y"}
    for mode in ("probability", "subprobability"):
        t = dist_monad(mode)
        for _ in range(40):
            nu, mu = (random_dist(rng, carrier, mode) for _ in range(2))
            outer = random_dist(rng, [nu, mu, random_dist(rng, carrier, mode)],
                                mode)
            t.v_map(image.get, nu, FinSet(["x", "y"]))
            t.v_mult(outer, carrier)
            t.v_strength("p", nu)
            t.v_mediator(nu, mu)
    assert len(outcomes) == 320
    assert set(outcomes) == {"probability exactly", "subprobability exactly",
                             "subprobability below"}


def _same_value(got, want):
    """got holds want's weights, as Fractions and in its order, its mode
    and carrier, and prints and sorts as it does."""
    assert list(got.weights.items()) == list(want.weights.items())
    assert all(type(w) is Fraction for w in got.weights.values())
    assert (got.mode, got.carrier) == (want.mode, want.carrier)
    assert repr(got) == repr(want)
    assert atom_key(got) == atom_key(want)


def test_integer_dist_operations_agree_with_the_fraction_oracle():
    rng = random.Random(9)
    carrier, cod = FinSet(["a", "b", "c"]), FinSet(["x", "y"])
    image = {"a": "x", "b": "x", "c": "y"}
    for mode in ("probability", "subprobability"):
        t = dist_monad(mode)
        got, want = [], []
        for _ in range(40):
            nu, mu = (random_dist(rng, carrier, mode) for _ in range(2))
            # distributions over distributions
            inner = [nu, mu, random_dist(rng, carrier, mode)]
            tt, uu = (random_dist(rng, inner, mode) for _ in range(2))
            cases = [
                (t.v_map(image.get, nu, cod),
                 oracles.fraction_map(mode, image.get, nu, cod)),
                (t.v_map(lambda d: t.v_map(image.get, d), tt),
                 oracles.fraction_map(mode, lambda d: oracles.fraction_map(
                     mode, image.get, d, None), tt, None)),
                (t.v_mult(tt, carrier),
                 oracles.fraction_mult(mode, tt, carrier)),
                (t.v_mult(uu), oracles.fraction_mult(mode, uu, None)),
                (t.v_strength("p", nu), oracles.fraction_strength(mode, "p", nu)),
                (t.v_strength(mu, tt), oracles.fraction_strength(mode, mu, tt)),
                (t.v_mediator(nu, mu), oracles.fraction_mediator(mode, nu, mu)),
                (t.v_mediator(tt, uu), oracles.fraction_mediator(mode, tt, uu)),
            ]
            for value, reference in cases:
                _same_value(value, reference)
                got.append(value)
                want.append(reference)
        # == gives the verdicts of equal Fraction weights, and equal
        # values hash alike, across the two arithmetics too
        weights = [(w.mode, dict(w.weights)) for w in want]
        equal_pairs = 0
        for g1, w1, k1 in zip(got, want, weights):
            assert g1 == w1 and hash(g1) == hash(w1)
            for g2, w2, k2 in zip(got, want, weights):
                assert (g1 == g2) == (w1 == w2) == (k1 == k2)
                if k1 == k2:
                    assert hash(g1) == hash(g2) == hash(w2)
                    equal_pairs += g1 is not g2
        assert equal_pairs > 0


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_dist_is_a_distribution(seed, n):
    rng = random.Random(seed)
    carrier = [f"a{i}" for i in range(n)]
    nu = random_dist(rng, carrier, "probability")
    assert nu.total() == F(1)
    assert set(nu.support()) <= set(carrier)
    mu = random_dist(random.Random(seed), carrier, "subprobability")
    assert mu.total() <= F(1)


def test_random_dist_is_seed_deterministic():
    a = random_dist(random.Random(5), ["x", "y", "z"], "probability")
    b = random_dist(random.Random(5), ["x", "y", "z"], "probability")
    assert a == b


def test_powerset_ops():
    t = powerset_monad()
    assert t.v_unit("a") == frozenset({"a"})
    assert t.v_map(str.upper, frozenset("ab")) == frozenset("AB")
    tt = frozenset({frozenset("a"), frozenset("bc")})
    assert t.v_mult(tt) == frozenset("abc")
    assert t.v_strength("x", frozenset("ab")) == frozenset(
        {("x", "a"), ("x", "b")})
    med = t.v_mediator(frozenset("ab"), frozenset("c"))
    assert med == frozenset({("a", "c"), ("b", "c")})


def test_powerset_apply_sizes():
    t = powerset_monad()
    assert len(t.apply(FinSet(["a", "b"]))) == 4
    assert len(nonempty_powerset_monad().apply(FinSet(["a", "b"]))) == 3


@pytest.mark.parametrize("monad", [powerset_monad, nonempty_powerset_monad])
def test_size_counts_the_values_of_t(monad):
    m = monad()
    atoms = ["a", "b", "c", "d", "e"]
    for n in range(6):
        assert m.size(n) == len(m.apply(FinSet(atoms[:n]))), n


def test_size_bounds_the_antichains_of_upper():
    t = upper_monad()
    for p in ORD.default_sets(3):
        for q in (p, t.apply(p)):
            assert t.size(len(q)) >= len(t.apply(q)), q


def test_size_is_none_for_dist_and_read_off_apply_for_a_mutant():
    assert dist_monad("probability").size(3) is None
    # built with the keywords alone, the mutant's apply holds the empty set
    m = mutant_powerset()
    assert [m.size(n) for n in range(6)] == [2 ** n for n in range(6)]


def test_dist_mediator_is_the_product_distribution():
    t = dist_monad("probability")
    nu = RatDist({"x": F(1, 2), "y": F(1, 2)}, "probability")
    med = t.v_mediator(nu, RatDist.dirac("z"))
    assert med.weights == {("x", "z"): F(1, 2), ("y", "z"): F(1, 2)}


def test_dist_mult_averages():
    t = dist_monad("probability")
    inner1 = RatDist({"a": F(1)}, "probability")
    inner2 = RatDist({"a": F(1, 2), "b": F(1, 2)}, "probability")
    outer = RatDist({inner1: F(1, 2), inner2: F(1, 2)}, "probability")
    flat = t.v_mult(outer)
    assert flat.weights == {"a": F(3, 4), "b": F(1, 4)}


def test_dist_map_pushes_mass_forward():
    t = dist_monad("probability")
    nu = RatDist({"x": F(1, 2), "y": F(1, 2)}, "probability")
    assert t.v_map(lambda _: "z", nu).weights == {"z": F(1)}


def test_dist_strength():
    t = dist_monad("probability")
    nu = RatDist({"a": F(1, 3), "b": F(2, 3)}, "probability")
    out = t.v_strength("p", nu)
    assert out.weights == {("p", "a"): F(1, 3), ("p", "b"): F(2, 3)}


def test_value_key_total_order_on_mixed_values():
    vals = [frozenset("a"), frozenset(), frozenset("ab")]
    assert sorted(vals, key=value_key)[0] == frozenset()
    nu = RatDist({"x": F(1)}, "probability")
    mu = RatDist({"y": F(1)}, "probability")
    assert value_key(nu) != value_key(mu)


def _nested_value(rng, depth):
    """An atom, pair, set or distribution, nested up to depth levels."""
    kind = rng.randrange(4) if depth else 0
    if kind == 0:
        return rng.choice("abc")
    if kind == 1:
        return (_nested_value(rng, depth - 1), _nested_value(rng, depth - 1))
    # a probability distribution needs a nonempty support
    inner = [_nested_value(rng, depth - 1)
             for _ in range(rng.randint(0 if kind == 2 else 1, 3))]
    if kind == 2:
        return frozenset(inner)
    return random_dist(rng, inner, rng.choice(monads.MODES))


def test_one_key_orders_every_value_as_the_old_value_key_did():
    assert value_key is monads.value_key is atom_key
    rng = random.Random(12)
    vals = [_nested_value(rng, 3) for _ in range(400)]
    assert any(isinstance(v, RatDist)
               and any(isinstance(x, RatDist) for x in v.weights)
               for v in vals)
    for v in vals:
        assert atom_key(v) == oracles.value_key(v)
        assert atom_str(v) == oracles.flat_text(v)
    assert sorted(vals, key=atom_key) == sorted(vals, key=oracles.value_key)


def test_monad_instance_names():
    assert powerset_monad().name == "powerset"
    assert nonempty_powerset_monad().name == "nonempty-powerset"
    assert dist_monad("probability").name == "dist-probability"
    assert dist_monad("subprobability").name == "dist-subprobability"
    with pytest.raises(ValueError):
        dist_monad("affine")


@pytest.mark.parametrize("call,message", [
    (lambda: RatDist({"a": 1}, "probability", den=0),
     "^denominator 0 is not positive$"),
    (lambda: random_dist(random.Random(0), [], "probability"),
     "^probability distribution over an empty carrier$"),
    (lambda: dist_monad().apply(FinSet(["a"])),
     "^monad dist-probability is not enumerable$"),
    (lambda: dist_monad().sample(random.Random(0), FinSet(["a"])),
     "^monad dist-probability has no value sampler$"),
], ids=["zero-denominator", "empty-carrier", "dist-apply", "dist-sample"])
def test_distributions_refuse_inputs_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()
