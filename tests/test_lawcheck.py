import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import monarel
from monarel import (FinSet, MonadInstance, ORD, SET, RatDist, check_cartesian,
                     check_commutative, check_derived_strengths,
                     check_mediator_laws, check_monad_laws,
                     check_monad_morphism, check_monoidal_morphism,
                     check_strength_laws, check_strong_morphism, dist_monad,
                     nonempty_powerset_monad, powerset_monad, product_delta,
                     standard_battery, subsets, upper_monad, value_key)
from monarel.jsonio import dumps, report_json

SMALL = [FinSet(["a"]), FinSet(["a", "b"])]


def _sample_subset(rng, a):
    elems = sorted(a, key=value_key)
    return frozenset(x for x in elems if rng.random() < 0.5)


def mutant_powerset(**twists):
    """The powerset monad with selected operations replaced."""
    ops = dict(
        unit=lambda x: frozenset([x]),
        map=lambda fn, t, cod: frozenset(fn(x) for x in t),
        mult=lambda tt, obj: frozenset(x for s in tt for x in s),
        strength=lambda x, t: frozenset((x, y) for y in t),
        mediator=lambda t, u: frozenset((x, y) for x in t for y in u),
    )
    ops.update(twists)
    return MonadInstance(
        "powerset-mutant",
        enumerable=True,
        apply=lambda a: FinSet(subsets(a)),
        sample=_sample_subset,
        **ops,
    )


@pytest.fixture(scope="module")
def powerset_battery():
    """One run of the powerset battery on SMALL: it walks the 65,536
    third-level values over {a, b}, so the tests below share it."""
    return standard_battery(powerset_monad(), SMALL, samples=60)


def test_battery_green_for_powerset(powerset_battery):
    for r in powerset_battery:
        assert r.ok, r


def test_battery_green_for_nonempty_powerset():
    for r in standard_battery(nonempty_powerset_monad(), SMALL, samples=60):
        assert r.ok, r


def test_battery_green_for_dist_both_modes():
    for mode in ("probability", "subprobability"):
        for r in standard_battery(dist_monad(mode), SMALL, samples=60):
            assert r.ok, (mode, r)


def test_battery_green_for_upper_on_posets():
    for r in standard_battery(upper_monad(), category=ORD, samples=60):
        assert r.ok, r


CHECKERS = [check_monad_laws, check_strength_laws, check_mediator_laws,
            check_commutative, check_cartesian, check_derived_strengths,
            check_monad_morphism, check_strong_morphism,
            check_monoidal_morphism]


@pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
def test_checkers_default_to_the_monads_category(checker):
    assert powerset_monad().category is SET
    assert upper_monad().category is ORD
    # the upper monad's default grid is made of posets, without category=
    assert (checker(upper_monad(), samples=16)
            == checker(upper_monad(), samples=16, category=ORD))


def test_battery_defaults_to_the_monads_category():
    assert (standard_battery(upper_monad(), samples=16)
            == standard_battery(upper_monad(), samples=16, category=ORD))


def test_report_str_shape():
    r = check_monad_laws(powerset_monad(), [FinSet(["a"])])
    assert str(r).startswith("monad-laws: pass (")
    assert r.cases > 0


def test_cartesian_fails_for_full_powerset_on_the_empty_set():
    r = check_cartesian(powerset_monad())
    assert not r.ok
    alpha, beta = r.counterexample["input"]
    assert beta == frozenset()
    assert r.counterexample["diagram"].startswith("cartesian")


def test_cartesian_holds_for_nonempty_powerset():
    assert check_cartesian(nonempty_powerset_monad()).ok


def test_cartesian_holds_for_probability():
    assert check_cartesian(dist_monad("probability")).ok


def test_cartesian_fails_for_subprobability_on_zero_mass():
    r = check_cartesian(dist_monad("subprobability"))
    assert not r.ok
    _, beta = r.counterexample["input"]
    assert beta.total() == 0


# every mutation is caught by the checker aimed at the broken law

def test_mutant_unit_caught():
    bad = mutant_powerset(unit=lambda x: frozenset())
    r = check_monad_laws(bad, SMALL)
    assert not r.ok and r.counterexample is not None


def test_mutant_mult_caught():
    def lossy_mult(tt, obj):
        flat = sorted((x for s in tt for x in s), key=value_key)
        return frozenset(flat[1:])
    r = check_monad_laws(mutant_powerset(mult=lossy_mult), SMALL)
    assert not r.ok and r.counterexample is not None


def test_mutant_map_caught():
    def lossy_map(fn, t, cod):
        out = sorted((fn(x) for x in t), key=value_key)
        return frozenset(out[:-1])
    r = check_monad_laws(mutant_powerset(map=lossy_map), SMALL)
    assert not r.ok and r.counterexample is not None


def test_mutant_strength_caught():
    def lossy_strength(x, t):
        keep = sorted(t, key=value_key)[1:]
        return frozenset((x, y) for y in keep)
    r = check_strength_laws(mutant_powerset(strength=lossy_strength), SMALL)
    assert not r.ok and r.counterexample is not None


def test_mutant_mediator_caught():
    def lossy_mediator(t, u):
        pairs = sorted(((x, y) for x in t for y in u), key=value_key)
        return frozenset(pairs[:-1])
    r = check_mediator_laws(mutant_powerset(mediator=lossy_mediator), SMALL)
    assert not r.ok and r.counterexample is not None


def test_mutant_asymmetric_mediator_breaks_commutativity():
    def biased(t, u):
        return frozenset((x, y) for x in t for y in u
                         if value_key(x) <= value_key(y))
    r = check_commutative(mutant_powerset(mediator=biased), SMALL)
    assert not r.ok and r.counterexample is not None


def _biased_dist_mediator(t, u):
    # all of u's mass moves to its first support point
    first = u.support()[:1]
    return RatDist({(x, y): w * u.total() for x, w in t.weights.items()
                    for y in first}, "probability")


def _dist(weights):
    return {"mode": "probability", "weights": weights}


# the text and the --json bytes of two failing distribution checks, as
# recorded when the distribution operations still ran in Fraction arithmetic
FAILING_DIST_TEXTS = [
    (check_commutative, ["a", "b"], (
        "commutativity: FAIL (3 cases)\n"
        "  diagram mediator-symmetry: input (RatDist(1*a), RatDist(1/2*a + 1/2*b))\n"
        "  lhs RatDist(1/2*(a,a) + 1/2*(b,a))\n"
        "  rhs RatDist(1*(a,a))"), {
        "cases": 3, "law": "commutativity", "ok": False, "seed": 3,
        "counterexample": {
            "diagram": "mediator-symmetry",
            "input": [_dist({"a": "1"}), _dist({"a": "1/2", "b": "1/2"})],
            "lhs": _dist({"(a,a)": "1/2", "(b,a)": "1/2"}),
            "rhs": _dist({"(a,a)": "1"})}}),
    (check_monoidal_morphism, ["a", "b", "c"], (
        "monoidal-morphism: FAIL (11 cases)\n"
        "  diagram monoidal-morphism-square: input (RatDist(1*(a,a)), "
        "RatDist(2/3*(a,c) + 1/6*(c,b) + 1/6*(c,c)))\n"
        "  lhs (RatDist(1*(a,a)), RatDist(1*(a,c)))\n"
        "  rhs (RatDist(1*(a,a)), RatDist(1*(a,b)))"), {
        "cases": 11, "law": "monoidal-morphism", "ok": False, "seed": 3,
        "counterexample": {
            "diagram": "monoidal-morphism-square",
            "input": [_dist({"(a,a)": "1"}),
                      _dist({"(a,c)": "2/3", "(c,b)": "1/6", "(c,c)": "1/6"})],
            "lhs": [_dist({"(a,a)": "1"}), _dist({"(a,c)": "1"})],
            "rhs": [_dist({"(a,a)": "1"}), _dist({"(a,b)": "1"})]}}),
]


@pytest.mark.parametrize("checker,atoms,text,payload", FAILING_DIST_TEXTS,
                         ids=["commutative", "monoidal-morphism"])
def test_a_failing_dist_check_prints_as_recorded(checker, atoms, text, payload):
    dist = dist_monad("probability")
    mutant = MonadInstance(
        "dist-mutant", enumerable=False, mode="probability",
        unit=dist.v_unit, map=dist.v_map, mult=dist.v_mult,
        strength=dist.v_strength, mediator=_biased_dist_mediator)
    r = checker(mutant, [FinSet(atoms)], samples=16, seed=3)
    assert str(r) == text
    assert dumps(report_json(r)) == json.dumps(payload, sort_keys=True, indent=2)


# each prints a report whose values hold frozensets of several members
SEEDED_REPORTS = {
    "law": ("""\
from monarel import LawReport
print(LawReport("x", False, 1, {"diagram": "d",
    "input": frozenset({"a", "b", "c"}),
    "lhs": frozenset({("a", "b"), ("b", "c")}), "rhs": "member"}))
""", """\
x: FAIL (1 cases)
  diagram d: input frozenset({'a', 'b', 'c'})
  lhs frozenset({('a', 'b'), ('b', 'c')})
  rhs 'member'
"""),
    "bisimulation": ("""\
from monarel import LTS, FinSet, Rel, check_bisimulation
f1 = LTS(FinSet("stuv"), FinSet(["l"]), {("s", "l"): {"t", "u", "v"}})
f2 = LTS(FinSet("wxyz"), FinSet(["l"]), {("w", "l"): {"x", "y", "z"}})
s = Rel(f1.states, f2.states, [("s", "w"), ("t", "x"), ("u", "y")])
print(check_bisimulation(s, f1, f2, Rel.diagonal(f1.labels)))
""", """\
bisimulation: FAIL (1 cases)
  pair ('s', 'w')
  labels ('l', 'l')
  succ (frozenset({'t', 'u', 'v'}), frozenset({'x', 'y', 'z'}))
"""),
    # a basic-lemma counterexample's input is a pair of environments
    "basic-lemma": ("""\
from monarel.lawcheck import run_cases
env1 = {"x": "a0", "m": frozenset({"a0", "a1", "a2"})}
env2 = {"x": "z0", "m": frozenset({"z0", "z1", "z2"})}
print(run_cases("basic-lemma", [("basic-lemma", (env1, env2),
                                 (env1["m"], frozenset()), "member")]))
""", """\
basic-lemma: FAIL (1 cases)
  diagram basic-lemma: input ({'x': 'a0', 'm': frozenset({'a0', 'a1', 'a2'})}, \
{'x': 'z0', 'm': frozenset({'z0', 'z1', 'z2'})})
  lhs (frozenset({'a0', 'a1', 'a2'}), frozenset())
  rhs 'member'
"""),
}


@pytest.mark.parametrize("name", sorted(SEEDED_REPORTS))
def test_a_report_prints_one_text_under_every_hash_seed(name):
    code, text = SEEDED_REPORTS[name]
    src = os.path.dirname(os.path.dirname(monarel.__file__))
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        got = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=10)
        assert (seed, got.returncode, got.stdout, got.stderr) == \
            (seed, 0, text, "")


def test_mutant_delta_caught_by_each_morphism_checker():
    t = powerset_monad()

    def swapped_delta(tm, v, left_obj=None, right_obj=None):
        fst, snd = product_delta(tm, v, left_obj, right_obj)
        return snd, fst

    def lossy_delta(tm, v, left_obj=None, right_obj=None):
        fst, snd = product_delta(tm, v, left_obj, right_obj)
        return frozenset(sorted(fst, key=value_key)[1:]), snd

    for checker in (check_monad_morphism, check_strong_morphism):
        r = checker(t, SMALL, delta=swapped_delta, samples=60)
        assert not r.ok and r.counterexample is not None, checker.__name__
    # the monoidal square routes both paths through delta, so a global
    # swap cancels there; losing mass does not
    r = check_monoidal_morphism(t, SMALL, delta=lossy_delta, samples=60)
    assert not r.ok and r.counterexample is not None


def test_derived_strengths_green_and_seeded():
    a = check_derived_strengths(dist_monad("probability"), SMALL, samples=40,
                                seed=3)
    b = check_derived_strengths(dist_monad("probability"), SMALL, samples=40,
                                seed=3)
    assert a.ok and b.ok and a.cases == b.cases


def test_product_delta_projects_both_ways():
    t = powerset_monad()
    v = frozenset({("a", "x"), ("b", "x")})
    fst, snd = product_delta(t, v)
    assert fst == frozenset({"a", "b"})
    assert snd == frozenset({"x"})


def test_standard_battery_is_deterministic(powerset_battery):
    again = standard_battery(powerset_monad(), SMALL, samples=60)
    assert [str(r) for r in again] == [str(r) for r in powerset_battery]


# (monad, checker, law, ok, cases) on SMALL with samples=16, seed=7; the
# upper monad runs on the first three posets of ORD, and the powerset's
# monad laws on |A| = 1 only (|A| = 2 walks 65,536 values)
PINNED = [
    ("powerset", check_monad_laws, "monad-laws", True, 20),
    ("powerset", check_strength_laws, "strength-laws", True, 129),
    ("powerset", check_mediator_laws, "mediator-laws", True, 637),
    ("powerset", check_commutative, "commutativity", True, 36),
    ("powerset", check_derived_strengths, "derived-strengths", True, 126),
    ("powerset", check_monad_morphism, "monad-morphism", True, 53),
    ("powerset", check_strong_morphism, "strong-morphism", True, 234),
    ("powerset", check_monoidal_morphism, "monoidal-morphism", True, 676),
    ("powerset", check_cartesian, "cartesianness", False, 3),
    ("nonempty-powerset", check_monad_laws, "monad-laws", True, 136),
    ("nonempty-powerset", check_strength_laws, "strength-laws", True, 73),
    ("nonempty-powerset", check_mediator_laws, "mediator-laws", True, 145),
    ("nonempty-powerset", check_commutative, "commutativity", True, 16),
    ("nonempty-powerset", check_derived_strengths, "derived-strengths", True, 68),
    ("nonempty-powerset", check_monad_morphism, "monad-morphism", True, 32),
    ("nonempty-powerset", check_strong_morphism, "strong-morphism", True, 198),
    ("nonempty-powerset", check_monoidal_morphism, "monoidal-morphism", True, 484),
    ("nonempty-powerset", check_cartesian, "cartesianness", True, 32),
    ("probability", check_monad_laws, "monad-laws", True, 58),
    ("probability", check_strength_laws, "strength-laws", True, 118),
    ("probability", check_mediator_laws, "mediator-laws", True, 499),
    ("probability", check_commutative, "commutativity", True, 169),
    ("probability", check_derived_strengths, "derived-strengths", True, 401),
    ("probability", check_monad_morphism, "monad-morphism", True, 34),
    ("probability", check_strong_morphism, "strong-morphism", True, 153),
    ("probability", check_monoidal_morphism, "monoidal-morphism", True, 289),
    ("probability", check_cartesian, "cartesianness", True, 338),
    ("subprobability", check_monad_laws, "monad-laws", True, 68),
    ("subprobability", check_strength_laws, "strength-laws", True, 168),
    ("subprobability", check_mediator_laws, "mediator-laws", True, 1894),
    ("subprobability", check_commutative, "commutativity", True, 324),
    ("subprobability", check_derived_strengths, "derived-strengths", True, 756),
    ("subprobability", check_monad_morphism, "monad-morphism", True, 34),
    ("subprobability", check_strong_morphism, "strong-morphism", True, 270),
    ("subprobability", check_monoidal_morphism, "monoidal-morphism", True, 900),
    ("subprobability", check_cartesian, "cartesianness", False, 3),
    ("upper", check_monad_laws, "monad-laws", True, 20),
    ("upper", check_strength_laws, "strength-laws", True, 216),
    ("upper", check_mediator_laws, "mediator-laws", True, 302),
    ("upper", check_commutative, "commutativity", True, 36),
    ("upper", check_derived_strengths, "derived-strengths", True, 222),
    ("upper", check_monad_morphism, "monad-morphism", True, 88),
    ("upper", check_strong_morphism, "strong-morphism", True, 1175),
    ("upper", check_monoidal_morphism, "monoidal-morphism", True, 2209),
    ("upper", check_cartesian, "cartesianness", True, 72),
]


@pytest.mark.parametrize("monad,checker,law,ok,cases", PINNED,
                         ids=[f"{m}-{c.__name__}" for m, c, *_ in PINNED])
def test_case_enumeration_is_pinned(monad, checker, law, ok, cases):
    kw = {}
    grid = SMALL
    if monad == "powerset":
        t = powerset_monad()
        if checker is check_monad_laws:
            grid = [FinSet(["a"])]
    elif monad == "nonempty-powerset":
        t = nonempty_powerset_monad()
    elif monad == "upper":
        t, grid, kw = upper_monad(), ORD.default_sets(2)[:3], {"category": ORD}
    else:
        t = dist_monad(monad)
    r = checker(t, grid, samples=16, seed=7, **kw)
    assert (r.law, r.ok, r.cases) == (law, ok, cases)
    assert r.ok == (r.counterexample is None)


def test_a_grid_without_cases_is_an_error():
    with pytest.raises(ValueError, match="strong-morphism"):
        check_strong_morphism(powerset_monad(), [FinSet([])])


def test_a_second_level_carrier_above_the_cap_is_an_error():
    # a x a has 9 pairs, above the cap of 8 on the morphism's T T level
    with pytest.raises(ValueError, match="^carrier too large to enumerate$"):
        check_monad_morphism(powerset_monad(), [FinSet(["a", "b", "c"])])
