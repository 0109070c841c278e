import copy
import itertools
import json
import random
from fractions import Fraction

import pytest

import oracles
from test_lawcheck import mutant_powerset

from monarel import (FinSet, LawReport, Model, RatDist, Rel,
                     converse_coupling, dist_monad,
                     lift_enumerate, lift_member_dist,
                     lift_member_dist_saturated, lift_member_powerset,
                     lifted_mult_check, lifted_strength_check,
                     lifted_unit_check,
                     logical_relation, nonempty_powerset_monad, parse_ty,
                     powerset_monad, random_dist, saturate, subsets,
                     upper_monad)
from monarel.bisim import PLTS, check_prob_bisimulation
from monarel.jsonio import dumps, report_json
from monarel.lifting import class_sides

F = Fraction

A12 = FinSet(["1", "2"])
AB = FinSet(["a", "b"])
S_STAIR = Rel(A12, AB, [("1", "a"), ("2", "a"), ("2", "b")])


def all_rels(n, m):
    left = FinSet([f"l{i}" for i in range(n)])
    right = FinSet([f"r{j}" for j in range(m)])
    universe = [(a, b) for a in left for b in right]
    for pairs in subsets(universe):
        yield Rel(left, right, pairs)


# ------------------------------------------------------------ powerset

def test_lift_enumerate_stair_relation():
    lifted = lift_enumerate(powerset_monad(), S_STAIR)
    want = {
        (frozenset(), frozenset()),
        (frozenset({"1"}), frozenset({"a"})),
        (frozenset({"2"}), frozenset({"a"})),
        (frozenset({"2"}), frozenset({"b"})),
        (frozenset({"2"}), frozenset({"a", "b"})),
        (frozenset({"1", "2"}), frozenset({"a"})),
        (frozenset({"1", "2"}), frozenset({"a", "b"})),
    }
    assert lifted.pairs == want


def test_lift_enumerate_matches_projection_oracle():
    for s in all_rels(2, 2):
        got = lift_enumerate(powerset_monad(), s).pairs
        assert got == oracles.powerset_lift_pairs(s)


def test_lift_member_agrees_with_realization_search():
    t = powerset_monad()
    for s in all_rels(2, 2):
        for b1 in subsets(s.left):
            for b2 in subsets(s.right):
                want = oracles.realization_exists(b1, b2, s)
                assert lift_member_powerset(b1, b2, s) == want
                assert oracles.egli_milner(b1, b2, s) == want


def test_lift_member_rejects_carrier_escape():
    with pytest.raises(ValueError):
        lift_member_powerset(frozenset({"z"}), frozenset({"a"}), S_STAIR)


def test_lift_is_monotone_in_the_relation():
    t = powerset_monad()
    small = Rel(A12, AB, [("1", "a")])
    assert lift_enumerate(t, small).pairs <= lift_enumerate(t, S_STAIR).pairs


def test_lift_of_diagonal_is_diagonal():
    t = powerset_monad()
    lifted = lift_enumerate(t, Rel.diagonal(AB))
    assert lifted.pairs == {(v, v) for v in t.apply(AB)}


def test_nonempty_powerset_drops_the_empty_pair():
    lifted = lift_enumerate(nonempty_powerset_monad(), S_STAIR)
    assert (frozenset(), frozenset()) not in lifted.pairs
    full = lift_enumerate(powerset_monad(), S_STAIR)
    assert lifted.pairs == full.pairs - {(frozenset(), frozenset())}



@pytest.mark.parametrize("t", [powerset_monad(), nonempty_powerset_monad()],
                         ids=lambda t: t.name)
def test_related_agrees_with_the_enumerated_lifting(t):
    # lift_enumerate, the image of T(S), is the reference definition
    for n, m in itertools.product(range(3), repeat=2):
        for s in all_rels(n, m):
            lifted = lift_enumerate(t, s).pairs
            for v1 in t.apply(s.left):
                for v2 in t.apply(s.right):
                    assert bool(t.related(v1, v2, s)) == ((v1, v2) in lifted)


# the union closure behind t.lift against the walk of T S it replaces

POWERSETS = pytest.mark.parametrize(
    "t", [powerset_monad(), nonempty_powerset_monad()], ids=lambda t: t.name)


def _oracle_lift(t, s):
    pairs = oracles.powerset_lift_pairs(s)
    if t.name == "nonempty-powerset":
        pairs.discard((frozenset(), frozenset()))
    return pairs


@POWERSETS
def test_lift_agrees_with_lift_enumerate_up_to_3x3(t):
    for n, m in itertools.product(range(4), repeat=2):
        for s in all_rels(n, m):
            assert t.lift(s) == lift_enumerate(t, s)


@POWERSETS
def test_lift_agrees_with_the_projection_oracle_on_4x4(t):
    rng = random.Random(4)
    left, right = FinSet(["1", "2", "3", "4"]), FinSet(["a", "b", "c", "d"])
    universe = [(x, y) for x in left for y in right]
    for k in range(len(universe) + 1):
        for _ in range(2):
            s = Rel(left, right, rng.sample(universe, k))
            assert t.lift(s).pairs == _oracle_lift(t, s)


@POWERSETS
def test_powersets_lift_without_walking_t_s(t, monkeypatch):
    def walk(t, s):
        raise AssertionError("walked T S")

    monkeypatch.setattr("monarel.monads.lift_enumerate", walk)
    assert t.lift(S_STAIR).pairs == _oracle_lift(t, S_STAIR)


@POWERSETS
def test_lift_of_a_12_pair_matching_has_every_subset_pair(t):
    atoms = range(12)
    s = Rel([f"l{i:02}" for i in atoms], [f"r{i:02}" for i in atoms],
            [(f"l{i:02}", f"r{i:02}") for i in atoms])
    lifted = t.lift(s)
    assert lifted.pairs == _oracle_lift(t, s)
    assert len(lifted.pairs) == len(t.apply(s.left))


def test_list_carriers_give_the_same_relation_and_lifting():
    pairs = [("a", "x"), ("b", "z"), ("c", "x")]
    listed = Rel(["c", "a", "b"], ["z", "y", "x"], pairs)
    sets = Rel(FinSet(["a", "b", "c"]), FinSet(["x", "y", "z"]), pairs)
    assert listed == sets and hash(listed) == hash(sets)
    assert isinstance(listed.left, FinSet) and isinstance(listed.right, FinSet)
    for t in (powerset_monad(), nonempty_powerset_monad()):
        assert t.lift(listed) == t.lift(sets)
        assert lift_enumerate(t, listed) == lift_enumerate(t, sets)


def _lifted_checks(t, rels):
    """Every lifted mult and strength report over the given relations."""
    return [check for s in rels for s2 in rels[:3] for check in (
        lifted_mult_check(t, s, samples=20, seed=5),
        lifted_strength_check(t, s, s2, samples=20, seed=5))]


def _some_rels():
    rng = random.Random(6)
    rels = [S_STAIR, Rel(A12, AB, []), Rel(A12, AB, [("1", "a"), ("2", "b")])]
    for n, m in ((2, 3), (3, 3)):
        left, right = [f"l{i}" for i in range(n)], [f"r{j}" for j in range(m)]
        universe = list(itertools.product(left, right))
        for k in (1, 4, len(universe)):
            rels.append(Rel(left, right, rng.sample(universe, k)))
    return rels


@POWERSETS
def test_lifted_checks_agree_with_the_enumerating_copy(t):
    rels = _some_rels()
    assert (_lifted_checks(t, rels)
            == _lifted_checks(oracles.enumerating_lift(t), rels))


@POWERSETS
def test_failing_lifted_mult_agrees_with_the_enumerating_copy(t):
    lossy = copy.copy(t)
    lossy._mult = lambda tt, obj: frozenset(
        sorted((x for s in tt for x in s), key=str)[1:])
    slow = oracles.enumerating_lift(lossy)
    fast = [lifted_mult_check(lossy, s, samples=20, seed=5)
            for s in _some_rels()]
    assert fast == [lifted_mult_check(slow, s, samples=20, seed=5)
                    for s in _some_rels()]
    assert not all(r.ok for r in fast)


def _relation_or_error(m1, m2, base, ty):
    try:
        return logical_relation(m1, m2, base, ty)
    except ValueError as e:
        return str(e)


@POWERSETS
def test_logical_relation_at_t_types_agrees_with_the_enumerating_copy(t):
    slow = oracles.enumerating_lift(t)
    b1, b2 = FinSet(["a0", "a1"]), FinSet(["z0", "z1"])
    universe = [(x, y) for x in b1 for y in b2]
    got = []
    for ty in ("T b", "T (T b)", "T (b * b)"):
        for pairs in subsets(universe):
            base = {"b": Rel(b1, b2, pairs)}
            fast = _relation_or_error(Model(t, {"b": b1}), Model(t, {"b": b2}),
                                      base, parse_ty(ty))
            assert fast == _relation_or_error(
                Model(slow, {"b": b1}), Model(slow, {"b": b2}), base,
                parse_ty(ty))
            got.append(isinstance(fast, Rel))
    # T (b * b) over more than 10 related pairs is refused by both paths
    assert any(got) and not all(got)


def test_related_rejects_values_outside_the_monad():
    one = frozenset({"1"})
    with pytest.raises(ValueError):
        nonempty_powerset_monad().related(frozenset(), frozenset(), S_STAIR)
    with pytest.raises(ValueError):
        powerset_monad().related(frozenset({"z"}), one, S_STAIR)
    sub1 = RatDist({"1": F(1, 2)}, "subprobability")
    sub2 = RatDist({"a": F(1, 2)}, "subprobability")
    assert dist_monad("subprobability").related(sub1, sub2, S_STAIR)
    with pytest.raises(ValueError):
        dist_monad("probability").related(sub1, sub2, S_STAIR)
    with pytest.raises(ValueError):
        dist_monad("subprobability").related(one, one, S_STAIR)
    for t in (upper_monad(), mutant_powerset()):
        with pytest.raises(ValueError):
            t.related(one, frozenset({"a"}), S_STAIR)


# ------------------------------------------------------ dist membership

def half(x, y):
    return RatDist({x: F(1, 2), y: F(1, 2)}, "probability")


def test_coupling_found_on_the_stair_relation():
    res = lift_member_dist(half("1", "2"), half("a", "b"), S_STAIR)
    assert res.member and bool(res)
    assert res.witness.weights == {("1", "a"): F(1, 2), ("2", "b"): F(1, 2)}
    assert res.witness.carrier is None
    assert res.violated is None


def test_witness_has_exact_marginals_and_support():
    res = lift_member_dist(half("1", "2"), half("a", "b"), S_STAIR)
    assert oracles.coupling_valid(res.witness, half("1", "2"),
                                  half("a", "b"), S_STAIR)


def test_coupling_answers_print_as_recorded():
    # recorded when lift_member_dist still cleared Fraction denominators
    s = Rel(["1", "2", "3"], AB, [("1", "a"), ("2", "a"), ("3", "b")])
    step = {"1": F(1, 3), "2": F(1, 4), "3": F(5, 12)}
    nu1 = RatDist(step, "probability", s.left)
    f1 = PLTS(["1", "2", "3"], ["l"],
              {("1", "l"): step, ("2", "l"): step, ("3", "l"): {"3": 1}})
    f2 = PLTS(AB, ["l"], {("a", "l"): {"a": F(1, 2), "b": F(1, 2)},
                          ("b", "l"): {"b": 1}})
    assert str(lift_member_dist(nu1, f2.step("a", "l"), s)) == (
        "CouplingResult(member=False, witness=None, violated=('1', '2'))")
    full = Rel(s.left, AB, [(x, y) for x in s.left for y in AB])
    nu2 = RatDist({"a": F(7, 12), "b": F(5, 12)}, "probability", AB)
    assert str(lift_member_dist(nu1, nu2, full)) == (
        "CouplingResult(member=True, witness=RatDist("
        "1/3*(1,a) + 1/4*(2,a) + 5/12*(3,b)), violated=None)")
    r = check_prob_bisimulation(s, f1, f2, Rel.diagonal(FinSet(["l"])))
    assert str(r) == (
        "bisimulation: FAIL (1 cases)\n"
        "  pair ('1', 'a')\n"
        "  labels ('l', 'l')\n"
        "  succ (RatDist(1/3*1 + 1/4*2 + 5/12*3), RatDist(1/2*a + 1/2*b))\n"
        "  violated ('1', '2')")
    assert dumps(report_json(r)) == json.dumps({
        "cases": 1, "law": "bisimulation", "ok": False,
        "counterexample": {
            "labels": ["l", "l"], "pair": ["1", "a"],
            "succ": [{"mode": "probability",
                      "weights": {"1": "1/3", "2": "1/4", "3": "5/12"}},
                     {"mode": "probability",
                      "weights": {"a": "1/2", "b": "1/2"}}],
            "violated": ["1", "2"]}}, sort_keys=True, indent=2)


def test_infeasible_pair_yields_a_violated_subset():
    res = lift_member_dist(RatDist.dirac("1"), half("a", "b"),
                           Rel(A12, AB, [("1", "a"), ("2", "b")]))
    assert not res.member
    assert res.violated == ("1",)
    assert res.witness is None


def test_violated_subset_certifies_infeasibility():
    rng = random.Random(13)
    s = Rel(A12, AB, [("1", "a"), ("2", "b")])
    for _ in range(200):
        nu1 = random_dist(rng, list(A12), "probability")
        nu2 = random_dist(rng, list(AB), "probability")
        res = lift_member_dist(nu1, nu2, s)
        if res.member:
            assert oracles.coupling_valid(res.witness, nu1, nu2, s)
        else:
            u = res.violated
            image = {b for a in u for a2, b in s.pairs if a2 == a}
            assert nu1.mass(u) > nu2.mass(image)


def test_membership_matches_subset_condition_oracle():
    rng = random.Random(99)
    for s in all_rels(2, 2):
        for _ in range(6):
            nu1 = random_dist(rng, list(s.left), "probability")
            nu2 = random_dist(rng, list(s.right), "probability")
            assert bool(lift_member_dist(nu1, nu2, s)) == \
                oracles.strassen_ok(nu1, nu2, s)



@pytest.mark.parametrize("mode", ["probability", "subprobability"])
def test_dist_related_matches_subset_condition_oracle(mode):
    t = dist_monad(mode)
    rng = random.Random(41)
    for s in all_rels(2, 2):
        for _ in range(6):
            nu1 = random_dist(rng, list(s.left), mode)
            nu2 = random_dist(rng, list(s.right), mode)
            got = t.related(nu1, nu2, s)
            assert bool(got) == oracles.strassen_ok(nu1, nu2, s)
            if got:
                assert oracles.coupling_valid(got.witness, nu1, nu2, s)


def test_subprobability_membership():
    s = Rel(A12, AB, [("1", "a")])
    nu1 = RatDist({"1": F(1, 2)}, "subprobability")
    nu2 = RatDist({"a": F(1, 2)}, "subprobability")
    assert lift_member_dist(nu1, nu2, s).member
    zero = RatDist.zero("subprobability")
    res = lift_member_dist(zero, zero, s)
    assert res.member and res.witness.total() == 0


def test_unequal_totals_are_not_members():
    s = Rel(A12, AB, [("1", "a")])
    nu1 = RatDist({"1": F(1, 2)}, "subprobability")
    nu2 = RatDist({"a": F(1, 4)}, "subprobability")
    assert not lift_member_dist(nu1, nu2, s).member


def test_mode_mismatch_is_an_error():
    s = Rel(A12, AB, [("1", "a")])
    with pytest.raises(ValueError):
        lift_member_dist(RatDist.dirac("1"),
                         RatDist({"a": F(1, 2)}, "subprobability"), s)


def test_dist_membership_rejects_carrier_escape():
    # the flow decider, the class-mass decider and the converse coupling
    # all refuse a pair outside T A1 x T A2, on either side
    full = saturate(S_STAIR)[1]
    one, a = RatDist.dirac("1"), RatDist.dirac("a")
    z, y = RatDist.dirac("z"), RatDist.dirac("y")
    wide = FinSet(["1", "2", "3"])
    cases = [
        (z, a, "left support leaves the carrier"),
        (one, y, "right support leaves the carrier"),
        (z, y, "left support leaves the carrier"),
        # a recorded carrier must be the relation's side, not just contain it
        (RatDist.dirac("1", carrier=wide), a, "left carrier mismatch"),
        (one, RatDist.dirac("a", carrier=FinSet(["a"])), "right carrier mismatch"),
        (one, RatDist.dirac("a", carrier=FinSet(["a", "b", "c"])),
         "right carrier mismatch"),
    ]
    for decide in (lift_member_dist, lift_member_dist_saturated,
                   converse_coupling):
        for nu1, nu2, message in cases:
            with pytest.raises(ValueError, match=f"^{message}$"):
                decide(nu1, nu2, full)
    with pytest.raises(ValueError, match="^left support leaves the carrier$"):
        lift_member_dist(z, a, S_STAIR)


def test_diagonal_dist_membership_is_equality():
    rng = random.Random(3)
    d = Rel.diagonal(AB)
    for _ in range(60):
        nu1 = random_dist(rng, list(AB), "probability")
        nu2 = random_dist(rng, list(AB), "probability")
        assert bool(lift_member_dist(nu1, nu2, d)) == (nu1 == nu2)


# ------------------------------------------------- saturation machinery

def test_saturate_stair_prefix():
    s = Rel(A12, AB, [("1", "a"), ("2", "a")])
    classes, closure = saturate(s)
    assert classes == [frozenset({("L", "1"), ("L", "2"), ("R", "a")}),
                       frozenset({("R", "b")})]
    assert ("2", "a") in closure.pairs and ("1", "b") not in closure.pairs


def test_saturate_is_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        pairs = [(a, b) for a in A12 for b in AB if rng.random() < 0.4]
        s = Rel(A12, AB, pairs)
        _, closure = saturate(s)
        _, again = saturate(closure)
        assert closure.pairs == again.pairs
        assert saturate(closure)[1] == closure


def test_saturate_matches_union_find_oracle():
    rng = random.Random(21)
    tagged = [("L", a) for a in A12] + [("R", b) for b in AB]
    for _ in range(40):
        pairs = [(a, b) for a in A12 for b in AB if rng.random() < 0.4]
        s = Rel(A12, AB, pairs)
        classes, _ = saturate(s)
        want = oracles.brute_equiv_classes(
            [(("L", a), ("R", b)) for a, b in pairs], tagged)
        assert {frozenset(c) for c in classes} == \
            {frozenset(c) for c in want}


def test_saturate_lists_classes_as_the_keyed_union_find_did():
    rng = random.Random(22)
    left = FinSet(["2", "1", "3", ("1", "2")])
    right = FinSet(["b", "a", frozenset({"a"})])
    wide = 0
    for _ in range(80):
        s = Rel(left, right, [(a, b) for a in left for b in right
                              if rng.random() < 0.25])
        classes, closure = saturate(s)
        assert (classes, closure) == oracles.keyed_saturate(s)
        wide += any(min(map(len, class_sides(c))) > 1 for c in classes)
    # saturated pairs are read off the classes: draw classes with several
    # atoms on both sides, not only single pairs
    assert wide > 20


def test_saturated_membership_requires_saturation():
    s = Rel(A12, AB, [("1", "a"), ("2", "b")])
    if saturate(s)[1] != s:
        with pytest.raises(ValueError):
            lift_member_dist_saturated(RatDist.dirac("1"),
                                       RatDist.dirac("a"), s)


def test_saturated_membership_agrees_with_the_flow_check():
    rng = random.Random(17)
    for _ in range(120):
        pairs = [(a, b) for a in A12 for b in AB if rng.random() < 0.5]
        _, closure = saturate(Rel(A12, AB, pairs))
        nu1 = random_dist(rng, list(A12), "probability")
        nu2 = random_dist(rng, list(AB), "probability")
        assert lift_member_dist_saturated(nu1, nu2, closure) == \
            bool(lift_member_dist(nu1, nu2, closure))


def test_converse_coupling_frozen_example():
    s = Rel(A12, AB, [("1", "a"), ("2", "a")])
    nu1 = RatDist({"1": F(1, 3), "2": F(2, 3)}, "probability")
    gamma = converse_coupling(nu1, RatDist.dirac("a"), s)
    assert gamma.weights == {("1", "a"): F(1, 3), ("2", "a"): F(2, 3)}
    assert gamma.carrier is None


def test_converse_coupling_is_a_coupling():
    rng = random.Random(29)
    done = 0
    while done < 60:
        pairs = [(a, b) for a in A12 for b in AB if rng.random() < 0.5]
        _, closure = saturate(Rel(A12, AB, pairs))
        nu1 = random_dist(rng, list(A12), "probability")
        nu2 = random_dist(rng, list(AB), "probability")
        if not lift_member_dist_saturated(nu1, nu2, closure):
            continue
        gamma = converse_coupling(nu1, nu2, closure)
        assert oracles.coupling_valid(gamma, nu1, nu2, closure)
        done += 1


def test_converse_coupling_rejects_unbalanced_classes():
    s = Rel(A12, AB, [("1", "a"), ("2", "a")])
    nu1 = RatDist({"1": F(1, 2), "2": F(1, 2)}, "probability")
    nu2 = RatDist({"a": F(1, 2), "b": F(1, 2)}, "probability")
    with pytest.raises(ValueError):
        converse_coupling(nu1, nu2, saturate(s)[1])


# ------------------------------------------------------- lifted laws

def test_lifted_laws_hold_for_powerset_on_the_stair():
    t = powerset_monad()
    assert lifted_unit_check(t, S_STAIR).ok
    assert lifted_mult_check(t, S_STAIR).ok
    assert lifted_strength_check(t, S_STAIR, S_STAIR).ok


def test_lifted_mult_checks_real_cases_for_enumerable_monads():
    # second-level values are filtered against T(T A), not T A
    def lossy_mult(tt, obj):
        return frozenset(sorted((x for s in tt for x in s), key=str)[1:])

    r = lifted_mult_check(mutant_powerset(mult=lossy_mult), S_STAIR)
    assert not r.ok and r.counterexample is not None
    assert lifted_mult_check(powerset_monad(), S_STAIR).cases == 56
    assert lifted_mult_check(nonempty_powerset_monad(), S_STAIR).cases == 27


def test_lifted_mult_on_four_atoms_does_not_build_second_level_carriers():
    # T(T A) has 2^16 values here; the check must not enumerate them
    left, right = FinSet(["1", "2", "3", "4"]), FinSet(["a", "b", "c", "d"])
    s = Rel(left, right, [("1", "a"), ("2", "b")])
    r = lifted_mult_check(powerset_monad(), s)
    assert r.ok and r.cases == 16


def test_lifted_laws_hold_for_dist_on_the_stair():
    t = dist_monad("probability")
    assert lifted_unit_check(t, S_STAIR).ok
    assert lifted_mult_check(t, S_STAIR, samples=40).ok
    assert lifted_strength_check(t, S_STAIR, S_STAIR, samples=30).ok


def test_lifted_unit_detects_a_hole():
    # a relation with no pairs lifts to a relation its own units miss
    t = powerset_monad()
    s = Rel(A12, AB, [("1", "a")])
    r = lifted_unit_check(t, s)
    assert r.ok and r.cases == 1


# ------------------------------------------- pinned lifted-check reports

def _twisted(t, **ops):
    """A copy of t with the named value operations replaced."""
    t = copy.copy(t)
    for name, op in ops.items():
        setattr(t, "_" + name, op)
    return t


SUB = "subprobability"


def _drop_least(tt, obj=None):
    # the flattened subdistribution without its least support point
    out = {}
    for inner, w in tt.weights.items():
        for x, v in inner.weights.items():
            out[x] = out.get(x, 0) + w * v
    out.pop(min(out), None)
    return RatDist(out, SUB)


def test_failing_lifted_unit_report_is_pinned():
    t = _twisted(powerset_monad(),
                 unit=lambda x: frozenset() if x == "2" else frozenset([x]))
    assert lifted_unit_check(t, S_STAIR) == LawReport(
        "lifted-unit", False, 2,
        {"diagram": "lifted-unit", "input": ("2", "a"),
         "lhs": (frozenset(), frozenset({"a"})), "rhs": "member"}, None)


def test_failing_lifted_mult_reports_are_pinned():
    t = _twisted(powerset_monad(), mult=lambda tt, obj: frozenset(
        sorted((x for s in tt for x in s), key=str)[1:]))
    assert lifted_mult_check(t, S_STAIR) == LawReport(
        "lifted-mult", False, 4,
        {"diagram": "lifted-mult",
         "input": (frozenset({frozenset({"1", "2"})}),
                   frozenset({frozenset({"a"})})),
         "lhs": (frozenset({"2"}), frozenset()), "rhs": "member"}, 0)
    t = _twisted(dist_monad(SUB), mult=_drop_least)
    xi1 = RatDist({RatDist({"1": F(1, 3), "2": F(1, 4)}, SUB): F(2, 11)}, SUB)
    xi2 = RatDist({RatDist({"a": F(5, 12), "b": F(1, 6)}, SUB): F(2, 11)}, SUB)
    assert lifted_mult_check(t, S_STAIR, samples=10, seed=3) == LawReport(
        "lifted-mult", False, 2,
        {"diagram": "lifted-mult", "input": (xi1, xi2),
         "lhs": (RatDist({"2": F(1, 22)}, SUB), RatDist({"b": F(1, 33)}, SUB)),
         "rhs": "member"}, 3)


def test_failing_lifted_strength_report_is_pinned():
    t = _twisted(powerset_monad(), strength=lambda x, v: frozenset(
        (x, y) for y in v if y != "b"))
    assert lifted_strength_check(t, S_STAIR, S_STAIR) == LawReport(
        "lifted-strength", False, 7,
        {"diagram": "lifted-strength",
         "input": (("1", "a"), (frozenset({"2"}), frozenset({"b"}))),
         "lhs": (frozenset({("1", "2")}), frozenset()), "rhs": "member"}, 0)


@pytest.mark.parametrize("t", [powerset_monad(), dist_monad("probability"),
                               dist_monad(SUB)], ids=lambda t: t.name)
def test_lifted_checks_pass_with_zero_cases_on_the_empty_relation(t):
    empty = Rel(A12, AB, [])
    assert lifted_unit_check(t, empty) == LawReport(
        "lifted-unit", True, 0, None, None)
    assert lifted_strength_check(t, empty, S_STAIR, seed=4) == LawReport(
        "lifted-strength", True, 0, None, 4)
    # the empty set and the zero subdistribution live over no pairs, so
    # only the probability distributions give lifted-mult no case at all
    cases = {None: 2, "probability": 0, SUB: 100}[t.mode]
    assert lifted_mult_check(t, empty, seed=4) == LawReport(
        "lifted-mult", True, cases, None, 4)


def test_class_sides_split_a_tagged_class():
    cls = frozenset({("L", "1"), ("R", "a"), ("L", "2")})
    assert class_sides(cls) == ({"1", "2"}, {"a"})
    assert class_sides(frozenset({("R", "b")})) == (set(), {"b"})


@pytest.mark.parametrize("call,message", [
    (lambda: lift_member_powerset({"1"}, {"z"}, S_STAIR),
     "^second subset leaves the right carrier$"),
    (lambda: lift_enumerate(dist_monad(), S_STAIR),
     "^monad dist-probability is not enumerable$"),
], ids=["member-outside-right", "enumerate-dist"])
def test_lifting_refuses_inputs_outside_its_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()
