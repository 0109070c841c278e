import random
from fractions import Fraction

import pytest

import oracles
from monarel import (FinSet, LTS, LawReport, PLTS, RatDist, Rel,
                     TransitionSystem,
                     check_bisimulation, check_prob_bisimulation,
                     largest_bisimulation, larsen_skou_check,
                     lift_member_dist, random_dist, saturate, tagged_states)

F = Fraction


def lts(states, labels, step):
    return LTS(FinSet(states), FinSet(labels), step)


def plts(states, labels, step, mode="probability"):
    return PLTS(FinSet(states), FinSet(labels), step, mode)


def diag(atoms):
    s = FinSet(atoms)
    return Rel.diagonal(s)


HALF_SYS = plts(["s", "t", "u"], ["l"], {
    ("s", "l"): {"t": F(1, 2), "u": F(1, 2)},
    ("t", "l"): {"t": F(1)},
    ("u", "l"): {"u": F(1)},
})
ONE_SYS = plts(["s'", "t'"], ["l"], {
    ("s'", "l"): {"t'": F(1)},
    ("t'", "l"): {"t'": F(1)},
})


# ------------------------------------------------------------------- LTS

def test_lts_validates_carriers():
    with pytest.raises(ValueError):
        lts(["a"], ["l"], {("z", "l"): frozenset({"a"})})
    with pytest.raises(ValueError):
        lts(["a"], ["l"], {("a", "k"): frozenset({"a"})})
    with pytest.raises(ValueError):
        lts(["a"], ["l"], {("a", "l"): frozenset({"z"})})


def test_lts_missing_steps_default_to_empty():
    m = lts(["a"], ["l"], {})
    assert m.step("a", "l") == frozenset()


SUB_HALF = RatDist({"a": F(1, 2)}, "subprobability")


@pytest.mark.parametrize("build,message", [
    (lambda: lts(["a"], ["l"], {("z", "l"): {"a"}}), "unknown state 'z'"),
    (lambda: lts(["a"], ["l"], {("a", "k"): {"a"}}), "unknown label 'k'"),
    (lambda: lts(["a"], ["l"], {("a", "l"): {"z"}}),
     "successor 'z' outside the carrier"),
    (lambda: plts(["a"], ["l"], {("z", "l"): {"a": F(1)}}),
     "unknown state 'z'"),
    (lambda: plts(["a"], ["l"], {("a", "k"): {"a": F(1)}}),
     "unknown label 'k'"),
    (lambda: plts(["a"], ["l"], {("a", "l"): {"z": F(1)}}),
     "successor 'z' outside the carrier"),
    (lambda: plts(["a"], ["l"], {("a", "l"): SUB_HALF}),
     "step ('a','l') has mode subprobability, system is probability"),
    (lambda: plts(["a", "b"], ["l"], {("a", "l"): {"a": F(1)}}),
     "missing step for ('b','l') in probability mode"),
    (lambda: plts(["a"], ["l"], {("a", "l"): SUB_HALF}, "bogus"),
     "unknown mode 'bogus'"),
], ids=["lts-state", "lts-label", "lts-successor", "plts-state",
        "plts-label", "plts-successor", "plts-mode", "plts-missing",
        "plts-unknown-mode"])
def test_single_faults_give_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_missing_steps_return_one_stored_value():
    m = lts(["a", "b"], ["l"], {})
    assert m.step("a", "l") == frozenset()
    assert m.step("a", "l") is m.step("b", "l")
    p = plts(["a", "b"], ["l"], {}, mode="subprobability")
    assert p.step("a", "l") == RatDist({}, "subprobability")
    assert p.step("a", "l") is p.step("b", "l")


def test_isomorphic_one_step_systems_are_bisimilar():
    m1 = lts(["a", "b"], ["l"], {("a", "l"): frozenset({"b"})})
    m2 = lts(["a'", "b'"], ["l"], {("a'", "l"): frozenset({"b'"})})
    s = Rel(m1.states, m2.states, [("a", "a'"), ("b", "b'")])
    rl = diag(["l"])
    assert check_bisimulation(s, m1, m2, rl).ok


def test_missing_successor_breaks_bisimulation():
    m1 = lts(["a", "b"], ["l"], {("a", "l"): frozenset({"b"})})
    m2 = lts(["a'"], ["l"], {})
    s = Rel(m1.states, m2.states, [("a", "a'")])
    res = check_bisimulation(s, m1, m2, diag(["l"]))
    assert not res.ok
    assert res.counterexample["pair"] == ("a", "a'")


def test_empty_relation_is_a_bisimulation():
    m1 = lts(["a"], ["l"], {})
    m2 = lts(["a'"], ["l"], {})
    s = Rel(m1.states, m2.states, [])
    assert check_bisimulation(s, m1, m2, diag(["l"])).ok


def test_frames_must_match_the_relation():
    m1 = lts(["a"], ["l"], {})
    m2 = lts(["a'"], ["l"], {})
    bad = Rel(FinSet(["z"]), m2.states, [])
    with pytest.raises(ValueError):
        check_bisimulation(bad, m1, m2, diag(["l"]))


def test_label_relation_relates_label_sets():
    m1 = lts(["a"], ["l"], {})
    m2 = lts(["a'"], ["k"], {})
    s = Rel(m1.states, m2.states, [])
    with pytest.raises(ValueError):
        check_bisimulation(s, m1, m2, diag(["l"]))
    rl = Rel(FinSet(["l"]), FinSet(["k"]), [("l", "k")])
    assert check_bisimulation(s, m1, m2, rl).ok


def test_bisimulation_verdicts_are_law_reports_counting_checked_pairs():
    # b steps to {a} and x to nothing, so the second pair of S fails
    m1 = lts(["a", "b"], ["l"], {("b", "l"): frozenset({"a"})})
    m2 = lts(["x"], ["l"], {})
    rl = diag(["l"])
    s = Rel(m1.states, m2.states, [("a", "x"), ("b", "x")])
    got = check_bisimulation(s, m1, m2, rl)
    assert got == LawReport("bisimulation", False, 2, {
        "pair": ("b", "x"), "labels": ("l", "l"),
        "succ": (frozenset({"a"}), frozenset())})
    assert str(got) == ("bisimulation: FAIL (2 cases)\n  pair ('b', 'x')"
                        "\n  labels ('l', 'l')"
                        "\n  succ (frozenset({'a'}), frozenset())")
    just_a = Rel(m1.states, m2.states, [("a", "x")])
    assert check_bisimulation(just_a, m1, m2, rl) == \
        LawReport("bisimulation", True, 1)
    empty = Rel(m1.states, m2.states, [])
    assert check_bisimulation(empty, m1, m2, rl) == \
        LawReport("bisimulation", True, 0)


# ------------------------------------------------------------------ PLTS

def test_plts_probability_mode_requires_every_step():
    with pytest.raises(ValueError):
        plts(["a"], ["l"], {})
    # subprobability fills in the zero distribution
    m = plts(["a"], ["l"], {}, mode="subprobability")
    assert m.step("a", "l").total() == 0


def test_plts_wraps_bare_weight_dicts():
    m = plts(["a"], ["l"], {("a", "l"): {"a": F(1)}})
    assert isinstance(m.step("a", "l"), RatDist)
    assert m.step("a", "l").mode == "probability"


def test_plts_rejects_mode_mismatch():
    sub = RatDist({"a": F(1, 2)}, "subprobability")
    with pytest.raises(ValueError):
        plts(["a"], ["l"], {("a", "l"): sub})


def test_half_half_versus_one_with_wide_relation_passes():
    s = Rel(HALF_SYS.states, ONE_SYS.states,
            [("s", "s'"), ("t", "t'"), ("u", "t'")])
    res = check_prob_bisimulation(s, HALF_SYS, ONE_SYS, diag(["l"]))
    assert res.ok


def test_half_half_versus_one_with_narrow_relation_fails():
    s = Rel(HALF_SYS.states, ONE_SYS.states, [("s", "s'"), ("t", "t'")])
    res = check_prob_bisimulation(s, HALF_SYS, ONE_SYS, diag(["l"]))
    assert not res.ok
    assert res.counterexample["pair"] == ("s", "s'")
    assert res.counterexample["violated"] == ("u",)


def test_dirac_systems_iso_graph_is_a_bisimulation():
    m1 = plts(["a", "b"], ["l"], {
        ("a", "l"): {"b": F(1)}, ("b", "l"): {"b": F(1)}})
    m2 = plts(["x", "y"], ["l"], {
        ("x", "l"): {"y": F(1)}, ("y", "l"): {"y": F(1)}})
    s = Rel(m1.states, m2.states, [("a", "x"), ("b", "y")])
    assert check_prob_bisimulation(s, m1, m2, diag(["l"])).ok


# --------------------------------------------------------------- largest

def test_largest_contains_diagonal_on_identical_systems():
    m = lts(["a", "b"], ["l"], {("a", "l"): frozenset({"b"})})
    big = largest_bisimulation(m, m, diag(["l"]))
    assert {("a", "a"), ("b", "b")} <= big.pairs


def test_largest_on_empty_behavior_is_full():
    m1 = lts(["a", "b"], ["l"], {})
    m2 = lts(["x"], ["l"], {})
    big = largest_bisimulation(m1, m2, diag(["l"]))
    assert big.pairs == {("a", "x"), ("b", "x")}


def test_largest_is_itself_a_bisimulation_and_maximal():
    m1 = lts(["a", "b", "c"], ["l"], {
        ("a", "l"): frozenset({"b"}),
        ("b", "l"): frozenset({"c"}),
    })
    m2 = lts(["x", "y"], ["l"], {("x", "l"): frozenset({"y"})})
    rl = diag(["l"])
    big = largest_bisimulation(m1, m2, rl)
    assert check_bisimulation(big, m1, m2, rl).ok
    outside = [(p, q) for p in m1.states for q in m2.states
               if (p, q) not in big.pairs]
    for extra in outside:
        s = Rel(m1.states, m2.states, set(big.pairs) | {extra})
        assert not check_bisimulation(s, m1, m2, rl).ok, extra


def test_largest_probabilistic_contains_the_root_pair():
    big = largest_bisimulation(HALF_SYS, ONE_SYS, diag(["l"]))
    assert ("s", "s'") in big.pairs
    assert check_prob_bisimulation(big, HALF_SYS, ONE_SYS, diag(["l"])).ok


def test_largest_auto_dispatch_and_label_defaults():
    # the CLI owns the label default: see
    # test_differing_label_sets_need_a_label_relation in test_cli.py
    big = largest_bisimulation(HALF_SYS, ONE_SYS, diag(["l"]))
    assert ("s", "s'") in big.pairs


def test_largest_rejects_mixed_kinds():
    m = lts(["a"], ["l"], {})
    with pytest.raises(ValueError):
        largest_bisimulation(m, HALF_SYS, diag(["l"]))


def test_largest_rejects_a_label_relation_off_the_label_sets():
    # over {x} x {y} the label relation pairs no label of either system:
    # every step is then vacuous and every pair would survive
    m = lts(["s", "t"], ["a", "b"], {("s", "a"): frozenset({"t"}),
                                     ("t", "b"): frozenset({"s"})})
    rl = Rel(FinSet(["x"]), FinSet(["y"]), {("x", "y")})
    for check in (lambda: largest_bisimulation(m, m, rl),
                  lambda: check_bisimulation(Rel.diagonal(m.states), m, m, rl)):
        with pytest.raises(ValueError,
                           match="label relation does not match the label sets"):
            check()


def test_tagged_states_are_disjoint():
    tags = tagged_states(HALF_SYS, ONE_SYS)
    assert ("L", "s") in tags and ("R", "s'") in tags
    assert len(tags) == len(HALF_SYS.states) + len(ONE_SYS.states)


# ------------------------------------------------------------ Larsen-Skou

def test_all_singleton_classes_on_identical_systems():
    classes = [frozenset({("L", "s")}), frozenset({("R", "s'")}),
               frozenset({("L", "t")}), frozenset({("R", "t'")}),
               frozenset({("L", "u")})]
    assert larsen_skou_check(HALF_SYS, ONE_SYS, classes)


def test_classes_generated_by_the_wide_relation_pass():
    s = Rel(HALF_SYS.states, ONE_SYS.states,
            [("s", "s'"), ("t", "t'"), ("u", "t'")])
    classes, _ = saturate(s)
    assert larsen_skou_check(HALF_SYS, ONE_SYS, classes)


def test_mismatched_mass_into_one_class_fails():
    m1 = plts(["a", "b", "c"], ["l"], {
        ("a", "l"): {"b": F(1, 3), "c": F(2, 3)},
        ("b", "l"): {"b": F(1)},
        ("c", "l"): {"c": F(1)},
    })
    m2 = plts(["x", "y", "z"], ["l"], {
        ("x", "l"): {"y": F(1, 2), "z": F(1, 2)},
        ("y", "l"): {"y": F(1)},
        ("z", "l"): {"z": F(1)},
    })
    classes = [frozenset({("L", "a"), ("R", "x")}),
               frozenset({("L", "b"), ("R", "y")}),
               frozenset({("L", "c"), ("R", "z")})]
    assert not larsen_skou_check(m1, m2, classes)


def test_larsen_skou_validates_the_partition():
    with pytest.raises(ValueError):
        larsen_skou_check(HALF_SYS, ONE_SYS, [frozenset({("L", "s")})])
    overlapping = [frozenset({("L", "s"), ("R", "s'")}),
                   frozenset({("L", "s"), ("L", "t"), ("L", "u"),
                              ("R", "t'")})]
    with pytest.raises(ValueError):
        larsen_skou_check(HALF_SYS, ONE_SYS, overlapping)


def test_larsen_skou_needs_systems_that_step_in_distributions():
    classes = [frozenset({("L", "a"), ("R", "x")})]
    for f1, f2 in [(lts(["a"], ["l"], {}), lts(["x"], ["l"], {})),
                   (plts(["a"], ["l"], {("a", "l"): {"a": F(1)}}),
                    lts(["x"], ["l"], {}))]:
        with pytest.raises(ValueError, match="class masses need systems "
                           "that step in distributions"):
            larsen_skou_check(f1, f2, classes)


def test_both_kinds_are_one_transition_system_type():
    m, p = lts(["a"], ["l"], {}), plts(["a"], ["l"], {}, "subprobability")
    assert isinstance(m, TransitionSystem) and isinstance(p, TransitionSystem)
    assert (m.mode, p.mode) == (None, "subprobability")
    assert check_prob_bisimulation is check_bisimulation


def random_plts(rng, states, labels):
    step = {}
    for s in states:
        for l in labels:
            step[(s, l)] = random_dist(rng, states, "probability")
    return plts(states, labels, step)


def relabeled_copy(m, suffix):
    ren = {s: s + suffix for s in m.states}
    step = {}
    for s in m.states:
        for l in m.labels:
            nu = m.step(s, l)
            step[(ren[s], l)] = {ren[x]: w for x, w in nu.weights.items()}
    return plts(sorted(ren.values()), sorted(m.labels), step)


def test_correspondence_on_seeded_systems():
    # flow-based relation checking agrees with the class-mass condition
    # on the equivalence generated by the relation
    rng = random.Random(101)
    positives = 0
    for trial in range(80):
        n = rng.randint(1, 3)
        states = [f"q{i}" for i in range(n)]
        m1 = random_plts(rng, states, ["l"])
        if trial % 2 == 0:
            m2 = relabeled_copy(m1, "'")
            pairs = [(s, s + "'") for s in states]
        else:
            m2 = random_plts(rng, [f"r{i}" for i in range(n)], ["l"])
            pairs = [(a, b) for a in m1.states for b in m2.states
                     if rng.random() < 0.4]
        # the correspondence is stated for equivalence relations, so
        # close the raw pairs up to one before comparing
        classes, s = saturate(Rel(m1.states, m2.states, pairs))
        lhs = check_prob_bisimulation(s, m1, m2, diag(["l"])).ok
        rhs = larsen_skou_check(m1, m2, classes)
        assert lhs == rhs, (trial, sorted(pairs))
        positives += lhs
    assert positives > 10


def test_one_direction_for_arbitrary_relations():
    # a passing flow check forces equal class masses for related pairs,
    # even when the relation is not an equivalence
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 3)
        m1 = random_plts(rng, [f"q{i}" for i in range(n)], ["l"])
        m2 = random_plts(rng, [f"r{i}" for i in range(n)], ["l"])
        pairs = [(a, b) for a in m1.states for b in m2.states
                 if rng.random() < 0.4]
        s = Rel(m1.states, m2.states, pairs)
        if not check_prob_bisimulation(s, m1, m2, diag(["l"])).ok:
            continue
        classes, _ = saturate(s)
        for a, b in s.pairs:
            nu1, nu2 = m1.step(a, "l"), m2.step(b, "l")
            for c in classes:
                left = [x for tag, x in c if tag == "L"]
                right = [y for tag, y in c if tag == "R"]
                assert nu1.mass(left) == nu2.mass(right), (a, b, sorted(c))
