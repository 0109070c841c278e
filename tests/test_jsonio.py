import re
from fractions import Fraction

import pytest

from monarel import FinSet, LawReport, RatDist, Rel
from monarel.jsonio import (MONAD_NAMES, finset_json, load_base_rels,
                            load_classes, load_finset, load_fraction,
                            load_lts, load_model, load_ordered_rel,
                            load_plts, load_poset, load_ratdist, load_rel,
                            load_system, load_tagged, monad_by_name,
                            ordered_rel_json, poset_json, rel_json,
                            report_json, value_json)

F = Fraction


def test_finset_round_trip():
    s = load_finset(["b", "a"])
    assert finset_json(s) == ["a", "b"]
    with pytest.raises(ValueError):
        load_finset("ab")
    with pytest.raises(ValueError):
        load_finset(["a", 3])


def test_rel_round_trip():
    obj = {"left": ["1", "2"], "right": ["a"], "pairs": [["1", "a"]]}
    r = load_rel(obj)
    assert r.pairs == {("1", "a")}
    assert rel_json(r) == {"left": ["1", "2"], "right": ["a"],
                           "pairs": [["1", "a"]]}
    with pytest.raises(ValueError):
        load_rel({"left": ["1"], "right": ["a"], "pairs": [["1", "a", "x"]]})


def test_fraction_parsing():
    assert load_fraction("1/2") == F(1, 2)
    assert load_fraction("3") == F(3)
    with pytest.raises(ValueError):
        load_fraction("-1/2")
    with pytest.raises(ValueError):
        load_fraction("0.5x")


def test_ratdist_round_trip():
    obj = {"mode": "probability", "weights": {"x": "1/2", "y": "1/2"}}
    nu = load_ratdist(obj)
    assert nu.mass(["x"]) == F(1, 2)
    assert value_json(nu) == obj
    with pytest.raises(ValueError):
        load_ratdist({"mode": "probability", "weights": {"x": "1/3"}})


def test_lts_loader_and_step_keys():
    m = load_lts({"states": ["a", "b"], "labels": ["l"],
                  "step": {"a|l": ["b"]}})
    assert m.step("a", "l") == frozenset({"b"})
    assert m.step("b", "l") == frozenset()
    with pytest.raises(ValueError):
        load_lts({"states": ["a"], "labels": ["l"], "step": {"al": ["a"]}})
    with pytest.raises(ValueError):
        load_lts({"states": ["a"], "labels": ["l"], "step": {"z|l": ["a"]}})


def test_piped_atoms_are_rejected_even_without_steps():
    with pytest.raises(ValueError):
        load_lts({"states": ["a|b"], "labels": ["l"], "step": {}})
    with pytest.raises(ValueError):
        load_plts({"states": ["a"], "labels": ["l|"], "mode": "subprobability",
                   "step": {}})


def test_plts_loader_wraps_bare_weights():
    m = load_plts({"states": ["a"], "labels": ["l"],
                   "step": {"a|l": {"a": "1"}}})
    assert m.step("a", "l").weights == {"a": F(1)}
    assert m.mode == "probability"


def test_plts_mode_consistency():
    with pytest.raises(ValueError):
        load_plts({"states": ["a"], "labels": ["l"], "mode": "subprobability",
                   "step": {"a|l": {"mode": "probability",
                                    "weights": {"a": "1"}}}})


def test_load_system_reads_the_kind_from_the_steps():
    lts = {"states": ["a"], "labels": ["l"], "step": {"a|l": ["a"]}}
    assert load_system(lts).mode is None
    assert load_system(dict(lts, step={})).mode is None
    plts = {"states": ["a"], "labels": ["l"], "mode": "subprobability",
            "step": {"a|l": {"a": "1/2"}}}
    assert load_system(plts).mode == "subprobability"
    assert load_system(plts).step("a", "l").weights == {"a": F(1, 2)}


@pytest.mark.parametrize("load", [load_lts, load_plts, load_system])
@pytest.mark.parametrize("obj,msg", [
    ([], "a transition system must be an object"),
    ({"states": [], "labels": []}, "transition system needs a 'step' field"),
    ({"states": ["a"], "labels": "l", "step": {}},
     "a finite set must be an array of strings"),
    ({"states": ["a|b"], "labels": [], "step": {}},
     "atom 'a|b' contains '|', which step keys reserve"),
    ({"states": [], "labels": [], "step": []}, "'step' must be an object"),
])
def test_every_system_loader_checks_the_header_alike(load, obj, msg):
    with pytest.raises(ValueError, match=re.escape(msg)):
        load(obj)


def test_poset_round_trip():
    p = load_poset({"carrier": ["0", "1"], "leq": [["0", "1"]]})
    assert p.le("0", "1")
    assert poset_json(p) == {"carrier": ["0", "1"], "leq": [["0", "1"]]}
    with pytest.raises(ValueError):
        load_poset({"carrier": ["0"], "leq": [["0", "1"]]})


def test_ordered_rel_round_trip():
    obj = {"left": {"carrier": ["0", "1"], "leq": [["0", "1"]]},
           "right": {"carrier": ["0", "1"], "leq": [["0", "1"]]},
           "pairs": [["0", "0"], ["1", "1"]]}
    s = load_ordered_rel(obj)
    assert (("0", "0"), ("1", "1")) in s.order
    out = ordered_rel_json(s)
    assert out["pairs"] == [["0", "0"], ["1", "1"]]
    assert [["0", "0"], ["1", "1"]] in out["order"]
    explicit = dict(obj, order=[])
    s2 = load_ordered_rel(explicit)
    assert (("0", "0"), ("1", "1")) not in s2.order


def test_model_loader():
    m = load_model({"monad": "powerset", "base": {"b": ["a0", "a1"]}})
    assert m.monad.name == "powerset"
    assert m.base["b"] == FinSet(["a0", "a1"])
    with pytest.raises(ValueError):
        load_model({"monad": "powerset", "base": {"b": "a0"}})


def test_monad_by_name():
    assert set(MONAD_NAMES) == {"powerset", "nonempty-powerset", "dist",
                                "upper"}
    assert monad_by_name("dist", "subprobability").name == \
        "dist-subprobability"
    with pytest.raises(ValueError):
        monad_by_name("identity")


def test_tagged_and_classes():
    assert load_tagged("L:x") == ("L", "x")
    assert load_tagged("R:y") == ("R", "y")
    with pytest.raises(ValueError):
        load_tagged("M:x")
    cs = load_classes([["L:x", "R:y"]])
    assert cs == [frozenset({("L", "x"), ("R", "y")})]


def test_base_rels_loader():
    rels = load_base_rels({"b": {"left": ["a"], "right": ["a"],
                                 "pairs": [["a", "a"]]}})
    assert rels["b"].pairs == {("a", "a")}


def test_report_json_shape():
    rep = LawReport("some-law", False, 3,
                    {"diagram": "d", "input": ("a", frozenset({"b"})),
                     "lhs": frozenset(), "rhs": frozenset({"a"})}, seed=9)
    out = report_json(rep)
    assert out["law"] == "some-law" and out["ok"] is False
    assert out["counterexample"]["input"] == ["a", {"set": ["b"]}]
    assert out["seed"] == 9


def test_value_json_shapes():
    assert value_json("a") == "a"
    assert value_json(("a", "b")) == ["a", "b"]
    assert value_json(frozenset({"b", "a"})) == {"set": ["a", "b"]}
    assert value_json(frozenset({("a", "b")})) == {"set": [["a", "b"]]}
    nested = value_json({"k": frozenset()})
    assert nested == {"k": {"set": []}}
    assert value_json(F(1, 2)) == "1/2"
