import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from monarel import (SYSTEMS, FinPoset, FinSet, LawReport, OrderedRel,
                     RatDist, Rel, atom_key, lift_relation_ord,
                     powerset_monad)
from monarel.jsonio import (MONAD_NAMES, _render, dumps, finset_json,
                            load_base_rels, load_classes, load_finset,
                            load_fraction, load_lts, load_model,
                            load_ordered_rel, load_plts, load_poset,
                            load_ratdist, load_rel, load_system, load_tagged,
                            monad_by_name, ordered_rel_json, poset_json,
                            rel_json, report_json, value_json)

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
    # a mode field makes a PLTS even when no step shows a distribution
    quiet = {"states": ["a"], "labels": ["l"], "mode": "subprobability",
             "step": {}}
    assert load_system(quiet).mode == "subprobability"
    assert load_system(quiet).step("a", "l").total() == 0
    with pytest.raises(ValueError, match="a distribution must be an object"):
        load_system(dict(lts, mode="probability"))
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


def test_ordered_rel_loads_an_explicit_order():
    chain01 = FinPoset(["0", "1"], [("0", "1")])
    pairs = [("0", "0"), ("1", "1")]
    obj = {"left": poset_json(chain01), "right": poset_json(chain01),
           "pairs": [list(p) for p in pairs],
           "order": [[["0", "0"], ["1", "1"]]]}
    assert load_ordered_rel(obj) == OrderedRel(chain01, chain01, pairs,
                                               [(pairs[0], pairs[1])])
    with pytest.raises(ValueError, match="must pair two pairs"):
        load_ordered_rel(dict(obj, order=[[["0", "0"]]]))


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
    with pytest.raises(ValueError, match="^unknown monad 'identity'"):
        monad_by_name("identity", "bogus")
    # every monad refuses a mode outside MODES, though only dist reads it
    for name in MONAD_NAMES:
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            monad_by_name(name, "bogus")


@pytest.mark.parametrize("load,obj,msg", [
    (load_rel, [], "a relation must be an object"),
    (load_rel, {"left": [], "right": []}, "relation needs a 'pairs' field"),
    (load_ratdist, "x", "a distribution must be an object"),
    (load_ratdist, {}, "distribution needs a 'weights' field"),
    (load_lts, None, "a transition system must be an object"),
    (load_plts, {"states": [], "step": {}},
     "transition system needs a 'labels' field"),
    (load_poset, [], "a poset must be an object"),
    (load_poset, {"leq": []}, "poset needs a 'carrier' field"),
    (load_ordered_rel, [], "an ordered relation must be an object"),
    (load_ordered_rel, {"left": {}, "pairs": []},
     "ordered relation needs a 'right' field"),
    (load_model, [], "a model must be an object"),
    (load_model, {"base": {}}, "model needs a 'monad' field"),
])
def test_object_checks_name_the_object_and_its_missing_field(load, obj, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        load(obj)


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


# ------------------------------------------------ the reference encoder
#
# The encoder as it was before set members were sorted by texts built
# bottom-up: one json.dumps per member at every level, pairs sorted by
# atom_key, and the stdlib's indented dump.  The fast paths must match it
# byte for byte.

def _json_key(x):
    return json.dumps(x, sort_keys=True)


def ref_value_json(v):
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return [ref_value_json(x) for x in v]
    if isinstance(v, frozenset):
        return {"set": sorted((ref_value_json(x) for x in v), key=_json_key)}
    if isinstance(v, dict):
        return {oracles.flat_text(k): ref_value_json(x)
                for k, x in sorted(v.items())}
    if isinstance(v, RatDist):
        return {"mode": v.mode,
                "weights": {oracles.flat_text(x): str(w)
                            for x, w in v.items()}}
    if isinstance(v, Fraction):
        return str(v)
    if v is None or isinstance(v, (bool, int)):
        return v
    return repr(v)


def ref_rel_json(r):
    return {"left": [ref_value_json(x) for x in r.left],
            "right": [ref_value_json(x) for x in r.right],
            "pairs": [ref_value_json(p)
                      for p in sorted(r.pairs, key=atom_key)]}


def ref_poset_json(p):
    return {"carrier": [ref_value_json(x) for x in p.carrier],
            "leq": [ref_value_json(q) for q in sorted(p.pairs, key=atom_key)
                    if q[0] != q[1]]}


def ref_ordered_rel_json(r):
    return {"left": ref_poset_json(r.left), "right": ref_poset_json(r.right),
            "pairs": [ref_value_json(p)
                      for p in sorted(r.pairs, key=atom_key)],
            "order": [ref_value_json(pq)
                      for pq in sorted(r.order, key=atom_key)
                      if pq[0] != pq[1]]}


def ref_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


def strict(obj):
    """Text that tells 1 from True and keeps every order, for comparing
    renderings that == would equate."""
    return json.dumps(obj)


# strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.one_of(
    st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00é€😀 {}[],:'),
            max_size=4),
    st.text(max_size=3))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 10**20),
                    st.floats(allow_nan=True), TEXT)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(PAYLOADS, PAYLOADS)
def test_dumps_is_the_stdlib_indented_dump(p, q):
    assert dumps(p) == ref_dumps(p)
    # q is one object at several places and depths, as value_json hands
    # back a repeated value
    shared = {"q": q, "list": [q, p, [q, {"deeper": q}]], "again": [q, q],
              "p": p}
    assert dumps(shared) == ref_dumps(shared)


def test_dumps_edge_cases():
    for payload in ([], {}, [[]], {"": {}}, [{}, [], ()], "é\"\\", None,
                    {"b": 1, "a": [True, False, None], "é": "\u2028"},
                    {"a": [], "a\u0000": [[], {}]}):
        assert dumps(payload) == ref_dumps(payload)


ATOMS = st.recursive(
    TEXT,
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=4),
    max_leaves=16)
# values equal to one another that render apart, such as 1, True and
# Fraction(1), and dicts, which cannot be set members
HASHABLE = st.recursive(
    st.one_of(TEXT, st.none(), st.booleans(), st.integers(-3, 3),
              st.fractions(max_denominator=4)),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=4),
    max_leaves=12)
VALUES = st.recursive(
    HASHABLE,
    lambda inner: st.tuples(inner, inner) | st.dictionaries(TEXT, inner,
                                                            max_size=3),
    max_leaves=16)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(ATOMS, max_size=4), st.lists(VALUES, max_size=4))
def test_value_json_orders_nested_sets_as_json_key_did(atoms, values):
    memo = {}
    for v in atoms + values:
        want = strict(ref_value_json(v))
        assert strict(value_json(v)) == want
        # one memo across values, as the relation encoders pass it
        assert strict(_render(v, memo)[0]) == want
        assert dumps(_render(v, memo)[0]) == ref_dumps(ref_value_json(v))


def test_a_shared_memo_keeps_equal_values_that_render_apart():
    memo = {}
    for v, text in [(("a", 1), '["a", 1]'), (("a", True), '["a", true]'),
                    (("a", Fraction(1)), '["a", "1"]'),
                    (frozenset({("a", 1)}), '{"set": [["a", 1]]}'),
                    (frozenset({("a", True)}), '{"set": [["a", true]]}'),
                    (("a", "b"), '["a", "b"]'), (("a", "b"), '["a", "b"]')]:
        assert strict(_render(v, memo)[0]) == text


def test_set_members_sort_by_compact_text():
    # compactly ["a","b"] sorts before ["a"]; indented it would not
    v = frozenset({("a",), ("a", "b")})
    assert value_json(v) == {"set": [["a", "b"], ["a"]]}
    assert value_json(v) == ref_value_json(v)
    nested = frozenset({frozenset({"b"}), frozenset({"a", "b"}), frozenset()})
    # '"' sorts before ']', so the empty set comes last
    assert value_json(nested) == {"set": [{"set": ["a", "b"]}, {"set": ["b"]},
                                          {"set": []}]}
    assert value_json(nested) == ref_value_json(nested)


def test_a_repeated_value_is_rendered_once():
    memo = {}
    b = frozenset({"a", "b"})
    first = _render((b, "x"), memo)[0]
    assert _render(b, memo)[0] is first[0]
    assert _render((b, "x"), memo)[0] is first
    # rel_json keeps one memo for the whole relation
    out = rel_json(Rel([b], ["x"], [(b, "x")]))
    assert out["pairs"][0][0] is out["left"][0]


def _random_poset(rng, atoms):
    order = list(atoms)
    rng.shuffle(order)
    return FinPoset(atoms, [(a, b) for i, a in enumerate(order)
                            for b in order[i + 1:] if rng.random() < 0.4])


@pytest.mark.parametrize("seed", range(40))
def test_relation_encoders_match_the_reference(seed):
    rng = random.Random(seed)
    left, right = ["1", "2", "3"][:rng.randint(1, 3)], ["a", "b", "c"]
    pairs = [(x, y) for x in left for y in right if rng.random() < 0.4]
    s = Rel(left, right, pairs)
    lifted = powerset_monad().lift(s)
    for r in (s, lifted):
        assert rel_json(r) == ref_rel_json(r)
        assert dumps(rel_json(r)) == ref_dumps(ref_rel_json(r))
    p, q = _random_poset(rng, left), _random_poset(rng, right)
    assert poset_json(p) == ref_poset_json(p)
    orel = OrderedRel(p, q, pairs)
    memo = {}
    for system in SYSTEMS:
        r = lift_relation_ord(orel, system)
        assert ordered_rel_json(r) == ref_ordered_rel_json(r)
        # one memo for both systems, as poset-lift passes it
        got = ordered_rel_json(r, memo)
        assert dumps(got) == ref_dumps(ref_ordered_rel_json(r))
