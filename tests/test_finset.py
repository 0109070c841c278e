import itertools
import random

import pytest

import oracles
from monarel import (FinSet, Model, Rel, UNIT, UNIT_ATOM, atom_key, atom_str,
                     denote, nonempty_powerset_monad, parse_ty, upper_monad,
                     powerset_monad, random_dist, subsets)
from monarel.dist import MODES


def test_finset_dedupe_is_an_error():
    with pytest.raises(ValueError):
        FinSet(["b", "a", "b"])


def test_finset_sorts_canonically():
    s = FinSet(["b", "a"])
    assert list(s) == ["a", "b"]
    assert len(s) == 2
    assert "a" in s and "c" not in s


def test_finset_equality_is_extensional():
    assert FinSet(["a", "b"]) == FinSet(["b", "a"])
    assert FinSet(["a"]) != FinSet(["a", "b"])


def test_unit_object():
    assert list(UNIT) == [UNIT_ATOM]


def test_atom_key_orders_mixed_shapes():
    ks = sorted([("a", "c"), "b", "a"], key=atom_key)
    assert ks == [("a", "c"), "a", "b"]


def test_atom_key_rejects_non_atoms():
    with pytest.raises(TypeError):
        atom_key(3)
    with pytest.raises(TypeError):
        atom_key(("a", "b", "c"))


def test_distribution_key_is_built_from_its_weights():
    # the key read off the numerators is the one the Fraction weights give
    rng = random.Random(23)
    flat = {random_dist(rng, "abcd", mode)
            for mode in MODES for _ in range(40)}
    nested = {random_dist(rng, sorted(flat, key=atom_key)[i::5], mode)
              for mode in MODES for i in range(5) for _ in range(8)}
    paired = {random_dist(rng, [(d, "x") for d in nested][:6], mode)
              for mode in MODES for _ in range(8)}
    for d in flat | nested | paired:
        assert atom_key(d) == ("d", d.mode, tuple(sorted(
            (atom_key(x), w) for x, w in d.weights.items())))


def test_atom_str_forms():
    assert atom_str("a") == "a"
    assert atom_str(("a", "b")) == "(a,b)"
    assert atom_str(frozenset({"b", "a"})) == "{a,b}"
    assert atom_str(frozenset()) == "{}"


def test_subsets_by_size_then_key():
    out = list(subsets(FinSet(["a", "b"])))
    assert out[0] == frozenset()
    assert set(out) == {frozenset(), frozenset("a"), frozenset("b"),
                        frozenset("ab")}
    assert [len(x) for x in out] == sorted(len(x) for x in out)


def test_rel_basic_ops():
    s = Rel(FinSet(["1", "2"]), FinSet(["a", "b"]),
            [("1", "a"), ("2", "b")])
    assert s.right_image("1") == {"a"}
    assert s.left_image("b") == {"2"}
    assert ("1", "a") in s and ("1", "b") not in s
    d = Rel.diagonal(FinSet(["1", "2"]))
    assert d.pairs == frozenset({("1", "1"), ("2", "2")})


def test_rel_rejects_stray_pairs():
    with pytest.raises(ValueError):
        Rel(FinSet(["1"]), FinSet(["a"]), [("1", "z")])


def test_rel_product_carriers_and_pairs():
    s = Rel(FinSet(["1"]), FinSet(["a"]), [("1", "a")])
    t = Rel(FinSet(["2"]), FinSet(["b"]), [("2", "b")])
    p = s.product(t)
    assert (("1", "2"), ("a", "b")) in p.pairs
    assert len(p.pairs) == 1


def test_rel_projections():
    s = Rel(FinSet(["1", "2"]), FinSet(["a"]), [("1", "a")])
    assert s.as_finset() == FinSet([("1", "a")])


def test_relations_iterate_in_key_order():
    left = FinSet(["b", "a", ("a", "b")])
    right = FinSet([frozenset({"c"}), "c", frozenset()])
    t = powerset_monad()
    rng = random.Random(3)
    for _ in range(60):
        s = Rel(left, right, [p for p in itertools.product(left, right)
                              if rng.random() < 0.4])
        for r in (s, t.lift(s), Rel(right, left, {(y, x) for x, y in s})):
            assert list(r) == sorted(r.pairs, key=atom_key)


# ------------------------------------- the constructor against its oracle

@pytest.fixture
def against_plain(monkeypatch):
    """Checks every FinSet built during the test against
    oracles.plain_finset_elements on the same input; yields the sizes."""
    built = []
    init = FinSet.__init__

    def checked(self, elements):
        elements = list(elements)
        init(self, elements)
        assert self.elements == oracles.plain_finset_elements(elements)
        built.append(len(elements))
    monkeypatch.setattr(FinSet, "__init__", checked)
    return built


def test_denote_carriers_match_the_plain_constructor(against_plain):
    # criterion 4's types, and every carrier inside them
    for atoms in (["a0", "a1"], ["z1", "z0"]):
        model = Model(powerset_monad(), {"b": FinSet(atoms)})
        for src in ("T b", "b -> T b", "T (b * Unit)", "T b -> T b"):
            denote(model, parse_ty(src))
    assert max(against_plain) == 256  # the graphs of T b -> T b


@pytest.mark.parametrize("monad", [powerset_monad, nonempty_powerset_monad,
                                   upper_monad])
def test_apply_levels_match_the_plain_constructor(monad, against_plain):
    t = monad()
    for obj in t.category.default_sets():
        t.apply(t.apply(obj))
    t.apply(t.apply(t.apply(t.category.default_sets(1)[-1])))
    assert against_plain


def _nested_values(rng):
    """A string, sets of pairs of sets, graphs, and distributions over
    atoms and over distributions."""
    atoms = ["a", "b", "c"]

    def a_set():
        return frozenset(rng.sample(atoms, rng.randint(0, 3)))
    out = [rng.choice(atoms)]
    out += [frozenset((a_set(), a_set()) for _ in range(rng.randint(0, 3)))
            for _ in range(3)]
    out += [frozenset(zip(atoms, (a_set() for _ in atoms))) for _ in range(3)]
    flat = [random_dist(rng, atoms, rng.choice(MODES)) for _ in range(3)]
    out += flat + [random_dist(rng, flat + [(a_set(), "x")], mode)
                   for mode in MODES]
    return out


def test_nested_values_match_the_plain_constructor(against_plain):
    rng = random.Random(29)
    for _ in range(300):
        values = list(dict.fromkeys(_nested_values(rng)))
        rng.shuffle(values)
        FinSet(values)
        # a value equal to one already there, as a new object when it is
        # a set, is refused by both with the same text
        dup = rng.choice(values)
        again = values + [frozenset(dup) if isinstance(dup, frozenset) else dup]
        with pytest.raises(ValueError) as want:
            oracles.plain_finset_elements(again)
        with pytest.raises(ValueError) as got:
            FinSet(again)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("duplicate atom ")


@pytest.mark.parametrize("bad", [
    ("a", 3),                       # a non-atom inside a pair
    frozenset({("a", "b", "c")}),   # a 3-tuple inside a set
    ("a", ["x"]),                   # a list inside a pair
    (frozenset({"a"}), ("b", ["x"])),
])
def test_non_atoms_fail_as_without_a_memo(bad):
    with pytest.raises(TypeError) as want:
        oracles.plain_finset_elements(["a", bad])
    with pytest.raises(TypeError) as got:
        FinSet(["a", bad])
    assert str(got.value) == str(want.value)
    assert "unhashable" not in str(got.value)
