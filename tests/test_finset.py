import pytest

from monarel import (FinFun, FinSet, Rel, UNIT, UNIT_ATOM, atom_key,
                     atom_str, compose, identity, pair, product_set, subsets,
                     times)


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


def test_finfun_validates_totality_and_codomain():
    a, b = FinSet(["x", "y"]), FinSet(["u"])
    with pytest.raises(ValueError):
        FinFun(a, b, {"x": "u"})
    with pytest.raises(ValueError):
        FinFun(a, b, {"x": "u", "y": "v"})
    f = FinFun(a, b, {"x": "u", "y": "u"})
    assert f("x") == "u"
    assert not f.is_injective() and f.is_surjective()


def test_finfun_from_callable():
    a = FinSet(["x", "y"])
    f = FinFun(a, a, lambda v: v)
    assert f.graph == {"x": "x", "y": "y"}
    assert f == identity(a)


def test_compose_and_identity():
    a = FinSet(["1", "2"])
    b = FinSet(["x", "y"])
    f = FinFun(a, b, {"1": "x", "2": "y"})
    g = FinFun(b, a, {"x": "2", "y": "1"})
    h = compose(g, f)
    assert h("1") == "2" and h("2") == "1"
    assert compose(f, identity(a)) == f
    with pytest.raises(ValueError):
        compose(f, f)


def test_pair_and_times():
    a = FinSet(["1", "2"])
    f = identity(a)
    p = pair(f, f)
    assert p("1") == ("1", "1")
    t = times(f, f)
    assert t(("1", "2")) == ("1", "2")
    assert t.dom == product_set(a, a)


def test_rel_basic_ops():
    s = Rel(FinSet(["1", "2"]), FinSet(["a", "b"]),
            [("1", "a"), ("2", "b")])
    assert s.right_image("1") == {"a"}
    assert s.left_image("b") == {"2"}
    assert s.converse().pairs == frozenset({("a", "1"), ("b", "2")})
    assert ("1", "a") in s and ("1", "b") not in s
    d = Rel.diagonal(FinSet(["1", "2"]))
    assert d.pairs == frozenset({("1", "1"), ("2", "2")})
    full = Rel.full(FinSet(["1"]), FinSet(["a", "b"]))
    assert len(full.pairs) == 2


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
    assert ("1", "a") in s.as_finset()
    assert s.proj_left()(("1", "a")) == "1"
    assert s.proj_right()(("1", "a")) == "a"
