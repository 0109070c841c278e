import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from monarel import (FinPoset, OrdFun, OrderedRel, SYSTEMS, chain, discrete,
                     factorize_ord, lift_relation_ord, ord_product, subsets,
                     upper_monad)


def fs(*xs):
    return frozenset(xs)


# --------------------------------------------------------------- FinPoset

def test_poset_takes_reflexive_transitive_closure():
    p = FinPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.le("a", "c") and p.le("a", "a")
    assert not p.le("c", "a")


def test_poset_rejects_cycles():
    with pytest.raises(ValueError):
        FinPoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_poset_rejects_stray_pairs():
    with pytest.raises(ValueError):
        FinPoset(["a"], [("a", "z")])


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_poset_closure_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    atoms = [f"x{i}" for i in range(n)]
    pairs = [(a, b) for a in atoms for b in atoms
             if a != b and rng.random() < 0.3]
    closed = oracles.brute_closure(atoms, pairs)
    antisym = all(not (x != y and (y, x) in closed) for x, y in closed)
    if antisym:
        assert FinPoset(atoms, pairs).pairs == frozenset(closed)
    else:
        with pytest.raises(ValueError):
            FinPoset(atoms, pairs)


def test_minimize_upset_antichain():
    p = chain(["0", "1", "2"])
    assert p.minimize(["0", "1", "2"]) == fs("0")
    assert p.is_antichain(["1"])
    assert not p.is_antichain(["0", "1"])
    d = discrete(["a", "b"])
    assert d.minimize(["a", "b"]) == fs("a", "b")


def test_chain_discrete_product_unit():
    c = chain(["0", "1"])
    assert c.le("0", "1") and not c.le("1", "0")
    d = discrete(["a", "b"])
    assert not d.le("a", "b")
    pr = ord_product(c, d)
    assert pr.le(("0", "a"), ("1", "a"))
    assert not pr.le(("0", "a"), ("1", "b"))


def test_poset_equality_and_hash():
    p = FinPoset(["a", "b"], [("a", "b")])
    q = FinPoset(["a", "b"], [("a", "b"), ("a", "a")])
    assert p == q and hash(p) == hash(q)
    assert p != discrete(["a", "b"])


# ----------------------------------------------------------------- OrdFun

def test_ordfun_requires_monotonicity():
    c = chain(["0", "1"])
    d = discrete(["a", "b"])
    with pytest.raises(ValueError):
        OrdFun(c, d, {"0": "a", "1": "b"})
    f = OrdFun(d, c, {"a": "0", "b": "1"})
    assert f("a") == "0"


def test_ordfun_requires_totality_and_codomain():
    c = chain(["0", "1"])
    with pytest.raises(ValueError):
        OrdFun(c, c, {"0": "0"})
    with pytest.raises(ValueError):
        OrdFun(c, c, {"0": "0", "1": "z"})


# ------------------------------------------------------------ upper monad

def all_posets(max_points):
    """Every poset on x0..x(n-1) for 1 <= n <= max_points, once each."""
    for n in range(1, max_points + 1):
        atoms = [f"x{i}" for i in range(n)]
        strict = [(a, b) for a in atoms for b in atoms if a != b]
        for leq in subsets(strict):
            closed = oracles.brute_closure(atoms, leq)
            if closed - {(a, a) for a in atoms} == leq and all(
                    (b, a) not in closed for a, b in leq):
                yield FinPoset(atoms, leq)


def test_smyth_on_the_two_chain():
    # the upper-set monad's carrier is every nonempty antichain, ordered
    # by the Smyth order, on every poset with at most three points
    t = upper_monad()
    posets = mismatches = 0
    for p in all_posets(3):
        posets += 1
        chains = [xs for xs in subsets(p.carrier) if xs and all(
            not p.le(x, y) for x in xs for y in xs if x != y)]
        smyth = {(e, f) for e in chains for f in chains
                 if oracles.smyth_le(p, e, f)}
        ta = t.apply(p)
        if set(ta) != set(chains) or ta.pairs != smyth:
            mismatches += 1
    assert (posets, mismatches) == (23, 0)


def test_upper_values_on_the_two_chain():
    t = upper_monad()
    ta = t.apply(chain(["0", "1"]))
    assert set(ta) == {fs("0"), fs("1")}
    assert ta.le(fs("0"), fs("1"))


def test_upper_unit_on_discrete_two():
    t = upper_monad()
    ta = t.apply(discrete(["a", "b"]))
    assert t.v_unit("a") == fs("a")
    assert not ta.le(fs("a"), fs("b"))
    assert ta.le(fs("a", "b"), fs("a"))


def test_upper_mult_minimizes_the_union():
    t = upper_monad()
    d = discrete(["a", "b"])
    out = t.v_mult(fs(fs("a"), fs("b")), d)
    assert out == fs("a", "b")
    c = chain(["a", "b"])
    assert t.v_mult(fs(fs("a"), fs("b")), c) == fs("a")


def test_upper_map_needs_codomain():
    t = upper_monad()
    with pytest.raises(ValueError):
        t.v_map(lambda x: x, fs("a"))


def test_upper_mediator_of_antichains_is_an_antichain():
    t = upper_monad()
    d = discrete(["a", "b"])
    med = t.v_mediator(fs("a", "b"), fs("a", "b"))
    assert med == fs(("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    assert ord_product(d, d).is_antichain(med)


# ---------------------------------------------------------- factorization

def test_factorize_identity_is_trivial():
    c = chain(["0", "1"])
    for sysname in SYSTEMS:
        fac = factorize_ord(OrdFun(c, c, {x: x for x in c}), sysname)
        assert fac.mid == c
        assert fac.epi.mapping == fac.mono.mapping == {"0": "0", "1": "1"}


def test_factorize_collapse_agrees_across_systems():
    d = discrete(["x", "y"])
    pt = FinPoset(["p"])
    f = OrdFun(d, pt, {"x": "p", "y": "p"})
    mids = [factorize_ord(f, sysname).mid for sysname in SYSTEMS]
    assert mids[0] == mids[1] == pt


def test_factorize_two_systems_differ_on_the_antichain_to_chain_map():
    f = OrdFun(discrete(["x", "y"]), chain(["a", "b"]),
               {"x": "a", "y": "b"})
    inherited = factorize_ord(f, "epi-regmono")
    generated = factorize_ord(f, "extremalepi-mono")
    assert inherited.mid.le("a", "b")
    assert not generated.mid.le("a", "b")  # no generating inequality
    assert set(inherited.mid) == set(generated.mid)


def test_factorize_recomposes_and_middle_is_the_image():
    rng = random.Random(23)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        dom_pairs = [(f"x{i}", f"x{j}") for i in range(n) for j in range(n)
                     if i != j and rng.random() < 0.3]
        cod_pairs = [(f"y{i}", f"y{j}") for i in range(m) for j in range(m)
                     if i != j and rng.random() < 0.3]
        try:
            dom = FinPoset([f"x{i}" for i in range(n)], dom_pairs)
            cod = FinPoset([f"y{i}" for i in range(m)], cod_pairs)
        except ValueError:
            continue
        mapping = {}
        ok = True
        for x in dom:
            mapping[x] = f"y{rng.randrange(m)}"
        try:
            f = OrdFun(dom, cod, mapping)
        except ValueError:
            continue
        for sysname in SYSTEMS:
            fac = factorize_ord(f, sysname)
            assert set(fac.mid) == set(f.image())
            assert {x: fac.mono(fac.epi(x)) for x in dom} == f.mapping
            # first leg surjective onto the middle
            assert set(fac.epi.mapping.values()) == set(fac.mid)
            # second leg injective and monotone into the codomain
            vals = list(fac.mono.mapping.values())
            assert len(vals) == len(set(vals))
        # the inherited system makes the second leg an embedding
        emb = factorize_ord(f, "epi-regmono")
        for u in emb.mid:
            for v in emb.mid:
                assert emb.mid.le(u, v) == cod.le(u, v)
        # the generated order never exceeds the inherited one
        gen = factorize_ord(f, "extremalepi-mono")
        assert gen.mid.pairs <= emb.mid.pairs


def test_factorize_unknown_system():
    with pytest.raises(ValueError):
        pt = FinPoset(["*"])
        factorize_ord(OrdFun(pt, pt, {"*": "*"}), "epi-mono")


# -------------------------------------------------------------- OrderedRel

def test_ordered_rel_defaults_to_the_product_order():
    c = chain(["0", "1"])
    s = OrderedRel(c, c, [("0", "0"), ("1", "1")])
    assert s.order == {(("0", "0"), ("0", "0")), (("0", "0"), ("1", "1")),
                       (("1", "1"), ("1", "1"))}


def test_ordered_rel_rejects_orders_beyond_the_product():
    d = discrete(["a", "b"])
    with pytest.raises(ValueError):
        OrderedRel(d, d, [("a", "a"), ("b", "b")],
                   order=[(("a", "a"), ("b", "b"))])


def test_ordered_rel_accepts_coarser_suborders():
    c = chain(["0", "1"])
    s = OrderedRel(c, c, [("0", "0"), ("1", "1")], order=[])
    assert s.order == {(("0", "0"), ("0", "0")), (("1", "1"), ("1", "1"))}
    assert s.as_poset().is_antichain([("0", "0"), ("1", "1")])


# ----------------------------------------------------------- lifted rels

def test_lift_diagonal_on_the_two_chain():
    c = chain(["0", "1"])
    s = OrderedRel(c, c, [("0", "0"), ("1", "1")])
    ta = upper_monad().apply(c)
    for sysname in SYSTEMS:
        lifted = lift_relation_ord(s, sysname)
        assert lifted.pairs == {(v, v) for v in ta}


def test_lift_pair_sets_agree_on_seeded_posets():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 3)
        atoms = [f"x{i}" for i in range(n)]
        pairs = [(a, b) for a in atoms for b in atoms
                 if a != b and rng.random() < 0.3]
        try:
            p = FinPoset(atoms, pairs)
        except ValueError:
            continue
        rel_pairs = [(a, b) for a in atoms for b in atoms
                     if rng.random() < 0.4]
        s = OrderedRel(p, p, rel_pairs)
        one = lift_relation_ord(s, SYSTEMS[0])
        two = lift_relation_ord(s, SYSTEMS[1])
        assert one.pairs == two.pairs
        assert two.order <= one.order


def test_ordering_difference_search_reports_absence():
    # search all sub-orders of small relations for a case where the
    # generated order is strictly coarser than the inherited one; when
    # the relation's order refines the product order the two coincide,
    # so the search is expected to come back empty, and that absence is
    # asserted rather than assumed
    p = discrete(["a", "b", "c"])
    universe = [(x, y) for x in p for y in p]
    witnesses = 0
    searched = 0
    for rel_pairs in subsets(universe):
        if len(rel_pairs) > 4:
            continue
        s = OrderedRel(p, p, rel_pairs)
        one = lift_relation_ord(s, SYSTEMS[0])
        two = lift_relation_ord(s, SYSTEMS[1])
        searched += 1
        if one.order != two.order:
            witnesses += 1
    assert searched > 100
    assert witnesses == 0
