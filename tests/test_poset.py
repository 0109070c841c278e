import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import monarel
import oracles
from monarel import (ORD, FinPoset, FinSet, OrderedRel, Rel, SYSTEMS, chain,
                     discrete, factorize_ord, lift_enumerate,
                     lift_relation_ord, nonempty_powerset_monad, ord_product,
                     subsets, upper_monad)


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


def _posets_up_to_3_points_and_seeded_4_and_5():
    for n in (1, 2, 3):
        atoms = [f"x{i}" for i in range(n)]
        edges = [(a, b) for a in atoms for b in atoms if a != b]
        for picked in subsets(edges):
            try:
                yield FinPoset(atoms, picked)
            except ValueError:  # not antisymmetric
                pass
    rng = random.Random(45)
    for n in [4] * 50 + [5] * 50:
        atoms = [f"x{i}" for i in range(n)]
        # generators that go up the atom order keep the closure acyclic
        yield FinPoset(atoms, [(a, b) for i, a in enumerate(atoms)
                               for b in atoms[i + 1:] if rng.random() < 0.3])


def test_kept_order_rows_give_exactly_the_pairs():
    count = 0
    for p in _posets_up_to_3_points_and_seeded_4_and_5():
        assert sorted(p.index.values()) == list(range(len(p)))
        assert p.pairs == {(x, y) for x in p for y in p
                           if p.above[p.index[x]] >> p.index[y] & 1}
        count += 1
    # 29 generating sets give the 23 posets of at most 3 points; then the
    # 100 seeded ones
    assert count == 129


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

PT = FinPoset(["*"])


def into(mapping):
    """A map into a poset P, as a map into P x the one-point poset."""
    return {x: (y, "*") for x, y in mapping.items()}


def on_cod(r):
    """The order factorize_ord put on the image, read back in cod."""
    return {(u[0], v[0]) for u, v in r.order}


def test_factorize_identity_is_trivial():
    c = chain(["0", "1"])
    for sysname in SYSTEMS:
        r = factorize_ord(into({x: x for x in c}), c, c, PT, sysname)
        assert r.pairs == {("0", "*"), ("1", "*")}
        assert on_cod(r) == c.pairs


def test_factorize_collapse_agrees_across_systems():
    d = discrete(["x", "y"])
    pt = FinPoset(["p"])
    phi = into({"x": "p", "y": "p"})
    mids = [factorize_ord(phi, d, pt, PT, sysname) for sysname in SYSTEMS]
    assert mids[0] == mids[1]
    assert mids[0].pairs == {("p", "*")} and on_cod(mids[0]) == pt.pairs


def test_factorize_two_systems_differ_on_the_antichain_to_chain_map():
    c = chain(["a", "b"])
    phi = into({"x": "a", "y": "b"})
    d = discrete(["x", "y"])
    inherited = factorize_ord(phi, d, c, PT, "epi-regmono")
    generated = factorize_ord(phi, d, c, PT, "extremalepi-mono")
    assert ("a", "b") in on_cod(inherited)
    assert ("a", "b") not in on_cod(generated)  # no generating inequality
    assert inherited.pairs == generated.pairs


def test_factorize_recomposes_and_middle_is_the_image():
    rng = random.Random(23)
    monotone = 0
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
        mapping = {x: f"y{rng.randrange(m)}" for x in dom}
        phi = into(mapping)
        if not all(cod.le(mapping[x], mapping[y]) for x, y in dom.pairs):
            for sysname in SYSTEMS:
                with pytest.raises(ValueError, match="not monotone"):
                    factorize_ord(phi, dom, cod, PT, sysname)
            continue
        monotone += 1
        emb, gen = (factorize_ord(phi, dom, cod, PT, sysname)
                    for sysname in SYSTEMS)
        for r in (emb, gen):
            # phi lands onto the image and stays monotone into its order,
            # and the inclusion of the image into cod x PT is monotone
            assert r.pairs == set(phi.values())
            assert {(phi[x], phi[y]) for x, y in dom.pairs} <= r.order
            assert on_cod(r) <= cod.pairs
        # the inherited system makes the inclusion an embedding
        image = {y for y, _ in emb.pairs}
        assert on_cod(emb) == {(u, v) for u in image for v in image
                               if cod.le(u, v)}
        # the generated order never exceeds the inherited one
        assert gen.order <= emb.order
    assert monotone >= 20


def test_factorize_unknown_system():
    with pytest.raises(ValueError, match="unknown system"):
        factorize_ord({"*": ("*", "*")}, PT, PT, PT, "epi-mono")


def test_factorize_requires_monotonicity():
    c = chain(["0", "1"])
    d = discrete(["a", "b"])
    for sysname in SYSTEMS:
        with pytest.raises(ValueError, match="not monotone"):
            factorize_ord(into({"0": "a", "1": "b"}), c, d, PT, sysname)
        r = factorize_ord(into({"a": "0", "b": "1"}), d, c, PT, sysname)
        assert r.pairs == {("0", "*"), ("1", "*")}


def test_not_monotone_names_the_first_pushed_pair_under_every_hash_seed():
    # all three pushed pairs fail; the least in atom_key order is named
    script = (
        "from monarel import chain, discrete, factorize_ord\n"
        "phi = {'a': ('q', 'y'), 'b': ('p', 'x'), 'c': ('r', 'z')}\n"
        "factorize_ord(phi, chain('abc'), discrete('pqr'), discrete('xyz'),"
        " 'epi-regmono')\n")
    src = os.path.dirname(os.path.dirname(monarel.__file__))
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        got = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=5)
        assert got.stderr.endswith(
            "ValueError: not monotone: ('p', 'x') is not below ('r', 'z') "
            "in the product\n"), (seed, got.stderr)


def test_factorize_requires_totality_and_codomain():
    c = chain(["0", "1"])
    for sysname in SYSTEMS:
        with pytest.raises(ValueError, match="no image"):
            factorize_ord(into({"0": "0"}), c, c, PT, sysname)
        with pytest.raises(ValueError, match="outside the codomain"):
            factorize_ord(into({"0": "0", "1": "z"}), c, c, PT, sysname)
        with pytest.raises(ValueError, match="outside the codomain"):
            factorize_ord({"0": ("0", "*"), "1": ("1", "z")}, c, c, PT,
                          sysname)


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


def test_ordered_rel_checks_its_order_as_the_closure_oracle_does():
    # OrderedRel checks the pairs it is given; the oracle checks every
    # pair of their closure against the product order
    rng = random.Random(20)
    grown = refused = refused_late = 0
    for _ in range(300):
        p, q = (FinPoset(atoms, [(a, b) for i, a in enumerate(atoms)
                                 for b in atoms[i + 1:] if rng.random() < 0.4])
                for atoms in (["a", "b", "c"], ["x", "y", "z"]))
        pairs = [(a, b) for a in p for b in q if rng.random() < 0.5]
        rng.shuffle(pairs)
        # generators that go up the shuffled order keep the closure acyclic
        order = [(u, v) for i, u in enumerate(pairs) for v in pairs[i + 1:]
                 if rng.random() < 0.3]
        rng.shuffle(order)
        closure = oracles.brute_closure(pairs, order)
        below = [p.le(u[0], v[0]) and q.le(u[1], v[1]) for u, v in closure]
        grown += len(closure) > len(pairs) + len(order)
        if all(below):
            assert OrderedRel(p, q, pairs, order).order == closure
            continue
        refused += 1
        refused_late += p.le(order[0][0][0], order[0][1][0]) and \
            q.le(order[0][0][1], order[0][1][1])
        with pytest.raises(ValueError, match="not below the product order"):
            OrderedRel(p, q, pairs, order)
    # closures that add pairs, and refusals whose first given pair is fine
    assert min(grown, refused, refused_late, 300 - refused) > 20


def test_ordered_rel_default_is_the_full_product_restriction():
    rng = random.Random(21)
    for _ in range(100):
        p, q = (FinPoset(atoms, [(a, b) for i, a in enumerate(atoms)
                                 for b in atoms[i + 1:] if rng.random() < 0.4])
                for atoms in (["a", "b", "c"], ["x", "y"]))
        pairs = [(a, b) for a in p for b in q if rng.random() < 0.5]
        full = [(u, v) for u in pairs for v in pairs
                if p.le(u[0], v[0]) and q.le(u[1], v[1])]
        assert OrderedRel(p, q, pairs) == OrderedRel(p, q, pairs, full)
        assert OrderedRel(p, q, pairs).order == frozenset(full)


def test_ordered_rel_accepts_coarser_suborders():
    c = chain(["0", "1"])
    s = OrderedRel(c, c, [("0", "0"), ("1", "1")], order=[])
    assert s.order == {(("0", "0"), ("0", "0")), (("1", "1"), ("1", "1"))}
    assert s.as_poset().is_antichain([("0", "0"), ("1", "1")])


# ---------------------------------------------------------- product order

def product_order(p, q, pairs):
    """The product order of p x q restricted to pairs, by its definition:
    componentwise, read off the two orders' pair sets."""
    return {(u, v) for u in pairs for v in pairs
            if (u[0], v[0]) in p.pairs and (u[1], v[1]) in q.pairs}


def two_point_posets():
    return [p for p in all_posets(2) if len(p) == 2]


def test_ord_product_is_the_product_order_on_every_small_pair():
    # every pair of posets on at most 2 points, and the ORD default grid
    small = list(all_posets(2)) + ORD.default_sets()
    for p, q in itertools.product(small, repeat=2):
        every = [(x, y) for x in p for y in q]
        r = ord_product(p, q)
        assert r.carrier == FinSet(every)
        assert r.pairs == product_order(p, q, every), (p, q)


def test_ordered_rel_orders_every_relation_between_two_point_posets():
    for p, q in itertools.product(two_point_posets(), repeat=2):
        for pairs in subsets([(x, y) for x in p for y in q]):
            full = product_order(p, q, pairs)
            assert OrderedRel(p, q, pairs).order == full, (p, q, pairs)
            assert OrderedRel(p, q, pairs, full).order == full
            # each single pair outside the product order is refused
            for u, v in itertools.product(pairs, repeat=2):
                if (u, v) not in full:
                    with pytest.raises(ValueError,
                                       match="not below the product order"):
                        OrderedRel(p, q, pairs, [(u, v)])


def test_factorize_refuses_exactly_the_non_monotone_maps():
    # every map from a 2-point poset into a 2-point x 1-point product,
    # and into the 1-point x 2-point one
    refused = accepted = 0
    for dom, cod in itertools.product(two_point_posets(), repeat=2):
        for image in itertools.product(cod, repeat=2):
            mapping = dict(zip(dom, image))
            monotone = all(cod.le(mapping[x], mapping[y]) for x, y in dom.pairs)
            for left, right, phi in (
                    (cod, PT, {x: (y, "*") for x, y in mapping.items()}),
                    (PT, cod, {x: ("*", y) for x, y in mapping.items()})):
                for sysname in SYSTEMS:
                    if monotone:
                        r = factorize_ord(phi, dom, left, right, sysname)
                        assert r.pairs == set(phi.values())
                        accepted += 1
                    else:
                        with pytest.raises(ValueError, match="not monotone"):
                            factorize_ord(phi, dom, left, right, sysname)
                        refused += 1
    assert min(refused, accepted) > 0


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


def test_lift_agrees_with_the_product_poset_construction():
    # every relation between every two posets of at most two points, then
    # a seeded sample over three points; pairs and order, both systems
    small = list(all_posets(2))
    cases = [(p, q, rel) for p in small for q in small
             for rel in subsets([(a, b) for a in p for b in q])]
    three = list(all_posets(3))[len(small):]
    rng = random.Random(47)
    for _ in range(100):
        p, q = rng.choice(three), rng.choice(three)
        cases.append((p, q, [(a, b) for a in p for b in q
                             if rng.random() < 0.4]))
    for p, q, rel in cases:
        s = OrderedRel(p, q, rel)
        for sysname in SYSTEMS:
            lifted = lift_relation_ord(s, sysname)
            expect = oracles.product_poset_lift(s, sysname)
            assert (lifted.pairs, lifted.order) == (expect.pairs, expect.order)
    assert len(cases) == 170 + 100


def test_lift_on_discrete_posets_is_the_nonempty_powerset_lift():
    # one construction: over discrete posets the antichains are the
    # nonempty subsets, and the ordered lifting's pairs are the set ones
    t = nonempty_powerset_monad()
    for left, right in [("a", "xy"), ("ab", "xy"), ("abc", "xy")]:
        universe = [(a, b) for a in left for b in right]
        for rel in subsets(universe):
            s = OrderedRel(discrete(left), discrete(right), rel)
            expect = lift_enumerate(t, Rel(s.left.carrier, s.right.carrier, rel))
            for sysname in SYSTEMS:
                assert lift_relation_ord(s, sysname).pairs == expect.pairs


def test_lift_rejects_an_unknown_system():
    c = chain(["0", "1"])
    with pytest.raises(ValueError, match="unknown system"):
        lift_relation_ord(OrderedRel(c, c, [("0", "0")]), "epi-mono")


@pytest.mark.parametrize("call,message", [
    (lambda: upper_monad().apply(FinSet(["a"])),
     "^the upper-set monad lives on posets$"),
    (lambda: upper_monad().v_mult(fs(fs(fs("a"))), None),
     "^flattening antichains needs the base poset$"),
], ids=["apply-on-a-set", "mult-without-poset"])
def test_upper_monad_refuses_inputs_outside_posets(call, message):
    with pytest.raises(ValueError, match=message):
        call()
