import copy
import itertools
import random

import pytest

import oracles
from monarel import metalang
from monarel import (FinSet, LawReport, Model, ParseError, Rel,
                     TypecheckError, atom_key, basic_lemma_check, denote,
                     dist_monad, eval_term,
                     logical_relation, nonempty_powerset_monad, parse,
                     parse_ty, powerset_monad, synthesize,
                     term_str, typecheck, upper_monad)
from monarel.metalang import (MAX_CARRIER, Abs, App, Arrow, Base, Fst, Let,
                              PairTm, Prod, Snd, TTy, Tm, UnitTm, UnitTy, Val,
                              Var, _relates)

B = FinSet(["a0", "a1"])
MODEL = Model(powerset_monad(), {"b": B})
DIAG = Rel(B, B, [(x, x) for x in B])


def lossy_powerset():
    """The powerset monad with a unit that loses a1."""
    lossy = copy.copy(powerset_monad())
    lossy._unit = lambda x: frozenset() if x == "a1" else frozenset([x])
    return lossy


def term_size(t) -> int:
    """The number of constructors in a term."""
    return 1 + sum(term_size(v) for v in vars(t).values() if isinstance(v, Tm))


# ----------------------------------------------------------------- parse

def test_parse_abs_val():
    t = parse("\\x:b. val x")
    assert t == Abs("x", Base("b"), Val(Var("x")))


def test_parse_let_with_projection():
    t = parse("let val x = m in val (fst x)")
    assert t == Let("x", Var("m"), Val(Fst(Var("x"))))


def test_parse_application_is_left_associative():
    t = parse("f g h")
    assert t == App(App(Var("f"), Var("g")), Var("h"))


def test_parse_pair_and_unit():
    assert parse("()") == UnitTm()
    assert parse("(x, y)") == PairTm(Var("x"), Var("y"))
    assert parse("snd (x, y)") == Snd(PairTm(Var("x"), Var("y")))


def test_parse_bare_fst_is_an_error():
    with pytest.raises(ParseError) as err:
        parse("fst")
    assert "1:" in str(err.value)


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse("let val x = m in\n val )")
    assert str(err.value).startswith("2:")


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse("x y)")


def test_parse_ty_arrow_is_right_associative():
    ty = parse_ty("b -> b -> b")
    assert ty == Arrow(Base("b"), Arrow(Base("b"), Base("b")))


def test_parse_ty_refuses_t_without_an_argument():
    with pytest.raises(ParseError,
                       match="^1:2: expected a type, found 'end of input'$"):
        parse_ty("T")


def test_parse_ty_prefix_t_binds_tighter_than_product():
    ty = parse_ty("T b * b")
    assert ty == Prod(TTy(Base("b")), Base("b"))
    assert parse_ty("T (b * b)") == TTy(Prod(Base("b"), Base("b")))


def test_types_print_back_to_parseable_text():
    for src in ("b -> T b", "T b * b", "(b -> b) -> Unit", "T (b * b)"):
        assert parse_ty(str(parse_ty(src))) == parse_ty(src)


def test_terms_print_back_to_parseable_text():
    for src in ("\\x:b. val x", "let val x = m in val (fst x)",
                "(\\f:b -> b. f y) g", "val ((), x)"):
        t = parse(src)
        assert parse(term_str(t)) == t


# ------------------------------------------------------------- typecheck

def test_typecheck_abs_val():
    assert typecheck({}, parse("\\x:b. val x")) == \
        Arrow(Base("b"), TTy(Base("b")))


def test_typecheck_let_sequencing():
    got = typecheck({"x": TTy(Base("b"))}, parse("let val y = x in val y"))
    assert got == TTy(Base("b"))


def test_typecheck_snd_of_a_base_value_fails():
    with pytest.raises(TypecheckError,
                       match="^1:1: snd needs a product, got b$"):
        typecheck({"x": Base("b")}, parse("snd x"))


def test_typecheck_fst_of_function_fails():
    with pytest.raises(TypecheckError):
        typecheck({"f": Arrow(Base("b"), Base("b"))}, parse("fst f"))


def test_typecheck_let_requires_computation_on_the_right():
    with pytest.raises(TypecheckError):
        typecheck({"x": Base("b")}, parse("let val y = x in val y"))


def test_typecheck_let_requires_computation_body():
    with pytest.raises(TypecheckError):
        typecheck({"m": TTy(Base("b"))}, parse("let val y = m in y"))


def test_typecheck_app_mismatch():
    ctx = {"f": Arrow(Base("b"), Base("b")), "u": UnitTy()}
    with pytest.raises(TypecheckError):
        typecheck(ctx, parse("f u"))


def test_typecheck_unbound_variable():
    with pytest.raises(TypecheckError):
        typecheck({}, parse("x"))


# ------------------------------------------------------------------ eval

def test_denote_sizes():
    assert len(denote(MODEL, parse_ty("T b"))) == 4
    assert len(denote(MODEL, parse_ty("b -> b"))) == 4
    assert len(denote(MODEL, parse_ty("Unit"))) == 1
    assert len(denote(MODEL, parse_ty("b * b"))) == 4


def test_model_rejects_non_enumerable_monads():
    with pytest.raises(ValueError):
        Model(dist_monad("probability"), {"b": B})
    # the upper-set monad is enumerable, but on posets
    with pytest.raises(ValueError):
        Model(upper_monad(), {"b": B})


def test_model_base_is_a_read_only_copy():
    t = powerset_monad()
    base = {"b": B}
    model = Model(t, base)
    graphs = denote(model, parse_ty("b -> b"))
    base["b"] = FinSet(["z"])
    base["c"] = B
    assert model.base == {"b": B}
    assert denote(model, parse_ty("b -> b")) is graphs and len(graphs) == 4
    with pytest.raises(ValueError):
        denote(model, parse_ty("c"))
    with pytest.raises(TypeError):
        model.base["b"] = FinSet(["z"])
    assert model == Model(t, {"b": B})
    assert model != Model(t, {"b": FinSet(["z"])})


def test_oversized_carriers_are_refused_before_they_are_built():
    with pytest.raises(ValueError, match=r"T \(b -> b\) -> b has 65536 "):
        denote(MODEL, parse_ty("T (b -> b) -> b"))
    # the carriers of T (b * b) have 16 values, but lifting the full
    # relation walks T over its 16 pairs
    full = Rel(B, B, itertools.product(B, B))
    with pytest.raises(ValueError, match=r"16 pairs .* has 65536 "):
        logical_relation(MODEL, MODEL, {"b": full}, parse_ty("T (b * b)"))


@pytest.mark.parametrize("src, named", [
    # both sides too large: an arrow names its codomain, a product its
    # left factor
    ("T (T (T b)) -> T (T (T (b * Unit)))", "T (T (T (b * Unit)))"),
    ("T (T (T b)) * T (T (T (b * Unit)))", "T (T (T b))"),
    # only the domain too large
    ("T (T (T b)) -> b", "T (T (T b))"),
    # each side fits, the whole does not
    ("T (T b) * T (T b) * T (T b)", "T (T b) * T (T b) * T (T b)"),
])
def test_a_refusal_names_the_first_oversized_type(src, named):
    model = Model(powerset_monad(), {"b": B})
    with pytest.raises(ValueError) as err:
        denote(model, parse_ty(src))
    assert str(err.value).startswith(f"the carrier of {named} has ")
    # the carriers built on the way stay within the limit
    assert model._carriers
    assert all(len(c) <= MAX_CARRIER for c in model._carriers.values())
    assert parse_ty(named) not in model._carriers


def test_eval_identity_application():
    assert eval_term(MODEL, {"y": "a0"}, parse("(\\x:b. x) y")) == "a0"


def test_eval_let_of_val_is_unit():
    v = eval_term(MODEL, {}, parse("let val x = val () in val x"))
    assert v == frozenset({"*"})


def test_eval_let_flattens_an_ambient_computation():
    v = eval_term(MODEL, {"m": frozenset({"a0", "a1"})},
                  parse("let val x = m in val x"))
    assert v == frozenset({"a0", "a1"})


def test_eval_pairs_and_projections():
    env = {"x": "a0", "y": "a1"}
    assert eval_term(MODEL, env, parse("fst (x, y)")) == "a0"
    assert eval_term(MODEL, env, parse("snd (x, y)")) == "a1"


def test_eval_let_threads_the_environment():
    # the body sees both the bound variable and the outer environment
    v = eval_term(MODEL, {"m": frozenset({"a0", "a1"}), "y": "a1"},
                  parse("let val x = m in val (x, y)"))
    assert v == frozenset({("a0", "a1"), ("a1", "a1")})


def test_beta_law_for_let_over_generated_bodies():
    # let val x = val y in t  ==  t with x bound to y's value
    rng = random.Random(42)
    ctx = {"x": Base("b"), "y": Base("b")}
    made = 0
    while made < 40:
        body = synthesize(rng, ctx, TTy(Base("b")), 6)
        if body is None:
            continue
        made += 1
        t = Let("x", Val(Var("y")), body)
        for a in B:
            lhs = eval_term(MODEL, {"y": a}, t)
            rhs = eval_term(MODEL, {"x": a, "y": a}, body)
            assert lhs == rhs, term_str(t)


def _redexes(ctx, t):
    """(context, r) for every subterm r = App(Abs, a) of t, with the
    typing context that r sees."""
    if isinstance(t, App) and isinstance(t.fn, Abs):
        yield ctx, t
    if isinstance(t, Abs):
        yield from _redexes({**ctx, t.var: t.ty}, t.body)
    elif isinstance(t, Let):
        yield from _redexes(ctx, t.rhs)
        yield from _redexes({**ctx, t.var: typecheck(ctx, t.rhs).arg}, t.body)
    else:
        for v in vars(t).values():
            if isinstance(v, Tm):
                yield from _redexes(ctx, v)


@pytest.mark.parametrize("monad", [powerset_monad, lossy_powerset])
def test_an_applied_lambda_is_its_graph_at_the_argument(monad):
    # criterion 4's context and types; every environment of each redex
    model = Model(monad(), {"b": B})
    rng = random.Random(19)
    ctx = {"x": Base("b"), "m": TTy(Base("b"))}
    types = [TTy(Base("b")), Arrow(Base("b"), TTy(Base("b"))),
             TTy(Prod(Base("b"), UnitTy())),
             Arrow(TTy(Base("b")), TTy(Base("b")))]
    made = checked = 0
    while made < 300:
        t = synthesize(rng, ctx, types[made % len(types)], 8)
        if t is None:
            continue
        made += 1
        for scope, r in _redexes(ctx, t):
            names = sorted(scope)
            for vals in itertools.product(*(denote(model, scope[x])
                                            for x in names)):
                env = dict(zip(names, vals))
                graph = dict(eval_term(model, env, r.fn))
                assert eval_term(model, env, r) == \
                    graph[eval_term(model, env, r.arg)], term_str(r)
                checked += 1
    assert checked > 200  # 256 at this seed


def test_an_argument_outside_the_domain_is_refused():
    # a unit that leaves the carrier of T b
    stray = copy.copy(powerset_monad())
    stray._unit = lambda x: frozenset(["stray"])
    model = Model(stray, {"b": B})
    ident = frozenset((v, v) for v in denote(model, TTy(Base("b"))))
    for src in ("(\\y:T b. y) (val x)", "f (val x)"):
        with pytest.raises(ValueError, match=r"^application outside the "
                           r"function's domain: frozenset\(\{'stray'\}\)$"):
            eval_term(model, {"x": "a0", "f": ident}, parse(src))


# ------------------------------------------------------ logical relation

def test_logical_relation_base_clause_is_the_given_rel():
    got = logical_relation(MODEL, MODEL, {"b": DIAG}, parse_ty("b"))
    assert got.pairs == DIAG.pairs


def test_logical_relation_unit_clause():
    got = logical_relation(MODEL, MODEL, {"b": DIAG}, parse_ty("Unit"))
    assert got.pairs == {("*", "*")}


def test_logical_relation_arrow_on_diagonal_is_function_equality():
    got = logical_relation(MODEL, MODEL, {"b": DIAG}, parse_ty("b -> b"))
    assert got.pairs == {(g, g) for g in denote(MODEL, parse_ty("b -> b"))}


def test_logical_relation_arrow_matches_brute_filter():
    # base relation deliberately not the diagonal
    small = Model(powerset_monad(), {"b": FinSet(["a0", "a1"])})
    rel = Rel(B, B, [("a0", "a0"), ("a0", "a1"), ("a1", "a1")])
    ty = parse_ty("b -> b")
    got = logical_relation(small, small, {"b": rel}, ty)
    graphs = list(denote(small, ty))
    want = set()
    for g1, g2 in itertools.product(graphs, graphs):
        f1, f2 = dict(g1), dict(g2)
        if all((f1[x], f2[y]) in rel.pairs for x, y in rel.pairs):
            want.add((g1, g2))
    assert got.pairs == want


ARROW_TYPES = ["b -> b", "b -> T b", "T b -> T b", "(b -> b) -> b",
               "b -> b -> b", "b * Unit -> T b"]


@pytest.mark.parametrize("monad", [powerset_monad, nonempty_powerset_monad])
@pytest.mark.parametrize("right", [["z0"], ["z0", "z1"]])
def test_arrow_clause_matches_the_triple_loop(monad, right):
    left = FinSet(["a0", "a1"])
    right = FinSet(right)
    m1 = Model(monad(), {"b": left})
    m2 = Model(monad(), {"b": right})
    cells = list(itertools.product(left, right))
    for src in ARROW_TYPES:
        ty = parse_ty(src)
        fs1, fs2 = denote(m1, ty), denote(m2, ty)
        graphs2 = {id(g) for g in fs2}
        for k in range(len(cells) + 1):
            for picked in itertools.combinations(cells, k):
                base = {"b": Rel(left, right, picked)}
                got = logical_relation(m1, m2, base, ty)
                rd = logical_relation(m1, m2, base, ty.dom)
                rc = logical_relation(m1, m2, base, ty.cod)
                assert got.pairs == oracles.arrow_relation_pairs(
                    fs1, fs2, rd, rc), (src, picked)
                # the related graphs are model2's own, not rebuilt copies
                assert all(id(g) in graphs2 for _, g in got.pairs)


# b * b and b -> Unit * b make both factors of a product matter, and
# (b -> b) * T b puts an arrow inside one
PREDICATE_TYPES = ["b", "Unit", "b * Unit", "T b", "T (b * Unit)", "b -> T b",
                   "T b -> T b", "(b -> b) -> b", "b -> b -> b", "b * b",
                   "b -> Unit * b", "(b -> b) * T b"]


def _model_pairs(monad1, monad2):
    """The diagonal on {a0,a1}, then all 16 relations to {z0,z1}."""
    left, right = FinSet(["a0", "a1"]), FinSet(["z0", "z1"])
    m1 = Model(monad1, {"b": left})
    m2 = Model(monad2, {"b": right})
    yield m1, m1, {"b": Rel.diagonal(left)}
    cells = list(itertools.product(left, right))
    for k in range(len(cells) + 1):
        for picked in itertools.combinations(cells, k):
            yield m1, m2, {"b": Rel(left, right, picked)}


def _stray(graph, cod):
    """Graphs outside every carrier of their arrow type: one point more,
    and one point less."""
    return (graph | {("stray", next(iter(cod)))},
            graph - {min(graph, key=atom_key)})


@pytest.mark.parametrize("monads", [
    (powerset_monad, powerset_monad),
    (nonempty_powerset_monad, nonempty_powerset_monad),
    (lossy_powerset, powerset_monad),
], ids=["powerset", "nonempty-powerset", "lossy"])
def test_relates_is_membership_in_the_logical_relation(monads):
    for m1, m2, base in _model_pairs(*(m() for m in monads)):
        for src in PREDICATE_TYPES:
            ty = parse_ty(src)
            related = _relates(m1, m2, base, ty)
            rel = logical_relation(m1, m2, base, ty)
            vs1, vs2 = denote(m1, ty), denote(m2, ty)
            accepted = {(v1, v2) for v1 in vs1 for v2 in vs2
                        if related(v1, v2)}
            assert accepted == rel.pairs, (src, base)
            if isinstance(ty, Prod):
                # componentwise, from the relations at the two factors
                rl = logical_relation(m1, m2, base, ty.left)
                rr = logical_relation(m1, m2, base, ty.right)
                assert accepted == {((x1, y1), (x2, y2)) for x1, x2 in rl
                                    for y1, y2 in rr}, (src, base)
            if not isinstance(ty, Arrow):
                continue
            assert accepted == oracles.arrow_relation_pairs(
                vs1, vs2, logical_relation(m1, m2, base, ty.dom),
                logical_relation(m1, m2, base, ty.cod)), (src, base)
            for f, g in list(rel)[:4]:
                for f2 in _stray(f, denote(m1, ty.cod)):
                    assert not related(f2, g), (src, f2, g)
                for g2 in _stray(g, denote(m2, ty.cod)):
                    assert not related(f, g2), (src, f, g2)


def test_relates_refuses_what_logical_relation_refuses():
    full = {"b": Rel(B, B, itertools.product(B, B))}
    for src in ("T (b * b) -> b", "b -> T (b * b)", "b * T (b * b)",
                "(T (b -> b) -> b) -> b", "b -> c"):
        ty = parse_ty(src)
        with pytest.raises(ValueError) as want:
            logical_relation(MODEL, MODEL, full, ty)
        with pytest.raises(ValueError) as got:
            _relates(MODEL, MODEL, full, ty)
        assert str(got.value) == str(want.value), src


def test_logical_relation_computation_clause_is_the_lifted_relation():
    got = logical_relation(MODEL, MODEL, {"b": DIAG}, parse_ty("T b"))
    assert got.pairs == {(v, v) for v in denote(MODEL, parse_ty("T b"))}


def test_logical_relation_product_clause():
    got = logical_relation(MODEL, MODEL, {"b": DIAG}, parse_ty("b * Unit"))
    assert got.pairs == {((x, "*"), (x, "*")) for x in B}


def test_logical_relation_requires_matching_monads():
    other = Model(nonempty_powerset_monad(), {"b": B})
    with pytest.raises(ValueError):
        logical_relation(MODEL, other, {"b": DIAG}, parse_ty("b"))


def test_logical_relation_checks_base_carriers():
    wrong = Rel(FinSet(["z"]), FinSet(["z"]), [("z", "z")])
    with pytest.raises(ValueError):
        logical_relation(MODEL, MODEL, {"b": wrong}, parse_ty("b"))


# ----------------------------------------------------------- basic lemma

def test_basic_lemma_on_closed_unit_computation():
    rep = basic_lemma_check(MODEL, MODEL, {"b": DIAG}, {}, parse("val ()"))
    assert rep.ok and rep.cases == 1


def test_basic_lemma_on_open_val():
    rep = basic_lemma_check(MODEL, MODEL, {"b": DIAG},
                            {"x": Base("b")}, parse("val x"))
    assert rep.ok and rep.cases == len(DIAG.pairs)


def test_basic_lemma_across_different_carriers():
    m2 = Model(powerset_monad(), {"b": FinSet(["z"])})
    rel = Rel(B, FinSet(["z"]), [("a0", "z"), ("a1", "z")])
    term = parse("let val y = val x in val (y, x)")
    rep = basic_lemma_check(MODEL, m2, {"b": rel}, {"x": Base("b")}, term)
    assert rep.ok and rep.cases == 2


def test_basic_lemma_holds_on_generated_terms():
    rng = random.Random(7)
    ctx = {"x": Base("b"), "m": TTy(Base("b"))}
    types = [TTy(Base("b")), Arrow(Base("b"), TTy(Base("b"))),
             TTy(Prod(Base("b"), UnitTy()))]
    checked = 0
    while checked < 150:
        ty = types[checked % len(types)]
        t = synthesize(rng, ctx, ty, 8)
        if t is None:
            continue
        assert typecheck(ctx, t) == ty
        rep = basic_lemma_check(MODEL, MODEL, {"b": DIAG}, ctx, t)
        assert rep.ok, term_str(t)
        checked += 1


def test_basic_lemma_builds_one_relation_per_context_type(monkeypatch):
    # f and g share b -> T b over three fully related atoms: the relation
    # there is built once before the product of the two is refused
    abc = FinSet(["a", "b", "c"])
    model = Model(powerset_monad(), {"b": abc})
    full = {"b": Rel(abc, abc, itertools.product(abc, abc))}
    calls = []

    def counted(m1, m2, base, ty):
        calls.append(ty)
        return logical_relation(m1, m2, base, ty)
    monkeypatch.setattr(metalang, "logical_relation", counted)
    ctx = {"g": parse_ty("b -> T b"), "f": parse_ty("b -> T b")}
    with pytest.raises(ValueError) as err:
        basic_lemma_check(model, model, full, ctx, parse("val ()"))
    assert str(err.value).startswith("the product of the relations at f, g ")
    assert calls.count(parse_ty("b -> T b")) == 1


Z = FinSet(["z0", "z1"])


@pytest.mark.parametrize("model1, model2, holds", [
    (MODEL, MODEL, True),
    (MODEL, Model(powerset_monad(), {"b": Z}), True),
    (MODEL, Model(powerset_monad(), {"b": B}), True),
    (Model(lossy_powerset(), {"b": B}), MODEL, False),
], ids=["one-model", "other-atoms", "equal-models", "lossy"])
def test_basic_lemma_report_matches_the_plain_loop(model1, model2, holds):
    # criterion 4's terms, each over every relation between the two
    # base carriers (the diagonal among them when the carriers agree)
    left, right = model1.base["b"], model2.base["b"]
    grid = list(itertools.product(left, right))
    rels = [Rel(left, right, picked) for k in range(len(grid) + 1)
            for picked in itertools.combinations(grid, k)]
    rng = random.Random(12)
    ctx = {"x": Base("b"), "m": TTy(Base("b"))}
    types = [TTy(Base("b")), Arrow(Base("b"), TTy(Base("b"))),
             TTy(Prod(Base("b"), UnitTy())),
             Arrow(TTy(Base("b")), TTy(Base("b")))]
    terms = []
    while len(terms) < 40:
        t = synthesize(rng, ctx, types[len(terms) % len(types)], 8)
        if t is not None:
            terms.append(t)
    failed = 0
    for t in terms:
        for rel in rels:
            rep = basic_lemma_check(model1, model2, {"b": rel}, ctx, t)
            assert rep == oracles.plain_basic_lemma(
                model1, model2, {"b": rel}, ctx, t), (term_str(t), rel)
            failed += not rep.ok
    # with the lossy unit some reports fail, so counterexamples compare too
    assert (failed == 0) == holds


@pytest.mark.parametrize("model2", [
    MODEL, Model(powerset_monad(), {"b": Z}), Model(powerset_monad(), {"b": B}),
], ids=["one-model", "other-atoms", "equal-models"])
def test_basic_lemma_evaluates_each_environment_once(monkeypatch, model2):
    # x:b, m:T b over the full relation: 4 * 10 environment pairs, but
    # only 2 * 4 environments on each side
    full = {"b": Rel(B, model2.base["b"],
                     itertools.product(B, model2.base["b"]))}
    calls = []

    def counted(model, env, t):
        calls.append(model)
        return eval_term(model, env, t)
    monkeypatch.setattr(metalang, "eval_term", counted)
    rep = basic_lemma_check(MODEL, model2, full,
                            {"x": Base("b"), "m": TTy(Base("b"))}, parse("m"))
    assert rep.ok and rep.cases == 40
    assert len(calls) == (8 if model2 is MODEL else 16)


# -------------------------------------------------------------- synthesis

def test_synthesize_is_seed_deterministic():
    ctx = {"x": Base("b")}
    a = [term_str(synthesize(random.Random(s), ctx, TTy(Base("b")), 8))
         for s in range(10)]
    b = [term_str(synthesize(random.Random(s), ctx, TTy(Base("b")), 8))
         for s in range(10)]
    assert a == b


def test_synthesize_respects_type_and_size():
    rng = random.Random(11)
    ctx = {"x": Base("b"), "m": TTy(Base("b"))}
    for _ in range(80):
        t = synthesize(rng, ctx, TTy(Base("b")), 8)
        if t is None:
            continue
        assert typecheck(ctx, t) == TTy(Base("b"))
        assert term_size(t) <= 8


def test_failing_basic_lemma_report_is_pinned():
    # a unit that loses a1 in the first model only
    lossy = copy.copy(powerset_monad())
    lossy._unit = lambda x: frozenset() if x == "a1" else frozenset([x])
    rep = basic_lemma_check(Model(lossy, {"b": B}), MODEL, {"b": DIAG},
                            {"m": TTy(Base("b"))},
                            parse("let val y = m in val y"))
    both = frozenset({"a0", "a1"})
    assert rep == LawReport(
        "basic-lemma", False, 3,
        {"diagram": "basic-lemma", "input": ({"m": both}, {"m": both}),
         "lhs": (frozenset({"a0"}), both), "rhs": "member"}, None)


def test_basic_lemma_passes_with_zero_cases_on_an_empty_relation():
    rep = basic_lemma_check(MODEL, MODEL, {"b": Rel(B, B, [])},
                            {"x": Base("b")}, parse("val x"))
    assert rep == LawReport("basic-lemma", True, 0, None, None)
