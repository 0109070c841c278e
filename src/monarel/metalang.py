"""A monadic metalanguage over finite base types.

Types are base names, Unit, products, functions, and T-types; terms are
the simply typed lambda calculus with val (return) and let-val (bind).
Denotations live in finite sets: functions are graphs, T-types are the
chosen enumerable monad applied to the value carrier.  The module also
builds type-indexed logical relations between two models and tests the
fundamental property on concrete terms.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .finset import FinSet, Rel, UNIT, UNIT_ATOM, product_set
from .lawcheck import SET, LawReport, run_cases
from .monads import MonadInstance


# ---------------------------------------------------------------- types

class Ty:
    pass


@dataclass(frozen=True)
class Base(Ty):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class UnitTy(Ty):
    def __str__(self):
        return "Unit"


@dataclass(frozen=True)
class Prod(Ty):
    left: Ty
    right: Ty

    def __str__(self):
        return f"{_ty_paren(self.left, 2)} * {_ty_paren(self.right, 1)}"


@dataclass(frozen=True)
class Arrow(Ty):
    dom: Ty
    cod: Ty

    def __str__(self):
        return f"{_ty_paren(self.dom, 1)} -> {self.cod}"


@dataclass(frozen=True)
class TTy(Ty):
    arg: Ty

    def __str__(self):
        return f"T {_ty_paren(self.arg, 3)}"


def _ty_paren(ty: Ty, level: int) -> str:
    # level: 1 = under arrow-left, 2 = under product-left, 3 = under T
    need = (
        isinstance(ty, Arrow)
        or (level >= 2 and isinstance(ty, Prod))
        or (level >= 3 and isinstance(ty, TTy))
    )
    return f"({ty})" if need else str(ty)


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Tm:
    # where the parser found the term; equal terms may sit anywhere
    pos: tuple | None = field(default=None, kw_only=True, compare=False,
                              repr=False)


@dataclass(frozen=True)
class Var(Tm):
    name: str


@dataclass(frozen=True)
class UnitTm(Tm):
    pass


@dataclass(frozen=True)
class PairTm(Tm):
    left: Tm
    right: Tm


@dataclass(frozen=True)
class Fst(Tm):
    body: Tm


@dataclass(frozen=True)
class Snd(Tm):
    body: Tm


@dataclass(frozen=True)
class Abs(Tm):
    var: str
    ty: Ty
    body: Tm


@dataclass(frozen=True)
class App(Tm):
    fn: Tm
    arg: Tm


@dataclass(frozen=True)
class Val(Tm):
    body: Tm


@dataclass(frozen=True)
class Let(Tm):
    var: str
    rhs: Tm
    body: Tm


def term_str(t: Tm) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, UnitTm):
        return "()"
    if isinstance(t, PairTm):
        return f"({term_str(t.left)}, {term_str(t.right)})"
    if isinstance(t, Fst):
        return f"fst {_atom_str(t.body)}"
    if isinstance(t, Snd):
        return f"snd {_atom_str(t.body)}"
    if isinstance(t, Val):
        return f"val {_atom_str(t.body)}"
    if isinstance(t, Abs):
        return f"\\{t.var}:{t.ty}. {term_str(t.body)}"
    if isinstance(t, App):
        fn = term_str(t.fn) if isinstance(t.fn, (App, Var, UnitTm, PairTm)) \
            else f"({term_str(t.fn)})"
        return f"{fn} {_atom_str(t.arg)}"
    if isinstance(t, Let):
        return f"let val {t.var} = {term_str(t.rhs)} in {term_str(t.body)}"
    raise TypeError(f"not a term: {t!r}")


def _atom_str(t: Tm) -> str:
    if isinstance(t, (Var, UnitTm, PairTm)):
        return term_str(t)
    return f"({term_str(t)})"


# --------------------------------------------------------------- parsing

class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")


_KEYWORDS = {"val", "let", "in", "fst", "snd"}
_PUNCT = ("->", "\\", ".", ":", ",", "(", ")", "=", "*")


def _tokenize(src: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                tokens.append((p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(src) and (src[j].isalnum() or src[j] in "_'"):
                    j += 1
                word = src[i:j]
                kind = word if word in _KEYWORDS else "ident"
                tokens.append((kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2], tok[3])
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok[2], tok[3])

    # types: arrow (right assoc) over product (right assoc) over T over atoms
    def ty(self) -> Ty:
        left = self.ty_prod()
        if self.peek()[0] == "->":
            self.next()
            return Arrow(left, self.ty())
        return left

    def ty_prod(self) -> Ty:
        left = self.ty_app()
        if self.peek()[0] == "*":
            self.next()
            return Prod(left, self.ty_prod())
        return left

    def ty_app(self) -> Ty:
        kind, word, line, col = self.peek()
        if kind == "ident" and word == "T":
            self.next()
            return TTy(self.ty_app())
        return self.ty_atom()

    def ty_atom(self) -> Ty:
        kind, word, line, col = self.next()
        if kind == "(":
            inner = self.ty()
            self.expect(")")
            return inner
        if kind == "ident":
            # never "T": ty_app takes that as the monad
            if word == "Unit":
                return UnitTy()
            return Base(word)
        raise ParseError(f"expected a type, found {word or 'end of input'!r}",
                         line, col)

    # terms: lambda and let extend maximally; application is left
    # associative over atoms; fst/snd/val each take one atom
    def term(self) -> Tm:
        kind, word, line, col = self.peek()
        if kind == "\\":
            self.next()
            name = self.expect("ident")[1]
            self.expect(":")
            ty = self.ty()
            self.expect(".")
            return Abs(name, ty, self.term(), pos=(line, col))
        if kind == "let":
            self.next()
            self.expect("val")
            name = self.expect("ident")[1]
            self.expect("=")
            rhs = self.term()
            self.expect("in")
            return Let(name, rhs, self.term(), pos=(line, col))
        return self.app_term()

    def app_term(self) -> Tm:
        t = self.atom()
        while self.peek()[0] in ("ident", "(", "fst", "snd", "val"):
            kind, word, line, col = self.peek()
            t = App(t, self.atom(), pos=(line, col))
        return t

    def atom(self) -> Tm:
        kind, word, line, col = self.next()
        if kind == "(":
            if self.peek()[0] == ")":
                self.next()
                return UnitTm(pos=(line, col))
            inner = self.term()
            if self.peek()[0] == ",":
                self.next()
                right = self.term()
                self.expect(")")
                return PairTm(inner, right, pos=(line, col))
            self.expect(")")
            return inner
        if kind == "fst":
            return Fst(self.atom(), pos=(line, col))
        if kind == "snd":
            return Snd(self.atom(), pos=(line, col))
        if kind == "val":
            return Val(self.atom(), pos=(line, col))
        if kind == "ident":
            return Var(word, pos=(line, col))
        raise ParseError(f"expected a term, found {word or 'end of input'!r}",
                         line, col)


def _parse_all(src: str, rule):
    """rule (a _Parser method) applied to all of src."""
    p = _Parser(src)
    got = rule(p)
    if p.peek()[0] != "eof":
        p.fail(f"trailing input {p.peek()[1]!r}")
    return got


def parse(src: str) -> Tm:
    return _parse_all(src, _Parser.term)


def parse_ty(src: str) -> Ty:
    return _parse_all(src, _Parser.ty)


# ----------------------------------------------------------- typechecking

class TypecheckError(ValueError):
    def __init__(self, message, pos=None):
        where = f"{pos[0]}:{pos[1]}: " if pos else ""
        super().__init__(where + message)


def typecheck(ctx, t: Tm) -> Ty:
    """Principal type of t in context ctx (a mapping name -> Ty)."""
    if isinstance(t, Var):
        if t.name not in ctx:
            raise TypecheckError(f"unbound variable {t.name!r}", t.pos)
        return ctx[t.name]
    if isinstance(t, UnitTm):
        return UnitTy()
    if isinstance(t, PairTm):
        return Prod(typecheck(ctx, t.left), typecheck(ctx, t.right))
    if isinstance(t, Fst):
        ty = typecheck(ctx, t.body)
        if not isinstance(ty, Prod):
            raise TypecheckError(f"fst needs a product, got {ty}", t.pos)
        return ty.left
    if isinstance(t, Snd):
        ty = typecheck(ctx, t.body)
        if not isinstance(ty, Prod):
            raise TypecheckError(f"snd needs a product, got {ty}", t.pos)
        return ty.right
    if isinstance(t, Abs):
        body = typecheck({**ctx, t.var: t.ty}, t.body)
        return Arrow(t.ty, body)
    if isinstance(t, App):
        fn = typecheck(ctx, t.fn)
        arg = typecheck(ctx, t.arg)
        if not isinstance(fn, Arrow):
            raise TypecheckError(f"cannot apply a value of type {fn}", t.pos)
        if fn.dom != arg:
            raise TypecheckError(
                f"argument has type {arg}, expected {fn.dom}", t.pos)
        return fn.cod
    if isinstance(t, Val):
        return TTy(typecheck(ctx, t.body))
    if isinstance(t, Let):
        rhs = typecheck(ctx, t.rhs)
        if not isinstance(rhs, TTy):
            raise TypecheckError(
                f"let-val needs a computation, got {rhs}", t.pos)
        body = typecheck({**ctx, t.var: rhs.arg}, t.body)
        if not isinstance(body, TTy):
            raise TypecheckError(
                f"let-val body must be a computation, got {body}", t.pos)
        return body
    raise TypecheckError(f"not a term: {t!r}")


# ------------------------------------------------------------- semantics

# denote builds every carrier inside a type, and the lifting at a T-type
# builds by union closure up to one pair per value of T over the pairs of
# the relation under it; beyond this many elements either step takes more
# than seconds
MAX_CARRIER = 1024
# basic_lemma_check evaluates the term in both models for every pair of
# related environments, and that product of the context's relations is
# not bounded by the carriers (two variables of type b -> T b over three
# atoms give about 1.4e10 pairs)
MAX_ENV_PAIRS = 2 ** 16


@dataclass(frozen=True)
class Model:
    """An enumerable monad together with carriers for the base types.

    The base mapping is copied and read-only, so the carriers denote
    caches per type stay valid.
    """

    monad: MonadInstance
    base: Mapping
    _carriers: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not self.monad.enumerable or self.monad.category is not SET:
            raise ValueError(
                f"metalanguage models need an enumerable monad on sets, "
                f"got {self.monad.name}")
        object.__setattr__(self, "base", MappingProxyType(dict(self.base)))


def within_limit(what: str, n: int, limit: int = MAX_CARRIER) -> int:
    """n, or ValueError naming what has more than limit elements."""
    if n > limit:
        shown = n if n < 10 ** 9 else f"about 2^{round(math.log2(n))}"
        raise ValueError(f"{what} has {shown} elements, more than the "
                         f"limit of {limit}")
    return n


def denote(model: Model, ty: Ty) -> FinSet:
    """The carrier of values at a type; functions appear as graphs.

    Each model builds a carrier once and keeps it.  Raises ValueError when
    that carrier, or one inside it, has more than MAX_CARRIER elements;
    the carriers inside are built first, and this one is refused before
    it is built.
    """
    carriers = model._carriers
    if ty not in carriers:
        carriers[ty] = _build_carrier(model, ty)
    return carriers[ty]


def _build_carrier(model: Model, ty: Ty) -> FinSet:
    what = f"the carrier of {ty}"
    if isinstance(ty, Base):
        if ty.name not in model.base:
            raise ValueError(f"unknown base type {ty.name!r}")
        carrier = model.base[ty.name]
        within_limit(what, len(carrier))
        return carrier
    if isinstance(ty, UnitTy):
        return UNIT
    if isinstance(ty, Prod):
        left, right = denote(model, ty.left), denote(model, ty.right)
        within_limit(what, len(left) * len(right))
        return product_set(left, right)
    if isinstance(ty, Arrow):
        # the codomain first, so a refusal names the same type whichever
        # side of the arrow is too large
        cod = list(denote(model, ty.cod))
        dom = list(denote(model, ty.dom))
        within_limit(what, len(cod) ** len(dom))
        graphs = [
            frozenset(zip(dom, outs))
            for outs in itertools.product(cod, repeat=len(dom))
        ]
        return FinSet(graphs)
    if isinstance(ty, TTy):
        arg = denote(model, ty.arg)
        within_limit(what, model.monad.size(len(arg)))
        return model.monad.apply(arg)
    raise ValueError(f"not a type: {ty!r}")


def eval_term(model: Model, env, t: Tm):
    """Denotation of t under env (a mapping name -> value).

    let-val threads the environment through the monad explicitly:
    pair the environment with the computed value by strength, map the
    body over the result, then flatten.
    """
    m = model.monad
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, UnitTm):
        return UNIT_ATOM
    if isinstance(t, PairTm):
        return (eval_term(model, env, t.left), eval_term(model, env, t.right))
    if isinstance(t, Fst):
        return eval_term(model, env, t.body)[0]
    if isinstance(t, Snd):
        return eval_term(model, env, t.body)[1]
    if isinstance(t, Abs):
        dom = denote(model, t.ty)
        return frozenset(
            (v, eval_term(model, {**env, t.var: v}, t.body)) for v in dom)
    if isinstance(t, App):
        if isinstance(t.fn, Abs):
            # beta: the graph's value at the argument, without the graph;
            # denote refuses first, as building the graph would
            dom = denote(model, t.fn.ty)
            arg = eval_term(model, env, t.arg)
            if arg in dom:
                return eval_term(model, {**env, t.fn.var: arg}, t.fn.body)
        else:
            fn = eval_term(model, env, t.fn)
            arg = eval_term(model, env, t.arg)
            for a, b in fn:
                if a == arg:
                    return b
        raise ValueError(f"application outside the function's domain: {arg!r}")
    if isinstance(t, Val):
        return m.v_unit(eval_term(model, env, t.body))
    if isinstance(t, Let):
        rhs = eval_term(model, env, t.rhs)
        threaded = m.v_strength(tuple(env.items()), rhs)
        mapped = m.v_map(
            lambda p: eval_term(model, {**dict(p[0]), t.var: p[1]}, t.body),
            threaded)
        return m.v_mult(mapped)
    raise ValueError(f"not a term: {t!r}")


# ------------------------------------------------------ logical relations

def logical_relation(model1: Model, model2: Model, base_rels, ty: Ty) -> Rel:
    """The type-indexed relation between the two models' carriers.

    Base types use the given relations, Unit is total, and T-types lift
    the relation through the monad.  At a product or an arrow it is the
    pairs of the two carriers that _relates accepts (componentwise, and
    graphs that send related arguments to related results).
    """
    if model1.monad.name != model2.monad.name:
        raise ValueError(
            f"models disagree on the monad: "
            f"{model1.monad.name} vs {model2.monad.name}")
    if isinstance(ty, Base):
        if ty.name not in base_rels:
            raise ValueError(f"unknown base type {ty.name!r}")
        rel = base_rels[ty.name]
        if rel.left != denote(model1, ty) or rel.right != denote(model2, ty):
            raise ValueError(
                f"base relation for {ty.name!r} does not match the models")
        return rel
    if isinstance(ty, UnitTy):
        return Rel(UNIT, UNIT, {(UNIT_ATOM, UNIT_ATOM)})
    if isinstance(ty, Prod):
        related = _relates(model1, model2, base_rels, ty)
        vs1, vs2 = denote(model1, ty), denote(model2, ty)
        return Rel(vs1, vs2, [(v1, v2) for v1 in vs1 for v2 in vs2
                              if related(v1, v2)])
    if isinstance(ty, Arrow):
        # each graph of the two carriers is read as a dict once
        related = _graphs_related(model1, model2, base_rels, ty)
        vs1, vs2 = denote(model1, ty), denote(model2, ty)
        ds1 = [(f, dict(f)) for f in vs1]
        ds2 = [(g, dict(g)) for g in vs2]
        return Rel(vs1, vs2, [(f, g) for f, fd in ds1 for g, gd in ds2
                              if related(fd, gd)])
    if isinstance(ty, TTy):
        inner = logical_relation(model1, model2, base_rels, ty.arg)
        denote(model1, ty)
        denote(model2, ty)
        within_limit(f"T over the {len(inner)} pairs lifted at {ty}",
                     model1.monad.size(len(inner)))
        return model1.monad.lift(inner)
    raise ValueError(f"not a type: {ty!r}")


def _relates(model1: Model, model2: Model, base_rels, ty: Ty):
    """A test (v1, v2) -> bool of membership in logical_relation(model1,
    model2, base_rels, ty) that does not build the relation at ty.

    A product tests its components, an arrow its definition over the
    domain's relation; other types build theirs.  Relations and carriers
    come in logical_relation's order, so the refusals are the same, apart
    from a product's carrier, which is neither built nor refused here.
    """
    if isinstance(ty, Prod):
        left = _relates(model1, model2, base_rels, ty.left)
        right = _relates(model1, model2, base_rels, ty.right)
        return lambda v1, v2: left(v1[0], v2[0]) and right(v1[1], v2[1])
    if isinstance(ty, Arrow):
        related = _graphs_related(model1, model2, base_rels, ty)
        fs1, fs2 = denote(model1, ty), denote(model2, ty)
        return lambda f, g: (f in fs1 and g in fs2
                             and related(dict(f), dict(g)))
    pairs = logical_relation(model1, model2, base_rels, ty).pairs
    return lambda v1, v2: (v1, v2) in pairs


def _graphs_related(model1: Model, model2: Model, base_rels, ty: Arrow):
    """The arrow clause on graphs read as dicts: (fd, gd) -> bool, true
    when fd and gd send every related argument pair to related results."""
    rd = logical_relation(model1, model2, base_rels, ty.dom).pairs
    cod = _relates(model1, model2, base_rels, ty.cod)
    return lambda fd, gd: all(cod(fd[a1], gd[a2]) for a1, a2 in rd)


def basic_lemma_check(model1: Model, model2: Model, base_rels, ctx,
                      t: Tm) -> LawReport:
    """Related environments yield related denotations.

    Enumerates every pair of environments related pointwise by the
    logical relation at the context types and checks the two
    denotations of t against the relation at its type.  Raises
    ValueError when there are more than MAX_ENV_PAIRS such pairs.

    Each model evaluates t once per distinct environment, and each
    distinct pair of denotations is tested once.  Both memos fill in
    case order, so the report and the first error stay per pair.
    """
    ty = typecheck(ctx, t)
    related = _relates(model1, model2, base_rels, ty)
    names = sorted(ctx)
    # one relation per distinct type, built in the order of names
    by_ty = {}
    for x in names:
        if ctx[x] not in by_ty:
            by_ty[ctx[x]] = logical_relation(model1, model2, base_rels, ctx[x])
    rels = [by_ty[ctx[x]] for x in names]
    within_limit(f"the product of the relations at {', '.join(names)}",
                 math.prod(map(len, rels)), MAX_ENV_PAIRS)

    den1 = {}
    den2 = den1 if model2 is model1 else {}
    verdicts = {}

    def cases():
        for choice in itertools.product(*rels):
            env1 = {x: p[0] for x, p in zip(names, choice)}
            env2 = {x: p[1] for x, p in zip(names, choice)}
            k1, k2 = tuple(env1.values()), tuple(env2.values())
            if k1 not in den1:
                den1[k1] = eval_term(model1, env1, t)
            if k2 not in den2:
                den2[k2] = eval_term(model2, env2, t)
            d = (den1[k1], den2[k2])
            if d not in verdicts:
                verdicts[d] = related(*d)
            yield "basic-lemma", (env1, env2), d, d if verdicts[d] else "member"

    return run_cases("basic-lemma", cases())


# --------------------------------------------------------- term synthesis

def _subtypes(ty: Ty, acc):
    if ty not in acc:
        acc.append(ty)
    if isinstance(ty, (Prod, Arrow)):
        _subtypes(ty.left if isinstance(ty, Prod) else ty.dom, acc)
        _subtypes(ty.right if isinstance(ty, Prod) else ty.cod, acc)
    elif isinstance(ty, TTy):
        _subtypes(ty.arg, acc)


def type_pool(ctx, ty: Ty):
    """Candidate intermediate types: subtypes of the context and target."""
    acc = []
    for s in ctx.values():
        _subtypes(s, acc)
    _subtypes(ty, acc)
    if not any(isinstance(s, UnitTy) for s in acc):
        acc.append(UnitTy())
    return acc


def synthesize(rng, ctx, ty: Ty, size: int):
    """A random well-typed term of at most `size` nodes, or None.

    Seeded and deterministic for a fixed rng state.  Retries locally;
    callers should retry globally when None comes back.
    """
    pool = type_pool(ctx, ty)
    fresh = itertools.count()
    for _ in range(24):
        t = _grow(rng, dict(ctx), ty, size, pool, fresh)
        if t is not None:
            return t
    return None


def _grow(rng, ctx, ty, budget, pool, fresh):
    if budget < 1:
        return None
    options = []
    vars_here = [x for x, s in ctx.items() if s == ty]
    if vars_here:
        options += ["var"] * 3
    if isinstance(ty, UnitTy):
        options += ["unit"] * 2
    if isinstance(ty, Prod) and budget >= 3:
        options += ["pair"] * 2
    if isinstance(ty, Arrow) and budget >= 2:
        options += ["abs"] * 3
    if isinstance(ty, TTy) and budget >= 2:
        options += ["val"] * 3
    if isinstance(ty, TTy) and budget >= 4:
        options += ["let"] * 2
    if budget >= 3:
        options += ["app", "fst", "snd"]
    if not options:
        return None
    op = rng.choice(options)
    if op == "var":
        return Var(rng.choice(sorted(vars_here)))
    if op == "unit":
        return UnitTm()
    if op == "pair":
        cut = rng.randint(1, budget - 2)
        left = _grow(rng, ctx, ty.left, cut, pool, fresh)
        right = _grow(rng, ctx, ty.right, budget - 1 - cut, pool, fresh)
        if left is None or right is None:
            return None
        return PairTm(left, right)
    if op == "abs":
        x = f"g{next(fresh)}"
        body = _grow(rng, {**ctx, x: ty.dom}, ty.cod, budget - 1, pool, fresh)
        if body is None:
            return None
        return Abs(x, ty.dom, body)
    if op == "val":
        body = _grow(rng, ctx, ty.arg, budget - 1, pool, fresh)
        if body is None:
            return None
        return Val(body)
    if op == "let":
        sigma = rng.choice(pool)
        cut = rng.randint(2, budget - 2)
        rhs = _grow(rng, ctx, TTy(sigma), cut, pool, fresh)
        if rhs is None:
            return None
        x = f"g{next(fresh)}"
        body = _grow(rng, {**ctx, x: sigma}, ty, budget - 1 - cut, pool, fresh)
        if body is None:
            return None
        return Let(x, rhs, body)
    if op == "app":
        sigma = rng.choice(pool)
        cut = rng.randint(1, budget - 2)
        fn = _grow(rng, ctx, Arrow(sigma, ty), cut, pool, fresh)
        arg = _grow(rng, ctx, sigma, budget - 1 - cut, pool, fresh)
        if fn is None or arg is None:
            return None
        return App(fn, arg)
    sigma = rng.choice(pool)
    inner = Prod(ty, sigma) if op == "fst" else Prod(sigma, ty)
    body = _grow(rng, ctx, inner, budget - 1, pool, fresh)
    if body is None:
        return None
    return Fst(body) if op == "fst" else Snd(body)
