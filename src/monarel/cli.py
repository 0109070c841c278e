"""Command-line front end.

Exit codes: 0 when the requested check passes (or a construction
succeeds), 1 when a check fails (a counterexample or violated subset is
printed), 2 on usage or input errors.  --json switches every command to
a structured report; seeds are echoed so runs can be reproduced.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys

from . import jsonio
from .bisim import check_bisimulation, largest_bisimulation, larsen_skou_check
from .finset import Rel, atom_str
from .lawcheck import check_cartesian, run_cases, standard_battery
from .lifting import lift_member_dist_saturated
from .metalang import (Base, TTy, UnitTy, Var, basic_lemma_check,
                       logical_relation, parse, parse_ty, synthesize,
                       term_str, type_pool, typecheck, within_limit)
from .poset import ORD, SYSTEMS, lift_relation_ord


class _Usage(Exception):
    pass


def _checked(fn, *args, where=None):
    """fn(*args), with the ValueError by which the library refuses an
    input turned into a usage error ("where: " first when given); main
    catches no ValueError, so one raised elsewhere keeps its traceback.
    The library recurses over an input's nesting, so an input nested
    past the recursion limit is refused too."""
    try:
        return fn(*args)
    except ValueError as e:
        raise _Usage(str(e) if where is None else f"{where}: {e}")
    except RecursionError:
        raise _Usage(f"{where or 'the input'}: nested too deeply")


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise _Usage(f"{path}: no such file")
    except OSError as e:
        raise _Usage(f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise _Usage(f"{path}: {e}")


def _load(path, loader):
    try:
        obj = json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise _Usage(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except RecursionError:
        raise _Usage(f"{path}: nested too deeply")
    return _checked(loader, obj, where=path)


def _emit(payload):
    print(jsonio.dumps(payload))


def _print_pairs(pairs):
    for a, b in pairs:
        print(f"  {atom_str(a)}  ~  {atom_str(b)}")


def _monad(args):
    t = _checked(jsonio.monad_by_name, args.monad,
                 getattr(args, "mode", "probability"))
    if t.category is ORD and args.command != "check-laws":
        raise _Usage("use 'poset-lift' for the ordered monad")
    return t


# ------------------------------------------------------------- commands

def cmd_check_laws(args):
    t = _monad(args)
    if args.max_size < 0:
        raise _Usage("--max-size must be at least 0")
    if args.samples < 1:
        raise _Usage("--samples must be at least 1")

    def battery():
        sets = t.category.default_sets(args.max_size)
        kw = dict(samples=args.samples, seed=args.seed)
        return standard_battery(t, sets, **kw), check_cartesian(t, sets, **kw)

    reports, cartesian = _checked(battery, where=f"--max-size {args.max_size}")
    ok = all(r.ok for r in reports)
    if args.json:
        _emit({
            "monad": t.name, "seed": args.seed, "ok": ok,
            "reports": [jsonio.report_json(r) for r in reports],
            "cartesian": jsonio.report_json(cartesian),
        })
    else:
        for r in reports:
            print(r)
        note = "holds" if cartesian.ok else "fails"
        print(f"cartesian: {note} (informational, {cartesian.cases} cases)")
        if not cartesian.ok:
            cex = cartesian.counterexample
            print(f"  e.g. {cex['diagram']} at {_show(cex['input'])}")
        for r in reports:
            if not r.ok:
                print(f"counterexample [{r.law}]: {_show(r.counterexample)}")
    return 0 if ok else 1


# lift builds the lifted pairs by union closure, one pass per pair of S
# over the pairs built so far.  They are at most the monad's size of T S
# (4096 for a matching of 12 pairs), so its limit bounds them too
MAX_LIFT = 4096

# poset-lift applies the upper-set monad to both posets and to the
# relation, each with up to 2^n - 1 antichains that the Smyth order
# compares in pairs: 9 pairs take about 0.3 s, 12 pairs about 25 s
MAX_POSET_LIFT = 9


def cmd_lift(args):
    t = _monad(args)
    if not t.enumerable:
        raise _Usage(f"monad {t.name} is not enumerable; "
                     "use 'member' for pointwise queries")
    s = _load(args.S, jsonio.load_rel)
    _checked(within_limit, f"T S over {len(s.pairs)} pairs",
             t.size(len(s.pairs)), MAX_LIFT, where=args.S)
    lifted = t.lift(s)
    if args.json:
        _emit({"monad": t.name, "lifted": jsonio.rel_json(lifted)})
    else:
        print(f"{len(lifted.pairs)} related pairs over "
              f"{len(lifted.left)} x {len(lifted.right)} carriers")
        _print_pairs(lifted)
    return 0


def _load_dist(path, mode):
    nu = _load(path, lambda o: jsonio.load_ratdist(o, mode=mode))
    if nu.mode != mode:
        raise _Usage(f"{path}: distribution mode {nu.mode} differs from "
                     f"--mode {mode}")
    return nu


def cmd_member(args):
    t = _monad(args)
    if args.saturated and t.enumerable:
        raise _Usage(f"--saturated applies to dist, not {t.name}")
    s = _load(args.S, jsonio.load_rel)
    if t.enumerable:
        if not (args.b1 and args.b2):
            raise _Usage(f"{t.name} membership needs --b1 and --b2")
        v1 = frozenset(_load(args.b1, jsonio.load_finset))
        v2 = frozenset(_load(args.b2, jsonio.load_finset))
    else:
        if not (args.nu1 and args.nu2):
            raise _Usage("distribution membership needs --nu1 and --nu2")
        v1 = _load_dist(args.nu1, t.mode)
        v2 = _load_dist(args.nu2, t.mode)
    decide = lift_member_dist_saturated if args.saturated else t.related
    got = _checked(decide, v1, v2, s)
    member = bool(got)
    witness = getattr(got, "witness", None)
    violated = getattr(got, "violated", None)
    if args.json:
        payload = {"member": member}
        if not t.enumerable:
            payload["witness"] = jsonio.value_json(witness) if witness else None
            payload["violated"] = list(violated) if violated else None
        _emit(payload)
    elif member:
        print("member")
        if witness is not None:
            for (x, y), w in witness.items():
                print(f"  coupling ({x},{y}) -> {w}")
    else:
        print("not a member")
        if violated:
            img = sorted(set().union(*(s.right_image(x) for x in violated)))
            print(f"  violated subset U = {{{', '.join(violated)}}}: "
                  f"nu1(U) = {v1.mass(violated)} > "
                  f"nu2(S(U)) = {v2.mass(img)}")
    return 0 if member else 1


def _rel_or_diagonal(path, left, right, differ):
    if path:
        return _load(path, jsonio.load_rel)
    if left != right:
        raise _Usage(differ)
    return Rel.diagonal(left)


def _label_rel(args, f1, f2):
    return _rel_or_diagonal(args.labels, f1.labels, f2.labels,
                            "label sets differ; pass --labels")


def _bisim_common(args, loader):
    f1 = _load(args.sys1, loader)
    f2 = _load(args.sys2, loader)
    s = _rel_or_diagonal(args.rel, f1.states, f2.states,
                         "state spaces differ; pass --rel")
    rl = _label_rel(args, f1, f2)
    got = _checked(check_bisimulation, s, f1, f2, rl)
    if args.json:
        _emit({
            "bisimulation": got.ok,
            "counterexample": jsonio.value_json(got.counterexample),
        })
    else:
        if got.ok:
            print("bisimulation")
        else:
            cex = got.counterexample
            a1, a2 = cex["pair"]
            l1, l2 = cex["labels"]
            print(f"not a bisimulation: ({a1},{a2}) on labels ({l1},{l2})")
            if cex.get("violated"):
                print(f"  violated subset: {{{', '.join(cex['violated'])}}}")
    return 0 if got.ok else 1


def cmd_bisim(args):
    return _bisim_common(args, jsonio.load_lts)


def cmd_prob_bisim(args):
    return _bisim_common(args, jsonio.load_plts)


def cmd_max_bisim(args):
    # the first system's file decides the kind, the second must match it
    f1 = _load(args.sys1, jsonio.load_system)
    f2 = _load(args.sys2,
               jsonio.load_lts if f1.mode is None else jsonio.load_plts)
    rl = _label_rel(args, f1, f2)
    best = _checked(largest_bisimulation, f1, f2, rl)
    if args.json:
        _emit({"largest": jsonio.rel_json(best)})
    else:
        print(f"largest bisimulation: {len(best.pairs)} pairs")
        _print_pairs(best)
    return 0


def cmd_larsen_skou(args):
    f1 = _load(args.sys1, jsonio.load_plts)
    f2 = _load(args.sys2, jsonio.load_plts)
    classes = _load(args.classes, jsonio.load_classes)
    ok = _checked(larsen_skou_check, f1, f2, classes)
    if args.json:
        _emit({"bisimulation": ok})
    else:
        print("probabilistic bisimulation" if ok else "class masses differ")
    return 0 if ok else 1


def _models_and_base(args):
    m1 = _load(args.model1, jsonio.load_model)
    m2 = _load(args.model2, jsonio.load_model)
    if args.base:
        return m1, m2, _load(args.base, jsonio.load_base_rels)
    base = {}
    for name, a in m1.base.items():
        if name not in m2.base or m2.base[name] != a:
            raise _Usage(f"base type {name!r} differs between the models; "
                         "pass --base with explicit relations")
        base[name] = Rel.diagonal(a)
    return m1, m2, base


def cmd_logrel(args):
    m1, m2, base = _models_and_base(args)
    ty = _checked(parse_ty, args.type, where="--type")
    # formatting recurses over the type too: refuse a deep one up front
    shown = _checked(str, ty, where="--type")
    rel = _checked(logical_relation, m1, m2, base, ty)
    if args.json:
        _emit({"type": shown, "relation": jsonio.rel_json(rel)})
    else:
        print(f"relation at {shown}: {len(rel.pairs)} pairs over "
              f"{len(rel.left)} x {len(rel.right)}")
        _print_pairs(rel)
    return 0


def _parse_ctx(src):
    ctx = {}
    for part in src.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise _Usage(f"--ctx entries look like 'x:ty', got {part!r}")
        name, ty = part.split(":", 1)
        name = name.strip()
        if not name:
            raise _Usage(f"--ctx entry {part!r} has an empty variable name")
        not_var = f"--ctx entry {part!r} does not name a variable"
        if _checked(parse, name, where=not_var) != Var(name):
            raise _Usage(not_var)
        if name in ctx:
            raise _Usage(f"--ctx repeats the variable {name!r}")
        ctx[name] = _checked(parse_ty, ty, where=f"--ctx {name!r}")
    return ctx


def cmd_basic_lemma(args):
    m1, m2, base = _models_and_base(args)
    ctx = _parse_ctx(args.ctx)
    if args.term:
        t = _checked(parse, _read(args.term), where=args.term)
        _checked(typecheck, ctx, t, where=args.term)
        shown = _checked(term_str, t, where=args.term)
        rep = _checked(basic_lemma_check, m1, m2, base, ctx, t)
        if args.json:
            _emit({"term": shown, "report": jsonio.report_json(rep)})
        else:
            print(f"{shown}: {'related' if rep.ok else 'NOT related'} "
                  f"({rep.cases} environment pairs)")
            if not rep.ok:
                print(f"  counterexample: {_show(rep.counterexample)}")
        return 0 if rep.ok else 1
    # generated suite
    if args.count < 1:
        raise _Usage("--count must be at least 1")
    if args.max_size < 1:
        raise _Usage("--max-size must be at least 1")
    if not ctx:
        if not m1.base:
            raise _Usage("generated terms need --ctx or a base type")
        b = Base(sorted(m1.base)[0])
        ctx = {"x": b, "m": TTy(b)}
    rng = random.Random(args.seed)
    types = type_pool(ctx, UnitTy())
    types = types + [TTy(s) for s in types if not isinstance(s, TTy)]

    def cases():
        # one case per generated term; a draw that yields none is skipped
        draws = (synthesize(rng, ctx, rng.choice(types), args.max_size)
                 for _ in itertools.count())
        terms = (t for t in draws if t is not None)
        for t in itertools.islice(terms, args.count):
            rep = _checked(basic_lemma_check, m1, m2, base, ctx, t)
            yield "basic-lemma", t, rep, rep if rep.ok else "member"

    suite = run_cases("basic-lemma", cases(), args.seed)
    failure = suite.counterexample
    if args.json:
        _emit({
            "seed": args.seed, "count": suite.cases, "ok": suite.ok,
            "failure": None if suite.ok else {
                "term": term_str(failure["input"]),
                "report": jsonio.report_json(failure["lhs"]),
            },
        })
    elif suite.ok:
        print(f"{suite.cases} generated terms (size <= {args.max_size}, "
              f"seed {args.seed}): all related")
    else:
        print(f"term {term_str(failure['input'])} NOT related: "
              f"{_show(failure['lhs'].counterexample)}")
    return 0 if suite.ok else 1


def cmd_poset_lift(args):
    s = _load(args.rel, jsonio.load_ordered_rel)
    for what, n in (("the left poset", len(s.left)),
                    ("the right poset", len(s.right)),
                    ("the relation", len(s.pairs))):
        _checked(within_limit, what, n, MAX_POSET_LIFT, where=args.rel)
    systems = SYSTEMS if args.system == "both" else [args.system]
    results = {name: lift_relation_ord(s, name) for name in systems}
    same = {}
    if len(results) == 2:
        a, b = results.values()
        same = {"same_pairs": a.pairs == b.pairs,
                "same_order": a.order == b.order}
    if args.json:
        memo = {}
        _emit({**{name: jsonio.ordered_rel_json(r, memo)
                  for name, r in results.items()}, **same})
    else:
        for name, r in results.items():
            print(f"[{name}] {len(r.pairs)} pairs, "
                  f"{sum(1 for p, q in r.order if p != q)} strict order pairs")
            _print_pairs(r.as_poset().carrier)
        if same:
            print(f"pair sets {'agree' if same['same_pairs'] else 'DIFFER'}; "
                  f"orderings {'agree' if same['same_order'] else 'differ'}")
    return 0


def _show(obj):
    return json.dumps(jsonio.value_json(obj), sort_keys=True)


# --------------------------------------------------------------- parser

_SCHEMAS = """\
JSON schemas:
  finite set      ["a","b"]
  relation        {"left":[...],"right":[...],"pairs":[["a","b"],...]}
  distribution    {"mode":"probability","weights":{"a":"1/2","b":"1/2"}}
  LTS             {"states":[...],"labels":[...],"step":{"s|l":["t","u"]}}
  PLTS            {"states":[...],"labels":[...],"mode":"probability",
                   "step":{"s|l":{"t":"1/2","u":"1/2"}}}
  classes         [["L:a","R:b"],["L:c"]]   (partition of the tagged union)
  poset           {"carrier":[...],"leq":[["a","b"],...]}  (reflexive implied)
  ordered rel     {"left":<poset>,"right":<poset>,"pairs":[["a","b"],...],
                   "order":[[["a","b"],["c","d"]],...]}    (order optional)
  model           {"monad":"powerset","base":{"b":["a","b"]}}
  base relations  {"b":<relation>}
Rationals are "p/q" strings; step keys are "state|label"; tagged atoms
are "L:x" (left carrier) and "R:y" (right carrier).
"""


@functools.cache
def _build_parser():
    # built on the first main() call and kept: it depends on no input
    # and holds no command function, and parse_args returns a fresh
    # Namespace each time
    p = argparse.ArgumentParser(
        prog="monarel",
        description="Finite-model checks for strong commutative monads, "
                    "relation lifting, and bisimulation.",
        epilog=_SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    relation_help = {
        "rel": "relation JSON (default: diagonal)",
        "labels": "label relation (default: diagonal)",
        "base": "base relations JSON (default: diagonals)"}
    # each --monad help names the monads its subcommand accepts
    monads = {n: jsonio.monad_by_name(n) for n in jsonio.MONAD_NAMES}
    on_sets = [n for n, t in monads.items() if t.category is not ORD]

    def subcommand(name, blurb, stem=None, *relations, seeded=False):
        # with a stem, the two input files --{stem}1 and --{stem}2 come
        # first, then the optional relation files named in relations
        sp = sub.add_parser(name, help=blurb)
        if stem:
            sp.add_argument(f"--{stem}1", required=True)
            sp.add_argument(f"--{stem}2", required=True)
        for flag in relations:
            sp.add_argument(f"--{flag}", help=relation_help[flag])
        sp.add_argument("--json", action="store_true",
                        help="emit a structured JSON report")
        if seeded:
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for randomized suites")
        return sp

    sp = subcommand("check-laws", "run the equational law battery",
                    seeded=True)
    sp.add_argument("--monad", required=True,
                    help=" | ".join(monads))
    sp.add_argument("--mode", default="probability",
                    help="probability | subprobability (dist only)")
    sp.add_argument("--max-size", type=int, default=3,
                    help="largest carrier in the test grid")
    sp.add_argument("--samples", type=int, default=200,
                    help="sample count for non-enumerable checks")

    sp = subcommand("lift", "materialize a lifted relation")
    sp.add_argument("--monad", required=True,
                    help=" | ".join(n for n in on_sets
                                    if monads[n].enumerable))
    sp.add_argument("--S", required=True, help="relation JSON file")

    sp = subcommand("member", "decide lifted-relation membership")
    sp.add_argument("--monad", required=True,
                    help=" | ".join(on_sets))
    sp.add_argument("--mode", default="probability",
                    help="probability | subprobability (dist only): the "
                         "mode of --nu1/--nu2 files that give none; a file "
                         "with another mode is an error")
    sp.add_argument("--S", required=True, help="relation JSON file")
    sp.add_argument("--b1", help="left subset (powerset)")
    sp.add_argument("--b2", help="right subset (powerset)")
    sp.add_argument("--nu1", help="left distribution (dist)")
    sp.add_argument("--nu2", help="right distribution (dist)")
    sp.add_argument("--saturated", action="store_true",
                    help="use the class-mass criterion (S must be saturated)")

    for name, blurb in (
            ("bisim", "check a strong bisimulation"),
            ("prob-bisim", "check a probabilistic bisimulation")):
        subcommand(name, blurb, "sys", "rel", "labels")

    subcommand("max-bisim", "largest bisimulation", "sys", "labels")

    sp = subcommand("larsen-skou", "class-mass bisimulation check", "sys")
    sp.add_argument("--classes", required=True,
                    help="partition of the tagged union, JSON")

    sp = subcommand("logrel", "materialize a logical relation",
                    "model", "base")
    sp.add_argument("--type", required=True, help='e.g. "T (b -> b)"')

    sp = subcommand("basic-lemma",
                    "related environments give related meanings",
                    "model", "base", seeded=True)
    sp.add_argument("--term", help="term source file (omit to generate)")
    sp.add_argument("--ctx", default="",
                    help='typing context, e.g. "x:b, m:T b"')
    sp.add_argument("--count", type=int, default=100,
                    help="generated terms to check")
    sp.add_argument("--max-size", type=int, default=8,
                    help="largest generated term")

    sp = subcommand("poset-lift",
                    "lift an ordered relation in one or both systems")
    sp.add_argument("--rel", required=True, help="ordered relation JSON")
    sp.add_argument("--system", default="both",
                    choices=["both", *SYSTEMS])

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(e.code or 0)
    # looked up by name when it runs, not bound when the parser was built
    # and cached, so a cmd_* rebound on this module is the one called
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
