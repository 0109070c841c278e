"""JSON encodings for the CLI.

Input carriers are arrays of strings; relations pair them; rational
weights travel as "p/q" strings.  Transition tables key on "state|label"
(so carrier atoms must avoid "|"); equivalence classes over a disjoint
union tag atoms as "L:x" / "R:y".  Outputs render structured values
(sets, pairs, distributions) recursively; set members are ordered by
their compact JSON text, json.dumps(member, sort_keys=True).  dumps
writes a payload exactly as json.dumps(payload, sort_keys=True,
indent=2) does, byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .bisim import LTS, PLTS, TransitionSystem
from .finset import FinSet, Rel, atom_str, sorted_pairs
from .lawcheck import LawReport
from .metalang import Model
from .monads import MODES, MonadInstance, RatDist, dist_monad, \
    nonempty_powerset_monad, powerset_monad
from .poset import FinPoset, OrderedRel, upper_monad

_MONADS = {"powerset": lambda mode: powerset_monad(),
           "nonempty-powerset": lambda mode: nonempty_powerset_monad(),
           "dist": dist_monad, "upper": lambda mode: upper_monad()}
MONAD_NAMES = tuple(_MONADS)


def monad_by_name(name: str, mode: str = "probability") -> MonadInstance:
    """The named monad; a mode outside MODES is refused for every monad.
    The name is tested against the tuple, so an unhashable one is refused."""
    _require(name in MONAD_NAMES,
             f"unknown monad {name!r}; pick one of {', '.join(MONAD_NAMES)}")
    _require(mode in MODES, f"unknown mode {mode!r}")
    return _MONADS[name](mode)


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _fields(obj, what, keys):
    """Refuse obj unless it is an object holding each of keys."""
    article = "an" if what[0] in "aeiou" else "a"
    _require(isinstance(obj, dict), f"{article} {what} must be an object")
    for key in keys:
        _require(key in obj, f"{what} needs a {key!r} field")


def load_finset(obj) -> FinSet:
    _require(isinstance(obj, list), "a finite set must be an array of strings")
    for x in obj:
        _require(isinstance(x, str), f"set element {x!r} is not a string")
    return FinSet(obj)


def _pairs(obj, what):
    """An array of two-element arrays of strings, as a list of tuples."""
    _require(isinstance(obj, list), f"{what}s must be an array")
    for p in obj:
        _require(isinstance(p, list) and len(p) == 2
                 and all(isinstance(x, str) for x in p),
                 f"{what} {p!r} must be a two-element array of strings")
    return [tuple(p) for p in obj]


def load_rel(obj) -> Rel:
    _fields(obj, "relation", ("left", "right", "pairs"))
    left = load_finset(obj["left"])
    right = load_finset(obj["right"])
    return Rel(left, right, _pairs(obj["pairs"], "relation pair"))


def load_fraction(s) -> Fraction:
    # the type itself: JSON's true and false load as bools, which are ints
    _require(type(s) in (str, int), f"weight {s!r} must be 'p/q' or int")
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational {s!r}: {e}") from None
    _require(f >= 0, f"negative weight {s!r}")
    return f


def load_ratdist(obj, mode="probability") -> RatDist:
    """mode applies when the object names none."""
    _fields(obj, "distribution", ("weights",))
    _require(isinstance(obj["weights"], dict), "'weights' must be an object")
    mode = obj.get("mode", mode)
    weights = {x: load_fraction(w) for x, w in obj["weights"].items()}
    return RatDist(weights, mode)


def _step_carriers(obj):
    """States and labels, after the checks an LTS and a PLTS share."""
    _fields(obj, "transition system", ("states", "labels", "step"))
    states = load_finset(obj["states"])
    labels = load_finset(obj["labels"])
    for atom in list(states) + list(labels):
        _require("|" not in atom,
                 f"atom {atom!r} contains '|', which step keys reserve")
    _require(isinstance(obj["step"], dict), "'step' must be an object")
    return states, labels


def _split_step_key(key, states: FinSet, labels: FinSet):
    _require(isinstance(key, str) and key.count("|") == 1,
             f"step key {key!r} must look like 'state|label'")
    s, l = key.split("|")
    _require(s in states, f"step key {key!r}: unknown state {s!r}")
    _require(l in labels, f"step key {key!r}: unknown label {l!r}")
    return s, l


def load_lts(obj) -> TransitionSystem:
    states, labels = _step_carriers(obj)
    step = {}
    for key, succs in obj["step"].items():
        s, l = _split_step_key(key, states, labels)
        _require(isinstance(succs, list) and all(isinstance(x, str) for x in succs),
                 f"successors of {key!r} must be an array of strings")
        step[(s, l)] = frozenset(succs)
    return LTS(states, labels, step)


def load_plts(obj) -> TransitionSystem:
    states, labels = _step_carriers(obj)
    mode = obj.get("mode", "probability")
    step = {}
    for key, dist in obj["step"].items():
        s, l = _split_step_key(key, states, labels)
        # the {"weights": {...}} form, unless "weights" names a state
        if isinstance(dist, dict) and not isinstance(dist.get("weights"), dict):
            dist = {"weights": dist}
        nu = load_ratdist(dist, mode=mode)
        _require(nu.mode == mode,
                 f"step {key!r} has mode {nu.mode}, system says {mode}")
        step[(s, l)] = nu
    return PLTS(states, labels, step, mode)


def load_system(obj) -> TransitionSystem:
    """A PLTS when the system names a mode or some step is an object (a
    distribution), else an LTS."""
    step = obj.get("step") if isinstance(obj, dict) else None
    probabilistic = isinstance(step, dict) and ("mode" in obj or any(
        isinstance(v, dict) for v in step.values()))
    return load_plts(obj) if probabilistic else load_lts(obj)


def load_poset(obj) -> FinPoset:
    _fields(obj, "poset", ("carrier",))
    carrier = load_finset(obj["carrier"])
    return FinPoset(carrier, _pairs(obj.get("leq", []), "order pair"))


def load_ordered_rel(obj) -> OrderedRel:
    _fields(obj, "ordered relation", ("left", "right", "pairs"))
    left = load_poset(obj["left"])
    right = load_poset(obj["right"])
    pairs = _pairs(obj["pairs"], "pair")
    order = None
    if "order" in obj:
        _require(isinstance(obj["order"], list), "order entries must be an array")
        order = []
        for entry in obj["order"]:
            _require(isinstance(entry, list) and len(entry) == 2,
                     f"order entry {entry!r} must pair two pairs")
            order.append(tuple(_pairs(entry, "order entry pair")))
    return OrderedRel(left, right, pairs, order)


def load_model(obj) -> Model:
    _fields(obj, "model", ("monad", "base"))
    monad = monad_by_name(obj["monad"], obj.get("mode", "probability"))
    _require(isinstance(obj["base"], dict), "'base' must map names to sets")
    base = {name: load_finset(xs) for name, xs in obj["base"].items()}
    return Model(monad, base)


def load_base_rels(obj) -> dict:
    _require(isinstance(obj, dict), "base relations must map names to relations")
    return {name: load_rel(r) for name, r in obj.items()}


def load_tagged(atom):
    _require(isinstance(atom, str) and atom[:2] in ("L:", "R:"),
             f"tagged atom {atom!r} must look like 'L:x' or 'R:y'")
    return (atom[0], atom[2:])


def load_classes(obj) -> list:
    _require(isinstance(obj, list), "classes must be an array of arrays")
    out = []
    for cls in obj:
        _require(isinstance(cls, list), f"class {cls!r} must be an array")
        out.append(frozenset(load_tagged(a) for a in cls))
    return out


# ------------------------------------------------------------- encoding

def value_json(v):
    """Recursive rendering of semantic values.

    Strings pass through, pairs become two-element arrays, sets become
    arrays under {"set": ...} whose members are ordered by their compact
    JSON text (json.dumps(x, sort_keys=True)), distributions carry their
    mode and weights keyed by the rendered value.
    """
    return _render(v, {})[0]


def _render(v, memo):
    """(v as JSON, its compact sort_keys text, whether v is built from
    strings by tuples and frozensets alone).

    A pair's or a set's text is built from its members' texts, so a
    nested set is never serialized again to sort the set around it; the
    rarer dicts and distributions are serialized whole.  Only values of
    the third kind enter the memo: a value equal to one of them renders
    the same, whereas ("a", 1) and ("a", True) are equal and do not.
    """
    if isinstance(v, str):
        return v, _quote(v), True
    if isinstance(v, (tuple, frozenset)):
        try:
            return memo[v]
        except (KeyError, TypeError):  # TypeError: an unhashable tuple
            pass
        parts = [_render(x, memo) for x in v]
        if isinstance(v, frozenset):
            parts.sort(key=itemgetter(1))
        obj = [p[0] for p in parts]
        text = "[" + ", ".join(p[1] for p in parts) + "]"
        if isinstance(v, frozenset):
            obj, text = {"set": obj}, '{"set": ' + text + "}"
        out = obj, text, all(p[2] for p in parts)
        if out[2]:
            memo[v] = out
        return out
    if isinstance(v, dict):
        obj = {atom_str(k): _render(x, memo)[0] for k, x in sorted(v.items())}
    elif isinstance(v, RatDist):
        obj = {"mode": v.mode,
               "weights": {atom_str(x): str(w) for x, w in v.items()}}
    elif isinstance(v, Fraction):
        obj = str(v)
    elif v is None or isinstance(v, (bool, int)):
        obj = v
    else:
        obj = repr(v)
    return obj, json.dumps(obj, sort_keys=True), False


def finset_json(a: FinSet):
    return _rendered(a, {})


def _rendered(values, memo):
    """value_json of each value, with one memo across them: a value built
    from strings by pairs and sets is rendered once and handed back as
    the same object each time it recurs."""
    return [_render(v, memo)[0] for v in values]


def rel_json(r: Rel):
    memo = {}
    return {
        "left": _rendered(r.left, memo),
        "right": _rendered(r.right, memo),
        "pairs": _rendered(r, memo),
    }


def poset_json(p: FinPoset, memo=None):
    memo = {} if memo is None else memo
    leq = sorted_pairs(p.pairs, p.carrier, p.carrier)
    return {
        "carrier": _rendered(p.carrier, memo),
        "leq": _rendered((q for q in leq if q[0] != q[1]), memo),
    }


def ordered_rel_json(r: OrderedRel, memo=None):
    """One memo may serve several relations, as for both systems of
    poset-lift, whose pairs and antichains largely coincide."""
    memo = {} if memo is None else memo
    # the pairs with their order form a poset whose carrier is the pairs
    pairs = poset_json(r.as_poset(), memo)
    return {
        "left": poset_json(r.left, memo),
        "right": poset_json(r.right, memo),
        "pairs": pairs["carrier"],
        "order": pairs["leq"],
    }


def report_json(rep: LawReport):
    out = {"law": rep.law, "ok": rep.ok, "cases": rep.cases}
    if rep.seed is not None:
        out["seed"] = rep.seed
    if rep.counterexample is not None:
        out["counterexample"] = {
            k: value_json(v) for k, v in rep.counterexample.items()
        }
    return out


def dumps(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2), byte for byte, for a
    payload whose objects have string keys.

    The stdlib falls back to its pure-Python encoder under indent; this
    writer renders each list or object once per depth, so a sub-object
    that value_json handed back for a repeated value is written once.
    """
    return _indented(payload, 0, {})


def _indented(o, level, memo):
    if isinstance(o, str):
        return _quote(o)
    if not isinstance(o, (list, tuple, dict)):
        return json.dumps(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    # the payload holds every container for the whole call, so no id is
    # reused by another object while memo is alive
    key = (id(o), level)
    text = memo.get(key)
    if text is None:
        sep = "\n" + "  " * (level + 1)
        if isinstance(o, dict):
            body = ("," + sep).join(
                f"{_quote(k)}: {_indented(o[k], level + 1, memo)}"
                for k in sorted(o))
            text = "{" + sep + body + "\n" + "  " * level + "}"
        else:
            body = ("," + sep).join(_indented(x, level + 1, memo) for x in o)
            text = "[" + sep + body + "\n" + "  " * level + "]"
        memo[key] = text
    return text
