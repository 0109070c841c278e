"""JSON encodings for the CLI.

Input carriers are arrays of strings; relations pair them; rational
weights travel as "p/q" strings.  Transition tables key on "state|label"
(so carrier atoms must avoid "|"); equivalence classes over a disjoint
union tag atoms as "L:x" / "R:y".  Outputs render structured values
(sets, pairs, distributions) recursively.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bisim import LTS, PLTS, TransitionSystem
from .finset import FinSet, Rel, atom_key, atom_str
from .lawcheck import LawReport
from .metalang import Model
from .monads import MODES, MonadInstance, RatDist, dist_monad, \
    nonempty_powerset_monad, powerset_monad
from .poset import FinPoset, OrderedRel, upper_monad

MONAD_NAMES = ("powerset", "nonempty-powerset", "dist", "upper")


def monad_by_name(name: str, mode: str = "probability") -> MonadInstance:
    if name == "powerset":
        return powerset_monad()
    if name == "nonempty-powerset":
        return nonempty_powerset_monad()
    if name == "dist":
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        return dist_monad(mode)
    if name == "upper":
        return upper_monad()
    raise ValueError(
        f"unknown monad {name!r}; pick one of {', '.join(MONAD_NAMES)}")


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


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
    _require(isinstance(obj, dict), "a relation must be an object")
    for key in ("left", "right", "pairs"):
        _require(key in obj, f"relation needs a {key!r} field")
    left = load_finset(obj["left"])
    right = load_finset(obj["right"])
    return Rel(left, right, _pairs(obj["pairs"], "relation pair"))


def load_fraction(s) -> Fraction:
    _require(isinstance(s, (str, int)), f"weight {s!r} must be 'p/q' or int")
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational {s!r}: {e}") from None
    _require(f >= 0, f"negative weight {s!r}")
    return f


def load_ratdist(obj, carrier: FinSet = None, mode="probability") -> RatDist:
    """mode applies when the object names none."""
    _require(isinstance(obj, dict), "a distribution must be an object")
    _require("weights" in obj, "distribution needs a 'weights' field")
    _require(isinstance(obj["weights"], dict), "'weights' must be an object")
    mode = obj.get("mode", mode)
    weights = {x: load_fraction(w) for x, w in obj["weights"].items()}
    return RatDist(weights, mode, carrier)


def _step_carriers(obj):
    """States and labels, after the checks an LTS and a PLTS share."""
    _require(isinstance(obj, dict), "a transition system must be an object")
    for key in ("states", "labels", "step"):
        _require(key in obj, f"transition system needs a {key!r} field")
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
        if isinstance(dist, dict) and "weights" not in dist:
            dist = {"weights": dist}
        nu = load_ratdist(dist, mode=mode)
        _require(nu.mode == mode,
                 f"step {key!r} has mode {nu.mode}, system says {mode}")
        step[(s, l)] = nu
    return PLTS(states, labels, step, mode)


def load_system(obj) -> TransitionSystem:
    """A PLTS when some step is an object (a distribution), else an LTS."""
    step = obj.get("step") if isinstance(obj, dict) else None
    probabilistic = isinstance(step, dict) and any(
        isinstance(v, dict) for v in step.values())
    return load_plts(obj) if probabilistic else load_lts(obj)


def load_poset(obj) -> FinPoset:
    _require(isinstance(obj, dict), "a poset must be an object")
    _require("carrier" in obj, "poset needs a 'carrier' field")
    carrier = load_finset(obj["carrier"])
    return FinPoset(carrier, _pairs(obj.get("leq", []), "order pair"))


def load_ordered_rel(obj) -> OrderedRel:
    _require(isinstance(obj, dict), "an ordered relation must be an object")
    for key in ("left", "right", "pairs"):
        _require(key in obj, f"ordered relation needs a {key!r} field")
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
    _require(isinstance(obj, dict), "a model must be an object")
    for key in ("monad", "base"):
        _require(key in obj, f"model needs a {key!r} field")
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
    sorted arrays under {"set": ...}, distributions carry their mode and
    weights keyed by the rendered value.
    """
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return [value_json(x) for x in v]
    if isinstance(v, frozenset):
        return {"set": sorted((value_json(x) for x in v), key=_json_key)}
    if isinstance(v, dict):
        return {_flat(k): value_json(x) for k, x in sorted(v.items())}
    if isinstance(v, RatDist):
        return {
            "mode": v.mode,
            "weights": {
                _flat(x): str(w) for x, w in v.items()
            },
        }
    if isinstance(v, Fraction):
        return str(v)
    if v is None or isinstance(v, (bool, int)):
        return v
    return repr(v)


def _json_key(x):
    return json.dumps(x, sort_keys=True)


def _flat(v) -> str:
    if isinstance(v, RatDist):
        inner = ",".join(f"{_flat(x)}:{w}" for x, w in v.items())
        return "{" + inner + "}"
    return atom_str(v)


def finset_json(a: FinSet):
    return [value_json(x) for x in a]


def rel_json(r: Rel):
    return {
        "left": finset_json(r.left),
        "right": finset_json(r.right),
        "pairs": [value_json(p) for p in sorted(r.pairs, key=atom_key)],
    }


def poset_json(p: FinPoset):
    return {
        "carrier": finset_json(p.carrier),
        "leq": [value_json(q) for q in sorted(p.pairs, key=atom_key)
                if q[0] != q[1]],
    }


def ordered_rel_json(r: OrderedRel):
    return {
        "left": poset_json(r.left),
        "right": poset_json(r.right),
        "pairs": [value_json(p) for p in sorted(r.pairs, key=atom_key)],
        "order": [value_json(pq) for pq in sorted(r.order, key=atom_key)
                  if pq[0] != pq[1]],
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
