import copy
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from test_lawcheck import mutant_powerset

from monarel import (ORD, Rel, chain, cli, jsonio, powerset_monad, saturate,
                     standard_battery, upper_monad)
from monarel.cli import main
from monarel.metalang import Base, TTy

STAIR = {"left": ["1", "2"], "right": ["a", "b"],
         "pairs": [["1", "a"], ["2", "a"], ["2", "b"]]}
HALF_PLTS = {"states": ["s", "t", "u"], "labels": ["l"], "step": {
    "s|l": {"t": "1/2", "u": "1/2"},
    "t|l": {"t": "1"},
    "u|l": {"u": "1"},
}}
ONE_PLTS = {"states": ["s'", "t'"], "labels": ["l"], "step": {
    "s'|l": {"t'": "1"},
    "t'|l": {"t'": "1"},
}}


@pytest.fixture
def j(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class _Overran(Exception):
    pass


def _overran(signum, frame):
    raise _Overran("ran past its deadline")


@contextmanager
def deadline(seconds):
    """Raises _Overran in the body once it has run for the given seconds
    of wall-clock time, so an unbounded input fails instead of hanging."""
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def full_rel(left, right, n=None):
    """The first n pairs (all by default) of left x right, as JSON."""
    pairs = [[a, b] for a in left for b in right][:n]
    return {"left": list(left), "right": list(right), "pairs": pairs}


# ----------------------------------------------------------------- laws

def test_check_laws_powerset_small(capsys):
    code, out, _ = run(capsys, "check-laws", "--monad", "powerset",
                       "--max-size", "2")
    assert code == 0
    assert "monad-laws: pass" in out
    assert "cartesian: fails" in out  # informational only


def test_check_laws_json_is_reproducible(capsys):
    argv = ("check-laws", "--monad", "dist", "--mode", "subprobability",
            "--max-size", "2", "--samples", "40", "--seed", "3", "--json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    parsed = json.loads(out1)
    assert all(r["ok"] for r in parsed["reports"])


def test_check_laws_unknown_monad_exits_2(capsys):
    code, _, err = run(capsys, "check-laws", "--monad", "identity")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("monad", ["powerset", "nonempty-powerset", "dist",
                                   "upper"])
def test_unknown_mode_exits_2_for_every_monad(capsys, j, monad):
    # only dist reads the mode, but every monad refuses a bad one
    code, out, err = run(capsys, "check-laws", "--monad", monad,
                         "--mode", "bogus", "--max-size", "1")
    assert (code, out, err) == (2, "", "error: unknown mode 'bogus'\n")
    model = j("m.json", {"monad": monad, "mode": "bogus",
                         "base": {"b": ["a0"]}})
    code, out, err = run(capsys, "logrel", "--model1", model,
                         "--model2", model, "--type", "b")
    assert (code, out, err) == (2, "",
                                f"error: {model}: unknown mode 'bogus'\n")


@pytest.mark.parametrize("argv", [
    ("--monad", "powerset", "--max-size", "-1"),
    ("--monad", "nonempty-powerset", "--max-size", "0"),
    ("--monad", "dist", "--max-size", "0"),
    ("--monad", "powerset", "--max-size", "5"),
    ("--monad", "dist", "--samples", "-3", "--max-size", "1"),
    ("--monad", "upper", "--max-size", "0"),
    ("--monad", "upper", "--max-size", "4"),
])
def test_check_laws_without_cases_exits_2(capsys, argv):
    code, out, err = run(capsys, "check-laws", *argv)
    assert code == 2 and "error:" in err
    assert "pass" not in out


def test_check_laws_upper_max_size_1_checks_the_one_point_poset(capsys):
    code, out, _ = run(capsys, "check-laws", "--monad", "upper",
                       "--max-size", "1", "--samples", "40", "--json")
    assert code == 0
    want = standard_battery(upper_monad(), [chain(["a"])], samples=40,
                            seed=0, category=ORD)
    assert [r["cases"] for r in json.loads(out)["reports"]] == \
        [r.cases for r in want]


# ----------------------------------------------------------------- lift

def test_lift_lists_related_values(capsys, j):
    code, out, _ = run(capsys, "lift", "--monad", "powerset",
                       "--S", j("s.json", STAIR))
    assert code == 0
    assert "{1,2}  ~  {a}" in out
    assert "{2}  ~  {a,b}" in out


def test_lift_json_shape(capsys, j):
    code, out, _ = run(capsys, "lift", "--monad", "nonempty-powerset",
                       "--S", j("s.json", STAIR), "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["monad"] == "nonempty-powerset"
    pairs = parsed["lifted"]["pairs"]
    assert [{"set": ["1"]}, {"set": ["a"]}] in pairs
    assert [{"set": []}, {"set": []}] not in pairs


@pytest.mark.parametrize("monad", ["powerset", "nonempty-powerset"])
@pytest.mark.parametrize("n", [11, 12, 13])
def test_lift_walks_at_most_its_limit_of_values(capsys, j, monad, n):
    # T S has 2^n values, one fewer for the nonempty powerset; the limit
    # is 4096, so 12 pairs are the most lift accepts
    rel = full_rel("1234", "abcd", n)
    code, out, err = run(capsys, "lift", "--monad", monad,
                         "--S", j("s.json", rel))
    if n > 12:
        assert code == 2 and f"T S over {n} pairs has" in err
        assert "more than the limit of 4096" in err and out == ""
        return
    expect = oracles.powerset_lift_pairs(Rel(rel["left"], rel["right"],
                                             map(tuple, rel["pairs"])))
    if monad == "nonempty-powerset":
        expect.discard((frozenset(), frozenset()))
    assert code == 0
    assert out.startswith(f"{len(expect)} related pairs over ")


def test_lift_refuses_the_full_relation_between_6_and_5_atoms(capsys, j):
    # 30 pairs: a walk of 2^30 values (2^30 - 1 for the nonempty
    # powerset), which lift used to start
    for monad in ("powerset", "nonempty-powerset"):
        with deadline(5):
            code, out, err = run(capsys, "lift", "--monad", monad, "--S",
                                 j("s.json", full_rel("123456", "abcde")))
        assert code == 2 and out == ""
        assert "T S over 30 pairs has about 2^30 elements" in err


def test_lift_rejects_dist(capsys, j):
    code, _, err = run(capsys, "lift", "--monad", "dist",
                       "--S", j("s.json", STAIR))
    assert code == 2 and "error:" in err


# --------------------------------------------------------------- member

def test_member_powerset_yes_and_no(capsys, j):
    s = j("s.json", STAIR)
    code, out, _ = run(capsys, "member", "--monad", "powerset", "--S", s,
                       "--b1", j("b1.json", ["1", "2"]),
                       "--b2", j("b2.json", ["a"]))
    assert code == 0 and out.startswith("member")
    code, out, _ = run(capsys, "member", "--monad", "powerset", "--S", s,
                       "--b1", j("b3.json", ["1"]),
                       "--b2", j("b4.json", ["b"]))
    assert code == 1 and "not a member" in out


def test_member_nonempty_rejects_the_empty_subset(capsys, j):
    code, _, err = run(capsys, "member", "--monad", "nonempty-powerset",
                       "--S", j("s.json", STAIR),
                       "--b1", j("b1.json", []), "--b2", j("b2.json", ["a"]))
    assert code == 2 and "error:" in err


def test_member_dist_witness_text(capsys, j):
    code, out, _ = run(
        capsys, "member", "--monad", "dist", "--S", j("s.json", STAIR),
        "--nu1", j("nu1.json", {"mode": "probability",
                                "weights": {"1": "1/2", "2": "1/2"}}),
        "--nu2", j("nu2.json", {"mode": "probability",
                                "weights": {"a": "1/2", "b": "1/2"}}))
    assert code == 0
    assert "coupling (1,a) -> 1/2" in out
    assert "coupling (2,b) -> 1/2" in out


def test_member_dist_cut_witness_text(capsys, j):
    narrow = {"left": ["1", "2"], "right": ["a", "b"],
              "pairs": [["1", "a"], ["2", "b"]]}
    code, out, _ = run(
        capsys, "member", "--monad", "dist", "--S", j("s.json", narrow),
        "--nu1", j("nu1.json", {"mode": "probability",
                                "weights": {"1": "1"}}),
        "--nu2", j("nu2.json", {"mode": "probability",
                                "weights": {"a": "1/2", "b": "1/2"}}))
    assert code == 1
    assert "violated subset U = {1}: nu1(U) = 1 > nu2(S(U)) = 1/2" in out


def test_member_dist_saturated_requires_saturation(capsys, j):
    narrow = {"left": ["1", "2"], "right": ["a", "b"],
              "pairs": [["1", "a"], ["1", "b"], ["2", "a"]]}
    code, _, err = run(
        capsys, "member", "--monad", "dist", "--saturated",
        "--S", j("s.json", narrow),
        "--nu1", j("nu1.json", {"mode": "probability", "weights": {"1": "1"}}),
        "--nu2", j("nu2.json", {"mode": "probability", "weights": {"a": "1"}}))
    assert code == 2 and "not saturated" in err


def test_member_dist_saturated_mode(capsys, j):
    sat = {"left": ["1", "2"], "right": ["a", "b"],
           "pairs": [["1", "a"], ["2", "a"]]}
    code, out, _ = run(
        capsys, "member", "--monad", "dist", "--saturated",
        "--S", j("s.json", sat),
        "--nu1", j("nu1.json", {"mode": "probability",
                                "weights": {"1": "1/3", "2": "2/3"}}),
        "--nu2", j("nu2.json", {"mode": "probability", "weights": {"a": "1"}}))
    assert code == 0 and out.startswith("member")


def test_member_dist_refuses_values_outside_the_carriers(capsys, j):
    # the flow and the class-mass deciders both refuse a value outside T A
    sat = {"left": ["1", "2"], "right": ["a", "b"],
           "pairs": [["1", "a"], ["2", "a"]]}
    for flags in ([], ["--saturated"]):
        for nu1, nu2, side in [("z", "y", "left"), ("1", "y", "right")]:
            code, out, err = run(
                capsys, "member", "--monad", "dist", *flags,
                "--S", j("s.json", sat),
                "--nu1", j("nu1.json", {"mode": "probability",
                                        "weights": {nu1: "1"}}),
                "--nu2", j("nu2.json", {"mode": "probability",
                                        "weights": {nu2: "1"}}))
            assert (code, out) == (2, ""), (flags, side)
            assert f"{side} support leaves the carrier" in err


def test_member_missing_operand_exits_2(capsys, j):
    code, _, err = run(capsys, "member", "--monad", "powerset",
                       "--S", j("s.json", STAIR))
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------- bisim

def test_bisim_pass_and_fail(capsys, j):
    sys1 = {"states": ["a", "b"], "labels": ["l"], "step": {"a|l": ["b"]}}
    sys2 = {"states": ["x", "y"], "labels": ["l"], "step": {"x|l": ["y"]}}
    rel = {"left": ["a", "b"], "right": ["x", "y"],
           "pairs": [["a", "x"], ["b", "y"]]}
    code, out, _ = run(capsys, "bisim", "--sys1", j("1.json", sys1),
                       "--sys2", j("2.json", sys2), "--rel", j("r.json", rel))
    assert code == 0 and "bisimulation" in out
    bad = {"left": ["a", "b"], "right": ["x", "y"],
           "pairs": [["a", "y"], ["b", "y"]]}
    code, out, _ = run(capsys, "bisim", "--sys1", j("1.json", sys1),
                       "--sys2", j("2.json", sys2), "--rel", j("b.json", bad))
    assert code == 1 and "not a bisimulation" in out


def test_bisim_default_diagonal_needs_equal_states(capsys, j):
    sys1 = {"states": ["a"], "labels": ["l"], "step": {}}
    sys2 = {"states": ["x"], "labels": ["l"], "step": {}}
    code, _, err = run(capsys, "bisim", "--sys1", j("1.json", sys1),
                       "--sys2", j("2.json", sys2))
    assert code == 2 and "error:" in err


def test_prob_bisim_pass_fail_and_counterexample(capsys, j):
    rel = {"left": ["s", "t", "u"], "right": ["s'", "t'"],
           "pairs": [["s", "s'"], ["t", "t'"], ["u", "t'"]]}
    code, out, _ = run(capsys, "prob-bisim", "--sys1", j("1.json", HALF_PLTS),
                       "--sys2", j("2.json", ONE_PLTS),
                       "--rel", j("r.json", rel))
    assert code == 0
    narrow = {"left": ["s", "t", "u"], "right": ["s'", "t'"],
              "pairs": [["s", "s'"], ["t", "t'"]]}
    code, out, _ = run(capsys, "prob-bisim", "--sys1", j("1.json", HALF_PLTS),
                       "--sys2", j("2.json", ONE_PLTS),
                       "--rel", j("n.json", narrow), "--json")
    assert code == 1
    parsed = json.loads(out)
    assert parsed["bisimulation"] is False
    assert parsed["counterexample"]["pair"] == ["s", "s'"]
    # a step in the {"weights": ...} form takes the system's mode
    sub = {"states": ["s"], "labels": ["l"], "mode": "subprobability",
           "step": {"s|l": {"weights": {"s": "1/2"}}}}
    code, out, _ = run(capsys, "prob-bisim", "--sys1", j("s1.json", sub),
                       "--sys2", j("s2.json", sub))
    assert code == 0 and "bisimulation" in out


def test_a_state_named_weights_is_read_as_a_state(capsys, j):
    # only an object under "weights" marks the {"weights": {...}} form
    plts = {"states": ["weights", "t"], "labels": ["l"], "mode": "probability",
            "step": {"weights|l": {"weights": "1"}, "t|l": {"t": "1"}}}
    for command in ("prob-bisim", "max-bisim"):
        with deadline(5):
            code, out, err = run(capsys, command, "--sys1", j("1.json", plts),
                                 "--sys2", j("2.json", plts))
        assert (code, err) == (0, "")
    assert "weights  ~  weights" in out


def test_max_bisim_auto_detects_plts(capsys, j):
    code, out, _ = run(capsys, "max-bisim", "--sys1", j("1.json", HALF_PLTS),
                       "--sys2", j("2.json", ONE_PLTS), "--json")
    assert code == 0
    parsed = json.loads(out)
    assert ["s", "s'"] in parsed["largest"]["pairs"]


def test_max_bisim_takes_the_kind_of_the_first_system(capsys, j):
    lts = {"states": ["s"], "labels": ["l"], "step": {"s|l": ["s"]}}
    code, out, _ = run(capsys, "max-bisim", "--sys1", j("1.json", lts),
                       "--sys2", j("2.json", lts))
    assert (code, out) == (0, "largest bisimulation: 1 pairs\n  s  ~  s\n")
    # the second system is read as the same kind as the first
    code, _, err = run(capsys, "max-bisim", "--sys1", j("1.json", lts),
                       "--sys2", j("2.json", ONE_PLTS))
    assert code == 2
    assert "successors of \"s'|l\" must be an array of strings" in err
    code, _, err = run(capsys, "max-bisim", "--sys1", j("1.json", lts),
                       "--sys2", j("2.json", lts), "--kind", "powerset")
    assert code == 2 and "unrecognized arguments: --kind" in err


def test_max_bisim_gives_one_answer_for_either_file_order(capsys, j):
    # a mode field makes a PLTS even when no step shows a distribution
    quiet = {"states": ["s"], "labels": ["l"], "mode": "subprobability",
             "step": {}}
    half = {"states": ["t"], "labels": ["l"], "mode": "subprobability",
            "step": {"t|l": {"t": "1/2"}}}
    for first, second in ((quiet, half), (half, quiet)):
        code, out, err = run(capsys, "max-bisim", "--sys1", j("1.json", first),
                             "--sys2", j("2.json", second))
        assert (code, out, err) == (0, "largest bisimulation: 0 pairs\n", "")
    code, out, err = run(capsys, "max-bisim", "--sys1", j("1.json", quiet),
                         "--sys2", j("2.json", dict(quiet, states=["u"])))
    assert (code, out, err) == (0, "largest bisimulation: 1 pairs\n"
                                   "  s  ~  u\n", "")


PING_PONG = {"states": ["s", "t"], "labels": ["a", "b"],
             "step": {"s|a": ["t"], "t|b": ["s"]}}


@pytest.mark.parametrize("command", ["bisim", "max-bisim"])
def test_label_relation_off_the_label_sets_exits_2(capsys, j, command):
    code, out, err = run(capsys, command,
                         "--sys1", j("1.json", PING_PONG),
                         "--sys2", j("2.json", PING_PONG),
                         "--labels", j("l.json", full_rel("x", "y")))
    assert (code, out) == (2, "")
    assert err == "error: label relation does not match the label sets\n"


@pytest.mark.parametrize("command,system", [
    ("bisim", PING_PONG),
    ("prob-bisim", dict(HALF_PLTS, mode="subprobability")),
    ("max-bisim", PING_PONG),
    ("max-bisim", dict(HALF_PLTS, mode="subprobability")),
])
def test_differing_label_sets_need_a_label_relation(capsys, j, command,
                                                     system):
    # the CLI pairs equal label sets by their diagonal, and no others
    other = dict(system, labels=system["labels"] + ["z"])
    code, out, err = run(capsys, command, "--sys1", j("1.json", system),
                         "--sys2", j("2.json", other))
    assert (code, out, err) == (2, "", "error: label sets differ; "
                                       "pass --labels\n")


def test_larsen_skou_command(capsys, j):
    classes = [["L:s", "R:s'"], ["L:t", "L:u", "R:t'"]]
    code, out, _ = run(capsys, "larsen-skou",
                       "--sys1", j("1.json", HALF_PLTS),
                       "--sys2", j("2.json", ONE_PLTS),
                       "--classes", j("c.json", classes))
    assert code == 0 and "bisimulation" in out
    # separating u from t makes the masses into {t, t'} disagree: 1/2 vs 1
    bad = [["L:s", "R:s'"], ["L:t", "R:t'"], ["L:u"]]
    code, out, _ = run(capsys, "larsen-skou",
                       "--sys1", j("1.json", HALF_PLTS),
                       "--sys2", j("2.json", ONE_PLTS),
                       "--classes", j("b.json", bad))
    assert code == 1


@pytest.mark.parametrize("second,message", [
    (dict(ONE_PLTS, labels=["k", "l"], step=dict(
        ONE_PLTS["step"], **{"s'|k": {"t'": "1"}, "t'|k": {"t'": "1"}})),
     "label sets differ"),
    (dict(ONE_PLTS, mode="subprobability"),
     "mode mismatch: probability vs subprobability"),
])
def test_larsen_skou_refuses_systems_that_do_not_match(capsys, j, second,
                                                       message):
    code, out, err = run(capsys, "larsen-skou",
                         "--sys1", j("1.json", HALF_PLTS),
                         "--sys2", j("2.json", second),
                         "--classes", j("c.json", [["L:s", "R:s'"],
                                                   ["L:t", "L:u", "R:t'"]]))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ------------------------------------------------------------- metalang

MODEL = {"monad": "powerset", "base": {"b": ["a0", "a1"]}}


def test_logrel_counts_diagonal_functions(capsys, j):
    code, out, _ = run(capsys, "logrel", "--model1", j("m1.json", MODEL),
                       "--model2", j("m2.json", MODEL),
                       "--type", "b -> b", "--json")
    assert code == 0
    parsed = json.loads(out)
    # the four functions on a two-element carrier, each paired with itself
    assert len(parsed["relation"]["pairs"]) == 4


def test_basic_lemma_term_mode(capsys, j):
    code, out, _ = run(capsys, "basic-lemma",
                       "--model1", j("m1.json", MODEL),
                       "--model2", j("m2.json", MODEL),
                       "--term", j("t.ml", "let val x = m in val x"),
                       "--ctx", "m:T b")
    assert code == 0 and "related" in out


def test_basic_lemma_generated_mode_is_reproducible(capsys, j):
    argv = ("basic-lemma", "--model1", j("m1.json", MODEL),
            "--model2", j("m2.json", MODEL), "--count", "20",
            "--seed", "9", "--json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["count"] == 20


def _base_named(name):
    return {"monad": "powerset", "base": {name: ["a0", "a1"]}}


@pytest.mark.parametrize("name", ["my-type", "T"])
def test_the_default_context_takes_any_base_name(capsys, j, name):
    # names the type parser does not read as a base type
    got = {}
    for n in ("b", name):
        m = j(f"{n}.json", _base_named(n))
        got[n] = run(capsys, "basic-lemma", "--model1", m, "--model2", m,
                     "--count", "5", "--seed", "1", "--json")
    assert got["b"][0] == 0 and got[name] == got["b"]


def test_the_default_context_is_over_a_base_type_named_unit(capsys, j,
                                                             monkeypatch):
    seen = []
    check = cli.basic_lemma_check

    def spy(m1, m2, base, ctx, t):
        seen.append(ctx)
        return check(m1, m2, base, ctx, t)

    monkeypatch.setattr(cli, "basic_lemma_check", spy)
    m = j("m.json", _base_named("Unit"))
    code, _, err = run(capsys, "basic-lemma", "--model1", m, "--model2", m,
                       "--count", "3")
    assert (code, err, len(seen)) == (0, "", 3)
    assert all(ctx == {"x": Base("Unit"), "m": TTy(Base("Unit"))}
               for ctx in seen)


def test_generated_terms_need_a_context_or_a_base_type(capsys, j):
    m = j("m.json", {"monad": "powerset", "base": {}})
    assert run(capsys, "basic-lemma", "--model1", m, "--model2", m) == (
        2, "", "error: generated terms need --ctx or a base type\n")


def test_basic_lemma_rejects_ill_typed_term(capsys, j):
    code, _, err = run(capsys, "basic-lemma",
                       "--model1", j("m1.json", MODEL),
                       "--model2", j("m2.json", MODEL),
                       "--term", j("t.ml", "let val x = m in x"),
                       "--ctx", "m:T b")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("argv,needle", [
    (["--count", "0"], "--count"),
    (["--count", "-1"], "--count"),
    (["--max-size", "0"], "--max-size"),
    (["--samples", "5"], "--samples"),
])
def test_basic_lemma_rejects_vacuous_flags(capsys, j, argv, needle):
    code, out, err = run(capsys, "basic-lemma",
                         "--model1", j("m1.json", MODEL),
                         "--model2", j("m2.json", MODEL), *argv)
    assert code == 2 and needle in err
    assert "related" not in out


@pytest.mark.parametrize("ctx,term,message", [
    (":b", "val x", "--ctx entry ':b' has an empty variable name"),
    (" :T b, x:b", None, "--ctx entry ':T b' has an empty variable name"),
    ("x:b, x:T b", "val x", "--ctx repeats the variable 'x'"),
    ("x:b, m:T b, x:b", None, "--ctx repeats the variable 'x'"),
    # names that the metalanguage does not parse as one variable
    ("let:b", "val ()", "--ctx entry 'let:b' does not name a variable: "
                        "1:4: expected 'val', found 'end of input'"),
    ("x y:b", None, "--ctx entry 'x y:b' does not name a variable"),
    ("1x:b", "val ()", "--ctx entry '1x:b' does not name a variable: "
                       "1:1: unexpected character '1'"),
    ("x:b, a->b:b", None, "--ctx entry 'a->b:b' does not name a variable: "
                          "1:2: trailing input '->'"),
])
def test_basic_lemma_rejects_empty_and_repeated_ctx_names(capsys, j, ctx,
                                                          term, message):
    argv = ["--term", j("t.ml", term)] if term else ["--count", "2"]
    code, out, err = run(capsys, "basic-lemma",
                         "--model1", j("m1.json", MODEL),
                         "--model2", j("m2.json", MODEL), "--ctx", ctx, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_basic_lemma_refuses_too_many_environment_pairs(capsys, j):
    # b -> T b over three fully related atoms: 117,650 related pairs of
    # graphs per variable, so about 1.4e10 pairs of environments
    model = j("m.json", {"monad": "powerset", "base": {"b": ["a", "b", "c"]}})
    with deadline(5):
        code, out, err = run(
            capsys, "basic-lemma", "--model1", model, "--model2", model,
            "--base", j("base.json", {"b": full_rel("abc", "abc")}),
            "--ctx", "f:b -> T b, g:b -> T b", "--term", j("t.ml", "val ()"))
    assert code == 2 and out == ""
    assert ("the product of the relations at f, g has about 2^34 elements, "
            "more than the limit of 65536") in err


@pytest.mark.parametrize("command,argv", [
    ("logrel", ["--type", "T(b->b)->b"]),
    ("basic-lemma", ["--ctx", "f:T(b->b)->b", "--count", "1"]),
])
def test_oversized_carriers_exit_2(capsys, j, command, argv):
    # the function space T (b -> b) -> b has 2^16 graphs
    code, out, err = run(capsys, command, "--model1", j("m1.json", MODEL),
                         "--model2", j("m2.json", MODEL), *argv)
    assert code == 2 and "T (b -> b) -> b has 65536 elements" in err
    assert out == ""


@pytest.mark.parametrize("ty", ["b * b * b * b", "T (b * b * b * b)"])
def test_a_product_relation_is_refused_above_the_carrier_limit(capsys, j, ty):
    # six fully related atoms: the product's carriers have 6^4 = 1296
    # elements each, and the relation between them 1296^2 pairs
    atoms = [f"a{i}" for i in range(6)]
    model = j("m.json", {"monad": "powerset", "base": {"b": atoms}})
    with deadline(5):
        code, out, err = run(
            capsys, "logrel", "--model1", model, "--model2", model,
            "--base", j("base.json", {"b": full_rel(atoms, atoms)}),
            "--type", ty)
    assert (code, out) == (2, "")
    assert ("error: the carrier of b * b * b * b has 1296 elements, more "
            "than the limit of 1024") in err


def test_an_oversized_applied_lambda_is_refused(capsys, j):
    # the argument's carrier T b -> T b has 256 graphs, but the lambda's
    # domain (T b -> T b) -> b is refused before the argument is evaluated
    term = "(\\g:(T b -> T b) -> b. x) (\\h:T b -> T b. x)"
    with deadline(5):
        code, out, err = run(capsys, "basic-lemma",
                             "--model1", j("m1.json", MODEL),
                             "--model2", j("m2.json", MODEL),
                             "--ctx", "x:b", "--term", j("t.ml", term))
    assert (code, out, err) == (
        2, "", "error: the carrier of (T b -> T b) -> b has about 2^256 "
               "elements, more than the limit of 1024\n")


# ------------------------------------------------------------ poset-lift

def test_poset_lift_both_systems(capsys, j):
    orel = {"left": {"carrier": ["x", "y"], "leq": []},
            "right": {"carrier": ["x", "y"], "leq": []},
            "pairs": [["x", "x"], ["y", "y"]]}
    code, out, _ = run(capsys, "poset-lift", "--rel", j("o.json", orel))
    assert code == 0
    assert "pair sets agree" in out
    assert "[epi-regmono]" in out and "[extremalepi-mono]" in out


def test_poset_lift_single_system_json(capsys, j):
    orel = {"left": {"carrier": ["x"], "leq": []},
            "right": {"carrier": ["x"], "leq": []},
            "pairs": [["x", "x"]]}
    code, out, _ = run(capsys, "poset-lift", "--rel", j("o.json", orel),
                       "--system", "epi-regmono", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["epi-regmono"]["pairs"] == [[{"set": ["x"]}, {"set": ["x"]}]]


# ---------------------------------------------------------- --json output

def _lossy_unit_powerset():
    lossy = copy.copy(powerset_monad())
    lossy._unit = lambda x: frozenset() if x == "a1" else frozenset([x])
    return lossy


# monads a model or --monad may name in the cases below, to make a check fail
MUTANTS = {"unit-mutant": lambda: mutant_powerset(unit=lambda x: frozenset()),
           "lossy-unit": _lossy_unit_powerset}
SYS1 = {"states": ["a", "b"], "labels": ["l"], "step": {"a|l": ["b"]}}
SYS2 = {"states": ["x", "y"], "labels": ["l"], "step": {"x|l": ["y"]}}
LEMMA_MODEL = {"monad": "powerset", "base": {"b": ["a0", "a1"]}}
LOSSY_MODEL = dict(LEMMA_MODEL, monad="lossy-unit")
ORDERED = {"left": {"carrier": ["w", "x", "y"], "leq": [["w", "x"]]},
           "right": {"carrier": ["p", "q", "r"],
                     "leq": [["q", "p"], ["q", "r"]]},
           "pairs": [["w", "q"], ["x", "p"], ["y", "r"], ["x", "r"]]}
JSON_CASES = {
    "check-laws": (lambda j: ["check-laws", "--monad", "nonempty-powerset",
                              "--max-size", "1"], 0),
    "check-laws failing": (lambda j: ["check-laws", "--monad", "unit-mutant",
                                      "--max-size", "2"], 1),
    "lift": (lambda j: ["lift", "--monad", "powerset",
                        "--S", j("s.json", full_rel("12", "ab", 3))], 0),
    "member powerset": (lambda j: [
        "member", "--monad", "powerset", "--S", j("s.json", STAIR),
        "--b1", j("b1.json", ["1", "2"]), "--b2", j("b2.json", ["a"])], 0),
    "member dist": (lambda j: [
        "member", "--monad", "dist", "--S", j("s.json", STAIR),
        "--nu1", j("n1.json", {"weights": {"1": "1/3", "2": "2/3"}}),
        "--nu2", j("n2.json", {"weights": {"a": "1/2", "b": "1/2"}})], 0),
    "member dist failing": (lambda j: [
        "member", "--monad", "dist", "--S", j("s.json", STAIR),
        "--nu1", j("n1.json", {"weights": {"1": "1"}}),
        "--nu2", j("n2.json", {"weights": {"b": "1"}})], 1),
    "bisim failing": (lambda j: [
        "bisim", "--sys1", j("1.json", SYS1), "--sys2", j("2.json", SYS2),
        "--rel", j("r.json", full_rel("ab", "xy", 2))], 1),
    "prob-bisim failing": (lambda j: [
        "prob-bisim", "--sys1", j("1.json", HALF_PLTS),
        "--sys2", j("2.json", ONE_PLTS),
        "--rel", j("r.json", {"left": ["s", "t", "u"], "right": ["s'", "t'"],
                              "pairs": [["s", "s'"], ["t", "t'"]]})], 1),
    "max-bisim": (lambda j: ["max-bisim", "--sys1", j("1.json", HALF_PLTS),
                             "--sys2", j("2.json", ONE_PLTS)], 0),
    "larsen-skou": (lambda j: [
        "larsen-skou", "--sys1", j("1.json", HALF_PLTS),
        "--sys2", j("2.json", ONE_PLTS),
        "--classes", j("c.json", [["L:s", "R:s'"], ["L:t", "L:u", "R:t'"]])],
        0),
    "logrel": (lambda j: ["logrel", "--model1", j("m1.json", LEMMA_MODEL),
                          "--model2", j("m2.json", LEMMA_MODEL),
                          "--type", "T (b -> b)"], 0),
    "basic-lemma term": (lambda j: [
        "basic-lemma", "--model1", j("m1.json", LEMMA_MODEL),
        "--model2", j("m2.json", LEMMA_MODEL),
        "--term", j("t.ml", "let val x = m in val x"), "--ctx", "m:T b"], 0),
    "basic-lemma failing": (lambda j: [
        "basic-lemma", "--model1", j("m1.json", LOSSY_MODEL),
        "--model2", j("m2.json", LEMMA_MODEL),
        "--term", j("t.ml", "let val y = m in val y"), "--ctx", "m:T b"], 1),
    "basic-lemma generated": (lambda j: [
        "basic-lemma", "--model1", j("m1.json", LEMMA_MODEL),
        "--model2", j("m2.json", LEMMA_MODEL), "--count", "5"], 0),
    "basic-lemma generated failing": (lambda j: [
        "basic-lemma", "--model1", j("m1.json", LOSSY_MODEL),
        "--model2", j("m2.json", LEMMA_MODEL), "--count", "50"], 1),
    "poset-lift": (lambda j: ["poset-lift", "--rel", j("o.json", ORDERED)], 0),
    "poset-lift single": (lambda j: [
        "poset-lift", "--rel", j("o.json", ORDERED),
        "--system", "extremalepi-mono"], 0),
}


def test_json_cases_cover_every_subcommand():
    assert {argv(lambda name, obj: name)[0]
            for argv, _ in JSON_CASES.values()} == {
        "check-laws", "lift", "member", "bisim", "prob-bisim", "max-bisim",
        "larsen-skou", "logrel", "basic-lemma", "poset-lift"}


def _name_mutants(monkeypatch):
    """Let --monad and model files name the monads in MUTANTS too."""
    by_name = jsonio.monad_by_name

    def monad_by_name(name, mode="probability"):
        return MUTANTS[name]() if name in MUTANTS else by_name(name, mode)

    monkeypatch.setattr(jsonio, "monad_by_name", monad_by_name)


@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_output_is_the_stdlib_rendering(capsys, j, monkeypatch, case):
    argv, want = JSON_CASES[case]
    dumps = jsonio.dumps
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return dumps(payload)

    _name_mutants(monkeypatch)
    monkeypatch.setattr(jsonio, "dumps", recording)
    code, out, err = run(capsys, *argv(j), "--json")
    assert (code, err) == (want, "")
    [payload] = payloads
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cex(diagram, inp, lhs, rhs):
    return {"diagram": diagram, "input": inp, "lhs": lhs, "rhs": rhs}


def _law(law, cases, cex=None, **seed):
    out = {"law": law, "ok": cex is None, "cases": cases, **seed}
    return out if cex is None else dict(out, counterexample=cex)


NONE, A = {"set": []}, {"set": ["a"]}
MULT_UNIT = _cex("mult-unit", A, NONE, A)
MEDIATOR_LUNIT = _cex("mediator-lunit", A, NONE, A)
STRENGTH_DUAL = _cex("strength-then-dual", [A, A], NONE, {"set": [["a", "a"]]})
A01 = {"set": ["a0", "a1"]}
LEMMA_CEX = _cex("basic-lemma", [{"m": A01}, {"m": A01}],
                 [{"set": ["a0"]}, A01], "member")
GENERATED_CEX = _cex("basic-lemma", [{"m": NONE, "x": "a1"}] * 2,
                     [NONE, {"set": ["a1"]}], "member")
# the text and the --json report of each failing check in JSON_CASES
FAILING_OUTPUT = {
    "check-laws failing": ("""\
monad-laws: FAIL (9 cases)
  diagram mult-unit: input frozenset({'a'})
  lhs frozenset()
  rhs frozenset({'a'})
strength-laws: pass (145 cases)
mediator-laws: FAIL (5 cases)
  diagram mediator-lunit: input frozenset({'a'})
  lhs frozenset()
  rhs frozenset({'a'})
commutativity: pass (49 cases)
derived-strengths: FAIL (25 cases)
  diagram strength-then-dual: input (frozenset({'a'}), frozenset({'a'}))
  lhs frozenset()
  rhs frozenset({('a', 'a')})
monad-morphism: pass (105 cases)
strong-morphism: pass (279 cases)
monoidal-morphism: pass (961 cases)
cartesian: fails (informational, 9 cases)
  e.g. cartesian-fst at [{"set": ["a"]}, {"set": []}]
counterexample [monad-laws]: %s
counterexample [mediator-laws]: %s
counterexample [derived-strengths]: %s
""" % tuple(json.dumps(c, sort_keys=True)
            for c in (MULT_UNIT, MEDIATOR_LUNIT, STRENGTH_DUAL)), {
        "monad": "powerset-mutant", "seed": 0, "ok": False,
        "reports": [
            _law("monad-laws", 9, MULT_UNIT, seed=0),
            _law("strength-laws", 145, seed=0),
            _law("mediator-laws", 5, MEDIATOR_LUNIT, seed=0),
            _law("commutativity", 49, seed=0),
            _law("derived-strengths", 25, STRENGTH_DUAL, seed=0),
            _law("monad-morphism", 105, seed=0),
            _law("strong-morphism", 279, seed=0),
            _law("monoidal-morphism", 961, seed=0)],
        "cartesian": _law("cartesianness", 9,
                          _cex("cartesian-fst", [A, NONE], NONE, A), seed=0)}),
    "basic-lemma failing": (
        "let val y = m in val y: NOT related (3 environment pairs)\n"
        f"  counterexample: {json.dumps(LEMMA_CEX, sort_keys=True)}\n",
        {"term": "let val y = m in val y",
         "report": _law("basic-lemma", 3, LEMMA_CEX)}),
    "basic-lemma generated failing": (
        "term val x NOT related: "
        f"{json.dumps(GENERATED_CEX, sort_keys=True)}\n",
        {"seed": 0, "count": 1, "ok": False,
         "failure": {"term": "val x",
                     "report": _law("basic-lemma", 2, GENERATED_CEX)}}),
}


@pytest.mark.parametrize("case", sorted(FAILING_OUTPUT))
def test_failing_checks_print_their_counterexample(capsys, j, monkeypatch,
                                                   case):
    argv, _ = JSON_CASES[case]
    text, report = FAILING_OUTPUT[case]
    _name_mutants(monkeypatch)
    assert run(capsys, *argv(j)) == (1, text, "")
    code, out, err = run(capsys, *argv(j), "--json")
    assert (code, json.loads(out), err) == (1, report, "")


@pytest.mark.parametrize("left,right,n,refused", [
    ("abc", "xyz", None, None),
    ("abcde", "xy", None, "the relation has 10"),
    # the upper-set monad over these 16 pairs has 2^16 - 1 antichains,
    # which poset-lift used to order
    ("abcd", "wxyz", None, "the relation has 16"),
    ("abcdefghij", "x", 1, "the left poset has 10"),
    ("a", "qrstuvwxyz", 1, "the right poset has 10"),
])
def test_poset_lift_accepts_at_most_9_points_and_pairs(capsys, j, left, right,
                                                       n, refused):
    rel = full_rel(left, right, n)
    orel = {"left": {"carrier": rel["left"]},
            "right": {"carrier": rel["right"]}, "pairs": rel["pairs"]}
    with deadline(5):
        code, out, err = run(capsys, "poset-lift", "--rel", j("o.json", orel))
    if refused:
        assert code == 2 and out == ""
        assert f"{refused} elements, more than the limit of 9" in err
    else:
        # every pair of nonempty subsets of the two 3-point sides
        assert code == 0 and out.startswith("[epi-regmono] 49 pairs")


# --------------------------------------------------------------- errors

@pytest.mark.parametrize("flag,text,argv", [
    ("--S", "[" * 100_000 + "]" * 100_000, ["lift", "--monad", "powerset"]),
    ("--type", "T " * 3000 + "b", ["logrel"]),
    ("--term", "(" * 5000 + "x" + ")" * 5000, ["basic-lemma", "--ctx", "x:b"]),
], ids=["lift-json", "logrel-type", "basic-lemma-term"])
def test_deeply_nested_inputs_are_refused(capsys, j, flag, text, argv):
    if argv[0] != "lift":
        argv = [*argv, "--model1", j("m1.json", MODEL),
                "--model2", j("m2.json", MODEL)]
    # the refusal names the file, or the option that held the text
    value = text if flag == "--type" else j("in.txt", text)
    with deadline(5):
        code, out, err = run(capsys, *argv, flag, value)
    where = flag if flag == "--type" else value
    assert (code, out, err) == (2, "", f"error: {where}: nested too deeply\n")


# printing a type or a term recurses over it like the check does, so it
# is done, and a deep input refused, before the check runs: on one atom,
# each relation below is computed within the recursion limit
ONE_ATOM = {"monad": "powerset", "base": {"b": ["a0"]}}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["logrel", "basic-lemma"])
def test_deep_types_and_terms_are_refused_before_printing(capsys, j, command,
                                                          as_json):
    argv = [command, "--model1", j("m1.json", ONE_ATOM),
            "--model2", j("m2.json", ONE_ATOM)]
    if command == "logrel":
        where = "--type"
        argv += [where, " * ".join(["b"] * 600)]
    else:
        where = j("t.ml", "snd " * 499 + "p")
        argv += ["--ctx", "p:" + " * ".join(["b"] * 500), "--term", where]
    with deadline(5):
        code, out, err = run(capsys, *argv, *["--json"] * as_json)
    assert (code, out, err) == (2, "", f"error: {where}: nested too deeply\n")


def test_bad_json_reports_location(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"left": [,]}')
    code, _, err = run(capsys, "lift", "--monad", "powerset", "--S", str(p))
    assert code == 2
    assert "bad.json:1:" in err


@pytest.mark.parametrize("command,files", [
    ("max-bisim", {"--sys1": [], "--sys2": []}),
    ("bisim", {"--sys1": {"states": ["a"], "labels": ["l"],
                          "step": {"a|l": [["a"]]}},
               "--sys2": {"states": ["a"], "labels": ["l"], "step": {}}}),
    ("bisim", {"--sys1": {"states": ["a"], "labels": ["l"], "step": []},
               "--sys2": {"states": ["a"], "labels": ["l"], "step": {}}}),
    ("member", {"--S": STAIR,
                "--nu1": {"weights": [["1", "1"]]},
                "--nu2": {"weights": {"a": "1"}}}),
    ("max-bisim", {"--sys1": {}, "--sys2": {}}),
    ("lift", {"--S": dict(STAIR, pairs=5)}),
    ("lift", {"--S": dict(STAIR, pairs=[[1, "a"]])}),
    ("poset-lift", {"--rel": {"left": {"carrier": ["a"], "leq": 7},
                              "right": {"carrier": ["a"]},
                              "pairs": [["a", "a"]]}}),
    ("poset-lift", {"--rel": {"left": {"carrier": ["a"]},
                              "right": {"carrier": ["a"]},
                              "pairs": [["a", "a"]], "order": 5}}),
    # JSON's true loads as a bool, which is an int but not a weight
    ("member", {"--S": STAIR,
                "--nu1": {"weights": {"1": True}},
                "--nu2": {"weights": {"a": "1"}}}),
    ("prob-bisim", {flag: {"states": ["s"], "labels": ["l"],
                           "step": {"s|l": {"s": True}}}
                    for flag in ("--sys1", "--sys2")}),
])
def test_malformed_input_shapes_exit_2(capsys, j, command, files):
    argv = [command]
    if command == "member":
        argv += ["--monad", "dist"]
    if command == "lift":
        argv += ["--monad", "powerset"]
    for flag, obj in files.items():
        argv += [flag, j(flag.strip("-") + ".json", obj)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error:" in err
    assert "Traceback" not in err


SUB_HALF = {"weights": {"1": "1/2"}}


@pytest.mark.parametrize("argv,files,needle", [
    (["--monad", "dist"], {"--nu1": SUB_HALF, "--nu2": {"weights": {"a": "1"}}},
     "probability mass 1/2"),
    (["--monad", "dist"], {"--nu1": dict(SUB_HALF, mode="subprobability"),
                           "--nu2": {"weights": {"a": "1/2"}}},
     "mode subprobability differs from --mode probability"),
    (["--monad", "dist", "--mode", "subprobability"],
     {"--nu1": SUB_HALF,
      "--nu2": {"mode": "probability", "weights": {"a": "1"}}},
     "mode probability differs from --mode subprobability"),
    (["--monad", "powerset", "--saturated"], {"--b1": ["1"], "--b2": ["a"]},
     "--saturated"),
    (["--monad", "nonempty-powerset", "--saturated"],
     {"--b1": ["1"], "--b2": ["a"]}, "--saturated"),
    (["--monad", "upper"], {"--b1": ["1"], "--b2": ["a"]}, "poset-lift"),
])
def test_member_flags_are_honoured(capsys, j, argv, files, needle):
    argv = ["member", *argv, "--S", j("s.json", STAIR)]
    for flag, obj in files.items():
        argv += [flag, j(flag.strip("-") + ".json", obj)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and needle in err
    assert "Traceback" not in err


def test_member_mode_applies_to_files_without_one(capsys, j):
    code, out, _ = run(capsys, "member", "--monad", "dist",
                       "--mode", "subprobability", "--S", j("s.json", STAIR),
                       "--nu1", j("nu1.json", SUB_HALF),
                       "--nu2", j("nu2.json", {"weights": {"a": "1/2"}}))
    assert code == 0 and "coupling (1,a) -> 1/2" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "lift", "--monad", "powerset",
                       "--S", "/nonexistent/s.json")
    assert code == 2 and "no such file" in err


MODEL = {"monad": "powerset", "base": {"b": ["1", "2"]}}


def _unreadable(tmp_path, kind):
    """A directory, or a file whose first byte is not UTF-8."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff[]")
    return str(path)


@pytest.mark.parametrize("kind,reason", [
    ("directory", "Is a directory"),
    ("not-utf-8", "'utf-8' codec can't decode byte 0xff in position 0"),
])
@pytest.mark.parametrize("flag", ["--S", "--model1", "--term"])
def test_unreadable_files_exit_2(capsys, tmp_path, j, flag, kind, reason):
    bad = _unreadable(tmp_path, kind)
    if flag == "--S":
        argv = ["lift", "--monad", "powerset", "--S", bad]
    else:
        files = {"--model1": j("m1.json", MODEL),
                 "--model2": j("m2.json", MODEL),
                 "--term": j("t.txt", "val x")}
        files[flag] = bad
        argv = ["basic-lemma", "--ctx", "x:b"]
        for pair in files.items():
            argv += pair
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: {reason}")
    assert "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_help_via_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "monarel.cli", "--help"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert "JSON schemas" in out.stdout
    assert "state|label" in out.stdout


ONE_STEP = {"states": ["s"], "labels": ["l"],
            "step": {"s|l": ["p", "q", "r", "t"]}}
STILL_PLTS = {"states": ["s", "t"], "labels": ["l"],
              "step": {"s|l": {"s": "1"}, "t|l": {"t": "1"}}}
ABC, XYZ = ({"carrier": list(c)} for c in ("abc", "xyz"))

# each request has several offenders; its refusal names the first in
# atom_key order, whatever order the hash seed gives the frozen sets
SEVERAL_OFFENDERS = {
    "lift": (["lift", "--monad", "powerset"], {"--S": {
        "left": ["1"], "right": ["a"],
        "pairs": [["1", "q"], ["2", "a"], ["3", "z"]]}},
        "pair (1,q) outside the carriers"),
    "bisim": (["bisim"], {"--sys1": ONE_STEP, "--sys2": ONE_STEP},
              "successor 'p' outside the carrier"),
    "larsen-skou": (["larsen-skou"], {
        "--sys1": STILL_PLTS, "--sys2": STILL_PLTS,
        "--classes": [["L:s", "L:t", "R:s", "R:t"], ["L:s", "L:t", "R:s"]]},
        "classes overlap at ('L', 's')"),
    "poset-lift pairs": (["poset-lift"], {"--rel": {
        "left": {"carrier": ["a"]}, "right": {"carrier": ["x"]},
        "pairs": [["a", "q"], ["b", "x"], ["c", "y"]]}},
        "pair ('a','q') outside the carriers"),
    "poset-lift order": (["poset-lift"], {"--rel": {
        "left": ABC, "right": XYZ,
        "pairs": [["a", "x"], ["b", "y"], ["c", "z"]],
        "order": [[["a", "x"], ["b", "y"]], [["c", "z"], ["a", "x"]]]}},
        "order pair ('a', 'x') <= ('b', 'y') is not below the product order"),
}


@pytest.mark.parametrize("name", sorted(SEVERAL_OFFENDERS))
def test_a_refusal_names_the_same_offender_under_every_hash_seed(name,
                                                                 tmp_path):
    argv, files, message = SEVERAL_OFFENDERS[name]
    for flag, obj in files.items():
        path = tmp_path / (flag.strip("-") + ".json")
        path.write_text(json.dumps(obj))
        argv = [*argv, flag, str(path)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        got = subprocess.run([sys.executable, "-m", "monarel.cli", *argv],
                             capture_output=True, text=True, env=env,
                             timeout=5)
        assert (seed, got.returncode, got.stdout) == (seed, 2, "")
        # one line, naming the expected offender
        assert got.stderr.count("\n") == 1, (seed, got.stderr)
        assert got.stderr.endswith(f": {message}\n"), (seed, got.stderr)


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_the_parser_built_once_answers_like_a_fresh_one(monkeypatch, j):
    # probability mass 1/2: a subprobability, refused in probability mode
    half = {"weights": {"1": "1/2"}}
    member = ["member", "--monad", "dist", "--S", j("s.json", STAIR),
              "--nu1", j("nu1.json", half),
              "--nu2", j("nu2.json", {"weights": {"a": "1/2"}})]
    requests = [["lift", "--monad"], ["--help"],
                member[:3] + ["--mode", "subprobability"] + member[3:],
                member]
    cached = [_captured(argv) for argv in requests]
    assert [code for code, _, _ in cached] == [2, 0, 0, 2]
    # the last request took the default mode, not the one before it
    assert cli._build_parser().parse_args(member).mode == "probability"
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert [_captured(argv) for argv in requests] == cached


def test_commands_rebound_after_the_parser_is_built_are_called(
        monkeypatch, j):
    lift = ["lift", "--monad", "powerset", "--S", j("s.json", STAIR)]
    assert _captured(lift)[0] == 0
    monkeypatch.setattr(cli, "cmd_lift", lambda args: 7)
    assert _captured(lift)[0] == 7


# each subcommand's required options, then every option's destination
# and default: no option is added, dropped, renamed or given a new default
SYS = ["--sys1", "f1", "--sys2", "f2"]
MODELS = ["--model1", "m1", "--model2", "m2"]
OPTION_TABLE = {
    "check-laws": (["--monad", "powerset"], {
        "monad": "powerset", "mode": "probability", "max_size": 3,
        "samples": 200, "json": False, "seed": 0}),
    "lift": (["--monad", "powerset", "--S", "s"], {
        "monad": "powerset", "S": "s", "json": False}),
    "member": (["--monad", "dist", "--S", "s"], {
        "monad": "dist", "mode": "probability", "S": "s", "b1": None,
        "b2": None, "nu1": None, "nu2": None, "saturated": False,
        "json": False}),
    "bisim": (SYS, {"sys1": "f1", "sys2": "f2", "rel": None,
                    "labels": None, "json": False}),
    "prob-bisim": (SYS, {"sys1": "f1", "sys2": "f2", "rel": None,
                         "labels": None, "json": False}),
    "max-bisim": (SYS, {"sys1": "f1", "sys2": "f2", "labels": None,
                        "json": False}),
    "larsen-skou": ([*SYS, "--classes", "c"], {
        "sys1": "f1", "sys2": "f2", "classes": "c", "json": False}),
    "logrel": ([*MODELS, "--type", "b"], {
        "model1": "m1", "model2": "m2", "type": "b", "base": None,
        "json": False}),
    "basic-lemma": (MODELS, {
        "model1": "m1", "model2": "m2", "base": None, "term": None,
        "ctx": "", "count": 100, "max_size": 8, "json": False, "seed": 0}),
    "poset-lift": (["--rel", "r"], {"rel": "r", "system": "both",
                                    "json": False}),
}


@pytest.mark.parametrize("command", sorted(OPTION_TABLE))
def test_each_subcommand_takes_the_options_it_took(capsys, command):
    required, table = OPTION_TABLE[command]
    args = cli._build_parser().parse_args([command, *required])
    assert vars(args) == {"command": command, **table}
    for i in range(0, len(required), 2):
        flag = required[i]
        code, out, err = run(capsys, command, *required[:i],
                             *required[i + 2:])
        assert (code, out) == (2, "")
        assert f"the following arguments are required: {flag}" in err


def test_the_option_table_covers_every_subcommand():
    # main runs cmd_<name> for the subcommand <name>
    assert set(OPTION_TABLE) == {name[4:].replace("_", "-")
                                 for name in vars(cli)
                                 if name.startswith("cmd_")}


@pytest.mark.parametrize("name", jsonio.MONAD_NAMES)
def test_lift_help_names_the_monads_lift_accepts(capsys, monkeypatch, j,
                                                 name):
    # wide enough that no monad name is wrapped at its hyphen
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run(capsys, "lift", "--help")
    named = code == 0 and name in out.split()
    one_pair = j("s.json", {"left": ["1"], "right": ["a"],
                            "pairs": [["1", "a"]]})
    code, _, _ = run(capsys, "lift", "--monad", name, "--S", one_pair)
    assert code == (0 if named else 2)


# ----------------------------------------------------------------- fuzz

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
NAMES = ["a", "b", "c", "x|y"]  # "|" is reserved in step keys
MODES = ["probability", "subprobability"]


def _rarely(draw):
    # a middle value: hypothesis favours the ends of a range
    return draw(st.integers(0, 9)) == 4


def _has_bool(obj):
    """Whether JSON holds a true or false, which no input schema accepts."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return any(map(_has_bool, obj))
    return isinstance(obj, bool)


def _mostly(draw, value):
    """value, replaced by arbitrary JSON now and then."""
    return draw(JUNK) if _rarely(draw) else value


def _carrier(draw):
    if _rarely(draw):  # duplicates, reserved characters, or empty
        return draw(st.lists(st.sampled_from(NAMES), max_size=3))
    return draw(st.lists(st.sampled_from(NAMES[:3]), min_size=1, max_size=3,
                         unique=True))


def _rel(draw, left, right):
    cells = [[a, b] for a in left for b in right] or [["a", "b"]]
    return {"left": left, "right": right,
            "pairs": draw(st.lists(st.sampled_from(cells), max_size=5))}


def _weights(draw, support, mode):
    """Weights over support: exact probability or subprobability
    masses, with an occasional malformed entry."""
    counts = draw(st.lists(st.integers(0, 2), min_size=len(support),
                           max_size=len(support)))
    if mode == "probability" and counts and not any(counts):
        counts[0] = 1
    total = sum(counts) + (mode != "probability") * draw(st.integers(0, 2))
    weights = {x: f"{c}/{total or 1}" for x, c in zip(support, counts) if c}
    if _rarely(draw):
        weights[draw(st.sampled_from(NAMES))] = draw(
            st.sampled_from(["-1/2", "1/0", "x", 2, None, 0.5, True, False]))
    return weights


def _dist(draw, support, mode):
    obj = {"weights": _weights(draw, support, mode)}
    given = draw(st.sampled_from([mode, None, "probability", "bogus"]))
    if given is not None:
        obj["mode"] = given
    return obj


def _system(draw, states, labels, mode):
    """An LTS (mode None) or a PLTS in the given mode."""
    step = {}
    for s in states:
        for label in labels:
            if mode == "probability" or draw(st.booleans()):
                succ = [t for t in states if draw(st.booleans())]
                step[f"{s}|{label}"] = (succ if mode is None
                                        else _weights(draw, succ or states, mode))
    obj = {"states": states, "labels": labels, "step": step}
    if mode is not None:
        obj["mode"] = mode
    return obj


@st.composite
def _member_argv(draw):
    monad = draw(st.sampled_from(["powerset", "nonempty-powerset", "dist",
                                  "upper"]))
    mode = draw(st.sampled_from(MODES))
    left, right = _carrier(draw), _carrier(draw)
    files = {"--S": _mostly(draw, _rel(draw, left, right))}
    if monad == "dist":
        files["--nu1"] = _mostly(draw, _dist(draw, left, mode))
        files["--nu2"] = _mostly(draw, _dist(draw, right, mode))
    else:
        files["--b1"] = [x for x in left if draw(st.booleans())]
        files["--b2"] = [y for y in right if draw(st.booleans())]
    flags = ["--monad", monad, "--mode", mode]
    if _rarely(draw):
        flags.append("--saturated")
    return flags, files


@st.composite
def _bisim_argv(draw, command):
    mode = {"bisim": None, "prob-bisim": draw(st.sampled_from(MODES)),
            "max-bisim": draw(st.sampled_from([None] + MODES))}[command]
    labels = _carrier(draw)
    states1, states2 = _carrier(draw), _carrier(draw)
    files = {
        "--sys1": _mostly(draw, _system(draw, states1, labels, mode)),
        "--sys2": _mostly(draw, _system(draw, states2, labels, mode)),
    }
    if draw(st.booleans()):
        files["--labels"] = _rel(draw, labels, labels)
    if command != "max-bisim" and draw(st.booleans()):
        files["--rel"] = _rel(draw, states1, states2)
    return [], files


@st.composite
def _larsen_skou_argv(draw):
    mode = draw(st.sampled_from(MODES))
    labels = _carrier(draw)
    states1, states2 = _carrier(draw), _carrier(draw)
    # a partition of the tagged states, now and then with an atom left
    # out, repeated or unknown, or an empty class
    atoms = [f"L:{a}" for a in states1] + [f"R:{b}" for b in states2]
    classes = {}
    for atom in atoms:
        classes.setdefault(draw(st.integers(0, len(atoms))), []).append(atom)
    classes = list(classes.values())
    if _rarely(draw):
        classes.append(draw(st.lists(st.sampled_from(atoms + ["L:q", "x"]),
                                     max_size=2)))
    if _rarely(draw) and classes:
        classes[0] = classes[0][1:]
    return [], {
        "--sys1": _mostly(draw, _system(draw, states1, labels, mode)),
        "--sys2": _mostly(draw, _system(draw, states2, labels, mode)),
        "--classes": _mostly(draw, classes),
    }


def _models(draw):
    """Two model files and a base relation file (or none: diagonals)."""
    monad = draw(st.sampled_from(["powerset"] * 3 + ["nonempty-powerset",
                                                       "dist", "upper"]))
    left, right = _carrier(draw), _carrier(draw)
    files = {"--model1": _mostly(draw, {"monad": monad, "base": {"b": left}}),
             "--model2": _mostly(draw, {"monad": monad, "base": {"b": right}})}
    if draw(st.booleans()):
        files["--base"] = _mostly(draw, {"b": _rel(draw, left, right)})
    return files


def _type_src(draw, small):
    """Source of a type; now and then oversized, unknown or malformed."""
    if _rarely(draw):
        return draw(st.sampled_from(["T (b -> b) -> b", "c", "b ->", "T"]))
    return draw(st.sampled_from(small))


@st.composite
def _logrel_argv(draw):
    ty = _type_src(draw, ["b", "Unit", "T b", "b * Unit", "b -> b",
                          "b -> T b", "T b -> T b", "(b -> b) -> b"])
    return ["--type", ty], _models(draw)


@st.composite
def _basic_lemma_argv(draw):
    files = _models(draw)
    ctx = draw(st.lists(st.sampled_from(["x:b", "m:T b", "u:Unit"]),
                        max_size=2, unique=True))
    if _rarely(draw):
        ctx.append("f:" + _type_src(draw, ["b -> b"]))
    flags = ["--ctx", ", ".join(ctx)]
    if draw(st.booleans()):
        files["--term"] = draw(st.sampled_from(
            ["let val y = m in val (y, x)", "val x", "\\y:b. val y",
             "(\\y:T b. y) (val x)", "x x", "let val y = x in", "val ()"]))
    else:
        flags += ["--count", str(draw(st.integers(0, 3))),
                  "--max-size", str(draw(st.integers(0, 6))),
                  "--seed", str(draw(st.integers(0, 9)))]
    return flags, files


@st.composite
def _lift_argv(draw):
    # carriers of up to 5 x 4 atoms, related in full or in part, so that
    # S can have more pairs than lift accepts
    rel = full_rel("12345"[:draw(st.integers(1, 5))],
                   "abcd"[:draw(st.integers(1, 4))])
    if draw(st.booleans()):
        rel["pairs"] = [p for p in rel["pairs"] if draw(st.booleans())]
    monad = draw(st.sampled_from(["powerset", "nonempty-powerset", "dist",
                                  "upper"]))
    flags = ["--monad", monad] + (["--json"] if draw(st.booleans()) else [])
    return flags, {"--S": _mostly(draw, rel)}


def _poset_json(draw, atoms):
    leq = [[a, b] for i, a in enumerate(atoms) for b in atoms[i + 1:]
           if draw(st.booleans())]
    return {"carrier": list(atoms), "leq": leq}


@st.composite
def _poset_lift_argv(draw):
    # posets of up to 5 points related in full or in part, so that some
    # inputs have more points or pairs than poset-lift accepts
    left = "12345"[:draw(st.integers(1, 5))]
    right = "abcde"[:draw(st.integers(1, 5))]
    rel = {"left": _poset_json(draw, left), "right": _poset_json(draw, right),
           "pairs": full_rel(left, right)["pairs"]}
    if draw(st.booleans()):
        rel["pairs"] = [p for p in rel["pairs"] if draw(st.booleans())]
    flags = ["--system", draw(st.sampled_from(["both", "epi-regmono",
                                               "extremalepi-mono"]))]
    if draw(st.booleans()):
        flags.append("--json")
    return flags, {"--rel": _mostly(draw, rel)}


# check-laws joins once _values is bounded: today --max-size 4 on the
# powerset enumerates 65,536 second-level values and runs past the deadline
FUZZ = {
    "lift": (_lift_argv(), None),
    "poset-lift": (_poset_lift_argv(), None),
    "logrel": (_logrel_argv(), None),
    "basic-lemma": (_basic_lemma_argv(), "NOT related"),
    "member": (_member_argv(), "not a member"),
    "bisim": (_bisim_argv("bisim"), "not a bisimulation"),
    "prob-bisim": (_bisim_argv("prob-bisim"), "not a bisimulation"),
    "max-bisim": (_bisim_argv("max-bisim"), None),
    "larsen-skou": (_larsen_skou_argv(), "class masses differ"),
}


def _run_in(tmp, command, flags, files):
    """main on the given files, written as JSON into tmp, within the 5 s
    deadline: (exit code, stdout, stderr)."""
    argv = [command, *flags]
    for flag, obj in files.items():
        path = os.path.join(tmp, flag.strip("-") + ".json")
        with open(path, "w") as fh:
            # term files hold source text, every other file JSON
            fh.write(obj if flag == "--term" else json.dumps(obj))
        argv += [flag, path]
    with deadline(5):
        return _captured(argv)


@pytest.mark.parametrize("command", sorted(FUZZ))
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_inputs_keep_the_exit_code_promise(command, data):
    # exit 0 or 2 always, or 1 with the counterexample printed; 2 when a
    # file holds a JSON boolean (a planted weight or junk)
    strategy, cex = FUZZ[command]
    flags, files = data.draw(strategy, label="input")
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_in(tmp, command, flags, files)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if any(map(_has_bool, files.values())):
        assert code == 2
    if code == 1:
        assert cex is not None and cex in out


# ---------------------------------------------------------- metamorphic

@st.composite
def _system_pair(draw, modes=(None, *MODES)):
    """Two well-formed systems with 1-4 states over the same 1-2 labels,
    both LTSs (mode None) or both PLTSs in one of the modes."""
    mode = draw(st.sampled_from(modes))
    labels = ["l", "m"][:draw(st.integers(1, 2))]

    def system(names):
        states = names[:draw(st.integers(1, 4))]
        step = {}
        for key in (f"{s}|{label}" for s in states for label in labels):
            if mode is None:
                step[key] = [t for t in states if draw(st.booleans())]
                continue
            counts = [draw(st.integers(0, 2)) for _ in states]
            if mode == "probability" and not any(counts):
                counts[0] = 1
            total = sum(counts) + (mode != "probability") * draw(
                st.integers(0, 2))
            step[key] = {t: f"{c}/{total}"
                         for t, c in zip(states, counts) if c}
        obj = {"states": states, "labels": labels, "step": step}
        return obj if mode is None else dict(obj, mode=mode)

    return mode, system(["p", "q", "r", "s"]), system(["w", "x", "y", "z"])


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_system_pair())
def test_max_bisim_answers_the_same_both_ways_and_is_a_bisimulation(pair):
    # (a) swapping --sys1 and --sys2 gives the converse pairs; (b) the
    # largest bisimulation passes bisim or prob-bisim as --rel
    mode, sys1, sys2 = pair
    with tempfile.TemporaryDirectory() as tmp:
        ran = [_run_in(tmp, "max-bisim", ["--json"],
                       {"--sys1": a, "--sys2": b})
               for a, b in ((sys1, sys2), (sys2, sys1))]
        assert [(code, err) for code, _, err in ran] == [(0, "")] * 2
        there, back = (json.loads(out)["largest"] for _, out, _ in ran)
        assert sorted(map(tuple, back["pairs"])) == \
            sorted((b, a) for a, b in there["pairs"])
        check = "bisim" if mode is None else "prob-bisim"
        got = _run_in(tmp, check, [], {"--sys1": sys1, "--sys2": sys2,
                                       "--rel": there})
    assert got == (0, "bisimulation\n", "")


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_system_pair(), st.data())
def test_max_bisim_under_labels_answers_the_converse_when_swapped(pair, data):
    # (a) with a --labels relation: the swapped call, given the converse
    # label relation, prints the converse pairs
    _, sys1, sys2 = pair
    labels = sys1["labels"]
    pairs = [[a, b] for a in labels for b in labels
             if data.draw(st.booleans())]
    rel = {"left": labels, "right": labels, "pairs": pairs}
    converse = dict(rel, pairs=[[b, a] for a, b in pairs])
    with tempfile.TemporaryDirectory() as tmp:
        ran = [_run_in(tmp, "max-bisim", ["--json"],
                       {"--sys1": a, "--sys2": b, "--labels": r})
               for a, b, r in ((sys1, sys2, rel), (sys2, sys1, converse))]
    assert [(code, err) for code, _, err in ran] == [(0, "")] * 2
    there, back = (json.loads(out)["largest"] for _, out, _ in ran)
    assert sorted(map(tuple, back["pairs"])) == \
        sorted((b, a) for a, b in there["pairs"])


@st.composite
def _small_ordered_rel(draw):
    """An ordered relation between posets of at most 4 points, with at
    most 4 pairs."""
    left, right = (_poset_json(draw, names[:draw(st.integers(1, 4))])
                   for names in ("1234", "abcd"))
    cells = [[a, b] for a in left["carrier"] for b in right["carrier"]]
    pairs = draw(st.lists(st.sampled_from(cells), max_size=4, unique_by=tuple))
    return {"left": left, "right": right, "pairs": pairs}


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_small_ordered_rel())
def test_poset_lift_systems_agree(orel):
    # (c) criterion 6's result, through the CLI
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_in(tmp, "poset-lift",
                                 ["--system", "both", "--json"],
                                 {"--rel": orel})
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["same_pairs"] is True and report["same_order"] is True


@st.composite
def _small_rel(draw):
    """A relation between 1-3 and 1-3 atoms."""
    left, right = ("123"[:draw(st.integers(1, 3))],
                   "abc"[:draw(st.integers(1, 3))])
    cells = [[x, y] for x in left for y in right]
    return {"left": list(left), "right": list(right),
            "pairs": draw(st.lists(st.sampled_from(cells), unique_by=tuple))}


# every atom of _small_rel and _system_pair, and as many other names
ATOMS = list("123abc") + list("pqrswxyz") + ["l", "m"]
FRESH = ["n", "c", "9", "zz", "a1", "a", "y'", "k", "B", "b_", "q", "0",
         "e", "x", "mm", "t"]


def _rename_rel(rel, f):
    return {"left": [f[x] for x in rel["left"]],
            "right": [f[y] for y in rel["right"]],
            "pairs": [[f[x], f[y]] for x, y in rel["pairs"]]}


def _rename_system(system, f):
    step = {}
    for key, succ in system["step"].items():
        s, label = key.split("|")
        step[f"{f[s]}|{f[label]}"] = (
            [f[t] for t in succ] if isinstance(succ, list)
            else {f[t]: w for t, w in succ.items()})
    return dict(system, states=[f[x] for x in system["states"]],
                labels=[f[x] for x in system["labels"]], step=step)


def _value_pairs(lifted, f=None):
    """The pairs of a lifted relation as pairs of frozensets, their
    members renamed by f when given."""
    def value(v):
        return frozenset(v["set"] if f is None else map(f.get, v["set"]))
    return {(value(a), value(b)) for a, b in lifted["pairs"]}


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_small_rel(), _system_pair(),
       st.sampled_from(["powerset", "nonempty-powerset"]),
       st.permutations(FRESH))
def test_renaming_atoms_renames_what_lift_and_max_bisim_print(rel, pair,
                                                              monad, fresh):
    # (d) a bijection on the atoms maps the printed pairs onto the pairs
    # printed for the renamed input
    f = dict(zip(ATOMS, fresh))
    _, sys1, sys2 = pair
    with tempfile.TemporaryDirectory() as tmp:
        lifted = [_run_in(tmp, "lift", ["--monad", monad, "--json"],
                          {"--S": r}) for r in (rel, _rename_rel(rel, f))]
        largest = [_run_in(tmp, "max-bisim", ["--json"],
                           {"--sys1": a, "--sys2": b})
                   for a, b in ((sys1, sys2), (_rename_system(sys1, f),
                                               _rename_system(sys2, f)))]
    assert [(code, err) for code, _, err in lifted + largest] == [(0, "")] * 4
    there, back = (json.loads(out)["lifted"] for _, out, _ in lifted)
    assert _value_pairs(there, f) == _value_pairs(back)
    there, back = (json.loads(out)["largest"] for _, out, _ in largest)
    assert {(f[x], f[y]) for x, y in there["pairs"]} == \
        set(map(tuple, back["pairs"]))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_small_rel(), st.sampled_from(["powerset", "nonempty-powerset"]),
       st.data())
def test_lift_prints_the_member_pairs_and_no_other(rel, monad, data):
    # (e) a printed pair is a member and an omitted one is not
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_in(tmp, "lift", ["--monad", monad, "--json"],
                                 {"--S": rel})
        assert (code, err) == (0, "")
        lifted = json.loads(out)["lifted"]
        values = [(a["set"], b["set"]) for a in lifted["left"]
                  for b in lifted["right"]]
        printed = [(a["set"], b["set"]) for a, b in lifted["pairs"]]
        omitted = [p for p in values if p not in printed]
        for pick, want in ((printed, (0, "member\n", "")),
                           (omitted, (1, "not a member\n", ""))):
            if pick:
                b1, b2 = data.draw(st.sampled_from(pick))
                assert _run_in(tmp, "member", ["--monad", monad],
                               {"--S": rel, "--b1": b1, "--b2": b2}) == want


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_system_pair(modes=MODES), st.data())
def test_prob_bisim_on_a_saturated_relation_agrees_with_larsen_skou(pair,
                                                                    data):
    # (f) criterion 5's result, through the CLI, on the saturation of a
    # few pairs, now and then added to the largest bisimulation
    _, sys1, sys2 = pair
    systems = {"--sys1": sys1, "--sys2": sys2}
    cells = [(a, b) for a in sys1["states"] for b in sys2["states"]]
    pairs = data.draw(st.lists(st.sampled_from(cells), min_size=1,
                               max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        if data.draw(st.booleans()):
            code, out, err = _run_in(tmp, "max-bisim", ["--json"], systems)
            pairs += map(tuple, json.loads(out)["largest"]["pairs"])
        classes, sat = saturate(Rel(sys1["states"], sys2["states"], pairs))
        rel = {"left": sys1["states"], "right": sys2["states"],
               "pairs": sorted(map(list, sat.pairs))}
        tagged = [sorted(f"{tag}:{x}" for tag, x in cls) for cls in classes]
        code, out, err = _run_in(tmp, "prob-bisim", [],
                                 dict(systems, **{"--rel": rel}))
        masses = _run_in(tmp, "larsen-skou", [],
                         dict(systems, **{"--classes": tagged}))
    assert err == "" and code in (0, 1)
    assert masses == (code, ("probabilistic bisimulation\n" if code == 0
                             else "class masses differ\n"), "")
