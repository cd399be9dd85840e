import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chainrep
from chainrep import formula
from chainrep.compiler import Dfa, Query, compile
from chainrep.errors import InputError, ParseError, ResourceLimitError
from chainrep.formula import (FALSE, MAX_DEPTH, TRUE, And, AtLeast, Const, Equal, ExistsFO,
                              ExistsSO, ForallFO, ForallSO, Formula, Implies, In, Less,
                              NameSupply, Not, Or, Pred, Run, Signature, all_vars, conj, disj,
                              exists_wrap, expand_macros, free_set_variables,
                              free_variables, map_subformulas, one_point,
                              order_case_split, parse, render, substitute)
from chainrep.growth import growth_degree, growth_lower_witness
from chainrep.interp import Component, InterpretationSpec, reduce_interpretation
from chainrep.randgen import random_formula
from chainrep.oracle import check_reparameterization, evaluate, satisfying_tuples
from chainrep.reparam import minimal_reparameterization
from chainrep.words import MarkedWord, Word, all_words
import itertools
import random

from conftest import dfa_equivalent, wide_text


def test_parse_atoms(sig1):
    assert parse("x < y", sig1) == Less("x", "y")
    assert parse("x = y", sig1) == Equal("x", "y")
    assert parse("P1(x)", sig1) == Pred("P1", "x")
    assert parse("Z(x)", sig1) == In("Z", "x")
    assert parse("true", sig1) == TRUE and parse("false", sig1) == FALSE
    assert parse("x < y | ~true", sig1) == Or((Less("x", "y"), Not(TRUE)))


def test_parse_precedence(sig1):
    f = parse("~P1(x) & P1(y) | P1(x)", sig1)
    assert f == Or((And((Not(Pred("P1", "x")), Pred("P1", "y"))), Pred("P1", "x")))
    g = parse("P1(x) -> P1(y) -> P1(x)", sig1)
    # implication associates right
    assert g == parse("P1(x) -> (P1(y) -> P1(x))", sig1)


def test_quantifier_body_extends_right(sig1):
    f = parse("ex v. P1(v) & v < x", sig1)
    assert f == ExistsFO("v", And((Pred("P1", "v"), Less("v", "x"))))


def test_parse_errors(sig1):
    # true and false are reserved: neither names a variable
    for text in ("x <", "P9(x)", "ex. P1(x)", "(P1(x)", "x ? y", "", "P1(true)",
                 "ex false. P1(false)", "true < x"):
        with pytest.raises(ParseError):
            parse(text, sig1)
    try:
        parse("x < < y", sig1)
    except ParseError as e:
        assert e.pos >= 0


@pytest.mark.parametrize("text, message, pos", [
    ("ex x P1(x)", "expected '.', found 'P1'", 5),
    ("EX x. P1(x)", "expected a set variable, found 'x'", 3),
    ("EX P1. x<y", "'P1' is reserved for predicates", 3),
    ("atleast x y. P1(y)", "expected a count, found 'x'", 8),
    ("atleast 2 X. P1(x)", "expected a first-order variable, found 'X'", 10),
    ("x < y & & x<y", "unexpected token '&'", 8),
    ("x(y)", "'x' cannot be applied, predicates and set variables are uppercase", 0),
    ("X & x<y", "set variable 'X' must be applied to a position", 0),
    ("x P1", "expected '<' or '=' after 'x', found 'P1'", 2),
])
def test_parse_refusals_name_the_token(sig1, text, message, pos):
    with pytest.raises(ParseError) as refused:
        parse(text, sig1)
    assert str(refused.value) == f"{message} (at position {pos})"
    assert (refused.value.text, refused.value.pos) == (text, pos)


def test_free_variables_first_occurrence(sig1):
    f = parse("y < x & (ex z. z < x)", sig1)
    assert free_variables(f) == ("y", "x")
    assert free_set_variables(parse("Z(x) & Y(x)", sig1)) == ("Z", "Y")


def test_substitute_avoids_capture(sig1):
    f = parse("ex z. z < x", sig1)
    g = substitute(f, {"x": "z"})
    w = Word(sig1, (0, 0))
    assert evaluate(g, w, fo={"z": 1}) is True
    assert evaluate(g, w, fo={"z": 0}) is False


def test_substitute_walks_each_body_once(sig1, monkeypatch):
    # a binder's body is searched for free variables only when the binder
    # could capture a new name
    calls = []
    real = formula.free_variables
    monkeypatch.setattr(formula, "free_variables", lambda g: calls.append(g) or real(g))
    f = parse("ex a. ex b. ex c. ex d. a < x & b < x & c < d", sig1)
    assert render(substitute(f, {"x": "y"})) == "ex a. ex b. ex c. ex d. a < y & b < y & c < d"
    assert calls == []
    assert render(substitute(f, {"x": "c"})) == \
        "ex a. ex b. ex c0. ex d. a < c & b < c & c0 < d"
    assert len(calls) == 1


def _same_on_small_words(f, g, sig):
    variables = tuple(dict.fromkeys(free_variables(f) + free_variables(g)))
    for w in all_words(sig, 3):
        for values in itertools.product(range(len(w)), repeat=len(variables)):
            env = dict(zip(variables, values))
            assert evaluate(f, w, fo=env) == evaluate(g, w, fo=env), (render(f), str(w), env)


def test_one_point_rule(sig1):
    cases = (
        # the equality either way round, and true conjuncts dropped
        ("ex u. u = x & P1(u) & u < y", "P1(x) & x < y"),
        ("ex u. P1(u) & x = u & true & u < y", "P1(x) & x < y"),
        ("ex u. u = x", "true"),
        # u = u, and equalities under a negation or a disjunction, are not used
        ("ex u. u = u & P1(u)", "ex u. u = u & P1(u)"),
        ("ex u. ~u = x & P1(u)", "ex u. ~u = x & P1(u)"),
        ("ex u. (u = x | P1(u)) & u < y", "ex u. (u = x | P1(u)) & u < y"),
        # a block of variables, the inner one first
        ("ex x0. ex x1. P1(x0) & y1 = x0 & (P1(x1) & y2 = x1) & x0 < x1",
         "P1(y1) & P1(y2) & y1 < y2"),
        # nested under other connectives
        ("~(ex u. u = x & P1(u)) | y < x", "~P1(x) | y < x"),
        # the inner x would capture: substitute renames it
        ("ex u. u = x & (ex x. x < u)", "ex x0. x0 < x"),
    )
    for text, want in cases:
        f = parse(text, sig1)
        g = one_point(f)
        assert render(g) == want, text
        _same_on_small_words(f, g, sig1)


def test_conj_disj_units(sig1):
    assert evaluate(conj([]), Word(sig1, ()), {}) is True
    assert evaluate(disj([]), Word(sig1, ()), {}) is False
    assert conj([Less("x", "y")]) == Less("x", "y")


def test_exists_wrap(sig1):
    f = exists_wrap(("x", "y"), Less("x", "y"))
    assert f == ExistsFO("x", ExistsFO("y", Less("x", "y")))


def test_expand_macros_atleast(sig1):
    f = expand_macros(AtLeast(2, "v", Pred("P1", "v")))
    w1 = Word(sig1, (1, 1))
    w2 = Word(sig1, (1, 0))
    assert evaluate(f, w1, {}) is True
    assert evaluate(f, w2, {}) is False
    assert expand_macros(AtLeast(0, "v", FALSE)) == TRUE


def test_name_supply_fresh():
    supply = NameSupply({"x", "y0"})
    a = supply.fresh("y")
    b = supply.fresh("y")
    assert a != b and a not in {"x", "y0"} and b not in {"x", "y0"}


def test_order_case_split_pair(sig1):
    f = parse("x < y | P1(x)", sig1)
    cases = order_case_split(f, ("x", "y"))
    shapes = sorted(tuple(len(c) for c in case.classes) for case in cases)
    assert shapes == [(1, 1), (1, 1), (2,)]
    for case in cases:
        assert len(case.representatives) == len(case.classes)
    # every pair assignment satisfies exactly one constraint, where the case
    # formula agrees with f
    w = Word(sig1, (1, 0, 1))
    for a in range(3):
        for b in range(3):
            env = {"x": a, "y": b}
            live = [c for c in cases if evaluate(c.constraint, w, fo=env)]
            assert len(live) == 1
            case = live[0]
            rep_env = {r: env[cls[0]]
                       for cls, r in zip(case.classes, case.representatives)}
            assert evaluate(case.formula, w, fo=rep_env) == evaluate(f, w, fo=env)


def test_order_case_split_counts(sig1):
    f = parse("P1(x)", sig1)
    # ordered Bell numbers: weak orderings of n elements; the split builds
    # its cases lazily, and len() counts them without building any
    for variables, want in (((), 1), (("x",), 1), (("x", "y"), 3),
                            (("x", "y", "z"), 13)):
        split = order_case_split(f, variables)
        assert len(list(split)) == want == len(split)
    # a case is built from its rank tuple, which must be a weak ordering
    for bad in ((0, 2), (1, 1), (0,)):
        with pytest.raises(InputError):
            order_case_split(f, ("x", "y")).case(bad)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 2))
def test_render_parse_round_trip(seed, n_preds):
    sig = Signature(tuple(f"P{i + 1}" for i in range(n_preds)))
    f = random_formula(random.Random(seed), sig, ("x", "y"), rank=3)
    assert parse(render(f), sig) == f


def test_render_walks_long_chains(sig1):
    # the export of a 300-state automaton is a disjunction of 1,200 steps
    cycle = tuple(tuple((q + 1) % 300 for _ in range(4)) for q in range(300))
    text = render(Run(Dfa(sig1, True, 0, cycle, frozenset({0})), ("x",)))
    assert len(text) == 234_892
    assert render(parse(text, sig1)) == text


@pytest.mark.parametrize("width", [400, 1000])
@pytest.mark.parametrize("op", ["|", "&"])
def test_wide_connectives_answer(sig1, op, width):
    # one node holds every operand; repeating them changes nothing, so the
    # wide formula answers as the three operands do
    f, narrow = parse(wide_text(op, width), sig1), parse(wide_text(op, 3), sig1)
    assert type(f) is type(narrow) and len(f.parts) == width
    assert render(f) == wide_text(op, width)
    assert dfa_equivalent(compile(f, sig1, ("x", "y")), compile(narrow, sig1, ("x", "y")))
    for w in all_words(sig1, 3):
        assert satisfying_tuples(f, w) == satisfying_tuples(narrow, w), str(w)


NESTINGS = {
    "~": lambda n: "~" * n + "P1(x)",
    "all": lambda n: "all y. " * n + "P1(x)",
    "ALL": lambda n: "ALL Y. " * n + "P1(x)",
    "()": lambda n: "(" * n + "P1(x)" + ")" * n,
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_at_the_limit_answers(sig1, kind):
    # each is P1(x) under MAX_DEPTH (an even number of) levels
    f = parse(NESTINGS[kind](MAX_DEPTH), sig1)
    assert dfa_equivalent(compile(f, sig1, ("x",)), compile(Pred("P1", "x"), sig1, ("x",)))
    w = Word(sig1, (1, 0))
    assert evaluate(f, w, {"x": 0}) and not evaluate(f, w, {"x": 1})
    rep = minimal_reparameterization(f, sig1, ("x",))
    assert (rep.dimension, rep.bound) == (1, 1)
    with pytest.raises(ResourceLimitError) as e:
        parse(NESTINGS[kind](MAX_DEPTH + 1), sig1)
    assert (e.value.stage, e.value.subject, e.value.budget, e.value.reached) == \
        ("parse", "nesting depth", MAX_DEPTH, MAX_DEPTH + 1)


def test_the_search_wraps_a_formula_at_the_limit(sig1):
    # the search compiles images and maps that wrap the source in more
    # levels; the builder does not walk into the source it has kept
    f = parse("~" * (MAX_DEPTH - 1) + "ex z. z < x", sig1)
    rep = minimal_reparameterization(f, sig1, ("x",))
    assert (rep.dimension, rep.bound, rep.provenance.kind) == (0, 1, "refine")
    assert check_reparameterization(rep, 3)


def test_nesting_built_past_the_limit_is_a_resource_limit(sig1):
    # the top is not an And, whose operands the oracle would check one by one
    f = Pred("P1", "x")
    for i in range(MAX_DEPTH + 1):
        f = And((Less("x", "y"), f)) if i % 2 else Not(f)
    calls = {"compile": lambda: compile(f, sig1, ("x", "y")),
             "map automaton": lambda: Query(sig1, 10).map_automaton(f, ("x",), ("y",)),
             "oracle": lambda: evaluate(f, Word(sig1, (1, 0)), {"x": 0, "y": 1})}
    for stage, call in calls.items():
        with pytest.raises(ResourceLimitError,
                           match=f"^{stage}: formula nests deeper than {MAX_DEPTH} levels$"):
            call()


def test_the_search_checks_depth_before_its_first_walk(sig1):
    # compile and evaluate raise ResourceLimitError on this chain; the
    # search's own walks (free_variables, all_vars) must not recurse first
    f = Pred("P1", "x")
    for _ in range(2000):
        f = Not(f)
    spec = InterpretationSpec(sig1, (Component("c", 1, f, ("x",)),), ())
    calls = (lambda: minimal_reparameterization(f, sig1, ("x",)),
             lambda: growth_degree(f, sig1, ("x",)),
             lambda: growth_lower_witness(f, sig1, ("x",), 2),
             lambda: reduce_interpretation(spec, 1))
    for call in calls:
        with pytest.raises(ResourceLimitError,
                           match=f"^compile: formula nests deeper than {MAX_DEPTH} levels$"):
            call()


def test_connectives_take_two_or_more_operands():
    for node in (And, Or):
        for parts in ((), (TRUE,)):
            with pytest.raises(InputError, match="needs at least two operands"):
                node(parts)
        assert node([TRUE, FALSE]).parts == (TRUE, FALSE)


def test_render_spacing_stable(sig1):
    f = parse("(x<y)&( ~ P1( x ) )", sig1)
    assert render(f) == "x < y & ~P1(x)"
    assert all_vars(f) == frozenset({"x", "y"})


def test_signature_validation():
    with pytest.raises(InputError):
        Signature(("P1", "P1"))
    with pytest.raises(InputError):
        Signature(("lower",))


def test_node_hash_is_the_field_hash_across_pickles(sig1):
    text = "(ex z. (x < z & P1(z))) | ~(EX Z. Z(x))"
    f = parse(text, sig1)
    # a node hashes as the tuple of its fields, so set orders follow them
    assert hash(f) == hash((f.parts,)) == hash(f)
    # a pickle made under another hash seed must still hit equal keys here
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = ("import pickle, sys\n"
            "from chainrep.formula import Signature, parse\n"
            f"f = parse({text!r}, Signature(('P1',)))\n"
            "hash(f)\n"
            "sys.stdout.buffer.write(pickle.dumps(f))\n")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": str(Path(chainrep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, check=True).stdout
    g = pickle.loads(out)
    assert g == f and {f: "hit"}[g] == "hit"
    assert {f.parts[0].body: "hit"}[g.parts[0].body] == "hit"


def _one_of_each_node(sig):
    """Instances of every node class, with free variables among x and y."""
    px, py, pz = Pred("P1", "x"), Pred("P1", "y"), Pred("P1", "z")
    pair = compile(parse("x < y & P1(y)", sig), sig, ("x", "y"))
    return {
        Const: [TRUE, FALSE],
        Less: [Less("x", "y")],
        Equal: [Equal("x", "y")],
        Pred: [px],
        In: [In("Z", "x")],
        Not: [Not(px)],
        And: [And((px, Less("x", "y")))],
        Or: [Or((px, Less("y", "x")))],
        Implies: [Implies(px, py)],
        ExistsFO: [ExistsFO("z", And((Less("x", "z"), pz)))],
        ForallFO: [ForallFO("z", Implies(Less("z", "x"), pz))],
        ExistsSO: [ExistsSO("Z", And((In("Z", "x"), Not(In("Z", "y")))))],
        ForallSO: [ForallSO("Z", Or((In("Z", "x"), Not(In("Z", "y")))))],
        AtLeast: [AtLeast(2, "z", Less("z", "x")), AtLeast(0, "z", FALSE)],
        Run: [Run(pair, ("x", "y"))],
    }


def test_every_node_reaches_every_walker(sig1):
    instances = _one_of_each_node(sig1)
    # a node class added later fails here until it is listed above
    assert set(instances) == set(Formula.__subclasses__())
    leaves = {Const, Less, Equal, Pred, In, Run}
    for cls, fs in instances.items():
        for f in fs:
            assert type(f) is cls
            subs = []
            assert map_subformulas(f, lambda g: subs.append(g) or g) is f
            assert bool(subs) == (cls not in leaves)
            # the rebuild keeps every other field; And and Or hold their
            # operands in one tuple field
            assert map_subformulas(f, Not) == type(f)(
                *(Not(x) if isinstance(x, Formula) else
                  tuple(map(Not, x)) if cls in (And, Or) else x for x in vars(f).values()))
            fo, so = free_variables(f), free_set_variables(f)
            assert set(fo) <= {"x", "y"} and set(so) <= {"Z"}
            assert set(fo) | set(so) <= all_vars(f)
            if cls is not Run:
                assert parse(render(f), sig1) == f, render(f)
            renamed = substitute(f, {"x": "w"})
            assert "x" not in free_variables(renamed)
            assert ("w" in free_variables(renamed)) == ("x" in fo)
            # compile the closure over set variables; its marks ascend in
            # the order of the marked variables
            closed = f
            for s in so:
                closed = ExistsSO(s, closed)
            expanded = expand_macros(closed)
            dfa = compile(closed, sig1, fo)
            for w in all_words(sig1, 3):
                for marks in itertools.combinations(range(len(w)), len(fo)):
                    env = dict(zip(fo, marks))
                    want = evaluate(closed, w, env)
                    assert evaluate(expanded, w, env) == want, (render(f), str(w))
                    assert dfa.run(MarkedWord(w, marks)) == want, (render(f), str(w))
