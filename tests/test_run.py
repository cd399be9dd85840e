"""The automaton leaf Run: compiler, oracle and formula walkers agree with
its MSO export."""

import itertools

import pytest

from chainrep.compiler import compile, dfa_to_formula, max_fiber
from chainrep.errors import InputError
from chainrep.formula import (And, Less, Run, all_vars, conj,
                              free_set_variables, free_variables, map_subformulas,
                              parse, render, substitute)
from chainrep.growth import growth_lower_witness
from chainrep.oracle import evaluate, satisfying_tuples
from chainrep.randgen import formula_batch
from chainrep.reparam import minimal_reparameterization
from chainrep.words import MarkedWord, all_words
from conftest import GROUP_TEXT, dfa_equivalent


def marked_dfas():
    for sig, fo, f in formula_batch(404, 20):
        if fo:
            yield sig, fo, compile(f, sig, fo)


def assignments(word, variables):
    for tup in itertools.product(range(len(word)), repeat=len(variables)):
        yield dict(zip(variables, tup))


def test_compile_embeds_the_automaton():
    for sig, fo, dfa in marked_dfas():
        assert dfa_equivalent(compile(Run(dfa, fo), sig, fo), dfa), fo


def test_oracle_agrees_with_export():
    # markings are ascending position tuples; the chain goes first so the
    # costly export is evaluated on those alone
    checked = 0
    for sig, fo, dfa in marked_dfas():
        chain = conj([Less(a, b) for a, b in zip(fo, fo[1:])])
        leaf = And((chain, Run(dfa, fo)))
        export = And((chain, dfa_to_formula(dfa, fo)))
        for w in all_words(sig, 3):
            got = satisfying_tuples(leaf, w, fo)
            assert got == satisfying_tuples(export, w, fo), (fo, str(w))
            assert got == [m for m in itertools.combinations(range(len(w)), len(fo))
                           if dfa.run(MarkedWord(w, m))]
            checked += 1
    assert checked > 0


def test_merged_variables_compile_and_evaluate_alike():
    # order_case_split merges equal variables into one name; the leaf then
    # marks a single position for both
    for sig, fo, dfa in marked_dfas():
        extra = fo[-1] + "1"
        merges = [(fo + (extra,), {extra: fo[-1]}, fo)]
        if len(fo) == 2:
            merges.append((fo, {fo[1]: fo[0]}, fo[:1]))
        for vs, mapping, left in merges:
            leaf = substitute(Run(dfa, vs), mapping)
            assert leaf.vars == tuple(mapping.get(v, v) for v in vs)
            assert free_variables(leaf) == left
            compiled = compile(leaf, sig, left)
            if vs != fo:
                # the repeated name marks nothing new
                assert dfa_equivalent(compiled, dfa)
            for w in all_words(sig, 4):
                for env in assignments(w, left):
                    got = evaluate(leaf, w, fo=env)
                    marks = tuple(sorted(set(env.values())))
                    if len(marks) == len(left):
                        assert compiled.run(MarkedWord(w, marks)) == got
                    else:
                        assert not got


def test_walkers(sig1):
    dfa = compile(parse("x < y & P1(y)", sig1), sig1, ("x", "y"))
    leaf = Run(dfa, ("x", "y", "x"))
    assert free_variables(leaf) == ("x", "y")
    assert free_set_variables(leaf) == ()
    # the leaf binds nothing: its names are its variables
    assert all_vars(leaf) == {"x", "y"}
    with pytest.raises(InputError):
        Run(compile(parse("ex v. P1(v)", sig1), sig1), ("x",))


def test_render_is_the_export(sig1):
    dfa = compile(parse("x < y & P1(y)", sig1), sig1, ("x", "y"))
    text = dfa_to_formula(dfa, ("x", "y"))
    leaf = Run(dfa, ("x", "y"))
    assert render(leaf) == render(text)
    assert set(free_variables(text)) == all_vars(leaf)
    # the export picks its own binders, fresh against the variables
    assert {"p0", "q0", "r0"} <= all_vars(text)
    assert {"p1", "q0", "r0"} <= all_vars(dfa_to_formula(dfa, ("p0", "y")))
    # in context it renders with the export's precedence
    assert render(And((leaf, leaf))) == render(And((text, text)))


def test_substitution_keeps_the_export_capture_free(sig1):
    dfa = compile(parse("x < y & P1(y)", sig1), sig1, ("x", "y"))
    leaf = substitute(Run(dfa, ("x", "y")), {"x": "p0"})
    assert leaf.vars == ("p0", "y")
    assert set(free_variables(leaf.mso())) == {"p0", "y"}
    back = parse(render(leaf), sig1)
    for w in all_words(sig1, 3):
        for env in assignments(w, ("p0", "y")):
            assert evaluate(back, w, fo=env) == evaluate(leaf, w, fo=env)


def test_pipeline_never_exports_a_leaf(sig1, monkeypatch):
    # the guard split's map holds Run leaves; building, refining and
    # witnessing it works on the leaves themselves, never on their export
    def refuse(self):
        raise AssertionError("a Run leaf was exported to MSO")

    monkeypatch.setattr(Run, "mso", refuse)
    f = parse(GROUP_TEXT, sig1)
    rep = minimal_reparameterization(f, sig1, ("x", "y"))
    assert (rep.dimension, rep.bound) == (1, 3)
    leaves = []

    def collect(node):
        if isinstance(node, Run):
            leaves.append(node)
        map_subformulas(node, lambda g: collect(g) or g)

    collect(rep.g)
    assert leaves
    for leaf in leaves:
        assert all_vars(leaf) == set(leaf.vars)
    assert max_fiber(rep.g, sig1, rep.domain_vars, rep.image_vars, cap=10) == 3
    w = growth_lower_witness(f, sig1, ("x", "y"), 4)
    assert w.oracle_count() >= w.claimed_tuple_count == 4
