import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainrep import interp, oracle, reparam
from chainrep.compiler import DEFAULT_STATE_BUDGET, Query
from chainrep.errors import ChainrepError, InputError, ResourceLimitError
from chainrep.formula import ExistsFO, Run, Signature
from chainrep.interp import (apply_interpretation, check_equivalence,
                             parse_interpretation, reduce_interpretation)
from chainrep.oracle import check_canonical_form, check_reparameterization
from chainrep.reparam import minimal_reparameterization
from chainrep.words import Word, all_words
from conftest import FIRST_PAIR_TEXT, GROUP_TEXT, dfa_equivalent, interp_batch
from test_acceptance import SPECS

SUCC = """
signature P1
component pairs dim=2
universe x < y & ~ex z. (x < z & z < y)
relation E/2 on (pairs, pairs) := x = x & y = u & v = v
"""

TWO = """
signature P1, P2
component ones dim=1
universe P1(x)
component flag dim=0
universe ex v. P2(v)
relation E/2 on (ones, ones) := x < y
relation M/1 on (flag,) := ~ex q. q < q
"""

ENDS = """
signature P1
component ends dim=1
universe (~ex z. z < x) | (~ex z. x < z)
relation L/2 on (ends, ends) := x < y
"""

UNSAT = """
signature P1
component a dim=1
universe x < x
relation E/2 on (a, a) := x < y
"""


def test_parse_round_trip():
    spec = parse_interpretation(SUCC)
    again = parse_interpretation(spec.dump())
    assert again.dump() == spec.dump()
    assert [c.name for c in spec.components] == ["pairs"]
    assert spec.arities() == {"E": 2}


def test_parse_errors():
    bad = [
        "component a dim=1\nuniverse P1(x)",          # no signature
        "signature P1\ncomponent a dim=1",             # missing universe
        "signature P1\nuniverse P1(x)",                # universe w/o component
        "signature P1\ncomponent a dim=2\nuniverse P1(x)",  # arity mismatch
        "signature P1\ncomponent a dim=1\nuniverse P1(x)\n"
        "component a dim=1\nuniverse P1(x)",           # duplicate name
        "signature P1\ncomponent a dim=1\nuniverse P1(x)\n"
        "relation R/2 on (a) := x < y",                # arity vs slots
        "signature P1\ncomponent a dim=1\nuniverse P1(x)\n"
        "relation R/1 on (a) := x < y",                # variable count
        "signature P1\ncomponent a dim=1\nuniverse Z(x)",  # free set variable
        "signature P1\nnonsense P1(x)",                # unknown directive
    ]
    for text in bad:
        with pytest.raises(InputError):
            parse_interpretation(text)


A_SPEC = "signature P1\ncomponent a dim=1\nuniverse P1(x)\n"


@pytest.mark.parametrize("text, message", [
    (A_SPEC + "relation R/1 on (b) := P1(x)", "unknown component 'b'"),
    ("signature P1\ncomponent a dim=-1\nuniverse P1(x)",
     "component 'a' has negative dimension"),
    (A_SPEC + "relation R/1 on (a) := P1(x)\nrelation R/2 on (a, a) := x < y",
     "relation 'R' used at two arities"),
    (A_SPEC + "relation R/1 on (a) := P1(x)\nrelation R/1 on (a) := ~P1(x)",
     "relation 'R' on ('a',) given twice"),
    (A_SPEC + "relation R/1 on (a) := Z(x)", "relation 'R' has free set variables"),
    ("signature P1\ncomponent a dim=1\ncomponent b dim=1\nuniverse P1(x)",
     "component 'a' has no universe line"),
    ("signature P1\ncomponent a\nuniverse P1(x)", "bad component line: 'component a'"),
    ("signature P1\ncomponent a dim=two\nuniverse P1(x)",
     "bad dimension in 'component a dim=two'"),
    (A_SPEC + "relation R/1 on (a) P1(x)",
     "relation line misses ':=': 'relation R/1 on (a) P1(x)'"),
    (A_SPEC + "relation R on (a) := P1(x)",
     "bad relation line: 'relation R on (a) := P1(x)'"),
    ("# no lines but this one", "no signature given"),
])
def test_spec_refusals_name_the_fault(text, message):
    with pytest.raises(InputError) as refused:
        parse_interpretation(text)
    assert str(refused.value) == message


def test_apply_single_component(sig1):
    spec = parse_interpretation(
        "signature P1\ncomponent a dim=1\nuniverse P1(x)\n"
        "relation E/2 on (a, a) := x < y\n")
    st = apply_interpretation(spec, Word(sig1, (1, 0, 1)))
    assert st.elements == (("a", (0,)), ("a", (2,)))
    assert st.relation("E") == ((("a", (0,)), ("a", (2,))),)


def test_apply_unsat_universe_empty(sig1):
    spec = parse_interpretation(
        "signature P1\ncomponent a dim=1\nuniverse x < x\n")
    st = apply_interpretation(spec, Word(sig1, (1, 1)))
    assert st.elements == ()
    assert "empty" in st.dump()


def test_apply_dim0_component(sig1):
    spec = parse_interpretation(
        "signature P1\ncomponent a dim=0\nuniverse ex v. P1(v)\n")
    assert apply_interpretation(spec, Word(sig1, (0, 1))).elements == (("a", ()),)
    assert apply_interpretation(spec, Word(sig1, (0, 0))).elements == ()


def test_apply_signature_mismatch(sig1, sig2):
    spec = parse_interpretation(SUCC)
    with pytest.raises(InputError):
        apply_interpretation(spec, Word(sig2, (0,)))


def test_reduce_successor_pairs():
    spec = parse_interpretation(SUCC)
    red = reduce_interpretation(spec, 1)
    assert [(c.name, c.dim) for c in red.spec.components] == [("pairs.1", 1)]
    assert red.parts[0].rep.bound == 1
    assert check_equivalence(spec, red, 4)


def test_reduce_refuses_a_negative_dimension():
    with pytest.raises(InputError) as refused:
        reduce_interpretation(parse_interpretation(SUCC), -1)
    assert str(refused.value) == "dimension must be nonnegative"


def test_reduce_two_components():
    spec = parse_interpretation(TWO)
    red = reduce_interpretation(spec, 1)
    names = [c.name for c in red.spec.components]
    assert names == ["ones.1", "flag.1"]
    assert check_equivalence(spec, red, 3)


def test_reduce_with_multiple_copies():
    spec = parse_interpretation(ENDS)
    red = reduce_interpretation(spec, 0)
    assert [c.name for c in red.spec.components] == ["ends.1", "ends.2"]
    assert all(c.dim == 0 for c in red.spec.components)
    assert check_equivalence(spec, red, 4)


REDUCED_SHA1 = {
    "successor pairs": (221, "e942c5978b34c949d0e24524b0b3db41cd0ef585"),
    "labelled elements with marker": (219, "192f816285bfbbcbd69ab1a6e6dea26f220ee31b"),
    "word endpoints": (5_990, "acd19c5e762c480d4b8a59d0e042ddedf24ada0b"),
}


@pytest.mark.parametrize("name, dim, text", SPECS, ids=[s[0] for s in SPECS])
def test_reduced_specs_are_pinned(name, dim, text):
    # the reduced spec's text, rank automata included, byte for byte
    dump = reduce_interpretation(parse_interpretation(text), dim).spec.dump()
    assert (len(dump), hashlib.sha1(dump.encode()).hexdigest()) == REDUCED_SHA1[name]


def test_applied_structures_are_pinned():
    # every source and reduced spec on every word up to length 4, as the
    # product over the element pools materialized them
    h = hashlib.sha1()
    words = 0
    for _, dim, text in SPECS:
        source = parse_interpretation(text)
        for spec in (source, reduce_interpretation(source, dim).spec):
            for word in all_words(spec.signature, 4):
                h.update((apply_interpretation(spec, word).dump() + "\n").encode())
                words += 1
    assert (words, h.hexdigest()) == (806, "cd8eabcb9a0c184f4e74b25c0af069da40146411")


# a labelled position strictly between the two ends, over three
# components, and a flag beside a labelled first position, over two
BETWEEN = """
signature P1
component ends dim=1
universe (~ex z. z < x) | (~ex z. x < z)
component ones dim=1
universe P1(x)
component flag dim=0
universe ex v. P1(v)
relation B/3 on (ends, ones, ends) := x < y & y < z
relation F/2 on (flag, ones) := ~ex z. z < x
"""

# derived by hand: ends are the first and last positions, ones the
# labelled ones, and the flag is there when some position is labelled
BETWEEN_STRUCTURES = {
    (): "(empty structure)",
    (1,): "element ends(0)\nelement ones(0)\nelement flag()\n"
          "relation F: flag(), ones(0)",
    (0, 0): "element ends(0)\nelement ends(1)",
    (0, 1, 0): "element ends(0)\nelement ends(2)\nelement ones(1)\nelement flag()\n"
               "relation B: ends(0), ones(1), ends(2)",
    (1, 1, 1, 1): "element ends(0)\nelement ends(3)\nelement ones(0)\nelement ones(1)\n"
                  "element ones(2)\nelement ones(3)\nelement flag()\n"
                  "relation B: ends(0), ones(1), ends(3)\n"
                  "relation B: ends(0), ones(2), ends(3)\n"
                  "relation F: flag(), ones(0)",
}


def test_rules_over_three_components(sig1):
    # each element of a tuple is cut out for its own component, by
    # dimension, on the source (dimensions 1, 1, 1 and 0, 1) and on the
    # reduction (0, 1, 0: the ends become two copies of dimension 0)
    spec = parse_interpretation(BETWEEN)
    for letters, dump in BETWEEN_STRUCTURES.items():
        assert apply_interpretation(spec, Word(sig1, letters)).dump() == dump, letters
    red = reduce_interpretation(spec, 1)
    assert [(c.name, c.dim) for c in red.spec.components] == \
        [("ends.1", 0), ("ends.2", 0), ("ones.1", 1), ("flag.1", 0)]
    assert apply_interpretation(red.spec, Word(sig1, (0, 1, 0))).dump() == (
        "element ends.1()\nelement ends.2()\nelement ones.1(1)\nelement flag.1()\n"
        "relation B: ends.1(), ones.1(1), ends.2()")
    assert dataclasses.astuple(check_equivalence(spec, red, 4)) == (True, 31, 2, None)
    # the rule that relates the first end to the last, given for the last
    # to the first, misses the one triple of [., P1, .] and adds its mirror
    rules = tuple(dataclasses.replace(r, components=("ends.2", "ones.1", "ends.1"))
                  if r.components == ("ends.1", "ones.1", "ends.2") else r
                  for r in red.spec.rules)
    swapped = dataclasses.replace(red, spec=dataclasses.replace(red.spec, rules=rules))
    assert dataclasses.astuple(check_equivalence(spec, swapped, 4)) == (
        False, 10, 2, "word [., P1, .]: relation 'B' differs "
        "(missing [(('ends', (0,)), ('ones', (1,)), ('ends', (2,)))], "
        "extra [(('ends', (2,)), ('ones', (1,)), ('ends', (0,)))])")


GUARD_SPLIT = (f"signature P1\ncomponent g dim=2\nuniverse {GROUP_TEXT}\n"
               "relation R/2 on (g, g) := x < u & y = y & v = v\n")


def test_reduce_guard_split_selectors_stay_small():
    # three copies selected by rank automata, not by chained copies of the
    # map, which made this spec 1,957,112 characters long
    spec = parse_interpretation(GUARD_SPLIT)
    red = reduce_interpretation(spec, 1)
    assert [p.name for p in red.parts] == ["g.1", "g.2", "g.3"]
    assert len(red.spec.dump()) < 100_000
    assert check_equivalence(spec, red, 4)


def one_track_each(f, sig, tracks):
    """f's minimal automaton over one track per variable of tracks, each
    track carrying a single mark."""
    b = Query(sig, DEFAULT_STATE_BUDGET).builder("compile")
    return b.publish(b.valid(b.extend(b.built(f), fo_add=tracks), tracks), True, len(tracks))


def test_printed_selectors_build_their_leaves():
    # interp-reduce prints each selector leaf as its MSO export (Run.mso());
    # read back from the printed spec, under its component's domain
    # quantifiers, every export builds the leaf's language over one track
    # per variable, at all word lengths
    checked = 0
    for name, dim, text in SPECS + (("guard split", 1, GUARD_SPLIT),):
        red = reduce_interpretation(parse_interpretation(text), dim)
        printed = parse_interpretation(red.spec.dump())
        for part, component in zip(red.parts, printed.components):
            assert component.name == part.name
            if not isinstance(part.selector, Run):
                continue
            export = component.universe
            for v in part.rep.domain_vars:
                assert isinstance(export, ExistsFO) and export.var == v, part.name
                export = export.body
            sig, tracks = printed.signature, part.selector.vars
            assert dfa_equivalent(one_track_each(export, sig, tracks),
                                  one_track_each(part.selector, sig, tracks)), part.name
            checked += 1
    assert checked == 5


def test_reduce_builds_each_map_once(monkeypatch):
    # one count over one build of the map gives both the exact bound and
    # the selectors, with the bound and provenance the map has on its own
    spec = parse_interpretation(GUARD_SPLIT)
    builds = []
    real = Query.map_automaton

    def map_automaton(query, *args):
        builds.append(args)
        return real(query, *args)

    monkeypatch.setattr(Query, "map_automaton", map_automaton)
    red = reduce_interpretation(spec, 1)
    assert len(builds) == 1
    c = spec.components[0]
    want = minimal_reparameterization(c.universe, spec.signature, c.variables)
    assert (want.bound, want.provenance.kind) == (3, "refine")
    assert all((p.rep.bound, p.rep.provenance) == (want.bound, want.provenance)
               for p in red.parts)


def test_random_sweep_reduces_every_spec(monkeypatch):
    # random specs over a guard-split component and a one-variable one:
    # every reduction passes the two-route check, the sweep builds at least
    # 10 guard automata, and it lowers a three-variable component and
    # relates copies of two components
    guards = []
    real = reparam._type_tuple_dfa

    def spy(algebra, i, query):
        guards.append(i)
        return real(algebra, i, query)

    monkeypatch.setattr(reparam, "_type_tuple_dfa", spy)
    lowered, spanning = 0, 0
    for spec in interp_batch(20260814, 40):
        red = reduce_interpretation(spec, max(c.dim for c in spec.components))
        assert check_equivalence(spec, red, 3), spec.dump()
        lowered += any(len(p.rep.domain_vars) == 3 > p.rep.dimension for p in red.parts)
        spanning += any(len({red.part(q).source for q in r.components}) == 2
                        for r in red.spec.rules)
    assert len(guards) >= 10
    assert lowered and spanning


def test_reduce_names_the_stage_that_runs_out(sig1):
    # the automaton of the map of two labelled positions and a first one
    # needs 9 states, its preimage count 11: below 9 states the build runs
    # out, below 11 the count, so on its own the map keeps its certificate,
    # and a reduction, which cannot, names the stage
    spec = parse_interpretation(f"signature P1\ncomponent c dim=3\nuniverse {FIRST_PAIR_TEXT}\n")
    c = spec.components[0]
    rep = minimal_reparameterization(c.universe, sig1, c.variables, budget_states=8)
    assert (rep.bound, rep.provenance.kind) == (153, "unrefined")
    assert rep.provenance.detail == \
        "bound 153 kept: map automaton: state budget exceeded (9 > 8)"
    with pytest.raises(ResourceLimitError, match=r"^map automaton: state budget exceeded \(9 > 8\)"):
        reduce_interpretation(spec, 2, budget_states=8)
    for budget in (9, 10):
        with pytest.raises(ResourceLimitError, match="^preimage ranks: state budget"):
            reduce_interpretation(spec, 2, budget_states=budget)
    assert reduce_interpretation(spec, 2, budget_states=11).parts[0].rep.bound == 3


def test_reduce_refuses_insufficient_dim():
    spec = parse_interpretation(
        "signature P1\ncomponent pairs dim=2\nuniverse x < y\n")
    with pytest.raises(InputError) as e:
        reduce_interpretation(spec, 1)
    assert "pairs" in str(e.value) and "2" in str(e.value)


def test_reduce_unsat_component_vanishes(sig1):
    spec = parse_interpretation(UNSAT)
    red = reduce_interpretation(spec, 0)
    assert red.spec.components == ()
    assert check_equivalence(spec, red, 3)


def test_fibers_and_bijection_on_one_word(sig1):
    # the public per-word bookkeeping that check_equivalence replays
    spec = parse_interpretation(ENDS)
    red = reduce_interpretation(spec, 0)
    word = Word(sig1, (0, 1, 0))
    fibers = {"ends": red.fibers("ends", word)}
    assert fibers == {"ends": {(): [(0,), (2,)]}}
    structure = apply_interpretation(red.spec, word)
    assert red.bijection(structure, fibers) == {("ends.1", ()): ("ends", (0,)),
                                                ("ends.2", ()): ("ends", (2,))}
    assert red.part("ends.2").index == 2
    with pytest.raises(InputError, match="unknown reduced component 'ends.3'"):
        red.part("ends.3")
    with pytest.raises(InputError, match="no copies of component 'other'"):
        red.fibers("other", word)


def _first_preimage_twice(red):
    # both copies select the first preimage
    ends1 = red.spec.component("ends.1")
    components = tuple(dataclasses.replace(c, universe=ends1.universe)
                       if c.name == "ends.2" else c for c in red.spec.components)
    return dataclasses.replace(red, spec=dataclasses.replace(
        red.spec, components=components))


def _bound_one(red):
    return dataclasses.replace(red, parts=tuple(
        dataclasses.replace(p, rep=dataclasses.replace(p.rep, bound=1))
        for p in red.parts))


def _index_three(red):
    return dataclasses.replace(red, parts=tuple(
        dataclasses.replace(p, index=3) if p.name == "ends.2" else p
        for p in red.parts))


def _component_dropped(red):
    return dataclasses.replace(red, spec=dataclasses.replace(
        red.spec,
        components=tuple(c for c in red.spec.components if c.name != "ends.2"),
        rules=tuple(r for r in red.spec.rules if "ends.2" not in r.components)))


def _rule_dropped(red):
    return dataclasses.replace(red, spec=dataclasses.replace(
        red.spec, rules=tuple(r for r in red.spec.rules
                              if r.components != ("ends.1", "ends.2"))))


def _index_one(red):
    # both copies claim the first preimage
    return dataclasses.replace(red, parts=tuple(
        dataclasses.replace(p, index=1) if p.name == "ends.2" else p
        for p in red.parts))


def _ends1_twice(red):
    # the reduced spec lists ends.1 twice, so it has an element more
    ends1 = red.spec.component("ends.1")
    return dataclasses.replace(red, spec=dataclasses.replace(
        red.spec, components=red.spec.components + (ends1,)))


@pytest.mark.parametrize("corrupt, failure", [
    pytest.param(_first_preimage_twice, "expects preimage 2, fiber has 1",
                 id="first-preimage-twice"),
    pytest.param(_bound_one, "fiber of 2, bound 1", id="bound-1"),
    pytest.param(_index_three, "expects preimage 3, fiber has 2", id="index-3"),
    pytest.param(_component_dropped, "bijection misses source elements",
                 id="component-dropped"),
    pytest.param(_rule_dropped, "relation 'L' differs", id="rule-dropped"),
    pytest.param(_index_one, "bijection is not injective", id="index-1"),
    pytest.param(_ends1_twice, "unmapped reduced elements", id="ends.1-twice"),
])
def test_equivalence_detects_corruption(corrupt, failure):
    spec = parse_interpretation(ENDS)
    red = reduce_interpretation(spec, 0)
    report = check_equivalence(spec, corrupt(red), 3)
    assert not report
    assert failure in report.failure


def _parts_dropped(red):
    return dataclasses.replace(red, parts=tuple(
        p for p in red.parts if p.name != "ends.2"))


CHECK_REPORTS = {
    'successor pairs': [(True, 7, 1, None), (True, 15, 1, None), (True, 31, 1, None), (True, 63, 1, None)],
    'labelled elements with marker': [(True, 21, 1, None), (True, 85, 1, None), (True, 341, 1, None), (True, 1365, 1, None)],
    'word endpoints': [(True, 7, 2, None), (True, 15, 2, None), (True, 31, 2, None), (True, 63, 2, None)],
    'guard split': [(True, 7, 1, None), (True, 15, 2, None), (True, 31, 3, None), (True, 63, 3, None)],
    'unsat component': [(True, 7, 0, None), (True, 15, 0, None), (True, 31, 0, None), (True, 63, 0, None)],
    'two orders': [(False, 3, 1, "word [P1]: relation 'R' differs (missing [], extra [(('a', (0,)), ('a', (0,)))])")] * 4,
    '_first_preimage_twice': [(False, 2, 0, 'word [.]: element ends.2() expects preimage 2, fiber has 1')] * 4,
    '_bound_one': [(False, 4, 2, "word [., .]: component 'ends' has a fiber of 2, bound 1")] * 4,
    '_index_three': [(False, 4, 1, 'word [., .]: element ends.2() expects preimage 3, fiber has 2')] * 4,
    '_component_dropped': [(False, 4, 2, 'word [., .]: bijection misses source elements')] * 4,
    '_rule_dropped': [(False, 4, 2, "word [., .]: relation 'L' differs (missing [(('ends', (0,)), ('ends', (1,)))], extra [])")] * 4,
    '_parts_dropped': [(False, 4, 1, "word [., .]: unknown reduced component 'ends.2'")] * 4,
    '_index_one': [(False, 4, 2, 'word [., .]: bijection is not injective')] * 4,
    '_ends1_twice': [(False, 2, 1, 'word [.]: unmapped reduced elements')] * 4,
}


def _reports(spec, red):
    return [dataclasses.astuple(check_equivalence(spec, red, n)) for n in range(2, 6)]


def test_check_reports_are_pinned():
    # every field of every report at lengths 2-5, as materializing both
    # structures on each word gave them: the failure messages, which check
    # fails first, and the counts
    got = {}
    for name, dim, text in SPECS + (("guard split", 1, GUARD_SPLIT),
                                    ("unsat component", 0, UNSAT)):
        spec = parse_interpretation(text)
        got[name] = _reports(spec, reduce_interpretation(spec, dim))
    spec = parse_interpretation(TWO_ORDERS)
    equal = parse_interpretation(TWO_ORDERS.replace("x < y", "x = y").replace("y < x", "x = y"))
    got["two orders"] = _reports(spec, reduce_interpretation(equal, 1))
    ends = parse_interpretation(ENDS)
    red = reduce_interpretation(ends, 0)
    for corrupt in (_first_preimage_twice, _bound_one, _index_three,
                    _component_dropped, _rule_dropped, _parts_dropped,
                    _index_one, _ends1_twice):
        got[corrupt.__name__] = _reports(ends, corrupt(red))
    assert got == CHECK_REPORTS


LABELLED = """
signature P1
component a dim=1
universe x = x
relation R/1 on (a,) := P1(x)
"""


def test_a_failing_word_with_a_passing_words_list_lengths_is_reported():
    # the reduced spec's R holds at the last position when some position is
    # labelled: it agrees with P1(x) up to [., P1] and first differs on
    # [P1, .], whose answer lists have the lengths of [., P1]'s; a check
    # that remembered the lengths it had decided, not the lists, would
    # skip [P1, .]
    spec = parse_interpretation(LABELLED)
    moved = parse_interpretation(LABELLED.replace("P1(x)", "(ex z. P1(z)) & ~ex z. x < z"))
    assert _reports(spec, reduce_interpretation(moved, 1)) == [
        (False, 6, 1, "word [P1, .]: relation 'R' differs "
                      "(missing [(('a', (0,)),)], extra [(('a', (1,)),)])")] * 4


def test_equivalence_asks_each_question_once_per_word_projection(monkeypatch):
    # a formula object that the source, the reduced spec and a fiber share,
    # such as the flag universe that is its own map, is asked for once, and
    # words that agree on every label a question reads share its answer:
    # every word would take 155, 2,728 and 248 calls.  The endpoint
    # selectors' tables tell no label apart, so they are asked once per
    # length, not once per word
    calls = []
    real = oracle._answer

    def counted(prog, word, variables):
        calls.append((id(prog), word, variables))
        return real(prog, word, variables)

    monkeypatch.setattr(oracle, "_answer", counted)
    counts = {}
    for name, dim, text in SPECS:
        spec = parse_interpretation(text)
        red = reduce_interpretation(spec, dim)
        calls.clear()
        assert check_equivalence(spec, red, 4)
        counts[name] = (len(calls), len(set(calls)))
    assert counts == {"successor pairs": (25, 25),
                      "labelled elements with marker": (196, 196),
                      "word endpoints": (40, 40)}


def test_equivalence_structures_each_answer_list_once(monkeypatch):
    # a word whose answer list an earlier word had is never handed out and
    # would get that word's verdict: both structures are built once per
    # distinct list, yet every word counts
    yielded, built = [], []
    real_answered, real_structure = interp.answered_words, interp._structure

    def answered(*args):
        for walked, word, answers in real_answered(*args):
            yielded.append(tuple(map(tuple, answers)))
            yield walked, word, answers

    def structure(plan, answers):
        built.append((id(plan), tuple(map(tuple, answers))))
        return real_structure(plan, answers)

    monkeypatch.setattr(interp, "answered_words", answered)
    monkeypatch.setattr(interp, "_structure", structure)
    counts = {}
    for name, dim, text in SPECS:
        spec = parse_interpretation(text)
        red = reduce_interpretation(spec, dim)
        yielded.clear()
        built.clear()
        report = check_equivalence(spec, red, 4)
        assert report.ok
        assert report.words_checked == len(list(all_words(spec.signature, 4)))
        # each distinct list is handed out once, and the source's and the
        # reduced spec's structure are built once per list
        assert len(yielded) == len(set(yielded))
        assert len(built) == len(set(built)) == 2 * len(yielded)
        assert {key for _, key in built} == set(yielded)
        counts[name] = (report.words_checked, len(yielded))
    # the two label-free specs have one answer list per length
    assert counts == {"successor pairs": (31, 5),
                      "labelled elements with marker": (341, 60),
                      "word endpoints": (31, 5)}


@pytest.mark.parametrize("max_len", [-1, -3])
def test_checks_refuse_a_negative_length(max_len):
    # no word has a negative length, so such a check would pass on nothing
    spec = parse_interpretation(ENDS)
    red = reduce_interpretation(spec, 0)
    rep = red.parts[0].rep
    for check, args in ((check_equivalence, (spec, red)),
                        (check_reparameterization, (rep,)),
                        (check_canonical_form, (rep,))):
        with pytest.raises(InputError, match="^max_len must be nonnegative$"):
            check(*args, max_len)


def test_equivalence_spec_vs_itself():
    spec = parse_interpretation(TWO)
    red = reduce_interpretation(spec, 1)
    # reduction of an already-small spec relabels components (q, 1)
    assert all(p.index == 1 for p in red.parts)
    assert check_equivalence(spec, red, 3)


def test_equivalence_signature_mismatch():
    spec = parse_interpretation(SUCC)
    other = parse_interpretation(
        "signature P1\ncomponent pairs dim=2\n"
        "universe x < y & ~ex z. (x < z & z < y)\n"
        "relation F/2 on (pairs, pairs) := x = x & y = u & v = v\n")
    red = reduce_interpretation(other, 1)
    with pytest.raises(InputError, match="^interpretations have different output signatures$"):
        check_equivalence(spec, red, 2)
    # a reduced spec over other input predicates fails before any word
    wider = parse_interpretation(SUCC.replace("signature P1", "signature P1 P2"))
    with pytest.raises(InputError, match="^word and spec use different signatures$"):
        check_equivalence(spec, reduce_interpretation(wider, 1), 2)


TWO_ORDERS = """
signature P1
component a dim=1
universe P1(x)
relation R/2 on (a, a) := x < y
relation S/2 on (a, a) := y < x
"""

_NAME_THE_FAILURE = """
from chainrep.interp import check_equivalence, parse_interpretation, reduce_interpretation
spec = parse_interpretation(TEXT)
equal = parse_interpretation(TEXT.replace("x < y", "x = y").replace("y < x", "x = y"))
print(check_equivalence(spec, reduce_interpretation(equal, 1), 3).failure)
"""


def test_equivalence_names_the_same_relation_under_every_hash_seed():
    # R and S both differ on the first word with two labelled positions;
    # the report names the first relation in sorted order, not in set order
    src = Path(__file__).resolve().parents[1] / "src"
    messages = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", f"TEXT = {TWO_ORDERS!r}\n{_NAME_THE_FAILURE}"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        messages.add(done.stdout.strip())
    assert len(messages) == 1
    assert "relation 'R' differs" in messages.pop()
