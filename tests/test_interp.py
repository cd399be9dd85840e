import dataclasses
import hashlib

import pytest

from chainrep.compiler import Query
from chainrep.errors import ChainrepError, InputError, ResourceLimitError
from chainrep.formula import Signature
from chainrep.interp import (apply_interpretation, check_equivalence,
                             parse_interpretation, reduce_interpretation)
from chainrep.reparam import minimal_reparameterization
from chainrep.words import Word
from conftest import FIRST_PAIR_TEXT, GROUP_TEXT
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
    spec = parse_interpretation(
        "signature P1\ncomponent a dim=1\nuniverse x < x\n"
        "relation E/2 on (a, a) := x < y\n")
    red = reduce_interpretation(spec, 0)
    assert red.spec.components == ()
    assert check_equivalence(spec, red, 3)


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


@pytest.mark.parametrize("corrupt, failure", [
    pytest.param(_first_preimage_twice, "expects preimage 2, fiber has 1",
                 id="first-preimage-twice"),
    pytest.param(_bound_one, "fiber of 2, bound 1", id="bound-1"),
    pytest.param(_index_three, "expects preimage 3, fiber has 2", id="index-3"),
    pytest.param(_component_dropped, "bijection misses source elements",
                 id="component-dropped"),
    pytest.param(_rule_dropped, "relation 'L' differs", id="rule-dropped"),
])
def test_equivalence_detects_corruption(corrupt, failure):
    spec = parse_interpretation(ENDS)
    red = reduce_interpretation(spec, 0)
    report = check_equivalence(spec, corrupt(red), 3)
    assert not report
    assert failure in report.failure


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
    with pytest.raises(InputError):
        check_equivalence(spec, red, 2)
