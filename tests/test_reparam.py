import dataclasses
import functools
import hashlib
import itertools
import sys
import time

import pytest

from chainrep import compiler, formula, reparam
from chainrep.cli import main
from chainrep.compiler import DEFAULT_STATE_BUDGET, Query, max_fiber
from chainrep.errors import InputError, ResourceLimitError
from chainrep.formula import FALSE, Equal, ExistsFO, Signature, conjuncts, parse, render
from chainrep.growth import growth_lower_witness
from chainrep.interp import check_equivalence, parse_interpretation, reduce_interpretation
from chainrep.monoid import is_pumpable
from chainrep.oracle import (check_canonical_form, check_reparameterization,
                             evaluate, satisfying_tuples)
from chainrep.reparam import (ERRATUM_NOTES, TypeAlgebra, _refine_bound,
                              combine_disjuncts, eliminate_variable,
                              local_normal_form, minimal_reparameterization)
from chainrep.randgen import formula_batch
from chainrep.words import MarkedWord, Word, all_words
from conftest import (BATTERY, FIRST_PAIR_TEXT, GROUP_TEXT, battery, endpoints_text,
                      guard_batch)

# satisfiable only at the two ends of a word: dimension 0 with two fibers
ENDS_TEXT = "(~ex z. z < x) | (~ex z. x < z)"


def test_dimension_battery():
    for name, sig, f, variables, want in battery():
        rep = minimal_reparameterization(f, sig, variables)
        assert rep.dimension == want, name
        assert len(rep.domain_vars) == len(variables)


def test_unsat_rep(sig1):
    rep = minimal_reparameterization(parse("x < x", sig1), sig1, ("x",))
    assert rep.dimension == 0 and rep.bound == 0
    assert rep.g == FALSE


def test_battery_contract_small():
    for name, sig, f, variables, _ in battery():
        rep = minimal_reparameterization(f, sig, variables)
        assert check_reparameterization(rep, 4), name
        assert check_canonical_form(rep, 4), name


def test_refined_bound_is_exact(sig1):
    rep = minimal_reparameterization(parse(ENDS_TEXT, sig1), sig1, ("x",))
    assert rep.dimension == 0
    assert rep.bound == 2
    report = check_reparameterization(rep, 5)
    assert report and report.max_fiber == 2


def test_group_split(sig1):
    f = parse(GROUP_TEXT, sig1)
    rep = minimal_reparameterization(f, sig1, ("x", "y"))
    assert rep.dimension == 1
    assert check_reparameterization(rep, 5)
    assert check_canonical_form(rep, 5)
    # guards are automaton leaves, rendered as their MSO export; the map
    # states the source once, then the union of the disjoint guarded
    # selectors
    text = render(rep.g)
    assert text.startswith(render(f) + " & ")
    assert len(text) == 4_845
    assert hashlib.sha1(text.encode()).hexdigest() == \
        "f97bd5d3df8269d331e93b9568cd48c15f45c176"


def test_guarded_and_set_maps_refine(sig1):
    # automaton leaves and set quantifiers compile natively, so the fiber
    # count reaches maps with either
    for text, variables, want in ((GROUP_TEXT, ("x", "y"), 3),
                                  ("EX X. (" + ENDS_TEXT + ")", ("x",), 2)):
        rep = minimal_reparameterization(parse(text, sig1), sig1, variables)
        assert (rep.bound, rep.provenance.kind) == (want, "refine"), text
        report = check_reparameterization(rep, 5)
        assert report and report.max_fiber == want, text


def test_refinement_counts_up_to_the_certificate(sig1):
    # the endpoint triple's certificate is 13,940, summed over its order
    # cases; the exact count is 8
    f = parse(endpoints_text("xyz"), sig1)
    rep = minimal_reparameterization(f, sig1, ("x", "y", "z"))
    assert (rep.dimension, rep.bound) == (0, 8)
    assert rep.provenance.kind == "refine"
    assert rep.provenance.children[0].kind == "combine"
    # the source, then the union of the order cases' disjoint selectors,
    # which at dimension 0 are their constraints
    text = render(rep.g)
    assert text == render(f) + " & (y = x & z = x | y = x & x < z | z = x & x < y | " \
        "z = y & x < y | z = y & y < x | z = x & y < x | y = x & z < x)"
    assert len(text) == 219
    assert hashlib.sha1(text.encode()).hexdigest() == \
        "6d091b13da7f2853d8786aef75e7906754354a1a"
    assert check_reparameterization(rep, 3)
    assert check_canonical_form(rep, 3)


def test_max_fiber_is_sound():
    # the count never undercuts a fiber the oracle sees and never passes
    # the certificate; only the bound may move
    maps = [(sig, f, variables) for _, sig, f, variables, _ in battery()]
    maps += [(sig, f, fo) for sig, fo, f in formula_batch(606, 40)]
    for sig, f, variables in maps:
        rep = minimal_reparameterization(f, sig, variables, refine=False)
        if not rep.domain_vars:
            continue
        report = check_reparameterization(rep, 4)
        assert report, render(f)
        most = max_fiber(rep.g, sig, rep.domain_vars, rep.image_vars,
                         rep.bound + 1)
        assert report.max_fiber <= most <= rep.bound, render(f)


def test_skipped_refinement_is_recorded(sig1):
    # a starved count keeps the endpoint triple's certificate and says why:
    # the map's first automaton, of the source's first atom, has 4 states
    f = parse(endpoints_text("xyz"), sig1)
    raw = minimal_reparameterization(f, sig1, ("x", "y", "z"), refine=False)
    assert (raw.dimension, raw.bound) == (0, 13_940)
    skipped = _refine_bound(raw, Query(sig1, 2))
    assert skipped.bound == 13_940
    assert skipped.provenance.kind == "unrefined"
    assert skipped.provenance.detail == \
        "bound 13940 kept: map automaton: state budget exceeded (4 > 2)"
    assert skipped.provenance.children == (raw.provenance,)


def test_the_source_is_built_once(sig1, monkeypatch):
    # one build of f serves its order cases, every image that the search
    # compiles and the map that refinement counts: each of those builds
    # meets the source object and reads the automaton kept for it.  The
    # reduction and the growth witness build their maps in the Query of
    # their search, and an atleast is one projection of its body, so the
    # compiler replaces no object: f and each of its conjuncts are built
    # once in every call
    texts = {name: text for name, _, text, _, _ in BATTERY}
    subjects = ((GROUP_TEXT, "xy"), (FIRST_PAIR_TEXT, "xyv"),
                (texts["pinned pair"], "xy"), (texts["adjacent labelled pair"], "xy"),
                (endpoints_text("xyzw"), "xyzw"),
                ("P1(x)&P1(y)&(~ex q. q < v)&(atleast 2 q. P1(q))", "xyv"))
    builds = []
    real = compiler._Builder.build

    def build(self, g):
        builds.append((self.stage, g))
        return real(self, g)

    monkeypatch.setattr(compiler._Builder, "build", build)
    spec = parse_interpretation(f"signature P1\ncomponent g dim=2\nuniverse {GROUP_TEXT}\n")
    calls = [(spec.components[0].universe, lambda: reduce_interpretation(spec, 1))]
    for text, xs in subjects:
        f = parse(text, sig1)
        calls.append((f, functools.partial(minimal_reparameterization, f, sig1, tuple(xs))))
        calls.append((f, functools.partial(growth_lower_witness, f, sig1, tuple(xs), 3)))
    stages = set()
    for f, call in calls:
        builds.clear()
        call()
        assert [[stage for stage, g in builds if g is c] for c in [f] + conjuncts(f)] == \
            [["compile"]] * (1 + len(conjuncts(f))), (render(f), call)
        stages |= {stage for stage, _ in builds}
    # refinement built maps around the source (the pinned pair's map is the
    # source itself, so its build reads the kept automaton whole)
    assert "map automaton" in stages


def public_calls(budget_states=DEFAULT_STATE_BUDGET):
    """(subject, call) pairs: minimal_reparameterization, growth_lower_witness
    and reduce_interpretation on the battery, the guard split and the first
    pair, under budget_states."""
    sig1 = Signature(("P1",))
    subjects = [(name, sig, f, xs) for name, sig, f, xs, _ in battery()]
    subjects += [("guard split", sig1, parse(GROUP_TEXT, sig1), ("x", "y")),
                 ("first pair", sig1, parse(FIRST_PAIR_TEXT, sig1), ("x", "y", "v"))]
    for name, sig, f, xs in subjects:
        yield name, functools.partial(minimal_reparameterization, f, sig, xs,
                                      budget_states=budget_states)
        if name != "unsatisfiable":
            yield name, functools.partial(growth_lower_witness, f, sig, xs, 3,
                                          budget_states=budget_states)
        spec = parse_interpretation(f"signature {' '.join(sig.preds)}\n"
                                    f"component c dim={len(xs)}\nuniverse {render(f)}\n")
        yield name, functools.partial(reduce_interpretation, spec, len(xs),
                                      budget_states=budget_states)


def test_every_algebra_is_published_by_compile(monkeypatch):
    # one publish path: each type algebra that a public call builds, of an
    # order case or of an image, gets its automaton from exactly one
    # compile, given the one Query of that call
    queries, compiles, algebras = [], [], []
    real_init, real_compile = Query.__init__, reparam.compile_dfa
    real_build = TypeAlgebra.build.__func__

    def init(self, *args):
        queries.append(self)
        real_init(self, *args)

    def compile_dfa(f, *args, query=None, **kwargs):
        compiles.append(query)
        return real_compile(f, *args, query=query, **kwargs)

    def build(cls, formula, variables, query):
        start = len(compiles)
        algebra = real_build(cls, formula, variables, query)
        algebras.append((query, compiles[start:]))
        return algebra

    monkeypatch.setattr(Query, "__init__", init)
    monkeypatch.setattr(reparam, "compile_dfa", compile_dfa)
    monkeypatch.setattr(TypeAlgebra, "build", classmethod(build))
    built = 0
    for name, call in public_calls():
        queries.clear()
        algebras.clear()
        call()
        assert len(queries) == 1, name
        assert all(q is queries[0] and c == [q] for q, c in algebras), name
        built += len(algebras)
    assert built > 0


def test_search_monoids_run_under_the_callers_budget(monkeypatch):
    # every monoid of the search, the witness and the reduction is explored
    # under the budget that their caller passed
    budgets = []
    real = reparam.transition_monoid

    def transition_monoid(dfa, budget=DEFAULT_STATE_BUDGET):
        budgets.append(budget)
        return real(dfa, budget)

    monkeypatch.setattr(reparam, "transition_monoid", transition_monoid)
    for name, call in public_calls(budget_states=54_321):
        call()
    assert budgets and set(budgets) == {54_321}


# P1^3 F L: three labelled positions, the first and the last position
P3FL = ("P1(x)&P1(y)&P1(z)&(~ex q. q < v)&(~ex q. u < q)", "xyzvu")


def test_images_are_the_compiled_text(sig1, monkeypatch):
    # the search builds each image ex x. source from the automaton kept
    # for its source; its published automaton is the one that compiling the
    # text afresh gives
    images = []
    real = TypeAlgebra.build.__func__

    def build(cls, formula, variables, query):
        algebra = real(cls, formula, variables, query)
        if isinstance(formula, ExistsFO):
            images.append((formula, query.sig, variables, algebra.dfa))
        return algebra

    monkeypatch.setattr(TypeAlgebra, "build", classmethod(build))
    subjects = [(sig, f, xs) for _, sig, f, xs, _ in battery()]
    subjects += [(sig1, parse(text, sig1), tuple(xs))
                 for text, xs in ((GROUP_TEXT, "xy"), (endpoints_text("xyzw"), "xyzw"), P3FL)]
    for sig, f, xs in subjects:
        minimal_reparameterization(f, sig, xs, refine=False)
    monkeypatch.undo()
    assert len(images) > 20
    for psi, sig, us, dfa in images:
        assert dfa == compiler.compile(psi, sig, us), render(psi)


def test_the_search_compiles_no_text(sig1, monkeypatch):
    # no image equality is compiled, and no product reads more letters than
    # the widest automaton of P1^3 F L's search: one label, five tracks
    equalities, letters = [], []
    real_build, real_product = compiler._Builder.build, compiler._Builder.product

    def build(self, g):
        if isinstance(g, Equal):
            equalities.append(g)
        return real_build(self, g)

    def product(self, a, b, op):
        letters.append(a.n_letters)
        return real_product(self, a, b, op)

    monkeypatch.setattr(compiler._Builder, "build", build)
    monkeypatch.setattr(compiler._Builder, "product", product)
    texts = {name: text for name, _, text, _, _ in BATTERY}
    for text, xs in (P3FL, (GROUP_TEXT, "xy"), (texts["adjacent labelled pair"], "xy")):
        equalities.clear()
        letters.clear()
        rep = minimal_reparameterization(parse(text, sig1), sig1, tuple(xs), refine=False)
        assert rep.dimension < len(xs), text
        assert equalities == [], text
        if text == P3FL[0]:
            assert max(letters) == 2 ** (1 + 5)


def test_classes_are_derived_for_the_kept_case(sig1, monkeypatch):
    # the labelled quadruple realizes 75 order cases, and only its first
    # strict case is reduced: that one's classes are derived once, and its
    # formula and its automaton both read them, and no other case's are
    calls = []
    real = formula.rank_classes

    def rank_classes(variables, ranks):
        calls.append(ranks)
        return real(variables, ranks)

    monkeypatch.setattr(formula, "rank_classes", rank_classes)
    rep = minimal_reparameterization(parse("P1(x)&P1(y)&P1(z)&P1(w)", sig1), sig1,
                                     tuple("xyzw"))
    assert rep.provenance.kind == "identity"
    assert calls == [(0, 1, 2, 3)]


def test_nothing_outlives_a_call(sig1):
    # the automata that a call keeps go with it: an identical call, and a
    # starved one after a full run of the same formula object, redo every
    # build, so they answer as a first call would
    f = parse(endpoints_text("xyz"), sig1)
    raw = minimal_reparameterization(f, sig1, ("x", "y", "z"), refine=False)
    skipped = _refine_bound(raw, Query(sig1, 2)).provenance.detail
    with pytest.raises(ResourceLimitError) as starved:
        minimal_reparameterization(f, sig1, ("x", "y", "z"), budget_states=16)
    first = minimal_reparameterization(f, sig1, ("x", "y", "z"))
    second = minimal_reparameterization(f, sig1, ("x", "y", "z"))
    assert first.provenance == second.provenance
    assert first.provenance.dump() == second.provenance.dump()
    assert _refine_bound(raw, Query(sig1, 2)).provenance.detail == skipped == \
        "bound 13940 kept: map automaton: state budget exceeded (4 > 2)"
    with pytest.raises(ResourceLimitError) as again:
        minimal_reparameterization(f, sig1, ("x", "y", "z"), budget_states=16)
    assert str(again.value) == str(starved.value) == \
        "compile: state budget exceeded (17 > 16)"


def test_each_guard_automaton_is_built_once(sig1, monkeypatch):
    # the Query keeps a Run leaf's automaton: the guard split's two guards
    # are built for the eliminated step's source, and read again in the
    # map's h
    stages = []
    real = compiler._Builder.run_leaf

    def run_leaf(self, dfa, variables):
        stages.append(self.stage)
        return real(self, dfa, variables)

    monkeypatch.setattr(compiler._Builder, "run_leaf", run_leaf)
    rep = minimal_reparameterization(parse(GROUP_TEXT, sig1), sig1, ("x", "y"))
    assert (rep.dimension, rep.bound) == (1, 3)
    assert stages == ["compile", "compile"]


# the most states that a default run's map build explores: the source's
# automaton comes from the run's one build, and dead pairs are one state
MAP_PEAKS = (
    ("guard split", GROUP_TEXT, "xy", 17),
    ("first pair", FIRST_PAIR_TEXT, "xyv", 9),
    ("E^4", endpoints_text("xyzw"), "xyzw", 19),
    ("P1^3 F L", "P1(x)&P1(y)&P1(z)&(~ex q. q < v)&(~ex q. u < q)", "xyzvu", 29),
)


def test_map_automaton_peaks_are_pinned(sig1, monkeypatch):
    peak = {}
    real = compiler._Builder.explore

    def explore(self, *args):
        order, delta = real(self, *args)
        peak[self.stage] = max(peak.get(self.stage, 0), len(order))
        return order, delta

    monkeypatch.setattr(compiler._Builder, "explore", explore)
    got = []
    for name, text, xs, _ in MAP_PEAKS:
        peak.clear()
        minimal_reparameterization(parse(text, sig1), sig1, tuple(xs))
        got.append((name, text, xs, peak["map automaton"]))
    assert tuple(got) == MAP_PEAKS


def test_full_width_is_the_identity(sig1, monkeypatch):
    # a rigid strict order case keeps every coordinate: the map reads the
    # domain tuple in that case's ascending order, with bound 1.  The strict
    # realizable cases are tested for rigidity first, so the rigid one is
    # the only case reduced: the labelled tuples realize every weak
    # ordering, yet none of the 15 cases of 75 at k = 4, or the 64 of 541
    # at k = 5, that come before their first strict one is reduced
    visited = []
    real = reparam._case_rep

    def case_rep(*args):
        visited.append(args)
        return real(*args)

    monkeypatch.setattr(reparam, "_case_rep", case_rep)
    subjects = (("P1(x)&P1(y)&P1(z)&P1(w)", "xyzw"),
                ("P1(x)&P1(y)&P1(z)&P1(w)&P1(v)", "xyzwv"),
                ("x<y & y<z & z<w & w<v", "xyzwv"),
                ("P1(x) & y < x", "xy"))
    for text, variables in subjects:
        f = parse(text, sig1)
        visited.clear()
        t0 = time.perf_counter()
        rep = minimal_reparameterization(f, sig1, tuple(variables))
        elapsed = time.perf_counter() - t0
        assert (rep.dimension, rep.bound) == (len(variables), 1), text
        assert rep.provenance.kind == "identity", text
        assert rep.provenance.children[0].kind == "case", text
        assert len(visited) == 1, text
        # and no name is drawn before it
        assert rep.image_vars == tuple(f"y{j}" for j in range(len(variables))), text
        assert elapsed < 5, text
        # the chain has no satisfying tuple below length 5
        assert check_reparameterization(rep, 3), text
        assert check_canonical_form(rep, 3), text
    assert render(rep.g) == "P1(x) & y < x & y0 = y & y1 = x"
    # the image is ascending, as the image algebra needs
    witness = growth_lower_witness(f, sig1, ("x", "y"), 3)
    assert witness.oracle_count() >= 3 ** 2
    quad = parse_interpretation("signature P1\ncomponent quad dim=4\n"
                                "universe P1(x)&P1(y)&P1(z)&P1(w)\n")
    red = reduce_interpretation(quad, 4)
    assert [(p.name, p.rep.bound) for p in red.parts] == [("quad.1", 1)]
    assert check_equivalence(quad, red, 3)


@pytest.mark.parametrize("refine", [True, False])
def test_every_strict_case_is_tested_for_rigidity(sig1, refine):
    # x < y holds with x first, so that case has width 1; the rigid case is
    # the second strict one, y < x
    f = parse("(x < y & ~ex z. z < x) | y < x", sig1)
    rep = minimal_reparameterization(f, sig1, ("x", "y"), refine=refine)
    assert (rep.dimension, rep.bound, rep.provenance.kind) == (2, 1, "identity")
    case = rep.provenance.children[0]
    assert (case.kind, case.detail) == ("case", "y<x")
    assert render(rep.h) == "y0 = y & y1 = x"


@functools.cache
def below_full_width():
    """The maps below full width over formula_batch seeds 1-3."""
    reps = []
    for seed, count, rank in ((1, 225, 2), (2, 225, 2), (3, 120, 3)):
        for sig, fo, f in formula_batch(seed, count, rank=rank):
            rep = minimal_reparameterization(f, sig, fo, refine=False)
            if rep.dimension < len(fo):
                reps.append(rep)
    return reps


# the count, total length and SHA-1 of the texts of the maps below full width
BELOW_FULL_WIDTH = (110, 1_336, "63a4dd27c20c5c2ba89273c4dd30558423372de0")


def test_maps_below_full_width_are_pinned():
    texts = [render(rep.g) for rep in below_full_width()]
    blob = "\n".join(texts)
    assert (len(texts), len(blob), hashlib.sha1(blob.encode()).hexdigest()) == \
        BELOW_FULL_WIDTH


def test_maps_state_their_source_once():
    # a map is `source & h`, and h holds no copy of the source; the empty
    # map is false
    for rep in below_full_width():
        text = render(rep.g)
        if rep.bound == 0:
            assert rep.g == FALSE, text
        else:
            assert text.count(render(rep.source)) == 1, text


def test_maps_below_full_width_keep_the_contract():
    for rep in below_full_width():
        assert check_reparameterization(rep, 3), render(rep.g)
        assert check_canonical_form(rep, 3), render(rep.g)


def test_refine_gives_up_at_cap_and_budget(sig1):
    # the refine cap is gone: only the state budget can stop a refinement,
    # and a count past any small cap goes through
    raw = minimal_reparameterization(parse(ENDS_TEXT, sig1), sig1, ("x",),
                                     refine=False)
    assert raw.bound > 2
    starved = _refine_bound(raw, Query(sig1, 2))
    assert starved.bound == raw.bound
    assert starved.provenance.kind == "unrefined"
    # the map's own automaton is what runs out, and the detail says so
    assert starved.provenance.detail.startswith(
        f"bound {raw.bound} kept: map automaton: state budget exceeded")
    exact = _refine_bound(raw, Query(sig1, 10**6))
    assert (exact.bound, exact.provenance.kind) == (2, "refine")


def test_free_vars_must_be_marked(sig1):
    with pytest.raises(InputError, match=r"^free variables \['y'\] are not marked$"):
        minimal_reparameterization(parse("x < y", sig1), sig1, ("x",))


def test_marked_vars_default_to_the_free_variables(sig1):
    # left out, the marked variables are the free ones in first-occurrence order
    for text, xs in (("y < x", "yx"), (GROUP_TEXT, "xy"), (endpoints_text("zxy"), "zxy")):
        f = parse(text, sig1)
        implicit = minimal_reparameterization(f, sig1)
        explicit = minimal_reparameterization(f, sig1, tuple(xs))
        assert implicit.domain_vars == explicit.domain_vars == tuple(xs)
        assert (implicit.dimension, implicit.bound, render(implicit.g)) == \
            (explicit.dimension, explicit.bound, render(explicit.g)), text


def test_an_algebra_is_over_its_querys_signature(sig1, sig2):
    # the formula mentions P1 only; the algebra reads words over the query's
    # signature
    algebra = TypeAlgebra.build(parse("P1(x)", sig1), ("x",), Query(sig2, DEFAULT_STATE_BUDGET))
    assert algebra.sig == algebra.dfa.sig == sig2
    for w in all_words(sig2, 3):
        for p in range(len(w)):
            taus = algebra.segment_types(MarkedWord(w, (p,)))
            assert algebra.accepts_chain(taus) == bool(w.letters[p] & 1), str(w)


def test_segment_types_shape(sig1):
    f = parse("x < y", sig1)
    algebra = TypeAlgebra.build(f, ("x", "y"), Query(sig1, DEFAULT_STATE_BUDGET))
    for w in all_words(sig1, 4):
        for marks in itertools.combinations(range(len(w)), 2):
            taus = algebra.segment_types(MarkedWord(w, marks))
            assert len(taus) == 3


@pytest.mark.parametrize("ask, message", [
    (lambda a, sig: a.segment_types(MarkedWord(Word(sig, (0, 1)), (1,))),
     "expected 2 marks, got 1"),
    (lambda a, sig: a.accepts_chain((0, 0)), "expected 3 types, got 2"),
])
def test_algebra_refuses_the_wrong_arity(sig1, ask, message):
    algebra = TypeAlgebra.build(parse("x < y", sig1), ("x", "y"),
                                Query(sig1, DEFAULT_STATE_BUDGET))
    with pytest.raises(InputError) as refused:
        ask(algebra, sig1)
    assert str(refused.value) == message


def test_accepts_chain_matches_oracle():
    for name, sig, f, variables, _ in battery():
        algebra = TypeAlgebra.build(f, variables, Query(sig, DEFAULT_STATE_BUDGET))
        for w in all_words(sig, 4):
            for marks in itertools.combinations(range(len(w)), len(variables)):
                mw = MarkedWord(w, marks)
                want = evaluate(f, w, fo=dict(zip(variables, marks)))
                got = algebra.accepts_chain(algebra.segment_types(mw))
                assert got == want, (name, str(mw))


def test_accepts_chain_sentence(sig1):
    f = parse("ex v. P1(v)", sig1)
    algebra = TypeAlgebra.build(f, (), Query(sig1, DEFAULT_STATE_BUDGET))
    for w in all_words(sig1, 4):
        got = algebra.accepts_chain(algebra.segment_types(MarkedWord(w, ())))
        assert got == evaluate(f, w)


def test_normal_form_covers_exactly(sig1):
    # every marking's type tuple appears in exactly the disjunct it realizes,
    # and a tuple is listed iff some marking realizes it (on small words)
    f = parse("P1(x) & ex v. x < v", sig1)
    algebra = TypeAlgebra.build(f, ("x",), Query(sig1, DEFAULT_STATE_BUDGET))
    listed = {types for types, _ in local_normal_form(algebra)}
    seen = set()
    for w in all_words(sig1, 5):
        for p in range(len(w)):
            mw = MarkedWord(w, (p,))
            taus = algebra.segment_types(mw)
            sat = evaluate(f, w, fo={"x": p})
            assert (taus in listed) == sat, str(mw)
            if sat:
                seen.add(taus)
    assert seen == listed


def test_eliminable_pairs_mark_indexing(sig1):
    # the pair decided for mark i meets at the mark: (tau_{i-1}, tau_i)
    f = parse(GROUP_TEXT, sig1)
    algebra = TypeAlgebra.build(f, ("x", "y"), Query(sig1, DEFAULT_STATE_BUDGET))
    m = algebra.monoid
    firsts = set()
    for types, es in local_normal_form(algebra):
        assert es == tuple(is_pumpable(m, types[i - 1], types[i]) for i in (1, 2))
        pairs = [i for i, e in enumerate(es, 1) if e is None]
        if pairs:
            firsts.add(pairs[0])
    # the two families disagree on the first eliminable mark
    assert firsts == {1, 2}


def test_pumping_is_asked_once_per_edge(sig1, monkeypatch, capsys):
    # the graph asks for each edge's idempotent once and keeps it; the
    # growth witness and the normalform report read it off the edges
    calls = []

    def spy(*args):
        calls.append(args)
        return is_pumpable(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("chainrep") and getattr(module, "is_pumpable", None) is is_pumpable:
            monkeypatch.setattr(module, "is_pumpable", spy)
    algebras = []
    build = TypeAlgebra.build.__func__

    def built(cls, *args, **kwargs):
        algebras.append(build(cls, *args, **kwargs))
        return algebras[-1]

    monkeypatch.setattr(TypeAlgebra, "build", classmethod(built))
    growth_lower_witness(parse(GROUP_TEXT, sig1), sig1, ("x", "y"), 2)
    assert main(["normalform", "--sig", "P1", "--formula", GROUP_TEXT, "--format", "json"]) == 0
    capsys.readouterr()
    edges = sum(len(out) for a in algebras if "graph" in vars(a)
                for layer in a.graph for out in layer.values())
    assert edges and len(calls) == edges


# GROUP_TEXT conjoined with P1 on more variables, and its dimension and
# exact bound
GROUPED = ((GROUP_TEXT, "xy", 1, 3), (GROUP_TEXT + " & P1(z)", "xyz", 2, 6),
           (GROUP_TEXT + " & P1(z) & P1(w)", "xyzw", 3, 24))


def test_the_search_lists_no_families(sig1, monkeypatch):
    # the search reads the type algebra's graph; the listing views are for
    # callers that print or test the families
    def listed(*args):
        raise AssertionError("the search listed the families")

    monkeypatch.setattr(reparam, "local_normal_form", listed)
    for text, xs, dim, bound in GROUPED:
        rep = minimal_reparameterization(parse(text, sig1), sig1, tuple(xs))
        assert (rep.dimension, rep.bound) == (dim, bound), text
    for name, sig, f, variables, want in battery():
        assert minimal_reparameterization(f, sig, variables).dimension == want, name


def _family_list_guard(algebra, families, query):
    """The guard of these families, each a tuple of segment types, as the
    family list built it: the automaton tracks the set of families
    consistent with the segments closed so far."""
    m = algebra.monoid
    k = algebra.arity
    nl = 1 << (algebra.sig.k + 1)
    mark_bit = 1 << algebra.sig.k

    def successors(cur):
        seg, elem, alive = cur
        row = []
        for letter in range(nl):
            lab = letter & (mark_bit - 1)
            if not letter & mark_bit:
                row.append((seg, m.multiply(elem, m.letter_image[lab]), alive))
            elif seg == k:
                row.append(None)
            else:
                alive2 = frozenset(d for d in alive if families[d][seg] == elem)
                row.append((seg + 1, m.letter_image[lab], alive2) if alive2 else None)
        return row

    b = query.builder("guard")
    return b.publish(b.minimal(
        (0, m.identity, frozenset(range(len(families)))), successors,
        lambda st: st[0] == k and any(families[d][k] == st[1] for d in st[2]), nl), True)


def test_guards_are_the_family_list_guards(sig1, sig2, monkeypatch):
    # every guard the search builds, for the families of an algebra that
    # first fail to pump at mark i, is the family list's guard of the
    # families whose first eliminable mark is i; the graph counts each group
    built: dict[int, tuple] = {}
    guard = reparam._type_tuple_dfa

    def spy(algebra, i, query):
        dfa = guard(algebra, i, query)
        built.setdefault(id(algebra), (algebra, []))[1].append((i, dfa))
        return dfa

    monkeypatch.setattr(reparam, "_type_tuple_dfa", spy)
    subjects = [(sig1, parse(text, sig1), tuple(xs)) for text, xs, _, _ in GROUPED]
    subjects += [(sig2, parse(text, sig2), tuple(xs)) for text, xs in (
        ("((~ex z. z < x) | (~ex z. w < z)) & x < y & y < w", "xyw"),
        ("(P1(x) & ~ex z. z < x) | (P2(y) & ~ex z. y < z)", "xy"))]
    # the random formulas seldom split by guards, but each that does is checked
    subjects += [(sig, f, fo) for seed, count, rank in ((1, 225, 2), (2, 225, 2), (3, 120, 3))
                 for sig, fo, f in formula_batch(seed, count, rank=rank)]
    for sig, f, xs in subjects:
        minimal_reparameterization(f, sig, xs, refine=False)
    assert len(built) >= len(GROUPED) + 2
    for algebra, guards in built.values():
        # each family's first eliminable mark, asked of the monoid here,
        # not read off the edges under test
        groups: dict[int, list] = {}
        for types, _ in local_normal_form(algebra):
            first = next(i for i in range(1, algebra.arity + 1)
                         if is_pumpable(algebra.monoid, types[i - 1], types[i]) is None)
            groups.setdefault(first, []).append(types)
        assert [i for i, _ in guards] == sorted(groups)
        for i, dfa in guards:
            query = Query(algebra.sig, DEFAULT_STATE_BUDGET)
            assert dfa == _family_list_guard(algebra, groups[i], query)
            counts = algebra.path_counts(reparam._stops_at(i))
            assert sum(counts[0].values()) == len(groups[i])


# the guard automata, the guarded maps, the total length and SHA-1 of the
# maps' texts and the sum of their bounds in the guard sweep
GUARDED_MAPS = (72, 20, 201_157, "66657970f82467d899c01f708b3d4777f8736fa8",
                19_944_292_459_449_648_135)


def test_random_sweep_reaches_the_guard_split(monkeypatch):
    # random formulas that split families by guards: the sweep builds at
    # least 50 guard automata, every guarded map passes the oracle, and the
    # maps, whose eliminations read `case & gamma`, are pinned
    guards = []
    real = reparam._type_tuple_dfa

    def spy(algebra, i, query):
        guards.append(i)
        return real(algebra, i, query)

    monkeypatch.setattr(reparam, "_type_tuple_dfa", spy)
    guarded = []
    for sig, xs, f in guard_batch(8, 300):
        before = len(guards)
        rep = minimal_reparameterization(f, sig, xs, refine=False)
        if len(guards) > before:
            guarded.append(rep)
    for rep in guarded:
        assert check_reparameterization(rep, 4), render(rep.source)
        assert check_canonical_form(rep, 4), render(rep.source)
    assert len(guards) >= 50
    blob = "\n".join(render(rep.g) for rep in guarded)
    assert (len(guards), len(guarded), len(blob), hashlib.sha1(blob.encode()).hexdigest(),
            sum(rep.bound for rep in guarded)) == GUARDED_MAPS


def test_eliminate_variable_equalities(sig1):
    # dropping x_i: the image keeps the other coordinates in order, under
    # their own names
    f = parse("(x < y) & (y < z)", sig1)
    rep = eliminate_variable(f, sig1, ("x", "y", "z"), 2, n_families=1, monoid_size=2,
                             image=("y0", "y1"), query=Query(sig1, DEFAULT_STATE_BUDGET))
    assert rep.dimension == 2
    for w in all_words(sig1, 4):
        related = satisfying_tuples(rep.g, w, rep.domain_vars + rep.image_vars)
        assert sorted(related) == sorted(
            x + (x[0], x[2]) for x in satisfying_tuples(f, w, rep.domain_vars))


def test_compose_multiplies_bounds(sig1):
    # the step's bound (families x ramsey_bound(2) = 6) times its image's (1)
    f = parse("(x < y) & (y < z)", sig1)
    rep = eliminate_variable(f, sig1, ("x", "y", "z"), 2, 1, 2, ("y0", "y1"),
                             Query(sig1, DEFAULT_STATE_BUDGET))
    assert rep.bound == 6 * 1
    both = rep.provenance
    assert (both.kind, both.detail) == ("compose", "6 x 1")
    assert [(c.kind, c.detail) for c in both.children] == [
        ("eliminate", "variable 2 of 3; bound 1 families x B(2)"), ("case", "x<z")]
    assert rep.domain_vars == ("x", "y", "z")


def test_combine_disjuncts_bounds_add(sig1):
    a = minimal_reparameterization(parse("~ex z. z < x", sig1), sig1, ("x",),
                                   refine=False)
    b = minimal_reparameterization(parse("~ex z. x < z", sig1), sig1, ("x",),
                                   refine=False)
    guards = [parse("P1(x)", sig1), parse("~P1(x)", sig1)]
    combined = combine_disjuncts(parse("x = x", sig1), sig1, ("x",),
                                 list(zip(guards, [a, b])))
    assert combined.bound == a.bound + b.bound
    assert len(combined.image_vars) == max(a.dimension, b.dimension)


def test_combine_refuses_images_off_one_tuple(sig1):
    # the search draws one image tuple, so the branches are glued without
    # renaming: an image that is not a prefix of the widest is refused
    a = minimal_reparameterization(parse("P1(x)", sig1), sig1, ("x",), refine=False)
    b = minimal_reparameterization(parse("~P1(x)", sig1), sig1, ("x",), refine=False)
    guards = [parse("P1(x)", sig1), parse("~P1(x)", sig1)]
    assert a.image_vars == b.image_vars == ("y0",)
    combined = combine_disjuncts(parse("x = x", sig1), sig1, ("x",), list(zip(guards, [a, b])))
    assert combined.image_vars == ("y0",)
    other = dataclasses.replace(b, image_vars=("y1",))
    with pytest.raises(InputError, match="not prefixes of one tuple"):
        combine_disjuncts(parse("x = x", sig1), sig1, ("x",), list(zip(guards, [a, other])))


def test_erratum_notes_present():
    assert len(ERRATUM_NOTES) == 2
    for note in ERRATUM_NOTES:
        assert isinstance(note, str) and note


def test_provenance_tree(sig1):
    rep = minimal_reparameterization(parse(GROUP_TEXT, sig1), sig1, ("x", "y"))
    dump = rep.provenance.dump()
    assert "group" in dump or "eliminate" in dump
    assert rep.describe().startswith("dimension 1")
