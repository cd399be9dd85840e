import functools
import hashlib
import itertools
import time

import pytest

from chainrep import compiler, reparam
from chainrep.compiler import Query, max_fiber
from chainrep.errors import InputError, ResourceLimitError
from chainrep.formula import FALSE, Signature, parse, render
from chainrep.growth import growth_lower_witness
from chainrep.interp import check_equivalence, parse_interpretation, reduce_interpretation
from chainrep.oracle import (check_canonical_form, check_reparameterization,
                             evaluate, satisfying_tuples)
from chainrep.reparam import (ERRATUM_NOTES, TypeAlgebra, _refine_bound,
                              combine_disjuncts, compose, eliminable_pairs,
                              eliminate_variable, local_normal_form,
                              minimal_reparameterization)
from chainrep.randgen import formula_batch
from chainrep.words import MarkedWord, all_words
from conftest import BATTERY, FIRST_PAIR_TEXT, GROUP_TEXT, battery, endpoints_text

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
        "b0630a74c51252493e6a33250bea44afa6abe63a"


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
    # meets the source object and reads the automaton kept for it
    texts = {name: text for name, _, text, _, _ in BATTERY}
    subjects = ((GROUP_TEXT, "xy"), (FIRST_PAIR_TEXT, "xyv"),
                (texts["pinned pair"], "xy"), (texts["adjacent labelled pair"], "xy"),
                (endpoints_text("xyzw"), "xyzw"))
    builds = []
    real = compiler._Builder.build

    def build(self, g):
        builds.append((self.stage, g))
        return real(self, g)

    monkeypatch.setattr(compiler._Builder, "build", build)
    stages = set()
    for text, xs in subjects:
        f = parse(text, sig1)
        builds.clear()
        minimal_reparameterization(f, sig1, tuple(xs))
        assert [stage for stage, g in builds if g is f] == ["compile"], text
        stages |= {stage for stage, _ in builds}
    # refinement built maps around the source (the pinned pair's map is the
    # source itself, so its build reads the kept automaton whole)
    assert "map automaton" in stages


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
    real = reparam._lifted_case

    def lifted_case(*args):
        visited.append(args)
        return real(*args)

    monkeypatch.setattr(reparam, "_lifted_case", lifted_case)
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
BELOW_FULL_WIDTH = (110, 1_336, "1a44532ec0d7347d1c771f970e0691305f9e329d")


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
    with pytest.raises(InputError):
        minimal_reparameterization(parse("x < y", sig1), sig1, ("x",))


def test_segment_types_shape(sig1):
    f = parse("x < y", sig1)
    algebra = TypeAlgebra.build(f, sig1, ("x", "y"))
    for w in all_words(sig1, 4):
        for marks in itertools.combinations(range(len(w)), 2):
            taus = algebra.segment_types(MarkedWord(w, marks))
            assert len(taus) == 3


def test_accepts_chain_matches_oracle():
    for name, sig, f, variables, _ in battery():
        algebra = TypeAlgebra.build(f, sig, variables)
        for w in all_words(sig, 4):
            for marks in itertools.combinations(range(len(w)), len(variables)):
                mw = MarkedWord(w, marks)
                want = evaluate(f, w, fo=dict(zip(variables, marks)))
                got = algebra.accepts_chain(algebra.segment_types(mw))
                assert got == want, (name, str(mw))


def test_accepts_chain_sentence(sig1):
    algebra = TypeAlgebra.build(parse("ex v. P1(v)", sig1), sig1, ())
    for w in all_words(sig1, 4):
        got = algebra.accepts_chain(algebra.segment_types(MarkedWord(w, ())))
        assert got == evaluate(parse("ex v. P1(v)", sig1), w)


def test_normal_form_covers_exactly(sig1):
    # every marking's type tuple appears in exactly the disjunct it realizes,
    # and a tuple is listed iff some marking realizes it (on small words)
    f = parse("P1(x) & ex v. x < v", sig1)
    algebra = TypeAlgebra.build(f, sig1, ("x",))
    listed = {d.types for d in local_normal_form(algebra)}
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
    algebra = TypeAlgebra.build(f, sig1, ("x", "y"))
    firsts = set()
    for d in local_normal_form(algebra):
        pairs = eliminable_pairs(algebra, d)
        assert all(1 <= i <= 2 for i in pairs)
        if pairs:
            firsts.add(pairs[0])
    # the two families disagree on the first eliminable mark
    assert firsts == {1, 2}


def test_eliminate_variable_equalities(sig1):
    # dropping x_i: the image keeps the other coordinates in order
    f = parse("(x < y) & (y < z)", sig1)
    rep = eliminate_variable(f, sig1, ("x", "y", "z"), 2, n_families=1,
                             monoid_size=2)
    assert rep.dimension == 2
    assert rep.bound == 1 * 6  # families x ramsey_bound(2)
    for w in all_words(sig1, 4):
        for tup in satisfying_tuples(rep.g, w, rep.domain_vars + rep.image_vars):
            x, u = tup[:3], tup[3:]
            assert u == (x[0], x[2])


def test_compose_multiplies_bounds(sig1):
    f = parse("(x < y) & (y < z)", sig1)
    first = eliminate_variable(f, sig1, ("x", "y", "z"), 2, 1, 2)
    u0, u1 = first.image_vars
    inner = minimal_reparameterization(parse(f"{u0} < {u1}", sig1), sig1,
                                       first.image_vars, refine=False)
    both = compose(first, inner)
    assert both.bound == first.bound * inner.bound
    assert both.domain_vars == first.domain_vars
    assert both.image_vars == inner.image_vars


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


def test_erratum_notes_present():
    assert len(ERRATUM_NOTES) == 2
    for note in ERRATUM_NOTES:
        assert isinstance(note, str) and note


def test_provenance_tree(sig1):
    rep = minimal_reparameterization(parse(GROUP_TEXT, sig1), sig1, ("x", "y"))
    dump = rep.provenance.dump()
    assert "group" in dump or "eliminate" in dump
    assert rep.describe().startswith("dimension 1")
