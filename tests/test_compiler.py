import hashlib
import itertools
import time

import pytest

from chainrep import compiler
from chainrep.compiler import (DEFAULT_STATE_BUDGET, Dfa, Query, ambiguity_degree, compile,
                               dfa_empty, dfa_to_formula, max_fiber, minimize_dfa,
                               preimage_ranks)
from chainrep.errors import InputError, ResourceLimitError
from chainrep.formula import (TRUE, And, AtLeast, Less, NameSupply, Run, Signature, all_vars,
                              conj, exists_wrap, order_case_split, parse, render, substitute)
from chainrep.oracle import evaluate, satisfying_tuples
from chainrep.randgen import formula_batch
from chainrep.reparam import minimal_reparameterization
from chainrep.words import MarkedWord, Word, all_words
from conftest import FIRST_PAIR_TEXT, GROUP_TEXT, battery, dfa_equivalent, endpoints_text

ENDS_TEXT = "(~ex z. z < x) | (~ex z. x < z)"


def agree(f, sig, variables, max_len=4):
    dfa = compile(f, sig, variables)
    for w in all_words(sig, max_len):
        sat = set(satisfying_tuples(f, w, variables))
        for marks in itertools.combinations(range(len(w)), len(variables)):
            if dfa.run(MarkedWord(w, marks)) != (marks in sat):
                return False
    return True


def test_sentence(sig1):
    dfa = compile(parse("ex v. P1(v)", sig1), sig1)
    assert not dfa.marked
    assert not dfa.run(Word(sig1, (0, 0)))
    assert dfa.run(Word(sig1, (0, 1)))


def test_marked_agrees_with_oracle(sig1, sig2):
    assert agree(parse("P1(x)", sig1), sig1, ("x",))
    assert agree(parse("x < y -> P2(y)", sig2), sig2, ("x", "y"))
    assert agree(parse("EX Z. (Z(x) & all v. (Z(v) -> P1(v)))", sig1),
                 sig1, ("x",))
    assert agree(parse("atleast 2 v. v < x", sig1), sig1, ("x",))


def test_wrong_mark_count_rejected(sig1):
    dfa = compile(parse("P1(x)", sig1), sig1, ("x",))
    w = Word(sig1, (1, 1))
    assert not dfa.run(MarkedWord(w, ()))
    assert not dfa.run(MarkedWord(w, (0, 1)))
    assert dfa.run(MarkedWord(w, (1,)))


def test_mark_order_is_variable_order(sig1):
    # with marks always ascending, the i-th mark is the i-th listed variable
    f = parse("x < y & P1(x)", sig1)
    dfa = compile(f, sig1, ("x", "y"))
    w = Word(sig1, (1, 0))
    assert dfa.run(MarkedWord(w, (0, 1)))
    dfa_swapped = compile(f, sig1, ("y", "x"))
    assert not dfa_swapped.run(MarkedWord(w, (0, 1)))


def _walk(dfa, word, marks=()):
    """Acceptance by reading delta one letter at a time."""
    q = dfa.init
    for i, mask in enumerate(word.letters):
        q = dfa.delta[q][mask | (1 << dfa.sig.k if i in marks else 0)]
    return q in dfa.accepting


def test_run_matches_a_walk_of_delta(sig1, sig2):
    for sig, text, variables in ((sig1, "P1(x)", ("x",)),
                                 (sig2, "x < y -> P2(y)", ("x", "y")),
                                 (sig1, GROUP_TEXT, ("x", "y")),
                                 (sig2, "ex v. (P1(v) & ~ex u. u < v)", ())):
        dfa = compile(parse(text, sig), sig, variables)
        for w in all_words(sig, 4):
            assert dfa.run(w) is _walk(dfa, w)
            # a plain automaton reads a marked word without marks
            sizes = range(len(w) + 1) if dfa.marked else (0,)
            for size in sizes:
                for marks in itertools.combinations(range(len(w)), size):
                    assert dfa.run(MarkedWord(w, marks)) is _walk(dfa, w, marks)


def test_run_rejects_what_it_cannot_read(sig1, sig2):
    w = Word(sig1, (1, 0))
    plain = compile(parse("ex v. P1(v)", sig1), sig1)
    with pytest.raises(InputError, match="^plain automaton cannot read marks$"):
        plain.run(MarkedWord(w, (0,)))
    two = compiler.Dfa(sig1, True, 0, ((0,) * 8,), frozenset({0}), tracks=2)
    with pytest.raises(InputError, match="^a marked word cannot fill one track per variable$"):
        two.run(MarkedWord(w, ()))
    # over P1 and P2, the letter P2 sets the bit that a marked automaton
    # over P1 reads as its mark bit
    marked = compile(parse("x = x", sig1), sig1, ("x",))
    other = Word(sig2, (2,))
    for dfa in (plain, marked):
        for word in (other, MarkedWord(other, ())):
            with pytest.raises(InputError, match="^word and automaton use different signatures$"):
                dfa.run(word)
    # an equal signature is the same signature
    assert marked.run(MarkedWord(Word(Signature(("P1",)), (0,)), (0,)))


def test_unmarked_free_variable_rejected(sig1):
    with pytest.raises(InputError):
        compile(parse("P1(x)", sig1), sig1)
    with pytest.raises(InputError):
        compile(parse("Z(x)", sig1), sig1, ("x",))


def test_compile_refuses_a_query_over_another_signature(sig1, sig2):
    f = parse("P1(x)", sig1)
    with pytest.raises(InputError, match="^compile: the query is over another signature$"):
        compile(f, sig2, ("x",), query=Query(sig1, DEFAULT_STATE_BUDGET))
    q = Query(sig2, DEFAULT_STATE_BUDGET)
    assert compile(f, sig2, ("x",), query=q) == compile(f, sig2, ("x",))


def test_compile_refuses_a_query_under_another_budget(sig1):
    # the query's budget rules its builds, so another budget_states beside it
    # would be silently ignored
    f = parse("(x < y) & (y < z)", sig1)
    with pytest.raises(InputError, match="^compile: the query runs under another budget$"):
        compile(f, sig1, ("x", "y", "z"), budget_states=3, query=Query(sig1, 10**6))
    # the signature is checked first
    with pytest.raises(InputError, match="^compile: the query is over another signature$"):
        compile(f, Signature(("P2",)), ("x", "y", "z"), budget_states=3,
                query=Query(sig1, 10**6))
    with pytest.raises(ResourceLimitError, match=r"state budget exceeded \(4 > 3\)"):
        compile(f, sig1, ("x", "y", "z"), budget_states=3, query=Query(sig1, 3))


@pytest.mark.parametrize("variables, message", [
    (("x", "Bad"), "^bad variable name 'Bad'$"),
    (("x", "y", "x"), "^variables must be distinct$"),
])
def test_marked_variables_are_refused_in_one_wording(sig1, variables, message):
    # compile and the elimination search check marked variables with one
    # validator, so one fault reads the same through either entry point
    f = parse("x < y", sig1)
    with pytest.raises(InputError, match=message):
        compile(f, sig1, variables)
    with pytest.raises(InputError, match=message):
        minimal_reparameterization(f, sig1, variables)
    with pytest.raises(InputError, match=message):
        order_case_split(f, variables)


def test_budget(sig1):
    with pytest.raises(ResourceLimitError) as e:
        compile(parse("(x < y) & (y < z)", sig1), sig1, ("x", "y", "z"),
                budget_states=3)
    assert e.value.budget == 3


def test_empty_and_equivalent(sig1):
    a = compile(parse("x < x", sig1), sig1, ("x",))
    assert dfa_empty(a)
    b = compile(parse("P1(x) & ~P1(x)", sig1), sig1, ("x",))
    assert dfa_equivalent(a, b)
    c = compile(parse("P1(x)", sig1), sig1, ("x",))
    assert not dfa_equivalent(a, c)
    assert not dfa_empty(c)


def test_dfa_empty_reads_only_reachable_states(sig1):
    # state 2 accepts, but no letter leads there from the initial state
    dfa = Dfa(sig1, False, 0, ((1, 0), (0, 1), (2, 2)), frozenset({2}))
    assert dfa_empty(dfa)
    assert not dfa_empty(Dfa(sig1, False, 0, ((1, 0), (2, 1), (2, 2)), frozenset({2})))


def test_realizable_cases_are_the_nonempty_order_cases(sig1):
    # the one build over k tracks lists exactly the order cases whose own
    # compile is nonempty, in the split's order; each keeps its automaton
    # as its formula's, from which compile, given the query, publishes the
    # automaton of a fresh compile; the split builds every case alike from
    # its rank tuple
    subjects = [(sig, f, fo) for seed, count, rank in ((1, 225, 2), (2, 225, 2), (3, 120, 3))
                for sig, fo, f in formula_batch(seed, count, rank=rank)]
    subjects += [(sig1, parse(text, sig1), tuple(xs)) for text, xs in (
        ("x<y & y<z & z<w & w<v", "xyzwv"), ("P1(x)&P1(y)&P1(z)&P1(w)", "xyzw"),
        (GROUP_TEXT, "xy"), (endpoints_text("xyzw"), "xyzw"))]
    for sig, f, xs in subjects:
        split = order_case_split(f, xs)
        nonempty = []
        for case in split:
            ranks = tuple(next(i for i, c in enumerate(case.classes) if v in c) for v in xs)
            assert split.case(ranks) == case
            dfa = compile(case.formula, sig, case.representatives)
            if not dfa_empty(dfa):
                nonempty.append((ranks, dfa))
        q = Query(sig, DEFAULT_STATE_BUDGET)
        published = []
        for ranks, keep in q.realizable_cases(f, xs):
            case = split.case(ranks)
            keep(case)
            assert q.known[id(case.formula)][0] is case.formula
            published.append((ranks, compile(case.formula, sig, case.representatives,
                                              query=q)))
        assert published == nonempty, render(f)


def test_realizable_cases_run_under_the_compile_budget(sig1):
    # the one build of the endpoint triple needs 17 states
    f = parse(endpoints_text("xyz"), sig1)
    with pytest.raises(ResourceLimitError) as e:
        Query(sig1, 16).realizable_cases(f, ("x", "y", "z"))
    assert (e.value.stage, e.value.reached, e.value.budget) == ("compile", 17, 16)
    assert len(Query(sig1, 17).realizable_cases(f, ("x", "y", "z"))) == 7


def test_realizable_cases_check_acceptance_on_a_non_minimal_automaton(sig1):
    # a sentence whose automaton swaps two rejecting states on every
    # letter: neither is a sink, so the search does not stop at them, and
    # as no word is accepted it keeps no case
    f = Run(Dfa(sig1, False, 0, ((1, 1), (0, 0)), frozenset()), ())
    assert Query(sig1, DEFAULT_STATE_BUDGET).realizable_cases(f, ()) == []
    rep = minimal_reparameterization(f, sig1, ())
    assert (rep.dimension, rep.bound, rep.provenance.kind) == (0, 0, "empty")


def test_products_explore_one_dead_pair(monkeypatch):
    # a pair with a side in its rejecting sink, for and, or both sides, for
    # or, accepts nothing from then on: every product explores all such
    # pairs as at most one state; so does every publish walk with its pairs
    # (state, marks read) whose state is a sink or that read a mark too many
    def sinks(a):
        return {q for q, row in enumerate(a.delta)
                if q not in a.accepting and set(row) == {q}}

    explored = []
    real_product, real_explore = compiler._Builder.product, compiler._Builder.explore
    real_to_public = compiler._Builder.to_public

    def explore(self, *args):
        order, delta = real_explore(self, *args)
        explored.append(order)
        return order, delta

    counts = []

    def product(self, a, b, op):
        explored.clear()
        out = real_product(self, a, b, op)
        (order,) = explored
        sa, sb = sinks(a), sinks(b)
        counts.append(sum(st is None or ((st[0] in sa) + (st[1] in sb) >= (1 if op == "and" else 2))
                          for st in order))
        return out

    walks = []

    def to_public(self, a, ordered_vars):
        explored.clear()
        out = real_to_public(self, a, ordered_vars)
        (order,) = explored
        sa = sinks(a)
        walks.append(sum(st is None or st[1] > len(ordered_vars) or st[0] in sa
                         for st in order))
        return out

    monkeypatch.setattr(compiler._Builder, "explore", explore)
    monkeypatch.setattr(compiler._Builder, "product", product)
    monkeypatch.setattr(compiler._Builder, "to_public", to_public)
    for _, sig, f, xs, _ in battery():
        minimal_reparameterization(f, sig, xs)
    for sig, xs, f in formula_batch(1, 200):
        minimal_reparameterization(f, sig, xs)
    assert max(counts) == 1 and counts.count(1) > len(counts) // 2
    assert max(walks) == 1 and walks.count(1) > len(walks) // 2, (walks.count(1), len(walks))


def test_explore_writes_the_dead_row(sig1):
    # a state that dead holds for and a successor None are the one dead
    # state; explore writes its row, every letter back to it, and never
    # asks successors for it
    def successors(st):
        assert st is not None, "successors asked for the dead state's row"
        return [st + 1, st, 0]

    b = compiler._Builder(sig1, 10, "test", {})
    order, delta = b.explore(0, successors, 3, lambda st: st >= 2)
    assert order == [0, 1, None]
    assert delta == [[1, 0, 0], [2, 1, 0], [2, 2, 2]]
    assert b.explore(2, successors, 3, lambda st: st >= 2) == ([None], [[0, 0, 0]])
    order, delta = b.explore(0, lambda st: [st + 1 if st < 1 else None, st], 2)
    assert (order, delta) == ([0, 1, None], [[1, 0], [2, 1], [2, 2]])


def test_publishing_walks_the_marks_read(sig1, monkeypatch):
    # the number of marks read tells which track the next mark feeds, so
    # publishing widens no automaton to the marked variables and runs no
    # subset construction to merge their tracks
    calls = []
    for name in ("project", "extend"):
        real = getattr(compiler._Builder, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(compiler._Builder, name, counted)
    one = compile(parse("P1(x)", sig1), sig1, ("x", "y"))
    assert calls == []
    compile(parse("P1(x) & x < y", sig1), sig1, ("x", "y"))
    assert "project" not in calls
    assert one == compile(parse("P1(x) & y = y", sig1), sig1, ("x", "y"))


def test_complements_and_maps_walk_no_minimize(sig1, monkeypatch):
    # a sentence's complement and a map's widened automaton are minimal as
    # built, so no minimize walk runs for them
    calls = []
    real = compiler.minimize_dfa

    def minimize(dfa, *args):
        calls.append(dfa)
        return real(dfa, *args)

    monkeypatch.setattr(compiler, "minimize_dfa", minimize)
    dfa = compile(parse("~ex v. P1(v)", sig1), sig1)
    assert [dfa.run(Word(sig1, (0,) * n)) for n in range(3)] == [True] * 3
    assert not dfa.run(Word(sig1, (0, 1)))
    assert max_fiber(parse("~(ex v. P1(v)) & y < x", sig1), sig1, ("x",), ("y",), cap=7) == 7
    # y is widened in and left free: every x shares each image
    assert max_fiber(parse("x = x", sig1), sig1, ("x",), ("y",), cap=7) == 7
    assert calls == []


def test_extend_checks_the_transition_cap(sig1, monkeypatch):
    builder = Query(sig1, DEFAULT_STATE_BUDGET).builder("compile")
    a = builder.build(parse("P1(x)", sig1))
    monkeypatch.setattr(compiler, "_TRANSITION_CAP", a.n * a.n_letters)
    with pytest.raises(ResourceLimitError) as e:
        builder.extend(a, fo_add=("y",))
    assert (e.value.subject, e.value.stage) == ("transitions", "compile")
    assert e.value.reached == 2 * a.n * a.n_letters
    assert str(e.value).startswith("compile: transition table too large")


def test_extend_leaves_new_tracks_unconstrained(sig1):
    # widening only relabels letters; validity of the new track comes from
    # the operation that needs it
    builder = Query(sig1, DEFAULT_STATE_BUDGET).builder("compile")
    a = builder.build(parse("P1(x)", sig1))
    wide = builder.extend(a, fo_add=("y",))
    assert wide.fo == ("x", "y") and wide.n == a.n
    y = 1 << wide.fo_bit("y")
    for letter in range(a.n_letters):
        for q in range(a.n):
            assert wide.delta[q][letter] == wide.delta[q][letter | y]
    # on the empty word no v can be marked, though the body that ignores v
    # holds there
    assert agree(parse("ex v. ~ex z. z = z", sig1), sig1, ())
    assert agree(parse("ex v. ((~ex z. z = z) | P1(v))", sig1), sig1, ())


def test_max_fiber_counts_preimages(sig1):
    # one image for the two ends of a word, two for the rest
    g = parse("(~ex z. z < x) | (~ex z. x < z)", sig1)
    assert max_fiber(g, sig1, ("x",), (), cap=5) == 2
    assert max_fiber(g, sig1, ("x",), (), cap=1) == 1
    # x picks any position at or after y: unbounded fibers reach the cap
    assert max_fiber(parse("y < x | y = x", sig1), sig1, ("x",), ("y",), cap=7) == 7
    assert max_fiber(parse("x = y", sig1), sig1, ("x",), ("y",), cap=7) == 1
    assert max_fiber(parse("x < x", sig1), sig1, ("x",), (), cap=7) == 0
    with pytest.raises(ResourceLimitError):
        max_fiber(parse("y < x", sig1), sig1, ("x",), ("y",), cap=50,
                  budget_states=10)
    with pytest.raises(InputError):
        max_fiber(parse("x < z", sig1), sig1, ("x",), ("y",), cap=2)
    # a cap below 1 counts nothing
    for cap in (0, -1):
        with pytest.raises(InputError, match="^the fiber cap must be at least 1$"):
            max_fiber(parse("y < x | y = x", sig1), sig1, ("x",), ("y",), cap=cap)


def test_ambiguity_chain_is_a_path_of_ida_pairs():
    # on f's automaton with its tracks erased: each pair's word loops at p,
    # leads p to q and loops at q, and the links lead from the initial
    # state to the first p, from each q to the next p and from the last q
    # to acceptance
    texts = [(FIRST_PAIR_TEXT, "xyv"), (GROUP_TEXT, "xy"), (endpoints_text("xyz"), "xyz"),
             ("P1(x) & y < x", "xyz")]
    p1 = Signature(("P1",))
    cases = [(name, sig, f, xs) for name, sig, f, xs, _ in battery()]
    cases += [(text, p1, parse(text, p1), tuple(xs)) for text, xs in texts]
    for name, sig, f, xs in cases:
        chain = ambiguity_degree(f, sig, xs)
        if name == "unsatisfiable":
            assert chain == compiler.IdaChain((), (), ())
            continue
        b = Query(sig, DEFAULT_STATE_BUDGET).builder("compile")
        a = b.valid(b.extend(b.built(f), fo_add=xs), xs)

        def after(states, word):
            for letter in word:
                states = {a.delta[q][letter | m << sig.k]
                          for q in states for m in range(1 << len(xs))}
            return states

        for (p, q), v in zip(chain.pairs, chain.loops):
            assert p != q and v, name
            assert {p, q} <= after({p}, v) and q in after({q}, v), name
        starts = [a.init] + [q for _, q in chain.pairs]
        ends = [{p} for p, _ in chain.pairs] + [a.accepting]
        assert len(chain.links) == len(starts) == chain.degree + 1
        for start, end, u in zip(starts, ends, chain.links):
            assert after({start}, u) & end, name
    # the degree counts a variable that f does not read
    assert ambiguity_degree(parse("P1(x)", p1), p1, ("x", "y")).degree == 2


def ranked_maps():
    """(sig, map, the query that built its automaton, its preimage ranks)
    of every test map with bound > 1."""
    sig1 = Signature(("P1",))
    maps = [(sig, f, variables) for _, sig, f, variables, _ in battery()]
    maps += [(sig1, parse(GROUP_TEXT, sig1), ("x", "y")),
             (sig1, parse("EX X. (" + ENDS_TEXT + ")", sig1), ("x",)),
             (sig1, parse(endpoints_text("xy"), sig1), ("x", "y")),
             (sig1, parse(FIRST_PAIR_TEXT, sig1), ("x", "y", "v"))]
    maps += [(sig, f, fo) for sig, fo, f in formula_batch(606, 40)]
    for sig, f, variables in maps:
        rep = minimal_reparameterization(f, sig, variables)
        if rep.bound > 1:
            q = Query(sig, DEFAULT_STATE_BUDGET)
            m = q.map_automaton(rep.g, rep.domain_vars, rep.image_vars)
            yield sig, rep, q, preimage_ranks(m, rep.bound).selectors(rep.bound)


def test_lex_ranks_match_enumeration():
    # the i-th rank holds exactly at the pairs g relates whose image has i
    # lexicographically smaller preimages; the compiled existential
    # projection of each rank agrees with the oracle's; the map's image,
    # compiled given the query that built the map, is the automaton a fresh
    # compile publishes for ex xs. g, byte for byte
    checked = 0
    for sig, rep, q, ranks in ranked_maps():
        xs, ys = rep.domain_vars, rep.image_vars
        assert compile(exists_wrap(xs, rep.g), sig, ys, query=q).dump() == \
            compile(exists_wrap(xs, rep.g), sig, ys).dump(), render(rep.source)
        k = len(xs)
        assert len(ranks) == rep.bound
        assert all(r.tracks == k + len(ys) for r in ranks)
        for w in all_words(sig, 4):
            pairs = satisfying_tuples(rep.g, w, xs + ys)
            fibers: dict = {}
            for t in pairs:
                fibers.setdefault(t[k:], []).append(t[:k])
            for i, rank in enumerate(ranks):
                want = [t for t in pairs
                        if sum(x < t[:k] for x in fibers[t[k:]]) == i]
                assert satisfying_tuples(Run(rank, xs + ys), w, xs + ys) == want, \
                    (render(rep.source), str(w), i)
        for rank in ranks:
            assert agree(exists_wrap(xs, Run(rank, xs + ys)), sig, ys), \
                render(rep.source)
        checked += 1
    assert checked >= 3


def test_lex_ranks_run_under_the_state_budget(sig1):
    g = parse("x < y", sig1)
    m = Query(sig1, DEFAULT_STATE_BUDGET).map_automaton(g, ("x",), ("y",))
    ranks = preimage_ranks(m, 3).selectors(3)
    assert [r.tracks for r in ranks] == [2, 2, 2]
    # rank 0 is x at the first position: words of length 2 and more
    assert compile(exists_wrap(("x", "y"), Run(ranks[0], ("x", "y"))), sig1) == \
        compile(parse("ex x. ex y. x < y", sig1), sig1)
    assert dfa_equivalent(minimize_dfa(ranks[0]), ranks[0])
    assert ranks[0].letter_name(0b111) == "P1*0*1"
    with pytest.raises(InputError):
        Run(ranks[0], ("x",))
    assert not dfa_empty(ranks[0])
    # the map's own automaton fits in 5 states, the count does not
    m = Query(sig1, 5).map_automaton(g, ("x",), ("y",))
    with pytest.raises(ResourceLimitError, match="^preimage ranks: state budget"):
        preimage_ranks(m, 3)


def test_minimize_dfa_preserves_language(sig1):
    dfa = compile(parse("P1(x) | x < x", sig1), sig1, ("x",))
    small = minimize_dfa(dfa)
    assert len(small.delta) <= len(dfa.delta)
    assert dfa_equivalent(small, dfa)


def test_dfa_to_formula_round_trip(sig1, sig2):
    for sig, text in ((sig1, "ex v. (P1(v) & ~ex u. v < u)"),
                      (sig2, "all v. (P1(v) -> ex u. (v < u & P2(u)))")):
        dfa = compile(parse(text, sig), sig)
        back = dfa_to_formula(dfa)
        again = compile(back, sig)
        assert dfa_equivalent(dfa, again)


def test_random_formulas_agree(sig1):
    for sig, fo, f in formula_batch(404, 30):
        assert agree(f, sig, fo, max_len=3), render(f)


def test_compiled_bytes_are_pinned():
    # state numbering included: a refactoring of the compiler must keep
    # every automaton it publishes byte for byte; the sentence that some
    # ascending marking satisfies f is the projection of f's marks
    dumps = []
    for sig, fo, f in formula_batch(404, 50):
        dfa = compile(f, sig, fo)
        dumps.append(dfa.dump())
        if dfa.marked:
            ordered = [Less(x, y) for x, y in zip(fo, fo[1:])]
            dumps.append(compile(exists_wrap(fo, conj(ordered + [f])), sig).dump())
    assert len(dumps) == 82
    digest = hashlib.sha1("\n".join(dumps).encode()).hexdigest()
    assert digest == "b93a6a6eb6d88fab603fa745f932f3c3a23a9d53"


def test_random_formulas_compile_to_pinned_bytes():
    # four batches with many quantifiers on variables their bodies do not
    # read: the shortcuts for those publish the general construction's bytes
    dumps = [compile(f, sig, fo).dump()
             for seed in (20260814, 1, 2, 3) for sig, fo, f in formula_batch(seed, 50)]
    digest = hashlib.sha1("\n".join(dumps).encode()).hexdigest()
    assert digest == "0181674b12faa712b7f22df2c30519c44c96be13"


def nested_ex(f: AtLeast):
    """atleast c v. g written out: c nested ex over c ascending positions,
    each with its own copy of g; true for c = 0."""
    if not f.count:
        return TRUE
    supply = NameSupply(all_vars(f))
    names = [supply.fresh(f.var) for _ in range(f.count)]
    parts = [Less(a, b) for a, b in zip(names, names[1:])]
    parts += [substitute(f.body, {f.var: w}, supply) for w in names]
    return exists_wrap(names, conj(parts))


def test_counting_is_its_nested_ex_expansion(sig2):
    # the counting projection against c nested projections over c copies
    # of the body, byte for byte; a Run leaf's automaton has a rejecting
    # sink, which the count drops
    leaf = Run(compile(parse("x < v & ~P2(v)", sig2), sig2, ("x", "v")), ("x", "v"))
    bodies = [(parse(text, sig2), fo) for text, fo in (
        ("P1(v)", ()), ("x < v & P1(v)", ("x",)),
        ("EX S. (S(v) & ~S(x) & all u. (S(u) -> P2(u)))", ("x",)))]
    for body, fo in bodies + [(leaf, ("x",))]:
        for c in range(5):
            f = AtLeast(c, "v", body)
            assert compile(f, sig2, fo) == compile(nested_ex(f), sig2, fo), (render(f), c)


def test_a_counting_quantifier_builds_its_body_once(sig1, monkeypatch):
    # no copy of the body is made: the one And built is the body object
    ands = []
    real = compiler._Builder.build

    def build(self, g):
        if isinstance(g, And):
            ands.append(g)
        return real(self, g)

    monkeypatch.setattr(compiler._Builder, "build", build)
    f = parse("atleast 3 v. (x < v & P1(v))", sig1)
    compile(f, sig1, ("x",))
    assert len(ands) == 1 and ands[0] is f.body


def test_large_counts_compile_at_once(sig1):
    # one state per count reached: the projection's size grows with c, not
    # the c copies' product
    f = parse("atleast 16 v. (x < v & P1(v))", sig1)
    t0 = time.perf_counter()
    dfa = compile(f, sig1, ("x",))
    assert time.perf_counter() - t0 < 1
    assert dfa.n_states == 19
    word = Word(sig1, (0,) + (1,) * 16)
    assert dfa.run(MarkedWord(word, (0,)))
    assert not dfa.run(MarkedWord(word, (1,)))


# bodies, with their free variables, that read neither z nor Z
_VACUOUS_BODIES = (("ex q. (P1(q) & ~P2(q))", ()), ("P2(x)", ("x",)),
                   ("x < y & P1(y)", ("x", "y")), ("EX Y. (Y(x) & ~P1(x))", ("x",)))


@pytest.mark.parametrize("kind", ["ex z", "all z"] + [f"atleast {c} z" for c in range(4)]
                         + ["EX Z", "ALL Z"])
def test_vacuous_quantifiers_agree_in_both_routes(sig2, kind):
    # on every word up to length 3, the empty one too, and every assignment:
    # the oracle on the formula, and the automaton on each ascending marking
    for body, fo in _VACUOUS_BODIES:
        f = parse(f"{kind}. ({body})", sig2)
        dfa = compile(f, sig2, fo)
        for w in all_words(sig2, 3):
            for tup in itertools.product(range(len(w)), repeat=len(fo)):
                env = dict(zip(fo, tup))
                want = evaluate(f, w, env)
                if all(a < b for a, b in zip(tup, tup[1:])):
                    assert dfa.run(MarkedWord(w, tup)) is want, (kind, body, w, tup)


@pytest.mark.parametrize("body, fo", _VACUOUS_BODIES)
def test_vacuous_quantifiers_compile_to_the_general_constructions_bytes(sig2, body, fo):
    # the shortcut against the route it skips, a projection of a track that
    # z = z or an empty In test adds, and against the nested-ex expansion
    for c in range(4):
        f = parse(f"atleast {c} z. ({body})", sig2)
        assert compile(f, sig2, fo) == compile(nested_ex(f), sig2, fo), c
        assert compile(f, sig2, fo) == \
            compile(parse(f"atleast {c} z. (({body}) & z = z)", sig2), sig2, fo), c
    assert compile(parse(f"ex z. ({body})", sig2), sig2, fo) == \
        compile(parse(f"ex z. (({body}) & z = z)", sig2), sig2, fo)
    assert compile(parse(f"EX Z. ({body})", sig2), sig2, fo) == \
        compile(parse(f"EX Z. (({body}) & ~ex q. (Z(q) & ~Z(q)))", sig2), sig2, fo)


def test_valid_is_one_product_for_all_tracks(sig2):
    # one product with the each-track-once automaton gives the automaton
    # that one product per track with a single-mark automaton gives
    b = Query(sig2, DEFAULT_STATE_BUDGET).builder("compile")
    for text in ("P1(x) | P2(y)", "~(x < y & P1(z))", "EX Z. (Z(x) -> Z(y))", "true"):
        a = b.extend(b.build(parse(text, sig2)), fo_add=("w",))
        want = a
        for v in a.fo:
            want = b.product(want, b.single_mark(a.fo, a.so, (v,)), "and")
        assert b.valid(a, a.fo) == want, text
