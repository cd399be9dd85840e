import hashlib
import itertools

import pytest

from chainrep import compiler
from chainrep.compiler import (DEFAULT_STATE_BUDGET, Query, compile, dfa_empty,
                               dfa_equivalent, dfa_to_formula, first_fiber, map_automaton,
                               max_fiber, minimize_dfa, preimage_ranks, project_mark,
                               shortest_accepted)
from chainrep.errors import InputError, ResourceLimitError
from chainrep.formula import Run, Signature, exists_wrap, order_case_split, parse, render
from chainrep.oracle import evaluate, satisfying_tuples
from chainrep.randgen import formula_batch
from chainrep.reparam import minimal_reparameterization
from chainrep.words import MarkedWord, Word, all_words
from conftest import FIRST_PAIR_TEXT, GROUP_TEXT, battery, endpoints_text

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


def test_run_rejects_what_it_cannot_read(sig1):
    w = Word(sig1, (1, 0))
    plain = compile(parse("ex v. P1(v)", sig1), sig1)
    with pytest.raises(InputError, match="^plain automaton cannot read marks$"):
        plain.run(MarkedWord(w, (0,)))
    two = compiler.Dfa(sig1, True, 0, ((0,) * 8,), frozenset({0}), tracks=2)
    with pytest.raises(InputError, match="^a marked word cannot fill one track per variable$"):
        two.run(MarkedWord(w, ()))


def test_unmarked_free_variable_rejected(sig1):
    with pytest.raises(InputError):
        compile(parse("P1(x)", sig1), sig1)
    with pytest.raises(InputError):
        compile(parse("Z(x)", sig1), sig1, ("x",))


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


def test_realizable_cases_are_the_nonempty_order_cases(sig1):
    # the one build over k tracks lists exactly the order cases whose own
    # compile is nonempty, in the split's order, each building that
    # compile's automaton; the split builds every case alike from its rank
    # tuple
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
        cases = Query(sig, DEFAULT_STATE_BUDGET).realizable_cases(f, xs)
        assert [(ranks, build(split.case(ranks).formula)) for ranks, build in cases] == \
            nonempty, render(f)


def test_realizable_cases_run_under_the_compile_budget(sig1):
    # the one build of the endpoint triple needs 17 states
    f = parse(endpoints_text("xyz"), sig1)
    with pytest.raises(ResourceLimitError) as e:
        Query(sig1, 16).realizable_cases(f, ("x", "y", "z"))
    assert (e.value.stage, e.value.reached, e.value.budget) == ("compile", 17, 16)
    assert len(Query(sig1, 17).realizable_cases(f, ("x", "y", "z"))) == 7


def test_products_explore_one_dead_pair(monkeypatch):
    # a pair with a side in its rejecting sink, for and, or both sides, for
    # or, accepts nothing from then on: every product explores all such
    # pairs as at most one state
    def sinks(a):
        return {q for q, row in enumerate(a.delta)
                if q not in a.accepting and set(row) == {q}}

    explored = []
    real_product, real_explore = compiler._Builder.product, compiler._Builder.explore

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

    monkeypatch.setattr(compiler._Builder, "explore", explore)
    monkeypatch.setattr(compiler._Builder, "product", product)
    for _, sig, f, xs, _ in battery():
        minimal_reparameterization(f, sig, xs)
    for sig, xs, f in formula_batch(1, 200):
        minimal_reparameterization(f, sig, xs)
    assert max(counts) == 1 and counts.count(1) > len(counts) // 2


def test_shortest_accepted(sig1):
    dfa = compile(parse("atleast 2 v. P1(v)", sig1), sig1)
    w = shortest_accepted(dfa)
    assert isinstance(w, Word) and len(w) == 2 and w.letters == (1, 1)
    assert shortest_accepted(compile(parse("ex v. v < v", sig1), sig1)) is None


def test_shortest_accepted_is_the_oracles_first_marked_word():
    # the enumeration's shortlex-first ascending marking, its letters read
    # as integers: a marked letter comes after every unmarked one; the last
    # two automata accept in several states
    p1 = Signature(("P1",))
    several = [(p1, (), parse("atleast 1 v. P1(v) & ~atleast 3 v. P1(v)", p1)),
               (p1, ("x", "y"), parse("x < y & ~atleast 2 v. P1(v)", p1))]
    for sig, variables, f in formula_batch(5, 40) + several:
        got = shortest_accepted(compile(f, sig, variables))
        if isinstance(got, Word):
            got = MarkedWord(got, ())
        want = None
        for length in range(5):
            found = {tuple(a | (i in t) << sig.k for i, a in enumerate(w.letters)):
                     MarkedWord(w, t)
                     for w in all_words(sig, length) if len(w) == length
                     for t in map(tuple, satisfying_tuples(f, w, variables))
                     if list(t) == sorted(set(t))}
            if found:
                want = found[min(found)]
                break
        assert got == want or want is None and len(got.word) > 4, render(f)


def test_project_mark(sig1):
    # projecting the witness mark of P1(x) leaves "some position is P1"
    dfa = compile(parse("P1(x)", sig1), sig1, ("x",))
    plain = project_mark(dfa)
    want = compile(parse("ex v. P1(v)", sig1), sig1)
    assert dfa_equivalent(plain, want)


def test_project_mark_runs_under_the_state_budget(sig1, monkeypatch):
    dfa = compile(parse("P1(x)", sig1), sig1, ("x",))
    monkeypatch.setattr(compiler, "DEFAULT_STATE_BUDGET", 1)
    with pytest.raises(ResourceLimitError):
        project_mark(dfa)


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


def test_first_fiber_is_the_least_preimage(sig1):
    # against the enumeration: the first xs tuple, in itertools.product
    # order, that satisfies g with ys placed at the image
    for sig, fo, g in formula_batch(11, 30, max_preds=1, rank=2):
        for xs, ys in [(fo[:i], fo[i:]) for i in range(len(fo) + 1)]:
            m = map_automaton(g, sig, xs, ys)
            for w in all_words(sig, 3):
                for image in itertools.product(range(len(w)), repeat=len(ys)):
                    fixed = dict(zip(ys, image))
                    want = next((t for t in itertools.product(range(len(w)), repeat=len(xs))
                                 if evaluate(g, w, fo={**fixed, **dict(zip(xs, t))})), None)
                    assert first_fiber(m, w, image) == want, (render(g), xs, w, image)
    w = Word(sig1, (0,) * 5)
    g = parse("x < y & y < z", sig1)
    m = map_automaton(g, sig1, ("x", "z"), ("y",))
    assert first_fiber(m, w, (3,)) == (0, 4)
    assert first_fiber(m, w, (4,)) is None
    with pytest.raises(ResourceLimitError, match="^map automaton: state budget"):
        map_automaton(g, sig1, ("x", "z"), ("y",), budget_states=2)


def ranked_maps():
    """(sig, map, its preimage ranks) of every test map with bound > 1."""
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
            m = map_automaton(rep.g, sig, rep.domain_vars, rep.image_vars)
            yield sig, rep, m, preimage_ranks(m, rep.bound).selectors(rep.bound)


def test_lex_ranks_match_enumeration():
    # the i-th rank holds exactly at the pairs g relates whose image has i
    # lexicographically smaller preimages; the compiled existential
    # projection of each rank agrees with the oracle's; the map's image is
    # the automaton compile publishes for ex xs. g, byte for byte
    checked = 0
    for sig, rep, m, ranks in ranked_maps():
        xs, ys = rep.domain_vars, rep.image_vars
        assert m.image().dump() == compile(exists_wrap(xs, rep.g), sig, ys).dump(), \
            render(rep.source)
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
    ranks = preimage_ranks(map_automaton(g, sig1, ("x",), ("y",)), 3).selectors(3)
    assert [r.tracks for r in ranks] == [2, 2, 2]
    # rank 0 is x at the first position: words of length 2 and more
    assert dfa_equivalent(project_mark(ranks[0]),
                          compile(parse("ex x. ex y. x < y", sig1), sig1))
    assert dfa_equivalent(minimize_dfa(ranks[0]), ranks[0])
    assert ranks[0].letter_name(0b111) == "P1*0*1"
    with pytest.raises(InputError):
        Run(ranks[0], ("x",))
    with pytest.raises(InputError):
        shortest_accepted(ranks[0])
    # the map's own automaton fits in 5 states, the count does not
    m = map_automaton(g, sig1, ("x",), ("y",), budget_states=5)
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
    # every automaton it publishes byte for byte
    dumps = []
    for sig, fo, f in formula_batch(404, 50):
        dfa = compile(f, sig, fo)
        dumps.append(dfa.dump())
        if dfa.marked:
            dumps.append(project_mark(dfa).dump())
    assert len(dumps) == 82
    digest = hashlib.sha1("\n".join(dumps).encode()).hexdigest()
    assert digest == "b93a6a6eb6d88fab603fa745f932f3c3a23a9d53"
