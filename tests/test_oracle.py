import ast
import gc
import hashlib
import io
import itertools
import tokenize
import weakref
from dataclasses import replace
from pathlib import Path
from types import CellType, SimpleNamespace

import pytest

from chainrep import compiler, growth, monoid, oracle, reparam
from chainrep.errors import InputError
from chainrep.formula import (And, ExistsFO, ForallFO, Pred, Run, Signature, map_subformulas,
                              parse)
from chainrep.interp import parse_interpretation, reduce_interpretation
from chainrep.oracle import (answered_words, check_canonical_form, check_reparameterization,
                             count_in_set, evaluate, satisfying_tuples)
from chainrep.randgen import formula_batch
from chainrep.reparam import minimal_reparameterization
from chainrep.words import Word, all_words, walk_length

from conftest import GROUP_TEXT, guard_batch
from test_acceptance import SPECS

# formulas with set quantifiers, evaluated on every assignment of their free
# variables
SO_BATTERY = (
    ("EX Z. all v. (Z(v) -> P1(v))", ()),
    ("EX Z. (Z(x) & all v. (Z(v) -> P1(v)))", ("x",)),
    ("EX Z. (Z(x) & ~Z(y))", ("x", "y")),
    ("ALL Z. (Z(x) -> Z(y))", ("x", "y")),
    ("ALL Z. ((Z(x) & all u. all v. ((Z(u) & u < v) -> Z(v))) -> Z(y))", ("x", "y")),
    ("EX X. ((~ex z. z < x) | (~ex z. x < z))", ("x",)),
)


def test_atoms(sig1):
    w = Word(sig1, (1, 0))
    assert evaluate(parse("P1(x)", sig1), w, fo={"x": 0})
    assert not evaluate(parse("P1(x)", sig1), w, fo={"x": 1})
    assert evaluate(parse("x < y", sig1), w, fo={"x": 0, "y": 1})
    assert evaluate(parse("x = y", sig1), w, fo={"x": 1, "y": 1})


def test_connectives(sig1):
    w = Word(sig1, (1, 0))
    env = {"x": 0, "y": 1}
    assert evaluate(parse("P1(x) & ~P1(y)", sig1), w, fo=env)
    assert evaluate(parse("P1(y) | P1(x)", sig1), w, fo=env)
    assert evaluate(parse("P1(y) -> P1(x)", sig1), w, fo=env)
    assert not evaluate(parse("P1(x) -> P1(y)", sig1), w, fo=env)


def test_fo_quantifiers(sig1):
    w = Word(sig1, (0, 1, 0))
    assert evaluate(parse("ex v. P1(v)", sig1), w)
    assert not evaluate(parse("all v. P1(v)", sig1), w)
    assert evaluate(parse("all v. P1(v)", sig1), Word(sig1, ()))
    assert not evaluate(parse("ex v. P1(v)", sig1), Word(sig1, ()))


def test_so_quantifiers(sig1):
    w = Word(sig1, (0, 0))
    # a set separating two distinct positions always exists
    f = parse("EX Z. (Z(x) & ~Z(y))", sig1)
    assert evaluate(f, w, fo={"x": 0, "y": 1})
    assert not evaluate(f, w, fo={"x": 1, "y": 1})
    g = parse("ALL Z. (Z(x) -> Z(y))", sig1)
    assert evaluate(g, w, fo={"x": 1, "y": 1})
    assert not evaluate(g, w, fo={"x": 0, "y": 1})


def test_so_assignment_bitmask(sig1):
    w = Word(sig1, (0, 0, 0))
    f = parse("Z(x)", sig1)
    assert evaluate(f, w, fo={"x": 2}, so={"Z": 0b100})
    assert not evaluate(f, w, fo={"x": 1}, so={"Z": 0b100})


def test_atleast(sig1):
    w = Word(sig1, (1, 0, 1))
    assert evaluate(parse("atleast 2 v. P1(v)", sig1), w)
    assert not evaluate(parse("atleast 3 v. P1(v)", sig1), w)
    assert evaluate(parse("atleast 0 v. P1(v)", sig1), Word(sig1, ()))


def test_unbound_and_range_errors(sig1):
    w = Word(sig1, (1,))
    with pytest.raises(InputError):
        evaluate(parse("P1(x)", sig1), w)
    with pytest.raises(InputError):
        evaluate(parse("P1(x)", sig1), w, fo={"x": 5})
    with pytest.raises(InputError):
        evaluate(parse("Z(x)", sig1), w, fo={"x": 0})


def test_satisfying_tuples_order(sig1):
    w = Word(sig1, (1, 0, 1))
    f = parse("x < y", sig1)
    assert satisfying_tuples(f, w) == [(0, 1), (0, 2), (1, 2)]
    # extra variables multiply the tuples; missing ones are an error
    assert len(satisfying_tuples(parse("P1(x)", sig1), w, ("x", "y"))) == 6
    with pytest.raises(InputError):
        satisfying_tuples(f, w, ("x",))
    with pytest.raises(InputError):
        satisfying_tuples(parse("Z(x)", sig1), w, ("x",))


def test_count_in_set(sig1):
    w = Word(sig1, (1, 1, 1, 1))
    f = parse("x < y", sig1)
    assert count_in_set(f, w, range(4)) == 6
    assert count_in_set(f, w, [0, 3]) == 1
    assert count_in_set(f, w, []) == 0
    assert count_in_set(f, w, [2, 2, 0]) == 1  # duplicates collapse
    with pytest.raises(InputError):
        count_in_set(f, w, [9])


def _by_product(f, word, variables, pool):
    """The definition the search must meet: every tuple over the pool, filtered."""
    return [t for t in itertools.product(pool, repeat=len(variables))
            if evaluate(f, word, dict(zip(variables, t)))]


def _cross_check(f, sig, variables, max_len):
    for word in all_words(sig, max_len):
        n = len(word)
        want = _by_product(f, word, variables, range(n))
        assert satisfying_tuples(f, word, variables) == want, (f, word, variables)
        for pool in (range(n), range(0, n, 2), ()):
            assert count_in_set(f, word, pool, variables) == \
                len(_by_product(f, word, variables, pool)), (f, word, variables, pool)


def test_search_matches_the_product_definition(sig1):
    # random formulas with their own variables, an extra name and a repeated
    # one; the batch holds sentences (no variables), and every word set
    # holds the empty word, on which only the empty tuple can exist
    for sig, fo, f in formula_batch(505, 60):
        lists = [fo, fo + ("w",), ("w",) + fo] + ([fo + fo[:1]] if fo else [])
        for variables in lists:
            _cross_check(f, sig, variables, 3)
    # the reduced specs' universes and rules, automaton leaves included
    for _, dim, text in SPECS:
        spec = reduce_interpretation(parse_interpretation(text), dim).spec
        for c in spec.components:
            _cross_check(c.universe, spec.signature, c.variables, 3)
        for rule in spec.rules:
            _cross_check(rule.formula, spec.signature, rule.variables, 3)


def test_ex_block_matches_the_product_definition(sig1):
    # ex v1 ... ex vk. body holds when some tuple satisfies the body, the
    # last of a repeated name winning; a leading unread name makes a loop
    # whose value no check reads
    for sig, fo, f in formula_batch(505, 60):
        for vs in {fo, ("w",) + fo, fo + fo[:1]} - {()}:
            block = f
            for v in reversed(vs):
                block = ExistsFO(v, block)
            for word in all_words(sig, 3):
                want = any(evaluate(f, word, dict(zip(vs, t)))
                           for t in itertools.product(range(len(word)), repeat=len(vs)))
                assert evaluate(block, word) is want, (block, word)


def test_search_keeps_the_first_error(sig1):
    # a conjunct is never tested ahead of one written before it, so an error
    # the formula would not reach is not raised
    w, empty = Word(sig1, (1, 0)), Word(sig1, ())
    late = parse("ex u. ex z. (u < z & P1(z) & v = v)", sig1)
    early = parse("ex u. ex z. (v = v & u < z & P1(z))", sig1)
    assert evaluate(late, w, fo={"v": 5}) is False
    with pytest.raises(InputError, match="position 5 of 'v' out of range"):
        evaluate(early, w, fo={"v": 5})
    assert evaluate(early, empty, fo={"v": 5}) is False
    # the same for the tuples of a conjunction, where v stays unassigned
    assert count_in_set(parse("x < y & P1(y) & v = v", sig1), w, range(2), ("x", "y")) == 0
    with pytest.raises(InputError, match="unbound variable 'v'"):
        count_in_set(parse("v = v & x < y & P1(y)", sig1), w, range(2), ("x", "y"))
    assert count_in_set(parse("v = v & x < y", sig1), w, (), ("x", "y")) == 0
    # y < y fails below x = 0 and reads no x, so no x can have a tuple, but
    # x = 1 still runs its own check, which reaches v
    spent = "(P1(x) | v = v) & y < y"
    with pytest.raises(InputError, match="position 5 of 'v' out of range"):
        evaluate(parse(f"ex x. ex y. ({spent})", sig1), w, fo={"v": 5})
    with pytest.raises(InputError, match="unbound variable 'v'"):
        count_in_set(parse(spent, sig1), w, range(2), ("x", "y"))


# an atom on variables that the formula does not bind reads them directly
# and falls back to the full check only when one is missing or out of
# range: the message, and the variable it names first, stay the same.
# The inputs: x missing, y missing, x out of range, a negative position
# and both variables bad
_PAIR = ({"y": 0}, {"x": 0}, {"x": 2, "y": 0}, {"x": 1, "y": -1}, {"x": -2, "y": 5})
_PAIR_ERRORS = ("unbound variable 'x'", "unbound variable 'y'",
                "position 2 of 'x' out of range", "position -1 of 'y' out of range",
                "position -2 of 'x' out of range")
_ATOM_CASES = {
    "x < y": (_PAIR, _PAIR_ERRORS),
    "x = y": (_PAIR, _PAIR_ERRORS),
    "P1(x)": (_PAIR[:3] + ({"x": -1, "y": 0},) + _PAIR[4:],
              ("unbound variable 'x'", True, "position 2 of 'x' out of range",
               "position -1 of 'x' out of range", "position -2 of 'x' out of range")),
}


@pytest.mark.parametrize("text", sorted(_ATOM_CASES))
@pytest.mark.parametrize("case", range(5))
def test_free_atoms_keep_their_errors(sig1, text, case):
    f = parse(text, sig1)
    fo, want = (column[case] for column in _ATOM_CASES[text])
    if want is True:
        assert evaluate(f, Word(sig1, (1, 0)), fo=fo) is True
    else:
        with pytest.raises(InputError, match=f"^{want}$"):
            evaluate(f, Word(sig1, (1, 0)), fo=fo)


@pytest.mark.parametrize("text", sorted(_ATOM_CASES))
def test_free_atoms_keep_their_errors_in_a_count(sig1, text):
    # a search binds only positions of the word, so here a variable can
    # only be missing: searching y leaves x unbound, and x leaves y
    w = Word(sig1, (1, 0))
    f = parse(text, sig1)
    for variables in (("y",), ()):
        with pytest.raises(InputError, match="^unbound variable 'x'$"):
            count_in_set(f, w, range(2), variables)
    if text == "P1(x)":
        assert count_in_set(f, w, range(2), ("x",)) == 1
    else:
        with pytest.raises(InputError, match="^unbound variable 'y'$"):
            count_in_set(f, w, range(2), ("x",))


def test_a_level_tests_its_conjuncts_in_order(sig1):
    # the three conjuncts share one level; the second raises, and only
    # once the first has passed
    count = parse("P1(x) & v = v & x = x", sig1)
    assert count_in_set(count, Word(sig1, (0, 0)), range(2), ("x",)) == 0
    with pytest.raises(InputError, match="^unbound variable 'v'$"):
        count_in_set(count, Word(sig1, (0, 1)), range(2), ("x",))
    block = parse("ex x. ex y. (x < y & v = v & P1(y))", sig1)
    assert evaluate(block, Word(sig1, (1,)), fo={"v": 5}) is False
    with pytest.raises(InputError, match="^position 5 of 'v' out of range$"):
        evaluate(block, Word(sig1, (0, 0)), fo={"v": 5})


def _vacuous_answer(kind, count, body, n):
    """The truth of `kind z. body` on n positions, z not in body, by hand."""
    if kind == "ex":
        return n > 0 and body
    if kind == "all":
        return n == 0 or body
    return (n >= count and body) or count <= 0


@pytest.mark.parametrize("kind", ["ex", "all"] + [f"atleast {c}" for c in range(4)])
def test_vacuous_quantifiers(sig1, kind):
    # the body does not read z, so it holds for all values or for none
    count = int(kind.split()[1]) if kind.startswith("atleast") else 1
    for n in range(4):
        w = Word(sig1, (1,) * n)
        for body in ("true", "false"):
            want = _vacuous_answer(kind.split()[0], count, body == "true", n)
            assert evaluate(parse(f"{kind} z. {body}", sig1), w) is want, (kind, body, n)
        # a body on a free variable: every labelled position, or none
        got = satisfying_tuples(parse(f"{kind} z. P1(x)", sig1), w, ("x",))
        want = _vacuous_answer(kind.split()[0], count, True, n)
        assert got == ([(p,) for p in range(n)] if want else []), (kind, n)


def test_vacuous_quantifiers_keep_their_errors_lazy(sig1):
    # the body runs only when some position exists, as in the loop: v out of
    # range is reached on a nonempty word alone
    empty, one = Word(sig1, ()), Word(sig1, (0,))
    two, zero = parse("atleast 2 z. v = v", sig1), parse("atleast 0 z. v = v", sig1)
    assert evaluate(two, empty, fo={"v": 5}) is False
    assert evaluate(zero, empty, fo={"v": 5}) is True
    for f in (two, zero):
        with pytest.raises(InputError, match="^position 5 of 'v' out of range$"):
            evaluate(f, one, fo={"v": 5})
        # an unbound v is reported first by the quantifier's memo, on every word
        for w in (empty, one):
            with pytest.raises(InputError, match="^unbound variable 'v'$"):
                evaluate(f, w)


def test_a_vacuous_quantifier_keeps_the_error_order(sig2):
    # the body runs only when some position exists: a search over x finds
    # none on the empty word, so nothing reads the unbound y there
    f = parse("ex q. y < x", sig2)
    assert count_in_set(f, Word(sig2, ()), (), ("x",)) == 0
    for letters in ((0,), (1, 2)):
        w = Word(sig2, letters)
        with pytest.raises(InputError, match="^unbound variable 'y'$"):
            count_in_set(f, w, range(len(w)), ("x",))
    # evaluated as a whole, the quantifier's memo reports y on every word
    for letters in ((), (0,)):
        with pytest.raises(InputError, match="^unbound variable 'y'$"):
            evaluate(f, Word(sig2, letters), fo={"x": 0})


class _CountedStates(frozenset):
    """Accepting states that count the runs asking about them."""

    runs = 0

    def __contains__(self, q):
        type(self).runs += 1
        return frozenset.__contains__(self, q)


def test_a_node_reading_fewer_labels_keeps_its_memo_across_words(sig2):
    # all z. Run(every, (x, z)) reads no label while the formula reads both:
    # its memo, keyed by the projection onto no label, lasts over the words
    # of one length, so on all 256 words of length 4 its body runs once per
    # value of (x, z)
    _CountedStates.runs = 0
    every = compiler.Dfa(sig2, True, 0, ((0,) * 16,), _CountedStates({0}), tracks=2)
    f = And((Pred("P1", "x"), Pred("P2", "y"), ForallFO("z", Run(every, ("x", "z")))))
    plain = parse("P1(x) & P2(y)", sig2)
    words = [w for w in all_words(sig2, 4) if len(w) == 4]
    assert len(words) == 256
    for w in words:
        assert satisfying_tuples(f, w, ("x", "y")) == satisfying_tuples(plain, w, ("x", "y"))
    assert _CountedStates.runs == 4 * 4


def _rep_with(text, **changes):
    """The map of text over P1, with fields replaced; h is given as text."""
    sig = Signature(("P1",))
    rep = minimal_reparameterization(parse(text, sig), sig)
    if "h" in changes:
        changes["h"] = parse(changes["h"], sig)
    return replace(rep, **changes)


# every position's image is the last one when the first position is
# labelled and the last is not, else each position is its own image
_FIRST_NOT_LAST = "((ex z. (P1(z) & ~ex w. w < z)) & ~ex z. (P1(z) & ~ex w. z < w))"
_COLLAPSE = f"({_FIRST_NOT_LAST} & ~ex w. y0 < w) | (~{_FIRST_NOT_LAST} & y0 = x)"


def _g_without_its_source():
    # a real map has g = source & h; this stand-in's g does not imply its source
    sig = Signature(("P1",))
    return SimpleNamespace(source=parse("P1(x)", sig), g=parse("y0 = x", sig),
                           signature=sig, domain_vars=("x",), image_vars=("y0",), bound=1)


@pytest.mark.parametrize("check, rep, failure", [
    (check_reparameterization, _g_without_its_source,
     "word [.]: g holds at (0,) + (0,) but the source fails at (0,)"),
    (check_reparameterization, lambda: _rep_with("P1(x)", h="y0 = x & ~P1(y0)"),
     "word [P1]: no image tuple for (0,)"),
    (check_reparameterization, lambda: _rep_with("P1(x)", h="y0 = y0"),
     "word [., P1]: 2 image tuples for (1,)"),
    (check_canonical_form, lambda: _rep_with("P1(x)", h="y0 < x"),
     "word [., P1]: image (0,) of (1,) uses positions [0] outside the tuple"),
    (check_reparameterization, lambda: _rep_with("(~ex q. q < x) | (~ex q. x < q)", bound=1),
     "word [., .]: image () has 2 preimages, bound is 1"),
    # the failing word [P1, .] has the answer-list lengths of the earlier,
    # passing [., .] (or [P1]), so a check that remembered the lengths it
    # had decided, not the lists, would skip it
    (check_reparameterization, lambda: _rep_with("x = x", bound=1, h=_COLLAPSE),
     "word [P1, .]: image (1,) has 2 preimages, bound is 1"),
    (check_canonical_form, lambda: _rep_with("P1(x)", h="~ex z. y0 < z"),
     "word [P1, .]: image (1,) of (0,) uses positions [1] outside the tuple"),
], ids=["source-fails", "no-image", "two-images", "stray-position", "over-bound",
        "late-over-bound", "late-stray-position"])
def test_checks_report_each_failure(check, rep, failure):
    rep = rep()
    report = check(rep, 3)
    assert not report
    assert report.failure == failure
    # words_checked is the failing word's position in shortlex order
    words = [f"word {w}:" for w in all_words(rep.signature, 3)]
    assert report.words_checked == words.index(failure[:failure.index(":") + 1]) + 1


def _leaves(f):
    found = []

    def collect(node):
        if isinstance(node, Run):
            found.append(node)
        map_subformulas(node, lambda g: collect(g) or g)

    collect(f)
    return found


def _reference_answer(f, word, variables):
    # evaluate on every tuple of positions, in lex order: no answer memo
    # takes part
    assert len(set(variables)) == len(variables)
    return [t for t in itertools.product(range(len(word)), repeat=len(variables))
            if evaluate(f, word, dict(zip(variables, t)))]


def test_projected_answers_are_the_answers_on_each_word(sig1, sig2):
    # answered_words shares an answer between words that agree on every
    # label its formula reads, and satisfying_tuples reads the same memo;
    # each shared answer must be the one evaluate finds on the word itself,
    # and each distinct list comes once, with the first word of all_words
    # that has it and that word's position
    questions = {sig1: [], sig2: []}
    for sig, fo, f in formula_batch(1, 150):
        questions[sig].append((f, fo))
    for sig in (sig1, sig2):
        rep = minimal_reparameterization(parse(GROUP_TEXT, sig), sig, ("x", "y"))
        assert _leaves(rep.g)
        questions[sig].append((rep.g, rep.domain_vars + rep.image_vars))
    questions[sig2].append((parse("x < y & ~ex z. (x < z & z < y)", sig2), ("x", "y")))
    # guard maps whose leaves read fewer labels than all: some read none,
    # some over P1 P2 read P2 alone
    leaf_reads = set()
    for sig, xs, f in guard_batch(8, 131):
        rep = minimal_reparameterization(f, sig, xs)
        leaves = _leaves(rep.g)
        if leaves:
            questions[sig].append((rep.g, rep.domain_vars + rep.image_vars))
            leaf_reads |= {(sig.k, oracle._program(leaf, sig).reads) for leaf in leaves}
    assert {(1, 0), (2, 0b10)} <= leaf_reads
    assert [len(questions[sig]) for sig in (sig1, sig2)] == [90, 70]
    # every question at once, and the last alone, whose lists repeat
    repeats = 0
    for sig, asked in questions.items():
        for asked in (asked, asked[-1:]):
            first = {}
            for walked, word in enumerate(all_words(sig, 4), 1):
                want = [_reference_answer(f, word, fo) for f, fo in asked]
                first.setdefault(tuple(map(tuple, want)), (walked, word, want))
            handed = list(answered_words(sig, 4, asked))
            assert handed == list(first.values())
            repeats += walk_length(sig, 4) - len(handed)
    assert repeats > 0


def test_the_answer_memo_keeps_one_length_per_variable_list(sig2):
    # a formula that reads P1 alone keeps one answer per projection onto P1
    # of the last length asked, 2^6 of the 4^6 words; one that reads every
    # label keeps the last word's alone
    f = parse("ex z. (x < z & P1(z))", sig2)
    every = parse("P1(x) & ~P2(x)", sig2)
    for word in all_words(sig2, 6):
        satisfying_tuples(f, word, ("x",))
        satisfying_tuples(every, word)
    answers = oracle._program(f, sig2).answers
    assert answers.keys() == {("x",)}
    table = answers[("x",)]
    assert {len(key) for key in table} == {6} and len(table) == 2 ** 6
    assert oracle._program(every, sig2).answers == {("x",): {word.letters: []}}
    # the caller's list is its own: mutating it changes no later answer
    w = Word(sig2, (1, 2, 1))
    for _ in range(2):
        got = satisfying_tuples(f, w, ("x",))
        assert got == [(0,), (1,)]
        got.append((2,))
    assert list(oracle._program(f, sig2).answers[("x",)]) == [(1, 0, 1)]


def _node_tables(f, sig):
    """The tables of f's memoized nodes, found through the closures that
    its program's plans reach."""
    tables, seen = [], set()
    todo = list(oracle._program(f, sig).search.__closure__)
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, CellType):
            todo.append(item.cell_contents)
        elif callable(item) and getattr(item, "__closure__", None):
            names = item.__code__.co_freevars
            tables += [c.cell_contents for name, c in zip(names, item.__closure__) if name == "table"]
            todo += item.__closure__
        elif isinstance(item, (list, tuple)):
            todo += item
        elif isinstance(item, dict):
            todo += item.values()
    return tables


def test_a_label_free_question_is_asked_on_one_word_per_length(sig2, monkeypatch):
    # x < y reads no label, so each word has the answers of the word of its
    # length that carries none: the walk builds that word alone, 7 words
    # where all_words has 5,461
    built = []

    def word(sig, letters=()):
        built.append(letters)
        return Word(sig, letters)

    monkeypatch.setattr(oracle, "Word", word)
    handed = list(answered_words(sig2, 6, [(parse("x < y", sig2), ("x", "y"))]))
    assert built == [(0,) * n for n in range(7)]
    # lengths 0 and 1 share the empty list; each longer length brings a new one
    assert [(walked, len(w)) for walked, w, _ in handed] == \
        [(1, 0), (6, 2), (22, 3), (86, 4), (342, 5), (1366, 6)]


def test_checks_report_every_word_of_a_long_label_free_walk(sig2):
    # a map that reads no label checks one word per length, yet reports
    # every word up to length 12 over P1, P2: (4^13 - 1) / 3 of them
    rep = minimal_reparameterization(parse("x<y & y<z", sig2), sig2, ("x", "y", "z"))
    for check in (check_reparameterization, check_canonical_form):
        report = check(rep, 12)
        assert report.ok and report.words_checked == 22_369_621


def test_a_node_table_keeps_the_last_length(sig2):
    # after a walk to length 6, a quantifier that reads P1 alone keeps one
    # entry per projection onto P1 of the words of length 6, and one that
    # reads both labels the last word's alone
    f = parse("(ex z. (x < z & P1(z))) & ex z. (z < x & P1(z) & P2(z))", sig2)
    for _ in answered_words(sig2, 6, [(f, ("x",))]):
        pass
    *_, last = all_words(sig2, 6)
    # the walk's search runs the program's one closure tree: one table per
    # quantifier
    tables = [table for table in _node_tables(f, sig2) if table]
    assert sorted(len(table) for table in tables) == [1, 2 ** 6]
    assert all(len(key) == 6 for table in tables for key in table)
    assert [list(table) for table in tables if len(table) == 1] == [[last.letters]]


def test_every_question_shares_one_table_per_node(sig2):
    # two searches over different variables and an evaluate run the same
    # closures, so the formula's two quantifiers keep one table each
    f = parse("(ex z. (x < z & P1(z))) & ex z. (z < x & P1(z) & P2(z))", sig2)
    w = Word(sig2, (3, 1, 3))
    assert satisfying_tuples(f, w, ("x",)) == [(1,)]
    assert len(satisfying_tuples(f, w, ("x", "y"))) == 3
    assert evaluate(f, w, {"x": 1})
    tables = _node_tables(f, sig2)
    assert len(tables) == 2 and all(tables)


def test_shared_tables_keep_answers_and_errors_in_any_order():
    # evaluate reads the tables a search fills: before and after the search,
    # every marking, and one with the last variable unbound or past the
    # end, gets the answer or the error of a program compiled for it alone
    def outcome(run, f, word, fo):
        try:
            return run(f, word, fo)
        except InputError as e:
            return str(e)

    def fresh(f, word, fo):
        return oracle._compile(f, word.sig).search(word, (), None, dict(fo), {}) > 0

    errors = set()
    for sig, fo, f in formula_batch(505, 50):
        for word in all_words(sig, 3):
            markings = [dict(zip(fo, tup))
                        for tup in itertools.product(range(len(word)), repeat=len(fo))]
            if fo:
                markings += [dict.fromkeys(fo[:-1], 0), {**dict.fromkeys(fo, 0), fo[-1]: len(word)}]
            want = [outcome(fresh, f, word, m) for m in markings]
            assert [outcome(evaluate, f, word, m) for m in markings] == want
            satisfying_tuples(f, word, fo)
            assert [outcome(evaluate, f, word, m) for m in markings] == want
            errors |= {x.split()[0] for x in want if isinstance(x, str)}
    assert errors == {"unbound", "position"}


def test_reads_are_the_labels_the_closures_read(sig1, sig2):
    def reads(text_or_formula, sig):
        f = parse(text_or_formula, sig) if isinstance(text_or_formula, str) else text_or_formula
        return oracle._program(f, sig).reads

    # P2 only under a quantifier is still read
    assert reads("ex z. (x < z & P2(z))", sig2) == 0b10
    assert reads("x < y", sig2) == 0
    assert reads("P1(x) | ~P2(y)", sig2) == 0b11
    # an automaton leaf reads the labels its transition table tells apart:
    # the guard map's leaves test endpoints only, so it reads none
    rep = minimal_reparameterization(parse(GROUP_TEXT, sig2), sig2, ("x", "y"))
    assert _leaves(rep.g)
    assert reads(rep.source, sig2) == 0
    assert reads(rep.g, sig2) == 0
    # a leaf that checks P1 at its marked position reads P1 and not P2, and
    # one that checks P2 between its marks reads P2
    at_mark = compiler.compile(parse("P1(x)", sig2), sig2, ("x",))
    assert reads(Run(at_mark, ("x",)), sig2) == 0b01
    between = compiler.compile(parse("ex z. (x < z & z < y & P2(z))", sig2), sig2, ("x", "y"))
    assert reads(Run(between, ("x", "y")), sig2) == 0b10
    # a leaf over another signature, which raises when it is read, reads all
    assert reads(Run(compiler.compile(parse("P1(x)", sig1), sig1, ("x",)), ("x",)), sig2) == 0b11
    # and an unknown predicate, which raises when it is read, keeps no memo
    assert reads(Pred("P3", "x"), sig2) == 0b11
    assert reads("P1(x)", sig1) == 0b1


def test_both_routes_refuse_foreign_input_alike(sig1, sig2):
    # compile refuses when it builds the input; the oracle when a search
    # reads it, so it is asked on a nonempty word
    foreign = Run(compiler.compile(parse("P1(x)", sig2), sig2, ("x",)), ("x",))
    word = Word(sig1, (1,))
    for f, message in ((Pred("P2", "x"), "unknown predicate 'P2'"),
                       (foreign, "automaton leaf is over another signature")):
        for call in (lambda: compiler.compile(f, sig1, ("x",)),
                     lambda: evaluate(f, word, fo={"x": 0}),
                     lambda: satisfying_tuples(f, word, ("x",))):
            with pytest.raises(InputError) as refused:
                call()
            assert str(refused.value) == message


def test_a_check_asks_each_question_once_per_projection(monkeypatch):
    # the ordered pair's source and map read no label, so each is asked once
    # per length: 2 x 5 calls at max_len 4, where every word would take 2 x 31
    calls = []
    real = oracle._answer

    def counted(prog, word, variables):
        calls.append((id(prog), len(word), variables))
        return real(prog, word, variables)

    monkeypatch.setattr(oracle, "_answer", counted)
    sig = Signature(("P1",))
    rep = minimal_reparameterization(parse("x < y", sig), sig, ("x", "y"))
    report = check_reparameterization(rep, 4)
    assert (report.ok, report.words_checked) == (True, 31)
    assert (len(calls), len(set(calls))) == (10, 10)
    calls.clear()
    assert check_canonical_form(rep, 4).words_checked == 31
    assert (len(calls), len(set(calls))) == (5, 5)


def test_a_cached_plan_keeps_the_free_variable_check(sig1):
    # count_in_set searches y alone and leaves x to raise; the plan it
    # caches for ("y",) must not spare satisfying_tuples its own check
    w = Word(sig1, (1, 0))
    f = parse("x < y", sig1)
    with pytest.raises(InputError, match="^unbound variable 'x'$"):
        count_in_set(f, w, range(2), ("y",))
    with pytest.raises(InputError, match=r"^unassigned free variables \['x'\]$"):
        satisfying_tuples(f, w, ("y",))


def test_memoization_respects_scope(sig1):
    # same subformula object under different outer assignments
    w = Word(sig1, (1, 0, 0, 1))
    f = parse("ex v. (v < x & P1(v))", sig1)
    got = [evaluate(f, w, fo={"x": p}) for p in range(4)]
    assert got == [False, True, True, True]
    tuples = satisfying_tuples(f, w, ("x",))
    assert [t[0] for t in tuples] == [1, 2, 3]


def test_oracle_answers_are_pinned(sig1):
    # the hash of the answers of the uncompiled tree-walking evaluator: the
    # compiled one must answer every call exactly as it did
    lines = []
    for sig, fo, f in formula_batch(505, 60):
        for word in all_words(sig, 3):
            lines.append(repr(satisfying_tuples(f, word, fo)))
    for text, fo in SO_BATTERY:
        f = parse(text, sig1)
        for word in all_words(sig1, 4):
            for tup in itertools.product(range(len(word)), repeat=len(fo)):
                lines.append(repr(evaluate(f, word, dict(zip(fo, tup)))))
    rep = minimal_reparameterization(parse(GROUP_TEXT, sig1), sig1, ("x", "y"))
    for word in all_words(sig1, 4):
        lines.append(repr(satisfying_tuples(rep.g, word,
                                            rep.domain_vars + rep.image_vars)))
    assert len(lines) == 4156
    digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    assert digest == "6aa725dd8e1704e804c4b07a38e01cd3eb8df85b"


def test_errors_stay_lazy(sig1):
    f = parse("P1(x) | P1(y)", sig1)
    w = Word(sig1, (1, 0))
    assert evaluate(f, w, fo={"x": 0})
    with pytest.raises(InputError, match="unbound variable 'y'"):
        evaluate(f, w, fo={"x": 1})


def test_shadowed_variable_is_restored(sig1):
    w = Word(sig1, (1, 0, 1))
    # a single quantifier, and two nested ones
    for text in ("(ex x. ~P1(x)) & P1(x)", "(ex x. ex y. (x < y & ~P1(x))) & P1(x)"):
        f = parse(text, sig1)
        assert [evaluate(f, w, fo={"x": p}) for p in range(3)] == [True, False, True]
        assert satisfying_tuples(f, w) == [(0,), (2,)]


def test_quantifiers_on_the_empty_word_keep_the_environment(sig1):
    empty = Word(sig1, ())
    fo, so = {"v": 7}, {"Z": 1}
    # had a quantifier dropped v, the atom would report it unbound
    with pytest.raises(InputError, match="position 7 of 'v' out of range"):
        evaluate(parse("(all v. P1(v)) & v = v", sig1), empty, fo=fo)
    with pytest.raises(InputError, match="unbound variable 'v'"):
        evaluate(parse("(all v. P1(v)) & v = v", sig1), empty)
    with pytest.raises(InputError, match="position 7 of 'v' out of range"):
        evaluate(parse("(~ex v. ex u. (P1(v) & u = u)) & v = v", sig1), empty, fo=fo)
    assert evaluate(parse("(ALL Z. ~ex v. Z(v)) & ~ex v. Z(v)", sig1), empty,
                    fo=fo, so=so)
    assert fo == {"v": 7} and so == {"Z": 1}


def test_one_formula_on_words_of_changing_length(sig1):
    # a memo left over from the previous word would answer for this one
    texts = ("ex z. (x < z & P1(z)) & all z. (z < x -> ~P1(z))",
             "all z. (P1(z) -> ex y. (z < y & ~P1(y)))")
    kept = [parse(text, sig1) for text in texts]
    for letters in ((1, 0, 1), (), (1,), (0, 1, 1)):
        w = Word(sig1, letters)
        for f, text in zip(kept, texts):
            assert satisfying_tuples(f, w) == satisfying_tuples(parse(text, sig1), w)


def test_program_lives_as_long_as_its_formula(sig1):
    w = Word(sig1, (0, 0, 1))
    cases = (("ex z. (x < z & P1(z))", [(None, [(0,), (1,)])]),
             # an ex block over a conjunction, asked with two variable lists
             ("ex u. ex z. (x < u & u < z & P1(z))",
              [(("x",), [(0,)]), (("x", "y"), [(0, 0), (0, 1), (0, 2)])]))
    for text, queries in cases:
        gc.collect()
        before = len(oracle._PROGRAMS)
        f = parse(text, sig1)
        for variables, want in queries:
            assert satisfying_tuples(f, w, variables) == want
        assert len(oracle._PROGRAMS) == before + 1
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None
        assert len(oracle._PROGRAMS) == before


def test_oracle_never_imports_the_compiler():
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module in ("formula", "words", "errors"), node.module
            else:
                assert not node.module.startswith("chainrep"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("chainrep") for a in node.names)


def _code_lines(source):
    """The lines of source that hold code: not blank, not only a comment,
    and not in a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstrings


def test_the_oracle_stays_a_small_reference():
    # the oracle is the naive route that every answer of the pipeline is
    # checked against; its code may shrink but not grow past this count
    sample = 'x = 1\n\n# note\ndef f():\n    """doc"""\n    return (1,\n            2)\n'
    assert sorted(_code_lines(sample)) == [1, 4, 6, 7]
    assert len(_code_lines(Path(oracle.__file__).read_text())) <= 379


def _oracle_imports(module):
    """The names a module imports from the oracle, "oracle" for the module."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracle":
                names |= {a.name for a in node.names}
            elif any(a.name == "oracle" for a in node.names):
                names.add("oracle")
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "oracle" for a in node.names):
                names.add("oracle")
    return names


def test_pipeline_never_imports_the_oracle():
    for module in (compiler, monoid, reparam):
        assert not _oracle_imports(module), module.__name__
    # growth counts by enumeration in brute_growth and in each witness's
    # oracle_count(); its witnesses themselves come from the automata
    assert _oracle_imports(growth) == {"answered_words", "count_in_set"}
    # and every witness, dimension 0 included, from the map's automaton;
    # reparam's guard tables go through the builder, not its private _Auto
    imported = {growth: {}, reparam: {}}
    for module, names in imported.items():
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                names.setdefault(node.module, set()).update(a.name for a in node.names)
    assert imported[growth]["compiler"] == {"DEFAULT_STATE_BUDGET", "Query", "first_fiber"}
    assert "order_case_split" not in set().union(*imported[growth].values())
    assert "_Auto" not in imported[reparam]["compiler"]
