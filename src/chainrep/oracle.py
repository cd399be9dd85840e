"""Direct evaluation of formulas on words, by recursion over the syntax.

This module is the reference semantics.  It deliberately shares no machinery
with the automaton pipeline: quantifiers loop over positions, set quantifiers
loop over subset bitmasks, and the counting quantifier counts.  Everything
else in the package is tested against it.

Each formula object is compiled once per signature into a tree of closures,
one per node, which every later call runs directly (Feeley and Lapalme,
"Using closures for code generation", Computer Languages 1987).  The
compiled program is found by the formula's id and lives exactly as long as
the formula.  Every public call is one search through it: load the word
and search; `evaluate` is the search over no variables, under the
caller's assignments.  Quantifiers update the variable environment in
place and restore it.

A formula's truth on a word depends only on the word's length and on the
labels the formula reads (the coincidence lemma; Ebbinghaus and Flum,
"Finite Model Theory", 1995), and the oracle keeps one memo on that
ground.  Each quantifier, each automaton leaf and each question, a
(formula, variables) pair, owns a table keyed by the word's projection
onto the labels it reads.  A node's entry maps the values of its free
variables to its truth; a question's entry is its list of satisfying
tuples.  A table holds one word length: a key of another length empties
it, and so does every new key of a table whose projection is the whole
word, which no other word shares (`_keep`).  So words that agree on what
a node or a question reads share its answer, within a call and across
calls, and a sweep that asks word after word in shortlex order, as the
keystone cross-validation does, searches once per projection.  The tables
outlast the call, so one formula object is evaluated by one call at a
time: the oracle is single-threaded.

An automaton leaf Run(dfa, vars), which the pipeline puts into the maps and
selectors it builds, is evaluated by reading the word through the leaf's own
transition table with the positions of vars marked, on one shared mark bit
or on one track per variable, as the automaton reads them.
Nothing of the compiler is used for that: the leaf's automaton is part of
the map under test, so a wrong one still fails the checks below.

Tuples are enumerated by one search, `_search`, which `satisfying_tuples`
and `count_in_set` share.  It runs one loop per variable, in lexicographic
order.  The loops of a plan are compiled once into a nest of closures, one
per variable, each calling the next for every value that passes its
tests; the innermost counts the tuples or appends them.  Each conjunct of
the flattened body is tested at the loop that binds the last of its
variables, so a failed conjunct prunes every tuple that extends the prefix
(selection pushdown in nested-loop evaluation; Ullman, "Principles of
Database and Knowledge-Base Systems", 1988).  The levels only grow in
written order: no conjunct is tested ahead of one written before it.  The
conjuncts of each tuple are therefore tried in the same order as by
evaluating the whole formula on it, which keeps the answers, their order
and the first error.  The conjuncts of one level are fused into one
closure, so a candidate value costs one call.

The plan of a search is built once per list of variables searched, over
the program's one tree of closures, which `evaluate` runs too: each
quantifier and each automaton leaf is one closure with one table, whatever
question reaches it.  An atom reads its variables' values directly and
range-checks them; only when one is missing or out of range does it take
the slow path, which raises for the first variable read.

`satisfying_tuples` reads and fills its question's table and hands the
caller a copy.  The checks ask their questions through `answered_words`,
which walks the words up to a length and reads the same tables.  The
labels a node reads are gathered while its closures are compiled: a
predicate reads its label, an automaton leaf the labels its transition
table tells apart (the bits b for which some row sends letters a and
a ^ (1 << b) to different states), and an unknown predicate or a leaf
over another signature every label; a quantifier or a formula reads what
its parts read.  A question that reads every label is thus asked on
every word.  The projection comes from the syntax and from the leaf's
table read as data, as the leaf's evaluation reads it, so the oracle
still shares no code with the compiler.  A check's verdict on a word
depends only on its answer list, so `answered_words` hands out each
distinct list, compared by value, once, with the position of its first
word in shortlex order; the checks report that position.  A word has the
answers of its projection onto the labels its questions read, a word of
the same length that comes no later, so the walk visits only the words
whose letters carry no other label: a question that reads no label is
asked on one word of each length.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from operator import eq, itemgetter, lt
from typing import Callable, NamedTuple

from .errors import InputError
from .formula import (AtLeast, And, Const, Equal, ExistsFO, ExistsSO, ForallFO,
                      ForallSO, Formula, Implies, In, Less, Not, Or, Pred,
                      Run, Signature, check_depth, conjuncts)
from .words import Word, walk_length


def evaluate(f: Formula, word: Word, fo: dict[str, int] | None = None,
             so: dict[str, int] | None = None) -> bool:
    """Truth of f on the word under the given assignments.

    fo maps first-order variables to positions, so maps set variables to
    subset bitmasks (bit p set when position p is in the set).
    """
    return _program(f, word.sig).search(word, (), None, dict(fo or {}), dict(so or {})) > 0


def _pos(env, v, n):
    try:
        p = env[v]
    except KeyError:
        raise InputError(f"unbound variable {v!r}") from None
    if not 0 <= p < n:
        raise InputError(f"position {p} of {v!r} out of range")
    return p


_UNSET = object()
# id(formula) -> its _Program; weakref.finalize drops the entry with the formula
_PROGRAMS: dict[int, "_Program"] = {}


class _Program(NamedTuple):
    """A formula compiled for words over one signature.

    fo_vars and so_vars are the formula's free variables in order of first
    occurrence.  reads holds the bit of every label the closures read:
    each predicate's, the bits an automaton leaf's transition table tells
    apart, or all of them for an unknown predicate or a leaf over another
    signature.  search(word, variables, values, fo, so, out=None) -> int
    runs _search over the variables on the values, or on the word's
    positions when values is None, under the assignments fo and so,
    building the variables' plan over the one closure tree the first time
    they are searched; over no variables it is 1 when the formula holds
    and 0 when not.  Every plan runs the same quantifier and automaton
    leaf closures, so each has one table; each call loads the word, and
    each such closure finds its table's entry for the word's projection.

    answers maps each variable list that satisfying_tuples has found to
    cover fo_vars to its question's table: projection of the word onto
    reads -> satisfying tuples, for one word length (_keep).
    satisfying_tuples and answered_words read and fill it.
    """

    sig: Signature
    fo_vars: tuple[str, ...]
    so_vars: tuple[str, ...]
    reads: int
    search: Callable
    answers: dict[tuple[str, ...], dict[tuple[int, ...], list]]


def _program(f: Formula, sig: Signature) -> _Program:
    prog = _PROGRAMS.get(id(f))
    if prog is not None and (prog.sig is sig or prog.sig == sig):
        return prog
    # the operands of a top-level And are compiled by a loop, so only each
    # operand's own nesting counts
    for part in f.parts if isinstance(f, And) else (f,):
        check_depth(part, "oracle")
    new = _compile(f, sig)
    if prog is None:
        weakref.finalize(f, _PROGRAMS.pop, id(f), None)
    _PROGRAMS[id(f)] = new
    return new


def _compile(f: Formula, sig: Signature) -> _Program:
    """Compile f into closures fn(fo, so) -> bool.

    The closures capture node fields, never a node, so the program does not
    keep its formula alive.  They are built once, and every plan runs the
    same tree.  The closures read the word's letters from this frame, which
    search() sets for each public call.
    """
    every = (1 << sig.k) - 1
    reads = 0
    letters: tuple[int, ...] = ()
    n = 0
    positions = range(0)
    # variables searched -> their _levels over top
    plans: dict[tuple[str, ...], tuple[Callable | None, Callable | None, int]] = {}

    def search(word, variables, values, fo, so, out=None):
        nonlocal letters, n, positions
        plan = plans.get(variables)
        if plan is None:
            plan = plans[variables] = _levels(variables, top)
        letters = word.letters
        n = len(letters)
        positions = range(n)
        return _search(plan, positions if values is None else values, fo, so, out)

    def memoized(compute, fo_vars, so_vars, node_reads):
        # a subformula's truth depends only on the values of its own free
        # variables, on the word's length and on the labels it reads, so
        # repeated assignments (as in satisfying_tuples, which varies every
        # variable while a quantifier reads few of them) are computed once
        # per projection of the word onto those labels
        fo_key = itemgetter(*fo_vars) if fo_vars else lambda fo: ()
        so_key = itemgetter(*so_vars) if so_vars else None
        table: dict[tuple[int, ...], dict] = {}
        whole = node_reads == every
        entry: dict = {}
        seen: tuple[int, ...] | None = None

        def fn(fo, so):
            nonlocal entry, seen
            try:
                key = fo_key(fo) if so_key is None else (fo_key(fo), so_key(so))
            except KeyError as e:
                raise InputError(f"unbound variable {e.args[0]!r}") from None
            if seen is not letters:
                # first use on this word: find its entry (seen holds the
                # letters, so no other word can come with the same object)
                seen = letters
                projection = letters if whole else tuple([a & node_reads for a in letters])
                entry = table.get(projection)
                if entry is None:
                    entry = _keep(table, projection, {}, whole)
            hit = entry.get(key)
            if hit is None:
                hit = entry[key] = compute(fo, so)
            return hit
        return fn

    def built_conjuncts(node):
        """build() of each conjunct of node, in written order."""
        return [build(g) for g in conjuncts(node)]

    def build(node):
        """(closure, free FO variables, free set variables) of node."""
        nonlocal reads
        match node:
            case Const(value):
                return (lambda fo, so: value), (), ()
            case Less(a, b) | Equal(a, b):
                op = lt if isinstance(node, Less) else eq

                def fn(fo, so):
                    p, q = fo.get(a, -1), fo.get(b, -1)
                    if 0 <= p < n and 0 <= q < n:
                        return op(p, q)
                    return op(_pos(fo, a, n), _pos(fo, b, n))
                return fn, (a,) if a == b else (a, b), ()
            case Pred(name, v):
                if name not in sig.preds:
                    reads = every

                    def fn(fo, so):
                        _pos(fo, v, n)
                        sig.index(name)  # raises: unknown predicate
                else:
                    bit = 1 << sig.index(name)
                    reads |= bit

                    def fn(fo, so):
                        p = fo.get(v, -1)
                        return letters[p if 0 <= p < n else _pos(fo, v, n)] & bit != 0
                return fn, (v,), ()
            case In(s, v):
                def fn(fo, so):
                    if s not in so:
                        raise InputError(f"unbound set variable {s!r}")
                    return so[s] >> _pos(fo, v, n) & 1 == 1
                return fn, (v,), (s,)
            case Not(g):
                fg, ffo, fso = build(g)
                return (lambda fo, so: not fg(fo, so)), ffo, fso
            case And():
                return _every(built_conjuncts(node))
            case Or(parts):
                return _every([build(g) for g in parts], True)
            case Implies(a, b):
                return build(Or((Not(a), b)))
            case ExistsFO(v, g) | ForallFO(v, g) | AtLeast(_, v, g) | ExistsSO(v, g) | ForallSO(v, g):
                over_sets = isinstance(node, (ExistsSO, ForallSO))
                # the node reads the labels its body reads
                outer, reads = reads, 0
                body, ffo, fso = build(g)
                node_reads, reads = reads, reads | outer
                if over_sets:
                    fso = tuple(x for x in fso if x != v)
                else:
                    ffo = tuple(x for x in ffo if x != v)
                # fn counts the values of v that make the body equal `want`,
                # up to `need`: ex is (1, True), atleast c is (c, True), and
                # all is (1, False), true when no such value exists
                need = node.count if isinstance(node, AtLeast) else 1
                want = not isinstance(node, (ForallFO, ForallSO))

                def fn(fo, so):
                    env, values = (so, range(1 << n)) if over_sets else (fo, positions)
                    old = env.get(v, _UNSET)
                    hits = 0
                    for value in values:
                        env[v] = value
                        if body(fo, so) == want:
                            hits += 1
                            if hits >= need:
                                break
                    if old is _UNSET:
                        env.pop(v, None)
                    else:
                        env[v] = old
                    return (hits >= need) == want
                return memoized(fn, ffo, fso, node_reads), ffo, fso
            case Run(dfa, vs):
                same_sig = dfa.sig == sig
                node_reads = _table_reads(dfa.delta, sig.k) if same_sig else every
                reads |= node_reads
                ffo = tuple(dict.fromkeys(vs))
                delta, accepting, init = dfa.delta, dfa.accepting, dfa.init
                # the mark bit each variable sets: shared, or one per track
                bits = [1 << (sig.k + (j if dfa.tracks > 1 else 0)) for j in range(len(vs))]

                def fn(fo, so):
                    if not same_sig:
                        raise InputError("automaton leaf is over another signature")
                    marks = [0] * n
                    for v, bit in zip(vs, bits):
                        marks[_pos(fo, v, n)] |= bit
                    q = init
                    for mask, mark in zip(letters, marks):
                        q = delta[q][mask | mark]
                    return q in accepting
                return memoized(fn, ffo, (), node_reads), ffo, ()
        raise InputError(f"not a formula: {node!r}")

    top = built_conjuncts(f)
    fo_vars, so_vars = _free(top)
    return _Program(sig, fo_vars, so_vars, reads, search, {})


def _table_reads(delta, k: int) -> int:
    """The bits b < k for which some row of the transition table sends
    letters a and a ^ (1 << b) to different states: the labels that a run
    through the table reads.  A bit stops being scanned at its first
    witness row."""
    width = len(delta[0]) if delta else 0
    found = 0
    for b in range(k):
        bit = 1 << b
        lows = [a for a in range(width) if not a & bit]
        low, high = itemgetter(*lows), itemgetter(*(a | bit for a in lows))
        if any(low(row) != high(row) for row in delta):
            found |= bit
    return found


def _every(parts, some=False):
    """(closure, free FO variables, free set variables) of a conjunction,
    or with some set of a disjunction.

    The closure tests the parts left to right and stops at the first that
    fails, as `and` does, or with some set at the first that holds: one
    part is its own closure, more are one loop, never one call per part
    nested.
    """
    tests = [p[0] for p in parts]
    if len(tests) == 1:
        fn = tests[0]
    elif some:
        def fn(fo, so):
            for test in tests:
                if test(fo, so):
                    return True
            return False
    else:
        def fn(fo, so):
            for test in tests:
                if not test(fo, so):
                    return False
            return True
    return (fn, *_free(parts))


def _free(parts):
    """The free FO and set variables of the parts, in order of first occurrence."""
    return (tuple(dict.fromkeys(x for p in parts for x in p[1])),
            tuple(dict.fromkeys(x for p in parts for x in p[2])))


def _levels(variables, parts) -> tuple[Callable | None, Callable | None, int]:
    """(top, nest, k): the plan for searching the k variables with the parts.

    top is the conjunction, as _every tests it, of the parts written before
    the first that reads a variable, or None when there are none.
    nest(values, fo, so, out, tup) -> int runs the loops, one closure per
    variable, and is None for no variables.  Loop i sets fo[variables[i]]
    and tup[i] and tests the parts whose last variable it binds (a repeated
    name is bound by its last loop), never ahead of a part written before
    it.  The innermost loop counts each value that passes and appends the
    tuple to out when out is given.
    """
    bound_at = {v: i for i, v in enumerate(variables, 1)}
    levels: list[list] = [[] for _ in range(len(variables) + 1)]
    level = 0
    for part in parts:
        level = max([level] + [bound_at.get(v, 0) for v in part[1]])
        levels[level].append(part)
    checks = [_every(at)[0] if at else None for at in levels]
    nest = None
    for i in reversed(range(len(variables))):
        if nest is None:
            nest = _innermost(i, variables[i], checks[i + 1])
        else:
            nest = _outer(i, variables[i], checks[i + 1], nest)
    return checks[0], nest, len(variables)


def _innermost(i, v, test):
    def loop(values, fo, so, out, tup):
        hits = 0
        for value in values:
            fo[v] = value
            if test is None or test(fo, so):
                hits += 1
                if out is not None:
                    tup[i] = value
                    out.append(tuple(tup))
        return hits
    return loop


def _outer(i, v, test, inner):
    def loop(values, fo, so, out, tup):
        hits = 0
        for value in values:
            fo[v] = value
            if test is None or test(fo, so):
                tup[i] = value
                hits += inner(values, fo, so, out, tup)
        return hits
    return loop


def _search(plan, values, fo, so, out=None) -> int:
    """Number of tuples over values that pass the plan, in lex order.

    The plan's top runs before the first loop, and only if some tuple
    exists.  out, when given, collects the tuples.
    """
    top, nest, k = plan
    if k and not values:
        return 0
    if top is not None and not top(fo, so):
        return 0
    if not k:
        if out is not None:
            out.append(())
        return 1
    return nest(values, fo, so, out, [0] * k)


def satisfying_tuples(f: Formula, word: Word, variables=None) -> list[tuple[int, ...]]:
    """All assignments of the given variables satisfying f, in lex order.

    Variables default to the free variables of f in first-occurrence order.
    Extra variables are allowed; missing ones are an error, as are free set
    variables.  The answer is looked up in, or added to, the question's
    table by the word's projection onto the labels f reads, and the caller
    gets its own copy.
    """
    prog = _program(f, word.sig)
    if prog.so_vars:
        raise InputError("formula has free set variables")
    variables = prog.fo_vars if variables is None else tuple(variables)
    table = prog.answers.get(variables)
    if table is None:
        # a variable list gets its table once it is found to cover fo_vars
        missing = [v for v in prog.fo_vars if v not in variables]
        if missing:
            raise InputError(f"unassigned free variables {missing}")
        table = prog.answers[variables] = {}
    mask, letters = prog.reads, word.letters
    whole = mask == (1 << word.sig.k) - 1
    # Word keeps its letters in range, so they are their whole projection
    key = letters if whole else tuple([a & mask for a in letters])
    answer = table.get(key)
    if answer is None:
        answer = _keep(table, key, _answer(prog, word, variables), whole)
    return answer.copy()


def _answer(prog: _Program, word: Word, variables: tuple[str, ...]) -> list[tuple[int, ...]]:
    """The program's satisfying tuples of the variables on the word, by a
    search: the one place an answer is computed rather than looked up."""
    out: list[tuple[int, ...]] = []
    prog.search(word, variables, None, {}, {}, out)
    return out


def _keep(table: dict, key: tuple[int, ...], value, whole: bool):
    """Add value to the table under key, a word's projection, and return it.

    This is the one retention rule of the oracle's memo: a table holds
    entries for one word length, so a key of another length empties it
    first, and a whole table, one keyed by the whole word, holds one entry,
    since no other word can hit it.
    """
    if table and (whole or len(next(iter(table))) != len(key)):
        table.clear()
    table[key] = value
    return value


def count_in_set(f: Formula, word: Word, positions, variables=None) -> int:
    """Number of satisfying tuples drawn from the given position set."""
    prog = _program(f, word.sig)
    if prog.so_vars:
        raise InputError("formula has free set variables")
    variables = tuple(prog.fo_vars if variables is None else variables)
    pool = sorted(set(positions))
    for p in pool:
        if not 0 <= p < len(word):
            raise InputError(f"position {p} out of range")
    return prog.search(word, variables, pool, {}, {})


def answered_words(sig: Signature, max_len: int, questions):
    """Yield (walked, word, answers) for each word of all_words(sig, max_len)
    whose answer list no earlier word had, compared by value.

    questions is a list of (formula, variables) pairs, answers[i] is
    satisfying_tuples of the i-th on the word, and walked is the word's
    1-based position in all_words.  A word's answers depend only on its
    projection onto the labels its questions read, and the projection has
    the same length and comes no later in shortlex order, so the walk
    visits only the words whose letters carry no other label: the first
    word of each answer list is among them.  Each answer is read from, or
    added to, its question's table, the one satisfying_tuples reads, so a
    later word with the same projection, here or in a later call, gets the
    same list object: no reader may mutate it.  The empty word comes first
    and answers every question in order through satisfying_tuples, which
    compiles and validates them, so the first error is the one that asking
    each question on each word would raise.
    """
    if max_len < 0:
        return
    empty = Word(sig, ())
    answers = [satisfying_tuples(f, empty, variables) for f, variables in questions]
    seen = {tuple(map(tuple, answers))}
    yield 1, empty, answers
    every, union, asked = (1 << sig.k) - 1, 0, []
    for f, variables in questions:
        prog = _program(f, sig)
        variables = prog.fo_vars if variables is None else tuple(variables)
        asked.append((prog, variables, prog.reads, prog.answers[variables]))
        union |= prog.reads
    alphabet = [a for a in range(every + 1) if not a & ~union]
    for length in range(1, max_len + 1):
        before = walk_length(sig, length - 1)
        for letters in itertools.product(alphabet, repeat=length):
            word = Word(sig, letters)
            # questions of one mask share its projection (projecting once
            # per question, an interp-reduce pass ran about 9% slower)
            projections: dict[int, tuple[int, ...]] = {}
            answers = []
            for prog, variables, mask, table in asked:
                key = projections.get(mask)
                if key is None:
                    key = projections[mask] = tuple([a & mask for a in letters])
                answer = table.get(key)
                if answer is None:
                    answer = _keep(table, key, _answer(prog, word, variables), mask == every)
                answers.append(answer)
            key = tuple(map(tuple, answers))
            if key not in seen:
                seen.add(key)
                # the letters, read as base-2^k digits, rank the word
                # among the words of its length
                rank = functools.reduce(lambda r, a: r << sig.k | a, letters, 0)
                yield before + rank + 1, word, answers


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    words_checked: int
    max_fiber: int
    failure: str | None = None

    def __bool__(self):
        return self.ok


def check_reparameterization(rep, max_len: int = 4) -> CheckReport:
    """Verify a reparameterization claim against the source formula.

    On every word up to max_len, three conditions are checked by direct
    enumeration: every assignment satisfying g also satisfies the source,
    every assignment satisfying the source extends to exactly one image
    tuple, and no image tuple is shared by more than `bound` assignments.
    Stops at the first violation.  Only the first word of each pair of
    answer lists is checked (answered_words): a later word would pass as
    it did.  words_checked is the failing word's position in shortlex
    order, or the number of words up to max_len (walk_length).
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    xs = tuple(rep.domain_vars)
    ys = tuple(rep.image_vars)
    k = len(xs)
    max_fiber = 0
    for walked, word, answers in answered_words(rep.signature, max_len,
                                                [(rep.source, xs), (rep.g, xs + ys)]):
        sat, pairs = set(answers[0]), answers[1]
        images: dict[tuple, set] = {}
        fibers: dict[tuple, set] = {}
        for tup in pairs:
            x, y = tup[:k], tup[k:]
            if x not in sat:
                return CheckReport(False, walked, max_fiber,
                                   f"word {word}: g holds at {x} + {y} but the source fails at {x}")
            images.setdefault(x, set()).add(y)
            fibers.setdefault(y, set()).add(x)
        for x in sat:
            n = len(images.get(x, ()))
            if n == 0:
                return CheckReport(False, walked, max_fiber,
                                   f"word {word}: no image tuple for {x}")
            if n > 1:
                return CheckReport(False, walked, max_fiber,
                                   f"word {word}: {n} image tuples for {x}")
        for y, xs_here in fibers.items():
            max_fiber = max(max_fiber, len(xs_here))
            if len(xs_here) > rep.bound:
                return CheckReport(False, walked, max_fiber,
                                   f"word {word}: image {y} has {len(xs_here)} preimages, bound is {rep.bound}")
    return CheckReport(True, walk_length(rep.signature, max_len), max_fiber)


def check_canonical_form(rep, max_len: int = 4) -> CheckReport:
    """Verify that every image coordinate equals some domain coordinate.

    Reparameterizations built here never invent positions: images are made
    of the tuple's own coordinates, which keeps them usable as point
    interpretations.  Only the first word of each answer list is checked
    (answered_words), and words_checked counts as check_reparameterization's
    does.
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    xs = tuple(rep.domain_vars)
    ys = tuple(rep.image_vars)
    k = len(xs)
    for walked, word, answers in answered_words(rep.signature, max_len, [(rep.g, xs + ys)]):
        for tup in answers[0]:
            x, y = tup[:k], tup[k:]
            stray = [b for b in y if b not in x]
            if stray:
                return CheckReport(False, walked, 0,
                                   f"word {word}: image {y} of {x} uses "
                                   f"positions {stray} outside the tuple")
    return CheckReport(True, walk_length(rep.signature, max_len), 0)
