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
place and restore it.  A quantifier on a variable its body does not read
runs the body once, when some value exists, since the body then holds for
every value or for none: ex holds on a nonempty word where the body does,
all on the empty word or where the body does, atleast c on a word of c
positions or more where the body does (atleast 0 always), and a set
quantifier, whose empty set always exists, where the body does.

A quantifier, an ex block or an automaton leaf memoizes its truth by the
values of its free variables.  That truth depends on nothing else but the
word's length and the labels the node reads (the coincidence lemma
below), so a quantifier or ex block that reads fewer labels than its
whole formula keeps its memo across calls: one memo per projection of the
word onto the labels it reads, all emptied when the word length changes.
Every other node starts a fresh memo in each call: one that reads all of
its formula's labels would meet a new projection in every search, which
the answer memo below already hands it, and an automaton leaf's memo kept
across calls measured no faster on the interpretation checks.  So one
formula object is evaluated by one call at a time: the oracle is
single-threaded.

An automaton leaf Run(dfa, vars), which the pipeline puts into the maps and
selectors it builds, is evaluated by reading the word through the leaf's own
transition table with the positions of vars marked, on one shared mark bit
or on one track per variable, as the automaton reads them.
Nothing of the compiler is used for that: the leaf's automaton is part of
the map under test, so a wrong one still fails the checks below.

Tuples are enumerated by one search, `_search`, which `satisfying_tuples`,
`count_in_set` and every block `ex v1 ... ex vk. body` with k >= 2 share.
It runs one loop per variable, in lexicographic order.  The loops of a
plan are compiled once into a nest of closures, one per variable, each
calling the next for every value that passes its tests; the innermost
counts the tuples or appends them.  Each conjunct of the flattened body is
tested at the loop that binds the last of its variables, so a failed
conjunct prunes every tuple that extends the prefix
(selection pushdown in nested-loop evaluation; Ullman, "Principles of
Database and Knowledge-Base Systems", 1988).  The levels only grow in
written order: no conjunct is tested ahead of one written before it.  The
conjuncts of each tuple are therefore tried in the same order as by
evaluating the whole formula on it, which keeps the answers, their order
and the first error.  The conjuncts of one level are fused into one
closure, so a candidate value costs one call.  A loop whose value no
deeper conjunct reads stops descending once the loops below it have found
nothing, as the memo of a nested quantifier would.

The plan of a search is built once per list of variables searched, from
closures compiled with those variables counted as bound: the search sets
them only to positions of the word or of a pool checked to lie in it, so
their atoms read them directly.  An atom on variables that neither the
formula nor the search binds reads their values directly and range-checks
them; only when one is missing or out of range does it take the slow path,
which raises for the first variable read.  A `<` or `=` atom on two bound
variables compares their values directly, with no call but its own: it is
the most frequent test of every search.

A formula's truth on a word depends only on the word's length and on the
labels the formula reads (the coincidence lemma; Ebbinghaus and Flum,
"Finite Model Theory", 1995), so a question, a (formula, variables) pair,
is answered once per length and projection of the word onto those labels,
and words that agree there share the answer.  The answers live in the
program's answer memo, which lasts past the call: for each variable list,
the answers at the last word length it was asked at, by projection.
`satisfying_tuples` reads and fills it and hands the caller a copy, so a
sweep that asks word after word in shortlex order, as the keystone
cross-validation does, searches once per projection.  The checks ask
their questions through `answered_words`, which walks every word up to a
length, reads the same memo and hands out its lists.  A question asked
at a new length starts that list's memo afresh, so a walk keeps at most
one length's answers.  The labels read are the formula's own `reads`,
gathered while its closures are compiled: a predicate reads its label, an
automaton leaf the labels its transition table tells apart (the bits b
for which some row sends letters a and a ^ (1 << b) to different
states), and an unknown predicate or a leaf over another signature every
label, so such a question is asked on every word.  The projection comes
from the syntax and from the leaf's table read as data, as the leaf's
evaluation reads it, so the oracle still shares no code with the
compiler.  A check's verdict on a word depends only on its answer list,
so `answered_words` hands out each distinct list, compared by value, once:
a later word with an earlier word's list comes with None in its place, and
the checks count it and pass it as that word passed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import eq, itemgetter, lt
from typing import Callable, NamedTuple

from .errors import InputError
from .formula import (AtLeast, And, Const, Equal, ExistsFO, ExistsSO, ForallFO,
                      ForallSO, Formula, Implies, In, Less, Not, Or, Pred,
                      Run, Signature, check_depth, conjuncts)
from .words import Word, all_words


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
    occurrence, fo_set holds fo_vars as a set, and accepted the variable
    lists that satisfying_tuples has found to cover fo_vars.  reads holds
    the bit of every label the closures read: each predicate's, the bits
    an automaton leaf's transition table tells apart, or all of them for
    an unknown predicate or a leaf over another signature.  search(word,
    variables, values, fo, so, out=None) -> int runs _search over the
    variables on the values, or on the word's positions when values is
    None, under the assignments fo and so, building the variables' plan the
    first time they are searched; over no variables it is 1 when the
    formula holds and 0 when not.  Each call loads the word; a subformula
    memo lasts one call, or, for a quantifier or ex block that reads fewer
    labels than the formula, every call on a word of one length, by the
    word's projection onto the labels the node reads.

    answers is the answer memo, which outlasts the call: variable list ->
    (length, projection -> satisfying tuples), for the last word length
    the list was asked at.  satisfying_tuples and answered_words read and
    fill it; a program that reads every label keeps nothing in it.
    """

    sig: Signature
    fo_vars: tuple[str, ...]
    fo_set: frozenset[str]
    so_vars: tuple[str, ...]
    accepted: set[tuple[str, ...]]
    reads: int
    search: Callable
    answers: dict[tuple[str, ...], tuple[int, dict]]


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
    keep its formula alive; search() reaches it by a weak reference, which
    holds while the program is found, since the program dies with it.  The
    closures read the word's letters from this frame, which search() sets
    for each public call.
    """
    formula = weakref.ref(f)
    every = (1 << sig.k) - 1
    reads = 0
    letters: tuple[int, ...] = ()
    n = 0
    positions = range(0)
    calls = 0
    # variables searched -> their _levels, built with those variables bound
    plans: dict[tuple[str, ...], tuple[Callable | None, Callable | None, int]] = {}

    def search(word, variables, values, fo, so, out=None):
        nonlocal letters, n, positions, calls
        plan = plans.get(variables)
        if plan is None:
            # the search binds its variables to positions of the word or of
            # a validated pool, so their atoms may read them directly
            parts = built_conjuncts(formula(), frozenset(variables), frozenset()) if variables else top
            plan = plans[variables] = _levels(variables, parts)
        letters = word.letters
        n = len(letters)
        positions = range(n)
        calls += 1
        return _search(plan, positions if values is None else values, fo, so, out)

    def memoized(compute, fo_vars, so_vars, node_reads=None):
        # a subformula's truth depends only on the values of its own free
        # variables, on the word's length and on the labels it reads, so
        # repeated assignments (as in satisfying_tuples, which varies every
        # variable while a quantifier reads few of them) are computed once
        # per call; a node that reads fewer labels than the formula keeps
        # its memo across calls, by projection, for the last length
        fo_key = itemgetter(*fo_vars) if fo_vars else lambda fo: ()
        so_key = itemgetter(*so_vars) if so_vars else None
        memo: dict = {}
        kept: dict[tuple[int, ...], dict] = {}
        stamp = length = -1

        def fn(fo, so):
            nonlocal memo, stamp, length
            try:
                key = fo_key(fo) if so_key is None else (fo_key(fo), so_key(so))
            except KeyError as e:
                raise InputError(f"unbound variable {e.args[0]!r}") from None
            if stamp != calls:
                # first use in this call: reads is the whole formula's by now
                stamp = calls
                if node_reads is None or node_reads == reads:
                    memo = {}
                else:
                    if length != n:
                        kept.clear()
                        length = n
                    memo = kept.setdefault(tuple([a & node_reads for a in letters]), {})
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = compute(fo, so)
            return hit
        return fn

    def reading(make, *args):
        """(make(*args), the labels that the closures it builds read)."""
        nonlocal reads
        outer, reads = reads, 0
        built = make(*args)
        inner, reads = reads, reads | outer
        return built, inner

    def quantifier(v, body, need, want, over_sets, vacuous):
        # counts the values of v that make the body equal `want`, up to
        # `need`: ex is (1, True), atleast c is (c, True), and all is
        # (1, False), true when no such value exists
        if vacuous:
            # the body does not read v, so it holds for every value or for
            # none: it runs once, when some value exists, as the loop's first
            def once(fo, so):
                size = 1 << n if over_sets else n
                hits = size if size and body(fo, so) == want else 0
                return (hits >= need) == want
            return once

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
        return fn

    def exists_block(vs, body, bound_fo, bound_so):
        # ex v1 ... ex vk. body holds when the search finds one tuple
        parts, node_reads = reading(built_conjuncts, body, bound_fo | set(vs), bound_so)
        plan = _levels(vs, parts, first=True)
        names = tuple(dict.fromkeys(vs))
        ffo, fso = _free(parts)
        ffo = tuple(x for x in ffo if x not in names)

        def fn(fo, so):
            old = [fo.get(v, _UNSET) for v in names]
            hits = _search(plan, positions, fo, so)
            for v, was in zip(names, old):
                if was is _UNSET:
                    fo.pop(v, None)
                else:
                    fo[v] = was
            return hits > 0
        return memoized(fn, ffo, fso, node_reads), ffo, fso

    def built_conjuncts(node, bound_fo, bound_so):
        """build() of each conjunct of node, in written order."""
        return [build(g, bound_fo, bound_so) for g in conjuncts(node)]

    def build(node, bound_fo, bound_so):
        """(closure, free FO variables, free set variables) of node."""
        nonlocal reads
        match node:
            case Const(value):
                return (lambda fo, so: value), (), ()
            case Less(a, b) | Equal(a, b):
                op = lt if isinstance(node, Less) else eq
                if a in bound_fo and b in bound_fo:
                    fn = (lambda fo, so: fo[a] < fo[b]) if op is lt else \
                        (lambda fo, so: fo[a] == fo[b])
                else:
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
                    if v in bound_fo:
                        fn = lambda fo, so: letters[fo[v]] & bit != 0
                    else:
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
                fg, ffo, fso = build(g, bound_fo, bound_so)
                return (lambda fo, so: not fg(fo, so)), ffo, fso
            case And():
                return _every(built_conjuncts(node, bound_fo, bound_so))
            case Or(parts):
                return _every([build(g, bound_fo, bound_so) for g in parts], True)
            case Implies(a, b):
                return build(Or((Not(a), b)), bound_fo, bound_so)
            case ExistsFO(v, ExistsFO() as g):
                # a block of two or more ex is one search, which can test a
                # conjunct between its loops; a single ex has nothing to test
                # there and is a plain quantifier, which runs faster
                block = [v]
                while isinstance(g, ExistsFO):
                    block.append(g.var)
                    g = g.body
                return exists_block(tuple(block), g, bound_fo, bound_so)
            case ExistsFO(v, g) | ForallFO(v, g) | AtLeast(_, v, g):
                (body, ffo, fso), node_reads = reading(build, g, bound_fo | {v}, bound_so)
                vacuous = v not in ffo
                ffo = tuple(x for x in ffo if x != v)
                if isinstance(node, AtLeast):
                    fn = quantifier(v, body, node.count, True, False, vacuous)
                else:
                    fn = quantifier(v, body, 1, isinstance(node, ExistsFO), False, vacuous)
                return memoized(fn, ffo, fso, node_reads), ffo, fso
            case ExistsSO(s, g) | ForallSO(s, g):
                (body, ffo, fso), node_reads = reading(build, g, bound_fo, bound_so | {s})
                vacuous = s not in fso
                fso = tuple(x for x in fso if x != s)
                fn = quantifier(s, body, 1, isinstance(node, ExistsSO), True, vacuous)
                return memoized(fn, ffo, fso, node_reads), ffo, fso
            case Run(dfa, vs):
                same_sig = dfa.sig == sig
                reads |= _table_reads(dfa.delta, sig.k) if same_sig else every
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
                return memoized(fn, ffo, ()), ffo, ()
        raise InputError(f"not a formula: {node!r}")

    top = built_conjuncts(f, frozenset(), frozenset())
    fo_vars, so_vars = _free(top)
    return _Program(sig, fo_vars, frozenset(fo_vars), so_vars, set(), reads, search, {})


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
    fails, as `and` does, or with some set at the first that holds.  Two
    parts are one lambda, more one loop, never one call per part nested.
    """
    tests = [p[0] for p in parts]
    if len(tests) == 1:
        fn = tests[0]
    elif len(tests) == 2:
        a, b = tests
        fn = (lambda fo, so: a(fo, so) or b(fo, so)) if some else \
            (lambda fo, so: a(fo, so) and b(fo, so))
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


def _levels(variables, parts, first=False) -> tuple[Callable | None, Callable | None, int]:
    """(top, nest, k): the plan for searching the k variables with the parts.

    top is the conjunction, as _every tests it, of the parts written before
    the first that reads a variable, or None when there are none.
    nest(values, fo, so, out, tup) -> int runs the loops, one closure per
    variable, and is None for no variables.  Loop i sets fo[variables[i]]
    and tup[i] and tests the parts whose last variable it binds (a repeated
    name is bound by its last loop), never ahead of a part written before
    it.  The innermost loop counts each value that passes and appends the
    tuple to out when out is given; with first set, every loop stops at the
    first tuple.
    """
    bound_at = {v: i for i, v in enumerate(variables, 1)}
    levels: list[list] = [[] for _ in range(len(variables) + 1)]
    level = 0
    for part in parts:
        level = max([level] + [bound_at.get(v, 0) for v in part[1]])
        levels[level].append(part)
    checks = [_every(at)[0] if at else None for at in levels]
    nest, below = None, set()
    for i in reversed(range(len(variables))):
        if nest is None:
            nest = _innermost(i, variables[i], checks[i + 1], first)
        else:
            # no part tested below loop i reads its variable
            blind = variables[i] not in below
            nest = _outer(i, variables[i], checks[i + 1], blind, first, nest)
        below.update(*(part[1] for part in levels[i + 1]))
    return checks[0], nest, len(variables)


def _innermost(i, v, test, first):
    def loop(values, fo, so, out, tup):
        hits = 0
        for value in values:
            fo[v] = value
            if test is None or test(fo, so):
                hits += 1
                if out is not None:
                    tup[i] = value
                    out.append(tuple(tup))
                if first:
                    break
        return hits
    return loop


def _outer(i, v, test, blind, first, inner):
    # when the loops below a blind loop find no tuple, they would find none
    # for any other value of it either, so the rest of its values only run
    # its own test, which may still raise, and no longer descend
    def loop(values, fo, so, out, tup):
        hits = 0
        spent = False
        for value in values:
            fo[v] = value
            if test is not None and not test(fo, so) or spent:
                continue
            tup[i] = value
            found = inner(values, fo, so, out, tup)
            if found:
                if first:
                    return found
                hits += found
            else:
                spent = blind
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
    variables.  The answer is looked up in, or added to, the program's
    answer memo by the word's projection onto the labels f reads, and the
    caller gets its own copy.
    """
    prog = _program(f, word.sig)
    if prog.so_vars:
        raise InputError("formula has free set variables")
    variables = prog.fo_vars if variables is None else tuple(variables)
    if variables not in prog.accepted:
        if not prog.fo_set.issubset(variables):
            missing = [v for v in prog.fo_vars if v not in variables]
            raise InputError(f"unassigned free variables {missing}")
        prog.accepted.add(variables)
    mask = prog.reads
    if mask == (1 << prog.sig.k) - 1:
        return _answer(prog, word, variables)
    letters = word.letters
    memo = _answer_memo(prog, variables, len(letters))
    key = tuple([a & mask for a in letters])
    answer = memo.get(key)
    if answer is None:
        answer = memo[key] = _answer(prog, word, variables)
    return answer.copy()


def _answer(prog: _Program, word: Word, variables: tuple[str, ...]) -> list[tuple[int, ...]]:
    """The program's satisfying tuples of the variables on the word, by a
    search: the one place an answer is computed rather than looked up."""
    out: list[tuple[int, ...]] = []
    prog.search(word, variables, None, {}, {}, out)
    return out


def _answer_memo(prog: _Program, variables: tuple[str, ...], length: int) -> dict:
    """The program's answers over the variables on words of the length, by
    projection; a new length replaces the last one's."""
    held = prog.answers.get(variables)
    if held is None or held[0] != length:
        held = prog.answers[variables] = (length, {})
    return held[1]


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
    """Yield (word, answers) for every word of all_words(sig, max_len).

    questions is a list of (formula, variables) pairs, and answers[i] is
    satisfying_tuples of the i-th on the word; answers is None when an
    earlier word of this walk had the same list, compared by value, so a
    reader decides each distinct list once.  A formula's truth depends
    only on the word's length and on the labels it reads, so an answer is
    computed once per length and projection of the word onto those labels
    and kept in the program's answer memo, which lasts past this call for
    the last length asked; every later word with the same key, here or in
    a later call, gets the same list object: no reader may mutate it.  A
    question that reads every label is asked on every word and keeps
    nothing.  The empty word comes first and answers every question in
    order through satisfying_tuples, which compiles and validates them, so
    the first error is the one that asking each question on each word
    would raise.
    """
    every = (1 << sig.k) - 1
    words = all_words(sig, max_len)
    empty = next(words, None)
    if empty is None:
        return
    answers = [satisfying_tuples(f, empty, variables) for f, variables in questions]
    seen = {tuple(map(tuple, answers))}
    yield empty, answers
    asked = []
    for f, variables in questions:
        prog = _program(f, sig)
        asked.append((prog, prog.fo_vars if variables is None else tuple(variables), prog.reads))
    memos: list[dict | None] = []
    length = 0
    for word in words:
        letters = word.letters
        if len(letters) != length:
            # all_words is in shortlex order: no shorter word comes again
            length = len(letters)
            memos = [None if mask == every else _answer_memo(prog, variables, length)
                     for prog, variables, mask in asked]
        projections: dict[int, tuple[int, ...]] = {}
        answers = []
        for (prog, variables, mask), memo in zip(asked, memos):
            if memo is None:
                answers.append(_answer(prog, word, variables))
                continue
            key = projections.get(mask)
            if key is None:
                key = projections[mask] = tuple([a & mask for a in letters])
            answer = memo.get(key)
            if answer is None:
                answer = memo[key] = _answer(prog, word, variables)
            answers.append(answer)
        key = tuple(map(tuple, answers))
        if key in seen:
            yield word, None
        else:
            seen.add(key)
            yield word, answers


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
    Stops at the first violation.  A word whose two answer lists an earlier
    word had is counted and not checked again (answered_words).
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    xs = tuple(rep.domain_vars)
    ys = tuple(rep.image_vars)
    k = len(xs)
    words = 0
    max_fiber = 0
    for word, answers in answered_words(rep.signature, max_len,
                                        [(rep.source, xs), (rep.g, xs + ys)]):
        words += 1
        if answers is None:
            continue
        sat, pairs = set(answers[0]), answers[1]
        images: dict[tuple, set] = {}
        fibers: dict[tuple, set] = {}
        for tup in pairs:
            x, y = tup[:k], tup[k:]
            if x not in sat:
                return CheckReport(False, words, max_fiber,
                                   f"word {word}: g holds at {x} + {y} but the source fails at {x}")
            images.setdefault(x, set()).add(y)
            fibers.setdefault(y, set()).add(x)
        for x in sat:
            n = len(images.get(x, ()))
            if n == 0:
                return CheckReport(False, words, max_fiber,
                                   f"word {word}: no image tuple for {x}")
            if n > 1:
                return CheckReport(False, words, max_fiber,
                                   f"word {word}: {n} image tuples for {x}")
        for y, xs_here in fibers.items():
            max_fiber = max(max_fiber, len(xs_here))
            if len(xs_here) > rep.bound:
                return CheckReport(False, words, max_fiber,
                                   f"word {word}: image {y} has {len(xs_here)} preimages, bound is {rep.bound}")
    return CheckReport(True, words, max_fiber)


def check_canonical_form(rep, max_len: int = 4) -> CheckReport:
    """Verify that every image coordinate equals some domain coordinate.

    Reparameterizations built here never invent positions: images are made
    of the tuple's own coordinates, which keeps them usable as point
    interpretations.  A word whose answer list an earlier word had is
    counted and not checked again (answered_words).
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    xs = tuple(rep.domain_vars)
    ys = tuple(rep.image_vars)
    k = len(xs)
    words = 0
    for word, answers in answered_words(rep.signature, max_len, [(rep.g, xs + ys)]):
        words += 1
        if answers is None:
            continue
        for tup in answers[0]:
            x, y = tup[:k], tup[k:]
            stray = [b for b in y if b not in x]
            if stray:
                return CheckReport(False, words, 0,
                                   f"word {word}: image {y} of {x} uses "
                                   f"positions {stray} outside the tuple")
    return CheckReport(True, words, 0)
