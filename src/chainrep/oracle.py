"""Direct evaluation of formulas on words, by recursion over the syntax.

This module is the reference semantics.  It deliberately shares no machinery
with the automaton pipeline: quantifiers loop over positions, set quantifiers
loop over subset bitmasks, and the counting quantifier counts.  Everything
else in the package is tested against it.

Each formula object is compiled once per signature into a tree of closures,
one per node, which every later call runs directly (Feeley and Lapalme,
"Using closures for code generation", Computer Languages 1987).  The
compiled program is found by the formula's id and lives exactly as long as
the formula.  Quantifiers update the variable environment in place and
restore it.  A quantifier or automaton leaf memoizes its truth by the values
of its free variables; the memos last for one public call, on one word, and
are emptied when it returns.  So one formula object is evaluated by one call
at a time: the oracle is single-threaded.

An automaton leaf Run(dfa, vars), which the pipeline puts into the maps and
selectors it builds, is evaluated by reading the word through the leaf's own
transition table with the positions of vars marked, on one shared mark bit
or on one track per variable, as the automaton reads them.
Nothing of the compiler is used for that: the leaf's automaton is part of
the map under test, so a wrong one still fails the checks below.
"""

from __future__ import annotations

import itertools
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from operator import eq, itemgetter, lt
from typing import Callable, NamedTuple

from .errors import InputError
from .formula import (AtLeast, And, Const, Equal, ExistsFO, ExistsSO, ForallFO,
                      ForallSO, Formula, Implies, In, Less, Not, Or, Pred,
                      Run, Signature)
from .words import Word, all_words


def evaluate(f: Formula, word: Word, fo: dict[str, int] | None = None,
             so: dict[str, int] | None = None) -> bool:
    """Truth of f on the word under the given assignments.

    fo maps first-order variables to positions, so maps set variables to
    subset bitmasks (bit p set when position p is in the set).
    """
    with _program(f, word.sig).on(word) as run:
        return run(dict(fo or {}), dict(so or {}))


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

    `on(word)` loads the word for one public call and yields the closure
    run(fo, so) -> bool; fo_vars and so_vars are the formula's free
    variables in order of first occurrence.
    """

    sig: Signature
    fo_vars: tuple[str, ...]
    so_vars: tuple[str, ...]
    on: Callable


def _program(f: Formula, sig: Signature) -> _Program:
    prog = _PROGRAMS.get(id(f))
    if prog is not None and prog.sig == sig:
        return prog
    new = _compile(f, sig)
    if prog is None:
        weakref.finalize(f, _PROGRAMS.pop, id(f), None)
    _PROGRAMS[id(f)] = new
    return new


def _compile(f: Formula, sig: Signature) -> _Program:
    """Compile f into closures fn(fo, so) -> bool.

    The closures capture node fields, never a node, so the program does not
    keep its formula alive.  They read the word's letters from this frame,
    which on() sets for each public call.
    """
    letters: tuple[int, ...] = ()
    n = 0
    positions = range(0)
    subsets = range(1)
    used_memos: list[dict] = []

    @contextmanager
    def on(word):
        nonlocal letters, n, positions, subsets
        letters, n = word.letters, len(word)
        positions, subsets = range(n), range(1 << n)
        try:
            yield run
        finally:
            for memo in used_memos:
                memo.clear()
            used_memos.clear()

    def memoized(compute, fo_vars, so_vars):
        # a subformula's truth depends only on the values of its own free
        # variables, so repeated assignments (as in satisfying_tuples, which
        # varies every variable while a quantifier reads few of them) are
        # computed once per call
        memo: dict = {}
        fo_key = itemgetter(*fo_vars) if fo_vars else lambda fo: ()
        so_key = itemgetter(*so_vars) if so_vars else None

        def fn(fo, so):
            try:
                key = fo_key(fo) if so_key is None else (fo_key(fo), so_key(so))
            except KeyError as e:
                raise InputError(f"unbound variable {e.args[0]!r}") from None
            hit = memo.get(key)
            if hit is None:
                if not memo:
                    used_memos.append(memo)
                hit = memo[key] = compute(fo, so)
            return hit
        return fn

    def quantifier(v, body, need, want, over_sets):
        # counts the values of v that make the body equal `want`, up to
        # `need`: ex is (1, True), atleast c is (c, True), and all is
        # (1, False), true when no such value exists
        def fn(fo, so):
            env, values = (so, subsets) if over_sets else (fo, positions)
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

    def build(node, bound_fo, bound_so):
        """(closure, free FO variables, free set variables) of node."""
        match node:
            case Const(value):
                return (lambda fo, so: value), (), ()
            case Less(a, b) | Equal(a, b):
                op = lt if isinstance(node, Less) else eq
                if a in bound_fo and b in bound_fo:
                    fn = lambda fo, so: op(fo[a], fo[b])
                else:
                    fn = lambda fo, so: op(_pos(fo, a, n), _pos(fo, b, n))
                return fn, (a,) if a == b else (a, b), ()
            case Pred(name, v):
                if name not in sig.preds:
                    def fn(fo, so):
                        _pos(fo, v, n)
                        sig.index(name)  # raises: unknown predicate
                else:
                    bit = 1 << sig.index(name)
                    if v in bound_fo:
                        fn = lambda fo, so: letters[fo[v]] & bit != 0
                    else:
                        fn = lambda fo, so: letters[_pos(fo, v, n)] & bit != 0
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
            case And(a, b) | Or(a, b) | Implies(a, b):
                fa, afo, aso = build(a, bound_fo, bound_so)
                fb, bfo, bso = build(b, bound_fo, bound_so)
                if isinstance(node, And):
                    fn = lambda fo, so: fa(fo, so) and fb(fo, so)
                elif isinstance(node, Or):
                    fn = lambda fo, so: fa(fo, so) or fb(fo, so)
                else:
                    fn = lambda fo, so: not fa(fo, so) or fb(fo, so)
                return (fn, tuple(dict.fromkeys(afo + bfo)),
                        tuple(dict.fromkeys(aso + bso)))
            case ExistsFO(v, g) | ForallFO(v, g) | AtLeast(_, v, g):
                body, ffo, fso = build(g, bound_fo | {v}, bound_so)
                ffo = tuple(x for x in ffo if x != v)
                if isinstance(node, AtLeast):
                    fn = quantifier(v, body, node.count, True, False)
                else:
                    fn = quantifier(v, body, 1, isinstance(node, ExistsFO), False)
                return memoized(fn, ffo, fso), ffo, fso
            case ExistsSO(s, g) | ForallSO(s, g):
                body, ffo, fso = build(g, bound_fo, bound_so | {s})
                fso = tuple(x for x in fso if x != s)
                fn = quantifier(s, body, 1, isinstance(node, ExistsSO), True)
                return memoized(fn, ffo, fso), ffo, fso
            case Run(dfa, vs):
                ffo = tuple(dict.fromkeys(vs))
                same_sig = dfa.sig == sig
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

    run, fo_vars, so_vars = build(f, frozenset(), frozenset())
    return _Program(sig, fo_vars, so_vars, on)


def satisfying_tuples(f: Formula, word: Word, variables=None) -> list[tuple[int, ...]]:
    """All assignments of the given variables satisfying f, in lex order.

    Variables default to the free variables of f in first-occurrence order.
    Extra variables are allowed; missing ones are an error, as are free set
    variables.
    """
    prog = _program(f, word.sig)
    if prog.so_vars:
        raise InputError("formula has free set variables")
    variables = list(prog.fo_vars if variables is None else variables)
    missing = [v for v in prog.fo_vars if v not in variables]
    if missing:
        raise InputError(f"unassigned free variables {missing}")
    with prog.on(word) as run:
        return [tup for tup in itertools.product(range(len(word)), repeat=len(variables))
                if run(dict(zip(variables, tup)), {})]


def count_in_set(f: Formula, word: Word, positions, variables=None) -> int:
    """Number of satisfying tuples drawn from the given position set."""
    prog = _program(f, word.sig)
    if prog.so_vars:
        raise InputError("formula has free set variables")
    variables = list(prog.fo_vars if variables is None else variables)
    pool = sorted(set(positions))
    for p in pool:
        if not 0 <= p < len(word):
            raise InputError(f"position {p} out of range")
    with prog.on(word) as run:
        return sum(run(dict(zip(variables, tup)), {})
                   for tup in itertools.product(pool, repeat=len(variables)))


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
    Stops at the first violation.
    """
    xs = tuple(rep.domain_vars)
    ys = tuple(rep.image_vars)
    k, m = len(xs), len(ys)
    words = 0
    max_fiber = 0
    for word in all_words(rep.signature, max_len):
        words += 1
        sat = set(satisfying_tuples(rep.source, word, xs))
        pairs = satisfying_tuples(rep.g, word, xs + ys)
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
    interpretations.
    """
    xs = tuple(rep.domain_vars)
    ys = tuple(rep.image_vars)
    k = len(xs)
    words = 0
    for word in all_words(rep.signature, max_len):
        words += 1
        for tup in satisfying_tuples(rep.g, word, xs + ys):
            x, y = tup[:k], tup[k:]
            stray = [b for b in y if b not in x]
            if stray:
                return CheckReport(False, words, 0,
                                   f"word {word}: image {y} of {x} uses "
                                   f"positions {stray} outside the tuple")
    return CheckReport(True, words, 0)
