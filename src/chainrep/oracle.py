"""Direct evaluation of formulas on words, by recursion over the syntax.

This module is the reference semantics.  It deliberately shares no machinery
with the automaton pipeline: quantifiers loop over positions, set quantifiers
loop over subset bitmasks, and the counting quantifier counts.  Everything
else in the package is tested against it.

An automaton leaf Run(dfa, vars), which the pipeline puts into the maps it
builds, is evaluated by reading the word through the leaf's own transition
table with the positions of vars marked.
Nothing of the compiler is used for that: the leaf's automaton is part of
the map under test, so a wrong one still fails the checks below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .formula import (AtLeast, And, Equal, ExistsFO, ExistsSO, ForallFO,
                      ForallSO, Formula, Implies, In, Less, Not, Or, Pred,
                      Run, free_set_variables, free_variables)
from .words import Word, all_words


def evaluate(f: Formula, word: Word, fo: dict[str, int] | None = None,
             so: dict[str, int] | None = None) -> bool:
    """Truth of f on the word under the given assignments.

    fo maps first-order variables to positions, so maps set variables to
    subset bitmasks (bit p set when position p is in the set).
    """
    return _Evaluator(f, word).run(fo or {}, so or {})


def _pos(env, v, word):
    try:
        p = env[v]
    except KeyError:
        raise InputError(f"unbound variable {v!r}") from None
    if not 0 <= p < len(word):
        raise InputError(f"position {p} of {v!r} out of range")
    return p


def _free_map(f):
    """id(node) -> (free FO vars, free SO vars) for every subformula."""
    out: dict[int, tuple] = {}

    def go(node):
        if id(node) in out:
            return out[id(node)]
        match node:
            case Less(a, b) | Equal(a, b):
                r = ((a,) if a == b else (a, b), ())
            case Pred(_, v):
                r = ((v,), ())
            case In(s, v):
                r = ((v,), (s,))
            case Run(_, vs, _):
                r = (tuple(dict.fromkeys(vs)), ())
            case Not(g):
                r = go(g)
            case And(a, b) | Or(a, b) | Implies(a, b):
                fa, sa = go(a)
                fb, sb = go(b)
                r = (fa + tuple(v for v in fb if v not in fa),
                     sa + tuple(s for s in sb if s not in sa))
            case ExistsFO(v, g) | ForallFO(v, g) | AtLeast(_, v, g):
                fg, sg = go(g)
                r = (tuple(x for x in fg if x != v), sg)
            case ExistsSO(s, g) | ForallSO(s, g):
                fg, sg = go(g)
                r = (fg, tuple(x for x in sg if x != s))
            case _:
                raise InputError(f"not a formula: {node!r}")
        out[id(node)] = r
        return r

    go(f)
    return out


class _Evaluator:
    """Evaluation of one formula on one word, memoized per quantifier node
    and automaton leaf.

    A quantifier subformula's truth depends only on the values of its own
    free variables, so those values key a cache; repeated assignments (as in
    satisfying_tuples, or clones introduced by selector macros) collapse to
    one computation each instead of re-walking nested quantifiers.
    """

    def __init__(self, f: Formula, word: Word):
        self.f = f
        self.word = word
        self.fv = _free_map(f)
        self.memo: dict[tuple, bool] = {}

    def run(self, fo, so) -> bool:
        return self._eval(self.f, fo, so)

    def _quant_key(self, f, fo, so):
        ffo, fso = self.fv[id(f)]
        try:
            return (id(f), tuple(fo[v] for v in ffo), tuple(so[s] for s in fso))
        except KeyError as e:
            raise InputError(f"unbound variable {e.args[0]!r}") from None

    def _eval(self, f, fo, so):
        word = self.word
        match f:
            case Less(a, b):
                return _pos(fo, a, word) < _pos(fo, b, word)
            case Equal(a, b):
                return _pos(fo, a, word) == _pos(fo, b, word)
            case Pred(name, v):
                return word.has(name, _pos(fo, v, word))
            case In(s, v):
                if s not in so:
                    raise InputError(f"unbound set variable {s!r}")
                return bool(so[s] >> _pos(fo, v, word) & 1)
            case Not(g):
                return not self._eval(g, fo, so)
            case And(a, b):
                return self._eval(a, fo, so) and self._eval(b, fo, so)
            case Or(a, b):
                return self._eval(a, fo, so) or self._eval(b, fo, so)
            case Implies(a, b):
                return not self._eval(a, fo, so) or self._eval(b, fo, so)
        key = self._quant_key(f, fo, so)
        hit = self.memo.get(key)
        if hit is None:
            hit = self._quant(f, fo, so)
            self.memo[key] = hit
        return hit

    def _quant(self, f, fo, so):
        word = self.word
        match f:
            case ExistsFO(v, g):
                return any(self._eval(g, {**fo, v: p}, so)
                           for p in range(len(word)))
            case ForallFO(v, g):
                return all(self._eval(g, {**fo, v: p}, so)
                           for p in range(len(word)))
            case ExistsSO(s, g):
                return any(self._eval(g, fo, {**so, s: m})
                           for m in range(1 << len(word)))
            case ForallSO(s, g):
                return all(self._eval(g, fo, {**so, s: m})
                           for m in range(1 << len(word)))
            case AtLeast(n, v, g):
                hits = 0
                for p in range(len(word)):
                    if self._eval(g, {**fo, v: p}, so):
                        hits += 1
                        if hits >= n:
                            return True
                return n == 0
            case Run(dfa, vs, _):
                if dfa.sig != word.sig:
                    raise InputError("automaton leaf is over another signature")
                marks = {_pos(fo, v, word) for v in vs}
                mark_bit = 1 << word.sig.k
                q = dfa.init
                for p, mask in enumerate(word.letters):
                    q = dfa.delta[q][mask | mark_bit if p in marks else mask]
                return q in dfa.accepting
        raise InputError(f"not a formula: {f!r}")


def satisfying_tuples(f: Formula, word: Word, variables=None) -> list[tuple[int, ...]]:
    """All assignments of the given variables satisfying f, in lex order.

    Variables default to the free variables of f in first-occurrence order.
    Extra variables are allowed; missing ones are an error, as are free set
    variables.
    """
    if free_set_variables(f):
        raise InputError("formula has free set variables")
    if variables is None:
        variables = free_variables(f)
    variables = list(variables)
    missing = [v for v in free_variables(f) if v not in variables]
    if missing:
        raise InputError(f"unassigned free variables {missing}")
    ev = _Evaluator(f, word)
    out = []
    for tup in itertools.product(range(len(word)), repeat=len(variables)):
        if ev.run(dict(zip(variables, tup)), {}):
            out.append(tup)
    return out


def count_in_set(f: Formula, word: Word, positions, variables=None) -> int:
    """Number of satisfying tuples drawn from the given position set."""
    if free_set_variables(f):
        raise InputError("formula has free set variables")
    if variables is None:
        variables = free_variables(f)
    variables = list(variables)
    pool = sorted(set(positions))
    for p in pool:
        if not 0 <= p < len(word):
            raise InputError(f"position {p} out of range")
    ev = _Evaluator(f, word)
    hits = 0
    for tup in itertools.product(pool, repeat=len(variables)):
        if ev.run(dict(zip(variables, tup)), {}):
            hits += 1
    return hits


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
