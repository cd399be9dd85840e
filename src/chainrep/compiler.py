"""Compilation of formulas to deterministic finite automata.

Internally the classical construction is used: every variable, first- or
second-order, gets its own 0/1 track next to the label bits, and the usual
closure operations (product, complement within valid markings, track
projection with subset determinization, partition-refinement minimization)
are applied bottom-up.  The invariant maintained throughout is that the
automaton built for a formula accepts exactly the encodings in which every
first-order track of the formula carries a single mark and the formula
holds.  Widening an automaton to more tracks only relabels its letters and
leaves the new tracks unconstrained, so validity is enforced only where it
would otherwise be lost: a disjunction enforces it on the tracks just one
side has, a complement and a Run leaf on all their tracks, each by one
product with an automaton that reads every such track's marks, and
publishing on the marked variables.  A conjunction needs nothing, as each
side enforces its own tracks.  A quantifier on a variable that no track of
its body reads adds no track, since the body holds at every value or at
none: atleast c v. g (c >= 1; ex v. g is c = 1) is g's automaton times
one that accepts the words of length at least c, and EX S. g is g's
automaton.  Otherwise the quantifier is one projection of its variable's
track: a counting subset construction that counts, capped at c, the
markings of the track that reach each state (Klaedtke and Rueß, ICALP
2003), so atleast c v. g is built once, not as c copies of g; ex v. g and
EX S. g count to 1, and atleast 0 v. g is true.  Projection runs under
the state budget.  The product, the projection, the publish walk,
minimization and reparam's guard automata are each one breadth-first
walk (explore) that one builder method (minimal) refines into a minimal
automaton; the preimage count, the transition monoid, the emptiness test
and ambiguity_degree's reach sets are explore walks that nothing refines.
The walk owns the one dead state: the product sends there every pair
that can no longer accept (a side in its rejecting sink for a
conjunction, both sides for a disjunction), and the publish walk its dead
pairs, so neither holds more than one state beyond its live ones.

The builds of one public call share a Query: every formula that it
compiles keeps its automaton under the identity of the formula object, and
a later build that meets the same object reads that automaton, a counting
quantifier's too, as the compiler rewrites no formula.  So the source of a
reparameterization is built once, by Query.realizable_cases, and its
order cases, the images that the search reads and the map
(Query.map_automaton of source & h, the source's automaton times h's)
all start from it.  An elimination image ex x.
source keeps the source's other variables under their own names, so its
build is one projection of the automaton kept for source (or, when source
does not read x, one product with the words of length at least 1), and
the search compiles no text.
compile alone publishes the automata that the search's type algebras
read: given the query, it publishes the automaton kept for a case formula,
and builds each elimination image from the automaton kept for its source.
Nothing is kept across calls.

Publicly, automata for a formula with marked variables x1..xm read words
over an alphabet with ONE shared mark bit: the i-th marked position, left
to right, is the value of xi.  Publishing walks the formula's automaton
once, over pairs (state, marks read j): as the marks come in ascending
order, j tells which variable's track the next mark feeds, so no automaton
over the letters of every track is built.  Only assignments with
x1 < ... < xm are representable; pipelines that need other orderings split
into order cases first.  Query.realizable_cases derives the cases that some
word realizes, and their automata, from one build of the formula over one
track per variable.

A Run leaf carries such a public automaton inside a formula; it is embedded
as is, its mark bit fed by the OR of its variables' tracks, or, for an
automaton with one track per variable, each mark bit by its variable's
track, so an automaton the pipeline already holds never goes back through
MSO.

A map is built once, over one track per domain and image variable.  The
counting construction that gives its largest fiber and its preimage ranks
(preimage_ranks, which publishes rank automata only when asked for them)
reads that one automaton.

The growth degree has a second route through the compiler alone:
ambiguity_degree erases the variables' tracks of f's automaton and finds
its longest chain of IDA pairs, each by a search in the triple product,
linked by shortlex-least words that a walk over single states finds; the
growth lower witness repeats the chain's words.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .formula import (And, AtLeast, Const, Equal, ExistsFO, ExistsSO, ForallFO,
                      ForallSO, Formula, Implies, In, Less, Not, Or, Pred, Run, Signature,
                      check_depth, check_variables, occurrences)
from .words import MarkedWord, render_letter

DEFAULT_STATE_BUDGET = 10**6

# hard cap on delta entries of any intermediate automaton, to keep memory sane
_TRANSITION_CAP = 16_000_000


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton over label letters, optionally marked.

    Letters are integers: bits 0..k-1 are the labels in signature order;
    a marked automaton has `tracks` mark bits from bit k on, one shared
    mark bit unless it reads one track per variable.
    """

    sig: Signature
    marked: bool
    init: int
    delta: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]
    tracks: int = 1

    @property
    def n_states(self) -> int:
        return len(self.delta)

    @property
    def n_letters(self) -> int:
        return 1 << (self.sig.k + (self.tracks if self.marked else 0))

    def letter_name(self, letter: int) -> str:
        k = self.sig.k
        name = render_letter(self.sig, letter & ((1 << k) - 1))
        if self.marked:
            name += "".join("*" if self.tracks == 1 else f"*{j}"
                            for j in range(self.tracks) if letter >> (k + j) & 1)
        return name

    def run(self, w) -> bool:
        """Acceptance of a Word (or MarkedWord when the automaton is marked
        with one shared mark bit) over the automaton's signature."""
        if self.tracks != 1:
            raise InputError("a marked word cannot fill one track per variable")
        if isinstance(w, MarkedWord):
            if not self.marked:
                if w.marks:
                    raise InputError("plain automaton cannot read marks")
                w = w.word
        elif self.marked:
            w = MarkedWord(w, ())
        sig = w.word.sig if self.marked else w.sig
        if sig is not self.sig and sig != self.sig:
            raise InputError("word and automaton use different signatures")
        if self.marked:
            letters = list(w.word.letters)
            bit = 1 << len(self.sig.preds)
            for p in w.marks:
                letters[p] |= bit
        else:
            letters = w.letters
        q, delta = self.init, self.delta
        for mask in letters:
            q = delta[q][mask]
        return q in self.accepting

    def dump(self) -> str:
        alphabet = ", ".join(self.letter_name(a) for a in range(self.n_letters))
        acc = ",".join(str(q) for q in sorted(self.accepting))
        lines = [f"dfa states={self.n_states} init={self.init} "
                 f"accepting=[{acc}] alphabet=[{alphabet}]"]
        for q in range(self.n_states):
            for a in range(self.n_letters):
                lines.append(f"{q} {self.letter_name(a)} {self.delta[q][a]}")
        return "\n".join(lines)


@dataclass
class _Auto:
    """Internal total DFA over label bits plus one track per variable."""

    sig: Signature
    fo: tuple[str, ...]
    so: tuple[str, ...]
    n_letters: int
    init: int
    delta: list[list[int]]
    accepting: set[int]

    @property
    def n(self) -> int:
        return len(self.delta)

    def fo_bit(self, v: str) -> int:
        return self.sig.k + self.fo.index(v)

    def so_bit(self, s: str) -> int:
        return self.sig.k + len(self.fo) + self.so.index(s)


def _n_letters(sig, fo, so):
    return 1 << (sig.k + len(fo) + len(so))


class _Builder:
    """Builds automata under the state budget; its budget errors name the
    stage that ran out.  known holds the automata of the formulas that its
    Query kept, by the identity of the formula object; a builder that
    builds no formula gets an empty one."""

    def __init__(self, sig: Signature, budget: int, stage: str,
                 known: dict[int, tuple[Formula, _Auto]]):
        self.sig = sig
        self.budget = budget
        self.stage = stage
        self.known = known

    def _check(self, n: int, n_letters: int = 0):
        if n > self.budget:
            raise ResourceLimitError(
                f"state budget exceeded ({n} > {self.budget})",
                budget=self.budget, subject="states", stage=self.stage, reached=n)
        if n_letters and n * n_letters > _TRANSITION_CAP:
            raise ResourceLimitError(
                f"transition table too large ({n} states x {n_letters} letters)",
                budget=_TRANSITION_CAP, subject="transitions", stage=self.stage,
                reached=n * n_letters)

    # ----- small automata -----

    def _fresh(self, fo, so, n_states, init, accepting) -> _Auto:
        nl = _n_letters(self.sig, fo, so)
        self._check(n_states)
        delta = [[0] * nl for _ in range(n_states)]
        return _Auto(self.sig, tuple(fo), tuple(so), nl, init, delta, set(accepting))

    def single_mark(self, fo, so, marked, need: int = 0) -> _Auto:
        """The tracks of the variables marked carry one mark each, all at
        one position, where every bit of need is set as well."""
        a = self._fresh(fo, so, 3, 0, {1})
        hit = 0
        for v in marked:
            hit |= 1 << a.fo_bit(v)
        need |= hit
        for letter in range(a.n_letters):
            if letter & hit:
                a.delta[0][letter] = 1 if letter & need == need else 2
                a.delta[1][letter] = 2
            else:
                a.delta[0][letter] = 0
                a.delta[1][letter] = 1
            a.delta[2][letter] = 2
        return a

    def marked_once(self, fo, so, tracks) -> _Auto:
        """Each of the tracks carries exactly one mark: state `seen` is the
        bit set of the tracks marked so far, and a second mark on one of
        them leads to the dead state 1 << len(tracks)."""
        dead = 1 << len(tracks)
        a = self._fresh(fo, so, dead + 1, 0, {dead - 1})
        bits = [a.fo_bit(v) for v in tracks]
        marks = [sum(1 << j for j, b in enumerate(bits) if letter >> b & 1)
                 for letter in range(a.n_letters)]
        for seen in range(dead):
            a.delta[seen] = [dead if m & seen else seen | m for m in marks]
        a.delta[dead] = [dead] * a.n_letters
        return a

    def longer(self, fo, so, count: int) -> _Auto:
        """The words of at least count letters."""
        a = self._fresh(fo, so, count + 1, 0, {count})
        for q in range(count + 1):
            a.delta[q] = [min(q + 1, count)] * a.n_letters
        return a

    def atom_less(self, x: str, y: str) -> _Auto:
        fo = tuple(sorted({x, y}))
        if x == y:
            a = self.single_mark(fo, (), (x,))
            a.accepting = set()
            return a
        a = self._fresh(fo, (), 4, 0, {2})
        bx, by = a.fo_bit(x), a.fo_bit(y)
        for letter in range(a.n_letters):
            hx, hy = letter >> bx & 1, letter >> by & 1
            a.delta[0][letter] = 3 if hy else (1 if hx else 0)
            a.delta[1][letter] = 3 if hx else (2 if hy else 1)
            a.delta[2][letter] = 3 if (hx or hy) else 2
            a.delta[3][letter] = 3
        return a

    def run_leaf(self, dfa: Dfa, variables) -> _Auto:
        """A public automaton on tracks, each carrying a single mark: its
        shared mark bit reads the OR of the variables' tracks, or its j-th
        mark bit the track of the j-th variable."""
        if dfa.sig != self.sig:
            raise InputError("automaton leaf is over another signature")
        fo = tuple(sorted(set(variables)))
        nl = _n_letters(self.sig, fo, ())
        self._check(dfa.n_states, nl)
        k = self.sig.k
        low = (1 << k) - 1
        # (bit of the variable's track, mark bit it feeds)
        feeds = [(k + fo.index(v), k + (j if dfa.tracks > 1 else 0))
                 for j, v in enumerate(variables)]
        public = []
        for letter in range(nl):
            out = letter & low
            for src, dst in feeds:
                out |= (letter >> src & 1) << dst
            public.append(out)
        a = _Auto(self.sig, fo, (), nl, dfa.init,
                  [[row[p] for p in public] for row in dfa.delta], set(dfa.accepting))
        return self.valid(a, fo)

    # ----- closure operations -----

    def valid(self, a: _Auto, tracks) -> _Auto:
        """a restricted to a single mark on each of the first-order tracks."""
        return self.product(a, self.marked_once(a.fo, a.so, tracks), "and") if tracks else a

    def extend(self, a: _Auto, fo_add=(), so_add=(), merge=None) -> _Auto:
        """a over more tracks, which it reads but leaves unconstrained; a
        first-order variable that merge maps to another drops its own track
        and reads that one's instead."""
        merge = merge or {}
        nfo = tuple(sorted((set(a.fo) - set(merge)) | set(fo_add)))
        nso = tuple(sorted(set(a.so) | set(so_add)))
        if nfo == a.fo and nso == a.so:
            return a
        nl = _n_letters(self.sig, nfo, nso)
        self._check(a.n, nl)
        k = self.sig.k
        # (bit in the new letter, bit in the old letter) of each old track
        moves = [(k + nfo.index(merge.get(v, v)), k + j) for j, v in enumerate(a.fo)]
        moves += [(k + len(nfo) + nso.index(s), k + len(a.fo) + j)
                  for j, s in enumerate(a.so)]
        remap = []
        for letter in range(nl):
            old = letter & ((1 << k) - 1)
            for new_bit, old_bit in moves:
                old |= (letter >> new_bit & 1) << old_bit
            remap.append(old)
        return _Auto(self.sig, nfo, nso, nl, a.init,
                     [list(map(row.__getitem__, remap)) for row in a.delta],
                     set(a.accepting))

    def align(self, a: _Auto, b: _Auto) -> tuple[_Auto, _Auto]:
        a2 = self.extend(a, b.fo, b.so)
        b2 = self.extend(b, a.fo, a.so)
        return a2, b2

    def explore(self, start, successors, n_letters: int = 0, dead=None):
        """Breadth-first search from start: the states in the order found
        and, per state, the indices of the list successors(state) returns.
        Each state found is counted against the state budget.  Every state
        found for which dead holds, or with no dead every successor None,
        is the one dead state None, whose row explore writes: n_letters
        letters, each back to itself."""
        if dead is not None and dead(start):
            start = None
        index, order, delta = {start: 0}, [start], []
        while len(delta) < len(order):
            st = order[len(delta)]
            if st is None:
                delta.append([index[None]] * n_letters)
                continue
            succ = successors(st)
            for t in dict.fromkeys(succ):
                if t not in index:
                    u = None if dead is not None and dead(t) else t
                    if u not in index:
                        index[u] = len(order)
                        order.append(u)
                        self._check(len(order), n_letters)
                    index[t] = index[u]
            delta.append(list(map(index.__getitem__, succ)))
        return order, delta

    def minimal(self, start, successors, accepts, n_letters: int, dead=None,
                fo=(), so=()) -> _Auto:
        """The minimal automaton, over the tracks fo and so, of the states
        that explore finds from start: a state accepts when accepts holds
        for it, and the dead state never does."""
        order, delta = self.explore(start, successors, n_letters, dead)
        accepting = {i for i, st in enumerate(order) if st is not None and accepts(st)}
        return self.refine(_Auto(self.sig, fo, so, n_letters, 0, delta, accepting))

    def product(self, a: _Auto, b: _Auto, op: str) -> _Auto:
        """The minimal automaton of the product of a and b under op: a pair
        accepts when one side does (or) or both do (and), and it is the
        dead state when both sides (or) or one (and) sit in their rejecting
        sinks."""
        assert a.fo == b.fo and a.so == b.so
        holds, dies = (any, all) if op == "or" else (all, any)
        sa, sb = _sinks(a), _sinks(b)
        return self.minimal(
            (a.init, b.init), lambda st: list(zip(a.delta[st[0]], b.delta[st[1]])),
            lambda st: holds((st[0] in a.accepting, st[1] in b.accepting)), a.n_letters,
            lambda st: dies((st[0] in sa, st[1] in sb)), a.fo, a.so)

    def complement(self, a: _Auto) -> _Auto:
        out = _Auto(self.sig, a.fo, a.so, a.n_letters, a.init,
                    [row[:] for row in a.delta],
                    set(range(a.n)) - a.accepting)
        # the complement of a complete automaton is as minimal as it is,
        # and numbered the same
        return self.valid(out, a.fo) if a.fo else out

    def project(self, a: _Auto, kind: str, name: str, count: int = 1) -> _Auto:
        """The minimal automaton of the words on which at least count
        markings of the track of name lead a to acceptance, that track
        erased.  A counting subset construction: a state is the sorted tuple
        of (state of a, number of markings of the erased track that reach
        it, capped at count); the states of a's rejecting sinks drop out.  a
        is deterministic, so distinct markings are distinct runs; on a
        first-order track a accepts only single marks, one per position."""
        if kind == "fo":
            bit = a.fo_bit(name)
            fo, so = tuple(v for v in a.fo if v != name), a.so
        else:
            bit = a.so_bit(name)
            fo, so = a.fo, tuple(s for s in a.so if s != name)
        low = (1 << bit) - 1
        groups = []
        for letter in range(a.n_letters >> 1):
            l0 = (letter & low) | ((letter & ~low) << 1)
            groups.append((l0, l0 | 1 << bit))
        sinks = _sinks(a)

        def successors(cur):
            # new letter j reads either letter of groups[j]
            row = []
            for group in groups:
                counts: dict[int, int] = {}
                for q, c in cur:
                    for letter in group:
                        t = a.delta[q][letter]
                        if t not in sinks:
                            counts[t] = min(count, counts.get(t, 0) + c)
                row.append(tuple(sorted(counts.items())))
            return row

        return self.minimal(
            () if a.init in sinks else ((a.init, 1),), successors,
            lambda cur: sum(c for q, c in cur if q in a.accepting) >= count,
            len(groups), None, fo, so)

    def refine(self, a: _Auto, rows=None) -> _Auto:
        """The minimal automaton of a, whose states explore numbered: all
        reachable, breadth-first from 0; the quotient keeps that order.  rows,
        when given, are a's rows on one letter of each distinct column."""
        cls, reps = _moore(rows or a.delta, [q in a.accepting for q in range(a.n)])
        if len(reps) == a.n:
            return a
        return _Auto(self.sig, a.fo, a.so, a.n_letters, 0,
                     [[cls[t] for t in a.delta[r]] for r in reps],
                     {i for i, r in enumerate(reps) if r in a.accepting})

    # ----- recursive construction -----

    def built(self, f: Formula) -> _Auto:
        """The automaton of f: the one kept for this very object, or a new
        build."""
        hit = self.known.get(id(f))
        return self.build(f) if hit is None else hit[1]

    def keep(self, f: Formula, a: _Auto) -> _Auto:
        """a, kept as the automaton of the object f for later builds; a
        ranges over exactly f's free first-order tracks."""
        self.known[id(f)] = (f, a)
        return a

    def build(self, f: Formula) -> _Auto:
        match f:
            case Const(value):
                return self._fresh((), (), 1, 0, {0} if value else ())
            case Less(x, y):
                return self.atom_less(x, y)
            case Equal(x, y):
                return self.single_mark(tuple(sorted({x, y})), (), (x, y))
            case Pred(name, x):
                return self.single_mark((x,), (), (x,), 1 << self.sig.index(name))
            case In(s, x):
                # the set track sits right after the one first-order track
                return self.single_mark((x,), (s,), (x,), 1 << (self.sig.k + 1))
            case Run(dfa, vs):
                return self.keep(f, self.run_leaf(dfa, vs))
            case Not(g):
                return self.complement(self.built(g))
            case And(parts) | Or(parts):
                op = "and" if isinstance(f, And) else "or"
                a = self.built(parts[0])
                for g in parts[1:]:
                    b = self.built(g)
                    one_sided = sorted(set(a.fo) ^ set(b.fo)) if op == "or" else ()
                    a = self.valid(self.product(*self.align(a, b), op), one_sided)
                return a
            case Implies(l, r):
                return self.build(Or((Not(l), r)))
            case ExistsFO(v, g) | AtLeast(_, v, g):
                count = f.count if isinstance(f, AtLeast) else 1
                if not count:
                    return self._fresh((), (), 1, 0, {0})
                a = self.built(g)
                if v not in a.fo:
                    # no track of g reads v: g holds at every position or at
                    # none (with a track added for v and projected instead, an
                    # oracle-check pass ran about 9% slower)
                    return self.product(a, self.longer(a.fo, a.so, count), "and")
                return self.project(a, "fo", v, count)
            case ForallFO(v, g):
                return self.build(Not(ExistsFO(v, Not(g))))
            case ExistsSO(s, g):
                # the empty set exists on every word: a set that no track of
                # g reads changes nothing
                a = self.built(g)
                return self.project(a, "so", s) if s in a.so else a
            case ForallSO(s, g):
                return self.build(Not(ExistsSO(s, Not(g))))
        raise InputError(f"cannot compile {f!r}")

    def to_public(self, a: _Auto, ordered_vars) -> Dfa:
        """The minimal public automaton of a, whose tracks are among
        ordered_vars: one walk over pairs (state of a, marks read j), in
        which the next mark feeds the track of ordered_vars[j], or none when
        a does not read it.  A pair accepts when all marks are read and a
        accepts; it is the dead state when a sits in a rejecting sink or a
        mark comes after the last.  With no marked variable this is a's
        minimization."""
        m, size = len(ordered_vars), 1 << self.sig.k
        assert set(a.fo) <= set(ordered_vars) and not a.so
        # bits[j]: the track bit that the mark after j marks read sets
        bits = [1 << a.fo_bit(v) if v in a.fo else 0 for v in ordered_vars] + [0]
        sinks = _sinks(a)

        def successors(st):
            row, j = a.delta[st[0]], st[1]
            marked = [(t, j + 1) for t in row[bits[j]:bits[j] + size]] if m else []
            return [(t, j) for t in row[:size]] + marked

        out = self.minimal((a.init, 0), successors,
                           lambda st: st[1] == m and st[0] in a.accepting,
                           2 * size if m else size, lambda st: st[1] > m or st[0] in sinks)
        return self.publish(out, m > 0)

    def publish(self, a: _Auto, marked: bool, tracks: int = 1) -> Dfa:
        """The minimal automaton a, numbered as minimal leaves it:
        breadth-first from the initial state 0, letters in order."""
        return Dfa(self.sig, marked, a.init, tuple(map(tuple, a.delta)),
                   frozenset(a.accepting), tracks)


def _moore(delta, labels):
    """Moore refinement: the coarsest congruence of delta that refines
    labels, as each state's class, and each class's first state.  Classes
    are numbered by first state, so a later member's successors lie in the
    first member's classes, and a breadth-first table's quotient is too."""
    cls = labels
    while True:
        sigs: dict = {}
        new = [sigs.setdefault((c, tuple(map(cls.__getitem__, row))), len(sigs))
               for c, row in zip(cls, delta)]
        if new == cls:
            break
        cls = new
    reps: list[int] = []
    for q, c in enumerate(new):
        if c == len(reps):
            reps.append(q)
    return new, reps


def _sinks(a: _Auto) -> set[int]:
    """The rejecting sinks of a: the rejecting states that every letter
    leaves in place."""
    return {q for q, row in enumerate(a.delta)
            if q not in a.accepting and row.count(q) == len(row)}


def _auto_of(dfa: Dfa) -> _Auto:
    return _Auto(dfa.sig, (), (), dfa.n_letters, dfa.init,
                 [list(row) for row in dfa.delta], set(dfa.accepting))


class Query:
    """The builds of one public call, under one state budget: each formula
    that it compiles (compile, given the query), and each order case that
    it derives, keeps its automaton by the identity of the formula object
    for its later builds."""

    def __init__(self, sig: Signature, budget_states: int):
        self.sig = sig
        self.budget = budget_states
        self.known: dict[int, tuple[Formula, _Auto]] = {}

    def builder(self, stage: str) -> _Builder:
        return _Builder(self.sig, self.budget, stage, self.known)

    def realizable_cases(self, f: Formula, xs):
        """The order cases of f over xs that some word realizes, as (rank
        tuple, keep) pairs in rank tuple order, where keep(case), given the
        case's formula.OrderCase, keeps the case's automaton as its
        formula's, so that compile, given this query, publishes it.  f is
        built once, under stage compile, over one track per variable it has
        free, and kept as f's; a case's automaton is f's with each class's
        tracks merged into its representative's."""
        xs = tuple(xs)
        builder = self.builder("compile")
        _check(f, xs, builder)
        source = builder.keep(f, builder.built(f))

        def keep(case):
            merge = {v: rep for c, rep in zip(case.classes, case.representatives)
                     for v in c if v != rep}
            builder.keep(case.formula, builder.extend(
                source, fo_add=[merge[v] for v in source.fo if v in merge], merge=merge))

        return [(ranks, keep)
                for ranks in _realizable_ranks(builder.extend(source, fo_add=xs), xs)]

    def map_automaton(self, g: Formula, xs, ys) -> MapAutomaton:
        """The automaton of the map g from xs to ys; for a map source & h of
        this Query's call, the source's automaton times h's."""
        xs, ys = tuple(xs), tuple(ys)
        builder = self.builder("map automaton")
        _check(g, xs + ys, builder)
        a = builder.built(g)
        unused = [v for v in xs + ys if v not in a.fo]
        a = builder.valid(builder.extend(a, fo_add=unused), unused)
        return MapAutomaton(builder, a, xs, ys)


def compile(f: Formula, sig: Signature, marked_vars=(),
            budget_states: int = DEFAULT_STATE_BUDGET, *, query: Query | None = None) -> Dfa:
    """Compile a formula to a DFA over (optionally marked) label letters.

    marked_vars lists the free first-order variables in the order their
    marks appear in a word; assignments are therefore restricted to strictly
    ascending tuples.  Free variables must be covered by marked_vars; free
    set variables are not allowed.  Given the query of an enclosing call,
    whose signature must be sig and whose budget must be budget_states, the
    build reads the automata that query kept and keeps f's automaton in it,
    over the tracks of f's own free variables; publishing
    (_Builder.to_public) feeds the i-th mark to the track of the i-th marked
    variable.
    """
    if query is not None and query.sig != sig:
        raise InputError("compile: the query is over another signature")
    if query is not None and query.budget != budget_states:
        raise InputError("compile: the query runs under another budget")
    marked_vars = tuple(marked_vars)
    builder = (Query(sig, budget_states) if query is None else query).builder("compile")
    _check(f, marked_vars, builder)
    return builder.to_public(builder.keep(f, builder.built(f)), marked_vars)


def _realizable_ranks(a: _Auto, xs) -> list[tuple[int, ...]]:
    """The rank tuples of the weak orderings of xs that words accepted by a
    realize, sorted.  A weak ordering is the sequence of track sets that a
    word's marked positions mark.  A forward search over sets of states
    follows each ordering, one track set at a time; it drops a set that
    holds only rejecting sinks, and keeps an ordering of every track whose
    set meets the accepting states, so a need not be minimal.  Sets of
    states are bit masks, ORed in plain loops."""
    k, full = a.sig.k, (1 << len(xs)) - 1
    # still[q]: the states that words marking no track (letters below
    # 1 << k) lead to from q
    still = []
    for q in range(a.n):
        seen, todo = {q}, [q]
        while todo:
            new = set(a.delta[todo.pop()][:1 << k]) - seen
            seen |= new
            todo += new
        still.append(sum(1 << r for r in seen))
    # after[q][t]: the same after a letter marking exactly the tracks t,
    # whose letters are the slice of q's row from t << k
    after = []
    for row in a.delta:
        masks = []
        for t in range(full + 1):
            mask = 0
            for r in row[t << k:(t + 1) << k]:
                mask |= still[r]
            masks.append(mask)
        after.append(masks)
    sinks = sum(1 << q for q in _sinks(a))
    accepting = sum(1 << q for q in a.accepting)
    patterns = []

    def search(states, used, pattern):
        if used == full and states & accepting:
            patterns.append(pattern)
        if used == full or not states & ~sinks:
            return
        rows = [masks for q, masks in enumerate(after) if states >> q & 1]
        for t in range(1, full + 1):
            if not t & used:
                mask = 0
                for masks in rows:
                    mask |= masks[t]
                search(mask, used | t, pattern + (t,))

    search(still[a.init], 0, ())
    bits = [1 << a.fo.index(v) for v in xs]
    return sorted(tuple(next(i for i, t in enumerate(p) if t & b) for b in bits)
                  for p in patterns)


def _check(f: Formula, marked_vars: tuple[str, ...], builder: _Builder):
    """Check the depth of what the builder will walk of f, and that the free
    variables of f are among marked_vars, distinct first-order names."""
    check_depth(f, builder.stage, builder.known)
    check_variables(marked_vars)
    free = dict.fromkeys((v, is_set) for v, is_set, is_free in occurrences(f) if is_free)
    if any(is_set for _, is_set in free):
        raise InputError("formula has free set variables")
    extra = [v for v, _ in free if v not in marked_vars]
    if extra:
        raise InputError(f"free variables {extra} are not marked")


@dataclass(frozen=True)
class MapAutomaton:
    """A map g built once: the minimal automaton of g over one track per
    variable of xs + ys, each carrying a single mark, and its builder, which
    the count reads."""

    builder: _Builder
    auto: _Auto
    xs: tuple[str, ...]
    ys: tuple[str, ...]


@dataclass
class PreimageRanks:
    """The counting construction over a map's automaton, unpublished: state
    q of delta accepts a pair at preimage rank ranks[q], counted up to cap,
    and None marks the states that accept nothing."""

    builder: _Builder
    tracks: int
    cap: int
    delta: list[list[int]]
    ranks: list[int | None]

    @property
    def largest_fiber(self) -> int:
        """The largest fiber, counted up to cap: the largest rank + 1."""
        return min(self.cap, max((r + 1 for r in self.ranks if r is not None), default=0))

    def selectors(self, n: int) -> list[Dfa]:
        """The published automata of the ranks below n <= cap, each refined
        from one quotient of the count table by its ranks."""
        b = self.builder
        cls, reps = _moore(self.delta, self.ranks)
        delta = [[cls[t] for t in self.delta[r]] for r in reps]
        # a count table repeats most of its columns: refine on one of each
        rows = list(zip(*dict.fromkeys(zip(*delta))))
        return [b.publish(b.refine(_Auto(b.sig, (), (), len(delta[0]), 0, delta,
                                         {q for q, r in enumerate(reps) if self.ranks[r] == i}),
                                   rows),
                          True, self.tracks)
                for i in range(n)]


def preimage_ranks(m: MapAutomaton, cap: int) -> PreimageRanks:
    """The preimage ranks of the map m: a pair that it relates has rank i
    when exactly i of the xs tuples that it relates to its ys are
    lexicographically smaller than its xs.

    A counting subset construction runs m's automaton on each letter read
    and on every xs-bit variant of that letter: its states pair the state
    of the main run with the number of candidate xs markings reaching each
    pair (state, comparison with xs so far), capped at cap.  The automaton
    is deterministic, so each accepted candidate run is one distinct xs
    tuple.  A letter that sends the main run to its sink goes to explore's
    dead state, None.  The counting states run under m's state budget, and
    the rank automata are published, by a builder of their own stage.
    """
    if cap < 1:
        raise InputError("the fiber cap must be at least 1")
    builder = _Builder(m.builder.sig, m.builder.budget, "preimage ranks", {})
    a, xs, ys = m.auto, m.xs, m.ys
    k, n = builder.sig.k, len(xs)
    less = (2,)

    @functools.cache
    def compare(cmp, main, cand):
        # per coordinate: 0 no mark yet, 1 the main mark came first, 2 the
        # candidate's did, 3 both at once; up to the first unequal one,
        # which is final once all before it are equal (a larger candidate
        # is dropped)
        out = []
        for j, s in enumerate(cmp):
            s = s or (main >> j & 1) | (cand >> j & 1) << 1
            if s in (1, 2):
                if all(e == 3 for e in out):
                    return less if s == 2 else None
                return tuple(out + [s])
            out.append(s)
        return tuple(out)

    sink = _sinks(a)

    def spread(mask, variables):
        return sum(1 << a.fo_bit(v) for j, v in enumerate(variables) if mask >> j & 1)

    # the letter of a read on each letter of the result, and the bits of a
    # that each set of xs coordinates marks
    letters = [(letter & ((1 << k) - 1)) | spread(letter >> k, xs + ys)
               for letter in range(1 << (k + n + len(ys)))]
    xbits = [spread(c, xs) for c in range(1 << n)]

    def successors(cur):
        row = []
        for letter, inner in enumerate(letters):
            nxt = None
            if a.delta[cur[0]][inner] not in sink:
                base, main = inner & ~xbits[-1], letter >> k & ((1 << n) - 1)
                counts: dict = {}
                for (p, cmp), c in cur[1]:
                    for cand, bits in enumerate(xbits):
                        t, to = a.delta[p][base | bits], compare(cmp, main, cand)
                        if t not in sink and to is not None:
                            counts[t, to] = min(cap, counts.get((t, to), 0) + c)
                nxt = (a.delta[cur[0]][inner], tuple(sorted(counts.items())))
            row.append(nxt)
        return row

    order, delta = builder.explore((a.init, (((a.init, (0,) * n), 1),)),
                                   successors, len(letters))
    ranks = [None if st is None or st[0] not in a.accepting else
             min(cap, sum(c for (t, cmp), c in st[1] if t in a.accepting and cmp == less))
             for st in order]
    return PreimageRanks(builder, len(xs + ys), cap, delta, ranks)


def max_fiber(g: Formula, sig: Signature, xs, ys, cap: int,
              budget_states: int = DEFAULT_STATE_BUDGET) -> int:
    """The largest number of xs tuples that share one ys tuple under g on
    one word, counted up to cap: the lexicographically last of them has as
    many smaller ones as the fiber has members but one, so this is the
    largest preimage rank + 1."""
    m = Query(sig, budget_states).map_automaton(g, xs, ys)
    return preimage_ranks(m, cap).largest_fiber


@dataclass(frozen=True)
class IdaChain:
    """A longest chain of IDA pairs of an automaton whose variables' tracks
    are erased: pairs[i] = (p, q) with its word loops[i], on which p reaches
    p, p reaches q and q reaches q, and the words links, on which the
    initial state reaches the first p, each q the next p, and the last q
    (the initial state, with no pair) acceptance.  An automaton that
    accepts nothing has no links.  Words are tuples of label letters."""

    pairs: tuple[tuple[int, int], ...]
    loops: tuple[tuple[int, ...], ...]
    links: tuple[tuple[int, ...], ...]

    @property
    def degree(self) -> int:
        return len(self.pairs)


def ambiguity_degree(f: Formula, sig: Signature, variables,
                     budget_states: int = DEFAULT_STATE_BUDGET) -> IdaChain:
    """The degree of ambiguity of f's automaton over variables with their
    tracks erased, and one chain of IDA pairs that realizes it.

    The automaton is f's, built in one Query, widened to one track per
    variable and restricted to a single mark on each.  It is deterministic
    over marked letters, so distinct accepting runs of its erasure on a word
    are distinct satisfying tuples, and the tuples on a word are at most a
    constant times its runs.  An IDA pair is two states p != q and a word v
    with p ->v p, p ->v q and q ->v q; Weber and Seidl (TCS 1991) show that
    the runs of a trim automaton grow as Theta(n**d) in the word length n,
    d the most IDA pairs on one path, when they grow polynomially, as tuple
    counts do.  Only states that reach acceptance take part.  A pair is
    tested by a breadth-first search in the triple product (Allauzen, Mohri
    and Rastogi, DLT 2008) from (p, p, q) to (p, q, q), its coordinates kept
    in p's component, in the states that p reaches and that reach q, and in
    q's component; the triples that all the searches visit count against
    the budget under stage ambiguity.  The longest chain is a memoized walk
    over reachability, pairs in order.  Each link is the shortlex-least word
    between its ends, found by a breadth-first walk over single states of
    the erasure, letters in order, which counts against no budget.
    """
    variables = tuple(variables)
    b = Query(sig, budget_states).builder("compile")
    _check(f, variables, b)
    a = b.valid(b.extend(b.built(f), fo_add=variables), variables)
    labels = range(1 << sig.k)
    marks = [m << sig.k for m in range(1 << len(a.fo))]
    succ = [[{row[letter | m] for m in marks} for letter in labels] for row in a.delta]
    nexts = [sorted(set().union(*row)) for row in succ]
    # reach[q]: the states that q reaches, as a bit mask; back[q]: the live
    # ones that reach q
    reach = [sum(1 << t for t in b.explore(q, nexts.__getitem__)[0]) for q in range(a.n)]
    live = [q for q in range(a.n) if any(reach[q] >> t & 1 for t in a.accepting)]
    back = [sum(1 << t for t in live if reach[t] >> q & 1) for q in range(a.n)]
    # an IDA pair's p and q lie on cycles, in different components, the
    # first reaching the second
    cyclic = [q for q in live if any(reach[t] >> q & 1 for t in nexts[q])]
    candidates = [(p, q) for p in cyclic for q in cyclic
                  if reach[p] >> q & 1 and not reach[q] >> p & 1]
    search = _Builder(sig, budget_states, "ambiguity", {})
    visited = 0

    @functools.cache
    def loop(p, q):
        """The word v of the IDA pair (p, q), or None."""
        nonlocal visited
        keep = (reach[p] & back[p], reach[p] & back[q], reach[q] & back[q])
        words, todo = {(p, p, q): ()}, [(p, p, q)]
        for st in todo:
            for letter in labels:
                for t in itertools.product(*([r for r in succ[s][letter] if mask >> r & 1]
                                             for s, mask in zip(st, keep))):
                    if t not in words:
                        words[t] = words[st] + (letter,)
                        visited += 1
                        search._check(visited)
                        if t == (p, q, q):
                            return words[t]
                        todo.append(t)
        return None

    @functools.cache
    def longest(s):
        """The longest chain of IDA pairs whose first p s reaches."""
        chains = [((p, q),) + longest(q) for p, q in candidates
                  if reach[s] >> p & 1 and loop(p, q) is not None]
        return max(chains, key=len, default=())

    def link(start, targets):
        """The shortlex-least word from start into targets: states leave
        the queue in the shortlex order of their least words."""
        words, todo = {start: ()}, [start]
        for q in todo:
            if q in targets:
                return words[q]
            for letter in labels:
                for t in succ[q][letter]:
                    if t not in words:
                        words[t] = words[q] + (letter,)
                        todo.append(t)

    if a.init not in live:
        return IdaChain((), (), ())
    pairs = longest(a.init)
    starts = [a.init] + [q for _, q in pairs]
    ends = [{p} for p, _ in pairs] + [a.accepting]
    return IdaChain(pairs, tuple(loop(p, q) for p, q in pairs), tuple(map(link, starts, ends)))


def minimize_dfa(dfa: Dfa, budget_states: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Language-preserving minimization of an already built automaton: its
    reachable states, walked breadth-first from the initial state, letters
    in order, refined."""
    b = _Builder(dfa.sig, budget_states, "minimize", {})
    a = _auto_of(dfa)
    return b.publish(b.minimal(a.init, a.delta.__getitem__, a.accepting.__contains__,
                               a.n_letters, None, a.fo, a.so), dfa.marked, dfa.tracks)


def dfa_empty(dfa: Dfa) -> bool:
    """True when no accepting state is reachable from the initial one."""
    # the budget bounds the states, so it never runs out
    order, _ = _Builder(dfa.sig, dfa.n_states, "emptiness", {}).explore(
        dfa.init, dfa.delta.__getitem__)
    return dfa.accepting.isdisjoint(order)


def dfa_to_formula(dfa: Dfa, variables=()) -> Formula:
    """A formula whose satisfying assignments are the accepted markings.

    For a marked automaton the free variables name the marks in ascending
    order, or, when it reads one track per variable, the j-th names the
    mark on track j; a plain automaton yields a sentence.  This is the MSO
    export of the leaf Run(dfa, variables), which quantifies its own names,
    fresh against variables, and leaves out transitions into a rejecting
    sink; pipelines keep the leaf itself, which compiles and evaluates
    directly.
    """
    variables = tuple(variables)
    if dfa.marked and len(set(variables)) != len(variables):
        raise InputError("variables must be distinct")
    return Run(dfa, variables).mso()
