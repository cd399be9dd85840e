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
none: ex v. g is g's automaton times one that accepts the words of length
at least 1, atleast c v. g (c >= 1, v not free in g) the same for length
c, and EX S. g is g's automaton.  Track projection is the one subset
construction, and it runs under the state budget.  The product, the subset construction,
the publish walk, minimization and reparam's guard automata are each one
breadth-first walk (explore) that one builder method (minimal) refines
into a minimal automaton.  The walk owns the one dead state: the product
sends there every pair that can no longer accept (a side in its rejecting
sink for a conjunction, both sides for a disjunction), and the publish
walk its dead pairs, so neither holds more than one state beyond its live
ones.

The builds of one public call share a Query: every formula that it
compiles keeps its automaton under the identity of the formula object, and
a later build that meets the same object reads that automaton; a counting
quantifier on a variable its body reads is expanded where the build meets
it, so no object above it is replaced.  So the source of a reparameterization is built once, by
Query.realizable_cases, and its order cases, the images that the search
reads and the map (Query.map_automaton of source & h, the source's
automaton times h's) all start from it.  An elimination image ex x.
source keeps the source's other variables under their own names, so its
build is one projection of the automaton kept for source (or, when source
does not read x, one product with the words of length at least 1), and
the search compiles no text.
compile alone publishes the automata that the search's type algebras
read: given the query, it publishes the automaton kept for a case formula,
builds each elimination image from the automaton kept for its source, and
builds the growth witness's image ex xs. g from the automaton kept for g.
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
lexicographically least fiber over an image tuple (first_fiber) and the
counting construction that gives its largest fiber and its preimage ranks
(preimage_ranks, which publishes rank automata only when asked for them)
read that one automaton.  Its image ex xs. g, compiled given the query,
starts from g's automaton, which the map's build keeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .formula import (And, AtLeast, Const, Equal, ExistsFO, ExistsSO, ForallFO,
                      ForallSO, Formula, Implies, In, Less, Not, Or, Pred, Run, Signature,
                      check_depth, check_variables, expand_macros, occurrences, rank_classes)
from .words import MarkedWord, Word, render_letter

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

    def project(self, a: _Auto, kind: str, name: str) -> _Auto:
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
        # subset construction: new letter j reads either letter of groups[j]
        return self.minimal(
            frozenset({a.init}),
            lambda cur: [frozenset(a.delta[q][letter] for q in cur for letter in group)
                         for group in groups],
            lambda cur: cur & a.accepting, len(groups), None, fo, so)

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
            case AtLeast(count, v, g) if count and (v, False, True) not in occurrences(g):
                # g does not read v: it holds at every position or at none
                # (built by the general constructions instead, this and ex v.
                # g below, an oracle-check pass ran about 9% slower)
                a = self.built(g)
                return self.product(a, self.longer(a.fo, a.so, count), "and")
            case AtLeast():
                return self.build(check_depth(expand_macros(f), self.stage, self.known))
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
            case ExistsFO(v, g):
                a = self.built(g)
                if v not in a.fo:
                    # no track of g reads v: some position exists and g holds
                    return self.product(a, self.longer(a.fo, a.so, 1), "and")
                return self.project(a, "fo", v)
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
        tuple, keep) pairs in rank tuple order, where keep(formula), given
        the case's formula, keeps the case's automaton as that formula's, so
        that compile, given this query, publishes it.  f is built once,
        under stage compile, over one track per variable it has free, and
        kept as f's; a case's automaton is f's with each class's tracks
        merged into its representative's, its classes derived from its
        rank tuple only when keep runs."""
        xs = tuple(xs)
        builder = self.builder("compile")
        _check(f, xs, builder)
        source = builder.keep(f, builder.built(f))

        def keep(ranks, formula):
            merge = {v: c[0] for c in rank_classes(xs, ranks) for v in c[1:]}
            builder.keep(formula, builder.extend(
                source, fo_add=[merge[v] for v in source.fo if v in merge], merge=merge))

        return [(ranks, functools.partial(keep, ranks))
                for ranks in _realizable_ranks(builder.extend(source, fo_add=xs), xs)]

    def map_automaton(self, g: Formula, xs, ys) -> MapAutomaton:
        """The automaton of the map g from xs to ys; for a map source & h of
        this Query's call, the source's automaton times h's.  g's automaton
        is kept, so compile, given this query, builds g's image ex xs. g
        from it."""
        xs, ys = tuple(xs), tuple(ys)
        builder = self.builder("map automaton")
        _check(g, xs + ys, builder)
        a = builder.keep(g, builder.built(g))
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
    word's marked positions mark.  A backward pass finds, per set of tracks
    used, the states from which some word marks each other track once and
    accepts; a forward search over sets of states follows only those.  Sets
    of states are bit masks, ORed in plain loops."""
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
        mask = 0
        for r in seen:
            mask |= 1 << r
        still.append(mask)
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
    # live[used]: the states with a letter marking some tracks t outside
    # used into live[used | t], and live[full] the accepting ones; a set of
    # the search is closed under words marking no track, so it can still
    # accept exactly when it meets live[used]
    live = [0] * (full + 1)
    for q in a.accepting:
        live[full] |= 1 << q
    for used in reversed(range(full)):
        targets = [(t, live[used | t]) for t in range(1, full + 1) if not t & used]
        for q, masks in enumerate(after):
            for t, target in targets:
                if masks[t] & target:
                    live[used] |= 1 << q
                    break
    patterns = []

    def search(states, used, pattern):
        if not states & live[used]:
            return
        if used == full:
            patterns.append(pattern)
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
    variable of xs + ys, each carrying a single mark, and its builder.  The
    count and the fiber search read this one automaton."""

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


def first_fiber(m: MapAutomaton, word: Word, image):
    """The lexicographically least xs tuple that the map m relates to ys
    placed at the positions image on word, or None when there is none.

    The xs are fixed one at a time: a backward pass collects, per position,
    the states from which the rest of the word can still accept with this
    and the later xs left open, and a forward subset pass over the prefix
    places the variable at the first position from which one of them is
    reached.  The automaton keeps every track to a single mark, so an open
    track is marked exactly once on any accepted run.
    """
    a, xs = m.auto, m.xs
    if word.sig is not a.sig and word.sig != a.sig:
        raise InputError("word and automaton use different signatures")
    letters = list(word.letters)
    for v, p in zip(m.ys, image):
        letters[p] |= 1 << a.fo_bit(v)
    fiber = []
    for i in range(len(xs) + 1):
        later = [0]
        for v in xs[i + 1:]:
            later += [x | 1 << a.fo_bit(v) for x in later]
        bit = 1 << a.fo_bit(xs[i]) if i < len(xs) else 0
        live = [a.accepting]
        for letter in reversed(letters):
            after = live[-1]
            reads = [letter | b | x for b in {0, bit} for x in later]
            live.append({q for q, row in enumerate(a.delta)
                         if any(row[r] in after for r in reads)})
        live.reverse()
        if a.init not in live[0]:
            return None
        if i == len(xs):
            return tuple(fiber)
        cur = {a.init}
        j = 0
        while not any(a.delta[q][letters[j] | bit | x] in live[j + 1]
                      for q in cur for x in later):
            cur = {a.delta[q][letters[j] | x] for q in cur for x in later}
            j += 1
        letters[j] |= bit
        fiber.append(j)


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
