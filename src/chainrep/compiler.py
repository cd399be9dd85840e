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
side has, a first-order quantifier on a variable its body does not mention,
a complement and a Run leaf on all their tracks, and the final ascending
pattern on the marked variables.  A conjunction needs nothing, as each side
enforces its own tracks.  Projection, track merging and project_mark share
one subset construction, which runs under the state budget.  The product
and the subset construction number their states breadth-first, so their
tables go straight to partition refinement; other automata are trimmed first.
The product explores every pair that can no longer accept (a side in its
rejecting sink for a conjunction, both sides for a disjunction) as one dead
state, so it never holds more than one state beyond the live pairs.

The builds of one public call share a Query: every formula that it
compiles keeps its automaton under the identity of the formula object, and
a later build that meets the same object reads that automaton.  So the
source of a minimal reparameterization is built once, by
Query.realizable_cases, and its order cases, the images that the search
compiles (compile, given the query) and the map (source & h, the source's
automaton times h's, over the ys tracks too) all start from it.  Nothing
is kept across calls.

Publicly, automata for a formula with marked variables x1..xm read words
over an alphabet with ONE shared mark bit: the i-th marked position, left
to right, is the value of xi.  The final compilation step intersects with
the strict-ascending track order and then merges all tracks into the shared
bit.  Only assignments with x1 < ... < xm are representable; pipelines that
need other orderings split into order cases first.  Query.realizable_cases
derives the cases that some word realizes, and their automata, from one
build of the formula over one track per variable.

A Run leaf carries such a public automaton inside a formula; it is embedded
as is, its mark bit fed by the OR of its variables' tracks, or, for an
automaton with one track per variable, each mark bit by its variable's
track, so an automaton the pipeline already holds never goes back through
MSO.

A map is built once, by map_automaton, over one track per domain and
image variable.  Its image, the lexicographically least fiber over an
image tuple (first_fiber) and the counting construction that gives its
largest fiber and its preimage ranks (preimage_ranks, which publishes rank
automata only when asked for them) all read that one automaton.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .formula import (And, Const, Equal, ExistsFO, ExistsSO, ForallFO, ForallSO,
                      Formula, Implies, In, Less, Not, Or, Pred, Run, Signature,
                      expand_macros, is_fo_name, occurrences, rank_classes)
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
        with one shared mark bit)."""
        if self.tracks != 1:
            raise InputError("a marked word cannot fill one track per variable")
        if isinstance(w, MarkedWord):
            if not self.marked:
                if w.marks:
                    raise InputError("plain automaton cannot read marks")
                w = w.word
        elif self.marked:
            w = MarkedWord(w, ())
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
        for v in tracks:
            a = self.product(a, self.single_mark(a.fo, a.so, (v,)), "and")
        return a

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
        found for which dead holds is the one dead state None, whose
        successors successors(None) must give."""
        if dead is not None and dead(start):
            start = None
        index, order, delta = {start: 0}, [start], []
        while len(delta) < len(order):
            succ = successors(order[len(delta)])
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

    def product(self, a: _Auto, b: _Auto, op: str) -> _Auto:
        """The minimal automaton of the product of a and b under op: a pair
        accepts when one side does (or) or both do (and), and it is dead,
        one state for all, when both sides (or) or one (and) sit in their
        rejecting sinks."""
        assert a.fo == b.fo and a.so == b.so
        holds, dies = (any, all) if op == "or" else (all, any)
        sa, sb = _sinks(a), _sinks(b)
        dead_row = [None] * a.n_letters
        order, delta = self.explore(
            (a.init, b.init),
            lambda st: dead_row if st is None else list(zip(a.delta[st[0]], b.delta[st[1]])),
            a.n_letters, lambda st: dies((st[0] in sa, st[1] in sb)))
        accepting = {i for i, st in enumerate(order) if st is not None
                     and holds((st[0] in a.accepting, st[1] in b.accepting))}
        return self.refine(_Auto(self.sig, a.fo, a.so, a.n_letters, 0, delta, accepting))

    def complement(self, a: _Auto) -> _Auto:
        out = _Auto(self.sig, a.fo, a.so, a.n_letters, a.init,
                    [row[:] for row in a.delta],
                    set(range(a.n)) - a.accepting)
        return self.valid(out, a.fo) if a.fo else self.minimize(out)

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
        return self.determinize(a, groups, fo, so)

    def determinize(self, a: _Auto, groups, fo=(), so=()) -> _Auto:
        """Subset construction in which new letter j reads any old letter in
        groups[j]; the result is minimal, over the tracks fo and so."""
        order, delta = self.explore(
            frozenset({a.init}),
            lambda cur: [frozenset(a.delta[q][letter] for q in cur for letter in group)
                         for group in groups],
            len(groups))
        accepting = {i for i, s in enumerate(order) if s & a.accepting}
        return self.refine(_Auto(self.sig, fo, so, len(groups), 0, delta, accepting))

    def minimize(self, a: _Auto) -> _Auto:
        """The minimal automaton of a, its states in breadth-first order
        from the initial state, letters in order: refine after a trim,
        which numbers the reachable states breadth-first."""
        reach, delta = self.explore(a.init, a.delta.__getitem__)
        return self.refine(_Auto(self.sig, a.fo, a.so, a.n_letters, 0, delta,
                                 {i for i, q in enumerate(reach) if q in a.accepting}))

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

    def ascending(self, fo, so, ordered_vars) -> _Auto:
        """Marks of ordered_vars appear one by one, in order, at distinct
        positions."""
        m = len(ordered_vars)
        a = self._fresh(fo, so, m + 2, 0, {m})
        dead = m + 1
        bits = [a.fo_bit(v) for v in ordered_vars]
        for letter in range(a.n_letters):
            hits = [j for j, b in enumerate(bits) if letter >> b & 1]
            for q in range(m + 1):
                if not hits:
                    a.delta[q][letter] = q
                elif hits == [q]:
                    a.delta[q][letter] = q + 1
                else:
                    a.delta[q][letter] = dead
            a.delta[dead][letter] = dead
        return a

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
                return self.run_leaf(dfa, vs)
            case Not(g):
                return self.complement(self.built(g))
            case And(l, r):
                return self.product(*self.align(self.built(l), self.built(r)), "and")
            case Or(l, r):
                a, b = self.built(l), self.built(r)
                one_sided = sorted(set(a.fo) ^ set(b.fo))
                a, b = self.align(a, b)
                return self.valid(self.product(a, b, "or"), one_sided)
            case Implies(l, r):
                return self.build(Or(Not(l), r))
            case ExistsFO(v, g):
                a = self.built(g)
                if v not in a.fo:
                    a = self.valid(self.extend(a, fo_add=(v,)), (v,))
                return self.project(a, "fo", v)
            case ForallFO(v, g):
                return self.build(Not(ExistsFO(v, Not(g))))
            case ExistsSO(s, g):
                a = self.extend(self.built(g), so_add=(s,))
                return self.project(a, "so", s)
            case ForallSO(s, g):
                return self.build(Not(ExistsSO(s, Not(g))))
        raise InputError(f"cannot compile {f!r}")

    def to_public(self, a: _Auto, ordered_vars) -> Dfa:
        if not ordered_vars:
            assert not a.fo and not a.so
            return self.publish(self.minimize(a), False)
        a = self.product(a, self.ascending(a.fo, a.so, ordered_vars), "and")
        # merge all tracks into the shared mark bit
        k = self.sig.k
        track_mask = ((a.n_letters - 1) >> k) << k
        groups: list[list[int]] = [[] for _ in range(1 << (k + 1))]
        for letter in range(a.n_letters):
            lab = letter & ((1 << k) - 1)
            mark = 1 if letter & track_mask else 0
            groups[lab | mark << k].append(letter)
        return self.publish(self.determinize(a, groups), True)

    def publish(self, a: _Auto, marked: bool, tracks: int = 1) -> Dfa:
        """The minimal automaton a, numbered as minimize leaves it:
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
        tuple, build) pairs in rank tuple order, where build(formula), given
        the case's formula, makes the Dfa compile publishes for it over its
        representatives.  f is built once, under stage compile, over one
        track per variable it has free; a case's automaton is f's with each
        class's tracks merged into its representative's, and its Dfa comes
        from that.  Both automata are kept, f's as f's and a case's as its
        formula's."""
        xs = tuple(xs)
        builder = self.builder("compile")
        f = _checked(f, xs)
        source = builder.keep(f, builder.built(f))
        a = builder.extend(source, fo_add=xs)

        def build(classes, formula):
            merge = {v: c[0] for c in classes for v in c[1:]}
            case = builder.extend(source, fo_add=[merge[v] for v in source.fo if v in merge],
                                  merge=merge)
            builder.keep(formula, case)
            reps = tuple(c[0] for c in classes)
            return builder.to_public(builder.extend(case, fo_add=reps), reps)

        return [(ranks, functools.partial(build, rank_classes(xs, ranks)))
                for ranks in _realizable_ranks(a, xs)]

    def map_automaton(self, g: Formula, xs, ys) -> MapAutomaton:
        """map_automaton of g, reading the automata this Query kept."""
        xs, ys = tuple(xs), tuple(ys)
        g = _checked(g, xs + ys)
        builder = self.builder("map automaton")
        a = builder.built(g)
        unused = [v for v in xs + ys if v not in a.fo]
        a = builder.minimize(builder.valid(builder.extend(a, fo_add=unused), unused))
        return MapAutomaton(builder, a, xs, ys)


def compile(f: Formula, sig: Signature, marked_vars=(),
            budget_states: int = DEFAULT_STATE_BUDGET, *, query: Query | None = None) -> Dfa:
    """Compile a formula to a DFA over (optionally marked) label letters.

    marked_vars lists the free first-order variables in the order their
    marks appear in a word; assignments are therefore restricted to strictly
    ascending tuples.  Free variables must be covered by marked_vars; free
    set variables are not allowed.  Given the query of an enclosing call
    (over sig), the build reads the automata that query kept, under its
    budget in place of budget_states, and keeps f's automaton in it.
    """
    marked_vars = tuple(marked_vars)
    builder = (Query(sig, budget_states) if query is None else query).builder("compile")
    f = _checked(f, marked_vars)
    a = builder.extend(builder.keep(f, builder.built(f)), fo_add=marked_vars)
    return builder.to_public(a, marked_vars)


def _realizable_ranks(a: _Auto, xs) -> list[tuple[int, ...]]:
    """The rank tuples of the weak orderings of xs that words accepted by a
    realize, sorted.  A weak ordering is the sequence of track sets that a
    word's marked positions mark.  A backward pass finds, per set of tracks
    used, the states from which some word marks each other track once and
    accepts; a forward search over sets of states follows only those."""
    k, full = a.sig.k, (1 << len(xs)) - 1

    def union(masks):
        return functools.reduce(int.__or__, masks, 0)

    # sets of states are bit masks.  still[q]: the states that words
    # marking no track (letters below 1 << k) lead to from q
    still = []
    for q in range(a.n):
        seen, todo = {q}, [q]
        while todo:
            new = set(a.delta[todo.pop()][:1 << k]) - seen
            seen |= new
            todo += new
        still.append(union(1 << r for r in seen))
    # after[q][t]: the same after a letter marking exactly the tracks t
    after = [[union(still[row[lab | t << k]] for lab in range(1 << k))
              for t in range(full + 1)] for row in a.delta]
    # live[used]: the states with a letter marking some tracks t outside
    # used into live[used | t], and live[full] the accepting ones; a set of
    # the search is closed under words marking no track, so it can still
    # accept exactly when it meets live[used]
    live = {full: union(1 << q for q in a.accepting)}
    for used in reversed(range(full)):
        live[used] = union(1 << q for q in range(a.n) if any(
            after[q][t] & live[used | t] for t in range(1, full + 1) if not t & used))
    patterns = []

    def search(states, used, pattern):
        if not states & live[used]:
            return
        if used == full:
            patterns.append(pattern)
        for t in range(1, full + 1):
            if not t & used:
                search(union(after[q][t] for q in range(a.n) if states >> q & 1),
                       used | t, pattern + (t,))

    search(still[a.init], 0, ())
    bits = [1 << a.fo.index(v) for v in xs]
    return sorted(tuple(next(i for i, t in enumerate(p) if t & b) for b in bits)
                  for p in patterns)


def _checked(f: Formula, marked_vars: tuple[str, ...]) -> Formula:
    """f with macros expanded, after checking that its free variables are
    among marked_vars, distinct first-order names."""
    for v in marked_vars:
        if not is_fo_name(v):
            raise InputError(f"bad marked variable {v!r}")
    if len(set(marked_vars)) != len(marked_vars):
        raise InputError("marked variables must be distinct")
    f = expand_macros(f)
    free = dict.fromkeys((v, is_set) for v, is_set, is_free in occurrences(f) if is_free)
    if any(is_set for _, is_set in free):
        raise InputError("formula has free set variables")
    extra = [v for v, _ in free if v not in marked_vars]
    if extra:
        raise InputError(f"free variables {extra} are not marked")
    return f


@dataclass(frozen=True)
class MapAutomaton:
    """A map g built once: the minimal automaton of g over one track per
    variable of xs + ys, each carrying a single mark, and its builder.  The
    count, the fiber search and the image all read this one automaton."""

    builder: _Builder
    auto: _Auto
    xs: tuple[str, ...]
    ys: tuple[str, ...]

    def image(self) -> Dfa:
        """The public automaton of ex xs. g over the ys marks, the one
        compile publishes for that formula."""
        a = self.auto
        for v in reversed(self.xs):
            a = self.builder.project(a, "fo", v)
        return self.builder.to_public(a, self.ys)


def map_automaton(g: Formula, sig: Signature, xs, ys,
                  budget_states: int = DEFAULT_STATE_BUDGET) -> MapAutomaton:
    """The automaton of the map g from xs to ys, under the state budget.
    Query.map_automaton builds it from the automata its call kept: for a
    map source & h of that call, the source's automaton times h's."""
    return Query(sig, budget_states).map_automaton(g, xs, ys)


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
    tuple.  A letter that sends the main run to its sink goes to one dead
    state, None.  The counting states run under m's state budget, and the
    rank automata are published, by a builder of their own stage.
    """
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
            if cur is not None and a.delta[cur[0]][inner] not in sink:
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
    return preimage_ranks(map_automaton(g, sig, xs, ys, budget_states), cap).largest_fiber


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
    """Language-preserving minimization of an already built automaton."""
    builder = _Builder(dfa.sig, budget_states, "minimize", {})
    return builder.publish(builder.minimize(_auto_of(dfa)), dfa.marked, dfa.tracks)


def dfa_empty(dfa: Dfa) -> bool:
    """True when the automaton accepts no word at all."""
    return shortest_accepted(dfa) is None


def dfa_equivalent(a: Dfa, b: Dfa) -> bool:
    if (a.sig, a.marked, a.tracks) != (b.sig, b.marked, b.tracks):
        raise InputError("automata are over different alphabets")
    # the budget bounds the pairs, so it never runs out
    pairs, _ = _Builder(a.sig, a.n_states * b.n_states, "equivalence", {}).explore(
        (a.init, b.init), lambda st: list(zip(a.delta[st[0]], b.delta[st[1]])))
    return all((qa in a.accepting) == (qb in b.accepting) for qa, qb in pairs)


def shortest_accepted(dfa: Dfa):
    """Shortlex-first accepted word, as a Word or MarkedWord, or None: the
    word of the first accepting state that explore finds."""
    if dfa.tracks != 1:
        raise InputError("a marked word cannot fill one track per variable")
    # the budget bounds the states, so it never runs out
    order, rows = _Builder(dfa.sig, dfa.n_states, "shortest accepted", {}).explore(
        dfa.init, dfa.delta.__getitem__)
    first = next((i for i, q in enumerate(order) if q in dfa.accepting), None)
    if first is None:
        return None
    path = _shortlex_words(rows)[first]
    k = dfa.sig.k
    if not dfa.marked:
        return Word(dfa.sig, path)
    letters = tuple(letter & ((1 << k) - 1) for letter in path)
    marks = tuple(i for i, letter in enumerate(path) if letter >> k & 1)
    return MarkedWord(Word(dfa.sig, letters), marks)


def _shortlex_words(rows, nonempty: bool = False) -> list:
    """Per state of explore's rows, the shortlex-least word, a tuple of
    letters, that leads to it from state 0, or None where none does; with
    nonempty, the least nonempty word, so state 0 has one only on a cycle.
    Breadth-first with letters in order, as explore numbered the states."""
    words: list = [None] * len(rows)
    if not nonempty:
        words[0] = ()
    queue = [(0, ())]
    for q, word in queue:
        for a, t in enumerate(rows[q]):
            if words[t] is None:
                words[t] = word + (a,)
                queue.append((t, words[t]))
    return words


def project_mark(dfa: Dfa) -> Dfa:
    """Forget the mark bits: accept words that admit some accepted marking."""
    if not dfa.marked:
        raise InputError("automaton has no mark bit")
    k = dfa.sig.k
    builder = _Builder(dfa.sig, DEFAULT_STATE_BUDGET, "project mark", {})
    groups = [[lab | m << k for m in range(1 << dfa.tracks)] for lab in range(1 << k)]
    return builder.publish(builder.determinize(_auto_of(dfa), groups), False)


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
