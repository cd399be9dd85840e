"""Transition monoids of automata and the pumping structure on them.

The type algebra of a marked automaton A is the transition monoid of its
mark-shadow doubling A2: states are pairs (q, row) with row 0 meaning "the
next letter is read as marked" and row 1 meaning plain reading.  Elements of
the monoid are images of plain words; the row-0 entries record what the word
does when its first letter stands at a mark.  A nonempty word always flips
row 0 to row 1, so the identity is realized by the empty word alone, which
is exactly why pumping asks for idempotents with nonempty witnesses.

The monoid is explored like every automaton of the compiler, breadth-first
by compiler._Builder.explore, and its elements count against the same state
budget as automaton states; running out raises "monoid: state budget
exceeded".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .words import Word, render_letter
from .compiler import DEFAULT_STATE_BUDGET, Dfa, _Builder


@dataclass
class TypeMonoid:
    """Reachable transformation monoid of a DFA, with shortest witnesses.

    elements[i] is the state transformation of witness(i); index 0 is the
    identity (empty word).  nonempty_witness[i] is the shortest nonempty
    word realizing element i, or None when only the empty word does.
    _pumpers, which is_pumpable scans, are the idempotents with a nonempty
    witness, by (witness length, index), found when the monoid is built.
    """

    dfa: Dfa
    elements: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    witness: list[tuple[int, ...]]
    nonempty_witness: list[tuple[int, ...] | None]
    letter_image: list[int]
    _mult: dict[tuple[int, int], int] = field(default_factory=dict)
    _pumpers: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        witness = self.nonempty_witness
        self._pumpers = sorted(
            (e for e in range(self.size)
             if witness[e] is not None and self.multiply(e, e) == e),
            key=lambda e: (len(witness[e]), e))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        """Index of 'a then b': the image of witness(a) + witness(b)."""
        key = (a, b)
        got = self._mult.get(key)
        if got is None:
            ea, eb = self.elements[a], self.elements[b]
            got = self.index[tuple(eb[q] for q in ea)]
            self._mult[key] = got
        return got

    def apply(self, a: int, state: int) -> int:
        return self.elements[a][state]

    def is_idempotent(self, a: int) -> bool:
        return self.multiply(a, a) == a

    def idempotents(self) -> list[int]:
        return [a for a in range(self.size) if self.multiply(a, a) == a]

    def is_nonempty_realizable(self, a: int) -> bool:
        return self.nonempty_witness[a] is not None

    def witness_word(self, a: int, nonempty: bool = False) -> Word:
        letters = self.nonempty_witness[a] if nonempty else self.witness[a]
        if letters is None:
            raise InputError(f"element {a} has no nonempty witness")
        return Word(self.dfa.sig, letters)

    def image_of_word(self, letters) -> int:
        out = self.identity
        for letter in letters:
            out = self.multiply(out, self.letter_image[letter])
        return out

    def dump(self) -> str:
        lines = [f"monoid size={self.size}"]
        for a in range(self.size):
            wit = self.witness_word(a).render() if self.witness[a] is not None else "[]"
            lines.append(
                f"{a} witness={wit}"
                f" idempotent={1 if self.is_idempotent(a) else 0}"
                f" nonempty={1 if self.nonempty_witness[a] is not None else 0}")
        for a in range(self.size):
            row = " ".join(str(self.multiply(a, b)) for b in range(self.size))
            lines.append(f"table {a}: {row}")
        return "\n".join(lines)


def transition_monoid(dfa: Dfa, budget: int = DEFAULT_STATE_BUDGET) -> TypeMonoid:
    """Closure of the letter transformations under composition.

    Explored like every other automaton (compiler._Builder.explore):
    breadth-first from the identity, letters in increasing order, each
    element counted against the state budget.  Its witness and nonempty
    witness are the shortlex-least word and nonempty word read off the rows
    (_shortlex_words), and the identity's row holds the letter images.
    """
    images = [tuple(row[a] for row in dfa.delta) for a in range(dfa.n_letters)]

    def successors(e):
        return [tuple(map(image.__getitem__, e)) for image in images]

    elements, rows = _Builder(dfa.sig, budget, "monoid", {}).explore(
        tuple(range(dfa.n_states)), successors, dfa.n_letters)
    index = {e: i for i, e in enumerate(elements)}
    return TypeMonoid(dfa, elements, index, _shortlex_words(rows),
                      _shortlex_words(rows, nonempty=True), rows[0])


def _shortlex_words(rows, nonempty: bool = False) -> list:
    """Per state of _Builder.explore's rows, the shortlex-least word, a tuple of
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


def mark_shadow(dfa: Dfa) -> Dfa:
    """The doubled automaton reading plain letters only, of an automaton
    with one shared mark bit.

    States are 2q + row.  Row 1 reads normally; row 0 reads its next letter
    as if it were marked and drops to row 1.  Runs of the original automaton
    across a marked word factor through this one segment by segment, so its
    transition monoid is the type algebra of marked-word segments.  Row-0
    states are deliberately kept although no run started in row 1 can reach
    them.
    """
    if not dfa.marked or dfa.tracks != 1:
        raise InputError("mark_shadow needs a marked automaton with one shared mark bit")
    k = dfa.sig.k
    nl = 1 << k
    delta = []
    for q in range(dfa.n_states):
        delta.append(tuple(dfa.delta[q][lab | 1 << k] * 2 + 1 for lab in range(nl)))
        delta.append(tuple(dfa.delta[q][lab] * 2 + 1 for lab in range(nl)))
    accepting = frozenset(2 * q + r for q in dfa.accepting for r in (0, 1))
    return Dfa(dfa.sig, False, 2 * dfa.init + 1, tuple(delta), accepting)


def is_pumpable(monoid: TypeMonoid, tau_before: int, tau_after: int) -> int | None:
    """Idempotent witnessing that the pair can absorb insertions.

    Looks for an idempotent e with a nonempty witness such that
    tau_before * e == tau_before and e * tau_after == tau_after.  Returns
    the first such element ordered by (witness length, element index), or
    None; the identity never qualifies since only the empty word realizes
    it in a type algebra.  Only a type algebra's graph asks it
    (reparam.TypeAlgebra.graph), once per edge, and keeps the answer on
    the edge for every later reader.
    """
    mul = monoid.multiply
    return next((e for e in monoid._pumpers
                 if mul(tau_before, e) == tau_before and mul(e, tau_after) == tau_after),
                None)


def ramsey_bound(colors: int) -> int:
    """Length guaranteeing a monochromatic triangle of interval colors.

    B(1) = 3 and B(c) = c * (B(c - 1) - 1) + 2: any coloring of the
    intervals of a sequence this long by c colors, where the color of a
    concatenation is the product, yields positions i < j < l with all three
    intervals the same idempotent color.
    """
    if colors < 1:
        raise InputError("need at least one color")
    b = 3
    for c in range(2, colors + 1):
        b = c * (b - 1) + 2
    return b
