"""Growth of satisfying-tuple counts against the size of a position pool.

For f(x1..xk) and a set S of positions, count the satisfying tuples drawn
entirely from S.  The maximum over words and pools of size at most n grows
like n**d where d is the minimal reparameterization dimension; the
constructions here produce concrete words and pools witnessing the lower
side, and a brute-force counter bounds the upper side on small words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ChainrepError, InputError
from .formula import Formula, Signature, exists_wrap
from .compiler import DEFAULT_STATE_BUDGET, Query, first_fiber
from .oracle import answered_words, count_in_set
from .reparam import TypeAlgebra, minimal_reparameterization, reparameterize
from .words import Word


@dataclass(frozen=True)
class WitnessStructure:
    """A word and position pool realizing a claimed number of tuples.

    claimed_tuple_count is the lower bound the construction guarantees;
    oracle_count() recounts it from scratch.
    """

    formula: Formula
    variables: tuple[str, ...]
    word: Word
    positions: tuple[int, ...]
    claimed_tuple_count: int
    construction: str

    def oracle_count(self) -> int:
        return count_in_set(self.formula, self.word, self.positions, self.variables)

    def dump(self) -> str:
        return "\n".join([
            f"word={self.word.render()}",
            f"pool={{{', '.join(map(str, self.positions))}}} size={len(self.positions)}",
            f"claimed={self.claimed_tuple_count}",
            f"construction={self.construction}",
        ])


def growth_degree(f: Formula, sig: Signature, variables, *,
                  budget_states: int = DEFAULT_STATE_BUDGET) -> int:
    """Exponent of the polynomial growth of tuple counts in pool size."""
    rep = minimal_reparameterization(f, sig, variables, refine=False,
                                     budget_states=budget_states)
    return rep.dimension


def brute_growth(f: Formula, sig: Signature, variables, n: int, max_len: int) -> int:
    """Exact maximum of tuple counts over words up to max_len and pools up to n.

    The count depends only on the word's tuples, so only the first word
    of each answer list is counted (answered_words).
    """
    if n < 0:
        raise InputError("need n >= 0")
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    best = 0
    for _, word, answers in answered_words(sig, max_len, [(f, tuple(variables))]):
        if not answers[0]:
            continue
        supports = [frozenset(t) for t in answers[0]]
        pool = range(len(word))
        for size in range(min(n, len(word)) + 1):
            for S in itertools.combinations(pool, size):
                inside = frozenset(S)
                best = max(best, sum(1 for s in supports if s <= inside))
    return best


def _blocks_word(monoid, types, es, copies: int):
    """W0 + (E1*copies + W1) + ... and the per-block copy geometry.

    Returns the letter list plus, per block, the start of its copy run,
    the copy length, and the start of its closing witness.
    """
    letters = list(monoid.witness[types[0]])
    geometry = []
    for i, e in enumerate(es, start=1):
        unit = monoid.nonempty_witness[e]
        run = len(letters)
        letters.extend(unit * copies)
        geometry.append((run, len(unit), len(letters)))
        letters.extend(monoid.nonempty_witness[types[i]])
    return letters, geometry


def pump_witness(f: Formula, sig: Signature, var: str, n: int, *,
                 budget_states: int = DEFAULT_STATE_BUDGET) -> WitnessStructure:
    """n+1 satisfying positions on one word, by repeating an idempotent.

    Needs some family of f whose single mark is pumpable; each copy start
    and the closing witness start then satisfies f.
    """
    if n < 0:
        raise InputError("need n >= 0")
    algebra = TypeAlgebra.build(f, (var,), Query(sig, budget_states))
    if algebra.rigid is None:
        raise InputError("no family of the formula pumps at its mark")
    types, es = algebra.rigid
    letters, geometry = _blocks_word(algebra.monoid, types, es, n)
    run, unit, tail = geometry[0]
    positions = tuple(run + j * unit for j in range(n)) + (tail,)
    return WitnessStructure(
        f, (var,), Word(sig, tuple(letters)), positions, n + 1,
        f"family {types}: prefix + {n} copies of idempotent {es[0]} + closing witness")


def no_decrement_witness(f: Formula, sig: Signature, variables, N: int, *,
                         budget_states: int = DEFAULT_STATE_BUDGET) -> WitnessStructure:
    """(2N)**k tuples from a pool of 2Nk positions, one block per mark.

    Witnesses that a family pumping at every mark keeps all k coordinates
    essential: any reparameterization below width k would need fibers
    growing with N.
    """
    variables = tuple(variables)
    k = len(variables)
    if k == 0:
        raise InputError("need at least one variable")
    if N < 1:
        raise InputError("need N >= 1")
    algebra = TypeAlgebra.build(f, variables, Query(sig, budget_states))
    if algebra.rigid is None:
        raise InputError("every family of the formula has a non-pumping mark")
    types, es = algebra.rigid
    letters, geometry = _blocks_word(algebra.monoid, types, es, 2 * N)
    positions = tuple(run + j * unit
                      for run, unit, _ in geometry for j in range(2 * N))
    return WitnessStructure(
        f, variables, Word(sig, tuple(letters)), positions, (2 * N) ** k,
        f"family {types}: {k} blocks of {2 * N} idempotent copies; "
        f"any copy-start choice per block is a satisfying tuple")


def growth_lower_witness(f: Formula, sig: Signature, variables, n: int, *,
                         budget_states: int = DEFAULT_STATE_BUDGET) -> WitnessStructure:
    """A word and pool of size O(n) carrying at least n**d satisfying tuples.

    d is the minimal reparameterization dimension.  Follows the image of a
    minimal map: some image family pumps at every mark, so each of its d
    marks slides over n extra idempotent copies independently, and the
    fibers transport along.  The pool keeps, in every copy, the offsets one
    base fiber occupies, plus its fixed positions outside the copy runs.
    The search's Query builds the map's automaton once, from its build of
    f, and keeps g's automaton: the image algebra is compiled from that, as
    ex xs. g given the Query, and that fiber, the least domain tuple the
    map relates to the base marks, is read off the map's automaton
    (compiler.first_fiber).  The whole witness is built on the automaton
    route, and oracle_count() recounts it by enumeration.  Dimension 0 is
    the same construction with no marks: the image is the sentence
    ex xs. g, its first family's witness is its shortlex-least accepted
    word, and the fiber the least satisfying tuple on that word.
    """
    variables = tuple(variables)
    k = len(variables)
    if n < 1:
        raise InputError("need n >= 1")
    query = Query(sig, budget_states)
    rep = reparameterize(f, variables, query)
    if rep.bound == 0:
        raise InputError("formula is unsatisfiable")
    d = rep.dimension
    auto = query.map_automaton(rep.g, rep.domain_vars, rep.image_vars)
    algebra = TypeAlgebra.build(exists_wrap(rep.domain_vars, rep.g), rep.image_vars, query)
    if algebra.rigid is None:
        raise InputError("minimal image admits no family pumping at every mark")
    types, es = algebra.rigid
    monoid = algebra.monoid
    m = 2 * k + 3
    r = k + 2
    # base word with m copies per block; marks at the r-th copy starts
    base_letters, base_geom = _blocks_word(monoid, types, es, m)
    base = Word(sig, tuple(base_letters))
    marks = tuple(run + (r - 1) * unit for run, unit, _ in base_geom)
    fiber = first_fiber(auto, base, marks)
    if fiber is None:
        raise ChainrepError("image family has no fiber on its base word")
    # classify the base fiber: offsets inside copy runs recur in every
    # copy of the grown word, positions outside shift with their block
    grown_letters, grown_geom = _blocks_word(monoid, types, es, m + n)
    copy_offsets = [set() for _ in range(d)]
    pool = set()
    for a in fiber:
        for i, (run, unit, tail) in enumerate(base_geom):
            if run <= a < tail:
                copy_offsets[i].add((a - run) % unit)
                break
        else:
            pool.add(_shifted(a, base_geom, n))
    for i, (run, unit, _) in enumerate(grown_geom):
        for c in range(m + n):
            for o in copy_offsets[i]:
                pool.add(run + c * unit + o)
    if d:
        construction = (f"image family {types}: {d} blocks of {m + n} idempotent "
                        f"copies; marks slide over the last {n} copies per block "
                        f"and fibers follow")
    else:
        construction = (f"image family {types}: no marks; the word is the "
                        f"family's witness and the pool its least fiber")
    return WitnessStructure(
        f, variables, Word(sig, tuple(grown_letters)), tuple(sorted(pool)),
        n ** d, construction)


def _shifted(a: int, base_geom, n: int) -> int:
    """Position of a base point outside all copy runs once each run grows by n."""
    out = a
    for _, unit, tail in base_geom:
        if a >= tail:
            out += n * unit
    return out
