"""Growth of satisfying-tuple counts against the size of a position pool.

For f(x1..xk) and a set S of positions, count the satisfying tuples drawn
entirely from S.  The maximum over words and pools of size at most n grows
like n**d where d is the minimal reparameterization dimension; the
constructions here produce concrete words and pools witnessing the lower
side, and a brute-force counter bounds the upper side on small words.  The
lower witness reads the chain of IDA pairs of f's automaton
(compiler.ambiguity_degree); the pumping and no-decrement witnesses read a
type algebra's rigid family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .formula import Formula, Signature
from .compiler import DEFAULT_STATE_BUDGET, Query, ambiguity_degree
from .oracle import answered_words, count_in_set
from .reparam import TypeAlgebra, minimal_reparameterization
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
    """A word of O(n) letters carrying at least n**d satisfying tuples:
    chain_witness of the IDA chain of f's automaton over variables with
    their tracks erased (compiler.ambiguity_degree), whose degree d is the
    minimal reparameterization dimension."""
    variables = tuple(variables)
    return chain_witness(f, sig, variables, ambiguity_degree(f, sig, variables, budget_states), n)


def chain_witness(f: Formula, sig: Signature, variables, chain, n: int) -> WitnessStructure:
    """The word u_0 v_1^n u_1 .. v_d^n u_d of chain, the IDA chain of f's
    automaton over variables (compiler.ambiguity_degree).

    Its d IDA pairs (p_i, q_i), each with its word v_i, and the links u_0
    .. u_d give that word: in block i a run can leave p_i for q_i in any of
    the n copies of v_i, so the word has n**d accepting runs, and distinct
    runs are distinct satisfying tuples.  The pool is the whole word, and
    oracle_count() recounts it by enumeration.  At degree 0 the word is
    u_0, the shortlex-least word with a satisfying tuple.
    """
    if n < 1:
        raise InputError("need n >= 1")
    if not chain.links:
        raise InputError("formula is unsatisfiable")
    letters = list(chain.links[0])
    for v, u in zip(chain.loops, chain.links[1:]):
        letters += v * n + u
    d = chain.degree
    if d:
        construction = (f"IDA chain {list(chain.pairs)}, loop words of "
                        f"{[len(v) for v in chain.loops]} letters each repeated {n} "
                        f"times: a run leaves each p for its q in any copy")
    else:
        construction = "no IDA pair: the shortlex-least word with a satisfying tuple"
    return WitnessStructure(f, tuple(variables), Word(sig, tuple(letters)),
                            tuple(range(len(letters))), n ** d, construction)
