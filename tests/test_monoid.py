import hashlib
import itertools
import random

import pytest

from chainrep.compiler import DEFAULT_STATE_BUDGET, Query, compile, preimage_ranks
from chainrep.errors import InputError, ResourceLimitError
from chainrep.formula import parse, render
from chainrep.monoid import (is_pumpable, mark_shadow, ramsey_bound,
                             transition_monoid)
from chainrep.randgen import formula_batch
from chainrep.reparam import TypeAlgebra
from chainrep.words import Word
from conftest import battery


def build(sig, text):
    return transition_monoid(compile(parse(text, sig), sig))


def test_laws_exhaustive(sig1, sig2):
    for sig, text in ((sig1, "ex v. P1(v)"), (sig1, "atleast 2 v. P1(v)"),
                      (sig2, "all v. (P1(v) -> ex u. (v < u & P2(u)))")):
        m = build(sig, text)
        assert m.size <= 50
        e = m.identity
        for a in range(m.size):
            assert m.multiply(a, e) == a and m.multiply(e, a) == a
            for b in range(m.size):
                for c in range(m.size):
                    assert m.multiply(m.multiply(a, b), c) == \
                        m.multiply(a, m.multiply(b, c))


def test_morphism_random_words(sig1):
    m = build(sig1, "atleast 2 v. P1(v)")
    rng = random.Random(11)
    for _ in range(300):
        u = [rng.randrange(2) for _ in range(rng.randrange(5))]
        v = [rng.randrange(2) for _ in range(rng.randrange(5))]
        assert m.image_of_word(u + v) == \
            m.multiply(m.image_of_word(u), m.image_of_word(v))


def test_witnesses_map_back(sig1):
    m = build(sig1, "ex v. (P1(v) & ex u. (v < u & ~P1(u)))")
    for a in range(m.size):
        assert m.image_of_word(m.witness[a]) == a
        if m.nonempty_witness[a] is not None:
            assert len(m.nonempty_witness[a]) >= 1
            assert m.image_of_word(m.nonempty_witness[a]) == a
    # identity: empty witness, and nonempty realizability is separate
    assert m.witness[m.identity] == ()


def test_witnesses_are_shortlex_least():
    # witness and nonempty_witness are the least words, shorter first, then
    # letter by letter, that realize each element: brute force over every
    # word up to the monoid's size, which bounds the length of both
    elements = 0
    for sig, variables, f in formula_batch(3, 30):
        m = TypeAlgebra.build(f, variables, Query(sig, DEFAULT_STATE_BUDGET)).monoid
        least, nonempty = {}, {}
        for length in range(m.size + 1):
            for w in itertools.product(range(m.dfa.n_letters), repeat=length):
                a = m.image_of_word(w)
                least.setdefault(a, w)
                if w:
                    nonempty.setdefault(a, w)
        assert m.witness == [least[a] for a in range(m.size)], render(f)
        assert m.nonempty_witness == [nonempty.get(a) for a in range(m.size)], render(f)
        elements += m.size
    assert elements == 68


def test_idempotents(sig1):
    m = build(sig1, "atleast 3 v. P1(v)")
    for a in m.idempotents():
        assert m.multiply(a, a) == a
    assert m.identity in m.idempotents()


def test_mark_shadow_structure(sig1):
    dfa = compile(parse("P1(x)", sig1), sig1, ("x",))
    shadow = mark_shadow(dfa)
    # plain alphabet, doubled states: row 0 reads its letter marked, row 1
    # plain, and every step lands in row 1
    assert shadow.n_letters == dfa.n_letters // 2
    assert len(shadow.delta) == 2 * len(dfa.delta)
    k = dfa.sig.k
    for q in range(len(dfa.delta)):
        for a in range(shadow.n_letters):
            assert shadow.delta[2 * q][a] == 2 * dfa.delta[q][a | 1 << k] + 1
            assert shadow.delta[2 * q + 1][a] == 2 * dfa.delta[q][a] + 1


def test_mark_shadow_needs_one_shared_mark_bit(sig1):
    # a selector reads one track per variable: its shadow would follow
    # track 0 alone
    g = parse("x < y", sig1)
    m = Query(sig1, DEFAULT_STATE_BUDGET).map_automaton(g, ("x",), ("y",))
    selector = preimage_ranks(m, 2).selectors(2)[0]
    assert selector.marked and selector.tracks == 2
    with pytest.raises(InputError, match="^mark_shadow needs a marked automaton "
                                         "with one shared mark bit$"):
        mark_shadow(selector)
    with pytest.raises(InputError):
        mark_shadow(compile(parse("ex v. P1(v)", sig1), sig1))


def test_shadow_monoid_identity_never_nonempty(sig1):
    for name, sig, f, variables, _ in battery():
        if not variables:
            continue
        m = transition_monoid(mark_shadow(compile(f, sig, variables)))
        assert m.nonempty_witness[m.identity] is None, name


def test_is_pumpable_contract(sig1):
    m = build(sig1, "atleast 2 v. P1(v)")
    for tb in range(m.size):
        for te in range(m.size):
            e = is_pumpable(m, tb, te)
            if e is None:
                # indeed no qualifying idempotent
                for cand in m.idempotents():
                    assert m.nonempty_witness[cand] is None or \
                        m.multiply(tb, cand) != tb or m.multiply(cand, te) != te
            else:
                assert m.is_idempotent(e)
                assert m.nonempty_witness[e] is not None
                assert m.multiply(tb, e) == tb and m.multiply(e, te) == te


def test_pumpable_prefers_short_witness(sig1):
    m = build(sig1, "ex v. P1(v)")
    e = is_pumpable(m, m.image_of_word([0]), m.image_of_word([0]))
    assert e is not None and len(m.nonempty_witness[e]) == 1


def test_monoid_budget(sig1):
    dfa = compile(parse("atleast 3 v. P1(v)", sig1), sig1)
    with pytest.raises(ResourceLimitError,
                       match=r"^monoid: state budget exceeded \(3 > 2\)"):
        transition_monoid(dfa, budget=2)


# the type monoids of formula_batch(1, 225): their count, total dump length
# and SHA-1
MONOID_DUMPS = (225, 28_543, "fe9c7d3a322c2f51dc54a1d00024ae47553a23ef")


def test_monoid_dumps_are_pinned():
    dumps = [TypeAlgebra.build(f, variables, Query(sig, DEFAULT_STATE_BUDGET)).monoid.dump()
             for sig, variables, f in formula_batch(1, 225)]
    blob = "\n".join(dumps)
    assert (len(dumps), len(blob), hashlib.sha1(blob.encode()).hexdigest()) == \
        MONOID_DUMPS


def test_ramsey_bounds():
    assert [ramsey_bound(c) for c in (1, 2, 3, 4)] == [3, 6, 17, 66]
    with pytest.raises(Exception):
        ramsey_bound(0)


def test_witness_word_refuses_an_element_without_a_nonempty_witness(sig1):
    # the formula holds on every nonempty word: the empty word alone maps to
    # the identity
    m = build(sig1, "ex v. v = v")
    assert m.witness_word(0).letters == ()
    with pytest.raises(InputError) as refused:
        m.witness_word(0, nonempty=True)
    assert str(refused.value) == "element 0 has no nonempty witness"
