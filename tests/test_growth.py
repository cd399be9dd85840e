import hashlib
import itertools

import pytest

from chainrep import compiler, reparam
from chainrep.compiler import Query
from chainrep.errors import ChainrepError, InputError
from chainrep.formula import exists_wrap, parse, render
from chainrep.growth import (brute_growth, growth_degree, growth_lower_witness,
                             no_decrement_witness, pump_witness)
from chainrep.oracle import (check_canonical_form, check_reparameterization, count_in_set,
                             satisfying_tuples)
from chainrep.randgen import formula_batch
from chainrep.reparam import minimal_reparameterization
from chainrep.words import all_words
from conftest import FIRST_PAIR_TEXT, GROUP_TEXT, battery


def test_growth_degree_matches_dimension():
    for name, sig, f, variables, want in battery():
        assert growth_degree(f, sig, variables) == want, name


def test_pump_witness_counts(sig1):
    f = parse("P1(x)", sig1)
    for n in range(4):
        w = pump_witness(f, sig1, "x", n)
        assert w.claimed_tuple_count == n + 1
        assert w.oracle_count() >= n + 1
        assert len(w.positions) == n + 1
    with pytest.raises(InputError):
        pump_witness(f, sig1, "x", -1)
    with pytest.raises(InputError):
        pump_witness(parse("x < x", sig1), sig1, "x", 1)


def test_no_decrement_counts(sig1):
    # 2N choices per variable stay independent: count is (2N)^k from a pool
    # of at most 2Nk positions
    cases = [("P1(x)", ("x",)), ("x < y", ("x", "y")),
             ("(x < y) & (y < z)", ("x", "y", "z"))]
    for text, variables in cases:
        f = parse(text, sig1)
        k = len(variables)
        for N in (1, 2, 3):
            w = no_decrement_witness(f, sig1, variables, N)
            assert len(w.positions) <= 2 * N * k
            assert w.claimed_tuple_count == (2 * N) ** k
            assert w.oracle_count() >= (2 * N) ** k, (text, N)


def test_no_decrement_needs_marks(sig1):
    with pytest.raises(InputError):
        no_decrement_witness(parse("ex v. P1(v)", sig1), sig1, (), 2)
    with pytest.raises(InputError):
        no_decrement_witness(parse("P1(x)", sig1), sig1, ("x",), 0)


def test_lower_witness_battery():
    for name, sig, f, variables, d in battery():
        if name == "unsatisfiable":
            with pytest.raises(InputError):
                growth_lower_witness(f, sig, variables, 2)
            continue
        for n in (1, 3):
            w = growth_lower_witness(f, sig, variables, n)
            assert w.claimed_tuple_count == n ** d, name
            assert w.oracle_count() >= n ** d, name
            assert len(w.positions) >= 1


def test_lower_witness_pool_is_valid(sig1):
    f = parse("x < y", sig1)
    w = growth_lower_witness(f, sig1, ("x", "y"), 3)
    assert all(0 <= p < len(w.word) for p in w.positions)
    # the oracle count really is a count over the pool
    assert w.oracle_count() == count_in_set(f, w.word, w.positions, ("x", "y"))


def test_lower_witness_needs_positive_n(sig1):
    with pytest.raises(InputError):
        growth_lower_witness(parse("P1(x)", sig1), sig1, ("x",), 0)


def test_brute_growth_exact_pair(sig1):
    f = parse("x < y", sig1)
    for n in (0, 1, 2, 3, 4):
        assert brute_growth(f, sig1, ("x", "y"), n, 6) == n * (n - 1) // 2


def test_brute_growth_simple(sig1):
    assert brute_growth(parse("P1(x)", sig1), sig1, ("x",), 2, 4) == 2
    assert brute_growth(parse("x < x", sig1), sig1, ("x",), 3, 4) == 0
    assert brute_growth(parse("ex v. P1(v)", sig1), sig1, (), 1, 3) == 1


def test_upper_check_battery():
    # brute counts stay within bound * n**dimension; a bound of 0 makes the
    # ceiling 0
    for name, sig, f, variables, _ in battery():
        rep = minimal_reparameterization(f, sig, variables, refine=False)
        for n in (1, 2, 3):
            assert brute_growth(f, sig, variables, n, 6) <= rep.bound * n ** rep.dimension, \
                (name, n)


@pytest.mark.parametrize("n, max_len", [(-1, 4), (2, -1)])
def test_brute_growth_refuses_negative_sizes(sig1, n, max_len):
    # no pool or word has a negative size, so such a count would be 0 on nothing
    message = "^need n >= 0$" if n < 0 else "^max_len must be nonnegative$"
    with pytest.raises(InputError, match=message):
        brute_growth(parse("x < y", sig1), sig1, ("x", "y"), n, max_len)


def test_witness_dump_mentions_pool(sig1):
    w = no_decrement_witness(parse("P1(x)", sig1), sig1, ("x",), 2)
    text = w.dump()
    assert "pool" in text and "claimed" in text


def test_lower_witness_guarded_map(sig1):
    # the minimal map of the guard split holds automaton leaves; the
    # witness search runs them directly
    f = parse(GROUP_TEXT, sig1)
    for n in (2, 4, 8):
        w = growth_lower_witness(f, sig1, ("x", "y"), n)
        assert w.claimed_tuple_count == n
        assert w.oracle_count() >= n


def test_lower_witness_shifts_points_after_the_blocks(sig1):
    # v is pinned to the last position, after every block's copies: the
    # grown word shifts it by the copies added, and the pool follows
    f = parse("P1(x) & ~ex q. v < q", sig1)
    for n in (1, 2, 3):
        w = growth_lower_witness(f, sig1, ("x", "v"), n)
        assert w.oracle_count() >= n
        assert len(w.word) - 1 in w.positions


def test_lower_witness_on_set_quantified_map(sig1):
    # the base fiber is read off the map's automaton, which compiles set
    # quantifiers like any other node
    f = parse("EX X. (X(x) & P1(x))", sig1)
    for n in (2, 4, 8):
        w = growth_lower_witness(f, sig1, ("x",), n)
        assert w.claimed_tuple_count == n
        assert w.oracle_count() >= n


def test_lower_witness_on_diagonal_tuples(sig1):
    # dimension 0 with every satisfying tuple on a diagonal: no ascending
    # tuple satisfies the formula, and the map's automaton, which reads
    # one track per variable, still finds the least tuple
    batch = formula_batch(1, 150, rank=2)
    cases = [batch[45], batch[78],
             (sig1, ("x", "y"), parse("x = y & all z. z = x", sig1))]
    for sig, variables, f in cases:
        w = growth_lower_witness(f, sig, variables, 3)
        assert w.claimed_tuple_count == 1
        assert w.oracle_count() >= 1


def test_dimension_0_witness_is_the_enumerations_first():
    # the second route to a dimension-0 witness: the first word, in
    # all_words order, that has a satisfying tuple, and as pool the
    # positions of its least tuple
    checked = 0
    for sig, variables, f in formula_batch(1, 150, rank=2) + formula_batch(3, 120):
        try:
            w = growth_lower_witness(f, sig, variables, 3)
        except InputError:
            continue
        if w.claimed_tuple_count != 1:
            continue
        word = next(v for v in all_words(sig, len(w.word))
                    if satisfying_tuples(f, v, variables))
        assert w.word == word, render(f)
        least = min(satisfying_tuples(f, word, variables))
        assert w.positions == tuple(sorted(set(least))), render(f)
        checked += 1
    assert checked == 63


def test_random_formula_sweep():
    # minimal maps, both growth sides and the no-decrement witnesses on
    # random formulas; the batch holds maps with set quantifiers (items 123,
    # 141, 199, 204) and the dimension-0 formulas whose tuples all lie on a
    # diagonal
    batch = formula_batch(2, 225, rank=2)
    diagonal = formula_batch(1, 150, rank=2)
    cases = batch[:100] + [batch[i] for i in (123, 141, 199, 204)] \
        + [diagonal[45], diagonal[78]]
    for sig, variables, f in cases:
        rep = minimal_reparameterization(f, sig, variables)
        assert check_reparameterization(rep, 4), render(f)
        assert check_canonical_form(rep, 4), render(f)
        upper = minimal_reparameterization(f, sig, variables, refine=False)
        assert brute_growth(f, sig, variables, 4, 4) <= upper.bound * 4 ** upper.dimension, \
            render(f)
        d = rep.dimension
        if rep.bound == 0:
            with pytest.raises(InputError):
                growth_lower_witness(f, sig, variables, 4)
            continue
        w = growth_lower_witness(f, sig, variables, 4)
        assert w.oracle_count() >= 4 ** d, render(f)
        # a witness that no mark can go exists, for some order of the
        # marks, exactly when the dimension is the arity
        found = 0
        for order in itertools.permutations(variables):
            try:
                w = no_decrement_witness(f, sig, order, 2)
            except InputError:
                continue
            assert w.oracle_count() >= w.claimed_tuple_count, render(f)
            found += 1
        assert bool(found) == (d == len(variables) > 0), render(f)


def test_witness_builds_each_map_once(sig1, monkeypatch):
    # the image algebra and the base fiber both read the one automaton of
    # the map: ex xs. g is compiled only given the witness's Query, whose
    # map build kept g's automaton, so g is built once, at dimension 0 too
    queries, compiled, built = [], [], []
    real_map, real_compile = Query.map_automaton, reparam.compile_dfa
    real_build = compiler._Builder.build

    def map_automaton(query, *args):
        queries.append(query)
        return real_map(query, *args)

    def compile_dfa(f, *args, query=None, **kwargs):
        compiled.append((f, query))
        return real_compile(f, *args, query=query, **kwargs)

    def build(self, g):
        built.append(g)
        return real_build(self, g)

    # every map, public or inside a query, is built by Query.map_automaton
    monkeypatch.setattr(Query, "map_automaton", map_automaton)
    monkeypatch.setattr(reparam, "compile_dfa", compile_dfa)
    monkeypatch.setattr(compiler._Builder, "build", build)
    for text, variables, d in ((FIRST_PAIR_TEXT, ("x", "y", "v"), 2),
                               ("x = y & all z. z = x", ("x", "y"), 0)):
        f = parse(text, sig1)
        rep = minimal_reparameterization(f, sig1, variables, refine=False)
        for log in (queries, compiled, built):
            log.clear()
        w = growth_lower_witness(f, sig1, variables, 3)
        assert w.oracle_count() >= 3 ** d
        assert len(queries) == 1
        image = exists_wrap(rep.domain_vars, rep.g)
        assert [q for g, q in compiled if g == image] == queries
        assert sum(g == rep.g for g in built) == 1


# the witnesses of formula_batch(3, 120) at n = 3, or the error text where
# the witness raises: their count, total length and SHA-1; the 25
# dimension-0 witnesses say that they have no marks
WITNESS_DUMPS = (120, 21_479, "396caa6516fcb352cad1c06d8e4ac08965129504")


def test_witness_dumps_are_pinned():
    outs = []
    for sig, variables, f in formula_batch(3, 120):
        try:
            outs.append(growth_lower_witness(f, sig, variables, 3).dump())
        except ChainrepError as e:
            outs.append(str(e))
    blob = "\n".join(outs)
    assert (len(outs), len(blob), hashlib.sha1(blob.encode()).hexdigest()) == \
        WITNESS_DUMPS
