"""End-to-end acceptance battery.

One test per criterion, each printing a single pass line with its headline
numbers; tolerances (word lengths, counts, runtime ceilings) are asserted
exactly as stated.
"""

import itertools
import json
import random
import time

import pytest

from chainrep.cli import main as cli_main
from chainrep.compiler import DEFAULT_STATE_BUDGET, Query, compile
from chainrep.errors import InputError
from chainrep.formula import FALSE, Signature, parse
from chainrep.growth import brute_growth, growth_lower_witness, no_decrement_witness
from chainrep.interp import (check_equivalence, parse_interpretation,
                             reduce_interpretation)
from chainrep.monoid import ramsey_bound, transition_monoid
from chainrep.oracle import (check_canonical_form, check_reparameterization,
                             evaluate, satisfying_tuples)
from chainrep.randgen import formula_batch
from chainrep.reparam import TypeAlgebra, minimal_reparameterization
from chainrep.words import MarkedWord, all_words
from conftest import battery

SEED = 20260814


def test_criterion_01_keystone_cross_validation():
    t0 = time.time()
    checked = 0
    mismatches = 0
    for sig, fo, f in formula_batch(SEED, 200):
        dfa = compile(f, sig, fo)
        k = len(fo)
        for w in all_words(sig, 5):
            sat = set(satisfying_tuples(f, w, fo))
            # sentences compile to plain automata; mark placements only
            # exist over marked ones, where any wrong count must reject
            sizes = range(len(w) + 1) if dfa.marked else (0,)
            for size in sizes:
                for marks in itertools.combinations(range(len(w)), size):
                    want = marks in sat if size == k else False
                    if dfa.run(MarkedWord(w, marks)) != want:
                        mismatches += 1
                    checked += 1
    elapsed = time.time() - t0
    assert mismatches == 0
    assert checked >= 200 * 60
    assert elapsed <= 300
    print(f"criterion 1 (keystone cross-validation): PASS — "
          f"200 formulas, {checked} word/marking checks, {elapsed:.0f}s")


def test_criterion_02_type_algebra_laws():
    rng = random.Random(SEED)
    monoids = []
    for name, sig, f, variables, _ in battery():
        algebra = TypeAlgebra.build(f, variables, Query(sig, DEFAULT_STATE_BUDGET))
        monoids.append((name, sig, algebra.monoid))
    sig2 = Signature(("P1", "P2"))
    for text in ("atleast 3 v. P1(v)",
                 "all v. (P1(v) -> ex u. (v < u & P2(u)))",
                 "EX Z. all v. (Z(v) -> P1(v))"):
        monoids.append((text, sig2, transition_monoid(compile(parse(text, sig2),
                                                              sig2))))
    law_failures = 0
    morphism_failures = 0
    for name, sig, m in monoids:
        assert m.size <= 50, (name, m.size)
        for a in range(m.size):
            if m.multiply(a, m.identity) != a or m.multiply(m.identity, a) != a:
                law_failures += 1
            for b in range(m.size):
                ab = m.multiply(a, b)
                for c in range(m.size):
                    if m.multiply(ab, c) != m.multiply(a, m.multiply(b, c)):
                        law_failures += 1
        for _ in range(500):
            u = [rng.randrange(2 ** sig.k) for _ in range(rng.randrange(6))]
            v = [rng.randrange(2 ** sig.k) for _ in range(rng.randrange(6))]
            if m.image_of_word(u + v) != m.multiply(m.image_of_word(u),
                                                    m.image_of_word(v)):
                morphism_failures += 1
    assert law_failures == 0 and morphism_failures == 0
    print(f"criterion 2 (type-algebra laws): PASS — {len(monoids)} monoids, "
          f"sizes {sorted(m.size for *_, m in monoids)}, 500 word pairs each")


def test_criterion_03_determination():
    failures = 0
    checked = 0
    for name, sig, f, variables, _ in battery():
        algebra = TypeAlgebra.build(f, variables, Query(sig, DEFAULT_STATE_BUDGET))
        for w in all_words(sig, 6):
            for marks in itertools.combinations(range(len(w)), len(variables)):
                mw = MarkedWord(w, marks)
                want = evaluate(f, w, fo=dict(zip(variables, marks)))
                if algebra.accepts_chain(algebra.segment_types(mw)) != want:
                    failures += 1
                checked += 1
    assert failures == 0
    print(f"criterion 3 (determination from segment types): PASS — "
          f"{checked} markings on words up to length 6")


def test_criterion_04_dimension_battery():
    got = []
    for name, sig, f, variables, want in battery():
        rep = minimal_reparameterization(f, sig, variables)
        got.append((name, rep.dimension))
        assert rep.dimension == want, name
        if name == "unsatisfiable":
            assert rep.g == FALSE and rep.bound == 0
    print(f"criterion 4 (known-dimension battery): PASS — {got}")


def test_criterion_05_reparameterization_contract():
    t0 = time.time()
    swept = []
    for name, sig, f, variables, _ in battery():
        if len(variables) > 2:
            continue  # sweep is specified over formulas with at most 2 marks
        rep = minimal_reparameterization(f, sig, variables)
        contract = check_reparameterization(rep, 6)
        canonical = check_canonical_form(rep, 6)
        assert contract, (name, contract.failure)
        assert canonical, (name, canonical.failure)
        assert contract.max_fiber <= rep.bound, name
        swept.append((name, contract.words_checked, contract.max_fiber))
    elapsed = time.time() - t0
    assert elapsed <= 600
    assert len(swept) == 6
    print(f"criterion 5 (reparameterization contract sweep): PASS — "
          f"{swept}, {elapsed:.0f}s")


def test_criterion_06_no_decrement_witnesses():
    rows = []
    for name, sig, f, variables, d in battery():
        k = len(variables)
        if d != k or k < 1:
            continue
        for N in (1, 2, 3):
            w = no_decrement_witness(f, sig, variables, N)
            count = w.oracle_count()
            assert len(w.positions) <= 2 * N * k, (name, N)
            assert count >= (2 * N) ** k, (name, N, count)
            rows.append((name, N, count))
    assert {name for name, *_ in rows} == \
        {"labelled element", "ordered pair", "ordered triple"}
    print(f"criterion 6 (no-decrement witnesses): PASS — {rows}")


def test_criterion_07_growth_sandwich():
    rows = []
    for name, sig, f, variables, d in battery():
        rep = minimal_reparameterization(f, sig, variables, refine=False)
        for n in (1, 2, 3, 4):
            # the upper side; a bound of 0 makes the ceiling 0
            assert brute_growth(f, sig, variables, n, 8) <= rep.bound * n ** rep.dimension, \
                (name, n)
            if name == "unsatisfiable":
                assert brute_growth(f, sig, variables, n, 8) == 0
                with pytest.raises(InputError):
                    growth_lower_witness(f, sig, variables, n)
                continue
            w = growth_lower_witness(f, sig, variables, n)
            count = w.oracle_count()
            assert count >= n ** d, (name, n, count)
            rows.append((name, n, count))
    sig = Signature(("P1",))
    pair = parse("x < y", sig)
    for n in (1, 2, 3, 4):
        assert brute_growth(pair, sig, ("x", "y"), n, 8) == n * (n - 1) // 2
    print(f"criterion 7 (growth sandwich): PASS — lower counts {rows}; "
          f"pair growth exactly n(n-1)/2 for n in 1..4")


def test_criterion_08_ramsey_recurrence():
    got = [ramsey_bound(c) for c in (1, 2, 3)]
    assert got == [3, 6, 17]
    print(f"criterion 8 (ramsey recurrence): PASS — {got}")


SPECS = (
    ("successor pairs", 1, """
signature P1
component pairs dim=2
universe x < y & ~ex z. (x < z & z < y)
relation E/2 on (pairs, pairs) := x = x & y = u & v = v
"""),
    ("labelled elements with marker", 1, """
signature P1, P2
component ones dim=1
universe P1(x)
component flag dim=0
universe ex v. P2(v)
relation E/2 on (ones, ones) := x < y
relation M/1 on (flag,) := ~ex q. q < q
"""),
    ("word endpoints", 0, """
signature P1
component ends dim=1
universe (~ex z. z < x) | (~ex z. x < z)
relation L/2 on (ends, ends) := x < y
"""),
)


def test_criterion_09_interpretation_reduction():
    rows = []
    for name, dim, text in SPECS:
        spec = parse_interpretation(text)
        reduced = reduce_interpretation(spec, dim)
        report = check_equivalence(spec, reduced, 6)
        assert report, (name, report.failure)
        rows.append((name, dim, [p.name for p in reduced.parts],
                     report.words_checked))
    assert len(rows) >= 3
    print(f"criterion 9 (interpretation reduction): PASS — {rows}")


def test_criterion_10_selftest_determinism(capsys):
    status1 = cli_main(["selftest", "--format", "json"])
    out1 = capsys.readouterr().out
    status2 = cli_main(["selftest", "--format", "json"])
    out2 = capsys.readouterr().out
    assert status1 == status2 == 0
    assert out1.encode() == out2.encode()
    assert json.loads(out1)["result"]["ok"] is True
    print("criterion 10 (selftest determinism): PASS — byte-identical reports")
