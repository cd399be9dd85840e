import random

from chainrep.formula import (AtLeast, ExistsFO, ExistsSO, ForallFO, ForallSO,
                              Formula, free_set_variables, free_variables,
                              map_subformulas, render)
from chainrep.randgen import formula_batch, random_formula


def rank(f: Formula) -> int:
    vals = []
    map_subformulas(f, lambda g: vals.append(rank(g)) or g)
    base = max(vals, default=0)
    if isinstance(f, (ExistsFO, ForallFO, ExistsSO, ForallSO, AtLeast)):
        return base + 1
    return base


def test_batch_deterministic():
    a = formula_batch(99, 40)
    b = formula_batch(99, 40)
    assert [(s, fo, render(f)) for s, fo, f in a] == \
        [(s, fo, render(f)) for s, fo, f in b]
    c = formula_batch(100, 40)
    assert [render(f) for *_, f in a] != [render(f) for *_, f in c]


def test_batch_respects_limits():
    for sig, fo, f in formula_batch(5, 150):
        assert 1 <= sig.k <= 2
        assert len(fo) <= 2
        assert set(free_variables(f)) <= set(fo)
        assert not free_set_variables(f)
        assert rank(f) <= 3


def test_random_formula_closed_when_no_free_vars(sig1):
    rng = random.Random(3)
    for _ in range(50):
        f = random_formula(rng, sig1, (), rank=2)
        assert free_variables(f) == ()
        assert not free_set_variables(f)
