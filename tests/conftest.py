import random

import pytest

from chainrep.compiler import _Builder
from chainrep.formula import Signature, parse, render
from chainrep.interp import parse_interpretation


@pytest.fixture
def sig1():
    return Signature(("P1",))


@pytest.fixture
def sig2():
    return Signature(("P1", "P2"))


# formulas with known minimal dimensions, established by oracle counting
BATTERY = (
    ("first position", "P1", "~ex z. z < x", ("x",), 0),
    ("pinned pair", "P1", "(x < y & ~ex z. z < x) & ~ex z. y < z", ("x", "y"), 0),
    ("labelled element", "P1", "P1(x)", ("x",), 1),
    ("adjacent labelled pair", "P1",
     "(P1(x) & P1(y)) & (x < y & ~ex z. (x < z & z < y))", ("x", "y"), 1),
    ("ordered pair", "P1", "x < y", ("x", "y"), 2),
    ("ordered triple", "P1", "(x < y) & (y < z)", ("x", "y", "z"), 3),
    ("unsatisfiable", "P1", "x < x", ("x",), 0),
)


# a formula whose two families disagree on which mark can go: the split
# into guarded groups is the only route down to dimension 1
GROUP_TEXT = "((~ex z. z < x) | (~ex z. y < z)) & x < y"


def dfa_equivalent(a, b):
    """The reference language check of two automata over one alphabet:
    every pair of states that the two reach on one word agrees on
    acceptance."""
    assert (a.sig, a.marked, a.tracks) == (b.sig, b.marked, b.tracks)
    # the budget bounds the pairs, so it never runs out
    pairs, _ = _Builder(a.sig, a.n_states * b.n_states, "equivalence", {}).explore(
        (a.init, b.init), lambda st: list(zip(a.delta[st[0]], b.delta[st[1]])))
    return all((qa in a.accepting) == (qb in b.accepting) for qa, qb in pairs)


def battery():
    for name, preds, text, variables, dim in BATTERY:
        sig = Signature.from_text(preds)
        yield name, sig, parse(text, sig), variables, dim


def endpoints_text(variables):
    """Every variable at an end of the word: dimension 0, and at most 2**k
    tuples share the empty image, which is the exact bound."""
    return " & ".join(f"((~ex q. q < {v}) | (~ex q. {v} < q))" for v in variables)


def wide_text(op, width):
    """width operands joined by op, cycling through three: the formula of
    the first three, as one node of width operands."""
    return f" {op} ".join(("P1(x)", "x < y", "~P1(y)")[i % 3] for i in range(width))


# two labelled positions and the first position: dimension 2, exact bound 3
FIRST_PAIR_TEXT = "P1(x)&P1(y)&(~ex q. q < v)"


# the atoms of guard_batch, the endpoints twice as often as the others
_GUARD_ATOMS = ("P", "~P", "first", "last", "first", "last", "<", "succ")


def guard_batch(seed: int, count: int):
    """count seeded (signature, variables, formula) triples that often
    split a case's families by guards.

    The signature is P1, or P1, P2 with probability 1/4, and the variables
    are x, y and perhaps z.  A formula conjoins 2-4 parts; each part is an
    atom, or with probability 1/2 a disjunction of two atoms on different
    variables, since a disjunction of endpoints on two variables is what
    makes families disagree on the mark they lose.  An atom on v is P(v),
    ~P(v), v first, v last, v < w or w the successor of v."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        sig = Signature(("P1",) if rng.random() < 0.75 else ("P1", "P2"))
        xs = ("x", "y", "z")[:rng.randint(2, 3)]

        def other(v):
            return rng.choice([u for u in xs if u != v])

        def atom(v):
            w, p = other(v), rng.choice(sig.preds)
            return {"P": f"{p}({v})", "~P": f"~{p}({v})",
                    "first": f"(~ex q. q < {v})", "last": f"(~ex q. {v} < q)",
                    "<": f"{v} < {w}", "succ": f"({v} < {w} & ~ex q. ({v} < q & q < {w}))",
                    }[rng.choice(_GUARD_ATOMS)]

        def part():
            v = rng.choice(xs)
            return f"({atom(v)} | {atom(other(v))})" if rng.random() < 0.5 else atom(v)

        text = " & ".join(part() for _ in range(rng.randint(2, 4)))
        out.append((sig, xs, parse(text, sig)))
    return out


# the atoms of interp_batch's rule bodies and its one-variable universes
_RULE_ATOMS = ("P", "~P", "<", "=", "succ", "first", "last")


def interp_batch(seed: int, count: int):
    """count seeded interpretation specs whose first component often needs
    guards to reduce.

    Component a has the variables and signature of a guard_batch formula,
    conjoined with probability 1/2 with one endpoint disjunction on two of
    them, as in GROUP_TEXT; component b has one variable and one atom.
    Each spec has one or two rules, over a, over b, or over both, whose
    bodies conjoin one or two rank-1 atoms on the rule's coordinates: P(v),
    ~P(v), v < w, v = w, w the successor of v, v first or v last.
    Universes and bodies name their coordinates first, as vacuous atoms
    v = v, so each uses exactly its dimension's variables in order."""
    rng = random.Random(seed)
    out = []
    for sig, xs, f in guard_batch(seed, count):
        def atom(vs):
            v, w = rng.sample(vs, 2) if len(vs) > 1 else vs * 2
            p = rng.choice(sig.preds)
            return {"P": f"{p}({v})", "~P": f"~{p}({v})", "<": f"{v} < {w}", "=": f"{v} = {w}",
                    "succ": f"({v} < {w} & ~ex q. ({v} < q & q < {w}))",
                    "first": f"(~ex q. q < {v})", "last": f"(~ex q. {v} < q)",
                    }[rng.choice(_RULE_ATOMS)]

        def pinned(vs, parts):
            return " & ".join([f"{v} = {v}" for v in vs] + parts)

        ends = []
        if rng.random() < 0.5:
            v, w = rng.sample(xs, 2)
            ends = [f"((~ex q. q < {v}) | (~ex q. {w} < q))"]
        dims = {"a": len(xs), "b": 1}
        lines = [f"signature {' '.join(sig.preds)}",
                 f"component a dim={len(xs)}", f"universe {pinned(xs, ends + [f'({render(f)})'])}",
                 "component b dim=1", f"universe {pinned(('x',), [atom(('x',))])}"]
        combos = [("a",), ("b",), ("a", "b"), ("b", "a"), ("b", "b")]
        for r, on in enumerate(rng.sample(combos, rng.randint(1, 2))):
            vs = ("x", "y", "z", "u", "v", "w")[:sum(dims[q] for q in on)]
            body = pinned(vs, [atom(vs) for _ in range(rng.randint(1, 2))])
            lines.append(f"relation R{r}/{len(on)} on ({', '.join(on)}) := {body}")
        out.append(parse_interpretation("\n".join(lines)))
    return out
