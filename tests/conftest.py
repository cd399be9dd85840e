import pytest

from chainrep.formula import Signature, parse


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
