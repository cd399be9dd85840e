"""Seeded random formulas for cross-checks and the self-test battery.

Everything here is driven by an explicit random.Random so a seed pins the
whole stream.  Quantifier rank, free-variable count and signature size stay
small by construction: the point is breadth of shape, not depth.
"""

import random

from .formula import (FALSE, TRUE, And, AtLeast, Equal, ExistsFO, ExistsSO, ForallFO,
                      ForallSO, Formula, Implies, In, Less, Not, Or, Pred, Signature)

BOUND_FO = ("z", "p", "q", "r", "s")
BOUND_SO = ("Z", "Y", "W")

# the chance that a set quantifier, once drawn, stays one (else it becomes
# `ex`), and the most free first-order variables of a random instance
SO_PROB = 0.15
MAX_FREE = 2

_KINDS = (("not", 2), ("and", 3), ("or", 3), ("implies", 1),
          ("ex", 4), ("all", 2), ("atleast", 1), ("EX", 1), ("ALL", 1))


def _fresh(pool, used):
    for name in pool:
        if name not in used:
            return name
    raise RuntimeError("name pool exhausted")


def _atom(rng, sig, fo, so) -> Formula:
    if not fo:
        return TRUE if rng.random() < 0.5 else FALSE
    choices = ["less", "equal", "pred"]
    if so:
        choices.append("in")
        choices.append("in")
    v = rng.choice(fo)
    match rng.choice(choices):
        case "less":
            return Less(v, rng.choice(fo))
        case "equal":
            return Equal(v, rng.choice(fo))
        case "pred":
            return Pred(rng.choice(sig.preds), v)
        case _:
            return In(rng.choice(so), v)


def random_formula(rng: random.Random, sig: Signature, fo_vars=(), *,
                   rank: int = 3) -> Formula:
    """One random formula with free FO variables among fo_vars.

    rank caps quantifier nesting; a drawn set quantifier stays one with
    probability SO_PROB (else it becomes `ex`), and set quantifiers never
    leave free set variables.
    """
    def go(r, fo, so):
        if r == 0 or rng.random() < 0.3:
            return _atom(rng, sig, fo, so)
        names = [k for k, _ in _KINDS]
        weights = [w for _, w in _KINDS]
        kind = rng.choices(names, weights)[0]
        if kind in ("EX", "ALL") and rng.random() > SO_PROB:
            kind = "ex"
        match kind:
            case "not":
                return Not(go(r, fo, so))
            case "and" | "or":
                # a left operand of the same kind takes the right as one
                # more operand, so the tree is the one parse reads back
                node = And if kind == "and" else Or
                left, right = go(r, fo, so), go(r, fo, so)
                return node((left.parts if type(left) is node else (left,)) + (right,))
            case "implies":
                return Implies(go(r, fo, so), go(r, fo, so))
            case "ex" | "all" | "atleast":
                v = _fresh(BOUND_FO, fo)
                body = go(r - 1, fo + (v,), so)
                if kind == "ex":
                    return ExistsFO(v, body)
                if kind == "all":
                    return ForallFO(v, body)
                return AtLeast(rng.randint(1, 3), v, body)
            case _:
                s = _fresh(BOUND_SO, so)
                body = go(r - 1, fo, so + (s,))
                return ExistsSO(s, body) if kind == "EX" else ForallSO(s, body)

    return go(rank, tuple(fo_vars), ())


def random_instance(rng: random.Random, *, max_preds: int = 2, rank: int = 3):
    """(signature, free variables, formula) with small everything."""
    sig = Signature(tuple(f"P{i + 1}" for i in range(rng.randint(1, max_preds))))
    fo = ("x", "y")[:rng.randint(0, MAX_FREE)]
    return sig, fo, random_formula(rng, sig, fo, rank=rank)


def formula_batch(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]
