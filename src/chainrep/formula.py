"""Monadic second-order formulas over finite labelled linear orders.

Concrete syntax, loosest to tightest binding:

    ex x. f     all x. f     EX X. f     ALL X. f     atleast 3 x. f
    f -> g
    f | g
    f & g
    ~f
    x < y    x = y    P1(x)    X(x)    true    false

Quantifier bodies extend as far right as possible.  First-order variables
start with a lowercase letter, set variables with an uppercase letter, and
no variable is named like a keyword: true and false are the constants.  A
name applied like a predicate resolves against the signature; an applied
name of shape P<digits> that is not in the signature is rejected instead of
being treated as a set variable.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass

from .errors import InputError, ParseError, ResourceLimitError

# the deepest nesting of connectives and binders that parse, compile and the
# oracle accept.  The compiler's `all` arm takes 7 frames a level, so every
# walker stays under Python's default recursion limit of 1000 frames
MAX_DEPTH = 100

KEYWORDS = frozenset({"ex", "all", "EX", "ALL", "atleast", "true", "false"})

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_NUMBERED_PRED_RE = re.compile(r"P\d+\Z")


def is_fo_name(name: str) -> bool:
    return bool(_NAME_RE.match(name)) and name[0].islower() and name not in KEYWORDS


def is_so_name(name: str) -> bool:
    return bool(_NAME_RE.match(name)) and name[0].isupper() and name not in KEYWORDS


@dataclass(frozen=True)
class Signature:
    """Ordered tuple of unary predicate names labelling positions."""

    preds: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "preds", tuple(self.preds))
        seen = set()
        for name in self.preds:
            if not is_so_name(name):
                raise InputError(f"bad predicate name {name!r}")
            if name in seen:
                raise InputError(f"duplicate predicate {name!r}")
            seen.add(name)

    @property
    def k(self) -> int:
        return len(self.preds)

    def index(self, name: str) -> int:
        try:
            return self.preds.index(name)
        except ValueError:
            raise InputError(f"unknown predicate {name!r}") from None

    @classmethod
    def from_text(cls, text: str) -> "Signature":
        names = [part.strip() for part in text.split(",") if part.strip()]
        return cls(tuple(names))


class Formula:
    """Base class for AST nodes: frozen dataclasses compared and hashed by
    their fields, so a hash walks the whole subtree."""

    __slots__ = ()

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Const(Formula):
    """The constant `true` or `false`."""

    value: bool


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Less(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Equal(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Pred(Formula):
    name: str
    var: str


@dataclass(frozen=True)
class In(Formula):
    setvar: str
    var: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


def _operands(f):
    # And and Or are n-ary, as SMT-LIB's `and` and `or`
    object.__setattr__(f, "parts", tuple(f.parts))
    if len(f.parts) < 2:
        raise InputError(f"{type(f).__name__} needs at least two operands")


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]
    __post_init__ = _operands


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]
    __post_init__ = _operands


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExistsFO(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForallFO(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ExistsSO(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForallSO(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class AtLeast(Formula):
    """At least `count` distinct positions satisfy the body."""

    count: int
    var: str
    body: Formula


@dataclass(frozen=True)
class Run(Formula):
    """The automaton `dfa` accepts the word with the positions of `vars`
    marked.

    `dfa` is a compiler.Dfa, marked or plain; a plain one takes no vars.
    The automaton decides how it reads them: with one mark bit
    (`dfa.tracks == 1`) every variable marks that bit, so the marked
    positions form a set and a name may repeat (as it does after an
    order-case merge); with one track per variable the j-th variable marks
    mark bit j.  The leaf binds no variable: its only names are `vars`,
    and the MSO export `mso()` draws its own.
    """

    dfa: object
    vars: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        for v in self.vars:
            if not is_fo_name(v):
                raise InputError(f"bad variable name {v!r}")
        if self.vars and not self.dfa.marked:
            raise InputError("plain automaton takes no variables")
        if self.dfa.tracks not in (1, len(self.vars)):
            raise InputError(f"automaton reads {self.dfa.tracks} tracks, "
                             f"leaf has {len(self.vars)} variables")

    def mso(self) -> Formula:
        """The same property as a plain MSO formula.

        The run is encoded by ceil(log2 n) set variables holding the state
        bits after each position, pinned down inductively, so the formula
        is exact but costly to evaluate.  Transitions into a rejecting sink
        are left out: a run that enters one has no encoding, as it has no
        accepting end.  Its first-order binders p, q, r are fresh against
        vars, which are its only free variables, so the export is
        capture-free in any context.
        """
        dfa, variables = self.dfa, self.vars
        supply = NameSupply(variables)
        p, q, r = (supply.fresh(c) for c in "pqr")
        n = dfa.n_states
        k = dfa.sig.k
        nbits = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        zs = [f"Z{j}" for j in range(nbits)]
        sinks = {s for s, row in enumerate(dfa.delta)
                 if s not in dfa.accepting and set(row) == {s}}
        # the variables each mark bit reads
        feeds = [variables] if dfa.tracks == 1 else [(v,) for v in variables]

        def state_bits(var, state):
            parts = []
            for j in range(nbits):
                atom = In(zs[j], var)
                parts.append(atom if state >> j & 1 else Not(atom))
            return conj(parts)

        def letter_test(var, letter):
            parts = []
            for i, name in enumerate(dfa.sig.preds):
                atom = Pred(name, var)
                parts.append(atom if letter >> i & 1 else Not(atom))
            if dfa.marked:
                for j, feed in enumerate(feeds):
                    here = disj([Equal(var, v) for v in feed])
                    parts.append(here if letter >> (k + j) & 1 else Not(here))
            return conj(parts)

        is_first = Not(ExistsFO(q, Less(q, p)))
        is_last = Not(ExistsFO(q, Less(p, q)))
        first_rule = ForallFO(p, Implies(
            is_first,
            disj([And((letter_test(p, a), state_bits(p, dfa.delta[dfa.init][a])))
                  for a in range(dfa.n_letters) if dfa.delta[dfa.init][a] not in sinks])))
        succ = And((Less(p, q), Not(ExistsFO(r, And((Less(p, r), Less(r, q)))))))
        step_rule = ForallFO(p, ForallFO(q, Implies(
            succ,
            disj([conj([state_bits(p, s), letter_test(q, a),
                        state_bits(q, dfa.delta[s][a])])
                  for s in range(n) for a in range(dfa.n_letters)
                  if dfa.delta[s][a] not in sinks]))))
        last_rule = ForallFO(p, Implies(
            is_last,
            disj([state_bits(p, s) for s in sorted(dfa.accepting)])))
        run = conj([first_rule, step_rule, last_rule])
        for z in reversed(zs):
            run = ExistsSO(z, run)
        empty = Not(ExistsFO(p, Equal(p, p)))
        empty_ok = TRUE if (dfa.init in dfa.accepting and not variables) else FALSE
        if variables:
            # with at least one mark the word cannot be empty
            return And((ExistsFO(p, Equal(p, p)), run))
        return Or((And((empty, empty_ok)), And((Not(empty), run))))


_TOKEN_RE = re.compile(r"->|[()<=~&|.]|\d+|[A-Za-z][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", text, i)
        toks.append((m.group(), i))
        i = m.end()
    return toks


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self, expected=None):
        if self.i >= len(self.toks):
            msg = "unexpected end of input"
            if expected is not None:
                msg += f", expected {expected!r}"
            raise ParseError(msg, self.text, len(self.text))
        tok, pos = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", self.text, pos)
        self.i += 1
        return tok, pos

    def nested(self, parse) -> Formula:
        """parse(), one level deeper: ~, binders, parentheses and -> count."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep("parse", self.depth)
        f = parse()
        self.depth -= 1
        return f

    def expr(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.nested(self.expr))
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conjunction())
        return disj(parts)

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return conj(parts)

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.take()
            return Not(self.nested(self.unary))
        if tok in ("ex", "all"):
            self.take()
            v, pos = self.take()
            if not is_fo_name(v):
                raise ParseError(f"expected a first-order variable, found {v!r}", self.text, pos)
            self.take(".")
            body = self.nested(self.expr)
            return ExistsFO(v, body) if tok == "ex" else ForallFO(v, body)
        if tok in ("EX", "ALL"):
            self.take()
            v, pos = self.take()
            if not is_so_name(v):
                raise ParseError(f"expected a set variable, found {v!r}", self.text, pos)
            if v in self.sig.preds or _NUMBERED_PRED_RE.match(v):
                raise ParseError(f"{v!r} is reserved for predicates", self.text, pos)
            self.take(".")
            body = self.nested(self.expr)
            return ExistsSO(v, body) if tok == "EX" else ForallSO(v, body)
        if tok == "atleast":
            self.take()
            num, pos = self.take()
            if not num.isdigit():
                raise ParseError(f"expected a count, found {num!r}", self.text, pos)
            v, vpos = self.take()
            if not is_fo_name(v):
                raise ParseError(f"expected a first-order variable, found {v!r}", self.text, vpos)
            self.take(".")
            return AtLeast(int(num), v, self.nested(self.expr))
        return self.atom()

    def atom(self) -> Formula:
        if self.peek() == "(":
            self.take()
            f = self.nested(self.expr)
            self.take(")")
            return f
        name, pos = self.take()
        if not name[0].isalpha():
            raise ParseError(f"unexpected token {name!r}", self.text, pos)
        if name in ("true", "false"):
            return TRUE if name == "true" else FALSE
        if self.peek() == "(":
            if not name[0].isupper():
                raise ParseError(f"{name!r} cannot be applied, predicates and set variables are uppercase", self.text, pos)
            self.take()
            arg, apos = self.take()
            if not is_fo_name(arg):
                raise ParseError(f"expected a first-order variable, found {arg!r}", self.text, apos)
            self.take(")")
            if name in self.sig.preds:
                return Pred(name, arg)
            if _NUMBERED_PRED_RE.match(name):
                raise ParseError(f"unknown predicate {name!r}", self.text, pos)
            return In(name, arg)
        if name[0].isupper():
            raise ParseError(f"set variable {name!r} must be applied to a position", self.text, pos)
        rel, rpos = self.take()
        if rel not in ("<", "="):
            raise ParseError(f"expected '<' or '=' after {name!r}, found {rel!r}", self.text, rpos)
        other, opos = self.take()
        if not is_fo_name(other):
            raise ParseError(f"expected a first-order variable, found {other!r}", self.text, opos)
        return Less(name, other) if rel == "<" else Equal(name, other)


def parse(text: str, sig: Signature) -> Formula:
    """The formula of text, which nests at most MAX_DEPTH levels deep."""
    p = _Parser(text, sig)
    f = p.expr()
    if p.peek() is not None:
        tok, pos = p.toks[p.i]
        raise ParseError(f"trailing input {tok!r}", text, pos)
    return check_depth(f, "parse")


def _render(f: Formula, ctx: int) -> str:
    match f:
        case Const(value):
            s, prec = "true" if value else "false", 5
        case Less(a, b):
            s, prec = f"{a} < {b}", 5
        case Equal(a, b):
            s, prec = f"{a} = {b}", 5
        case Pred(name, v) | In(name, v):
            s, prec = f"{name}({v})", 5
        case Not(g):
            s, prec = "~" + _render(g, 4), 4
        case And(parts) | Or(parts):
            op, prec = (" & ", 3) if isinstance(f, And) else (" | ", 2)
            s = op.join([_render(parts[0], prec)] + [_render(g, prec + 1) for g in parts[1:]])
        case Implies(a, b):
            s, prec = _render(a, 2) + " -> " + _render(b, 1), 1
        case ExistsFO(v, g):
            s, prec = f"ex {v}. " + _render(g, 0), 0
        case ForallFO(v, g):
            s, prec = f"all {v}. " + _render(g, 0), 0
        case ExistsSO(v, g):
            s, prec = f"EX {v}. " + _render(g, 0), 0
        case ForallSO(v, g):
            s, prec = f"ALL {v}. " + _render(g, 0), 0
        case AtLeast(n, v, g):
            s, prec = f"atleast {n} {v}. " + _render(g, 0), 0
        case Run():
            return _render(f.mso(), ctx)
        case _:
            raise InputError(f"not a formula: {f!r}")
    if prec < ctx:
        return "(" + s + ")"
    return s


def render(f: Formula) -> str:
    """Canonical text for f.  parse(render(f)) == f, except that a Run leaf
    renders as its MSO export, so with Run leaves parse(render(f)) is only
    equivalent to f, and that an And or Or prints a first operand of its
    own kind bare, as `a & b & c`, which parses as one node."""
    return _render(f, 0)


def map_subformulas(f: Formula, fn) -> Formula:
    """f with fn applied to each subformula of its top connective or binder.

    This is the one place that knows which fields of a node hold
    subformulas.  It returns f itself when fn returns every subformula
    unchanged, and for atoms, constants and Run leaves, which have none.
    """
    match f:
        case Not(g):
            h = fn(g)
            return f if h is g else Not(h)
        case And(parts) | Or(parts):
            new = tuple(map(fn, parts))
            return f if all(map(operator.is_, new, parts)) else type(f)(new)
        case Implies(a, b):
            c, d = fn(a), fn(b)
            return f if c is a and d is b else Implies(c, d)
        case ExistsFO(v, g) | ForallFO(v, g) | ExistsSO(v, g) | ForallSO(v, g):
            h = fn(g)
            return f if h is g else type(f)(v, h)
        case AtLeast(n, v, g):
            h = fn(g)
            return f if h is g else AtLeast(n, v, h)
    if not isinstance(f, Formula):
        raise InputError(f"not a formula: {f!r}")
    return f


def _too_deep(stage: str, depth: int) -> ResourceLimitError:
    return ResourceLimitError(f"formula nests deeper than {MAX_DEPTH} levels", budget=MAX_DEPTH,
                              subject="nesting depth", stage=stage, reached=depth)


def check_depth(f: Formula, stage: str, known=()) -> Formula:
    """f, if a loop finds no node of it more than MAX_DEPTH levels deep, not
    counting inside the subformulas whose ids are in known, which the caller
    does not walk; else ResourceLimitError naming the stage."""
    todo = [(f, 0)]
    while todo:
        g, depth = todo.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(stage, depth)
        if id(g) not in known:
            map_subformulas(g, lambda h: todo.append((h, depth + 1)) or h)
    return f


def occurrences(f: Formula) -> list[tuple[str, bool, bool]]:
    """Every variable occurrence in f, left to right, as (name, is_set,
    is_free).  A binder's own name is a bound occurrence before its body."""
    out: list[tuple[str, bool, bool]] = []

    def go(node, bound):
        match node:
            case Less(a, b) | Equal(a, b):
                out.append((a, False, a not in bound))
                out.append((b, False, b not in bound))
            case Pred(_, v):
                out.append((v, False, v not in bound))
            case In(s, v):
                out.append((s, True, s not in bound))
                out.append((v, False, v not in bound))
            case Run(_, vs):
                out.extend((v, False, v not in bound) for v in vs)
            case ExistsFO(v, g) | ForallFO(v, g) | AtLeast(_, v, g):
                out.append((v, False, False))
                go(g, bound | {v})
            case ExistsSO(s, g) | ForallSO(s, g):
                out.append((s, True, False))
                go(g, bound | {s})
            case _:
                map_subformulas(node, lambda g: go(g, bound))
        return node  # unchanged, so map_subformulas rebuilds nothing

    go(f, frozenset())
    return out


def free_variables(f: Formula) -> tuple[str, ...]:
    """Free first-order variables in order of first occurrence."""
    return tuple(dict.fromkeys(v for v, is_set, free in occurrences(f)
                               if free and not is_set))


def free_set_variables(f: Formula) -> tuple[str, ...]:
    """Free set variables in order of first occurrence."""
    return tuple(dict.fromkeys(v for v, is_set, free in occurrences(f)
                               if free and is_set))


def all_vars(f: Formula) -> frozenset[str]:
    """Every variable name occurring in f, free or bound, either order."""
    return frozenset(v for v, _, _ in occurrences(f))


class NameSupply:
    """Deterministic fresh-name generator avoiding a given set of names."""

    def __init__(self, avoid=()):
        self._avoid = set(avoid)
        self._counters: dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        while True:
            cand = f"{prefix}{n}"
            n += 1
            if cand not in self._avoid:
                self._counters[prefix] = n
                self._avoid.add(cand)
                return cand


def substitute(f: Formula, mapping: dict[str, str], supply: NameSupply | None = None) -> Formula:
    """Rename free first-order variables, avoiding capture by renaming binders.

    A renamed binder takes a name from supply, by default one avoiding every
    name in f and in mapping, made when the first binder needs it.
    """
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return f
    for k, v in mapping.items():
        if not is_fo_name(k) or not is_fo_name(v):
            raise InputError("substitute only renames first-order variables")

    def fresh(v):
        nonlocal supply
        if supply is None:
            supply = NameSupply(all_vars(f) | set(mapping) | set(mapping.values()))
        return supply.fresh(v)

    return _subst(f, mapping, fresh)


def _subst(f, m, fresh):
    match f:
        case Less(a, b) | Equal(a, b):
            return type(f)(m.get(a, a), m.get(b, b))
        case Pred(name, v) | In(name, v):
            return type(f)(name, m.get(v, v))
        case Run(dfa, vs):
            return Run(dfa, tuple(m.get(v, v) for v in vs))
        case ExistsFO(v, g) | ForallFO(v, g) | AtLeast(_, v, g):
            live = {k: w for k, w in m.items() if k != v}
            if not live:
                return f
            if v in live.values() and \
                    {k for k, w in live.items() if w == v} & set(free_variables(g)):
                nv = fresh(v)
                g = _subst(g, {v: nv}, fresh)
                v = nv
            g = _subst(g, live, fresh)
            return AtLeast(f.count, v, g) if isinstance(f, AtLeast) else type(f)(v, g)
    return map_subformulas(f, lambda g: _subst(g, m, fresh))


def conj(formulas) -> Formula:
    """The And of the formulas, none flattened; true for none, f for [f]."""
    formulas = tuple(formulas)
    return And(formulas) if len(formulas) > 1 else formulas[0] if formulas else TRUE


def conjuncts(f: Formula) -> list[Formula]:
    """The operands of f's top-level conjunction, nested ones flattened, left
    to right, except true."""
    if isinstance(f, And):
        return [g for part in f.parts for g in conjuncts(part)]
    return [] if f == TRUE else [f]


def one_point(f: Formula) -> Formula:
    """f with the one-point rule applied bottom-up: `ex u. φ`, where `u = t`
    or `t = u` (t not u) is a top-level conjunct of φ, becomes φ's other
    conjuncts with t for u, renamed capture-free by substitute."""
    f = map_subformulas(f, one_point)
    if isinstance(f, ExistsFO):
        parts = conjuncts(f.body)
        for i, p in enumerate(parts):
            if isinstance(p, Equal) and p.left != p.right and f.var in (p.left, p.right):
                t = p.right if p.left == f.var else p.left
                return substitute(conj(parts[:i] + parts[i + 1:]), {f.var: t})
    return f


def disj(formulas) -> Formula:
    """The Or of the formulas, none flattened; false for none, f for [f]."""
    formulas = tuple(formulas)
    return Or(formulas) if len(formulas) > 1 else formulas[0] if formulas else FALSE


def exists_wrap(variables, body: Formula) -> Formula:
    for v in reversed(list(variables)):
        body = ExistsFO(v, body)
    return body


def expand_macros(f: Formula) -> Formula:
    """Rewrite every counting quantifier into plain nested quantifiers.

    New names come from one supply avoiding every name in f, made when the
    first counting quantifier needs it.
    """
    supply = None

    def expand(g):
        nonlocal supply
        if not isinstance(g, AtLeast):
            return map_subformulas(g, expand)
        n, v, body = g.count, g.var, expand(g.body)
        if n == 0:
            return TRUE
        if n == 1:
            return ExistsFO(v, body)
        if supply is None:
            supply = NameSupply(all_vars(f))
        names = [supply.fresh(v) for _ in range(n)]
        parts = [Less(a, b) for a, b in zip(names, names[1:])]
        parts += [substitute(body, {v: w}, supply) for w in names]
        return exists_wrap(names, conj(parts))

    return expand(f)


@dataclass(frozen=True)
class OrderCase:
    """One weak ordering of a variable tuple.

    classes hold the variables grouped by equality, listed in ascending
    position order; the representative of a class is its first member in
    the original variable order.
    """

    classes: tuple[tuple[str, ...], ...]
    representatives: tuple[str, ...]
    formula: Formula
    constraint: Formula


class OrderCaseSplit:
    """The order cases of f over a variable tuple, built as they are visited.

    Iteration substitutes one case at a time, so a caller that stops early
    never builds the cases after it, and case() one from its rank tuple, so
    a caller that knows the realizable ones builds only those; len() counts
    the weak orderings without building any.
    """

    def __init__(self, f: Formula, variables: tuple[str, ...]):
        self.formula = f
        self.variables = variables

    def _ranks(self):
        k = len(self.variables)
        for ranks in itertools.product(range(k), repeat=k):
            if len(set(ranks)) == max(ranks, default=-1) + 1:
                yield ranks

    def __len__(self) -> int:
        return sum(1 for _ in self._ranks())

    def __iter__(self):
        return map(self.case, self._ranks())

    def case(self, ranks) -> OrderCase:
        """The case of one weak ordering, given by its rank tuple: the i-th
        variable lies in the ranks[i]-th class, counted in ascending order."""
        if len(ranks) != len(self.variables) or \
                set(ranks) != set(range(max(ranks, default=-1) + 1)):
            raise InputError(f"{ranks} is not a weak ordering of {self.variables}")
        classes = rank_classes(self.variables, ranks)
        reps = tuple(c[0] for c in classes)
        mapping = {v: c[0] for c in classes for v in c[1:]}
        case_formula = substitute(self.formula, mapping) if mapping else self.formula
        eqs = [Equal(v, c[0]) for c in classes for v in c[1:]]
        order = [Less(a, b) for a, b in zip(reps, reps[1:])]
        return OrderCase(classes, reps, case_formula, conj(eqs + order))


def rank_classes(variables, ranks) -> tuple[tuple[str, ...], ...]:
    """The classes of a weak ordering in ascending order, the i-th variable
    in the ranks[i]-th, each listing its members in the order of variables."""
    return tuple(tuple(v for v, r in zip(variables, ranks) if r == c)
                 for c in range(max(ranks, default=-1) + 1))


def order_case_split(f: Formula, variables) -> OrderCaseSplit:
    """Split f along all weak orderings of the given variables.

    Every assignment of the variables matches the constraint of exactly one
    case, and on such assignments f agrees with the case formula, which
    mentions only the representatives.  The cases come lazily, in the
    lexicographic order of their rank tuples.
    """
    return OrderCaseSplit(f, check_variables(variables))


def check_variables(variables) -> tuple[str, ...]:
    """The variables as a tuple, once they are checked to be distinct
    first-order names: the one check of every list of marked variables."""
    variables = tuple(variables)
    for v in variables:
        if not is_fo_name(v):
            raise InputError(f"bad variable name {v!r}")
    if len(set(variables)) != len(variables):
        raise InputError("variables must be distinct")
    return variables
