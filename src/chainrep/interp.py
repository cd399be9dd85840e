"""Point interpretations of relational structures inside words.

An interpretation names components, each carrying a dimension and a
universe formula; an output element is a component tag plus a satisfying
tuple of positions.  Relation rules give, per output symbol and per tuple
of components, a formula over the concatenated coordinates.  Only
injective interpretations are supported: elements are the tuples
themselves, with no quotient.

Spec files are plain text, one directive per line, with # comments:

    signature P1 P2
    component pairs dim=2
    universe P1(x) & x < y
    relation E/2 on (pairs, pairs) := x < u

Each universe line attaches to the component declared above it.  The free
first-order variables of a formula, in order of first occurrence, are the
coordinates: a universe needs exactly dim of them, a relation formula
exactly the sum of its components' dimensions.  A formula that must use
its variables out of occurrence order can pin the order first with
vacuous atoms such as "x = x & ...".

reduce_interpretation rebuilds an equivalent interpretation whose
components all have dimension at most d, replacing each component q by
copies (q, i): the i-th preimage, in position-lexicographic order, of an
image of q's minimal reparameterization.  A map whose certificate bound
exceeds 1 is built once, in the search's Query, and counted once
(reparam.refine_with_ranks): the count gives the exact bound and then the
selectors.  The selector of copy (q, i) is an automaton leaf reading one
track per domain and image variable, published from that count: it holds
when the map relates the two tuples and exactly i-1 preimages of the
image are lexicographically smaller.  A map with bound 1 is its own
selector.

check_equivalence checks a reduction as an explicit bijection on every
small word.  It plans each spec once per call (the question of each
component and rule, each rule's element cutter, its sorted relation
names), and each source's fiber question (g over the domain and image
variables).  A question is a (formula object, variables) pair, numbered
once per call however many plans ask it.  oracle.answered_words answers
each question once per length and projection of the word onto the labels
its formula reads, in order of first asking, and the plans read the
answers by number, so the per-word loop does only per-word work.  The
verdict on a word depends only on its answer list, and the walk hands out
each distinct list, compared by value, once, with its first word's
position: a later word with that list would get the same verdict, a
pass, so its structures are never built.
apply_interpretation, fibers and bijection run the same helpers on one
word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ChainrepError, InputError, ResourceLimitError
from .formula import (Formula, NameSupply, Run, Signature, all_vars, conj, exists_wrap,
                      free_set_variables, free_variables, one_point, parse, render,
                      substitute)
from .compiler import DEFAULT_STATE_BUDGET, PreimageRanks, Query
from .oracle import CheckReport, answered_words, satisfying_tuples
from .reparam import Reparameterization, refine_with_ranks, reparameterize
from .words import Word, walk_length

# components with more preimage copies than this produce unusably wide
# reduced specs long before they produce answers
MAX_COMPONENT_COPIES = 64


@dataclass(frozen=True)
class Component:
    name: str
    dim: int
    universe: Formula
    variables: tuple[str, ...]


@dataclass(frozen=True)
class RelationRule:
    relation: str
    components: tuple[str, ...]
    formula: Formula
    variables: tuple[str, ...]


@dataclass(frozen=True)
class InterpretationSpec:
    signature: Signature
    components: tuple[Component, ...]
    rules: tuple[RelationRule, ...]

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise InputError(f"unknown component {name!r}")

    def arities(self) -> dict[str, int]:
        return {r.relation: len(r.components) for r in self.rules}

    def dump(self) -> str:
        lines = [f"signature {' '.join(self.signature.preds)}"]
        for c in self.components:
            lines.append(f"component {c.name} dim={c.dim}")
            lines.append(f"universe {render(c.universe)}")
        for r in self.rules:
            lines.append(f"relation {r.relation}/{len(r.components)} "
                         f"on ({', '.join(r.components)}) := {render(r.formula)}")
        return "\n".join(lines)


def _validated(sig, components, rules) -> InterpretationSpec:
    seen = set()
    for c in components:
        if c.name in seen:
            raise InputError(f"component {c.name!r} declared twice")
        seen.add(c.name)
        if c.dim < 0:
            raise InputError(f"component {c.name!r} has negative dimension")
        if free_set_variables(c.universe):
            raise InputError(f"universe of {c.name!r} has free set variables")
        if len(c.variables) != c.dim:
            raise InputError(
                f"universe of {c.name!r} uses {len(c.variables)} variables, "
                f"dimension says {c.dim}")
    spec = InterpretationSpec(sig, tuple(components), tuple(rules))
    arities: dict[str, int] = {}
    keys = set()
    for r in rules:
        arities.setdefault(r.relation, len(r.components))
        if arities[r.relation] != len(r.components):
            raise InputError(f"relation {r.relation!r} used at two arities")
        key = (r.relation, r.components)
        if key in keys:
            raise InputError(
                f"relation {r.relation!r} on {r.components} given twice")
        keys.add(key)
        if free_set_variables(r.formula):
            raise InputError(f"relation {r.relation!r} has free set variables")
        want = sum(spec.component(q).dim for q in r.components)
        if len(r.variables) != want:
            raise InputError(
                f"relation {r.relation!r} on {r.components} uses "
                f"{len(r.variables)} variables, components supply {want}")
    return spec


def parse_interpretation(text: str, sig: Signature | None = None) -> InterpretationSpec:
    """Read a spec file; a signature line overrides the sig argument."""
    components: list[Component] = []
    rules: list[RelationRule] = []
    pending: str | None = None
    pending_dim = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "signature":
            sig = Signature(tuple(rest.replace(",", " ").split()))
            continue
        if head == "component":
            if pending is not None:
                raise InputError(f"component {pending!r} has no universe line")
            name, _, dim_part = rest.partition(" ")
            dim_part = dim_part.strip()
            if not name or not dim_part.startswith("dim="):
                raise InputError(f"bad component line: {line!r}")
            try:
                pending_dim = int(dim_part[4:])
            except ValueError:
                raise InputError(f"bad dimension in {line!r}") from None
            pending = name
            continue
        if sig is None:
            raise InputError("signature line must come before formulas")
        if head == "universe":
            if pending is None:
                raise InputError("universe line without a component")
            f = parse(rest, sig)
            components.append(Component(pending, pending_dim, f, free_variables(f)))
            pending = None
            continue
        if head == "relation":
            decl, sep, body = rest.partition(":=")
            if not sep:
                raise InputError(f"relation line misses ':=': {line!r}")
            name_part, _, on_part = decl.partition(" on ")
            name, _, arity_part = name_part.strip().partition("/")
            on_part = on_part.strip()
            if not name or not arity_part.isdigit() or not (
                    on_part.startswith("(") and on_part.endswith(")")):
                raise InputError(f"bad relation line: {line!r}")
            comps = tuple(q.strip() for q in on_part[1:-1].split(",") if q.strip())
            if len(comps) != int(arity_part):
                raise InputError(
                    f"relation {name!r} declares arity {arity_part} "
                    f"but lists {len(comps)} components")
            f = parse(body.strip(), sig)
            rules.append(RelationRule(name, comps, f, free_variables(f)))
            continue
        raise InputError(f"unknown directive {head!r}")
    if pending is not None:
        raise InputError(f"component {pending!r} has no universe line")
    if sig is None:
        raise InputError("no signature given")
    return _validated(sig, components, rules)


Element = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class Structure:
    """A materialized output: tagged tuples and relations between them."""

    elements: tuple[Element, ...]
    relations: tuple[tuple[str, tuple[tuple[Element, ...], ...]], ...]

    def relation(self, name: str) -> tuple[tuple[Element, ...], ...]:
        for n, tuples in self.relations:
            if n == name:
                return tuples
        return ()

    def dump(self) -> str:
        lines = [f"element {c}({', '.join(map(str, t))})" for c, t in self.elements]
        for name, tuples in self.relations:
            for tup in tuples:
                args = ", ".join(f"{c}({', '.join(map(str, t))})" for c, t in tup)
                lines.append(f"relation {name}: {args}")
        return "\n".join(lines) if lines else "(empty structure)"


def apply_interpretation(spec: InterpretationSpec, word: Word) -> Structure:
    """Materialize the output structure on one word by direct evaluation.

    A component's elements are the satisfying tuples of its universe.  A
    rule relates the elements whose coordinates, concatenated, satisfy its
    formula: each satisfying tuple is cut into one part per component, by
    dimension, and kept when every part is an element of its component.
    check_equivalence builds the same elements and relations on each word,
    as sets, without packing them into a Structure.
    """
    if word.sig != spec.signature:
        raise InputError("word and spec use different signatures")
    questions = _Questions()
    plan = _plan(spec, questions)
    elements, relations = _structure(plan, [satisfying_tuples(f, word, variables)
                                            for f, variables in questions.asked])
    return Structure(tuple(elements), tuple((name, tuple(sorted(tuples)))
                                            for name, tuples in relations.items()))


class _Questions:
    """The distinct (formula, variables) questions of one call, numbered in
    order of first asking.  check_equivalence hands the list `asked` to
    oracle.answered_words, which answers each question once per word
    projection: once per length and values of the labels its formula
    reads, so words that agree on those share one answer.

    Questions are told apart by the formula object's id; the table keeps
    the formulas it numbers alive.  An answer list is shared by every
    reader of its question, and by every word with its projection: none
    may mutate it.
    """

    def __init__(self):
        self.numbers: dict[tuple[int, tuple[str, ...]], int] = {}
        self.asked: list[tuple[Formula, tuple[str, ...]]] = []

    def ask(self, f: Formula, variables: tuple[str, ...]) -> int:
        key = (id(f), variables)
        if key not in self.numbers:
            self.numbers[key] = len(self.asked)
            self.asked.append((f, variables))
        return self.numbers[key]


class _Plan(NamedTuple):
    """What a spec's structure needs on every word, built once: each
    component's name and question, each rule's relation, question and
    element cutter, and the relation names in sorted order."""

    components: tuple[tuple[str, int], ...]
    rules: tuple[tuple[str, int, Callable[[tuple[int, ...]], tuple[Element, ...]]], ...]
    relations: tuple[str, ...]


def _plan(spec: InterpretationSpec, questions: _Questions) -> _Plan:
    components = tuple((c.name, questions.ask(c.universe, c.variables))
                       for c in spec.components)
    rules = []
    for rule in spec.rules:
        cuts, start = [], 0
        for q in rule.components:
            dim = spec.component(q).dim
            cuts.append((q, start, start + dim))
            start += dim
        rules.append((rule.relation, questions.ask(rule.formula, rule.variables),
                      _cutter(cuts)))
    return _Plan(components, tuple(rules),
                 tuple(sorted({r.relation for r in spec.rules})))


def _cutter(cuts):
    """tup -> ((component, tup[start:end]), ...), one element per cut."""
    return lambda tup: tuple([(q, tup[a:b]) for q, a, b in cuts])


def _structure(plan: _Plan, answers: list[list[tuple[int, ...]]]
               ) -> tuple[list[Element], dict[str, set]]:
    """(elements, relation name -> set of tuples) of the plan's spec on the
    word that answers its questions, as apply_interpretation describes them."""
    elements = [(name, tup) for name, q in plan.components for tup in answers[q]]
    members = set(elements)
    relations: dict[str, set] = {name: set() for name in plan.relations}
    for relation, q, cut in plan.rules:
        add = relations[relation].add
        for tup in answers[q]:
            combo = cut(tup)
            if members.issuperset(combo):
                add(combo)
    return elements, relations


@dataclass(frozen=True)
class ReducedComponent:
    name: str
    source: str
    index: int
    rep: Reparameterization
    selector: Formula


@dataclass(frozen=True)
class ReducedInterpretation:
    """A reduced spec plus the bookkeeping tying it back to its source."""

    source: InterpretationSpec
    spec: InterpretationSpec
    parts: tuple[ReducedComponent, ...]

    def part(self, name: str) -> ReducedComponent:
        return _part(_first((p.name, p) for p in self.parts), name)

    def fibers(self, source_name: str, word: Word) -> dict[tuple, list[tuple]]:
        """Image tuple -> its preimage tuples in lexicographic order.

        These are the fibers check_equivalence reads on each word, from the
        map of the component's first copy.
        """
        rep = _first((p.source, p.rep) for p in self.parts).get(source_name)
        if rep is None:
            raise InputError(f"no copies of component {source_name!r}")
        g, variables, k = _fiber_formula(rep)
        return _fibers(satisfying_tuples(g, word, variables), k)

    def bijection(self, structure: Structure,
                  fibers: dict[str, dict[tuple, list[tuple]]]) -> dict[Element, Element]:
        """Reduced element -> source element, per the preimage bookkeeping.

        structure is the output of self.spec on a word, and fibers maps each
        source component with copies to self.fibers of it on the same word.
        check_equivalence maps the reduced elements of each word the same way.
        """
        return _bijection(_first((p.name, p) for p in self.parts),
                          structure.elements, fibers)


def _first(pairs) -> dict:
    """Each key's first value, keys in order of first appearance."""
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, value)
    return out


def _part(parts: dict[str, ReducedComponent], name: str) -> ReducedComponent:
    part = parts.get(name)
    if part is None:
        raise InputError(f"unknown reduced component {name!r}")
    return part


def _fiber_formula(rep: Reparameterization) -> tuple[Formula, tuple[str, ...], int]:
    """(g, domain + image variables, domain width): the map's question."""
    return rep.g, rep.domain_vars + rep.image_vars, len(rep.domain_vars)


def _fibers(tuples: list[tuple[int, ...]], k: int) -> dict[tuple, list[tuple]]:
    # satisfying tuples come in lexicographic order, so for each image
    # tuple its preimages do too
    out: dict[tuple, list[tuple]] = {}
    for tup in tuples:
        out.setdefault(tup[k:], []).append(tup[:k])
    return out


def _bijection(parts: dict[str, ReducedComponent], elements,
               fibers: dict[str, dict[tuple, list[tuple]]]) -> dict[Element, Element]:
    out: dict[Element, Element] = {}
    for name, tup in elements:
        part = _part(parts, name)
        fiber = fibers[part.source].get(tup, ())
        if len(fiber) < part.index:
            raise ChainrepError(
                f"element {name}{tup} expects preimage {part.index}, "
                f"fiber has {len(fiber)}")
        out[(name, tup)] = (part.source, fiber[part.index - 1])
    return out


def reduce_interpretation(spec: InterpretationSpec, d: int, *,
                          budget_states: int = DEFAULT_STATE_BUDGET) -> ReducedInterpretation:
    """Equivalent interpretation with all component dimensions at most d.

    Component q splits into (q, i) for i up to the preimage bound of a
    minimal reparameterization of its universe: the (q, i) elements are the
    images owning at least i preimages, standing for the i-th one.  Errors
    when some universe needs dimension above d; raises ResourceLimitError
    when a component would split into more than MAX_COMPONENT_COPIES copies
    or its preimage count exceeds budget_states.
    """
    if d < 0:
        raise InputError("dimension must be nonnegative")
    reps: dict[str, Reparameterization] = {}
    ranks: dict[str, PreimageRanks] = {}
    for c in spec.components:
        query = Query(spec.signature, budget_states)
        rep = reparameterize(c.universe, c.variables, query)
        if rep.dimension > d:
            raise InputError(
                f"component {c.name!r} needs dimension {rep.dimension}, "
                f"target is {d}")
        if rep.bound > 1:
            rep, ranks[c.name] = refine_with_ranks(rep, query)
        if rep.bound > MAX_COMPONENT_COPIES:
            raise ResourceLimitError(
                f"component {c.name!r} would split into {rep.bound} copies",
                budget=MAX_COMPONENT_COPIES, subject="component copies",
                reached=rep.bound)
        reps[c.name] = rep
    parts: list[ReducedComponent] = []
    new_components: list[Component] = []
    copies: dict[str, list[ReducedComponent]] = {}
    for c in spec.components:
        rep = reps[c.name]
        copies[c.name] = []
        # a map with bound 1 is injective: its one copy needs no rank
        tracks = rep.domain_vars + rep.image_vars
        selectors = ranks[c.name].selectors(rep.bound) if rep.bound > 1 else []
        for i in range(1, rep.bound + 1):
            name = f"{c.name}.{i}"
            selector = Run(selectors[i - 1], tracks) if selectors else rep.g
            universe = one_point(exists_wrap(rep.domain_vars, selector))
            parts.append(ReducedComponent(name, c.name, i, rep, selector))
            new_components.append(Component(name, rep.dimension, universe,
                                            rep.image_vars))
            copies[c.name].append(parts[-1])
    new_rules = [_reduced_rule(rule, combo) for rule in spec.rules
                 for combo in itertools.product(*(copies[q] for q in rule.components))]
    reduced = _validated(spec.signature, new_components, new_rules)
    return ReducedInterpretation(spec, reduced, tuple(parts))


def _reduced_rule(rule: RelationRule, combo_parts) -> RelationRule:
    """Relation formula on reduced components, one part per slot: the
    original relation holds between the chosen preimages of the slots'
    images."""
    names = set()
    for p in combo_parts:
        names |= all_vars(p.rep.g) | set(p.rep.domain_vars) | set(p.rep.image_vars)
    names |= all_vars(rule.formula) | set(rule.variables)
    supply = NameSupply(names)
    slot_xs: list[tuple[str, ...]] = []
    slot_ys: list[tuple[str, ...]] = []
    selectors = []
    for p in combo_parts:
        xs = tuple(supply.fresh("x") for _ in p.rep.domain_vars)
        ys = tuple(supply.fresh("y") for _ in p.rep.image_vars)
        ren = dict(zip(p.rep.domain_vars + p.rep.image_vars, xs + ys))
        selectors.append(substitute(p.selector, ren, supply))
        slot_xs.append(xs)
        slot_ys.append(ys)
    flat_xs = [v for xs in slot_xs for v in xs]
    inner = substitute(rule.formula, dict(zip(rule.variables, flat_xs)), supply)
    formula = one_point(exists_wrap(flat_xs, conj(selectors + [inner])))
    variables = tuple(v for ys in slot_ys for v in ys)
    return RelationRule(rule.relation, tuple(p.name for p in combo_parts), formula, variables)


def check_equivalence(spec: InterpretationSpec, reduced: ReducedInterpretation,
                      max_len: int = 4) -> CheckReport:
    """Replay the reduction's bijection on every word up to max_len.

    Checks that the map from reduced to source elements is well defined,
    bijective, and preserves and reflects every relation; also that no
    fiber exceeds its component's copy count.  Reports the first failure.

    Both specs and the fibers are planned once, before the first word.
    Every (formula object, variables) that they ask about is evaluated once
    per word projection, so a universe that is also its own map's g, as a
    dimension-0 one can be, costs one search, not three, and words that
    agree on every label it reads share that search.  Only the first word
    of each answer list is decided (answered_words): a later word would
    pass as it did, with the same fibers, so the first failure and
    max_fiber are those of deciding every word.  words_checked is the
    failing word's position in shortlex order, or the number of words up
    to max_len (walk_length).
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    src_arities = spec.arities()
    for name, arity in reduced.spec.arities().items():
        if src_arities.get(name) != arity:
            raise InputError("interpretations have different output signatures")
    if reduced.spec.signature != spec.signature:
        raise InputError("word and spec use different signatures")
    questions = _Questions()
    source, target = _plan(spec, questions), _plan(reduced.spec, questions)
    parts = _first((p.name, p) for p in reduced.parts)
    # components reduced to zero copies have no fibers; any element they
    # still produce surfaces below as a missed source element
    reps = _first((p.source, p.rep) for p in reduced.parts)
    maps = {}
    for name, rep in reps.items():
        g, variables, k = _fiber_formula(rep)
        maps[name] = questions.ask(g, variables), k
    max_fiber = 0
    for walked, word, answers in answered_words(spec.signature, max_len, questions.asked):
        a_elements, a_relations = _structure(source, answers)
        b_elements, b_relations = _structure(target, answers)
        fibers = {name: _fibers(answers[q], k) for name, (q, k) in maps.items()}
        try:
            pi = _bijection(parts, b_elements, fibers)
        except ChainrepError as e:
            return CheckReport(False, walked, max_fiber, f"word {word}: {e}")
        for name, rep in reps.items():
            largest = max(map(len, fibers[name].values()), default=0)
            max_fiber = max(max_fiber, largest)
            if largest > rep.bound:
                return CheckReport(False, walked, max_fiber,
                                   f"word {word}: component {name!r} has a "
                                   f"fiber of {largest}, bound {rep.bound}")
        image = set(pi.values())
        if len(image) != len(pi):
            return CheckReport(False, walked, max_fiber,
                               f"word {word}: bijection is not injective")
        if image != set(a_elements):
            return CheckReport(False, walked, max_fiber,
                               f"word {word}: bijection misses source elements")
        if len(b_elements) != len(pi):
            return CheckReport(False, walked, max_fiber,
                               f"word {word}: unmapped reduced elements")
        for name in source.relations:
            want = a_relations[name]
            # a relation the reduced spec lacks, as when all its components
            # were reduced to zero copies, is empty
            got = {tuple(map(pi.__getitem__, tup)) for tup in b_relations.get(name, ())}
            if want != got:
                return CheckReport(
                    False, walked, max_fiber,
                    f"word {word}: relation {name!r} differs "
                    f"(missing {sorted(want - got)}, extra {sorted(got - want)})")
    return CheckReport(True, walk_length(spec.signature, max_len), max_fiber)
