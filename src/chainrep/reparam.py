"""Bounded-fiber reparameterizations of formulas with marked variables.

The dimension of a formula f(x1..xk) measures how many coordinates are
really free in its satisfying tuples: a reparameterization trades the k
domain variables for d image variables through a map with fibers of bounded
size, definable inside the same logic.  The machinery here finds a map of
minimal dimension by eliminating, one at a time, marks whose adjacent
segment pair cannot absorb pumping, and proves minimality implicitly: when
every tuple family pumps at every mark, the tuple count grows like n**k and
no smaller image can cover it.

Most of the work happens per order case (a fixed weak ordering of the
domain tuple), where satisfying assignments are strictly ascending markings
of a word and the type algebra of segments applies.  Only the cases some
word realizes are visited, the strict ones (every class a singleton)
first: the first that is rigid at full width ends the search, the
dimension is then the arity k, and the identity map, reading the domain
tuple in that case's ascending order, has bound 1.  Below full width every
case is reduced and the case maps, each stating its source once, are
glued into one union.

One compiler.Query per call keeps the automata of f, of its order cases
and of the images that the search compiles, so each image `ex xs. (case &
eqs)` and the map `source & h` start from the one build of the source.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from .errors import InputError, ResourceLimitError
from .formula import (FALSE, TRUE, And, Equal, Formula, NameSupply, Run, Signature,
                      all_vars, conj, conjuncts, disj, exists_wrap, free_variables,
                      one_point, order_case_split, substitute)
from .compiler import (DEFAULT_STATE_BUDGET, Dfa, PreimageRanks, Query, _Builder,
                       compile as compile_dfa, minimize_dfa, preimage_ranks)
from .monoid import TypeMonoid, is_pumpable, mark_shadow, ramsey_bound, transition_monoid
from .words import MarkedWord

# Two conventions in this module that are easy to get wrong, spelled out
# because published variants of the misprinted form circulate.
ERRATUM_NOTES = (
    "Eliminability of the i-th mark is decided on the segment pair"
    " (tau[i-1], tau[i]), the two intervals meeting at that mark; indexing"
    " the test as (tau[i], tau[i+1]) runs out of range at the last mark and"
    " pairs each mark with the wrong intervals.",
    "After deleting the i-th variable the image equalities read u_j = x_j"
    " for j < i and u_j = x_{j+1} for j >= i; the variant u_j = x_{j-1} for"
    " j > i leaves u_i unconstrained and refers to the deleted variable.",
)


@dataclass(frozen=True)
class Step:
    """Node of a provenance tree recording how a reparameterization arose."""

    kind: str
    detail: str = ""
    children: tuple["Step", ...] = ()

    def dump(self, indent: int = 0) -> str:
        line = "  " * indent + self.kind + (f": {self.detail}" if self.detail else "")
        return "\n".join([line] + [c.dump(indent + 1) for c in self.children])


@dataclass(frozen=True)
class Disjunct:
    """One family of the local normal form: a (k+1)-tuple of segment types."""

    types: tuple[int, ...]


@dataclass
class TypeAlgebra:
    """A formula's automaton together with the monoid acting on its segments.

    For arity zero the monoid is the plain transition monoid of the
    sentence automaton; otherwise it is the transition monoid of the
    mark-shadow doubling, whose row-0 entries see their first letter as
    marked.
    """

    sig: Signature
    variables: tuple[str, ...]
    dfa: Dfa
    monoid: TypeMonoid

    @classmethod
    def build(cls, formula, sig, variables,
              budget_states: int = DEFAULT_STATE_BUDGET,
              dfa: Dfa | None = None) -> "TypeAlgebra":
        variables = tuple(variables)
        if dfa is None:
            dfa = compile_dfa(formula, sig, variables, budget_states)
        monoid = transition_monoid(mark_shadow(dfa) if variables else dfa, budget_states)
        return cls(sig, variables, dfa, monoid)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def segment_types(self, mw: MarkedWord) -> tuple[int, ...]:
        """Types of the k+1 segments a marking cuts its word into.

        Segment 0 is the (possibly empty) prefix before the first mark;
        segment i starts at the i-th mark inclusive and is never empty.
        """
        if len(mw.marks) != self.arity:
            raise InputError(f"expected {self.arity} marks, got {len(mw.marks)}")
        letters = mw.word.letters
        m = self.monoid
        if not self.variables:
            return (m.image_of_word(letters),)
        cuts = list(mw.marks) + [len(letters)]
        out = [m.image_of_word(letters[:cuts[0]])]
        for j in range(len(mw.marks)):
            out.append(m.image_of_word(letters[cuts[j]:cuts[j + 1]]))
        return tuple(out)

    def accepts_chain(self, taus) -> bool:
        """Whether markings with these segment types satisfy the formula.

        Runs the chain through the shadow monoid: the prefix acts on row 1,
        each later segment enters on row 0 so its first letter is read as
        marked.  Segments after the prefix must be realizable nonempty.
        """
        taus = tuple(taus)
        if len(taus) != self.arity + 1:
            raise InputError(f"expected {self.arity + 1} types, got {len(taus)}")
        m = self.monoid
        if not self.variables:
            return m.apply(taus[0], self.dfa.init) in self.dfa.accepting
        q = m.elements[taus[0]][2 * self.dfa.init + 1] >> 1
        for t in taus[1:]:
            if m.nonempty_witness[t] is None:
                return False
            q = m.elements[t][2 * q] >> 1
        return q in self.dfa.accepting

    @functools.cached_property
    def families(self) -> tuple[tuple[Disjunct, tuple[int, ...]], ...]:
        """The local normal form, each family with its eliminable marks."""
        return tuple((d, eliminable_pairs(self, d)) for d in local_normal_form(self))

    @property
    def rigid(self) -> Disjunct | None:
        """The first family that pumps at every mark, if any."""
        return next((d for d, e in self.families if not e), None)


@dataclass(frozen=True)
class Reparameterization:
    """A fiber-bounded definable map from domain tuples to image tuples.

    g relates domain and image variables; over each word, every satisfying
    assignment of source gets exactly one image, only satisfying
    assignments get one, and at most `bound` of them share it.  g is
    `source & h`, whose selector h holds only order-case constraints,
    guards, image equalities and the `ex` over them; the empty map has both
    false.
    """

    source: Formula
    signature: Signature
    domain_vars: tuple[str, ...]
    image_vars: tuple[str, ...]
    h: Formula
    bound: int
    provenance: Step

    @functools.cached_property
    def g(self) -> Formula:
        return FALSE if self.h == FALSE else conj([self.source] + conjuncts(self.h))

    @property
    def dimension(self) -> int:
        return len(self.image_vars)

    def describe(self) -> str:
        head = (f"dimension {self.dimension}, bound {self.bound}, "
                f"{', '.join(self.domain_vars) or 'no domain'} -> "
                f"{', '.join(self.image_vars) or 'point'}")
        return head + "\n" + self.provenance.dump()


def local_normal_form(algebra: TypeAlgebra) -> tuple[Disjunct, ...]:
    """All accepted segment-type tuples, in monoid-index lexicographic order.

    The prefix type ranges over the whole monoid; later coordinates only
    over nonempty-realizable elements.  Every strictly ascending satisfying
    marking has its segment types in exactly one disjunct, and every
    disjunct is realized by some marking.
    """
    m = algebra.monoid
    a = algebra.dfa
    k = algebra.arity
    if k == 0:
        return tuple(Disjunct((t,)) for t in range(m.size)
                     if m.apply(t, a.init) in a.accepting)
    ne = [t for t in range(m.size) if m.nonempty_witness[t] is not None]
    # reach[i] = shadow-row states from which i more segments can accept
    reach: list[set[int]] = [set() for _ in range(k + 1)]
    reach[k] = set(a.accepting)
    for i in range(k, 0, -1):
        prev = set()
        for q in range(a.n_states):
            for t in ne:
                if m.elements[t][2 * q] >> 1 in reach[i]:
                    prev.add(q)
                    break
        reach[i - 1] = prev
    out: list[Disjunct] = []
    prefix: list[int] = []

    def descend(i: int, q: int):
        if i == k:
            out.append(Disjunct(tuple(prefix)))
            return
        for t in ne:
            q2 = m.elements[t][2 * q] >> 1
            if q2 in reach[i + 1]:
                prefix.append(t)
                descend(i + 1, q2)
                prefix.pop()

    for t0 in range(m.size):
        q1 = m.elements[t0][2 * a.init + 1] >> 1
        if q1 in reach[0]:
            prefix.append(t0)
            descend(0, q1)
            prefix.pop()
    return tuple(out)


def eliminable_pairs(algebra: TypeAlgebra, disjunct: Disjunct) -> tuple[int, ...]:
    """1-based mark indices whose adjacent segment pair admits no pumping."""
    out = []
    for i in range(1, algebra.arity + 1):
        if is_pumpable(algebra.monoid, disjunct.types[i - 1], disjunct.types[i]) is None:
            out.append(i)
    return tuple(out)


def _unsat_rep(source: Formula, sig: Signature, domain_vars) -> Reparameterization:
    return Reparameterization(source, sig, tuple(domain_vars), (), FALSE, 0,
                              Step("empty", "no satisfying assignment on any word"))


def eliminate_variable(source: Formula, sig: Signature, domain_vars, index: int,
                       n_families: int, monoid_size: int,
                       supply: NameSupply | None = None) -> Reparameterization:
    """One elimination step: drop the index-th domain variable (1-based).

    The map keeps the others, u_j = x_j below the index and u_j = x_{j+1}
    from it on.  Valid when no family of source pumps at that mark; the
    fiber over an image is then below n_families * ramsey_bound(monoid_size),
    since a longer run of candidate positions for the dropped mark would
    yield a pumping idempotent for the adjacent segment pair.
    """
    domain_vars = tuple(domain_vars)
    k = len(domain_vars)
    if not 1 <= index <= k:
        raise InputError(f"index {index} out of range for {k} variables")
    if supply is None:
        supply = NameSupply(all_vars(source) | set(domain_vars))
    us = tuple(supply.fresh("u") for _ in range(k - 1))
    eqs = [Equal(us[j], domain_vars[j] if j < index - 1 else domain_vars[j + 1])
           for j in range(k - 1)]
    bound = n_families * ramsey_bound(monoid_size)
    return Reparameterization(source, sig, domain_vars, us, conj(eqs), bound,
                              Step("eliminate", f"variable {index} of {k}; bound "
                                                f"{n_families} families x B({monoid_size})"))


def compose(first: Reparameterization, second: Reparameterization) -> Reparameterization:
    """first then second; fibers multiply.

    second's domain must be first's image, and second's source must hold
    of first's images, as `ex xs. first.g` does, so h is `ex mids. (h1 &
    h2)`, simplified by the one-point rule.
    """
    mids = tuple(first.image_vars)
    if tuple(second.domain_vars) != mids:
        raise InputError("composition: second's domain is not first's image")
    h = one_point(exists_wrap(mids, conj(conjuncts(first.h) + conjuncts(second.h))))
    return Reparameterization(first.source, first.signature, first.domain_vars,
                              second.image_vars, h, first.bound * second.bound,
                              Step("compose", f"{first.bound} x {second.bound}",
                                   (first.provenance, second.provenance)))


def combine_disjuncts(source: Formula, sig: Signature, domain_vars, parts,
                      supply: NameSupply | None = None) -> Reparameterization:
    """Union of guarded reparameterizations over one domain.

    parts are (guard, rep) pairs whose guards cover the source domain and
    are pairwise disjoint, and under its guard each rep's source agrees
    with source, so h is the plain union of the branches `guard_j & h_j`.
    Both callers meet this: `_minrep` guards by order-case constraints, one
    per weak ordering, and `_case_rep` by type-tuple automata of disjoint
    family groups, since each marking has exactly one tuple of segment
    types.  All branches share one image tuple of the widest width:
    narrower images are padded by repeating their last variable, and a
    zero-width satisfiable branch pins every image variable to the first
    domain variable.  Bounds add up.
    """
    parts = list(parts)
    domain_vars = tuple(domain_vars)
    if not domain_vars:
        raise InputError("combine needs at least one domain variable")
    if not parts:
        return _unsat_rep(source, sig, domain_vars)
    for _, rep in parts:
        if tuple(rep.domain_vars) != domain_vars:
            raise InputError("parts disagree on domain variables")
    if supply is None:
        names = set(domain_vars) | all_vars(source)
        for guard, rep in parts:
            names |= all_vars(guard) | all_vars(rep.g) | set(rep.image_vars)
        supply = NameSupply(names)
    width = max(len(rep.image_vars) for _, rep in parts)
    ys = tuple(supply.fresh("y") for _ in range(width))
    branches = []
    for guard, rep in parts:
        mj = len(rep.image_vars)
        hj = substitute(rep.h, dict(zip(rep.image_vars, ys[:mj])), supply)
        base = ys[mj - 1] if mj else domain_vars[0]
        branches.append(conj(conjuncts(guard) + conjuncts(hj)
                             + [Equal(ys[t], base) for t in range(mj, width)]))
    return Reparameterization(source, sig, domain_vars, ys, disj(branches),
                              sum(rep.bound for _, rep in parts),
                              Step("combine", f"{len(parts)} guarded branches",
                                   tuple(rep.provenance for _, rep in parts)))


def _type_tuple_dfa(algebra: TypeAlgebra, disjuncts,
                    budget_states: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Marked automaton accepting exactly the markings with these type tuples.

    Tracks (segments consumed, running segment type, families still
    consistent) while reading; a marked letter closes the current segment
    and opens the next.  The result is minimized.
    """
    m = algebra.monoid
    k = algebra.arity
    if k == 0:
        raise InputError("type tuples of a sentence have no marks to guard")
    families = [d.types for d in disjuncts]
    nl = 1 << (algebra.sig.k + 1)
    mark_bit = 1 << algebra.sig.k
    dead = "dead"

    def successors(cur):
        if cur == dead:
            return [dead] * nl
        seg, elem, alive = cur
        row = []
        for letter in range(nl):
            lab = letter & (mark_bit - 1)
            if not letter & mark_bit:
                row.append((seg, m.multiply(elem, m.letter_image[lab]), alive))
            elif seg == k:
                row.append(dead)
            else:
                alive2 = frozenset(d for d in alive if families[d][seg] == elem)
                row.append((seg + 1, m.letter_image[lab], alive2) if alive2 else dead)
        return row

    order, rows = _Builder(algebra.sig, budget_states, "guard", {}).explore(
        (0, m.identity, frozenset(range(len(families)))), successors)
    accepting = frozenset(
        j for j, st in enumerate(order)
        if st != dead and st[0] == k and any(families[d][k] == st[1] for d in st[2]))
    raw = Dfa(algebra.sig, True, 0, tuple(tuple(r) for r in rows), accepting)
    return minimize_dfa(raw, budget_states)


def _case_rep(case_formula: Formula, sig: Signature, algebra: TypeAlgebra,
              supply: NameSupply, query: Query) -> Reparameterization:
    """Reparameterize one order case from its algebra, valid under its ascending pattern."""
    ys = algebra.variables
    kc = len(ys)
    rigid = algebra.rigid
    if rigid is not None:
        # some family pumps at every mark: the tuple count already grows
        # like n**kc, so the identity map is as small as it gets; for a
        # strict case of the top-level formula, kc is the arity and
        # _minrep stops here
        img = tuple(supply.fresh("y") for _ in range(kc))
        return Reparameterization(case_formula, sig, ys, img, conj(map(Equal, img, ys)), 1,
                                  Step("rigid", f"family {rigid.types} pumps at every "
                                                f"mark; width {kc} is minimal"))
    shared = set(range(1, kc + 1))
    for _, e in algebra.families:
        shared &= set(e)
    if shared:
        i = min(shared)
        step = eliminate_variable(case_formula, sig, ys, i,
                                  len(algebra.families), algebra.monoid.size, supply)
        return _descend(step, sig, supply, query)
    # no mark is eliminable across every family: split the families by
    # their first eliminable mark and guard each group by its type tuples
    groups: dict[int, list[Disjunct]] = {}
    for d, e in algebra.families:
        groups.setdefault(e[0], []).append(d)
    parts = []
    for i in sorted(groups):
        guard_dfa = _type_tuple_dfa(algebra, groups[i], query.budget)
        gamma = Run(guard_dfa, ys)
        step = eliminate_variable(And(case_formula, gamma), sig, ys, i,
                                  len(groups[i]), algebra.monoid.size, supply)
        parts.append((gamma, _descend(step, sig, supply, query)))
    return combine_disjuncts(case_formula, sig, ys, parts, supply)


def _descend(step: Reparameterization, sig: Signature, supply: NameSupply,
             query: Query) -> Reparameterization:
    """Recurse on the image of one elimination step and glue the maps.

    The step's domain tuples are ascending under the order case that guards
    them, and their images are subsequences of them, so the ascending case
    of the image, which holds every such image, is the only one that needs
    a map.  The image's automaton reads the one kept for the step's source.
    """
    psi = exists_wrap(step.domain_vars, step.g)
    us = step.image_vars
    if us:
        inner = _lifted_case(psi, sig, us, tuple((u,) for u in us), psi,
                             TypeAlgebra.build(psi, sig, us, query.budget,
                                               dfa=compile_dfa(psi, sig, us, query=query)),
                             supply, query)
    else:
        inner = _minrep(psi, sig, us, supply, query)
    return compose(step, inner)


def _lifted_case(f: Formula, sig: Signature, xs, classes, case_formula: Formula,
                 algebra: TypeAlgebra, supply: NameSupply,
                 query: Query) -> Reparameterization:
    """The map of one nonempty order case of f over xs, under its constraint:
    classes are its equality classes in ascending order, case_formula
    mentions only their first members, and algebra is its type algebra."""
    inner = _case_rep(case_formula, sig, algebra, supply, query)
    pattern = "<".join("=".join(c) for c in classes)
    return Reparameterization(f, sig, xs, inner.image_vars, inner.h, inner.bound,
                              Step("case", pattern, (inner.provenance,)))


def _minrep(f: Formula, sig: Signature, xs, supply: NameSupply,
            query: Query) -> Reparameterization:
    """The map of f over xs, glued from the order cases that one build of f
    (compiler.Query.realizable_cases) finds realizable; only those cases
    are substituted and reduced, each from its automaton, which the query
    keeps for its formula.  The strict cases are tested for rigidity first,
    which draws no names, so a rigid one is found before any case is
    reduced."""
    xs = tuple(xs)
    split = order_case_split(f, xs)
    builds = dict(query.realizable_cases(f, xs))
    if not builds:
        return _unsat_rep(f, sig, xs)
    if not xs:
        return Reparameterization(f, sig, (), (), TRUE, 1,
                                  Step("base", "satisfiable sentence"))

    @functools.cache
    def case_algebra(ranks):
        case = split.case(ranks)
        return case, TypeAlgebra.build(case.formula, sig, case.representatives,
                                       query.budget, dfa=builds[ranks](case.formula))

    strict = [ranks for ranks in builds if len(set(ranks)) == len(xs)]
    for case, algebra in map(case_algebra, strict):
        if algebra.rigid is not None:
            # only a rigid strict case keeps width k: the dimension is k, and
            # the domain tuple in the case's ascending order is its own image
            lifted = _lifted_case(f, sig, xs, case.classes, case.formula, algebra,
                                  supply, query)
            return replace(lifted, provenance=Step(
                "identity", f"width {len(xs)} is the arity: the image is the domain "
                            "tuple in ascending order", (lifted.provenance,)))
    parts = [(case.constraint, _lifted_case(f, sig, xs, case.classes, case.formula, algebra,
                                            supply, query))
             for case, algebra in map(case_algebra, builds)]
    # f implies the constraint of its only realizable case
    return parts[0][1] if len(parts) == 1 else combine_disjuncts(f, sig, xs, parts, supply)


def refine_with_ranks(rep: Reparameterization,
                      budget_states: int) -> tuple[Reparameterization, PreimageRanks]:
    """rep with its certificate bound tightened to the exact maximal fiber
    size, and the preimage ranks of its map that gave it.

    The map's automaton is built once (compiler.map_automaton), and one
    counting construction over it (compiler.preimage_ranks) ranks every
    preimage, counted up to the certificate; the largest rank + 1 is the
    largest fiber, a count below the certificate is the exact bound, and
    one that reaches it shows the certificate is exact.  Raises
    ResourceLimitError, naming the stage, when the build or the count
    exceeds the state budget.
    """
    return _refine_in(rep, Query(rep.signature, budget_states))


def _refine_in(rep: Reparameterization,
               query: Query) -> tuple[Reparameterization, PreimageRanks]:
    """refine_with_ranks, its map built by query, which may hold the
    automaton of rep's source."""
    ranks = preimage_ranks(query.map_automaton(rep.g, rep.domain_vars, rep.image_vars),
                           rep.bound)
    most = ranks.largest_fiber
    if most < rep.bound:
        rep = replace(rep, bound=most,
                      provenance=Step("refine", f"exact bound {most}", (rep.provenance,)))
    return rep, ranks


def _refine_bound(rep: Reparameterization, query: Query) -> Reparameterization:
    """rep refined as refine_with_ranks does, its map built by the caller's
    query under that query's state budget.

    Gives up (keeping the certificate) when the build or the count exceeds
    the budget, and records that as an "unrefined" provenance step that
    quotes the error.
    """
    if not rep.domain_vars or rep.bound <= 1:
        return rep
    try:
        return _refine_in(rep, query)[0]
    except ResourceLimitError as e:
        return replace(rep, provenance=Step("unrefined", f"bound {rep.bound} kept: {e}",
                                            (rep.provenance,)))


def minimal_reparameterization(f: Formula, sig: Signature, marked_vars=None, *,
                               budget_states: int = DEFAULT_STATE_BUDGET,
                               refine: bool = True) -> Reparameterization:
    """Minimal-dimension reparameterization of f over its marked variables.

    Splits into the order cases that some word realizes, found and compiled
    from one automaton of f, reduces each case by eliminating marks whose
    segment pairs cannot pump (splitting families by guards when they
    disagree on where), and recurses on the image.  A strict case that
    stays rigid at the full width k stops the split: the answer is the
    identity map, image variables equal to the domain variables in that
    case's ascending order, with bound 1.  Otherwise the returned bound is
    a product/sum certificate; with refine it is tightened to the exact
    maximal fiber size whenever the count stays within budget.
    """
    if marked_vars is None:
        marked_vars = free_variables(f)
    marked_vars = tuple(marked_vars)
    extra = [v for v in free_variables(f) if v not in marked_vars]
    if extra:
        raise InputError(f"free variables {extra} are not marked")
    supply = NameSupply(all_vars(f) | set(marked_vars))
    query = Query(sig, budget_states)
    rep = _minrep(f, sig, marked_vars, supply, query)
    if refine and rep.bound > 1:
        rep = _refine_bound(rep, query)
    return rep
