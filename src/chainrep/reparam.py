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

A case's local normal form is a layered graph of segment types
(TypeAlgebra.graph) whose paths are the families.  What the search asks of
them (how many, the first rigid one, the marks none pumps at, the guard
groups) is a count of paths, so its cost follows the graph, never the
number of families, which grows like n**k.

The search, reparameterize, runs in its caller's compiler.Query, which
keeps the automata of f, of its order cases and of the images, so each
image `ex x. source` and the map `source & h` start from one build.  An
image keeps the source's other variables under their own names, so its
automaton is one projection of its source's, never a build of its text.
Every type algebra gets its automaton from compiler.compile, given that
Query, and its monoid runs under the Query's budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from .errors import InputError, ResourceLimitError
from .formula import (FALSE, TRUE, And, Equal, ExistsFO, Formula, NameSupply, Run,
                      Signature, all_vars, check_depth, conj, conjuncts, disj,
                      free_variables, order_case_split, substitute)
from .compiler import (DEFAULT_STATE_BUDGET, Dfa, PreimageRanks, Query,
                       compile as compile_dfa, preimage_ranks)
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


@dataclass
class TypeAlgebra:
    """A formula's automaton together with the monoid acting on its segments.

    For arity zero the monoid is the plain transition monoid of the
    sentence automaton; otherwise it is the transition monoid of the
    mark-shadow doubling, whose row-0 entries see their first letter as
    marked.  graph holds the local normal form, each edge with the pumping
    idempotent of the segment pair that meets at its mark, or None;
    path_counts counts its families under a rule on edges, paths lists
    them with their idempotents, and rigid is the first that pumps at
    every mark.
    """

    sig: Signature
    variables: tuple[str, ...]
    dfa: Dfa
    monoid: TypeMonoid

    @classmethod
    def build(cls, formula, variables, query: Query) -> "TypeAlgebra":
        """The algebra of formula over variables in query's signature, its
        automaton published by compile given query, which reads the automata
        query kept; both stages run under query's budget."""
        variables = tuple(variables)
        dfa = compile_dfa(formula, query.sig, variables, query.budget, query=query)
        monoid = transition_monoid(mark_shadow(dfa) if variables else dfa, query.budget)
        return cls(query.sig, variables, dfa, monoid)

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
        """Whether markings with these segment types satisfy the formula:
        whether taus is a path of the graph."""
        taus = tuple(taus)
        if len(taus) != self.arity + 1:
            raise InputError(f"expected {self.arity + 1} types, got {len(taus)}")
        node = next((n for n in self.graph[0] if n[1] == taus[0]), None)
        for layer, t in zip(self.graph, taus[1:]):
            node = layer.get(node, {}).get(t, (None,))[0]
        return node is not None

    @functools.cached_property
    def graph(self) -> tuple[dict, ...]:
        """The local normal form as a layered graph, one layer per segment.

        Layer j maps each node (q, t) to its edges into layer j+1, by the
        next type t' in type order, as (node', e): q is the shadow-row
        state after the types t0..tj, t is tj, and e is the pumping
        idempotent of the pair (t, t') at mark j+1, is_pumpable(m, t, t'),
        or None when the pair admits none.  This is the one place that
        asks is_pumpable; everything else reads e off the edges.  t0 ranges
        over the whole monoid, later types over its nonempty-realizable
        elements.  Every node lies on a path from layer 0 to the last, and
        the paths are exactly the families.  A sentence's graph is layer 0
        alone, q the plain state after t.
        """
        m = self.monoid
        a = self.dfa
        k = self.arity
        ne = [t for t in range(m.size) if m.nonempty_witness[t] is not None]
        # reach[j] = shadow-row states from which k - j more segments can accept
        reach = [set(a.accepting)]
        for _ in range(k):
            reach.insert(0, {q for q in range(a.n_states) for t in ne
                             if m.elements[t][2 * q] >> 1 in reach[0]})
        graph = [{(q, t): {} for t in range(m.size) if (
            q := m.elements[t][2 * a.init + 1] >> 1 if k else m.apply(t, a.init)) in reach[0]}]
        for j in range(1, k + 1):
            graph.append({})
            for (q, t), edges in graph[j - 1].items():
                for t2 in ne:
                    if (q2 := m.elements[t2][2 * q] >> 1) in reach[j]:
                        graph[j].setdefault((q2, t2), {})
                        edges[t2] = ((q2, t2), is_pumpable(m, t, t2))
        return tuple(graph)

    def path_counts(self, rule) -> list[dict]:
        """Per layer, each node's number of paths to the last layer that take
        only edges obeying rule(mark, e), e an edge's idempotent or None; an
        edge into layer j is at mark j."""
        count = [dict.fromkeys(self.graph[-1], 1)]
        for j in range(self.arity, 0, -1):
            below = count[0]
            count.insert(0, {node: sum(below[n2] for n2, e in edges.values()
                                       if rule(j, e))
                             for node, edges in self.graph[j - 1].items()})
        return count

    def paths(self, rule=lambda mark, e: True):
        """The families whose edges obey rule, in monoid-index lexicographic
        order, found one by one: the path counts leave no dead end.  Each is
        (types, es): its k+1 segment types and the idempotents (or None) of
        its edges, at marks 1..k."""
        count = self.path_counts(rule)

        def walk(j, node, types, es):
            if j == self.arity:
                yield types, es
            for t, (node2, e) in self.graph[j][node].items():
                if rule(j + 1, e) and count[j + 1][node2]:
                    yield from walk(j + 1, node2, types + (t,), es + (e,))

        for node, c in count[0].items():
            if c:
                yield from walk(0, node, (node[1],), ())

    @functools.cached_property
    def rigid(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The first family that pumps at every mark, as paths gives it with
        an idempotent at each mark, if any."""
        return next(self.paths(lambda mark, e: e is not None), None)


@dataclass(frozen=True)
class Reparameterization:
    """A fiber-bounded definable map from domain tuples to image tuples.

    g relates domain and image variables; over each word, every satisfying
    assignment of source gets exactly one image, only satisfying
    assignments get one, and at most `bound` of them share it.  g is
    `source & h`, whose selector h holds only order-case constraints,
    guards and image equalities; the empty map has both false.
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


def local_normal_form(algebra: TypeAlgebra) -> tuple[tuple[tuple, tuple], ...]:
    """All accepted segment-type tuples, the paths of algebra.graph, in
    monoid-index lexicographic order, each with its edges' idempotents as
    algebra.paths gives them.

    Every strictly ascending satisfying marking has its segment types in
    exactly one disjunct, and every disjunct is realized by some marking.
    A disjunct's eliminable marks are those whose idempotent is None.
    """
    return tuple(algebra.paths())


def eliminate_variable(source: Formula, sig: Signature, domain_vars, index: int,
                       n_families: int, monoid_size: int, supply: NameSupply,
                       query: Query) -> Reparameterization:
    """One elimination step: drop the index-th domain variable (1-based) and
    reduce the image, glued into one map; fibers multiply.

    The image psi = ex x_index. source keeps the other domain variables
    under their own names, so its j-th coordinate is x_j below the index
    and x_{j+1} from it on.  The step is valid when no family of source
    pumps at that mark; its fiber over an image is then below n_families *
    ramsey_bound(monoid_size), since a longer run of candidate positions
    for the dropped mark would yield a pumping idempotent for the adjacent
    segment pair.  The step's domain tuples are ascending under the order
    case that guards them, and so are their images, so the ascending case
    of psi, which holds every image, is the only one reduced.  psi's
    automaton is one projection of the source's, which query keeps.
    """
    domain_vars = tuple(domain_vars)
    k = len(domain_vars)
    if not 1 <= index <= k:
        raise InputError(f"index {index} out of range for {k} variables")
    kept = domain_vars[:index - 1] + domain_vars[index:]
    psi = ExistsFO(domain_vars[index - 1], source)
    inner = (_case_rep(psi, kept, tuple((v,) for v in kept), psi,
                       TypeAlgebra.build(psi, kept, query), supply, query)
             if kept else _minrep(psi, (), supply, query))
    bound = n_families * ramsey_bound(monoid_size)
    step = Step("eliminate", f"variable {index} of {k}; bound "
                             f"{n_families} families x B({monoid_size})")
    return Reparameterization(source, sig, domain_vars, inner.image_vars, inner.h,
                              bound * inner.bound,
                              Step("compose", f"{bound} x {inner.bound}",
                                   (step, inner.provenance)))


def combine_disjuncts(source: Formula, sig: Signature, domain_vars, parts,
                      supply: NameSupply) -> Reparameterization:
    """Union of guarded reparameterizations over one domain.

    parts are one or more (guard, rep) pairs whose guards cover the source
    domain and are pairwise disjoint, and under its guard each rep's source
    agrees with source, so h is the plain union of the branches `guard_j &
    h_j`.  Both callers meet this: `_minrep` guards by order-case
    constraints, one per realizable weak ordering, and `_case_rep` by
    type-tuple automata of disjoint family groups, since each marking has
    exactly one tuple of segment types; every family of its realizable case
    falls in one nonempty group.  All branches share one image tuple of the widest width:
    narrower images are padded by repeating their last variable, and a
    zero-width satisfiable branch pins every image variable to the first
    domain variable.  Bounds add up.
    """
    parts = list(parts)
    domain_vars = tuple(domain_vars)
    if not domain_vars:
        raise InputError("combine needs at least one domain variable")
    for _, rep in parts:
        if tuple(rep.domain_vars) != domain_vars:
            raise InputError("parts disagree on domain variables")
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


def _stops_at(i: int):
    """The edge rule of the families whose first non-pumping mark is i."""
    return lambda mark, e: e is not None if mark < i else mark > i or e is None


def _type_tuple_dfa(algebra: TypeAlgebra, i: int, query: Query) -> Dfa:
    """Marked automaton accepting exactly the markings whose type tuples
    are the families that first fail to pump at mark i.

    Tracks (segments closed, running segment type, graph node of the closed
    segments' types) while reading; a marked letter closes the current
    segment and opens the next; a mark after the last, or one that leaves
    no such family through its node, goes to the dead state.  The guard
    builder walks and refines the table as it does every other
    (_Builder.minimal), under query's budget.
    """
    m = algebra.monoid
    k = algebra.arity
    rule = _stops_at(i)
    count = algebra.path_counts(rule)
    # the edges closing segment seg leave layer seg - 1; segment 0's leave a
    # root, at no mark, so no rule applies to them
    edges = [{None: {node[1]: (node, None) for node in algebra.graph[0]}}, *algebra.graph[:-1]]
    nl = 1 << (algebra.sig.k + 1)
    mark_bit = 1 << algebra.sig.k

    def close(seg, node, elem):
        node2, e = edges[seg][node].get(elem, (None, None))
        ok = node2 is not None and (seg == 0 or rule(seg, e)) and count[seg][node2]
        return node2 if ok else None

    def successors(cur):
        seg, elem, node = cur
        row = []
        for letter in range(nl):
            lab = letter & (mark_bit - 1)
            if not letter & mark_bit:
                row.append((seg, m.multiply(elem, m.letter_image[lab]), node))
            else:
                node2 = close(seg, node, elem) if seg < k else None
                row.append(None if node2 is None else (seg + 1, m.letter_image[lab], node2))
        return row

    b = query.builder("guard")
    return b.publish(b.minimal(
        (0, m.identity, None), successors,
        lambda st: st[0] == k and close(k, st[2], st[1]) is not None, nl), True)


def _case_rep(f: Formula, xs, classes, case_formula: Formula, algebra: TypeAlgebra,
              supply: NameSupply, query: Query) -> Reparameterization:
    """The map of one nonempty order case of f over xs, under its constraint:
    classes are its equality classes in ascending order, case_formula
    mentions only their first members, and algebra is its type algebra.
    The case is reduced from its algebra, valid under its ascending
    pattern."""
    sig = query.sig
    ys = algebra.variables
    kc = len(ys)

    def n_families(rule=lambda mark, e: True):
        return sum(algebra.path_counts(rule)[0].values())

    if algebra.rigid is not None:
        # some family pumps at every mark: the tuple count already grows
        # like n**kc, so the identity map is as small as it gets; for a
        # strict case of the top-level formula, kc is the arity and
        # _minrep stops here
        img = tuple(supply.fresh("y") for _ in range(kc))
        inner = Reparameterization(case_formula, sig, ys, img, conj(map(Equal, img, ys)), 1,
                                   Step("rigid", f"family {algebra.rigid[0]} pumps at every "
                                                 f"mark; width {kc} is minimal"))
    # a mark is eliminable in every family when no edge into its layer pumps
    elif shared := [i for i in range(1, kc + 1) if all(
            e is None for edges in algebra.graph[i - 1].values() for _, e in edges.values())]:
        inner = eliminate_variable(case_formula, sig, ys, shared[0], n_families(),
                                   algebra.monoid.size, supply, query)
    else:
        # no mark is eliminable across every family: split the families by
        # their first eliminable mark and guard each group by its type tuples
        parts = []
        for i in range(1, kc + 1):
            n = n_families(_stops_at(i))
            if n:
                gamma = Run(_type_tuple_dfa(algebra, i, query), ys)
                parts.append((gamma, eliminate_variable(
                    And((case_formula, gamma)), sig, ys, i, n, algebra.monoid.size,
                    supply, query)))
        inner = combine_disjuncts(case_formula, sig, ys, parts, supply)
    pattern = "<".join("=".join(c) for c in classes)
    return Reparameterization(f, sig, xs, inner.image_vars, inner.h, inner.bound,
                              Step("case", pattern, (inner.provenance,)))


def _minrep(f: Formula, xs, supply: NameSupply, query: Query) -> Reparameterization:
    """The map of f over xs, glued from the order cases that one build of f
    (compiler.Query.realizable_cases) finds realizable; only those cases
    are substituted and reduced, each from its automaton, which the query
    keeps for its formula.  The strict cases are tested for rigidity first,
    which draws no names, so a rigid one is found before any case is
    reduced."""
    sig = query.sig
    xs = tuple(xs)
    split = order_case_split(f, xs)
    keeps = dict(query.realizable_cases(f, xs))
    if not keeps:
        return Reparameterization(f, sig, xs, (), FALSE, 0,
                                  Step("empty", "no satisfying assignment on any word"))
    if not xs:
        return Reparameterization(f, sig, (), (), TRUE, 1,
                                  Step("base", "satisfiable sentence"))

    @functools.cache
    def case_algebra(ranks):
        case = split.case(ranks)
        keeps[ranks](case.formula)
        return case, TypeAlgebra.build(case.formula, case.representatives, query)

    strict = [ranks for ranks in keeps if len(set(ranks)) == len(xs)]
    for case, algebra in map(case_algebra, strict):
        if algebra.rigid is not None:
            # only a rigid strict case keeps width k: the dimension is k, and
            # the domain tuple in the case's ascending order is its own image
            lifted = _case_rep(f, xs, case.classes, case.formula, algebra, supply, query)
            return replace(lifted, provenance=Step(
                "identity", f"width {len(xs)} is the arity: the image is the domain "
                            "tuple in ascending order", (lifted.provenance,)))
    parts = [(case.constraint, _case_rep(f, xs, case.classes, case.formula, algebra,
                                         supply, query))
             for case, algebra in map(case_algebra, keeps)]
    # f implies the constraint of its only realizable case
    return parts[0][1] if len(parts) == 1 else combine_disjuncts(f, sig, xs, parts, supply)


def refine_with_ranks(rep: Reparameterization,
                      query: Query) -> tuple[Reparameterization, PreimageRanks]:
    """rep with its certificate bound tightened to the exact maximal fiber
    size, and the preimage ranks of its map that gave it.

    The map's automaton is built once, by the query that ran the search,
    and one counting construction over it (compiler.preimage_ranks) ranks
    every preimage, counted up to the certificate; the largest rank + 1 is
    the largest fiber, a count below the certificate is the exact bound, and
    one that reaches it shows the certificate is exact.  Raises
    ResourceLimitError, naming the stage, when the build or the count
    exceeds query's state budget.
    """
    ranks = preimage_ranks(query.map_automaton(rep.g, rep.domain_vars, rep.image_vars),
                           rep.bound)
    most = ranks.largest_fiber
    if most < rep.bound:
        rep = replace(rep, bound=most,
                      provenance=Step("refine", f"exact bound {most}", (rep.provenance,)))
    return rep, ranks


def _refine_bound(rep: Reparameterization, query: Query) -> Reparameterization:
    """rep refined as refine_with_ranks does, by the caller's query.

    Gives up (keeping the certificate) when the build or the count exceeds
    the budget, and records that as an "unrefined" provenance step that
    quotes the error.
    """
    try:
        return refine_with_ranks(rep, query)[0]
    except ResourceLimitError as e:
        return replace(rep, provenance=Step("unrefined", f"bound {rep.bound} kept: {e}",
                                            (rep.provenance,)))


def reparameterize(f: Formula, marked_vars, query: Query) -> Reparameterization:
    """Minimal-dimension reparameterization of f over its marked variables
    (all its free ones when None), built in query.

    Splits into the order cases that some word realizes, found and compiled
    from one automaton of f, reduces each case by eliminating marks whose
    segment pairs cannot pump (splitting families by guards when they
    disagree on where), and recurses on the image.  A strict case that
    stays rigid at the full width k stops the split: the answer is the
    identity map, image variables equal to the domain variables in that
    case's ascending order, with bound 1.  Otherwise the bound is a
    product/sum certificate.
    """
    check_depth(f, "compile")  # before the first walk over f
    marked_vars = free_variables(f) if marked_vars is None else tuple(marked_vars)
    return _minrep(f, marked_vars, NameSupply(all_vars(f) | set(marked_vars)), query)


def minimal_reparameterization(f: Formula, sig: Signature, marked_vars=None, *,
                               budget_states: int = DEFAULT_STATE_BUDGET,
                               refine: bool = True) -> Reparameterization:
    """reparameterize in a Query of its own; with refine, the certificate
    is tightened to the exact maximal fiber size whenever the count stays
    within budget."""
    query = Query(sig, budget_states)
    rep = reparameterize(f, marked_vars, query)
    if refine and rep.bound > 1:
        rep = _refine_bound(rep, query)
    return rep
