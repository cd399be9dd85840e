"""Outside-in tracer for the benchmark.

The tracer wraps chainrep's public functions at every name they are bound
to (the defining module, the package, and each module that imported them,
such as ``reparam.compile_dfa`` or ``growth.evaluate``).  Each call becomes
one span holding its name, its parent span, its start and end times and
the query it ran under.  Spans stay in memory until the run ends; a
layer's self time is the total duration of its spans minus the time their
child spans cover.  Counters record deterministic work (calls, automaton
states, monoid elements, ...) from the wrapped calls' results.

The tracer is single-threaded and installs itself by assignment, so it
must be removed with ``uninstall`` before the modules are used untraced.
"""

from __future__ import annotations

import functools
import json
import sys
import time

COUNT_SPAN = "trace.count"  # time spent computing counters, charged to no layer


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _peak(counts, key, value):
    counts[key] = max(counts.get(key, 0), value)


def _order_cases(counts, cases):
    _add(counts, "formula.order_cases", len(cases))


def _compiled(counts, dfa):
    _add(counts, "compiler.states_out_sum", dfa.n_states)
    _peak(counts, "compiler.states_out_max", dfa.n_states)


def _monoid(counts, monoid):
    _add(counts, "monoid.elements_sum", monoid.size)
    _peak(counts, "monoid.elements_max", monoid.size)


def _families(counts, families):
    _add(counts, "reparam.families", len(families))


def _witness(counts, witness):
    _add(counts, "growth.witness_positions", len(witness.positions))


def _report(counts, report):
    _add(counts, "oracle.words_checked", report.words_checked)


def _copies(counts, reduced):
    _add(counts, "interp.copies", len(reduced.parts))


def _map(counts, rep):
    from chainrep.formula import render  # the chainrep imported last
    _add(counts, "reparam.map_chars", len(render(rep.g)))
    _add(counts, "reparam.bound_sum", rep.bound)


# (span name, module, attribute, counter); a dotted attribute names a method
TARGETS = (
    ("formula.parse", "chainrep.formula", "parse", None),
    ("formula.order_case_split", "chainrep.formula", "order_case_split", _order_cases),
    ("formula.substitute", "chainrep.formula", "substitute", None),
    ("compiler.compile", "chainrep.compiler", "compile", _compiled),
    ("compiler.minimize_dfa", "chainrep.compiler", "minimize_dfa", None),
    ("compiler.dfa_to_formula", "chainrep.compiler", "dfa_to_formula", None),
    ("compiler.dfa_empty", "chainrep.compiler", "dfa_empty", None),
    ("monoid.mark_shadow", "chainrep.monoid", "mark_shadow", None),
    ("monoid.transition_monoid", "chainrep.monoid", "transition_monoid", _monoid),
    ("monoid.is_pumpable", "chainrep.monoid", "is_pumpable", None),
    ("reparam.minimal_reparameterization", "chainrep.reparam",
     "minimal_reparameterization", _map),
    ("reparam.local_normal_form", "chainrep.reparam", "local_normal_form", _families),
    ("reparam.TypeAlgebra.build", "chainrep.reparam", "TypeAlgebra.build", None),
    ("growth.growth_lower_witness", "chainrep.growth", "growth_lower_witness", _witness),
    ("oracle.satisfying_tuples", "chainrep.oracle", "satisfying_tuples", None),
    ("oracle.evaluate", "chainrep.oracle", "evaluate", None),
    ("oracle.check_reparameterization", "chainrep.oracle",
     "check_reparameterization", _report),
    ("oracle.check_canonical_form", "chainrep.oracle", "check_canonical_form", _report),
    ("interp.reduce_interpretation", "chainrep.interp", "reduce_interpretation", _copies),
    ("interp.apply_interpretation", "chainrep.interp", "apply_interpretation", None),
    ("interp.ReducedInterpretation.fibers", "chainrep.interp",
     "ReducedInterpretation.fibers", None),
    ("interp.ReducedInterpretation.bijection", "chainrep.interp",
     "ReducedInterpretation.bijection", None),
    ("interp.check_equivalence", "chainrep.interp", "check_equivalence", None),
)


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        # one span is [name, parent index, start, end, query]; a list append
        # is atomic with respect to signal handlers, so a span interrupted
        # by the per-query limit is at worst left open, never half-written
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.query = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        span = [name, self._stack[-1] if self._stack else -1,
                time.perf_counter(), None, self.query]
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][3] = time.perf_counter()
        while self._stack and self._stack.pop() != index:
            pass

    def snapshot(self):
        """State to roll back to if the next query is abandoned."""
        return dict(self.calls), dict(self.counts), len(self.spans)

    def abandon(self, snap):
        """Forget the counts of a query cut off by the limit.

        Its spans stay, closed at the moment of the cut, so the time it
        spent remains attributed to the layers it spent it in; its counts
        depend on how far it got, so they are rolled back.
        """
        calls, counts, first = snap
        self.calls, self.counts = calls, counts
        now = time.perf_counter()
        for span in self.spans[first:]:
            if span[3] is None:
                span[3] = now
        self._stack.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        out: dict[str, float] = {}
        for name, parent, start, end, _ in self.spans:
            d = end - start
            out[name] = out.get(name, 0.0) + d
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - d
        return out

    def write_spans(self, path):
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, parent, start, end, query in self.spans:
                fh.write(json.dumps([name, parent, round(start - t0, 7),
                                     round(end - t0, 7), query]) + "\n")

    # -- wrapping ------------------------------------------------------

    def _wrapper(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                index = tracer._open(COUNT_SPAN)
                try:
                    count(tracer.counts, result)
                finally:
                    tracer._close(index)
            return result
        return traced

    def install(self):
        """Wrap every target wherever a chainrep module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "chainrep" or n.startswith("chainrep.")]
        for name, module_name, attr, count in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrapper(name, raw.__func__, count))
                else:
                    new = self._wrapper(name, raw, count)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapped = self._wrapper(name, original, count)
            for ns in modules:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
