"""chainrep benchmark: closed-loop workloads with checked answers.

Run from the repository root:

    python3 bench/run.py --workload mindim --seed 20260814 --seconds 15 --trace 0

One process, one thread.  The workload's fixed query list runs back to
back, pass after pass, while another pass still fits in ``--seconds``
(always at least one pass).  Every answer is checked against its known
value; a query fails if it raises, reaches the per-query limit or answers
wrongly.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then wraps chainrep's public functions (see tracer.py),
repeats set-up and one pass traced, and reports the per-layer metrics.
Each run also writes a results record with its provenance under
``bench/out/``.  The exit code is 1 on a wrong answer and 2 when chainrep
cannot be imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import workloads  # noqa: E402  (sits next to this file)
from tracer import Tracer  # noqa: E402

# (name, unit) of each per-layer metric, in report order
LAYER_METRICS = (
    ("formula.parse_s", "s"), ("formula.order_case_split_s", "s"),
    ("formula.order_cases", "count"), ("formula.substitute_s", "s"),
    ("compiler.compile_s", "s"), ("compiler.compile_calls", "count"),
    ("compiler.states_out_sum", "count"), ("compiler.states_out_max", "count"),
    ("compiler.minimize_dfa_s", "s"), ("compiler.dfa_to_formula_s", "s"),
    ("compiler.dfa_empty_calls", "count"),
    ("monoid.mark_shadow_s", "s"), ("monoid.transition_monoid_s", "s"),
    ("monoid.elements_sum", "count"), ("monoid.elements_max", "count"),
    ("monoid.is_pumpable_s", "s"),
    ("reparam.minrep_self_s", "s"), ("reparam.local_normal_form_s", "s"),
    ("reparam.algebra_builds", "count"), ("reparam.nonempty_case_ratio", "ratio"),
    ("reparam.families", "count"), ("reparam.refine_s", "s"),
    ("reparam.refine_tightened_ratio", "ratio"), ("reparam.map_chars", "count"),
    ("reparam.bound_sum", "count"),
    ("growth.lower_witness_self_s", "s"), ("growth.witness_positions", "count"),
    ("oracle.satisfying_tuples_s", "s"), ("oracle.satisfying_tuples_calls", "count"),
    ("oracle.evaluate_s", "s"), ("oracle.evaluate_calls", "count"),
    ("oracle.check_self_s", "s"), ("oracle.words_checked", "count"),
    ("interp.reduce_s", "s"), ("interp.apply_s", "s"), ("interp.fibers_s", "s"),
    ("interp.bijection_s", "s"), ("interp.check_equivalence_self_s", "s"),
    ("interp.copies", "count"),
    ("trace.overhead_share", "ratio"),
)

# per-layer time metric -> the spans whose self time it sums
SELF_TIME_SPANS = {
    "formula.parse_s": ("formula.parse",),
    "formula.order_case_split_s": ("formula.order_case_split",),
    "formula.substitute_s": ("formula.substitute",),
    "compiler.compile_s": ("compiler.compile",),
    "compiler.minimize_dfa_s": ("compiler.minimize_dfa",),
    "compiler.dfa_to_formula_s": ("compiler.dfa_to_formula",),
    "monoid.mark_shadow_s": ("monoid.mark_shadow",),
    "monoid.transition_monoid_s": ("monoid.transition_monoid",),
    "monoid.is_pumpable_s": ("monoid.is_pumpable",),
    "reparam.minrep_self_s": ("reparam.minimal_reparameterization",),
    "reparam.local_normal_form_s": ("reparam.local_normal_form",),
    "growth.lower_witness_self_s": ("growth.growth_lower_witness",),
    "oracle.satisfying_tuples_s": ("oracle.satisfying_tuples",),
    "oracle.evaluate_s": ("oracle.evaluate",),
    "oracle.check_self_s": ("oracle.check_reparameterization",
                            "oracle.check_canonical_form"),
    "interp.reduce_s": ("interp.reduce_interpretation",),
    "interp.apply_s": ("interp.apply_interpretation",),
    "interp.fibers_s": ("interp.ReducedInterpretation.fibers",),
    "interp.bijection_s": ("interp.ReducedInterpretation.bijection",),
    "interp.check_equivalence_self_s": ("interp.check_equivalence",),
}

# per-layer count metric -> the span whose calls it counts
CALL_COUNTS = {
    "compiler.compile_calls": "compiler.compile",
    "compiler.dfa_empty_calls": "compiler.dfa_empty",
    "reparam.algebra_builds": "reparam.TypeAlgebra.build",
    "oracle.satisfying_tuples_calls": "oracle.satisfying_tuples",
    "oracle.evaluate_calls": "oracle.evaluate",
}


# the mean probe sample on the machine the baseline was recorded on (2-vCPU
# Xeon VM at 2.0 GHz, Python 3.11.7), so that scaled times read about as
# raw ones there; a sample in a tight loop on an idle core takes 1.5 ms,
# one taken mid-query about twice that
REFERENCE_S = 0.003
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW = 20


class QueryLimit(BaseException):
    """Raised inside a query that reached the per-query limit.

    A BaseException, so library code catching Exception cannot swallow it.
    """


class Limiter:
    """Runs one query at a time under a SIGALRM wall-clock limit."""

    def __init__(self, limit: float, probe: SpeedProbe):
        self.limit = limit
        self.probe = probe
        self.armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.armed:
            raise QueryLimit()

    def run(self, fn):
        """(status, seconds, message, raw seconds) of one query.

        The seconds are scaled by the speed probe (see SpeedProbe.since).
        A query at the limit counts as the limit, unscaled.
        """
        message = None
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        mark = self.probe.mark()
        try:
            message = fn()
            self.armed = False
            status = "ok" if message is None else "wrong"
        except QueryLimit:
            status = "limit"
        except Exception as e:  # a raising query is a failed answer, not a crash
            status, message = "error", f"{type(e).__name__}: {e}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        if status == "limit":
            return status, self.limit, message, self.limit
        seconds, raw = self.probe.since(mark)
        return status, seconds, message, raw


def reference_work():
    """A fixed pure-Python subset construction: about 1.5 ms on an idle core."""
    rng = random.Random(7)
    delta = [[frozenset(rng.sample(range(16), 3)) for _ in range(4)] for _ in range(16)]
    start = frozenset([0])
    seen = {start: 0}
    todo = [start]
    table = {}
    while todo:
        s = todo.pop()
        for a in range(4):
            t = frozenset(q for p in s for q in delta[p][a])
            if t not in seen:
                seen[t] = len(seen)
                todo.append(t)
            table[seen[s], a] = seen[t]
    return table


class SpeedProbe:
    """Samples how fast the host runs this process while a run measures.

    Every PROBE_INTERVAL_S of process CPU time a SIGPROF handler times one
    reference_work() call.  The host's speed drifts by up to 1.8x within
    minutes (other tenants share the physical cores), so the benchmark
    scales each time by REFERENCE_S / (mean of the samples taken during
    it, or of the last PROBE_WINDOW samples if it got fewer, without the
    highest and lowest tenth): the time then
    reads as the seconds it would take where a sample takes REFERENCE_S.
    The probe's own time is kept in `spent` and subtracted from the times
    it interrupts.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_prof(self, signum, frame):
        t0 = time.perf_counter()
        reference_work()
        d = time.perf_counter() - t0
        self.samples.append(d)
        self.spent += d

    def start(self):
        signal.signal(signal.SIGPROF, self._on_prof)
        self._on_prof(signal.SIGPROF, None)  # so that no window is empty
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self):
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark):
        """(scaled, raw) seconds since mark, without the probe's own time.

        A probe that was never started scales by 1.
        """
        t0, spent, first = mark
        raw = time.perf_counter() - t0 - (self.spent - spent)
        if not self.samples:
            return raw, raw
        first = max(0, min(first, len(self.samples) - PROBE_WINDOW))
        window = sorted(self.samples[first:])
        cut = len(window) // 10  # a stray slow sample moves a short window's mean
        return raw * REFERENCE_S / statistics.fmean(window[cut:len(window) - cut]), raw


def import_chainrep():
    """Import chainrep afresh from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "chainrep" or n.startswith("chainrep.")]:
        del sys.modules[name]
    cr = importlib.import_module("chainrep")
    if Path(cr.__file__).resolve().parent != SRC / "chainrep":
        raise ImportError(f"chainrep imported from {cr.__file__}, not from {SRC}")
    return cr


def set_up(workload, seed: int, repeats: int, probe: SpeedProbe):
    """Import and set up `repeats` times.

    Returns the median scaled time (see SpeedProbe), the median raw time,
    and the last set-up's module and state.
    """
    times = []
    for _ in range(repeats):
        mark = probe.mark()
        cr = import_chainrep()
        state = workload.setup(cr, seed)
        times.append(probe.since(mark))
    return (statistics.median(t for t, _ in times),
            statistics.median(r for _, r in times), cr, state)


def run_passes(queries, limiter, seconds: float, tracer=None, once=False):
    """Run the query list pass after pass; per query, a list of outcomes."""
    outcomes = {name: [] for name, _ in queries}
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for name, fn in queries:
            snap = None
            if tracer is not None:
                tracer.query = name
                snap = tracer.snapshot()
            outcome = limiter.run(fn)
            if outcome[0] == "limit" and tracer is not None:
                tracer.abandon(snap)
            outcomes[name].append(outcome)
        now = time.perf_counter()
        if once or now - start + (now - p0) > seconds:
            return outcomes


def pass_wall(outcomes, raw=False) -> float:
    """Summed over the queries: the median of each query's (raw) times."""
    column = 3 if raw else 1
    return sum(statistics.median(o[column] for o in runs) for runs in outcomes.values())


def tally(outcomes):
    attempted = sum(len(runs) for runs in outcomes.values())
    failed = sum(1 for runs in outcomes.values() for o in runs if o[0] != "ok")
    wrong = sum(1 for runs in outcomes.values() for o in runs
                if o[0] in ("wrong", "error"))
    return attempted, failed, wrong


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def refine_metrics(cr, workload, state, untraced, limiter):
    """reparam.refine_s and refine_tightened_ratio from public calls.

    For each default-flag minimal_reparameterization query: its untraced
    time (the limit if it reached it) minus the time of the same call with
    refine=False, and whether refinement brought the bound below the
    certificate bound that second call gives.
    """
    refine_s = 0.0
    tightened = above_one = 0
    for name, sig, f, vs, refined in workload.minrep_calls(state):
        box = {}

        def certificate():
            box["bound"] = cr.minimal_reparameterization(f, sig, vs, refine=False).bound
        status, secs, _, _ = limiter.run(certificate)
        if status != "ok":
            continue
        refine_s += statistics.median(o[1] for o in untraced[name]) - secs
        if box["bound"] > 1:
            above_one += 1
            tightened += refined is not None and refined < box["bound"]
    return refine_s, (tightened / above_one if above_one else 0.0)


def layer_metrics(tracer, overhead, refine_s, tightened_ratio):
    selfs = tracer.self_times()
    values = {}
    for name, spans in SELF_TIME_SPANS.items():
        values[name] = sum(selfs.get(s, 0.0) for s in spans)
    for name, span in CALL_COUNTS.items():
        values[name] = tracer.calls.get(span, 0)
    for name, unit in LAYER_METRICS:
        if unit == "count" and name not in values:
            values[name] = tracer.counts.get(name, 0)
    cases = values["formula.order_cases"]
    values["reparam.nonempty_case_ratio"] = (
        values["reparam.algebra_builds"] / cases if cases else 0.0)
    values["reparam.refine_s"] = refine_s
    values["reparam.refine_tightened_ratio"] = tightened_ratio
    values["trace.overhead_share"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chainrep" / "__init__.py").is_file():
        print(f"error: no chainrep sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    limiter = Limiter(workloads.QUERY_LIMIT_S, probe)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "query_limit_s": workloads.QUERY_LIMIT_S,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "loadavg_start": loadavg(),
    }

    if not args.trace:
        probe.start()
    try:
        setup_s, setup_raw, cr, state = set_up(
            workload, args.seed, 1 if args.trace else workload.setup_repeats, probe)
        queries = workload.queries(cr, state)
        outcomes = run_passes(queries, limiter, args.seconds, once=bool(args.trace))
    except ImportError as e:
        print(f"error: cannot import chainrep: {e}", file=sys.stderr)
        return 2
    except workloads.WrongAnswer as e:
        print(f"WRONG set-up: {e}", file=sys.stderr)
        return 1
    finally:
        probe.stop()
    wall_s = pass_wall(outcomes)
    metrics = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    record.update({"raw_wall_s": pass_wall(outcomes, raw=True), "raw_setup_s": setup_raw,
                   "probe_samples": probe.samples})

    if args.trace:
        refine_s, tightened = refine_metrics(cr, workload, state, outcomes, limiter)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.query = "set-up"
            traced_state = workload.setup(cr, args.seed)
            traced = run_passes(workload.queries(cr, traced_state), limiter,
                                args.seconds, tracer=tracer, once=True)
        finally:
            tracer.uninstall()
        for name, runs in traced.items():
            outcomes[name].extend(runs)
        overhead = pass_wall(traced) / wall_s - 1
        metrics = layer_metrics(tracer, overhead, refine_s, tightened)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{workload.name}-seed{args.seed}-spans.jsonl")
        record["calls"] = dict(sorted(tracer.calls.items()))
        record["self_s"] = dict(sorted(tracer.self_times().items()))
        record["traced_wall_s"] = pass_wall(traced)

    attempted, failed, wrong = tally(outcomes)
    if not args.trace:
        metrics["answered_share"] = {"value": (attempted - failed) / attempted,
                                     "unit": "ratio"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}
    for name, runs in outcomes.items():
        for status, secs, message, _ in runs:
            if status != "ok":
                print(f"FAILED {name!r}: {status} after {secs:.3f} s"
                      + (f": {message}" if message else ""))
    record.update({
        "loadavg_end": loadavg(),
        "failed_share": failed / attempted,
        "queries": {name: [{"status": st, "seconds": s, "raw_seconds": r, "message": m}
                           for st, s, m, r in runs] for name, runs in outcomes.items()},
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{workload.name}: {attempted} queries, {failed} failed, "
          f"{wrong} wrong; record in {path.relative_to(ROOT)}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
