"""Command-line front end: one binary over the whole pipeline.

COMMANDS declares each command once: its handler and the flags it reads,
each with its default or REQUIRED.  The parser gives each command those
flags plus --budget-states and --format, and refuses every other flag.

Every run produces a single self-contained report.  The JSON form is the
primary artifact (deterministic, sorted keys, no timestamps); the human
form is rendered from the same document.  Its config records the value
each flag had in the run, or null for the flags the command does not have.
Exit codes: 0 success, 1 negative decision or failed check, 2 bad input
(refused flags included), 3 resource budget exceeded.
"""

import argparse
import itertools
import json
import os
import random
import sys

from . import __version__
from .compiler import DEFAULT_STATE_BUDGET, Query, ambiguity_degree, compile as compile_dfa
from .errors import ChainrepError, InputError, ResourceLimitError
from .formula import Signature, free_variables, parse, render
from .growth import (brute_growth, chain_witness, growth_lower_witness,
                     no_decrement_witness, pump_witness)
from .interp import check_equivalence, parse_interpretation, reduce_interpretation
from .monoid import ramsey_bound
from .oracle import check_canonical_form, check_reparameterization, evaluate
from .randgen import formula_batch
from .reparam import (ERRATUM_NOTES, TypeAlgebra, local_normal_form,
                      minimal_reparameterization)
from .words import MarkedWord, all_words

# formulas with oracle-derived minimal dimensions, used by selftest
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


def _eliminates(step) -> bool:
    return step.kind == "eliminate" or any(_eliminates(c) for c in step.children)


def _rep_dict(rep) -> dict:
    return {
        "source": render(rep.source),
        "domain": list(rep.domain_vars),
        "image": list(rep.image_vars),
        "dimension": rep.dimension,
        "bound": rep.bound,
        "map": render(rep.g),
        "provenance": rep.provenance.dump().splitlines(),
    }


def _witness_dict(w) -> dict:
    return {
        "word": w.word.render(),
        "pool": sorted(w.positions),
        "pool_size": len(w.positions),
        "claimed": w.claimed_tuple_count,
        "oracle_count": w.oracle_count(),
        "construction": w.construction,
    }


def _check_dict(report) -> dict:
    out = {"ok": bool(report), "words_checked": report.words_checked,
           "max_fiber": report.max_fiber}
    if report.failure:
        out["failure"] = report.failure
    return out


class _Run:
    """Shared flag handling plus report assembly for one invocation."""

    def __init__(self, args):
        self.args = args
        self.notes: list[str] = []

    def signature(self) -> Signature:
        if self.args.sig is None:
            raise InputError("--sig is required for this command")
        sig = Signature.from_text(self.args.sig)
        if not sig.preds:
            raise InputError("signature has no predicates")
        return sig

    def formula_text(self) -> str:
        path = self.args.formula_file
        if path is None:
            return self.args.formula
        try:
            with open(path) as fh:
                return fh.read()
        except OSError as e:
            raise InputError(f"cannot read {path}: {e}")

    def formula(self):
        """(sig, f, variables): the signature, checked before the formula
        text is read, the formula parsed over it and its free variables."""
        sig = self.signature()
        f = parse(self.formula_text(), sig)
        return sig, f, free_variables(f)

    def note(self, rep):
        """rep, after embedding the erratum notes if it eliminated a variable."""
        if _eliminates(rep.provenance):
            self.notes = sorted(ERRATUM_NOTES)
        return rep

    def minrep(self, f, sig, variables, refine=True):
        return self.note(minimal_reparameterization(
            f, sig, variables, refine=refine,
            budget_states=self.args.budget_states))

    def report(self, command: str, result: dict) -> dict:
        return {
            "tool": {"name": "chainrep", "version": __version__},
            "command": command,
            "config": {key: getattr(self.args, key, None) for key in _CONFIG_KEYS},
            "notes": self.notes,
            "result": result,
        }


def _cmd_mindim(run: _Run):
    sig, f, variables = run.formula()
    rep = run.minrep(f, sig, variables)
    return run.report("mindim", _rep_dict(rep)), 0


def _cmd_decide(run: _Run):
    if run.args.dim < 0:
        raise InputError("dimension must be nonnegative")
    sig, f, variables = run.formula()
    rep = run.minrep(f, sig, variables, refine=False)
    answer = rep.dimension <= run.args.dim
    result = {"asked_dimension": run.args.dim, "answer": answer,
              "minimal_dimension": rep.dimension}
    return run.report("decide", result), 0 if answer else 1


def _cmd_growth(run: _Run):
    n, max_len = run.args.n, run.args.max_len
    if n < 1:
        raise InputError("need n >= 1")
    sig, f, variables = run.formula()
    rep = run.minrep(f, sig, variables)
    # the degree a second time, from the ambiguity of f's automaton, whose
    # IDA chain also gives the lower witness
    chain = ambiguity_degree(f, sig, variables, run.args.budget_states)
    result = {"degree": rep.dimension, "ambiguity_degree": chain.degree, "bound": rep.bound}
    if rep.bound:
        witness = _witness_dict(chain_witness(f, sig, variables, chain, n))
        floor = n ** rep.dimension
    else:
        # no tuple satisfies f on any word: no witness, and every count is 0
        witness, floor = {"absent": "formula is unsatisfiable"}, 0
    result["lower_witness"] = witness
    got = brute_growth(f, sig, variables, n, max_len)
    ceiling = rep.bound * n ** rep.dimension
    result["sandwich"] = {
        "n": n, "max_len": max_len,
        "lower": floor,
        "brute": got,
        "upper": ceiling,
        "ok": witness.get("oracle_count", 0) >= floor and got <= ceiling,
    }
    ok = result["sandwich"]["ok"] and chain.degree == rep.dimension
    return run.report("growth", result), 0 if ok else 1


def _cmd_monoid(run: _Run):
    sig, f, variables = run.formula()
    algebra = TypeAlgebra.build(f, variables, Query(sig, run.args.budget_states))
    m = algebra.monoid
    elements = []
    for i in range(m.size):
        entry = {"index": i,
                 "idempotent": m.is_idempotent(i),
                 "nonempty": m.is_nonempty_realizable(i),
                 "witness": m.witness_word(i).render()
                 if m.witness[i] is not None else None}
        elements.append(entry)
    result = {"variables": list(variables), "size": m.size,
              "identity": m.identity, "elements": elements}
    if m.size <= 20:
        result["table"] = [[m.multiply(a, b) for b in range(m.size)]
                           for a in range(m.size)]
    return run.report("monoid", result), 0


def _cmd_normalform(run: _Run):
    sig, f, variables = run.formula()
    algebra = TypeAlgebra.build(f, variables, Query(sig, run.args.budget_states))
    disjuncts = []
    for types, es in local_normal_form(algebra):
        witnesses = [algebra.monoid.witness_word(t, nonempty=(j > 0)).render()
                     for j, t in enumerate(types)]
        disjuncts.append({"types": list(types),
                          "segment_witnesses": witnesses,
                          "eliminable_marks": [i for i, e in enumerate(es, 1) if e is None]})
    result = {"variables": list(variables),
              "monoid_size": algebra.monoid.size,
              "disjuncts": disjuncts}
    return run.report("normalform", result), 0


def _witness_or_absent(build, *args, **budgets) -> dict:
    """The witness build returns, or why the formula has none."""
    try:
        return _witness_dict(build(*args, **budgets))
    except InputError as e:
        return {"absent": str(e)}


def _cmd_witness(run: _Run):
    sig, f, variables = run.formula()
    n = run.args.n
    if n < 1:
        raise InputError("witness needs --n of at least 1")
    budgets = dict(budget_states=run.args.budget_states)
    result = {"growth_lower": _witness_or_absent(growth_lower_witness, f, sig,
                                                 variables, n, **budgets)}
    if len(variables) == 1:
        result["pumping"] = _witness_or_absent(pump_witness, f, sig, variables[0],
                                               n, **budgets)
    if variables:
        result["no_decrement"] = _witness_or_absent(no_decrement_witness, f, sig,
                                                    variables, n, **budgets)
    return run.report("witness", result), 0


def _cmd_oracle_check(run: _Run):
    sig, f, variables = run.formula()
    rep = run.minrep(f, sig, variables)
    contract = check_reparameterization(rep, run.args.max_len)
    canonical = check_canonical_form(rep, run.args.max_len)
    result = {"reparameterization": _rep_dict(rep),
              "contract": _check_dict(contract),
              "canonical": _check_dict(canonical)}
    ok = bool(contract) and bool(canonical)
    return run.report("oracle-check", result), 0 if ok else 1


def _cmd_interp_reduce(run: _Run):
    sig = run.signature() if run.args.sig is not None else None
    spec = parse_interpretation(run.formula_text(), sig)
    if sig is not None and spec.signature != sig:
        raise InputError(f"--sig {','.join(sig.preds)} differs from the spec's "
                         f"signature {','.join(spec.signature.preds)}")
    reduced = reduce_interpretation(spec, run.args.dim,
                                    budget_states=run.args.budget_states)
    for part in reduced.parts:
        run.note(part.rep)
    check = check_equivalence(spec, reduced, run.args.max_len)
    result = {
        "components": [{"name": p.name, "source": p.source, "index": p.index,
                        "dimension": p.rep.dimension, "bound": p.rep.bound}
                       for p in reduced.parts],
        "spec": reduced.spec.dump().splitlines(),
        "equivalence": _check_dict(check),
    }
    return run.report("interp-reduce", result), 0 if check else 1


def _selftest_items(run: _Run):
    seed = run.args.seed
    checks = []

    def item(name, ok, **details):
        checks.append({"name": name, "ok": bool(ok), **details})

    # compiled automata against the oracle on a seeded sample
    mismatches = 0
    pairs = 0
    for sig, fo, f in formula_batch(seed, 25):
        dfa = compile_dfa(f, sig, fo)
        for w in all_words(sig, 4):
            for marks in itertools.combinations(range(len(w)), len(fo)):
                pairs += 1
                want = evaluate(f, w, fo=dict(zip(fo, marks)))
                if dfa.run(MarkedWord(w, marks)) != want:
                    mismatches += 1
    item("compiler-vs-oracle", mismatches == 0, checked=pairs)

    # the battery formulas, each with its type algebra and its map, built
    # once for the four items below
    battery = []
    for name, preds, text, variables, _ in BATTERY:
        sig = Signature.from_text(preds)
        f = parse(text, sig)
        battery.append((name, sig, f, variables,
                        TypeAlgebra.build(f, variables, Query(sig, run.args.budget_states)),
                        run.minrep(f, sig, variables)))

    # monoid laws on the battery algebras
    law_failures = 0
    sizes = []
    for _, sig, _, _, algebra, _ in battery:
        m = algebra.monoid
        sizes.append(m.size)
        if m.size <= 50:
            for a in range(m.size):
                for b in range(m.size):
                    for c in range(m.size):
                        if m.multiply(m.multiply(a, b), c) != \
                                m.multiply(a, m.multiply(b, c)):
                            law_failures += 1
                if m.multiply(a, m.identity) != a or \
                        m.multiply(m.identity, a) != a:
                    law_failures += 1
        rng = random.Random(seed + 1)
        for _ in range(100):
            v = [rng.randrange(2 ** sig.k) for _ in range(rng.randrange(4))]
            w = [rng.randrange(2 ** sig.k) for _ in range(rng.randrange(4))]
            if m.multiply(m.image_of_word(v), m.image_of_word(w)) != \
                    m.image_of_word(v + w):
                law_failures += 1
    item("monoid-laws", law_failures == 0, sizes=sizes)

    # dimension battery
    dims = [rep.dimension for *_, rep in battery]
    expected = [want for *_, want in BATTERY]
    item("dimension-battery", dims == expected, got=dims, expected=expected)

    # determination: truth from segment types
    det_failures = 0
    det_checked = 0
    for _, sig, f, variables, algebra, _ in battery:
        for w in all_words(sig, 3):
            for marks in itertools.combinations(range(len(w)), len(variables)):
                mw = MarkedWord(w, marks)
                det_checked += 1
                want = evaluate(f, w, fo=dict(zip(variables, marks)))
                if algebra.accepts_chain(algebra.segment_types(mw)) != want:
                    det_failures += 1
    item("determination", det_failures == 0, checked=det_checked)

    # reparameterization contract on the battery
    rep_failures = [name for name, *_, rep in battery
                    if not check_reparameterization(rep, 3) or not check_canonical_form(rep, 3)]
    item("reparameterization-contract", not rep_failures, failed=rep_failures)

    item("ramsey-bounds", [ramsey_bound(c) for c in (1, 2, 3)] == [3, 6, 17],
         got=[ramsey_bound(c) for c in (1, 2, 3)])

    # growth quick checks
    sig = Signature.from_text("P1")
    pair = parse("x < y", sig)
    brute = [brute_growth(pair, sig, ("x", "y"), n, 6) for n in (1, 2, 3)]
    lower = growth_lower_witness(parse("P1(x)", sig), sig, ("x",), 2).oracle_count()
    nd = no_decrement_witness(parse("P1(x)", sig), sig, ("x",), 2).oracle_count()
    item("growth-quick", brute == [0, 1, 3] and lower >= 2 and nd >= 4,
         brute=brute, lower=lower, no_decrement=nd)

    # interpretation quick check
    succ = parse_interpretation(
        "signature P1\n"
        "component pairs dim=2\n"
        "universe x < y & ~ex z. (x < z & z < y)\n"
        "relation E/2 on (pairs, pairs) := x = x & y = u & v = v\n")
    reduced = reduce_interpretation(succ, 1)
    eq = check_equivalence(succ, reduced, 3)
    item("interp-reduce", bool(eq),
         components=[p.name for p in reduced.parts],
         words_checked=eq.words_checked)

    return checks


def _cmd_selftest(run: _Run):
    checks = _selftest_items(run)
    ok = all(c["ok"] for c in checks)
    result = {"ok": ok, "checks": checks}
    return run.report("selftest", result), 0 if ok else 1


REQUIRED = "required"

# the flags each command reads besides --budget-states and --format, each
# with its default or REQUIRED; a pair of flags is a choice of one, and
# exactly one of the two must be given.  Every other flag is refused.
_FORMULA = {"--sig": None, ("--formula", "--formula-file"): REQUIRED}
COMMANDS = {
    "mindim": (_cmd_mindim, _FORMULA),
    "decide": (_cmd_decide, {**_FORMULA, "--dim": REQUIRED}),
    "growth": (_cmd_growth, {**_FORMULA, "--n": 3, "--max-len": 6}),
    "monoid": (_cmd_monoid, _FORMULA),
    "normalform": (_cmd_normalform, _FORMULA),
    "witness": (_cmd_witness, {**_FORMULA, "--n": 2}),
    "oracle-check": (_cmd_oracle_check, {**_FORMULA, "--max-len": 4}),
    "interp-reduce": (_cmd_interp_reduce, {"--sig": None, "--formula-file": REQUIRED,
                                           "--dim": REQUIRED, "--max-len": 3}),
    "selftest": (_cmd_selftest, {"--seed": 0}),
}

# a report's config: the value of each flag the command read, None for the
# flags it does not have
_CONFIG_KEYS = ("sig", "formula", "formula_file", "dim", "n", "max_len",
               "budget_states", "seed")

# the flags that take text, with their help; every other flag takes an int
_TEXT_FLAGS = {"--sig": "comma-separated predicate names, e.g. P1,P2",
               "--formula": None,
               "--formula-file": "file with the formula (or the interpretation spec)"}


def _add_flag(parser, flag, **kwargs):
    parser.add_argument(flag, type=str if flag in _TEXT_FLAGS else int,
                        help=_TEXT_FLAGS.get(flag), **kwargs)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chainrep",
        description="bounded reparameterizations of formulas over words")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        # no abbreviations: interp-reduce would read --formula as --formula-file
        s = sub.add_parser(name, allow_abbrev=False)
        for flag, default in flags.items():
            if isinstance(flag, tuple):
                one = s.add_mutually_exclusive_group(required=True)
                for choice in flag:
                    _add_flag(one, choice)
            elif default is REQUIRED:
                _add_flag(s, flag, required=True)
            else:
                _add_flag(s, flag, default=default)
        s.add_argument("--budget-states", type=int, default=DEFAULT_STATE_BUDGET)
        s.add_argument("--format", choices=("human", "json"), default="human")
    return p


def _human(value, indent=0, label=None) -> list[str]:
    pad = "  " * indent
    head = f"{pad}{label}: " if label else pad
    if isinstance(value, dict):
        lines = [f"{pad}{label}:"] if label else []
        for k in sorted(value):
            lines.extend(_human(value[k], indent + (1 if label else 0), k))
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [head + "[" + ", ".join(str(x) for x in value) + "]"]
        lines = [f"{pad}{label}:"] if label else []
        for x in value:
            lines.extend(_human(x, indent + (1 if label else 0), "-"))
        return lines
    return [head + str(value)]


def _apply_memory_cap():
    mb = os.environ.get("CHAINREP_BUDGET_MB")
    if not mb:
        return
    try:
        limit = int(mb) << 20
    except ValueError:
        raise InputError(f"CHAINREP_BUDGET_MB={mb!r} is not a number")
    if limit <= 0:
        raise InputError(f"CHAINREP_BUDGET_MB={mb!r} is not positive")
    try:
        import resource
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ImportError, ValueError, OSError):
        pass  # platform without rlimits: the cap is advisory


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_memory_cap()
        if args.budget_states <= 0:
            raise InputError("--budget-states must be positive")
        if getattr(args, "max_len", 0) < 0:
            raise InputError("--max-len must be nonnegative")
        report, status = COMMANDS[args.command][0](_Run(args))
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: memory budget exhausted", file=sys.stderr)
        return 3
    except ChainrepError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(_human(report)))
    return status


if __name__ == "__main__":
    sys.exit(main())
