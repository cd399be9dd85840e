import hashlib
import itertools
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import chainrep
from chainrep import interp
from chainrep.cli import COMMANDS, REQUIRED, _parser, _Run, main
from chainrep.compiler import DEFAULT_STATE_BUDGET, Query, compile, preimage_ranks
from chainrep.errors import ResourceLimitError
from chainrep.formula import MAX_DEPTH, Signature, parse
from chainrep.growth import WitnessStructure
from chainrep.monoid import transition_monoid
from chainrep.reparam import minimal_reparameterization
from conftest import GROUP_TEXT, endpoints_text, wide_text

SUCC = """signature P1
component pairs dim=2
universe x < y & ~ex z. (x < z & z < y)
relation E/2 on (pairs, pairs) := x = x & y = u & v = v
"""


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv, "--format", "json")
    return status, json.loads(out), err


def test_mindim_example(capsys):
    status, report, _ = run_json(capsys, "mindim", "--sig", "P1",
                                 "--formula", "P1(x)")
    assert status == 0
    assert report["result"]["dimension"] == 1
    assert report["tool"]["name"] == "chainrep"
    assert report["tool"]["version"]
    assert report["config"]["seed"] is None  # mindim has no --seed


def test_mindim_refines_the_guard_split(capsys):
    status, report, _ = run_json(capsys, "mindim", "--sig", "P1",
                                 "--formula", GROUP_TEXT)
    assert status == 0
    assert report["result"]["dimension"] == 1
    assert report["result"]["bound"] == 3
    # the map text is the one the unrefined map had
    text = report["result"]["map"]
    assert hashlib.sha1(text.encode()).hexdigest() == \
        "b0630a74c51252493e6a33250bea44afa6abe63a"


def test_decide_negative_reports_minimal_dimension(capsys):
    status, report, _ = run_json(capsys, "decide", "--dim", "1",
                                 "--sig", "P1", "--formula", "x<y")
    assert status == 1
    assert report["result"]["answer"] is False
    assert report["result"]["minimal_dimension"] == 2


def test_decide_positive(capsys):
    status, report, _ = run_json(capsys, "decide", "--dim", "2",
                                 "--sig", "P1", "--formula", "x<y")
    assert status == 0 and report["result"]["answer"] is True


def test_growth_report(capsys):
    status, report, _ = run_json(capsys, "growth", "--sig", "P1",
                                 "--formula", "P1(x)", "--n", "2",
                                 "--max-len", "5")
    assert status == 0
    assert report["result"]["degree"] == 1
    assert report["result"]["sandwich"]["ok"] is True
    assert report["result"]["lower_witness"]["oracle_count"] >= 2


def test_growth_and_selftest_count_each_witness_once(capsys, monkeypatch):
    # the report's count and the sandwich's lower side read one recount
    calls = []
    real = WitnessStructure.oracle_count

    def counted(witness):
        calls.append(witness)
        return real(witness)

    monkeypatch.setattr(WitnessStructure, "oracle_count", counted)
    for text in ("P1(x)", "x < y", "x = y & all z. z = x"):
        calls.clear()
        status, report, _ = run_json(capsys, "growth", "--sig", "P1",
                                     "--formula", text, "--max-len", "4")
        assert status == 0 and report["result"]["sandwich"]["ok"] is True
        assert len(calls) == 1, text
    # selftest's growth-quick counts its lower and no-decrement witness
    calls.clear()
    status, _, _ = run_json(capsys, "selftest")
    assert status == 0 and len(calls) == 2 and calls[0] is not calls[1]


def test_monoid_report(capsys):
    status, report, _ = run_json(capsys, "monoid", "--sig", "P1",
                                 "--formula", "x<y")
    assert status == 0
    r = report["result"]
    assert r["size"] == len(r["elements"])
    assert r["table"][r["identity"]] == list(range(r["size"]))


def test_normalform_report(capsys):
    status, report, _ = run_json(capsys, "normalform", "--sig", "P1",
                                 "--formula", "P1(x)")
    assert status == 0
    assert report["result"]["disjuncts"]
    for d in report["result"]["disjuncts"]:
        assert len(d["types"]) == 2  # one variable: prefix + one segment


# the families of three local normal forms over P1 and the marks at which
# each admits no pumping idempotent
NORMAL_FORMS = (
    (GROUP_TEXT,
     [[0, 1, 1], [0, 1, 2], [0, 2, 1], [0, 2, 2], [1, 1, 1], [1, 2, 1], [2, 1, 1], [2, 2, 1]],
     [[1, 2], [1, 2], [1, 2], [1], [1, 2], [1, 2], [1, 2], [2]]),
    ("P1(x) & P1(y) & x < y", [[0, 2, 2], [1, 2, 2], [2, 2, 2]], [[1], [], []]),
    ("P1(x)", [[0, 2], [1, 2], [2, 2]], [[1], [], []]),
)


@pytest.mark.parametrize("formula, types, marks", NORMAL_FORMS)
def test_normalform_pins_the_eliminable_marks(capsys, formula, types, marks):
    status, report, _ = run_json(capsys, "normalform", "--sig", "P1", "--formula", formula)
    assert status == 0
    disjuncts = report["result"]["disjuncts"]
    assert [d["types"] for d in disjuncts] == types
    assert [d["eliminable_marks"] for d in disjuncts] == marks


def test_witness_report(capsys):
    status, report, _ = run_json(capsys, "witness", "--sig", "P1",
                                 "--formula", "P1(x)", "--n", "2")
    assert status == 0
    r = report["result"]
    assert set(r) == {"pumping", "no_decrement", "growth_lower"}
    assert r["no_decrement"]["oracle_count"] >= 4


@pytest.mark.parametrize("formula, absent", [
    # dimension 1 over two variables: no mark pumps in every family
    ("x < y & ~ex z. (x < z & z < y)", {"no_decrement"}),
    # dimension 2, but the ascending order case x<y is empty
    ("P1(x) & y < x", {"no_decrement"}),
    # dimension 0: nothing pumps
    ("~ex z. z < x", {"pumping", "no_decrement"}),
])
def test_witness_reports_absent_witnesses(capsys, formula, absent):
    status, report, _ = run_json(capsys, "witness", "--sig", "P1",
                                 "--formula", formula, "--n", "2")
    assert status == 0
    r = report["result"]
    assert {name for name, w in r.items() if "absent" in w} == absent
    for name in absent:
        assert r[name]["absent"]
    lower = r["growth_lower"]
    assert lower["oracle_count"] >= lower["claimed"] >= 1


def test_witness_rejects_nonpositive_n(capsys):
    status, out, err = run(capsys, "witness", "--sig", "P1",
                           "--formula", "P1(x)", "--n", "0")
    assert status == 2 and out == "" and "--n" in err


def test_witness_names_the_stage_that_runs_out(capsys):
    # the minimal map fits in 8 states, the automaton it is built into for
    # the growth witness needs 9
    argv = ("witness", "--sig", "P1", "--formula", "P1(x)&P1(y)&(~ex q. q < v)", "--n", "2")
    status, out, err = run(capsys, *argv, "--budget-states", "8")
    assert status == 3 and not out
    assert "map automaton: state budget exceeded (9 > 8)" in err
    status, out, err = run(capsys, *argv, "--budget-states", "9")
    assert status == 0 and out and not err


def test_mindim_names_the_guard_stage(capsys):
    # the automaton guarding the split's first group outgrows 12 states
    status, out, err = run(capsys, "mindim", "--sig", "P1", "--formula", GROUP_TEXT,
                           "--budget-states", "12")
    assert status == 3 and not out
    assert "resource limit: guard: state budget exceeded (13 > 12)" in err


def test_mindim_names_the_compile_stage(capsys):
    # the one build of the endpoint triple over its three tracks needs 17
    # states, and nothing after it more
    argv = ("mindim", "--sig", "P1", "--formula", endpoints_text("xyz"))
    status, out, err = run(capsys, *argv, "--budget-states", "16")
    assert status == 3 and not out
    assert "resource limit: compile: state budget exceeded (17 > 16)" in err
    status, out, err = run(capsys, *argv, "--budget-states", "17")
    assert status == 0 and out and not err


P1 = Signature(("P1",))
STARVED_STAGES = (
    ("compile", 5, 4, lambda: compile(parse("x<y & y<z", P1), P1, ("x", "y", "z"), 4)),
    ("monoid", 3, 2,
     lambda: transition_monoid(compile(parse("atleast 3 v. P1(v)", P1), P1), 2)),
    ("map automaton", 4, 2,
     lambda: Query(P1, 2).map_automaton(parse("x < y & y < z", P1), ("x", "z"), ("y",))),
    ("preimage ranks", 6, 5,
     lambda: preimage_ranks(Query(P1, 5).map_automaton(parse("x < y", P1), ("x",), ("y",)),
                            3)),
    ("guard", 13, 12,
     lambda: minimal_reparameterization(parse(GROUP_TEXT, P1), P1, ("x", "y"),
                                        budget_states=12)),
)


@pytest.mark.parametrize("stage, reached, budget, starve", STARVED_STAGES,
                         ids=[case[0] for case in STARVED_STAGES])
def test_budget_errors_carry_stage_and_size(stage, reached, budget, starve):
    with pytest.raises(ResourceLimitError) as e:
        starve()
    assert (e.value.stage, e.value.reached, e.value.budget, e.value.subject) == \
        (stage, reached, budget, "states")
    assert str(e.value) == f"{stage}: state budget exceeded ({reached} > {budget})"


def test_oracle_check_embeds_notes(capsys):
    status, report, _ = run_json(
        capsys, "oracle-check", "--sig", "P1", "--max-len", "3",
        "--formula", "(P1(x) & P1(y)) & (x < y & ~ex z. (x < z & z < y))")
    assert status == 0
    assert report["result"]["contract"]["ok"] is True
    assert report["result"]["canonical"]["ok"] is True
    assert len(report["notes"]) == 2  # elimination ran: indexing notes embed


def test_notes_only_when_an_elimination_fires(capsys):
    # the map refines, combines and splits order cases, but eliminates nothing
    status, report, _ = run_json(capsys, "mindim", "--sig", "P1", "--formula",
                                 "(x=y & y<z & P1(x)) | (x<y & y=z & ~P1(x))")
    assert status == 0 and report["result"]["dimension"] == 2
    kinds = {line.split(":")[0].strip() for line in report["result"]["provenance"]}
    assert kinds == {"refine", "combine", "case", "rigid"}
    assert report["notes"] == []


def test_interp_reduce(tmp_path, capsys):
    path = tmp_path / "succ.interp"
    path.write_text(SUCC)
    status, report, _ = run_json(capsys, "interp-reduce", "--formula-file",
                                 str(path), "--dim", "1", "--max-len", "3")
    assert status == 0
    assert report["result"]["components"] == [
        {"name": "pairs.1", "source": "pairs", "index": 1,
         "dimension": 1, "bound": 1}]
    assert report["result"]["equivalence"]["ok"] is True


def test_interp_reduce_insufficient_dim(tmp_path, capsys):
    path = tmp_path / "wide.interp"
    path.write_text("signature P1\ncomponent pairs dim=2\nuniverse x < y\n")
    status, out, err = run(capsys, "interp-reduce", "--formula-file",
                           str(path), "--dim", "1")
    assert status == 2
    assert "pairs" in err


def test_interp_reduce_refuses_too_many_copies(tmp_path, capsys, monkeypatch):
    # the endpoint triple has exact bound 8, past a copy cap of 5
    monkeypatch.setattr(interp, "MAX_COMPONENT_COPIES", 5)
    path = tmp_path / "ends.interp"
    path.write_text("signature P1\ncomponent ends dim=3\n"
                    f"universe {endpoints_text('xyz')}\n")
    status, _, err = run(capsys, "interp-reduce", "--formula-file",
                         str(path), "--dim", "0")
    assert status == 3
    assert "would split into 8 copies" in err


def test_interp_reduce_splits_the_endpoint_triple(tmp_path, capsys):
    # one copy per rank of the exact bound 8, each selected by an automaton
    path = tmp_path / "ends.interp"
    path.write_text("signature P1\ncomponent ends dim=3\n"
                    f"universe {endpoints_text('xyz')}\n")
    status, report, _ = run_json(capsys, "interp-reduce", "--formula-file",
                                 str(path), "--dim", "0", "--max-len", "3")
    assert status == 0
    assert len(report["result"]["components"]) == 8
    assert report["result"]["equivalence"]["ok"] is True
    # the reduced spec, rank automata included, byte for byte
    text = "\n".join(report["result"]["spec"])
    assert (len(text), hashlib.sha1(text.encode()).hexdigest()) == \
        (6_436, "810f5837c6f8c71dcec32eabffa16d1a4425d241")


@pytest.mark.parametrize("argv", [
    ("oracle-check", "--sig", "P1", "--formula", "x<y"),
    ("growth", "--sig", "P1", "--formula", "x<y"),
    ("interp-reduce", "--formula-file", "SPEC", "--dim", "1"),
], ids=lambda argv: argv[0])
def test_negative_max_len_is_bad_input(tmp_path, capsys, argv):
    # a negative length checks no word, so every check would pass
    path = tmp_path / "succ.interp"
    path.write_text(SUCC)
    status, out, err = run(capsys, *(str(path) if a == "SPEC" else a for a in argv),
                           "--max-len", "-1")
    assert status == 2 and "--max-len" in err and not out


def test_decide_rejects_negative_dimension(capsys):
    status, _, err = run(capsys, "decide", "--dim", "-1", "--sig", "P1",
                         "--formula", "x<y")
    assert status == 2 and "nonnegative" in err


def test_nonpositive_memory_budget_is_bad_input(capsys, monkeypatch):
    # only a negative value here: a zero cap must never reach setrlimit in
    # the test process
    monkeypatch.setenv("CHAINREP_BUDGET_MB", "-5")
    status, out, err = run(capsys, "mindim", "--sig", "P1", "--formula", "P1(x)")
    assert status == 2 and "CHAINREP_BUDGET_MB" in err and not out


def test_non_numeric_memory_budget_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("CHAINREP_BUDGET_MB", "abc")
    status, out, err = run(capsys, "mindim", "--sig", "P1", "--formula", "P1(x)")
    assert status == 2 and not out
    assert err == "error: CHAINREP_BUDGET_MB='abc' is not a number\n"


def test_memory_budget_caps_the_address_space():
    # in a child process: the cap must never be set in the test process
    code = ("import resource, sys\n"
            "from chainrep.cli import main\n"
            "status = main(['mindim', '--sig', 'P1', '--formula', 'P1(x)', '--format', 'json'])\n"
            "print(resource.getrlimit(resource.RLIMIT_AS)[0], file=sys.stderr)\n"
            "sys.exit(status)\n")
    env = {**os.environ, "CHAINREP_BUDGET_MB": "4096",
           "PYTHONPATH": str(Path(chainrep.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["dimension"] == 1
    # a hard limit below the cap leaves it advisory
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard == resource.RLIM_INFINITY or hard >= 4096 << 20:
        assert int(done.stderr) == 4096 << 20


def test_growth_on_a_diagonal_formula(capsys):
    # every satisfying tuple has x = y, so no ascending tuple witnesses it
    status, report, _ = run_json(capsys, "growth", "--sig", "P1",
                                 "--formula", "x = y & all z. z = x")
    assert status == 0
    assert report["result"]["degree"] == 0
    assert report["result"]["lower_witness"]["oracle_count"] >= 1


@pytest.mark.parametrize("text", ["x < x", "ex z. z < z"])
def test_growth_on_an_unsatisfiable_formula(capsys, text):
    # no tuple ever satisfies it: no witness, and every count is 0
    status, report, _ = run_json(capsys, "growth", "--sig", "P1", "--formula", text)
    assert status == 0
    result = report["result"]
    assert (result["degree"], result["bound"]) == (0, 0)
    assert result["lower_witness"] == {"absent": "formula is unsatisfiable"}
    assert result["sandwich"] == {"n": 3, "max_len": 6, "lower": 0, "brute": 0,
                                  "upper": 0, "ok": True}
    status, _, err = run(capsys, "growth", "--sig", "P1", "--formula", text, "--n", "0")
    assert status == 2 and "need n >= 1" in err


def test_growth_checks_n_before_the_search(capsys, monkeypatch):
    # a bad --n is an input error, whatever budget the search would have
    # run out of, and it costs no search
    status, _, err = run(capsys, "growth", "--sig", "P1", "--formula", "x<y",
                         "--n", "0", "--budget-states", "1")
    assert status == 2 and "need n >= 1" in err
    monkeypatch.setattr(chainrep.cli, "minimal_reparameterization", None)
    status, _, err = run(capsys, "growth", "--sig", "P1", "--formula", "x<y", "--n", "-1")
    assert status == 2 and "need n >= 1" in err


def test_exit_codes(capsys):
    status, _, err = run(capsys, "mindim", "--sig", "P1", "--formula", "x <")
    assert status == 2 and "position" in err
    status, _, err = run(capsys, "mindim", "--sig", "P1", "--formula",
                         "x<y & y<z", "--budget-states", "4")
    assert status == 3 and "compile: state budget exceeded (5 > 4)" in err
    status, _, err = run(capsys, "mindim", "--formula", "x<y")
    assert status == 2
    status, _, err = run(capsys, "mindim", "--sig", "P1", "--formula", "x<y",
                         "--budget-states", "0")
    assert status == 2 and "--budget-states must be positive" in err


@pytest.mark.parametrize("width", [400, 1000])
@pytest.mark.parametrize("op", ["|", "&"])
def test_mindim_answers_wide_connectives(capsys, op, width):
    answers = []
    for text in (wide_text(op, 3), wide_text(op, width)):
        status, report, _ = run_json(capsys, "mindim", "--sig", "P1", "--formula", text)
        answers.append((status, report["result"]["dimension"], report["result"]["bound"]))
    assert answers[0] == answers[1]


def test_nesting_past_the_limit_exits_3(capsys):
    for text, stage in (("~" * 2000 + "P1(x)", "parse"), ("atleast 200 x. P1(x)", "compile")):
        status, out, err = run(capsys, "mindim", "--sig", "P1", "--formula", text)
        assert status == 3 and not out
        assert err == f"resource limit: {stage}: formula nests deeper than {MAX_DEPTH} levels\n"


def test_oracle_check_answers_at_the_limit(capsys):
    # the source nests MAX_DEPTH levels, and its map source & h one more
    text = "~" * (MAX_DEPTH - 3) + "(x < y & ~ex z. z < x)"
    status, report, _ = run_json(capsys, "oracle-check", "--sig", "P1", "--formula", text)
    result = report["result"]
    assert status == 0 and result["contract"]["ok"] and result["canonical"]["ok"]
    rep = result["reparameterization"]
    assert (rep["dimension"], rep["bound"]) == (2, 1)


def test_human_format_mirrors_json(capsys):
    status, out, _ = run(capsys, "mindim", "--sig", "P1", "--formula", "P1(x)")
    assert status == 0
    assert "dimension: 1" in out
    assert "version: " in out


def test_human_format_lists_dicts_as_items(capsys):
    # a list of dicts, as normalform's disjuncts, prints one "-:" item each
    status, out, _ = run(capsys, "normalform", "--sig", "P1", "--formula", "P1(x)")
    assert status == 0
    lines = out.splitlines()
    start = lines.index("  disjuncts:")
    assert lines[start:start + 13] == [
        "  disjuncts:",
        "    -:",
        "      eliminable_marks: [1]",
        "      segment_witnesses: [[], [P1]]",
        "      types: [0, 2]",
        "    -:",
        "      eliminable_marks: []",
        "      segment_witnesses: [[.], [P1]]",
        "      types: [1, 2]",
        "    -:",
        "      eliminable_marks: []",
        "      segment_witnesses: [[P1], [P1]]",
        "      types: [2, 2]",
    ]
    assert lines[start + 13] == "  monoid_size: 3"


def test_selftest_deterministic(capsys):
    status1, out1, _ = run(capsys, "selftest", "--format", "json")
    status2, out2, _ = run(capsys, "selftest", "--format", "json")
    assert status1 == status2 == 0
    assert out1 == out2
    assert hashlib.sha1(out1.encode()).hexdigest() == \
        "138e4b75727b83d7abd5b409bea437f8052c5f37"
    report = json.loads(out1)
    assert report["result"]["ok"] is True
    names = [c["name"] for c in report["result"]["checks"]]
    assert "compiler-vs-oracle" in names and "dimension-battery" in names


@pytest.mark.parametrize("argv, message", [
    (("mindim", "--sig", ",", "--formula", "P1(x)"), "error: signature has no predicates\n"),
    (("mindim", "--sig", "P1", "--formula-file", "MISSING"), "error: cannot read MISSING: "),
], ids=["empty-signature", "missing-file"])
def test_refusals_name_the_fault(tmp_path, capsys, argv, message):
    missing = str(tmp_path / "missing.txt")
    status, out, err = run(capsys, *(missing if a == "MISSING" else a for a in argv))
    assert status == 2 and not out
    assert err.startswith(message.replace("MISSING", missing))


def _choice(key):
    """The flags of a key of a COMMANDS row: both of a choice, else the one."""
    return key if isinstance(key, tuple) else (key,)


def _flags(row):
    return [f for key in row for f in _choice(key)]


ALL_FLAGS = sorted({f for _, row in COMMANDS.values() for f in _flags(row)})


def _parse(capsys, argv):
    """(namespace, "") for argv, or (exit code, stderr) when it is refused."""
    try:
        return _parser().parse_args(argv), ""
    except SystemExit as e:
        return e.code, capsys.readouterr().err


def _required(row, but=None):
    """argv giving each required flag of a COMMANDS row the value 1, all but
    the flag but (or the choice that holds it)."""
    out = []
    for key, default in row.items():
        if default is REQUIRED and but not in _choice(key):
            out += [_choice(key)[0], "1"]
    return out


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_takes_exactly_its_flags(capsys, command):
    row = COMMANDS[command][1]
    for flag in ALL_FLAGS:
        if flag in _flags(row):
            ns, err = _parse(capsys, [command, *_required(row, flag), flag, "1"])
            assert not err, (flag, err)
            text = flag in ("--sig", "--formula", "--formula-file")
            assert getattr(ns, flag[2:].replace("-", "_")) == ("1" if text else 1)
        else:
            code, err = _parse(capsys, [command, *_required(row), flag, "1"])
            assert code == 2 and err.endswith(f"error: unrecognized arguments: {flag} 1\n")
    # a missing required flag is refused by name
    for key, default in row.items():
        if default is REQUIRED:
            code, err = _parse(capsys, [command, *_required(row, _choice(key)[0])])
            assert code == 2 and "required" in err
            assert all(f in err.splitlines()[-1] for f in _choice(key))
    # --help lists those flags and no other
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert done.value.code == 0
    assert listed == {*_flags(row), "--budget-states", "--format", "--help"}


def _config(**used):
    keys = ("sig", "formula", "formula_file", "dim", "n", "max_len", "seed")
    return {**dict.fromkeys(keys), "budget_states": DEFAULT_STATE_BUDGET, **used}


FORMULA = ("--sig", "P1", "--formula", "P1(x)")
# each command given only what it requires, and the config its report records
CONFIGS = (
    (("mindim", *FORMULA), _config(sig="P1", formula="P1(x)")),
    (("decide", *FORMULA, "--dim", "1"), _config(sig="P1", formula="P1(x)", dim=1)),
    (("growth", *FORMULA), _config(sig="P1", formula="P1(x)", n=3, max_len=6)),
    (("monoid", *FORMULA), _config(sig="P1", formula="P1(x)")),
    (("normalform", "--formula-file", "f.txt"), _config(formula_file="f.txt")),
    (("witness", *FORMULA), _config(sig="P1", formula="P1(x)", n=2)),
    (("oracle-check", *FORMULA), _config(sig="P1", formula="P1(x)", max_len=4)),
    (("interp-reduce", "--formula-file", "f.txt", "--dim", "0"),
     _config(formula_file="f.txt", dim=0, max_len=3)),
    (("selftest",), _config(seed=0)),
)


@pytest.mark.parametrize("argv, config", CONFIGS, ids=[argv[0] for argv, _ in CONFIGS])
def test_config_records_the_values_used(argv, config):
    assert _Run(_parser().parse_args(argv)).report(argv[0], {})["config"] == config


def test_a_default_growth_run_reports_what_it_ran(capsys):
    status, report, _ = run_json(capsys, "growth", "--sig", "P1", "--formula", "x < x")
    assert status == 0
    sandwich = report["result"]["sandwich"]
    assert report["config"] == _config(sig="P1", formula="x < x", n=3, max_len=6)
    assert (sandwich["n"], sandwich["max_len"]) == (3, 6)


def _chainrep(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(chainrep.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "chainrep", *argv], env=env,
                          capture_output=True, text=True)


def test_the_entry_point_answers_and_refuses():
    done = _chainrep("mindim", "--sig", "P1", "--formula", "P1(x)")
    assert (done.returncode, done.stderr) == (0, "") and "dimension: 1" in done.stdout
    done = _chainrep("mindim", "--sig", "P1", "--formula", "P1(x)", "--max-len", "3")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: unrecognized arguments: --max-len 3\n")
    done = _chainrep("decide", "--sig", "P1", "--formula", "P1(x)")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.endswith("error: the following arguments are required: --dim\n")


def _flag_text(key, default):
    if isinstance(key, tuple):
        return " or ".join(f"`{f}`" for f in key) + f" (one {default})"
    return f"`{key}`" + ("" if default is None else f" ({default})")


def test_the_readme_lists_each_commands_flags():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | flags (default) |")
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = flags
    assert rows == {command: ", ".join(_flag_text(key, default) for key, default in row.items())
                    for command, (_, row) in COMMANDS.items()}
