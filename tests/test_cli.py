import hashlib
import json

import pytest

from chainrep import interp
from chainrep.cli import main
from chainrep.compiler import compile, map_automaton, preimage_ranks
from chainrep.errors import ResourceLimitError
from chainrep.formula import Signature, parse
from chainrep.monoid import transition_monoid
from chainrep.reparam import minimal_reparameterization
from conftest import GROUP_TEXT, endpoints_text

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
    assert report["config"]["seed"] == 0


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
     lambda: map_automaton(parse("x < y & y < z", P1), P1, ("x", "z"), ("y",), 2)),
    ("preimage ranks", 6, 5,
     lambda: preimage_ranks(map_automaton(parse("x < y", P1), P1, ("x",), ("y",), 5), 3)),
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


def test_growth_on_a_diagonal_formula(capsys):
    # every satisfying tuple has x = y, so no ascending tuple witnesses it
    status, report, _ = run_json(capsys, "growth", "--sig", "P1",
                                 "--formula", "x = y & all z. z = x")
    assert status == 0
    assert report["result"]["degree"] == 0
    assert report["result"]["lower_witness"]["oracle_count"] >= 1


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


def test_human_format_mirrors_json(capsys):
    status, out, _ = run(capsys, "mindim", "--sig", "P1", "--formula", "P1(x)")
    assert status == 0
    assert "dimension: 1" in out
    assert "version: " in out


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
