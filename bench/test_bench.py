"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The slow part is three traced runs of the count-bearing queries in child
processes (about two minutes on two cores).
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# queries left out of the count runs: the two slow guard checks, and P1^4,
# which only ever reaches the limit and so contributes no counts
SKIP = ("P1^4", "contract guard split", "canonical guard split")

COUNTS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, workloads
from tracer import Tracer
sys.path.insert(0, str(run.SRC))
skip = set(json.loads(sys.argv[2]))
limiter = run.Limiter(workloads.QUERY_LIMIT_S, run.SpeedProbe())
out = {}
for w in workloads.WORKLOADS.values():
    cr = run.import_chainrep()
    tracer = Tracer()
    tracer.install()
    try:
        state = w.setup(cr, workloads.SEED)
        queries = [q for q in w.queries(cr, state) if q[0] not in skip]
        outcomes = run.run_passes(queries, limiter, 0, tracer=tracer, once=True)
    finally:
        tracer.uninstall()
    assert all(o[0] == "ok" for runs in outcomes.values() for o in runs), outcomes
    metrics = run.layer_metrics(tracer, 0.0, 0.0, 0.0)
    out[w.name] = {"calls": tracer.calls,
                   "counts": {k: v["value"] for k, v in metrics.items()
                              if v["unit"] in ("count", "ratio")}}
print(json.dumps(out, sort_keys=True))
"""


def traced_counts(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-c", COUNTS_SCRIPT, str(BENCH), json.dumps(SKIP)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def counts():
    return [traced_counts(seed) for seed in (1, 1, 2)]


def test_counts_repeat_across_runs_and_hash_seeds(counts):
    first, again, other_seed = counts
    assert first == again
    assert first == other_seed


def test_counts_are_nonzero_where_the_layer_works(counts):
    c = counts[0]
    assert c["mindim"]["counts"]["compiler.compile_calls"] > 0
    assert c["mindim"]["counts"]["formula.order_cases"] > 0
    assert c["oracle-check"]["counts"]["oracle.words_checked"] > 0
    assert c["interp-reduce"]["counts"]["interp.copies"] > 0


def test_predicted_zero_counts(counts):
    c = counts[0]
    assert c["mindim"]["counts"]["oracle.satisfying_tuples_calls"] == 0
    assert c["mindim"]["counts"]["oracle.evaluate_calls"] == 0
    for name in ("mindim", "oracle-check"):
        assert c[name]["counts"]["interp.copies"] == 0
        assert not any(span.startswith("interp.") for span in c[name]["calls"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "setup_s", "answered_share", "peak_rss_mb"}


def test_limiter_outcomes():
    limiter = run.Limiter(0.2, run.SpeedProbe())

    def spin():
        while True:
            pass

    def boom():
        raise ValueError("no")

    assert limiter.run(lambda: None)[0] == "ok"
    assert limiter.run(lambda: "off by one")[::2] == ("wrong", "off by one")
    assert limiter.run(boom)[0] == "error"
    t0 = time.perf_counter()
    status, secs, _, raw = limiter.run(spin)
    assert (status, secs, raw) == ("limit", 0.2, 0.2)
    assert time.perf_counter() - t0 < 5


def test_probe_time_is_left_out_of_query_time():
    probe = run.SpeedProbe()
    limiter = run.Limiter(5.0, probe)

    def busy():
        t0 = time.process_time()
        while time.process_time() - t0 < 0.6:
            pass

    probe.start()
    try:
        t0 = time.perf_counter()
        status, secs, _, raw = limiter.run(busy)
        wall = time.perf_counter() - t0
    finally:
        probe.stop()
    during = probe.samples[1:]
    assert status == "ok"
    assert len(during) >= 3
    assert raw == pytest.approx(wall - sum(during), abs=0.05)
    # fewer samples than the window: the window reaches back to the first
    window = sorted(probe.samples[-run.PROBE_WINDOW:])
    assert len(during) < run.PROBE_WINDOW
    window = window[len(window) // 10:len(window) - len(window) // 10]
    assert secs == pytest.approx(raw * run.REFERENCE_S * len(window) / sum(window))


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", -1, 0.0, 10.0, "q"], ["b", 0, 1.0, 4.0, "q"],
                    ["c", 1, 2.0, 3.0, "q"], ["b", 0, 5.0, 6.0, "q"]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_abandoned_query_rolls_back_counts():
    sys.path.insert(0, str(run.SRC))
    cr = run.import_chainrep()
    sig = cr.Signature.from_text("P1")
    f = cr.parse("x < y", sig)
    limiter = run.Limiter(0.3, run.SpeedProbe())
    tracer = Tracer()
    tracer.install()
    try:
        def compile_then_spin():
            cr.compile(f, sig, ("x", "y"))
            while True:
                pass
        outcomes = run.run_passes([("spin", compile_then_spin)], limiter, 0,
                                  tracer=tracer, once=True)
    finally:
        tracer.uninstall()
    assert outcomes["spin"][0][0] == "limit"
    assert tracer.calls == {} and tracer.counts == {}
    assert tracer.spans[0][0] == "compiler.compile"
    assert cr.compile.__name__ == "compile" and not hasattr(cr.compile, "__wrapped__")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mindim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
