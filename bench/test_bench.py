"""Tests of the benchmark itself: one smoke run per workload and mode,
metric names and units against BENCHMARK.json, the bypass design in
the traced counts, the oracle's constants, and negative controls for
the output checks.

    python3 -m pytest -q bench/test_bench.py
"""

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def bench(workload, trace):
    """The result line of a one-second run from the repository root."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_names_the_declared_metrics(workload, trace):
    out = bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_reference_clock_times_work_between_readings():
    clock = refclock.ReferenceClock().start()
    try:
        wall0, scaled0 = clock.read()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        wall1, scaled1 = clock.read()
    finally:
        clock.stop()
    assert len(clock.samples) >= 5
    # the chunks' own time is left out of the wall reading
    assert 0 < wall1 - wall0 <= time.perf_counter() - start
    assert scaled1 > scaled0


def test_declared_metrics_are_the_emitted_ones():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert WORKLOADS == list(workloads.WORKLOADS)


#: traced calls that must be zero: the workload bypasses that layer
BYPASSED = {
    "collapse-sampled": ("monoid.generate_monoid.calls",),
    "exhaustive-words": ("idlab.sample_commuting_pair.calls", "monoid.generate_monoid.calls"),
    "monoid-sweep": ("idlab.sample_commuting_pair.calls", "opalg.eval_word.calls"),
}
#: traced calls that must be nonzero: the workload loads that layer
LOADED = {
    "collapse-sampled": ("idlab.sample_commuting_pair.calls", "opalg.eval_word.calls"),
    "exhaustive-words": ("opalg.eval_word.calls", "theory.eval_term.calls",
                         "idlab.search_identities.calls"),
    "monoid-sweep": ("monoid.generate_monoid.calls", "opalg.OperatorTable.compose.calls",
                     "idlab.find_kuratowski_witness.calls"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_confirm_the_bypass_design(workload):
    values = {k: v["value"] for k, v in bench(workload, 1)["metrics"].items()}
    assert all(values[name] == 0 for name in BYPASSED[workload])
    assert all(values[name] > 0 for name in LOADED[workload])


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


GOOD_THEOREM1 = """# closurelab verify theorem1
# generated: 2026-01-01T00:00:00+00:00 elapsed: 0.010s
verify theorem1
identity: pcqcpcq = pcq
scope: all ordered closure pairs, n=3
closures: 61
3721 pairs checked
failures: 0
PASS
"""


def theorem1_op():
    ops = workloads.build("exhaustive-words", 1)
    return next(op for op in ops if "theorem1" in op.label)


def test_checker_accepts_the_true_report():
    assert theorem1_op().check((0, GOOD_THEOREM1)) == []


@pytest.mark.parametrize("tampered", [
    (0, GOOD_THEOREM1.replace("failures: 0", "failures: 1")),
    (0, GOOD_THEOREM1.replace("PASS", "FAIL")),
    (0, GOOD_THEOREM1.replace("closures: 61", "closures: 60")),
    (1, GOOD_THEOREM1),
])
def test_checker_counts_a_tampered_report_as_failed(tampered):
    op = theorem1_op()
    assert op.check(tampered)
    fake = workloads.Op(op.label, lambda: tampered, op.check, True)
    tally = run.Tally()
    run.run_pass([fake], tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_an_op_that_raises_counts_as_failed_and_the_pass_goes_on():
    def boom():
        raise RuntimeError("internal error")

    tally = run.Tally()
    run.run_pass([workloads.Op("boom", boom, theorem1_op().check, True), theorem1_op()], tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wall_clock_header_is_not_compared():
    changed = GOOD_THEOREM1.replace("elapsed: 0.010s", "elapsed: 9.999s")
    assert theorem1_op().check((0, changed)) == []


def test_ops_depend_only_on_the_seed():
    for name in WORKLOADS:
        labels = [op.label for op in workloads.build(name, 7)]
        assert labels == [op.label for op in workloads.build(name, 7)]
    assert ([op.label for op in workloads.build("monoid-sweep", 1)]
            != [op.label for op in workloads.build("monoid-sweep", 2)])


def test_oracle_constants():
    assert [len(oracle.closures(n)) for n in range(4)] == list(oracle.MOORE_FAMILY_COUNTS[:4])
    assert len(oracle.moore_families(4)) == oracle.MOORE_FAMILY_COUNTS[4]
    assert [len(oracle.commuting_pairs(n)) for n in range(4)] == [1, 4, 41, 2029]
    for maxlen in range(6):
        words = [""]
        for length in range(maxlen):
            words += [w + ch for w in words if len(w) == length for ch in "cpq"
                      if not w.endswith(ch)]
        assert len(words) == oracle.reduced_word_count(maxlen)
    assert oracle.reduced_word_count(13) == 24574


def test_oracle_witness14_is_a_separating_kuratowski_witness():
    k, c = oracle.witness14()
    tables, words = oracle.monoid({"c": c, "k": k}, oracle.WITNESS14_N)
    assert set(words) == oracle.KURATOWSKI_WORDS
    assert len({t[oracle.WITNESS14_SEED] for t in tables}) == 14
    assert sorted(m for m in range(64) if k[m] == m) == list(oracle.WITNESS14_FIXED)


def test_oracle_closure_screen():
    assert all(oracle.is_closure(t) for t in oracle.closures(3))
    assert not oracle.is_closure((2, 1, 2, 3))  # expanding, idempotent, not monotone
    assert not oracle.is_closure((0, 0, 2, 3))  # not expanding


def test_oracle_counterexample_matches_pinned_fixture_failure():
    # the package pins fixture 0 failing on n=2 p#4 q#2 at {0}
    assert oracle.first_counterexample("pqcpcqcqcpcpq", "pqcpq", 2, False) == (2, 4, 2, 1)
    assert oracle.equation_holds("pcqcpcq", "pcq", 2, commuting=False)
