"""Acceptance gate for the workbench.

One test per headline requirement, each ending in a single printed
verdict line so a -s run reads as a checklist.  The assertions are
the actual gate; the suites module does the heavy lifting and these
tests pin its numbers against independently derived constants.
"""

import itertools
import json
import time

import numpy as np
import pytest

from _oracles import closures_by_filter, moore_families_brute
from closurelab import cli, idlab, models, theory
from closurelab import monoid as monoid_mod
from closurelab.suites import FIXTURE_FAILURE, KURATOWSKI_WORDS, SUITES


@pytest.fixture(scope="module")
def kuratowski_reports():
    reports = {n: SUITES["kuratowski14"](n=n) for n in range(4)}
    started = time.perf_counter()
    reports[4] = SUITES["kuratowski14"](n=4)
    reports["n4_seconds"] = time.perf_counter() - started
    return reports


def test_criterion_01_theorem1_exhaustive():
    r2 = SUITES["theorem1"](n=2)
    r3 = SUITES["theorem1"](n=3)
    assert r2.passed and r3.passed
    assert r2.data["pairs_checked"] == 49 and r2.data["failures"] == []
    assert r3.data["pairs_checked"] == 3721 and r3.data["failures"] == []
    # closure counts behind the pair grids match the brute-force oracles
    assert r2.data["closures"] == 7 == len(closures_by_filter(2))
    assert r3.data["closures"] == 61 == len(moore_families_brute(3))
    print("criterion 1 PASS: pcqcpcq = pcq on all 49 + 3721 closure pairs")


def test_criterion_02_monoid_bound_and_witness(kuratowski_reports):
    for n in range(5):
        rep = kuratowski_reports[n]
        assert rep.passed
        assert rep.data["over_14"] == []
        assert rep.data["max_monoid"] <= 14
    assert kuratowski_reports[4].data["closures"] == 2480
    wit = kuratowski_reports[4].data["witness"]
    assert wit["monoid_size"] == 14
    assert sorted(wit["words"]) == sorted(KURATOWSKI_WORDS)
    assert wit["distinct_images"] == 14
    assert kuratowski_reports["n4_seconds"] < 60.0
    print("criterion 2 PASS: |monoid({c,k})| <= 14 for all closures n<=4, "
          "witness attains 14 with the canonical words")


def test_criterion_03_hammer_identity(kuratowski_reports):
    for n in range(5):
        assert kuratowski_reports[n].data["hammer_failures"] == []
    print("criterion 3 PASS: kckckck = kck for every closure at n<=4")


def test_criterion_04_theorem2_family():
    seed = idlab.DEFAULT_SEED
    rep = SUITES["theorem2"](n=3, samples=25, seed=seed)
    assert rep.passed
    parts = rep.data["parts"]
    assert [(p["n_blocks"], p["equations"], p["held"]) for p in parts] == [
        (1, 9, 9), (2, 81, 81), (3, 729, 729), (3, 729, 729)]
    assert parts[0]["scope"] == "exhaustive-commuting-n<=3"
    assert parts[0]["pairs"] == 2075 and parts[1]["pairs"] == 2075
    assert parts[2]["scope"] == f"sampled(n=4,count=25,seed={seed})"
    assert parts[3]["scope"] == f"sampled(n=5,count=25,seed={seed + 1000})"
    assert all(p["failures"] == [] for p in parts)
    print("criterion 4 PASS: theorem2_word = pqcpq across 9+81 exhaustive "
          "and 2x729 sampled equations")


def test_criterion_05_fixture_identities():
    rep = SUITES["fixtures"](n=3)
    assert rep.passed
    idents = rep.data["identities"]
    assert len(idents) == 6
    for entry, (lhs, rhs) in zip(idents, idlab.FIXTURE_EQUATIONS):
        assert entry["lhs"] == lhs and entry["rhs"] == rhs
        assert entry["counterexample"] is None
        assert entry["models_checked"] == 2075
    fail = rep.data["noncommuting_failure"]
    assert fail is not None and fail["commutes"] is False
    assert tuple(fail["equation"]) == idlab.FIXTURE_EQUATIONS[FIXTURE_FAILURE[0]]
    assert fail["lhs_value"] != fail["rhs_value"]
    # the same refutation is reproducible outside the suite
    cert = idlab.search_counterexample(*idlab.FIXTURE_EQUATIONS[FIXTURE_FAILURE[0]], max_n=3)
    assert not cert.holds
    print("criterion 5 PASS: six fixture identities hold on commuting pairs "
          "n<=3 and one fails without the hypothesis")


def test_criterion_06_staircase_example():
    rep = SUITES["example3"](M=12)
    assert rep.passed
    d = rep.data
    assert d["repaired_axiom_failures"] == []
    assert d["orbit_failures"] == []
    assert d["literal_witness"] == [[1], [1, 3]]
    sizes = [tuple(row) for row in d["monoid_sizes"]]
    assert sizes == [(8, 17), (16, 33), (32, 65)]
    assert sizes[0][1] < sizes[1][1] < sizes[2][1]
    # spot check the orbit shape at the largest verified endpoint
    orb = monoid_mod.orbit("pq", models.example3(12), 1)
    assert orb.distinct_count == 12 // 2 + 1
    assert list(orb.images) == [(1 << (min(2 * i, 12) + 1)) - 1
                                for i in range(len(orb.images))]
    print("criterion 6 PASS: staircase axioms M<=12, prefix orbit, literal "
          "monotonicity witness ({1},{1,3}), monoid growth 17/33/65")


def test_criterion_07_flagged_cycle_construction():
    rep = SUITES["section4"](m=4)
    assert rep.passed
    d = rep.data
    assert d["ground_size"] == 10
    assert all(part["passed"] for part in d["p_axioms"].values())
    assert all(part["passed"] for part in d["q_axioms"].values())
    assert d["commute"] is True
    assert d["flag_preservation"] is True
    assert d["sandwich"] == {"p": True, "q": True}
    assert d["orbit"]["ok"] is True
    assert d["orbit"]["distinct"] == 4
    assert d["orbit"]["images"] == ["{0,top}", "{2,top}", "{4,top}", "{6,top}"]
    assert d["intermediates"] is True
    assert [tuple(row) for row in d["growth"]] == [(4, 4), (8, 8), (16, 16)]

    lem = SUITES["lemma6"]()
    assert lem.passed
    checks = lem.data["checks"]
    assert len(checks) == 16
    assert all(c["ok"] for c in checks)
    assert {(c["i"], c["j"]) for c in checks} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert {c["m"] for c in checks} == {2, 3, 4, 5}
    print("criterion 7 PASS: flagged cycle axioms, commuting, sandwich, "
          "lemma6 grid, orbit {2n,top} with growth 4/8/16")


def test_criterion_08_interior_and_product():
    inter = SUITES["interior"](n=3)
    assert inter.passed
    assert [tuple(row) for row in inter.data["counts"]] == [
        (0, 1, 0), (1, 2, 0), (2, 7, 0), (3, 61, 0)]
    prod = SUITES["pq-closure"](n=3)
    assert prod.passed
    assert [tuple(row) for row in prod.data["counts"]] == [
        (0, 1, 0), (1, 4, 0), (2, 41, 0), (3, 2029, 0)]
    print("criterion 8 PASS: ckc is an interior for every closure n<=3 and "
          "pq is a closure for every commuting pair n<=3")


def test_criterion_09_involution_remark():
    rep = SUITES["remark-involution"](n=3)
    assert rep.passed
    assert rep.data["permutations"] == 6
    assert rep.data["pairs"] == 3721
    assert rep.data["checks"] == 37210
    assert rep.data["failures"] == []
    print("criterion 9 PASS: the word identity survives replacing c by "
          "conjugated involutions for all 6 permutations at n=3")


def test_criterion_10_theory_layer():
    commuting = idlab.enumerate_commuting_pairs(2)
    assert len(commuting) == 41
    for m in commuting:
        assert theory.check_intended_model(m).ok
    noncomm = next(m for m in idlab.enumerate_all_pairs(2) if not m.commuting)
    report = theory.check_intended_model(noncomm)
    assert not report.ok
    assert [c.name for c in report.checks if not c.passed] == ["pq-commute"]

    deriv = theory.collapse_derivation()
    assert theory.check_derivation(
        deriv, goal="bar(pq)pbar(q)(pq) = bar(pq)(pq)").accepted
    tampered = json.loads(json.dumps(deriv.to_json()))
    assert tampered[9]["premises"] == [6, 8]
    tampered[9]["premises"] = [6, 3]
    verdict = theory.check_derivation(theory.Derivation.from_json(tampered))
    assert not verdict.accepted and verdict.failed_step == 9

    def block_tuples(k):
        return list(itertools.product(("p", "q", "pq"), repeat=2 * k))

    def terms_agree(equations, model):
        for lhs, rhs in equations:
            assert np.array_equal(theory.eval_term(lhs, model).entries,
                                  theory.eval_term(rhs, model).entries)

    small = [theory.proposition5_equation(b)
             for b in block_tuples(1) + block_tuples(2)]
    exhaustive = list(idlab.Scope.exhaustive(3).models())
    assert len(exhaustive) == 2075
    for m in exhaustive:
        terms_agree(small, m)

    big = [theory.proposition5_equation(b) for b in block_tuples(3)]
    seed = idlab.DEFAULT_SEED
    sampled = itertools.chain(idlab.Scope.sampled(4, 25, seed).models(),
                              idlab.Scope.sampled(5, 25, seed + 1000).models())
    checked = 0
    for m in sampled:
        terms_agree(big, m)
        checked += 1
    assert checked == 50
    print("criterion 10 PASS: intended models check out, the worked "
          "derivation is machine-checked, and the collapse equations hold "
          "as terms on every scope above")


_VERIFY_FLAGS = {name: [] for name in SUITES}
# samples=5 keeps three theorem2 runs quick; determinism is flag-independent
_VERIFY_FLAGS["theorem2"] = ["--samples", "5"]


def _verify_text(capsys, name, workers):
    code = cli.main(["verify", name, "--workers", str(workers)]
                    + _VERIFY_FLAGS[name])
    out = capsys.readouterr().out
    assert code == 0, name
    return "\n".join(ln for ln in out.splitlines() if not ln.startswith("# "))


def test_criterion_11_verify_determinism(capsys):
    for name in sorted(SUITES):
        first = _verify_text(capsys, name, 1)
        second = _verify_text(capsys, name, 1)
        parallel = _verify_text(capsys, name, 4)
        assert first == second, name
        assert first == parallel, name
    print("criterion 11 PASS: all verify reports byte-identical across "
          "repeat runs and workers 1 vs 4")
