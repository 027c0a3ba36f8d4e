"""Tests for the verification suites behind the CLI."""

import json
import statistics
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from closurelab import cli, idlab, models, opalg, suites
from closurelab.opalg import complement_table, conjugated_involution, reversed_involution
from closurelab.suites import (
    FIXTURE_FAILURE,
    KURATOWSKI_WORDS,
    SUITES,
    SuiteReport,
    _pair_failures,
    suite_example3,
    suite_fixtures,
    suite_interior,
    suite_kuratowski14,
    suite_lemma6,
    suite_pq_closure,
    suite_remark_involution,
    suite_section4,
    suite_theorem1,
    suite_theorem2,
)

from _oracles import compose_tables, lockstep_schedule
from _oracles import sample_commuting_pair as reference_pair


def test_suite_registry():
    assert sorted(SUITES) == [
        "example3", "fixtures", "interior", "kuratowski14", "lemma6",
        "pq-closure", "remark-involution", "section4", "theorem1",
        "theorem2",
    ]


def test_suite_report_check_records_one_verdict_line():
    report = SuiteReport("demo", True)
    assert report.check("first", True) is True
    assert report.check("second", np.bool_(True), "[9]") is True
    assert report.passed is True
    assert report.check("third", [], "[2, 4]") is False
    assert report.passed is False
    # a failure is not undone by a later pass
    assert report.check("fourth", 1) is True
    assert report.check("fifth", False) is False
    assert report.passed is False
    assert report.lines == ["first: PASS", "second: PASS", "third: FAIL [2, 4]",
                            "fourth: PASS", "fifth: FAIL"]


def test_theorem1_suite():
    rep = suite_theorem1(2)
    assert rep.passed
    assert rep.lines[0] == "verify theorem1"
    assert "closures: 7" in rep.lines
    assert "49 pairs checked" in rep.lines
    assert "failures: 0" in rep.lines
    assert rep.lines[-1] == "PASS"
    assert rep.data["pairs_checked"] == 49
    assert rep.data["failures"] == []
    assert rep.data["passed"] is True


def _pair_failures_by_hand(lhs, rhs, n, thetas=None):
    """(i, j, t, smallest differing mask) for every closure pair and
    every theta in thetas (plain complement when None), word by word
    and subset by subset."""
    size = 1 << n
    closures = [tuple(t.entries.tolist()) for t in idlab.enumerate_closures(n)]
    if thetas is None:
        thetas = [tuple((size - 1) ^ a for a in range(size))]

    def table(word, p, q, c):
        out = tuple(range(size))
        for letter in reversed(word):
            out = compose_tables({"p": p, "q": q, "c": c}[letter], out)
        return out

    failures = []
    for i, p in enumerate(closures):
        for j, q in enumerate(closures):
            for t, c in enumerate(thetas):
                a, b = table(lhs, p, q, c), table(rhs, p, q, c)
                if a != b:
                    failures.append((i, j, t, min(x for x in range(size) if a[x] != b[x])))
    return failures


def test_pair_failures_report_each_failure_in_order():
    # pq = qp fails on every noncommuting pair: 49 ordered pairs at n=2,
    # 41 of them commuting
    plain = _pair_failures("pq", "qp", 2)
    assert len(plain) == 8
    assert plain == _pair_failures_by_hand("pq", "qp", 2)

    theta = reversed_involution([1, 0])
    assert theta != complement_table(2)
    one = tuple(theta.entries.tolist())
    assert (_pair_failures("pq", "qp", 2, np.stack([theta.entries]))
            == _pair_failures_by_hand("pq", "qp", 2, [one]))

    # with a c letter the two involutions refute different pairs
    both = np.stack([complement_table(2).entries, theta.entries])
    got = _pair_failures("pcq", "qcp", 2, both)
    assert {t for _, _, t, _ in got} == {0, 1}
    assert got == _pair_failures_by_hand(
        "pcq", "qcp", 2, [tuple(row.tolist()) for row in both])


def test_pair_failures_evaluate_each_distinct_theta_once(monkeypatch):
    # two distinct involutions spread over five rows: each table is
    # evaluated once, and each failure is reported for every row that
    # holds the table, in (p, q, theta) order
    comp, theta = complement_table(2), reversed_involution([1, 0])
    stack = np.stack([t.entries for t in (comp, theta, comp, theta, comp)])
    closures = idlab._closure_stack(2).tolist()
    scopes, tables, words = [], [], []

    class Counted(suites.FlatScope):
        def __init__(self, p, q, c=None):
            scopes.append((len(c), sorted({tuple(row) for row in c.tolist()})))
            super().__init__(p, q, c)

        def set_table(self, letter, stack):
            # a stack's letter, or the index of the p row set alone
            tables.append(letter if stack.ndim > 1 else closures.index(stack.tolist()))
            super().set_table(letter, stack)

        def eval(self, word, start=None):
            words.append(word)
            return super().eval(word, start)

    monkeypatch.setattr(suites, "FlatScope", Counted)
    got = _pair_failures("pcq", "qcp", 2, stack)
    assert got == _pair_failures_by_hand(
        "pcq", "qcp", 2, [tuple(row.tolist()) for row in stack])
    assert {t for _, _, t, _ in got} == {0, 1, 2, 3, 4}
    # one scope over 7 q times the 2 distinct tables, shifted once, and
    # per p row walked only p's table replaced and the 2 words evaluated
    # on it.  Relabeling the two points maps {comp, theta} onto itself,
    # so p is screened over the S_2 orbits {0}, {1, 2}, {3}, {4, 5} and
    # {6}: their representatives first, then the other rows of the two
    # orbits that fail
    distinct = sorted({tuple(comp.entries.tolist()), tuple(theta.entries.tolist())})
    assert scopes == [(7 * 2, distinct)]
    assert tables == ["c", "p", "q", 0, 1, 3, 4, 6, 2, 5]
    assert words == ["qcp", "pcq"] * 7


def test_pair_failures_continue_the_left_side_from_the_right(monkeypatch):
    # pcqcpcq ends in pcq, whose p-free suffix cq is evaluated once per
    # call: each p row applies p to cq's tables, then pcqc to pcq's, 5
    # gathers in all.  Thetas that are no involutions refute it, at the
    # pairs and masks of the word by word evaluation.
    stack = np.stack([complement_table(2).entries, [1, 2, 3, 0], [3, 3, 0, 0]])
    closures = idlab._closure_stack(2).tolist()
    rows, words = [], []

    class Counted(suites.FlatScope):
        def set_table(self, letter, stack):
            if stack.ndim == 1:
                rows.append(closures.index(stack.tolist()))
            super().set_table(letter, stack)

        def eval(self, word, start=None):
            words.append((word, start is not None))
            return super().eval(word, start)

    monkeypatch.setattr(suites, "FlatScope", Counted)
    got = _pair_failures("pcqcpcq", "pcq", 2, stack)
    assert got == _pair_failures_by_hand(
        "pcqcpcq", "pcq", 2, [tuple(row) for row in stack.tolist()])
    assert {t for _, _, t, _ in got} == {1, 2}
    assert words == [("cq", False)] + [("p", True), ("pcqc", True)] * 7
    # swapping the two points moves [1, 2, 3, 0] and [3, 3, 0, 0] out of
    # the stack, so each closure is its own orbit, walked in order
    assert rows == list(range(7))


def _remark_stack(n):
    """The thetas of verify remark-involution at ground size n, in its
    order: complement conjugated by each permutation, then each
    involutive permutation's reversed involution."""
    perms = list(permutations(range(n)))
    thetas = [conjugated_involution(pi) for pi in perms]
    thetas += [reversed_involution(pi) for pi in perms if all(pi[pi[x]] == x for x in range(n))]
    return np.stack([t.entries for t in thetas])


@pytest.mark.parametrize("lhs,rhs", [("pq", "qp"), ("pcq", "qcp"), ("pc", "cp")])
def test_pair_failures_expand_each_failing_orbit(lhs, rhs, monkeypatch):
    # the failures of the word by word walk, in its order, over the
    # relabelings that map the thetas onto themselves: all of S_n for
    # complement and the remark stack, the identity alone for tables
    # that swapping the points moves, and {id, (0 1)} for the reversed
    # involution of (0 1) at n = 3.  Screened over all of S_2, pc = cp
    # with [3, 3, 0, 0] would miss failures.
    groups = []
    orbits = idlab._closure_orbits
    monkeypatch.setattr(idlab, "_closure_orbits", lambda n, perms: groups.append(perms) or orbits(n, perms))
    cases = [(n, None, permutations(range(n))) for n in range(4)]
    cases += [(n, _remark_stack(n), permutations(range(n))) for n in (1, 2)]
    cases += [(2, np.array([[1, 2, 3, 0]]), [(0, 1)]), (2, np.array([[3, 3, 0, 0]]), [(0, 1)]),
              (3, reversed_involution([1, 0, 2]).entries[None], [(0, 1, 2), (1, 0, 2)])]
    for n, thetas, group in cases:
        rows = None if thetas is None else [tuple(row) for row in thetas.tolist()]
        got = _pair_failures(lhs, rhs, n, thetas)
        assert got == _pair_failures_by_hand(lhs, rhs, n, rows), (n, rows)
        assert groups.pop() == tuple(group)
        assert got or n < 2


def test_pair_failures_walk_only_the_representatives_of_a_passing_identity(monkeypatch):
    # theorem 1 at n = 3: one p row for each of the 19 S_3 orbits
    closures = idlab._closure_stack(3).tolist()
    rows = []

    class Counted(suites.FlatScope):
        def set_table(self, letter, stack):
            if stack.ndim == 1:
                rows.append(closures.index(stack.tolist()))
            super().set_table(letter, stack)

    monkeypatch.setattr(suites, "FlatScope", Counted)
    assert _pair_failures("pcqcpcq", "pcq", 3) == []
    rep = idlab._closure_orbits(3, tuple(permutations(range(3))))
    assert rows == np.flatnonzero(rep == np.arange(61)).tolist()
    assert len(rows) == 19


def test_kuratowski_suite():
    rep = suite_kuratowski14(3)
    assert rep.passed
    assert "61 closures, max monoid 10" in rep.lines
    assert "monoids over 14: 0" in rep.lines
    assert "hammer kckckck = kck failures: 0" in rep.lines
    assert "witness ground size: 6" in rep.lines
    assert "witness monoid size: 14" in rep.lines
    assert "witness words match canonical list: yes" in rep.lines
    assert "witness seed {1,4} distinct images: 14" in rep.lines
    assert rep.data["witness"]["words"] == list(KURATOWSKI_WORDS)


def test_kuratowski_suite_reports_the_monoid_size_histogram():
    rep = suite_kuratowski14(4)
    assert rep.data["monoid_sizes"] == {2: 1, 4: 1, 6: 28, 8: 699, 10: 1511, 14: 240}
    assert rep.data["separating_seeds"] == 0


def test_kuratowski_suite_checks_every_closure_at_n5():
    # every closure on 5 points, walked in blocks: no monoid over 14, no
    # Hammer failure, and no seed with 14 distinct images, which is
    # what lets the witness search skip n = 5
    rep = suite_kuratowski14(5)
    assert rep.passed
    assert rep.lines[1:5] == [
        "n: 5",
        "1385552 closures, max monoid 14",
        "monoids over 14: 0",
        "hammer kckckck = kck failures: 0",
    ]
    assert rep.data["monoid_sizes"] == {
        2: 1, 4: 1, 6: 81, 8: 149369, 10: 978760, 14: 257340}
    assert rep.data["separating_seeds"] == 0
    assert rep.data["over_14"] == [] and rep.data["hammer_failures"] == []
    assert idlab.WITNESS_FREE_CAP == 5


def test_kuratowski_suite_fails_on_a_separating_seed(monkeypatch):
    # the pinned witness (ground size 6) stands in for the blocks of n = 5
    k, _ = models.kuratowski_witness()
    monkeypatch.setattr(idlab, "_closure_blocks", lambda n: iter([k.entries[None]]))
    rep = suite_kuratowski14(5)
    assert not rep.passed
    assert "closures with a separating seed: 1" in rep.lines
    assert rep.data["separating_seeds"] == 1
    assert rep.data["monoid_sizes"] == {14: 1}


@pytest.mark.parametrize("n", [6, -1])
def test_kuratowski_suite_refuses_n_outside_its_range(monkeypatch, n):
    def never(*args):
        raise AssertionError("built a block for an n out of range")

    monkeypatch.setattr(idlab, "_closure_blocks", never)
    with pytest.raises(ValueError, match=rf"^kuratowski14 screens n in 0\.\.5, got {n}$"):
        suite_kuratowski14(n)


def test_suites_read_the_screens_their_models_carry(monkeypatch):
    # constructors screen, suites read: check_closure runs once per table
    # a constructor builds (example3 at M = 2..12, the featured M reused
    # from them or built once more, plus the literal pair), and interior
    # screens each size as one stack, with no per-closure call
    calls = Counter()

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in ("check_closure", "check_interior"):
        real = getattr(opalg, name)
        for module in (opalg, models, idlab, suites):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, real))
    monkeypatch.setattr(opalg.OperatorTable, "compose",
                        spy("compose", opalg.OperatorTable.compose))
    got = {}
    for name, kwargs in (("lemma6", {}), ("section4", {}), ("example3", {}),
                         ("example3", {"M": 15}), ("interior", {"n": 4})):
        calls.clear()
        assert SUITES[name](**kwargs).passed
        got[name, tuple(kwargs.values())] = calls["check_closure"]
        if name == "interior":
            assert calls == {}
    assert got == {("lemma6", ()): 32, ("section4", ()): 10, ("example3", ()): 24,
                   ("example3", (15,)): 26, ("interior", (4,)): 0}


def test_theorem2_suite_small():
    rep = suite_theorem2(n=2, samples=2)
    assert rep.passed
    parts = rep.data["parts"]
    assert [p["n_blocks"] for p in parts] == [1, 2, 3, 3]
    assert [p["equations"] for p in parts] == [9, 81, 729, 729]
    assert all(p["held"] == p["equations"] for p in parts)
    assert parts[0]["pairs"] == 46
    assert "failures: 0" in rep.lines
    assert any("sampled(n=4,count=2" in ln for ln in rep.lines)
    assert any("sampled(n=5,count=2" in ln for ln in rep.lines)


def test_theorem2_draws_each_sampled_scope_once(monkeypatch):
    calls = []
    real = idlab.sample_commuting_pairs

    def counting(n, seeds, *args):
        calls.append((n, list(seeds)))
        return real(n, seeds, *args)

    monkeypatch.setattr(idlab, "sample_commuting_pairs", counting)
    samples, seed = 25, idlab.DEFAULT_SEED
    assert suite_theorem2().passed
    assert len(calls) == 2
    assert calls == [
        (4, [seed + i for i in range(samples)]),
        (5, [seed + 1000 + i for i in range(samples)]),
    ]


def test_theorem2_prints_sampler_tries_on_comment_lines():
    # one "# " line per sampled part, right after the part's line, with
    # the tries the reference sampler takes on each seed, and the tries
    # drawn and rounds made by the lockstep schedule
    samples, seed = 6, 300
    rep = suite_theorem2(n=1, samples=samples, seed=seed)
    want = []
    for n, first in ((4, seed), (5, seed + 1000)):
        tries = [reference_pair(n, s)[2] for s in range(first, first + samples)]
        drawn, rounds = lockstep_schedule(tries, idlab.SAMPLER_ROUND_TRIES)
        want.append(f"# sampler n={n}: {samples} seeds, {sum(tries)} tries "
                    f"(min/median/max {min(tries)}/{statistics.median(tries):g}/{max(tries)}), "
                    f"{sum(drawn)} drawn in {rounds} rounds")
    comments = [i for i, ln in enumerate(rep.lines) if ln.startswith("# ")]
    assert [rep.lines[i] for i in comments] == want
    assert [rep.lines[i - 1].split(":")[0] for i in comments] == [
        f"n_blocks=3 scope=sampled(n=4,count={samples},seed={seed})",
        f"n_blocks=3 scope=sampled(n=5,count={samples},seed={seed + 1000})",
    ]
    assert "# " not in str(rep.data)
    empty = suite_theorem2(n=1, samples=0)
    assert [ln for ln in empty.lines if ln.startswith("# ")] == [
        "# sampler n=4: 0 seeds, 0 tries, 0 drawn in 0 rounds",
        "# sampler n=5: 0 seeds, 0 tries, 0 drawn in 0 rounds"]


def test_fixtures_suite():
    rep = suite_fixtures(2)
    assert rep.passed
    held = [ln for ln in rep.lines if "no counterexample found" in ln]
    assert len(held) == 6
    demo = [ln for ln in rep.lines if ln.startswith("noncommuting demonstration")]
    assert len(demo) == 1
    idx, size, pi, qi, witness = FIXTURE_FAILURE
    assert f"n={size} p#{pi} q#{qi}" in demo[0]
    assert rep.data["noncommuting_failure"]["commutes"] is False


def test_section4_suite():
    rep = suite_section4(2)
    assert rep.passed
    assert "p closure axioms: PASS" in rep.lines
    assert "flag preservation: PASS" in rep.lines
    assert any(ln.startswith("sandwich p00") for ln in rep.lines)
    assert "distinct images: 2" in rep.lines
    assert "growth pattern 4/8/16: PASS" in rep.lines
    assert rep.data["growth"] == [(4, 4), (8, 8), (16, 16)]
    assert rep.data["orbit"]["images"][0] == "{0,top}"


def test_example3_suite():
    rep = suite_example3(10)
    assert rep.passed
    assert any("literal p monotonicity fails at M=10" in ln for ln in rep.lines)
    assert rep.data["literal_witness"] == [[1], [1, 3]]
    assert rep.data["pq_vs_qp"] == [[0, 1, 2], [0, 1]]
    assert rep.data["monoid_sizes"] == [(8, 17), (16, 33), (32, 65)]
    assert rep.data["orbit_growth"] == [(8, 5), (16, 9), (32, 17)]


def test_lemma6_suite():
    rep = suite_lemma6()
    assert rep.passed
    assert len(rep.data["checks"]) == 16
    assert all(row["ok"] for row in rep.data["checks"])


def test_interior_and_product_suites():
    rep_i = suite_interior(2)
    assert rep_i.passed
    assert rep_i.data["counts"] == [(0, 1, 0), (1, 2, 0), (2, 7, 0)]
    rep_p = suite_pq_closure(2)
    assert rep_p.passed
    assert rep_p.data["counts"] == [(0, 1, 0), (1, 4, 0), (2, 41, 0)]


def test_remark_involution_suite():
    rep = suite_remark_involution(2)
    assert rep.passed
    assert rep.data["pairs"] == 49
    assert rep.data["involutive"] == 2
    assert rep.data["failures"] == []
    assert "failures: 0" in rep.lines


def test_remark_involution_suite_at_n4():
    # 2,480**2 closure pairs times 24 + 10 involutions, screened one
    # relabeling orbit of p at a time
    rep = suite_remark_involution(4)
    assert rep.passed
    assert rep.lines[-4:] == ["closure pairs: 6150400", "checks: 209113600", "failures: 0", "PASS"]


def _verify(capsys, *argv):
    """Exit code, text lines less the "# " header and JSON payload of
    verify argv."""
    code = cli.main(["verify", *argv])
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("# ")]
    assert cli.main(["verify", *argv, "--format", "json"]) == code
    return code, lines, json.loads(capsys.readouterr().out)


#: six made-up failures (p index, q index, theta row, mask) of
#: _pair_failures, one more than a text report lists
_FAKE_PAIR_FAILURES = [(0, 1, 0, 0b01), (2, 3, 3, 0b11), (1, 1, 1, 0), (4, 0, 2, 0b10),
                       (5, 6, 0, 0b01), (6, 6, 3, 0b11)]


def test_theorem1_lists_its_counterexamples_when_it_fails(capsys, monkeypatch):
    monkeypatch.setattr(suites, "_pair_failures", lambda *args: list(_FAKE_PAIR_FAILURES))
    code, lines, payload = _verify(capsys, "theorem1", "--n", "2")
    assert code == 1
    assert lines[5:] == [
        "failures: 6",
        "  counterexample: p#0 q#1 at {0}",
        "  counterexample: p#2 q#3 at {0,1}",
        "  counterexample: p#1 q#1 at {}",
        "  counterexample: p#4 q#0 at {1}",
        "  counterexample: p#5 q#6 at {0}",
        "FAIL",
    ]
    assert payload["failures"] == [
        {"p": 0, "q": 1, "witness": [0]}, {"p": 2, "q": 3, "witness": [0, 1]},
        {"p": 1, "q": 1, "witness": []}, {"p": 4, "q": 0, "witness": [1]},
        {"p": 5, "q": 6, "witness": [0]}, {"p": 6, "q": 6, "witness": [0, 1]},
    ]
    assert payload["passed"] is False


def test_remark_involution_lists_its_counterexamples_when_it_fails(capsys, monkeypatch):
    # at n = 2 the thetas are conjugation by (0, 1) and (1, 0), then
    # the reversal composed with each
    monkeypatch.setattr(suites, "_pair_failures", lambda *args: list(_FAKE_PAIR_FAILURES))
    code, lines, payload = _verify(capsys, "remark-involution", "--n", "2")
    assert code == 1
    assert lines[7:] == [
        "failures: 6",
        "  counterexample: conjugated (0, 1) p#0 q#1 at {0}",
        "  counterexample: reversed (1, 0) p#2 q#3 at {0,1}",
        "  counterexample: conjugated (1, 0) p#1 q#1 at {}",
        "  counterexample: reversed (0, 1) p#4 q#0 at {1}",
        "  counterexample: conjugated (0, 1) p#5 q#6 at {0}",
        "FAIL",
    ]
    assert payload["failures"][:2] == [
        {"kind": "conjugated", "perm": [0, 1], "p": 0, "q": 1, "witness": [0]},
        {"kind": "reversed", "perm": [1, 0], "p": 2, "q": 3, "witness": [0, 1]},
    ]
    assert len(payload["failures"]) == 6
    assert payload["passed"] is False


def test_theorem2_lists_each_equation_that_fails(capsys, monkeypatch):
    # blocks (p, p) give the word p, and p = pqcpq fails at the empty set
    # on the first pair past n = 0, where p and q are the identity
    word = suites.theorem2_word
    monkeypatch.setattr(suites, "theorem2_word",
                        lambda blocks: "p" if blocks == ("p", "p") else word(blocks))
    code, lines, payload = _verify(capsys, "theorem2", "--n", "2", "--samples", "2")
    assert code == 1
    assert lines[2] == ("n_blocks=1 scope=exhaustive-commuting-n<=2:"
                        " 8/9 equations hold over 2 pairs")
    assert lines[-2:] == ["failures: 1", "FAIL"]
    assert [part["failures"] for part in payload["parts"]] == [
        [{"word": "p", "model": "n=1 p#0 q#0", "witness": []}], [], [], []]
    assert [part["held"] for part in payload["parts"]] == [8, 81, 729, 729]
    assert payload["passed"] is False


def test_lemma6_reports_a_pair_that_fails_its_own_screen(capsys, monkeypatch):
    failing = opalg.check_closure(opalg.complement_table(1))
    monkeypatch.setattr(models, "check_closure", lambda table: failing)
    code, lines, payload = _verify(capsys, "lemma6")
    assert code == 1
    assert lines == ["verify lemma6"] + [
        f"m={m} (i,j)=({i},{j}): construction failed:"
        f" pij({i},{j}) at m={m} failed the closure/commute screen"
        for m in (2, 3, 4, 5) for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))] + ["FAIL"]
    assert payload["checks"][:2] == [{"m": 2, "i": 0, "j": 0, "ok": False},
                                     {"m": 2, "i": 1, "j": 0, "ok": False}]
    assert len(payload["checks"]) == 16 and not any(row["ok"] for row in payload["checks"])
    assert payload["passed"] is False


def test_example3_names_each_orbit_that_misses_its_prefixes(capsys, monkeypatch):
    # with p and q swapped at M = 4, pq takes {0} to {0,1}, not {0,1,2}
    build = models.example3

    def swapped(M, variant="repaired"):
        model = build(M, variant)
        return replace(model, p=model.q, q=model.p) if (M, variant) == (4, "repaired") else model

    monkeypatch.setattr(models, "example3", swapped)
    code, lines, payload = _verify(capsys, "example3")
    assert code == 1
    assert [ln for ln in lines if "FAIL" in ln] == [
        "orbit of {0} under pq gives prefixes {0..2n}, floor(M/2)+1 distinct,"
        " even M=2..12: FAIL [4]", "FAIL"]
    assert payload["orbit_failures"] == [4]
    assert payload["passed"] is False


def test_example3_fails_when_the_literal_variant_is_monotone(capsys, monkeypatch):
    build = models.example3
    monkeypatch.setattr(models, "example3", lambda M, variant="repaired": build(M))
    code, lines, payload = _verify(capsys, "example3")
    assert code == 1
    assert lines[4] == "literal p monotonicity unexpectedly holds at M=10"
    assert [ln for ln in lines if "FAIL" in ln] == ["FAIL"]
    assert payload["literal_witness"] is None
    assert payload["passed"] is False


def test_every_suite_ends_with_a_verdict_line():
    quick = {
        "theorem1": lambda: suite_theorem1(2),
        "kuratowski14": lambda: suite_kuratowski14(2),
        "theorem2": lambda: suite_theorem2(n=1, samples=1),
        "fixtures": lambda: suite_fixtures(2),
        "section4": lambda: suite_section4(2),
        "example3": lambda: suite_example3(6),
        "lemma6": lambda: suite_lemma6(),
        "interior": lambda: suite_interior(2),
        "pq-closure": lambda: suite_pq_closure(2),
        "remark-involution": lambda: suite_remark_involution(2),
    }
    assert sorted(quick) == sorted(SUITES)
    for name, run in quick.items():
        rep = run()
        assert rep.name == name
        assert rep.lines[-1] in ("PASS", "FAIL")
        assert rep.passed, name
        assert rep.data["passed"] is True
