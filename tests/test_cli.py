"""End to end checks for the command line interface.

Everything runs in process through main(argv) so exit codes and
output bytes are observable without spawning a subprocess.
"""

import argparse
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import cli, idlab, models
from closurelab import monoid as monoid_mod
from closurelab.opalg import complement_table, elements_of
from closurelab.suites import KURATOWSKI_WORDS, SUITES, SuiteReport

from _oracles import monoid_payload


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def drop_comment_lines(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("# "))


# ---------------------------------------------------------------------------
# verify


def test_verify_text_header_and_verdict(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem1")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# closurelab verify theorem1"
    assert lines[1].startswith("# generated: ")
    assert "closures: 7" in lines
    assert lines[-1] == "PASS"


def test_verify_text_deterministic_after_header(capsys):
    _, first, _ = run_cli(capsys, "verify", "theorem1")
    _, second, _ = run_cli(capsys, "verify", "theorem1")
    assert drop_comment_lines(first) == drop_comment_lines(second)


def test_verify_json_byte_identical(capsys):
    code, first, _ = run_cli(capsys, "verify", "theorem1", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "theorem1", "--format", "json")
    assert code == 0
    assert first == second
    data = json.loads(first)
    assert data["passed"] is True


def test_verify_workers_do_not_change_report(capsys):
    _, serial, _ = run_cli(capsys, "verify", "theorem1", "--workers", "1")
    _, parallel, _ = run_cli(capsys, "verify", "theorem1", "--workers", "2")
    assert drop_comment_lines(serial) == drop_comment_lines(parallel)


def test_verify_scope_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "interior", "--n", "2")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_rejects_csv_format(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem1", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "text or json" in err


def test_verify_out_of_range_scope_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "theorem1", "--n", "5")
    assert code == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize("name,flag,low,high", [
    ("theorem1", "--n", 0, 4), ("kuratowski14", "--n", 0, 5),
    ("theorem2", "--n", 0, 3), ("fixtures", "--n", 0, 3),
    ("section4", "--m", 2, 9), ("example3", "--M", 2, 19),
    ("interior", "--n", 0, 4), ("pq-closure", "--n", 0, 3),
    ("remark-involution", "--n", 0, 4),
])
def test_verify_scope_flags_are_checked_before_the_suite_runs(
        capsys, monkeypatch, name, flag, low, high):
    calls = []

    def stub(**kwargs):
        calls.append(kwargs[flag.lstrip("-")])
        return SuiteReport(name, True, ["stub"], {})

    monkeypatch.setitem(SUITES, name, stub)
    for value in (low - 1, high + 1):
        code, out, err = run_cli(capsys, "verify", name, flag, str(value))
        assert (code, out) == (2, "")
        assert err.startswith("usage error:") and f"{low}..{high}" in err
    assert calls == []
    for value in (low, high):
        assert run_cli(capsys, "verify", name, flag, str(value))[0] == 0
    assert calls == [low, high]


def test_verify_samples_cap_is_checked_before_the_suite_runs(capsys, monkeypatch):
    # the scope-flag check above for --samples: a count below 1 or over
    # the cap is refused before the suite draws a seed
    cap = idlab.SAMPLE_COUNT_CAP
    assert cap == 10_000
    calls = []

    def stub(**kwargs):
        calls.append(kwargs["samples"])
        return SuiteReport("theorem2", True, ["stub"], {})

    monkeypatch.setitem(SUITES, "theorem2", stub)
    for value in (0, cap + 1):
        code, out, err = run_cli(capsys, "verify", "theorem2", "--samples", str(value))
        assert (code, out) == (2, "")
        assert err == f"usage error: verify theorem2 takes --samples 1..{cap}, got {value}\n"
    assert calls == []
    for value in (1, cap):
        assert run_cli(capsys, "verify", "theorem2", "--samples", str(value))[0] == 0
    assert calls == [1, cap]


def test_verify_negative_seed_is_a_usage_error(capsys, monkeypatch):
    # random.Random(-s) replays random.Random(s), so a negative seed
    # would sample its absolute value's pairs again; it is refused
    # before the suite draws anything, and seed 0 is accepted
    calls = []

    def stub(**kwargs):
        calls.append(kwargs["seed"])
        return SuiteReport("theorem2", True, ["stub"], {})

    monkeypatch.setitem(SUITES, "theorem2", stub)
    code, out, err = run_cli(capsys, "verify", "theorem2", "--seed", "-12")
    assert (code, out) == (2, "")
    assert err == "usage error: verify theorem2 takes --seed 0 or more, got -12\n"
    assert calls == []
    assert run_cli(capsys, "verify", "theorem2", "--seed", "0")[0] == 0
    assert calls == [0]


def test_verify_passes_only_the_flags_that_are_set(capsys, monkeypatch):
    # a flag left unset takes the suite's own default
    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return SuiteReport("stub", True, ["stub"], {})

    for name in ("theorem1", "section4", "lemma6", "theorem2"):
        monkeypatch.setitem(SUITES, name, stub)
    assert run_cli(capsys, "verify", "theorem1")[0] == 0
    assert run_cli(capsys, "verify", "theorem1", "--n", "3")[0] == 0
    assert run_cli(capsys, "verify", "section4", "--m", "3")[0] == 0
    assert run_cli(capsys, "verify", "lemma6")[0] == 0
    assert run_cli(capsys, "verify", "theorem2", "--samples", "2")[0] == 0
    assert run_cli(capsys, "verify", "theorem2", "--seed", "5", "--n", "1")[0] == 0
    assert calls == [{}, {"n": 3}, {"m": 3}, {}, {"samples": 2}, {"n": 1, "seed": 5}]


@pytest.mark.parametrize("argv", [
    ["verify", "lemma6", "--n", "3"],
    ["verify", "lemma6", "--M", "5"],
    ["verify", "theorem1", "--samples", "3"],
    ["verify", "theorem1", "--n", "3", "--m", "4"],
    ["verify", "section4", "--n", "3"],
    ["verify", "fixtures", "--seed", "5"],
    ["search", "witness14", "--n", "2"],
    ["search", "identities", "--eq", "p=p"],
    ["search", "counterexample", "--eq", "p=p", "--maxlen", "5"],
    ["search", "counterexample", "--eq", "p=p", "--limit", "5"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("ran despite an unread flag")

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, never)
    for name in ("search_identities", "search_counterexample", "find_kuratowski_witness"):
        monkeypatch.setattr(idlab, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {argv[0]} {argv[1]} does not take {argv[-2]}\n"


@pytest.mark.parametrize("argv,command", [
    (["search", "identities", "--format", "csv"], "search"),
    (["dump", "model", "--name", "section4", "--format", "text"], "dump model"),
    (["dump", "hasse", "--model", "witness14", "--format", "csv"], "dump hasse"),
    (["dump", "orbit", "--model", "section4", "--word", "p", "--start", "0",
      "--format", "text"], "dump orbit"),
])
def test_a_format_the_command_does_not_render_is_a_usage_error(
        capsys, monkeypatch, argv, command):
    def never(*args, **kwargs):
        raise AssertionError("ran despite an unrendered format")

    monkeypatch.setattr(idlab, "search_identities", never)
    monkeypatch.setattr(models, "section4_model", never)
    monkeypatch.setattr(models, "kuratowski_witness", never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"{command} supports --format ")


@pytest.mark.parametrize("verb", ["search", "dump"])
def test_seed_is_a_verify_flag_only(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "witness14" if verb == "search" else "model", "--seed", "5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(**kwargs):
        raise ValueError("internal fault")

    monkeypatch.setitem(SUITES, "lemma6", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["verify", "lemma6"])
    assert "usage error" not in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--samples", "0"), ("--samples", "-3"), ("--workers", "0"), ("--workers", "-2"),
])
def test_counts_below_one_are_usage_errors(capsys, monkeypatch, flag, value):
    # --workers is rejected while parsing and --samples by its flag
    # bounds, both before any suite runs
    def never(**kwargs):
        raise AssertionError("ran despite a count below 1")

    monkeypatch.setitem(SUITES, "theorem2", never)
    argv = ["verify", "theorem2", "--n", "1", flag, value]
    if flag == "--samples":
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"usage error: verify theorem2 takes --samples"
                       f" 1..{idlab.SAMPLE_COUNT_CAP}, got {value}\n")
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_unknown_suite_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def _verb_parsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_the_parser_accepts_has_one_flag_table_entry():
    # every (verb, target) the parser accepts has its entry in the flag
    # table, each flag an entry names is a flag of that verb's parser,
    # and the commands that need a flag mark it _NEEDED
    commands = []
    for verb, sub in _verb_parsers().items():
        flags = {a.dest for a in sub._actions if a.option_strings}
        targets = next(a for a in sub._actions if a.dest == "target").choices
        for target in targets:
            command = f"{verb} {target}"
            commands.append(command)
            assert set(cli._FLAGS[command]) <= flags - set(cli._SHARED), command
    assert sorted(commands) == sorted(cli._FLAGS)
    needed = {c for c, bounds in cli._FLAGS.items() if cli._NEEDED in bounds.values()}
    assert needed == {"search counterexample", "dump model", "dump monoid", "dump orbit",
                      "dump hasse"}


def test_verify_takes_the_suites_as_its_targets():
    targets = next(a for a in _verb_parsers()["verify"]._actions if a.dest == "target").choices
    assert targets == sorted(SUITES)


def test_each_flag_parses_to_the_type_its_bounds_give():
    # an int for a bounded flag, text for one that takes any value
    for verb, sub in _verb_parsers().items():
        actions = {a.dest: a for a in sub._actions}
        for command, bounds in cli._FLAGS.items():
            if command.startswith(verb + " "):
                for flag, bound in bounds.items():
                    text = bound in (cli._ANY, cli._NEEDED)
                    assert actions[flag].type is (str if text else int), (command, flag)


def test_a_flag_has_one_help_text_under_every_verb():
    helps = {}
    for verb, sub in _verb_parsers().items():
        for action in sub._actions:
            if action.dest in cli._HELP:
                helps.setdefault(action.dest, set()).add(action.help)
    assert helps == {flag: {text} for flag, text in cli._HELP.items()}


def test_an_abbreviated_flag_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setitem(SUITES, "theorem2", lambda **kwargs: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "theorem2", "--sam", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sam 5" in capsys.readouterr().err


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    # a dump with --cap, one without it, a usage error and a verify give
    # in one sequence the exit codes and bodies each gives alone
    calls = [
        ["dump", "monoid", "--model", "witness14", "--cap", "3"],
        ["dump", "monoid", "--model", "witness14"],
        ["dump", "hasse", "--model", "witness14", "--n", "3"],  # refused by the parser
        ["verify", "lemma6"],
    ]

    def run(argv):
        try:
            code, out, err = run_cli(capsys, *argv)
        except SystemExit as stop:
            code, out, err = stop.code, *capsys.readouterr()
        return code, drop_comment_lines(out), err

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert [run(argv) for argv in calls] == alone
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [0, 0, 2, 0]
    assert json.loads(alone[0][1])["truncated"] and not json.loads(alone[1][1])["truncated"]


# ---------------------------------------------------------------------------
# search


def test_search_identities_text(capsys):
    code, out, _ = run_cli(capsys, "search", "identities", "--maxlen", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "search identities maxlen=5 scope=exhaustive-commuting-n<=2"
    assert lines[1] == "words examined: 94"
    assert lines[2] == "equations found: 43"
    assert len(lines) == 3 + 43
    assert "qp = pq" in lines


def test_search_identities_json(capsys):
    code, out, _ = run_cli(capsys, "search", "identities", "--maxlen", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 43
    assert payload[0] == {
        "lhs": "qp",
        "rhs": "pq",
        "scope": "exhaustive-commuting-n<=2",
        "status": "holds",
    }
    assert all(entry["status"] == "holds" for entry in payload)


@pytest.mark.parametrize("kind,flag,low,high", [
    ("identities", "--n", 0, 3), ("identities", "--maxlen", 0, 16),
    ("identities", "--limit", 0, None), ("counterexample", "--n", 0, 3),
])
def test_search_flags_are_checked_before_any_work(
        capsys, monkeypatch, kind, flag, low, high):
    calls = []

    def stub_identities(maxlen, n=2, limit=None):
        calls.append((maxlen, n, limit))
        return [], "stub", 1

    def stub_counterexample(lhs, rhs, max_n=2):
        calls.append(max_n)
        return idlab.EquationCertificate(lhs, rhs, "stub", "holds")

    monkeypatch.setattr(idlab, "search_identities", stub_identities)
    monkeypatch.setattr(idlab, "search_counterexample", stub_counterexample)
    extra = ["--eq", "pq=qp"] if kind == "counterexample" else []
    bad = [low - 1] if high is None else [low - 1, high + 1]
    for value in bad:
        code, out, err = run_cli(capsys, "search", kind, flag, str(value), *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: search {kind} takes {flag} {low}")
    assert calls == []
    for value in [low] if high is None else [low, high]:
        assert run_cli(capsys, "search", kind, flag, str(value), *extra)[0] in (0, 1)
    assert len(calls) == (1 if high is None else 2)


def test_search_identities_limit_zero_lists_no_equation(capsys):
    code, out, _ = run_cli(capsys, "search", "identities", "--maxlen", "5",
                           "--limit", "0")
    assert code == 0
    assert out.splitlines()[1:] == ["words examined: 94", "equations found: 0"]


def test_search_counterexample_refuted_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "search", "counterexample", "--eq", "pq=qp")
    assert code == 0
    assert out.splitlines()[0] == "search counterexample pq = qp"
    assert "refuted: pq != qp on " in out


def test_search_counterexample_held_exits_one(capsys):
    code, out, _ = run_cli(capsys, "search", "counterexample", "--eq", "pp=p")
    assert code == 1
    assert out == ("search counterexample pp = p\n"
                   "no counterexample found (exhaustive-all-n<=2)\n")


def test_search_counterexample_reads_and_spells_the_empty_word_as_1(capsys):
    code, out, _ = run_cli(capsys, "search", "counterexample", "--eq", "c=1", "--n", "0")
    assert (code, out) == (1, "search counterexample c = 1\n"
                              "no counterexample found (exhaustive-all-n<=0)\n")
    code, out, _ = run_cli(capsys, "search", "counterexample", "--eq", "p = 1")
    head, summary = out.splitlines()
    assert (code, head) == (0, "search counterexample p = 1")
    assert summary.startswith("refuted: p != 1 on ")
    # an empty side is spelled 1 too; JSON keeps the empty word
    code, out, _ = run_cli(capsys, "search", "counterexample", "--eq", "cc=")
    assert (code, out.splitlines()[0]) == (1, "search counterexample cc = 1")
    code, out, _ = run_cli(capsys, "search", "counterexample", "--eq", "p=1", "--format", "json")
    assert (code, json.loads(out)["rhs"]) == (0, "")
    # 1 is a whole side, not a letter
    code, out, err = run_cli(capsys, "search", "counterexample", "--eq", "pq=q1")
    assert (code, out, err) == (2, "", "usage error: unknown letter '1' at position 1\n")


def test_identities_round_trip_through_the_counterexample_search(capsys):
    # each equation the identity search prints, the empty word spelled
    # 1, holds again when given back as --eq over the same scope
    code, out, _ = run_cli(capsys, "search", "identities", "--n", "0", "--maxlen", "2")
    equations = out.splitlines()[3:]
    assert code == 0 and "c = 1" in equations
    for equation in equations:
        code, out, _ = run_cli(capsys, "search", "counterexample", "--n", "0",
                               "--eq", equation.replace(" ", ""))
        assert (code, out.splitlines()[0]) == (1, f"search counterexample {equation}")


def test_search_counterexample_parses_both_words_before_the_search(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(idlab, "search_counterexample", lambda *args, **kw: calls.append(args))
    for eq in ("px=p", "p=qx", "pq = q1"):
        code, out, err = run_cli(capsys, "search", "counterexample", "--eq", eq)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: unknown letter")
    assert calls == []


def test_search_counterexample_internal_value_error_is_not_a_usage_error(
        capsys, monkeypatch):
    def broken(lhs, rhs, max_n=2):
        raise ValueError("internal fault")

    monkeypatch.setattr(idlab, "search_counterexample", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["search", "counterexample", "--eq", "pq=qp"])
    assert "usage error" not in capsys.readouterr().err


@pytest.mark.parametrize("n,maxlen,limit", [
    (0, 5, None), (1, 7, None), (2, 9, None), (3, 6, None), (2, 9, 7), (2, 9, 0),
    (2, 0, None),
])
def test_search_identities_json_streams_the_bytes_of_json_dumps(
        capsys, tmp_path, n, maxlen, limit):
    argv = ["search", "identities", "--format", "json", "--n", str(n), "--maxlen", str(maxlen)]
    argv += [] if limit is None else ["--limit", str(limit)]
    equations, scope, _ = idlab.search_identities(maxlen, n=n, limit=limit)
    payload = [{"lhs": lhs, "rhs": rhs, "scope": scope, "status": "holds"}
               for lhs, rhs in equations]
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert run_cli(capsys, *argv) == (0, want, "")
    target = tmp_path / "identities.json"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == want


def test_search_counterexample_flag_errors(capsys):
    code, out, err = run_cli(capsys, "search", "counterexample")
    assert (code, out, err) == (2, "", "search counterexample requires --eq\n")

    code, out, err = run_cli(capsys, "search", "counterexample", "--eq", "pqqp")
    assert (code, out, err) == (
        2, "", "usage error: search counterexample takes --eq LHS=RHS, got 'pqqp'\n")

    code, _, err = run_cli(capsys, "search", "counterexample", "--eq", "px=p")
    assert code == 2
    assert "unknown letter" in err


def test_search_witness14_text(capsys):
    code, out, _ = run_cli(capsys, "search", "witness14")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "search witness14"
    assert lines[1] == "ground size: 6"
    fixed = lines[2].removeprefix("fixed points: ").split(" ")
    assert len(fixed) == 20
    assert lines[3] == "seed: {1,4}"


def test_a_check_that_cannot_run_exits_1_and_prints_no_report(capsys, monkeypatch):
    # a sampler that finds no pair, or a search that finds no witness,
    # is a failed check: one line on stderr, nothing on stdout
    def no_pair(n, seeds, max_tries=2000):
        raise RuntimeError(f"no commuting pair found in {max_tries} tries (seed {seeds[0]})")

    def no_witness():
        raise RuntimeError("no separating 14-element witness found at n <= 6")

    monkeypatch.setattr(idlab, "sample_commuting_pairs", no_pair)
    monkeypatch.setattr(idlab, "find_kuratowski_witness", no_witness)
    assert run_cli(capsys, "verify", "theorem2") == (
        1, "", "check failed: no commuting pair found in 2000 tries"
               f" (seed {idlab.DEFAULT_SEED})\n")
    assert run_cli(capsys, "search", "witness14", "--format", "json") == (
        1, "", "check failed: no separating 14-element witness found at n <= 6\n")


# ---------------------------------------------------------------------------
# dump


def test_dump_model_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dump", "model", "--name", "example3-repaired",
                           "--M", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload == models.example3(8).to_json()


def test_dump_model_names_select_variants(capsys):
    _, out, _ = run_cli(capsys, "dump", "model", "--name", "example3-literal", "--M", "6")
    assert json.loads(out) == models.example3(6, variant="literal").to_json()

    for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
        _, out, _ = run_cli(capsys, "dump", "model", "--name", f"pij({i},{j})", "--m", "3")
        assert json.loads(out) == models.pij_pair(i, j, 3).to_json()

    _, out, _ = run_cli(capsys, "dump", "model", "--name", "section4", "--m", "3")
    assert json.loads(out) == models.section4_model(3).to_json()


def test_dump_model_flag_errors(capsys):
    code, _, err = run_cli(capsys, "dump", "model")
    assert code == 2
    assert "--name" in err

    code, _, err = run_cli(capsys, "dump", "model", "--name", "bogus")
    assert code == 2
    assert err.startswith("usage error:")

    # an empty name is given, and names no model
    code, _, err = run_cli(capsys, "dump", "model", "--name", "")
    assert (code, err) == (2, "usage error: unknown model name ''\n")

    code, _, err = run_cli(capsys, "dump", "model", "--name", "pij(1)")
    assert code == 2
    assert "pij" in err


@pytest.mark.parametrize("argv,flag,bounds", [
    (["dump", "model", "--name", "section4", "--m", "1"], "--m", "2..1024"),
    (["dump", "orbit", "--model", "section4", "--m", "0", "--word", "p", "--start", "0"],
     "--m", "2..1024"),
    (["dump", "model", "--name", "example3", "--M", "20"], "--M", "2..19"),
    (["dump", "monoid", "--model", "example3", "--M", "1", "--gens", "p"], "--M", "2..19"),
    (["dump", "hasse", "--model", "witness14", "--cap", "0"], "--cap", "1 or more"),
    (["dump", "orbit", "--model", "section4", "--word", "p", "--start", "0",
      "--iters", "0"], "--iters", "1..4096"),
    # an orbit of the flagged cycle walks it as functions at any size,
    # so the window and the walk are bounded
    (["dump", "orbit", "--model", "section4", "--m", "1025", "--word", "cpcpcqcq",
      "--start", "0,top"], "--m", "2..1024"),
    (["dump", "orbit", "--model", "section4", "--m", "8", "--word", "cpcpcqcq",
      "--start", "0,top", "--iters", "4097"], "--iters", "1..4096"),
])
def test_dump_flags_are_checked_before_any_work(capsys, monkeypatch, argv, flag, bounds):
    def never(*args, **kwargs):
        raise AssertionError("ran despite a flag out of range")

    for name in ("section4_model", "example3", "pij_pair", "kuratowski_witness"):
        monkeypatch.setattr(models, name, never)
    for name in ("generate_monoid", "hasse", "orbit"):
        monkeypatch.setattr(monoid_mod, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    value = argv[argv.index(flag) + 1]
    assert err == f"usage error: dump {argv[1]} takes {flag} {bounds}, got {value}\n"


@pytest.mark.parametrize("argv,flag", [
    (["dump", "model", "--name", "pij(1,0)", "--iters", "5", "--cap", "3", "--gens", "p",
      "--word", "p"], "--iters"),
    (["dump", "model", "--name", "section4", "--gens", "p"], "--gens"),
    (["dump", "model", "--name", "section4", "--model", "witness14"], "--model"),
    (["dump", "model", "--name", "section4", "--start", "0"], "--start"),
    (["dump", "monoid", "--model", "witness14", "--word", "k"], "--word"),
    (["dump", "monoid", "--model", "witness14", "--name", "section4"], "--name"),
    (["dump", "hasse", "--model", "witness14", "--iters", "3"], "--iters"),
    (["dump", "orbit", "--model", "section4", "--word", "p", "--start", "0", "--cap", "9"],
     "--cap"),
    (["dump", "orbit", "--model", "section4", "--word", "p", "--start", "0", "--gens", "p"],
     "--gens"),
])
def test_dump_refuses_a_flag_its_target_does_not_read(capsys, monkeypatch, argv, flag):
    def never(*args, **kwargs):
        raise AssertionError("ran despite an unread flag")

    for name in ("section4_model", "example3", "pij_pair", "kuratowski_witness"):
        monkeypatch.setattr(models, name, never)
    for name in ("generate_monoid", "hasse", "orbit"):
        monkeypatch.setattr(monoid_mod, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: dump {argv[1]} does not take {flag}\n"


@pytest.mark.parametrize("argv,model,flag", [
    (["dump", "monoid", "--model", "witness14", "--m", "5"], "witness14", "--m"),
    (["dump", "hasse", "--model", "witness14", "--M", "5"], "witness14", "--M"),
    (["dump", "model", "--name", "example3-repaired", "--m", "5"], "example3-repaired", "--m"),
    (["dump", "monoid", "--model", "example3", "--m", "3", "--gens", "p"], "example3", "--m"),
    (["dump", "model", "--name", "section4", "--M", "5"], "section4", "--M"),
    (["dump", "model", "--name", "pij(0,1)", "--M", "5"], "pij(0,1)", "--M"),
    (["dump", "orbit", "--model", "example3-repaired", "--m", "3", "--word", "pq",
      "--start", "0"], "example3-repaired", "--m"),
    # with both window flags, --m is named whatever the hash seed
    (["dump", "hasse", "--model", "witness14", "--M", "5", "--m", "5"], "witness14", "--m"),
])
def test_dump_refuses_a_window_flag_its_model_does_not_read(capsys, monkeypatch, argv,
                                                            model, flag):
    # --M is for example3 only, --m for section4 and pij, and witness14
    # takes neither: refused before any model is built
    def never(*args, **kwargs):
        raise AssertionError("built a model despite an unread window flag")

    for name in ("section4_model", "example3", "pij_pair", "kuratowski_witness"):
        monkeypatch.setattr(models, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: model {model} does not take {flag}\n"


def test_dump_takes_the_flags_its_target_reads(capsys):
    # and the hidden --workers, which every command still accepts
    code, out, _ = run_cli(capsys, "dump", "monoid", "--model", "witness14", "--gens", "k",
                           "--cap", "20", "--workers", "1")
    assert code == 0 and json.loads(out)["witnesses"] == ["", "k"]
    # a header and the start, then one row per step: 2, or by default up
    # to 10 (this orbit cycles after 7)
    for iters, rows in ((["--iters", "2"], 4), ([], 9)):
        code, out, _ = run_cli(capsys, "dump", "orbit", "--model", "section4", "--m", "8",
                               "--word", "cpcpcqcq", "--start", "0,top", *iters,
                               "--workers", "1")
        assert code == 0 and len(out.splitlines()) == rows
    code, out, _ = run_cli(capsys, "dump", "model", "--name", "example3", "--M", "4",
                           "--workers", "1")
    assert code == 0 and json.loads(out) == models.example3(4).to_json()


def test_dump_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(monoid):
        raise ValueError("internal fault")

    monkeypatch.setattr(monoid_mod, "hasse", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["dump", "hasse", "--model", "witness14"])
    assert "usage error" not in capsys.readouterr().err


def test_dump_fault_while_building_its_model_is_not_a_usage_error(capsys, monkeypatch):
    # the model is built outside the usage-error handler
    def broken(which, m):
        raise ValueError("internal fault")

    monkeypatch.setattr(models, "_flavors", broken)
    for argv in (["model", "--name", "section4"], ["monoid", "--model", "pij(1,0)", "--gens", "p"],
                 ["orbit", "--model", "section4", "--m", "12", "--word", "p", "--start", "0"]):
        with pytest.raises(ValueError, match="internal fault"):
            cli.main(["dump", *argv])
        assert "usage error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv,model,m,n", [
    (["model", "--name", "section4", "--m", "10"], "section4", 10, 22),
    (["model", "--name", "pij(1,0)", "--m", "11"], "pij(1,0)", 11, 22),
    (["monoid", "--model", "pij(0,0)", "--m", "1024", "--gens", "p"], "pij(0,0)", 1024, 2048),
    # named before a --cap past the entry bound
    (["hasse", "--model", "section4", "--m", "10", "--gens", "p,q,c", "--cap", "100000"],
     "section4", 10, 22),
    (["orbit", "--model", "pij(0,1)", "--m", "11", "--word", "p", "--start", "0"],
     "pij(0,1)", 11, 22),
])
def test_dump_refuses_a_model_past_the_table_cap(capsys, monkeypatch, argv, model, m, n):
    # one message for every table model, before anything is built; an
    # orbit of the flagged cycle walks functions and takes any --m
    def never(*args, **kwargs):
        raise AssertionError("built a model past the table cap")

    for name in ("section4_model", "pij_pair"):
        monkeypatch.setattr(models, name, never)
    monkeypatch.setattr(monoid_mod, "generate_monoid", never)
    err = f"usage error: model {model} at --m {m} has ground size {n}, past the table cap 20\n"
    assert run_cli(capsys, "dump", *argv) == (2, "", err)


def test_dump_hasse_of_a_truncated_monoid_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "dump", "hasse", "--model", "witness14", "--cap", "5")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: dump hasse") and "--cap 5" in err


def test_dump_cap_is_bounded_by_table_entries(capsys, monkeypatch):
    # --cap elements of 2**n entries each may not pass DUMP_ENTRIES_CAP:
    # at M = 12 (n = 13) --cap 10000 would hold about 82 million
    # entries, refused before any model is built or the BFS allocates
    # anything; the ground size follows from the model name and window
    def never(*args, **kwargs):
        raise AssertionError("built a model or monoid despite a --cap past the entry bound")

    monkeypatch.setattr(monoid_mod, "generate_monoid", never)
    for name in ("section4_model", "example3", "pij_pair", "kuratowski_witness"):
        monkeypatch.setattr(models, name, never)
    for what in ("monoid", "hasse"):
        for window, cap, n in ((("--M", "12"), "10000", 13), (("--M", "12"), "513", 13),
                               (("--M", "19"), "100000", 20)):
            code, out, err = run_cli(capsys, "dump", what, "--model", "example3-repaired",
                                     *window, "--gens", "p,q,c", "--cap", cap)
            assert (code, out) == (2, "")
            assert err == (f"usage error: dump {what} takes --cap"
                           f" 1..{cli.DUMP_ENTRIES_CAP >> n} at ground size {n}, got {cap}\n")
    for model, window, n in (("section4", ("--m", "9"), 20), ("pij(1,0)", ("--m", "5"), 10),
                             ("witness14", (), 6)):
        code, out, err = run_cli(capsys, "dump", "monoid", "--model", model, *window,
                                 "--cap", "100000")
        assert (code, out) == (2, "")
        assert err.endswith(f" at ground size {n}, got 100000\n")
    assert cli.DUMP_ENTRIES_CAP >> 13 == 512


def test_dump_default_cap_fits_the_entry_bound(capsys, monkeypatch):
    # an unset --cap is DEFAULT_CAP, cut to DUMP_ENTRIES_CAP >> n where
    # that is less; a --cap within the bound is taken as given
    caps = []
    real = monoid_mod.generate_monoid

    def spy(generators, cap, names):
        caps.append((generators[0].ground_size, cap))
        return real(generators, cap=3, names=names)

    monkeypatch.setattr(monoid_mod, "generate_monoid", spy)
    for argv in (("--M", "12"), ("--M", "12", "--cap", "512"), ("--M", "6"),
                 ("--M", "6", "--cap", "32768")):
        code, _, _ = run_cli(capsys, "dump", "monoid", "--model", "example3-repaired",
                             *argv, "--gens", "p,q,c")
        assert code == 0
    assert caps == [(13, 512), (13, 512), (7, monoid_mod.DEFAULT_CAP), (7, 32768)]


def test_dump_has_no_n_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dump", "monoid", "--model", "witness14", "--n", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n" in captured.err


def test_dump_monoid_witness14(capsys):
    code, out, _ = run_cli(capsys, "dump", "monoid", "--model", "witness14",
                           "--gens", "k,c")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 14
    assert payload["truncated"] is False
    assert tuple(payload["witnesses"]) == ("",) + KURATOWSKI_WORDS[1:]


def test_dump_monoid_gens_validation(capsys):
    code, _, err = run_cli(capsys, "dump", "monoid", "--model", "example3")
    assert code == 2  # default gens are c,k but the model offers p,q,c
    assert "not available" in err

    code, _, err = run_cli(capsys, "dump", "monoid")
    assert code == 2
    assert "--model" in err


@pytest.mark.parametrize("argv,err", [
    # the default c,k on a model that offers p, q and c: at M = 19 the
    # model alone would take about 0.3 s and 70 MB
    (["dump", "monoid", "--model", "example3", "--M", "19"],
     "generators ['k'] not available for model example3 (available: ['c', 'p', 'q'])"),
    (["dump", "hasse", "--model", "section4", "--m", "3", "--gens", "p,k,c"],
     "generators ['k'] not available for model section4 (available: ['c', 'p', 'q'])"),
    (["dump", "monoid", "--model", "pij(1,0)", "--gens", ","],
     "generators [] not available for model pij(1,0) (available: ['c', 'p', 'q'])"),
    (["dump", "hasse", "--model", "witness14", "--gens", "k,p,q"],
     "generators ['p', 'q'] not available for model witness14 (available: ['c', 'k'])"),
])
def test_dump_gens_are_checked_before_the_model_is_built(capsys, monkeypatch, argv, err):
    def never(*args, **kwargs):
        raise AssertionError("built a model for generators it does not offer")

    for name in ("section4_model", "example3", "pij_pair", "kuratowski_witness"):
        monkeypatch.setattr(models, name, never)
    monkeypatch.setattr(monoid_mod, "generate_monoid", never)
    assert run_cli(capsys, *argv) == (2, "", err + "\n")


def test_dump_monoid_example3_closure_pair(capsys):
    code, out, _ = run_cli(capsys, "dump", "monoid", "--model", "example3",
                           "--M", "8", "--gens", "p,q")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 17


def test_dump_hasse_witness14(capsys):
    code, out, _ = run_cli(capsys, "dump", "hasse", "--model", "witness14",
                           "--gens", "k,c")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 14
    assert "1" in payload["nodes"]
    assert len(payload["edges"]) == 16
    assert ["1", "k"] in payload["edges"]
    assert ["ckc", "1"] in payload["edges"]
    for lo, hi in payload["edges"]:
        assert lo in payload["nodes"] and hi in payload["nodes"]


def test_dump_orbit_csv(capsys):
    code, out, _ = run_cli(capsys, "dump", "orbit", "--model", "section4",
                           "--m", "4", "--word", "pq", "--start", "0,top")
    assert code == 0
    assert out == ('step,image\r\n'
                   '0,"{0,top}"\r\n'
                   '1,"{0,1,2,3,4,5,6,7,top}"\r\n')


def test_dump_orbit_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "dump", "orbit", "--model", "section4",
                           "--m", "4", "--word", "p", "--start", "0,top",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    model = models.section4_model(4)
    rep = monoid_mod.orbit("p", model, model.mask_of_names("0,top"), max_iter=10)
    assert payload["word"] == "p"
    assert payload["start"] == model.format_mask(rep.start)
    assert payload["images"] == [model.format_mask(a) for a in rep.images]
    assert payload["cycle_entry"] == rep.cycle_entry
    assert payload["truncated"] == rep.truncated


def test_dump_orbit_missing_flags(capsys):
    code, out, err = run_cli(capsys, "dump", "orbit", "--model", "section4")
    assert (code, out) == (2, "")
    assert err == "dump orbit requires --word, --start\n"


def test_dump_orbit_takes_an_empty_start_or_word(capsys):
    # a flag is missing only when it is absent: "" is the empty set to
    # --start and the identity word to --word, and both have orbits
    model = models.section4_model(4)
    for word, start in (("cpcpcqcq", ""), ("", "0,top"), ("", "")):
        code, out, err = run_cli(capsys, "dump", "orbit", "--model", "section4",
                                 "--word", word, "--start", start, "--format", "json")
        rep = monoid_mod.orbit(word, model, model.mask_of_names(start), max_iter=10)
        assert (code, err) == (0, "")
        assert json.loads(out)["images"] == [model.format_mask(a) for a in rep.images]
    code, out, _ = run_cli(capsys, "dump", "orbit", "--model", "section4",
                           "--word", "cpcpcqcq", "--start", "")
    assert (code, out) == (0, "step,image\r\n0,{}\r\n")


def test_dump_orbit_word_that_does_not_parse_is_a_usage_error(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built a model for a word that does not parse")

    monkeypatch.setattr(models, "section4_model", never)
    code, out, err = run_cli(capsys, "dump", "orbit", "--model", "section4",
                             "--word", "cxq", "--start", "0")
    assert (code, out) == (2, "")
    assert err == "usage error: unknown letter 'x' at position 1\n"


#: dump argument lists with two faults each, and the one usage error
#: each names: the one found first
_TWO_FAULTS = [
    # a --word is read before the model name
    (["dump", "orbit", "--model", "bogus", "--word", "cxq", "--start", "0"],
     "unknown letter 'x' at position 1"),
    (["dump", "orbit", "--model", "witness14", "--m", "5", "--word", "kq", "--start", "0"],
     "unknown letter 'k' at position 0"),
    # witness14 is a model of monoid and hasse dumps only; a name that is
    # no example3 reads --m, so --M is refused before the name
    (["dump", "model", "--name", "witness14", "--m", "5"], "unknown model name 'witness14'"),
    (["dump", "model", "--name", "witness14", "--M", "5"], "model witness14 does not take --M"),
    (["dump", "orbit", "--model", "witness14", "--word", "pq", "--start", "top"],
     "unknown model name 'witness14'"),
    (["dump", "orbit", "--model", "witness14", "--M", "5", "--word", "pq", "--start", "0"],
     "model witness14 does not take --M"),
    # a window flag witness14 does not read comes before its letters
    (["dump", "monoid", "--model", "witness14", "--m", "5", "--gens", "p"],
     "model witness14 does not take --m"),
    (["dump", "hasse", "--model", "witness14", "--M", "5", "--gens", "p,q"],
     "model witness14 does not take --M"),
    # an unknown name comes before the letters it would offer
    (["dump", "monoid", "--model", "bogus", "--gens", "k"], "unknown model name 'bogus'"),
    # a --cap past the entry bound comes before the letters
    (["dump", "monoid", "--model", "example3-repaired", "--M", "12", "--cap", "10000",
      "--gens", "k"], "dump monoid takes --cap 1..512 at ground size 13, got 10000"),
    (["dump", "hasse", "--model", "witness14", "--cap", "100000", "--gens", "p"],
     "dump hasse takes --cap 1..65536 at ground size 6, got 100000"),
    # the model name and window come before --start, whose names they give
    (["dump", "orbit", "--model", "bogus", "--word", "p", "--start", "bogus"],
     "unknown model name 'bogus'"),
    (["dump", "orbit", "--model", "pij(1,0)", "--m", "11", "--word", "p", "--start", "bogus"],
     "model pij(1,0) at --m 11 has ground size 22, past the table cap 20"),
    (["dump", "orbit", "--model", "example3", "--m", "5", "--word", "p", "--start", "top"],
     "model example3 does not take --m"),
]


@pytest.mark.parametrize("argv,err", _TWO_FAULTS)
def test_dump_with_two_faults_names_the_first(capsys, monkeypatch, argv, err):
    def never(*args, **kwargs):
        raise AssertionError("built a model or monoid despite a usage error")

    for name in ("section4_model", "example3", "pij_pair", "kuratowski_witness"):
        monkeypatch.setattr(models, name, never)
    monkeypatch.setattr(monoid_mod, "generate_monoid", never)
    assert run_cli(capsys, *argv) == (2, "", f"usage error: {err}\n")


#: dump orbit argument lists whose --start names an element the model
#: lacks, and that element
_BAD_STARTS = [
    (["--model", "pij(1,0)", "--m", "10", "--word", "p", "--start", "bogus"], "bogus"),
    (["--model", "section4", "--m", "3", "--word", "pq", "--start", "0,6"], "6"),
    (["--model", "section4", "--m", "3", "--word", "pq", "--start", "top,,bot"], ""),
    (["--model", "example3-literal", "--M", "4", "--word", "pq", "--start", "top"], "top"),
]


@pytest.mark.parametrize("argv,element", _BAD_STARTS)
def test_dump_orbit_reads_start_before_the_model_is_built(capsys, monkeypatch, argv, element):
    def never(*args, **kwargs):
        raise AssertionError("built a model for a --start that names nothing")

    for name in ("section4_model", "example3", "pij_pair", "kuratowski_witness"):
        monkeypatch.setattr(models, name, never)
    assert run_cli(capsys, "dump", "orbit", *argv) == (
        2, "", f"usage error: unknown element {element!r}\n")


@pytest.mark.parametrize("name", ["pij(a,b)", "pij( 1 , 0 )", "pij(01,0)", "pij(1, 0)",
                                  "pij(2,0)", "pij(0,-1)", "pij(1)", "pij(1,0,0)", "pij()"])
def test_dump_refuses_every_other_pij_spelling(capsys, monkeypatch, name):
    def never(*args, **kwargs):
        raise AssertionError("built a model for a pij name that names none")

    monkeypatch.setattr(models, "pij_pair", never)
    err = f"usage error: bad pij name {name!r}, expected pij(i,j) with i and j 0 or 1\n"
    for argv in (["model", "--name", name], ["monoid", "--model", name, "--gens", "p"],
                 ["orbit", "--model", name, "--word", "p", "--start", "0"]):
        assert run_cli(capsys, "dump", *argv) == (2, "", err)


# ---------------------------------------------------------------------------
# JSON output


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


class _Name(str):
    """A str subclass: written as the str it holds."""

    def __str__(self):
        return "not this"


def _monoid(letters, model=None, cap=monoid_mod.DEFAULT_CAP):
    """The monoid a dump names: the letters among p, q and c of model,
    or among k and c of the pinned witness when model is None."""
    if model is None:
        k, _ = models.kuratowski_witness()
        named = {"k": k, "c": complement_table(k.ground_size)}
    else:
        named = {"p": model.p, "q": model.q, "c": complement_table(model.ground_size)}
    return monoid_mod.generate_monoid([named[g] for g in letters], cap=cap,
                                      names=tuple(letters))


def test_json_writer_writes_the_bytes_of_json_dumps():
    corpus = [
        {8: "a", 10: "b", -1: "c"}, {True: 1, False: 2}, {None: 0}, {2.5: 1, 1: 2, 1e300: 3},
        {"b": 1, "a": 2, "": 3},
        [], {}, (), [[]], [{}], {"a": [], "b": {}, "c": [[], {}], "d": {"e": {"f": []}}},
        (1, (2, 3), ("x",)), {"t": (1, 2), "u": ()},
        [1, "two", 3.5, None, True, False], [1, [2], {"a": 3}, "x", ()],
        [[1, 2], [3, [4, []]], [], [[[5]]]],
        [0.1, -0.0, 1e300, 1e-300, float("inf"), float("-inf"), float("nan"), 1.0],
        {float("inf"): 1, float("-inf"): 2},
        None, 0, -7, 1.5, True, "", "x",
        ['"quoted"', "back\\slash", "tab\tline\nnul\x00\x1f\x7f", "\u00e9 \u4e2d \U0001f600",
         "\u2028", "</script>"],
        {'"k"': {"\\": "\n"}},
        # the edges of the directly spelled keys, scalars and flat lists
        {0.0: 1}, {-0.0: 1}, {1: 0}, {True: 0}, {_Level.HIGH: 0}, _Level.LOW,
        [1, True], [2**100, -1], [-(2**64), _Level.HIGH], ["a", "\x7f"], ["a", "\u00e9"],
        ["a", '"'], ["", ""], ["0", "1f", "\\", "ff"], ["0", "1f", "ff"], [[0, 1], [-1, 2]],
        # lists that start with a str: all strings by one join, or not
        [_Name("a"), "b"], ["a", _Name('"')], _Name("x"), {_Name("k"): _Name("v")},
        ["a", 1, None], ["a", ["b"], {"c": "d"}], ["\u00e9", 2.5], ["a", True],
        SUITES["kuratowski14"]().data,
        idlab.search_counterexample("pq", "qp").to_json(),
        models.section4_model(3).to_json(),
        monoid_payload(_monoid("ck")),
    ]
    for obj in corpus:
        assert "".join(cli._json_chunks(obj)) == _dumps(obj), obj
    # a key of another type, or keys that do not sort: TypeError from both
    for obj in ({(1, 2): 0}, {1: 0, "a": 1}, [{1: 0, None: 1}]):
        for write in (_dumps, lambda obj: "".join(cli._json_chunks(obj))):
            with pytest.raises(TypeError):
                write(obj)


_json_scalars = (
    st.text() | st.sampled_from(["", "0", "1f", "\\", '"', "\x7f", "\u00e9", "\U0001f600"])
    | st.sampled_from(["", "a", "1f", '"', "\u00e9"]).map(_Name)
    | st.integers() | st.sampled_from([2**100, -(2**64), _Level.LOW, _Level.HIGH])
    | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
    | st.booleans() | st.none()
)
#: keys of one kind per dict, as json.dumps(sort_keys=True) needs keys that sort
_json_keys = (st.text(), st.integers() | st.floats() | st.booleans() | st.sampled_from(_Level),
              st.none())
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.lists(st.sampled_from(["0", "1f", "ff", "", "\\", '"', "\x7f", "\u00e9"])),
        # a list that starts with a plain str, then anything
        st.tuples(st.sampled_from(["", "0", "ff", '"']), st.lists(children)).map(
            lambda parts: [parts[0], *parts[1]]),
        *(st.dictionaries(keys, children) for keys in _json_keys)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(_json_trees)
def test_json_writer_matches_json_dumps_on_random_trees(obj):
    assert "".join(cli._json_chunks(obj)) == _dumps(obj)


def _hasse_payload(mon):
    nodes = [w or "1" for w in mon.witnesses]
    return {"nodes": nodes, "edges": [[nodes[a], nodes[b]] for a, b in monoid_mod.hasse(mon)]}


def _witness14_payload():
    n, fixed, seed = idlab.find_kuratowski_witness()
    return {"ground_size": n, "fixed_points": [elements_of(m) for m in fixed],
            "seed": elements_of(seed)}


def _orbit_payload():
    model = models.section4_model(4)
    rep = monoid_mod.orbit("cpcpcqcq", model, model.mask_of_names("0,top"), max_iter=10)
    return {"word": rep.word, "start": model.format_mask(rep.start),
            "images": [model.format_mask(a) for a in rep.images],
            "cycle_entry": rep.cycle_entry, "truncated": rep.truncated}


#: every command with --format json but the streamed identities list,
#: with the library payload it writes
_JSON_COMMANDS = [
    *[(["verify", name], (lambda name=name: SUITES[name]().data)) for name in sorted(SUITES)],
    (["search", "counterexample", "--eq", "pq=qp"],
     lambda: idlab.search_counterexample("pq", "qp").to_json()),
    (["search", "counterexample", "--eq", "pcqcpcq=pcq"],
     lambda: idlab.search_counterexample("pcqcpcq", "pcq").to_json()),
    (["search", "witness14"], _witness14_payload),
    (["dump", "model", "--name", "section4"], lambda: models.section4_model(4).to_json()),
    (["dump", "model", "--name", "example3-literal"],
     lambda: models.example3(10, variant="literal").to_json()),
    (["dump", "monoid", "--model", "witness14"], lambda: monoid_payload(_monoid("ck"))),
    (["dump", "monoid", "--model", "section4", "--m", "2", "--gens", "p,q,c"],
     lambda: monoid_payload(_monoid("pqc", models.section4_model(2)))),
    (["dump", "hasse", "--model", "witness14"], lambda: _hasse_payload(_monoid("ck"))),
    (["dump", "hasse", "--model", "section4", "--m", "2", "--gens", "p,q,c"],
     lambda: _hasse_payload(_monoid("pqc", models.section4_model(2)))),
    (["dump", "orbit", "--model", "section4", "--word", "cpcpcqcq", "--start", "0,top"],
     _orbit_payload),
]


@pytest.mark.parametrize("argv,payload", _JSON_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in _JSON_COMMANDS])
def test_json_output_is_the_bytes_of_json_dumps(capsys, argv, payload):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code in (0, 1) and err == ""
    assert out == _dumps(payload())


#: monoid dumps cut at the first and second element and inside a BFS
#: level (--cap 7 ends the Cayley rows [3, -1], [-1, -1]), of 1 to 3
#: generators in more than one order, and of rows wider than one chunk,
#: with the library monoid each names
_MONOID_DUMPS = [
    (["--model", "witness14", "--cap", "1"], lambda: _monoid("ck", cap=1)),
    (["--model", "witness14", "--cap", "2"], lambda: _monoid("ck", cap=2)),
    (["--model", "witness14", "--cap", "7"], lambda: _monoid("ck", cap=7)),
    (["--model", "witness14", "--gens", "c"], lambda: _monoid("c")),
    (["--model", "witness14", "--gens", "k,c"], lambda: _monoid("kc")),
    (["--model", "example3-repaired", "--M", "6", "--gens", "p,q"],
     lambda: _monoid("pq", models.example3(6))),
    (["--model", "example3-repaired", "--M", "6", "--gens", "q,p"],
     lambda: _monoid("qp", models.example3(6))),
    (["--model", "example3-repaired", "--M", "4", "--gens", "p,q,c"],
     lambda: _monoid("pqc", models.example3(4))),
    (["--model", "example3-repaired", "--M", "4", "--gens", "c,q,p", "--cap", "30"],
     lambda: _monoid("cqp", models.example3(4), cap=30)),
    (["--model", "example3-repaired", "--M", "15", "--cap", "4", "--gens", "p,q,c"],
     lambda: _monoid("pqc", models.example3(15), cap=4)),
]


@pytest.mark.parametrize("argv,build", _MONOID_DUMPS,
                         ids=[" ".join(argv) for argv, _ in _MONOID_DUMPS])
def test_dump_monoid_writes_the_bytes_of_json_dumps(capsys, tmp_path, argv, build):
    mon = build()
    code, out, err = run_cli(capsys, "dump", "monoid", *argv)
    assert (code, err) == (0, "")
    assert out == _dumps(monoid_payload(mon))
    target = tmp_path / "monoid.json"
    assert run_cli(capsys, "dump", "monoid", *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_dump_monoid_is_written_a_block_of_values_at_a_time(capsys, monkeypatch):
    chunks = []
    monkeypatch.setattr(cli, "_emit", lambda text, out: chunks.extend(text))
    argv = ["dump", "monoid", "--model", "example3-repaired", "--M", "15", "--cap", "4",
            "--gens", "p,q,c"]
    assert run_cli(capsys, *argv) == (0, "", "")
    # 4 rows of 2**16 entries, each spelled in 4 chunks of 2**14
    assert sum(len(chunk) > 100_000 for chunk in chunks) == 16
    assert max(map(len, chunks)) < cli._BLOCK_ENTRIES * len(',\n        "ffff"') + 100


# ---------------------------------------------------------------------------
# output redirection


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, "verify", "theorem1", "--format", "json")
    assert target.read_text() == direct


def test_out_env_dir_resolves_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    code, _, _ = run_cli(capsys, "verify", "lemma6", "--out", "lemma6.txt")
    assert code == 0
    written = (tmp_path / "lemma6.txt").read_text()
    assert written.splitlines()[-1] == "PASS"

    absolute = tmp_path / "sub.txt"
    code, _, _ = run_cli(capsys, "verify", "lemma6", "--out", str(absolute))
    assert code == 0
    assert absolute.exists()


@pytest.mark.parametrize("argv,target", [
    (["verify", "lemma6"], (SUITES, "lemma6")),
    (["search", "identities"], (idlab, "search_identities")),
    (["dump", "model", "--name", "section4"], (models, "section4_model")),
], ids=["verify", "search", "dump"])
def test_unwritable_out_is_a_usage_error_before_any_work(capsys, monkeypatch, tmp_path,
                                                         argv, target):
    # a missing directory, or a directory itself, is refused before the
    # suite, search or model runs, and no file is created
    calls = []
    owner, name = target
    if owner is SUITES:
        monkeypatch.setitem(SUITES, name, lambda **kw: calls.append(kw))
    else:
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append((a, kw)))
    missing = tmp_path / "missing" / "x.txt"
    for out in (missing, tmp_path):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"usage error: cannot write --out {out}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []
