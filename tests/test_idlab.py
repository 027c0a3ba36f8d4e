"""Tests for enumeration, sampling, scopes, certificates and searches."""

import json
import random
from dataclasses import replace
from itertools import chain, islice, product

import numpy as np
import pytest

from closurelab import idlab
from closurelab.idlab import (
    DEFAULT_SEED,
    FIXTURE_EQUATIONS,
    EquationCertificate,
    Scope,
    enumerate_all_pairs,
    enumerate_closures,
    enumerate_commuting_pairs,
    find_kuratowski_witness,
    replay_certificate,
    sample_commuting_pair,
    search_counterexample,
    search_identities,
)
from closurelab.models import ClosurePairModel, kuratowski_witness
from closurelab.monoid import generate_monoid
from closurelab.opalg import (
    FlatScope,
    OperatorTable,
    check_closure,
    closure_from_fixed_points,
    closures_from_masks,
    commutes,
    complement_table,
    elements_of,
    eval_word,
    eval_word_on,
    full_mask,
)
from closurelab.theory import BLOCK_CHOICES, theorem2_word

from _oracles import (
    closure_of_family,
    closures_by_filter,
    compose_tables,
    identity_survey,
    lockstep_schedule,
    moore_families_brute,
)
from _oracles import sample_commuting_pair as reference_pair


# ---------------------------------------------------------------------------
# enumeration against oracles


def test_closure_counts():
    assert [len(enumerate_closures(n)) for n in range(5)] == [1, 2, 7, 61, 2480]


def test_moore_family_recursion_gives_the_published_counts():
    # OEIS A102896; the families at n <= 4 are those of the brute-force
    # scan of every family bitmask, and sampled ones at n = 5 hold the
    # full set and are closed under intersection
    assert [len(idlab._moore_families(n)) for n in range(6)] == [
        1, 2, 7, 61, 2480, 1385552]
    for n in range(5):
        brute = sorted(sum(1 << s for s in fam) for fam in moore_families_brute(n))
        assert sorted(idlab._moore_families(n).tolist()) == brute, n
    five = idlab._moore_families(5)
    assert len(np.unique(five)) == len(five)
    for fam in five[::4999].tolist():
        members = [s for s in range(32) if (fam >> s) & 1]
        assert 31 in members
        assert all((fam >> (a & b)) & 1 for a in members for b in members), fam
    with pytest.raises(ValueError):
        idlab._moore_families(6)


def test_moore_family_masks_hold_the_full_set_and_nothing_past_it():
    # what closures_from_masks takes on trust from its callers: bit
    # 2**n - 1 set, and no bit at or past 2**n
    for n in range(6):
        full = (1 << n) - 1
        masks = idlab._moore_families(n)
        assert np.all(masks >> full & 1), n
        assert np.all(masks >= 0) and not np.any(masks >> (full + 1)), n


def test_moore_family_screen_in_blocks_keeps_the_order(monkeypatch):
    # at n <= 4 the pair screen is one block; screened a few F0 rows at
    # a time, the families come out in the same order
    whole = [idlab._moore_families(n) for n in range(5)]
    assert len(idlab._moore_families(3)) * 2 <= idlab.MOORE_SCREEN_ROWS
    monkeypatch.setattr(idlab, "MOORE_SCREEN_ROWS", 5)
    idlab._moore_families.cache_clear()
    try:
        blocked = [idlab._moore_families(n) for n in range(5)]
    finally:
        idlab._moore_families.cache_clear()
    assert all(np.array_equal(a, b) for a, b in zip(blocked, whole))


def test_closure_stack_matches_the_brute_force_row_for_row():
    # int64 rows in lexicographic order, as built from the brute-force
    # family scan, at every n <= 4
    for n in range(5):
        stack = idlab._closure_stack(n)
        assert stack.dtype == np.int64 and stack.flags.c_contiguous
        assert not stack.flags.writeable
        want = sorted(closure_of_family(n, fam) for fam in moore_families_brute(n))
        assert [tuple(row) for row in stack.tolist()] == want, n


def test_closure_blocks_past_the_canonical_stack_follow_the_families():
    # the fixed points of each row of a block are its Moore family
    assert np.array_equal(next(idlab._closure_blocks(4)), idlab._closure_stack(4))
    blocks = idlab._closure_blocks(5)
    rows = idlab.WITNESS_BLOCK_ENTRIES >> 5
    for start in (0, rows):
        block = next(blocks)
        assert block.shape == (rows, 32)
        fixed = (block == np.arange(32)) << np.arange(32)
        assert fixed.sum(axis=1).tolist() == (
            idlab._moore_families(5)[start:start + rows].tolist())


def test_closure_blocks_past_n5_are_the_seeded_trials():
    # the witness search's trials through the meet kernel, in runs of
    # max(1, 2**14 >> n) rows, the last one short; no trials, no blocks
    for n, trials in ((6, 600), (7, 300), (15, 3)):
        rows = max(1, 2**14 >> n)
        blocks = list(idlab._closure_blocks(n, trials))
        assert [len(b) for b in blocks] == [
            min(rows, trials - start) for start in range(0, trials, rows)]
        want = closures_from_masks(n, [idlab._witness_family(n, t) for t in range(trials)])
        assert np.array_equal(np.concatenate(blocks), want)
    assert list(idlab._closure_blocks(6)) == []


def test_enumeration_matches_function_filter_oracle():
    # brute force over every powerset function at n <= 2
    for n in (0, 1, 2):
        ours = {tuple(int(v) for v in t.entries) for t in enumerate_closures(n)}
        assert ours == set(closures_by_filter(n))


def test_enumeration_matches_family_oracle():
    # family counts and the family -> table conversion at n = 3
    for n in (0, 1, 2, 3):
        families = moore_families_brute(n)
        closures = enumerate_closures(n)
        assert len(closures) == len(families)
    ours = {tuple(int(v) for v in t.entries) for t in enumerate_closures(3)}
    theirs = {closure_of_family(3, members) for members in moore_families_brute(3)}
    assert ours == theirs


def test_enumeration_is_canonical_and_clean():
    closures = enumerate_closures(3)
    keys = [t.entries.tolist() for t in closures]
    assert keys == sorted(keys)
    assert len({t.key() for t in closures}) == len(closures)
    for t in closures[:10]:
        assert check_closure(t).ok
    assert enumerate_closures(3)[0].entries.tolist() == keys[0]  # replayable
    with pytest.raises(ValueError):
        enumerate_closures(5)


def test_commuting_pair_counts():
    assert [len(enumerate_commuting_pairs(n)) for n in range(4)] == [1, 4, 41, 2029]
    assert len(enumerate_all_pairs(2)) == 49
    with pytest.raises(ValueError):
        enumerate_commuting_pairs(4)


def test_pair_models_have_pedigree():
    pairs = enumerate_commuting_pairs(2)
    assert all(m.provenance == "enumerated" for m in pairs)
    assert all(m.commuting for m in pairs)
    assert all(commutes(m.p, m.q) for m in pairs)
    assert pairs[0].label == "n=2 p#0 q#0"
    flags = [m.commuting for m in enumerate_all_pairs(2)]
    assert sum(flags) == 41 and not all(flags)
    # every pair's flag, commuting or not, is the single-pair screen's
    for n in range(4):
        assert all(m.commuting is commutes(m.p, m.q) for m in enumerate_all_pairs(n))


# ---------------------------------------------------------------------------
# sampling


def test_sampler_is_deterministic():
    a = sample_commuting_pair(3, seed=7)
    b = sample_commuting_pair(3, seed=7)
    assert a.p == b.p and a.q == b.q
    assert a.provenance == "custom"
    assert a.label == "sampled n=3 seed=7"
    assert commutes(a.p, a.q)


def test_sampler_covers_distinct_pairs():
    seen = set()
    for seed in range(60):
        m = sample_commuting_pair(2, seed=seed)
        seen.add((m.p.key(), m.q.key()))
    assert len(seen) >= 15


def test_sampler_size_guard():
    with pytest.raises(ValueError):
        sample_commuting_pair(13, seed=0)
    with pytest.raises(ValueError):
        idlab.sample_commuting_pairs(13, [0])


def test_sampler_refuses_negative_seeds():
    # random.Random(-s) replays random.Random(s): seed -12 would draw
    # seed 12's pair again
    assert random.Random(-12).random() == random.Random(12).random()
    with pytest.raises(ValueError, match="nonnegative, got -12"):
        idlab.sample_commuting_pairs(4, [3, -12, 12])
    with pytest.raises(ValueError, match="nonnegative"):
        sample_commuting_pair(4, seed=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        list(Scope.sampled(4, 3, seed=-2).runs())
    assert len(idlab.sample_commuting_pairs(4, [0])) == 1


@pytest.mark.parametrize("n", range(13))
def test_family_mask_replays_randint_and_randrange(n):
    # _family_mask must draw the members randint(low, high) and then
    # randrange(2**n) per member draw, plus the full set, and consume
    # exactly the same words, which the generator state after the draw
    # pins: both the sampler's and the witness search's count ranges,
    # and randint(a, a), which still draws a word
    size = 1 << n
    ranges = [(0, min(size, 16)), (0, 0), (min(size, 16), min(size, 16))]
    if n:
        ranges += [(1, min(size, 3 * n)), (1, 1)]
    for low, high in ranges:
        for seed in range(200):
            ref, rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                members = [ref.randrange(size) for _ in range(ref.randint(low, high))]
                want = sum(1 << m for m in set(members) | {size - 1})
                got = idlab._family_mask(rng.getrandbits, low, high, size)
                assert got == want, (n, low, high, seed)
            assert rng.getstate() == ref.getstate(), (n, low, high, seed)


def _assert_sampler_matches_the_reference(n, seeds, max_tries=2000):
    """sample_commuting_pairs against the one-try-at-a-time reference:
    every seed's pair and tries, the tries drawn and the rounds of the
    round schedule, or else the error naming the first failing seed.
    Whether every seed found a pair."""
    want = [reference_pair(n, seed, max_tries) for seed in seeds]
    failing = [seed for seed, pair in zip(seeds, want) if pair is None]
    if failing:
        message = rf"^no commuting pair found in {max_tries} tries \(seed {failing[0]}\)$"
        with pytest.raises(RuntimeError, match=message):
            idlab.sample_commuting_pairs(n, seeds, max_tries)
        return False
    run = idlab.sample_commuting_pairs(n, seeds, max_tries)
    assert run.ground_size == n and len(run) == len(seeds)
    assert [tuple(row) for row in run.p.tolist()] == [p for p, _, _ in want]
    assert [tuple(row) for row in run.q.tolist()] == [q for _, q, _ in want]
    tries = [t for _, _, t in want]
    assert run.tries.tolist() == tries
    drawn, rounds = lockstep_schedule(tries, idlab.SAMPLER_ROUND_TRIES, max_tries)
    assert (run.drawn.tolist(), run.rounds) == (drawn, rounds)
    assert all(t <= d <= max_tries for t, d in zip(tries, drawn))
    return True


# seeds 150 at n = 5 and 152 at n = 6 need 21 and 40 tries, more than
# one round drawn for a seed alone (SAMPLER_ROUND_TRIES)
@pytest.mark.parametrize("n,seeds", [(n, range(100, 130)) for n in range(7)]
                         + [(12, range(100, 103)), (5, [150]), (5, [151, 150, 152]),
                            (6, [152]), (6, range(140, 160))])
def test_lockstep_sampler_matches_the_sequential_reference(n, seeds):
    # drawing every seed in lockstep gives each seed the pair, and the
    # try count, of the one-at-a-time rejection sampler on its stream
    _assert_sampler_matches_the_reference(n, list(seeds))
    # and drawing a seed alone gives the same pair
    run = idlab.sample_commuting_pairs(n, seeds)
    alone = sample_commuting_pair(n, seeds[-1])
    assert alone.p.entries.tolist() == run.p[-1].tolist()
    assert alone.q.entries.tolist() == run.q[-1].tolist()


def test_sampler_rounds_are_fewer_than_the_largest_try_count(monkeypatch):
    # a 25-seed scope draws each round's tables in one
    # closures_from_masks call, and a few pending seeds draw several
    # tries in a round: fewer calls than the most tries a seed needs
    calls = []
    real = idlab.closures_from_masks

    def counting(n, masks):
        calls.append(len(masks))
        return real(n, masks)

    monkeypatch.setattr(idlab, "closures_from_masks", counting)
    run = next(Scope.sampled(5, 25, seed=140).runs())
    assert len(calls) == run.rounds < int(run.tries.max())
    # two families per try drawn
    assert sum(calls) == 2 * int(run.drawn.sum())


def test_sampler_draws_few_tries_past_those_it_uses():
    # with many seeds pending a round draws one try per seed, so the
    # tries discarded after a seed's pair stay a small share
    run = idlab.sample_commuting_pairs(5, range(DEFAULT_SEED, DEFAULT_SEED + 2000))
    assert run.tries.sum() <= run.drawn.sum() <= 1.01 * run.tries.sum()
    assert not run.drawn.flags.writeable


def test_sampled_run_models_and_stacks():
    seeds = [40, 3, 41]
    run = idlab.sample_commuting_pairs(4, seeds)
    assert run.p.shape == run.q.shape == (3, 16) and run.p.dtype == np.int64
    for stack in (run.p, run.q, run.tries):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0] = 0
    models = list(run.models())
    assert [m.label for m in models] == [f"sampled n=4 seed={s}" for s in seeds]
    for i, m in enumerate(models):
        assert m.provenance == "custom" and m.commuting is True
        assert commutes(m.p, m.q)
        assert m.p.entries.tolist() == run.p[i].tolist()
        assert m.q.entries.tolist() == run.q[i].tolist()
        alone = sample_commuting_pair(4, seeds[i])
        assert (alone.p, alone.q, alone.label) == (m.p, m.q, m.label)


def test_sampling_no_seeds():
    run = idlab.sample_commuting_pairs(4, [])
    assert len(run) == 0 and run.p.shape == run.q.shape == (0, 16)
    assert run.tries.tolist() == [] and list(run.models()) == []
    assert list(Scope.sampled(4, 0).runs()) == []


def test_sampler_exhaustion_names_the_first_failing_seed():
    # with one try each, some seeds find a commuting pair and some do
    # not; the error names the first that does not, in the order given,
    # as drawing the seeds one after another would
    seeds = list(range(30))
    fails = [s for s in seeds if reference_pair(4, s, max_tries=1) is None]
    assert fails and fails[0] > seeds[0] and len(fails) > 1
    for order in (seeds, seeds[::-1]):
        first = next(s for s in order if s in fails)
        message = rf"^no commuting pair found in 1 tries \(seed {first}\)$"
        with pytest.raises(RuntimeError, match=message):
            idlab.sample_commuting_pairs(4, order, max_tries=1)
        with pytest.raises(RuntimeError, match=message):
            for s in order:
                sample_commuting_pair(4, s, max_tries=1)
    ok = [s for s in seeds if s not in fails]
    assert idlab.sample_commuting_pairs(4, ok, max_tries=1).tries.tolist() == [1] * len(ok)
    with pytest.raises(RuntimeError, match=r"in 0 tries \(seed 5\)$"):
        idlab.sample_commuting_pairs(4, [5, 6], max_tries=0)
    # a filled round would give a few pending seeds more tries than
    # max_tries allows: one seed alone, a few, and many, at each
    # max_tries some groups finding every pair and some not (at n = 5
    # seed 105 needs 2 tries, 101 needs 3 and 150 needs 21; at n = 4
    # seeds 103, 105 and 117 need 2, 3 and 5)
    groups = ((5, [105]), (5, [101]), (5, [150]), (5, [101, 105, 104]),
              (4, [103, 117, 105]), (4, range(100, 130)), (5, range(100, 130)))
    for max_tries in (2, 3, 5):
        found = {_assert_sampler_matches_the_reference(n, list(group)[::step], max_tries)
                 for n, group in groups for step in (1, -1)}
        assert found == {True, False}, max_tries


# ---------------------------------------------------------------------------
# scopes


def test_scope_descriptions():
    assert Scope.exhaustive(3).description == "exhaustive-commuting-n<=3"
    assert Scope.exhaustive(2, commuting=False).description == "exhaustive-all-n<=2"
    assert Scope.sampled(4, 25).description == (
        f"sampled(n=4,count=25,seed={DEFAULT_SEED})"
    )


def test_scope_streams_are_replayable():
    scope = Scope.exhaustive(2)
    first = [m.label for m in scope.models()]
    second = [m.label for m in scope.models()]
    assert first == second
    assert len(first) == 1 + 4 + 41


def test_sampled_scope_draws_once(monkeypatch):
    # a sampled scope draws its seeds once, when it is made: walking its
    # models twice, twelve equations and a replay draw nothing more, and
    # a scope of no seeds never calls the sampler
    calls = []
    real = idlab.sample_commuting_pairs

    def counting(n, seeds, *args):
        calls.append((n, list(seeds)))
        return real(n, seeds, *args)

    monkeypatch.setattr(idlab, "sample_commuting_pairs", counting)
    scope = Scope.sampled(4, 25, seed=40)
    assert calls == [(4, list(range(40, 65)))]
    first = [m.label for m in scope.models()]
    second = [m.label for m in scope.models()]
    assert first == second
    words = [theorem2_word(blocks) for blocks in product(BLOCK_CHOICES, repeat=2)][:6]
    equations = list(FIXTURE_EQUATIONS) + [(w, "pqcpq") for w in words]
    certs = [idlab.test_equation(lhs, rhs, scope) for lhs, rhs in equations]
    assert len(certs) == 12 and all(cert.holds for cert in certs)
    assert replay_certificate(certs[0], family=scope)
    Scope.sampled(4, 0)
    assert calls == [(4, list(range(40, 65)))]


def test_each_run_builds_its_flat_scope_once(monkeypatch):
    # a scope of two new runs (n = 1 and n = 2) and a sampled scope of
    # one (n = 4), each walked by many test_equation and replay calls:
    # each run shifts its stacks into a flat scope once, however many
    # words it evaluates
    built = []

    class Counted(idlab.FlatScope):
        def __init__(self, p, q, c=None):
            built.append(p.shape)
            super().__init__(p, q, c)

    monkeypatch.setattr(idlab, "FlatScope", Counted)
    runs = [replace(run) for run in Scope.exhaustive(2).runs() if run.ground_size]
    for scope in (Scope("n=1,2", runs), Scope.sampled(4, 3, seed=11)):
        certs = [idlab.test_equation(lhs, rhs, scope) for lhs, rhs in FIXTURE_EQUATIONS]
        assert all(cert.holds for cert in certs)
        assert replay_certificate(certs[0], family=scope)
        idlab.test_equation("pcq", "qcp", scope)
    assert built == [(4, 2), (41, 4), (3, 16)]


def test_sampled_scope_rejects_negative_count():
    with pytest.raises(ValueError):
        Scope.sampled(4, -1)
    empty = idlab.test_equation("pq", "qp", Scope.sampled(4, 0))
    assert empty.holds and empty.models_checked == 0


def test_fixture_scope():
    # a scope made of the runs of others walks their models in order
    scope = Scope("tiny", chain(Scope.exhaustive(1).runs(), Scope.sampled(4, 2, seed=5).runs()))
    assert scope.description == "tiny"
    assert [m.label for m in scope.models()] == (
        [m.label for m in enumerate_commuting_pairs(0) + enumerate_commuting_pairs(1)]
        + ["sampled n=4 seed=5", "sampled n=4 seed=6"])


# ---------------------------------------------------------------------------
# certificates


def test_equation_holds_across_all_pairs():
    cert = idlab.test_equation("pcqcpcq", "pcq", Scope.exhaustive(2, commuting=False))
    assert cert.holds
    assert cert.status == "holds"
    assert cert.models_checked == 1 + 4 + 49
    assert cert.summary() == "no counterexample found (exhaustive-all-n<=2)"
    blob = cert.to_json()
    assert blob["counterexample"] is None
    json.dumps(blob)


def test_equation_counterexample_is_minimal():
    scope = Scope.exhaustive(2, commuting=False)
    cert = idlab.test_equation("pq", "qp", scope)
    assert not cert.holds
    assert cert.status == "counterexample"
    model = cert.model
    lhs = eval_word("pq", model.p, model.q)
    rhs = eval_word("qp", model.p, model.q)
    # stored witness is the smallest disagreeing mask on the first
    # refuting model in scope order
    diffs = [a for a in range(1 << model.ground_size)
             if int(lhs.entries[a]) != int(rhs.entries[a])]
    assert cert.witness == diffs[0]
    # everything before it in the stream agreed
    stream = list(scope.models())
    for earlier in stream[:cert.models_checked - 1]:
        assert eval_word("pq", earlier.p, earlier.q) == eval_word(
            "qp", earlier.p, earlier.q
        )
    assert stream[cert.models_checked - 1].label == model.label
    assert cert.summary().startswith("refuted: pq != qp on ")


def _oracle_pairs(max_n, commuting):
    """Closure pairs in canonical order, built from the brute-force
    family oracle rather than the package's enumeration."""
    models = []
    for n in range(max_n + 1):
        tables = sorted(closure_of_family(n, fam) for fam in moore_families_brute(n))
        for i, p in enumerate(tables):
            for j, q in enumerate(tables):
                if commuting and compose_tables(p, q) != compose_tables(q, p):
                    continue
                models.append(ClosurePairModel(
                    "oracle", OperatorTable(n, p), OperatorTable(n, q),
                    label=f"n={n} p#{i} q#{j}",
                ))
    return models


def _reference_certificate(lhs, rhs, models):
    """Model by model and mask by mask: the first refuting model in
    order and the smallest subset it separates."""
    for checked, model in enumerate(models, 1):
        for a in range(1 << model.ground_size):
            if (eval_word_on(lhs, model.p, model.q, a)
                    != eval_word_on(rhs, model.p, model.q, a)):
                return "counterexample", model.label, a, checked
    return "holds", None, None, len(models)


@pytest.mark.parametrize("seed", [3, 77])
def test_batched_certificates_match_model_by_model_reference(seed):
    sampled4 = [sample_commuting_pair(4, seed + i) for i in range(25)]
    sampled4_small = [sample_commuting_pair(4, DEFAULT_SEED + i) for i in range(5)]
    cases = [
        (Scope.sampled(4, 25, seed), sampled4),
        (Scope.exhaustive(2, commuting=False), _oracle_pairs(2, commuting=False)),
        (Scope("mixed", chain(Scope.exhaustive(2).runs(), Scope.sampled(4, 5).runs())),
         _oracle_pairs(2, commuting=True) + sampled4_small),
        (Scope("empty", []), []),
    ]
    # the mixed scope holds the runs of the scopes it was made from:
    # one per ground size
    assert [(run.ground_size, len(run)) for run in cases[2][0].runs()] == [
        (0, 1), (1, 4), (2, 41), (4, 5)]
    # the last two are refuted only after several agreeing models
    equations = [("pcq", "qcp"), ("pcqcpcq", "pcq"), ("pq", "qp"),
                 ("pcpcp", "pcp"), FIXTURE_EQUATIONS[0], ("", "p"),
                 ("pcpcqcpq", "pqcpq"), ("qcqcqpcqp", "pqcpq")]
    for scope, reference in cases:
        assert [m.label for m in scope.models()] == [m.label for m in reference]
        for lhs, rhs in equations:
            cert = idlab.test_equation(lhs, rhs, scope)
            label = None if cert.holds else cert.model.label
            assert (cert.status, label, cert.witness, cert.models_checked) == (
                _reference_certificate(lhs, rhs, reference)
            ), (scope.description, lhs, rhs)


def _fresh_scope_certificate(lhs, rhs, scope):
    """test_equation's outcome with both sides evaluated on a fresh
    FlatScope of each run's stacks, no table kept between calls."""
    checked = 0
    for run in scope.runs():
        flat = FlatScope(run.p, run.q)
        diff = flat.eval(lhs) != flat.eval(rhs)
        refuting = diff.any(axis=1)
        if refuting.any():
            k = int(refuting.argmax())
            return "counterexample", run.model_at(k).label, int(diff[k].argmax()), checked + k + 1
        checked += len(run)
    return "holds", None, None, checked


def test_shared_right_sides_give_the_certificates_of_fresh_scopes(monkeypatch):
    # right sides alternate, pqcpq, qp, pqcpq, then one that commuting
    # pairs refute, so each run's kept right side is filled, replaced
    # and filled again; every certificate equals the fresh-scope one
    evals = []
    real = FlatScope.eval
    monkeypatch.setattr(FlatScope, "eval", lambda self, word: evals.append(word) or real(self, word))
    equations = [(FIXTURE_EQUATIONS[1][0], "pqcpq"), ("pq", "qp"),
                 (theorem2_word(("pq", "p", "q", "pq")), "pqcpq"), ("qcpcq", "pcq")]
    scopes = [Scope.exhaustive(2, commuting=False), Scope.exhaustive(3),
              Scope.sampled(4, 25, seed=77), Scope.sampled(5, 25, seed=9),
              Scope("mixed", chain(Scope.exhaustive(1).runs(), Scope.sampled(4, 5).runs()))]
    for scope in scopes:
        for lhs, rhs in equations + equations[:1]:
            cert = idlab.test_equation(lhs, rhs, scope)
            label = None if cert.holds else cert.model.label
            assert (cert.status, label, cert.witness, cert.models_checked) == (
                _fresh_scope_certificate(lhs, rhs, scope)), (scope.description, lhs, rhs)
    statuses = [idlab.test_equation(lhs, rhs, scopes[1]).status for lhs, rhs in equations]
    assert statuses == ["holds", "holds", "holds", "counterexample"]
    assert idlab.test_equation("pq", "qp", scopes[0]).status == "counterexample"
    # the kept tables are read-only, and a right side repeated on a run
    # is evaluated once: twelve equations against pqcpq over a new
    # sampled run make thirteen evaluations
    run = next(scopes[2].runs())
    with pytest.raises(ValueError):
        run.shared_eval("pqcpq")[0, 0] = 0
    evals.clear()
    words = [theorem2_word(blocks) for blocks in product(BLOCK_CHOICES, repeat=4)][:12]
    scope = Scope.sampled(4, 25, seed=78)
    assert all(idlab.test_equation(w, "pqcpq", scope).holds for w in words)
    assert sorted(evals) == sorted(words + ["pqcpq"])


def test_counterexample_json_schema():
    cert = idlab.test_equation("pq", "qp", Scope.exhaustive(2, commuting=False))
    blob = cert.to_json()
    assert blob["status"] == "counterexample"
    assert isinstance(blob["counterexample"]["witness"], list)
    assert blob["counterexample"]["model"]["p"]
    json.dumps(blob)


def test_replay_certificate():
    scope = Scope.exhaustive(2, commuting=False)
    refuted = idlab.test_equation("pq", "qp", scope)
    assert replay_certificate(refuted)

    # tampering with the witness breaks replay: the full set never
    # separates two closure words
    tampered = EquationCertificate(
        refuted.lhs, refuted.rhs, refuted.scope, refuted.status,
        model=refuted.model, witness=full_mask(refuted.model.ground_size),
        models_checked=refuted.models_checked,
    )
    assert not replay_certificate(tampered)

    # a holds certificate replays only over its family, where it must
    # hold again with the same scope and model count
    held = idlab.test_equation("pcqcpcq", "pcq", scope)
    with pytest.raises(ValueError, match="family"):
        replay_certificate(held)
    assert replay_certificate(held, family=scope)
    assert not replay_certificate(held, family=Scope.exhaustive(1, commuting=False))
    miscounted = EquationCertificate(held.lhs, held.rhs, held.scope, "holds",
                                     models_checked=held.models_checked - 1)
    assert not replay_certificate(miscounted, family=scope)

    lying = EquationCertificate("pq", "qp", scope.description, "holds")
    assert not replay_certificate(lying, family=scope)


def test_replay_refutes_a_forged_holds_certificate():
    # pq = qp fails only past the first models of the scope, so a holds
    # certificate is checked over all 3,775 of them, not a prefix
    scope = Scope.exhaustive(3, commuting=False)
    forged = EquationCertificate("pq", "qp", scope.description, "holds",
                                 models_checked=3775)
    assert forged.scope == "exhaustive-all-n<=3"
    assert sum(1 for _ in scope.models()) == 3775
    assert not replay_certificate(forged, family=scope)


def test_fixture_equations_hold_and_need_commutation():
    assert len(FIXTURE_EQUATIONS) == 6
    assert all(rhs == "pqcpq" for _, rhs in FIXTURE_EQUATIONS)
    scope = Scope.exhaustive(2)
    for lhs, rhs in FIXTURE_EQUATIONS:
        assert idlab.test_equation(lhs, rhs, scope).holds, lhs
    # each fixture is refuted once commutation is dropped
    for lhs, rhs in FIXTURE_EQUATIONS:
        cert = search_counterexample(lhs, rhs, max_n=3)
        assert not cert.holds, lhs
        assert replay_certificate(cert)


# ---------------------------------------------------------------------------
# searches


def test_search_identities_small():
    eqs, scope, examined = search_identities(5, n=2)
    assert scope == "exhaustive-commuting-n<=2"
    assert len(eqs) == 43
    assert eqs[0] == ("qp", "pq")
    for lhs, rhs in eqs:
        # reduced words: no immediate letter repeats
        assert all(a != b for a, b in zip(lhs, lhs[1:]))
        assert all(a != b for a, b in zip(rhs, rhs[1:]))
        # the canonical side is shortlex-smaller
        assert (len(rhs), rhs) < (len(lhs), lhs)
    # the emitted equations really hold on their scope
    for lhs, rhs in eqs[:5]:
        assert idlab.test_equation(lhs, rhs, Scope.exhaustive(2)).holds


def test_search_identities_limit_and_degenerate():
    eqs, _, examined = search_identities(0, n=1)
    assert eqs == [] and examined == 1
    full, _, _ = search_identities(5, n=2)
    cut, _, _ = search_identities(5, n=2, limit=7)
    assert cut == full[:7]
    with pytest.raises(ValueError):
        search_identities(-1)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_search_identities_matches_the_word_by_word_oracle(n):
    # the oracle evaluates every reduced word from scratch in pure
    # Python; its equations for a shorter maxlen are those of its
    # shorter words, as shortlex order puts them first.  At n = 3 its
    # 2,075 pairs take it to length 6 only.
    longest = 6 if n == 3 else 8
    equations, words = identity_survey(longest, n)
    for maxlen in range(longest + 1):
        eqs, scope, examined = search_identities(maxlen, n=n)
        assert scope == f"exhaustive-commuting-n<={n}"
        assert examined == sum(1 for w in words if len(w) <= maxlen)
        assert eqs == [(lhs, rhs) for lhs, rhs in equations if len(lhs) <= maxlen]
    assert search_identities(longest, n=n, limit=5)[0] == equations[:5]
    assert search_identities(longest, n=n, limit=0)[0] == []


@pytest.mark.parametrize("kwargs", [
    {"maxlen": -1}, {"maxlen": idlab.MAXLEN_CAP + 1}, {"maxlen": 3, "n": -1},
    {"maxlen": 3, "n": idlab.PAIR_ENUMERATION_CAP + 1}, {"maxlen": 3, "limit": -1},
])
def test_search_identities_rejects_out_of_range_arguments(kwargs):
    with pytest.raises(ValueError):
        search_identities(**kwargs)


def test_search_rediscovers_the_long_fixture():
    eqs, _, examined = search_identities(13, n=2)
    assert ("pqcpcqcqcpcpq", "pqcpq") in eqs
    assert examined == 24574
    assert len(eqs) == 24134


def test_search_identities_lists_every_word_but_one_per_state_at_n3():
    # the word-by-word oracle reaches length 6 only at n = 3: here every
    # examined word either is its state's canonical word or yields an
    # equation, one canonical word for each of the 2,373 states
    eqs, _, examined = search_identities(16, n=3)
    assert examined - len(eqs) == 2373
    rights = {rhs for _, rhs in eqs}
    assert all(a != b for rhs in rights for a, b in zip(rhs, rhs[1:]))
    assert rights.isdisjoint(lhs for lhs, _ in eqs)


def test_search_counterexample_modes():
    # every ordered pair is in scope, commuting or not
    cert = search_counterexample("pq", "qp")
    assert not cert.holds and cert.scope == "exhaustive-all-n<=2"
    assert cert.model.commuting is False


def test_witness_search_regenerates_the_pinned_fixture():
    # sweeps n <= 4 exhaustively, skips n = 5 (checked exhaustively by
    # verify kuratowski14 --n 5), then seeded random families at n = 6
    # (hit at trial 1273)
    n, fixed, seed = find_kuratowski_witness()
    table, pinned_seed = kuratowski_witness()
    assert n == table.ground_size == 6
    assert seed == pinned_seed
    assert fixed == tuple(
        m for m in range(64) if int(table.entries[m]) == m
    )


def test_witness_search_draws_no_trial_at_n5(monkeypatch):
    drawn = []
    real = idlab._witness_family

    def counting(n, trial):
        drawn.append((n, trial))
        return real(n, trial)

    monkeypatch.setattr(idlab, "_witness_family", counting)
    assert find_kuratowski_witness()[0] == 6
    # whole blocks of 256 trials at n = 6, the fifth holding the hit at
    # trial 1273
    assert idlab.WITNESS_BLOCK_ENTRIES >> 6 == 256
    assert drawn == [(6, trial) for trial in range(1280)]


def test_witness_search_without_trials_finds_no_witness(monkeypatch):
    # n <= 4 holds no separating seed, and past n = 5 no trial is drawn
    monkeypatch.setattr(idlab, "WITNESS_TRIALS", 0)
    with pytest.raises(RuntimeError, match=r"^no separating 14-element witness found at n <= 8$"):
        find_kuratowski_witness()


def test_kc_screen_flags_hammer_failures_on_arbitrary_maps():
    rng = np.random.default_rng(9)
    maps = rng.integers(0, 4, size=(200, 4))
    _, hammer, _ = idlab._kc_screen(maps)
    flat = FlatScope(maps)
    want = (flat.eval("pcpcpcp") != flat.eval("pcp")).any(axis=1)
    assert want.any() and not want.all()
    assert hammer.tolist() == want.tolist()


def _bfs_separating_seed(k):
    """Smallest seed with 14 distinct images under the monoid of k and
    complement, or -1 when the monoid has fewer elements or no seed
    separates them."""
    mon = generate_monoid([k, complement_table(k.ground_size)], names=("k", "c"))
    if len(mon) != 14:
        return -1
    for seed in range(1 << k.ground_size):
        if len({e.apply(seed) for e in mon.elements}) == 14:
            return seed
    return -1


def _seeded_trial_closure(n, trial):
    rng = random.Random(idlab.WITNESS_SEARCH_BASE + trial)
    size = 1 << n
    count = rng.randint(1, min(size, 3 * n))
    members = [rng.randrange(size) for _ in range(count)] + [size - 1]
    return closure_from_fixed_points(n, members)


def test_kc_screen_sizes_match_the_monoid_bfs():
    # every closure at n <= 4, where the 14 words are closed under k and
    # c, then arbitrary maps at n = 2, where many rows are not and the
    # screen falls back to the BFS
    for n in range(5):
        c = complement_table(n)
        want = [len(generate_monoid([k, c])) for k in enumerate_closures(n)]
        assert idlab._kc_screen(idlab._closure_stack(n))[0].tolist() == want, n
    rng = np.random.default_rng(5)
    maps = rng.integers(0, 4, size=(200, 4))
    want = [len(generate_monoid([OperatorTable(2, row), complement_table(2)]))
            for row in maps]
    assert idlab._kc_screen(maps)[0].tolist() == want
    assert max(want) > 14


def test_witness_screen_matches_monoid_bfs_per_candidate():
    # Every closure at n <= 4, then the first four blocks of Moore
    # families at n = 5 and seeded trials at n = 6, across block
    # boundaries and past the hit at n = 6, trial 1273: the blocks must
    # hold the candidates in order, and the screen's seed for each must
    # be the BFS reference's.
    hits = []
    for n, trials in ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 1300)):
        blocks = list(islice(idlab._closure_blocks(n, trials), 4 if n == 5 else None))
        if n <= idlab.ENUMERATION_CAP:
            candidates = enumerate_closures(n)
        elif n == idlab.BLOCKED_ENUMERATION_CAP:
            candidates = [closure_from_fixed_points(n, elements_of(m))
                          for m in idlab._moore_families(n)[:2048].tolist()]
        else:
            candidates = [_seeded_trial_closure(n, t) for t in range(trials)]
        if n > idlab.ENUMERATION_CAP:
            assert len(blocks) >= 2  # the candidates cross a block boundary
        assert np.concatenate(blocks).tolist() == [k.entries.tolist() for k in candidates]
        got = np.concatenate([idlab._kc_screen(b)[2] for b in blocks])
        want = [_bfs_separating_seed(k) for k in candidates]
        assert got.tolist() == want, n
        hits += [(n, int(i), int(got[i])) for i in np.flatnonzero(got >= 0)]
    assert hits == [(6, 1273, 18)]
