"""Tests for the concrete model constructors."""

import json
import random

import numpy as np
import pytest

from closurelab import idlab, models
from closurelab.models import (
    ModelConstructionError,
    WindowSpec,
    example3,
    example3_additive,
    kuratowski_witness,
    pij_pair,
    section4_model,
)
from closurelab.opalg import (
    AdditiveOperator,
    FnOperator,
    OperatorTable,
    check_closure,
    commutes,
    eval_word,
    full_mask,
    mask_of,
)

from _oracles import block_closure, block_closure_table


# ---------------------------------------------------------------------------
# windows


def test_window_spec_validation():
    w = WindowSpec("segment", 10)
    assert w.kind == "segment" and w.size == 10
    with pytest.raises(ValueError):
        WindowSpec("interval", 10)
    with pytest.raises(ValueError):
        WindowSpec("segment", 1)


def test_window_coercion():
    # each constructor takes its size as an int and records its window
    assert example3(6).window == WindowSpec("segment", 6)
    assert example3_additive(6).window == WindowSpec("segment", 6)
    assert pij_pair(1, 0, 4).window == WindowSpec("cycle", 4)
    assert section4_model(3).window == WindowSpec("cycle", 3)
    assert section4_model(3, materialize=False).window == WindowSpec("cycle", 3)
    with pytest.raises(ValueError):
        example3(1)


# ---------------------------------------------------------------------------
# staircase pair


def test_staircase_repaired_is_a_closure_pair():
    for M in range(2, 13):
        m = example3(M)
        assert m.p_report.ok and m.q_report.ok, M
        assert m.provenance == "example3-repaired"
    # p and q do not commute: q first grows {0} to {0,1}, then p can act
    m = example3(10)
    assert m.commuting is False
    zero = mask_of([0], m.ground_size)
    pq = m.p.entries[m.q.entries[zero]]
    qp = m.q.entries[m.p.entries[zero]]
    assert pq == mask_of([0, 1, 2], m.ground_size)
    assert qp == mask_of([0, 1], m.ground_size)
    assert pq != qp


def test_staircase_literal_fails_monotonicity():
    m = example3(10, variant="literal")
    assert m.provenance == "example3-literal"
    assert not m.p_report.ok
    checks = m.p_report.checks
    assert checks["expanding"].passed and checks["idempotent"].passed
    assert not checks["monotone"].passed
    a, b = checks["monotone"].witness
    assert (a, b) == (2, 10)  # {1} inside {1,3}, images incomparable
    assert a & ~b == 0
    pa = m.p.entries[a]
    pb = m.p.entries[b]
    assert pa & ~pb  # image of the smaller set sticks out


def test_staircase_repaired_is_refused_when_it_fails_the_screen(monkeypatch):
    failing = check_closure(example3(4, variant="literal").p)
    monkeypatch.setattr(models, "check_closure", lambda table: failing)
    with pytest.raises(ModelConstructionError,
                       match="^repaired staircase failed the closure screen$"):
        example3(4)
    # the literal tables still ship with the failing report attached
    assert example3(4, variant="literal").p_report is failing


def test_staircase_literal_and_repaired_agree_on_chains():
    # both variants walk {0} up the staircase two rungs per pq round
    for variant in ("literal", "repaired"):
        m = example3(8, variant=variant)
        a = mask_of([0], m.ground_size)
        for k in range(1, 4):
            a = m.p.entries[m.q.entries[a]]
            assert a == mask_of(range(2 * k + 1), m.ground_size), (variant, k)


def test_staircase_singleton_images():
    m = example3(6)
    n = m.ground_size
    for i in range(7):
        img_p = m.p.entries[1 << i]
        img_q = m.q.entries[1 << i]
        if i % 2 == 1 and i < 6:
            assert img_p == (1 << i) | (1 << (i + 1))
        else:
            assert img_p == 1 << i
        if i % 2 == 0 and i < 6:
            assert img_q == (1 << i) | (1 << (i + 1))
        else:
            assert img_q == 1 << i


def test_additive_constructor_matches_tables():
    for M in (2, 5, 8):
        small = example3(M)
        big = example3_additive(M)
        assert isinstance(big.p, AdditiveOperator)
        assert big.p.to_table() == small.p
        assert big.q.to_table() == small.q
        assert big.commuting is False


def test_additive_constructor_scales_past_table_cap():
    m = example3_additive(40)
    assert m.ground_size == 41
    a = mask_of([0], 41)
    for k in range(1, 16):
        a = m.p.apply(m.q.apply(a))
    assert a == mask_of(range(31), 41)


def test_staircase_variant_validation():
    with pytest.raises(ValueError):
        example3(6, variant="patched")
    with pytest.raises(ValueError):
        example3(25)  # ground size 26 exceeds the table cap


# ---------------------------------------------------------------------------
# the four cycle pairs


def test_pij_flavors_are_commuting_closure_pairs():
    for i in (0, 1):
        for j in (0, 1):
            m = pij_pair(i, j, 3)
            assert m.p_report.ok and m.q_report.ok
            assert m.commuting is True
            assert commutes(m.p, m.q)
            assert m.provenance == f"pij({i},{j})"


def test_pij_identity_and_constant():
    m00 = pij_pair(0, 0, 3)
    assert (m00.p.entries == range(1 << 6)).all()
    m11 = pij_pair(1, 1, 3)
    assert (m11.p.entries == full_mask(6)).all()


def test_pij_block_closure_values():
    m = pij_pair(1, 0, 3)
    n = m.ground_size
    assert n == 6
    assert m.p.apply(mask_of([1], n)) == mask_of([1, 2], n)
    assert m.p.apply(mask_of([1, 4], n)) == full_mask(n)
    assert m.p.apply(0) == 0
    # q blocks are offset by one
    assert m.q.apply(mask_of([0], n)) == mask_of([0, 1], n)
    # p blocks wrap around the cycle
    assert m.p.apply(mask_of([5], n)) == mask_of([5, 0], n)


def test_pij_parity_saturation_values():
    m = pij_pair(0, 1, 3)
    n = m.ground_size
    odd = mask_of([1, 3, 5], n)
    even = mask_of([0, 2, 4], n)
    assert m.p.apply(mask_of([0], n)) == mask_of([0], n) | odd
    assert m.q.apply(mask_of([1], n)) == mask_of([1], n) | even
    assert m.p.apply(0) == odd
    assert m.q.apply(0) == even


def test_block_closure_table_matches_hand_built_reference():
    for m in range(2, 10):
        for which in "pq":
            table = models._pij_table(which, 1, 0, m)
            assert table.ground_size == 2 * m
            assert tuple(table.entries.tolist()) == block_closure_table(m, which == "q"), (m, which)


def test_each_flavor_as_an_int_map_matches_its_table():
    for m in range(2, 7):
        for which in "pq":
            for (i, j), flavor in zip(((0, 0), (1, 0), (0, 1), (1, 1)), models._flavors(which, m)):
                entries = models._pij_table(which, i, j, m).entries.tolist()
                assert [flavor(a) for a in range(1 << (2 * m))] == entries, (m, which, i, j)


def test_block_closure_matches_the_oracle_past_the_table_cap():
    # at m = 1024, on seeded masks: half arbitrary, which close to the
    # cycle but for the rare one inside a block, and half two-point
    # sets, some of them blocks and some wrapping round the cycle
    m, rng = 1024, random.Random(29)
    masks = [rng.getrandbits(2 * m) for _ in range(1000)]
    masks += [(1 << rng.randrange(2 * m)) | (1 << rng.randrange(2 * m)) for _ in range(1000)]
    masks += [0b11, 0b110, 1 | 1 << (2 * m - 1)]
    for which in "pq":
        closure = models._flavors(which, m)[1]
        for a in masks:
            assert closure(a) == block_closure(a, m, which == "q"), (which, a)


def test_pij_validation():
    with pytest.raises(ValueError):
        pij_pair(2, 0, 3)
    with pytest.raises(ValueError):
        pij_pair(0, 0, 11)  # 2m = 22 past the table cap


# ---------------------------------------------------------------------------
# flagged cycle


def test_section4_names_and_screen():
    m = section4_model(3)
    assert m.ground_size == 8
    assert m.element_names()[-2:] == ("top", "bot")
    assert m.p_report.ok and m.q_report.ok and m.commuting is True


def test_section4_dispatch():
    m = section4_model(3)
    n = m.ground_size
    top = 1 << 6
    bot = 1 << 7
    one = mask_of([1], n)
    # no flags: identity on the cyclic part
    assert m.p.apply(one) == one
    # top flag: block closure flavor
    assert m.p.apply(one | top) == mask_of([1, 2], n) | top
    assert m.q.apply(one | top) == mask_of([0, 1], n) | top
    # bot flag: parity saturation flavor
    assert m.p.apply(one | bot) == one | mask_of([1, 3, 5], n) | bot
    # both flags: constant full
    assert m.p.apply(one | top | bot) == full_mask(n)


def test_section4_functional_matches_tables():
    for m in range(2, 7):
        table_model = section4_model(m)
        fn_model = section4_model(m, materialize=False)
        assert isinstance(fn_model.p, FnOperator)
        assert fn_model.commuting is None
        for op, table in ((fn_model.p, table_model.p), (fn_model.q, table_model.q)):
            assert [op.apply(a) for a in range(1 << (2 * m + 2))] == table.entries.tolist(), m


def test_section4_functional_scales_past_table_cap():
    m = section4_model(16, materialize=False)
    n = m.ground_size
    assert n == 34
    top = 1 << 32
    start = mask_of([0], n) | top
    # p's blocks are {2k+1, 2k+2} mod 32, so 0 shares one with 31; q's
    # are {2k, 2k+1}
    assert m.p.apply(start) == mask_of([0, 31], n) | top
    assert m.q.apply(start) == mask_of([0, 1], n) | top
    with pytest.raises(ValueError):
        section4_model(16, materialize=True)


# ---------------------------------------------------------------------------
# model plumbing


def test_mask_names_round_trip():
    m = section4_model(2)
    mask = m.mask_of_names("0, 2, top")
    assert mask == mask_of([0, 2], m.ground_size) | (1 << 4)
    assert m.format_mask(mask) == "{0,2,top}"
    assert m.mask_of_names("") == 0
    assert m.format_mask(0) == "{}"
    with pytest.raises(ValueError):
        m.mask_of_names("0, north")


def test_model_json_round_trip_bit_exact():
    # a dump spells each table's entries exactly, as hex, beside the
    # fields the model records
    for model in (example3(6), pij_pair(1, 0, 3), section4_model(2)):
        blob = json.loads(json.dumps(model.to_json(), sort_keys=True))
        for name, table in (("p", model.p), ("q", model.q)):
            assert blob[name]["n"] == model.ground_size
            assert [int(e, 16) for e in blob[name]["entries"]] == table.entries.tolist()
        assert blob["provenance"] == model.provenance
        assert blob["window"] == model.window.to_json()
        assert blob["names"] == list(model.element_names())
        assert blob["commuting"] is model.commuting
        assert blob["p_report"] == model.p_report.as_dict()


def test_json_rejects_functional_models():
    m = section4_model(3, materialize=False)
    with pytest.raises(ValueError):
        m.to_json()


def test_word_table_follows_reassigned_operators():
    m, other = pij_pair(1, 0, 3), pij_pair(0, 1, 3)
    first = m.word_table("pcq")
    assert first == eval_word("pcq", m.p, m.q) and m.word_table("pcq") is first
    m.p = other.p
    second = m.word_table("pcq")
    assert second == eval_word("pcq", other.p, m.q) != first
    m.q = other.q
    assert m.word_table("pcq") == eval_word("pcq", other.p, other.q) != second
    # an equal table held as another object is still a new operator
    held = m.word_table("pcq")
    m.p = OperatorTable(m.ground_size, m.p.entries)
    assert m.word_table("pcq") == held and m.word_table("pcq") is not held


def test_models_of_one_run_share_no_word_tables():
    run = next(r for r in idlab.Scope.exhaustive(2).runs() if r.ground_size == 2)
    twins = [run.model_at(1), run.model_at(1), run.model_at(2)]
    assert twins[0].p is twins[2].p
    words = ["", "p", "q", "cpcq", "pcqcpcq", "ccc"]
    tables = [[m.word_table(w) for w in words] for m in twins]
    assert tables[0] == tables[1]
    for i, mine in enumerate(tables):
        for j, theirs in enumerate(tables[:i]):
            assert not any(np.shares_memory(a.entries, b.entries)
                           for a in mine for b in theirs), (i, j)
        assert not any(np.shares_memory(a.entries, op.entries)
                       for a in mine for op in (twins[i].p, twins[i].q))


def test_model_construction_error_is_value_error():
    assert issubclass(ModelConstructionError, ValueError)


# ---------------------------------------------------------------------------
# pinned witness


def test_kuratowski_witness_is_a_closure():
    k, seed = kuratowski_witness()
    assert k.ground_size == 6
    assert check_closure(k).ok
    assert seed == mask_of([1, 4], 6)


def test_kuratowski_witness_separates_fourteen_words():
    from closurelab.suites import KURATOWSKI_WORDS

    k, seed = kuratowski_witness()
    assert len(KURATOWSKI_WORDS) == 14
    images = []
    for w in KURATOWSKI_WORDS:
        letters = w.replace("1", "").replace("k", "p")
        table = eval_word(letters, k, k)
        images.append(int(table.entries[seed]))
    assert len(set(images)) == 14
