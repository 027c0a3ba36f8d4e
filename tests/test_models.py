"""Tests for the concrete model constructors."""

import json

import pytest

from closurelab.models import (
    ClosurePairModel,
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
    apply,
    check_closure,
    commutes,
    eval_word,
    full_mask,
    mask_of,
)


# ---------------------------------------------------------------------------
# windows


def test_window_spec_validation():
    w = WindowSpec("segment", 10)
    assert w.kind == "segment" and w.size == 10
    with pytest.raises(ValueError):
        WindowSpec("interval", 10)
    with pytest.raises(ValueError):
        WindowSpec("segment", 1)
    assert WindowSpec.from_json(w.to_json()) == w


def test_window_coercion():
    m = example3(6)
    assert m.window == WindowSpec("segment", 6)
    m2 = example3(WindowSpec("segment", 6))
    assert m2.window == m.window
    with pytest.raises(ValueError):
        example3(WindowSpec("cycle", 6))
    with pytest.raises(ValueError):
        pij_pair(1, 0, WindowSpec("segment", 4))


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
    assert apply(m.p, mask_of([1], n)) == mask_of([1, 2], n)
    assert apply(m.p, mask_of([1, 4], n)) == full_mask(n)
    assert apply(m.p, 0) == 0
    # q blocks are offset by one
    assert apply(m.q, mask_of([0], n)) == mask_of([0, 1], n)
    # p blocks wrap around the cycle
    assert apply(m.p, mask_of([5], n)) == mask_of([5, 0], n)


def test_pij_parity_saturation_values():
    m = pij_pair(0, 1, 3)
    n = m.ground_size
    odd = mask_of([1, 3, 5], n)
    even = mask_of([0, 2, 4], n)
    assert apply(m.p, mask_of([0], n)) == mask_of([0], n) | odd
    assert apply(m.q, mask_of([1], n)) == mask_of([1], n) | even
    assert apply(m.p, 0) == odd
    assert apply(m.q, 0) == even


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
    assert apply(m.p, one) == one
    # top flag: block closure flavor
    assert apply(m.p, one | top) == mask_of([1, 2], n) | top
    assert apply(m.q, one | top) == mask_of([0, 1], n) | top
    # bot flag: parity saturation flavor
    assert apply(m.p, one | bot) == one | mask_of([1, 3, 5], n) | bot
    # both flags: constant full
    assert apply(m.p, one | top | bot) == full_mask(n)


def test_section4_functional_matches_tables():
    table_model = section4_model(3)
    fn_model = section4_model(3, materialize=False)
    assert isinstance(fn_model.p, FnOperator)
    assert fn_model.commuting is None
    for a in range(1 << 8):
        assert fn_model.p.apply(a) == int(table_model.p.entries[a])
        assert fn_model.q.apply(a) == int(table_model.q.entries[a])


def test_section4_functional_scales_past_table_cap():
    m = section4_model(16, materialize=False)
    n = m.ground_size
    assert n == 34
    top = 1 << 32
    start = mask_of([0], n) | top
    a = m.p.apply(start)
    assert a == mask_of([0, 1], n) | top or a == mask_of([31, 0], n) | top
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
    for model in (example3(6), pij_pair(1, 0, 3), section4_model(2)):
        blob = json.dumps(model.to_json(), sort_keys=True)
        back = ClosurePairModel.from_json(json.loads(blob))
        assert back.p == model.p
        assert back.q == model.q
        assert back.provenance == model.provenance
        assert back.window == model.window
        assert back.element_names() == model.element_names()
        assert back.commuting == model.commuting
        # reports are rebuilt from the tables, not read from the file
        assert back.p_report.ok == model.p_report.ok
        blob2 = json.dumps(back.to_json(), sort_keys=True)
        assert blob2 == blob


def test_json_round_trip_screens_commuting_rather_than_reading_it():
    # a dump whose commuting flag was edited reads back the flag its
    # tables give, as the reports do
    for model, tampered in ((pij_pair(1, 0, 2), False), (example3(6), True), (example3(6), None)):
        blob = model.to_json()
        blob["commuting"] = tampered
        back = ClosurePairModel.from_json(json.loads(json.dumps(blob)))
        assert back.commuting is commutes(model.p, model.q) is model.commuting


def test_json_rejects_functional_models():
    m = section4_model(3, materialize=False)
    with pytest.raises(ValueError):
        m.to_json()


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
