from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import theory
from closurelab.opalg import parse_word
from closurelab.theory import (
    BLOCK_CHOICES,
    Balanced,
    NotBalanced,
    c_balanced,
    theorem2_word,
    to_term,
)


def test_word_basics():
    # a word is the checked string itself
    w = parse_word("cpq")
    assert type(w) is str and w == "cpq"
    assert len(w) == 3
    assert list(w) == ["c", "p", "q"]
    assert w + parse_word("cc") == "cpqcc"


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError, match="^unknown letter 'k' at position 2$"):
        parse_word("cpk")
    with pytest.raises(ValueError, match="^unknown letter 'a' at position 0$"):
        parse_word("abc")


def test_c_balanced_accepts_strict_shapes():
    b = c_balanced(parse_word("cpcq"))
    assert isinstance(b, Balanced)
    assert b.blocks == ("p", "q")
    assert to_term("cpcq").word == "cpcq"

    b2 = c_balanced(parse_word("cpqcpcqcq"))
    assert b2.blocks == ("pq", "p", "q", "q")


def test_c_balanced_rejections_with_positions():
    # does not start with c
    r = c_balanced(parse_word("pcq"))
    assert isinstance(r, NotBalanced)
    assert r.position == 0
    # bad block: qp is not one of p, q, pq
    r2 = c_balanced(parse_word("cqpcq"))
    assert isinstance(r2, NotBalanced)
    assert r2.position == 1
    assert "qp" in r2.reason
    # bad block: ppq
    r3 = c_balanced(parse_word("cpcppq"))
    assert isinstance(r3, NotBalanced)
    assert r3.position == 3
    # two adjacent c's: empty block
    r4 = c_balanced(parse_word("ccp"))
    assert isinstance(r4, NotBalanced)
    assert r4.position == 0
    # odd number of blocks
    r5 = c_balanced(parse_word("cp"))
    assert isinstance(r5, NotBalanced)
    assert r5.position == len("cp")
    # trailing c with no block
    r6 = c_balanced(parse_word("cpc"))
    assert isinstance(r6, NotBalanced)


def test_c_balanced_empty_word():
    r = c_balanced(parse_word(""))
    assert isinstance(r, NotBalanced)


def _all_balanced_words(max_len):
    """Every c-balanced word of length <= max_len, by block tuples."""
    words = []
    for half in range(1, max_len // 4 + 2):
        for blocks in product(BLOCK_CHOICES, repeat=2 * half):
            text = "".join("c" + b for b in blocks)
            if len(text) <= max_len:
                words.append((text, blocks))
    return words


def test_round_trip_exhaustive_up_to_12():
    seen = 0
    for text, blocks in _all_balanced_words(12):
        got = c_balanced(parse_word(text))
        assert isinstance(got, Balanced), text
        assert got.blocks == blocks
        assert to_term(text).word == text
        seen += 1
    assert seen > 50


@settings(max_examples=100)
@given(
    blocks=st.lists(
        st.sampled_from(BLOCK_CHOICES), min_size=2, max_size=10
    ).filter(lambda bs: len(bs) % 2 == 0)
)
def test_round_trip_random_blocks(blocks):
    text = "".join("c" + b for b in blocks)
    got = c_balanced(parse_word(text))
    assert isinstance(got, Balanced)
    assert got.blocks == tuple(blocks)
    assert to_term(text).word == text


def test_to_term_bars_even_positions():
    w = parse_word("cpcqcpqcq")
    t = to_term(w)
    assert theory.print_term(t) == "bar(p)qbar(pq)q"


def test_to_term_rejects_unbalanced():
    with pytest.raises(ValueError):
        to_term(parse_word("pcq"))


def test_theorem2_word_examples():
    assert theorem2_word(("p", "q")) == "pqcpcqcpq"
    assert theorem2_word(("pq", "pq")) == "pqcpqcpqcpq"


def test_theorem2_word_validation():
    with pytest.raises(ValueError):
        theorem2_word(())
    with pytest.raises(ValueError):
        theorem2_word(("p",))  # odd count
    with pytest.raises(ValueError):
        theorem2_word(("p", "qp"))  # not a block


def test_theorem2_word_structure():
    blocks = ("q", "pq", "p", "p")
    w = theorem2_word(blocks)
    assert w == "pq" + "".join("c" + b for b in blocks) + "cpq"
    assert w.startswith("pq") and w.endswith("cpq")
