import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import theory
from closurelab.opalg import parse_word
from closurelab.theory import BLOCK_CHOICES, parse_term, print_term, theorem2_word, to_term


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


def _refusal(text):
    """The position and reason to_term gives for a word it refuses."""
    with pytest.raises(ValueError) as err:
        to_term(parse_word(text))
    position, reason = re.fullmatch(r"word is not c-balanced at position (\d+): (.*)",
                                    str(err.value)).groups()
    return int(position), reason


def test_c_balanced_accepts_strict_shapes():
    assert to_term("cpcq").word == "cpcq"
    assert print_term(to_term("cpcq")) == "bar(p)q"
    assert print_term(to_term(parse_word("cpqcpcqcq"))) == "bar(pq)pbar(q)q"


def test_c_balanced_rejections_with_positions():
    # does not start with c
    assert _refusal("pcq") == (0, "must start with c")
    # bad block: qp is not one of p, q, pq
    assert _refusal("cqpcq") == (1, "block 'qp' is not one of p, q, pq")
    # bad block: ppq
    assert _refusal("cpcppq") == (3, "block 'ppq' is not one of p, q, pq")
    # two adjacent c's: empty block
    assert _refusal("ccp") == (0, "c not followed by a block")
    # odd number of blocks
    assert _refusal("cp") == (len("cp"), "odd number of c's (1)")
    # trailing c with no block
    assert _refusal("cpc") == (2, "c not followed by a block")


def test_c_balanced_empty_word():
    assert _refusal("") == (0, "empty word")


def _all_balanced_words(max_len):
    """Every c-balanced word of length <= max_len, by block tuples."""
    words = []
    for half in range(1, max_len // 4 + 2):
        for blocks in product(BLOCK_CHOICES, repeat=2 * half):
            text = "".join("c" + b for b in blocks)
            if len(text) <= max_len:
                words.append((text, blocks))
    return words


def _block_term(blocks):
    """The term of c blocks[0] c blocks[1] ..., parsed from its blocks:
    a bar on each even one."""
    return parse_term("".join(f"bar({b})" if i % 2 == 0 else f"({b})"
                              for i, b in enumerate(blocks)))


def test_round_trip_exhaustive_up_to_12():
    seen = 0
    for text, blocks in _all_balanced_words(12):
        assert to_term(parse_word(text)) == _block_term(blocks), text
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
    assert to_term(parse_word(text)) == _block_term(blocks)
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
