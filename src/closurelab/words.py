"""Words over the three-letter alphabet c, p, q, held as plain strings:
parse_word checks a string's letters (through opalg's one alphabet
check) and returns it as it is.

A word denotes a composite powerset operator, letters acting right to
left (the rightmost letter is applied first), with c standing for
complementation and p, q for the two closure operators of whatever
model evaluates the word.

The balanced shape c a0 c a1 ... c a(2n+1), with an even number of c's
separating nonempty c-free blocks, is what translates into the term
language: block a0 gets a bar, a1 stays plain, and so on alternating,
because bar(g) = c g c makes the bars reproduce exactly the original
letter sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import theory
from .opalg import _word_letters


def parse_word(text: str) -> str:
    """text itself, once its letters are checked; empty input is the
    empty word.  Rejects anything outside {c, p, q} with its position."""
    return _word_letters(text)


BLOCK_CHOICES = ("p", "q", "pq")

#: the fourteen canonical words of the complement-closure monoid, in
#: breadth-first order (identity written "1")
KURATOWSKI_WORDS = (
    "1", "k", "c", "kc", "ck", "kck", "ckc", "kckc", "ckck",
    "kckck", "ckckc", "kckckc", "ckckck", "ckckckc",
)


@dataclass(frozen=True)
class Balanced:
    """Decomposition c blocks[0] c blocks[1] ... c blocks[-1], each
    block one of p, q, pq."""

    blocks: tuple[str, ...]

    @property
    def half_count(self) -> int:
        """The n with 2n+2 blocks."""
        return len(self.blocks) // 2 - 1

    def reassemble(self) -> str:
        return "".join("c" + b for b in self.blocks)


@dataclass(frozen=True)
class NotBalanced:
    position: int
    reason: str


def c_balanced(text: str) -> Union[Balanced, NotBalanced]:
    """Split w as c a0 c a1 ... c a(2n+1) if possible.

    The shape is strict: a leading c, after every c a block that is
    exactly p, q or pq, and an even number of c's (at least two).  Runs
    such as qp or ppq do not count as blocks, even though they denote
    the same operator for commuting pairs; equivalence of that kind is
    the evaluator's business, not the parser's.  Failures report the
    first offending position.
    """
    if not text:
        return NotBalanced(0, "empty word")
    if text[0] != "c":
        return NotBalanced(0, "must start with c")
    blocks = []
    i = 0
    while i < len(text):
        # text[i] == "c" here
        j = i + 1
        while j < len(text) and text[j] != "c":
            j += 1
        block = text[i + 1:j]
        if not block:
            return NotBalanced(i, "c not followed by a block")
        if block not in BLOCK_CHOICES:
            return NotBalanced(i + 1, f"block {block!r} is not one of p, q, pq")
        blocks.append(block)
        i = j
    if len(blocks) % 2:
        return NotBalanced(len(text), f"odd number of c's ({len(blocks)})")
    return Balanced(tuple(blocks))


def to_term(w: str) -> theory.Term:
    """Term of a balanced word: bars on the even-position blocks.

    Evaluating the result over any model gives exactly the same table
    as evaluating w itself, since each bar unfolds to c ... c.
    """
    dec = c_balanced(w)
    if isinstance(dec, NotBalanced):
        raise ValueError(
            f"word is not c-balanced at position {dec.position}: {dec.reason}"
        )
    factors = []
    for i, block in enumerate(dec.blocks):
        t = theory.prod(*[theory.parse_term(ch) for ch in block])
        factors.append(theory.Bar(t) if i % 2 == 0 else t)
    return theory.prod(*factors)


def theorem2_word(blocks) -> str:
    """The collapse family word pq c b1 c b2 ... c b(2n) c pq.

    blocks is the even-length nonempty tuple of inner factors, each one
    of p, q, pq.
    """
    blocks = tuple(blocks)
    if not blocks or len(blocks) % 2:
        raise ValueError("need a nonempty even-length block tuple")
    for b in blocks:
        if b not in BLOCK_CHOICES:
            raise ValueError(f"block must be one of {BLOCK_CHOICES}, got {b!r}")
    return "pq" + "".join("c" + b for b in blocks) + "cpq"
