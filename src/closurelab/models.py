"""Concrete closure-pair models on finite ground sets.

Three families, all materialized as operator tables when the ground
size allows:

* staircase operators on a segment {0..M}: p pushes odd elements one
  step up, q pushes even ones.  Two variants ship: the sup-based
  "literal" one, which turns out to violate monotonicity (the failing
  report is attached rather than papered over), and the elementwise
  "repaired" one, which is a genuine closure pair (non-commuting).
* the four block/parity pairs on an even cycle Z/(2m), indexed by
  (i, j) in {0,1}^2: identity, two-element-block closures, parity
  saturation, and the constant-full map.
* the flagged cycle: Z/(2m) plus two extra points top and bot whose
  membership in the argument selects which (i, j) flavor acts on the
  cyclic part.  The resulting p, q commute, and the word cpcpcqcq
  walks {0, top} around the cycle two steps per application.

Each flavor is defined once, in _flavors, as a map of one mask or of an
array of masks: the pij tables, the flagged cycle's tables and its
functions past the table cap all read it.

A pinned single-closure witness whose monoid with complement reaches
the 14-element ceiling lives here too, with its regeneration search
kept in the enumeration module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .opalg import (
    MAX_GROUND_SIZE,
    AdditiveOperator,
    AxiomReport,
    FnOperator,
    OperatorTable,
    WordTables,
    check_closure,
    closure_from_fixed_points,
    commutes,
    format_set,
    hex_rows,
)


@dataclass(frozen=True)
class WindowSpec:
    """The window a model records: segment {0..size} or cycle
    Z/(2*size).  Constructors take the size as an int and build it."""

    kind: str  # "segment" | "cycle"
    size: int  # segment: top element M; cycle: half-length m

    def __post_init__(self):
        if self.kind not in ("segment", "cycle"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.size < 2:
            raise ValueError(f"window size must be at least 2, got {self.size}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "size": self.size}


class ModelConstructionError(ValueError):
    """A construction that is supposed to yield commuting closures
    failed its own axiom screen; indicates a transcription bug."""


def _commuting_closures(p: OperatorTable, q: OperatorTable, what: str) -> dict:
    """The screened fields of a model built to be a commuting closure
    pair: p, q, their closure reports and commuting.  A failed screen
    raises ModelConstructionError naming what."""
    p_report, q_report = check_closure(p), check_closure(q)
    if not (p_report.ok and q_report.ok and commutes(p, q)):
        raise ModelConstructionError(f"{what} failed the closure/commute screen")
    return dict(p=p, q=q, p_report=p_report, q_report=q_report, commuting=True)


def mask_of_names(text: str, names) -> int:
    """The mask of a comma-separated list of element names, names[i]
    naming element i; the empty list is the empty set."""
    index = {name: i for i, name in enumerate(names)}
    mask = 0
    for part in text.split(",") if text.strip() else ():
        part = part.strip()
        if part not in index:
            raise ValueError(f"unknown element {part!r}")
        mask |= 1 << index[part]
    return mask


@dataclass
class ClosurePairModel:
    """A ground size with two operators p, q and their pedigree.

    p and q are OperatorTables for materialized models; the large-
    window constructors may store additive or functional operators
    instead, in which case the axiom reports are absent and only
    pointwise evaluation is meaningful.
    """

    provenance: str
    p: object
    q: object
    window: Optional[WindowSpec] = None
    label: str = ""
    names: Optional[tuple[str, ...]] = None
    p_report: Optional[AxiomReport] = None
    q_report: Optional[AxiomReport] = None
    commuting: Optional[bool] = None
    _words: Optional[WordTables] = field(default=None, init=False, repr=False, compare=False)

    @property
    def ground_size(self) -> int:
        return self.p.ground_size

    def word_table(self, word) -> OperatorTable:
        """The table of a cpq-word on this model's p and q, from the
        model's WordTables: built on first use, and again once p or q
        is no longer the object it was built from.  The model keeps one
        table per distinct operator its words reached, for as long as
        it lives; eval_word is the path that keeps nothing."""
        words = self._words
        if words is None or words.p is not self.p or words.q is not self.q:
            words = self._words = WordTables(self.p, self.q)
        return words(word)

    def element_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(str(i) for i in range(self.ground_size))

    def mask_of_names(self, text: str) -> int:
        return mask_of_names(text, self.element_names())

    def format_mask(self, mask: int) -> str:
        return format_set(mask, self.element_names())

    def to_json(self) -> dict:
        if not isinstance(self.p, OperatorTable) or not isinstance(
            self.q, OperatorTable
        ):
            raise ValueError("only table-backed models serialize to JSON")
        p_hex, q_hex = hex_rows(np.stack([self.p.entries, self.q.entries]))
        out = {
            "provenance": self.provenance,
            "label": self.label,
            "window": self.window.to_json() if self.window else None,
            "names": list(self.element_names()),
            "p": {"n": self.ground_size, "entries": p_hex},
            "q": {"n": self.ground_size, "entries": q_hex},
            "commuting": self.commuting,
        }
        if self.p_report is not None:
            out["p_report"] = self.p_report.as_dict()
        if self.q_report is not None:
            out["q_report"] = self.q_report.as_dict()
        return out


# ---------------------------------------------------------------------------
# staircase operators on a segment window {0..M}


def _staircase_literal_tables(M: int) -> tuple[OperatorTable, OperatorTable]:
    """sup-based variant: add sup(A)+1 when sup(A) has the right parity
    and is below the window top (the unbounded clause acts as identity
    at the top)."""
    n = M + 1
    masks = np.arange(1 << n, dtype=np.int64)
    sup = np.full(1 << n, -1, dtype=np.int64)
    for i in range(n):
        sup = np.where((masks >> i) & 1, i, sup)
    nonempty = masks != 0
    in_range = sup < M
    succ_bit = np.left_shift(np.int64(1), np.maximum(sup + 1, 0))
    p_cond = nonempty & in_range & (sup % 2 == 1)
    q_cond = nonempty & in_range & (sup % 2 == 0)
    p = OperatorTable(n, np.where(p_cond, masks | succ_bit, masks), _validate=False)
    q = OperatorTable(n, np.where(q_cond, masks | succ_bit, masks), _validate=False)
    return p, q


def _staircase_images(M: int, odd: bool) -> tuple[int, ...]:
    """Singleton images of the repaired variant: element i maps to
    {i, i+1} when its parity matches and i < M, else to {i}."""
    images = []
    for i in range(M + 1):
        if i % 2 == (1 if odd else 0) and i < M:
            images.append((1 << i) | (1 << (i + 1)))
        else:
            images.append(1 << i)
    return tuple(images)


def example3(M: int, variant: str = "repaired") -> ClosurePairModel:
    """Staircase pair on the segment {0..M}.

    literal: p(A) = A + {sup A + 1} if sup A is odd and below M, else A;
    q the same with even sup.  repaired: p(A) = A + {a+1 : a in A odd,
    a < M}, q with even a.  Both variants walk (pq)^n({0}) up to
    {0..2n}; only the repaired one passes the closure screen, and the
    literal tables ship with their failing monotonicity report attached.
    M is at least 2, and M + 1 fits the table cap.
    """
    window = WindowSpec("segment", M)
    n = M + 1
    if n > MAX_GROUND_SIZE:
        raise ValueError(
            f"segment window {M} needs ground size {n} > {MAX_GROUND_SIZE};"
            " use example3_additive for large windows"
        )
    if variant == "literal":
        p, q = _staircase_literal_tables(M)
    elif variant == "repaired":
        p = AdditiveOperator(n, _staircase_images(M, odd=True)).to_table()
        q = AdditiveOperator(n, _staircase_images(M, odd=False)).to_table()
    else:
        raise ValueError(f"variant must be literal or repaired, got {variant!r}")
    p_report = check_closure(p)
    q_report = check_closure(q)
    if variant == "repaired" and not (p_report.ok and q_report.ok):
        raise ModelConstructionError("repaired staircase failed the closure screen")
    return ClosurePairModel(
        provenance=f"example3-{variant}",
        p=p,
        q=q,
        window=window,
        label=f"M={M}",
        p_report=p_report,
        q_report=q_report,
        commuting=commutes(p, q),
    )


def example3_additive(M: int) -> ClosurePairModel:
    """Repaired staircase as exact additive operators.

    The repaired maps preserve unions, so their singleton images
    determine them completely; this constructor works far beyond the
    table cap and composes exactly.  generate_monoid takes the pair up
    to M = 63 (64 points), with each element a row of singleton images,
    which is what the monoid growth of verify example3 at M = 32 runs on.
    """
    window = WindowSpec("segment", M)
    n = M + 1
    p = AdditiveOperator(n, _staircase_images(M, odd=True))
    q = AdditiveOperator(n, _staircase_images(M, odd=False))
    return ClosurePairModel(
        provenance="example3-repaired",
        p=p,
        q=q,
        window=window,
        label=f"M={M} additive",
        commuting=p.compose(q) == q.compose(p),
    )


# ---------------------------------------------------------------------------
# the four (p_ij, q_ij) flavors on a cycle Z/(2m), and the flagged cycle


def _flavors(which: str, m: int) -> tuple:
    """p's or q's four flavors on the cycle Z/(2m), (i, j) at index
    i + 2j, each a map of a mask, a Python int or an int64 array of
    them: (0,0) the identity, (1,0) the block closure, (0,1) adding the
    parity points, (1,1) the whole cycle.  p's points are the odd ones
    and q's the even ones: p adds Odd and its blocks {2k+1, 2k+2} start
    at odd points, q adds Even and its blocks {2k, 2k+1} start at even
    ones.  The block closure keeps the empty set, takes a subset of one
    block to that block, found from its lowest point, and every other
    subset to the whole cycle."""
    n = 2 * m
    cycle = (1 << n) - 1
    starts = cycle // 3 << (which == "p")  # the even points, shifted to the odd ones for p

    def block_closure(z):
        down = z & -z  # the lowest point,
        up = down & starts  # if it starts its block,
        down ^= up  # or if it ends it
        block = up | down | (up << 1 | up >> (n - 1)) & cycle | down >> 1 | (down & 1) << (n - 1)
        return block | ((z & ~block) != 0) * cycle

    return (lambda z: z, block_closure, lambda z: z | starts, lambda z: z | cycle)


def _pij_table(which: str, i: int, j: int, m: int) -> OperatorTable:
    masks = np.arange(1 << (2 * m), dtype=np.int64)
    return OperatorTable(2 * m, _flavors(which, m)[i + 2 * j](masks), _validate=False)


def pij_pair(i: int, j: int, m: int) -> ClosurePairModel:
    """The (i, j) flavor pair on the cycle Z/(2m), m at least 2.

    (0,0) identity / identity, (1,0) the two block closures, (0,1) the
    parity saturations (p adds Odd, q adds Even), (1,1) constant full.
    Every flavor is a commuting closure pair; a failure here means the
    transcription is wrong, so it raises rather than reports.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"pij indices must be 0 or 1, got ({i},{j})")
    window = WindowSpec("cycle", m)
    if 2 * m > MAX_GROUND_SIZE:
        raise ValueError(f"cycle 2m = {2*m} exceeds the table cap")
    return ClosurePairModel(
        provenance=f"pij({i},{j})",
        window=window,
        label=f"m={m}",
        **_commuting_closures(_pij_table("p", i, j, m), _pij_table("q", i, j, m),
                              f"pij({i},{j}) at m={m}"),
    )


def flagged_cycle_names(m: int) -> tuple[str, ...]:
    """The element names of the flagged cycle: 0..2m-1, top and bot."""
    return tuple(map(str, range(2 * m))) + ("top", "bot")


def section4_model(m: int, materialize: bool = True) -> ClosurePairModel:
    """The flagged-cycle pair on Z/(2m) plus top and bot: membership of
    top/bot in the argument dispatches to the four cycle flavors,
    p(A) = p_ij(A n Z) u flags with i = [top in A], j = [bot in A], q
    likewise with its flavors.  The flags are the bits past the cycle,
    so a mask's flavor index i + 2j is mask >> 2m, and the table is the
    four flavors' tables in that order, each with its flags.

    Materialized (the default, within the table cap) the pair is
    screened for the closure axioms and commutation; otherwise the
    operators are plain functions at any size and only pointwise
    evaluation (orbits) applies.
    """
    n, shift = 2 * m + 2, 2 * m
    fields = dict(provenance=f"section4({m})", window=WindowSpec("cycle", m),
                  names=flagged_cycle_names(m))
    flavors = {which: _flavors(which, m) for which in "pq"}
    if materialize:
        if n > MAX_GROUND_SIZE:
            raise ValueError(f"ground size {n} exceeds the table cap")
        z = np.arange(1 << shift, dtype=np.int64)
        p, q = (OperatorTable(n, np.concatenate([f(z) | k << shift for k, f in
                                                 enumerate(flavors[which])]), _validate=False)
                for which in "pq")
        return ClosurePairModel(label=f"m={m}", **fields,
                                **_commuting_closures(p, q, f"flagged cycle at m={m}"))
    cycle = (1 << shift) - 1

    def fn(which):
        return lambda a: flavors[which][a >> shift](a & cycle) | a >> shift << shift

    return ClosurePairModel(label=f"m={m} functional", p=FnOperator(n, fn("p"), "p"),
                            q=FnOperator(n, fn("q"), "q"), commuting=None, **fields)


# ---------------------------------------------------------------------------
# pinned 14-element witness


# The first hit of the seeded random search in
# idlab.find_kuratowski_witness (trial 1273 at ground size 6;
# regenerate with scripts/derive_constants.py), then frozen: a closure
# at ground size 6 whose monoid with complement has 14 elements, with
# the smallest seed subset whose 14 images are pairwise distinct.  It is
# not first in any canonical order: that order is swept only at ground
# sizes <= 4, where monoid size 14 occurs but no seed separates all 14
# operators; at ground size 5 verify kuratowski14 --n 5 checks every
# closure and finds no separating seed either.
KURATOWSKI_GROUND = 6
_KURATOWSKI_FIXED_POINTS = (
    0, 1, 2, 3, 5, 7, 11, 15, 32, 33, 34, 35,
    37, 39, 43, 47, 49, 53, 55, 63,
)
_KURATOWSKI_SEED = 18  # the subset {1, 4}


def kuratowski_witness() -> tuple[OperatorTable, int]:
    """The pinned closure table and seed subset attaining the
    14-element monoid ceiling with complement."""
    k = closure_from_fixed_points(KURATOWSKI_GROUND, _KURATOWSKI_FIXED_POINTS)
    return k, _KURATOWSKI_SEED
