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

A pinned single-closure witness whose monoid with complement reaches
the 14-element ceiling lives here too, with its regeneration search
kept in the enumeration module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .opalg import (
    MAX_GROUND_SIZE,
    AdditiveOperator,
    AxiomReport,
    FnOperator,
    OperatorTable,
    check_closure,
    closure_from_fixed_points,
    commutes,
    hex_rows,
    identity_table,
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

    @property
    def ground_size(self) -> int:
        return self.p.ground_size

    def element_names(self) -> tuple[str, ...]:
        if self.names is not None:
            return self.names
        return tuple(str(i) for i in range(self.ground_size))

    def mask_of_names(self, text: str) -> int:
        """Parse a comma-separated list of element names into a mask."""
        names = self.element_names()
        index = {name: i for i, name in enumerate(names)}
        mask = 0
        text = text.strip()
        if not text:
            return 0
        for part in text.split(","):
            part = part.strip()
            if part not in index:
                raise ValueError(f"unknown element {part!r}")
            mask |= 1 << index[part]
        return mask

    def format_mask(self, mask: int) -> str:
        names = self.element_names()
        return "{" + ",".join(names[i] for i in range(self.ground_size)
                              if (mask >> i) & 1) + "}"

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


def _segment_names(M: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(M + 1))


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
        names=_segment_names(M),
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
        names=_segment_names(M),
        commuting=p.compose(q) == q.compose(p),
    )


# ---------------------------------------------------------------------------
# the four (p_ij, q_ij) pairs on a cycle Z/(2m)


def _cycle_names(m: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(2 * m))


def _parity_mask(m: int, odd: bool) -> int:
    return sum(1 << i for i in range(2 * m) if i % 2 == (1 if odd else 0))


def _block_closure_table(m: int, q_blocks: bool) -> OperatorTable:
    """Closure whose proper closed sets are two-element blocks tiling
    the cycle: {2k+1, 2k+2} for the p flavor, {2k, 2k+1} for q (mod 2m).
    Everything not inside a single block closes to the whole cycle: the
    closed sets are the empty set, the m blocks and the cycle."""
    n = 2 * m
    blocks = [(1 << i) | (1 << (i + 1) % n) for i in range(0 if q_blocks else 1, n, 2)]
    return closure_from_fixed_points(n, [0, *blocks, (1 << n) - 1])


def _parity_add_table(m: int, odd: bool) -> OperatorTable:
    n = 2 * m
    pm = np.int64(_parity_mask(m, odd))
    return OperatorTable(n, np.arange(1 << n, dtype=np.int64) | pm, _validate=False)


def _pij_table(which: str, i: int, j: int, m: int) -> OperatorTable:
    n = 2 * m
    if (i, j) == (0, 0):
        return identity_table(n)
    if (i, j) == (1, 1):
        full = (1 << n) - 1
        return OperatorTable(n, np.full(1 << n, full, dtype=np.int64), _validate=False)
    if (i, j) == (1, 0):
        return _block_closure_table(m, q_blocks=(which == "q"))
    if (i, j) == (0, 1):
        return _parity_add_table(m, odd=(which == "p"))
    raise ValueError(f"pij indices must be 0 or 1, got ({i},{j})")


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
        names=_cycle_names(m),
        **_commuting_closures(_pij_table("p", i, j, m), _pij_table("q", i, j, m),
                              f"pij({i},{j}) at m={m}"),
    )


# ---------------------------------------------------------------------------
# the flagged cycle model: Z/(2m) plus top and bot


def _flagged_names(m: int) -> tuple[str, ...]:
    return _cycle_names(m) + ("top", "bot")


def _section4_tables(m: int) -> tuple[OperatorTable, OperatorTable]:
    n = 2 * m + 2
    top_bit = np.int64(1 << (2 * m))
    bot_bit = np.int64(1 << (2 * m + 1))
    zmask = np.int64((1 << (2 * m)) - 1)
    full = np.int64((1 << n) - 1)
    masks = np.arange(1 << n, dtype=np.int64)
    z = masks & zmask
    flags = masks & (top_bit | bot_bit)

    def combine(t10: OperatorTable, t01: OperatorTable) -> np.ndarray:
        return np.select(
            [
                flags == 0,
                flags == top_bit,
                flags == bot_bit,
            ],
            [
                z,
                t10.entries[z] | top_bit,
                t01.entries[z] | bot_bit,
            ],
            default=full,
        )

    p = combine(_pij_table("p", 1, 0, m), _pij_table("p", 0, 1, m))
    q = combine(_pij_table("q", 1, 0, m), _pij_table("q", 0, 1, m))
    return (
        OperatorTable(n, p, _validate=False),
        OperatorTable(n, q, _validate=False),
    )


def _block_image(z: int, m: int, q_blocks: bool) -> int:
    """Pointwise block closure on the cyclic part, for windows past the
    table cap."""
    n = 2 * m
    if z == 0:
        return 0
    i = (z & -z).bit_length() - 1
    start = 0 if q_blocks else 1
    if i % 2 == start % 2:
        a, b = i, (i + 1) % n
    else:
        a, b = (i - 1) % n, i
    block = (1 << a) | (1 << b)
    if z & ~block:
        return (1 << n) - 1
    return block


def _section4_fns(m: int):
    n = 2 * m + 2
    top_bit = 1 << (2 * m)
    bot_bit = 1 << (2 * m + 1)
    zmask = (1 << (2 * m)) - 1
    full = (1 << n) - 1
    odd = _parity_mask(m, odd=True)
    even = _parity_mask(m, odd=False)

    def make(q_flavor: bool):
        parity = even if q_flavor else odd

        def fn(a: int) -> int:
            flags = a & (top_bit | bot_bit)
            z = a & zmask
            if flags == 0:
                return z
            if flags == top_bit:
                return _block_image(z, m, q_blocks=q_flavor) | top_bit
            if flags == bot_bit:
                return z | parity | bot_bit
            return full

        return fn

    return make(False), make(True)


def section4_model(m: int, materialize: bool = True) -> ClosurePairModel:
    """The flagged-cycle pair: membership of top/bot in the argument
    dispatches to the four cycle flavors, p(A) = p_ij(A n Z) u flags
    with i = [top in A], j = [bot in A], q likewise with its flavors.

    Materialized (the default, within the table cap) the pair is
    screened for the closure axioms and commutation; otherwise the
    operators are plain functions at any size and only pointwise
    evaluation (orbits) applies.
    """
    window = WindowSpec("cycle", m)
    n = 2 * m + 2
    if materialize:
        if n > MAX_GROUND_SIZE:
            raise ValueError(f"ground size {n} exceeds the table cap")
        return ClosurePairModel(
            provenance=f"section4({m})",
            window=window,
            label=f"m={m}",
            names=_flagged_names(m),
            **_commuting_closures(*_section4_tables(m), f"flagged cycle at m={m}"),
        )
    p_fn, q_fn = _section4_fns(m)
    return ClosurePairModel(
        provenance=f"section4({m})",
        p=FnOperator(n, p_fn, "p"),
        q=FnOperator(n, q_fn, "q"),
        window=window,
        label=f"m={m} functional",
        names=_flagged_names(m),
        commuting=None,
    )


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
