"""Monoid generation over operator tables, with Cayley structure,
the pointwise order, orbit iteration, and growth studies.

Generation is breadth-first from the identity, appending generators on
the right (so a witness word like "kc" names the element that applies
c first, matching word semantics).  Elements are deduplicated by exact
table equality; witness words come out shortest-first with ties broken
by generator order, which makes every result canonical and replayable.

The engine is generic over the operator representation: anything with
identity(), compose(), key() and ground_size works, so the same BFS
runs on materialized tables and on the exact additive representation
used past the table cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import opalg
from .opalg import OperatorTable, eval_word_on, hex_rows, leq_matrix

DEFAULT_CAP = 10000


@dataclass
class GeneratedMonoid:
    generators: tuple
    generator_names: tuple[str, ...]
    elements: list
    witnesses: list[str]
    cayley: list[list[int]]  # cayley[e][g] = index of elements[e] . gen[g]
    truncated: bool

    def __len__(self):
        return len(self.elements)

    def to_json(self) -> dict:
        if not all(isinstance(e, OperatorTable) for e in self.elements):
            raise ValueError("only table-backed monoids serialize to JSON")
        return {
            "generator_names": list(self.generator_names),
            "size": len(self.elements),
            "truncated": self.truncated,
            "elements": [{"n": self.elements[0].ground_size, "entries": row} for row in
                         hex_rows(np.stack([e.entries for e in self.elements]))],
            "witnesses": list(self.witnesses),
            "cayley": [list(row) for row in self.cayley],
        }


def generate_monoid(generators, cap: int = DEFAULT_CAP, names=None) -> GeneratedMonoid:
    """BFS closure of the generators under right-composition.

    Starts from the identity (witness: the empty word).  Deterministic:
    FIFO frontier, generators expanded in the given order, so witnesses
    are shortest words with lexicographic-in-generator-order ties.
    Stops early and sets truncated when the element count would pass
    cap; the Cayley rows of unexpanded elements are marked -1.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be positive")
    n = generators[0].ground_size
    for g in generators:
        if g.ground_size != n:
            raise ValueError("generators have mixed ground sizes")
    if names is None:
        names = tuple("g{}".format(i) for i in range(len(generators)))
    names = tuple(names)
    if len(names) != len(generators):
        raise ValueError("one name per generator")

    ident = generators[0].identity()
    elements = [ident]
    witnesses = [""]
    index = {ident.key(): 0}
    cayley: list[list[int]] = [[-1] * len(generators)]
    truncated = False

    head = 0
    while head < len(elements):
        e = elements[head]
        for gi, g in enumerate(generators):
            if truncated:
                break
            new = e.compose(g)
            key = new.key()
            at = index.get(key)
            if at is None:
                if len(elements) >= cap:
                    truncated = True
                    break
                at = len(elements)
                index[key] = at
                elements.append(new)
                witnesses.append(witnesses[head] + names[gi])
                cayley.append([-1] * len(generators))
            cayley[head][gi] = at
        if truncated:
            break
        head += 1

    return GeneratedMonoid(
        generators=tuple(generators),
        generator_names=names,
        elements=elements,
        witnesses=witnesses,
        cayley=cayley,
        truncated=truncated,
    )


def hasse(monoid: GeneratedMonoid) -> list[tuple[int, int]]:
    """Covering relation of the pointwise order on the elements.

    Edges (i, j) mean element i is strictly below j with nothing in
    between; sorted by the witness words of the endpoints (shortest
    first, then lexicographic).  The order is one leq_matrix screen of
    the stacked tables; j covers i where the strict order's square,
    which counts the v with i < v < j, is 0 (in float32: exact, by BLAS).
    The square is formed in blocks of rows: one k x k float32 matrix.
    """
    if monoid.truncated:
        raise ValueError("refusing to order a truncated monoid")
    tables = np.stack([e.entries for e in monoid.elements])
    strict = leq_matrix(tables, tables)
    np.fill_diagonal(strict, False)
    counts = strict.astype(np.float32)
    step = max(1, opalg.COVER_BLOCK_ENTRIES // len(counts))
    edges = [(start + int(i), int(j)) for start in range(0, len(counts), step)
             for i, j in zip(*np.nonzero(strict[start:start + step]
                                         & (counts[start:start + step] @ counts == 0)))]

    def wkey(idx):
        w = monoid.witnesses[idx]
        return (len(w), w)

    edges.sort(key=lambda e: (wkey(e[0]), wkey(e[1])))
    return edges


@dataclass
class OrbitReport:
    word: str
    start: int
    images: list[int]  # distinct images, images[0] = start
    cycle_entry: Optional[int]  # index in images that the next step revisits
    truncated: bool  # max_iter reached before any repeat

    @property
    def distinct_count(self) -> int:
        return len(self.images)


def orbit(word, model, start: int, max_iter: int = 1000) -> OrbitReport:
    """Iterate the word's operator from start until the first repeat.

    images collects the distinct subsets in visit order; cycle_entry
    says where the first repeated image had appeared, or None when
    max_iter cut the walk short.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    seen = {start: 0}
    images = [start]
    a = start
    for _ in range(max_iter):
        a = eval_word_on(word, model.p, model.q, a)
        if a in seen:
            return OrbitReport(word, start, images, seen[a], False)
        seen[a] = len(images)
        images.append(a)
    return OrbitReport(word, start, images, None, True)


def growth_study(
    model_family: Callable[[int], object],
    word,
    start_rule,
    sizes,
    max_iter: int = 10000,
) -> list[tuple[int, int]]:
    """Distinct-orbit-count trend across window sizes.

    model_family(size) builds the model; start_rule is a mask or a
    callable size -> mask.  An increasing count across sizes is the
    finite-window witness for an infinitude claim: whatever bound a
    fixed window imposes, a larger window exceeds it.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    rows = []
    for size in sizes:
        model = model_family(size)
        start = start_rule(size) if callable(start_rule) else start_rule
        rep = orbit(word, model, start, max_iter=max_iter)
        rows.append((size, rep.distinct_count))
    return rows
