"""Monoid generation over operator tables, with Cayley structure,
the pointwise order, orbit iteration, and growth studies.

Generation is breadth-first from the identity, appending generators on
the right (so a witness word like "kc" names the element that applies
c first, matching word semantics).  Elements are deduplicated by exact
table equality; witness words come out shortest-first with ties broken
by generator order, which makes every result canonical and replayable.

The BFS has two paths with the same output.  When every generator is an
OperatorTable, it runs a level at a time over one stack of tables: one
gather gives every (element, generator) product of a block of the
level, and the new rows are found by their bytes in the narrowest dtype
that holds a mask.  Any other operator representation, such as the
exact additive one used past the table cap, is composed an edge at a
time through its identity(), compose() and key().
"""

from __future__ import annotations

import functools
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
    witnesses: list[str]
    cayley: list[list[int]]  # cayley[e][g] = index of elements[e] . gen[g]
    truncated: bool
    #: the elements' tables, one read-only (k, 2**n) stack in the
    #: narrowest dtype that holds a mask; None when the generators
    #: are not tables
    tables: Optional[np.ndarray] = None
    #: the elements, when the generators are not tables
    operators: Optional[list] = None

    def __len__(self):
        return len(self.witnesses)

    @functools.cached_property
    def elements(self) -> list:
        """The elements in BFS order: the operators composed, or an
        OperatorTable per row of tables, built on first use."""
        if self.tables is None:
            return self.operators
        n = self.generators[0].ground_size
        return [OperatorTable(n, row.astype(np.int64), _validate=False) for row in self.tables]

    def to_json(self) -> dict:
        if self.tables is None:
            raise ValueError("only table-backed monoids serialize to JSON")
        n = self.generators[0].ground_size
        return {
            "generator_names": list(self.generator_names),
            "size": len(self),
            "truncated": self.truncated,
            "elements": [{"n": n, "entries": row} for row in hex_rows(self.tables)],
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

    if all(isinstance(g, OperatorTable) for g in generators):
        tables, witnesses, edges, truncated = _table_bfs(generators, n, cap, names)
        operators = None
    else:
        operators, witnesses, edges, truncated = _operator_bfs(generators, cap, names)
        tables = None
    # the edges no head reached before the cap are -1
    width = len(generators)
    edges += [-1] * (len(witnesses) * width - len(edges))
    return GeneratedMonoid(
        generators=tuple(generators),
        generator_names=names,
        witnesses=witnesses,
        cayley=[edges[at:at + width] for at in range(0, len(edges), width)],
        truncated=truncated,
        tables=tables,
        operators=operators,
    )


def _table_bfs(generators, n: int, cap: int, names: tuple):
    """The BFS over tables, a level at a time: (the read-only stack of
    element tables, witnesses, the Cayley entry of each edge expanded
    in (head, generator) order, truncated).  Each level is gathered in
    blocks of rows whose products hold at most COVER_BLOCK_ENTRIES
    entries; a row is keyed by its bytes in the narrowest dtype."""
    width = len(generators)
    gens = np.stack([g.entries for g in generators])
    front = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))[None]
    levels = [front]
    witnesses = [""]
    index = {front[0].tobytes(): 0}
    edges: list[int] = []
    step = max(1, opalg.COVER_BLOCK_ENTRIES // (width << n))
    head = 0
    truncated = False
    while len(front) and not truncated:
        fresh = []
        for start in range(0, len(front), step):
            products = front[start:start + step][:, gens].reshape(-1, 1 << n)
            keys = products.view(np.dtype((np.void, products.strides[0])))[:, 0].tolist()
            new = []
            for j, key in enumerate(keys):
                at = index.get(key)
                if at is None:
                    if len(witnesses) >= cap:
                        truncated = True
                        break
                    at = index[key] = len(witnesses)
                    row, gi = divmod(j, width)
                    witnesses.append(witnesses[head + row] + names[gi])
                    new.append(j)
                edges.append(at)
            fresh.append(products[new])
            head += len(keys) // width
            if truncated:
                break
        front = np.concatenate(fresh)
        levels.append(front)
    tables = np.concatenate(levels)
    tables.setflags(write=False)
    return tables, witnesses, edges, truncated


def _operator_bfs(generators, cap: int, names: tuple):
    """The BFS an edge at a time, for operators without tables:
    (elements, witnesses, edges, truncated) as in _table_bfs."""
    elements = [generators[0].identity()]
    witnesses = [""]
    index = {elements[0].key(): 0}
    edges: list[int] = []
    for head, e in enumerate(elements):
        for gi, g in enumerate(generators):
            new = e.compose(g)
            key = new.key()
            at = index.get(key)
            if at is None:
                if len(elements) >= cap:
                    return elements, witnesses, edges, True
                at = index[key] = len(elements)
                elements.append(new)
                witnesses.append(witnesses[head] + names[gi])
            edges.append(at)
    return elements, witnesses, edges, False


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
    if monoid.tables is None:
        raise ValueError("only table-backed monoids are ordered")
    strict = leq_matrix(monoid.tables, monoid.tables)
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
