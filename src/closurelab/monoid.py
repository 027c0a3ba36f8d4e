"""Monoid generation over operator tables, with Cayley structure,
the pointwise order, orbit iteration, and growth studies.

Generation is breadth-first from the identity, appending generators on
the right (so a witness word like "kc" names the element that applies
c first, matching word semantics).  Elements are deduplicated by exact
equality; witness words come out shortest-first with ties broken by
generator order, which makes every result canonical and replayable.

There is one BFS and two product kernels.  It runs a level at a time
over one stack of element rows: one product call gives every
(element, generator) product of a block of the level, and the new rows
are found by their bytes in the narrowest dtype that holds a mask.  An
OperatorTable's row is its table, and a product is one gather.  An
AdditiveOperator's row is its singleton images, which is what takes
the growth study past the table cap, and a product ORs the images of
each singleton's image.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import opalg
from .opalg import AdditiveOperator, OperatorTable, eval_word_on, leq_matrix

DEFAULT_CAP = 10000


@dataclass
class GeneratedMonoid:
    generators: tuple
    generator_names: tuple[str, ...]
    witnesses: list[str]
    cayley: list[list[int]]  # cayley[e][g] = index of elements[e] . gen[g]
    truncated: bool
    #: the elements, one read-only stack of rows in the narrowest dtype
    #: that holds a mask: (k, 2**n) tables when the generators are
    #: OperatorTables, (k, n) singleton images when they are
    #: AdditiveOperators
    rows: np.ndarray

    def __len__(self):
        return len(self.witnesses)

    @functools.cached_property
    def elements(self) -> list:
        """The elements in BFS order, one operator of the generators'
        kind per row, built on first use."""
        n = self.generators[0].ground_size
        if isinstance(self.generators[0], OperatorTable):
            return [OperatorTable(n, row.astype(np.int64), _validate=False) for row in self.rows]
        return [AdditiveOperator(n, row.tolist()) for row in self.rows]


def generate_monoid(generators, cap: int = DEFAULT_CAP, names=None) -> GeneratedMonoid:
    """BFS closure of the generators under right-composition.

    The generators are all OperatorTables or all AdditiveOperators on
    at most 64 points.  Starts from the identity (witness: the empty
    word).  Deterministic: FIFO frontier, generators expanded in the
    given order, so witnesses are shortest words with
    lexicographic-in-generator-order ties.  Stops early and sets
    truncated when the element count would pass cap; the Cayley rows
    of unexpanded elements are marked -1.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be positive")
    if not any(all(isinstance(g, kind) for g in generators)
               for kind in (OperatorTable, AdditiveOperator)):
        raise ValueError("generators must be all OperatorTables or all AdditiveOperators")
    n = generators[0].ground_size
    for g in generators:
        if g.ground_size != n:
            raise ValueError("generators have mixed ground sizes")
    if names is None:
        names = tuple("g{}".format(i) for i in range(len(generators)))
    names = tuple(names)
    if len(names) != len(generators):
        raise ValueError("one name per generator")
    if isinstance(generators[0], AdditiveOperator) and n > 64:
        raise ValueError("additive generators are taken on at most 64 points")

    width = len(generators)
    identity, product, temporary = _kernel(generators, n)
    index, witnesses, edges, truncated = _bfs(identity, product, temporary, names, cap)
    # the keys are the rows in index order; joining them is the one copy
    rows = np.frombuffer(b"".join(index), dtype=identity.dtype).reshape(len(index), len(identity))
    # the edges no head reached before the cap are -1
    edges += [-1] * (len(witnesses) * width - len(edges))
    return GeneratedMonoid(
        generators=tuple(generators),
        generator_names=names,
        witnesses=witnesses,
        cayley=[edges[at:at + width] for at in range(0, len(edges), width)],
        truncated=truncated,
        rows=rows,
    )


def _kernel(generators, n: int):
    """(the identity row, the block product, the entries the product
    builds per (row, generator)) for the generators' kind.  The product
    maps a (k, w) block of rows to the (k, len(generators), w) rows of
    each row times each generator."""
    dtype = np.min_scalar_type((1 << n) - 1)
    if isinstance(generators[0], OperatorTable):
        gens = np.stack([g.entries for g in generators])
        return np.arange(1 << n, dtype=dtype), _gather(gens), 1 << n
    # member[g, i, j]: j is in generator g's image of singleton i, so
    # (e . g)'s image of i is the OR of e's images over those j
    images = np.array([g.images for g in generators], dtype=dtype).reshape(len(generators), n)
    member = ((images[:, :, None] >> np.arange(n, dtype=dtype)) & 1).astype(bool)
    return (np.array([1 << i for i in range(n)], dtype=dtype),
            lambda block: np.bitwise_or.reduce(np.where(member, block[:, None, None], 0), axis=3),
            n * n)


def _gather(tables: np.ndarray):
    """The block product of table rows, row e times table g being e[g]:
    contiguous, so the BFS reshapes it without a copy."""
    return lambda block: np.take(block, tables, axis=1)


def _bfs(identity, product, temporary: int, names: tuple, cap: Optional[int] = None,
         depth: Optional[int] = None):
    """The BFS a level at a time from the identity row, stopped past cap
    elements or after depth levels (neither when None): (the rows'
    bytes, each keyed to its index, witnesses, the Cayley entry of each
    edge expanded in (head, generator) order, truncated).  Each level
    goes through the product in blocks of rows whose temporaries hold
    at most TEMPORARY_ENTRIES entries.  A row is held only as its key."""
    width = len(names)
    front = [identity.tobytes()]  # the level's rows, as their keys
    witnesses = [""]
    index = {front[0]: 0}
    edges: list[int] = []
    step = max(1, opalg.TEMPORARY_ENTRIES // (width * max(1, temporary)))
    head = level = 0
    truncated = False
    while front and not truncated and (depth is None or level < depth):
        fresh = []
        for start in range(0, len(front), step):
            block = front[start:start + step]
            block = np.frombuffer(b"".join(block), identity.dtype).reshape(len(block), -1)
            products = product(block).reshape(len(block) * width, len(identity))
            keys = (products.view(np.dtype((np.void, products.strides[0])))[:, 0].tolist()
                    if len(identity) else [b""] * len(products))
            for j, key in enumerate(keys):
                at = index.get(key)
                if at is None:
                    if cap is not None and len(witnesses) >= cap:
                        truncated = True
                        break
                    at = index[key] = len(witnesses)
                    row, gi = divmod(j, width)
                    witnesses.append(witnesses[head + row] + names[gi])
                    fresh.append(key)
                edges.append(at)
            head += len(block)
            if truncated:
                break
        front = fresh
        level += 1
    return index, witnesses, edges, truncated


def hasse(monoid: GeneratedMonoid) -> list[tuple[int, int]]:
    """Covering relation of the pointwise order on the elements.

    Edges (i, j) mean element i is strictly below j with nothing in
    between; sorted by the witness words of the endpoints (shortest
    first, then lexicographic).  The order is one leq_matrix screen of
    the stacked tables.  Each row of the strict order is packed into
    bits (np.packbits), and j covers i where i < j and j is in none of
    the packed rows of i's strict upset, whose OR is taken row by row:
    the work is the sum over i of |upset(i)| * k / 8 bytes.
    """
    if monoid.truncated:
        raise ValueError("refusing to order a truncated monoid")
    if not isinstance(monoid.generators[0], OperatorTable):
        raise ValueError("only table-backed monoids are ordered")
    strict = leq_matrix(monoid.rows, monoid.rows)
    np.fill_diagonal(strict, False)
    packed = np.packbits(strict, axis=1)
    # row i: what lies strictly above something strictly above i
    above = np.array([np.bitwise_or.reduce(packed[up], axis=0) for up in strict])
    covers = np.unpackbits(packed & ~above, axis=1, count=len(strict))
    edges = list(zip(*(side.tolist() for side in np.nonzero(covers))))

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
    start_rule: Callable[[int], int],
    sizes,
) -> list[tuple[int, int]]:
    """Distinct-orbit-count trend across window sizes.

    model_family(size) builds the model and start_rule(size) the mask
    the orbit starts from; each orbit runs at most 10,000 steps.  An
    increasing count across sizes is the finite-window witness for an
    infinitude claim: whatever bound a fixed window imposes, a larger
    window exceeds it.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    rows = []
    for size in sizes:
        rep = orbit(word, model_family(size), start_rule(size), max_iter=10000)
        rows.append((size, rep.distinct_count))
    return rows
