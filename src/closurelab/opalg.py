"""Operators on the powerset of a finite ground set, as lookup tables.

Subsets of the ground set {0, ..., n-1} are bitmasks: bit i set means
element i is in the subset.  An operator is a total map from masks to
masks, stored as a numpy array of 2**n entries so that composition is a
single fancy-indexing pass and the operator axioms (expanding,
monotone, idempotent, and their interior duals) reduce to vectorized
screens.

Materialized tables are capped at ground size 20 (2**20 entries).  Two
escape hatches exist for larger ground sets: FnOperator wraps a plain
mask function, and AdditiveOperator represents a union-preserving map
by its images on singletons, which composes exactly without ever
touching the full powerset.

Words over the three-letter alphabet c, p, q are plain strings, checked
by parse_word, the one alphabet check.  A word denotes a composite
operator, letters acting right to left (the rightmost letter is applied
first), with c standing for complementation and p, q for the two
closure operators of whatever model evaluates the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

MAX_GROUND_SIZE = 20

Mask = int


def full_mask(n: int) -> Mask:
    """Bitmask of the whole ground set {0, ..., n-1}."""
    _check_ground_size(n)
    return (1 << n) - 1


def mask_of(elements: Iterable[int], n: int) -> Mask:
    """Bitmask of the given elements, validated against ground size n."""
    m = 0
    for e in elements:
        if not 0 <= e < n:
            raise ValueError(f"element {e} outside ground set of size {n}")
        m |= 1 << e
    return m


def elements_of(mask: Mask) -> list[int]:
    """Sorted list of elements in a bitmask."""
    if mask < 0:
        raise ValueError("negative mask")
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def format_set(mask: Mask, names: Optional[Sequence[str]] = None) -> str:
    """A subset as text, "{0,2}": its elements in order, each element i
    written as names[i] when names are given."""
    items = elements_of(mask)
    return "{" + ",".join(map(str, items) if names is None else (names[i] for i in items)) + "}"


def _check_ground_size(n: int) -> None:
    if not 0 <= n <= MAX_GROUND_SIZE:
        raise ValueError(
            f"ground size {n} outside supported range 0..{MAX_GROUND_SIZE}"
        )


def hex_rows(stack: np.ndarray) -> list[list[str]]:
    """Each row of a (k, 2**n) stack of tables as lowercase hex strings.
    The 2**n strings are built per call, not kept: 15 MB at n = 18."""
    digits = np.array(["%x" % a for a in range(stack.shape[-1])], dtype=object)
    return digits[stack].tolist()


class OperatorTable:
    """A powerset operator materialized as a table of 2**n masks.

    entries[a] is the image of subset a.  The array is immutable;
    compose() and the word evaluators build new tables via indexing.
    _validate=False is for an array the package has just built, such as
    a gather's result: it trusts entries to be an int64 ndarray of 2**n
    masks at a checked n, and only copies a view and freezes it.
    _rows is for the rows of a read-only stack the package has built:
    they are shared, not copied.
    """

    __slots__ = ("ground_size", "entries")

    def __init__(self, ground_size: int, entries, _validate: bool = True):
        if _validate:
            _check_ground_size(ground_size)
            entries = np.asarray(entries, dtype=np.int64)
            size = 1 << ground_size
            if entries.shape != (size,):
                raise ValueError(
                    f"table for ground size {ground_size} needs {size} entries,"
                    f" got shape {entries.shape}"
                )
            if entries.size and (int(entries.min()) < 0 or int(entries.max()) >= size):
                raise ValueError("table entry outside the powerset")
        # An unvalidated array is one an internal gather just built and
        # hands over, so it is frozen in place; a caller's array, or any
        # view, may still change under us and is copied.
        if entries.base is not None or (_validate and entries.flags.writeable):
            entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _rows(cls, ground_size: int, stack: np.ndarray) -> tuple["OperatorTable", ...]:
        """A table for each row of a (k, 2**n) int64 stack the package
        has built and frozen, whose entries are that row itself, a view,
        not a copy.  A writable stack is refused: its rows could change
        under the tables.  Like _validate=False, it trusts the stack's
        dtype, shape and values."""
        if stack.flags.writeable:
            raise ValueError("only a read-only stack's rows are shared")
        # the slots' own setters, past __init__ and the immutable __setattr__
        set_size, set_entries = cls.ground_size.__set__, cls.entries.__set__
        tables = []
        for row in stack:
            table = object.__new__(cls)
            set_size(table, ground_size)
            set_entries(table, row)
            tables.append(table)
        return tuple(tables)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorTable is immutable")

    def apply(self, a: Mask) -> Mask:
        return int(self.entries[a])

    def compose(self, other: "OperatorTable") -> "OperatorTable":
        """self after other: (self.compose(other))(a) == self(other(a))."""
        if self.ground_size != other.ground_size:
            raise ValueError("ground sizes differ")
        return OperatorTable(
            self.ground_size, self.entries[other.entries], _validate=False
        )

    def key(self) -> bytes:
        """Hashable exact fingerprint of the table."""
        return self.entries.tobytes()

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, OperatorTable):
            return NotImplemented
        # entries are always int64 of shape (2**n,): equal bytes, equal tables
        return self.ground_size == other.ground_size and self.key() == other.key()

    def __hash__(self):
        return hash((self.ground_size, self.key()))

    def __repr__(self):
        return f"OperatorTable(n={self.ground_size})"


@dataclass(frozen=True)
class FnOperator:
    """Powerset operator given by a plain mask function.

    No table is materialized, so the ground size may exceed the
    table cap; only pointwise application is available.
    """

    ground_size: int
    fn: Callable[[Mask], Mask]
    name: str = ""

    def apply(self, a: Mask) -> Mask:
        return self.fn(a)


class AdditiveOperator:
    """A union-preserving operator, stored by its images on singletons.

    f(A) = union of images[i] over i in A, with f(empty) = empty.  Such
    operators compose exactly through their singleton images, so they
    scale to ground sets far beyond the materialized-table cap.
    """

    __slots__ = ("ground_size", "images")

    def __init__(self, ground_size: int, images):
        if ground_size < 0:
            raise ValueError("negative ground size")
        images = tuple(int(m) for m in images)
        if len(images) != ground_size:
            raise ValueError(
                f"need {ground_size} singleton images, got {len(images)}"
            )
        full = (1 << ground_size) - 1
        for i, m in enumerate(images):
            if m < 0 or m & ~full:
                raise ValueError(f"image of singleton {i} outside the powerset")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("AdditiveOperator is immutable")

    def apply(self, a: Mask) -> Mask:
        out = 0
        m = a
        while m:
            low = m & -m
            out |= self.images[low.bit_length() - 1]
            m ^= low
        return out

    def compose(self, other: "AdditiveOperator") -> "AdditiveOperator":
        if self.ground_size != other.ground_size:
            raise ValueError("ground sizes differ")
        return AdditiveOperator(
            self.ground_size, tuple(self.apply(m) for m in other.images)
        )

    def to_table(self) -> OperatorTable:
        n = self.ground_size
        _check_ground_size(n)
        masks = np.arange(1 << n, dtype=np.int64)
        out = np.zeros(1 << n, dtype=np.int64)
        for i, img in enumerate(self.images):
            out |= ((masks >> i) & 1) * np.int64(img)
        return OperatorTable(n, out, _validate=False)

    def __eq__(self, other):
        if not isinstance(other, AdditiveOperator):
            return NotImplemented
        return self.ground_size == other.ground_size and self.images == other.images

    def __hash__(self):
        return hash((self.ground_size, self.images))

    def __repr__(self):
        return f"AdditiveOperator(n={self.ground_size})"


def identity_table(n: int) -> OperatorTable:
    _check_ground_size(n)
    return OperatorTable(n, np.arange(1 << n, dtype=np.int64), _validate=False)


def complement_table(n: int) -> OperatorTable:
    return OperatorTable(n, _complement_entries(n), _validate=False)


@lru_cache(maxsize=None)
def _complement_entries(n: int) -> np.ndarray:
    """The complement table's entries at ground size n, shared: a view of
    a read-only array, so no caller can make it writable again."""
    _check_ground_size(n)
    entries = np.int64((1 << n) - 1) ^ np.arange(1 << n, dtype=np.int64)
    entries.setflags(write=False)
    return entries[:]


def closure_from_fixed_points(n: int, fixed: Iterable[Mask]) -> OperatorTable:
    """Smallest-enclosing-member operator of a subset family.

    Maps A to the intersection of all family members containing A.  The
    family must contain the full ground set so the intersection is never
    empty-ranged, and members may repeat.  The result is always a
    closure operator; its fixed points are the meet-closure of the input
    family.  The members are checked before they become a bitmask, so a
    member outside the powerset is refused, never shifted; the table
    comes from closures_from_masks.
    """
    _check_ground_size(n)
    full = (1 << n) - 1
    members = set(map(int, fixed))
    if members and (min(members) < 0 or max(members) > full):
        raise ValueError("family member outside the powerset")
    if full not in members:
        raise ValueError("family must contain the full ground set")
    mask = sum(1 << m for m in members)
    return OperatorTable(n, closures_from_masks(n, [mask])[0], _validate=False)


def closures_from_masks(n: int, masks) -> np.ndarray:
    """The (k, 2**n) entries of the smallest-enclosing-member operator
    of k families given as bitmasks, bit s of masks[i] set when subset
    s is a member of family i.  masks is a sequence of Python ints below
    2**(2**n), or (n <= 5) an int64 array; every mask must hold the full
    ground set, bit 2**n - 1, which is not checked here.  Membership is
    unpacked in one np.unpackbits call: each member s is its own entry,
    every other subset starts at the full set, and the meet passes do
    the rest."""
    _check_ground_size(n)
    size, k = 1 << n, len(masks)
    if isinstance(masks, np.ndarray):
        raw = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(k, 8)
    else:
        width = (size + 7) // 8
        raw = np.frombuffer(b"".join([m.to_bytes(width, "little") for m in masks]),
                            dtype=np.uint8).reshape(k, width)
    members = np.unpackbits(raw, axis=1, count=size, bitorder="little").view(bool)
    # The meet runs subset-major, out[A, r] for family r, in the
    # narrowest dtype that holds a mask, so each pass is one operation
    # on contiguous runs of k << i entries.  Meet over supersets, one
    # element at a time: after pass i, out[A, r] is the meet of the
    # members B >= A of family r that differ from A only in elements
    # 0..i.  Each pass is O(k 2^n) however many members there are.  The
    # meet goes into the view in place, as halves[:, 0] &= ... would
    # write it back through a second subscript.
    dtype = np.min_scalar_type(size - 1)
    out = np.full((size, k), size - 1, dtype=dtype)
    np.copyto(out, np.arange(size, dtype=dtype)[:, None], where=members.T)
    for i in range(n):
        halves = out.reshape(size >> (i + 1), 2, k << i)
        lacks = halves[:, 0]  # the subsets without element i
        lacks &= halves[:, 1]
    return np.ascontiguousarray(out.T, dtype=np.int64)


def leq(f: OperatorTable, g: OperatorTable) -> bool:
    """Pointwise order: f(A) a subset of g(A) for every A."""
    if f.ground_size != g.ground_size:
        raise ValueError("ground sizes differ")
    return not np.any(f.entries & ~g.entries)


#: the most entries one numpy temporary holds at once: leq_matrix's
#: screen and a row block of the monoid module's table BFS gather
TEMPORARY_ENTRIES = 1 << 20


def leq_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (k, k') bool matrix of the pointwise order between a
    (k, 2**n) stack of tables a and a (k', 2**n) stack b: le[i, j] says
    a[i](A) is a subset of b[j](A) for every A.  Stacks of shape
    (m, k, 2**n) and (m, k', 2**n) give the (m, k, k') matrices of their
    m pairs of stacks, one screen for all.  The mask axis is screened a
    slice at a time, in the narrowest dtype that holds a mask, so the
    (m, k, k', slice) temporary holds at most TEMPORARY_ENTRIES
    entries, or m * k * k' if one mask is more."""
    *batch, k, size = a.shape
    if b.shape[-1] != size:
        raise ValueError("ground sizes differ")
    if b.shape[:-2] != a.shape[:-2]:
        raise ValueError("the stacks' leading axes differ")
    dtype = np.min_scalar_type(size - 1)
    a, b = a.astype(dtype), b.astype(dtype)
    le = np.ones((*batch, k, b.shape[-2]), dtype=bool)
    step = max(1, TEMPORARY_ENTRIES // max(1, le.size))
    for start in range(0, size, step):
        outside = a[..., :, None, start:start + step] & ~b[..., None, :, start:start + step]
        le &= ~outside.any(axis=-1)
    return le


@dataclass(frozen=True)
class Check:
    """Outcome of a single axiom screen.

    witness is None on success; otherwise a mask (unary axioms) or an
    (A, B) mask pair (monotonicity), smallest in mask-integer order.
    """

    passed: bool
    witness: Union[None, Mask, tuple[Mask, Mask]] = None

    def witness_elements(self):
        if self.witness is None:
            return None
        if isinstance(self.witness, tuple):
            return [elements_of(m) for m in self.witness]
        return elements_of(self.witness)


@dataclass(frozen=True)
class AxiomReport:
    """Named axiom screens of one table, in screening order; a check
    is read by name, as report.checks["monotone"]."""

    checks: dict[str, Check]

    @property
    def ok(self) -> bool:
        return all(chk.passed for chk in self.checks.values())

    def as_dict(self) -> dict:
        return {
            name: {"passed": chk.passed, "witness": chk.witness_elements()}
            for name, chk in self.checks.items()
        }


def _first_true(condition) -> Optional[int]:
    idx = np.flatnonzero(condition)
    return int(idx[0]) if idx.size else None


def _mask_check(failing) -> Check:
    """Passed, or failed at the smallest mask where failing is nonzero."""
    bad = _first_true(failing)
    return Check(True) if bad is None else Check(False, bad)


def _monotone_fast(entries: np.ndarray, n: int) -> np.ndarray:
    # Row by row over the last axis: monotonicity over all pairs A <= B
    # follows from the single-element covers A <= A + {i}: one pass per
    # bit i over the halves without and with it.  One table gives a 0-d result.
    ok = np.ones(entries.shape[:-1], dtype=bool)
    for i in range(n):
        h = entries.reshape(entries.shape[:-1] + (-1, 2, 1 << i))
        ok &= ~np.any(h[..., 0, :] & ~h[..., 1, :], axis=(-2, -1))
    return ok


def _monotone_witness(entries: np.ndarray, n: int) -> tuple[Mask, Mask]:
    """Smallest failing (A, B), A a subset of B with f(A) outside f(B),
    in mask order: A ascending, then B.  meet[A] is the AND of f(B) over
    the supersets B of A, by one in-place pass per element over the
    halves without and with it (as in closures_from_masks); A is the
    first mask with f(A) outside meet[A], and B the first superset of A
    that f(A) is not inside."""
    meet = entries.copy()
    for i in range(n):
        halves = meet.reshape(-1, 2, 1 << i)
        lacks = halves[:, 0]
        lacks &= halves[:, 1]
    a = _first_true(entries & ~meet)
    masks = np.arange(entries.size)
    return a, _first_true(((masks & a) == a) & ((entries[a] & ~entries) != 0))


def _axiom_report(f: OperatorTable, first: str, failing) -> AxiomReport:
    """The report of the axiom named first, failing at the masks where
    failing is nonzero, then of monotone and idempotent, which closure
    and interior operators share."""
    e, n = f.entries, f.ground_size
    monotone = _monotone_fast(e, n)
    return AxiomReport({
        first: _mask_check(failing),
        "monotone": Check(True) if monotone else Check(False, _monotone_witness(e, n)),
        "idempotent": _mask_check(e[e] != e),
    })


def check_closure(f: OperatorTable) -> AxiomReport:
    """Screen the three closure axioms (expanding, monotone,
    idempotent), with smallest witnesses on failure."""
    masks = np.arange(1 << f.ground_size, dtype=np.int64)
    return _axiom_report(f, "expanding", masks & ~f.entries)


def check_interior(f: OperatorTable) -> AxiomReport:
    """Screen the interior axioms (contracting, monotone, idempotent)."""
    masks = np.arange(1 << f.ground_size, dtype=np.int64)
    return _axiom_report(f, "contracting", f.entries & ~masks)


def _axiom_rows(entries: np.ndarray, n: int, failing) -> np.ndarray:
    """Which rows of a (k, 2**n) stack of tables pass the axiom that
    fails where failing is nonzero, and are monotone and idempotent:
    _axiom_report's screens, one row per table and no witnesses."""
    idempotent = ~np.any(np.take_along_axis(entries, entries, -1) != entries, axis=-1)
    return ~np.any(failing, axis=-1) & idempotent & _monotone_fast(entries, n)


def closure_rows(entries: np.ndarray, n: int) -> np.ndarray:
    """Which rows of a (k, 2**n) stack of tables are closure operators;
    check_closure screens one table and names witnesses."""
    return _axiom_rows(entries, n, np.arange(1 << n) & ~entries)


def interior_rows(entries: np.ndarray, n: int) -> np.ndarray:
    """Which rows of a (k, 2**n) stack of tables are interior operators;
    check_interior screens one table and names witnesses."""
    return _axiom_rows(entries, n, entries & ~np.arange(1 << n))


def commuting_witness(f: OperatorTable, g: OperatorTable) -> Optional[Mask]:
    """Smallest A with f(g(A)) != g(f(A)), or None if they commute."""
    if f.ground_size != g.ground_size:
        raise ValueError("ground sizes differ")
    return _first_true(f.entries[g.entries] != g.entries[f.entries])


def commuting_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which rows i of two (k, 2**n) stacks have p[i] q[i] = q[i] p[i];
    commuting_witness screens one pair and names a witness.  Each side
    is one 1-D gather over FlatScope's shifted tables: both composites
    carry row i's offset, so they are equal exactly where pq = qp."""
    tables = FlatScope(p, q).tables
    return (tables["p"][tables["q"]] == tables["q"][tables["p"]]).reshape(p.shape).all(axis=-1)


def commutes(f: OperatorTable, g: OperatorTable) -> bool:
    return commuting_witness(f, g) is None


def lift_permutation(perm) -> OperatorTable:
    """Lift a permutation of the ground set to a bijection of the powerset."""
    perm = list(perm)
    n = len(perm)
    _check_ground_size(n)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for i, pi in enumerate(perm):
        out |= ((masks >> i) & 1) << np.int64(pi)
    return OperatorTable(n, out, _validate=False)


def conjugated_involution(perm) -> OperatorTable:
    """Complement conjugated by a lifted permutation.

    Returns lift(perm) . complement . lift(perm)^-1.  This is always an
    inclusion-reversing involution; in fact lifted permutations commute
    with complementation, so the result coincides with the complement
    table itself for every perm (a property the tests pin down).
    """
    perm = list(perm)
    n = len(perm)
    inv = [0] * n
    for i, pi in enumerate(perm):
        inv[pi] = i
    lp = lift_permutation(perm)
    lpinv = lift_permutation(inv)
    full = np.int64((1 << n) - 1)
    return OperatorTable(n, lp.entries[full ^ lpinv.entries], _validate=False)


def reversed_involution(perm) -> OperatorTable:
    """lift(perm) . complement for an involutive perm.

    For perm an involution of the ground set this is an
    inclusion-reversing involution of the powerset, and it differs from
    plain complementation whenever perm is not the identity.
    """
    perm = list(perm)
    n = len(perm)
    for i, pi in enumerate(perm):
        if perm[pi] != i:
            raise ValueError("perm is not an involution")
    lp = lift_permutation(perm)
    full = np.int64((1 << n) - 1)
    return OperatorTable(n, lp.entries[full ^ np.arange(1 << n, dtype=np.int64)],
                         _validate=False)


def is_reversing_involution(f: OperatorTable) -> bool:
    """Inclusion-reversing (A <= B implies f(B) <= f(A)) and self-inverse."""
    n = f.ground_size
    e = f.entries
    masks = np.arange(1 << n, dtype=np.int64)
    if np.any(e[e] != masks):
        return False
    # f is antitone exactly when its complement is monotone
    return bool(_monotone_fast(full_mask(n) ^ e, n))


_WORD_LETTERS = frozenset("cpq")


def parse_word(text: str) -> str:
    """text itself, once its letters are checked; empty input is the
    empty word.  Rejects anything outside {c, p, q} with its position."""
    if not _WORD_LETTERS.issuperset(text):
        i, ch = next((i, ch) for i, ch in enumerate(text) if ch not in _WORD_LETTERS)
        raise ValueError(f"unknown letter {ch!r} at position {i}")
    return text


def format_word(word: str) -> str:
    """A word as report text: the empty word, the identity, is 1."""
    return word or "1"


def eval_word(word, p: OperatorTable, q: OperatorTable) -> OperatorTable:
    """Table of a cpq-word, letters acting right-to-left as usual, c
    being complementation: the one-shot path, which keeps nothing, with
    two tables alive at any n.  WordTables gives the same tables from a
    pair's automaton, for many words on one pair.

    This is FlatScope.eval on a single model, whose one row needs no
    offset, so no scope is built: the last letter's table is the start,
    and every other letter, c included, is one gather through its table
    (c's is cached per n).  The empty word is the identity table.  A
    FlatScope given a c stack substitutes another table, such as a
    different inclusion-reversing involution, for every c letter.
    """
    text = parse_word(word)
    tables = _letter_tables(p, q)
    n = p.ground_size
    if not text:
        return identity_table(n)
    v = _apply_letters(text[:-1], tables, tables[text[-1]], (1 << n) - 1)
    return OperatorTable(n, v, _validate=False)


def _letter_tables(p: OperatorTable, q: OperatorTable) -> dict:
    """The entries of each letter's table on one pair: p's, q's and the
    complement's at their ground size.  An operator that is not an
    OperatorTable is refused, by its type, and so are mixed sizes."""
    for op in (p, q):
        if not isinstance(op, OperatorTable):
            raise TypeError(f"word evaluation needs OperatorTables, got {type(op).__name__}")
    if q.ground_size != p.ground_size:
        raise ValueError("ground sizes differ")
    return {"p": p.entries, "q": q.entries, "c": _complement_entries(p.ground_size)}


class WordTables:
    """The tables of cpq-words on one pair (p, q), as the right Cayley
    graph of the pair's monoid <c, p, q>, built as words reach it (the
    lazy enumeration of Froidure and Pin, 1997).

    states[i] is a distinct table, kept once, read-only; state 0 is the
    identity.  edges[i][letter] is the state of letter after states[i].
    Calling it with a new word checks its letters, then walks them
    right to left from state 0, as eval_word applies them; an edge not
    yet held costs one gather and a lookup of the result among the
    states, and every later step along it is a dict lookup.  A word's
    table is the state it ends in, held under the word, so a repeated
    word is one lookup and returns the same object.  The states stay as
    long as the WordTables does: one table per distinct operator its
    words reached, at most |<c, p, q>|, and one entry per word walked.
    """

    def __init__(self, p: OperatorTable, q: OperatorTable):
        self._letters = _letter_tables(p, q)
        self.p, self.q = p, q
        identity = identity_table(p.ground_size)
        self.states = [identity]
        self.edges = [{}]
        self._index = {identity.key(): 0}
        self._words = {}

    def __call__(self, word) -> OperatorTable:
        table = self._words.get(word)
        if table is None:
            state = 0
            for letter in reversed(parse_word(word)):
                step = self.edges[state].get(letter)
                if step is None:
                    step = self._step(state, letter)
                state = step
            table = self._words[word] = self.states[state]
        return table

    def _step(self, state: int, letter: str) -> int:
        """Gather the edge (state, letter), hold it, and return its end."""
        entries = self._letters[letter][self.states[state].entries]
        key = entries.tobytes()
        end = self._index.get(key)
        if end is None:
            end = self._index[key] = len(self.states)
            self.states.append(OperatorTable(self.p.ground_size, entries, _validate=False))
            self.edges.append({})
        self.edges[state][letter] = end
        return end


class FlatScope:
    """k models of one ground size n in one flat vector, row i at offset
    i * 2**n, so that a word is evaluated on all of them at once.

    p and q are (k, 2**n) stacks of entry arrays, row i holding the
    tables of model i; q may be left out when no word uses it, and a
    word with a q letter is then refused.  c is complementation unless
    a (k, 2**n) stack is given to substitute for every c letter.  Each
    stack given is shifted by its rows' offsets once, when the scope is
    built, and each letter is then one 1-D gather across all rows.  The
    offsets are multiples of 2**n, so complementing is an XOR with the
    full mask, and masking with it at the end drops them.
    """

    def __init__(self, p: np.ndarray, q: Optional[np.ndarray] = None,
                 c: Optional[np.ndarray] = None):
        k, size = p.shape
        if any(t is not None and t.shape != p.shape for t in (q, c)):
            raise ValueError("ground sizes differ")
        self.shape = (k, size)
        self._offsets = np.arange(0, k * size, size, dtype=np.int64)[:, None]
        self.tables = {}
        for letter, stack in (("c", c), ("p", p), ("q", q)):
            if stack is not None:
                self.set_table(letter, stack)

    def set_table(self, letter: str, stack: np.ndarray) -> None:
        """Make a (k, 2**n) stack, or one 2**n row that every model
        shares, the table of letter, shifted by the rows' offsets; the
        other letters' shifted tables are kept as they are."""
        self.tables[letter] = (stack + self._offsets).reshape(-1)

    def eval(self, word, start: Optional[np.ndarray] = None) -> np.ndarray:
        """The (k, 2**n) int64 tables of a cpq-word, letters acting
        right-to-left as usual, row i on model i.  The last letter's
        shifted table is the start, as in eval_word; a c with no table,
        and the empty word, start from the identity; a given (k, 2**n)
        start acts first instead: eval(u, eval(w)) == eval(u + w).  The
        result is a fresh array, never a view of the scope's tables."""
        text = parse_word(word)
        k, size = self.shape
        table = self.tables.get(text[-1:])
        if start is not None:
            out = _apply_letters(text, self.tables, (start + self._offsets).reshape(-1), size - 1)
        elif table is not None:
            out = _apply_letters(text[:-1], self.tables, table, size - 1)
        else:
            out = _apply_letters(text, self.tables, np.arange(k * size, dtype=np.int64), size - 1)
        # in place, unless out is the scope's table itself
        return np.bitwise_and(out, size - 1, out=None if out is table else out).reshape(k, size)

    def suffixes(self, word) -> Iterator[np.ndarray]:
        """The (k, 2**n) int64 tables of the nonempty suffixes of a
        cpq-word, shortest first, at one gather per letter in all."""
        k, size = self.shape
        v = np.arange(k * size, dtype=np.int64)
        for letter in reversed(parse_word(word)):
            v = _apply_letters(letter, self.tables, v, size - 1)
            yield (v & (size - 1)).reshape(k, size)


def _apply_letters(text: str, tables: dict, v: np.ndarray, full: int) -> np.ndarray:
    """The word kernel: the letters of text, right to left, applied to
    the flat vector v, each a 1-D gather through its table, or an XOR
    with full for a c that has none; any other letter needs a table."""
    for letter in reversed(text):
        table = tables.get(letter)
        if table is not None:
            v = table[v]
        elif letter == "c":
            v = v ^ full
        else:
            raise ValueError(f"word {text!r} has a {letter} letter, but no {letter} table")
    return v


def eval_word_on(word, p, q, a: Mask) -> Mask:
    """Image of a single subset under a cpq-word, without materializing.

    p and q may be any operators exposing ground_size and apply(), so
    this is the evaluator of choice beyond the table cap.  c acts as
    complementation against the shared ground set.
    """
    text = parse_word(word)
    n = p.ground_size
    if q.ground_size != n:
        raise ValueError("ground sizes differ")
    full = (1 << n) - 1
    if not 0 <= a <= full:
        raise ValueError("start mask outside the powerset")
    for letter in reversed(text):
        if letter == "c":
            a = full ^ a
        elif letter == "p":
            a = p.apply(a)
        else:
            a = q.apply(a)
    return a
