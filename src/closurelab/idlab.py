"""Enumeration of closure operators and equation testing over model
families.

Closure operators on a ground set correspond to their fixed-point
families: collections of subsets containing the ground set and closed
under intersection.  Enumerating families is exponentially cheaper
than filtering all functions, and converting a family back to a table
is the smallest-enclosing-member map.  The counts are cross-checked in
the tests against a brute-force filter over every function at tiny
sizes.

Equations between words are tested over scopes of two kinds, each
drawn when it is made: exhaustive pair enumerations at small ground
sizes, and seeded random samples beyond.  The outcome is always a
certificate that names its evidence; "holds" never claims more than
the scope it names, because the underlying membership problem (which
equations are valid for every commuting closure pair) is open.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .models import ClosurePairModel
from .opalg import (
    FlatScope,
    OperatorTable,
    closures_from_masks,
    commuting_rows,
    complement_table,
    elements_of,
    eval_word_on,
    format_word,
    lift_permutation,
)

DEFAULT_SEED = 20250816

#: the six classic two-closure collapse identities, each equivalent to
#: the short word pqcpq over commuting closure pairs
FIXTURE_EQUATIONS = (
    ("pqcpcqcqcpcpq", "pqcpq"),
    ("pqcpcpcqcqcpq", "pqcpq"),
    ("pqcqcqcpcpcpcqcpq", "pqcpq"),
    ("pqcqcpcpcpcqcpqcpq", "pqcpq"),
    ("pqcqcqcpcqcqcpcqcqcpq", "pqcpq"),
    ("pqcpcpcqcpcpcqcpcpcpq", "pqcpq"),
)

ENUMERATION_CAP = 4
BLOCKED_ENUMERATION_CAP = 5  # _closure_blocks, for verify kuratowski14 only
PAIR_ENUMERATION_CAP = 3
SAMPLING_CAP = 12
#: the most seeds a sampled scope of verify theorem2 draws: lockstep
#: sampling holds a generator state (about 2.5 KB) per seed
SAMPLE_COUNT_CAP = 10_000
#: the tries a round of sample_commuting_pairs aims to draw: each
#: pending seed draws ceil(SAMPLER_ROUND_TRIES / pending) in a row.
#: Measured in one process on a 2-vCPU VM (min of 7): the 80 scopes of
#: 25 seeds that the collapse-sampled benchmark draws at seeds 1-5 took
#: 80 ms at one try per seed and round, and 67 ms at 16, drawing 7,439
#: tries to use 5,923; at n = 5 with 1,000 and 10,000 seeds, 16 was as
#: fast and drew 0.5 % and 0.07 % more tries than used.  32 was no
#: faster and drew 1.1 % more at 1,000 seeds.
SAMPLER_ROUND_TRIES = 16
#: F0 families screened at a time against every F1 in _moore_families
MOORE_SCREEN_ROWS = 256


@lru_cache(maxsize=None)
def _moore_families(n: int) -> np.ndarray:
    """Every Moore family on n <= 5 points (closed under intersection,
    with the full set) as an int64 bitmask over the 2**n subset masks,
    by the decomposition of Colomb, Irlande and Raynaud (ICFCA 2010):
    F0 | F1 << 2**(n-1), where F1 is a Moore family on n - 1 points and
    F0, a Moore family there with or without its full set, is stable
    under meets with F1.  Counts: OEIS A102896."""
    if not 0 <= n <= BLOCKED_ENUMERATION_CAP:
        raise ValueError(f"Moore families are listed for n <= {BLOCKED_ENUMERATION_CAP}")
    if n == 0:
        return _frozen(np.ones(1, dtype=np.int64))
    upper = _moore_families(n - 1)
    half = 1 << (n - 1)
    lower = np.concatenate([upper, upper ^ (1 << (half - 1))])
    # bit b of unstable[f] is set when family f meets subset b outside f
    unstable = np.zeros_like(lower)
    for b in range(half):
        meets = np.bitwise_or.reduce([((lower >> a) & 1) << (a & b) for a in range(half)])
        unstable |= (meets & ~lower != 0).astype(np.int64) << b
    # the (F0, F1) pairs, narrow, MOORE_SCREEN_ROWS values of F0 at a
    # time (one block at n <= 4; 256 x 2480 uint16 at n = 5, not 24 MB)
    narrow = np.min_scalar_type((1 << half) - 1)
    unstable, narrow_upper = unstable.astype(narrow), upper.astype(narrow)
    blocks = []
    for start in range(0, len(lower), MOORE_SCREEN_ROWS):
        f0, f1 = np.nonzero((unstable[start:start + MOORE_SCREEN_ROWS, None] & narrow_upper) == 0)
        blocks.append(lower[start + f0] | upper[f1] << half)
    return _frozen(np.concatenate(blocks))


@lru_cache(maxsize=None)
def _closure_stack(n: int) -> np.ndarray:
    """The entries of every closure at ground size n, one read-only row
    each, in canonical order: lexicographic by entry array, entry 0 the
    primary key."""
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(
            f"exhaustive closure enumeration supports n <= {ENUMERATION_CAP}"
        )
    rows = closures_from_masks(n, _moore_families(n))
    return _frozen(rows[np.lexsort(rows.T[::-1])])


def _relabeled(stack: np.ndarray, perm) -> np.ndarray:
    """Each table k along the last axis of stack relabeled by the point
    permutation perm: s k s^-1, where s = lift_permutation(perm) and
    its inverse is its argsort."""
    lift = lift_permutation(perm).entries
    return lift[stack[..., np.argsort(lift)]]


@lru_cache(maxsize=None)
def _closure_orbits(n: int, perms: tuple) -> np.ndarray:
    """For each closure at ground size n, in canonical order, the index
    of its orbit's representative under relabeling by perms, a tuple of
    permutations of range(n) that is a group: the smallest index among
    its conjugates s k s^-1.  Closure i represents its orbit when
    rep[i] == i, and np.bincount(rep) gives each orbit's size at its
    representative.  A conjugate is found in the canonical stack by a
    binary search on its entries as bytes (each below 2**n <= 16), whose
    order is the stack's lexicographic one."""
    def keys(rows):
        return np.ascontiguousarray(rows, dtype=np.uint8).view(f"V{1 << n}")[:, 0]

    stack = _closure_stack(n)
    canon, rep = keys(stack), np.arange(len(stack))
    for perm in perms:
        rep = np.minimum(rep, np.searchsorted(canon, keys(_relabeled(stack, perm))))
    return _frozen(rep)


def _closure_blocks(n: int, trials: int = 0) -> Iterator[np.ndarray]:
    """Closures on n points as (rows, 2**n) stacks, in order: the
    canonical stack in one block at n <= ENUMERATION_CAP, every closure
    in Moore-family order at n = BLOCKED_ENUMERATION_CAP, and past that
    the witness search's seeded trials 0 .. trials-1, each family drawn
    when its block is built.  Past the canonical stack a block holds
    max(1, WITNESS_BLOCK_ENTRIES >> n) rows."""
    if n <= ENUMERATION_CAP:
        yield _closure_stack(n)
        return
    rows = max(1, WITNESS_BLOCK_ENTRIES >> n)
    if n == BLOCKED_ENUMERATION_CAP:
        masks = _moore_families(n)
        blocks = (masks[start:start + rows] for start in range(0, len(masks), rows))
    else:
        rng = random.Random()
        blocks = ([_witness_family(n, t, rng) for t in range(start, min(start + rows, trials))]
                  for start in range(0, trials, rows))
    for block in blocks:
        yield closures_from_masks(n, block)


@lru_cache(maxsize=None)
def _closures(n: int) -> tuple[OperatorTable, ...]:
    """The tables of enumerate_closures(n), each a view of its row of
    the read-only canonical stack."""
    return OperatorTable._rows(n, _closure_stack(n))


def enumerate_closures(n: int) -> list[OperatorTable]:
    """Every closure operator at ground size n, exactly once, ordered
    lexicographically by entry array.  n <= 4."""
    return list(_closures(n))


@dataclass(frozen=True)
class ModelRun:
    """Consecutive models of one ground size, in scope order, with
    their p and q tables stacked into read-only (k, 2**n) arrays.  Its
    flat scope, built on first use and kept, evaluates a word on all k
    models at once.  model_at(i) returns the i-th model; exhaustive and
    sampled runs build it only when asked.  A sampled run also keeps,
    read-only, the tries each model's seed used and the tries it drew
    (drawn - tries were drawn in the same round after its pair and
    discarded), and the lockstep rounds the sampler made."""

    ground_size: int
    p: np.ndarray
    q: np.ndarray
    model_at: Callable[[int], ClosurePairModel]
    tries: Optional[np.ndarray] = None  # per model, in a sampled run
    drawn: Optional[np.ndarray] = None  # per model, in a sampled run
    rounds: int = 0

    def __len__(self) -> int:
        return len(self.p)

    def models(self) -> Iterator[ClosurePairModel]:
        return (self.model_at(i) for i in range(len(self)))

    @cached_property
    def flat(self) -> FlatScope:
        return FlatScope(self.p, self.q)

    def shared_eval(self, word) -> np.ndarray:
        """flat.eval(word), read-only, kept in a one-entry slot keyed by
        the word: evaluating the word of the last call again is a
        lookup.  test_equation reads its right-hand side through it, as
        a family of equations tends to share one, like theorem2's
        pqcpq.  On the cached exhaustive runs the slot lasts as long as
        the process: one table per run, 238 KB at most (the 3,721 pairs
        at n = 3)."""
        slot = self.__dict__.get("_shared")
        if slot is None or slot[0] != word:
            slot = (word, _frozen(self.flat.eval(word)))
            self.__dict__["_shared"] = slot
        return slot[1]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, as a view of itself, as _complement_entries
    hands out its array: no caller can make it writable again."""
    arr.setflags(write=False)
    return arr[:]


@lru_cache(maxsize=None)
def _pair_run(n: int, commuting: bool) -> ModelRun:
    """Every ordered closure pair at ground size n (only the commuting
    ones if commuting), in canonical (p index, q index) order."""
    if not 0 <= n <= PAIR_ENUMERATION_CAP:
        raise ValueError(
            f"exhaustive pair enumeration supports n <= {PAIR_ENUMERATION_CAP}"
        )
    stack = _closure_stack(n)
    k = len(stack)
    # pair i * k + j is (p#i, q#j), screened for pq = qp all at once
    p, q = np.repeat(stack, k, axis=0), np.tile(stack, (k, 1))
    flags = commuting_rows(p, q)
    pairs = np.flatnonzero(flags) if commuting else np.arange(k * k)
    # Python ints and bools, read once: a model then costs no numpy scalar
    indices, commutes_at, closures = pairs.tolist(), flags[pairs].tolist(), _closures(n)

    def model_at(r: int) -> ClosurePairModel:
        i, j = divmod(indices[r], k)
        return ClosurePairModel(
            provenance="enumerated", p=closures[i], q=closures[j],
            label=f"n={n} p#{i} q#{j}", commuting=commutes_at[r],
        )

    return ModelRun(n, _frozen(p[pairs]), _frozen(q[pairs]), model_at)


def enumerate_commuting_pairs(n: int) -> list[ClosurePairModel]:
    """All ordered pairs (p, q) of enumerated closures at ground size n
    that commute, in canonical (p index, q index) order.  n <= 3."""
    return list(_pair_run(n, True).models())


def enumerate_all_pairs(n: int) -> list[ClosurePairModel]:
    """All ordered closure pairs at ground size n, commuting or not."""
    return list(_pair_run(n, False).models())


def _family_mask(getrandbits: Callable[[int], int], low: int, high: int, size: int) -> int:
    """The bitmask of a seeded fixed-point family: randint(low, high)
    members, each randrange(size), plus the full set, size - 1.

    Both draws are replayed as CPython's Random makes them: randrange(m)
    (randint(a, b) being a + randrange(b - a + 1)) is getrandbits of
    m.bit_length() bits, drawn again while it is m or more.  So the
    words getrandbits consumes, and the members, are those of the calls
    themselves, without their argument checks.
    """
    width = high - low + 1
    bits = width.bit_length()
    count = getrandbits(bits)
    while count >= width:
        count = getrandbits(bits)
    mask = 1 << (size - 1)
    bits = size.bit_length()
    for _ in range(low + count):
        member = getrandbits(bits)
        while member >= size:
            member = getrandbits(bits)
        mask |= 1 << member
    return mask


def sample_commuting_pairs(n: int, seeds: Iterable[int], max_tries: int = 2000) -> ModelRun:
    """Seeded rejection sampler for commuting closure pairs, one pair per
    seed, drawn for all seeds in lockstep.

    Each candidate closure comes from a random subset collection plus
    the ground set, intersection-closed by construction of the
    smallest-enclosing-member table.  Every closure at the given n has
    positive probability, so long seed sweeps cover the whole space.

    Seed s draws from its own random.Random(s), a p family and then a q
    family per try, until the pair commutes: randint(0, min(2**n, 16))
    members, each randrange(2**n), drawn as bitmasks by _family_mask on
    the same stream.  Seeds must be nonnegative, as random.Random(-s)
    is random.Random(s).  A round draws about SAMPLER_ROUND_TRIES tries
    over the seeds still pending: each draws ceil(SAMPLER_ROUND_TRIES /
    pending) consecutive tries, one while many seeds are pending, and
    never past max_tries in all.  The tables of every family in the
    round are built in one closures_from_masks call and screened for
    pq = qp in one commuting_rows call.  A seed keeps its first
    commuting try and discards the rest of its round, so its pair and
    its tries are those of drawing one try at a time.  A seed's stream
    is the same whatever other seeds are drawn with it, so its pair is
    the one it would draw alone.  The run keeps the tries each seed
    used and drew, and the rounds made.  If a seed finds no pair in
    max_tries tries, RuntimeError names the first such seed in seed
    order.
    """
    if not 0 <= n <= SAMPLING_CAP:
        raise ValueError(f"sampling supports n <= {SAMPLING_CAP}")
    seeds = list(seeds)
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be nonnegative, got {min(seeds)}")
    size = 1 << n
    bound = min(size, 16)
    draws = [random.Random(seed).getrandbits for seed in seeds]
    p = np.empty((len(seeds), size), dtype=np.int64)
    q = np.empty_like(p)
    tries = np.zeros(len(seeds), dtype=np.int64)
    drawn = np.zeros_like(tries)
    pending = np.arange(len(seeds))
    done = rounds = 0  # every pending seed has drawn done tries
    while len(pending) and done < max_tries:
        batch = min(-(-SAMPLER_ROUND_TRIES // len(pending)), max_tries - done)
        masks = [_family_mask(draws[i], 0, bound, size)
                 for i in pending.tolist() for _ in range(2 * batch)]
        tables = closures_from_masks(n, masks)
        ps, qs = tables[0::2], tables[1::2]
        ok = commuting_rows(ps, qs).reshape(len(pending), batch)
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)[hit]
        kept = np.flatnonzero(hit) * batch + first
        p[pending[hit]], q[pending[hit]] = ps[kept], qs[kept]
        tries[pending[hit]] = done + first + 1
        done += batch
        rounds += 1
        drawn[pending] = done
        pending = pending[~hit]
    if len(pending):
        raise RuntimeError(
            f"no commuting pair found in {max_tries} tries (seed {seeds[pending[0]]})"
        )

    p, q = _frozen(p), _frozen(q)

    def model_at(i: int) -> ClosurePairModel:
        (pi,), (qi,) = OperatorTable._rows(n, p[i:i + 1]), OperatorTable._rows(n, q[i:i + 1])
        return ClosurePairModel(
            provenance="custom", p=pi, q=qi,
            label=f"sampled n={n} seed={seeds[i]}",
            commuting=True,
        )

    return ModelRun(n, p, q, model_at, _frozen(tries), _frozen(drawn), rounds)


def sample_commuting_pair(n: int, seed: int, max_tries: int = 2000) -> ClosurePairModel:
    """Seeded rejection sampler for a commuting closure pair: the one-seed
    case of sample_commuting_pairs.  The pair is the one seed draws in a
    lockstep call with any other seeds, from the same random.Random(seed)
    stream, and RuntimeError names seed when max_tries tries find none."""
    return sample_commuting_pairs(n, [seed], max_tries).model_at(0)


# ---------------------------------------------------------------------------
# scopes


class Scope:
    """A named family of models in a fixed order, held as runs of one
    ground size (see ModelRun) that are drawn when the scope is made.
    Every walk replays those runs, so a sampled scope runs its lockstep
    sampler once however many equations are tested over it."""

    def __init__(self, description: str, runs: Iterable[ModelRun]):
        self.description = description
        self._runs = tuple(runs)

    def runs(self) -> Iterator[ModelRun]:
        return iter(self._runs)

    def models(self) -> Iterator[ClosurePairModel]:
        for run in self._runs:
            yield from run.models()

    @staticmethod
    def exhaustive(max_n: int, commuting: bool = True) -> "Scope":
        kind = "commuting" if commuting else "all"
        return Scope(f"exhaustive-{kind}-n<={max_n}",
                     [_pair_run(n, commuting) for n in range(max_n + 1)])

    @staticmethod
    def sampled(n: int, count: int, seed: int = DEFAULT_SEED) -> "Scope":
        """The pairs that seeds seed .. seed + count - 1 draw at ground
        size n, in seed order, as one run from one lockstep call of
        sample_commuting_pairs (no run when count is 0).  Each seed's
        pair is the one sample_commuting_pair draws for it alone, and a
        seed that finds none fails the draw, the first such seed named."""
        if count < 0:
            raise ValueError(f"sample count must be nonnegative, got {count}")
        return Scope(f"sampled(n={n},count={count},seed={seed})",
                     [sample_commuting_pairs(n, range(seed, seed + count))] if count else [])


# ---------------------------------------------------------------------------
# equation certificates


@dataclass
class EquationCertificate:
    lhs: str
    rhs: str
    scope: str
    status: str  # "holds" | "counterexample"
    model: Optional[ClosurePairModel] = None
    witness: Optional[int] = None
    models_checked: int = 0

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def summary(self) -> str:
        if self.holds:
            return f"no counterexample found ({self.scope})"
        return (
            f"refuted: {format_word(self.lhs)} != {format_word(self.rhs)} on {self.model.label or self.model.provenance}"
            f" at {sorted(elements_of(self.witness))}"
        )

    def to_json(self) -> dict:
        out = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "scope": self.scope,
            "status": self.status,
            "models_checked": self.models_checked,
            "counterexample": None,
        }
        if not self.holds:
            out["counterexample"] = {
                "model": self.model.to_json(),
                "witness": elements_of(self.witness),
            }
        return out


def test_equation(lhs, rhs, family: Scope) -> EquationCertificate:
    """Evaluate both words on every model in the family; stop at the
    first disagreement.  The witness is the smallest differing subset
    (mask order) on the first refuting model in scope order.  Each run
    keeps the tables of rhs until another right-hand side replaces them
    (ModelRun.shared_eval)."""
    checked = 0
    for run in family.runs():
        diff = run.flat.eval(lhs) != run.shared_eval(rhs)
        refuting = diff.any(axis=1)
        if refuting.any():
            k = int(refuting.argmax())
            return EquationCertificate(
                lhs, rhs, family.description, "counterexample",
                model=run.model_at(k), witness=int(diff[k].argmax()),
                models_checked=checked + k + 1,
            )
        checked += len(run)
    return EquationCertificate(
        lhs, rhs, family.description, "holds", models_checked=checked
    )


def replay_certificate(cert: EquationCertificate, family: Optional[Scope] = None) -> bool:
    """Re-check what a certificate asserts.

    counterexample: the witness subset must still separate the words on
    the stored model.  holds: test_equation over the re-supplied family
    must hold again, naming the certificate's scope and models_checked;
    a holds certificate given no family raises ValueError, as nothing
    else can check it.
    """
    if not cert.holds:
        a = eval_word_on(cert.lhs, cert.model.p, cert.model.q, cert.witness)
        b = eval_word_on(cert.rhs, cert.model.p, cert.model.q, cert.witness)
        return a != b
    if family is None:
        raise ValueError("a holds certificate replays only over its family")
    again = test_equation(cert.lhs, cert.rhs, family)
    return again.holds and (again.scope, again.models_checked) == (
        cert.scope, cert.models_checked)


# ---------------------------------------------------------------------------
# identity search over reduced words


#: the longest word search_identities examines: 3 * 2**(L-1) words of
#: length L, so the word count doubles with each letter while the BFS
#: capped at L levels finds few states (see the README for the cost)
MAXLEN_CAP = 16


def search_identities(maxlen: int, n: int = 2, limit: Optional[int] = None):
    """Shortlex survey of reduced words (no cc, pp, qq factor), bucketed
    by their joint evaluation over every commuting pair at sizes <= n.

    A bucket's shortlex-least word is its canonical word; every other
    word in it yields the equation "word = canonical", which holds
    across the whole exhaustive scope by construction.  Returns
    (equations, scope description, words examined), the equations cut
    to the first limit when limit is given.

    Only the pairs at size n itself are walked: two words agree on
    every commuting pair at sizes <= n exactly when they agree at size
    n.  A commuting pair on s < n points extends to one on n points,
    acting as the identity pair on the other n - s points.  Every
    letter then acts on the two parts separately, so the extended pair
    separates any two words the small one does.  (At size 0 every word
    is the identity.)

    A bucket is a state of the word automaton: the flat vector of a
    word's tables over all models (FlatScope's layout, c as a table),
    keyed on its entries less their model's row offset.
    The monoid BFS, capped at maxlen levels, gives each state's
    shortlex-least word and the Cayley edges; the reduced words are
    walked over them a level at a time, and a word is an equation's
    left side exactly when it is not its state's canonical word.
    """
    if not 0 <= maxlen <= MAXLEN_CAP:
        raise ValueError(f"maxlen must be in 0..{MAXLEN_CAP}, got {maxlen}")
    if not 0 <= n <= PAIR_ENUMERATION_CAP:
        raise ValueError(f"n must be in 0..{PAIR_ENUMERATION_CAP}, got {n}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    from .monoid import _bfs, _gather  # monoid loads on the first BFS, not with idlab

    flat = _pair_run(n, True).flat
    size = flat.shape[1]
    width = flat.shape[0] * size
    tables = np.stack([np.arange(width) ^ (size - 1), flat.tables["p"], flat.tables["q"]])
    # appending a letter on the right applies it first: one gather.  The
    # rows hold masked entries (uint8 for n <= 3); the tables stay flat
    # positions, as a product reads its indices from them
    identity = (np.arange(width) & (size - 1)).astype(np.min_scalar_type(size - 1))
    _, canon, edges, _ = _bfs(identity, _gather(tables), width, "cpq", depth=maxlen)
    cayley = np.array(edges, dtype=np.intp).reshape(-1, 3)
    canon = np.array(canon, dtype=object)
    letters = np.array(list("cpq"), dtype=object)
    words, states, last = np.array([""], dtype=object), np.zeros(1, dtype=np.intp), np.array([3])
    equations: list[tuple[str, str]] = []
    for _ in range(maxlen):
        # each word's children in letter order, skipping its last (3: none)
        parent, last = np.nonzero(np.arange(3) != last[:, None])
        words, states = words[parent] + letters[last], cayley[states[parent], last]
        # a state's BFS word is shortlex-least (letters c, p, q), hence
        # reduced (c is an involution, p and q idempotent), hence the first
        # word this walk lists there: every other word is an equation
        repeat = words != canon[states]
        equations += zip(words[repeat].tolist(), canon[states[repeat]].tolist())
    if limit is not None:
        equations = equations[:limit]
    # examined: the empty word, then 3 * 2**(L-1) words of each length L
    return equations, Scope.exhaustive(n).description, 1 + 3 * (2**maxlen - 1)


def search_counterexample(lhs, rhs, max_n: int = 2) -> EquationCertificate:
    """Hunt for a model refuting lhs = rhs over every ordered closure
    pair at sizes <= max_n, commuting or not, so commutation failures
    are in scope."""
    return test_equation(lhs, rhs, Scope.exhaustive(max_n, commuting=False))


# ---------------------------------------------------------------------------
# regeneration search for the pinned 14-element witness


WITNESS_SEARCH_BASE = 777000

#: entries per word table in one screened block of seeded candidates
#: or of the closures at n = 5, which bounds a block's memory: 16
#: tables of 2**14 entries in the narrowest dtype (262 KB up to n = 8),
#: and one 128 KB int64 word evaluation at a time.  Blocks of 2**16
#: entries were no faster and left about 1 MB more peak memory in a
#: process that went on to other work.  (The canonical stack at n <= 4
#: is one block of at most 2480 rows of 16 entries.)
WITNESS_BLOCK_ENTRIES = 1 << 14


def _witness_family(n: int, trial: int, rng: random.Random) -> int:
    """Fixed-point family of seeded witness-search trial number trial,
    as a bitmask: rng, reseeded to WITNESS_SEARCH_BASE + trial (the
    state random.Random(WITNESS_SEARCH_BASE + trial) starts in), draws
    randint(1, min(2**n, 3n)) members, each randrange(2**n), through
    _family_mask, and the full set is added."""
    size = 1 << n
    rng.seed(WITNESS_SEARCH_BASE + trial)
    return _family_mask(rng.getrandbits, 1, min(size, 3 * n), size)


#: the fourteen canonical words of the complement-closure monoid, in
#: breadth-first order (identity written "1")
KURATOWSKI_WORDS = (
    "1", "k", "c", "kc", "ck", "kck", "ckc", "kckc", "ckck",
    "kckck", "ckckc", "kckckc", "ckckck", "ckckckc",
)


def _kc_tables(ks: np.ndarray, words: tuple = KURATOWSKI_WORDS) -> np.ndarray:
    """The (len(words), rows, 2**n) tables of k, c-words on each operator
    k of a (rows, 2**n) stack, in the narrowest dtype that holds a
    mask.  words holds "1", the identity, and every suffix of each of
    its words; the tables are the suffixes of the words that end no
    other one, at one gather or XOR per letter."""
    rows, size = ks.shape
    tables = np.empty((len(words), rows, size), dtype=np.min_scalar_type(size - 1))
    tables[words.index("1")] = np.arange(size)
    flat = FlatScope(ks)
    for word in words:
        if word != "1" and not any(other != word and other.endswith(word) for other in words):
            for length, table in enumerate(flat.suffixes(word.replace("k", "p")), 1):
                tables[words.index(word[-length:])] = table
    return tables


def _separating_seeds(tables: np.ndarray) -> np.ndarray:
    """The exact seed test: for a (words, rows, 2**n) stack of word
    tables, the (rows, 2**n) bool matrix of the seeds on which every
    word takes a different value.  Each (row, seed) holds one bit per
    value, 2**n bits in the narrowest unsigned dtype (uint8 .. uint64),
    or in 2**n >> 6 uint64 words past n = 6, and the words set theirs
    in turn: a seed separates when no word finds its bit already set."""
    _, rows, size = tables.shape
    width = max(1, size >> 6)
    dtype = np.min_scalar_type((1 << min(size, 64)) - 1)
    one = dtype.type(1)
    seen = np.zeros(rows * size * width, dtype=dtype)
    clash = np.zeros(rows * size, dtype=dtype)
    base = np.arange(0, seen.size, width)
    for table in tables:
        values = table.reshape(-1)
        if width == 1:
            bits = one << values.astype(dtype)
            clash |= seen & bits
            seen |= bits
        else:
            bits = one << (values & 63).astype(dtype)
            at = base + (values >> 6)
            held = seen[at]
            clash |= held & bits
            seen[at] = held | bits
    return (clash == 0).reshape(rows, size)


def _kc_screen(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each operator k of a (rows, 2**n) stack: the size of its
    monoid with complement, whether kckckck = kck fails, and the
    smallest seed on which the 14 KURATOWSKI_WORDS take 14 pairwise
    distinct values, or -1 (_separating_seeds).  Where kk = k and
    kckckck = kck (on every closure), k and c map the 14 tables among
    themselves, so they are the monoid; any other row gets a BFS."""
    order = KURATOWSKI_WORDS + ("kk", "kckckck")
    tables = _kc_tables(ks, order)
    size = ks.shape[1]
    keys = tables.view(np.dtype((np.void, size * tables.itemsize)))[..., 0]
    words = len(KURATOWSKI_WORDS)
    # a table is new unless an earlier word has it
    sizes = words - np.sum([(keys[:i] == keys[i]).any(axis=0) for i in range(1, words)], axis=0)
    # a separating seed needs 14 distinct tables, so only those rows
    # are tested
    full = np.flatnonzero(sizes == words)
    separating = _separating_seeds(tables[:words, full])
    seeds = np.full(len(ks), -1)
    seeds[full] = np.where(separating.any(axis=1), separating.argmax(axis=1), -1)
    hammer_fails = keys[order.index("kckckck")] != keys[order.index("kck")]
    n = size.bit_length() - 1
    for row in np.flatnonzero(hammer_fails | (keys[order.index("kk")] != keys[1])):
        from .monoid import generate_monoid  # monoid loads on the first BFS, not with idlab

        sizes[row] = len(generate_monoid([OperatorTable(n, ks[row]), complement_table(n)]))
    return sizes, hammer_fails, seeds


#: no closure on at most this many points has a separating seed, by the
#: witness search's sweep at n <= 4 and by verify kuratowski14 --n 5
WITNESS_FREE_CAP = 5
#: the largest ground size the witness search walks, and the seeded
#: trials it draws at each size past WITNESS_FREE_CAP
WITNESS_MAX_N = 8
WITNESS_TRIALS = 30_000


def find_kuratowski_witness():
    """Search for a closure whose monoid with complement has exactly 14
    elements together with a seed subset taking 14 pairwise distinct
    images, smallest ground size first.

    Ground sizes up to 4 are swept exhaustively in canonical order;
    monoid size 14 already occurs there, but no seed separates all 14
    operators, nor at 5 (WITNESS_FREE_CAP), which is skipped.  From 6 on
    the search walks seeded random fixed-point families, which makes
    the first hit reproducible.  Returns (n, fixed point masks, seed),
    the seed being the smallest one for the first hit.  This is the
    regeneration path for the pinned fixture in the models module.

    The candidates are screened a block at a time (see _closure_blocks),
    on the seeds alone: the tables of the 14 KURATOWSKI_WORDS over the
    whole block (_kc_tables, the suffixes of ckckck and ckckckc), then
    the exact seed test (_separating_seeds), which verify kuratowski14
    shares.  Monoid sizes, the hammer identity and the BFS are not
    needed.  Every candidate is a closure, so by Kuratowski's theorem
    (checked exhaustively at n <= 5 by verify kuratowski14) every
    element of its monoid with c is one of the 14 words.  A seed's
    images under the monoid are then the 14 word values, and a seed
    with 14 distinct values there is one with 14 distinct images in a
    monoid of exactly 14 elements, and the other way round.
    """
    for n in chain(range(1, ENUMERATION_CAP + 1), range(WITNESS_FREE_CAP + 1, WITNESS_MAX_N + 1)):
        for block in _closure_blocks(n, WITNESS_TRIALS):
            separating = _separating_seeds(_kc_tables(block))
            hits = np.flatnonzero(separating.any(axis=1))
            if hits.size:
                row = int(hits[0])
                fixed = np.flatnonzero(block[row] == np.arange(1 << n))
                return n, tuple(fixed.tolist()), int(separating[row].argmax())
    raise RuntimeError(f"no separating 14-element witness found at n <= {WITNESS_MAX_N}")
