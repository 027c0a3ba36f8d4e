"""Expected values for the benchmark's output checks, computed without
the package under test.

Closures come from a direct scan of subset families, words are
evaluated one subset at a time, and monoids are generated over plain
tuples.  Nothing here imports closurelab or numpy, so a defect in the
package cannot also hide in the values its outputs are compared to.
The scans are exponential in the ground size and meant for n <= 3
(n = 4 takes a few seconds and is used only by the tests).
"""

from __future__ import annotations

from functools import lru_cache

#: closure operators (Moore families) on an n-set, n = 0..4: OEIS A102896
MOORE_FAMILY_COUNTS = (1, 2, 7, 61, 2480)

#: the fourteen words of the Kuratowski complement-closure monoid
KURATOWSKI_WORDS = frozenset((
    "", "k", "c", "kc", "ck", "kck", "ckc", "kckc", "ckck",
    "kckck", "ckckc", "kckckc", "ckckck", "ckckckc",
))

#: the pinned 14-element witness: ground size, fixed points, seed subset
WITNESS14_N = 6
WITNESS14_FIXED = (
    0, 1, 2, 3, 5, 7, 11, 15, 32, 33, 34, 35,
    37, 39, 43, 47, 49, 53, 55, 63,
)
WITNESS14_SEED = 18


def reduced_word_count(maxlen: int) -> int:
    """Words over {c, p, q} of length <= maxlen with no repeated
    adjacent letter: 1 + 3 * (1 + 2 + ... + 2^(maxlen-1))."""
    return 1 + 3 * ((1 << maxlen) - 1)


def elements(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def fmt_set(mask: int) -> str:
    return "{" + ",".join(map(str, elements(mask))) + "}"


def moore_families(n: int) -> list[tuple[int, ...]]:
    """Every family of subsets of an n-set that contains the full set
    and is closed under pairwise intersection."""
    size = 1 << n
    full = size - 1
    out = []
    for fam in range(1 << size):
        if not (fam >> full) & 1:
            continue
        members = [s for s in range(size) if (fam >> s) & 1]
        if all((fam >> (a & b)) & 1 for a in members for b in members):
            out.append(tuple(members))
    return out


def closure_table(n: int, members) -> tuple[int, ...]:
    """Map each subset to the intersection of the members containing it."""
    size = 1 << n
    out = []
    for a in range(size):
        meet = size - 1
        for m in members:
            if a & ~m == 0:
                meet &= m
        out.append(meet)
    return tuple(out)


@lru_cache(maxsize=None)
def closures(n: int) -> tuple[tuple[int, ...], ...]:
    """Closure tables at ground size n, sorted by entry sequence (the
    order the package documents for its enumeration)."""
    return tuple(sorted(closure_table(n, fam) for fam in moore_families(n)))


def apply_word(word: str, p, q, n: int, a: int) -> int:
    full = (1 << n) - 1
    for letter in reversed(word):
        a = full ^ a if letter == "c" else (p[a] if letter == "p" else q[a])
    return a


def is_closure(t) -> bool:
    """Expanding, idempotent and monotone (checked on single-element
    steps a <= a + {i}, which imply every a <= b)."""
    n = len(t).bit_length() - 1
    return all(
        a & ~t[a] == 0 and t[t[a]] == t[a]
        and all(t[a] & ~t[a | (1 << i)] == 0 for i in range(n))
        for a in range(len(t))
    )


def commutes(p, q) -> bool:
    return all(p[q[a]] == q[p[a]] for a in range(len(p)))


@lru_cache(maxsize=None)
def commuting_pairs(n: int) -> tuple[tuple[int, int], ...]:
    cl = closures(n)
    return tuple(
        (i, j)
        for i, p in enumerate(cl)
        for j, q in enumerate(cl)
        if commutes(p, q)
    )


def pair_models(max_n: int, commuting: bool):
    """(n, i, j, p, q) in scope order: ground size, then p index, then q."""
    for n in range(max_n + 1):
        cl = closures(n)
        if commuting:
            index = commuting_pairs(n)
        else:
            index = [(i, j) for i in range(len(cl)) for j in range(len(cl))]
        for i, j in index:
            yield n, i, j, cl[i], cl[j]


def equation_holds(lhs: str, rhs: str, max_n: int, commuting: bool) -> bool:
    return first_counterexample(lhs, rhs, max_n, commuting) is None


def first_counterexample(lhs: str, rhs: str, max_n: int, commuting: bool):
    """(n, i, j, witness mask) of the first refuting model in scope
    order and the smallest subset it separates, or None."""
    for n, i, j, p, q in pair_models(max_n, commuting):
        for a in range(1 << n):
            if apply_word(lhs, p, q, n, a) != apply_word(rhs, p, q, n, a):
                return n, i, j, a
    return None


def counterexample_summary(lhs: str, rhs: str, max_n: int) -> str:
    """The verdict line of `search counterexample` over all pairs."""
    hit = first_counterexample(lhs, rhs, max_n, commuting=False)
    if hit is None:
        return f"no counterexample found (exhaustive-all-n<={max_n})"
    n, i, j, a = hit
    return f"refuted: {lhs} != {rhs} on n={n} p#{i} q#{j} at {elements(a)}"


def monoid(gens: dict, n: int):
    """Breadth-first monoid of the named generator tables, appending
    generators on the right.  Returns (tables, witness words)."""
    ident = tuple(range(1 << n))
    tables, words, index = [ident], [""], {ident: 0}
    head = 0
    while head < len(tables):
        e = tables[head]
        for name, g in gens.items():
            new = tuple(e[x] for x in g)
            if new not in index:
                index[new] = len(tables)
                tables.append(new)
                words.append(words[head] + name)
        head += 1
    return tables, words


def below(f, g) -> bool:
    return all(a & ~b == 0 for a, b in zip(f, g))


def hasse_edges(tables, names) -> set[tuple[str, str]]:
    """Covering pairs of the pointwise order, as (lower, upper) names."""
    k = len(tables)
    strict = [[i != j and below(tables[i], tables[j]) for j in range(k)]
              for i in range(k)]
    return {
        (names[i], names[j])
        for i in range(k)
        for j in range(k)
        if strict[i][j]
        and not any(strict[i][v] and strict[v][j] for v in range(k))
    }


def witness14():
    """(k table, complement table) of the pinned witness."""
    n = WITNESS14_N
    k = closure_table(n, WITNESS14_FIXED)
    c = tuple(((1 << n) - 1) ^ a for a in range(1 << n))
    return k, c
