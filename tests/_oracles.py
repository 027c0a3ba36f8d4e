"""Independent oracles used to cross-check derived constants.

Everything here is deliberately naive: brute force over all functions
or all subset families, no numpy, no shared code with the package
beyond the bitmask conventions.  Slow above tiny sizes by design.

The exceptions close the file.  term_universe_by_compose and
check_intended_model_by_element are the theory layer's axiom screen
written one composition per pair and one screen per universe element,
on the package's single-table operations.  They are the references
for the stacked forms in closurelab.theory: the same tables in the
same order, and the same report check by check.  proposition5_by_hand
builds the collapse equation's term form factor by factor from the
term classes, the reference for theory.proposition5_equation, which
derives it from the word form.  monoid_payload is a generated monoid as
plain lists, the reference for the JSON that `dump monoid` spells from
its arrays.
"""

import functools
import random
from itertools import product

import numpy as np

from closurelab.opalg import (
    check_closure,
    commutes,
    complement_table,
    identity_table,
    leq_matrix,
)
from closurelab.theory import (
    P,
    Q,
    AxiomCheck,
    Bar,
    ModelCheckReport,
    Prod,
    _check_universe_size,
    prod,
)


def closures_by_filter(n):
    """All closure tables at ground size n found by filtering every
    function on the powerset.  Feasible for n <= 2 (256 functions)."""
    size = 1 << n
    found = []
    for entries in product(range(size), repeat=size):
        if any(a | entries[a] != entries[a] for a in range(size)):
            continue
        if any(entries[entries[a]] != entries[a] for a in range(size)):
            continue
        if is_monotone(entries):
            found.append(tuple(entries))
    return found


def moore_families_brute(n):
    """All intersection-closed subset families containing the ground
    set, by scanning every family bitmask.  Feasible for n <= 3
    (2^8 = 256 candidates)."""
    size = 1 << n
    full = size - 1
    families = []
    for fam in range(1 << size):
        if not (fam >> full) & 1:
            continue
        members = [s for s in range(size) if (fam >> s) & 1]
        closed = all(
            (fam >> (a & b)) & 1 for a in members for b in members
        )
        if closed:
            families.append(tuple(members))
    return families


def closure_of_family(n, members):
    """Table mapping each subset to the intersection of the family
    members containing it, written without numpy."""
    size = 1 << n
    entries = []
    for a in range(size):
        best = size - 1
        for m in members:
            if a & m == a:
                best &= m
        entries.append(best)
    return tuple(entries)


def block_closure_table(m, q_blocks):
    """The block closure on the cycle Z/(2m) entry by entry: the empty
    set stays empty, each nonempty subset of a two-element block, {2k+1,
    2k+2} for the p flavor or {2k, 2k+1} for q (mod 2m), closes to that
    block, and every other subset to the whole cycle."""
    n = 2 * m
    entries = [(1 << n) - 1] * (1 << n)
    entries[0] = 0
    start = 0 if q_blocks else 1
    for k in range(m):
        a = (2 * k + start) % n
        b = (2 * k + start + 1) % n
        block = (1 << a) | (1 << b)
        for sub in (1 << a, 1 << b, block):
            entries[sub] = block
    return tuple(entries)


@functools.cache
def _block_closed_sets(m, q_blocks):
    n = 2 * m
    start = 0 if q_blocks else 1
    blocks = [(1 << ((2 * k + start) % n)) | (1 << ((2 * k + start + 1) % n)) for k in range(m)]
    return (0, *blocks, (1 << n) - 1)


def block_closure(a, m, q_blocks):
    """The block closure of the subset a of the cycle Z/(2m), at any m:
    the least of the empty set, the m blocks ({2k+1, 2k+2} for the p
    flavor, {2k, 2k+1} for q, mod 2m) and the cycle that contains a."""
    return min((c for c in _block_closed_sets(m, q_blocks) if a & ~c == 0), key=int.bit_count)


def sample_commuting_pair(n, seed, max_tries=2000):
    """(p, q, tries) of the seeded rejection sampler, one try at a time:
    random.Random(seed) draws a p family and then a q family per try,
    each randint(0, min(2**n, 16)) members by randrange(2**n) plus the
    ground set, until the pair's closures commute, tries counting the
    pairs drawn.  None when max_tries pairs do not."""
    rng = random.Random(seed)
    size = 1 << n

    def draw():
        count = rng.randint(0, min(size, 16))
        return closure_of_family(n, [rng.randrange(size) for _ in range(count)] + [size - 1])

    for tries in range(1, max_tries + 1):
        p = draw()
        q = draw()
        if compose_tables(p, q) == compose_tables(q, p):
            return p, q, tries
    return None


def lockstep_schedule(tries, fill, max_tries=2000):
    """(tries drawn per seed, rounds) of a lockstep sampler whose round
    gives each of its P pending seeds min(ceil(fill / P), tries left
    before max_tries) consecutive tries, given the tries each seed needs
    (None for a seed that finds no pair): a seed stays pending until a
    round takes it to its tries."""
    drawn = [0] * len(tries)
    pending = list(range(len(tries)))
    done = rounds = 0
    while pending and done < max_tries:
        done += min(-(-fill // len(pending)), max_tries - done)
        rounds += 1
        for i in pending:
            drawn[i] = done
        pending = [i for i in pending if tries[i] is None or tries[i] > done]
    return drawn, rounds


def is_monotone(entries):
    """Whether A <= B implies entries[A] <= entries[B], over every pair
    of subsets."""
    size = len(entries)
    return all(entries[a] | entries[b] == entries[b]
               for a in range(size) for b in range(size) if a | b == b)


def monotone_witness(entries):
    """The smallest failing (A, B) of a table that is not monotone: A a
    subset of B with entries[A] outside entries[B], A ascending, then B
    over the supersets of A in ascending order by the (B + 1) | A
    enumeration; None for a monotone table."""
    size = len(entries)
    for a in range(size):
        b = a
        while True:
            b = (b + 1) | a
            if b >= size:
                break
            if entries[a] & ~entries[b]:
                return (a, b)
    return None


def covering_pairs(tables):
    """The transitive reduction of the pointwise order on distinct
    tables: every (i, j) with tables[i] strictly below tables[j] and no
    table strictly in between."""
    k = len(tables)
    strict = [[i != j and all(a | b == b for a, b in zip(tables[i], tables[j]))
               for j in range(k)] for i in range(k)]
    return {(i, j) for i in range(k) for j in range(k)
            if strict[i][j] and not any(strict[i][v] and strict[v][j] for v in range(k))}


def compose_tables(outer, inner):
    return tuple(outer[x] for x in inner)


def compose_images(outer, inner):
    """outer after inner, both union-preserving maps given by their
    tuples of singleton images: inner's image of singleton i with each
    member j replaced by outer's image of j."""
    out = []
    for m in inner:
        image = 0
        for j, o in enumerate(outer):
            if m >> j & 1:
                image |= o
        out.append(image)
    return tuple(out)


def monoid_bfs(tables, names, cap=float("inf"), additive=False):
    """The monoid the tuple-coded tables generate under right-
    composition, identity included, one element at a time: a FIFO from
    the identity, each head composed with the generators in the given
    order, stopped at the first new element past cap.  Returns
    (elements, witness words, Cayley rows, truncated), an edge no head
    reached being -1.  With additive set, each generator and element is
    its tuple of singleton images instead of its table."""
    size = len(tables[0])
    compose = compose_images if additive else compose_tables
    elements = [tuple(1 << i for i in range(size)) if additive else tuple(range(size))]
    witnesses = [""]
    index = {elements[0]: 0}
    cayley = []
    for head, e in enumerate(elements):
        row = [-1] * len(tables)
        cayley.append(row)
        for gi, g in enumerate(tables):
            h = compose(e, g)
            if h not in index:
                if len(elements) == cap:
                    cayley += [[-1] * len(tables) for _ in elements[len(cayley):]]
                    return elements, witnesses, cayley, True
                index[h] = len(elements)
                elements.append(h)
                witnesses.append(witnesses[head] + names[gi])
            row[gi] = index[h]
    return elements, witnesses, cayley, False


@functools.lru_cache(maxsize=None)
def _subset_images(perm):
    """The image set of each subset under the point permutation perm,
    and the inverse of that map."""
    size = 1 << len(perm)
    image = [sum(1 << perm[i] for i in range(len(perm)) if a >> i & 1) for a in range(size)]
    preimage = [0] * size
    for a, b in enumerate(image):
        preimage[b] = a
    return image, preimage


def relabeled_table(entries, perm):
    """The table s k s^-1 of k = entries under the point permutation
    perm, s mapping each subset to its image set, one subset at a
    time."""
    image, preimage = _subset_images(tuple(perm))
    return tuple(image[entries[b]] for b in preimage)


def relabeling_orbits(tables, perms):
    """For each table of the list tables, the smallest index in it of
    a relabeling of the table by some perm in perms."""
    index = {table: i for i, table in enumerate(tables)}
    return [min(index[relabeled_table(table, perm)] for perm in perms) for table in tables]


def commuting_closure_pairs(n):
    """Every ordered pair of closure tables at ground size n that
    commute, built from moore_families_brute (n <= 3)."""
    closures = [closure_of_family(n, fam) for fam in moore_families_brute(n)]
    return [(p, q) for p in closures for q in closures
            if compose_tables(p, q) == compose_tables(q, p)]


def word_table(word, p, q, n):
    """Table of a cpq-word on the pair (p, q), one subset at a time,
    letters right to left, c the complement."""
    full = (1 << n) - 1
    out = []
    for a in range(1 << n):
        for letter in reversed(word):
            a = full ^ a if letter == "c" else (p if letter == "p" else q)[a]
        out.append(a)
    return tuple(out)


def identity_survey(maxlen, n):
    """(equations, words examined in order) of the identity search,
    word by word: every reduced cpq-word (no letter twice in a row) up
    to maxlen in shortlex order (c < p < q), keyed by its tables over
    every commuting closure pair at sizes <= n; a word whose key an
    earlier word already has yields (word, earlier word)."""
    pairs = [(size, p, q) for size in range(n + 1)
             for p, q in commuting_closure_pairs(size)]
    words = [""]
    for length in range(1, maxlen + 1):
        words += ["".join(w) for w in product("cpq", repeat=length)
                  if all(a != b for a, b in zip(w, w[1:]))]
    first, equations = {}, []
    for w in words:
        key = tuple(word_table(w, p, q, size) for size, p, q in pairs)
        if key in first:
            equations.append((w, first[key]))
        else:
            first[key] = w
    return equations, words


def term_table(term, p, q, n):
    """Table of a theory term on the pair (p, q), by structural
    recursion on the term's class: 1 the identity, a product the
    composition (right factor first), bar(g) complement . g .
    complement.  A variable raises ValueError, anything else
    TypeError."""
    full = (1 << n) - 1
    kind = type(term).__name__
    if kind == "Const":
        return {"1": tuple(range(1 << n)), "p": tuple(p), "q": tuple(q)}[term.name]
    if kind == "Prod":
        return compose_tables(term_table(term.left, p, q, n),
                              term_table(term.right, p, q, n))
    if kind == "Bar":
        inner = term_table(term.inner, p, q, n)
        return tuple(full ^ inner[full ^ a] for a in range(1 << n))
    if kind == "Var":
        raise ValueError(f"open term (variable {term.name})")
    raise TypeError(f"not a term: {term!r}")


def term_universe_by_compose(model, depth=3):
    """The theory's term universe, one OperatorTable.compose call per
    bar and per pair: 1, p, q, then at each depth the bars of the
    tables so far and their products f g, f outer and g inner, each
    table kept at its first occurrence.  Raises the universe-size
    ValueError as soon as one table too many is added."""
    n = model.ground_size
    c = complement_table(n)
    universe = {}

    def add(t):
        if universe.setdefault(t.key(), t) is t:
            _check_universe_size(len(universe), n)

    for t in (identity_table(n), model.p, model.q):
        add(t)
    for _ in range(depth):
        current = list(universe.values())
        for f in current:
            add(c.compose(f).compose(c))
        for f in current:
            for g in current:
                add(f.compose(g))
    return list(universe.values())


def check_intended_model_by_element(model, depth=3):
    """The theory's intended-model report, with the associativity,
    unit and product-monotone screens taken one universe element at a
    time."""
    n = model.ground_size
    u = term_universe_by_compose(model, depth)
    k = len(u)
    _check_universe_size(k, n)
    c = complement_table(n)
    ident = identity_table(n)
    e_stack = np.stack([t.entries for t in u])
    p2 = e_stack[np.arange(k)[:, None, None], e_stack[None, :, :]]
    ce = c.entries
    bar_stack = ce[e_stack[:, ce]]
    checks = []

    def add(name, passed, detail=""):
        checks.append(AxiomCheck(name, passed, detail))

    add("product-associative", all(
        np.array_equal(p2[:, :, e_stack[m]], e_stack[:, p2[:, m, :]]) for m in range(k)))
    add("unit-neutral", all(
        np.array_equal(ident.entries[e], e) and np.array_equal(e[ident.entries], e)
        for e in e_stack))
    le = leq_matrix(e_stack, e_stack)
    add("order-reflexive", bool(le.diagonal().all()))
    i, j = np.nonzero(le & le.T)
    add("order-antisymmetric", bool(np.all(e_stack[i] == e_stack[j])))
    implied = (le.astype(np.int32) @ le.astype(np.int32)) > 0
    add("order-transitive", not bool(np.any(implied & ~le)))
    add("product-monotone", not any(
        np.any(le & ~(leq_matrix(p2[:, m], p2[:, m]) & leq_matrix(p2[m], p2[m])))
        for m in range(k)))
    add("bar-involutive", bool(np.array_equal(ce[bar_stack[:, ce]], e_stack)))
    bar_products = bar_stack[np.arange(k)[:, None, None], bar_stack[None, :, :]]
    add("bar-multiplicative", bool(np.array_equal(ce[p2[:, :, ce]], bar_products)))
    add("bar-antitone", not bool(np.any(le & ~leq_matrix(bar_stack, bar_stack).T)))
    add("bar-fixes-unit", c.compose(ident).compose(c) == ident)
    p_closure = check_closure(model.p).ok
    add("p-closure", p_closure, "" if p_closure else "p fails a closure axiom")
    q_closure = check_closure(model.q).ok
    add("q-closure", q_closure, "" if q_closure else "q fails a closure axiom")
    comm = commutes(model.p, model.q)
    add("pq-commute", comm, "" if comm else "p and q do not commute")
    return ModelCheckReport(universe_size=k, checks=tuple(checks))


def proposition5_by_hand(blocks):
    """The collapse equation's term form, built factor by factor: left
    side bar(pq) b1 bar(b2) b3 ... bar(b_2n) (pq), bars on the even
    positions, each block the left-associated product of its letters
    and the factors left-associated; right side bar(pq) (pq)."""
    letters = {"p": P, "q": Q}
    factors = [Bar(Prod(P, Q))]
    for i, b in enumerate(blocks):
        t = prod(*[letters[ch] for ch in b])
        factors.append(t if i % 2 == 0 else Bar(t))
    factors.append(Prod(P, Q))
    return prod(*factors), Prod(Bar(Prod(P, Q)), Prod(P, Q))


def monoid_payload(mon):
    """The JSON payload of a monoid of tables: its generator names,
    size, truncated flag, witnesses, Cayley rows and elements, each
    {"n": n, "entries": its table, one "%x" string per entry}."""
    n = mon.generators[0].ground_size
    return {
        "generator_names": list(mon.generator_names),
        "size": len(mon),
        "truncated": mon.truncated,
        "elements": [{"n": n, "entries": ["%x" % a for a in row.tolist()]} for row in mon.rows],
        "witnesses": list(mon.witnesses),
        "cayley": [list(row) for row in mon.cayley],
    }
