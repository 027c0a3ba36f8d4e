"""Tests for monoid generation, the Cayley table, Hasse edges and orbits."""

import json
import random

import numpy as np
import pytest

from closurelab import monoid, opalg
from closurelab.models import example3, example3_additive, kuratowski_witness, pij_pair, section4_model
from closurelab.monoid import (
    generate_monoid,
    growth_study,
    hasse,
    orbit,
)
from closurelab.opalg import (
    AdditiveOperator,
    check_closure,
    complement_table,
    eval_word,
    identity_table,
    leq_matrix,
    mask_of,
)
from closurelab.suites import KURATOWSKI_WORDS

from _oracles import covering_pairs, monoid_bfs, monoid_payload


# ---------------------------------------------------------------------------
# generation


def test_monoid_of_single_closure_is_tiny():
    m = pij_pair(1, 0, 2)
    mon = generate_monoid([m.p], names=("p",))
    # identity and p: a closure is idempotent
    assert len(mon) == 2
    assert mon.witnesses == ["", "p"]
    assert not mon.truncated


def test_witnesses_name_their_elements():
    m = pij_pair(1, 0, 2)
    c = complement_table(m.ground_size)
    mon = generate_monoid([m.p, m.q, c], names=("p", "q", "c"))
    for elem, w in zip(mon.elements, mon.witnesses):
        if w == "":
            assert elem == identity_table(m.ground_size)
        else:
            assert elem == eval_word(w, m.p, m.q), w


def test_witnesses_are_shortlex_canonical():
    k, _ = kuratowski_witness()
    c = complement_table(k.ground_size)
    mon = generate_monoid([k, c], names=("k", "c"))
    assert len(mon) == 14
    assert not mon.truncated
    # shortest first, ties in generator order (k before c), which is
    # exactly the canonical fourteen with "1" as the empty word
    order = {"k": 0, "c": 1}
    keys = [(len(w), [order[ch] for ch in w]) for w in mon.witnesses]
    assert keys == sorted(keys)
    assert tuple(mon.witnesses) == ("",) + KURATOWSKI_WORDS[1:]


def test_cayley_table_is_correct():
    m = pij_pair(0, 1, 2)
    c = complement_table(m.ground_size)
    gens = [m.p, m.q, c]
    mon = generate_monoid(gens, names=("p", "q", "c"))
    assert not mon.truncated
    for ei, elem in enumerate(mon.elements):
        for gi, g in enumerate(gens):
            at = mon.cayley[ei][gi]
            assert at >= 0
            assert mon.elements[at] == elem.compose(g), (ei, gi)


def test_monoid_size_matches_brute_force():
    m = pij_pair(1, 0, 2)
    c = complement_table(m.ground_size)
    mon = generate_monoid([m.p, m.q, c])
    tables = [tuple(int(v) for v in g.entries) for g in (m.p, m.q, c)]
    assert len(mon) == len(monoid_bfs(tables, "pqc")[0])


def test_generation_is_representation_independent():
    # the additive staircase and its materialized tables generate
    # monoids of the same size with the same witness words
    small = example3(8)
    big = example3_additive(8)
    mon_t = generate_monoid([small.p, small.q], names=("p", "q"))
    mon_a = generate_monoid([big.p, big.q], names=("p", "q"))
    assert len(mon_t) == len(mon_a) == 17
    assert mon_t.witnesses == mon_a.witnesses
    assert mon_t.cayley == mon_a.cayley
    assert mon_t.elements == [e.to_table() for e in mon_a.elements]


def _pqc(model):
    return [model.p, model.q, complement_table(model.ground_size)], ("p", "q", "c")


def _witness14_kc():
    k, _ = kuratowski_witness()
    return [k, complement_table(k.ground_size)], ("k", "c")


def _staircase(M):
    fam = example3_additive(M)
    return [fam.p, fam.q], ("p", "q")


def _seeded_additive(n, seed):
    # two union-preserving maps drawn from one seed; singleton 0 leaves
    # its own image, so neither map is a closure
    rng = random.Random(f"additive {n} {seed}")
    gens = [AdditiveOperator(n, [rng.getrandbits(n) & ~(i == 0) for i in range(n)])
            for _ in range(2)]
    assert not any(check_closure(g.to_table()).ok for g in gens)
    return gens, ("a", "b")


_BFS_CASES = {
    **{f"pij({i},{j}) m={m}": (lambda i=i, j=j, m=m: _pqc(pij_pair(i, j, m)))
       for m in (2, 3) for i in (0, 1) for j in (0, 1)},
    "witness14": _witness14_kc,
    **{f"example3 M={M}": (lambda M=M: _pqc(example3(M))) for M in range(2, 7)},
    **{f"section4 m={m}": (lambda m=m: _pqc(section4_model(m))) for m in (2, 3)},
    **{f"example3_additive M={M}": (lambda M=M: _staircase(M)) for M in (*range(2, 9), 32)},
    **{f"seeded additive n={n} #{seed}": (lambda n=n, seed=seed: _seeded_additive(n, seed))
       for n in range(1, 7) for seed in (0, 1)},
    # dropping point 0 at the bounds of the row width: the identity alone
    # at n = 0, and the top bit of a uint64 row at n = 64
    **{f"drop point 0 n={n}": (lambda n=n: ([AdditiveOperator(n, [1 << i if i else 0 for i in range(n)])],
                                            ("d",)))
       for n in (0, 1, 64)},
    "cyclic shift n=64": lambda: ([AdditiveOperator(64, [1 << (i + 1) % 64 for i in range(64)])], ("s",)),
}


@pytest.mark.parametrize("case", list(_BFS_CASES))
def test_table_bfs_matches_the_one_edge_at_a_time_oracle(case, monkeypatch):
    # the same elements, witnesses, Cayley rows and truncation as a
    # tuple BFS composing tables or singleton images, with the levels
    # taken whole and a row at a time; a monoid of at most 64 elements
    # is cut at every cap, so the cut falls at each position of a
    # Cayley row
    gens, names = _BFS_CASES[case]()
    additive = isinstance(gens[0], AdditiveOperator)

    def row(op):
        return op.images if additive else tuple(op.entries.tolist())

    rows = [row(g) for g in gens]
    full = monoid_bfs(rows, names, additive=additive)[0]
    caps = range(1, len(full) + 1) if len(full) <= 64 else [len(full)]
    for block_entries in (opalg.TEMPORARY_ENTRIES, 1):
        monkeypatch.setattr(opalg, "TEMPORARY_ENTRIES", block_entries)
        for cap in caps:
            elements, witnesses, cayley, truncated = monoid_bfs(rows, names, cap, additive)
            mon = generate_monoid(gens, cap=cap, names=names)
            assert [tuple(r) for r in mon.rows.tolist()] == elements, cap
            assert (mon.witnesses, mon.cayley, mon.truncated) == (witnesses, cayley, truncated)
            assert [row(e) for e in mon.elements] == elements
            assert not mon.rows.flags.writeable


@pytest.mark.parametrize("case", ["witness14", "example3 M=5", "section4 m=3",
                                  "example3_additive M=8", "seeded additive n=5 #1"])
def test_capped_bfs_gives_the_first_levels_of_the_full_run(case, monkeypatch):
    # a run capped at depth levels finds the elements whose witnesses
    # are at most depth letters long, with the full run's witnesses,
    # keys and Cayley entries, and passes the product only the heads
    # below the cap, at every block size
    gens, names = _BFS_CASES[case]()
    identity, product, temporary = monoid._kernel(gens, gens[0].ground_size)
    index, witnesses, edges, _ = monoid._bfs(identity, product, temporary, names)
    rows = np.frombuffer(b"".join(index), dtype=identity.dtype).reshape(len(index), -1)
    levels = len(witnesses[-1])
    assert levels >= 3
    for block_entries in (opalg.TEMPORARY_ENTRIES, 1):
        monkeypatch.setattr(opalg, "TEMPORARY_ENTRIES", block_entries)
        for depth in range(levels + 2):
            heads = []

            def counted(block):
                heads.extend(block.tolist())
                return product(block)

            got = monoid._bfs(identity, counted, temporary, names, depth=depth)
            reached = sum(len(w) <= depth for w in witnesses)
            below = sum(len(w) < depth for w in witnesses)
            assert list(got[0].items()) == list(index.items())[:reached]
            assert got[1:] == (witnesses[:reached], edges[:below * len(names)], False)
            assert heads == rows[:below].tolist()


def test_generator_validation():
    m = pij_pair(0, 0, 2)
    with pytest.raises(ValueError):
        generate_monoid([])
    with pytest.raises(ValueError):
        generate_monoid([m.p], cap=0)
    with pytest.raises(ValueError):
        generate_monoid([m.p], names=("p", "q"))
    with pytest.raises(ValueError):
        generate_monoid([m.p, complement_table(5)])
    for gens in ([example3(4).p, example3_additive(4).q], [example3_additive(4).p, example3(4).q],
                 [section4_model(2, materialize=False).p]):
        with pytest.raises(ValueError, match="all OperatorTables or all AdditiveOperators"):
            generate_monoid(gens)
    with pytest.raises(ValueError, match="at most 64 points"):
        generate_monoid([AdditiveOperator(65, [1 << i for i in range(65)])])


def test_truncation():
    k, _ = kuratowski_witness()
    c = complement_table(k.ground_size)
    mon = generate_monoid([k, c], cap=5)
    assert mon.truncated
    assert len(mon) == 5
    with pytest.raises(ValueError):
        hasse(mon)


def test_hasse_orders_only_table_backed_monoids():
    mon = generate_monoid([example3_additive(4).p, example3_additive(4).q])
    with pytest.raises(ValueError, match="^only table-backed monoids are ordered$"):
        hasse(mon)


def test_monoid_json():
    k, _ = kuratowski_witness()
    c = complement_table(k.ground_size)
    mon = generate_monoid([k, c], names=("k", "c"))
    blob = json.loads(json.dumps(monoid_payload(mon)))
    assert blob["size"] == 14
    assert blob["truncated"] is False
    assert blob["witnesses"] == list(mon.witnesses)
    assert [[int(a, 16) for a in e["entries"]] for e in blob["elements"]] == [
        list(e.entries) for e in mon.elements]
    assert {e["n"] for e in blob["elements"]} == {k.ground_size}
    assert blob["cayley"] == [list(r) for r in mon.cayley]


# ---------------------------------------------------------------------------
# order structure


def test_hasse_of_kuratowski_monoid():
    k, _ = kuratowski_witness()
    c = complement_table(k.ground_size)
    mon = generate_monoid([k, c], names=("k", "c"))
    edges = hasse(mon)
    assert len(edges) == 16
    # the edges are exactly the strict covering pairs
    assert set(edges) == covering_pairs(mon.rows.tolist()) and len(set(edges)) == len(edges)
    # identity sits below k and above the interior ckc
    by_witness = {w: i for i, w in enumerate(mon.witnesses)}
    assert (by_witness[""], by_witness["k"]) in edges
    assert (by_witness["ckc"], by_witness[""]) in edges


@pytest.mark.parametrize("model,gens", [
    (lambda: section4_model(2), "pqc"),
    (lambda: example3(6), "pq"),
    (lambda: example3(7), "pq"),
    (lambda: example3(8), "pq"),
], ids=["section4-m2-pqc", "example3-M6-pq", "example3-M7-pq", "example3-M8-pq"])
def test_hasse_edges_are_the_covering_pairs(model, gens, monkeypatch):
    m = model()
    tables = {"p": m.p, "q": m.q, "c": complement_table(m.ground_size)}
    mon = generate_monoid([tables[g] for g in gens], names=tuple(gens))
    edges = hasse(mon)
    assert set(edges) == covering_pairs(mon.rows.tolist()) and len(set(edges)) == len(edges)
    assert edges  # a nontrivial order
    # the order screened one mask at a time
    monkeypatch.setattr(opalg, "TEMPORARY_ENTRIES", 7 * len(mon) + 6)
    assert len(mon) % 7 and hasse(mon) == edges


def _table_monoid(rows):
    """A GeneratedMonoid whose elements are the given distinct rows,
    witnessed by words of growing length, for hasse to order."""
    rows = np.asarray(rows, dtype=np.uint8)
    n = rows.shape[1].bit_length() - 1
    return monoid.GeneratedMonoid(
        generators=(identity_table(n),), generator_names=("g",),
        witnesses=["g" * i for i in range(len(rows))], cayley=[], truncated=False, rows=rows)


def test_hasse_is_the_transitive_reduction_of_random_orders():
    # random distinct tables, with any mask or only the masks
    # {0, ..., i - 1} as entries (a deeper order), then a chain (row t
    # full on the first t masks) and an antichain (row t full on mask t
    # alone), each longer than a byte
    rng = np.random.default_rng(34)
    for n, count in ((1, 3), (2, 40), (2, 90), (3, 60), (3, 100)):
        for rows in (rng.integers(0, 1 << n, size=(count, 1 << n)),
                     (1 << rng.integers(0, n + 1, size=(count, 1 << n))) - 1):
            mon = _table_monoid(rng.permutation(np.unique(rows, axis=0)))
            assert set(hasse(mon)) == covering_pairs(mon.rows.tolist()), (n, count)
    size = 16
    chain = (np.arange(size) < np.arange(size + 1)[:, None]) * (size - 1)
    mon = _table_monoid(chain[::-1])
    assert hasse(mon) == [(i + 1, i) for i in range(size)]
    assert set(hasse(mon)) == covering_pairs(mon.rows.tolist())
    antichain = np.eye(size, dtype=np.uint8) * (size - 1)
    assert hasse(_table_monoid(antichain)) == [] == sorted(covering_pairs(antichain.tolist()))


def test_hasse_matches_the_float32_square_on_example3_repaired():
    # the cover test it replaced: j covers i where i < j and the strict
    # order's square, which counts the v with i < v < j, is 0
    m = example3(5)
    tables = {"p": m.p, "q": m.q, "c": complement_table(m.ground_size)}
    mon = generate_monoid([tables[g] for g in "pqc"], names=tuple("pqc"))
    strict = leq_matrix(mon.rows, mon.rows)
    np.fill_diagonal(strict, False)
    counts = strict.astype(np.float32)
    want = set(zip(*(side.tolist() for side in np.nonzero(strict & (counts @ counts == 0)))))
    edges = hasse(mon)
    assert len(mon) > 1000 and set(edges) == want and len(edges) == len(want)


def test_hasse_edges_sorted_by_witness():
    k, _ = kuratowski_witness()
    c = complement_table(k.ground_size)
    mon = generate_monoid([k, c], names=("k", "c"))
    edges = hasse(mon)

    def wkey(i):
        w = mon.witnesses[i]
        return (len(w), w)

    keys = [(wkey(i), wkey(j)) for i, j in edges]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# orbits


def test_orbit_walks_the_flagged_cycle():
    m = section4_model(4)
    start = m.mask_of_names("0, top")
    rep = orbit("cpcpcqcq", m, start)
    assert rep.images[0] == start
    assert rep.distinct_count == 4
    assert rep.cycle_entry == 0
    assert not rep.truncated
    # each application advances the cyclic point two steps
    expected = [m.mask_of_names(f"{2 * k % 8}, top") for k in range(4)]
    assert rep.images == expected


def test_orbit_fixed_point():
    m = pij_pair(1, 1, 2)
    rep = orbit("pq", m, 0)
    assert rep.images == [0, (1 << 4) - 1]
    assert rep.cycle_entry == 1


def test_orbit_truncation():
    m = section4_model(4)
    start = m.mask_of_names("0, top")
    rep = orbit("cpcpcqcq", m, start, max_iter=2)
    assert rep.truncated
    assert rep.cycle_entry is None
    assert rep.distinct_count == 3
    with pytest.raises(ValueError):
        orbit("pq", m, 0, max_iter=0)


def test_growth_study_staircase():
    rows = growth_study(
        example3_additive,
        "pq",
        lambda M: mask_of([0], M + 1),
        [8, 16, 32],
    )
    assert rows == [(8, 5), (16, 9), (32, 17)]


def test_growth_study_flagged_cycle():
    rows = growth_study(
        lambda m: section4_model(m, materialize=False),
        "cpcpcqcq",
        lambda m: mask_of([0], 2 * m + 2) | (1 << (2 * m)),
        [4, 8, 16],
    )
    assert rows == [(4, 4), (8, 8), (16, 16)]


def test_growth_study_validation():
    with pytest.raises(ValueError):
        growth_study(example3_additive, "pq", lambda M: 1, [8, 4])
