import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import opalg
from closurelab.idlab import KURATOWSKI_WORDS
from closurelab.monoid import generate_monoid
from closurelab.opalg import (
    AdditiveOperator,
    FlatScope,
    FnOperator,
    OperatorTable,
    WordTables,
    check_closure,
    check_interior,
    closure_from_fixed_points,
    closures_from_masks,
    commutes,
    commuting_witness,
    complement_table,
    conjugated_involution,
    elements_of,
    eval_word,
    format_set,
    eval_word_on,
    full_mask,
    identity_table,
    is_reversing_involution,
    leq,
    lift_permutation,
    mask_of,
    reversed_involution,
)

from _oracles import (
    closure_of_family,
    compose_tables,
    is_monotone,
    moore_families_brute,
    word_table,
)


def test_mask_helpers():
    assert full_mask(3) == 7
    assert mask_of([0, 2], 3) == 5
    assert elements_of(5) == [0, 2]
    assert elements_of(0) == []


def test_format_set_spells_a_subset_in_element_order():
    assert format_set(0) == "{}"
    assert format_set(0, ("a", "b")) == "{}"
    assert format_set(0b100101) == "{0,2,5}"
    assert format_set(1 << 11) == "{11}"
    # section4's flagged cycle at m = 2 names its last two points
    names = ("0", "1", "2", "3", "top", "bot")
    assert format_set(0b010001, names) == "{0,top}"
    assert format_set(0b111100, names) == "{2,3,top,bot}"
    with pytest.raises(ValueError):
        mask_of([3], 3)


def test_identity_and_complement():
    ident = identity_table(3)
    c = complement_table(3)
    assert ident.apply(5) == 5
    assert c.apply(0) == 7
    assert c.apply(5) == 2
    assert c.compose(c) == ident


def test_compose_applies_rightmost_first():
    c = complement_table(2)
    k = closure_from_fixed_points(2, [3])  # everything closes to full
    kc = k.compose(c)
    assert kc.apply(3) == k.apply(c.apply(3))


def test_table_validation():
    with pytest.raises(ValueError):
        OperatorTable(2, np.array([0, 1, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        OperatorTable(2, np.array([0, 1, 2, 9], dtype=np.int64))
    with pytest.raises(ValueError):
        opalg.MAX_GROUND_SIZE and identity_table(opalg.MAX_GROUND_SIZE + 1)


def test_tables_are_immutable():
    t = identity_table(2)
    with pytest.raises(AttributeError):
        t.ground_size = 3


def test_internal_tables_freeze_in_place_and_caller_arrays_are_copied():
    built = np.arange(4, dtype=np.int64)
    t = OperatorTable(2, built, _validate=False)
    assert t.entries is built and not built.flags.writeable
    view = np.arange(8, dtype=np.int64)[:4]
    assert OperatorTable(2, view, _validate=False).entries.base is None
    assert view.flags.writeable
    mine = np.arange(4, dtype=np.int64)
    t = OperatorTable(2, mine)
    mine[0] = 3
    assert t.apply(0) == 0 and mine.flags.writeable


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("n", range(9))
def test_hex_rows_matches_the_per_row_spelling(n, dtype):
    rng = np.random.default_rng(n)
    digits = ["%x" % a for a in range(1 << n)]
    for k in (0, 1, 37):
        stack = rng.integers(0, 1 << n, size=(k, 1 << n)).astype(dtype)
        rows = opalg.hex_rows(stack)
        assert rows == [list(map(digits.__getitem__, row)) for row in stack.tolist()]
        assert all(type(a) is str for row in rows for a in row)


def test_closure_from_fixed_points_examples():
    # family {full} closes everything to the top
    k = closure_from_fixed_points(2, [3])
    assert [k.apply(a) for a in range(4)] == [3, 3, 3, 3]
    # fixed points of the result are the meet-closure of the input
    k2 = closure_from_fixed_points(2, [1, 2, 3])
    fixed = [a for a in range(4) if k2.apply(a) == a]
    assert fixed == [0, 1, 2, 3]  # 1 & 2 = 0 forced in


def test_closure_from_fixed_points_matches_oracle():
    # seeded families up to n = 8, duplicates included, against the
    # member-by-member meet of the oracle, one by one and stacked
    rng = random.Random(11)
    for n in range(9):
        size = 1 << n
        families = [[size - 1], [size - 1, size - 1]]
        for _ in range(12):
            members = [rng.randrange(size) for _ in range(rng.randint(0, 20))]
            members += rng.sample(members, len(members) // 2) + [size - 1]
            rng.shuffle(members)
            families.append(members)
        for members in families:
            got = closure_from_fixed_points(n, members).entries.tolist()
            assert tuple(got) == closure_of_family(n, members), (n, members)
        # all families at once, as bitmasks: one row each, row 0 the
        # one-family table
        stack = closures_from_masks(n, [sum(1 << m for m in set(f)) for f in families])
        assert [tuple(row) for row in stack.tolist()] == [
            closure_of_family(n, members) for members in families
        ]
        assert np.array_equal(closure_from_fixed_points(n, families[0]).entries, stack[0])
    assert closures_from_masks(3, []).shape == (0, 8)


def test_closure_from_fixed_points_rejects_bad_families():
    for members in ([3, 4], [-1, 3], [3, 1 << 70]):
        with pytest.raises(ValueError, match="outside the powerset"):
            closure_from_fixed_points(2, members)
    for members in ([], [0, 1, 2], [1, 1], [1, 2]):
        with pytest.raises(ValueError, match="full ground set"):
            closure_from_fixed_points(2, members)


def _member_list_stack(n, families):
    """The tables of the member-list front end, one row per family."""
    return [closure_from_fixed_points(n, members).entries.tolist() for members in families]


def test_closures_from_family_bitmasks_match_member_lists():
    # int64 family bitmasks through the meet kernel against the
    # member-list front end and the oracle, on seeded families at every
    # n <= 5
    rng = np.random.default_rng(3)
    for n in range(6):
        size = 1 << n
        masks = rng.integers(0, 1 << size, size=40, dtype=np.int64) | (1 << (size - 1))
        families = [[s for s in range(size) if (int(m) >> s) & 1] for m in masks]
        got = closures_from_masks(n, masks)
        assert got.dtype == np.int64
        assert got.tolist() == _member_list_stack(n, families)
        assert [tuple(row) for row in got.tolist()] == [
            closure_of_family(n, members) for members in families
        ]


def test_closures_from_int_masks_match_member_lists():
    # Python-int family masks, at every n <= 8 and past the 64 bits of
    # an int64, against the member-list front end and the oracle; the lists
    # repeat members, the masks hold each once
    rng = random.Random(17)
    for n in range(9):
        size = 1 << n
        families = [[size - 1], [size - 1] * 3, list(range(size))]
        for _ in range(20):
            members = [rng.randrange(size) for _ in range(rng.randint(0, 2 * size))]
            families.append(members + members[: len(members) // 2] + [size - 1])
        masks = [sum(1 << m for m in set(members)) for members in families]
        got = closures_from_masks(n, masks)
        assert got.shape == (len(families), size) and got.dtype == np.int64
        assert got.tolist() == _member_list_stack(n, families)
        assert [tuple(row) for row in got.tolist()] == [
            closure_of_family(n, members) for members in families
        ]
        if n <= 5:
            array = closures_from_masks(n, np.array(masks, dtype=np.int64))
            assert array.tolist() == got.tolist()
    assert closures_from_masks(4, []).shape == (0, 16)


def test_flat_scope_suffixes_are_the_tables_of_the_suffixes():
    ks = np.stack([closure_from_fixed_points(3, fam).entries
                   for fam in ([7], [1, 7], [0, 3, 7], [2, 5, 7])])
    flat = FlatScope(ks, ks[::-1].copy())
    word = "pcqqpcpcq"
    got = list(flat.suffixes(word))
    assert len(got) == len(word)
    for length, table in enumerate(got, 1):
        assert np.array_equal(table, flat.eval(word[-length:])), length
    assert list(flat.suffixes("")) == []
    # with no q table a q letter is refused, not taken for a c
    with pytest.raises(ValueError, match="q"):
        list(FlatScope(ks).suffixes("pqp"))


@settings(max_examples=150)
@given(
    n=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_closure_from_fixed_points_always_closure(n, data):
    size = 1 << n
    members = data.draw(
        st.lists(st.integers(min_value=0, max_value=size - 1), max_size=8)
    )
    k = closure_from_fixed_points(n, members + [size - 1])
    assert check_closure(k).ok


def test_check_closure_witnesses():
    # a non-expanding table: constant empty set
    t = OperatorTable(2, np.zeros(4, dtype=np.int64))
    rep = check_closure(t)
    assert not rep.checks["expanding"].passed
    assert rep.checks["expanding"].witness == 1  # smallest nonempty subset
    # a non-idempotent expanding monotone table: add one element per step
    grow = OperatorTable(
        2, np.array([1, 3, 3, 3], dtype=np.int64)
    )
    rep2 = check_closure(grow)
    assert rep2.checks["expanding"].passed and rep2.checks["monotone"].passed
    assert not rep2.checks["idempotent"].passed
    assert rep2.checks["idempotent"].witness == 0


def test_monotone_witness_is_smallest():
    # staircase-style failure: p adds successor of odd max only
    def p(a):
        if a == 0:
            return 0
        top = a.bit_length() - 1
        if top % 2 == 1 and top + 1 < 5:
            return a | (1 << (top + 1))
        return a

    t = OperatorTable(5, [p(a) for a in range(1 << 5)])
    rep = check_closure(t)
    assert not rep.checks["monotone"].passed
    a, b = rep.checks["monotone"].witness
    assert (a, b) == (2, 10)  # {1} vs {1,3}


def test_check_interior():
    k = closure_from_fixed_points(3, [0, 1, 3, 7])
    c = complement_table(3)
    assert check_interior(c.compose(k).compose(c)).ok
    assert not check_interior(k).ok  # a closure is not contracting


def test_leq_is_pointwise():
    small = identity_table(2)
    big = closure_from_fixed_points(2, [3])
    assert leq(small, big)
    assert not leq(big, small)


def test_leq_matrix_matches_pairwise_leq_across_slices(monkeypatch):
    # 40 x 30 tables at n = 10 pass TEMPORARY_ENTRIES, so the mask
    # axis is screened in more than one slice; b's rows contain some of
    # a's, so the order holds for some pairs and fails for the rest
    n, size = 10, 1 << 10
    rng = np.random.default_rng(7)
    a = rng.integers(0, size, (40, size)) & rng.integers(0, size, (40, size))
    b = a[rng.integers(0, 40, 30)] | (rng.integers(0, size, (30, size))
                                      & rng.integers(0, 2, (30, 1)) * (size - 1))
    assert len(a) * len(b) * size > opalg.TEMPORARY_ENTRIES
    want = [[leq(OperatorTable(n, x), OperatorTable(n, y)) for y in b] for x in a]
    assert 0 < np.sum(want) < a.shape[0] * len(b)
    assert opalg.leq_matrix(a, b).tolist() == want
    # two tables that differ at the last mask only
    ends = np.tile(np.arange(size), (2, 1))
    ends[1, -1] = 0
    # slices that do not divide the mask axis, down to one mask each
    for bound in (7 * 40 * 30, 1):
        monkeypatch.setattr(opalg, "TEMPORARY_ENTRIES", bound)
        assert opalg.leq_matrix(a, b).tolist() == want
        assert opalg.leq_matrix(ends, ends).tolist() == [[True, False], [True, True]]
        # a leading batch axis screens each pair of stacks on its own
        batched = opalg.leq_matrix(np.stack([a, a[::-1]]), np.stack([b, b[::-1]]))
        assert batched.tolist() == [want, [row[::-1] for row in want[::-1]]]
    with pytest.raises(ValueError):
        opalg.leq_matrix(a, b[:, :512])
    with pytest.raises(ValueError):
        opalg.leq_matrix(np.stack([a, a]), b[None])


def test_commutes_and_witness():
    ident = identity_table(2)
    anything = closure_from_fixed_points(2, [1, 3])
    assert commutes(ident, anything)
    # a known non-commuting pair
    p = closure_from_fixed_points(2, [1, 3])
    q = closure_from_fixed_points(2, [2, 3])
    if not commutes(p, q):
        w = commuting_witness(p, q)
        assert p.apply(q.apply(w)) != q.apply(p.apply(w))


def test_commuting_rows_matches_per_pair_commutes():
    # every ordered closure pair at n <= 3, sampled families at n = 5
    # (commuting and not), no rows at all, and the one-subset ground
    from closurelab import idlab

    stacks = []
    for n in range(4):
        closures = idlab._closure_stack(n)
        k = len(closures)
        stacks.append((n, np.repeat(closures, k, axis=0), np.tile(closures, (k, 1))))
    getrandbits = random.Random(5).getrandbits
    tables = closures_from_masks(5, [idlab._family_mask(getrandbits, 0, 16, 32) for _ in range(600)])
    stacks.append((5, tables[0::2], tables[1::2]))
    for n in (0, 3):
        stacks.append((n, np.empty((0, 1 << n), dtype=np.int64), np.empty((0, 1 << n), dtype=np.int64)))
    stacks.append((0, np.zeros((2, 1), dtype=np.int64), np.zeros((2, 1), dtype=np.int64)))
    for n, p, q in stacks:
        got = opalg.commuting_rows(p, q)
        want = [commutes(OperatorTable(n, a), OperatorTable(n, b)) for a, b in zip(p, q)]
        assert got.dtype == bool and got.tolist() == want, n
    for n in (2, 3, 5):
        flags = opalg.commuting_rows(*[s for m, *s in stacks if m == n][0])
        assert flags.any() and not flags.all(), n


def test_flat_scope_eval_returns_a_fresh_array():
    # a word of one letter, one ending in c (with and without a c
    # table) and the empty word, from the identity and from the tables
    # of another word: the result shares no memory with the scope's
    # tables or the start, and writing to it leaves them as they were
    ks = np.stack([closure_from_fixed_points(3, fam).entries
                   for fam in ([7], [1, 7], [0, 3, 7], [2, 5, 7])])
    thetas = np.stack([complement_table(3).entries, reversed_involution([1, 0, 2]).entries] * 2)
    for scope in (FlatScope(ks, ks[::-1].copy()), FlatScope(ks, ks[::-1].copy(), thetas)):
        before = {letter: table.copy() for letter, table in scope.tables.items()}
        start = scope.eval("qc")
        kept = start.copy()
        for word in ("p", "q", "c", "pc", "qcpc", ""):
            for got in (scope.eval(word), scope.eval(word, start)):
                assert not any(np.shares_memory(got, t)
                               for t in (start, *scope.tables.values())), word
                got[...] = 0
                assert all(np.array_equal(scope.tables[k], v) for k, v in before.items()), word
                assert np.array_equal(start, kept), word


def test_lift_permutation_and_involutions():
    perm = [1, 2, 0]
    lift = lift_permutation(perm)
    assert lift.apply(mask_of([0], 3)) == mask_of([1], 3)
    assert lift.apply(mask_of([0, 2], 3)) == mask_of([1, 0], 3)
    # conjugation by a lifted permutation fixes the complement
    for p in ([0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]):
        assert conjugated_involution(p) == complement_table(3)
    # permutation-then-complement is a different reversing involution
    swap = [1, 0, 2]
    theta = reversed_involution(swap)
    assert is_reversing_involution(theta)
    assert theta != complement_table(3)
    with pytest.raises(ValueError):
        reversed_involution([1, 2, 0])  # not involutive


def test_is_reversing_involution_needs_both_halves():
    # swapping two points is an involution, but it keeps inclusion
    swap = lift_permutation([1, 0, 2])
    assert swap.compose(swap) == identity_table(3)
    assert not is_reversing_involution(swap)
    # the constant empty set reverses inclusion, but is not an involution
    assert not is_reversing_involution(OperatorTable(3, np.zeros(8, dtype=np.int64)))


def test_eval_word_matches_manual():
    p = closure_from_fixed_points(2, [1, 3])
    q = closure_from_fixed_points(2, [2, 3])
    c = complement_table(2)
    t = eval_word("pcq", p, q)
    for a in range(4):
        assert t.apply(a) == p.apply(c.apply(q.apply(a)))
        assert eval_word_on("pcq", p, q, a) == t.apply(a)
    assert eval_word("", p, q) == identity_table(2)


def test_flat_scope_matches_per_row_composition():
    pairs = [(closure_from_fixed_points(3, [1, 7]), closure_from_fixed_points(3, [6, 7])),
             (closure_from_fixed_points(3, [7]), closure_from_fixed_points(3, [0, 3, 7])),
             (identity_table(3), closure_from_fixed_points(3, [2, 5, 7]))]
    thetas = [complement_table(3), reversed_involution([1, 0, 2]),
              reversed_involution([2, 1, 0])]
    p = np.stack([a.entries for a, _ in pairs])
    q = np.stack([b.entries for _, b in pairs])
    c = np.stack([t.entries for t in thetas])

    def reference(word, a, b, theta):
        # apply the letters right to left, one subset at a time
        ops = {"c": theta.apply, "p": a.apply, "q": b.apply}
        out = []
        for mask in range(8):
            for letter in reversed(word):
                mask = ops[letter](mask)
            out.append(mask)
        return out

    plain_scope, subst_scope = FlatScope(p, q), FlatScope(p, q, c)
    for word in ("", "c", "p", "qcp", "pqcpq", "cpcqcpcq"):
        rows = plain_scope.eval(word)
        subst = subst_scope.eval(word)
        assert rows.shape == subst.shape == (3, 8)
        for i, (a, b) in enumerate(pairs):
            assert rows[i].tolist() == reference(word, a, b, thetas[0])
            assert subst[i].tolist() == reference(word, a, b, thetas[i])
            assert eval_word(word, a, b).entries.tolist() == rows[i].tolist()
    with pytest.raises(ValueError):
        plain_scope.eval("pxq")
    with pytest.raises(ValueError):
        FlatScope(p, q, c[:2])


def test_flat_scope_shifts_only_the_letters_it_is_given():
    ks = np.stack([closure_from_fixed_points(3, fam).entries
                   for fam in ([7], [1, 7], [0, 3, 7], [2, 5, 7])])
    p_only = FlatScope(ks)
    assert sorted(p_only.tables) == ["p"]
    for word in ("", "c", "p", "pcp", "cpcpcpc"):
        assert np.array_equal(p_only.eval(word), FlatScope(ks, ks).eval(word))
    # with no q table a q letter is refused, not taken for a c
    for word in ("q", "pqp", "cq"):
        with pytest.raises(ValueError, match="q"):
            p_only.eval(word)


def test_flat_word_kernel_matches_per_row_composition():
    n, size = 3, 8
    closures = [closure_of_family(n, fam) for fam in moore_families_brute(n)]
    # inclusion-reversing involutions written out: complement after a
    # lifted involutive permutation of the ground set
    thetas = []
    for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1)):
        lift = [sum(1 << perm[i] for i in range(n) if a >> i & 1) for a in range(size)]
        thetas.append(tuple(lift[(size - 1) ^ a] for a in range(size)))
    rows = len(closures)
    ps = closures
    qs = closures[::-1]
    cs = [thetas[i % len(thetas)] for i in range(rows)]

    def reference(word, p, q, c):
        out = tuple(range(size))
        for letter in reversed(word):
            out = compose_tables({"p": p, "q": q, "c": c}[letter], out)
        return out

    words = ("", "c", "p", "cc", "qcp", "pqcpq", "cpcqcpcqc", "ppqqcc")
    for k in (0, 1, 2, rows):
        p = np.array(ps[:k], dtype=np.int64).reshape(k, size)
        q = np.array(qs[:k], dtype=np.int64).reshape(k, size)
        c = np.array(cs[:k], dtype=np.int64).reshape(k, size)
        complement = [tuple((size - 1) ^ a for a in range(size))] * k
        scopes = (FlatScope(p, q), FlatScope(p, q, c),
                  FlatScope(p.astype(np.uint8), q.astype(np.uint8), c.astype(np.uint8)))
        for word in words:
            plain, subst, narrow = (scope.eval(word) for scope in scopes)
            assert plain.shape == subst.shape == narrow.shape == (k, size)
            assert plain.dtype == subst.dtype == narrow.dtype == np.int64
            assert [tuple(r) for r in plain.tolist()] == [
                reference(word, *abc) for abc in zip(ps[:k], qs[:k], complement)]
            assert [tuple(r) for r in subst.tolist()] == [
                reference(word, *abc) for abc in zip(ps[:k], qs[:k], cs[:k])]
            assert np.array_equal(narrow, subst)
            # continued from the tables of a suffix, at every cut
            for cut in range(len(word) + 1):
                for scope, whole in zip(scopes, (plain, subst, narrow)):
                    assert np.array_equal(scope.eval(word[:cut], scope.eval(word[cut:])), whole)
    # one row through the single-model wrapper, and with theta through
    # a one-row flat scope
    a, b = OperatorTable(n, ps[5]), OperatorTable(n, qs[5])
    one_row = FlatScope(a.entries[None], b.entries[None], np.array([thetas[1]]))
    for word in words:
        assert eval_word(word, a, b).entries.tolist() == list(
            reference(word, ps[5], qs[5], thetas[0]))
        assert one_row.eval(word)[0].tolist() == list(
            reference(word, ps[5], qs[5], thetas[1]))


def test_closure_rows_matches_check_closure_per_pair():
    # pq over every ordered closure pair at n <= 3: the product of a
    # noncommuting pair can fail to be a closure, that of a commuting
    # pair never does
    from closurelab import idlab

    failing = 0
    for n in range(4):
        run = idlab._pair_run(n, False)
        pq = run.flat.eval("pq")
        got = opalg.closure_rows(pq, n)
        want = [check_closure(m.p.compose(m.q)).ok for m in run.models()]
        assert got.tolist() == want
        assert all(got[i] for i, m in enumerate(run.models()) if m.commuting)
        failing += len(want) - sum(want)
        # the monotonicity screen row by row, against one table at a time
        mono = opalg._monotone_fast(pq, n)
        assert mono.tolist() == [bool(opalg._monotone_fast(row, n)) for row in pq]
    assert failing > 0
    # each axiom failing alone, next to closures in the same stack: a
    # table that is monotone and idempotent but not expanding, one
    # expanding and idempotent but not monotone, one expanding and
    # monotone but not idempotent
    stack = np.array([[0, 0, 0, 3], [1, 1, 2, 3], [1, 3, 3, 3],
                      [0, 1, 2, 3], [3, 3, 3, 3], [0, 3, 3, 3]])
    reports = [check_closure(OperatorTable(2, r)) for r in stack]
    assert [tuple(r.checks[name].passed for name in ("expanding", "monotone", "idempotent"))
            for r in reports] == [(False, True, True), (True, False, True),
                                  (True, True, False)] + [(True, True, True)] * 3
    assert opalg.closure_rows(stack, 2).tolist() == [False] * 3 + [True] * 3
    assert opalg._monotone_fast(stack, 2).tolist() == [True, False] + [True] * 4
    # the interior case: cpc over each closure stack, a row per closure,
    # is an interior operator; the duals c t c of the six tables above
    # each fail only contracting, only monotone or only idempotent, or
    # are interior operators
    for n in range(5):
        cpc = FlatScope(idlab._closure_stack(n)).eval("cpc")
        got = opalg.interior_rows(cpc, n)
        assert got.tolist() == [check_interior(OperatorTable(n, row)).ok for row in cpc]
        assert got.all()
    duals = np.array([[0, 3, 3, 3], [0, 1, 2, 2], [0, 0, 0, 2],
                      [0, 1, 2, 3], [0, 0, 0, 0], [0, 0, 0, 3]])
    assert np.array_equal(duals, 3 ^ stack[:, ::-1])
    reports = [check_interior(OperatorTable(2, r)) for r in duals]
    assert [tuple(r.checks[name].passed for name in ("contracting", "monotone", "idempotent"))
            for r in reports] == [(False, True, True), (True, False, True),
                                  (True, True, False)] + [(True, True, True)] * 3
    assert opalg.interior_rows(duals, 2).tolist() == [False] * 3 + [True] * 3
    # random stacks, most rows not monotone, mixed with monotone rows
    # A | r and A & r, against the brute-force oracle; a (2, k, 2**n)
    # stack screens row by row, a single table gives a 0-d result
    rng = np.random.default_rng(7)
    for n in range(5):
        masks = np.arange(1 << n)
        rs = rng.integers(0, 1 << n, size=(8, 1))
        stack = np.concatenate([rng.integers(0, 1 << n, size=(16, 1 << n)),
                                masks | rs, masks & rs])
        rng.shuffle(stack)
        want = [is_monotone(row.tolist()) for row in stack]
        assert opalg._monotone_fast(stack, n).tolist() == want
        assert opalg._monotone_fast(stack.reshape(2, 16, -1), n).tolist() == [
            want[:16], want[16:]]
        assert opalg._monotone_fast(stack[0], n).shape == ()
        assert (False in want) == (n > 0) and True in want


def test_eval_word_gathers_every_letter_like_the_flat_scope():
    rng = np.random.default_rng(20261018)
    for n in range(5):
        size = 1 << n
        c = complement_table(n)
        for _ in range(4):
            p = OperatorTable(n, rng.integers(0, size, size))
            q = OperatorTable(n, rng.integers(0, size, size))
            scope = FlatScope(p.entries[None], q.entries[None])
            c_scope = FlatScope(p.entries[None], q.entries[None], c.entries[None])
            words = ["", "c", "p", "q", "cc", "ccc"]
            words += ["".join(rng.choice(list("cpq"), int(rng.integers(1, 9))))
                      for _ in range(8)]
            for word in words:
                got = eval_word(word, p, q)
                assert got.entries.tolist() == c_scope.eval(word)[0].tolist(), word
                assert got.entries.tolist() == scope.eval(word)[0].tolist(), word
                assert not got.entries.flags.writeable
        # the cached complement entries cannot be made writable, and no
        # table handed out shares their memory
        shared = opalg._complement_entries(n)
        with pytest.raises(ValueError):
            shared.setflags(write=True)
        for table in (c, complement_table(n), eval_word("", p, q), eval_word("c", p, q)):
            assert not table.entries.flags.writeable
            assert not np.shares_memory(table.entries, shared)
        assert shared.tolist() == [(size - 1) ^ a for a in range(size)]


def test_table_equality_agrees_across_construction_paths():
    k = closure_from_fixed_points(3, [1, 5, 7])
    entries = k.entries.tolist()
    wide = np.zeros(16, dtype=np.int64)
    wide[::2] = entries
    same = [OperatorTable(3, entries),
            identity_table(3).compose(k),
            OperatorTable(3, wide[::2]),
            OperatorTable(3, np.array(entries, dtype=np.int64)[:])]
    for t in same:
        assert t == k and k == t and hash(t) == hash(k)
    assert k != identity_table(3) and k != complement_table(3)
    # tables at different ground sizes differ, even when one's entries
    # start the other's
    assert identity_table(0) != OperatorTable(1, [0, 0])
    assert OperatorTable(0, [0]) == identity_table(0)
    assert k.__eq__(entries) is NotImplemented and k != entries and k != "k"


def test_eval_word_with_substitute_involution():
    p = closure_from_fixed_points(2, [1, 3])
    q = closure_from_fixed_points(2, [3])
    theta = reversed_involution([1, 0])
    t = FlatScope(p.entries[None], q.entries[None], theta.entries[None]).eval("pcq")[0]
    for a in range(4):
        assert t[a] == p.apply(theta.apply(q.apply(a)))


def test_eval_word_rejects_bad_letters():
    p = identity_table(1)
    with pytest.raises(ValueError):
        eval_word("pxq", p, p)


_ONE, _TWO = identity_table(1), identity_table(2)
_ADD_ONE, _ADD_TWO = AdditiveOperator(1, (1,)), AdditiveOperator(2, (1, 2))


@pytest.mark.parametrize("call,message", [
    (lambda: elements_of(-1), "negative mask"),
    (lambda: _ONE.compose(_TWO), "ground sizes differ"),
    (lambda: _ADD_TWO.compose(_ADD_ONE), "ground sizes differ"),
    (lambda: leq(_TWO, _ONE), "ground sizes differ"),
    (lambda: commuting_witness(_ONE, _TWO), "ground sizes differ"),
    (lambda: eval_word_on("pq", _ADD_ONE, _ADD_TWO, 0), "ground sizes differ"),
    (lambda: AdditiveOperator(-1, ()), "negative ground size"),
    (lambda: AdditiveOperator(2, (1,)), "need 2 singleton images, got 1"),
    (lambda: AdditiveOperator(2, (1, 4)), "image of singleton 1 outside the powerset"),
    (lambda: AdditiveOperator(2, (-1, 2)), "image of singleton 0 outside the powerset"),
    (lambda: lift_permutation([0, 0]), "not a permutation of 0..n-1"),
    (lambda: eval_word_on("p", _ADD_TWO, _ADD_TWO, 4), "start mask outside the powerset"),
    (lambda: eval_word_on("p", _ADD_TWO, _ADD_TWO, -1), "start mask outside the powerset"),
], ids=["negative mask", "table compose", "additive compose", "leq", "commuting_witness",
        "eval_word_on sizes", "negative ground", "image count", "image past the powerset",
        "negative image", "lift_permutation", "start past the powerset", "negative start"])
def test_bad_inputs_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_additive_operators_are_immutable_and_equal_only_to_their_kind():
    with pytest.raises(AttributeError, match="^AdditiveOperator is immutable$"):
        _ADD_TWO.images = (2, 1)
    assert _ADD_TWO == AdditiveOperator(2, (1, 2))
    assert _ADD_TWO.__eq__(_ADD_TWO.to_table()) is NotImplemented
    assert _ADD_TWO != "p"


def test_axiom_report_spells_each_kind_of_witness():
    # identity but {0,1} -> {}: not expanding at {0,1}, not monotone at
    # {0} <= {0,1}, and idempotent
    report = check_closure(OperatorTable(2, [0, 1, 2, 0]))
    assert report.as_dict() == {
        "expanding": {"passed": False, "witness": [0, 1]},
        "monotone": {"passed": False, "witness": [[0], [0, 1]]},
        "idempotent": {"passed": True, "witness": None},
    }


def test_single_pair_evaluators_refuse_operators_that_are_not_tables():
    table = identity_table(2)
    others = [AdditiveOperator(2, (1, 2)), FnOperator(2, lambda a: a, "id")]
    for other in others:
        for evaluate in (eval_word, lambda w, p, q: WordTables(p, q)(w)):
            for p, q in ((other, table), (table, other)):
                with pytest.raises(TypeError, match=type(other).__name__):
                    evaluate("", p, q)
    with pytest.raises(ValueError, match="ground sizes differ"):
        WordTables(table, identity_table(3))


class _Gathers(np.ndarray):
    """A letter's entries that count, in a list shared by the letters,
    the gathers made through them."""

    def __getitem__(self, index):
        self.count[0] += 1
        return self.view(np.ndarray)[index]


def _counting(tables: WordTables) -> list:
    count = [0]
    for letter, entries in tables._letters.items():
        tables._letters[letter] = entries.view(_Gathers)
        tables._letters[letter].count = count
    return count


def _word_table_pairs():
    """Random pairs at n = 0..4: arbitrary maps (n <= 2, where their
    monoid stays small) and closures, commuting or not."""
    rng = np.random.default_rng(20261020)
    for n in range(5):
        size = 1 << n
        for _ in range(6):
            family = lambda: [size - 1, *rng.integers(0, size, int(rng.integers(0, size + 1)))]
            yield closure_from_fixed_points(n, family()), closure_from_fixed_points(n, family())
            if n <= 2:
                yield (OperatorTable(n, rng.integers(0, size, size)),
                       OperatorTable(n, rng.integers(0, size, size)))


def test_word_tables_match_eval_word_and_the_oracle():
    rng = random.Random(20261020)
    commuting = set()
    for p, q in _word_table_pairs():
        n = p.ground_size
        commuting.add(commutes(p, q))
        tables = WordTables(p, q)
        gathers = _counting(tables)
        # the empty word, all-c words, words whose suffixes repeat a
        # table (cc is the identity, pp and p the same closure, and
        # kckckck = kck), the Kuratowski words in p and in q, the
        # suffixes of one word, and random words
        words = ["", "c", "cc", "c" * 9, "pp", "ppp", "qq", "pcpcpcp", "pcp", "cqcqcqcq"]
        words += [w.strip("1").replace("k", k) for w in KURATOWSKI_WORDS for k in "pq"]
        words += ["qcpcq"[i:] for i in range(5)]
        words += ["".join(rng.choice("cpq") for _ in range(rng.randrange(1, 13)))
                  for _ in range(30)]
        p_list, q_list = p.entries.tolist(), q.entries.tolist()
        got = {}
        for word in words:
            table = tables(word)
            assert table.ground_size == n and not table.entries.flags.writeable
            assert table == eval_word(word, p, q), word
            assert tuple(table.entries.tolist()) == word_table(word, p_list, q_list, n), word
            got[word] = table
        # a repeated word is the same object; each edge held cost one
        # gather, and the states are distinct elements of <c, p, q>
        assert all(tables(word) is table for word, table in got.items())
        assert tables("") is tables.states[0] == identity_table(n)
        assert gathers[0] == sum(map(len, tables.edges))
        assert len({t.key() for t in tables.states}) == len(tables.states)
        assert len(tables.states) <= len(generate_monoid([p, q, complement_table(n)]))
    assert commuting == {True, False}


def test_word_tables_follow_each_edge_to_its_letter():
    p = closure_from_fixed_points(2, [1, 3])
    q = closure_from_fixed_points(2, [2, 3])
    tables = WordTables(p, q)
    tables("cpcq")
    for state, edges in enumerate(tables.edges):
        for letter, end in edges.items():
            want = eval_word(letter, p, q).compose(tables.states[state])
            assert tables.states[end] == want, (state, letter)
    # the walk leaves the identity by the word's last letter only
    assert tables.edges[0].keys() == {"q"}
    with pytest.raises(ValueError, match="unknown letter"):
        tables("cxq")


def test_additive_operator_matches_table():
    # singleton images: i -> {i, i+1 mod 3}
    images = tuple(mask_of([i, (i + 1) % 3], 3) for i in range(3))
    add = AdditiveOperator(3, images)
    tab = add.to_table()
    for a in range(8):
        assert add.apply(a) == tab.apply(a)
    assert add.apply(0) == 0  # unions of nothing


@settings(max_examples=100)
@given(
    imgs1=st.lists(st.integers(min_value=0, max_value=15), min_size=4, max_size=4),
    imgs2=st.lists(st.integers(min_value=0, max_value=15), min_size=4, max_size=4),
)
def test_additive_compose_agrees_with_table_compose(imgs1, imgs2):
    f = AdditiveOperator(4, tuple(imgs1))
    g = AdditiveOperator(4, tuple(imgs2))
    assert f.compose(g).to_table() == f.to_table().compose(g.to_table())
