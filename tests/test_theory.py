"""Tests for the term language, the proof checker and the axiom screen."""

import dataclasses
import json
import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from closurelab.idlab import (
    enumerate_all_pairs,
    enumerate_closures,
    enumerate_commuting_pairs,
)
from closurelab.models import ClosurePairModel, example3_additive, pij_pair, section4_model
from closurelab.opalg import (
    OperatorTable,
    check_closure,
    complement_table,
    eval_word,
    parse_word,
)
from closurelab.theory import (
    AXIOM_SCHEMAS,
    Bar,
    Const,
    Derivation,
    ONE,
    P,
    Prod,
    Q,
    Step,
    Var,
    check_derivation,
    check_intended_model,
    collapse_derivation,
    proposition5_equation,
    eval_term,
    parse_term,
    print_term,
    prod,
    substitute,
    term_universe,
    term_variables,
    term_word,
    TermSyntaxError,
    theorem2_word,
    to_term,
)

from _oracles import (
    check_intended_model_by_element,
    proposition5_by_hand,
    term_table,
    term_universe_by_compose,
)


# ---------------------------------------------------------------------------
# terms: construction, printing, parsing


def test_prod_left_associates():
    t = prod(P, Q, P)
    assert t == Prod(Prod(P, Q), P)
    assert print_term(t) == "pqp"


def test_print_parenthesizes_right_products_only():
    t = Prod(P, Prod(Q, P))
    assert print_term(t) == "p(qp)"
    assert print_term(Prod(Prod(P, Q), P)) == "pqp"


def test_print_bar_always_parenthesized():
    assert print_term(Bar(Prod(P, Q))) == "bar(pq)"
    assert print_term(Prod(Bar(P), Q)) == "bar(p)q"


def test_parse_round_trip_examples():
    for text in ("p", "q", "1", "pq", "bar(p)", "bar(pq)q", "p(qp)",
                 "bar(bar(p)q)1", "bar(pq)pbar(q)(pq)"):
        t = parse_term(text)
        assert print_term(t) == text
        assert parse_term(print_term(t)) == t


def test_parse_tolerates_whitespace_and_redundant_parens():
    assert parse_term(" p q ") == Prod(P, Q)
    assert parse_term("(p)(q)") == Prod(P, Q)
    assert parse_term("((pq))") == Prod(P, Q)


def test_parse_rejects_bad_input():
    with pytest.raises(TermSyntaxError):
        parse_term("px")
    with pytest.raises(TermSyntaxError):
        parse_term("bar p")
    with pytest.raises(TermSyntaxError):
        parse_term("(pq")
    with pytest.raises(TermSyntaxError):
        parse_term("")
    with pytest.raises(TermSyntaxError):
        parse_term("pq)")


@pytest.mark.parametrize("text,message,position", [
    ("px", "unexpected character 'x'", 1),
    ("p\tba(q)", "unexpected character 'b'", 2),
    (")x", "unexpected character 'x'", 1),  # found before the text is read
    ("pq)p", "unexpected trailing input", 2),
    ("", "expected a term", 0),
    ("  ", "expected a term", 2),
    ("p()", "expected a term", 2),
    ("bar( )", "expected a term", 5),
    ("q(pq", "unclosed parenthesis", 1),
    ("((p)", "unclosed parenthesis", 0),
    ("bar p", "expected ( after bar", 0),
    ("pbar", "expected ( after bar", 1),
    ("p bar(q", "unclosed bar(", 2),
    ("bar(bar(p)", "unclosed bar(", 0),
])
def test_parse_names_each_refusal_and_its_position(text, message, position):
    with pytest.raises(TermSyntaxError) as refusal:
        parse_term(text)
    assert str(refusal.value) == f"{message} (at position {position})"
    assert refusal.value.position == position


_term_strategy = st.recursive(
    st.sampled_from([ONE, P, Q]),
    lambda children: st.one_of(
        st.builds(Bar, children),
        st.builds(Prod, children, children),
    ),
    max_leaves=12,
)


@given(_term_strategy)
def test_print_parse_round_trip(t):
    assert parse_term(print_term(t)) == t


def test_substitute_and_variables():
    x, y = Var("x"), Var("y")
    schema = Prod(Bar(x), y)
    assert term_variables(schema) == {"x", "y"}
    inst = substitute(schema, {"x": Prod(P, Q), "y": ONE})
    assert inst == Prod(Bar(Prod(P, Q)), ONE)
    with pytest.raises(KeyError):
        substitute(schema, {"x": P})


def test_mul_operator_builds_products():
    assert P * Q == Prod(P, Q)
    assert (P * Q) * ONE == prod(P, Q, ONE)
    assert P.__mul__(3) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand"):
        P * 3


def test_term_builders_refuse_an_empty_product_and_non_terms():
    with pytest.raises(ValueError, match="^empty product$"):
        prod()
    for call in (print_term, lambda t: substitute(t, {})):
        with pytest.raises(TypeError, match="^not a term: 3$"):
            call(3)


# ---------------------------------------------------------------------------
# evaluation agrees with word evaluation


def _small_models():
    return [m for m in enumerate_commuting_pairs(2)][:8]


def test_eval_term_constants():
    m = _small_models()[0]
    one = eval_term(ONE, m)
    assert one == eval_term(parse_term("1"), m)
    assert eval_term(P, m) == m.p
    assert eval_term(Q, m) == m.q


def test_eval_term_open_term_rejected():
    m = _small_models()[0]
    with pytest.raises(ValueError):
        eval_term(Var("x"), m)


def _random_term(rng, depth, var_odds):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < var_odds:
            return Var("x")
        return rng.choice((ONE, P, Q))
    kind = rng.randrange(3)
    if kind == 0:
        return Bar(_random_term(rng, depth - 1, var_odds))
    return Prod(_random_term(rng, depth - 1, var_odds),
                _random_term(rng, depth - 1, var_odds))


def test_eval_term_matches_the_recursive_oracle():
    rng = random.Random(20251018)
    models = [m for n in range(4)
              for m in rng.sample(enumerate_all_pairs(n), min(3, 1 << n))]
    assert any(not m.commuting for m in models)
    opened = 0
    for _ in range(300):
        term = _random_term(rng, rng.randrange(1, 7), 0.03)
        for m in models:
            try:
                want = term_table(term, m.p.entries.tolist(), m.q.entries.tolist(),
                                  m.ground_size)
            except ValueError:
                opened += 1
                with pytest.raises(ValueError, match="open term"):
                    eval_term(term, m)
                continue
            got = eval_term(term, m)
            assert got.ground_size == m.ground_size
            assert tuple(got.entries.tolist()) == want, print_term(term)
    assert opened  # some terms hold a variable
    # nested bars and units, written out
    assert term_word(parse_term("bar(bar(p1)q)1bar(1)")) == "ccpcqccc"
    # terms built by parsing, substitution, dataclasses.replace and the
    # proposition5 builder carry the words of their trees
    schema = Prod(Bar(Prod(Var("x"), Q)), Var("y"))
    built = [parse_term(print_term(_random_term(rng, 5, 0.0))) for _ in range(20)]
    built += [substitute(schema, {"x": _random_term(rng, 3, 0.0), "y": Bar(P)})
              for _ in range(20)]
    built += [dataclasses.replace(t, left=Bar(t.right))
              for t in built if isinstance(t, Prod)]
    built += [side for blocks in (("p", "q"), ("pq", "p", "q", "pq"))
              for side in proposition5_equation(blocks)]
    assert schema.word is None and len(built) > 40
    for term in built:
        for m in models:
            p, q = m.p.entries.tolist(), m.q.entries.tolist()
            want = term_table(term, p, q, m.ground_size)
            assert tuple(eval_term(term, m).entries.tolist()) == want, print_term(term)


def test_term_word_is_left_out_of_equality_hash_and_repr():
    a, b = Prod(P, Q), Prod(P, Q)
    assert a.word == "pq" and a == b and hash(a) == hash(b)
    assert "word" not in repr(a) and "word" not in repr(Bar(a))
    assert repr(a) == "Prod(left=Const(name='p'), right=Const(name='q'))"
    assert {a: 1}[b] == 1 and Bar(a) != a
    for cls, names in ((Const, ["name"]), (Prod, ["left", "right"]), (Bar, ["inner"])):
        fields = dataclasses.fields(cls)
        assert [f.name for f in fields if f.compare or f.hash or f.repr] == names


def test_eval_term_rejects_non_terms():
    m = _small_models()[0]
    # a non-term child builds, and fails only once evaluated
    built = (Prod(P, "q"), Bar(3), Prod(Var("x"), Bar(3)))
    assert all(t.word is None for t in built)
    for bad in built + ("p",):
        with pytest.raises(TypeError, match="not a term"):
            eval_term(bad, m)


def test_eval_term_refuses_models_without_tables():
    for m in (example3_additive(8), section4_model(3, materialize=False)):
        with pytest.raises(TypeError, match=type(m.p).__name__):
            eval_term(P, m)


def test_translation_matches_word_evaluation_exhaustive():
    # every c-balanced word up to length 8 evaluates the same through
    # its term translation, on a few commuting models
    models = _small_models()[:3]
    words = []
    for n_blocks in (2, 4):
        for blocks in product(("p", "q", "pq"), repeat=n_blocks):
            w = parse_word("".join("c" + b for b in blocks))
            words.append(w)
    for m in models:
        for w in words:
            direct = eval_word(w, m.p, m.q)
            translated = eval_term(to_term(w), m)
            assert direct == translated, w


@given(st.lists(st.sampled_from(["p", "q", "pq"]), min_size=2,
                max_size=6).filter(lambda bs: len(bs) % 2 == 0))
def test_translation_matches_word_evaluation_random_blocks(blocks):
    w = parse_word("".join("c" + b for b in blocks))
    m = pij_pair(1, 0, 3)
    assert eval_word(w, m.p, m.q) == eval_term(to_term(w), m)


def test_proposition5_equation_terms():
    lhs, rhs = proposition5_equation(("p", "q"))
    assert print_term(rhs) == "bar(pq)(pq)"
    assert print_term(lhs) == "bar(pq)pbar(q)(pq)"


def test_proposition5_equation_refuses_with_theorem2_word_messages():
    shape = "need a nonempty even-length block tuple"
    for blocks, message in (((), shape), (("p",), shape), (("p", "q", "pq"), shape),
                            (("p", "x"), "block must be one of ('p', 'q', 'pq'), got 'x'"),
                            (("qp", "q"), "block must be one of ('p', 'q', 'pq'), got 'qp'")):
        for build in (proposition5_equation, theorem2_word):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(blocks)


def test_proposition5_equation_matches_the_hand_built_tree():
    # every block tuple of length 2, 4 and 6
    tuples = [blocks for length in (2, 4, 6)
              for blocks in product(("p", "q", "pq"), repeat=length)]
    assert len(tuples) == 9 + 81 + 729
    for blocks in tuples:
        assert proposition5_equation(blocks) == proposition5_by_hand(blocks), blocks


def test_proposition5_equation_holds_on_commuting_models():
    lhs, rhs = proposition5_equation(("q", "pq"))
    for m in enumerate_commuting_pairs(2):
        assert eval_term(lhs, m) == eval_term(rhs, m)


def test_proposition5_equation_matches_word_form():
    # prefixing a single c turns the word into a balanced one whose
    # translation is exactly the collapse term, so the two formulations
    # agree up to an outer complement
    blocks = ("p", "pq")
    lhs, rhs = proposition5_equation(blocks)
    w = theorem2_word(blocks)
    assert to_term(parse_word("c" + w)) == lhs
    assert to_term(parse_word("cpqcpq")) == rhs
    for m in _small_models()[:4]:
        c = complement_table(m.ground_size)
        assert eval_term(lhs, m) == c.compose(eval_word(w, m.p, m.q))


# ---------------------------------------------------------------------------
# derivation checking


def test_collapse_derivation_accepted():
    d = collapse_derivation()
    goal = proposition5_equation(("p", "q"))
    verdict = check_derivation(d, goal=("eq",) + goal)
    assert verdict.accepted, verdict.message
    assert "49" in verdict.message or verdict.message.startswith("accepted")


def test_collapse_derivation_goal_string():
    d = collapse_derivation()
    verdict = check_derivation(d, goal="bar(pq)pbar(q)(pq) = bar(pq)(pq)")
    assert verdict.accepted


def test_collapse_derivation_wrong_goal_rejected():
    d = collapse_derivation()
    verdict = check_derivation(d, goal="pq = qp")
    assert not verdict.accepted
    assert "not the goal" in verdict.message


def test_empty_derivation_rejected():
    assert not check_derivation(Derivation(()))


def test_axiom_step_checking():
    ok = Step("eq", Prod(ONE, P), P, "axiom:unit-left",
              substitution=(("x", P),))
    assert check_derivation(Derivation((ok,))).accepted

    # wrong instance
    bad = Step("eq", Prod(ONE, P), Q, "axiom:unit-left",
               substitution=(("x", P),))
    v = check_derivation(Derivation((bad,)))
    assert not v.accepted and v.failed_step == 0

    # missing substitution entry
    missing = Step("eq", Prod(ONE, P), P, "axiom:unit-left")
    v = check_derivation(Derivation((missing,)))
    assert not v.accepted and "missing" in v.message

    # extra substitution entry
    extra = Step("eq", Prod(ONE, P), P, "axiom:unit-left",
                 substitution=(("x", P), ("y", Q)))
    v = check_derivation(Derivation((extra,)))
    assert not v.accepted and "unused" in v.message

    # axiom with premises
    prem = Step("eq", Prod(ONE, P), P, "axiom:unit-left",
                premises=(0,), substitution=(("x", P),))
    v = check_derivation(Derivation((ok, prem)))
    assert not v.accepted


def test_axiom_kind_must_match():
    step = Step("le", Prod(ONE, P), P, "axiom:unit-left",
                substitution=(("x", P),))
    v = check_derivation(Derivation((step,)))
    assert not v.accepted and "concludes a eq claim" in v.message


def test_unknown_rule_rejected():
    step = Step("eq", P, P, "modus-ponens")
    v = check_derivation(Derivation((step,)))
    assert not v.accepted and "unknown rule" in v.message


def test_forward_premise_rejected():
    s0 = Step("le", P, P, "refl")
    s1 = Step("le", P, P, "trans", premises=(0, 2))
    v = check_derivation(Derivation((s0, s1)))
    assert not v.accepted and "strictly before" in v.message


def test_rule_steps_checked_structurally():
    le_1p = Step("le", ONE, P, "axiom:one-le-p")
    le_1q = Step("le", ONE, Q, "axiom:one-le-q")

    good_compat = Step("le", Prod(ONE, ONE), Prod(P, Q), "compat",
                       premises=(0, 1))
    assert check_derivation(Derivation((le_1p, le_1q, good_compat))).accepted

    swapped = Step("le", Prod(ONE, ONE), Prod(Q, P), "compat",
                   premises=(0, 1))
    assert not check_derivation(Derivation((le_1p, le_1q, swapped))).accepted

    good_antitone = Step("le", Bar(P), Bar(ONE), "antitone", premises=(0,))
    assert check_derivation(Derivation((le_1p, good_antitone))).accepted

    flipped = Step("le", Bar(ONE), Bar(P), "antitone", premises=(0,))
    assert not check_derivation(Derivation((le_1p, flipped))).accepted


#: premises the rule cases below cite by index
_RULE_BASE = (
    Step("le", ONE, P, "axiom:one-le-p"),          # 0: 1 <= p
    Step("le", P, P, "refl"),                      # 1: p <= p
    Step("le", ONE, Q, "axiom:one-le-q"),          # 2: 1 <= q
    Step("eq", P, Prod(P, P), "axiom:p-idem"),     # 3: p = pp
    Step("eq", Prod(P, P), Prod(P, P), "eq-refl"),  # 4: pp = pp
    Step("eq", Q, Prod(Q, Q), "axiom:q-idem"),     # 5: q = qq
)

_PP, _QQ = Prod(P, P), Prod(Q, Q)


@pytest.mark.parametrize("rule,kind,lhs,rhs,premises,accepted", [
    ("refl", "le", P, P, (), True),
    ("refl", "le", P, Q, (), False),
    ("refl", "le", P, P, (0,), False),                 # wrong arity
    ("eq-refl", "eq", Q, Q, (), True),
    ("eq-refl", "le", Q, Q, (), False),                # wrong conclusion kind
    ("trans", "le", ONE, P, (0, 1), True),
    ("trans", "le", ONE, Q, (0, 2), False),            # middle terms p and 1
    ("trans", "le", ONE, P, (0,), False),              # wrong arity
    ("trans", "le", P, _PP, (3, 4), False),            # eq premises
    ("antisym", "eq", P, P, (1, 1), True),
    ("antisym", "eq", ONE, P, (0, 1), False),          # not opposite
    ("compat", "le", Prod(ONE, ONE), Prod(P, Q), (0, 2), True),
    ("compat", "le", Prod(ONE, ONE), Prod(Q, P), (0, 2), False),
    ("antitone", "le", Bar(P), Bar(ONE), (0,), True),
    ("antitone", "le", Bar(ONE), Bar(P), (0,), False),
    ("eq-sym", "eq", _PP, P, (3,), True),
    ("eq-sym", "eq", P, _PP, (3,), False),
    ("eq-sym", "eq", P, P, (1,), False),               # le premise
    ("eq-trans", "eq", P, _PP, (3, 4), True),
    ("eq-trans", "eq", P, _QQ, (3, 5), False),         # middle terms pp and q
    ("cong-prod", "eq", Prod(P, Q), Prod(_PP, _QQ), (3, 5), True),
    ("cong-prod", "eq", Prod(Q, P), Prod(_QQ, _PP), (3, 5), False),
    ("cong-bar", "eq", Bar(P), Bar(_PP), (3,), True),
    ("cong-bar", "eq", Bar(_PP), Bar(P), (3,), False),
    ("eq-le", "le", P, _PP, (3,), True),
    ("eq-le", "le", _PP, P, (3,), True),
    ("eq-le", "le", P, Q, (3,), False),
    ("eq-le", "eq", P, _PP, (3,), False),              # wrong conclusion kind
    ("eq-le", "le", ONE, P, (0,), False),              # le premise
])
def test_each_rule_accepts_only_what_its_premises_allow(
        rule, kind, lhs, rhs, premises, accepted):
    step = Step(kind, lhs, rhs, rule, premises)
    v = check_derivation(Derivation(_RULE_BASE + (step,)))
    assert (v.accepted, v.failed_step) == (accepted, None if accepted else len(_RULE_BASE))


def test_single_step_mutations_rejected():
    # flipping any one field of a mid-derivation step must break the check
    d = collapse_derivation()
    assert check_derivation(d).accepted
    steps = list(d.steps)

    target = 9  # "pbar(q) <= p" via trans
    s = steps[target]

    mutated_rule = steps.copy()
    mutated_rule[target] = Step(s.kind, s.lhs, s.rhs, "eq-trans", s.premises,
                                s.substitution)
    v = check_derivation(Derivation(tuple(mutated_rule)))
    assert not v.accepted and v.failed_step == target

    mutated_premises = steps.copy()
    mutated_premises[target] = Step(s.kind, s.lhs, s.rhs, s.rule, (6, 3),
                                    s.substitution)
    assert not check_derivation(Derivation(tuple(mutated_premises))).accepted

    mutated_claim = steps.copy()
    mutated_claim[target] = Step(s.kind, s.lhs, Q, s.rule, s.premises,
                                 s.substitution)
    assert not check_derivation(Derivation(tuple(mutated_claim))).accepted


def test_derivation_json_round_trip():
    d = collapse_derivation()
    blob = json.dumps(d.to_json())
    back = Derivation.from_json(json.loads(blob))
    assert back == d
    assert check_derivation(back).accepted


def test_a_claim_with_neither_relation_is_refused():
    d = collapse_derivation()
    message = "^claim has no <= or =: 'pq'$"
    with pytest.raises(ValueError, match=message):
        Derivation.from_json([{**d.to_json()[0], "claim": "pq"}])
    with pytest.raises(ValueError, match=message):
        check_derivation(d, goal="pq")


def test_every_rule_is_exercised_by_the_fixture():
    d = collapse_derivation()
    used = {s.rule for s in d.steps}
    # every non-axiom rule except comm-free ones is present
    for rule in ("refl", "eq-refl", "trans", "antisym", "compat",
                 "antitone", "eq-sym", "eq-trans", "cong-prod",
                 "cong-bar", "eq-le"):
        assert rule in used, rule
    assert "axiom:comm" not in used


def test_axiom_schema_table_shape():
    for name, (kind, lhs, rhs) in AXIOM_SCHEMAS.items():
        assert name.startswith("axiom:")
        assert kind in ("eq", "le")
        # schemas are closed under the declared metavariables
        vs = term_variables(lhs) | term_variables(rhs)
        assert vs <= {"x", "y", "z"}


# ---------------------------------------------------------------------------
# intended-model screen


def test_intended_model_passes_on_commuting_pairs():
    for m in enumerate_commuting_pairs(2):
        report = check_intended_model(m, depth=2)
        assert report.ok, (m.label, [c.name for c in report.checks
                                     if not c.passed])


def test_intended_model_flags_noncommuting_pair():
    closures = enumerate_closures(2)
    report = None
    for i, p in enumerate(closures):
        for j, q in enumerate(closures):
            from closurelab.opalg import commutes
            if not commutes(p, q):
                from closurelab.idlab import enumerate_all_pairs
                model = next(
                    m for m in enumerate_all_pairs(2)
                    if m.p == p and m.q == q
                )
                report = check_intended_model(model, depth=2)
                break
        if report is not None:
            break
    assert report is not None
    assert not report.ok
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["pq-commute"]


def test_intended_model_report_dict():
    m = _small_models()[0]
    report = check_intended_model(m, depth=2)
    d = report.as_dict()
    assert d["ok"] is True
    assert d["universe_size"] == report.universe_size
    assert {c["name"] for c in d["checks"]} == {
        c.name for c in report.checks
    }


def test_term_universe_deterministic_and_closed():
    m = pij_pair(1, 0, 3)
    u1 = term_universe(m, depth=2)
    u2 = term_universe(m, depth=2)
    assert [t.key() for t in u1] == [t.key() for t in u2]
    keys = {t.key() for t in u1}
    assert len(keys) == len(u1)
    # identity, p, q all present
    from closurelab.opalg import identity_table
    assert identity_table(m.ground_size).key() in keys
    assert m.p.key() in keys and m.q.key() in keys


def test_term_universe_stops_as_soon_as_it_outgrows_the_screen(monkeypatch):
    from closurelab import theory

    m = pij_pair(1, 0, 3)
    composed, levels = [], []
    grown = theory._grown

    def counted(u, candidates, n):
        levels.append(len(candidates))
        return grown(u, candidates, n)

    monkeypatch.setattr(OperatorTable, "compose", lambda *a: composed.append(a))
    monkeypatch.setattr(theory, "_grown", counted)
    assert len(term_universe(m, depth=3)) == 11
    whole = len(levels)
    assert whole == 4 and composed == []  # 1, p, q, then one level per depth
    # room for 7 tables at ground size 6: the 8th stops the build
    monkeypatch.setattr(theory, "SCREEN_ENTRIES_CAP", 7 * 7 * 64)
    del levels[:]
    with pytest.raises(ValueError, match="universe of 8 tables"):
        term_universe(m, depth=3)
    assert 0 < len(levels) < whole
    with pytest.raises(ValueError, match="universe of 8 tables"):
        check_intended_model(m, depth=3)


def test_universe_size_guard(monkeypatch):
    from closurelab.opalg import identity_table

    m = pij_pair(1, 0, 3)
    fake = [identity_table(3)] * 5000
    monkeypatch.setattr("closurelab.theory.term_universe", lambda *a, **k: fake)
    with pytest.raises(ValueError):
        check_intended_model(m, depth=3)


# ---------------------------------------------------------------------------
# the stacked universe and screens against their loop-per-element references


def _screen_failing_models():
    """Pairs built to fail the product-monotone screen: p the
    complement table, or a seeded random table that is not monotone,
    each beside a closure q."""
    rng = np.random.default_rng(16)
    out = []
    for n in (1, 2, 3):
        q = enumerate_closures(n)[-1]
        out.append(ClosurePairModel("complement", complement_table(n), q))
        while True:
            p = OperatorTable(n, rng.integers(0, 1 << n, 1 << n))
            if not check_closure(p).checks["monotone"].passed:
                break
        out.append(ClosurePairModel("random", p, q))
    return out


def _assert_matches_references(m, depth):
    stacked = term_universe(m, depth)
    assert [t.key() for t in stacked] == [t.key() for t in term_universe_by_compose(m, depth)]
    report = check_intended_model(m, depth).as_dict()
    assert json.dumps(report) == json.dumps(check_intended_model_by_element(m, depth).as_dict())
    return report


def test_stacked_universe_and_report_match_their_references(monkeypatch):
    rng = random.Random(16)
    models = [m for n in range(3) for m in enumerate_all_pairs(n)]
    models += rng.sample(enumerate_commuting_pairs(3), 60)
    for m in models:
        for depth in (0, 1, 3):
            _assert_matches_references(m, depth)
    failed = set()
    for m in _screen_failing_models():
        report = _assert_matches_references(m, 2)
        names = {c["name"] for c in report["checks"] if not c["passed"]}
        assert {"product-monotone", "p-closure"} <= names, m.provenance
        failed |= names
    assert "pq-commute" in failed
    # both stop at the same count when the screen has room for 7 tables
    from closurelab import theory

    monkeypatch.setattr(theory, "SCREEN_ENTRIES_CAP", 7 * 7 * 64)
    for build in (term_universe, term_universe_by_compose, check_intended_model,
                  check_intended_model_by_element):
        with pytest.raises(ValueError, match="universe of 8 tables"):
            build(pij_pair(1, 0, 3), 3)


def _index_order(related):
    """A stand-in for leq_matrix that orders rows by index alone:
    le[..., i, j] is related(j - i)."""
    def fake(a, b):
        d = np.arange(b.shape[-2]) - np.arange(a.shape[-2])[:, None]
        return np.broadcast_to(related(d), a.shape[:-2] + d.shape)
    return fake


@pytest.mark.parametrize("related, fails", [
    (lambda d: np.zeros(d.shape, bool), {"order-reflexive"}),
    (lambda d: np.ones(d.shape, bool), {"order-antisymmetric"}),
    (lambda d: (d == 0) | (d == 1), {"order-transitive", "bar-antitone"}),
    (lambda d: d >= 0, {"bar-antitone"}),
])
def test_order_and_bar_screens_can_fail(monkeypatch, related, fails):
    # the pointwise order is a partial order and conjugating by the
    # complement reverses it on every model, so these screens fail only
    # on an order that is not the pointwise one
    import _oracles
    from closurelab import theory

    m = pij_pair(1, 0, 2)
    assert len(term_universe(m)) >= 3
    monkeypatch.setattr(theory, "leq_matrix", _index_order(related))
    monkeypatch.setattr(_oracles, "leq_matrix", _index_order(related))
    report = _assert_matches_references(m, 3)
    assert {c["name"] for c in report["checks"] if not c["passed"]} == fails
