"""First-order theory of an ordered monoid with an antitone involution
and two commuting closure constants, made executable.

Four layers live here:

* a term language over the constants 1, p, q with product and bar,
  where bar is interpreted as conjugation by complement (bar(g) = c g c
  on powerset operators);
* the translation between it and cpq-words: a ground term's word
  (term_word), and the term of a balanced word (to_term), which builds
  the term form of the collapse family (proposition5_equation) from
  its one word form (theorem2_word);
* a model checker that screens every theory axiom over the operator
  tables generated from a concrete (p, q) pair up to a given term
  depth;
* a proof checker for explicit derivations: a derivation is a list of
  steps, each an axiom-schema instance or a rule application citing
  earlier steps, and checking is purely syntactic.

Terms are plain frozen dataclasses, so structural equality is dataclass
equality and terms can key dictionaries.  Each ground term also carries
its cpq-word, built once from its children's words and left out of
equality, hashing and repr.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .opalg import (
    OperatorTable,
    check_closure,
    commutes,
    complement_table,
    identity_table,
    leq_matrix,
)


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()
    word: Optional[str] = None  # the cpq-word of a ground term (term_word)

    def __mul__(self, other):
        if isinstance(other, Term):
            return Prod(self, other)
        return NotImplemented


def _set_word(t: Term, template: str, *children) -> None:
    """Store t's word, its children's words filled into template, or
    None when a child is open or not a term (term_word says which)."""
    words = [c.word if isinstance(c, Term) else None for c in children]
    object.__setattr__(t, "word", None if None in words else template.format(*words))


@dataclass(frozen=True)
class Const(Term):
    name: str  # "1", "p" or "q"
    word: Optional[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "word", "" if self.name == "1" else self.name)


@dataclass(frozen=True)
class Var(Term):
    """Schema metavariable; appears in axiom schemas, never in claims."""

    name: str


@dataclass(frozen=True)
class Prod(Term):
    left: Term
    right: Term
    word: Optional[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _set_word(self, "{}{}", self.left, self.right)


@dataclass(frozen=True)
class Bar(Term):
    inner: Term
    word: Optional[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _set_word(self, "c{}c", self.inner)


ONE = Const("1")
P = Const("p")
Q = Const("q")

_ATOMS = {"1": ONE, "p": P, "q": Q}


def prod(*factors: Term) -> Term:
    """Left-associated product of one or more factors."""
    if not factors:
        raise ValueError("empty product")
    out = factors[0]
    for f in factors[1:]:
        out = Prod(out, f)
    return out


def print_term(t: Term) -> str:
    """Canonical text: juxtaposition for product, bar(...) for bar.

    Products associate to the left, so only a right child that is
    itself a product needs parentheses.  Round-trips through
    parse_term.
    """
    if isinstance(t, Const) or isinstance(t, Var):
        return t.name
    if isinstance(t, Bar):
        return f"bar({print_term(t.inner)})"
    if isinstance(t, Prod):
        right = print_term(t.right)
        if isinstance(t.right, Prod):
            right = f"({right})"
        return print_term(t.left) + right
    raise TypeError(f"not a term: {t!r}")


class TermSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token is bar or one of 1 p q ( ).  Group 2 is any other character
# but whitespace, which matches neither group and is stepped over.
_TOKEN = re.compile(r"(bar|[1pq()])|(\S)")


def parse_term(text: str) -> Term:
    """Parse the canonical term syntax: atoms 1/p/q, juxtaposition,
    bar(...), parentheses.  Product is left-associative."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m[2]:
            raise TermSyntaxError(f"unexpected character {m[2]!r}", m.start())
        tokens.append((m[1], m.start()))
    tokens.append(("", len(text)))  # end of text
    term, i = _parse_product(tokens, 0)
    if tokens[i][0]:
        raise TermSyntaxError("unexpected trailing input", tokens[i][1])
    return term


def _parse_product(tokens, i):
    """Read factors from tokens[i] up to a ) or the end; a group, ( or
    bar(, reads a product and its closing )."""
    factors = []
    while tokens[i][0] not in ("", ")"):
        tok, pos = tokens[i]
        if tok in _ATOMS:
            factors.append(_ATOMS[tok])
            i += 1
            continue
        if tok == "bar":
            if tokens[i + 1][0] != "(":
                raise TermSyntaxError("expected ( after bar", pos)
            i += 1
        inner, i = _parse_product(tokens, i + 1)
        if tokens[i][0] != ")":
            raise TermSyntaxError("unclosed bar(" if tok == "bar" else "unclosed parenthesis", pos)
        factors.append(Bar(inner) if tok == "bar" else inner)
        i += 1
    if not factors:
        raise TermSyntaxError("expected a term", tokens[i][1])
    return prod(*factors), i


def substitute(t: Term, mapping: dict) -> Term:
    """Replace schema variables by terms."""
    if isinstance(t, Var):
        if t.name not in mapping:
            raise KeyError(f"no substitution for variable {t.name}")
        return mapping[t.name]
    if isinstance(t, Const):
        return t
    if isinstance(t, Bar):
        return Bar(substitute(t.inner, mapping))
    if isinstance(t, Prod):
        return Prod(substitute(t.left, mapping), substitute(t.right, mapping))
    raise TypeError(f"not a term: {t!r}")


def term_variables(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    if isinstance(t, Bar):
        return term_variables(t.inner)
    if isinstance(t, Prod):
        return term_variables(t.left) | term_variables(t.right)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# evaluation in a concrete powerset model


def term_word(t: Term) -> str:
    """The cpq-word of a ground term, built once when the term is: 1 is
    the empty word, a product concatenates its factors' words (the right
    factor acts first, as in a word) and bar(g) is c g c."""
    word = t.word if isinstance(t, Term) else None
    if word is None:
        names = term_variables(t)  # a non-term anywhere raises TypeError
        raise ValueError(f"cannot evaluate open term (variable {min(names)})")
    return word


def eval_term(term: Term, model) -> OperatorTable:
    """Interpret a ground term over model.p / model.q.

    The unit is the identity table, product is composition (right
    factor acts first, matching word evaluation), and bar(g) is
    complement . g . complement: the term is evaluated as its word
    (term_word, built when the term was) by model.word_table, so each
    (table, letter) step the model's words share is gathered once in
    the model's life.  model is a ClosurePairModel whose p and q are
    OperatorTables; another operator raises TypeError.
    """
    return model.word_table(term_word(term))


# ---------------------------------------------------------------------------
# balanced words and the collapse family

BLOCK_CHOICES = ("p", "q", "pq")


def to_term(w: str) -> Term:
    """Term of a balanced word, the inverse of term_word there:
    to_term(w).word == w.

    The balanced shape is c a0 c a1 ... c a(2n+1): a leading c, after
    every c a block that is exactly p, q or pq, and an even number of
    c's (at least two).  Runs such as qp or ppq do not count as blocks,
    even though they denote the same operator for commuting pairs;
    equivalence of that kind is the evaluator's business, not the
    parser's.  A word of any other shape raises ValueError naming the
    first offending position and why.

    Block a0 gets a bar, a1 stays plain, and so on alternating, each
    block a product of its letters; since bar(g) is c g c, the bars
    reproduce exactly the original letter sequence, so evaluating the
    term over any model gives the same table as evaluating w itself.
    """
    refused = "word is not c-balanced at position {}: {}"
    if not w.startswith("c"):
        raise ValueError(refused.format(0, "must start with c" if w else "empty word"))
    blocks = w[1:].split("c")
    i = 0  # the position of the c before each block
    for block in blocks:
        if not block:
            raise ValueError(refused.format(i, "c not followed by a block"))
        if block not in BLOCK_CHOICES:
            raise ValueError(refused.format(i + 1, f"block {block!r} is not one of p, q, pq"))
        i += len(block) + 1
    if len(blocks) % 2:
        raise ValueError(refused.format(len(w), f"odd number of c's ({len(blocks)})"))
    factors = [prod(*map(_ATOMS.__getitem__, block)) for block in blocks]
    return prod(*[Bar(t) if i % 2 == 0 else t for i, t in enumerate(factors)])


def theorem2_word(blocks) -> str:
    """The collapse family word pq c b1 c b2 ... c b(2n) c pq.

    blocks is the even-length nonempty tuple of inner factors, each one
    of p, q, pq.
    """
    blocks = tuple(blocks)
    if not blocks or len(blocks) % 2:
        raise ValueError("need a nonempty even-length block tuple")
    for b in blocks:
        if b not in BLOCK_CHOICES:
            raise ValueError(f"block must be one of {BLOCK_CHOICES}, got {b!r}")
    return "pq" + "".join("c" + b for b in blocks) + "cpq"


def proposition5_equation(blocks) -> tuple[Term, Term]:
    """Term form of the two-closure collapse identity: the terms of the
    balanced words c theorem2_word(blocks) and c pqcpq.  A tuple that
    theorem2_word refuses is refused with its message.

    Left side: bar(pq) b1 bar(b2) b3 ... bar(b_2n) (pq), bars on the
    even positions; right side: bar(pq) (pq).  Both sides are
    left-associated with each block kept as a unit factor.  Each side
    evaluates to the complement of its word's table.
    """
    return to_term("c" + theorem2_word(blocks)), to_term("cpqcpq")


# ---------------------------------------------------------------------------
# axiom schemas and derivation rules

_X, _Y, _Z = Var("x"), Var("y"), Var("z")

#: name -> (claim kind, lhs schema, rhs schema)
AXIOM_SCHEMAS = {
    "axiom:assoc": ("eq", Prod(Prod(_X, _Y), _Z), Prod(_X, Prod(_Y, _Z))),
    "axiom:unit-left": ("eq", Prod(ONE, _X), _X),
    "axiom:unit-right": ("eq", Prod(_X, ONE), _X),
    "axiom:bar-bar": ("eq", Bar(Bar(_X)), _X),
    "axiom:bar-prod": ("eq", Bar(Prod(_X, _Y)), Prod(Bar(_X), Bar(_Y))),
    "axiom:bar-one": ("eq", Bar(ONE), ONE),
    "axiom:one-le-p": ("le", ONE, P),
    "axiom:p-idem": ("eq", P, Prod(P, P)),
    "axiom:one-le-q": ("le", ONE, Q),
    "axiom:q-idem": ("eq", Q, Prod(Q, Q)),
    "axiom:comm": ("eq", Prod(P, Q), Prod(Q, P)),
}


def _chain(step: Step, a: Step, b: Step):
    return [(a.lhs, b.rhs)] if a.rhs == b.lhs else []


def _sidewise(step: Step, a: Step, b: Step):
    return [(Prod(a.lhs, b.lhs), Prod(a.rhs, b.rhs))]


#: rule -> (premise kinds, conclusion kind, the (lhs, rhs) conclusions
#: the step's premises allow, as a function of the step and them)
_RULE_TABLE = {
    "refl": ((), "le", lambda s: [(s.lhs, s.lhs)]),
    "eq-refl": ((), "eq", lambda s: [(s.lhs, s.lhs)]),
    "trans": (("le", "le"), "le", _chain),
    "antisym": (
        ("le", "le"), "eq",
        lambda s, a, b: [(a.lhs, a.rhs)] if (a.lhs, a.rhs) == (b.rhs, b.lhs) else [],
    ),
    "compat": (("le", "le"), "le", _sidewise),
    "antitone": (("le",), "le", lambda s, a: [(Bar(a.rhs), Bar(a.lhs))]),
    "eq-sym": (("eq",), "eq", lambda s, a: [(a.rhs, a.lhs)]),
    "eq-trans": (("eq", "eq"), "eq", _chain),
    "cong-prod": (("eq", "eq"), "eq", _sidewise),
    "cong-bar": (("eq",), "eq", lambda s, a: [(Bar(a.lhs), Bar(a.rhs))]),
    "eq-le": (("eq",), "le", lambda s, a: [(a.lhs, a.rhs), (a.rhs, a.lhs)]),
}

RULES = tuple(_RULE_TABLE)


@dataclass(frozen=True)
class Step:
    kind: str  # "le" | "eq"
    lhs: Term
    rhs: Term
    rule: str
    premises: tuple[int, ...] = ()
    substitution: tuple[tuple[str, Term], ...] = ()

    def claim_text(self) -> str:
        op = "<=" if self.kind == "le" else "="
        return f"{print_term(self.lhs)} {op} {print_term(self.rhs)}"


@dataclass(frozen=True)
class Derivation:
    steps: tuple[Step, ...]

    @classmethod
    def from_json(cls, obj) -> "Derivation":
        steps = []
        for raw in obj:
            kind, lhs, rhs = _parse_claim(raw["claim"])
            subs = tuple(
                sorted(
                    (name, parse_term(text))
                    for name, text in raw.get("substitution", {}).items()
                )
            )
            steps.append(
                Step(
                    kind=kind,
                    lhs=lhs,
                    rhs=rhs,
                    rule=raw["rule"],
                    premises=tuple(raw.get("premises", ())),
                    substitution=subs,
                )
            )
        return cls(tuple(steps))

    def to_json(self) -> list:
        out = []
        for s in self.steps:
            entry = {"claim": s.claim_text(), "rule": s.rule}
            if s.premises:
                entry["premises"] = list(s.premises)
            if s.substitution:
                entry["substitution"] = {
                    name: print_term(t) for name, t in s.substitution
                }
            out.append(entry)
        return out


def _parse_claim(text: str) -> tuple[str, Term, Term]:
    if "<=" in text:
        kind, sep = "le", "<="
    elif "=" in text:
        kind, sep = "eq", "="
    else:
        raise ValueError(f"claim has no <= or =: {text!r}")
    lhs_text, rhs_text = text.split(sep, 1)
    return kind, parse_term(lhs_text), parse_term(rhs_text)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    failed_step: Optional[int] = None
    message: str = ""

    def __bool__(self):
        return self.accepted


def check_derivation(derivation: Derivation, goal=None) -> Verdict:
    """Syntactic check of every step; 0-based premise indices must point
    strictly backwards.  goal, if given, is a (kind, lhs, rhs) triple or
    a claim string the final step must match exactly."""
    steps = derivation.steps
    for i, step in enumerate(steps):
        err = _check_step(step, i, steps)
        if err is not None:
            return Verdict(False, i, f"step {i}: {err}")
    if not steps:
        return Verdict(False, None, "empty derivation")
    if goal is not None:
        if isinstance(goal, str):
            goal = _parse_claim(goal)
        kind, lhs, rhs = goal
        last = steps[-1]
        if (last.kind, last.lhs, last.rhs) != (kind, lhs, rhs):
            return Verdict(
                False, len(steps) - 1,
                f"final step proves {last.claim_text()!r}, not the goal",
            )
    return Verdict(True, None, f"accepted ({len(steps)} steps)")


def _check_step(step: Step, index: int, steps) -> Optional[str]:
    if step.rule in AXIOM_SCHEMAS:
        return _check_axiom_step(step)
    if step.rule not in RULES:
        return f"unknown rule {step.rule!r}"
    prem = []
    for j in step.premises:
        if not 0 <= j < index:
            return f"premise index {j} not strictly before step {index}"
        prem.append(steps[j])
    return _check_rule_step(step, prem)


def _check_axiom_step(step: Step) -> Optional[str]:
    kind, lhs_schema, rhs_schema = AXIOM_SCHEMAS[step.rule]
    if step.premises:
        return "axiom steps take no premises"
    if step.kind != kind:
        return f"{step.rule} concludes a {kind} claim"
    mapping = dict(step.substitution)
    needed = term_variables(lhs_schema) | term_variables(rhs_schema)
    missing = needed - set(mapping)
    if missing:
        return f"substitution missing {sorted(missing)}"
    extra = set(mapping) - needed
    if extra:
        return f"substitution names unused variables {sorted(extra)}"
    want_lhs = substitute(lhs_schema, mapping)
    want_rhs = substitute(rhs_schema, mapping)
    if (step.lhs, step.rhs) != (want_lhs, want_rhs):
        return (
            f"claim does not match {step.rule} instance "
            f"{print_term(want_lhs)} / {print_term(want_rhs)}"
        )
    return None


def _check_rule_step(step: Step, prem) -> Optional[str]:
    """Check a rule step against its _RULE_TABLE entry: the number of
    premises, their kinds, then the claim against the conclusions they
    allow."""
    kinds, kind, allowed = _RULE_TABLE[step.rule]
    if len(prem) != len(kinds):
        return f"{step.rule} takes {len(kinds)} premise(s), got {len(prem)}"
    for p, k in zip(prem, kinds):
        if p.kind != k:
            return f"{step.rule} premise must be a {k} claim"
    if step.kind != kind or (step.lhs, step.rhs) not in allowed(step, *prem):
        return f"conclusion does not follow by {step.rule}"
    return None


def collapse_derivation() -> Derivation:
    """Worked derivation of the n=1 collapse instance with inner blocks
    (p, q): bar(pq) p bar(q) (pq) = bar(pq) (pq).

    The upper half squeezes p bar(q) below p via bar(q) <= 1, the lower
    half regrows the left side from bar(pq) = bar(pq)bar(q) and 1 <= p,
    and antisymmetry closes the loop.  Exercises every rule except comm.
    """
    steps = [
        # upper bound: bar(pq) p bar(q) (pq) <= bar(pq) (pq)
        {"claim": "1 <= q", "rule": "axiom:one-le-q"},
        {"claim": "bar(q) <= bar(1)", "rule": "antitone", "premises": [0]},
        {"claim": "bar(1) = 1", "rule": "axiom:bar-one"},
        {"claim": "bar(1) <= 1", "rule": "eq-le", "premises": [2]},
        {"claim": "bar(q) <= 1", "rule": "trans", "premises": [1, 3]},
        {"claim": "p <= p", "rule": "refl"},
        {"claim": "pbar(q) <= p1", "rule": "compat", "premises": [5, 4]},
        {"claim": "p1 = p", "rule": "axiom:unit-right",
         "substitution": {"x": "p"}},
        {"claim": "p1 <= p", "rule": "eq-le", "premises": [7]},
        {"claim": "pbar(q) <= p", "rule": "trans", "premises": [6, 8]},
        {"claim": "(pq) <= (pq)", "rule": "refl"},
        {"claim": "pbar(q)(pq) <= p(pq)", "rule": "compat",
         "premises": [9, 10]},
        {"claim": "(pp)q = p(pq)", "rule": "axiom:assoc",
         "substitution": {"x": "p", "y": "p", "z": "q"}},
        {"claim": "p = pp", "rule": "axiom:p-idem"},
        {"claim": "q = q", "rule": "eq-refl"},
        {"claim": "pq = (pp)q", "rule": "cong-prod", "premises": [13, 14]},
        {"claim": "pq = p(pq)", "rule": "eq-trans", "premises": [15, 12]},
        {"claim": "p(pq) = pq", "rule": "eq-sym", "premises": [16]},
        {"claim": "p(pq) <= pq", "rule": "eq-le", "premises": [17]},
        {"claim": "pbar(q)(pq) <= pq", "rule": "trans", "premises": [11, 18]},
        {"claim": "bar(pq) <= bar(pq)", "rule": "refl"},
        {"claim": "bar(pq)(pbar(q)(pq)) <= bar(pq)(pq)", "rule": "compat",
         "premises": [20, 19]},
        {"claim": "(bar(pq)(pbar(q)))(pq) = bar(pq)((pbar(q))(pq))",
         "rule": "axiom:assoc",
         "substitution": {"x": "bar(pq)", "y": "pbar(q)", "z": "pq"}},
        {"claim": "bar(pq)pbar(q) = bar(pq)(pbar(q))", "rule": "axiom:assoc",
         "substitution": {"x": "bar(pq)", "y": "p", "z": "bar(q)"}},
        {"claim": "(pq) = (pq)", "rule": "eq-refl"},
        {"claim": "bar(pq)pbar(q)(pq) = (bar(pq)(pbar(q)))(pq)",
         "rule": "cong-prod", "premises": [23, 24]},
        {"claim": "bar(pq)pbar(q)(pq) = bar(pq)((pbar(q))(pq))",
         "rule": "eq-trans", "premises": [25, 22]},
        {"claim": "bar(pq)pbar(q)(pq) <= bar(pq)((pbar(q))(pq))",
         "rule": "eq-le", "premises": [26]},
        {"claim": "bar(pq)pbar(q)(pq) <= bar(pq)(pq)", "rule": "trans",
         "premises": [27, 21]},
        # lower bound: bar(pq)(pq) <= bar(pq) p bar(q) (pq)
        {"claim": "(pq)q = p(qq)", "rule": "axiom:assoc",
         "substitution": {"x": "p", "y": "q", "z": "q"}},
        {"claim": "q = qq", "rule": "axiom:q-idem"},
        {"claim": "p = p", "rule": "eq-refl"},
        {"claim": "pq = p(qq)", "rule": "cong-prod", "premises": [31, 30]},
        {"claim": "p(qq) = (pq)q", "rule": "eq-sym", "premises": [29]},
        {"claim": "pq = (pq)q", "rule": "eq-trans", "premises": [32, 33]},
        {"claim": "bar(pq) = bar((pq)q)", "rule": "cong-bar",
         "premises": [34]},
        {"claim": "bar((pq)q) = bar(pq)bar(q)", "rule": "axiom:bar-prod",
         "substitution": {"x": "pq", "y": "q"}},
        {"claim": "bar(pq) = bar(pq)bar(q)", "rule": "eq-trans",
         "premises": [35, 36]},
        {"claim": "1 <= p", "rule": "axiom:one-le-p"},
        {"claim": "bar(pq)1 <= bar(pq)p", "rule": "compat",
         "premises": [20, 38]},
        {"claim": "bar(pq)1 = bar(pq)", "rule": "axiom:unit-right",
         "substitution": {"x": "bar(pq)"}},
        {"claim": "bar(pq) = bar(pq)1", "rule": "eq-sym", "premises": [40]},
        {"claim": "bar(pq) <= bar(pq)1", "rule": "eq-le", "premises": [41]},
        {"claim": "bar(pq) <= bar(pq)p", "rule": "trans",
         "premises": [42, 39]},
        {"claim": "bar(q) <= bar(q)", "rule": "refl"},
        {"claim": "bar(pq)bar(q) <= (bar(pq)p)bar(q)", "rule": "compat",
         "premises": [43, 44]},
        {"claim": "bar(pq) <= bar(pq)bar(q)", "rule": "eq-le",
         "premises": [37]},
        {"claim": "bar(pq) <= (bar(pq)p)bar(q)", "rule": "trans",
         "premises": [46, 45]},
        {"claim": "bar(pq)(pq) <= bar(pq)pbar(q)(pq)", "rule": "compat",
         "premises": [47, 10]},
        {"claim": "bar(pq)pbar(q)(pq) = bar(pq)(pq)", "rule": "antisym",
         "premises": [28, 48]},
    ]
    return Derivation.from_json(steps)


# ---------------------------------------------------------------------------
# intended-model axiom screen


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ModelCheckReport:
    universe_size: int
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


#: the largest k * k * 2**n the exhaustive axiom screen takes on, for
#: a universe of k tables at ground size n (its pairwise products)
SCREEN_ENTRIES_CAP = 1 << 27


def _check_universe_size(k: int, n: int) -> None:
    if k * k * (1 << n) > SCREEN_ENTRIES_CAP:
        raise ValueError(
            f"universe of {k} tables at ground size {n} is too large"
            " for the exhaustive axiom screen; lower the depth"
        )


def _products(s: np.ndarray) -> np.ndarray:
    """The (k, k, 2**n) pairwise products of a (k, 2**n) stack of
    tables: [i, j] is s[i] after s[j]."""
    return s[np.arange(len(s))[:, None, None], s[None, :, :]]


def _grown(u: np.ndarray, candidates: np.ndarray, n: int) -> np.ndarray:
    """The stack u of distinct tables with each row of candidates it
    lacks appended once, in order of first occurrence.  Raises the
    universe-size ValueError, naming the first count past
    SCREEN_ENTRIES_CAP, if the new rows carry it past that count."""
    rows = np.concatenate([u, candidates])
    # one bytes key per row, in the narrowest dtype that holds a mask
    narrow = rows.astype(np.min_scalar_type((1 << n) - 1))
    _, first = np.unique(narrow.view(f"V{narrow.itemsize << n}")[:, 0], return_index=True)
    first.sort()
    # k * k * 2**n exceeds the cap exactly when k exceeds
    # isqrt(cap // 2**n), so that count plus one is the first too large
    _check_universe_size(min(len(first), math.isqrt(SCREEN_ENTRIES_CAP >> n) + 1), n)
    return rows[first]


def term_universe(model, depth: int = 3) -> list[OperatorTable]:
    """Distinct tables of terms over 1, p, q up to the given nesting
    depth of product/bar, in generation order: 1, p, q, then per depth
    the bars of the tables so far and their products f g, f outer, as
    one gather each on the stacked tables and one row deduplication.
    Stops with ValueError as soon as the universe grows past what
    check_intended_model can screen (SCREEN_ENTRIES_CAP)."""
    n = model.ground_size
    ce = complement_table(n).entries
    u = _grown(np.empty((0, 1 << n), dtype=np.int64),
               np.stack([identity_table(n).entries, model.p.entries, model.q.entries]), n)
    for _ in range(depth):
        bars = ce[u[:, ce]]
        u = _grown(u, np.concatenate([bars, _products(u).reshape(-1, 1 << n)]), n)
    return [OperatorTable(n, row, _validate=False) for row in u]


def check_intended_model(model, depth: int = 3) -> ModelCheckReport:
    """Screen all theory axioms over the depth-bounded table universe of
    a concrete model.

    Equations and inequalities are checked exhaustively over the
    universe (products compare by table, the order is the pointwise
    subset order).  Product monotonicity is checked one side at a time,
    which together with transitivity covers the two-sided rule.  A
    universe too large to screen raises ValueError while it is built.
    Every screen runs on the stacked tables of the k elements: the unit
    check is one gather a side, and associativity and product
    monotonicity take blocks of the third element m, each (k, k, block,
    2**n) temporary within SCREEN_ENTRIES_CAP, as all products are.
    """
    n = model.ground_size
    u = term_universe(model, depth)
    k = len(u)
    _check_universe_size(k, n)  # the screen's own precondition
    size = 1 << n
    ce = complement_table(n).entries
    ident = np.arange(size, dtype=np.int64)

    # stacked entries: E[i] is the table of universe element i, and
    # P2 holds every pairwise product
    e_stack = np.stack([t.entries for t in u])
    p2 = _products(e_stack)
    bar_stack = ce[e_stack[:, ce]]
    block = SCREEN_ENTRIES_CAP // (k * k * size)
    blocks = [slice(m, m + block) for m in range(0, k, block)]

    checks = []

    def add(name, passed, detail=""):
        checks.append(AxiomCheck(name, passed, detail))

    # composition of maps is associative by construction; record the
    # exhaustive confirmation over the universe anyway, a block of the
    # third index at a time to bound memory: (u_i u_j) u_m = u_i (u_j u_m)
    add("product-associative", all(
        np.array_equal(p2[:, :, e_stack[b]], e_stack[:, p2[:, b]]) for b in blocks
    ))

    add("unit-neutral", bool(
        np.array_equal(ident[e_stack], e_stack) and np.array_equal(e_stack[:, ident], e_stack)
    ))

    le = leq_matrix(e_stack, e_stack)
    add("order-reflexive", bool(le.diagonal().all()))
    i, j = np.nonzero(le & le.T)
    add("order-antisymmetric", bool(np.all(e_stack[i] == e_stack[j])))
    implied = (le.astype(np.int32) @ le.astype(np.int32)) > 0
    add("order-transitive", not bool(np.any(implied & ~le)))

    # one-sided monotonicity of the product in each argument, u_x u_m
    # and u_m u_x as x varies, one order screen per side for a block of
    # m; with transitivity this yields the two-sided rule
    # x<=y, u<=v => xu<=yv
    outer = p2.transpose(1, 0, 2)  # outer[m, x] is u_x u_m
    add("product-monotone", not any(
        np.any(le & ~(leq_matrix(outer[b], outer[b]) & leq_matrix(p2[b], p2[b])))
        for b in blocks
    ))

    add("bar-involutive", bool(np.array_equal(ce[bar_stack[:, ce]], e_stack)))
    add("bar-multiplicative", bool(np.array_equal(ce[p2[:, :, ce]], _products(bar_stack))))
    le_bar = leq_matrix(bar_stack, bar_stack)
    add("bar-antitone", not bool(np.any(le & ~le_bar.T)))
    add("bar-fixes-unit", bool(np.array_equal(ce[ident[ce]], ident)))

    p_closure = check_closure(model.p).ok
    add("p-closure", p_closure, "" if p_closure else "p fails a closure axiom")
    q_closure = check_closure(model.q).ok
    add("q-closure", q_closure, "" if q_closure else "q fails a closure axiom")

    comm = commutes(model.p, model.q)
    add("pq-commute", comm, "" if comm else "p and q do not commute")

    return ModelCheckReport(universe_size=k, checks=tuple(checks))
