"""The benchmark's workloads: fixed op lists built from the benchmark
seed, each op paired with the checks its output must pass.

An op is a real CLI invocation (closurelab.cli.main in-process, stdout
captured) or an exported library call.  Expected exit codes, verdict
lines and counts come from oracle.py or from constants with a stated
derivation, never from the package under test, and never include the
"# " wall-clock header lines.

Each workload makes one group of modules do most of the work and leaves
another idle, so a change to one layer has a workload that shows it and
one on which the prediction is "no change":

* collapse-sampled: seeded scope sampling plus eval_word (no monoid
  BFS, no theory);
* exhaustive-words: eval_word, eval_term and the identity search over
  enumerated scopes (no sampling, no monoid BFS);
* monoid-sweep: monoid BFS, compose and the witness search, plus large
  JSON dumps (no eval_word, no sampling).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from closurelab import cli, idlab, theory

import oracle

#: the six collapse identities of the paper, each against pqcpq
FIXTURE_EQUATIONS = (
    "pqcpcqcqcpcpq=pqcpq",
    "pqcpcpcqcqcpq=pqcpq",
    "pqcqcqcpcpcpcqcpq=pqcpq",
    "pqcqcpcpcpcqcpqcpq=pqcpq",
    "pqcqcqcpcqcqcpcqcqcpq=pqcpq",
    "pqcpcpcqcpcpcqcpcpcpq=pqcpq",
)

#: identities of every closure pair, commuting or not: Theorem 1, the
#: Hammer identity kckckck = kck, and their mirror and conjugate forms
TRUE_IDENTITIES = (
    "pcqcpcq=pcq",
    "qcpcqcp=qcp",
    "pcpcpcp=pcp",
    "qcqcqcq=qcq",
    "cpcqcpcqc=cpcqc",
)

BLOCKS = ("p", "q", "pq")
MAXLEN = 13
SAMPLES = 25


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    cli: bool


def cli_op(argv, check) -> Op:
    argv = list(argv) + ["--workers", "1"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as stop:  # argparse rejects bad flags this way
                code = stop.code
        return code, buf.getvalue()

    return Op("closurelab " + " ".join(argv), run, check, True)


def lib_op(label, run, check) -> Op:
    return Op(label, run, check, False)


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def body_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if not line.startswith("# ")]


def report(code=0, lines=(), suite=True, extra=None):
    """Exit code, required body lines and, for a suite, no FAIL line
    and a final PASS."""

    def check(result):
        rc, out = result
        body = body_lines(out)
        problems = [] if rc == code else [f"exit code {rc}, expected {code}"]
        problems += [f"missing line {line!r}" for line in lines if line not in body]
        if suite:
            if not body or body[-1] != "PASS":
                problems.append("last line is not PASS")
            problems += [f"failing line {line!r}" for line in body if "FAIL" in line]
        if extra is not None and not problems:
            problems += extra(body)
        return problems

    return check


def json_report(validate):
    def check(result):
        rc, out = result
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        try:
            doc = json.loads(out)
        except ValueError as err:
            return [f"output is not JSON: {err}"]
        return validate(doc)

    return check


def _parse_set(text: str) -> int:
    inner = text.strip("{}")
    return sum(1 << int(e) for e in inner.split(",")) if inner else 0


def _fixture_demo(body):
    """The noncommuting demonstration line, replayed on the oracle."""
    pattern = re.compile(
        r"noncommuting demonstration: (\w+) != (\w+) on n=(\d+) p#(\d+) q#(\d+)"
        r" at (\{[\d,]*\}): (\{[\d,]*\}) vs (\{[\d,]*\})$")
    hits = [m for m in map(pattern.match, body) if m]
    if len(hits) != 1:
        return ["no single noncommuting demonstration line"]
    lhs, rhs, n, i, j, at, a, b = hits[0].groups()
    n, i, j = int(n), int(i), int(j)
    cl = oracle.closures(n)
    p, q = cl[i], cl[j]
    w = _parse_set(at)
    want_a = oracle.apply_word(lhs, p, q, n, w)
    want_b = oracle.apply_word(rhs, p, q, n, w)
    if (oracle.commutes(p, q) or want_a == want_b
            or (want_a, want_b) != (_parse_set(a), _parse_set(b))):
        return [f"demonstration does not replay: {hits[0].group(0)!r}"]
    return []


def _identity_sample(fractions):
    """Equations listed by `search identities`, a seed-chosen sample of
    them replayed over every commuting pair at n <= 2."""

    def extra(body):
        found = int(body[2].split(": ")[1])
        equations = body[3:]
        if len(equations) != found:
            return [f"{len(equations)} equation lines, header says {found}"]
        problems = []
        for f in fractions:
            lhs, rhs = (("" if s == "1" else s) for s in equations[int(f * found)].split(" = "))
            if not oracle.equation_holds(lhs, rhs, 2, commuting=True):
                problems.append(f"listed equation fails: {lhs} = {rhs}")
        return problems

    return extra


def _monoid_problems(doc, gens, n, expect_size=None):
    """The dump is exactly the monoid generated by its generator
    elements: identity first, elements distinct, every Cayley entry a
    right product by a generator, and every element reached by its
    witness word from its parent's."""
    words = doc["witnesses"]
    k = len(words)
    tables = np.array([[int(x, 16) for x in e["entries"]] for e in doc["elements"]],
                      dtype=np.int64).reshape(k, 1 << n)
    cayley = np.array(doc["cayley"], dtype=np.int64)
    problems = []
    if doc["truncated"] or doc["size"] != k or cayley.shape != (k, len(gens)):
        return [f"shape: size {doc['size']}, {k} witnesses, cayley {cayley.shape}"]
    if expect_size is not None and k != expect_size:
        problems.append(f"size {k}, expected {expect_size}")
    if list(doc["generator_names"]) != list(gens):
        problems.append(f"generators {doc['generator_names']}")
    if words[0] != "" or not np.array_equal(tables[0], np.arange(1 << n)):
        problems.append("element 0 is not the identity")
    if len(np.unique(tables, axis=0)) != k:
        problems.append("repeated elements")
    if cayley.min() < 0 or cayley.max() >= k:
        return problems + ["cayley entry out of range"]
    where = {w: i for i, w in enumerate(words)}
    if any(g not in where for g in gens):
        return problems + ["a generator is missing"]
    for gi, g in enumerate(gens):
        if not np.array_equal(tables[:, tables[where[g]]], tables[cayley[:, gi]]):
            problems.append(f"cayley column {g} is not the right product")
    for i, w in enumerate(words[1:], 1):
        parent = where.get(w[:-1])
        if parent is None or w[-1] not in gens or cayley[parent, gens.index(w[-1])] != i:
            problems.append(f"element {i} ({w}) not reached from its parent")
            break
    if "c" in gens and not np.array_equal(tables[where["c"]], ((1 << n) - 1) ^ np.arange(1 << n)):
        problems.append("generator c is not the complement")
    return problems


@lru_cache(maxsize=None)
def _witness14_oracle():
    """(tables, witness words) of the pinned witness's monoid with c."""
    k, c = oracle.witness14()
    return oracle.monoid({"c": c, "k": k}, oracle.WITNESS14_N)


def _witness14_monoid(doc):
    tables, words = _witness14_oracle()
    problems = _monoid_problems(doc, ["c", "k"], oracle.WITNESS14_N, 14)
    if set(doc["witnesses"]) != oracle.KURATOWSKI_WORDS:
        problems.append("witness words are not the Kuratowski fourteen")
    got = {w: tuple(int(x, 16) for x in e["entries"])
           for w, e in zip(doc["witnesses"], doc["elements"])}
    if got != dict(zip(words, tables)):
        problems.append("element tables differ from the oracle's")
    return problems


def _hasse_problems(doc, expect_nodes=None):
    nodes, edges = doc["nodes"], [tuple(e) for e in doc["edges"]]
    problems = []
    if len(set(nodes)) != len(nodes) or not nodes or nodes[0] != "1":
        problems.append("nodes are not distinct words starting at 1")
    if expect_nodes is not None and len(nodes) != expect_nodes:
        problems.append(f"{len(nodes)} nodes, expected {expect_nodes}")
    known = set(nodes)
    if any(a not in known or b not in known or a == b for a, b in edges):
        problems.append("edge outside the node set")
    if len(set(edges)) != len(edges):
        problems.append("repeated edges")
    return problems


def _witness14_hasse(doc):
    tables, words = _witness14_oracle()
    names = [w or "1" for w in words]
    problems = _hasse_problems(doc, 14)
    if doc["nodes"] != names:
        problems.append("nodes differ from the oracle's breadth-first order")
    if {tuple(e) for e in doc["edges"]} != oracle.hasse_edges(tables, names):
        problems.append("covering pairs differ from the oracle's")
    return problems


def _orbit_rows(m):
    """Section 4: cpcpcqcq walks {0,top} through {2i,top}, m images."""
    want = [["step", "image"]] + [[str(i), f"{{{2 * i},top}}"] for i in range(m)]

    def check(result):
        rc, out = result
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        rows = list(csv.reader(io.StringIO(out)))
        return [] if rows == want else [f"orbit rows {rows[:3]}..., expected {m} images"]

    return check


# ---------------------------------------------------------------------------
# workloads


@lru_cache(maxsize=None)
def _sampled_scope_problems(n, seed):
    """The scope's models are commuting closure pairs, so that a sampler
    returning anything cheaper fails.  Checked once per scope and run."""
    models = list(idlab.Scope.sampled(n, SAMPLES, seed).models())
    for m in models:
        p, q = tuple(m.p.entries.tolist()), tuple(m.q.entries.tolist())
        if (m.ground_size != n or not oracle.is_closure(p) or not oracle.is_closure(q)
                or not oracle.commutes(p, q)):
            return [f"sampled model {m.label!r} is not a commuting closure pair at n={n}"]
    return [] if len(models) == SAMPLES else [f"{len(models)} sampled models"]


def _sampled_scope_op(n, seed, words):
    """Theorem 2 words against pqcpq over one seeded sampled scope, the
    scope reused across the words as the theorem2 suite does."""

    def run():
        scope = idlab.Scope.sampled(n, SAMPLES, seed)
        return [idlab.test_equation(w, "pqcpq", scope) for w in words]

    def check(certs):
        want = f"sampled(n={n},count={SAMPLES},seed={seed})"
        bad = sum(not c.holds or c.models_checked != SAMPLES or c.scope != want
                  for c in certs)
        if bad:
            return [f"{bad} of {len(certs)} words not certified over {want}"]
        return _sampled_scope_problems(n, seed)

    return lib_op(f"idlab.test_equation x{len(words)} over {n}-element samples, seed {seed}",
                  run, check)


def collapse_sampled(rng):
    # The kernel of `verify theorem2`'s sampled half, in many small
    # scopes rather than through the command: the sampler's work follows
    # the tries of the few seeds a scope draws, so one theorem2 call (50
    # seeds, 15-28 s, one pass per run) varied too much between seeds and
    # runs.  16 scopes of 25 seeds, each re-sampled for 12 words, keep the
    # per-word re-sampling while a run holds many passes.
    family = ["pq" + "".join("c" + b for b in blocks) + "cpq"
              for blocks in product(BLOCKS, repeat=6)]
    return [_sampled_scope_op(n, seed, rng.sample(family, 12))
            for n in (4, 5) for seed in rng.sample(range(1, 1_000_000), 8)]


def _eval_term_op(rng):
    scope = list(oracle.pair_models(3, commuting=True))
    picks = sorted(rng.sample(range(len(scope)), 64))
    blocks = [b for k in (1, 2) for b in product(BLOCKS, repeat=2 * k)]

    def run():
        models = list(idlab.Scope.exhaustive(3).models())
        equations = [theory.proposition5_equation(b) for b in blocks]
        agree, rhs_tables = 0, []
        for i in picks:
            model = models[i]
            for lhs, rhs in equations:
                right = theory.eval_term(rhs, model)
                agree += right == theory.eval_term(lhs, model)
            rhs_tables.append((model.label, right.entries.tolist()))
        return len(models), agree, rhs_tables

    def check(result):
        count, agree, rhs_tables = result
        problems = []
        if count != len(scope):
            problems.append(f"scope has {count} models, expected {len(scope)}")
        if agree != len(picks) * len(blocks):
            problems.append(f"{agree} of {len(picks) * len(blocks)} equations agree")
        for i, (label, table) in zip(picks, rhs_tables):
            n, pi, qi, p, q = scope[i]
            want = [oracle.apply_word("cpqcpq", p, q, n, a) for a in range(1 << n)]
            if label != f"n={n} p#{pi} q#{qi}" or table != want:
                problems.append(f"model {i}: bar(pq)(pq) differs from the oracle")
                break
        return problems

    return lib_op(f"theory.eval_term proposition5 x{len(blocks)} on {len(picks)} models",
                  run, check)


def exhaustive_words(rng):
    closures = oracle.MOORE_FAMILY_COUNTS
    pairs = [len(oracle.commuting_pairs(n)) for n in range(4)]
    equations = rng.sample(FIXTURE_EQUATIONS, 2) + [rng.choice(TRUE_IDENTITIES)]
    fractions = [rng.random() for _ in range(16)]
    ops = [
        cli_op(["verify", "fixtures"], report(
            lines=[f"{eq.replace('=', ' = ')}: no counterexample found "
                   "(exhaustive-commuting-n<=3)" for eq in FIXTURE_EQUATIONS],
            extra=_fixture_demo)),
        cli_op(["verify", "theorem1", "--n", "3"], report(lines=(
            f"closures: {closures[3]}",
            f"{closures[3] ** 2} pairs checked",
            "failures: 0",
        ))),
        cli_op(["verify", "remark-involution"], report(lines=(
            "permutations: 6 (involutive: 4)",
            "involutions tested per pair: 10",
            f"closure pairs: {closures[3] ** 2}",
            f"checks: {closures[3] ** 2 * 10}",
            "failures: 0",
        ))),
        cli_op(["verify", "pq-closure"], report(lines=[
            f"n={n}: {pairs[n]} commuting pairs, product failures: 0" for n in range(4)])),
        cli_op(["verify", "interior"], report(lines=[
            f"n={n}: {closures[n]} closures, interior failures: 0" for n in range(4)])),
    ]
    for eq in equations:
        lhs, rhs = eq.split("=")
        verdict = oracle.counterexample_summary(lhs, rhs, 2)
        ops.append(cli_op(["search", "counterexample", "--eq", eq], report(
            code=1 if verdict.startswith("no counterexample") else 0,
            lines=(f"search counterexample {lhs} = {rhs}", verdict),
            suite=False)))
    ops.append(cli_op(["search", "identities", "--maxlen", str(MAXLEN)], report(
        lines=(f"search identities maxlen={MAXLEN} scope=exhaustive-commuting-n<=2",
               f"words examined: {oracle.reduced_word_count(MAXLEN)}"),
        suite=False, extra=_identity_sample(fractions))))
    ops.append(_eval_term_op(rng))
    ops.append(lib_op(
        "theory.check_intended_model on commuting pairs n=2",
        lambda: [theory.check_intended_model(m).ok for m in idlab.enumerate_commuting_pairs(2)],
        lambda oks: [] if oks == [True] * pairs[2] else [f"{oks.count(True)}/{len(oks)} models ok"]))
    ops.append(lib_op(
        "theory.check_derivation collapse",
        lambda: theory.check_derivation(theory.collapse_derivation()),
        lambda v: [] if v.accepted and v.failed_step is None else [f"derivation rejected: {v}"]))
    return ops


def monoid_sweep(rng):
    M_monoid, m_monoid = rng.choice((4, 5)), rng.choice((3, 4))
    M_hasse, m_hasse = rng.randint(6, 12), rng.choice((2, 3))
    m_orbit = rng.randint(4, 8)
    fixed = " ".join(oracle.fmt_set(f) for f in oracle.WITNESS14_FIXED)
    return [
        cli_op(["verify", "kuratowski14", "--n", "4"], report(lines=(
            f"{oracle.MOORE_FAMILY_COUNTS[4]} closures, max monoid 14",
            "monoids over 14: 0",
            "hammer kckckck = kck failures: 0",
            f"witness ground size: {oracle.WITNESS14_N}",
            "witness monoid size: 14",
            "witness words match canonical list: yes",
            f"witness seed {oracle.fmt_set(oracle.WITNESS14_SEED)} distinct images: 14",
        ))),
        cli_op(["search", "witness14"], report(lines=(
            f"ground size: {oracle.WITNESS14_N}",
            f"fixed points: {fixed}",
            f"seed: {oracle.fmt_set(oracle.WITNESS14_SEED)}",
        ), suite=False)),
        cli_op(["verify", "example3"], report(lines=("featured M: 10",))),
        cli_op(["verify", "section4"], report(lines=(
            "m: 4", "ground size: 10", "distinct images: 4", "growth pattern 4/8/16: PASS"))),
        cli_op(["verify", "lemma6"], report(lines=[
            f"m={m} (i,j)=({i},{j}): closures and commuting: PASS"
            for m in (2, 3, 4, 5) for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))])),
        cli_op(["dump", "monoid", "--model", "witness14"], json_report(_witness14_monoid)),
        cli_op(["dump", "hasse", "--model", "witness14"], json_report(_witness14_hasse)),
        # the largest dump (about 5 MB) is not seed-chosen, so the peak
        # memory of the run does not depend on the seed
        cli_op(["dump", "monoid", "--model", "example3-repaired", "--M", "6",
                "--gens", "p,q,c"],
               json_report(lambda d: _monoid_problems(d, ["p", "q", "c"], 7))),
        cli_op(["dump", "monoid", "--model", "example3-repaired", "--M", str(M_monoid),
                "--gens", "p,q,c"],
               json_report(lambda d: _monoid_problems(d, ["p", "q", "c"], M_monoid + 1))),
        cli_op(["dump", "monoid", "--model", "section4", "--m", str(m_monoid),
                "--gens", "p,q,c"],
               json_report(lambda d: _monoid_problems(d, ["p", "q", "c"], 2 * m_monoid + 2))),
        # p and q alone: the identity plus the two alternating words of
        # each length 1..M
        cli_op(["dump", "hasse", "--model", "example3-repaired", "--M", str(M_hasse),
                "--gens", "p,q"],
               json_report(lambda d: _hasse_problems(d, 2 * M_hasse + 1))),
        cli_op(["dump", "hasse", "--model", "section4", "--m", str(m_hasse),
                "--gens", "p,q,c"], json_report(_hasse_problems)),
        cli_op(["dump", "orbit", "--model", "section4", "--m", str(m_orbit),
                "--word", "cpcpcqcq", "--start", "0,top"], _orbit_rows(m_orbit)),
    ]


WORKLOADS = {
    "collapse-sampled": collapse_sampled,
    "exhaustive-words": exhaustive_words,
    "monoid-sweep": monoid_sweep,
}


def build(name: str, seed: int) -> list[Op]:
    """The op list of one workload; the same seed gives the same ops."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
