"""Verification suites behind the command line interface.

Each suite returns a SuiteReport whose body lines are fully
deterministic for fixed flags: counts, witnesses, and verdicts only.
Volatile facts (wall-clock time) are the renderer's business and go on
comment lines prefixed with "# " so reports can be compared byte for
byte after dropping that header.

Every suite runs in one process.  Identities over closure pairs are
checked on an opalg.FlatScope, built once over a whole stack of tables
and then one gather per letter for every word, so there is one
evaluation kernel rather than a loop per suite.  Constructors screen,
suites read: models.example3, pij_pair and section4_model screen each
model once and attach p_report, q_report and commuting, and a suite
reads those and does not screen the model again.  A stack of tables
is screened in one call, by opalg.closure_rows or interior_rows.
kuratowski14 counts
each closure's monoid with k and c as the number of distinct tables
among the 14 Kuratowski words, having checked that kk = k and
kckckck = kck, so that k and c map those tables among themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, product

import numpy as np

from . import idlab, models
from . import monoid as monoid_mod
from .opalg import (
    FlatScope,
    closure_rows,
    commutes,
    complement_table,
    conjugated_involution,
    elements_of,
    eval_word_on,
    format_set,
    format_word,
    interior_rows,
    is_reversing_involution,
    leq_matrix,
    reversed_involution,
)
from .idlab import KURATOWSKI_WORDS
from .theory import BLOCK_CHOICES, theorem2_word

#: pinned demonstration that the collapse fixtures need commutativity:
#: fixture equation index, ground size, closure indices into the
#: canonical enumeration, and the separating subset mask.
#: Regenerate with scripts/derive_constants.py.
FIXTURE_FAILURE = (0, 2, 4, 2, 1)


@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def check(self, label: str, ok, detail: str = "") -> bool:
        """Append the line "label: PASS", or "label: FAIL" and detail,
        failing the report when ok is false; returns ok as a bool."""
        ok = bool(ok)
        self.lines.append(f"{label}: " + ("PASS" if ok else f"FAIL {detail}".rstrip()))
        self.passed &= ok
        return ok


def _verdict(report: SuiteReport) -> SuiteReport:
    report.lines.append("PASS" if report.passed else "FAIL")
    report.data["passed"] = report.passed
    return report


# ---------------------------------------------------------------------------
# theorem1: pcqcpcq = pcq over every closure pair, no commutation needed


def _pair_failures(lhs: str, rhs: str, n: int, thetas=None) -> list:
    """Every (i, j, t, mask) where lhs != rhs on the closure pair p#i,
    q#j at ground size n, with row t of the (T, 2**n) stack thetas in
    place of c (plain complement and t = 0 when thetas is None).  The
    failures come in (i, j, t) order and mask is the smallest subset on
    which the two words differ.  Rows of thetas that repeat a table
    are evaluated once and share its failures.  The q and theta stacks
    are shifted into one flat scope once; each p row only replaces p's
    table there, rhs's p-free suffix is evaluated once, and an lhs that
    ends in rhs continues from rhs's tables (pcqcpcq: 5 gathers per p).

    p is screened one relabeling orbit at a time (isomorph rejection,
    McKay 1998), over the relabelings s that map the set of theta
    tables onto itself: (p, q, theta) fails exactly when (s p s^-1,
    s q s^-1, s theta s^-1) does, and q runs over every closure, so an
    orbit fails only if its representative does.  The representatives'
    rows are walked first, then the other rows of each failing orbit."""
    closures = idlab._closure_stack(n)
    if thetas is None:
        thetas = complement_table(n).entries[None]
    distinct, inverse = np.unique(thetas, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    held = {row.tobytes() for row in distinct}
    group = tuple(perm for perm in permutations(range(n))
                  if {row.tobytes() for row in idlab._relabeled(distinct, perm)} == held)
    rep = idlab._closure_orbits(n, group)
    q = np.repeat(closures, len(distinct), axis=0)
    c = np.tile(distinct, (len(closures), 1))
    flat = FlatScope(q, q, c)  # p's table is set per row below
    head, rest = rhs.rstrip("cq"), lhs.removesuffix(rhs)
    # the p-free suffix's tables, entries below 2**n <= 16 held in uint8
    tail = flat.eval(rhs[len(head):]).astype(np.uint8) if head != rhs else None

    def row_failures(i: int) -> list:
        flat.set_table("p", closures[i])
        right = flat.eval(head, tail)
        left = flat.eval(rest, right) if rest != lhs else flat.eval(lhs)
        diff = (left != right).reshape(len(closures), len(distinct), -1)
        del left  # freed now, the next row's tables reuse its memory
        return [(i, int(j), int(t), int(diff[j, inverse[t]].argmax()))
                for j, t in zip(*np.nonzero(diff.any(axis=2)[:, inverse]))]

    own = rep == np.arange(len(rep))
    found = {i: row_failures(i) for i in np.flatnonzero(own).tolist()}
    failing = [i for i, rows in found.items() if rows]
    for i in np.flatnonzero(np.isin(rep, failing) & ~own).tolist():
        found[i] = row_failures(i)
    return [failure for i in sorted(found) for failure in found[i]]


def suite_theorem1(n: int = 2) -> SuiteReport:
    closures = idlab.enumerate_closures(n)
    checked = len(closures) ** 2
    failures = [(i, j, w) for i, j, _, w in _pair_failures("pcqcpcq", "pcq", n)]
    report = SuiteReport("theorem1", not failures)
    report.lines = [
        "verify theorem1",
        "identity: pcqcpcq = pcq",
        f"scope: all ordered closure pairs, n={n}",
        f"closures: {len(closures)}",
        f"{checked} pairs checked",
        f"failures: {len(failures)}",
    ]
    for i, j, w in failures[:5]:
        report.lines.append(f"  counterexample: p#{i} q#{j} at {format_set(w)}")
    report.data = {
        "n": n,
        "closures": len(closures),
        "pairs_checked": checked,
        "failures": [
            {"p": i, "q": j, "witness": elements_of(w)} for i, j, w in failures
        ],
    }
    return _verdict(report)


# ---------------------------------------------------------------------------
# kuratowski14: monoid bound, pinned witness, Hammer identity


def suite_kuratowski14(n: int = 4) -> SuiteReport:
    if not 0 <= n <= idlab.BLOCKED_ENUMERATION_CAP:
        raise ValueError(f"kuratowski14 screens n in 0..{idlab.BLOCKED_ENUMERATION_CAP}, got {n}")
    # blocks are folded in as they come; indices count in their order
    closures = separating = 0
    over, hammer_bad, histogram = [], [], Counter()
    for block in idlab._closure_blocks(n):
        sizes, hammer, seeds = idlab._kc_screen(block)
        over += [(closures + int(i), int(sizes[i])) for i in np.flatnonzero(sizes > 14)]
        hammer_bad += (closures + np.flatnonzero(hammer)).tolist()
        separating += int(np.count_nonzero(seeds >= 0))
        histogram.update(dict(zip(*(col.tolist() for col in np.unique(sizes, return_counts=True)))))
        closures += len(sizes)
    histogram = dict(sorted(histogram.items()))
    max_size = max(histogram)

    k, seed = models.kuratowski_witness()
    c = complement_table(k.ground_size)
    mon = monoid_mod.generate_monoid([k, c], names=("k", "c"))
    wit_words = list(map(format_word, mon.witnesses))
    words_ok = sorted(wit_words) == sorted(KURATOWSKI_WORDS)
    orbit_images = {e.apply(seed) for e in mon.elements}

    passed = (
        not over
        and not hammer_bad
        and not separating
        and len(mon) == 14
        and words_ok
        and len(orbit_images) == 14
    )
    report = SuiteReport("kuratowski14", passed)
    report.lines = [
        "verify kuratowski14",
        f"n: {n}",
        f"{closures} closures, max monoid {max_size}",
        f"monoids over 14: {len(over)}",
        f"hammer kckckck = kck failures: {len(hammer_bad)}",
    ]
    if separating:
        report.lines.append(f"closures with a separating seed: {separating}")
    report.lines += [
        f"witness ground size: {k.ground_size}",
        f"witness monoid size: {len(mon)}",
        "witness words: " + " ".join(wit_words),
        f"witness words match canonical list: {'yes' if words_ok else 'no'}",
        f"witness seed {format_set(seed)} distinct images: {len(orbit_images)}",
    ]
    report.data = {
        "n": n,
        "closures": closures,
        "max_monoid": max_size,
        "monoid_sizes": histogram,
        "over_14": over,
        "hammer_failures": hammer_bad,
        "separating_seeds": separating,
        "witness": {
            "ground_size": k.ground_size,
            "monoid_size": len(mon),
            "words": wit_words,
            "seed": elements_of(seed),
            "distinct_images": len(orbit_images),
        },
    }
    return _verdict(report)


# ---------------------------------------------------------------------------
# theorem2: the collapse family over commuting pairs


def _sampler_comment(n: int, scope: idlab.Scope) -> str:
    """A "# " line on the tries the seeds of a sampled scope took: the
    counts are deterministic, but a comment line leaves the report body
    as it was before they were printed.  Tries are those the seeds'
    pairs used; drawn adds those discarded after a pair in its round."""
    runs = list(scope.runs())
    tries = [t for run in runs for t in run.tries.tolist()]
    line = f"# sampler n={n}: {len(tries)} seeds, {sum(tries)} tries"
    if tries:
        line += f" (min/median/max {min(tries)}/{np.median(tries):g}/{max(tries)})"
    drawn = sum(int(run.drawn.sum()) for run in runs)
    return line + f", {drawn} drawn in {sum(run.rounds for run in runs)} rounds"


def suite_theorem2(
    n: int = 3,
    samples: int = 25,
    seed: int = idlab.DEFAULT_SEED,
) -> SuiteReport:
    report = SuiteReport("theorem2", True)
    report.lines = ["verify theorem2", "target: pqcpq"]
    report.data = {"target": "pqcpq", "parts": []}
    failures = 0

    exhaustive = idlab.Scope.exhaustive(n, commuting=True)
    # (inner block pairs, scope, ground size of a sampled scope)
    parts = [
        (1, exhaustive, None),
        (2, exhaustive, None),
        (3, idlab.Scope.sampled(4, samples, seed), 4),
        (3, idlab.Scope.sampled(5, samples, seed + 1000), 5),
    ]
    for n_blocks, scope, sampled_n in parts:
        certs = [
            idlab.test_equation(theorem2_word(t), "pqcpq", scope)
            for t in product(BLOCK_CHOICES, repeat=2 * n_blocks)
        ]
        held = sum(1 for cert in certs if cert.holds)
        failures += len(certs) - held
        part = {
            "n_blocks": n_blocks,
            "scope": scope.description,
            "equations": len(certs),
            "held": held,
            "failures": [
                {"word": cert.lhs, "model": cert.model.label,
                 "witness": elements_of(cert.witness)}
                for cert in certs
                if not cert.holds
            ],
        }
        line = (
            f"n_blocks={n_blocks} scope={scope.description}: "
            f"{held}/{len(certs)} equations hold"
        )
        if scope is exhaustive:
            part["pairs"] = certs[0].models_checked
            line += f" over {part['pairs']} pairs"
        report.lines.append(line)
        report.data["parts"].append(part)
        if sampled_n is not None:
            report.lines.append(_sampler_comment(sampled_n, scope))

    report.lines.append(f"failures: {failures}")
    report.passed = failures == 0
    return _verdict(report)


# ---------------------------------------------------------------------------
# fixtures: the six collapse identities, plus the pinned demonstration
# that dropping commutativity breaks at least one of them


def suite_fixtures(n: int = 3) -> SuiteReport:
    report = SuiteReport("fixtures", True)
    report.lines = ["verify fixtures"]
    report.data = {"identities": []}
    scope = idlab.Scope.exhaustive(n, commuting=True)
    for lhs, rhs in idlab.FIXTURE_EQUATIONS:
        cert = idlab.test_equation(lhs, rhs, scope)
        report.passed &= cert.holds
        report.lines.append(f"{lhs} = {rhs}: {cert.summary()}")
        report.data["identities"].append(cert.to_json())

    idx, size, pi, qi, witness = FIXTURE_FAILURE
    lhs, rhs = idlab.FIXTURE_EQUATIONS[idx]
    closures = idlab._closures(size)
    p, q = closures[pi], closures[qi]
    still_noncommuting = not commutes(p, q)
    a = eval_word_on(lhs, p, q, witness)
    b = eval_word_on(rhs, p, q, witness)
    ok = still_noncommuting and a != b
    report.passed &= ok
    report.lines.append(
        f"noncommuting demonstration: {lhs} != {rhs} on n={size} "
        f"p#{pi} q#{qi} at {format_set(witness)}: "
        f"{format_set(a)} vs {format_set(b)}"
    )
    report.data["noncommuting_failure"] = {
        "equation": [lhs, rhs],
        "n": size,
        "p": pi,
        "q": qi,
        "witness": elements_of(witness),
        "lhs_value": elements_of(a),
        "rhs_value": elements_of(b),
        "commutes": not still_noncommuting,
    }
    return _verdict(report)


# ---------------------------------------------------------------------------
# section4: the flagged-cycle model


def suite_section4(m: int = 4) -> SuiteReport:
    model = models.section4_model(m)
    n = model.ground_size
    top = 1 << (2 * m)
    report = SuiteReport("section4", True, ["verify section4", f"m: {m}", f"ground size: {n}"])
    data = {"m": m, "ground_size": n}

    p_rep, q_rep, comm = model.p_report, model.q_report, model.commuting
    report.check("p closure axioms", p_rep.ok)
    report.check("q closure axioms", q_rep.ok)
    report.check("pq = qp", comm)
    data["p_axioms"] = p_rep.as_dict()
    data["q_axioms"] = q_rep.as_dict()
    data["commute"] = comm

    # an element's flag pattern must survive both operators exactly
    both = top | (1 << (2 * m + 1))  # top and bot
    flags = np.arange(1 << n, dtype=np.int64) & both
    data["flag_preservation"] = report.check("flag preservation", all(
        np.array_equal(op.entries & both, flags) for op in (model.p, model.q)))

    pij = [models.pij_pair(i, j, m) for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))]
    sandwich = {}
    for which in "pq":
        t = np.stack([getattr(pair, which).entries for pair in pij])
        le = leq_matrix(t, t)  # rows and columns 00, 10, 01, 11
        sandwich[which] = report.check(f"sandwich {which}00 <= {which}10,{which}01 <= {which}11",
                                       le[0, 1] and le[0, 2] and le[1, 3] and le[2, 3])
    data["sandwich"] = sandwich

    start = 1 | top
    orb = monoid_mod.orbit("cpcpcqcq", model, start)
    report.lines.append("orbit of {0,top} under cpcpcqcq:")
    expected_orbit_ok = orb.distinct_count == m and orb.cycle_entry == 0
    for step, img in enumerate(orb.images):
        expected = (1 << ((2 * step) % (2 * m))) | top
        mark = "" if img == expected else "  <- unexpected"
        expected_orbit_ok &= img == expected
        report.lines.append(f"  step {step}: {model.format_mask(img)}{mark}")
    report.lines.append(f"distinct images: {orb.distinct_count}")
    report.passed &= expected_orbit_ok
    data["orbit"] = {
        "images": [model.format_mask(i) for i in orb.images],
        "distinct": orb.distinct_count,
        "ok": expected_orbit_ok,
    }

    inter_ok = True
    for step in range(m):
        a = (1 << ((2 * step) % (2 * m))) | top
        mid = eval_word_on("cqcq", model.p, model.q, a)
        end = eval_word_on("cpcp", model.p, model.q, mid)
        inter_ok &= mid == (1 << ((2 * step + 1) % (2 * m))) | top
        inter_ok &= end == (1 << ((2 * step + 2) % (2 * m))) | top
    data["intermediates"] = report.check(
        "intermediates cqcq({2n,top}) = {2n+1,top} and cpcp({2n+1,top}) = {2n+2,top}", inter_ok)

    growth = monoid_mod.growth_study(partial(models.section4_model, materialize=False),
                                     "cpcpcqcq", lambda mm: 1 | (1 << (2 * mm)), (4, 8, 16))
    report.lines += [f"growth m={mm}: {count} distinct images" for mm, count in growth]
    report.check("growth pattern 4/8/16", [g for _, g in growth] == [4, 8, 16])
    data["growth"] = growth

    report.data.update(data)
    return _verdict(report)


# ---------------------------------------------------------------------------
# example3: staircase model, repaired and literal


def suite_example3(M: int = 10) -> SuiteReport:
    report = SuiteReport("example3", True, ["verify example3", f"featured M: {M}"])
    data = {"M": M}

    repaired = {size: models.example3(size) for size in range(2, 13)}
    axiom_fail = [size for size, model in repaired.items()
                  if not (model.p_report.ok and model.q_report.ok)]
    report.check("repaired closure axioms M=2..12", not axiom_fail, str(axiom_fail))
    data["repaired_axiom_failures"] = axiom_fail

    orbit_fail = []
    for size in range(2, 13, 2):
        orb = monoid_mod.orbit("pq", repaired[size], 1)
        want = size // 2 + 1
        prefixes_ok = all(
            img == (1 << (min(2 * i, size) + 1)) - 1
            for i, img in enumerate(orb.images)
        )
        if orb.distinct_count != want or not prefixes_ok:
            orbit_fail.append(size)
    report.check("orbit of {0} under pq gives prefixes {0..2n}, floor(M/2)+1 distinct,"
                 " even M=2..12", not orbit_fail, str(orbit_fail))
    data["orbit_failures"] = orbit_fail

    literal = models.example3(M, variant="literal")
    wit = None
    if literal.p_report is not None and literal.p_report.checks["monotone"].witness:
        a, b = literal.p_report.checks["monotone"].witness
        wit = (a, b)
        report.lines.append(
            f"literal p monotonicity fails at M={M}: "
            f"{format_set(a)} subset of {format_set(b)} but "
            f"p{format_set(a)} = {format_set(literal.p.apply(a))} is not inside "
            f"p{format_set(b)} = {format_set(literal.p.apply(b))}"
        )
    else:
        report.passed = False
        report.lines.append(f"literal p monotonicity unexpectedly holds at M={M}")
    data["literal_witness"] = None if wit is None else [elements_of(wit[0]), elements_of(wit[1])]

    model = repaired[M] if M in repaired else models.example3(M)
    pq0 = eval_word_on("pq", model.p, model.q, 1)
    qp0 = eval_word_on("qp", model.p, model.q, 1)
    report.lines.append(
        f"non-commuting at M={M}: pq({{0}}) = {format_set(pq0)}, "
        f"qp({{0}}) = {format_set(qp0)}"
    )
    report.passed &= pq0 != qp0
    data["pq_vs_qp"] = [elements_of(pq0), elements_of(qp0)]

    orbit_growth = []
    monoid_sizes = []
    for size in (8, 16, 32):
        fam = models.example3_additive(size)
        orb = monoid_mod.orbit("pq", fam, 1)
        orbit_growth.append((size, orb.distinct_count))
        mon = monoid_mod.generate_monoid([fam.p, fam.q], names=("p", "q"))
        monoid_sizes.append((size, len(mon), mon.truncated))
        report.lines.append(
            f"M={size}: orbit distinct {orb.distinct_count}, "
            f"monoid size {len(mon)}{' (truncated)' if mon.truncated else ''}"
        )
    sizes = [s for _, s, _ in monoid_sizes]
    report.check("monoid growth strictly increasing across M=8,16,32",
                 sizes[0] < sizes[1] < sizes[2] and not any(t for _, _, t in monoid_sizes))
    data["orbit_growth"] = orbit_growth
    data["monoid_sizes"] = [(m_, s) for m_, s, _ in monoid_sizes]

    report.data.update(data)
    return _verdict(report)


# ---------------------------------------------------------------------------
# lemma6: the four pij flavors are commuting closure pairs on cycles


def suite_lemma6() -> SuiteReport:
    report = SuiteReport("lemma6", True, ["verify lemma6"])
    rows = []
    for m in (2, 3, 4, 5):
        for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)):
            try:
                pair = models.pij_pair(i, j, m)
            except models.ModelConstructionError as err:
                report.passed = False
                report.lines.append(f"m={m} (i,j)=({i},{j}): construction failed: {err}")
                rows.append({"m": m, "i": i, "j": j, "ok": False})
                continue
            ok = report.check(f"m={m} (i,j)=({i},{j}): closures and commuting",
                              pair.p_report.ok and pair.q_report.ok and pair.commuting)
            rows.append({"m": m, "i": i, "j": j, "ok": ok})
    report.data = {"checks": rows}
    return _verdict(report)


# ---------------------------------------------------------------------------
# interior and product-closure properties


def suite_interior(n: int = 3) -> SuiteReport:
    report = SuiteReport("interior", True)
    lines = ["verify interior", "property: ckc is an interior operator"]
    counts = []
    for size in range(n + 1):
        ks = idlab._closure_stack(size)
        bad = int((~interior_rows(FlatScope(ks).eval("cpc"), size)).sum())
        counts.append((size, len(ks), bad))
        report.passed &= bad == 0
        lines.append(
            f"n={size}: {counts[-1][1]} closures, interior failures: {bad}"
        )
    report.lines = lines
    report.data = {"counts": counts}
    return _verdict(report)


def suite_pq_closure(n: int = 3) -> SuiteReport:
    report = SuiteReport("pq-closure", True)
    lines = ["verify pq-closure", "property: pq is a closure for commuting p, q"]
    counts = []
    for size in range(n + 1):
        run = idlab._pair_run(size, True)
        bad = int((~closure_rows(run.flat.eval("pq"), size)).sum())
        counts.append((size, len(run), bad))
        report.passed &= bad == 0
        lines.append(
            f"n={size}: {len(run)} commuting pairs, product failures: {bad}"
        )
    report.lines = lines
    report.data = {"counts": counts}
    return _verdict(report)


# ---------------------------------------------------------------------------
# remark-involution: the collapse survives any inclusion-reversing
# involution in place of complement


def suite_remark_involution(n: int = 3) -> SuiteReport:
    perms = tuple(permutations(range(n)))
    involutive = [
        pi for pi in perms if all(pi[pi[x]] == x for x in range(n))
    ]
    thetas = [("conjugated", pi, conjugated_involution(list(pi))) for pi in perms]
    for pi in involutive:
        t = reversed_involution(list(pi))
        assert is_reversing_involution(t)
        thetas.append(("reversed", pi, t))
    closures = idlab.enumerate_closures(n)
    checked = len(closures) ** 2 * len(thetas)
    stack = np.stack([t.entries for _, _, t in thetas])
    failures = [
        (thetas[t][0], thetas[t][1], i, j, w)
        for i, j, t, w in _pair_failures("pcqcpcq", "pcq", n, stack)
    ]
    report = SuiteReport("remark-involution", not failures)
    report.lines = [
        "verify remark-involution",
        "identity: p theta q theta p theta q = p theta q",
        f"n: {n}",
        f"permutations: {len(perms)} (involutive: {len(involutive)})",
        f"involutions tested per pair: {len(perms) + len(involutive)}",
        f"closure pairs: {len(closures) * len(closures)}",
        f"checks: {checked}",
        f"failures: {len(failures)}",
    ]
    for kind, perm, i, j, w in failures[:5]:
        report.lines.append(
            f"  counterexample: {kind} {perm} p#{i} q#{j} at {format_set(w)}"
        )
    report.data = {
        "n": n,
        "permutations": len(perms),
        "involutive": len(involutive),
        "pairs": len(closures) * len(closures),
        "checks": checked,
        "failures": [
            {"kind": kind, "perm": list(perm), "p": i, "q": j, "witness": elements_of(w)}
            for kind, perm, i, j, w in failures
        ],
    }
    return _verdict(report)


SUITES = {
    "theorem1": suite_theorem1,
    "kuratowski14": suite_kuratowski14,
    "theorem2": suite_theorem2,
    "fixtures": suite_fixtures,
    "section4": suite_section4,
    "example3": suite_example3,
    "lemma6": suite_lemma6,
    "interior": suite_interior,
    "pq-closure": suite_pq_closure,
    "remark-involution": suite_remark_involution,
}
