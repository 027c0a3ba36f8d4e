"""Digests of the report bodies of a fixed list of closurelab commands.

Run from the repository root:

    python3 scripts/body_digests.py > digests.txt

Each command runs in this process through cli.main.  Its standard
output, less the "# " comment lines (the wall-clock header), is hashed,
and one line is printed per command:

    sha256  exit-code  argv

Report bodies are deterministic for fixed flags, so two commits print
the same lines exactly when every listed command writes the same body
with the same exit code: compare two runs with diff.  The list covers
every verify suite as text and json, theorem2 over non-default sampled
scopes (one of 2,000 seeds, whose long streams pin the sampler's
draws), theorem1 at n = 4 as text, remark-involution at n = 4 as text
and json (each under 2 s in one process), interior at n = 4,
example3 at a featured M inside M = 2..12 and past it, section4 at
m = 6, each search, the identity search at its caps (--n 3
--maxlen 16, where the level cap on the monoid BFS under it binds
hardest), and each dump target, with a monoid or orbit dump of each
model kind (a pij pair, the literal and repaired staircases, the
flagged cycle and witness14, on one letter too), the tables of each
pij flavor and the largest block closure table (--m 10, 2**20
entries), the largest dumps the benchmark makes, a monoid dump cut
short by --cap, the largest monoid dump at the default cap (--M 12,
63 MB), one whose tables are wider than a chunk of the JSON writer
(--M 15 --cap 4), and orbits of the flagged cycle at m = 8 and at
m = 12, past the table cap, and at its edge, m = 1024 for 4096 steps.

Four more lines pin the theory layer, which no command reaches: a
digest of the term_universe tables at depths 1 to 3, of
check_intended_model(m).as_dict(), and of eval_term on both sides of
the 90 proposition5_equation instances (blocks of length 2 and 4),
each over every pair at n <= 2 and every commuting pair at n = 3.  The
fourth hashes opalg.eval_word on the words of those sides over the
same models, so it equals the eval_term line: the one-shot evaluator
cross-checks each model's word automaton.
One more pins the additive monoids <p, q> of example3_additive at
M = 8, 16 and 32, whose sizes alone the example3 report prints: their
witnesses, Cayley rows and elements' singleton images.  A last one pins
the term reader: print_term(parse_term(s)) for each of the 116 claim
side and substitution texts collapse_derivation reads, the message and
position of one refused text per TermSyntaxError message, and the
derivation's to_json().  Those lines read "lib" where a command's read
its exit code.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from itertools import product

sys.path.insert(0, "src")

from closurelab import cli, idlab, models, monoid, opalg, theory

SUITES = ("theorem1", "kuratowski14", "theorem2", "fixtures", "section4", "example3",
          "lemma6", "interior", "pq-closure", "remark-involution")
PQC_M6 = ("--model", "example3-repaired", "--M", "6", "--gens", "p,q,c")
COMMANDS = (
    [("verify", name, "--format", fmt) for name in SUITES for fmt in ("text", "json")]
    + [("verify", "theorem2", "--samples", "200", "--seed", "7", "--format", fmt)
       for fmt in ("text", "json")]
    + [("verify", "theorem2", "--samples", "2000", "--seed", "11", "--format", "json")]
    + [("verify", "theorem2", "--n", "1", "--seed", "-5")]
    + [("verify", "theorem1", "--n", "4")]
    + [("verify", "remark-involution", "--n", "4", "--format", fmt) for fmt in ("text", "json")]
    + [("verify", name, flag, value, "--format", fmt)
       for name, flag, value in (("interior", "--n", "4"), ("example3", "--M", "4"),
                                 ("example3", "--M", "15"), ("section4", "--m", "6"))
       for fmt in ("text", "json")]
    + [("search", kind, *extra, "--format", fmt)
       for kind, extra in (("identities", ()),
                           ("counterexample", ("--eq", "pq=qp")),
                           ("counterexample", ("--eq", "pcqcpcq=pcq")),
                           ("witness14", ()))
       for fmt in ("text", "json")]
    + [("search", "identities", "--n", "3", "--maxlen", "12", "--format", "json"),
       ("search", "identities", "--n", "3", "--maxlen", "16")]
    + [("dump", "model", "--name", "section4"),
       ("dump", "model", "--name", "section4", "--m", "8"),
       ("dump", "model", "--name", "example3-literal"),
       ("dump", "model", "--name", "pij(0,1)"),
       ("dump", "model", "--name", "pij(0,0)"),
       ("dump", "model", "--name", "pij(1,1)"),
       ("dump", "model", "--name", "pij(1,0)", "--m", "10"),
       ("dump", "monoid", "--model", "witness14"),
       ("dump", "monoid", "--model", "section4", "--m", "3", "--gens", "p,q,c"),
       ("dump", "monoid", *PQC_M6),
       ("dump", "monoid", "--model", "pij(1,0)", "--m", "3", "--gens", "p,q,c"),
       ("dump", "monoid", "--model", "example3-literal", "--M", "4", "--gens", "p,q"),
       ("dump", "monoid", *PQC_M6, "--cap", "100"),
       ("dump", "monoid", "--model", "example3-repaired", "--M", "12", "--gens", "p,q,c"),
       ("dump", "monoid", "--model", "example3-repaired", "--M", "15", "--cap", "4",
        "--gens", "p,q,c"),
       ("dump", "hasse", "--model", "witness14"),
       ("dump", "hasse", "--model", "witness14", "--gens", "k"),
       ("dump", "hasse", *PQC_M6),
       ("dump", "orbit", "--model", "section4", "--word", "cpcpcqcq", "--start", "0,top"),
       ("dump", "orbit", "--model", "section4", "--word", "cpcpcqcq", "--start", "0,top",
        "--format", "json"),
       ("dump", "orbit", "--model", "example3-repaired", "--M", "6", "--word", "pq",
        "--start", "0")]
    + [("dump", "orbit", "--model", "section4", "--m", m, "--word", "cpcpcqcq",
        "--start", "0,top") for m in ("8", "12")]
    + [("dump", "orbit", "--model", "section4", "--m", "1024", "--word", "cpcpcqcq",
        "--start", "0,top", "--iters", "4096")]
)


def body_digest(argv) -> tuple[str, int]:
    """sha256 of what the command prints, less its "# " lines, and its
    exit code."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    body = "".join(line for line in buf.getvalue().splitlines(keepends=True)
                   if not line.startswith("# "))
    return hashlib.sha256(body.encode()).hexdigest(), code


def theory_models() -> list:
    return ([m for n in range(3) for m in idlab.enumerate_all_pairs(n)]
            + list(idlab.enumerate_commuting_pairs(3)))


def universe_tables(models) -> bytes:
    out = []
    for m in models:
        for depth in (1, 2, 3):
            u = theory.term_universe(m, depth)
            out += [len(u).to_bytes(4, "little")] + [t.key() for t in u]
    return b"".join(out)


def model_reports(models) -> bytes:
    return json.dumps([theory.check_intended_model(m).as_dict() for m in models]).encode()


def proposition5_sides() -> list:
    return [side for k in (1, 2) for blocks in product(("p", "q", "pq"), repeat=2 * k)
            for side in theory.proposition5_equation(blocks)]


def proposition5_tables(models) -> bytes:
    sides = proposition5_sides()
    return b"".join(theory.eval_term(t, m).key() for m in models for t in sides)


def proposition5_words(models) -> bytes:
    words = [side.word for side in proposition5_sides()]
    return b"".join(opalg.eval_word(w, m.p, m.q).key() for m in models for w in words)


def additive_monoids() -> bytes:
    out = []
    for M in (8, 16, 32):
        fam = models.example3_additive(M)
        mon = monoid.generate_monoid([fam.p, fam.q], names=("p", "q"))
        out.append([mon.witnesses, mon.cayley, [list(e.images) for e in mon.elements]])
    return json.dumps(out).encode()


#: one text parse_term refuses per message
REFUSED_TERMS = ("px", "pq)p", "p()", "q(pq", "bar p", "p bar(q")


def term_reader() -> bytes:
    texts = []
    read = theory.parse_term  # recorded on its way through, as the derivation reads it
    theory.parse_term = lambda s: texts.append(s) or read(s)
    try:
        derivation = theory.collapse_derivation()
    finally:
        theory.parse_term = read
    out = []
    for s in texts + list(REFUSED_TERMS):
        try:
            out.append([s, theory.print_term(read(s))])
        except theory.TermSyntaxError as err:
            out.append([s, str(err), err.position])
    return json.dumps([out, derivation.to_json()]).encode()


LIBRARY = (
    ("term_universe depths 1-3", universe_tables),
    ("check_intended_model as_dict", model_reports),
    ("eval_term proposition5 sides", proposition5_tables),
    ("eval_word proposition5 words", proposition5_words),
)


def main():
    for argv in COMMANDS:
        digest, code = body_digest(argv)
        print(f"{digest}  {code}  {' '.join(argv)}", flush=True)
    models = theory_models()
    for label, pin in LIBRARY:
        digest = hashlib.sha256(pin(models)).hexdigest()
        print(f"{digest}  lib  {label} (pairs n<=2, commuting pairs n=3)", flush=True)
    for label, pin in (("generate_monoid additive <p,q> at M=8,16,32", additive_monoids),
                       ("parse_term collapse_derivation texts and refusals", term_reader)):
        print(f"{hashlib.sha256(pin()).hexdigest()}  lib  {label}", flush=True)


if __name__ == "__main__":
    main()
