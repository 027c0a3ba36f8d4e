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
draws), interior at n = 4, example3 at a featured M inside M = 2..12
and past it, section4 at m = 6, each search, and each dump target,
with the largest dumps the benchmark makes, a monoid dump cut short by
--cap, and orbits of the flagged cycle at m = 8 and at m = 12, past the
table cap.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout

sys.path.insert(0, "src")

from closurelab import cli

SUITES = ("theorem1", "kuratowski14", "theorem2", "fixtures", "section4", "example3",
          "lemma6", "interior", "pq-closure", "remark-involution")
PQC_M6 = ("--model", "example3-repaired", "--M", "6", "--gens", "p,q,c")
COMMANDS = (
    [("verify", name, "--format", fmt) for name in SUITES for fmt in ("text", "json")]
    + [("verify", "theorem2", "--samples", "200", "--seed", "7", "--format", fmt)
       for fmt in ("text", "json")]
    + [("verify", "theorem2", "--samples", "2000", "--seed", "11", "--format", "json")]
    + [("verify", "theorem2", "--n", "1", "--seed", "-5")]
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
    + [("search", "identities", "--n", "3", "--maxlen", "12", "--format", "json")]
    + [("dump", "model", "--name", "section4"),
       ("dump", "model", "--name", "section4", "--m", "8"),
       ("dump", "model", "--name", "example3-literal"),
       ("dump", "model", "--name", "pij(0,1)"),
       ("dump", "monoid", "--model", "witness14"),
       ("dump", "monoid", "--model", "section4", "--m", "3", "--gens", "p,q,c"),
       ("dump", "monoid", *PQC_M6),
       ("dump", "monoid", *PQC_M6, "--cap", "100"),
       ("dump", "hasse", "--model", "witness14"),
       ("dump", "hasse", *PQC_M6),
       ("dump", "orbit", "--model", "section4", "--word", "cpcpcqcq", "--start", "0,top"),
       ("dump", "orbit", "--model", "section4", "--word", "cpcpcqcq", "--start", "0,top",
        "--format", "json")]
    + [("dump", "orbit", "--model", "section4", "--m", m, "--word", "cpcpcqcq",
        "--start", "0,top") for m in ("8", "12")]
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


def main():
    for argv in COMMANDS:
        digest, code = body_digest(argv)
        print(f"{digest}  {code}  {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
