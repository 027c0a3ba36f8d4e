"""The functions of the closurelab package that no exercised path calls.

Run from the repository root:

    python3 scripts/unreached.py

Under sys.setprofile it runs everything scripts/body_digests.py runs
(every command in its list and its library pins),
scripts/derive_constants.py, each demos/*.py script, and one pass of
each benchmark workload of bench/workloads.py at seed 1 (each op run,
then checked), with their output discarded; an op whose check fails is
named on standard error.  It then prints, sorted, one line per function
defined under src/closurelab/ that none of them called, as
module.qualified_name.  A name listed is a candidate for deletion
unless something these paths do not reach, such as a test reference or
a documented entry point, is meant to keep it.  Those names are KEPT,
each with the reason it stays; any other name printed is also named on
standard error, as is a KEPT name that no longer names a function or
that an exercised path calls, and the script then exits 1.
"""

import contextlib
import os
import runpy
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "closurelab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

#: the functions no exercised path calls that stay on purpose
KEPT = frozenset({
    # references in the tests: the pointwise order, the interior screen
    # and the validated mask helper
    "opalg.leq", "opalg.check_interior", "opalg.mask_of",
    # reached only with --out
    "cli._writable",
    # the package root's dir(), which the tests and interactive use call
    "__init__.__dir__",
    # the tests' composition reference, and the data model
    "opalg.OperatorTable.compose",
    # the data model, and errors on input no exercised path gives
    "opalg.OperatorTable.__hash__", "opalg.OperatorTable.__repr__",
    "opalg.OperatorTable.__setattr__", "opalg.AdditiveOperator.__hash__",
    "opalg.AdditiveOperator.__repr__", "opalg.AdditiveOperator.__setattr__",
    "theory.Term.__mul__",
})


def defined() -> dict:
    """(file, first line) -> module.qualified_name, for every def in
    the package's modules, nested ones included."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, CodeType):
                    stack.append(const)
                    if not const.co_name.startswith("<"):
                        names[str(path), const.co_firstlineno] = f"{path.stem}.{const.co_qualname}"
    return names


def exercise() -> list[str]:
    """Run every path; returns the benchmark ops whose checks failed."""
    import workloads

    for script in ["scripts/body_digests.py", "scripts/derive_constants.py",
                   *sorted(map(str, Path("demos").glob("*.py")))]:
        runpy.run_path(script, run_name="__main__")
    failed = []
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 1):
            problems = op.check(op.run())
            if problems:
                failed.append(f"{op.label}: {problems}")
    return failed


def main() -> int:
    os.chdir(ROOT)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            failed = exercise()
        finally:
            sys.setprofile(None)
    for line in failed:
        print(f"check failed: {line}", file=sys.stderr)
    called = {(os.path.realpath(file), line) for file, line in called}
    names = defined()
    unreached = sorted(name for key, name in names.items() if key not in called)
    for name in unreached:
        print(name)
    unexpected = [name for name in unreached if name not in KEPT]
    for name in unexpected:
        print(f"unreached and not kept: {name}", file=sys.stderr)
    stale = sorted(KEPT - set(names.values()))
    for name in stale:
        print(f"kept but not defined: {name}", file=sys.stderr)
    reached = sorted(KEPT & {name for key, name in names.items() if key in called})
    for name in reached:
        print(f"kept but reached: {name}", file=sys.stderr)
    return 1 if unexpected or stale or reached else 0


if __name__ == "__main__":
    sys.exit(main())
