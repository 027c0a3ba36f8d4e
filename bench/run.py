"""closurelab benchmark: one workload, one process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the src/ directory beside this one.  Ops
run back to back at --workers 1, and every op's output is checked
against independently derived values (see workloads.py).  Passes repeat
while the next one is expected to end within --seconds; a run makes at
least one.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh processes of the time taken to import
               closurelab and fill the closure and commuting-pair caches
  pass_s       median time of one pass over the op list, caches warm
Both times are wall seconds rescaled to a fixed reference speed of the
machine, sampled while the work runs (refclock.py): the host's speed
drifts by up to 2x within minutes, and unscaled medians of runs of the
same code spread past any useful bound.  The unscaled medians and the
speed samples are printed on comment lines.
  peak_rss_mb  ru_maxrss of this process at the end of the run
  op_ok_share  ops whose output passed every check, over ops attempted
               (its complement, op_fail_share, is printed as a comment)
--trace 1 runs untraced and traced passes and reports per-layer calls,
self times and counters (tracing.py), writing the spans to .bench_out/.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ok_share", "ratio"),
)


def fill_caches(idlab) -> None:
    """What every workload's ops read from the package caches."""
    for n in range(5):
        idlab.enumerate_closures(n)
    for n in range(4):
        idlab.enumerate_commuting_pairs(n)


def setup_probe() -> int:
    """Child side of a set-up measurement: print the seconds taken to
    import closurelab and fill its caches in this fresh process."""
    import refclock

    sys.path.insert(0, str(SRC))
    clock = refclock.ReferenceClock().start()
    from closurelab import idlab

    fill_caches(idlab)
    wall, scaled = clock.read()
    clock.stop()
    print(wall, scaled)
    return 0


def measure_setup() -> list[tuple[float, float]]:
    """(wall, scaled) set-up seconds of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        wall, scaled = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(scaled)))
    return samples


def machine_stanza() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workers": 1,
    }


def problems_of(op, result) -> list[str]:
    """What is wrong with an op's outcome; an op that raised, or whose
    output the check cannot even read, has failed."""
    if isinstance(result, Exception):
        return [f"raised {result!r}"]
    try:
        return op.check(result)
    except Exception as err:  # malformed output is a failed op, not a failed run
        return [f"output not checkable: {err!r}"]


class Tally:
    """Ops attempted and failed, and bytes the CLI wrote, over a phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.op_times = {}

    def add(self, op, seconds, result) -> None:
        self.attempted += 1
        self.op_times.setdefault(op.label, []).append(seconds)
        if op.cli and not isinstance(result, Exception):
            self.bytes_out += len(result[1].encode())
        problems = problems_of(op, result)
        if problems:
            self.failed += 1
            print(f"# check failed: {op.label}: {'; '.join(problems[:3])}", file=sys.stderr)


def run_pass(ops, tally, tracer=None, clock=None) -> float:
    """One pass over the op list; returns the summed time of the ops,
    in the clock's scaled seconds if a ReferenceClock is given, else in
    wall seconds.  Checks run between ops, outside the timed region."""
    now = time.perf_counter if clock is None else (lambda: clock.read()[1])
    total = 0.0
    for op in ops:
        start = now()
        try:
            result = op.run() if tracer is None else tracer.run_op(op.label, op.run)
        except Exception as err:  # counted as a failed op; the run goes on
            result = err
        seconds = now() - start
        total += seconds
        tally.add(op, seconds, result)
    return total


def run_passes(step, budget) -> list:
    """Call step until the next call would end past the budget (in
    seconds); at least once.  Returns step's results."""
    results = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > budget:
            return results


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def single_process_problems(ops, cpu_before) -> list[str]:
    """The run must stay one process and one thread at --workers 1."""
    problems = []
    if any(op.cli and "--workers 1" not in op.label for op in ops):
        problems.append("an op runs without --workers 1")
    if children_cpu() != cpu_before:
        problems.append("child processes ran during the passes")
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads alive")
    return problems


def raw_gather_us(n: int, reps: int = 20000, repeats: int = 7) -> float:
    """Median microseconds of one bare numpy gather of two 2^n tables."""
    import numpy as np

    rng = np.random.default_rng(n)
    a = rng.integers(0, 1 << n, 1 << n, dtype=np.int64)
    b = rng.integers(0, 1 << n, 1 << n, dtype=np.int64)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(reps):
            a[b]
        samples.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(samples)


def emit(correct, tally, metrics, units) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def run_untraced(args, ops, setup_samples) -> tuple:
    import refclock

    tally = Tally()
    cpu_before = children_cpu()
    clock = refclock.ReferenceClock().start()

    def timed_pass():
        wall = clock.read()[0]
        scaled = run_pass(ops, tally, clock=clock)
        return clock.read()[0] - wall, scaled

    try:
        rounds = run_passes(timed_pass, args.seconds)
    finally:
        clock.stop()
    walls, times = [r[0] for r in rounds], [r[1] for r in rounds]
    problems = single_process_problems(ops, cpu_before)
    for line in problems:
        print(f"# {line}", file=sys.stderr)
    for label, seconds in tally.op_times.items():
        print(f"# op {statistics.median(seconds):9.4f} s  {label}")
    print("# pass times, scaled: " + " ".join(f"{t:.3f}" for t in times))
    print("# pass times, wall:   " + " ".join(f"{t:.3f}" for t in walls))
    chunks = statistics.quantiles(clock.samples, n=4)
    print(f"# reference chunk: {len(clock.samples)} samples, quartiles"
          f" {' '.join(f'{c * 1e6:.1f}' for c in chunks)} us"
          f" (scale {refclock.REFERENCE_CHUNK_S * 1e6:.0f} us)")
    print(f"# setup, wall: {statistics.median(s[0] for s in setup_samples):.4f} s;"
          f" pass, wall: {statistics.median(walls):.4f} s")
    print(f"# passes: {len(times)}; op_fail_share = {tally.failed / tally.attempted:.4g}"
          f" ({tally.failed}/{tally.attempted})")
    metrics = {
        "setup_s": statistics.median(s[1] for s in setup_samples),
        "pass_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    return not problems and tally.failed == 0, tally, metrics, dict(END_TO_END)


def run_traced(args, ops, stanza, idlab) -> tuple:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op("setup", lambda: fill_caches(idlab))
    finally:
        tracer.uninstall()
    setup_records = tracer.take()

    tally = Tally()
    cpu_before = children_cpu()

    def traced_pass():
        tracer.install()
        try:
            return run_pass(ops, tally, tracer)
        finally:
            tracer.uninstall()

    # untraced and traced passes alternate, so both see the same machine
    rounds = run_passes(lambda: (run_pass(ops, tally), traced_pass()), args.seconds)
    plain, traced = [r[0] for r in rounds], [r[1] for r in rounds]
    records = tracer.take()
    problems = single_process_problems(ops, cpu_before)
    worst = max((abs(r) for r in records.op_residuals()), default=0.0)
    if worst > 1e-6:
        problems.append(f"op span differs from its summed self times by {worst:.3g} s")
    for line in problems:
        print(f"# {line}", file=sys.stderr)

    metrics = tracing.layer_metrics(setup_records, records, len(traced))
    metrics["kernel.raw_gather_us"] = raw_gather_us(3)
    metrics["kernel.raw_gather_us_n5"] = raw_gather_us(5)
    metrics["cli.bytes_out"] = tally.bytes_out / (len(plain) + len(traced))
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced;"
          f" spans: {len(records.spans)}; largest op residual {worst:.3g} s")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": stanza,
        "setup": setup_records.to_json(), "passes": records.to_json(),
    }))
    print(f"# spans written to {path.relative_to(ROOT)}")
    units = dict(tracing.PER_LAYER)
    metrics = {name: metrics[name] for name, _unit in tracing.PER_LAYER}
    return not problems and tally.failed == 0, tally, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("collapse-sampled", "exhaustive-words",
                                               "monoid-sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe()
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "closurelab" / "__init__.py").is_file():
        print(f"closurelab sources not found under {SRC}", file=sys.stderr)
        return 2

    stanza = machine_stanza()
    print("# machine: " + " ".join(f"{k}={v}" for k, v in stanza.items()))
    setup_samples = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import closurelab
    from closurelab import idlab

    if Path(closurelab.__file__).resolve().parent != SRC / "closurelab":
        print(f"imported closurelab from {closurelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.trace:
        emit(*run_traced(args, ops, stanza, idlab))
    else:
        fill_caches(idlab)
        emit(*run_untraced(args, ops, setup_samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
