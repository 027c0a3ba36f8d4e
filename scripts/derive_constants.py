"""Regeneration path for every pinned constant in the package.

Run from the repository root:

    python3 scripts/derive_constants.py

Prints the values that are hard-coded as fixtures, so they can be
re-derived from scratch after a representation change:

  * the 14-element witness (ground size, fixed points, seed subset)
    pinned in models.py
  * the collapse fixture that fails without commutativity, pinned in
    suites.FIXTURE_FAILURE
  * staircase monoid sizes used by the growth assertions in the tests
  * sampler coverage evidence for the seeded commuting-pair sampler

Everything here is deterministic; no flags, no environment.
"""

import sys
import time

sys.path.insert(0, "src")

from closurelab import idlab, models, monoid, opalg, suites, theory


def main():
    t0 = time.perf_counter()

    print("== closure counts ==")
    for n in range(5):
        print(f"n={n}: {len(idlab.enumerate_closures(n))} closures")

    print("\n== commuting pair counts ==")
    for n in range(4):
        total = len(idlab.enumerate_all_pairs(n))
        comm = len(idlab.enumerate_commuting_pairs(n))
        print(f"n={n}: {comm} commuting of {total} ordered pairs")

    print("\n== 14-element witness search ==")
    n, fixed, seed = idlab.find_kuratowski_witness()
    print(f"ground size: {n}")
    print(f"fixed point masks: {fixed}")
    print(f"fixed point sets: {[opalg.elements_of(m) for m in fixed]}")
    print(f"seed mask: {seed}  set: {opalg.elements_of(seed)}")
    k = opalg.closure_from_fixed_points(n, fixed)
    c = opalg.complement_table(n)
    mon = monoid.generate_monoid([k, c], names=("k", "c"))
    wit = ["1" if w == "" else w for w in mon.witnesses]
    print(f"monoid size: {len(mon)}")
    print(f"witness words: {' '.join(wit)}")
    images = {e.apply(seed) for e in mon.elements}
    print(f"distinct seed images: {len(images)}")

    print("\n== max monoid size per ground size ==")
    for size in range(1, 5):
        best = idlab._kc_screen(idlab._closure_stack(size))[0].max()
        print(f"n={size}: max |monoid(k,c)| = {best}")

    print("\n== collapse fixture failing without commutativity ==")
    found = None
    for idx, (lhs, rhs) in enumerate(idlab.FIXTURE_EQUATIONS):
        # the first refuting pair in (p index, q index) order at the
        # smallest size, and its smallest separating mask
        cert = idlab.search_counterexample(lhs, rhs, max_n=3)
        if cert.holds:
            print(f"fixture {idx}: {lhs} = {rhs}: no failure at n <= 3")
            continue
        size, w = cert.model.ground_size, cert.witness
        closures = idlab._closures(size)
        pi, qi = closures.index(cert.model.p), closures.index(cert.model.q)
        print(f"fixture {idx}: {lhs} = {rhs}")
        print(f"  fails at n={size} p#{pi} q#{qi} witness mask {w} set {opalg.elements_of(w)}")
        if found is None:
            found = (idx, size, pi, qi, w)
    print(f"pin FIXTURE_FAILURE = {found}")

    print("\n== staircase monoid growth ==")
    for M in (8, 16, 32):
        fam = models.example3_additive(M)
        mon2 = monoid.generate_monoid([fam.p, fam.q], names=("p", "q"))
        line = f"M={M}: |monoid(p,q)| = {len(mon2)}"
        if M <= 16:
            tab = models.example3(M)
            mon3 = monoid.generate_monoid([tab.p, tab.q], names=("p", "q"))
            line += f"  (table cross-check: {len(mon3)})"
        print(line)

    print("\n== staircase orbit growth ==")
    rows = monoid.growth_study(
        models.example3_additive, "pq", lambda size: 1, [8, 16, 32]
    )
    print(rows)

    print("\n== flagged cycle orbit growth ==")
    rows = monoid.growth_study(
        lambda m: models.section4_model(m, materialize=False),
        "cpcpcqcq",
        lambda m: 1 | (1 << (2 * m)),
        [4, 8, 16],
    )
    print(rows)

    print("\n== sampler coverage at n=2, 1000 seeds ==")
    keymap = {t.key(): i for i, t in enumerate(idlab._closures(2))}
    want = {(keymap[m.p.key()], keymap[m.q.key()])
            for m in idlab.enumerate_commuting_pairs(2)}
    got = set()
    for s in range(1000):
        m = idlab.sample_commuting_pair(2, s)
        got.add((keymap[m.p.key()], keymap[m.q.key()]))
    print(f"covered {len(got)} of {len(want)} commuting pairs;"
          f" complete: {got == want}")

    print("\n== identity search rediscovery ==")
    eqs, scope, examined = idlab.search_identities(13, n=2)
    print(f"examined {examined} words, {len(eqs)} equations over {scope}")
    target = [e for e in eqs if e[0] == "pqcpcqcqcpcpq"]
    print(f"equation for pqcpcqcqcpcpq: {target}")
    short = [e for e in eqs if e[0] == "pqcpq" or e[1] == "pqcpq"]
    print(f"equations mentioning pqcpq: {short[:5]}")

    print("\n== derivation fixture ==")
    v = theory.check_derivation(theory.collapse_derivation())
    print(f"collapse derivation accepted: {bool(v)} ({v.message})")

    print("\n== intended model screen at n=2 ==")
    pairs = idlab.enumerate_commuting_pairs(2)
    bad = [m.label for m in pairs if not theory.check_intended_model(m).ok]
    print(f"commuting pairs failing: {bad}")
    non = [
        m for m in idlab.enumerate_all_pairs(2) if not m.commuting
    ]
    rep = theory.check_intended_model(non[0])
    failing = [c.name for c in rep.checks if not c.passed]
    print(f"first non-commuting pair {non[0].label} fails: {failing}")

    # wall clock on a comment line, so two runs compare byte for byte
    print(f"\n# total {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
