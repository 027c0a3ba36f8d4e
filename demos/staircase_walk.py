"""Walk the staircase pair on a segment.

Two closures on {0, ..., M}: one rounds a set up through even
anchors, the other through odd ones.  Applying pq to {0} climbs the
segment two steps at a time, and the generated monoid keeps growing
as the segment gets longer, so no finite word list can exhaust it.
"""

from closurelab import example3, example3_additive, generate_monoid, orbit
from closurelab.opalg import elements_of


def show_orbit(M):
    model = example3(M)
    rep = orbit("pq", model, 1)
    print(f"M = {M}: orbit of {{0}} under pq")
    for i, image in enumerate(rep.images):
        print(f"  step {i}: {sorted(elements_of(image))}")
    print(f"  {rep.distinct_count} distinct images")


def main():
    literal = example3(10, variant="literal")
    a, b = literal.p_report.checks["monotone"].witness
    print("the unrepaired p is not monotone:")
    print(f"  {sorted(elements_of(a))} is inside {sorted(elements_of(b))}, "
          f"but p maps them to {sorted(elements_of(literal.p.apply(a)))} "
          f"and {sorted(elements_of(literal.p.apply(b)))}")
    print()

    show_orbit(8)
    print()

    print("monoid of {p, q} against segment length:")
    for M in (8, 16, 32):
        fam = example3_additive(M)
        mon = generate_monoid([fam.p, fam.q], names=("p", "q"))
        print(f"  M = {M:2d}: {len(mon)} elements")


if __name__ == "__main__":
    main()
