"""Word identities that need the commuting hypothesis.

Long words over {c, p, q} collapse to pqcpq whenever p and q are
commuting closures.  Checked here over every commuting pair on small
ground sets, then refuted on a non-commuting pair to show the
hypothesis is doing real work.
"""

from closurelab import idlab
from closurelab.theory import theorem2_word


def main():
    scope = idlab.Scope.exhaustive(2)
    print(f"scope: {scope.description}")
    for lhs, rhs in idlab.FIXTURE_EQUATIONS:
        cert = idlab.test_equation(lhs, rhs, scope)
        print(f"  {lhs} = {rhs}: {cert.summary()}")
    print()

    print("the same equations as block translations:")
    for blocks in (("p", "q"), ("q", "pq"), ("pq", "p", "q", "pq")):
        print(f"  blocks {blocks} -> {theorem2_word(blocks)}")
    print()

    lhs, rhs = idlab.FIXTURE_EQUATIONS[0]
    cert = idlab.search_counterexample(lhs, rhs, max_n=2)
    print("dropping the commuting hypothesis:")
    print(f"  {cert.summary()}")
    if cert.model is not None:
        print(f"  found on {cert.model.label}, which commutes: {cert.model.commuting}")
    print()
    ok = idlab.replay_certificate(cert)
    print(f"certificate replays from its own JSON payload: {ok}")


if __name__ == "__main__":
    main()
