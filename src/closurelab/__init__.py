"""closurelab: verification and search workbench for the algebra of
complementation plus one or two closure operators on finite ground
sets.

Operators live as lookup tables over powerset bitmasks, and words over
{c, p, q} are checked and evaluated on them (opalg); balanced words
translate into bar-terms and the collapse family is built (theory);
the worked models ship as constructors (models), generated monoids and
orbits come from monoid, exhaustive enumeration and equation testing
from idlab, and the cli module binds everything into batch commands.
"""

from .opalg import (
    AdditiveOperator,
    FnOperator,
    OperatorTable,
    check_closure,
    check_interior,
    closure_from_fixed_points,
    commutes,
    complement_table,
    conjugated_involution,
    eval_word,
    eval_word_on,
    identity_table,
    leq,
    parse_word,
    reversed_involution,
)
from .theory import (
    Derivation,
    check_derivation,
    check_intended_model,
    collapse_derivation,
    proposition5_equation,
    eval_term,
    parse_term,
    print_term,
    theorem2_word,
    to_term,
)
from .models import (
    ClosurePairModel,
    WindowSpec,
    example3,
    example3_additive,
    kuratowski_witness,
    pij_pair,
    section4_model,
)
from .monoid import GeneratedMonoid, generate_monoid, growth_study, hasse, orbit
from .idlab import (
    EquationCertificate,
    Scope,
    enumerate_closures,
    enumerate_commuting_pairs,
    find_kuratowski_witness,
    sample_commuting_pair,
    sample_commuting_pairs,
    search_identities,
    test_equation,
)

__version__ = "0.1.0"
