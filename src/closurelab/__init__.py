"""closurelab: verification and search workbench for the algebra of
complementation plus one or two closure operators on finite ground
sets.

Operators live as lookup tables over powerset bitmasks, and words over
{c, p, q} are checked and evaluated on them (opalg); balanced words
translate into bar-terms and the collapse family is built (theory);
the worked models ship as constructors (models), generated monoids and
orbits come from monoid, exhaustive enumeration and equation testing
from idlab, the paper's checks are the suites, and the cli module
binds everything into batch commands.

The package root imports nothing up front (PEP 562): reading one of
the names below, or a submodule, imports its submodule then, and the
name is kept on the root.  So `from closurelab import idlab` loads
idlab and what it imports, not theory or suites.
"""

from importlib import import_module

#: each submodule, with the names the package root re-exports from it
_EXPORTS = {
    "opalg": (
        "AdditiveOperator",
        "FnOperator",
        "OperatorTable",
        "check_closure",
        "check_interior",
        "closure_from_fixed_points",
        "commutes",
        "complement_table",
        "conjugated_involution",
        "eval_word",
        "eval_word_on",
        "identity_table",
        "leq",
        "parse_word",
        "reversed_involution",
    ),
    "theory": (
        "Derivation",
        "check_derivation",
        "check_intended_model",
        "collapse_derivation",
        "proposition5_equation",
        "eval_term",
        "parse_term",
        "print_term",
        "theorem2_word",
        "to_term",
    ),
    "models": (
        "ClosurePairModel",
        "WindowSpec",
        "example3",
        "example3_additive",
        "kuratowski_witness",
        "pij_pair",
        "section4_model",
    ),
    "monoid": ("GeneratedMonoid", "generate_monoid", "growth_study", "hasse", "orbit"),
    "idlab": (
        "EquationCertificate",
        "Scope",
        "enumerate_closures",
        "enumerate_commuting_pairs",
        "find_kuratowski_witness",
        "sample_commuting_pair",
        "sample_commuting_pairs",
        "search_identities",
        "test_equation",
    ),
    "suites": (),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, or a submodule (which owns its own name),
    imported on its first read and kept on the root."""
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    """The root's names, with every export and submodule not yet read."""
    return sorted({*globals(), *_OWNER, *_EXPORTS})
