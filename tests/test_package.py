"""The package root: its lazy namespace keeps the re-exported API, and a
cold start loads only the submodules a caller uses.

The cold-start checks each run in a fresh interpreter, since this
process has long since imported every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import closurelab

SRC = Path(__file__).resolve().parent.parent / "src"

#: the names the package root re-exports, in order, by owning submodule
EXPORTED = {
    "opalg": [
        "AdditiveOperator", "FnOperator", "OperatorTable", "check_closure",
        "check_interior", "closure_from_fixed_points", "commutes",
        "complement_table", "conjugated_involution", "eval_word", "eval_word_on",
        "identity_table", "leq", "parse_word", "reversed_involution",
    ],
    "theory": [
        "Derivation", "check_derivation", "check_intended_model",
        "collapse_derivation", "proposition5_equation", "eval_term", "parse_term",
        "print_term", "theorem2_word", "to_term",
    ],
    "models": [
        "ClosurePairModel", "WindowSpec", "example3", "example3_additive",
        "kuratowski_witness", "pij_pair", "section4_model",
    ],
    "monoid": ["GeneratedMonoid", "generate_monoid", "growth_study", "hasse", "orbit"],
    "idlab": [
        "EquationCertificate", "Scope", "enumerate_closures",
        "enumerate_commuting_pairs", "find_kuratowski_witness",
        "sample_commuting_pair", "sample_commuting_pairs", "search_identities",
        "test_equation",
    ],
}
ALL = [name for names in EXPORTED.values() for name in names]


def loaded_after(code):
    """The closurelab modules in sys.modules after a fresh interpreter
    runs code (stdout silenced), and the code's value of rc."""
    probe = (
        "import contextlib, io, json, sys\n"
        "rc = None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps([rc, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'closurelab')]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    rc, modules = json.loads(done.stdout)
    return rc, set(modules)


# ---------------------------------------------------------------------------
# the lazy namespace


def test_all_is_the_pinned_export_list():
    assert len(ALL) == 46
    assert closurelab.__all__ == ALL


def test_dir_lists_every_export_and_submodule():
    listed = dir(closurelab)
    assert set(ALL) <= set(listed)
    assert set(EXPORTED) | {"cli", "suites"} <= set(listed)
    assert listed == sorted(listed)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTED.items() for n in names])
def test_each_export_is_its_submodules_object(module, name):
    owner = importlib.import_module(f"closurelab.{module}")
    assert getattr(closurelab, name) is getattr(owner, name)
    assert vars(closurelab)[name] is getattr(owner, name)  # kept after the first read


def test_from_import_of_a_name_gives_the_same_object():
    from closurelab import eval_term, orbit

    assert eval_term is closurelab.theory.eval_term
    assert orbit is closurelab.monoid.orbit


def test_unknown_names_are_missing():
    assert not hasattr(closurelab, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        closurelab.nope
    with pytest.raises(ImportError):
        from closurelab import nope  # noqa: F401


def test_a_submodule_resolves_after_a_bare_import():
    rc, modules = loaded_after(
        "import closurelab\n"
        "rc = closurelab.theory.__name__")
    assert rc == "closurelab.theory"
    assert modules == {"closurelab", "closurelab.opalg", "closurelab.theory"}


def test_a_bare_import_loads_no_submodule():
    _, modules = loaded_after("import closurelab")
    assert modules == {"closurelab"}


# ---------------------------------------------------------------------------
# what a cold start loads


def test_importing_idlab_loads_only_what_it_imports():
    _, modules = loaded_after("from closurelab import idlab")
    assert modules == {"closurelab", "closurelab.idlab", "closurelab.models",
                       "closurelab.opalg"}


#: the benchmark's set-up fill, then the witness search, which runs no BFS
FILL = (
    "from closurelab import idlab\n"
    "for n in range(5):\n"
    "    idlab.enumerate_closures(n)\n"
    "for n in range(4):\n"
    "    idlab.enumerate_commuting_pairs(n)\n"
    "idlab.find_kuratowski_witness()\n"
)
#: a digest of the identity survey's equations, which run the monoid BFS
SURVEY = ("import hashlib\n"
          "survey = hashlib.sha256(repr(idlab.search_identities(7, n=2)).encode()).hexdigest()\n")


def test_the_cache_fill_loads_no_monoid_until_a_bfs_needs_it():
    rc, modules = loaded_after(
        FILL + "before = sorted(m for m in sys.modules if m.startswith('closurelab'))\n"
        + SURVEY + "rc = [before, survey]")
    before, survey = rc
    assert set(before) == {"closurelab", "closurelab.idlab", "closurelab.models",
                           "closurelab.opalg"}
    assert modules == set(before) | {"closurelab.monoid"}
    # the survey is the same whether monoid loads on demand or up front
    rc, _ = loaded_after("import closurelab.monoid\nfrom closurelab import idlab\n"
                         + SURVEY + "rc = survey")
    assert rc == survey


@pytest.mark.parametrize("argv", [["dump", "monoid", "--model", "witness14"],
                                  ["search", "witness14"]])
def test_dump_and_search_load_neither_suites_nor_theory(argv):
    rc, modules = loaded_after(f"from closurelab import cli\nrc = cli.main({argv!r})")
    assert rc == 0
    assert "closurelab.cli" in modules
    assert not modules & {"closurelab.suites", "closurelab.theory"}


def test_verify_loads_the_suites():
    rc, modules = loaded_after("from closurelab import cli\nrc = cli.main(['verify', 'interior'])")
    assert rc == 0
    assert {"closurelab.suites", "closurelab.theory"} <= modules
