"""Every name a package module imports is used there or exported."""

import ast
from pathlib import Path

import pytest

import manifold_recon

SOURCES = sorted(Path(manifold_recon.__file__).parent.glob("*.py"))
# imported but unused on purpose. perfbench/layers.py traces the harness names,
# and perfbench/tests/test_checks.py::test_tracer_restores_every_attribute
# getattr()s every target in its LAYERS, so deleting one fails that test; they
# go when LAYERS stops listing them. perfbench/tests/test_checks.py reads
# kflats.empirical_error (test_kflats_holdout_and_bases).
TRACED = {("harness", "fsum_mean"), ("harness", "min_sqdist"), ("kflats", "empirical_error")}


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return imported - used - exported


def offending_imports(source: str, exempt: set) -> set:
    """Unused imports that are not exempt, plus stale exemptions: names the
    module uses again or no longer imports."""
    return unused_imports(source) ^ exempt


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    exempt = {name for module, name in TRACED if module == path.stem}
    assert offending_imports(path.read_text(encoding="utf-8"), exempt) == set()


def test_a_stale_exemption_is_reported():
    source = "from .util import fsum_mean, min_sqdist\n\nmin_sqdist()\n"
    assert unused_imports(source) == {"fsum_mean"}
    assert offending_imports(source, set()) == {"fsum_mean"}
    assert offending_imports(source, {"fsum_mean"}) == set()
    assert offending_imports(source, {"fsum_mean", "min_sqdist"}) == {"min_sqdist"}  # used
    assert offending_imports(source, {"fsum_mean", "mix_seed"}) == {"mix_seed"}  # not imported


def imported_names(source: str) -> set:
    """Every module path component and name an import statement mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for a in node.names for part in a.name.split("."))
    return names


def test_oracle_shares_no_code_with_the_fitters():
    # the brute-force reference must not reuse what it checks
    oracle = Path(manifold_recon.__file__).parent / "oracle.py"
    assert imported_names(oracle.read_text(encoding="utf-8")) & {"kmeans", "kflats", "util"} == set()
