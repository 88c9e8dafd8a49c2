"""The package namespace re-exports exactly the public names of its modules,
the README's library example runs as written, and no module imports fractions."""

import ast
import doctest
from pathlib import Path

import qrpat
from qrpat import parabola, patterns, render, residues

MODULES = (residues, parabola, patterns, render)


def test_package_all_is_union_of_module_all():
    union = {name for mod in MODULES for name in mod.__all__}
    assert sorted(qrpat.__all__) == sorted(union)


def test_every_exported_name_resolves():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(qrpat, name) is getattr(mod, name), (mod.__name__, name)


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted and not result.failed


def test_no_module_imports_fractions():
    # the README's exact-arithmetic claim: every rational is a pair of integers
    sources = sorted(Path(qrpat.__file__).parent.glob("*.py"))
    assert {Path(mod.__file__) for mod in MODULES} <= set(sources)
    for path in sources:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert "fractions" not in imported, path.name
