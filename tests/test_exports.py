"""The package namespace re-exports exactly the public names of its modules,
the README's library example runs as written, no module imports fractions, and
the CLI starts without dataclasses, typing or inspect."""

import ast
import doctest
import os
import subprocess
import sys
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


def imported_modules():
    """(source file, the top-level names it imports) for every module of qrpat."""
    sources = sorted(Path(qrpat.__file__).parent.glob("*.py"))
    assert {Path(mod.__file__) for mod in MODULES} <= set(sources)
    for path in sources:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        yield path, imported


def test_render_imports_nothing_from_patterns():
    # render draws a Scene it is given; bundle composes its matches into one.
    tree = ast.parse(Path(render.__file__).read_text())
    siblings = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert siblings == {"parabola", "residues"}


def test_no_module_imports_fractions():
    # the README's exact-arithmetic claim: every rational is a pair of integers
    for path, imported in imported_modules():
        assert "fractions" not in imported, path.name


# dataclasses imports inspect, which pulls in ast, dis and tokenize; together they took
# about 40% of `import qrpat.cli`.  Records are namedtuples: functools loads collections.
SLOW_IMPORTS = {"dataclasses", "typing", "inspect"}


def test_no_module_imports_dataclasses_or_typing():
    for path, imported in imported_modules():
        assert not imported & SLOW_IMPORTS, path.name


def test_cli_starts_without_dataclasses_typing_or_inspect():
    src = Path(qrpat.__file__).resolve().parent.parent
    code = "import sys, qrpat.cli; print(' '.join(sorted(sys.modules)))"
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    loaded = set(child.stdout.split())
    assert "qrpat.cli" in loaded
    assert not loaded & SLOW_IMPORTS
