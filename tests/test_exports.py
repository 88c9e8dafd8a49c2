"""The package namespace re-exports exactly the public names of its modules,
and the README's library example runs as written."""

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
