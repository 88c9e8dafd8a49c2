"""The package namespace re-exports exactly the public names of its modules,
the README's library example runs as written and its caps table matches the code,
no module imports fractions, the CLI starts without dataclasses, typing, inspect
or shutil, and its help and usage text is argparse's own, byte for byte."""

import argparse
import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qrpat
from qrpat import cli, parabola, patterns, render
from test_cli import REFUSALS

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = (parabola, patterns, render)


def test_package_all_is_union_of_module_all():
    union = {name for mod in MODULES for name in mod.__all__}
    assert sorted(qrpat.__all__) == sorted(union)


def test_every_exported_name_resolves():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(qrpat, name) is getattr(mod, name), (mod.__name__, name)


def test_readme_library_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted and not result.failed


def caps_rows():
    """(cap, value, message) of each row of README's "Caps and refusals" table, the
    backticks dropped and the value read as an integer (10^7, 5*10^7, 9000)."""
    section = README.read_text().split("## Caps and refusals\n", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split(" | ")]
        if len(cells) == 5 and cells[0] != "cap":
            text = cells[1].split()[0]
            factor, power, exponent = text.rpartition("10^")
            value = int(factor.rstrip("*") or 1) * 10 ** int(exponent) if power else int(text)
            yield cells[0], value, cells[4]


def test_readme_caps_table_names_each_cap_its_value_and_a_refusal():
    # Digits masked, a row's message is one the CLI prints for some REFUSALS row.
    printed = {re.sub(r"\d+", "#", message) for _, message in REFUSALS}
    rows = list(caps_rows())
    assert len(rows) == 8
    for cap, value, message in rows:
        if cap == "sys.get_int_max_str_digits()":
            assert value == 4300
        else:
            module, name = cap.split(".")
            assert getattr(importlib.import_module(f"qrpat.{module}"), name) == value, cap
        assert re.sub(r"\d+", "#", message) in printed, cap


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
    assert siblings == {"parabola"}


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


# A fresh CLI run: the import alone, or one request after it.  The predict is the set-up
# request the benchmark times from launch to answer; the plot, the second verify and the
# SVG are large enough to split.
SPLIT_VERIFY = ["verify", "--modulus", "1000003", "--max-denominator", "2", "--window", "8192"]
COLD_STARTS = [
    [],
    ["predict", "--modulus", "20171", "--fraction", "1/3", "--json"],
    ["plot", "--modulus", "320000", "--out", os.devnull],
    ["verify", "--modulus", "10007", "--max-denominator", "5"],
    SPLIT_VERIFY,
    ["equiv", "--m1", "20179", "--m2", "25219"],
    ["bundle", "--modulus", "20179"],
    ["bundle", "--modulus", "20179", "--out", os.devnull],
]
# shutil (with bz2, lzma and fnmatch) sizes argparse's help text to the terminal; a
# request that prints no help should not load it.  A large scatter, verify or SVG splits
# by a bare fork, and an SVG's child writes to a memfd, so nothing loads the process and
# thread machinery or tempfile.
NOT_AT_START = SLOW_IMPORTS | {"shutil", "multiprocessing", "threading", "subprocess",
                               "tempfile"}


def test_cli_starts_without_dataclasses_typing_or_inspect():
    assert cli._plan("verify", 1000003, 2, window=8192)[1] >= cli._SPLIT_POINTS
    assert (320000 + 1) // 2 >= render._SPLIT_SQUARES and 20179 >= render._SPLIT_SCENE
    src = Path(qrpat.__file__).resolve().parent.parent
    code = ("import sys, qrpat.cli\n"
            "code = qrpat.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(' '.join(sorted(sys.modules)))\n"
            "sys.exit(code)")
    for argv in COLD_STARTS:
        child = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                               text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
                               check=True)
        loaded = set(child.stdout.splitlines()[-1].split())
        assert "qrpat.cli" in loaded, argv
        assert not loaded & NOT_AT_START, argv


# --help of the program and of each command, and one usage error.
HELP_ARGVS = [["--help"], *([command, "--help"] for command in
                            ("plot", "grid", "predict", "verify", "equiv", "bundle")),
              ["predict", "--modulus", "x"]]


def test_help_and_usage_are_argparse_text_byte_for_byte(capsys, monkeypatch):
    # cli's formatter sizes itself as it formats, argparse's as it is made.
    def texts():
        cli._build_parser.cache_clear()
        for argv in HELP_ARGVS:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            yield exc.value.code, *capsys.readouterr()

    by_width = []
    for columns in ("30", "40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        ours = list(texts())
        with monkeypatch.context() as stock:
            stock.setattr(cli._Parser, "_get_formatter", argparse.ArgumentParser._get_formatter)
            assert list(texts()) == ours, columns
        by_width.append(ours)
    cli._build_parser.cache_clear()
    assert [code for code, _, _ in by_width[0]] == [0] * 7 + [2]
    assert by_width[0] != by_width[1] != by_width[2]
