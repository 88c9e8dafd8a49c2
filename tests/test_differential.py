"""Tests for the differential runner (tests/differential.py) on small request sets."""

import shutil
import subprocess

import pytest

import differential

SRC = differential.REPO / "src"


def planted(tmp_path, module, old, new):
    """A copy of src/ with one text of one module replaced (it must occur once)."""
    copy = tmp_path / "planted" / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "qrpat" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return copy


def test_requests_are_seeded_and_reach_every_command_help_and_the_extremes():
    argvs = differential.requests(1, 2000)
    assert argvs == differential.requests(1, 2000) != differential.requests(2, 2000)
    assert {argv[0] for argv in argvs if argv} >= set(differential.COMMANDS) | {"--help"}
    flat = [part for argv in argvs for part in argv]
    for part in ("-h", str(10**40 + 1), "9" * (differential.LIMIT + 1), "4096", "4097",
                 "2499", "2500", "400", "401", "missing/out.pgm", "out.svg"):
        assert part in flat
    seen = {}  # each flag's values, per command
    for argv in argvs:
        for flag, value in zip(argv[1:], argv[2:]):
            seen.setdefault((argv[0], flag), set()).add(value)
    for command in ("predict", "verify", "bundle", "equiv"):
        assert {"150", "400", "3000", str(10**6), str(10**19)} <= seen[command, "--max-denominator"]
    assert str(10**6) in seen["equiv", "--lambda-n"] & seen["bundle", "--lambda-n"]
    assert {"15", "257"} <= seen["plot", "--width"] & seen["grid", "--size"]
    assert "1" in seen["plot", "--modulus"] & seen["verify", "--modulus"]
    # b in the hundreds and up to 10^6, and a in {0, 1, b - 1, b}
    bs = {f.split("/")[1] for f in seen["predict", "--fraction"] if "/" in f}
    assert any(len(b) == 3 for b in bs) and str(10**6) in bs
    assert {"0/1", "1/1"} <= seen["predict", "--fraction"]
    # the two verify requests that once passed the points cap with their members unchecked
    assert argvs[:2] == [["verify", "--modulus", str(10**40 + 1), "--max-denominator", d,
                          "--window", "1"] for d in ("3000", "150")]


@pytest.mark.parametrize("module, old, new, field", [
    ("cli.py", 'print(f"error: {exc}"', 'print(f"error:  {exc}"', "stderr"),
    ("render.py", 'header = b"P5\\n', 'header = b"P5 \\n', "files"),
], ids=["stderr", "file"])
def test_a_planted_byte_is_caught(tmp_path, module, old, new, field):
    copy = planted(tmp_path, module, old, new)
    summary = differential.compare(SRC, copy, differential.requests(1, 300), [])
    assert summary["requests"] == 300 and summary["different"] == summary["undeclared"] > 0
    first = summary["first_undeclared"]
    assert first["old"][field] != first["new"][field]
    assert first["old"]["code"] == first["new"]["code"]


def test_a_request_that_outlasts_the_timeout_ends_the_run(tmp_path, monkeypatch):
    copy = planted(tmp_path, "cli.py", "def _cmd_equiv(args) -> int:\n",
                   "def _cmd_equiv(args) -> int:\n    __import__('time').sleep(60)\n")
    monkeypatch.setattr(differential, "TIMEOUT", 1)
    equiv = ["equiv", "--m1", "20179", "--m2", "20183"]
    summary = differential.compare(SRC, copy, [["equiv", "--help"], equiv, equiv], [])
    assert (summary["requests"], summary["different"], summary["undeclared"]) == (2, 1, 1)
    first = summary["first_undeclared"]
    assert first["argv"] == equiv and (first["old"]["code"], first["new"]["code"]) == (0, "timeout")


def test_an_allow_entry_declares_only_what_it_matches(tmp_path):
    copy = planted(tmp_path, "cli.py", 'print(f"error: {exc}"', 'print(f"error:  {exc}"')
    entry = {"reason": "a second space", "argv": "^(plot|grid|verify|equiv|bundle) ",
             "old": {"stderr": "^error: \\S"}, "new": {"stderr": "^error:  "},
             "same": ["code", "stdout", "files"]}
    summary = differential.compare(SRC, copy, differential.requests(1, 300), [entry])
    declared = summary["allowed"][0]["matched"]
    assert declared > 0 and summary["different"] == declared + summary["undeclared"]
    # predict's refusals, which the entry leaves out, are the rest
    assert summary["undeclared"] > 0 and summary["first_undeclared"]["argv"][0] == "predict"


@pytest.mark.parametrize("old, new", [
    ("def _cmd_equiv(args) -> int:\n", "def _cmd_equiv(args) -> int:\n    raise RuntimeError\n"),
    ('print(f"error: {exc}"', 'print(f"error: {exc}\\nsee --help"'),
], ids=["crash", "second-refusal-line"])
def test_a_contract_break_both_trees_share_is_undeclared(tmp_path, old, new):
    copy = planted(tmp_path, "cli.py", old, new)
    anything = {"reason": "an entry that declares any difference", "argv": ""}
    summary = differential.compare(copy, copy, differential.requests(1, 300), [anything])
    assert summary["different"] == summary["broken"] == summary["undeclared"] > 0
    assert summary["allowed"] == [{"reason": anything["reason"], "matched": 0}]
    assert not summary["first_undeclared"]["new"]["kept"]


def test_head_against_itself_shows_no_difference(tmp_path):
    if subprocess.run(["git", "-C", str(differential.REPO), "rev-parse", "HEAD"],
                      capture_output=True, check=False).returncode:
        pytest.skip("no git history here")
    differential.extract("HEAD", tmp_path)
    head = tmp_path / "src"
    summary = differential.compare(head, head, differential.requests(3, 300), [])
    assert (summary["different"], summary["first_undeclared"]) == (0, None)
    assert sum(n for counts in summary["outcomes"].values() for n in counts.values()) == 300
    assert {"0", "2"} <= set(summary["outcomes"]["predict"])


def test_tampered_verifies_fail_alike_and_a_reordering_of_their_failures_is_caught(tmp_path):
    argvs = differential.requests(1, 300)
    same = differential.compare(SRC, SRC, argvs, [], tamper_seed=1)
    assert (same["different"], same["broken"]) == (0, 0)
    verify = same["outcomes"]["verify"]
    assert verify["1"] > 5 * verify["0"] > 0  # most fail, and some still pass
    copy = planted(tmp_path, "cli.py", "for names in failed.values()",
                   "for names in reversed(failed.values())")
    # only a verify that fails more than one check shows the order of its failures
    assert differential.compare(SRC, copy, argvs, [])["different"] == 0
    caught = differential.compare(SRC, copy, argvs, [], tamper_seed=1)
    assert caught["different"] == caught["undeclared"] > 0
    first = caught["first_undeclared"]
    assert first["argv"][0] == "verify" and first["old"]["code"] == first["new"]["code"] == 1
