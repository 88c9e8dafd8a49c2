"""Differential of the qrpat command line against another revision's.

``python3 tests/differential.py --against REV [--seed S] [--count N] [--allow FILE] [--tamper]``
extracts ``src/`` at REV with ``git archive`` (local history only) and answers
N seeded requests (``requests``, the suite's one generator of them) with REV's
and this checkout's ``src/``.  They span all six subcommands, ``--help``, parse
errors, refusals and the extremes: m = 1, D^2 and D^2 + 1, m up to 10^40, at
10^164 + 7 (where verify's point weight is 2) and up to Python's int-to-str digit
limit, D up to 10^19, a in {0, 1, b - 1, b}, b up to 10^6 through ``--fraction``,
integers past the digit limit, lambda-n up to 10^6, sides up to 10^400, and every
cap and one past it.

Each tree answers in one long-lived child, with the small caps of CAPS, so that
a request at a cap takes milliseconds.  The two answers (``answer``) are compared
whole, and this tree's is held to the exit contract (``contract``): a break, or a
timeout, is an undeclared difference even when both trees answer alike, and no
allow entry declares it.  One JSON summary is printed: the count per command and
outcome (this tree's exit code, ``SystemExit(code)``, "crash" or "timeout"), the
differences and breaks, the declared ones matched by each ``--allow`` entry, and
the first undeclared difference with both answers.  The exit code is 1 if any
difference is undeclared, else 0.

With ``--tamper`` both children wrap ``qrpat.cli.fraction_params`` alike (``tamper``):
for a subset of (m, a/b) drawn from the seed, one of TAMPERED_FIELDS moves by 1 up or
down.  So most ``verify`` requests exit 1, and both trees must name the same failed
checks in the same order; ``predict`` writes the tampered parameters.

An ``--allow`` file is a JSON list of entries {"reason", "argv", "old", "new",
"same"}: a difference is declared when ``argv`` (a regex) is found in the
request joined by spaces, each regex in ``old`` and ``new`` is found in that
side's field ("code", "stdout", "stderr", "error" - stderr's last line - or
"files"), and each field named in ``same`` is equal on both sides.  The file
``tests/differential_allow.json`` holds the differences that one change means
to make against its parent: each change replaces its contents with its own,
or with ``[]`` if it means to make none, since an entry left in place would
declare its difference on every later run.
"""

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import random
import re
import select
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COMMANDS = ("plot", "grid", "predict", "verify", "equiv", "bundle")
# Every cap, wherever a tree defines it, set in both children.
CAPS = {"MAX_MEMBERS": 2000, "MAX_VERIFY_POINTS": 25000, "MAX_ORACLE_POINTS": 5000,
        "MAX_PIXELS": 64 * 64, "MAX_SCATTER_SQUARES": 5000, "MAX_SCENE_POINTS": 3000,
        "MAX_LAMBDA_N": 400}
LIMIT = getattr(sys, "get_int_max_str_digits", int)() or 4300
SHOWN = 4096  # characters of stdout an answer carries for the allow file and the report
TIMEOUT = 30  # seconds a child may take to answer one request
# verify requests whose members went unchecked once; every run answers them first
HOLES = [["verify", "--modulus", str(10**40 + 1), "--max-denominator", d, "--window", "1"]
         for d in ("3000", "150")]
USAGE_ERROR = re.compile(rf"qrpat( ({'|'.join(COMMANDS)}))?: error: ")  # argparse's last line
TAMPERED_FIELDS = ("x0", "r0", "alpha", "beta")


def requests(seed: int, count: int) -> list[list[str]]:
    """count argv lists: HOLES, then argv drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    pick = rng.choice

    def modulus(d=1):
        if rng.random() < 0.5:
            return str(d * d + pick([0, 1, rng.randrange(1, 10**4)]))
        return str(pick([1, 2, 3, 5, rng.randrange(2, 10**4), rng.randrange(10**39, 10**40),
                         10**40 + 1, 9999, 10000, 10001, 2999, 3000, 3001, 10**164 + 7,
                         10**(LIMIT - 1) + 7]))

    def side():
        if rng.random() < 0.6:
            return str(rng.randrange(16, 65))
        return str(pick([1, 15, 16, 64, 65, 257, 4096, 4097, rng.randrange(1, 100), 10**30,
                         10**400]))

    def denominator():
        return pick([1, 2, 3, 9, 10, 18, rng.randrange(1, 13), rng.randrange(1, 60),
                     pick([150, 400, 3000, 10**6, 10**19])])

    def plot():
        d = denominator()
        half = pick([[], ["--half"], ["--no-half"]])
        out = "missing/out.pgm" if rng.random() < 0.1 else "out.pgm"
        return ["plot", "--modulus", modulus(d), "--width", side(), "--height", side(),
                *half, "--out", out]

    def grid():
        size = str(pick([1, 15, 16, 64, 65, 257, *[rng.randrange(2, 64)] * 4]))
        return ["grid", "--modulus", modulus(denominator()), "--size", size, "--out", "out.pgm"]

    def predict():
        b = pick([rng.randrange(1, 60), rng.randrange(100, 1000), 1999, 2000, 2001, 4000,
                  4001, 4002, 4003, 4004, rng.randrange(1, 10**6), 10**6])
        a = pick([0, 1, b - 1, b, rng.randrange(b + 1)])
        if rng.random() < 0.8:  # else a/b may not be in lowest terms
            a, b = a // math.gcd(a, b), b // math.gcd(a, b)
        d = denominator()
        fraction, max_d = ["--fraction", f"{a}/{b}"], ["--max-denominator", str(d)]
        selector = pick([fraction, fraction, max_d, max_d, fraction + max_d, []])
        return ["predict", "--modulus", pick([modulus(d), modulus(b), str(b * b + 1)]),
                *selector, *pick([[], ["--json"]])]

    def verify():
        d = denominator()
        window = pick([[], ["--window", str(pick([1, 7, 2499, 2500, 10**9]))]])
        return ["verify", "--modulus", modulus(d), "--max-denominator", str(d), *window]

    def lambda_n():
        return pick([[], ["--lambda-n", str(pick([1, 2, 9, 12, 399, 400, 401, 10**6]))]])

    def max_denominator():  # as equiv and bundle take it: 9 if left out
        d = pick([9, denominator(), denominator()])
        return d, [] if d == 9 and rng.random() < 0.5 else ["--max-denominator", str(d)]

    def equiv():
        d, option = max_denominator()
        m1 = int(modulus(d))
        m2 = pick([m1, m1 + 5040 * rng.randrange(1, 10**6), m1 + rng.randrange(1, 10**4),
                   int(modulus(d))])
        return ["equiv", "--m1", str(m1), "--m2", str(m2), *lambda_n(), *option]

    def bundle():
        d, option = max_denominator()
        svg = pick([[], ["--out", "out.svg", "--width", side(), "--height", side()]])
        return ["bundle", "--modulus", modulus(d), *lambda_n(), *option, *svg]

    draw = dict(zip(COMMANDS, (plot, grid, predict, verify, equiv, bundle)))
    argvs = [list(argv) for argv in HOLES[:count]]
    for _ in range(count - len(argvs)):
        argv = draw[pick(COMMANDS)]()
        kind = rng.random()
        if kind < 0.05:  # help, of the program or of a command
            argv = pick([["--help"], ["-h"], argv[:1] + ["--help"], argv + ["-h"]])
        elif kind < 0.15:  # one value the parser refuses
            at = pick([k for k, part in enumerate(argv) if part[:1].isdigit()] or [1])
            argv[at] = pick(["0", "-3", "x", "1.5", "9" * (LIMIT + 1), "2/6", "1/0",
                             "1/" + "9" * 5000])
        elif kind < 0.2:  # an unknown command or flag, or a required flag left out
            argv = pick([["nope"], [], argv + ["--nope"], argv[:1], argv[:1] + argv[3:]])
        argvs.append(argv)
    return argvs


def answer(argv: list[str]) -> dict:
    """{"code", "raised", "stdout", "stderr", "files"} of qrpat.cli.main(argv), run in this
    process in a new directory: "raised" if argparse raised SystemExit(code), the code
    "crash" if an exception escaped main, and the SHA-256 of each file the request left."""
    from qrpat.cli import main

    out, err, raised, home = io.StringIO(), io.StringIO(), False, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        os.chdir(tmp)
        try:
            code = main(argv)
        except SystemExit as exc:
            code, raised = exc.code, True
        except Exception as exc:  # a crash is an answer too
            code = "crash"
            err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            os.chdir(home)
        files = {str(path.relative_to(tmp)): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in Path(tmp).rglob("*") if path.is_file()}
    return {"code": code, "raised": raised, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def contract(argv: list[str], answer: dict) -> bool:
    """Whether an answer keeps the exit contract: argparse exits 0 only for -h or --help,
    with stdout and no stderr, or 2 with no stdout and its error last on stderr; main
    returns 0 with only "warning: skipping" lines on stderr, 1 only for a verify whose JSON
    says "ok": false, 2 with no stdout and one "error: " line, or 3 with one "i/o error: "."""
    code, out, err = answer["code"], answer["stdout"], answer["stderr"]
    lines = err.splitlines()
    if answer["raised"]:
        return (code == 0 and bool({"-h", "--help"} & set(argv)) and out != "" and err == ""
                or code == 2 and out == "" and bool(USAGE_ERROR.match((lines or [""])[-1])))
    one_line = err.endswith("\n") and err.count("\n") == 1
    return (code == 0 and all(line.startswith("warning: skipping ") for line in lines)
            or code == 1 and argv[:1] == ["verify"] and out.endswith('\n  "ok": false\n}\n')
            or code == 2 and out == "" and one_line and err.startswith("error: ")
            or code == 3 and one_line and err.startswith("i/o error: "))


def tamper(seed: int) -> None:
    """Wrap qrpat.cli.fraction_params so that, at half of the (m, a/b) drawn from seed,
    one of TAMPERED_FIELDS moves by 1 up or down: the same field and step in every tree
    and process, whatever order the fractions come in (an int tuple's hash is fixed)."""
    import qrpat.cli

    honest = qrpat.cli.fraction_params

    def tampered(m, frac):
        params = honest(m, frac)
        rng = random.Random(hash((seed, m, frac.a, frac.b)))
        if rng.random() < 0.5:
            field = rng.choice(TAMPERED_FIELDS)
            params = params._replace(**{field: getattr(params, field) + rng.choice((-1, 1))})
        return params

    qrpat.cli.fraction_params = tampered


def serve(tamper_seed: int | None) -> None:
    """The child: one JSON argv per stdin line, one JSON answer per line on the
    original stdout, whose descriptor a request cannot reach: SHOWN characters of
    stdout, its SHA-256, and whether it kept the contract.  Given a tamper_seed, it
    tampers with the parameters (``tamper``) after it sets the caps."""
    answers = os.fdopen(os.dup(1), "w")
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    import qrpat

    for info in pkgutil.iter_modules(qrpat.__path__):  # each cap's module, loaded or not yet
        importlib.import_module(f"qrpat.{info.name}")
    for module in [module for name, module in sys.modules.items() if name.startswith("qrpat")]:
        for name, value in CAPS.items():
            if hasattr(module, name):
                setattr(module, name, value)
    if tamper_seed is not None:
        tamper(tamper_seed)
    answers.write(json.dumps({"qrpat": sys.modules["qrpat"].__file__}) + "\n")
    answers.flush()
    for line in sys.stdin:
        argv = json.loads(line)
        reply = answer(argv)
        kept, stdout = contract(argv, reply), reply["stdout"]
        reply.update(kept=kept, stdout=stdout[:SHOWN],
                     stdout_sha256=hashlib.sha256(stdout.encode()).hexdigest())
        answers.write(json.dumps(reply) + "\n")
        answers.flush()


class Child:
    """One tree's long-lived child; each request runs in a directory of its own."""

    def __init__(self, src: Path, tamper_seed: int | None = None):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0",
               "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"}
        self.pending = b""
        seed = [] if tamper_seed is None else [str(tamper_seed)]
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--serve",
                                      *seed],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     bufsize=0)
        try:
            loaded = Path(self.receive()["qrpat"]).resolve()
            if not loaded.is_relative_to(src.resolve()):
                raise RuntimeError(f"the child for {src} loaded {loaded}")
        except BaseException:
            self.close()
            raise

    def send(self, argv: list[str]) -> None:
        self.proc.stdin.write((json.dumps(argv) + "\n").encode())

    def receive(self) -> dict:
        deadline = time.monotonic() + TIMEOUT
        while b"\n" not in self.pending:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                return {"code": "timeout", "raised": False, "stdout": "", "stderr": "",
                        "files": {}, "kept": False, "stdout_sha256": ""}
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                raise RuntimeError(f"a child exited with {self.proc.wait()}")
            self.pending += chunk
        line, _, self.pending = self.pending.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def extract(rev: str, dest: Path) -> str:
    """Write src/ at rev under dest; return the commit's full SHA."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def _field(answer: dict, name: str) -> str:
    if name == "error":
        return (answer["stderr"].splitlines() or [""])[-1]
    if name == "stdout":
        return answer["stdout"] if len(answer["stdout"]) < SHOWN else answer["stdout_sha256"]
    return json.dumps(answer[name], sort_keys=True) if name == "files" else str(answer[name])


def declared(entry: dict, argv: list[str], old: dict, new: dict) -> bool:
    """Whether one allow entry declares this difference (see the module docstring)."""
    return (re.search(entry.get("argv", ""), " ".join(argv)) is not None
            and all(re.search(pattern, _field(answer, name))
                    for side, answer in (("old", old), ("new", new))
                    for name, pattern in entry.get(side, {}).items())
            and all(_field(old, name) == _field(new, name) for name in entry.get("same", [])))


def compare(old_src: Path, new_src: Path, argvs: list[list[str]], allow: list[dict],
            tamper_seed: int | None = None) -> dict:
    """Answer argvs with both trees, one child each, tampered with from tamper_seed
    if one is given, and summarize the differences.  A contract break by
    the new tree is an undeclared difference; a timeout is one too, and the last
    request answered."""
    outcomes, allowed, first, different, broken, answered = {}, [0] * len(allow), None, 0, 0, 0
    started = time.perf_counter()
    children = []
    try:
        for src in (old_src, new_src):
            children.append(Child(src, tamper_seed))
        for argv in argvs:
            for child in children:
                child.send(argv)
            old, new = (child.receive() for child in children)
            answered += 1
            counts = outcomes.setdefault(argv[0] if argv and argv[0] in COMMANDS
                                         else "qrpat", {})
            outcome = f"SystemExit({new['code']})" if new["raised"] else str(new["code"])
            counts[outcome] = counts.get(outcome, 0) + 1
            timeout = "timeout" in (old["code"], new["code"])
            if old == new and new["kept"]:
                continue
            different += 1
            broken += not new["kept"]
            match = None if timeout or not new["kept"] else next(
                (k for k, entry in enumerate(allow) if declared(entry, argv, old, new)), None)
            if match is None:
                first = first or {"argv": argv, "old": old, "new": new}
            else:
                allowed[match] += 1
            if timeout:
                break  # a child still busy would answer the next request late
    finally:
        for child in children:
            child.close()
    return {"requests": answered, "seconds": round(time.perf_counter() - started, 2),
            "outcomes": {command: dict(sorted(counts.items()))
                         for command, counts in sorted(outcomes.items())},
            "different": different, "broken": broken, "undeclared": different - sum(allowed),
            "allowed": [{"reason": entry["reason"], "matched": n}
                        for entry, n in zip(allow, allowed)],
            "first_undeclared": first}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="differential.py", description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--allow", type=Path, help="JSON list of declared differences")
    parser.add_argument("--tamper", action="store_true",
                        help="tamper with fraction_params alike in both trees, from the seed")
    args = parser.parse_args(argv)
    allow = json.loads(args.allow.read_text()) if args.allow else []
    with tempfile.TemporaryDirectory() as tmp:
        sha = extract(args.against, Path(tmp))
        summary = compare(Path(tmp, "src"), REPO / "src", requests(args.seed, args.count), allow,
                          args.seed if args.tamper else None)
    print(json.dumps({"against": sha, "seed": args.seed, "tamper": args.tamper, **summary},
                     indent=2))
    return 1 if summary["undeclared"] else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        serve(int(sys.argv[2]) if sys.argv[2:] else None)
    else:
        sys.exit(main())
