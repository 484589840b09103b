"""Every function of the library is reached by a CLI verb.

A fresh interpreter installs ``sys.setprofile`` before it imports lgck, so
the readers that ``config`` builds at import time count as called.  It then
runs every golden-report case through ``lgck.cli.main``, plus one run that
prints its report to stdout.  Each non-dunder function and method defined
in ``src/lgck`` (nested closures excluded) must have been called.  Paper
identities that no verb computes are checked from ``tests/witnesses.py``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Functions that no verb calls, kept on purpose: qualified name -> reason.
ALLOWED = {
    "lgck.statespace:StateSpace.gram_matrix":
        "perfbench/spans.py wraps it by name for its statespace.gram_matrix span",
}

_RUN = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
import lgck.cli
sys.setprofile(None)
import test_golden_reports as golden

with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    root = Path(tmp)
    cases = golden._cases(golden._configs(root))  # built outside the profile
    out = str(root / "report.json")
    sys.setprofile(profile)
    codes = [lgck.cli.main([str(a) for a in args] + ["--output", out])
             for args in cases.values()]
    codes.append(lgck.cli.main(["validate", str(cases["validate"][1])]))  # to stdout
    sys.setprofile(None)
assert codes == [0] * len(codes), codes
lib = Path(lgck.cli.__file__).resolve().parent
print(json.dumps(sorted({(Path(c.co_filename).resolve().relative_to(lib).as_posix(),
                          c.co_firstlineno, c.co_name)
                         for c in called if Path(c.co_filename).resolve().is_relative_to(lib)})))
"""


def _defined(root: Path):
    """(qualified name, file relative to the package, first line, name) of
    every non-dunder function and method; a decorated one starts at its
    first decorator, as its code object does."""
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        module = "lgck." + rel[:-3].replace("/", ".").removesuffix(".__init__")
        scopes = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while scopes:
            node, prefix = scopes.pop()
            for child in node.body:
                if isinstance(child, ast.ClassDef):
                    scopes.append((child, f"{prefix}{child.name}."))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = child.name
                    if not (name.startswith("__") and name.endswith("__")):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        yield f"{module}:{prefix}{name}", rel, first, name


def test_every_library_function_is_reached_by_a_verb():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    run = subprocess.run([sys.executable, "-c", _RUN], env=env, cwd=TESTS,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    called = {tuple(c) for c in json.loads(run.stdout.splitlines()[-1])}
    defined = list(_defined(SRC / "lgck"))
    assert len(defined) > 100  # the walk found the library
    unreached = {qual for qual, rel, line, name in defined if (rel, line, name) not in called}
    assert unreached == set(ALLOWED)
