"""The statement lines of ``src/weavekit`` that the tests never run.

Runs the test suite in this process under ``sys.settrace``, tracing only
frames whose code lives in ``src/weavekit/``, then prints, file by file,
every statement line inside a function that no test ran. A statement line
is the first line of a statement in a function body that compiles to code,
so docstrings, ``global`` and ``nonlocal`` are left out, and so are module
and class bodies, which run on import. Tests that run the package in a
subprocess add nothing to the trace.

It needs nothing beyond the standard library and pytest. Hypothesis
deadlines are switched off, because tracing slows every test several
times over.

Run ``python tests/line_trace.py`` for the whole suite, or pass pytest
arguments, as in ``python tests/line_trace.py tests/test_laurent.py``.
The whole suite takes several minutes under tracing. The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weavekit"


def statement_lines(path: Path) -> set[int]:
    """The first lines of the statements inside the functions of the module
    at ``path`` that the compiler gives code."""
    source = path.read_text()
    stmts: set[int] = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in fn.body:
                stmts.update(s.lineno for s in ast.walk(node) if isinstance(s, ast.stmt))
    coded: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        coded.update(line for _, line in dis.findlinestarts(code) if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return stmts & coded


class NoDeadlines:
    """A pytest plugin that loads a hypothesis profile without deadlines.
    Hypothesis is imported only once pytest is configured, so pytest can
    still rewrite its assertions."""

    def pytest_configure(self, config):
        try:
            from hypothesis import settings
        except ImportError:
            return
        settings.register_profile("line-trace", deadline=None)
        settings.load_profile("line-trace")


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` in this process; its exit status and, per
    absolute file name under ``src/weavekit``, the lines that ran."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = defaultdict(set)
    wanted: dict[str, bool] = {}

    # one local tracer for every frame: a closure made per call would hold
    # itself in a cycle, which a test that counts garbage would see
    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in wanted:
            wanted[name] = os.path.abspath(name).startswith(prefix)
        return on_line if wanted[name] else None

    sys.settrace(on_call)
    try:
        status = pytest.main(args, plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
    executed: dict[str, set[int]] = defaultdict(set)
    for name, lines in ran.items():
        executed[os.path.abspath(name)] |= lines
    return int(status), executed


def main(argv: list[str]) -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    status, ran = run_traced(argv or ["-q", "-p", "no:cacheprovider"])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(statement_lines(path) - ran[str(path)])
        if not missed:
            continue
        total += len(missed)
        text = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines never ran")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{total} statement lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
