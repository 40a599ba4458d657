#!/usr/bin/env python3
"""The lines of the package that no tier-1 test runs.

    python3 scripts/unreached.py [PYTEST ARGS]

Runs tier-1 (`pytest -q --continue-on-collection-errors` from the root of
the repository, extra arguments passed on) in this process under a line
tracer, with pytest's own output on stderr.  It then prints `N of M
executable lines unreached` and `path:line: source` for each line of
`src/sosperturb` that no test ran.  A module's executable lines are the
line numbers that `co_lines()` gives for its code object and every code
object nested in it.  The tracer is installed before the package is
imported, so module-level lines count, and again at each test's setup and
call, because hypothesis replaces it.  Lines that run only in a
subprocess (the few `tests/test_cli.py` starts) count as unreached.  The
exit code is 0 whatever the tests give.  It takes about 30 s on 2 cores.
"""

import contextlib
import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "sosperturb")

hits = set()


def trace_lines(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return trace_lines


def trace_calls(frame, event, arg):
    """Trace the lines of the package's frames only."""
    return trace_lines if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None


class Retrace:
    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(trace_calls)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(trace_calls)


def executable_lines(path: str) -> set:
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    sys.settrace(trace_calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]],
                        plugins=[Retrace()])
    finally:
        sys.settrace(None)

    unreached, total = [], 0
    for folder, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            lines = executable_lines(path)
            total += len(lines)
            with open(path, encoding="utf-8") as handle:
                source = handle.read().splitlines()
            unreached += [(os.path.relpath(path, ROOT), line, source[line - 1].strip())
                          for line in sorted(lines) if (path, line) not in hits]
    print(f"{len(unreached)} of {total} executable lines unreached")
    for path, line, text in unreached:
        print(f"{path}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
