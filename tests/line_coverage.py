"""List the executable lines of src/covsteer that the tier-1 suite never runs.

Run from the repository root (arguments, if any, replace the default pytest
arguments):

    PYTHONPATH=src python tests/line_coverage.py

The suite runs in this process under sys.settrace and threading.settrace,
so the Monte Carlo draw workers are traced too; the CLI runs that tests
start as subprocesses are not.  A line is executable when a code object
compiled from its file carries it in its line table.  Prints each unrun
line as path:line, then their count, and exits with pytest's status.  The
tracer slows the suite down several times.
"""

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "covsteer")


def executable_lines(path):
    """Line numbers in the line tables of every code object compiled from path;
    0, which marks a module's entry, is not a source line."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args):
    """(pytest exit status, {source path: line numbers that ran})."""
    ran = {os.path.join(SRC, name): set() for name in os.listdir(SRC) if name.endswith(".py")}
    by_name = {}  # co_filename -> its set in ran, or None outside src/covsteer

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        seen = by_name[name]
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(argv):
    status, ran = run_traced(argv or ["-q", "--continue-on-collection-errors",
                                      os.path.join(ROOT, "tests")])
    unrun = [(os.path.relpath(path, ROOT), line) for path in sorted(ran)
             for line in sorted(executable_lines(path) - ran[path])]
    for path, line in unrun:
        print(f"{path}:{line}")
    print(f"{len(unrun)} executable lines in src/covsteer never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
