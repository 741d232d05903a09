"""List the executable lines of src/covsteer that the tier-1 suite never runs,
and check them against the lines allowed to stay unrun.

Run from the repository root (arguments, if any, replace the default pytest
arguments):

    PYTHONPATH=src python tests/line_coverage.py

The suite runs in this process under sys.settrace and threading.settrace,
so the Monte Carlo draw workers are traced too; the CLI runs that tests
start as subprocesses are not.  A line is executable when a code object
compiled from its file carries it in its line table.  Prints each unrun
line as path:line with its reason from ALLOWED_UNRUN, then their count.
ALLOWED_UNRUN keys each allowed line by its stripped source text, so lines
moving within a file do not break it.  Exits with pytest's status if the
suite failed, else 1 when an unrun line is not in ALLOWED_UNRUN or a line
in it ran or no longer exists (each such line is listed), else 0.  The
tracer slows the suite down several times.
"""

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "covsteer")

# File name -> {stripped source text of a line allowed to stay unrun: why}.
ALLOWED_UNRUN = {
    "cli.py": {
        "os.unlink(tmp)": "_atomic_write's cleanup of its temporary file after a failed "
                          "write or rename, an I/O fault no test injects",
        "sys.exit(main())": "runs only when cli.py is executed as a script; the covsteer "
                            "entry point calls main directly, and the tests call main in-process",
    },
    "controllability.py": {
        'raise NotControllableError("greedy chain construction collapsed")':
            "behind the Kalman rank check, which refuses uncontrollable pairs first; no "
            "controllable pair is known to reach it",
    },
    "sde_sim.py": {
        "else os.cpu_count() or 1)": "the fallback on platforms without os.sched_getaffinity",
    },
}


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
    count, faults = 0, []
    for path in sorted(ran):
        rel, allowed = os.path.relpath(path, ROOT), ALLOWED_UNRUN.get(os.path.basename(path), {})
        with open(path, encoding="utf-8") as fh:
            texts = [line.strip() for line in fh]
        unrun = [(line, texts[line - 1]) for line in sorted(executable_lines(path) - ran[path])]
        for line, text in unrun:
            print(f"{rel}:{line}  {allowed.get(text, '(no reason given)')}")
            if text not in allowed:
                faults.append(f"{rel}:{line}: never ran, and ALLOWED_UNRUN gives no reason")
        count += len(unrun)
        unrun_texts = {text for _, text in unrun}
        faults += [f"{rel}: ALLOWED_UNRUN lists {text!r}, which "
                   + ("ran" if text in texts else "no longer exists")
                   for text in allowed if text not in unrun_texts]
    print(f"{count} executable lines in src/covsteer never ran")
    for fault in faults:
        print(fault)
    return int(status) or int(bool(faults))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
