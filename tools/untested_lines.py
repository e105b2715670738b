"""Usage: python tools/untested_lines.py [PYTEST ARGS] -- the library lines no test runs.

Run from the root of the repository, it runs pytest in this process (with
the given arguments, else the whole suite) under ``sys.settrace``, records
the lines executed in ``src/meanfield_lab/*.py``, and prints
``file:line: source`` for each executable line that no test ran.  The
executable lines of a file are those of its compiled code objects
(``co_lines``, nested functions and classes included).  Code that runs only
in a child process, such as the ``python -m meanfield_lab.cli`` runs of the
CLI and demo tests, is not traced, so a line that only those reach is
listed.  Exits with pytest's exit code.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = {str(p): p for p in sorted((ROOT / "src" / "meanfield_lab").glob("*.py"))}


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction in the file's code objects."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(fn):
    """fn() under ``sys.settrace``: its value and the library lines it ran, per file."""
    ran = {name: set() for name in FILES}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.settrace(trace)
    try:
        value = fn()
    finally:
        sys.settrace(None)
    return value, ran


def print_missed(ran: dict[str, set[int]]):
    """``file:line: source`` for each executable library line not in ``ran``."""
    for name, path in FILES.items():
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")


def main(args: list[str]) -> int:
    code, ran = run_traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *args]))
    print_missed(ran)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
