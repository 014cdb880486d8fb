#!/usr/bin/env python3
"""List the executable lines of src/gmtkit that no test reaches.

    python3 scripts/line_reach.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on the whole of tests/, quietly) with
a `sys.settrace` line tracer on every frame whose code lives in src/gmtkit,
then prints, per module, the executable lines that never ran, as ranges.
Executable lines are the line numbers that the compiled code objects of each
module carry (`co_lines`), so comments, blank lines and docstrings never
count.  The tracer is installed before gmtkit is first imported, so module-
and class-level lines count as reached when the import runs them.  Lines that
run only in a subprocess (the console-script tests) count as unreached.

On the full suite a run took 68-70 s on two cores with Python 3.11.7, where
the suite alone takes about 42 s.  The exit code is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gmtkit"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of the module's code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    parts: list[str] = []
    start = prev = lines[0]
    for line in [*lines[1:], None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        parts.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def on_call(frame, event, arg):
        seen = reached.get(frame.f_code.co_filename)
        if seen is None:
            return None  # no line events for code outside the package

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imports no gmtkit module

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = hit = 0
    for name, path in files.items():
        lines = executable_lines(path)
        missed = sorted(lines - reached[name])
        total += len(lines)
        hit += len(lines) - len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    print(f"{hit} of {total} executable lines reached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
