"""Print each line of an rkdlab function body that the test suite never runs.

    python3 scripts/line_coverage.py

Installs a line tracer (``sys.settrace``, and ``threading.settrace`` for any
thread a test starts), then runs ``pytest -q tests`` in this process.  The
executable lines of a function are the lines its code objects map
instructions to (``co_lines()``), nested functions, lambdas, class bodies and
comprehensions included; module-level code runs at import and is not
counted.  A ``def`` line counts as run when the function is called.

Output: pytest's own report, then one line per executable line that never
ran, ``path:line: source``, with the path relative to the repository root and
in file and line order, then a count of those lines.  An empty list means
every function-body line ran at least once.  The exit status is pytest's.
Tracing slows the suite several times over.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rkdlab"


def executable_lines(path: Path) -> set:
    """The lines of the code objects below the module's, of the file at path."""
    lines = set()
    todo = [c for c in compile(path.read_text(), str(path), "exec").co_consts if hasattr(c, "co_lines")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        return local

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} function-body lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
