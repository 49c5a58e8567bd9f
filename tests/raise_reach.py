"""Run tier-1 under a line tracer and fail if any ``raise`` in ``src/qccsim`` is never reached.

    PYTHONPATH=src python tests/raise_reach.py

Every test runs in this process under a stdlib ``sys.settrace`` line tracer (and
``threading.settrace``, for the Monte Carlo worker threads) that records lines only in
``src/qccsim``. Each ``raise`` statement is found with ``ast``; it counts as reached once its
first line runs, so a raise must begin its own line, and one that shares it is reported too.
Exits with pytest's status if a test fails, else 1 while any raise is unreached.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qccsim"


def raise_lines(path: Path) -> tuple[list[int], list[int]]:
    """The first line of each ``raise`` in ``path``, and those that follow other code on their line."""
    source = path.read_text()
    lines = source.splitlines()
    nodes = [node for node in ast.walk(ast.parse(source, str(path))) if isinstance(node, ast.Raise)]
    shared = [node.lineno for node in nodes if lines[node.lineno - 1][: node.col_offset].strip()]
    return sorted(node.lineno for node in nodes), shared


def main() -> int:
    hit: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}
    tracers: dict[str, object] = {}  # by code file name: a line recorder, or None outside the package

    def recorder(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            lines = hit.get(str(Path(name).resolve()))
            tracers[name] = None if lines is None else recorder(lines)
        return tracers[name]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"tier-1 failed under the tracer (pytest status {int(status)})")
        return int(status)

    unreached, shared, total = [], [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        firsts, sharing = raise_lines(path)
        total += len(firsts)
        unreached += [f"{path.name}:{line}" for line in firsts if line not in hit[str(path)]]
        shared += [f"{path.name}:{line}" for line in sharing]
    for label, where in (("raise not reached", unreached), ("raise shares its line with other code", shared)):
        for place in where:
            print(f"{label}: src/qccsim/{place}")
    print(f"{total - len(unreached)} of {total} raises in src/qccsim reached")
    return 1 if unreached or shared else 0


if __name__ == "__main__":
    sys.exit(main())
