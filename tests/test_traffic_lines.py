"""tools/traffic_lines.py counts the function statements no workload runs.

What counts as one statement, and which lines are its own, is decided by
function_statements; it is checked here on a small source. tools/ is put on
sys.path and the module is loaded with no bytecode written next to it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCE = '''\
"""Module docstring."""
import os

LIMIT = 3


def f(x):
    """Function docstring."""
    try:
        y = x + 1
    except ValueError:
        y = 0
    return y
'''


def test_function_statements_own_lines(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(TOOLS))
    traffic_lines = importlib.import_module("traffic_lines")
    # The module's docstring, import, assignment and def (lines 1, 2, 4, 7)
    # are module-level, and the function's docstring (line 8) compiles to no
    # traceable line: none is a statement. The try owns its except header
    # (line 11); the handler's body (line 12) is a statement of its own.
    assert traffic_lines.function_statements(SOURCE) == {
        9: {9, 11}, 10: {10}, 12: {12}, 13: {13}}
