"""The statements of src/astro's functions that no benchmark workload runs.

Run from the repository root:

    python3 tools/traffic_lines.py

Every workload of benchmarks/run.py (its seed and config, with the shared
TUNING) is trained once, in this process, the way the benchmark trains it
(`train_once`: `run_training`, then the checks of its output), under a line
tracer limited to src/astro. Then, per module, each statement inside a
function that no workload executed is printed with its line number. A
statement counts as executed when any line of its own (its header, not a
nested statement) ran; statements that compile to no traceable line, such
as docstrings, are left out. It takes about 12 s on a 2-core host.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from pathlib import Path

from bench_phases import ROOT, load_benchmark

SRC = ROOT / "src" / "astro"


def code_lines(code) -> set[int]:
    """Every line a code object, or one nested in it, can report to a tracer."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def child_statements(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements nested directly in stmt: bodies, else and finally
    branches, except handlers' and match cases' bodies."""
    children = []
    for field in ("body", "orelse", "finalbody"):
        children += getattr(stmt, field, [])
    for clause in (*getattr(stmt, "handlers", []), *getattr(stmt, "cases", [])):
        children += clause.body
    return children


def function_statements(source: str) -> dict[int, set[int]]:
    """Each statement inside a function, by first line: the lines of its own
    that a tracer can report."""
    traceable = code_lines(compile(source, "<module>", "exec"))
    out: dict[int, set[int]] = {}

    def visit(stmts: list[ast.stmt], in_function: bool) -> None:
        for stmt in stmts:
            children = child_statements(stmt)
            if in_function:
                own = set(range(stmt.lineno, stmt.end_lineno + 1)) & traceable
                for child in children:
                    own -= set(range(child.lineno, child.end_lineno + 1))
                if own:
                    out[stmt.lineno] = own
            visit(children, in_function or isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source).body, False)
    return out


def main() -> int:
    sys.dont_write_bytecode = True
    executed: set[tuple[str, int]] = set()
    prefix = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        bench = load_benchmark()
        astro = bench.import_astro()
        for name, spec in bench.WORKLOADS.items():
            cfg = astro.config.RunConfig(seed=spec["seed"], **bench.TUNING, **spec["config"])
            with tempfile.TemporaryDirectory() as out:
                run = bench.train_once(astro, cfg, Path(out), bench.make_reference())
            if run["problems"]:
                raise RuntimeError(f"{name} failed: {run['problems']}")
    finally:
        sys.settrace(None)

    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = {line for file, line in executed if file == str(path)}
        missed = [first for first, own in function_statements(source).items()
                  if not own & ran]
        print(f"{path.relative_to(ROOT)}: {len(missed)} function statements never executed")
        for first in missed:
            print(f"  {first:5d}  {lines[first - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
