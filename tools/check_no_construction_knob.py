#!/usr/bin/env python3
"""Lint: no ``construction`` parameter or field in library code under ``src/``.

The LP/MILP formulations have one construction path (the COO builders).
The knob that once selected between two of them — a ``construction=``
argument on the builders, a ``construction`` field on the problems and on
``SolverOptions`` — split the fingerprint cache on a speed-only setting and
kept a second 400-line builder alive. This lint fails if it grows back.

Walks the AST and flags every function parameter and every class-level
field named ``construction``. Keyword arguments to *calls* (span
attributes such as ``span(..., construction="incremental")``) are labels,
not parameters, and are not flagged.

Exit status 0 when clean, 1 with a findings listing otherwise.
"""

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

NAME = "construction"


def find_knobs(path: pathlib.Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.arg == NAME:
                    findings.append(
                        (arg.lineno, f"parameter of {node.name}()"))
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target]
                           if isinstance(stmt, ast.AnnAssign) else [])
                if any(isinstance(t, ast.Name) and t.id == NAME
                       for t in targets):
                    findings.append(
                        (stmt.lineno, f"field of class {node.name}"))
    return findings


def main() -> int:
    failures = [f"{path.relative_to(REPO)}:{lineno}: {what}"
                for path in sorted(SRC.rglob("*.py"))
                for lineno, what in find_knobs(path)]
    if failures:
        print(f"{len(failures)} `{NAME}` knob(s) in library code (there is "
              "one construction path; do not add a selector):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("construction-knob-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
