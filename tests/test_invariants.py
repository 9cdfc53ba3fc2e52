"""Invariant guards must survive ``python -O``, which strips every
``assert`` statement; so the package checks them with explicit raises."""

from __future__ import annotations

import ast
from pathlib import Path

import btfvs

PACKAGE = Path(btfvs.__file__).resolve().parent

# reference.py is the frozen, definition-literal cross-check route.  It is
# kept as written so that it shares no code path with the production
# solvers it checks; its asserts guard the checkers, not a solver.
EXEMPT = {"reference.py"}


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"
