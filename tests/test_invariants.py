"""Invariant guards must survive ``python -O``, which strips every
``assert`` statement; so the package checks them with explicit raises."""

from __future__ import annotations

import ast
import importlib
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


def _tracer_targets(name: str) -> list[tuple[str, ...]]:
    """The leading string fields of each entry of a tuple assigned at the
    top level of the benchmark's tracer, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == [name]:
            return [tuple(e.value for e in entry.elts
                          if isinstance(e, ast.Constant) and isinstance(e.value, str))
                    for entry in node.value.elts]
    raise LookupError(f"{name} not found in {path}")


def test_tracer_targets_resolve():
    # the tracer skips a name the program no longer has and reports its
    # metrics as 0, so a rename or deletion would pass the benchmark unseen
    missing = []
    for mod_name, attr in _tracer_targets("FUNCTIONS"):
        if not callable(getattr(importlib.import_module(mod_name), attr, None)):
            missing.append(f"{mod_name}.{attr}")
    methods = _tracer_targets("METHODS")
    for mod_name, cls_name, attr in methods:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if cls is None or not callable(vars(cls).get(attr)):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    assert methods and not missing, f"traced names missing from btfvs: {missing}"
