"""Invariant guards must survive ``python -O``, which strips every
``assert`` statement; so the package checks them with explicit raises."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import btfvs

PACKAGE = Path(btfvs.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def test_family_cap_raised_only_by_the_meter():
    # every enumeration bound goes through errors.CapMeter, so the package
    # has one compare-and-raise for FamilyCapExceeded
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "FamilyCapExceeded"]
    assert not found, f"FamilyCapExceeded raised outside CapMeter: {found}"


def _tracer_targets(name: str) -> list[tuple[str, ...]]:
    """The leading string fields of each entry of a tuple assigned at the
    top level of the benchmark's tracer, read without importing it."""
    path = PERFBENCH / "tracer.py"
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


def _resolve(node: ast.expr, imported: dict):
    """The btfvs object a call's callee names, or None when it is not one:
    a name bound by ``from btfvs... import``, or a dotted path from
    ``btfvs`` such as ``btfvs.pipeline.ConstantsProfile.toy``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if node.id in imported:
        obj = imported[node.id]
    elif node.id == "btfvs":
        obj = btfvs
    else:
        return None
    for name in reversed(parts):
        if not hasattr(obj, name) and inspect.ismodule(obj):
            importlib.import_module(f"{obj.__name__}.{name}")
        obj = getattr(obj, name)
    return obj


def test_benchmark_calls_bind_to_btfvs_signatures():
    # the benchmark reports a call that no longer binds as a failed solve,
    # so dropping a keyword it passes (say pipeline_solve's workers) would
    # pass the tests here and break only the benchmark
    checked = []
    for path in sorted(PERFBENCH.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("btfvs"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve(node.func, imported)
            if target is None or inspect.ismodule(target):
                continue
            where = f"{path.name}:{node.lineno} {ast.unparse(node.func)}"
            args = [None] * len(node.args)
            kwargs = {kw.arg: None for kw in node.keywords if kw.arg is not None}
            try:
                inspect.signature(target).bind(*args, **kwargs)
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            checked.append(where)
    assert any("pipeline_solve" in w for w in checked), checked


def test_branch_solve_lookup_sites_are_the_solver():
    # the tracer counts part searches and fallback time by wrapping
    # branch_solve where it is looked up; part searches reach it through
    # solvers' own binding (solvers._minimise, one call per budget restart,
    # each passed the same record dict as ``carry``, so restarts and their
    # nodes are counted there too), and dfvc keeps its import
    # only as a site the tracer's list names; a local wrapper or copy in
    # pipeline would hide the fallback search from it
    import btfvs.dfvc
    import btfvs.pipeline
    import btfvs.solvers
    assert btfvs.dfvc.branch_solve is btfvs.solvers.branch_solve
    assert btfvs.pipeline.branch_solve is btfvs.solvers.branch_solve


# documented helpers exported for callers outside the package, which no
# module of it calls
KEPT_HELPERS = {"partition_parts", "some_topological_sort", "squares_packing_lower_bound",
                "validate_class"}


def _package_references() -> set[str]:
    """Every name the package's modules reference, but ``__init__``: each
    ``Name``, ``Attribute`` and imported name."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_exported_helpers_have_callers():
    # an exported function or class that no module of the package names is
    # kept alive by its tests alone; only the documented helpers may be
    referenced = _package_references()
    unused = {name for name in btfvs.__all__
              if (inspect.isfunction(getattr(btfvs, name)) or inspect.isclass(getattr(btfvs, name)))
              and name not in referenced}
    assert unused == KEPT_HELPERS
