"""Benchmark runner: a corpus of instances against a roster of solvers,
with cross-solver agreement assertions and CSV output.
"""

from __future__ import annotations

import concurrent.futures
import io as _io
import csv
import time
from dataclasses import dataclass

from .errors import InstanceTooLarge
from .graph import BipartiteTournament
from .pipeline import ConstantsProfile, pipeline_solve
from .solvers import (KNOWN_SOLVERS, ORACLE_DEFAULT_CAP, Constraints, SolveStatus, _ms,
                      approx4, branch_solve, exact_min_fvs, oracle_min_fvs)


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    solver: str
    status: str
    size: int | None
    nodes: int
    ms: float
    approximate: bool = False


def _run_one(args) -> BenchRecord:
    instance_id, T, k, solver, oracle_cap, profile = args
    budget = k if k is not None else T.num_vertices
    t0 = time.perf_counter()
    if solver == "exact":
        sol = exact_min_fvs(T)
        return BenchRecord(instance_id, solver, SolveStatus.SOLUTION.value,
                           len(sol), 0, _ms(t0))
    if solver == "approx4":
        out = approx4(T, budget)
        status = SolveStatus.SOLUTION.value if out is not None \
            else SolveStatus.NO_SOLUTION.value
        return BenchRecord(instance_id, solver, status,
                           len(out) if out is not None else None,
                           0, _ms(t0), approximate=True)
    if solver == "oracle":
        try:
            res = oracle_min_fvs(T, cap=oracle_cap)
        except InstanceTooLarge:
            return BenchRecord(instance_id, solver, "too-large", None, 0, _ms(t0))
    elif solver == "branch":
        res = branch_solve(T, Constraints(budget=budget))
    elif solver == "pipeline":
        res = pipeline_solve(T, budget, profile)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return BenchRecord(instance_id, solver, res.status.value,
                       len(res.solution) if res.found else None,
                       res.stats.nodes, _ms(t0))


def bench(corpus: list[tuple[str, BipartiteTournament, int | None]],
          solvers: list[str], profile: ConstantsProfile | None = None,
          oracle_cap: int = ORACLE_DEFAULT_CAP,
          workers: int = 1) -> list[BenchRecord]:
    """Run every solver on every instance, in ``workers`` processes.

    Minimum sizes from the complete minimum-seeking solvers (oracle, exact)
    must match, and the budgeted solvers (branch, pipeline) must agree with
    each other on feasibility.  Records come back sorted by (instance,
    solver) regardless of worker count; ``workers`` < 1 raises ValueError.
    """
    if workers < 1:
        raise ValueError(f"bench needs at least one worker, got workers={workers}")
    for s in solvers:
        if s not in KNOWN_SOLVERS:
            raise ValueError(f"unknown solver {s!r}; pick from {KNOWN_SOLVERS}")
    tasks = [(iid, T, k, solver, oracle_cap, profile)
             for (iid, T, k) in corpus for solver in solvers]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, tasks))
    else:
        records = [_run_one(t) for t in tasks]
    records.sort(key=lambda r: (r.instance_id, r.solver))
    _assert_agreement(records)
    return records


def _assert_agreement(records: list[BenchRecord]) -> None:
    by_instance: dict = {}
    for r in records:
        by_instance.setdefault(r.instance_id, {})[r.solver] = r
    for iid, by_solver in by_instance.items():
        minima = {s: by_solver[s].size for s in ("oracle", "exact")
                  if s in by_solver and by_solver[s].size is not None}
        if len(set(minima.values())) > 1:
            raise AssertionError(f"{iid}: minimum sizes disagree: {minima}")
        budgeted = {s: by_solver[s].status for s in ("branch", "pipeline")
                    if s in by_solver}
        if len(set(budgeted.values())) > 1:
            raise AssertionError(f"{iid}: budget answers disagree: {budgeted}")


def to_csv(records: list[BenchRecord]) -> str:
    out = _io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["instance", "solver", "status", "size", "nodes", "ms"])
    for r in records:
        writer.writerow([r.instance_id, r.solver, r.status,
                         "" if r.size is None else r.size, r.nodes, f"{r.ms:.3f}"])
    return out.getvalue()
