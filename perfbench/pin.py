"""Rebuild ``pins.json``: the pinned catalogue every workload draws from.

For each stratum, generator seeds are walked upward from 0; an instance is
kept when it has a cycle (opt >= 1), until the stratum holds the
workload's ``candidates`` instances.  Each optimum comes from
``exact_min_fvs``; its solution must leave an acyclic remainder by
``reference.dfs_has_cycle``, and up to 16 vertices ``oracle_min_fvs`` must
agree on the size.

    python3 perfbench/pin.py          # from the repository root
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from btfvs.generators import generate  # noqa: E402
from btfvs.reference import dfs_has_cycle  # noqa: E402
from btfvs.solvers import exact_min_fvs, oracle_min_fvs  # noqa: E402

from workloads import PINS_PATH, WORKLOADS, digest, genspec  # noqa: E402

ORACLE_LIMIT = 16


def pin_stratum(stratum, count: int) -> list[list]:
    out = []
    seed = 0
    while len(out) < count:
        T = generate(genspec(stratum, seed))
        solution = exact_min_fvs(T)
        opt = len(solution)
        if dfs_has_cycle(T, set(T.vertices()) - solution):
            raise SystemExit(f"{stratum.key} seed {seed}: exact solution leaves a cycle")
        if T.num_vertices <= ORACLE_LIMIT:
            ref = oracle_min_fvs(T, cap=ORACLE_LIMIT)
            if len(ref.solution) != opt:
                raise SystemExit(f"{stratum.key} seed {seed}: exact {opt} "
                                 f"but oracle {len(ref.solution)}")
        if opt >= 1:
            out.append([seed, opt, digest(T)])
        seed += 1
    return out


def main() -> None:
    pins = {}
    for workload in WORKLOADS.values():
        pins[workload.name] = {}
        for stratum in workload.strata:
            pins[workload.name][stratum.key] = pin_stratum(stratum, workload.candidates)
            print(workload.name, stratum.key, "done", file=sys.stderr, flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
