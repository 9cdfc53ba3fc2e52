"""The three workloads: which instances, which entry point, how answers
are checked.

Every instance comes from a ``GenSpec`` drawn from a pinned catalogue
(``pins.json``).  Each catalogue entry carries the instance's optimum,
computed once by ``pin.py`` from ``exact_min_fvs`` and cross-checked against
``oracle_min_fvs`` up to 16 vertices, and a digest of its orientation
matrix so a changed generator is caught instead of silently measuring
other inputs.

A run solves the whole catalogue of its workload, in an order drawn from
``--seed``; the order decides which solves the traced run covers and which
entries a run's last, partial pass reaches.  Seeds do not sample a subset:
solve times spread over two orders of magnitude, so a per-seed subset alone
moves ``solve_ms_p90`` by about a third from seed to seed, which would hide
any regression.  The program only ever sees the generated tournaments.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Stratum:
    """One GenSpec family of the catalogue."""

    kind: str
    m: int
    n: int
    k_plant: int = 0
    twin_a: int = 1
    twin_b: int = 1

    @property
    def key(self) -> str:
        return (f"{self.kind}-{self.m}x{self.n}-p{self.k_plant}"
                f"-t{self.twin_a}x{self.twin_b}")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str            # "exact" or "pipeline"
    toy_profile: bool     # pipeline under ConstantsProfile.toy()
    strata: tuple[Stratum, ...]
    candidates: int       # pinned instances per stratum
    trace_solves: int     # solves in the traced run (a fixed list)
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="exact",
            entry="exact",
            toy_profile=False,
            strata=(
                Stratum("uniform", 9, 9),
                Stratum("uniform", 10, 10),
                Stratum("uniform", 11, 11),
                Stratum("uniform", 12, 12),
                Stratum("planted", 10, 10, k_plant=5),
                Stratum("planted", 12, 12, k_plant=5),
                Stratum("twinheavy", 10, 10, twin_a=2, twin_b=2),
                Stratum("twinheavy", 12, 12, twin_a=2, twin_b=2),
            ),
            candidates=13,
            trace_solves=96,
            why=("exact_min_fvs at 9-12 per side: budget restarts whose "
                 "infeasibility proofs in branch_solve dominate; pipeline, "
                 "msequence, matching and dfvc stay idle"),
        ),
        Workload(
            name="decide",
            entry="pipeline",
            toy_profile=False,
            strata=(
                Stratum("planted", 16, 16, k_plant=5),
                Stratum("planted", 24, 24, k_plant=5),
                Stratum("planted", 30, 30, k_plant=5),
                # A-side twin classes of 10-15 exceed k+1 (opt is 2-9 here),
                # so reduce_instance's twin rule truncates them
                Stratum("twinheavy", 20, 20, twin_a=10, twin_b=2),
                Stratum("twinheavy", 24, 24, twin_a=12, twin_b=2),
                Stratum("twinheavy", 30, 30, twin_a=15, twin_b=3),
            ),
            candidates=12,
            trace_solves=96,
            why=("pipeline_solve, paper profile, k in {opt-1, opt} at 16-30 "
                 "per side: seeding overflows, so all_squares, "
                 "reduce_instance and one branch_solve per solve carry it"),
        ),
        Workload(
            name="cascade",
            entry="pipeline",
            toy_profile=True,
            strata=(
                Stratum("uniform", 4, 4),
                Stratum("uniform", 5, 5),
                Stratum("planted", 5, 5, k_plant=2),
                Stratum("planted", 6, 6, k_plant=2),
                Stratum("twinheavy", 4, 4, twin_a=2, twin_b=1),
                Stratum("twinheavy", 6, 6, twin_a=3, twin_b=1),
            ),
            candidates=9,
            trace_solves=60,
            why=("pipeline_solve, toy profile, k in {opt-1, opt} at 4-6 per "
                 "side: the only workload where seeding, the five stages, "
                 "msequence, matching and dfvc do the work"),
        ),
    )
}


def genspec(stratum: Stratum, seed: int):
    from btfvs.generators import GenKind, GenSpec
    return GenSpec(stratum.m, stratum.n, GenKind(stratum.kind), seed,
                   k_plant=stratum.k_plant, twin_a=stratum.twin_a,
                   twin_b=stratum.twin_b)


def digest(T) -> str:
    """Orientation-matrix fingerprint, computed here rather than by the
    program's serializer."""
    bits = "".join("1" if x else "0" for row in T.orient for x in row)
    return hashlib.sha256(f"{T.m}x{T.n}:{bits}".encode()).hexdigest()[:16]


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Entry:
    """One solve of a run: which instance, which budget, the pinned optimum."""

    stratum: Stratum
    seed: int
    opt: int
    digest: str
    k: int | None         # None for exact, else the decision budget

    @property
    def label(self) -> str:
        budget = "" if self.k is None else f" k={self.k}"
        return f"{self.stratum.key}-s{self.seed}{budget}"


def _entries(workload: Workload, stratum: Stratum, pin: list) -> list[Entry]:
    seed, opt, dig = pin
    if workload.entry == "exact":
        return [Entry(stratum, seed, opt, dig, None)]
    return [Entry(stratum, seed, opt, dig, k) for k in (opt - 1, opt)]


def run_entries(workload: Workload, seed: int, pins: dict) -> list[Entry]:
    """The run's solve list: every pinned entry, shuffled by ``seed`` within
    its stratum and interleaved stratum by stratum, so every prefix keeps
    the workload's mix."""
    rng = random.Random(f"{workload.name}:{seed}")
    columns = []
    for stratum in workload.strata:
        entries = [e for pin in pins[workload.name][stratum.key]
                   for e in _entries(workload, stratum, pin)]
        rng.shuffle(entries)
        columns.append(entries)
    return [e for row in zip(*columns) for e in row]


def warmup_entry(workload: Workload, pins: dict) -> Entry:
    """Same for every seed: the first pinned instance of the first stratum,
    at its optimum."""
    stratum = workload.strata[0]
    return _entries(workload, stratum, pins[workload.name][stratum.key][0])[-1]
