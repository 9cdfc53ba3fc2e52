"""Outside-in tracing of the btfvs layers, for the benchmark's traced run.

The program is not edited.  ``Tracer.install`` replaces each named public
function at every place a caller looks it up: every global of a loaded
``btfvs`` module that is bound to the original function object, plus the
``remove`` and ``induced`` methods of ``BipartiteTournament`` at class level.
``Tracer.uninstall`` puts every original back.  The untraced run never
creates a tracer, so it runs the program exactly as shipped.

Each traced call becomes one span: name, start, end, parent span and solve
id, plus two integers read from the call's arguments and result (for
example squares returned, or branch nodes spent).  Spans are kept in flat
arrays in memory and written out in one piece at the end; every per-layer
metric is derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

SETUP = -1   # solve id of spans opened during set-up
IDLE = -2    # solve id of spans outside set-up and outside traced solves

EXACT_ROOT = "solvers.exact_min_fvs"
PIPELINE_ROOT = "pipeline.pipeline_solve"

# Root-span ``out`` value of a pipeline solve: how the answer came about.
ANSWER_NO, ANSWER_FALLBACK, ANSWER_CASCADE = 0, 1, 2


def _size(args, result):
    return len(result), 0


def _nodes(args, result):
    return result.stats.nodes, 0


def _kept(args, result):
    return result.tournament.num_vertices, args[0].num_vertices


# (defining module, function, what to record as (out, inp)); the span name
# is "<module without the btfvs prefix>.<function>".
FUNCTIONS = (
    ("btfvs.generators", "generate", None),
    ("btfvs.io", "parse_instance", None),
    ("btfvs.structure", "all_squares", _size),
    ("btfvs.structure", "find_square", None),
    ("btfvs.structure", "is_acyclic", None),
    ("btfvs.solvers", "branch_solve", _nodes),
    ("btfvs.solvers", "reduce_instance", _kept),
    ("btfvs.samplespace", "twise_space", None),
    ("btfvs.pipeline", "seed_instances", _size),
    ("btfvs.pipeline", "live_structure", None),
    ("btfvs.msequence", "m_sequence", None),
    ("btfvs.msequence", "back_edges", None),
    ("btfvs.msequence", "is_conflict_back_edge", None),
    ("btfvs.pipeline", "stage_regular", _size),
    ("btfvs.pipeline", "stage_weak", _size),
    ("btfvs.pipeline", "stage_matched", _size),
    ("btfvs.pipeline", "stage_lowblockdegree", _size),
    ("btfvs.pipeline", "stage_decoupled", _size),
    ("btfvs.matching", "max_bipartite_matching", None),
    ("btfvs.matching", "enumerate_min_vertex_covers", _size),
    ("btfvs.matching", "min_vertex_cover", None),
    ("btfvs.pipeline", "to_dfvc", None),
    ("btfvs.dfvc", "dfvc_solve", _nodes),
)

# (module, class, method) patched on the class itself.
METHODS = (
    ("btfvs.graph", "BipartiteTournament", "remove"),
    ("btfvs.graph", "BipartiteTournament", "induced"),
)

STAGES = ("regular", "weak", "matched", "lowblockdegree", "decoupled")


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class SpanLog:
    """Spans in flat arrays, one entry per call, in the order calls opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.out = array("q")
        self.inp = array("q")
        self.stack = [-1]
        self.solve_id = IDLE

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self.out.append(0)
        self.inp.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: Path) -> None:
        """Raw arrays (native byte order) behind a one-line JSON header."""
        header = {"names": self.names, "count": len(self),
                  "arrays": [["name", "H"], ["parent", "i"], ["solve", "i"],
                             ["start", "d"], ["end", "d"], ["out", "q"],
                             ["inp", "q"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


class Tracer:
    """Installs and removes the span-recording wrappers."""

    def __init__(self, log: SpanLog | None = None):
        self.log = log if log is not None else SpanLog()
        self._patches = self._find_patch_points()

    @staticmethod
    def _modules():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "btfvs" or name.startswith("btfvs."))]

    def _find_patch_points(self):
        """(owner, attribute, original, wrapper) for every lookup site.

        A function or method the program no longer has is skipped, so its
        metrics read 0 instead of the traced run failing.
        """
        patches = []
        modules = self._modules()
        for mod_name, attr, measure in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name(mod_name, attr), measure)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, span_name(mod_name, attr), None)
            patches.append((cls, attr, original, wrapper))
        return patches

    def patch_points(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every name the tracer replaces."""
        return [(owner, key, original) for owner, key, original, _ in self._patches]

    def _wrap(self, fn, name: str, measure):
        log = self.log
        nid = log.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = log.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.close(idx)
                raise
            log.close(idx)
            if measure is not None:
                log.out[idx], log.inp[idx] = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)


def _self_times(log: SpanLog) -> list[float]:
    """Span duration minus the time its direct children cover (seconds).

    Calls run on one thread and nest, so children never overlap and the
    covered part is the sum of the children's durations.
    """
    dur = [e - s for s, e in zip(log.start, log.end)]
    own = list(dur)
    for idx, parent in enumerate(log.parent):
        if parent >= 0:
            own[parent] -= dur[idx]
    return own


def layer_metrics(log: SpanLog, solves: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics over the traced solves (solve id >= 0), plus the
    set-up time of generation and parsing (solve id SETUP)."""
    names = log.names
    own = _self_times(log)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    out: dict[str, int] = {}
    inp: dict[str, int] = {}
    setup_s: dict[str, float] = {}
    by_parent = {"part_branch": 0, "fallback_s": 0.0}
    restarts = 0
    all_nodes = 0
    jobs_under_cascade_yes = 0
    roots: dict[str, list[int]] = {EXACT_ROOT: [], PIPELINE_ROOT: []}
    last_branch: dict[int, int] = {}

    for idx in range(len(log)):
        name = names[log.name[idx]]
        dur = log.end[idx] - log.start[idx]
        solve = log.solve[idx]
        if solve == SETUP:
            setup_s[name] = setup_s.get(name, 0.0) + dur
            continue
        if solve < 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + own[idx]
        out[name] = out.get(name, 0) + log.out[idx]
        inp[name] = inp.get(name, 0) + log.inp[idx]
        if name in roots:
            roots[name].append(idx)
        parent = log.parent[idx]
        parent_name = names[log.name[parent]] if parent >= 0 else None
        if name == "solvers.branch_solve":
            if parent_name == "dfvc.dfvc_solve":
                by_parent["part_branch"] += 1
            elif parent_name == PIPELINE_ROOT:
                by_parent["fallback_s"] += dur
            elif parent_name == EXACT_ROOT:
                restarts += 1
                all_nodes += log.out[idx]
                last_branch[parent] = log.out[idx]
        if name == "dfvc.dfvc_solve" and parent_name == PIPELINE_ROOT \
                and log.out[parent] == ANSWER_CASCADE:
            jobs_under_cascade_yes += 1
    final_nodes = sum(last_branch.values())

    def c(name):
        return calls.get(name, 0)

    def ms(table, name):
        return table.get(name, 0.0) * 1000.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, float] = {
        "generators.generate.ms": ms(setup_s, "generators.generate"),
        "io.parse_instance.ms": ms(setup_s, "io.parse_instance"),
    }
    for name in ("graph.remove", "graph.induced", "structure.all_squares",
                 "structure.find_square", "solvers.branch_solve",
                 "solvers.reduce_instance", "structure.is_acyclic",
                 "samplespace.twise_space", "pipeline.seed_instances",
                 "pipeline.live_structure", "msequence.m_sequence",
                 "msequence.back_edges", "matching.max_bipartite_matching",
                 "matching.enumerate_min_vertex_covers",
                 "matching.min_vertex_cover", "pipeline.to_dfvc",
                 "dfvc.dfvc_solve"):
        metrics[f"{name}.calls"] = c(name)
        metrics[f"{name}.self_ms"] = ms(self_s, name)
    metrics["structure.all_squares.squares"] = out.get("structure.all_squares", 0)
    metrics["solvers.branch_solve.nodes"] = out.get("solvers.branch_solve", 0)
    metrics["solvers.branch_solve.nodes_per_s"] = ratio(
        out.get("solvers.branch_solve", 0), incl.get("solvers.branch_solve", 0.0))
    metrics["solvers.exact_min_fvs.restarts"] = ratio(restarts, len(roots[EXACT_ROOT]))
    metrics["solvers.exact_min_fvs.final_budget_node_share"] = ratio(final_nodes, all_nodes)
    metrics["solvers.reduce_instance.kept_ratio"] = ratio(
        out.get("solvers.reduce_instance", 0), inp.get("solvers.reduce_instance", 0))
    metrics["pipeline.seed_instances.children"] = out.get("pipeline.seed_instances", 0)
    metrics["pipeline.live_structure.calls_per_solve"] = ratio(
        c("pipeline.live_structure"), solves)
    metrics["msequence.is_conflict_back_edge.calls"] = c("msequence.is_conflict_back_edge")
    for stage in STAGES:
        name = f"pipeline.stage_{stage}"
        metrics[f"{name}.calls"] = c(name)
        metrics[f"{name}.self_ms"] = ms(self_s, name)
        metrics[f"{name}.children"] = out.get(name, 0)
    metrics["matching.enumerate_min_vertex_covers.covers"] = \
        out.get("matching.enumerate_min_vertex_covers", 0)
    metrics["dfvc.dfvc_solve.nodes"] = out.get("dfvc.dfvc_solve", 0)
    metrics["dfvc.part_branch_solve.calls"] = by_parent["part_branch"]
    answers = [log.out[idx] for idx in roots[PIPELINE_ROOT]]
    cascade_yes = answers.count(ANSWER_CASCADE)
    yes = cascade_yes + answers.count(ANSWER_FALLBACK)
    metrics["pipeline.cap_overflows"] = inp.get(PIPELINE_ROOT, 0)
    metrics["pipeline.endgame.jobs_per_yes"] = ratio(jobs_under_cascade_yes, cascade_yes)
    metrics["pipeline.cascade_share"] = ratio(cascade_yes, yes)
    metrics["pipeline.fallback.ms"] = by_parent["fallback_s"] * 1000.0
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics
