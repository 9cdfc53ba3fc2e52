"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q        # from the repository root
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, load_pins, run_entries  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TIME_UNITS = {"ms", "1/s"}


def _bindings(points):
    return [vars(owner)[key] for owner, key, _ in points]


def _patch_points():
    worker.import_program()
    return tr.Tracer().patch_points()


def test_benchmark_json_names_what_the_runs_report():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    worker.import_program()
    reported = tr.layer_metrics(tr.SpanLog(), 1, 0.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(reported)


def test_baseline_maps_every_layer_metric_once():
    layer_map = json.loads((HERE / "baseline.json").read_text())["layer_map"]
    for metric in BENCHMARK["per_layer"]:
        matches = [m for m in layer_map if metric["name"].startswith(m["metric"])]
        assert len(matches) == 1, metric["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_catalogue_is_pinned_and_ordered_by_seed(name):
    workload = WORKLOADS[name]
    pins = load_pins()
    for stratum in workload.strata:
        assert len(pins[name][stratum.key]) == workload.candidates
    first = run_entries(workload, 1, pins)
    assert first == run_entries(workload, 1, pins)
    assert first != run_entries(workload, 2, pins)
    assert sorted(first, key=lambda e: e.label) == \
        sorted(run_entries(workload, 2, pins), key=lambda e: e.label)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    runs = [worker.run_trace(WORKLOADS[name], 5, trace_solves=2) for _ in range(2)]
    for res in runs:
        assert res["failed"] == 0
    counts = [{k: v for k, v in res["metrics"].items()
               if units[k] not in TIME_UNITS and k != "trace.overhead_frac"}
              for res in runs]
    assert counts[0] == counts[1]
    assert runs[0]["spans"] == runs[1]["spans"]


def test_wrong_answer_counts_as_error_and_run_goes_on():
    res = worker.run_measure(WORKLOADS["exact"], 1, 0.3,
                             solve=lambda T, entry: frozenset())
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]
    assert not res["warmup_ok"]


def test_raising_solver_counts_as_error_and_run_goes_on():
    def boom(T, entry):
        raise RuntimeError("deliberate")

    res = worker.run_measure(WORKLOADS["decide"], 1, 0.3, solve=boom)
    assert res["attempted"] >= 2
    assert res["failed"] == res["attempted"]


def test_trace_solve_with_wrong_answer_is_counted():
    res = worker.run_trace(WORKLOADS["cascade"], 1, trace_solves=1,
                           solve=lambda T, entry: None)
    assert res["failed"] == 2


def test_untraced_run_leaves_every_patched_name_untouched():
    points = _patch_points()
    originals = [original for _, _, original in points]
    seen = []
    real = worker.solver_for(WORKLOADS["exact"])

    def spy(T, entry):
        seen.append(_bindings(points) == originals)
        return real(T, entry)

    res = worker.run_measure(WORKLOADS["exact"], 1, 0.2, solve=spy)
    assert res["failed"] == 0
    assert seen and all(seen)
    assert _bindings(points) == originals


def test_traced_run_reaches_every_lookup_site_and_restores_it():
    points = _patch_points()
    sites = {(getattr(owner, "__name__", ""), key) for owner, key, _ in points}
    for site in [("btfvs.pipeline", "m_sequence"), ("btfvs.solvers", "find_square"),
                 ("btfvs.dfvc", "branch_solve"), ("btfvs.pipeline", "branch_solve"),
                 ("btfvs.solvers", "all_squares"), ("BipartiteTournament", "remove"),
                 ("BipartiteTournament", "induced")]:
        assert site in sites
    originals = [original for _, _, original in points]
    worker.run_trace(WORKLOADS["cascade"], 1, trace_solves=1)
    assert _bindings(points) == originals


def test_mix_metrics_count_each_entry_once_at_its_fastest():
    once = worker.mix_metrics([[0.1], [0.3]])
    again = worker.mix_metrics([[0.1, 0.15], [0.3]])
    for res in (once, again):
        assert res["solves_per_s"] == pytest.approx(5.0)
        assert res["solve_ms_p50"] == pytest.approx(200.0)


def test_self_time_subtracts_direct_children():
    log = tr.SpanLog()
    a, b, c = (log.name_id(x) for x in "abc")
    for nid, parent, start, end in ((a, -1, 0.0, 10.0), (b, 0, 1.0, 4.0),
                                    (c, 1, 2.0, 3.0), (c, 0, 5.0, 6.0)):
        log.name.append(nid)
        log.parent.append(parent)
        log.solve.append(0)
        log.start.append(start)
        log.end.append(end)
        log.out.append(0)
        log.inp.append(0)
    assert tr._self_times(log) == [6.0, 2.0, 1.0, 1.0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
