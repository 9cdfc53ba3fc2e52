"""One workload phase in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload W --seed S --mode M [--seconds X]

Modes:

* ``setup``   -- import, generate, round trip, warm-up solve; report when
  the first timed solve could start.  ``run.py`` repeats it for ``setup_s``.
* ``measure`` -- the same set-up, then a closed loop of timed solves (one
  outstanding, one thread) for ``--seconds`` and at least one full pass
  over the run's solve list.  No wrapper is installed.
* ``trace``   -- the run's first ``trace_solves`` solves, each solved once
  untraced and once traced, alternately.  The per-layer counts come from
  this fixed solve list, so they repeat exactly for a given seed; the two
  timings give the tracing overhead.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# The host's speed at running Python swings by up to 1.5x within a minute
# (measured on the reference machine: 2 shared cores, CPython 3.11.7), far
# more than a regression the benchmark must catch.  Every timed interval is
# therefore scaled to the reference speed, as ``speed()`` measures it just
# before and just after the interval.  REFERENCE_PROBE_S is the probe's time
# on the reference machine when the host was quiet.
PROBE_ITERATIONS = 20_000
REFERENCE_PROBE_S = 0.0011
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Entry, Workload, digest, genspec, load_pins, \
    run_entries, warmup_entry  # noqa: E402


def speed() -> float:
    """Reference-machine seconds per second here, right now: the fastest
    of three timings of a fixed pure-Python loop, against the reference."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERATIONS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return REFERENCE_PROBE_S / best


def import_program() -> None:
    """Import btfvs from this checkout's ``src`` and nowhere else."""
    pkg = ROOT / "src" / "btfvs"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"program source not found at {pkg}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import btfvs
    import btfvs.io
    import btfvs.reference
    if Path(btfvs.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"imported btfvs from {btfvs.__file__}, not {pkg}")


@dataclass
class Prepared:
    """Serialized instances of a run; each solve parses its own copy."""

    pool: list[tuple[Entry, str]]
    warmup: tuple[Entry, str]


def prepare(workload: Workload, seed: int) -> Prepared:
    """Generate every instance of the run, check it against its pin, and
    round-trip it through ``serialize_instance``/``parse_instance``."""
    import btfvs.generators
    import btfvs.io
    pins = load_pins()
    texts: dict[tuple[str, int], str] = {}

    def text_of(entry: Entry) -> str:
        key = (entry.stratum.key, entry.seed)
        if key not in texts:
            T = btfvs.generators.generate(genspec(entry.stratum, entry.seed))
            if digest(T) != entry.digest:
                raise SystemExit(f"{entry.label}: generated instance differs from its pin")
            text = btfvs.io.serialize_instance(T)
            if btfvs.io.parse_instance(text).tournament != T:
                raise SystemExit(f"{entry.label}: serialize/parse round trip changed it")
            texts[key] = text
        return texts[key]

    pool = [(e, text_of(e)) for e in run_entries(workload, seed, pins)]
    warm = warmup_entry(workload, pins)
    return Prepared(pool, (warm, text_of(warm)))


def solver_for(workload: Workload):
    """The public entry point a solve calls: ``solve(T, entry) -> answer``."""
    import btfvs.pipeline
    import btfvs.solvers
    if workload.entry == "exact":
        return lambda T, entry: btfvs.solvers.exact_min_fvs(T)
    profile = btfvs.pipeline.ConstantsProfile.toy() if workload.toy_profile else None
    return lambda T, entry: btfvs.pipeline.pipeline_solve(T, entry.k, profile, workers=1)


def _acyclic_after(T, solution) -> bool:
    from btfvs.reference import dfs_has_cycle
    vertices = set(T.vertices())
    return solution <= vertices and not dfs_has_cycle(T, vertices - solution)


def check(workload: Workload, T, entry: Entry, answer) -> bool:
    """Is the answer right?  Decided by the reference cycle check and the
    pinned optimum, never by the call being timed."""
    if workload.entry == "exact":
        solution = frozenset(answer)
        return len(solution) == entry.opt and _acyclic_after(T, solution)
    if entry.k < entry.opt:
        return answer.solution is None and answer.status.value == "no-solution"
    return answer.found and len(answer.solution) <= entry.k \
        and _acyclic_after(T, frozenset(answer.solution))


def _judge(workload: Workload, T, entry: Entry, answer) -> bool:
    """``check``, with an answer of the wrong shape counted as wrong."""
    try:
        ok = check(workload, T, entry, answer)
    except (AttributeError, TypeError, ValueError):
        ok = False
    if not ok:
        print(f"{entry.label}: wrong answer", file=sys.stderr)
    return ok


def _parse(text: str):
    import btfvs.io
    return btfvs.io.parse_instance(text).tournament


def _solve_checked(workload, solve, entry, text):
    """(seconds, ok, answer) of one solve; an exception counts as a wrong
    answer and is reported, never raised."""
    T = _parse(text)
    t0 = time.perf_counter()
    try:
        answer = solve(T, entry)
    except Exception as exc:  # noqa: BLE001 - a failed solve must not end the run
        dt = time.perf_counter() - t0
        print(f"{entry.label}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return dt, False, None
    dt = time.perf_counter() - t0
    return dt, _judge(workload, T, entry, answer), answer


def _warm(workload, solve, prepared) -> bool:
    entry, text = prepared.warmup
    return _solve_checked(workload, solve, entry, text)[1]


def mix_metrics(times: list[list[float]]) -> dict:
    """Throughput and latency of the workload's mix, from the solve times
    of each pool entry (every entry solved at least once).

    Each entry counts once, with its fastest solve: the program is
    deterministic, so slower repetitions of the same solve measured other
    work on the machine, and a run that stops part-way through a pass does
    not tilt the mix toward the entries it reached twice.
    """
    best = [min(ts) * 1000.0 for ts in times]
    p90 = statistics.quantiles(best, n=10)[8]
    return {
        "solves_per_s": 1000.0 * len(best) / sum(best),
        "solve_ms_p50": statistics.median(best),
        "solve_ms_p90": p90,
        "entries": len(best),
        "beyond_p90": sum(1 for ms in best if ms > p90),
    }


def run_setup(workload: Workload, seed: int) -> dict:
    import_program()
    prepared = prepare(workload, seed)
    ok = _warm(workload, solver_for(workload), prepared)
    return {"ready_at": time.monotonic(), "speed": speed(), "warmup_ok": ok}


def run_measure(workload: Workload, seed: int, seconds: float, solve=None) -> dict:
    """Closed loop over the run's solve list for ``seconds`` of wall time,
    and at least one full pass.  Solve times are scaled to the reference
    speed; the unscaled figures ride along under ``raw``."""
    import_program()
    prepared = prepare(workload, seed)
    solve = solve or solver_for(workload)
    warmup_ok = _warm(workload, solve, prepared)
    ready_at = time.monotonic()
    setup_speed = speed()
    raw: list[list[float]] = [[] for _ in prepared.pool]
    scaled: list[list[float]] = [[] for _ in prepared.pool]
    failed = 0
    yes = 0
    cascade_yes = 0
    deadline = ready_at + seconds
    before = setup_speed
    i = 0
    while i < len(raw) or time.monotonic() < deadline:
        entry, text = prepared.pool[i % len(raw)]
        dt, ok, answer = _solve_checked(workload, solve, entry, text)
        after = speed()
        raw[i % len(raw)].append(dt)
        scaled[i % len(raw)].append(dt * (before + after) / 2)
        before = after
        i += 1
        failed += not ok
        if ok and workload.entry == "pipeline" and answer.found:
            yes += 1
            cascade_yes += not answer.used_fallback
    return {
        "ready_at": ready_at,
        "speed": setup_speed,
        "warmup_ok": warmup_ok,
        "attempted": i,
        "failed": failed,
        **mix_metrics(scaled),
        "raw": mix_metrics(raw),
        "yes": yes,
        "cascade_yes": cascade_yes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _root_out(workload: Workload, answer) -> tuple[int, int]:
    if workload.entry == "exact" or answer is None:
        return 0, 0
    if not answer.found:
        kind = tr.ANSWER_NO
    else:
        kind = tr.ANSWER_FALLBACK if answer.used_fallback else tr.ANSWER_CASCADE
    return kind, len(answer.diagnostics)


def run_trace(workload: Workload, seed: int, trace_solves: int | None = None,
              solve=None, spans_out: Path | None = None) -> dict:
    """Each of the first ``trace_solves`` solves of the run, once untraced
    and once traced, alternately; per-layer metrics come from the spans."""
    import_program()
    log = tr.SpanLog()
    tracer = tr.Tracer(log)
    tracer.install()
    log.solve_id = tr.SETUP
    try:
        prepared = prepare(workload, seed)
    finally:
        log.solve_id = tr.IDLE
        tracer.uninstall()
    solve = solve or solver_for(workload)
    warmup_ok = _warm(workload, solve, prepared)
    root = log.name_id(tr.EXACT_ROOT if workload.entry == "exact" else tr.PIPELINE_ROOT)
    n = workload.trace_solves if trace_solves is None else trace_solves

    def plain(sid: int, entry: Entry, text: str) -> tuple[str, float, bool]:
        dt, ok, _ = _solve_checked(workload, solve, entry, text)
        return "plain", dt, ok

    def traced(sid: int, entry: Entry, text: str) -> tuple[str, float, bool]:
        T = _parse(text)
        tracer.install()
        log.solve_id = sid
        idx = log.open(root)
        try:
            answer = solve(T, entry)
        except Exception as exc:  # noqa: BLE001 - a failed solve must not end the run
            answer = None
            print(f"{entry.label}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            log.close(idx)
            log.solve_id = tr.IDLE
            tracer.uninstall()
        log.out[idx], log.inp[idx] = _root_out(workload, answer)
        ok = answer is not None and _judge(workload, T, entry, answer)
        return "traced", log.end[idx] - log.start[idx], ok

    seconds = {"plain": 0.0, "traced": 0.0}
    failed = 0
    for sid in range(n):
        entry, text = prepared.pool[sid % len(prepared.pool)]
        # alternate which one goes first, so neither always runs second
        for step in ((plain, traced) if sid % 2 == 0 else (traced, plain)):
            kind, dt, ok = step(sid, entry, text)
            seconds[kind] += dt
            failed += not ok
    overhead = 1.0 - seconds["plain"] / seconds["traced"]
    if spans_out is not None:
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        log.write(spans_out)
    return {
        "warmup_ok": warmup_ok,
        "attempted": 2 * n,
        "failed": failed,
        "spans": len(log),
        "metrics": tr.layer_metrics(log, n, overhead),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = run_setup(workload, args.seed)
    elif args.mode == "measure":
        result = run_measure(workload, args.seed, args.seconds)
    else:
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.bin"
        result = run_trace(workload, args.seed, spans_out=spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
